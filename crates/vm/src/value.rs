//! Runtime values held in VM slots.

use effective_runtime::Bounds;
use lowfat::Ptr;

/// A value held in a virtual-register slot during execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// An integer (also booleans, characters, enums).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A pointer into the simulated address space.
    Ptr(Ptr),
    /// A `BOUNDS` value produced by the instrumentation.
    Bounds(Bounds),
}

impl Value {
    /// Interpret the value as an integer (pointers give their address).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Float(f) => *f as i64,
            Value::Ptr(p) => p.addr() as i64,
            Value::Bounds(_) => 0,
        }
    }

    /// Interpret the value as a float.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(f) => *f,
            Value::Ptr(p) => p.addr() as f64,
            Value::Bounds(_) => 0.0,
        }
    }

    /// Interpret the value as a pointer.
    pub fn as_ptr(&self) -> Ptr {
        match self {
            Value::Ptr(p) => *p,
            Value::Int(v) => Ptr(*v as u64),
            Value::Float(f) => Ptr(*f as u64),
            Value::Bounds(_) => Ptr::NULL,
        }
    }

    /// Interpret the value as bounds (wide bounds when it is not one).
    pub fn as_bounds(&self) -> Bounds {
        match self {
            Value::Bounds(b) => *b,
            _ => Bounds::WIDE,
        }
    }

    /// Truthiness for branches.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(f) => *f != 0.0,
            Value::Ptr(p) => !p.is_null(),
            Value::Bounds(_) => true,
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::Int(7).as_float(), 7.0);
        assert_eq!(Value::Float(2.5).as_int(), 2);
        assert_eq!(Value::Ptr(Ptr(16)).as_int(), 16);
        assert_eq!(Value::Int(32).as_ptr(), Ptr(32));
        assert!(Value::Bounds(Bounds::WIDE).as_bounds().is_wide());
        assert_eq!(Value::Int(1).as_bounds(), Bounds::WIDE);
    }

    #[test]
    fn a_fresh_slot_reads_as_wide_bounds() {
        // Frames start out as `Value::default()`, and the instrumentation
        // emits no initialisation for bounds slots: a bounds slot no check
        // has written must read as wide bounds.
        assert_eq!(Value::default().as_bounds(), Bounds::WIDE);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Ptr(Ptr::NULL).is_truthy());
        assert!(Value::Ptr(Ptr(8)).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        assert_eq!(Value::default(), Value::Int(0));
    }
}
