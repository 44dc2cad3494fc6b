//! Type interning: dense [`TypeId`]s for O(1) layout-table keys.
//!
//! The paper's cost model assumes every `type_check` is a single layout
//! hash-table probe.  Keying that table by structural [`Type`] values makes
//! each probe pay for a deep structural hash plus a clone of the key; the
//! interner removes both by mapping every canonical (array-stripped) type
//! to a dense `u32` id exactly once.  After interning, the hot path hashes
//! only `(u32, u64)` pairs and the runtime's `META` headers store the same
//! dense ids.
//!
//! Well-known types get fixed ids ([`TypeId::UNTYPED`], [`TypeId::FREE`],
//! [`TypeId::CHAR`], [`TypeId::VOID_PTR`]) so the coercion lookups of §5 —
//! the second `(T, char, k)` probe and the `void *` wildcard probe — need
//! no hashing at all.
//!
//! Alongside the id, the interner records the [`TypeTraits`] every lookup
//! consults (pointer? character? `void`? …) in a flat vector, so the
//! id-keyed lookup path never touches the structural type again.

use std::collections::HashMap;
use std::fmt;

use crate::types::Type;

/// A dense identifier for an interned (canonical, array-stripped) type.
///
/// Ids are never reused within an interner, so an id observed once — e.g.
/// stored in an allocation's `META` header — always denotes the same type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// `void`, doubling as the runtime's "no type bound" sentinel: untyped
    /// (foreign) allocations read back zeroed `META` words.
    pub const UNTYPED: TypeId = TypeId(0);
    /// The special `FREE` type bound to deallocated memory.
    pub const FREE: TypeId = TypeId(1);
    /// `char` — the key of the paper's second (`char[]` coercion) lookup.
    pub const CHAR: TypeId = TypeId(2);
    /// `void *` — the key of the pointer-wildcard coercion lookup.
    pub const VOID_PTR: TypeId = TypeId(3);

    /// The raw dense id.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from its raw value (e.g. a `META` header word).
    /// The result may be dangling; [`TypeInterner::resolve`] returns `None`
    /// for ids the interner never issued.
    pub fn from_raw(raw: u32) -> TypeId {
        TypeId(raw)
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The per-type predicates the layout-table lookup consults, precomputed at
/// intern time so the id-keyed hot path is branch-and-mask only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TypeTraits(u8);

impl TypeTraits {
    const POINTER: u8 = 1 << 0;
    const VOID_POINTER: u8 = 1 << 1;
    const CHARACTER: u8 = 1 << 2;
    const VOID: u8 = 1 << 3;
    const FREE: u8 = 1 << 4;

    /// Compute the traits of a (canonical) type.
    pub fn of(ty: &Type) -> TypeTraits {
        let mut bits = 0;
        if ty.is_pointer() {
            bits |= Self::POINTER;
        }
        if ty.is_void_pointer() {
            bits |= Self::VOID_POINTER;
        }
        if ty.is_character() {
            bits |= Self::CHARACTER;
        }
        if ty.is_void() {
            bits |= Self::VOID;
        }
        if ty.is_free() {
            bits |= Self::FREE;
        }
        TypeTraits(bits)
    }

    /// Is the type a pointer?
    pub fn is_pointer(self) -> bool {
        self.0 & Self::POINTER != 0
    }

    /// Is the type `void *`?
    pub fn is_void_pointer(self) -> bool {
        self.0 & Self::VOID_POINTER != 0
    }

    /// Is the type a character type (participates in `char[]` coercion)?
    pub fn is_character(self) -> bool {
        self.0 & Self::CHARACTER != 0
    }

    /// Is the type `void`?
    pub fn is_void(self) -> bool {
        self.0 & Self::VOID != 0
    }

    /// Is the type the special `FREE` type?
    pub fn is_free(self) -> bool {
        self.0 & Self::FREE != 0
    }
}

/// The interner: canonical types ⇄ dense [`TypeId`]s plus cached
/// [`TypeTraits`].
///
/// Types are canonicalised with [`Type::strip_array`] before interning,
/// matching the layout-table convention that both allocation and static
/// types are element types (§4 footnote 3).
#[derive(Debug)]
pub struct TypeInterner {
    ids: HashMap<Type, TypeId>,
    types: Vec<Type>,
    traits: Vec<TypeTraits>,
}

impl TypeInterner {
    /// An interner pre-seeded with the well-known ids.
    pub fn new() -> Self {
        let mut interner = TypeInterner {
            ids: HashMap::new(),
            types: Vec::new(),
            traits: Vec::new(),
        };
        // Order matters: these must land on the fixed `TypeId` constants.
        assert_eq!(interner.intern(&Type::void()), TypeId::UNTYPED);
        assert_eq!(interner.intern(&Type::Free), TypeId::FREE);
        assert_eq!(interner.intern(&Type::char_()), TypeId::CHAR);
        assert_eq!(interner.intern(&Type::void_ptr()), TypeId::VOID_PTR);
        interner
    }

    /// Intern a type (canonicalising with [`Type::strip_array`]), returning
    /// its dense id.  Idempotent: the same canonical type always returns
    /// the same id.
    pub fn intern(&mut self, ty: &Type) -> TypeId {
        let key = ty.strip_array();
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(key.clone());
        self.traits.push(TypeTraits::of(key));
        self.ids.insert(key.clone(), id);
        id
    }

    /// The id of a type, if it has been interned (no insertion).
    pub fn get(&self, ty: &Type) -> Option<TypeId> {
        self.ids.get(ty.strip_array()).copied()
    }

    /// The canonical type behind an id, if the id was issued by this
    /// interner.
    pub fn resolve(&self, id: TypeId) -> Option<&Type> {
        self.types.get(id.index())
    }

    /// The precomputed traits of an interned id (default/empty traits for
    /// ids this interner never issued).
    pub fn traits(&self, id: TypeId) -> TypeTraits {
        self.traits.get(id.index()).copied().unwrap_or_default()
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if nothing beyond the well-known ids could ever be interned —
    /// the interner pre-seeds four ids, so this is never true in practice
    /// but kept for API completeness.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

impl Default for TypeInterner {
    fn default() -> Self {
        TypeInterner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_ids_are_fixed() {
        let interner = TypeInterner::new();
        assert_eq!(interner.get(&Type::void()), Some(TypeId::UNTYPED));
        assert_eq!(interner.get(&Type::Free), Some(TypeId::FREE));
        assert_eq!(interner.get(&Type::char_()), Some(TypeId::CHAR));
        assert_eq!(interner.get(&Type::void_ptr()), Some(TypeId::VOID_PTR));
        assert_eq!(interner.len(), 4);
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut interner = TypeInterner::new();
        let a = interner.intern(&Type::int());
        let b = interner.intern(&Type::int());
        assert_eq!(a, b);
        assert_eq!(a.raw(), 4);
        let c = interner.intern(&Type::struct_("S"));
        assert_eq!(c.raw(), 5);
        assert_eq!(interner.resolve(c), Some(&Type::struct_("S")));
        assert_eq!(interner.resolve(TypeId::from_raw(99)), None);
    }

    #[test]
    fn interning_strips_arrays() {
        let mut interner = TypeInterner::new();
        let a = interner.intern(&Type::array(Type::int(), 100));
        let b = interner.intern(&Type::incomplete_array(Type::int()));
        let c = interner.intern(&Type::int());
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(interner.resolve(a), Some(&Type::int()));
    }

    #[test]
    fn traits_match_type_predicates() {
        let mut interner = TypeInterner::new();
        let ip = interner.intern(&Type::ptr(Type::int()));
        assert!(interner.traits(ip).is_pointer());
        assert!(!interner.traits(ip).is_void_pointer());
        let vp = interner.traits(TypeId::VOID_PTR);
        assert!(vp.is_pointer() && vp.is_void_pointer());
        assert!(interner.traits(TypeId::CHAR).is_character());
        assert!(interner.traits(TypeId::UNTYPED).is_void());
        assert!(interner.traits(TypeId::FREE).is_free());
        // Dangling ids report empty traits.
        assert_eq!(
            interner.traits(TypeId::from_raw(1000)),
            TypeTraits::default()
        );
    }

    #[test]
    fn get_does_not_insert() {
        let interner = TypeInterner::new();
        assert_eq!(interner.get(&Type::double()), None);
        assert_eq!(interner.len(), 4);
    }
}
