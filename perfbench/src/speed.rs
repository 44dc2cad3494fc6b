//! The host speed probe.
//!
//! The reference host is a shared VM whose neighbours slow it down by up
//! to 40%, for stretches from seconds to longer than a run.  A workload
//! therefore times a fixed piece of work of its own while none of the
//! workload's own work runs, and scales its timings of CPU work by how
//! fast that work ran: `scaled = measured × REFERENCE_PROBE_MS / median
//! probe sample`.  The probe is benchmark code that no change to the
//! program under test touches.

use std::hint::black_box;
use std::time::Instant;

/// Probe steps per sample: about 1.4 ms on the reference host.
const PROBE_STEPS: u64 = 100_000;
/// Table the probe reads and writes: 1 MiB, so it lives in a core's own
/// cache, as the interpreter's hot data does.
const PROBE_WORDS: usize = 1 << 17;
/// The median probe sample on the reference host (a 2-vCPU Xeon VM)
/// when quiet; it only sets the unit, so that scaled times read as
/// seconds there.
pub const REFERENCE_PROBE_MS: f64 = 1.4;
/// At most one probe sample per this many seconds of timed work.
const PROBE_EVERY_S: f64 = 0.02;

/// Interpreter-like work: a seeded stream of data-dependent branches over
/// scattered loads and stores.
fn probe_work(table: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let mask = table.len() - 1;
    for i in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x as usize) & mask;
        match x >> 61 {
            0 => acc = acc.wrapping_add(table[a]),
            1 => table[a] = acc ^ i,
            2 => acc = acc.rotate_left(7) ^ table[a],
            3 => acc = acc.wrapping_mul(table[a] | 1),
            4 => table[a] = table[a].wrapping_add(1),
            5 => acc ^= x,
            6 => acc = acc.wrapping_sub(table[(a + 1) & mask]),
            _ => table[a] ^= acc,
        }
    }
    acc
}

/// Probe samples taken over one run.
pub struct HostSpeed {
    table: Vec<u64>,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            table: vec![1; PROBE_WORDS],
            samples_ms: Vec::new(),
            last: None,
        }
    }
}

impl HostSpeed {
    /// Take one probe sample, unless one was taken in the last
    /// `PROBE_EVERY_S`.
    pub fn sample_if_due(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S)
        {
            self.sample();
        }
    }

    /// Take one probe sample.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(probe_work(black_box(&mut self.table)));
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// The median sample (ms).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    /// The factor that turns a time measured in this run into one at the
    /// reference host's speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_MS / self.median_ms()
    }

    /// The line a scaled run prints before its host line.
    pub fn report(&self) -> String {
        format!(
            "speed {{\"probe_samples\":{},\"probe_ms_median\":{:.4},\"reference_probe_ms\":{},\"scale\":{:.4}}}",
            self.samples_ms.len(),
            self.median_ms(),
            REFERENCE_PROBE_MS,
            self.scale()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed_and_scale_follows_the_median_sample() {
        let mut a = vec![1; PROBE_WORDS];
        let mut b = vec![1; PROBE_WORDS];
        assert_eq!(probe_work(&mut a), probe_work(&mut b));
        let mut speed = HostSpeed::default();
        speed.sample_if_due();
        speed.sample_if_due(); // too soon: skipped
        assert_eq!(speed.samples_ms.len(), 1);
        speed.samples_ms = vec![2.0, REFERENCE_PROBE_MS * 2.0, 9.0];
        assert!((speed.scale() - 0.5).abs() < 1e-12);
    }
}
