//! Bounded exponential backoff with deterministic jitter.
//!
//! Every reconnect/respawn loop in the sweep subsystem — the
//! coordinator respawning a crashed pipe worker, the daemon redialling
//! a dial-out fleet member, a `sweep_worker --join` worker rejoining
//! its daemon, and the streaming client's connect-retry window — shares
//! this one policy, so none of them can hot-spin against a peer that is
//! down and none of them stampede back in lockstep when it returns.
//!
//! The delay for attempt *n* is `min(cap, base · 2ⁿ)` scaled by a
//! jitter factor drawn uniformly from `[0.5, 1.5)`.  The jitter comes
//! from a seeded [SplitMix64] stream, so a given `(seed, attempt)`
//! always produces the same delay — tests pin the whole schedule
//! without sleeping, and chaos-soak runs stay reproducible.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::time::Duration;

/// First-retry delay of every sweep retry loop.
pub const BASE: Duration = Duration::from_millis(50);

/// Delay ceiling of every sweep retry loop.
pub const CAP: Duration = Duration::from_secs(2);

/// Advance a SplitMix64 state and return the next raw draw.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A raw draw mapped to a uniform `f64` in `[0, 1)`.
pub(crate) fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// A bounded exponential backoff schedule.  [`Backoff::next_delay`]
/// yields the wait before the next retry; [`Backoff::reset`] snaps the
/// schedule back to the base after a success.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule growing from `base` toward the `cap` ceiling, with
    /// jitter drawn from the given seed.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            attempt: 0,
            rng: seed,
        }
    }

    /// The schedule every sweep retry loop uses, from [`BASE`] toward
    /// [`CAP`].  Seed with something loop-distinct — a slot index, say —
    /// so parallel loops don't retry in lockstep.
    pub fn standard(seed: u64) -> Self {
        Backoff::new(BASE, CAP, seed)
    }

    /// The wait before the next retry; each call grows the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let envelope = self
            .base
            .saturating_mul(1u32 << self.attempt.min(20))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let jitter = 0.5 + unit_f64(splitmix64(&mut self.rng));
        envelope.mul_f64(jitter).min(self.cap.mul_f64(1.5))
    }

    /// Snap back to the base delay after a successful attempt.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// How many delays have been handed out since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bounded schedule, pinned without any real sleeping: every
    /// delay sits inside the jittered envelope of `min(cap, base·2ⁿ)`,
    /// the envelope stops growing at the cap, and `reset` restarts it.
    #[test]
    fn schedule_is_bounded_exponential_with_jitter() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        let mut backoff = Backoff::new(base, cap, 0xDECAF);
        for round in 0..2 {
            for attempt in 0u32..10 {
                let envelope = base.saturating_mul(1 << attempt.min(20)).min(cap);
                let delay = backoff.next_delay();
                assert!(
                    delay >= envelope.mul_f64(0.5) && delay < envelope.mul_f64(1.5),
                    "round {round} attempt {attempt}: {delay:?} outside \
                     [{:?}, {:?})",
                    envelope.mul_f64(0.5),
                    envelope.mul_f64(1.5),
                );
            }
            // Deep into the schedule the envelope has pinned at the cap.
            let late = backoff.next_delay();
            assert!(late >= cap.mul_f64(0.5) && late <= cap.mul_f64(1.5));
            backoff.reset();
        }
    }

    /// Same seed → same schedule; different seeds de-synchronise.
    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = Backoff::new(Duration::from_millis(50), Duration::from_secs(1), 7);
        let mut b = Backoff::new(Duration::from_millis(50), Duration::from_secs(1), 7);
        let mut c = Backoff::new(Duration::from_millis(50), Duration::from_secs(1), 8);
        let sa: Vec<Duration> = (0..6).map(|_| a.next_delay()).collect();
        let sb: Vec<Duration> = (0..6).map(|_| b.next_delay()).collect();
        let sc: Vec<Duration> = (0..6).map(|_| c.next_delay()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    /// A pathological attempt count must not overflow the multiplier.
    #[test]
    fn deep_schedules_saturate_at_the_cap() {
        let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(2), 1);
        let mut last = Duration::ZERO;
        for _ in 0..64 {
            last = backoff.next_delay();
        }
        assert!(last <= Duration::from_secs(2).mul_f64(1.5));
        assert_eq!(backoff.attempts(), 64);
    }
}
