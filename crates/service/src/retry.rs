//! Client-side retry: seeded exponential backoff with deterministic
//! jitter.
//!
//! The delay for attempt `a` of request `r` is a *pure function* of
//! `(policy, r, a)` — the jitter comes from the same splitmix-style hash
//! the fault injector uses ([`pareto_cluster::fault::raw_draw`]), not
//! from an ambient RNG — so a replayed traffic trace retries at exactly
//! the same (simulated) instants and the soak summary is bit-identical
//! across runs.

use pareto_cluster::fault::raw_draw;

/// Backoff policy. Delays are in abstract time units: sim ticks in the
/// soak harness, milliseconds in the live client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: u64,
    /// Hard cap applied after the exponential growth and jitter.
    pub max_delay: u64,
    /// Total attempts (first try included); `attempts = 1` disables
    /// retries.
    pub attempts: u32,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 4,
            max_delay: 256,
            attempts: 4,
            seed: 0x52_45_54_52,
        }
    }
}

impl RetryPolicy {
    /// Whether attempt number `attempt` (0-based: 0 is the first try)
    /// may run at all.
    pub fn may_attempt(&self, attempt: u32) -> bool {
        attempt < self.attempts
    }

    /// Delay to wait *before* retry number `retry` (1-based: 1 follows
    /// the first failure) of request `request_id`.
    ///
    /// Full jitter over an exponentially growing window:
    /// `delay = 1 + hash(seed, request_id, retry) % (base << (retry-1))`,
    /// capped at `max_delay`. The `1 +` keeps every delay strictly
    /// positive so a retry never lands at the same instant as the
    /// failure that caused it.
    pub fn backoff_delay(&self, request_id: u64, retry: u32) -> u64 {
        let retry = retry.max(1);
        let window = self
            .base
            .max(1)
            .saturating_mul(1u64.checked_shl(retry - 1).unwrap_or(u64::MAX))
            .min(self.max_delay.max(1));
        let jitter = raw_draw(self.seed, request_id as usize, u64::from(retry)) % window;
        (1 + jitter).min(self.max_delay.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_positive() {
        let p = RetryPolicy::default();
        for req in 0..50u64 {
            for retry in 1..=5u32 {
                let a = p.backoff_delay(req, retry);
                let b = p.backoff_delay(req, retry);
                assert_eq!(a, b);
                assert!(a >= 1);
                assert!(a <= p.max_delay);
            }
        }
    }

    #[test]
    fn windows_grow_exponentially() {
        let p = RetryPolicy {
            base: 4,
            max_delay: 1 << 30,
            attempts: 8,
            seed: 9,
        };
        // The jitter window for retry r is base << (r-1); sampled maxima
        // over many requests should approach it and never exceed it.
        for retry in 1..=6u32 {
            let window = 4u64 << (retry - 1);
            let max_seen = (0..2000u64)
                .map(|req| p.backoff_delay(req, retry))
                .max()
                .unwrap();
            assert!(max_seen <= window);
            assert!(max_seen > window / 2, "window {window}, saw {max_seen}");
        }
    }

    #[test]
    fn attempts_budget() {
        let p = RetryPolicy {
            attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(p.may_attempt(0));
        assert!(p.may_attempt(2));
        assert!(!p.may_attempt(3));
    }

    #[test]
    fn different_requests_get_different_jitter() {
        let p = RetryPolicy::default();
        let delays: std::collections::BTreeSet<u64> =
            (0..32u64).map(|req| p.backoff_delay(req, 3)).collect();
        assert!(delays.len() > 1, "jitter collapsed to one value");
    }
}
