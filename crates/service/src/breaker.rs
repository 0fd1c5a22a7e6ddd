//! Per-tenant circuit breaker.
//!
//! Classic three-state machine, driven entirely by caller-supplied
//! monotonic time (sim ticks in the soak harness, a request ordinal or
//! wall milliseconds in the live server) so its transitions are
//! deterministic and testable:
//!
//! ```text
//!            K consecutive solver failures
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                        │ cooldown elapses
//!     │ probe succeeds                         ▼
//!     └─────────────────────────────────── HalfOpen
//!                 probe fails: back to Open (cooldown restarts)
//! ```
//!
//! While `Open`, the server never attempts a fresh solve for the tenant
//! — it serves the freshest cached plan flagged `degraded` (or a typed
//! `BreakerOpen` error if none exists). `HalfOpen` admits exactly one
//! probe solve; its outcome decides the next state.

/// Breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: solves flow through.
    Closed,
    /// Tripped: no fresh solves until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe solve is in flight.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for metrics.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A state change, reported so callers can count transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The state entered.
    pub to: BreakerState,
    /// The time supplied with the triggering call.
    pub at: u64,
}

/// The breaker proper. One per tenant.
#[derive(Debug, Clone)]
pub struct Breaker {
    threshold: u32,
    cooldown: u64,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and re-probing `cooldown` time units after opening. A zero
    /// threshold is floored to 1 (a breaker that trips on nothing at all
    /// would permanently deny service).
    pub fn new(threshold: u32, cooldown: u64) -> Self {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
        }
    }

    /// Current state, advancing `Open → HalfOpen` if the cooldown has
    /// elapsed by `now`.
    pub fn state(&mut self, now: u64) -> BreakerState {
        if self.state == BreakerState::Open && now.saturating_sub(self.opened_at) >= self.cooldown {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// May a fresh solve be attempted at `now`? `Closed` and `HalfOpen`
    /// admit (half-open admits the probe; a concurrent-probe gate is the
    /// caller's job since admission is serialized per tenant anyway).
    pub fn allow(&mut self, now: u64) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// Record a successful solve; resets the failure streak, and closes
    /// a half-open breaker. Returns the transition, if one happened.
    pub fn on_success(&mut self, now: u64) -> Option<Transition> {
        self.consecutive_failures = 0;
        match self.state(now) {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                Some(Transition {
                    to: BreakerState::Closed,
                    at: now,
                })
            }
            _ => None,
        }
    }

    /// Record a solver failure. In `Closed`, trips to `Open` once the
    /// streak reaches the threshold; in `HalfOpen`, the failed probe
    /// re-opens immediately (cooldown restarts at `now`).
    pub fn on_failure(&mut self, now: u64) -> Option<Transition> {
        match self.state(now) {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    return Some(Transition {
                        to: BreakerState::Open,
                        at: now,
                    });
                }
                None
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.consecutive_failures = self.threshold;
                Some(Transition {
                    to: BreakerState::Open,
                    at: now,
                })
            }
            BreakerState::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_k_consecutive_failures() {
        let mut b = Breaker::new(3, 10);
        assert_eq!(b.on_failure(0), None);
        assert_eq!(b.on_failure(1), None);
        assert_eq!(
            b.on_failure(2),
            Some(Transition {
                to: BreakerState::Open,
                at: 2
            })
        );
        assert!(!b.allow(3));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = Breaker::new(2, 10);
        b.on_failure(0);
        b.on_success(1);
        assert_eq!(b.on_failure(2), None);
        assert!(b.allow(3));
    }

    #[test]
    fn cooldown_half_opens_and_probe_decides() {
        let mut b = Breaker::new(1, 10);
        b.on_failure(0);
        assert!(!b.allow(5));
        // Cooldown elapses: half-open admits a probe.
        assert!(b.allow(10));
        assert_eq!(b.state(10), BreakerState::HalfOpen);
        // Failed probe re-opens with a fresh cooldown.
        assert_eq!(
            b.on_failure(11),
            Some(Transition {
                to: BreakerState::Open,
                at: 11
            })
        );
        assert!(!b.allow(20));
        assert!(b.allow(21));
        // Successful probe closes.
        assert_eq!(
            b.on_success(21),
            Some(Transition {
                to: BreakerState::Closed,
                at: 21
            })
        );
        assert_eq!(b.state(22), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_floors_to_one() {
        let mut b = Breaker::new(0, 5);
        assert_eq!(
            b.on_failure(0),
            Some(Transition {
                to: BreakerState::Open,
                at: 0
            })
        );
    }
}
