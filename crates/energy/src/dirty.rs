//! Dirty-energy accounting (§III-B, §III-D).
//!
//! For node `i` running a job of duration `f_i(x)` seconds the paper defines
//! the dirty (grid) energy footprint
//!
//! ```text
//! g_i(x) = E_i · f_i(x) − Σ_{t=1}^{f_i(x)} GE_i(t)
//! ```
//!
//! i.e. total draw minus the green supply over the run. Two readings exist:
//!
//! * [`DirtyEnergyMode::PaperLinear`] — the formula verbatim. It can go
//!   *negative* when the panel out-produces the node; the surplus is
//!   treated as a credit (e.g. exported to the grid or battery). This is
//!   the form the LP reduction requires.
//! * [`DirtyEnergyMode::Clamped`] — physical accounting: surplus green
//!   power in any instant cannot offset grid draw at another, so the
//!   integrand is `max(0, E_i − GE_i(t))`.
//!
//! The mean-rate reduction of §III-D replaces `GE_i(t)` by its window mean,
//! making dirty energy a *linear* function of runtime: `k_i · f_i(x)` with
//! `k_i = E_i − ḠE_i`.

use crate::power::NodePowerModel;
use crate::solar::GreenEnergyTrace;

/// Which dirty-energy formula to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyEnergyMode {
    /// `E·T − ∫GE` (can be negative — green surplus is a credit).
    PaperLinear,
    /// `∫ max(0, E − GE(t)) dt` (never negative).
    Clamped,
}

/// Dirty energy of a node drawing `power` for `[t0, t0+duration]` seconds
/// against the given green trace, in joules.
pub fn dirty_energy_joules(
    power: &NodePowerModel,
    trace: &GreenEnergyTrace,
    t0: f64,
    duration: f64,
    mode: DirtyEnergyMode,
) -> f64 {
    assert!(duration >= 0.0 && t0 >= 0.0, "invalid interval");
    match mode {
        DirtyEnergyMode::PaperLinear => {
            power.energy_joules(duration) - trace.energy_joules(t0, t0 + duration)
        }
        DirtyEnergyMode::Clamped => {
            if duration == 0.0 {
                return 0.0;
            }
            // Minute-resolution trapezoid on max(0, E - GE(t)).
            let watts = power.watts();
            let step = 60.0_f64.min(duration);
            let mut acc = 0.0;
            let mut t = t0;
            let end = t0 + duration;
            while t < end {
                let t_next = (t + step).min(end);
                let a = (watts - trace.watts_at(t)).max(0.0);
                let b = (watts - trace.watts_at(t_next)).max(0.0);
                acc += 0.5 * (a + b) * (t_next - t);
                t = t_next;
            }
            acc
        }
    }
}

/// A node's static energy profile for the optimizer: its draw `E_i` and its
/// mean green supply `ḠE_i` over the planning window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEnergyProfile {
    /// Total power draw `E_i` (watts).
    pub draw_watts: f64,
    /// Mean green supply `ḠE_i` over the planning window (watts).
    pub mean_green_watts: f64,
}

impl NodeEnergyProfile {
    /// Build a profile from a power model and a trace, using the window
    /// `[t0, t0 + horizon]` to average the green supply.
    pub fn from_trace(
        power: &NodePowerModel,
        trace: &GreenEnergyTrace,
        t0: f64,
        horizon: f64,
    ) -> Self {
        NodeEnergyProfile {
            draw_watts: power.watts(),
            mean_green_watts: trace.mean_watts(t0, t0 + horizon),
        }
    }

    /// The LP coefficient `k_i = E_i − ḠE_i` (watts). Negative means the
    /// node is green-surplus over the window.
    pub fn k(&self) -> f64 {
        self.draw_watts - self.mean_green_watts
    }

    /// Linearized dirty energy for a run of `duration` seconds: `k_i · T`.
    pub fn linear_dirty_joules(&self, duration: f64) -> f64 {
        assert!(duration >= 0.0);
        self.k() * duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_trace(watts: f64) -> GreenEnergyTrace {
        GreenEnergyTrace::from_hourly(vec![watts; 24])
    }

    #[test]
    fn paper_linear_matches_hand_computation() {
        // 250 W node, flat 100 W green, 1 hour: 250*3600 - 100*3600.
        let node = NodePowerModel::paper_node(2);
        let tr = flat_trace(100.0);
        let d = dirty_energy_joules(&node, &tr, 0.0, 3600.0, DirtyEnergyMode::PaperLinear);
        assert!((d - 150.0 * 3600.0).abs() < 5.0);
    }

    #[test]
    fn paper_linear_can_go_negative() {
        let node = NodePowerModel::paper_node(1); // 155 W
        let tr = flat_trace(400.0);
        let d = dirty_energy_joules(&node, &tr, 0.0, 3600.0, DirtyEnergyMode::PaperLinear);
        assert!(d < 0.0);
    }

    #[test]
    fn clamped_never_negative() {
        let node = NodePowerModel::paper_node(1);
        let tr = flat_trace(400.0);
        let d = dirty_energy_joules(&node, &tr, 0.0, 3600.0, DirtyEnergyMode::Clamped);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn clamped_equals_linear_when_always_dirty() {
        // Green never exceeds draw => the max() clamp never fires.
        let node = NodePowerModel::paper_node(4); // 440 W
        let tr = flat_trace(100.0);
        let lin = dirty_energy_joules(&node, &tr, 0.0, 7200.0, DirtyEnergyMode::PaperLinear);
        let cl = dirty_energy_joules(&node, &tr, 0.0, 7200.0, DirtyEnergyMode::Clamped);
        assert!((lin - cl).abs() < 10.0, "lin {lin} vs clamped {cl}");
    }

    #[test]
    fn zero_duration_zero_energy() {
        let node = NodePowerModel::paper_node(3);
        let tr = flat_trace(50.0);
        for mode in [DirtyEnergyMode::PaperLinear, DirtyEnergyMode::Clamped] {
            assert_eq!(dirty_energy_joules(&node, &tr, 100.0, 0.0, mode), 0.0);
        }
    }

    #[test]
    fn profile_k_and_linear_dirty() {
        let node = NodePowerModel::paper_node(2); // 250 W
        let tr = flat_trace(80.0);
        let prof = NodeEnergyProfile::from_trace(&node, &tr, 0.0, 3600.0);
        assert!((prof.k() - 170.0).abs() < 1e-6);
        assert!((prof.linear_dirty_joules(10.0) - 1700.0).abs() < 1e-6);
    }

    #[test]
    fn mean_rate_approximation_error_grows_with_variance() {
        // §III-D ablation seed: on a flat trace the mean-rate linearization
        // is exact; on a spiky trace it errs.
        let node = NodePowerModel::paper_node(2);
        let flat = flat_trace(100.0);
        let spiky = GreenEnergyTrace::from_hourly(
            (0..24)
                .map(|h| if h % 2 == 0 { 0.0 } else { 200.0 })
                .collect(),
        );
        let horizon = 6.0 * 3600.0;
        for (trace, tol_exact) in [(&flat, true), (&spiky, false)] {
            let exact =
                dirty_energy_joules(&node, trace, 0.0, 5400.0, DirtyEnergyMode::PaperLinear);
            let prof = NodeEnergyProfile::from_trace(&node, trace, 0.0, horizon);
            let approx = prof.linear_dirty_joules(5400.0);
            let err = (exact - approx).abs();
            if tol_exact {
                assert!(err < 10.0, "flat trace should be near-exact, err {err}");
            } else {
                assert!(err > 10.0, "spiky trace should show approximation error");
            }
        }
    }
}
