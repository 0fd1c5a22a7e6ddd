//! Node power model (§V-A).
//!
//! The paper derives node power from HP SL server specs: 1200 W for a
//! 12-core box with 95 W Xeons gives a base of `1200 − 95·12 = 60 W`, and a
//! node "type" with `c` active cores draws `60 + 95·c` W. The four machine
//! types (4, 3, 2, 1 cores) thus draw 440/345/250/155 W.

/// Per-node power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePowerModel {
    /// Baseboard/idle power in watts.
    pub base_watts: f64,
    /// Per-active-core power in watts.
    pub per_core_watts: f64,
    /// Active cores.
    pub cores: u32,
}

impl NodePowerModel {
    /// The paper's base power (HP SL, 60 W).
    pub const PAPER_BASE_WATTS: f64 = 60.0;
    /// The paper's per-core power (Intel Xeon, 95 W).
    pub const PAPER_CORE_WATTS: f64 = 95.0;

    /// A node with `cores` active cores under the paper's constants.
    pub fn paper_node(cores: u32) -> Self {
        NodePowerModel {
            base_watts: Self::PAPER_BASE_WATTS,
            per_core_watts: Self::PAPER_CORE_WATTS,
            cores,
        }
    }

    /// Total draw in watts (the paper's `E_i`, a power *rate*).
    pub fn watts(&self) -> f64 {
        self.base_watts + self.per_core_watts * self.cores as f64
    }

    /// Energy consumed over `seconds`, in joules.
    pub fn energy_joules(&self, seconds: f64) -> f64 {
        assert!(seconds >= 0.0, "duration must be non-negative");
        self.watts() * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_power_values() {
        // The paper's four machine types, fastest (type 1, 4 cores) first.
        let watts: Vec<f64> = [4, 3, 2, 1]
            .map(|cores| NodePowerModel::paper_node(cores).watts())
            .to_vec();
        assert_eq!(watts, vec![440.0, 345.0, 250.0, 155.0]);
    }

    #[test]
    fn energy_is_power_times_time() {
        let n = NodePowerModel::paper_node(2);
        assert!((n.energy_joules(10.0) - 2500.0).abs() < 1e-9);
        assert_eq!(n.energy_joules(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_duration() {
        NodePowerModel::paper_node(1).energy_joules(-1.0);
    }
}
