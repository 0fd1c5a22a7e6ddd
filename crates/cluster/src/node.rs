//! Node specifications: the four heterogeneous machine classes of §V-A.
//!
//! The paper injects speed heterogeneity with busy loops on 12-core boxes:
//! type 1 runs 0 busy loops (full speed), type 2 runs 12 (half the cores
//! left), type 3 runs 24 (a third), type 4 runs 36 (a quarter) — relative
//! speeds `x, x/2, x/3, x/4`. Energy heterogeneity comes from assigning
//! each type a different datacenter location's solar trace and a core
//! count (4/3/2/1) under the `60 + 95·c` W power model.

use pareto_energy::{GreenEnergyTrace, Location, NodePowerModel};

/// The four machine classes, type 1 fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MachineType {
    /// No busy loops; relative speed 1.
    Type1,
    /// 12 busy loops; relative speed 1/2.
    Type2,
    /// 24 busy loops; relative speed 1/3.
    Type3,
    /// 36 busy loops; relative speed 1/4.
    Type4,
}

impl MachineType {
    /// All types, fastest first (also the paper's master-selection
    /// priority order, §IV).
    pub const ALL: [MachineType; 4] = [
        MachineType::Type1,
        MachineType::Type2,
        MachineType::Type3,
        MachineType::Type4,
    ];

    /// Relative speed factor (type 1 = 1.0).
    pub fn speed(self) -> f64 {
        match self {
            MachineType::Type1 => 1.0,
            MachineType::Type2 => 1.0 / 2.0,
            MachineType::Type3 => 1.0 / 3.0,
            MachineType::Type4 => 1.0 / 4.0,
        }
    }

    /// Active cores under the paper's §V-A assumption (fastest = 4 cores).
    pub fn cores(self) -> u32 {
        match self {
            MachineType::Type1 => 4,
            MachineType::Type2 => 3,
            MachineType::Type3 => 2,
            MachineType::Type4 => 1,
        }
    }

    /// The §V-A power model for this type (440/345/250/155 W).
    pub fn power_model(self) -> NodePowerModel {
        NodePowerModel::paper_node(self.cores())
    }

    /// Cycle types across `p` nodes: node `i` gets type `i mod 4`.
    pub fn cycle(p: usize) -> Vec<MachineType> {
        (0..p).map(|i| Self::ALL[i % 4]).collect()
    }
}

/// Where green supplies attach (the three §II datacenter designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupplyTopology {
    /// Deng et al. [6]: renewables at individual servers — one site, but
    /// independent per-server panels/weather.
    PerServer,
    /// iSwitch [7]: rack-level supplies — nodes in a rack share one trace
    /// (perfectly correlated supply within a rack, distinct across racks).
    RackLevel {
        /// Number of racks the nodes cycle through.
        racks: usize,
    },
    /// Greenware [8]: geo-distributed — nodes cycle through the four
    /// datacenter locations with independent weather (the paper's §V-A
    /// setup and the default of [`NodeSpec::paper_cluster`]).
    GeoDistributed,
}

/// A fully specified simulated node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node index within the cluster.
    pub id: usize,
    /// Machine class (speed + power).
    pub machine_type: MachineType,
    /// Site whose weather drives this node's green supply.
    pub location: Location,
    /// This node's green-energy trace.
    pub trace: GreenEnergyTrace,
}

impl NodeSpec {
    /// Relative compute speed.
    pub fn speed(&self) -> f64 {
        self.machine_type.speed()
    }

    /// Power model.
    pub fn power(&self) -> NodePowerModel {
        self.machine_type.power_model()
    }

    /// Deterministic digest of everything the *planner* reads from this
    /// node: relative speed, power draw, and the full green-energy trace.
    /// Two nodes with equal digests are interchangeable to planning, so
    /// the incremental planner uses this (via
    /// [`crate::SimCluster::roster_fingerprint`]) to decide whether a
    /// roster change invalidates cached profile/optimize artifacts.
    pub fn planning_fingerprint(&self) -> u64 {
        let mut state = pareto_stats::split_seed(0x0057_A7E5_9EC0_0000, self.id as u64);
        state = pareto_stats::split_seed(state, self.speed().to_bits());
        state = pareto_stats::split_seed(state, self.power().watts().to_bits());
        let hourly = self.trace.hourly();
        state = pareto_stats::split_seed(state, hourly.len() as u64);
        for &watts in hourly {
            state = pareto_stats::split_seed(state, watts.to_bits());
        }
        state
    }

    /// Build the paper's standard heterogeneous cluster of `p` nodes:
    /// machine types cycle 1→4 and each type is pinned to one of the four
    /// datacenter locations (so speed and energy heterogeneity co-vary, as
    /// in §V-A). `panel_watts` sizes every node's panel; traces span
    /// `days` and start at `start_hour`.
    pub fn paper_cluster(
        p: usize,
        panel_watts: f64,
        days: usize,
        start_hour: usize,
        seed: u64,
    ) -> Vec<NodeSpec> {
        Self::cluster_with_supply(
            p,
            panel_watts,
            days,
            start_hour,
            seed,
            SupplyTopology::GeoDistributed,
        )
    }

    /// Like [`NodeSpec::paper_cluster`] but with an explicit green-supply
    /// topology (the §II datacenter designs).
    pub fn cluster_with_supply(
        p: usize,
        panel_watts: f64,
        days: usize,
        start_hour: usize,
        seed: u64,
        topology: SupplyTopology,
    ) -> Vec<NodeSpec> {
        let locations = pareto_energy::google_dc_locations();
        MachineType::cycle(p)
            .into_iter()
            .enumerate()
            .map(|(id, machine_type)| {
                let (location, weather_seed) = match topology {
                    SupplyTopology::PerServer => (
                        // One site; independent panels/weather per server.
                        locations[0].clone(),
                        seed.wrapping_add(id as u64 * 0x9E37_79B9),
                    ),
                    SupplyTopology::RackLevel { racks } => {
                        let rack = id % racks.max(1);
                        (
                            locations[rack % 4].clone(),
                            // Same seed within a rack => identical trace.
                            seed.wrapping_add(rack as u64 * 0x0051_7CC1),
                        )
                    }
                    SupplyTopology::GeoDistributed => (
                        locations[id % 4].clone(),
                        seed.wrapping_add(id as u64 * 0x9E37_79B9),
                    ),
                };
                let trace = location.trace(panel_watts, days, start_hour, weather_seed);
                NodeSpec {
                    id,
                    machine_type,
                    location,
                    trace,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speeds_match_busy_loop_math() {
        assert_eq!(MachineType::Type1.speed(), 1.0);
        assert_eq!(MachineType::Type2.speed(), 0.5);
        assert!((MachineType::Type3.speed() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(MachineType::Type4.speed(), 0.25);
    }

    #[test]
    fn power_matches_paper() {
        assert_eq!(MachineType::Type1.power_model().watts(), 440.0);
        assert_eq!(MachineType::Type4.power_model().watts(), 155.0);
    }

    #[test]
    fn cycle_assigns_round_robin() {
        let types = MachineType::cycle(6);
        assert_eq!(types[0], MachineType::Type1);
        assert_eq!(types[3], MachineType::Type4);
        assert_eq!(types[4], MachineType::Type1);
        assert_eq!(types.len(), 6);
    }

    #[test]
    fn paper_cluster_shape() {
        let nodes = NodeSpec::paper_cluster(8, 400.0, 2, 9, 7);
        assert_eq!(nodes.len(), 8);
        assert_eq!(nodes[0].machine_type, MachineType::Type1);
        assert_eq!(nodes[7].machine_type, MachineType::Type4);
        // Same position in cycle shares location but not weather.
        assert_eq!(nodes[0].location.name, nodes[4].location.name);
        assert_ne!(nodes[0].trace.hourly(), nodes[4].trace.hourly());
    }

    #[test]
    fn rack_level_shares_traces_within_rack() {
        let nodes = NodeSpec::cluster_with_supply(
            8,
            400.0,
            1,
            9,
            5,
            SupplyTopology::RackLevel { racks: 2 },
        );
        // Nodes 0 and 2 are in rack 0; 1 and 3 in rack 1.
        assert_eq!(nodes[0].trace.hourly(), nodes[2].trace.hourly());
        assert_eq!(nodes[1].trace.hourly(), nodes[3].trace.hourly());
        assert_ne!(nodes[0].trace.hourly(), nodes[1].trace.hourly());
    }

    #[test]
    fn per_server_same_site_independent_weather() {
        let nodes = NodeSpec::cluster_with_supply(4, 400.0, 1, 9, 5, SupplyTopology::PerServer);
        assert!(nodes
            .iter()
            .all(|n| n.location.name == nodes[0].location.name));
        assert_ne!(nodes[0].trace.hourly(), nodes[1].trace.hourly());
    }

    #[test]
    fn geo_matches_paper_cluster() {
        let a = NodeSpec::paper_cluster(6, 400.0, 1, 9, 3);
        let b = NodeSpec::cluster_with_supply(6, 400.0, 1, 9, 3, SupplyTopology::GeoDistributed);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.hourly(), y.trace.hourly());
            assert_eq!(x.location.name, y.location.name);
        }
    }

    #[test]
    fn paper_cluster_deterministic() {
        let a = NodeSpec::paper_cluster(4, 400.0, 1, 9, 3);
        let b = NodeSpec::paper_cluster(4, 400.0, 1, 9, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.hourly(), y.trace.hourly());
        }
    }
}
