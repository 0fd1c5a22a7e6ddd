//! Abstract work accounting.
//!
//! Every operation in the workloads and the KV store reports its work as a
//! [`Cost`]; a node (speed factor) plus a [`NetworkModel`] convert the cost
//! into simulated seconds. Keeping cost integral makes runs bit-for-bit
//! reproducible.

use crate::network::NetworkModel;

/// Exact abstract work performed by some operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// CPU work in abstract operations (e.g. candidate checks, byte
    /// comparisons). Scaled by node speed.
    pub compute_ops: u64,
    /// Bytes moved over the network (store payloads).
    pub bytes: u64,
    /// Store round trips (before pipelining amortization these dominate —
    /// exactly why the paper batches requests, §IV).
    pub round_trips: u64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        compute_ops: 0,
        bytes: 0,
        round_trips: 0,
    };

    /// Pure compute work.
    pub fn compute(ops: u64) -> Cost {
        Cost {
            compute_ops: ops,
            ..Cost::ZERO
        }
    }

    /// One network request carrying `bytes`.
    pub fn request(bytes: u64) -> Cost {
        Cost {
            compute_ops: 0,
            bytes,
            round_trips: 1,
        }
    }

    /// Saturating element-wise sum.
    pub fn add(&mut self, other: Cost) {
        self.compute_ops = self.compute_ops.saturating_add(other.compute_ops);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.round_trips = self.round_trips.saturating_add(other.round_trips);
    }

    /// `self + other`.
    #[must_use]
    pub fn plus(mut self, other: Cost) -> Cost {
        self.add(other);
        self
    }

    /// Convert to simulated seconds on a node with the given `speed`
    /// factor (1.0 = fastest class) and compute rate, under a network
    /// model. Compute is scaled by speed; network is not (the busy loops
    /// of §V-A steal CPU, not NIC bandwidth).
    pub fn seconds(&self, speed: f64, base_ops_per_sec: f64, net: &NetworkModel) -> f64 {
        assert!(speed > 0.0 && base_ops_per_sec > 0.0, "invalid node rates");
        let compute = self.compute_ops as f64 / (base_ops_per_sec * speed);
        compute + net.transfer_seconds(self.bytes, self.round_trips)
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        self.plus(rhs)
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Cost::plus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation() {
        let mut c = Cost::compute(10);
        c.add(Cost::request(100));
        c.add(Cost::request(50));
        assert_eq!(c.compute_ops, 10);
        assert_eq!(c.bytes, 150);
        assert_eq!(c.round_trips, 2);
    }

    #[test]
    fn sum_iterator() {
        let total: Cost = [Cost::compute(1), Cost::compute(2), Cost::request(8)]
            .into_iter()
            .sum();
        assert_eq!(total.compute_ops, 3);
        assert_eq!(total.round_trips, 1);
    }

    #[test]
    fn seconds_scale_with_speed() {
        let net = NetworkModel::DATACENTER;
        let c = Cost::compute(1_000_000);
        let fast = c.seconds(1.0, 1e6, &net);
        let slow = c.seconds(0.25, 1e6, &net);
        assert!((fast - 1.0).abs() < 1e-9);
        assert!((slow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn network_not_scaled_by_speed() {
        let net = NetworkModel {
            latency_s: 100e-6,
            bandwidth_bps: 1e9,
        };
        let c = Cost::request(0);
        assert_eq!(c.seconds(1.0, 1e6, &net), c.seconds(0.25, 1e6, &net));
    }

    #[test]
    fn saturating_add() {
        let mut c = Cost::compute(u64::MAX);
        c.add(Cost::compute(10));
        assert_eq!(c.compute_ops, u64::MAX);
    }
}
