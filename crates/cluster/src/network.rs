//! Network cost model for store traffic.
//!
//! A deliberately simple latency + bandwidth model: each round trip pays a
//! fixed latency, payload bytes stream at a fixed bandwidth. This is what
//! makes Redis pipelining matter in the simulation exactly as it does on
//! real hardware ("known to substantially improve the response times",
//! §IV): batching k requests into one round trip saves `(k−1)·latency`.

/// Latency/bandwidth network model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-round-trip latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl NetworkModel {
    /// The one network every cluster runs on: an intra-rack datacenter
    /// network, 100 µs RTT, 1 Gbit/s effective.
    pub const DATACENTER: NetworkModel = NetworkModel {
        latency_s: 100e-6,
        bandwidth_bps: 125e6,
    };

    /// Time to move `bytes` using `round_trips` request round trips.
    pub fn transfer_seconds(&self, bytes: u64, round_trips: u64) -> f64 {
        round_trips as f64 * self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    /// This link under fault-injected degradation: latency multiplied and
    /// bandwidth divided by `factor` (floored at 1, so degradation never
    /// improves a link).
    pub fn degraded(&self, factor: f64) -> Self {
        let f = factor.max(1.0);
        NetworkModel {
            latency_s: self.latency_s * f,
            bandwidth_bps: self.bandwidth_bps / f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_requests() {
        let net = NetworkModel::DATACENTER;
        let many = net.transfer_seconds(1000, 1000);
        let one = net.transfer_seconds(1000, 1);
        assert!(many > 50.0 * one, "pipelining must matter: {many} vs {one}");
    }

    #[test]
    fn bandwidth_term() {
        let net = NetworkModel {
            latency_s: 0.0,
            bandwidth_bps: 100.0,
        };
        assert!((net.transfer_seconds(250, 5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn degradation_slows_transfers() {
        let base = NetworkModel::DATACENTER;
        let slow = base.degraded(8.0);
        assert!(slow.transfer_seconds(1 << 20, 4) > base.transfer_seconds(1 << 20, 4));
        // Factors below 1 never speed a link up.
        assert_eq!(base.degraded(0.5), base);
    }
}
