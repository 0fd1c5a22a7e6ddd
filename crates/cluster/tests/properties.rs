//! Property-based tests for the simulated cluster substrate.

use proptest::prelude::*;

use pareto_cluster::kvstore::{decode_records, encode_records};
use pareto_cluster::{Cost, KvStore, NetworkModel, NodeSpec, SimCluster};

proptest! {
    /// Blob encode/decode roundtrips for arbitrary record sets.
    #[test]
    fn blob_roundtrip(records in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..128), 0..64)) {
        let blob = encode_records(&records);
        let decoded = decode_records(&blob).unwrap();
        prop_assert_eq!(decoded.len(), records.len());
        for (d, r) in decoded.iter().zip(&records) {
            prop_assert_eq!(&d[..], &r[..]);
        }
    }

    /// Pipeline cost: round trips are exactly ceil(n/width) and replies
    /// arrive in order regardless of width.
    #[test]
    fn pipeline_cost_law(n in 0usize..300, width in 1usize..64) {
        let kv = KvStore::new();
        let mut pipe = kv.pipeline(width);
        for _ in 0..n {
            pipe = pipe.incr("ctr");
        }
        let (replies, cost) = pipe.execute().unwrap();
        prop_assert_eq!(replies.len(), n);
        prop_assert_eq!(cost.round_trips, (n as u64).div_ceil(width as u64));
        for (i, r) in replies.iter().enumerate() {
            prop_assert_eq!(r, &pareto_cluster::Reply::Int(i as i64 + 1));
        }
    }

    /// Store state reflects the last write for any interleaving of keys.
    #[test]
    fn last_write_wins(ops in proptest::collection::vec((0u8..4, any::<u8>()), 1..64)) {
        let kv = KvStore::new();
        let mut expected: std::collections::HashMap<String, u8> = Default::default();
        for (key_sel, val) in &ops {
            let key = format!("k{key_sel}");
            kv.set(&key, vec![*val]).unwrap();
            expected.insert(key, *val);
        }
        for (key, val) in expected {
            match kv.get(&key).unwrap().0 {
                pareto_cluster::Reply::Bytes(b) => prop_assert_eq!(&b[..], &[val][..]),
                other => prop_assert!(false, "unexpected reply {:?}", other),
            }
        }
    }

    /// Cost-to-seconds is additive and monotone in every component.
    #[test]
    fn cost_seconds_monotone(
        ops1 in 0u64..1u64 << 40,
        ops2 in 0u64..1u64 << 40,
        bytes in 0u64..1u64 << 30,
        trips in 0u64..1u64 << 16,
        speed_sel in 0usize..4,
    ) {
        let net = NetworkModel::DATACENTER;
        let speed = [1.0, 0.5, 1.0 / 3.0, 0.25][speed_sel];
        let rate = 1.0e6;
        let a = Cost { compute_ops: ops1, bytes, round_trips: trips };
        let b = Cost { compute_ops: ops2, bytes: 0, round_trips: 0 };
        let combined = a.plus(b);
        let t_a = a.seconds(speed, rate, &net);
        let t_b = b.seconds(speed, rate, &net);
        let t_ab = combined.seconds(speed, rate, &net);
        prop_assert!((t_ab - (t_a + t_b)).abs() < 1e-9 * (1.0 + t_ab));
        prop_assert!(t_ab >= t_a);
    }

    /// Job accounting: makespan is the max of node times; dirty energy is
    /// bounded by total energy; all are non-negative (clamped form).
    #[test]
    fn job_report_invariants(
        ops in proptest::collection::vec(0u64..1u64 << 32, 1..12),
        seed in any::<u64>(),
    ) {
        let p = ops.len();
        let cluster = SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, seed));
        let costs: Vec<Cost> = ops.iter().map(|&o| Cost::compute(o)).collect();
        let report = cluster.account_costs(&costs);
        let max = report.runs.iter().map(|r| r.seconds).fold(0.0, f64::max);
        prop_assert!((report.makespan_seconds - max).abs() < 1e-12);
        for run in &report.runs {
            prop_assert!(run.seconds >= 0.0);
            prop_assert!(run.dirty_joules_clamped >= 0.0);
            prop_assert!(run.dirty_joules_clamped <= run.energy_joules + 1e-6);
            prop_assert!(run.dirty_joules_linear <= run.dirty_joules_clamped + 1e-6);
        }
        prop_assert!(report.imbalance() >= 1.0 - 1e-12);
    }

    /// Same ops on a slower machine type always take proportionally longer.
    #[test]
    fn speed_scaling_exact(ops in 1u64..1u64 << 40) {
        let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 7));
        let report = cluster.account_costs(&[Cost::compute(ops); 4]);
        let t = report.node_seconds();
        prop_assert!((t[1] / t[0] - 2.0).abs() < 1e-9);
        prop_assert!((t[2] / t[0] - 3.0).abs() < 1e-9);
        prop_assert!((t[3] / t[0] - 4.0).abs() < 1e-9);
    }

    /// Write–crash–reload: a store snapshotted after `cut` of `n` writes
    /// and reloaded equals a store that only ever saw those `cut` writes —
    /// no lost keys, no duplicated keys, no resurrection of later writes.
    /// Ops mix all three value types (bytes, lists, counters).
    #[test]
    fn write_crash_reload_roundtrip(
        ops in proptest::collection::vec((0u8..3, 0u8..5, any::<u8>()), 1..80),
        cut in 0usize..80,
    ) {
        let cut = cut.min(ops.len());
        let apply = |kv: &KvStore, (kind, key_sel, val): &(u8, u8, u8)| {
            match kind {
                0 => { kv.set(&format!("blob{key_sel}"), vec![*val]).unwrap(); }
                1 => { kv.rpush(&format!("list{key_sel}"), vec![*val]).unwrap(); }
                _ => { kv.incr(&format!("ctr{key_sel}")).unwrap(); }
            }
        };
        // The node applies all writes, but crashes mid-batch: only the
        // first `cut` made it to the durable snapshot.
        let kv = KvStore::new();
        for op in &ops[..cut] {
            apply(&kv, op);
        }
        let durable = pareto_cluster::snapshot_to_bytes(&kv);
        for op in &ops[cut..] {
            apply(&kv, op); // lost with the crash
        }
        let reloaded = pareto_cluster::snapshot_from_bytes(&durable).unwrap();
        // Reference store: a run that stopped exactly at the crash point.
        let expected = KvStore::new();
        for op in &ops[..cut] {
            apply(&expected, op);
        }
        let got = reloaded.export_entries();
        let want = expected.export_entries();
        prop_assert_eq!(got.len(), want.len(), "key count diverged after reload");
        for ((gk, gv), (wk, wv)) in got.iter().zip(&want) {
            prop_assert_eq!(gk, wk);
            prop_assert_eq!(gv, wv);
        }
        // Reload is idempotent: snapshotting the reloaded store is
        // byte-identical to the durable snapshot (no duplication).
        prop_assert_eq!(pareto_cluster::snapshot_to_bytes(&reloaded), durable);
    }
}
