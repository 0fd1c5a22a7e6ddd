//! Acceptance gate for the durable KV tier: WAL recovery is lossless and
//! deterministic. Concurrent writers at several thread counts, torn-write
//! cuts at arbitrary byte offsets, and crashes mid-recovery all land the
//! recovered store on a legal, bit-identical state.

use pareto_cluster::{entries_to_bytes, replay_bytes, KvStore};
use pareto_stats::mix64;
use proptest::prelude::*;

/// Drive `threads` concurrent writers against one WAL-armed store. Key
/// spaces are typed so no writer trips a WrongType error: strings under
/// `k:*`, lists under `log:<thread>`, one shared counter. Returns the
/// pre-WAL baseline snapshot.
fn concurrent_workload(
    store: &KvStore,
    seed: u64,
    threads: usize,
    ops_per_thread: usize,
) -> Vec<u8> {
    // Pre-existing state that only the snapshot (not the WAL) carries.
    store.set("meta:origin", b"seed-state".to_vec()).unwrap();
    store.set_counter("counter:shared", 0).unwrap();
    let baseline = store.enable_wal();
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = &*store;
            s.spawn(move || {
                for i in 0..ops_per_thread {
                    let draw = mix64(seed ^ (t as u64) << 32 ^ i as u64);
                    match draw % 4 {
                        0 => {
                            store
                                .set(&format!("k:{}", draw % 16), draw.to_le_bytes().to_vec())
                                .expect("set string key");
                        }
                        1 => {
                            store
                                .rpush(&format!("log:{t}"), draw.to_be_bytes().to_vec())
                                .expect("append to own list");
                        }
                        2 => {
                            store.incr("counter:shared").expect("bump shared counter");
                        }
                        _ => {
                            store
                                .del(&format!("k:{}", draw % 16))
                                .expect("delete string key");
                        }
                    }
                }
            });
        }
    });
    baseline
}

/// Canonical byte form of a store's state for bit-identity comparison.
fn state_bytes(store: &KvStore) -> Vec<u8> {
    entries_to_bytes(&store.export_entries())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]
    /// The headline invariant: whatever interleaving the scheduler picked,
    /// replaying (baseline snapshot, WAL) reproduces the live store
    /// bit-for-bit — at 1, 4, and 8 writer threads across seeds.
    #[test]
    fn recovery_is_lossless_for_concurrent_writers(
        sidx in 0usize..3,
        tidx in 0usize..3,
    ) {
        let seed = [11u64, 31, 2017][sidx];
        let threads = [1usize, 4, 8][tidx];
        let store = KvStore::new();
        let baseline = concurrent_workload(&store, seed, threads, 40);
        let (live, wal) = store.export_with_wal();
        let (recovered, report) = KvStore::recover(Some(&baseline), &wal)
            .expect("clean WAL must recover");
        prop_assert_eq!(report.records_replayed, report.records_available);
        prop_assert_eq!(report.torn_tail_bytes, 0);
        prop_assert_eq!(state_bytes(&recovered), entries_to_bytes(&live));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Torn-write semantics: cutting the WAL at ANY byte offset recovers
    /// exactly the longest-complete-prefix state, with the partial record's
    /// bytes reported as the torn tail — never an error, never a
    /// fabricated suffix.
    #[test]
    fn torn_cut_lands_on_longest_complete_prefix(cut_frac in 0.0f64..1.0) {
        let store = KvStore::new();
        let baseline = concurrent_workload(&store, 77, 1, 40);
        let wal = store.wal_bytes();
        let replay = replay_bytes(&wal).expect("serial WAL is well formed");
        let cut = (cut_frac * wal.len() as f64) as usize;

        let (recovered, report) = KvStore::recover(Some(&baseline), &wal[..cut])
            .expect("a torn tail is tolerated, not fatal");
        let prefix = replay.boundaries.iter().filter(|&&b| b <= cut).count() as u64;
        prop_assert_eq!(report.records_replayed, prefix);
        let consumed = replay.boundaries[..prefix as usize].last().copied().unwrap_or(0);
        prop_assert_eq!(report.torn_tail_bytes, cut - consumed);

        // The torn state must equal a deliberate replay of that prefix.
        let (expected, _) =
            KvStore::recover_with_options(Some(&baseline), &wal, Some(prefix), true)
                .expect("prefix replay");
        prop_assert_eq!(state_bytes(&recovered), state_bytes(&expected));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Crash-during-recovery idempotence: a recovery attempt that dies
    /// after R records leaves a legal prefix state, and simply restarting
    /// recovery from the same unchanged (snapshot, WAL) completes and
    /// matches the live store — replay has no side effects on its inputs.
    #[test]
    fn interrupted_recovery_restarts_to_the_live_state(r_frac in 0.0f64..=1.0) {
        let store = KvStore::new();
        let baseline = concurrent_workload(&store, 99, 4, 30);
        let (live, wal) = store.export_with_wal();
        let total = replay_bytes(&wal).expect("well formed").ops.len() as u64;
        let crash_at = (r_frac * total as f64) as u64;

        // First attempt: crashes after `crash_at` records.
        let (partial, partial_report) =
            KvStore::recover_with_options(Some(&baseline), &wal, Some(crash_at), true)
                .expect("partial replay");
        prop_assert_eq!(partial_report.records_replayed, crash_at.min(total));
        // Partial state is itself a legal prefix, not garbage: replaying
        // the same limit again reproduces it exactly.
        let (partial2, _) =
            KvStore::recover_with_options(Some(&baseline), &wal, Some(crash_at), true)
                .expect("partial replay is deterministic");
        prop_assert_eq!(state_bytes(&partial), state_bytes(&partial2));

        // Restart: full recovery from the untouched inputs matches live.
        let (full, full_report) = KvStore::recover(Some(&baseline), &wal).expect("restart");
        prop_assert_eq!(full_report.records_replayed, total);
        prop_assert_eq!(state_bytes(&full), entries_to_bytes(&live));
    }
}

/// Losing the snapshot degrades to an empty baseline plus a total WAL
/// replay; state written before `enable_wal` is genuinely gone, and
/// nothing re-fabricates it.
#[test]
fn snapshot_loss_replays_the_wal_from_empty() {
    let store = KvStore::new();
    let baseline = concurrent_workload(&store, 123, 2, 25);
    assert!(baseline.len() > 12, "baseline must carry the pre-WAL keys");
    let wal = store.wal_bytes();

    let (recovered, _) = KvStore::recover(None, &wal).expect("WAL-only recovery");
    let entries = recovered.export_entries();
    assert!(
        !entries.iter().any(|(k, _)| k == "meta:origin"),
        "snapshot-only key must NOT survive snapshot loss"
    );
    // Everything the WAL does carry is still there.
    let (with_snap, _) = KvStore::recover(Some(&baseline), &wal).expect("full recovery");
    let full = with_snap.export_entries();
    for (k, v) in &entries {
        assert!(
            full.iter().any(|(fk, fv)| fk == k && fv == v),
            "WAL-recovered {k:?} must be a subset of the full recovery"
        );
    }
}
