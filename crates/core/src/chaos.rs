//! Chaos search: sweep seeded fault schedules, audit every outcome, and
//! shrink failures to minimal reproducing schedules.
//!
//! One [`run_chaos`] call plans the job once, then drives hundreds of
//! deterministic [`FaultPlan`]s — compute faults (crashes, stragglers,
//! store errors, network degradation) *and* storage faults (torn WAL
//! writes, bit-rot, snapshot loss, crash-during-recovery) — through the
//! recovery executor and a per-node durable-store drill. Every outcome
//! passes through the [`crate::audit`] invariant auditor; any violation is
//! greedily shrunk (classic one-event-at-a-time delta debugging, to a
//! fixpoint) and reported as a minimal `--faults`-compatible spec string,
//! so a red chaos run hands the developer a one-line reproducer.
//!
//! Everything is seeded: the same `(seed, schedules)` pair explores the
//! same schedules and shrinks to the same minimal spec on every run and
//! every machine — the property the CI `chaos-smoke` job pins.

use std::sync::Arc;

use pareto_cluster::{
    entries_to_bytes, FaultPlan, FaultSpec, KvStore, RecoverError, SimCluster, WalError,
};
use pareto_datagen::Dataset;
use pareto_stats::LinearFit;
use pareto_telemetry::{event, Telemetry};
use pareto_workloads::WorkloadKind;

use crate::audit::{audit_elastic_run, AuditReport, Invariant, Violation};
use crate::elastic::{ElasticPlan, ElasticSpec};
use crate::framework::{recovery_inputs, Framework, FrameworkConfig, Plan};
use crate::recovery::{self, ExecRequest, RecoveryConfig};
use crate::stages::PlanError;
use crate::stealing::RecordWork;

/// Chaos-search configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeded schedules to explore.
    pub schedules: u32,
    /// Master seed; schedule `i` uses `seed + i` through the fault plan's
    /// own SplitMix64 scheme.
    pub seed: u64,
    /// Per-schedule fault mix (defaults to [`FaultSpec::storage`]:
    /// compute faults at their defaults plus every storage kind enabled).
    pub spec: FaultSpec,
    /// Recovery tunables for the executor (validated up front).
    pub recovery: RecoveryConfig,
    /// Deliberately break the recovery path: the storage drill skips WAL
    /// checksum verification *and* one extra schedule carries a guaranteed
    /// payload-corrupting bit-rot event, proving the auditor catches
    /// silent corruption and the shrinker isolates it.
    pub inject_corruption: bool,
    /// When set, every schedule additionally draws a seeded
    /// [`ElasticPlan`] from this spec (same per-schedule seed, disjoint
    /// draw indices), composing roster churn with the fault mix. `None`
    /// (the default) keeps the sweep bit-identical to a fault-only run.
    pub elastic: Option<ElasticSpec>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            schedules: 256,
            seed: 2017,
            spec: FaultSpec::storage(),
            recovery: RecoveryConfig::default(),
            inject_corruption: false,
            elastic: None,
        }
    }
}

/// One schedule that broke an invariant, with its shrunk reproducer.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// The schedule's seed (`cfg.seed + index`; the injected-corruption
    /// schedule reuses `cfg.seed`).
    pub schedule_seed: u64,
    /// The full offending schedule as a one-line spec (fault grammar,
    /// plus an ` // elastic: …` suffix when roster churn was composed).
    pub spec: String,
    /// Violations the full plan produced.
    pub violations: Vec<Violation>,
    /// The greedily shrunk minimal fault plan.
    pub minimal: FaultPlan,
    /// The greedily shrunk minimal elastic plan (empty when the sweep ran
    /// without elasticity or the roster events were all noise).
    pub minimal_elastic: ElasticPlan,
    /// The combined minimal schedule as a one-line spec — the reproducer.
    pub minimal_spec: String,
}

/// One-line spec for a combined fault + elastic schedule. Stays a single
/// line so `grep '^minimal-spec:'` pipelines keep working; the elastic
/// half round-trips through [`ElasticPlan::parse`].
fn combined_spec(faults: &FaultPlan, elastic: &ElasticPlan) -> String {
    if elastic.is_empty() {
        faults.to_spec()
    } else if faults.is_empty() {
        format!("elastic: {}", elastic.to_spec())
    } else {
        format!("{} // elastic: {}", faults.to_spec(), elastic.to_spec())
    }
}

/// Aggregate result of a chaos sweep.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Schedules explored (including the injected-corruption one).
    pub schedules_run: u32,
    /// Individual invariant checks evaluated across all schedules.
    pub checks: usize,
    /// Schedules that broke an invariant, in exploration order.
    pub failures: Vec<ScheduleFailure>,
}

impl ChaosReport {
    /// True when every schedule passed every invariant.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A per-node durable-store fixture the storage drills replay against:
/// the WAL baseline snapshot, the closed log, and the live state the log
/// must reproduce.
struct NodeFixture {
    baseline: Vec<u8>,
    wal: Vec<u8>,
    live: Vec<u8>,
    /// Byte offset just past each complete WAL record.
    boundaries: Vec<usize>,
    /// `entries_to_bytes` export after replaying only records `0..i` —
    /// the legal "prefix states" a torn or limited recovery may land on.
    prefix_exports: Vec<Vec<u8>>,
    /// Per-op record counts from the fixture's WAL (telemetry only).
    records_by_op: Vec<(&'static str, u64)>,
}

impl NodeFixture {
    /// Build the drill fixture for one node: arm the WAL on a store
    /// carrying the node's partition blob, apply a representative op mix
    /// (set / rpush / incr / set_counter / del), and take the atomic
    /// `(live, wal)` cut.
    fn build(node_id: usize, partition_blob: &[u8]) -> Self {
        let store = KvStore::new();
        store
            .set("partition:data", partition_blob.to_vec())
            .expect("fresh key");
        let baseline = store.enable_wal();
        store
            .set("meta:node", node_id.to_string().into_bytes())
            .expect("fresh key");
        for i in 0..4u32 {
            store
                .rpush("oplog", format!("op-{node_id}-{i}").into_bytes())
                .expect("list key");
            store.incr("counter:items").expect("counter key");
        }
        store.set_counter("counter:epoch", 7).expect("fresh counter");
        store.set("meta:tmp", b"transient".to_vec()).expect("fresh key");
        store.del("meta:tmp").expect("delete string key");
        let records_by_op: Vec<(&'static str, u64)> = store.wal_stats().by_op();
        let (entries, wal) = store.export_with_wal();
        let live = entries_to_bytes(&entries);
        let replay = pareto_cluster::replay_bytes(&wal).expect("fixture log is well-formed");
        // Prefix state i = baseline + records 0..i (i = 0 ..= n records).
        let prefix_exports: Vec<Vec<u8>> = (0..=replay.ops.len() as u64)
            .map(|limit| {
                let (st, _) = KvStore::recover_with_options(
                    Some(&baseline),
                    &wal,
                    Some(limit),
                    true,
                )
                .expect("fixture prefix replay");
                entries_to_bytes(&st.export_entries())
            })
            .collect();
        NodeFixture {
            baseline,
            wal,
            live,
            boundaries: replay.boundaries,
            prefix_exports,
            records_by_op,
        }
    }

    fn export_of(store: &KvStore) -> Vec<u8> {
        entries_to_bytes(&store.export_entries())
    }

    /// The prefix state in force after cutting the log at byte `len`.
    fn prefix_at_byte(&self, len: usize) -> &[u8] {
        let complete = self.boundaries.iter().filter(|&&b| b <= len).count();
        &self.prefix_exports[complete]
    }
}

/// Run the storage drills one fault plan prescribes for one node,
/// recording passes and violations into `audit`.
fn drill_node(
    node: usize,
    fx: &NodeFixture,
    faults: &FaultPlan,
    verify_checksums: bool,
    audit: &mut AuditReport,
) {
    // Torn write: the log is cut `cut` bytes short of its end; recovery
    // must tolerate the tear and land exactly on the longest-complete-
    // prefix state.
    if let Some(cut) = faults.torn_write(node) {
        let keep = fx.wal.len().saturating_sub(cut as usize % fx.wal.len().max(1));
        let torn = &fx.wal[..keep];
        match KvStore::recover(Some(&fx.baseline), torn) {
            Ok((store, rep)) => {
                let got = NodeFixture::export_of(&store);
                let want = fx.prefix_at_byte(keep);
                audit.check(Invariant::WalRecovery, got == want, || {
                    format!("node {node}: torn cut {cut} did not recover the longest complete prefix")
                });
                let boundary = fx.boundaries.iter().filter(|&&b| b <= keep).max().copied().unwrap_or(0);
                audit.check(
                    Invariant::WalRecovery,
                    rep.torn_tail_bytes == keep - boundary,
                    || {
                        format!(
                            "node {node}: torn tail reported {} bytes, expected {}",
                            rep.torn_tail_bytes,
                            keep - boundary
                        )
                    },
                );
            }
            Err(e) => audit.violate(
                Invariant::WalRecovery,
                format!("node {node}: torn cut {cut} must be tolerated, got {e}"),
            ),
        }
    }

    // Bit-rot: one flipped byte inside the log. With checksums on, the
    // flip must either be detected (hard error) or leave the store on a
    // legal prefix state (a flipped length field turns the tail into a
    // torn write — torn-tail semantics). Silent divergence from every
    // prefix is the violation. With checksums off (`--inject-corruption`)
    // divergence is *expected* — and must be caught here.
    if let Some((offset, mask)) = faults.bit_rot(node) {
        let mut rotten = fx.wal.clone();
        if !rotten.is_empty() {
            let idx = (offset % rotten.len() as u64) as usize;
            rotten[idx] ^= mask;
        }
        match KvStore::recover_with_options(Some(&fx.baseline), &rotten, None, verify_checksums) {
            Ok((store, _)) => {
                let got = NodeFixture::export_of(&store);
                let legal = fx.prefix_exports.contains(&got);
                audit.check(Invariant::WalRecovery, legal, || {
                    format!(
                        "node {node}: bit-rot at {offset}^{mask:#04x} silently diverged from every prefix state"
                    )
                });
            }
            Err(RecoverError::Wal(WalError::ChecksumMismatch { .. }))
            | Err(RecoverError::Wal(WalError::BadTag { .. }))
            | Err(RecoverError::Wal(WalError::TruncatedPayload { .. }))
            | Err(RecoverError::Wal(WalError::BadKey { .. })) => audit.passed(1),
            Err(e) => audit.violate(
                Invariant::WalRecovery,
                format!("node {node}: bit-rot produced a non-WAL error: {e}"),
            ),
        }
    }

    // Snapshot loss: the checkpoint vanished; replaying the full log from
    // genesis must still reach... only the post-arming writes. The WAL
    // alone reproduces the delta, so recovery equals live iff the baseline
    // was empty; otherwise the correct behavior is a *detected* partial
    // state (the partition blob is missing). Either way the recovery must
    // not fabricate the lost baseline.
    if faults.snapshot_lost(node) {
        match KvStore::recover(None, &fx.wal) {
            Ok((store, rep)) => {
                audit.check(
                    Invariant::WalRecovery,
                    rep.records_replayed == rep.records_available && rep.torn_tail_bytes == 0,
                    || format!("node {node}: snapshot-loss replay was not total"),
                );
                let got = NodeFixture::export_of(&store);
                // An empty checksummed snapshot is exactly 12 bytes
                // (magic + count + crc): anything longer carries state
                // that a snapshot-less recovery cannot legally reproduce.
                let fabricated = fx.baseline.len() > 12 && got == fx.live;
                audit.check(Invariant::WalRecovery, !fabricated, || {
                    format!("node {node}: recovery without the snapshot fabricated baseline state")
                });
            }
            Err(e) => audit.violate(
                Invariant::WalRecovery,
                format!("node {node}: snapshot loss must degrade, not error: {e}"),
            ),
        }
    }

    // Crash during recovery: a first recovery attempt dies after
    // `at_record` replayed records and is discarded; the restarted full
    // recovery must be idempotent — bit-identical to a never-crashed one.
    if let Some(at_record) = faults.recovery_crash(node) {
        let partial = KvStore::recover_with_options(
            Some(&fx.baseline),
            &fx.wal,
            Some(at_record as u64),
            true,
        );
        match partial {
            Ok((store, rep)) => {
                let got = NodeFixture::export_of(&store);
                let want = &fx.prefix_exports[rep.records_replayed as usize];
                audit.check(Invariant::WalRecovery, got == *want, || {
                    format!("node {node}: partial recovery ({at_record} records) off its prefix state")
                });
            }
            Err(e) => audit.violate(
                Invariant::WalRecovery,
                format!("node {node}: partial recovery errored: {e}"),
            ),
        }
        match KvStore::recover(Some(&fx.baseline), &fx.wal) {
            Ok((store, _)) => {
                let got = NodeFixture::export_of(&store);
                audit.check(Invariant::WalRecovery, got == fx.live, || {
                    format!("node {node}: restarted recovery after crash is not idempotent")
                });
            }
            Err(e) => audit.violate(
                Invariant::WalRecovery,
                format!("node {node}: restarted recovery errored: {e}"),
            ),
        }
    }
}

/// Everything the per-schedule evaluation needs, planned once.
struct ChaosContext<'a> {
    cluster: &'a SimCluster,
    plan: Plan,
    work: Vec<RecordWork>,
    fits: Vec<LinearFit>,
    alpha: f64,
    recovery: RecoveryConfig,
    fixtures: Vec<NodeFixture>,
}

impl ChaosContext<'_> {
    /// Evaluate one fault plan end to end: recovery execution, outcome
    /// audit, and the per-node storage drills. `verify_checksums = false`
    /// is used only for the planted `--inject-corruption` schedule — the
    /// regular sweep always drills the real (verifying) recovery path.
    fn evaluate(
        &self,
        faults: &FaultPlan,
        elastic: &ElasticPlan,
        verify_checksums: bool,
    ) -> AuditReport {
        let outcome = recovery::execute(&ExecRequest {
            cluster: self.cluster,
            work: &self.work,
            initial: &self.plan.partitions,
            strata: &self.plan.stratification.assignments,
            fits: &self.fits,
            profiles: &self.plan.energy_profiles,
            alpha: self.alpha,
            faults,
            cfg: &self.recovery,
            elastic: Some(elastic),
            warm: None,
            telemetry: None,
        })
        .expect("run_chaos validated the config and planned node-aligned inputs");
        let mut audit = audit_elastic_run(faults, elastic, &self.plan, &outcome);
        for (node, fx) in self.fixtures.iter().enumerate() {
            if faults.has_storage_faults(node) {
                drill_node(node, fx, faults, verify_checksums, &mut audit);
            }
        }
        audit
    }
}

/// Greedy delta-debugging of a fault plan alone — [`shrink_combined_schedule`]
/// with no elastic plan: drop one event at a time, left to right, keeping
/// any drop that still fails, until a full pass removes nothing.
/// Deterministic for a deterministic `fails`, hence the stable minimal
/// specs the CI job diffs across runs.
pub fn shrink_schedule(plan: &FaultPlan, mut fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    shrink_combined_schedule(plan, &ElasticPlan::none(), |faults, _| fails(faults)).0
}

/// Delta-debug a combined fault + elastic schedule: alternate one-event-
/// at-a-time passes over the fault plan (elastic held fixed) and the
/// elastic plan (faults held fixed) until a whole round removes nothing.
/// Deterministic for a deterministic `fails`, like [`shrink_schedule`].
pub fn shrink_combined_schedule(
    faults: &FaultPlan,
    elastic: &ElasticPlan,
    mut fails: impl FnMut(&FaultPlan, &ElasticPlan) -> bool,
) -> (FaultPlan, ElasticPlan) {
    let mut cf = faults.clone();
    let mut ce = elastic.clone();
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < cf.len() {
            let candidate = cf.without_event(i);
            if fails(&candidate, &ce) {
                cf = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        let mut j = 0;
        while j < ce.len() {
            let candidate = ce.without_event(j);
            if fails(&cf, &candidate) {
                ce = candidate;
                progressed = true;
            } else {
                j += 1;
            }
        }
        if !progressed {
            return (cf, ce);
        }
    }
}

/// Sweep `chaos.schedules` seeded fault schedules over one planned job,
/// audit every outcome, and shrink any failure. Planning errors and an
/// invalid [`RecoveryConfig`] surface as [`PlanError`]s; invariant
/// violations are *data* in the returned [`ChaosReport`], not errors.
pub fn run_chaos(
    cluster: &SimCluster,
    dataset: &Dataset,
    workload: WorkloadKind,
    fw_cfg: &FrameworkConfig,
    chaos: &ChaosConfig,
    telemetry: &Arc<Telemetry>,
) -> Result<ChaosReport, PlanError> {
    chaos.recovery.validate().map_err(PlanError::Recovery)?;
    let framework = Framework::new(cluster, fw_cfg.clone());
    let plan = framework.try_plan(dataset, workload)?;
    let (work, fits, alpha) = recovery_inputs(cluster, dataset, workload, fw_cfg.strategy, &plan);
    let p = cluster.num_nodes();
    let fixtures: Vec<NodeFixture> = (0..p)
        .map(|node| {
            let records: Vec<Vec<u8>> = plan.partitions[node]
                .iter()
                .map(|&i| dataset.items[i].payload.to_bytes())
                .collect();
            let blob = pareto_cluster::kvstore::encode_records(&records);
            NodeFixture::build(node, &blob)
        })
        .collect();
    for fx in &fixtures {
        for &(op, count) in &fx.records_by_op {
            telemetry.counter_add("pareto_wal_records_total", &[("op", op)], count);
        }
    }
    let ctx = ChaosContext {
        cluster,
        plan,
        work,
        fits,
        alpha,
        recovery: chaos.recovery,
        fixtures,
    };

    let mut report = ChaosReport::default();
    // (seed, faults, elastic, verify) tuples: the sweep always drills the
    // real verifying recovery path; --inject-corruption adds one planted
    // schedule evaluated with checksum verification off. Roster churn is
    // drawn from the same per-schedule seed through disjoint draw
    // indices, so composing it never perturbs the fault draws.
    let mut runs: Vec<(u64, FaultPlan, ElasticPlan, bool)> = (0..chaos.schedules)
        .map(|i| {
            let seed = chaos.seed.wrapping_add(i as u64);
            let elastic = match &chaos.elastic {
                Some(spec) => ElasticPlan::generate(seed, p, spec),
                None => ElasticPlan::none(),
            };
            (seed, FaultPlan::generate(seed, p, &chaos.spec), elastic, true)
        })
        .collect();
    if chaos.inject_corruption {
        let planted = known_bad_schedule(chaos.seed, p, &chaos.spec, &ctx.fixtures[0]);
        runs.push((chaos.seed, planted, ElasticPlan::none(), false));
    }

    for (schedule_seed, faults, elastic, verify) in runs {
        report.schedules_run += 1;
        let audit = ctx.evaluate(&faults, &elastic, verify);
        report.checks += audit.checks;
        record_schedule_telemetry(telemetry, &audit);
        if audit.is_clean() {
            continue;
        }
        let (minimal, minimal_elastic) = shrink_combined_schedule(&faults, &elastic, |f, e| {
            !ctx.evaluate(f, e, verify).is_clean()
        });
        let minimal_spec = combined_spec(&minimal, &minimal_elastic);
        // Structured warning so event sinks (stderr, capture, the flight
        // recorder) see the discovery the moment it is shrunk.
        event::warn(
            "chaos",
            format!("schedule seed {schedule_seed} violated invariants; shrunk to {minimal_spec}"),
        );
        report.failures.push(ScheduleFailure {
            schedule_seed,
            spec: combined_spec(&faults, &elastic),
            violations: audit.violations,
            minimal_spec,
            minimal,
            minimal_elastic,
        });
    }
    telemetry.gauge_set("pareto_chaos_schedules", &[], f64::from(report.schedules_run));
    Ok(report)
}

/// The deliberately-bad schedule for `--inject-corruption`: ordinary
/// seeded compute faults *plus* a bit-rot event whose offset lands inside
/// a WAL record's key bytes on node 0 — with checksum verification off,
/// the flipped key silently redirects the op and the recovered state
/// diverges from every legal prefix.
fn known_bad_schedule(seed: u64, p: usize, spec: &FaultSpec, fx0: &NodeFixture) -> FaultPlan {
    // Compute-only noise for the shrinker to strip (storage probs zeroed
    // so the only storage event is the one we plant).
    let compute_only = FaultSpec {
        torn_write_prob: 0.0,
        bit_rot_prob: 0.0,
        snapshot_loss_prob: 0.0,
        recovery_crash_prob: 0.0,
        ..*spec
    };
    // Record 1's payload starts 8 bytes past record 0's boundary (u32 len
    // + u32 crc); +1 skips the tag and +4 the key length, landing on the
    // first key byte.
    let record1_start = fx0.boundaries.first().copied().unwrap_or(0);
    let key_byte = (record1_start + 8 + 1 + 4) as u64;
    FaultPlan::generate(seed, p, &compute_only).with_bit_rot(0, key_byte, 0x01)
}

/// Record per-schedule audit counters (inert: recording never feeds any
/// decision, chaos control flow reads only the audit report itself).
fn record_schedule_telemetry(telemetry: &Telemetry, audit: &AuditReport) {
    if !telemetry.is_enabled() {
        return;
    }
    let outcome = if audit.is_clean() { "ok" } else { "violation" };
    telemetry.counter_add("pareto_wal_recoveries_total", &[("outcome", outcome)], 1);
    for v in &audit.violations {
        telemetry.counter_add(
            "pareto_audit_violations_total",
            &[("invariant", v.invariant.label())],
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Strategy;
    use pareto_cluster::NodeSpec;

    fn small_setup() -> (SimCluster, Dataset, FrameworkConfig) {
        let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 21));
        let dataset = pareto_datagen::rcv1_syn(5, 0.04);
        let cfg = FrameworkConfig {
            strategy: Strategy::HetAware,
            ..FrameworkConfig::default()
        };
        (cluster, dataset, cfg)
    }

    #[test]
    fn small_sweep_is_clean_on_main() {
        let (cluster, dataset, cfg) = small_setup();
        let chaos = ChaosConfig {
            schedules: 12,
            seed: 2017,
            ..ChaosConfig::default()
        };
        let report = run_chaos(
            &cluster,
            &dataset,
            WorkloadKind::Lz77,
            &cfg,
            &chaos,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(report.schedules_run, 12);
        assert!(report.checks > 100, "checks: {}", report.checks);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
    }

    #[test]
    fn injected_corruption_is_caught_and_shrinks_stably() {
        let (cluster, dataset, cfg) = small_setup();
        let chaos = ChaosConfig {
            schedules: 2,
            seed: 2017,
            inject_corruption: true,
            ..ChaosConfig::default()
        };
        let run = || {
            run_chaos(
                &cluster,
                &dataset,
                WorkloadKind::Lz77,
                &cfg,
                &chaos,
                &Telemetry::disabled(),
            )
            .unwrap()
        };
        let a = run();
        assert!(!a.is_clean(), "injected corruption must be caught");
        let failure = &a.failures[0];
        assert!(failure
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::WalRecovery));
        // The shrinker strips the compute noise down to the single
        // planted bit-rot event.
        assert_eq!(failure.minimal.len(), 1, "minimal: {}", failure.minimal_spec);
        assert!(
            failure.minimal_spec.starts_with("rot:0@"),
            "minimal spec: {}",
            failure.minimal_spec
        );
        // Stable across runs: same seed, same minimal spec.
        let b = run();
        assert_eq!(
            a.failures[0].minimal_spec, b.failures[0].minimal_spec,
            "shrinking must be deterministic"
        );
    }

    #[test]
    fn elastic_sweep_is_clean_and_deterministic() {
        let (cluster, dataset, cfg) = small_setup();
        let chaos = ChaosConfig {
            schedules: 12,
            seed: 2017,
            elastic: Some(ElasticSpec::default()),
            ..ChaosConfig::default()
        };
        let run = || {
            run_chaos(
                &cluster,
                &dataset,
                WorkloadKind::Lz77,
                &cfg,
                &chaos,
                &Telemetry::disabled(),
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a.schedules_run, 12);
        assert!(a.is_clean(), "failures: {:?}", a.failures);
        // Roster churn actually happened somewhere in the sweep: at least
        // one schedule seed draws a non-empty elastic plan.
        let churned = (0..12u64)
            .any(|i| !ElasticPlan::generate(2017 + i, 4, &ElasticSpec::default()).is_empty());
        assert!(churned, "default spec must produce churn in 12 schedules");
        let b = run();
        assert_eq!(a.checks, b.checks, "elastic sweep must be deterministic");
    }

    #[test]
    fn combined_shrinker_isolates_the_elastic_culprit() {
        // Failure requires the drain on node 1; the crash, straggler, and
        // join are noise the combined shrinker must strip from both plans.
        let faults = FaultPlan::new().with_crash(0, 5.0).with_straggler(2, 2.0);
        let elastic = ElasticPlan::new().with_join(3, 20.0).with_drain(1, 40.0);
        let (min_f, min_e) =
            shrink_combined_schedule(&faults, &elastic, |_, e| e.drain_time(1).is_some());
        assert_eq!(min_f.len(), 0, "fault noise must vanish: {}", min_f.to_spec());
        assert_eq!(min_e.len(), 1, "elastic noise must vanish: {}", min_e.to_spec());
        assert_eq!(combined_spec(&min_f, &min_e), "elastic: drain:1@40");
    }

    #[test]
    fn combined_spec_is_one_line_and_round_trips() {
        let faults = FaultPlan::new().with_crash(0, 5.0);
        let elastic = ElasticPlan::new().with_drain(1, 40.0);
        let spec = combined_spec(&faults, &elastic);
        assert!(!spec.contains('\n'));
        let (fault_part, elastic_part) = spec.split_once(" // elastic: ").unwrap();
        assert_eq!(FaultPlan::parse(fault_part, 4).unwrap(), faults);
        assert_eq!(ElasticPlan::parse(elastic_part, 4).unwrap(), elastic);
        assert_eq!(combined_spec(&faults, &ElasticPlan::none()), faults.to_spec());
    }

    #[test]
    fn shrinker_reaches_fixpoint_on_synthetic_predicate() {
        // Failure requires the snapshot-loss on node 2; everything else is
        // noise the shrinker must remove.
        let plan = FaultPlan::new()
            .with_crash(0, 5.0)
            .with_straggler(1, 2.0)
            .with_snapshot_loss(2)
            .with_torn_write(3, 9);
        let minimal = shrink_schedule(&plan, |p| p.snapshot_lost(2));
        assert_eq!(minimal.len(), 1);
        assert!(minimal.snapshot_lost(2));
        assert_eq!(minimal.to_spec(), "snaploss:2");
    }

    #[test]
    fn invalid_recovery_config_is_a_typed_error() {
        let (cluster, dataset, cfg) = small_setup();
        let chaos = ChaosConfig {
            schedules: 1,
            recovery: RecoveryConfig {
                max_retries: 0,
                ..RecoveryConfig::default()
            },
            ..ChaosConfig::default()
        };
        let err = run_chaos(
            &cluster,
            &dataset,
            WorkloadKind::Lz77,
            &cfg,
            &chaos,
            &Telemetry::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::Recovery(_)), "got {err}");
    }
}
