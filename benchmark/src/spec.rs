//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at
//! the repo root is this table rendered (`pareto-perf --spec`); a unit
//! test fails when the two drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    /// Absolute slack `--check` also allows, in the metric's unit, so tiny
    /// values do not flap.
    pub floor: f64,
}

/// One per-layer metric (no bound: they explain, they do not gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures; also the default of `--seconds`.
pub const RUN_SECONDS: u32 = 20;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "plan_cold",
        why: "fresh session + plan() per op, a new seeded rcv1 corpus each time: every stage misses, so sketch/stratify/profile do all the work and the LP, cache-hit and service paths do none",
    },
    Workload {
        name: "replan_warm",
        why: "one long-lived session, seeded mix of novel-alpha replans, repeat plans, node churn and frontier explores: cache hits, warm LP and partitioner carry the time, the data plane none",
    },
    Workload {
        name: "run_resilient",
        why: "Framework::try_run with WAL durability alternating with try_run_with_faults on seeded web graphs: the only workload where recovery, kvstore/wal and workload execution carry weight",
    },
    Workload {
        name: "serve_mixed",
        why: "closed loop of 1 client over loopback TCP against the `paretofab serve --listen` daemon, one op a tenant visit (Replan, 5 novel Plans, a repeat): codec, admission, worker hand-off, re-stratify",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

/// The bounds are wide because the reference host is unsteady: same-seed
/// runs differ by ~6 % (interquartile) in calm minutes and by 10-20 % in
/// noisy ones, and a bound has to clear that spread three times over.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, 0.0),
    e2e("op_p50_s", "s", Better::Lower, 0.25, 0.0),
    e2e("op_p90_s", "s", Better::Lower, 0.25, 0.0),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20, 4.0),
    e2e("objective_makespan_rel", "ratio", Better::Lower, 0.15, 0.0),
    e2e("setup_s", "s", Better::Lower, 0.25, 0.020),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: &[PerLayer] = &[
    // host
    layer("host.calib_s", "s", L),
    layer("host.nproc", "count", H),
    // datagen
    layer("datagen.rcv1_s", "s", L),
    layer("datagen.treebank_s", "s", L),
    layer("datagen.uk_s", "s", L),
    // sketch
    layer("sketch.full_s", "s", L),
    layer("sketch.records_per_s", "1/s", H),
    layer("sketch.append_s", "s", L),
    layer("sketch.sig_bytes", "B", L),
    // stratify
    layer("stratify.kmodes_s", "s", L),
    layer("stratify.records_per_s", "1/s", H),
    layer("stratify.iterations", "count", L),
    layer("stratify.zero_match_rate", "ratio", L),
    // core::estimator (+ stats, energy)
    layer("profile.estimate_s", "s", L),
    layer("profile.energy_profiles_s", "s", L),
    layer("profile.refit_s", "s", L),
    // lp
    layer("lp.cold_solve_s", "s", L),
    layer("lp.warm_solve_s", "s", L),
    layer("lp.cold_pivots", "count", L),
    layer("lp.warm_pivots", "count", L),
    layer("lp.warm_fallback_ratio", "ratio", L),
    layer("lp.cold_solve_p64_s", "s", L),
    // core::partitioner
    layer("partition.materialize_s", "s", L),
    layer("partition.records_per_s", "1/s", H),
    // core::{stages,session,cache}
    layer("cache.full_hit_plan_s", "s", L),
    layer("cache.dataset_fingerprint_s", "s", L),
    layer("cache.hit_ratio", "ratio", H),
    layer("cache.evictions", "count", L),
    layer("engine.overhead_s", "s", L),
    layer("plan.threads2_speedup", "ratio", H),
    // core::frontier
    layer("frontier.explore_warm_s", "s", L),
    layer("frontier.lp_solves", "count", L),
    layer("frontier.points_kept", "count", H),
    // core::recovery + workloads
    layer("recovery.exec_s", "s", L),
    layer("recovery.replans_per_run", "count", L),
    layer("recovery.items_reassigned", "count", L),
    layer("recovery.steals", "count", L),
    layer("recovery.makespan_overhead", "ratio", L),
    layer("workloads.run_s", "s", L),
    // cluster::{kvstore,wal,persist}
    layer("kv.set_s", "s", L),
    layer("wal.append_s", "s", L),
    layer("wal.replay_s", "s", L),
    layer("wal.bytes_per_record", "B", L),
    layer("wal.records_replayed", "count", H),
    // service::{codec,proto}
    layer("codec.encode_request_s", "s", L),
    layer("codec.decode_request_s", "s", L),
    layer("codec.encode_response_s", "s", L),
    layer("codec.decode_response_s", "s", L),
    layer("codec.request_frame_bytes", "B", L),
    layer("codec.response_frame_bytes", "B", L),
    // service::{server,admission}
    layer("service.handle_hit_s", "s", L),
    layer("service.call_hit_s", "s", L),
    layer("service.call_frame_hit_s", "s", L),
    layer("service.tcp_hit_s", "s", L),
    layer("service.plan_novel_s", "s", L),
    layer("service.replan_s", "s", L),
    layer("service.worker_scaling", "ratio", H),
    layer("service.coalesced_total", "count", H),
    layer("service.shed_total", "count", L),
    // telemetry
    layer("telemetry.plan_overhead_ratio", "ratio", L),
    layer("telemetry.spans_per_plan", "count", L),
    // the paper's two objectives, absolute, in simulated seconds and kJ (they
    // repeat exactly for one seed: predictions, not measurements)
    layer("objective.makespan_s", "sim_s", L),
    layer("objective.dirty_kj", "kJ", L),
    layer("objective.dirty_rel", "ratio", L),
    // harness
    layer("trace.overhead_ratio", "ratio", H),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.label(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.label()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn benchmark_json_at_the_repo_root_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let doc = json::parse(&benchmark_json()).expect("rendered spec is JSON");
        assert_eq!(doc.members().unwrap().len(), 6);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
