//! Acceptance gate for the plan-serving daemon: a seeded closed-loop
//! soak of ≥1000 mixed plan/replan requests — with injected solver
//! stalls, node crashes, and admission overload — must terminate every
//! request in exactly one typed outcome, never panic, and produce a
//! summary JSON that is bit-identical across repeated runs and across
//! planning thread counts.

use pareto_service::soak::{run_soak, SoakConfig};
use pareto_service::{Request, RequestKind, Response, ServiceConfig};

fn gate_config(threads: usize) -> SoakConfig {
    SoakConfig {
        service: ServiceConfig {
            threads,
            ..SoakConfig::default().service
        },
        requests: 1000,
        ..SoakConfig::default()
    }
}

/// The headline gate: 1000 chaos-laden requests, all terminal, zero
/// audit violations, and the JSON summary byte-identical across a
/// repeated run and across planning thread counts {1, 4, 8} — threads
/// are an execution detail, never content.
#[test]
fn thousand_request_chaos_soak_is_deterministic_and_fully_terminal() {
    let first = run_soak(gate_config(1), None);

    assert_eq!(first.issued, 1000, "every logical request must be issued");
    assert_eq!(
        first.outcomes.total(),
        first.issued,
        "every request must land in exactly one terminal bucket"
    );
    assert_eq!(first.audit_violations, 0, "soak audit must be clean");
    assert!(
        first.stalls_injected > 0,
        "chaos must actually inject solver stalls"
    );
    assert!(
        first.outcomes.served > 0,
        "a functioning service serves fresh plans"
    );

    let second = run_soak(gate_config(1), None);
    assert_eq!(
        first.json, second.json,
        "summary JSON must be bit-identical across runs"
    );
    for threads in [4usize, 8] {
        let run = run_soak(gate_config(threads), None);
        assert_eq!(
            first.json, run.json,
            "soak JSON diverged at {threads} planning threads"
        );
    }
}

/// Overload shape: starve the executor (one slot, tiny queue, many
/// clients) and the service sheds deterministically — typed, counted,
/// and still zero audit violations.
#[test]
fn overloaded_soak_sheds_typed_and_stays_clean() {
    let cfg = SoakConfig {
        service: ServiceConfig {
            queue_capacity: 2,
            ..SoakConfig::default().service
        },
        requests: 400,
        clients: 16,
        sim_workers: 1,
        ..SoakConfig::default()
    };
    let report = run_soak(cfg, None);
    assert_eq!(report.outcomes.total(), report.issued);
    assert_eq!(report.audit_violations, 0);
    assert!(
        report.shed_events > 0,
        "an overloaded bounded queue must shed"
    );
    assert!(
        report.retries > 0,
        "shed responses must drive client backoff retries"
    );
}

/// Degraded serving is visible end to end: drive a tenant's breaker open
/// with forced solver stalls and the service answers from cache with
/// `degraded: true` and the digest of the dataset the cached plan was
/// computed over.
#[test]
fn degraded_responses_carry_source_digest() {
    use pareto_service::PlanService;

    let service = PlanService::new(ServiceConfig::default(), None);
    let fresh = service.handle(
        &Request {
            id: 1,
            tenant: "t0".into(),
            deadline_budget: 0,
            kind: RequestKind::Plan { alpha: 0.99 },
        },
        0,
        false,
    );
    let fresh_digest = match fresh {
        Response::Served {
            degraded,
            digest,
            source_digest,
            ..
        } => {
            assert!(!degraded, "first solve must be fresh");
            assert_eq!(digest, source_digest, "fresh serve is its own source");
            digest
        }
        other => panic!("expected served plan, got {other:?}"),
    };

    // Trip the breaker with consecutive injected solver failures.
    let mut saw_degraded = false;
    for i in 0..6u64 {
        let resp = service.handle(
            &Request {
                id: 2 + i,
                tenant: "t0".into(),
                deadline_budget: 0,
                kind: RequestKind::Plan { alpha: 0.99 },
            },
            1 + i,
            true,
        );
        if let Response::Served {
            degraded,
            source_digest,
            ..
        } = resp
        {
            assert!(degraded, "post-failure serves must be flagged degraded");
            assert_eq!(
                source_digest, fresh_digest,
                "degraded serve must name the digest it was computed over"
            );
            saw_degraded = true;
        }
    }
    assert!(saw_degraded, "breaker path must produce degraded serves");
}

/// Pinned summaries: FNV-1a digests of the soak summary JSON for the CI
/// gate config, the CI overload config and a chaos-free run, recorded at
/// the commit *before* the server and the soak came to share one
/// `Dispatcher` (df8388d) — so the shared admission path is checked
/// against the past, not only against itself. Threads are an execution
/// detail: every pinned digest must hold at each planning thread count.
///
/// The three were re-derived when storing an append's extended sketch
/// began evicting its prefix. Only the summary's `cache` object moved
/// (recorded before → after): ci-gate hits 1613 → 1623, misses 1188 →
/// 1178, evictions 1124 → 1114 (was `0xab2c_b84b_aaa5_c02b`);
/// ci-overload 186 → 189, 180 → 176, 116 → 112 (was
/// `0x2765_4fb2_94fe_0e1e`); no-chaos 470 → 472, 380 → 378, 316 → 314
/// (was `0x8136_888f_5ea5_b443`).
#[test]
fn soak_summaries_match_the_recorded_goldens() {
    use pareto_integration_tests::{digest, thread_counts};

    let base = SoakConfig::default;
    let cases: [(&str, SoakConfig, u64); 3] = [
        ("ci-gate", gate_config(1), 0xd690_efa5_4ee4_539e),
        (
            "ci-overload",
            SoakConfig {
                service: ServiceConfig {
                    queue_capacity: 2,
                    ..base().service
                },
                requests: 400,
                clients: 16,
                sim_workers: 1,
                ..base()
            },
            0x26b7_eeec_5722_e155,
        ),
        (
            "no-chaos",
            SoakConfig {
                requests: 300,
                chaos: false,
                ..base()
            },
            0xb502_8754_ed9b_a522,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, cfg, golden) in cases {
        for &threads in &thread_counts()[..2] {
            let mut cfg = cfg.clone();
            // The CLI's soak seed (`--seed 2017`), as CI runs it.
            cfg.service.seed = 2017;
            cfg.service.threads = threads;
            let report = run_soak(cfg, None);
            assert_eq!(
                report.audit_violations, 0,
                "{name}: soak audit must be clean"
            );
            let actual = digest(report.json.bytes().map(u64::from));
            if actual != golden {
                mismatches.push(format!(
                    "{name} at {threads} planning thread(s): {actual:#018x} (pinned {golden:#018x})"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "soak summaries diverged from the recorded ones:\n{}",
        mismatches.join("\n")
    );
}
