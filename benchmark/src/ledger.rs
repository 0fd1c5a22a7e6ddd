//! The per-layer ledger of the traced run: one fixed, seeded piece of
//! work per layer, timed from outside through the layer's public
//! functions, each inside a span. The same ledger runs whatever the
//! workload, so every traced run reports every per-layer metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use pareto_cluster::{KvStore, NodeSpec, SimCluster};
use pareto_core::framework::FrameworkConfig;
use pareto_core::{
    DataPartitioner, EnergyEstimator, HeterogeneityEstimator, PlanSession, Stratifier,
};
use pareto_datagen::DataItem;
use pareto_lp::{Problem, Relation, StartKind};
use pareto_service::{
    decode_frame, encode_frame, PlanService, Request, RequestKind, Response, Server, ServiceConfig,
    TcpClient,
};
use pareto_telemetry::metrics::{self, MetricKey};
use pareto_telemetry::Telemetry;

use crate::rng::{sub_seed, Rng};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    paper_cluster, plan_cfg, plan_cold, predicted, replan_warm, run_resilient, serve_mixed, ALPHA,
    CONFIG_SEED, NODES,
};

/// Corpora the staged cold-plan replay visits.
const STAGED_CORPORA: usize = 5;
/// Warm LP solves per staged corpus.
const WARM_SWEEP: usize = 64;
/// Records the sketch-append probe adds to a cached prefix.
const APPEND_RECORDS: usize = 40;
/// Ops of the `replan_warm` mix replayed for the cache counters.
const WARM_OPS: usize = 3_000;
/// Graphs the recovery probe runs.
const RECOVERY_GRAPHS: usize = 4;
/// Clients in each of the two worker-scaling drives, and visits each
/// makes to every tenant it owns.
const SCALING_CLIENTS: usize = 2;
const SCALING_VISITS: usize = 1;

/// The salts the plan engine derives its profile and partition seeds
/// with, so the staged replay draws the samples the black-box plan drew.
/// If the engine changes them the replay stays a valid decomposition of
/// the same stages over different samples.
const ENGINE_PROFILE_SALT: u64 = 0x5A17;
const ENGINE_PARTITION_SALT: u64 = 0x9A27;

/// Metric name -> value, filled section by section.
pub struct Ledger {
    seed: u64,
    values: BTreeMap<&'static str, f64>,
}

/// Seconds `f` took, inside a span named `name`.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
    tr.span(name, |_| {
        let t0 = Instant::now();
        let out = f();
        (t0.elapsed().as_secs_f64(), out)
    })
}

/// Seconds per call of `f` over `reps` back-to-back calls in one span
/// (for calls too short to time singly).
fn per_call<T>(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let (total, ()) = timed(tr, name, || {
        for _ in 0..reps {
            black_box(f());
        }
    });
    total / reps as f64
}

/// The partition LP of the paper for `alpha` over `n` records:
/// variables `x_0..x_{p-1}, v`; minimize `alpha v + (1-alpha) sum k_i m_i
/// x_i` subject to `m_i x_i - v <= -c_i` per node and `sum x_i = n`.
fn partition_lp(fits: &[(f64, f64)], k: &[f64], n: usize, alpha: f64) -> Problem {
    let p = fits.len();
    let mut costs: Vec<f64> = fits
        .iter()
        .zip(k)
        .map(|(&(slope, _), &k)| (1.0 - alpha) * k * slope)
        .collect();
    costs.push(alpha);
    let mut lp = Problem::minimize(costs);
    for (i, &(slope, intercept)) in fits.iter().enumerate() {
        let mut row = vec![0.0; p + 1];
        row[i] = slope;
        row[p] = -1.0;
        lp.constrain(row, Relation::Le, -intercept);
    }
    let mut sum = vec![1.0; p + 1];
    sum[p] = 0.0;
    lp.constrain(sum, Relation::Eq, n as f64);
    lp
}

impl Ledger {
    pub fn new(seed: u64) -> Self {
        Ledger {
            seed,
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Run every section; returns metric name -> value.
    pub fn run(mut self, tr: &mut Tracer) -> Result<BTreeMap<&'static str, f64>, String> {
        tr.span("ledger", |tr| {
            self.host(tr);
            self.datagen(tr);
            self.cold_plan_stages(tr)?;
            self.warm_session(tr)?;
            self.recovery(tr)?;
            self.kv_and_wal(tr)?;
            self.codec(tr)?;
            self.service(tr)
        })?;
        Ok(self.values)
    }

    fn host(&mut self, tr: &mut Tracer) {
        let samples: Vec<f64> = (0..3)
            .map(|_| timed(tr, "host.calib", host_calibration).0)
            .collect();
        self.set("host.calib_s", median(&samples));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.set("host.nproc", nproc as f64);
    }

    fn datagen(&mut self, tr: &mut Tracer) {
        let seed = self.seed;
        let mut gen = |name, metric, f: &dyn Fn(u64) -> usize| {
            let samples: Vec<f64> = (0..3)
                .map(|i| timed(tr, name, || black_box(f(sub_seed(seed, 9, i)))).0)
                .collect();
            self.values.insert(metric, median(&samples));
        };
        gen("datagen.rcv1", "datagen.rcv1_s", &|s| {
            pareto_datagen::rcv1_syn(s, plan_cold::SCALE).len()
        });
        gen("datagen.treebank", "datagen.treebank_s", &|s| {
            pareto_datagen::treebank_syn(s, 1.0).len()
        });
        gen("datagen.uk", "datagen.uk_s", &|s| {
            pareto_datagen::uk_syn(s, run_resilient::SCALE).len()
        });
    }

    /// sketch, stratify, estimator, lp, partitioner, and the engine around
    /// them: a black-box cold plan next to its staged replay.
    fn cold_plan_stages(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let cluster = paper_cluster();
        let cfg = plan_cfg();
        let mut col: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut push = |name: &'static str, v: f64| col.entry(name).or_default().push(v);
        let mut fallbacks = 0;
        let mut staged_share = Vec::new();

        for i in 0..STAGED_CORPORA {
            let data = plan_cold::corpus(self.seed, 0, i);
            let n = data.len();

            // The op as the workload runs it.
            let (plan, plan_s, mut session) = tr.span("plan_cold.op", |tr| {
                plan_cold::cold_plan(&cluster, cfg.clone(), data.clone(), tr)
            })?;
            let (_, dirty_rel) = plan_cold::relative_to_makespan_plan(&mut session, &plan, ALPHA)?;
            let (makespan_s, dirty_j) = predicted(&plan)?;
            push("objective.makespan_s", makespan_s);
            push("objective.dirty_kj", dirty_j / 1000.0);
            push("objective.dirty_rel", dirty_rel);
            drop(session);

            // The same op as calls into each layer.
            let staged_s = tr.span("plan_cold.staged", |tr| -> Result<f64, String> {
                let stratifier = Stratifier::new(cfg.stratifier.clone());
                let (sketch_s, signatures) = timed(tr, "sketch", || stratifier.sketch(&data));
                push("sketch.full_s", sketch_s);
                push("sketch.records_per_s", n as f64 / sketch_s);
                push(
                    "sketch.sig_bytes",
                    (n * cfg.stratifier.sketch_size * 8) as f64,
                );

                let (kmodes_s, strata) = timed(tr, "stratify", || {
                    stratifier.stratify_signatures(&signatures)
                });
                push("stratify.kmodes_s", kmodes_s);
                push("stratify.records_per_s", n as f64 / kmodes_s);
                push("stratify.iterations", strata.iterations as f64);
                push("stratify.zero_match_rate", strata.zero_match_rate);

                let (energy_s, profiles) = timed(tr, "energy_profiles", || {
                    EnergyEstimator::profiles(&cluster, 0.0, cfg.planning_horizon_s)
                });
                push("profile.energy_profiles_s", energy_s);
                let estimator = HeterogeneityEstimator::new(
                    &cluster,
                    cfg.sampling,
                    cfg.seed ^ ENGINE_PROFILE_SALT,
                );
                let (estimate_s, (models, _cost)) = timed(tr, "estimate", || {
                    estimator.estimate(&data, &strata, plan_cold::WORKLOAD)
                });
                push("profile.estimate_s", estimate_s);

                let fits: Vec<(f64, f64)> = models
                    .iter()
                    .map(|m| (m.fit.slope, m.fit.intercept))
                    .collect();
                let k: Vec<f64> = profiles.iter().map(|p| p.k()).collect();
                let lp = partition_lp(&fits, &k, n, ALPHA);
                let (lp_s, solved) = timed(tr, "lp_solve_cold", || lp.solve_cold());
                let solved = solved.map_err(|e| format!("staged LP: {e}"))?;
                push("lp.cold_pivots", solved.solution.iterations as f64);
                push(
                    "lp.cold_solve_s",
                    per_call(tr, "lp_solve_cold_x50", 50, || lp.solve_cold()),
                );

                // A sweep of neighbouring alphas, each solved from the
                // previous optimum's basis (fallbacks to the cold path
                // included: their share is its own metric).
                let mut basis = solved.basis.ok_or("staged LP has no basis")?;
                let mut rng = Rng::new(sub_seed(self.seed, 10, i as u64));
                let (mut warm_s, mut warm_pivots) = (Vec::new(), 0);
                for _ in 0..WARM_SWEEP {
                    let lp = partition_lp(&fits, &k, n, replan_warm::draw_alpha(&mut rng));
                    let (s, next) = timed(tr, "lp_solve_from", || lp.solve_from(&basis));
                    let next = next.map_err(|e| format!("staged warm LP: {e}"))?;
                    warm_s.push(s);
                    warm_pivots += next.solution.iterations;
                    fallbacks += usize::from(next.start == StartKind::WarmFallback);
                    basis = next.basis.ok_or("warm LP has no basis")?;
                }
                push("lp.warm_solve_s", median(&warm_s));
                push("lp.warm_pivots", warm_pivots as f64 / WARM_SWEEP as f64);

                let partitioner = DataPartitioner::new(cfg.seed ^ ENGINE_PARTITION_SALT);
                let (partition_s, parts) = timed(tr, "partition", || {
                    partitioner.partition(&strata, &plan.sizes, cfg.layout)
                });
                black_box(parts);
                push("partition.materialize_s", partition_s);
                push("partition.records_per_s", n as f64 / partition_s);

                if i == 0 {
                    // A cached sketch extended by a small delta.
                    let mut grown = data.clone();
                    let extra: Vec<DataItem> = plan_cold::corpus(self.seed, 0, STAGED_CORPORA)
                        .items
                        .into_iter()
                        .take(APPEND_RECORDS)
                        .collect();
                    grown.items.extend(extra);
                    let (append_s, all) = timed(tr, "sketch_append", || {
                        stratifier.sketch_append(&grown, &signatures)
                    });
                    black_box(all);
                    push("sketch.append_s", append_s);
                }
                Ok(sketch_s + kmodes_s + energy_s + estimate_s + lp_s + partition_s)
            })?;
            push("engine.overhead_s", plan_s - staged_s);
            staged_share.push(staged_s / plan_s);

            // The same cold plan on two planning threads, and with the
            // program's own telemetry recording.
            let two = FrameworkConfig {
                threads: 2,
                ..cfg.clone()
            };
            let (_, two_s, _) = tr.span("plan_cold.threads2", |tr| {
                plan_cold::cold_plan(&cluster, two, data.clone(), tr)
            })?;
            push("plan.threads2_speedup", plan_s / two_s);
            let telemetry = Telemetry::enabled();
            let (recorded_s, plan) = timed(tr, "plan_cold.telemetry", || {
                PlanSession::new(&cluster, cfg.clone(), data.clone(), plan_cold::WORKLOAD)
                    .with_telemetry(telemetry.clone())
                    .plan()
            });
            plan.map_err(|e| e.to_string())?;
            push("telemetry.plan_overhead_ratio", recorded_s / plan_s);
            push(
                "telemetry.spans_per_plan",
                telemetry.snapshot().spans.len() as f64,
            );
        }

        // The LP at a 64-node roster (models from the first corpus).
        let big = SimCluster::new(NodeSpec::paper_cluster(64, 400.0, 2, 9, CONFIG_SEED));
        let data = plan_cold::corpus(self.seed, 0, 0);
        let stratifier = Stratifier::new(cfg.stratifier.clone());
        let strata = stratifier.stratify_signatures(&stratifier.sketch(&data));
        let (models, _) = HeterogeneityEstimator::new(&big, cfg.sampling, cfg.seed).estimate(
            &data,
            &strata,
            plan_cold::WORKLOAD,
        );
        let fits: Vec<(f64, f64)> = models
            .iter()
            .map(|m| (m.fit.slope, m.fit.intercept))
            .collect();
        let k: Vec<f64> = EnergyEstimator::profiles(&big, 0.0, cfg.planning_horizon_s)
            .iter()
            .map(|p| p.k())
            .collect();
        let lp = partition_lp(&fits, &k, data.len(), ALPHA);
        lp.solve_cold().map_err(|e| format!("64-node LP: {e}"))?;
        let p64 = per_call(tr, "lp_solve_cold_p64_x10", 10, || lp.solve_cold());
        self.set("lp.cold_solve_p64_s", p64);

        self.set(
            "lp.warm_fallback_ratio",
            fallbacks as f64 / (STAGED_CORPORA * WARM_SWEEP) as f64,
        );
        eprintln!(
            "ledger: staged layer calls cover {:.1} % of the black-box cold plan (median of {STAGED_CORPORA})",
            100.0 * median(&staged_share)
        );
        for (name, samples) in col {
            // The objectives repeat exactly for a seed: report their mean
            // over the corpora; timings report the median.
            if name.starts_with("objective.") {
                self.set(name, samples.iter().sum::<f64>() / samples.len() as f64)
            } else {
                self.set(name, median(&samples))
            }
        }
        Ok(())
    }

    /// core::{stages,session,cache}, the estimator's refit, and the
    /// frontier explorer, on the `replan_warm` session.
    fn warm_session(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let cluster = paper_cluster();
        let data = replan_warm::dataset(self.seed, 0);
        let (new_s, mut session) = timed(tr, "session_new", || {
            PlanSession::new(&cluster, plan_cfg(), data, replan_warm::WORKLOAD)
                .with_cache_capacity(replan_warm::CACHE_CAPACITY)
        });
        self.set("cache.dataset_fingerprint_s", new_s);
        session.plan().map_err(|e| format!("cold fill: {e}"))?;

        let mut hits = Vec::new();
        for _ in 0..200 {
            let (s, plan) = timed(tr, "plan_full_hit", || session.plan());
            plan.map_err(|e| e.to_string())?;
            hits.push(s);
        }
        self.set("cache.full_hit_plan_s", median(&hits));

        let (explore_s, frontier) = timed(tr, "explore_frontier", || {
            session.explore_frontier(&replan_warm::frontier_cfg())
        });
        let frontier = frontier.map_err(|e| e.to_string())?;
        self.set("frontier.explore_warm_s", explore_s);
        self.set("frontier.lp_solves", frontier.result.lp_solves as f64);
        self.set("frontier.points_kept", frontier.result.points.len() as f64);

        let mut refits = Vec::new();
        for op in replan_warm::schedule(self.seed, 0, WARM_OPS) {
            let plan = tr.span("replan_warm.op", |tr| {
                replan_warm::apply(&mut session, op, tr)
            })?;
            if let (replan_warm::Op::Churn, Some(plan)) = (op, plan) {
                refits.push(plan.timings.profile_s);
            }
        }
        self.set("profile.refit_s", median(&refits));
        let (mut hit, mut miss, mut evict) = (0u64, 0u64, 0u64);
        for (_, kind, count) in session.cache_stats().events() {
            match kind {
                "hit" => hit += count,
                "miss" => miss += count,
                "evict" => evict += count,
                _ => {}
            }
        }
        self.set("cache.hit_ratio", hit as f64 / (hit + miss) as f64);
        self.set("cache.evictions", evict as f64);
        Ok(())
    }

    /// core::recovery and workloads, through the `run_resilient` ops.
    fn recovery(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut col: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for i in 0..RECOVERY_GRAPHS {
            let data = run_resilient::graph(self.seed, 0, i);
            let refs: Vec<&DataItem> = data.items.iter().collect();
            let (run_s, ops) = timed(tr, "run_workload", || {
                pareto_workloads::run_workload(run_resilient::WORKLOAD, &refs).1
            });
            black_box(ops);
            col.entry("workloads.run_s").or_default().push(run_s);

            let cluster = paper_cluster();
            let durable = tr.span("run_resilient.op", |tr| {
                run_resilient::durable_run(&cluster, &data, tr)
            })?;
            let mut exec = vec![durable.latency_s - durable.plan_s];
            let cluster = paper_cluster();
            let (spec, _) =
                run_resilient::fault_spec(self.seed, 0, i, durable.makespan_s, &durable.sizes);
            let faulted = tr.span("run_resilient.op", |tr| {
                run_resilient::faulted_run(&cluster, &data, &spec, tr)
            })?;
            exec.push(faulted.latency_s - faulted.plan_s);
            col.entry("recovery.exec_s").or_default().extend(exec);
            for (name, v) in [
                ("recovery.replans_per_run", f64::from(faulted.replans)),
                ("recovery.items_reassigned", faulted.items_reassigned as f64),
                ("recovery.steals", f64::from(faulted.steals)),
                ("recovery.makespan_overhead", faulted.makespan_rel - 1.0),
            ] {
                col.entry(name).or_default().push(v);
            }
        }
        for (name, samples) in col {
            // Counts and ratios average over the four fault shapes.
            let value = match name {
                "workloads.run_s" | "recovery.exec_s" => median(&samples),
                _ => samples.iter().sum::<f64>() / samples.len() as f64,
            };
            self.set(name, value);
        }
        Ok(())
    }

    /// cluster::{kvstore,wal,persist}: the same writes with the log off
    /// and on, then the log replayed.
    fn kv_and_wal(&mut self, tr: &mut Tracer) -> Result<(), String> {
        const WRITES: u32 = 2_000;
        let write_all = |store: &KvStore| -> Result<(), String> {
            for i in 0..WRITES {
                store
                    .set(&format!("key{i}"), format!("value-{i}").into_bytes())
                    .map_err(|e| format!("kv set: {e:?}"))?;
                store
                    .incr("counter")
                    .map_err(|e| format!("kv incr: {e:?}"))?;
            }
            Ok(())
        };
        let records = f64::from(2 * WRITES);
        let (mut off, mut on, mut replay) = (Vec::new(), Vec::new(), Vec::new());
        let mut replayed = 0;
        let mut wal_len = 0;
        for _ in 0..5 {
            let plain = KvStore::new();
            let (s, done) = timed(tr, "kv_writes", || write_all(&plain));
            done?;
            off.push(s / records);
            let logged = KvStore::new();
            logged.enable_wal();
            let (s, done) = timed(tr, "kv_writes_wal", || write_all(&logged));
            done?;
            on.push(s / records);
            let wal = logged.wal_bytes();
            wal_len = wal.len();
            let (s, recovered) = timed(tr, "wal_replay", || KvStore::recover(None, &wal));
            let (_, report) = recovered.map_err(|e| format!("wal replay: {e:?}"))?;
            replayed = report.records_replayed;
            replay.push(s / replayed as f64);
        }
        self.set("kv.set_s", median(&off));
        self.set("wal.append_s", median(&on) - median(&off));
        self.set("wal.replay_s", median(&replay));
        self.set("wal.bytes_per_record", wal_len as f64 / records);
        self.set("wal.records_replayed", replayed as f64);
        Ok(())
    }

    /// service::{codec,proto}: one request and one 8-node response.
    fn codec(&mut self, tr: &mut Tracer) -> Result<(), String> {
        const REPS: usize = 20_000;
        let request = Request {
            id: 42,
            tenant: serve_mixed::tenants(self.seed, 0, 0).remove(0),
            deadline_budget: 0,
            kind: RequestKind::Plan { alpha: ALPHA },
        };
        let response = Response::Served {
            id: 42,
            digest: sub_seed(self.seed, 11, 0),
            sizes: (0..NODES as u32).map(|i| 150 + i).collect(),
            makespan_s: 12.5,
            degraded: false,
            source_digest: sub_seed(self.seed, 11, 0),
        };
        let bad = |e| format!("codec: {e}");
        let request_frame = encode_frame(&request.encode().map_err(bad)?).map_err(bad)?;
        let response_frame = encode_frame(&response.encode().map_err(bad)?).map_err(bad)?;
        if Request::decode(decode_frame(&request_frame).map_err(bad)?.0).map_err(bad)? != request
            || Response::decode(decode_frame(&response_frame).map_err(bad)?.0).map_err(bad)?
                != response
        {
            return Err("codec: a frame did not round-trip".into());
        }
        self.set("codec.request_frame_bytes", request_frame.len() as f64);
        self.set("codec.response_frame_bytes", response_frame.len() as f64);
        let v = per_call(tr, "codec.encode_request", REPS, || {
            encode_frame(&request.encode().expect("encodes")).expect("frames")
        });
        self.set("codec.encode_request_s", v);
        let v = per_call(tr, "codec.decode_request", REPS, || {
            Request::decode(decode_frame(&request_frame).expect("frames").0).expect("decodes")
        });
        self.set("codec.decode_request_s", v);
        let v = per_call(tr, "codec.encode_response", REPS, || {
            encode_frame(&response.encode().expect("encodes")).expect("frames")
        });
        self.set("codec.encode_response_s", v);
        let v = per_call(tr, "codec.decode_response", REPS, || {
            Response::decode(decode_frame(&response_frame).expect("frames").0).expect("decodes")
        });
        self.set("codec.decode_response_s", v);
        Ok(())
    }

    /// service::{server,admission}: one cached plan answered through each
    /// layer of the ladder, then two clients' visits at one and two workers.
    fn service(&mut self, tr: &mut Tracer) -> Result<(), String> {
        const HITS: usize = 300;
        let service_cfg = |workers| ServiceConfig {
            seed: CONFIG_SEED,
            nodes: NODES,
            threads: 1,
            cache_capacity: serve_mixed::CACHE_CAP,
            dataset_scale: serve_mixed::DATASET_SCALE,
            queue_capacity: serve_mixed::QUEUE_CAP,
            workers,
            ..ServiceConfig::default()
        };
        let service = Arc::new(PlanService::new(service_cfg(serve_mixed::WORKERS), None));
        let tenant = format!("ledger-{}", self.seed);
        let mut next_id = 0u64;
        let mut request = |kind| {
            next_id += 1;
            Request {
                id: next_id,
                tenant: tenant.clone(),
                deadline_budget: 0,
                kind,
            }
        };
        let served = |r: Response| match r {
            Response::Served {
                degraded: false, ..
            } => Ok(()),
            other => Err(format!("ledger request not served: {other:?}")),
        };
        let hit = request(RequestKind::Plan { alpha: ALPHA });
        served(service.handle(&hit, 0, false))?;

        // handle -> call (+ queue and worker hand-off) -> call_frame
        // (+ codec) -> TCP (+ loopback and the connection thread).
        let mut samples = Vec::new();
        for now in 0..HITS {
            let (s, r) = timed(tr, "service.handle", || {
                service.handle(&hit, now as u64, false)
            });
            served(r)?;
            samples.push(s);
        }
        self.set("service.handle_hit_s", median(&samples));
        let mut novel = Vec::new();
        let mut rng = Rng::new(sub_seed(self.seed, 12, 0));
        for now in 0..100 {
            let req = request(RequestKind::Plan {
                alpha: replan_warm::draw_alpha(&mut rng),
            });
            let (s, r) = timed(tr, "service.handle_novel", || {
                service.handle(&req, now, false)
            });
            served(r)?;
            novel.push(s);
        }
        self.set("service.plan_novel_s", median(&novel));
        let mut replans = Vec::new();
        for now in 0..5 {
            let req = request(RequestKind::Replan {
                append: serve_mixed::APPEND,
                alpha: ALPHA,
            });
            let (s, r) = timed(tr, "service.handle_replan", || {
                service.handle(&req, now, false)
            });
            served(r)?;
            replans.push(s);
        }
        self.set("service.replan_s", median(&replans));
        // The replans moved the dataset: re-prime the cached answer.
        served(service.handle(&hit, 0, false))?;

        let server = Server::start(service);
        samples.clear();
        for _ in 0..HITS {
            let (s, r) = timed(tr, "service.call", || server.call(hit.clone()));
            served(r)?;
            samples.push(s);
        }
        self.set("service.call_hit_s", median(&samples));
        let frame =
            encode_frame(&hit.encode().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
        samples.clear();
        for _ in 0..HITS {
            let (s, r) = timed(tr, "service.call_frame", || server.call_frame(&frame));
            r.map_err(|e| e.to_string())?;
            samples.push(s);
        }
        self.set("service.call_frame_hit_s", median(&samples));
        let (addr, acceptor) = listen(&server)?;
        let mut client = TcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        samples.clear();
        for _ in 0..HITS {
            let (s, r) = timed(tr, "service.tcp", || client.call(&hit));
            served(r.map_err(|e| e.to_string())?)?;
            samples.push(s);
        }
        self.set("service.tcp_hit_s", median(&samples));
        drop(client);
        stop(server, addr, acceptor);

        // Two clients' serve_mixed visits against an in-process server, one
        // worker then two; the program's own counters tell what admission
        // did.
        let mut rates = Vec::new();
        for workers in [1, serve_mixed::WORKERS] {
            let telemetry = Telemetry::enabled();
            let service = Arc::new(PlanService::new(
                service_cfg(workers),
                Some(telemetry.clone()),
            ));
            let server = Server::start(service);
            let (addr, acceptor) = listen(&server)?;
            let driven = tr.span("service.scaling_drive", |tr| {
                serve_mixed::drive(
                    addr,
                    self.seed,
                    0,
                    SCALING_CLIENTS,
                    SCALING_VISITS,
                    tr,
                    || (),
                )
            });
            stop(server, addr, acceptor);
            let driven = driven?;
            if let Some(failure) = driven.failures.first() {
                return Err(format!("scaling drive at {workers} worker(s): {failure}"));
            }
            rates.push(driven.latencies_s.len() as f64 / driven.wall_s);
            if workers == serve_mixed::WORKERS {
                let counters = telemetry.snapshot().metrics.counters;
                let count = |name, labels: &[(&str, &str)]| {
                    counters
                        .get(&MetricKey::new(name, labels))
                        .copied()
                        .unwrap_or(0) as f64
                };
                self.set(
                    "service.coalesced_total",
                    count(metrics::SERVICE_COALESCED_TOTAL, &[]),
                );
                self.set(
                    "service.shed_total",
                    count(metrics::SERVICE_REQUESTS_TOTAL, &[("outcome", "shed")]),
                );
            }
        }
        self.set("service.worker_scaling", rates[1] / rates[0]);
        Ok(())
    }
}

/// Serve `server` on a loopback port of the OS's choosing.
fn listen(server: &Server) -> Result<(std::net::SocketAddr, std::thread::JoinHandle<()>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    Ok((addr, server.serve_tcp(listener)))
}

/// Shut `server` down and wait for its acceptor thread, which only looks
/// at the shutdown flag when a connection arrives.
fn stop(server: Server, addr: std::net::SocketAddr, acceptor: std::thread::JoinHandle<()>) {
    server.shutdown();
    drop(std::net::TcpStream::connect(addr));
    let _ = acceptor.join();
}

/// A fixed single-thread CPU + memory loop: xorshift-indexed updates over
/// a 16 MiB table. Its time tells a noisy host from a slow program.
pub fn host_calibration() -> u64 {
    const WORDS: usize = 1 << 21;
    let mut table = vec![0u64; WORDS];
    let mut x = 88_172_645_463_325_252u64;
    for _ in 0..(6 << 20) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (WORDS - 1)];
        *slot = slot.wrapping_add(x);
    }
    black_box(table.iter().fold(0, |a, &b| a ^ b))
}
