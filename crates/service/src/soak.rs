//! Deterministic closed-loop soak: thousands of seeded mixed requests —
//! plans, replans, injected solver stalls and crashes, overload — driven
//! through the *real* [`PlanService`] core by a single-threaded
//! discrete-event simulation in simulated time.
//!
//! Nothing in the loop reads a wall clock or an ambient RNG: arrivals,
//! think times, α/tenant/deadline choices, chaos, and retry jitter all
//! derive from the seed via the same splitmix hashing the fault injector
//! uses, and service durations are seeded functions of the outcome. The
//! summary JSON is therefore **bit-identical** across runs and across
//! planning thread counts (plans themselves are thread-invariant), which
//! CI enforces by diffing two runs byte-for-byte.
//!
//! The simulated executor models `sim_workers` slots over the same
//! [`Dispatcher`] the live server locks — admitted through the same
//! [`PlanService::admit`], fanned out through the same
//! [`PlanService::follower_answer`] — so overload genuinely sheds,
//! coalescing genuinely folds, and the breaker sees the same call
//! sequence a live fleet would produce for this trace.

use std::collections::BTreeMap;
use std::sync::Arc;

use pareto_cluster::fault::{mix64, raw_draw};
use pareto_cluster::{FaultPlan, FaultSpec};
use pareto_telemetry::json::Value;
use pareto_telemetry::Telemetry;

use crate::admission::{Dispatcher, Submitted};
use crate::proto::{Request, RequestKind, Response};
use crate::retry::RetryPolicy;
use crate::server::{PlanService, ServiceConfig};

/// Soak-run knobs.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The service under test.
    pub service: ServiceConfig,
    /// Logical requests to issue (retries don't count).
    pub requests: usize,
    /// Distinct tenants (each with its own dataset, session, breaker).
    pub tenants: usize,
    /// Closed-loop clients; each waits for its outcome, thinks, and
    /// issues again. More clients than executor slots ⇒ overload.
    pub clients: usize,
    /// Simulated executor slots (independent of planning threads).
    pub sim_workers: usize,
    /// Client retry policy (applies to shed responses).
    pub retry: RetryPolicy,
    /// Percent of requests that are replans (append + plan).
    pub replan_pct: u8,
    /// Arm seeded chaos: solver stalls and crashes from
    /// [`FaultSpec::serving`].
    pub chaos: bool,
    /// Think times are drawn from `[1, think_max]` sim ticks.
    pub think_max: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            service: ServiceConfig {
                queue_capacity: 4,
                dataset_scale: 0.01,
                ..ServiceConfig::default()
            },
            requests: 1000,
            tenants: 4,
            clients: 12,
            sim_workers: 2,
            retry: RetryPolicy::default(),
            replan_pct: 20,
            chaos: true,
            think_max: 6,
        }
    }
}

/// Terminal-outcome tally: every logical request lands in exactly one
/// bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Fresh plans served.
    pub served: u64,
    /// Cached plans served with `degraded: true`.
    pub degraded: u64,
    /// Shed with retries exhausted.
    pub shed: u64,
    /// Typed errors.
    pub error: u64,
}

impl Outcomes {
    /// Total terminal outcomes.
    pub fn total(&self) -> u64 {
        self.served + self.degraded + self.shed + self.error
    }
}

/// What a soak run produced.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Deterministic summary document (compact JSON, sorted keys).
    pub json: String,
    /// Terminal outcomes.
    pub outcomes: Outcomes,
    /// Logical requests issued.
    pub issued: u64,
    /// Shed responses observed (including retried-away ones).
    pub shed_events: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Requests folded into an in-flight identical solve.
    pub coalesced: u64,
    /// Injected solver stalls consumed.
    pub stalls_injected: u64,
    /// Injected node crashes consumed.
    pub crashes_injected: u64,
    /// Invariant violations detected (must be 0).
    pub audit_violations: u64,
    /// Shared-cache stage hits across all tenants.
    pub cache_hits: u64,
    /// Shared-cache stage misses.
    pub cache_misses: u64,
    /// Shared-cache evictions: superseded append prefixes and entries
    /// dropped under capacity pressure.
    pub cache_evictions: u64,
    /// p50 terminal latency in sim ticks.
    pub latency_p50: u64,
    /// p99 terminal latency in sim ticks.
    pub latency_p99: u64,
}

/// One logical request attempt moving through the system.
#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    client: usize,
    first_issued: u64,
    attempt: u32,
}

#[derive(Debug, Clone)]
enum Event {
    /// A client issues its next logical request.
    Issue { client: usize },
    /// A shed request re-enters after backoff.
    Redispatch { pending: Pending },
    /// An executor slot finishes.
    Complete { worker: usize },
}

struct Running {
    key: u64,
    leader: Pending,
    response: Response,
}

struct Sim {
    cfg: SoakConfig,
    service: PlanService,
    events: BTreeMap<(u64, u64), Event>,
    seq: u64,
    dispatcher: Dispatcher<Pending>,
    workers: Vec<Option<Running>>,
    issued: u64,
    next_id: u64,
    start_ordinal: u64,
    client_turns: Vec<u64>,
    stall_budget: Vec<u32>,
    crash_budget: Vec<bool>,
    outcomes: Outcomes,
    errors: BTreeMap<&'static str, u64>,
    latencies: Vec<u64>,
    shed_events: u64,
    retries: u64,
    coalesced: u64,
    stalls_injected: u64,
    crashes_injected: u64,
    violations: u64,
    draw_seed: u64,
}

impl Sim {
    fn new(cfg: SoakConfig, telemetry: Option<Arc<Telemetry>>) -> Self {
        let service = PlanService::new(cfg.service.clone(), telemetry);
        let nodes = cfg.service.nodes.max(1);
        let (stall_budget, crash_budget) = if cfg.chaos {
            let plan = FaultPlan::generate(cfg.service.seed, nodes, &FaultSpec::serving());
            (
                (0..nodes).map(|n| plan.solver_stalls(n)).collect(),
                (0..nodes).map(|n| plan.crash_time(n).is_some()).collect(),
            )
        } else {
            (vec![0; nodes], vec![false; nodes])
        };
        let workers = (0..cfg.sim_workers.max(1)).map(|_| None).collect();
        let dispatcher = Dispatcher::new(cfg.service.queue_capacity);
        let draw_seed = mix64(cfg.service.seed ^ 0x5_0A_4B_17);
        let client_turns = vec![0; cfg.clients.max(1)];
        Sim {
            cfg,
            service,
            events: BTreeMap::new(),
            seq: 0,
            dispatcher,
            workers,
            issued: 0,
            next_id: 1,
            start_ordinal: 0,
            client_turns,
            stall_budget,
            crash_budget,
            outcomes: Outcomes::default(),
            errors: BTreeMap::new(),
            latencies: Vec::new(),
            shed_events: 0,
            retries: 0,
            coalesced: 0,
            stalls_injected: 0,
            crashes_injected: 0,
            violations: 0,
            draw_seed,
        }
    }

    fn schedule(&mut self, at: u64, event: Event) {
        let key = (at, self.seq);
        self.seq += 1;
        self.events.insert(key, event);
    }

    fn draw(&self, a: usize, b: u64) -> u64 {
        raw_draw(self.draw_seed, a, b)
    }

    /// Build logical request number `self.issued` for `client`.
    fn make_request(&mut self, client: usize) -> Pending {
        let ordinal = self.issued as usize;
        let id = self.next_id;
        self.next_id += 1;
        let tenant = format!(
            "t{}",
            self.draw(ordinal, 1) % self.cfg.tenants.max(1) as u64
        );
        let alpha = [0.9, 0.95, 0.99, 0.999][(self.draw(ordinal, 2) % 4) as usize];
        let replan = (self.draw(ordinal, 3) % 100) < u64::from(self.cfg.replan_pct);
        // Budgets: mostly unconstrained, a slice too tight for a cold
        // 5-stage solve (2), a slice that only just fits (5).
        let deadline_budget = [0, 0, 0, 2, 5, 8][(self.draw(ordinal, 4) % 6) as usize];
        let kind = if replan {
            RequestKind::Replan {
                append: 1 + (self.draw(ordinal, 5) % 3) as u32,
                alpha,
            }
        } else {
            RequestKind::Plan { alpha }
        };
        Pending {
            req: Request {
                id,
                tenant,
                deadline_budget,
                kind,
            },
            client,
            first_issued: 0, // stamped at dispatch
            attempt: 0,
        }
    }

    /// Admission: coalesce, start, queue, or shed.
    fn dispatch(&mut self, mut pending: Pending, now: u64) {
        if pending.attempt == 0 && pending.first_issued == 0 {
            pending.first_issued = now;
        }
        let key = self.service.work_key(&pending.req);
        match self.service.admit(&mut self.dispatcher, key, pending) {
            Submitted::Folded => self.coalesced += 1,
            Submitted::Queued => {
                // A slot only idles once the queue is empty, so the
                // request just queued is the one `next_leader` hands back.
                if let Some(worker) = self.workers.iter().position(Option::is_none) {
                    let (key, pending) = self
                        .dispatcher
                        .next_leader()
                        .expect("the request just queued");
                    self.start(worker, key, pending, now);
                }
            }
            Submitted::Shed { item, .. } => self.shed_pending(item, now),
        }
    }

    fn shed_pending(&mut self, pending: Pending, now: u64) {
        self.shed_events += 1;
        let next_retry = pending.attempt + 1;
        if self.cfg.retry.may_attempt(next_retry) {
            self.retries += 1;
            self.service.record_retry("shed");
            let delay = self.cfg.retry.backoff_delay(pending.req.id, next_retry);
            let pending = Pending {
                attempt: next_retry,
                ..pending
            };
            self.schedule(now + delay, Event::Redispatch { pending });
        } else {
            self.outcomes.shed += 1;
            self.finish_client(pending.client, pending.first_issued, now);
        }
    }

    /// Start executing `pending` on `worker` at `now`.
    fn start(&mut self, worker: usize, key: u64, pending: Pending, now: u64) {
        let nodes = self.cfg.service.nodes.max(1);
        let node = (self.start_ordinal % nodes as u64) as usize;
        self.start_ordinal += 1;
        let mut stall = false;
        if self.cfg.chaos {
            if self.stall_budget[node] > 0 {
                self.stall_budget[node] -= 1;
                self.stalls_injected += 1;
                stall = true;
            } else if self.crash_budget[node] {
                self.crash_budget[node] = false;
                self.crashes_injected += 1;
                stall = true;
            }
        }
        let response = self.service.handle(&pending.req, now, stall);
        let duration = match &response {
            Response::Served {
                degraded: false, ..
            } => 6 + self.draw(pending.req.id as usize, 401) % 6,
            Response::Served { degraded: true, .. } => {
                2 + self.draw(pending.req.id as usize, 402) % 2
            }
            _ => 1 + self.draw(pending.req.id as usize, 403) % 2,
        };
        self.workers[worker] = Some(Running {
            key,
            leader: pending,
            response,
        });
        self.schedule(now + duration, Event::Complete { worker });
    }

    /// Record a terminal response for one logical request.
    fn terminal(&mut self, pending: &Pending, response: &Response, now: u64) {
        match response {
            Response::Served {
                degraded,
                sizes,
                digest,
                source_digest,
                ..
            } => {
                if *degraded {
                    self.outcomes.degraded += 1;
                    if *source_digest == 0 {
                        self.violations += 1;
                    }
                } else {
                    self.outcomes.served += 1;
                    if digest != source_digest {
                        self.violations += 1;
                    }
                }
                if sizes.is_empty() || sizes.iter().all(|&s| s == 0) {
                    self.violations += 1;
                }
            }
            Response::Error { kind, .. } => {
                self.outcomes.error += 1;
                *self.errors.entry(kind.label()).or_insert(0) += 1;
            }
            Response::Shed { .. } => {
                // Shed is terminal only through shed_pending.
                self.violations += 1;
            }
        }
        self.finish_client(pending.client, pending.first_issued, now);
    }

    /// Record latency and put the client back into its think loop.
    fn finish_client(&mut self, client: usize, first_issued: u64, now: u64) {
        self.latencies.push(now.saturating_sub(first_issued));
        let turn = self.client_turns[client];
        self.client_turns[client] += 1;
        let think = 1 + self.draw(client, 1000 + turn) % self.cfg.think_max.max(1);
        self.schedule(now + think, Event::Issue { client });
    }

    fn step(&mut self, at: u64, event: Event) {
        match event {
            Event::Issue { client } => {
                if (self.issued as usize) < self.cfg.requests {
                    let pending = self.make_request(client);
                    self.issued += 1;
                    self.dispatch(pending, at);
                }
                // Otherwise the client retires: no further events.
            }
            Event::Redispatch { pending } => self.dispatch(pending, at),
            Event::Complete { worker } => {
                let Some(run) = self.workers[worker].take() else {
                    self.violations += 1;
                    return;
                };
                let followers = self.dispatcher.complete(run.key);
                self.terminal(&run.leader, &run.response, at);
                for f in followers {
                    let answer = self.service.follower_answer(&run.response, f.req.id);
                    self.terminal(&f, &answer, at);
                }
                if let Some((key, pending)) = self.dispatcher.next_leader() {
                    self.start(worker, key, pending, at);
                }
            }
        }
    }

    fn percentile(sorted: &[u64], pct: u64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() as u64 - 1) * pct) / 100;
        sorted[idx as usize]
    }

    fn report(mut self) -> SoakReport {
        // Drain invariants: nothing queued, nothing running, nothing
        // coalesced-but-unanswered, every issued request terminal.
        if !self.dispatcher.is_idle() || self.workers.iter().any(Option::is_some) {
            self.violations += 1;
        }
        if self.outcomes.total() != self.issued {
            self.violations += 1;
        }
        self.latencies.sort_unstable();
        let p50 = Self::percentile(&self.latencies, 50);
        let p99 = Self::percentile(&self.latencies, 99);
        let max = self.latencies.last().copied().unwrap_or(0);

        let stats = self.service.cache().stats();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for (_, kind, count) in stats.events() {
            match kind {
                "hit" => hits += count,
                "miss" => misses += count,
                "evict" => evictions += count,
                _ => {}
            }
        }
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

        let errors = Value::Obj(
            self.errors
                .iter()
                .map(|(k, v)| ((*k).to_string(), Value::Num(*v as f64)))
                .collect(),
        );
        let doc = Value::obj(vec![
            (
                "config",
                Value::obj(vec![
                    ("seed", Value::Num(self.cfg.service.seed as f64)),
                    ("requests", Value::Num(self.cfg.requests as f64)),
                    ("tenants", Value::Num(self.cfg.tenants as f64)),
                    ("clients", Value::Num(self.cfg.clients as f64)),
                    ("sim_workers", Value::Num(self.cfg.sim_workers as f64)),
                    (
                        "queue_capacity",
                        Value::Num(self.cfg.service.queue_capacity as f64),
                    ),
                    ("chaos", Value::Bool(self.cfg.chaos)),
                    ("replan_pct", Value::Num(f64::from(self.cfg.replan_pct))),
                ]),
            ),
            (
                "outcomes",
                Value::obj(vec![
                    ("served", Value::Num(self.outcomes.served as f64)),
                    ("degraded", Value::Num(self.outcomes.degraded as f64)),
                    ("shed", Value::Num(self.outcomes.shed as f64)),
                    ("error", Value::Num(self.outcomes.error as f64)),
                ]),
            ),
            ("errors", errors),
            (
                "events",
                Value::obj(vec![
                    ("shed_events", Value::Num(self.shed_events as f64)),
                    ("retries", Value::Num(self.retries as f64)),
                    ("coalesced", Value::Num(self.coalesced as f64)),
                    ("stalls_injected", Value::Num(self.stalls_injected as f64)),
                    ("crashes_injected", Value::Num(self.crashes_injected as f64)),
                ]),
            ),
            (
                "latency_ticks",
                Value::obj(vec![
                    ("p50", Value::Num(p50 as f64)),
                    ("p99", Value::Num(p99 as f64)),
                    ("max", Value::Num(max as f64)),
                ]),
            ),
            (
                "cache",
                Value::obj(vec![
                    ("hits", Value::Num(hits as f64)),
                    ("misses", Value::Num(misses as f64)),
                    ("evictions", Value::Num(evictions as f64)),
                    ("hit_rate", Value::Num(hit_rate)),
                ]),
            ),
            (
                "audit",
                Value::obj(vec![
                    ("issued", Value::Num(self.issued as f64)),
                    ("terminal", Value::Num(self.outcomes.total() as f64)),
                    ("violations", Value::Num(self.violations as f64)),
                ]),
            ),
        ]);
        SoakReport {
            json: doc.to_json(),
            outcomes: self.outcomes,
            issued: self.issued,
            shed_events: self.shed_events,
            retries: self.retries,
            coalesced: self.coalesced,
            stalls_injected: self.stalls_injected,
            crashes_injected: self.crashes_injected,
            audit_violations: self.violations,
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            latency_p50: p50,
            latency_p99: p99,
        }
    }
}

/// Run the soak to completion. `telemetry` is observational only: the
/// report is built from the simulation's own bookkeeping and the shared
/// cache, so attaching or detaching a recorder never changes a byte of
/// the summary (the inertness suite pins this).
pub fn run_soak(cfg: SoakConfig, telemetry: Option<Arc<Telemetry>>) -> SoakReport {
    let mut sim = Sim::new(cfg, telemetry);
    // Stagger the closed-loop clients over the first think window.
    for client in 0..sim.cfg.clients.max(1) {
        let at = 1 + sim.draw(client, 0) % sim.cfg.think_max.max(1);
        sim.schedule(at, Event::Issue { client });
    }
    while let Some((&(at, seq), _)) = sim.events.iter().next() {
        let event = sim.events.remove(&(at, seq)).expect("event just observed");
        sim.step(at, event);
    }
    sim.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SoakConfig {
        SoakConfig {
            requests: 60,
            tenants: 2,
            clients: 6,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn soak_is_deterministic() {
        let a = run_soak(tiny(), None);
        let b = run_soak(tiny(), None);
        assert_eq!(a.json, b.json);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn every_request_is_terminal_exactly_once() {
        let r = run_soak(tiny(), None);
        assert_eq!(r.issued, 60);
        assert_eq!(r.outcomes.total(), r.issued);
        assert_eq!(r.audit_violations, 0);
    }

    #[test]
    fn overload_sheds_and_chaos_stalls() {
        let cfg = SoakConfig {
            requests: 120,
            clients: 16,
            sim_workers: 1,
            service: ServiceConfig {
                queue_capacity: 2,
                dataset_scale: 0.01,
                ..ServiceConfig::default()
            },
            ..SoakConfig::default()
        };
        let r = run_soak(cfg, None);
        assert!(r.shed_events > 0, "overload must shed");
        assert!(r.stalls_injected > 0, "serving chaos must stall");
        assert_eq!(r.audit_violations, 0);
    }
}
