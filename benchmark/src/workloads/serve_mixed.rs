//! `serve_mixed`: a closed loop (the caller of a plan daemon waits for each
//! reply) of one client over loopback TCP against the shipped binary,
//! `paretofab serve --listen`, spawned fresh each round.
//!
//! One op is a tenant's **visit**: `Replan` (append records, get the new
//! reference plan), `Plan` at `NOVEL_PER_VISIT` new weights, `Plan` again at
//! a weight already answered — 7 requests in the 70/15/15 mix a round would
//! otherwise draw one by one. A single request is either a 60 us round trip,
//! whose time is thread wake-ups (on the reference host it was measured at
//! 64 us and, for minutes at a time, at 148 us), or a 50 ms replan, and
//! percentiles over single requests sit on the edge between the two
//! classes. A visit is CPU time the daemon spends, with the round trips a
//! per cent of it. The single request is measured in the ledger
//! (`service.tcp_hit_s`, `service.plan_novel_s`, `service.replan_s`).
//!
//! One client: two callers' latencies are decided by which of them gets the
//! shared cache's mutex between stages, and moved 25 % with the same spells
//! of the host. What a second worker buys is the ledger's
//! `service.worker_scaling`, which drives two clients.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use pareto_service::{Request, RequestKind, Response, TcpClient};

use super::replan_warm::draw_alpha;
use super::{Recorder, CONFIG_SEED, NODES};
use crate::proc::Daemon;
use crate::rng::{sub_seed, Rng};
use crate::trace::Tracer;

/// Client connections of the workload.
pub const CLIENTS: usize = 1;
pub const TENANTS_PER_CLIENT: usize = 12;
/// Visits each tenant gets per round, so a round is 48 ops.
pub const VISITS_PER_TENANT: usize = 4;
/// `Plan` requests at a new alpha in one visit.
pub const NOVEL_PER_VISIT: usize = 5;
/// Requests in one visit: a replan, the novel plans, a repeat.
pub const REQUESTS_PER_VISIT: usize = NOVEL_PER_VISIT + 2;
/// Records each `Replan` appends, in the protocol's units.
pub const APPEND: u32 = 4;
/// The reference weight: every tenant's warm-up plan and every `Replan`
/// ask for the pure-makespan plan, so each dataset generation has one.
const REFERENCE_ALPHA: f64 = 1.0;

/// Scale of each tenant's `rcv1_syn` dataset: 625 documents.
pub const DATASET_SCALE: f64 = 0.125;
pub const WORKERS: usize = 2;
pub const QUEUE_CAP: usize = 8;
/// Large enough that no artifact is evicted within a round.
pub const CACHE_CAP: usize = 4096;

/// The daemon's flags. Its seed is configuration; `--seed` reaches it
/// through the tenant names, which select the tenants' datasets.
pub fn daemon_args() -> Vec<String> {
    [
        ("--workers", WORKERS.to_string()),
        ("--queue-cap", QUEUE_CAP.to_string()),
        ("--cache-cap", CACHE_CAP.to_string()),
        ("--dataset-scale", DATASET_SCALE.to_string()),
        ("--nodes", NODES.to_string()),
        ("--threads", "1".to_string()),
        ("--seed", CONFIG_SEED.to_string()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_string(), value])
    .collect()
}

/// One op of a client's schedule: a visit to `tenant`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visit {
    pub tenant: usize,
    /// The weights of the visit's novel `Plan` requests.
    pub alphas: [f64; NOVEL_PER_VISIT],
    /// Selects which answered weight the closing `Plan` repeats.
    pub pick: u64,
}

/// Client `client`'s op list for round `round`: `visits_per_tenant` visits
/// to each owned tenant, in an order and at weights drawn from `seed`.
pub fn schedule(seed: u64, round: usize, client: usize, visits_per_tenant: usize) -> Vec<Visit> {
    let mut rng = Rng::new(sub_seed(seed, 5, ((round as u64) << 8) | client as u64));
    let mut visits: Vec<Visit> = (0..TENANTS_PER_CLIENT * visits_per_tenant)
        .map(|i| Visit {
            tenant: i % TENANTS_PER_CLIENT,
            alphas: [0.0; NOVEL_PER_VISIT].map(|_| draw_alpha(&mut rng)),
            pick: rng.next_u64(),
        })
        .collect();
    // Fisher-Yates.
    for i in (1..visits.len()).rev() {
        visits.swap(i, rng.below(i as u64 + 1) as usize);
    }
    visits
}

/// The tenants client `client` owns in round `round`. The name carries
/// the run seed and the round: the daemon derives each tenant's dataset
/// from its name.
pub fn tenants(seed: u64, round: usize, client: usize) -> Vec<String> {
    (0..TENANTS_PER_CLIENT)
        .map(|t| format!("s{seed}-r{round}-c{client}-t{t}"))
        .collect()
}

/// What the client knows of one tenant's current dataset generation.
struct TenantView {
    name: String,
    digest: u64,
    records: u64,
    /// Makespan of the reference-alpha plan on this generation.
    reference_makespan_s: f64,
    /// `(alpha, answer)` pairs served on this generation.
    answered: Vec<(f64, Answer)>,
}

impl TenantView {
    /// `answer` is the reference plan of a new dataset generation.
    fn start_generation(&mut self, answer: Answer) {
        self.digest = answer.digest;
        self.records = records(&answer);
        self.reference_makespan_s = f64::from_bits(answer.makespan_bits);
        self.answered = vec![(REFERENCE_ALPHA, answer)];
    }

    /// A plain `Plan` answers on the dataset the tenant already has.
    fn same_dataset(&self, answer: &Answer) -> Result<(), String> {
        if answer.digest != self.digest || records(answer) != self.records {
            return Err("a plain plan changed the dataset".into());
        }
        Ok(())
    }
}

/// The parts of a `Served` response that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    digest: u64,
    sizes: Vec<u32>,
    makespan_bits: u64,
}

/// Send `request`; accept only a fresh `Served` answer echoing its id.
fn call(client: &mut TcpClient, request: &Request) -> Result<Answer, String> {
    match client
        .call(request)
        .map_err(|e| format!("transport: {e}"))?
    {
        Response::Served {
            id,
            digest,
            sizes,
            makespan_s,
            degraded,
            source_digest,
        } => {
            if id != request.id {
                return Err(format!("asked id {}, answered id {id}", request.id));
            }
            if degraded || source_digest != digest {
                return Err("served a degraded (stale) plan".into());
            }
            Ok(Answer {
                digest,
                sizes,
                makespan_bits: makespan_s.to_bits(),
            })
        }
        other => Err(format!("not served: {other:?}")),
    }
}

fn records(answer: &Answer) -> u64 {
    answer.sizes.iter().map(|&s| u64::from(s)).sum()
}

/// One client's results for a round.
struct ClientOutcome {
    latencies_s: Vec<f64>,
    makespan_rel: Vec<f64>,
    failures: Vec<String>,
    /// When the client sent its first scheduled request and got its last
    /// answer.
    begun: Instant,
    ended: Instant,
}

/// One client: connect, warm every owned tenant (part of set-up), wait
/// for the start barrier, then run the schedule one request at a time.
fn run_client(
    addr: SocketAddr,
    seed: u64,
    round: usize,
    client_no: usize,
    visits_per_tenant: usize,
    start: &Barrier,
    tr: &mut Tracer,
) -> Result<ClientOutcome, String> {
    let request = |view: &TenantView, serial: usize, kind| Request {
        id: ((client_no as u64) << 32) | serial as u64,
        tenant: view.name.clone(),
        deadline_budget: 0,
        kind,
    };
    let warm_up = || -> Result<(TcpClient, Vec<TenantView>), String> {
        let mut client = TcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut views = Vec::new();
        for (t, name) in tenants(seed, round, client_no).into_iter().enumerate() {
            let mut view = TenantView {
                name,
                digest: 0,
                records: 0,
                reference_makespan_s: 0.0,
                answered: Vec::new(),
            };
            let plan = RequestKind::Plan {
                alpha: REFERENCE_ALPHA,
            };
            let answer = call(&mut client, &request(&view, (1 << 31) | t, plan))
                .map_err(|e| format!("warm-up {}: {e}", view.name))?;
            view.start_generation(answer);
            views.push(view);
        }
        Ok((client, views))
    };
    // Reach the barrier even on failure, or the other parties hang.
    let warmed = warm_up();
    start.wait();
    let (mut client, mut views) = warmed?;

    let begun = Instant::now();
    let mut out = ClientOutcome {
        latencies_s: Vec::new(),
        makespan_rel: Vec::new(),
        failures: Vec::new(),
        begun,
        ended: begun,
    };
    for (i, visit) in schedule(seed, round, client_no, visits_per_tenant)
        .into_iter()
        .enumerate()
    {
        let view = &mut views[visit.tenant];
        let mut serial = i * REQUESTS_PER_VISIT;
        let mut ask = |view: &TenantView, kind, tr: &mut Tracer| {
            serial += 1;
            let request = request(view, serial, kind);
            tr.span("tcp_call", |_| call(&mut client, &request))
        };
        let outcome = tr.span("op", |tr| -> Result<f64, String> {
            let t0 = Instant::now();
            let replan = RequestKind::Replan {
                append: APPEND,
                alpha: REFERENCE_ALPHA,
            };
            let answer = ask(view, replan, tr)?;
            // The dataset grew: new digest, strictly more records.
            if answer.digest == view.digest || records(&answer) <= view.records {
                return Err("replan did not grow the dataset".into());
            }
            view.start_generation(answer);
            for alpha in visit.alphas {
                let answer = ask(view, RequestKind::Plan { alpha }, tr)?;
                view.same_dataset(&answer)?;
                out.makespan_rel
                    .push(f64::from_bits(answer.makespan_bits) / view.reference_makespan_s);
                view.answered.push((alpha, answer));
            }
            let (alpha, before) =
                &view.answered[(visit.pick % view.answered.len() as u64) as usize];
            let answer = ask(view, RequestKind::Plan { alpha: *alpha }, tr)?;
            let latency = t0.elapsed().as_secs_f64();
            view.same_dataset(&answer)?;
            if *before != answer {
                return Err(format!("repeat at alpha {alpha} answered differently"));
            }
            Ok(latency)
        });
        match outcome {
            Ok(latency) => out.latencies_s.push(latency),
            Err(e) => out.failures.push(format!(
                "serve_mixed client {client_no} op {i} (tenant {}): {e}",
                visit.tenant
            )),
        }
    }
    out.ended = Instant::now();
    Ok(out)
}

/// All clients' results for one round against the server at `addr`.
pub struct Driven {
    /// First client start to last client end, seconds.
    pub wall_s: f64,
    pub latencies_s: Vec<f64>,
    pub makespan_rel: Vec<f64>,
    pub failures: Vec<String>,
}

/// Run round `round`'s schedules of `clients` client threads, each visiting
/// its tenants `visits_per_tenant` times, against `addr`. `at_start` runs on
/// the calling thread once every client has warmed its tenants and is about
/// to send its first scheduled request.
pub fn drive(
    addr: SocketAddr,
    seed: u64,
    round: usize,
    clients: usize,
    visits_per_tenant: usize,
    tr: &mut Tracer,
    at_start: impl FnOnce(),
) -> Result<Driven, String> {
    let start = Barrier::new(clients + 1);
    let mut forks: Vec<Tracer> = (0..clients).map(|c| tr.fork(c as u32 + 1)).collect();
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .iter_mut()
            .enumerate()
            .map(|(c, fork)| {
                let start = &start;
                scope
                    .spawn(move || run_client(addr, seed, round, c, visits_per_tenant, start, fork))
            })
            .collect();
        start.wait();
        at_start();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    for fork in forks {
        tr.absorb(fork);
    }
    let mut driven = Driven {
        wall_s: 0.0,
        latencies_s: Vec::new(),
        makespan_rel: Vec::new(),
        failures: Vec::new(),
    };
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for outcome in outcomes {
        let outcome = outcome?;
        let (begun, ended) = (outcome.begun, outcome.ended);
        first = Some(first.map_or(begun, |f| f.min(begun)));
        last = Some(last.map_or(ended, |l| l.max(ended)));
        driven.latencies_s.extend(outcome.latencies_s);
        driven.makespan_rel.extend(outcome.makespan_rel);
        driven.failures.extend(outcome.failures);
    }
    driven.wall_s = last.zip(first).map_or(0.0, |(l, f)| (l - f).as_secs_f64());
    Ok(driven)
}

/// One round: a fresh daemon, its tenants warmed (set-up), then the
/// client's schedule.
pub fn round(
    seed: u64,
    paretofab: &Path,
    round: usize,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> Result<(), String> {
    // Set-up: daemon spawn, connection, one warm-up plan per tenant.
    let t0 = Instant::now();
    let daemon = Daemon::spawn(paretofab, &daemon_args())?;
    let driven = drive(
        daemon.addr,
        seed,
        round,
        CLIENTS,
        VISITS_PER_TENANT,
        tr,
        || rec.setup_s.push(t0.elapsed().as_secs_f64()),
    )?;
    rec.worker_rss_mib.push(daemon.peak_rss_mib()?);
    drop(daemon);

    for latency in driven.latencies_s {
        rec.ok(latency);
    }
    rec.makespan_rel.extend(driven.makespan_rel);
    for failure in driven.failures {
        rec.fail(|| failure);
    }
    rec.end_round(Some(driven.wall_s));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_own_disjoint_tenants() {
        let mut all: Vec<String> = (0..2).flat_map(|c| tenants(2017, 0, c)).collect();
        assert_eq!(all.len(), 2 * TENANTS_PER_CLIENT);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 2 * TENANTS_PER_CLIENT);
        assert_ne!(
            tenants(2017, 0, 0),
            tenants(7, 0, 0),
            "the seed selects the datasets"
        );
        assert_ne!(
            tenants(2017, 0, 0),
            tenants(2017, 1, 0),
            "and so does the round"
        );
    }

    #[test]
    fn schedule_is_seeded_per_client_and_visits_every_tenant_equally() {
        assert_eq!(schedule(2017, 0, 0, 4), schedule(2017, 0, 0, 4));
        assert_ne!(schedule(2017, 0, 0, 4), schedule(2017, 0, 1, 4));
        assert_ne!(schedule(2017, 0, 0, 4), schedule(2017, 1, 0, 4));
        assert_ne!(schedule(2017, 0, 0, 4), schedule(7, 0, 0, 4));
        let visits = schedule(2017, 0, 0, VISITS_PER_TENANT);
        assert_eq!(visits.len(), TENANTS_PER_CLIENT * VISITS_PER_TENANT);
        for t in 0..TENANTS_PER_CLIENT {
            let n = visits.iter().filter(|v| v.tenant == t).count();
            assert_eq!(n, VISITS_PER_TENANT);
        }
        assert!(
            visits.windows(2).any(|w| w[0].tenant + 1 != w[1].tenant),
            "shuffled, not round-robin"
        );
        let mut alphas: Vec<u64> = visits
            .iter()
            .flat_map(|v| v.alphas)
            .map(f64::to_bits)
            .collect();
        assert!(alphas
            .iter()
            .all(|&a| (0.995..0.9999).contains(&f64::from_bits(a))));
        alphas.sort();
        alphas.dedup();
        assert_eq!(alphas.len(), visits.len() * NOVEL_PER_VISIT, "novel");
    }
}
