//! The plan service: per-tenant sessions over a shared cache, the
//! degradation ladder, and the live bounded-thread-pool server.
//!
//! [`PlanService`] is the transport-free core — one `handle` call maps a
//! decoded [`Request`] to exactly one [`Response`]. Both the live
//! [`Server`] (threads, sockets) and the deterministic soak harness
//! ([`crate::soak`]) drive the *same* core, so the resilience logic the
//! soak certifies is the logic production requests traverse.
//!
//! The degradation ladder, most-preferred first:
//!
//! 1. **Fresh solve** — breaker closed (or half-open probe), deadline
//!    admits it: plan through the tenant's warm [`PlanSession`].
//! 2. **Degraded serve** — breaker open, injected solver stall, or the
//!    deadline expired mid-plan: answer with the tenant's freshest
//!    previously-served plan, flagged `degraded: true` and carrying the
//!    `source_digest` it was computed over. Partial stage artifacts from
//!    the aborted solve stay in the shared cache, so the *next* attempt
//!    resumes where this one stopped.
//! 3. **Typed error** — nothing cached to degrade onto: a
//!    [`proto::ErrorKind`] names the cause. Never a panic, never a hang.
//!
//! Load-shedding happens *before* any of this, at admission
//! ([`crate::admission`]), and is likewise typed.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use pareto_cluster::fault::mix64;
use pareto_cluster::{NodeSpec, SimCluster};
use pareto_core::framework::{FrameworkConfig, Plan, Strategy};
use pareto_core::{Deadline, PlanError, PlanSession, SharedPlanCache};
use pareto_datagen::item::stable_hash64;
use pareto_telemetry::{metrics, Telemetry};
use pareto_workloads::WorkloadKind;

use crate::admission::{Dispatcher, Submitted};
use crate::breaker::Breaker;
use crate::codec::{decode_frame, encode_frame, CodecError};
use crate::proto::{ErrorKind, Request, RequestKind, Response};

/// Workload every tenant session plans for.
const WORKLOAD: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.15 };

/// Service-wide knobs shared by the live server and the soak harness.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Master seed: tenant datasets, jitter, and chaos all derive from
    /// it.
    pub seed: u64,
    /// Cluster size for the planning substrate.
    pub nodes: usize,
    /// Planning threads inside each solve (plans are bit-identical at
    /// any value; never part of any fingerprint).
    pub threads: usize,
    /// Shared plan-cache capacity (artifact entries, all tenants).
    pub cache_capacity: usize,
    /// Consecutive solver failures that trip a tenant's breaker.
    pub breaker_threshold: u32,
    /// Time units an open breaker waits before admitting a probe.
    pub breaker_cooldown: u64,
    /// Scale of each tenant's synthetic dataset.
    pub dataset_scale: f64,
    /// Admission queue capacity; offers beyond it are shed.
    pub queue_capacity: usize,
    /// Worker threads in the live server's pool.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 0x5EED,
            nodes: 4,
            threads: 1,
            cache_capacity: 64,
            breaker_threshold: 3,
            breaker_cooldown: 48,
            dataset_scale: 0.02,
            queue_capacity: 8,
            workers: 2,
        }
    }
}

/// The freshest successfully-served plan for a tenant — the degraded
/// answer when a fresh solve is impossible.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// Dataset chain digest the plan was computed over.
    pub digest: u64,
    /// Integer partition sizes.
    pub sizes: Vec<u32>,
    /// Predicted makespan (0 when the strategy had no optimizer point).
    pub makespan_s: f64,
}

fn summarize(plan: &Plan, digest: u64) -> PlanSummary {
    PlanSummary {
        digest,
        sizes: plan.sizes.iter().map(|&s| s as u32).collect(),
        makespan_s: plan
            .pareto
            .as_ref()
            .map(|p| p.predicted_makespan)
            .unwrap_or(0.0),
    }
}

struct Tenant {
    session: PlanSession<'static>,
    breaker: Breaker,
    last_good: Option<PlanSummary>,
    /// Monotonic count of replan appends, salting each append's
    /// synthetic records so repeats stay distinct.
    appends: u64,
}

/// Stable 64-bit hash of a tenant name (FNV-1a folded through mix64).
fn tenant_hash(name: &str) -> u64 {
    mix64(stable_hash64(name.as_bytes()))
}

/// The transport-free service core.
pub struct PlanService {
    cluster: Arc<SimCluster>,
    plan_cfg: FrameworkConfig,
    cfg: ServiceConfig,
    cache: SharedPlanCache,
    tenants: Mutex<BTreeMap<String, Arc<Mutex<Tenant>>>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl PlanService {
    /// Build the service: one simulated cluster, one shared cache, no
    /// tenants yet (sessions materialize on first request).
    pub fn new(cfg: ServiceConfig, telemetry: Option<Arc<Telemetry>>) -> Self {
        let mut cluster = SimCluster::new(NodeSpec::paper_cluster(
            cfg.nodes, 400.0, 2, 9, cfg.seed,
        ));
        if let Some(tel) = &telemetry {
            cluster = cluster.with_telemetry(tel.clone());
        }
        let plan_cfg = FrameworkConfig {
            strategy: Strategy::HetEnergyAware { alpha: 0.99 },
            seed: cfg.seed,
            threads: cfg.threads,
            ..FrameworkConfig::default()
        };
        let cache = SharedPlanCache::new(cfg.cache_capacity);
        PlanService {
            cluster: Arc::new(cluster),
            plan_cfg,
            cfg,
            cache,
            tenants: Mutex::new(BTreeMap::new()),
            telemetry,
        }
    }

    /// The shared artifact cache (all tenants dedupe through it).
    pub fn cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    fn tenant(&self, name: &str) -> Arc<Mutex<Tenant>> {
        let mut map = self.tenants.lock();
        if let Some(t) = map.get(name) {
            return t.clone();
        }
        // Each tenant plans its own deterministic synthetic dataset,
        // derived from (service seed, tenant name) so a restarted server
        // rebuilds identical sessions.
        let ds_seed = mix64(self.cfg.seed ^ tenant_hash(name));
        let dataset = pareto_datagen::rcv1_syn(ds_seed, self.cfg.dataset_scale);
        let mut session = PlanSession::new_shared(
            self.cluster.clone(),
            self.plan_cfg.clone(),
            dataset,
            WORKLOAD,
        )
        .with_shared_cache(self.cache.clone());
        if let Some(tel) = &self.telemetry {
            session = session.with_telemetry(tel.clone());
        }
        let tenant = Arc::new(Mutex::new(Tenant {
            session,
            breaker: Breaker::new(self.cfg.breaker_threshold, self.cfg.breaker_cooldown),
            last_good: None,
            appends: 0,
        }));
        map.insert(name.to_string(), tenant.clone());
        tenant
    }

    /// Record a terminal outcome on the
    /// [`metrics::SERVICE_REQUESTS_TOTAL`] counter. Inert: counting
    /// never feeds back into any decision.
    fn record_outcome(&self, outcome: &'static str) {
        if let Some(tel) = &self.telemetry {
            tel.counter_add(metrics::SERVICE_REQUESTS_TOTAL, &[("outcome", outcome)], 1);
        }
    }

    /// Record a client retry attempt.
    pub(crate) fn record_retry(&self, reason: &'static str) {
        if let Some(tel) = &self.telemetry {
            tel.counter_add(metrics::SERVICE_RETRIES_TOTAL, &[("reason", reason)], 1);
        }
    }

    fn record_transition(&self, to: &'static str) {
        if let Some(tel) = &self.telemetry {
            tel.counter_add(
                metrics::SERVICE_BREAKER_TRANSITIONS_TOTAL,
                &[("to", to)],
                1,
            );
        }
    }

    /// The coalescing key for a request — a fingerprint of everything
    /// that determines its answer — and whether in-flight work under the
    /// same key may answer it. `Plan` requests against the same
    /// tenant/dataset/α collide (and fold into one solve); `Replan`
    /// requests are salted with their id and never fold — each append
    /// mutates the dataset, so folding two would silently drop records.
    /// May wait on the tenant: call it before locking a dispatcher.
    pub(crate) fn work_key(&self, req: &Request) -> (u64, bool) {
        let tenant = self.tenant(&req.tenant);
        let t = tenant.lock();
        let fp = t.session.dataset_fingerprint().0;
        drop(t);
        let base = mix64(tenant_hash(&req.tenant) ^ fp);
        match req.kind {
            RequestKind::Plan { alpha } => (mix64(base ^ alpha.to_bits()), true),
            RequestKind::Replan { .. } => (mix64(base ^ req.id.wrapping_mul(0x9E37_79B9)), false),
        }
    }

    /// Admission for one request, live or simulated: offer `item` to
    /// `dispatcher` under its [`PlanService::work_key`] and tally a fold
    /// (coalesced counter) or a shed (that request's outcome).
    pub(crate) fn admit<T>(
        &self,
        dispatcher: &mut Dispatcher<T>,
        (key, coalescable): (u64, bool),
        item: T,
    ) -> Submitted<T> {
        let submitted = dispatcher.submit(key, coalescable, item);
        match submitted {
            Submitted::Folded => {
                if let Some(tel) = &self.telemetry {
                    tel.counter_add(metrics::SERVICE_COALESCED_TOTAL, &[], 1);
                }
            }
            Submitted::Queued => {}
            Submitted::Shed { .. } => self.record_outcome("shed"),
        }
        submitted
    }

    /// The leader's `response` as follower `id`'s own terminal answer:
    /// the same plan under the follower's correlation id, tallied as that
    /// request's outcome.
    pub(crate) fn follower_answer(&self, response: &Response, id: u64) -> Response {
        let mut answer = response.clone();
        match &mut answer {
            Response::Served { id: slot, .. }
            | Response::Shed { id: slot, .. }
            | Response::Error { id: slot, .. } => *slot = id,
        }
        self.record_outcome(match answer {
            Response::Served { degraded: false, .. } => "served",
            Response::Served { degraded: true, .. } => "degraded",
            Response::Shed { .. } => "shed",
            Response::Error { .. } => "error",
        });
        answer
    }

    /// Serve one request (the coalescing *leader* path; followers are
    /// answered by the transport from the leader's response). `now` is
    /// caller-supplied monotonic time (sim ticks or request ordinals) —
    /// it drives the breaker, nothing else. `inject_stall` is the chaos
    /// hook: `true` makes the solver fail as if stalled, exactly like a
    /// [`pareto_cluster::FaultKind::SolverStall`] event.
    pub fn handle(&self, req: &Request, now: u64, inject_stall: bool) -> Response {
        let tenant = self.tenant(&req.tenant);
        let mut t = tenant.lock();

        let alpha = match req.kind {
            RequestKind::Plan { alpha } | RequestKind::Replan { alpha, .. } => alpha,
        };
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            self.record_outcome("error");
            return Response::Error {
                id: req.id,
                kind: ErrorKind::InvalidRequest,
                detail: format!("alpha {alpha} outside [0, 1]"),
            };
        }

        // Replan deltas mutate the dataset before the solve; the append
        // happens even if the solve below degrades, matching a client
        // that has already shipped its records.
        if let RequestKind::Replan { append, .. } = req.kind {
            t.appends += 1;
            let salt = mix64(self.cfg.seed ^ tenant_hash(&req.tenant) ^ t.appends);
            let extra = pareto_datagen::rcv1_syn(salt, 0.002 * f64::from(append.min(8)))
                .items;
            t.session.append_items(extra);
        }

        // Rung 2/3: breaker open — no fresh solve at all.
        if !t.breaker.allow(now) {
            return self.degrade_or_error(
                &mut t,
                req.id,
                ErrorKind::BreakerOpen,
                "circuit breaker open".into(),
            );
        }

        t.session.set_alpha(alpha);
        t.session.set_deadline(if req.deadline_budget > 0 {
            Deadline::Budget(req.deadline_budget)
        } else {
            Deadline::None
        });

        if inject_stall {
            if let Some(tr) = t.breaker.on_failure(now) {
                self.record_transition(tr.to.label());
            }
            return self.degrade_or_error(
                &mut t,
                req.id,
                ErrorKind::SolverFailed,
                "injected solver stall".into(),
            );
        }

        match t.session.plan() {
            Ok(plan) => {
                if let Some(tr) = t.breaker.on_success(now) {
                    self.record_transition(tr.to.label());
                }
                let digest = t.session.dataset_fingerprint().0;
                let summary = summarize(&plan, digest);
                t.last_good = Some(summary.clone());
                self.record_outcome("served");
                Response::Served {
                    id: req.id,
                    digest,
                    sizes: summary.sizes,
                    makespan_s: summary.makespan_s,
                    degraded: false,
                    source_digest: digest,
                }
            }
            Err(PlanError::DeadlineExceeded { stage }) => {
                // Completed stages are already in the shared cache; the
                // next attempt resumes from them. Deadlines are load
                // signals, not solver health — the breaker ignores them.
                self.degrade_or_error(
                    &mut t,
                    req.id,
                    ErrorKind::DeadlineExceeded,
                    format!("deadline exceeded before the {stage} stage"),
                )
            }
            Err(e) => {
                if let Some(tr) = t.breaker.on_failure(now) {
                    self.record_transition(tr.to.label());
                }
                self.degrade_or_error(&mut t, req.id, ErrorKind::SolverFailed, e.to_string())
            }
        }
    }

    /// Rungs 2 and 3 of the ladder: the freshest cached plan flagged
    /// `degraded`, else the typed error.
    fn degrade_or_error(
        &self,
        t: &mut Tenant,
        id: u64,
        kind: ErrorKind,
        detail: String,
    ) -> Response {
        match &t.last_good {
            Some(s) => {
                self.record_outcome("degraded");
                Response::Served {
                    id,
                    digest: t.session.dataset_fingerprint().0,
                    sizes: s.sizes.clone(),
                    makespan_s: s.makespan_s,
                    degraded: true,
                    source_digest: s.digest,
                }
            }
            None => {
                self.record_outcome("error");
                Response::Error { id, kind, detail }
            }
        }
    }
}

/// One pending reply: fulfilled exactly once by a worker (or immediately
/// by admission control on shed).
struct ReplySlot {
    slot: Mutex<Option<Response>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(ReplySlot { slot: Mutex::new(None), ready: Condvar::new() })
    }

    fn fulfill(&self, resp: Response) {
        let mut guard = self.slot.lock();
        *guard = Some(resp);
        self.ready.notify_all();
    }

    fn wait(&self) -> Response {
        let mut guard = self.slot.lock();
        loop {
            if let Some(resp) = guard.take() {
                return resp;
            }
            self.ready.wait(&mut guard);
        }
    }
}

struct Job {
    request: Request,
    reply: Arc<ReplySlot>,
}

struct ServerShared {
    service: Arc<PlanService>,
    /// Admission queue and in-flight table under one lock: submissions
    /// and key retirements are atomic with respect to each other.
    dispatcher: Mutex<Dispatcher<Job>>,
    work_ready: Condvar,
    now: AtomicU64,
    shutdown: AtomicBool,
}

/// The live server: a bounded worker pool consuming the admission queue,
/// fed by in-process calls ([`Server::call`]) and/or TCP connections
/// ([`Server::serve_tcp`]) — both transports speak the same
/// [`crate::codec`] frames.
pub struct Server {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start `cfg.workers` worker threads over a `cfg.queue_capacity`
    /// admission queue.
    pub fn start(service: Arc<PlanService>) -> Self {
        let cfg = service.config().clone();
        let shared = Arc::new(ServerShared {
            service,
            dispatcher: Mutex::new(Dispatcher::new(cfg.queue_capacity)),
            work_ready: Condvar::new(),
            now: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Server { shared, workers }
    }

    /// Submit a request in-process, blocking until its terminal
    /// response. Sheds synchronously when the queue is full; folds into
    /// an in-flight identical solve when one exists.
    pub fn call(&self, request: Request) -> Response {
        submit(&self.shared, request).wait()
    }

    /// Submit the *encoded frame* a remote client would send, returning
    /// the encoded response frame — the in-process channel with the wire
    /// codec applied, used by codec-conformance tests.
    pub fn call_frame(&self, frame: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (payload, _) = decode_frame(frame)?;
        let request = Request::decode(payload)?;
        let response = self.call(request);
        encode_frame(&response.encode()?)
    }

    /// Accept TCP connections on `listener` until shutdown, one handler
    /// thread per connection, frames per [`crate::codec`]. Returns the
    /// acceptor's join handle.
    pub fn serve_tcp(&self, listener: TcpListener) -> JoinHandle<()> {
        let shared = self.shared.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &shared);
                });
            }
        })
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stop the workers and wait for them. In-flight jobs finish;
    /// queued-but-unstarted jobs — and the requests folded into them —
    /// are answered with a typed shed, so no caller hangs.
    pub fn shutdown(mut self) {
        self.stop_workers();
        // The workers drained the queue before exiting; this answers what
        // was submitted after they had gone.
        let drained = self.shared.dispatcher.lock().drain();
        // Newest first, so the index is the number of leaders still behind.
        for (behind, (leader, followers)) in drained.into_iter().rev().enumerate() {
            for job in std::iter::once(leader).chain(followers) {
                job.reply.fulfill(Response::Shed {
                    id: job.request.id,
                    queue_depth: behind as u32,
                });
            }
        }
    }
}

/// The submission path shared by in-process calls and TCP handlers:
/// fold, queue or shed through the dispatcher — every path fulfills the
/// returned slot exactly once (possibly via a worker), so callers never
/// hang.
fn submit(shared: &ServerShared, request: Request) -> Arc<ReplySlot> {
    let reply = ReplySlot::new();
    let id = request.id;
    let key = shared.service.work_key(&request);
    let job = Job { request, reply: reply.clone() };
    match shared.service.admit(&mut shared.dispatcher.lock(), key, job) {
        Submitted::Folded => {}
        Submitted::Queued => shared.work_ready.notify_one(),
        Submitted::Shed { queue_depth, .. } => {
            reply.fulfill(Response::Shed { id, queue_depth: queue_depth as u32 })
        }
    }
    reply
}

fn worker_loop(shared: &ServerShared) {
    loop {
        let (key, job) = {
            let mut dispatcher = shared.dispatcher.lock();
            loop {
                if let Some(next) = dispatcher.next_leader() {
                    break next;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.work_ready.wait(&mut dispatcher);
            }
        };
        let now = shared.now.fetch_add(1, Ordering::SeqCst);
        let response = shared.service.handle(&job.request, now, false);
        // Retire the work key and answer the coalesced followers from the
        // leader's response.
        let followers = shared.dispatcher.lock().complete(key);
        job.reply.fulfill(response.clone());
        for follower in followers {
            let answer = shared.service.follower_answer(&response, follower.request.id);
            follower.reply.fulfill(answer);
        }
    }
}

/// Read exactly one frame from a stream (blocking), growing the buffer
/// until the decoder stops reporting `Truncated`. Returns `None` on a
/// clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream) -> Result<Option<Vec<u8>>, CodecError> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 4096];
    loop {
        match decode_frame(&buf) {
            Ok((payload, _)) => return Ok(Some(payload.to_vec())),
            Err(CodecError::Truncated { .. }) => {}
            Err(e) => return Err(e),
        }
        let n = stream.read(&mut chunk).map_err(|_| CodecError::Truncated {
            needed: buf.len() + 1,
            have: buf.len(),
        })?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(CodecError::Truncated {
                needed: buf.len() + 1,
                have: buf.len(),
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &ServerShared) -> std::io::Result<()> {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            // Malformed frame: answer with a typed error and drop the
            // connection (framing is lost past this point).
            Err(e) => {
                let resp = Response::Error {
                    id: 0,
                    kind: ErrorKind::InvalidRequest,
                    detail: e.to_string(),
                };
                if let Ok(payload) = resp.encode() {
                    if let Ok(frame) = encode_frame(&payload) {
                        let _ = stream.write_all(&frame);
                    }
                }
                return Ok(());
            }
        };
        let response = match Request::decode(&payload) {
            Ok(request) => submit(shared, request).wait(),
            Err(e) => Response::Error {
                id: 0,
                kind: ErrorKind::InvalidRequest,
                detail: e.to_string(),
            },
        };
        let frame = response
            .encode()
            .and_then(|p| encode_frame(&p))
            .unwrap_or_default();
        stream.write_all(&frame)?;
    }
}

/// A blocking TCP client speaking the frame codec.
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connect to a server address.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        Ok(TcpClient { stream: TcpStream::connect(addr)? })
    }

    /// Send one request, wait for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, CodecError> {
        let frame = encode_frame(&request.encode()?)?;
        self.stream
            .write_all(&frame)
            .map_err(|e| CodecError::BadValue { what: "socket write", detail: e.to_string() })?;
        let payload = read_frame(&mut self.stream)?.ok_or(CodecError::Truncated {
            needed: 1,
            have: 0,
        })?;
        Response::decode(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            dataset_scale: 0.01,
            nodes: 3,
            workers: 2,
            queue_capacity: 4,
            ..ServiceConfig::default()
        }
    }

    fn plan_req(id: u64, tenant: &str, alpha: f64) -> Request {
        Request {
            id,
            tenant: tenant.into(),
            deadline_budget: 0,
            kind: RequestKind::Plan { alpha },
        }
    }

    #[test]
    fn fresh_solve_serves_and_caches() {
        let svc = PlanService::new(small_cfg(), None);
        let resp = svc.handle(&plan_req(1, "acme", 0.9), 0, false);
        match resp {
            Response::Served { id, degraded, sizes, digest, source_digest, .. } => {
                assert_eq!(id, 1);
                assert!(!degraded);
                assert_eq!(digest, source_digest);
                assert!(!sizes.is_empty());
            }
            other => panic!("expected Served, got {other:?}"),
        }
    }

    #[test]
    fn stall_storm_trips_breaker_then_degrades() {
        let cfg = ServiceConfig { breaker_threshold: 2, breaker_cooldown: 100, ..small_cfg() };
        let svc = PlanService::new(cfg, None);
        // Seed a good plan so degradation has a source.
        let first = svc.handle(&plan_req(1, "acme", 0.9), 0, false);
        let good_digest = match first {
            Response::Served { digest, .. } => digest,
            other => panic!("expected Served, got {other:?}"),
        };
        // Two stalls trip the breaker (threshold 2); both degrade.
        for (i, now) in [(2u64, 1u64), (3, 2)] {
            match svc.handle(&plan_req(i, "acme", 0.9), now, true) {
                Response::Served { degraded: true, source_digest, .. } => {
                    assert_eq!(source_digest, good_digest);
                }
                other => panic!("expected degraded, got {other:?}"),
            }
        }
        // Breaker now open: no stall injected, still degraded (no solve).
        match svc.handle(&plan_req(4, "acme", 0.9), 3, false) {
            Response::Served { degraded: true, source_digest, .. } => {
                assert_eq!(source_digest, good_digest);
            }
            other => panic!("expected degraded (breaker open), got {other:?}"),
        }
    }

    #[test]
    fn breaker_open_without_cache_is_typed_error() {
        let cfg = ServiceConfig { breaker_threshold: 1, ..small_cfg() };
        let svc = PlanService::new(cfg, None);
        // First request stalls: nothing cached, breaker trips.
        match svc.handle(&plan_req(1, "cold", 0.9), 0, true) {
            Response::Error { kind: ErrorKind::SolverFailed, .. } => {}
            other => panic!("expected SolverFailed, got {other:?}"),
        }
        match svc.handle(&plan_req(2, "cold", 0.9), 1, false) {
            Response::Error { kind: ErrorKind::BreakerOpen, .. } => {}
            other => panic!("expected BreakerOpen, got {other:?}"),
        }
    }

    #[test]
    fn tight_deadline_cold_is_typed_error_then_resumes_from_cache() {
        let svc = PlanService::new(small_cfg(), None);
        let mut req = plan_req(1, "deadline", 0.9);
        req.deadline_budget = 2; // sketch + stratify only
        match svc.handle(&req, 0, false) {
            Response::Error { kind: ErrorKind::DeadlineExceeded, .. } => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The two completed stages were cached; a budget of 3 more
        // stages now finishes what a cold solve (5 stages) could not.
        let mut retry = plan_req(2, "deadline", 0.9);
        retry.deadline_budget = 5;
        match svc.handle(&retry, 1, false) {
            Response::Served { degraded: false, .. } => {}
            other => panic!("expected Served after resume, got {other:?}"),
        }
    }

    #[test]
    fn half_open_probe_recovers_service() {
        let cfg = ServiceConfig { breaker_threshold: 1, breaker_cooldown: 10, ..small_cfg() };
        let svc = PlanService::new(cfg, None);
        svc.handle(&plan_req(1, "acme", 0.9), 0, false); // seed cache
        svc.handle(&plan_req(2, "acme", 0.9), 1, true); // trip
        // Before cooldown: degraded.
        match svc.handle(&plan_req(3, "acme", 0.9), 5, false) {
            Response::Served { degraded: true, .. } => {}
            other => panic!("expected degraded, got {other:?}"),
        }
        // After cooldown: half-open probe solves fresh and closes.
        match svc.handle(&plan_req(4, "acme", 0.9), 11, false) {
            Response::Served { degraded: false, .. } => {}
            other => panic!("expected fresh serve, got {other:?}"),
        }
    }

    #[test]
    fn server_in_process_round_trip_and_shutdown() {
        let svc = Arc::new(PlanService::new(small_cfg(), None));
        let server = Server::start(svc);
        let resp = server.call(plan_req(7, "acme", 0.8));
        assert!(matches!(resp, Response::Served { id: 7, degraded: false, .. }));
        // Warm second call hits the cache (same α).
        let resp = server.call(plan_req(8, "acme", 0.8));
        assert!(matches!(resp, Response::Served { id: 8, .. }));
        server.shutdown();
    }

    #[test]
    fn shutdown_sheds_queued_leaders_and_their_followers() {
        let svc = Arc::new(PlanService::new(small_cfg(), None));
        let mut server = Server::start(svc);
        // The window `shutdown` must close: requests that arrive after
        // the workers have gone — a leader and two identical plans that
        // fold into it while it sits in the queue.
        server.stop_workers();
        let slots: Vec<_> = (1..=3)
            .map(|id| submit(&server.shared, plan_req(id, "acme", 0.8)))
            .collect();
        server.shutdown();
        for (slot, id) in slots.iter().zip(1..) {
            assert_eq!(slot.wait(), Response::Shed { id, queue_depth: 0 });
        }
    }

    #[test]
    fn server_tcp_round_trip() {
        let svc = Arc::new(PlanService::new(small_cfg(), None));
        let server = Server::start(svc);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = server.serve_tcp(listener);
        let mut client = TcpClient::connect(addr).unwrap();
        let resp = client.call(&plan_req(21, "remote", 0.7)).unwrap();
        assert!(matches!(resp, Response::Served { id: 21, .. }));
        drop(client);
        server.shutdown();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(addr);
        let _ = acceptor.join();
    }

    #[test]
    fn call_frame_speaks_the_wire_codec() {
        let svc = Arc::new(PlanService::new(small_cfg(), None));
        let server = Server::start(svc);
        let req = plan_req(9, "acme", 0.6);
        let frame = encode_frame(&req.encode().unwrap()).unwrap();
        let resp_frame = server.call_frame(&frame).unwrap();
        let (payload, _) = decode_frame(&resp_frame).unwrap();
        let resp = Response::decode(payload).unwrap();
        assert_eq!(resp.id(), 9);
        server.shutdown();
    }
}
