//! Plan-serving daemon for the Pareto framework.
//!
//! Turns the planning engine into a multi-tenant *service*: clients
//! submit plan/replan requests (length-prefixed frames over TCP or an
//! in-process channel — one codec for both), a bounded worker pool
//! executes them through per-tenant warm [`pareto_core::PlanSession`]s
//! over one fleet-wide shared artifact cache, and a resilience core
//! keeps tail behavior typed and bounded:
//!
//! * **Admission control** ([`admission::Dispatcher`]) — a bounded queue
//!   that sheds deterministically with a typed
//!   [`proto::Response::Shed`]; a full server never hangs a client.
//! * **Deadlines** — cooperative cancellation checkpoints between
//!   planning stages ([`pareto_core::Deadline`]); an expired request
//!   returns a typed error but keeps its completed stage artifacts
//!   cached for the next attempt.
//! * **Retry/backoff** ([`retry`]) — client-side seeded exponential
//!   backoff with deterministic jitter.
//! * **Circuit breaking** ([`breaker`]) — per-tenant, tripping after K
//!   consecutive solver failures; open breakers skip the solver
//!   entirely.
//! * **Graceful degradation** ([`server`]) — breaker open or deadline
//!   unmeetable ⇒ the freshest cached plan, flagged `degraded: true`
//!   with the digest it was computed over.
//! * **Coalescing** (the same [`admission::Dispatcher`]) — concurrent
//!   identical requests fold into one solve; the in-flight table lives
//!   beside the queue, under one lock.
//!
//! The [`soak`] module replays thousands of seeded mixed requests —
//! including injected solver stalls and overload — through the same
//! service core and the same dispatcher in simulated time, so its latency/outcome summary is
//! bit-identical run to run and across planning thread counts (CI diffs
//! the JSON byte-for-byte).

pub mod admission;
pub mod breaker;
pub mod codec;
pub mod proto;
pub mod retry;
pub mod server;
pub mod soak;

pub use admission::{Admission, BoundedQueue, Dispatcher, Submitted};
pub use breaker::{Breaker, BreakerState, Transition};
pub use codec::{decode_frame, encode_frame, CodecError, MAX_FRAME};
pub use proto::{ErrorKind, Request, RequestKind, Response};
pub use retry::RetryPolicy;
pub use server::{PlanService, Server, ServiceConfig, TcpClient};
pub use soak::{run_soak, SoakConfig, SoakReport};
