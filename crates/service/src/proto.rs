//! Request/response messages carried inside [`crate::codec`] frames.
//!
//! The protocol is deliberately small: a tenant asks for a plan at some
//! α (optionally after appending synthetic records — the "replan" path),
//! and gets back exactly one of *served*, *shed*, or a typed *error*.
//! Degraded service is not a fourth terminal state on the wire: a
//! degraded response is a [`Response::Served`] with `degraded: true` and
//! the `source_digest` of the cached plan it was lifted from, so clients
//! handle it with the same code path as a fresh plan.
//!
//! Encoding is bit-exact (floats travel as IEEE-754 bit patterns), so
//! `decode(encode(m)) == m` byte-for-byte — pinned by the round-trip
//! tests and proptests in this module.

use crate::codec::{CodecError, PayloadReader, PayloadWriter};

/// What the client wants planned.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Plan the tenant's dataset at scalarization weight `alpha`.
    Plan {
        /// Scalarization weight in `[0, 1]`.
        alpha: f64,
    },
    /// Append `append` synthetic records to the tenant's dataset, then
    /// plan at `alpha` — the incremental-replan path.
    Replan {
        /// Records to append before planning.
        append: u32,
        /// Scalarization weight in `[0, 1]`.
        alpha: f64,
    },
}

/// One plan request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Tenant name; sessions, breakers, and datasets are per-tenant.
    pub tenant: String,
    /// Cooperative deadline in stage-budget units (`0` = none): the
    /// number of planning stages the request may *start*. See
    /// [`pareto_core::Deadline::Budget`].
    pub deadline_budget: u64,
    /// The operation.
    pub kind: RequestKind,
}

/// Why a request ended in a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The deadline expired before planning finished and no cached plan
    /// was available to degrade onto.
    DeadlineExceeded,
    /// The tenant's circuit breaker is open and no cached plan exists.
    BreakerOpen,
    /// The solver failed (injected stall or LP failure).
    SolverFailed,
    /// The request itself was invalid (bad α, unknown tenant, …).
    InvalidRequest,
}

impl ErrorKind {
    fn tag(self) -> u8 {
        match self {
            ErrorKind::DeadlineExceeded => 0,
            ErrorKind::BreakerOpen => 1,
            ErrorKind::SolverFailed => 2,
            ErrorKind::InvalidRequest => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => ErrorKind::DeadlineExceeded,
            1 => ErrorKind::BreakerOpen,
            2 => ErrorKind::SolverFailed,
            3 => ErrorKind::InvalidRequest,
            tag => {
                return Err(CodecError::BadTag {
                    what: "error kind",
                    tag,
                })
            }
        })
    }

    /// Stable label for metrics and summaries.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::DeadlineExceeded => "deadline",
            ErrorKind::BreakerOpen => "breaker_open",
            ErrorKind::SolverFailed => "solver_failed",
            ErrorKind::InvalidRequest => "invalid",
        }
    }
}

/// One terminal answer per request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A plan (fresh or degraded).
    Served {
        /// Echo of [`Request::id`].
        id: u64,
        /// Dataset chain digest the plan was computed over.
        digest: u64,
        /// Integer partition sizes (sum to the dataset length).
        sizes: Vec<u32>,
        /// Predicted makespan in seconds (0 for strategies without an
        /// optimizer point).
        makespan_s: f64,
        /// True when this is a stale cached plan served because the
        /// fresh solve was impossible (breaker open or deadline too
        /// tight for a cold solve).
        degraded: bool,
        /// For degraded responses, the dataset digest the cached plan
        /// was originally computed over; equals `digest` when fresh.
        source_digest: u64,
    },
    /// Load-shed at admission: the queue was full. Never a hang — the
    /// client gets this synchronously and may retry with backoff.
    Shed {
        /// Echo of [`Request::id`].
        id: u64,
        /// Queue depth observed at rejection (== capacity).
        queue_depth: u32,
    },
    /// A typed failure.
    Error {
        /// Echo of [`Request::id`].
        id: u64,
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail (not used programmatically).
        detail: String,
    },
}

impl Response {
    /// The correlation id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Served { id, .. }
            | Response::Shed { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

const REQ_PLAN: u8 = 0x01;
const REQ_REPLAN: u8 = 0x02;
const RESP_SERVED: u8 = 0x10;
const RESP_SHED: u8 = 0x11;
const RESP_ERROR: u8 = 0x12;

impl Request {
    /// Serialize to payload bytes (frame separately via
    /// [`crate::codec::encode_frame`]).
    pub fn encode(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = PayloadWriter::new();
        match &self.kind {
            RequestKind::Plan { alpha } => {
                w.put_u8(REQ_PLAN);
                w.put_u64(self.id);
                w.put_str(&self.tenant)?;
                w.put_u64(self.deadline_budget);
                w.put_f64(*alpha);
            }
            RequestKind::Replan { append, alpha } => {
                w.put_u8(REQ_REPLAN);
                w.put_u64(self.id);
                w.put_str(&self.tenant)?;
                w.put_u64(self.deadline_budget);
                w.put_u32(*append);
                w.put_f64(*alpha);
            }
        }
        Ok(w.into_bytes())
    }

    /// Decode from payload bytes; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = PayloadReader::new(payload);
        let tag = r.get_u8()?;
        let id = r.get_u64()?;
        let tenant = r.get_str()?;
        let deadline_budget = r.get_u64()?;
        let kind = match tag {
            REQ_PLAN => RequestKind::Plan {
                alpha: r.get_f64()?,
            },
            REQ_REPLAN => {
                let append = r.get_u32()?;
                RequestKind::Replan {
                    append,
                    alpha: r.get_f64()?,
                }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        r.finish()?;
        let alpha = match kind {
            RequestKind::Plan { alpha } | RequestKind::Replan { alpha, .. } => alpha,
        };
        if !(0.0..=1.0).contains(&alpha) {
            return Err(CodecError::BadValue {
                what: "alpha",
                detail: format!("{alpha} outside [0, 1]"),
            });
        }
        Ok(Request {
            id,
            tenant,
            deadline_budget,
            kind,
        })
    }
}

impl Response {
    /// Serialize to payload bytes.
    pub fn encode(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = PayloadWriter::new();
        match self {
            Response::Served {
                id,
                digest,
                sizes,
                makespan_s,
                degraded,
                source_digest,
            } => {
                w.put_u8(RESP_SERVED);
                w.put_u64(*id);
                w.put_u64(*digest);
                w.put_u32(sizes.len() as u32);
                for &s in sizes {
                    w.put_u32(s);
                }
                w.put_f64(*makespan_s);
                w.put_u8(u8::from(*degraded));
                w.put_u64(*source_digest);
            }
            Response::Shed { id, queue_depth } => {
                w.put_u8(RESP_SHED);
                w.put_u64(*id);
                w.put_u32(*queue_depth);
            }
            Response::Error { id, kind, detail } => {
                w.put_u8(RESP_ERROR);
                w.put_u64(*id);
                w.put_u8(kind.tag());
                w.put_str(detail)?;
            }
        }
        Ok(w.into_bytes())
    }

    /// Decode from payload bytes; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = PayloadReader::new(payload);
        let tag = r.get_u8()?;
        let resp = match tag {
            RESP_SERVED => {
                let id = r.get_u64()?;
                let digest = r.get_u64()?;
                let n = r.get_u32()? as usize;
                // Bound the claimed length by what the payload can
                // actually hold, so a corrupt count cannot force a huge
                // allocation before the reads start failing.
                if n > payload.len() / 4 {
                    return Err(CodecError::BadValue {
                        what: "sizes length",
                        detail: format!("{n} entries cannot fit the payload"),
                    });
                }
                let mut sizes = Vec::with_capacity(n);
                for _ in 0..n {
                    sizes.push(r.get_u32()?);
                }
                let makespan_s = r.get_f64()?;
                let degraded = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "degraded flag",
                            tag,
                        })
                    }
                };
                let source_digest = r.get_u64()?;
                Response::Served {
                    id,
                    digest,
                    sizes,
                    makespan_s,
                    degraded,
                    source_digest,
                }
            }
            RESP_SHED => Response::Shed {
                id: r.get_u64()?,
                queue_depth: r.get_u32()?,
            },
            RESP_ERROR => {
                let id = r.get_u64()?;
                let kind = ErrorKind::from_tag(r.get_u8()?)?;
                let detail = r.get_str()?;
                Response::Error { id, kind, detail }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "response",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_frame, encode_frame};

    fn round_trip_request(req: &Request) {
        let bytes = req.encode().unwrap();
        let back = Request::decode(&bytes).unwrap();
        assert_eq!(&back, req);
        // And byte-identical re-encode.
        assert_eq!(back.encode().unwrap(), bytes);
    }

    fn round_trip_response(resp: &Response) {
        let bytes = resp.encode().unwrap();
        let back = Response::decode(&bytes).unwrap();
        assert_eq!(&back, resp);
        assert_eq!(back.encode().unwrap(), bytes);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request {
            id: 42,
            tenant: "acme".into(),
            deadline_budget: 5,
            kind: RequestKind::Plan { alpha: 0.75 },
        });
        round_trip_request(&Request {
            id: u64::MAX,
            tenant: "".into(),
            deadline_budget: 0,
            kind: RequestKind::Replan {
                append: 128,
                alpha: 0.0,
            },
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Served {
            id: 1,
            digest: 0xABCD,
            sizes: vec![10, 20, 30, 0],
            makespan_s: 12.5,
            degraded: true,
            source_digest: 0x1234,
        });
        round_trip_response(&Response::Shed {
            id: 2,
            queue_depth: 64,
        });
        round_trip_response(&Response::Error {
            id: 3,
            kind: ErrorKind::BreakerOpen,
            detail: "breaker open for tenant acme".into(),
        });
    }

    #[test]
    fn request_through_frame_round_trips() {
        let req = Request {
            id: 7,
            tenant: "t0".into(),
            deadline_budget: 6,
            kind: RequestKind::Plan { alpha: 0.5 },
        };
        let frame = encode_frame(&req.encode().unwrap()).unwrap();
        let (payload, _) = decode_frame(&frame).unwrap();
        assert_eq!(Request::decode(payload).unwrap(), req);
    }

    #[test]
    fn out_of_range_alpha_rejected() {
        let req = Request {
            id: 1,
            tenant: "t".into(),
            deadline_budget: 0,
            kind: RequestKind::Plan { alpha: 1.5 },
        };
        let bytes = req.encode().unwrap();
        assert!(matches!(
            Request::decode(&bytes),
            Err(CodecError::BadValue { what: "alpha", .. })
        ));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Request::decode(&[0xEE]),
            Err(CodecError::Truncated { .. }) | Err(CodecError::BadTag { .. })
        ));
        assert!(matches!(
            Response::decode(&[0xEE, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(CodecError::BadTag {
                what: "response",
                ..
            })
        ));
    }

    #[test]
    fn truncated_response_never_panics() {
        let resp = Response::Served {
            id: 9,
            digest: 5,
            sizes: vec![1, 2, 3],
            makespan_s: 1.0,
            degraded: false,
            source_digest: 5,
        };
        let bytes = resp.encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(Response::decode(&bytes[..cut]).is_err());
        }
    }
}
