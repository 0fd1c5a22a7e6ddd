//! Wire-codec robustness: arbitrary mutilation of frames and payloads
//! must produce typed [`CodecError`]s — never a panic, never a bogus
//! decode — and every well-formed message must round-trip
//! byte-identically.

use pareto_service::codec::{decode_frame, encode_frame, CodecError, HEADER_LEN, MAGIC};
use pareto_service::proto::{ErrorKind, Request, RequestKind, Response};
use proptest::prelude::*;

fn request_from(id: u64, tenant_sel: u8, budget: u64, alpha_sel: u8, replan: bool) -> Request {
    let tenant = match tenant_sel % 4 {
        0 => String::new(),
        1 => "t0".to_string(),
        2 => "tenant-with-a-much-longer-name".to_string(),
        _ => "ünïcödé".to_string(),
    };
    let alpha = [0.0, 0.5, 0.999, 1.0][(alpha_sel % 4) as usize];
    let kind = if replan {
        RequestKind::Replan {
            append: u32::from(tenant_sel),
            alpha,
        }
    } else {
        RequestKind::Plan { alpha }
    };
    Request {
        id,
        tenant,
        deadline_budget: budget,
        kind,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Requests round-trip bit-exactly through payload + frame encoding.
    #[test]
    fn request_round_trips_byte_identically(
        id in any::<u64>(),
        tenant_sel in any::<u8>(),
        budget in 0u64..32,
        alpha_sel in any::<u8>(),
        replan in any::<bool>(),
    ) {
        let req = request_from(id, tenant_sel, budget, alpha_sel, replan);
        let payload = req.encode().unwrap();
        let frame = encode_frame(&payload).unwrap();
        let (decoded_payload, consumed) = decode_frame(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decoded_payload, &payload[..]);
        let back = Request::decode(decoded_payload).unwrap();
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back.encode().unwrap(), payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Responses round-trip bit-exactly, including float bit patterns
    /// and the degraded/source-digest pair.
    #[test]
    fn response_round_trips_byte_identically(
        id in any::<u64>(),
        digest in any::<u64>(),
        n_sizes in 0usize..6,
        makespan_bits in any::<u64>(),
        degraded in any::<bool>(),
        variant in 0u8..3,
    ) {
        let makespan = f64::from_bits(makespan_bits % (1u64 << 62));
        let resp = match variant {
            0 => Response::Served {
                id,
                digest,
                sizes: (0..n_sizes as u32).map(|i| i * 7 + 1).collect(),
                makespan_s: makespan,
                degraded,
                source_digest: digest ^ 0xFF,
            },
            1 => Response::Shed { id, queue_depth: (digest % 1024) as u32 },
            _ => Response::Error {
                id,
                kind: [ErrorKind::DeadlineExceeded, ErrorKind::BreakerOpen,
                       ErrorKind::SolverFailed, ErrorKind::InvalidRequest]
                    [(digest % 4) as usize],
                detail: format!("detail-{id}"),
            },
        };
        let payload = resp.encode().unwrap();
        let back = Response::decode(&payload).unwrap();
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.encode().unwrap(), payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Truncating a valid frame at ANY byte yields `Truncated` (a
    /// streaming reader keeps waiting), never a panic or a wrong decode.
    #[test]
    fn torn_frames_are_always_truncated_errors(
        id in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = request_from(id, 2, 5, 1, false);
        let frame = encode_frame(&req.encode().unwrap()).unwrap();
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < frame.len());
        match decode_frame(&frame[..cut]) {
            Err(CodecError::Truncated { needed, have }) => {
                prop_assert_eq!(have, cut);
                prop_assert!(needed > cut);
            }
            other => prop_assert!(false, "cut {} gave {:?}", cut, other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Flipping any single byte of a frame either still decodes (the
    /// flip landed in a don't-care payload position and re-validates)
    /// or produces a typed error — it NEVER panics.
    #[test]
    fn mutated_frames_never_panic(
        id in any::<u64>(),
        flip_frac in 0.0f64..1.0,
        flip_bits in 1u8..=255,
    ) {
        let req = request_from(id, 1, 3, 2, true);
        let mut frame = encode_frame(&req.encode().unwrap()).unwrap();
        let pos = ((frame.len() as f64) * flip_frac) as usize % frame.len();
        frame[pos] ^= flip_bits;
        // Must return *something* typed without panicking; if it still
        // frames, request decoding must likewise not panic.
        if let Ok((payload, _)) = decode_frame(&frame) {
            let _ = Request::decode(payload);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Pure garbage bytes never decode to a frame unless they happen to
    /// start with the magic — and even then only with a plausible
    /// bounded length.
    #[test]
    fn random_bytes_never_panic_the_decoder(
        len in 0usize..64,
        seed in any::<u64>(),
    ) {
        let bytes: Vec<u8> = (0..len)
            .map(|i| (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (8 * (i % 8))) as u8)
            .collect();
        if let Ok((payload, consumed)) = decode_frame(&bytes) {
            // Anything that frames must be internally consistent.
            prop_assert!(consumed <= bytes.len());
            prop_assert_eq!(&bytes[..4], &MAGIC[..]);
            prop_assert_eq!(consumed, HEADER_LEN + payload.len());
            let _ = Request::decode(payload);
            let _ = Response::decode(payload);
        }
    }
}

#[test]
fn oversized_declared_length_is_rejected_without_allocation() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(pareto_service::MAX_FRAME as u32 + 1).to_be_bytes());
    frame.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        decode_frame(&frame),
        Err(CodecError::Oversized { .. })
    ));
}
