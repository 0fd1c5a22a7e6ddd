//! A real LZ77 compressor/decompressor (Ziv & Lempel, 1977/78 family).
//!
//! Greedy longest-match coding with a hash-chain match finder over a
//! sliding window — the same construction as the paper's "very common LZ77
//! compression algorithm" (§V-C2). The token format is byte-oriented:
//!
//! ```text
//! 0x00 len u8 [len literal bytes]          (literal run, len ≥ 1)
//! 0x01 offset u16-LE len u8                (match, len ≥ MIN_MATCH)
//! ```
//!
//! The returned `ops` count tallies every byte examined during match search
//! and emission, so compression cost genuinely depends on the *content* —
//! a low-entropy partition both compresses better and scans faster, which
//! is the behaviour the similar-together partitioning exploits.

use std::collections::HashMap;

/// Minimum match length worth encoding (shorter matches cost more than
/// literals).
const MIN_MATCH: usize = 4;
/// Maximum encodable match length (one byte).
const MAX_MATCH: usize = 255;

/// Compressor tuning.
#[derive(Debug, Clone, Copy)]
pub struct Lz77Config {
    /// Sliding-window size in bytes (offsets are 16-bit, so ≤ 65535).
    pub window: usize,
    /// Maximum hash-chain positions probed per match search.
    pub max_chain: usize,
}

impl Default for Lz77Config {
    fn default() -> Self {
        Lz77Config {
            window: 32 * 1024,
            max_chain: 32,
        }
    }
}

#[inline]
fn hash3(data: &[u8], i: usize) -> u32 {
    // Fibonacci hash of 3 bytes.
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    v.wrapping_mul(2654435761) >> 16
}

/// Compress `input`; returns the token stream and the exact op count.
///
/// ```
/// use pareto_workloads::{lz77_compress, lz77_decompress, Lz77Config};
///
/// let data = b"abcabcabcabcabcabc".repeat(20);
/// let (compressed, ops) = lz77_compress(&data, &Lz77Config::default());
/// assert!(compressed.len() < data.len() / 4);
/// assert!(ops > 0);
/// assert_eq!(lz77_decompress(&compressed).unwrap(), data);
/// ```
pub fn lz77_compress(input: &[u8], cfg: &Lz77Config) -> (Vec<u8>, u64) {
    assert!(cfg.window >= MIN_MATCH && cfg.window <= u16::MAX as usize + 1);
    assert!(cfg.max_chain >= 1);
    let mut ops: u64 = 0;
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut chains: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut literals: Vec<u8> = Vec::with_capacity(256);

    let flush_literals = |out: &mut Vec<u8>, lits: &mut Vec<u8>, ops: &mut u64| {
        for chunk in lits.chunks(255) {
            out.push(0x00);
            out.push(chunk.len() as u8);
            out.extend_from_slice(chunk);
            *ops += chunk.len() as u64;
        }
        lits.clear();
    };

    let mut i = 0usize;
    while i < input.len() {
        ops += 1; // position scanned
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(input, i);
            if let Some(positions) = chains.get(&h) {
                // Probe newest-first.
                for &pos in positions.iter().rev().take(cfg.max_chain) {
                    if i - pos > cfg.window {
                        break;
                    }
                    let limit = (input.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && input[pos + l] == input[i + l] {
                        l += 1;
                    }
                    ops += l as u64 + 1;
                    if l > best_len {
                        best_len = l;
                        best_off = i - pos;
                        if l >= limit {
                            break;
                        }
                    }
                }
            }
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, &mut literals, &mut ops);
            out.push(0x01);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.push(best_len as u8);
            // Index every covered position (bounded insertion work).
            let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                chains.entry(hash3(input, j)).or_default().push(j);
            }
            ops += best_len as u64;
            i += best_len;
        } else {
            if i + MIN_MATCH <= input.len() {
                chains.entry(hash3(input, i)).or_default().push(i);
            }
            literals.push(input[i]);
            if literals.len() == 255 {
                flush_literals(&mut out, &mut literals, &mut ops);
            }
            i += 1;
        }
    }
    flush_literals(&mut out, &mut literals, &mut ops);
    (out, ops)
}

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lz77Error {
    /// Token stream ended mid-token.
    Truncated,
    /// Unknown token tag.
    BadTag(u8),
    /// A match referenced data before the start of the output.
    BadOffset,
}

impl std::fmt::Display for Lz77Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz77Error::Truncated => write!(f, "truncated LZ77 stream"),
            Lz77Error::BadTag(t) => write!(f, "unknown LZ77 token tag {t:#x}"),
            Lz77Error::BadOffset => write!(f, "match offset before stream start"),
        }
    }
}

impl std::error::Error for Lz77Error {}

/// Decompress a token stream produced by [`lz77_compress`].
pub fn lz77_decompress(stream: &[u8]) -> Result<Vec<u8>, Lz77Error> {
    let mut out = Vec::with_capacity(stream.len() * 2);
    let mut i = 0usize;
    while i < stream.len() {
        match stream[i] {
            0x00 => {
                if i + 2 > stream.len() {
                    return Err(Lz77Error::Truncated);
                }
                let len = stream[i + 1] as usize;
                if i + 2 + len > stream.len() {
                    return Err(Lz77Error::Truncated);
                }
                out.extend_from_slice(&stream[i + 2..i + 2 + len]);
                i += 2 + len;
            }
            0x01 => {
                if i + 4 > stream.len() {
                    return Err(Lz77Error::Truncated);
                }
                let off =
                    u16::from_le_bytes(stream[i + 1..i + 3].try_into().expect("2 bytes")) as usize;
                let len = stream[i + 3] as usize;
                if off == 0 || off > out.len() {
                    return Err(Lz77Error::BadOffset);
                }
                let start = out.len() - off;
                // Byte-by-byte: matches may overlap their own output.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                i += 4;
            }
            tag => return Err(Lz77Error::BadTag(tag)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> (usize, u64) {
        let (c, ops) = lz77_compress(data, &Lz77Config::default());
        let d = lz77_decompress(&c).expect("valid stream");
        assert_eq!(d, data, "roundtrip mismatch");
        (c.len(), ops)
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn roundtrip_repetitive_compresses() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(10_000).collect();
        let (clen, _) = roundtrip(&data);
        assert!(
            clen < data.len() / 10,
            "compressed {clen} of {}",
            data.len()
        );
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // 'aaaa…' forces matches that overlap their own output.
        let data = vec![b'a'; 1000];
        let (clen, _) = roundtrip(&data);
        assert!(clen < 40);
    }

    #[test]
    fn incompressible_data_expands_little() {
        // A high-entropy byte stream (xorshift64*): essentially no 4-byte
        // matches, so the output is literal runs plus framing.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut data = Vec::with_capacity(5000);
        while data.len() < 5000 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            data.extend_from_slice(&state.wrapping_mul(0x2545F4914F6CDD1D).to_le_bytes());
        }
        data.truncate(5000);
        let (clen, _) = roundtrip(&data);
        assert!(
            clen > data.len() * 9 / 10,
            "high-entropy data must stay near-incompressible: {clen} of {}",
            data.len()
        );
        assert!(
            clen < data.len() + data.len() / 50 + 32,
            "overhead too high"
        );
    }

    #[test]
    fn similar_records_compress_better_than_mixed() {
        // The §V-C2 claim behind similar-together partitioning.
        let similar: Vec<u8> = (0..200)
            .flat_map(|_| b"record:alpha,beta,gamma;".to_vec())
            .collect();
        let mixed: Vec<u8> = (0..200u32)
            .flat_map(|i| {
                format!(
                    "record:{:08x},{:08x};",
                    i.wrapping_mul(2654435761),
                    i * 7919
                )
                .into_bytes()
            })
            .collect();
        let (c_sim, _) = lz77_compress(&similar, &Lz77Config::default());
        let (c_mix, _) = lz77_compress(&mixed, &Lz77Config::default());
        let ratio_sim = similar.len() as f64 / c_sim.len() as f64;
        let ratio_mix = mixed.len() as f64 / c_mix.len() as f64;
        assert!(
            ratio_sim > ratio_mix * 2.0,
            "similar {ratio_sim:.1} vs mixed {ratio_mix:.1}"
        );
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert_eq!(lz77_decompress(&[0x02]), Err(Lz77Error::BadTag(2)));
        assert_eq!(lz77_decompress(&[0x00]), Err(Lz77Error::Truncated));
        assert_eq!(lz77_decompress(&[0x00, 5, 1, 2]), Err(Lz77Error::Truncated));
        assert_eq!(lz77_decompress(&[0x01, 1, 0, 4]), Err(Lz77Error::BadOffset));
    }

    #[test]
    fn ops_deterministic_and_content_dependent() {
        let a: Vec<u8> = vec![7; 4000];
        let b: Vec<u8> = (0..4000u32).map(|i| (i * 31) as u8).collect();
        let (_, ops_a1) = lz77_compress(&a, &Lz77Config::default());
        let (_, ops_a2) = lz77_compress(&a, &Lz77Config::default());
        let (_, ops_b) = lz77_compress(&b, &Lz77Config::default());
        assert_eq!(ops_a1, ops_a2);
        assert_ne!(ops_a1, ops_b);
    }

    #[test]
    #[should_panic]
    fn oversized_window_rejected() {
        // Offsets are u16: windows beyond 65536 are unencodable.
        lz77_compress(
            b"x",
            &Lz77Config {
                window: 1 << 20,
                max_chain: 4,
            },
        );
    }

    #[test]
    #[should_panic]
    fn zero_chain_rejected() {
        lz77_compress(
            b"x",
            &Lz77Config {
                window: 1024,
                max_chain: 0,
            },
        );
    }

    #[test]
    fn window_limits_match_distance() {
        // Repeat separated by more than the window: no cross-gap match.
        let cfg = Lz77Config {
            window: 64,
            max_chain: 16,
        };
        let mut data = b"uniquepattern123".to_vec();
        data.extend(std::iter::repeat_n(0u8, 200));
        data.extend_from_slice(b"uniquepattern123");
        let (c, _) = lz77_compress(&data, &cfg);
        let d = lz77_decompress(&c).unwrap();
        assert_eq!(d, data);
    }
}
