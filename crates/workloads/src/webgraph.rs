//! WebGraph-style adjacency-list compression (after Boldi & Vigna, WWW
//! 2004), the paper's second graph-compression workload (§V-C2).
//!
//! Each vertex's sorted neighbor list is coded against a *reference* list
//! chosen from a small window of previously coded lists:
//!
//! ```text
//! varint ref_delta        (0 = no reference)
//! [if ref: varint n_runs, then alternating keep/skip run lengths
//!          covering the reference list]
//! varint n_residuals, then gap-coded residual neighbors (varint deltas)
//! ```
//!
//! When consecutive lists share many targets (pages on the same host) the
//! copy-runs are long and the residuals few — so partitions that *group
//! similar vertices together* compress markedly better, which is exactly
//! the quality effect Fig. 4(e–f) of the paper measures.

/// Codec tuning.
#[derive(Debug, Clone, Copy)]
pub struct WebGraphConfig {
    /// How many previous lists are candidate references.
    pub window: usize,
}

impl Default for WebGraphConfig {
    fn default() -> Self {
        WebGraphConfig { window: 7 }
    }
}

/// Append a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; advances `pos`.
fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, WebGraphError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos).ok_or(WebGraphError::Truncated)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(WebGraphError::Corrupt("varint overflow"));
        }
    }
}

/// Compress a sequence of sorted adjacency lists. Returns the byte stream
/// and the exact op count (per-element comparisons during reference
/// selection and coding).
///
/// ```
/// use pareto_workloads::{webgraph_compress, webgraph_decompress, WebGraphConfig};
///
/// let lists: Vec<Vec<u32>> = (0..50).map(|i| vec![10, 11, 12, 100 + i]).collect();
/// let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
/// let (stream, _) = webgraph_compress(&refs, &WebGraphConfig::default());
/// assert!(stream.len() < 4 * lists.iter().map(Vec::len).sum::<usize>());
/// assert_eq!(webgraph_decompress(&stream).unwrap(), lists);
/// ```
pub fn webgraph_compress(lists: &[&[u32]], cfg: &WebGraphConfig) -> (Vec<u8>, u64) {
    let mut out = Vec::new();
    let mut ops: u64 = 0;
    put_varint(&mut out, lists.len() as u64);
    for (i, list) in lists.iter().enumerate() {
        debug_assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "adjacency lists must be sorted strictly ascending"
        );
        // Pick the reference with the largest intersection in the window.
        let mut best_ref = 0usize; // 0 = none; r means lists[i - r]
        let mut best_inter = 0usize;
        for r in 1..=cfg.window.min(i) {
            let cand = lists[i - r];
            let inter = sorted_intersection_size(list, cand);
            ops += (list.len() + cand.len()) as u64;
            if inter > best_inter {
                best_inter = inter;
                best_ref = r;
            }
        }
        // Only reference when the copy actually pays for the run encoding.
        if best_inter < 2 {
            best_ref = 0;
        }
        put_varint(&mut out, best_ref as u64);
        let mut residuals: Vec<u32> = Vec::new();
        if best_ref > 0 {
            let reference = lists[i - best_ref];
            // keep[j] = reference[j] ∈ list.
            let mut keep = vec![false; reference.len()];
            let (mut a, mut b) = (0usize, 0usize);
            while a < list.len() && b < reference.len() {
                ops += 1;
                match list[a].cmp(&reference[b]) {
                    std::cmp::Ordering::Less => {
                        residuals.push(list[a]);
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        keep[b] = true;
                        a += 1;
                        b += 1;
                    }
                }
            }
            residuals.extend_from_slice(&list[a..]);
            // Run-length code the keep bitmap: runs alternate keep/skip,
            // starting with keep.
            let mut runs: Vec<u64> = Vec::new();
            let mut current = true;
            let mut run_len = 0u64;
            for &k in &keep {
                if k == current {
                    run_len += 1;
                } else {
                    runs.push(run_len);
                    current = k;
                    run_len = 1;
                }
            }
            runs.push(run_len);
            put_varint(&mut out, runs.len() as u64);
            for r in runs {
                put_varint(&mut out, r);
            }
        } else {
            residuals.extend_from_slice(list);
        }
        // Gap-code residuals.
        put_varint(&mut out, residuals.len() as u64);
        let mut prev = 0u64;
        for (j, &r) in residuals.iter().enumerate() {
            ops += 1;
            let gap = if j == 0 {
                r as u64
            } else {
                (r as u64) - prev - 1
            };
            put_varint(&mut out, gap);
            prev = r as u64;
        }
    }
    (out, ops)
}

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WebGraphError {
    /// Stream ended early.
    Truncated,
    /// Structurally invalid stream.
    Corrupt(&'static str),
}

impl std::fmt::Display for WebGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WebGraphError::Truncated => write!(f, "truncated webgraph stream"),
            WebGraphError::Corrupt(m) => write!(f, "corrupt webgraph stream: {m}"),
        }
    }
}

impl std::error::Error for WebGraphError {}

/// Decompress a stream produced by [`webgraph_compress`].
pub fn webgraph_decompress(stream: &[u8]) -> Result<Vec<Vec<u32>>, WebGraphError> {
    let mut pos = 0usize;
    let n = get_varint(stream, &mut pos)? as usize;
    let mut lists: Vec<Vec<u32>> = Vec::with_capacity(n);
    for i in 0..n {
        let ref_delta = get_varint(stream, &mut pos)? as usize;
        let mut copied: Vec<u32> = Vec::new();
        if ref_delta > 0 {
            if ref_delta > i {
                return Err(WebGraphError::Corrupt("reference before stream start"));
            }
            let reference: &[u32] = &lists[i - ref_delta];
            let n_runs = get_varint(stream, &mut pos)? as usize;
            let mut idx = 0usize;
            let mut keep = true;
            for _ in 0..n_runs {
                let run = get_varint(stream, &mut pos)? as usize;
                if idx + run > reference.len() {
                    return Err(WebGraphError::Corrupt("copy run exceeds reference"));
                }
                if keep {
                    copied.extend_from_slice(&reference[idx..idx + run]);
                }
                idx += run;
                keep = !keep;
            }
        }
        let n_res = get_varint(stream, &mut pos)? as usize;
        let mut residuals = Vec::with_capacity(n_res);
        let mut prev = 0u64;
        for j in 0..n_res {
            let gap = get_varint(stream, &mut pos)?;
            let v = if j == 0 { gap } else { prev + 1 + gap };
            if v > u32::MAX as u64 {
                return Err(WebGraphError::Corrupt("residual exceeds u32"));
            }
            residuals.push(v as u32);
            prev = v;
        }
        // Merge copied + residuals (both sorted, disjoint).
        let mut merged = Vec::with_capacity(copied.len() + residuals.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < copied.len() && b < residuals.len() {
            if copied[a] < residuals[b] {
                merged.push(copied[a]);
                a += 1;
            } else {
                merged.push(residuals[b]);
                b += 1;
            }
        }
        merged.extend_from_slice(&copied[a..]);
        merged.extend_from_slice(&residuals[b..]);
        lists.push(merged);
    }
    Ok(lists)
}

fn sorted_intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(lists: Vec<Vec<u32>>) -> usize {
        let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
        let (stream, _) = webgraph_compress(&refs, &WebGraphConfig::default());
        let decoded = webgraph_decompress(&stream).expect("valid stream");
        assert_eq!(decoded, lists, "roundtrip mismatch");
        stream.len()
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip(vec![]);
        roundtrip(vec![vec![]]);
        roundtrip(vec![vec![5]]);
        roundtrip(vec![vec![1, 2, 3], vec![], vec![1000, 2000]]);
    }

    #[test]
    fn roundtrip_with_references() {
        // Consecutive similar lists exercise the copy-run path.
        roundtrip(vec![
            vec![10, 20, 30, 40, 50],
            vec![10, 20, 30, 40, 55],
            vec![10, 20, 31, 40, 50, 60],
            vec![9, 20, 30, 40],
        ]);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn similar_ordering_compresses_better() {
        // Host-clustered lists, visited grouped vs interleaved. Grouped
        // (similar-together) must compress smaller (Fig. 4e/4f effect).
        let host_a: Vec<Vec<u32>> = (0..50)
            .map(|i| vec![100, 101, 102, 103, 104, 200 + i])
            .collect();
        let host_b: Vec<Vec<u32>> = (0..50)
            .map(|i| vec![900, 901, 902, 903, 904, 1200 + i])
            .collect();
        let grouped: Vec<Vec<u32>> = host_a.iter().chain(host_b.iter()).cloned().collect();
        let mut interleaved = Vec::new();
        for (a, b) in host_a.iter().zip(&host_b) {
            interleaved.push(a.clone());
            interleaved.push(b.clone());
        }
        let size = |lists: &[Vec<u32>]| {
            let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
            webgraph_compress(&refs, &WebGraphConfig { window: 1 })
                .0
                .len()
        };
        assert!(
            size(&grouped) < size(&interleaved),
            "grouped {} vs interleaved {}",
            size(&grouped),
            size(&interleaved)
        );
    }

    #[test]
    fn compresses_redundant_graph() {
        let lists: Vec<Vec<u32>> = (0..200)
            .map(|i| vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10 + (i % 3)])
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
        let (stream, ops) = webgraph_compress(&refs, &WebGraphConfig::default());
        let raw_bytes = lists.iter().map(|l| 4 * l.len()).sum::<usize>();
        assert!(stream.len() * 4 < raw_bytes, "must compress well");
        assert!(ops > 0);
    }

    #[test]
    fn decompress_rejects_corruption() {
        assert_eq!(webgraph_decompress(&[]), Err(WebGraphError::Truncated));
        // One list claimed, no data.
        assert_eq!(webgraph_decompress(&[1]), Err(WebGraphError::Truncated));
        // Reference pointing before start.
        let bad = [1u8, 5, 0, 0]; // n=1, ref_delta=5 (> i=0)
        assert!(matches!(
            webgraph_decompress(&bad),
            Err(WebGraphError::Corrupt(_))
        ));
    }

    #[test]
    fn ops_deterministic() {
        let lists: Vec<Vec<u32>> = (0..30).map(|i| vec![i, i + 10, i + 20]).collect();
        let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
        let (_, o1) = webgraph_compress(&refs, &WebGraphConfig::default());
        let (_, o2) = webgraph_compress(&refs, &WebGraphConfig::default());
        assert_eq!(o1, o2);
    }
}
