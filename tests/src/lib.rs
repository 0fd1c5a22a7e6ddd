//! Helpers shared by the cross-crate integration suites.

/// Planning thread counts the identity suites sweep: the local default
/// {1, 4, 8} covers serial, partial-shard, and over-subscribed (threads >
/// strata/nodes) regimes; CI appends more via `PARETO_TEST_THREADS`.
pub fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 4, 8];
    if let Ok(extra) = std::env::var("PARETO_TEST_THREADS") {
        for part in extra.split(',') {
            if let Ok(t) = part.trim().parse::<usize>() {
                if t >= 1 && !counts.contains(&t) {
                    counts.push(t);
                }
            }
        }
    }
    counts
}

/// FNV-1a over a stream of words — the digest the golden pins record.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
