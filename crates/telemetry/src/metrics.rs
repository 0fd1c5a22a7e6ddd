//! The metrics registry: counters, gauges, and histograms.
//!
//! Metrics are keyed by `(name, sorted label pairs)` in `BTreeMap`s so
//! every export walks them in one deterministic order regardless of the
//! order in which they were touched — counter increments commute, which is
//! what lets parallel code sections record counters without perturbing
//! determinism (spans, by contrast, must only be recorded from serial
//! code).

use std::collections::BTreeMap;

/// A metric identity: name plus label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`pareto_recovery_retries_total`).
    pub name: String,
    /// Label pairs, kept sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so `{a, b}` and `{b, a}` collide.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Fixed-bucket histogram (cumulative counts exported Prometheus-style).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, strictly increasing; an implicit `+Inf` bucket
    /// follows.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `counts.len() ==
    /// bounds.len() + 1` with the last slot the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Fold another histogram into this one (per-bucket count sums plus
    /// `sum`/`count`). The bucket bounds must match exactly — merging
    /// differently-bucketed histograms would silently misbin, so it is a
    /// typed error ([`crate::TelemetryError::HistogramMismatch`]) instead.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), crate::TelemetryError> {
        if self.bounds != other.bounds {
            return Err(crate::TelemetryError::HistogramMismatch {
                metric: String::new(),
                detail: format!("{:?} vs {:?}", self.bounds, other.bounds),
            });
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
        Ok(())
    }
}

/// Default histogram bounds for durations in seconds (log-spaced).
pub const DURATION_BOUNDS_S: &[f64] = &[
    1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0, 3600.0,
];

/// Default histogram bounds for sizes/counts (log-spaced).
pub const SIZE_BOUNDS: &[f64] = &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7];

/// Counter of plan-cache events, labelled `{event=hit|miss|evict,
/// stage=<stage name>}`. Recorded by the incremental planning engine's
/// stage driver; `incremental::alpha_sweep_computes_upstream_stages_once`
/// checks it against `CacheStats` to assert that warm α sweeps actually
/// reuse artifacts.
pub const PLAN_CACHE_EVENTS_TOTAL: &str = "pareto_plan_cache_events_total";

/// Counter of frontier-explorer candidate points, labelled
/// `{outcome=kept|dominated}` — kept points form the reported frontier,
/// dominated ones were solved but filtered out.
pub const FRONTIER_POINTS_TOTAL: &str = "pareto_frontier_points_total";

/// Counter of scalarized LP solves spent by the frontier explorer (one
/// per planned vertex).
pub const FRONTIER_LP_SOLVES_TOTAL: &str = "pareto_frontier_lp_solves_total";

/// Counter of plan-service requests, labelled `{outcome=served|degraded|
/// shed|error}`. Every admitted or shed request increments exactly one
/// outcome, so the series total equals the request count — the soak
/// harness reconciles the two. Inert: recording never changes plans.
pub const SERVICE_REQUESTS_TOTAL: &str = "pareto_service_requests_total";

/// Counter of per-tenant circuit-breaker transitions, labelled
/// `{to=open|half_open|closed}`. A trip to `open` means K consecutive
/// solver failures; `closed` means a half-open probe succeeded.
pub const SERVICE_BREAKER_TRANSITIONS_TOTAL: &str = "pareto_service_breaker_transitions_total";

/// Counter of client-side retry attempts (first tries excluded),
/// labelled `{reason=shed|error}`.
pub const SERVICE_RETRIES_TOTAL: &str = "pareto_service_retries_total";

/// Counter of requests folded into an in-flight identical computation by
/// the service's dispatcher instead of planning independently.
pub const SERVICE_COALESCED_TOTAL: &str = "pareto_service_coalesced_total";

/// The registry proper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Monotonic counters.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<MetricKey, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to a counter (creating it at zero).
    pub fn counter_add(&mut self, key: MetricKey, v: u64) {
        *self.counters.entry(key).or_insert(0) += v;
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, key: MetricKey, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Observe a value into a histogram created with `bounds` on first
    /// touch (later observations reuse the original bounds).
    pub fn observe(&mut self, key: MetricKey, v: f64, bounds: &[f64]) {
        self.histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Total number of registered series.
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other side's value (last write wins), histograms merge per-bucket.
    /// Fails (leaving the overlapping series merged so far) on a
    /// histogram bounds mismatch.
    pub fn merge(&mut self, other: &MetricsRegistry) -> Result<(), crate::TelemetryError> {
        for (key, v) in &other.counters {
            self.counter_add(key.clone(), *v);
        }
        for (key, v) in &other.gauges {
            self.gauge_set(key.clone(), *v);
        }
        for (key, h) in &other.histograms {
            match self.histograms.get_mut(key) {
                Some(mine) => mine.merge(h).map_err(|e| match e {
                    crate::TelemetryError::HistogramMismatch { detail, .. } => {
                        crate::TelemetryError::HistogramMismatch {
                            metric: key.name.to_string(),
                            detail,
                        }
                    }
                    other => other,
                })?,
                None => {
                    self.histograms.insert(key.clone(), h.clone());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_keys_normalize() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(MetricKey::new("x_total", &[("a", "1"), ("b", "2")]), 3);
        reg.counter_add(MetricKey::new("x_total", &[("b", "2"), ("a", "1")]), 4);
        assert_eq!(reg.counters.len(), 1);
        assert_eq!(
            reg.counters[&MetricKey::new("x_total", &[("a", "1"), ("b", "2")])],
            7
        );
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut reg = MetricsRegistry::new();
        let key = MetricKey::new("g", &[]);
        reg.gauge_set(key.clone(), 1.5);
        reg.gauge_set(key.clone(), 2.5);
        assert_eq!(reg.gauges[&key], 2.5);
    }

    #[test]
    fn histogram_buckets_and_inf_overflow() {
        let mut reg = MetricsRegistry::new();
        let key = MetricKey::new("h", &[]);
        for v in [0.05, 0.5, 0.5, 99.0] {
            reg.observe(key.clone(), v, &[0.1, 1.0]);
        }
        let h = &reg.histograms[&key];
        assert_eq!(h.counts, vec![1, 2, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 100.05).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_observations_land_in_edge_buckets() {
        let mut reg = MetricsRegistry::new();
        let key = MetricKey::new("h", &[]);
        // Below every bound -> first bucket; above every bound (and NaN,
        // for which `v <= b` is false) -> +Inf bucket.
        for v in [-5.0, f64::NEG_INFINITY] {
            reg.observe(key.clone(), v, &[0.1, 1.0]);
        }
        for v in [1e9, f64::INFINITY, f64::NAN] {
            reg.observe(key.clone(), v, &[0.1, 1.0]);
        }
        let h = &reg.histograms[&key];
        assert_eq!(h.counts, vec![2, 0, 3]);
        assert_eq!(h.count, 5);
    }

    #[test]
    fn histogram_merge_adds_buckets_and_rejects_bounds_mismatch() {
        let mut reg_a = MetricsRegistry::new();
        let mut reg_b = MetricsRegistry::new();
        let key = MetricKey::new("h", &[("node", "0")]);
        for v in [0.05, 0.5] {
            reg_a.observe(key.clone(), v, &[0.1, 1.0]);
        }
        for v in [0.07, 5.0, 9.0] {
            reg_b.observe(key.clone(), v, &[0.1, 1.0]);
        }
        let mut merged = reg_a.histograms[&key].clone();
        merged.merge(&reg_b.histograms[&key]).unwrap();
        assert_eq!(merged.counts, vec![2, 1, 2]);
        assert_eq!(merged.count, 5);
        assert!((merged.sum - 14.62).abs() < 1e-9);

        let mut other_bounds = MetricsRegistry::new();
        other_bounds.observe(key.clone(), 0.5, &[0.25, 2.0]);
        let err = merged.merge(&other_bounds.histograms[&key]).unwrap_err();
        assert!(err.to_string().contains("bounds mismatch"));
    }

    #[test]
    fn registry_merge_combines_all_three_kinds() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add(MetricKey::new("c_total", &[]), 2);
        b.counter_add(MetricKey::new("c_total", &[]), 3);
        b.counter_add(MetricKey::new("only_b_total", &[]), 1);
        a.gauge_set(MetricKey::new("g", &[]), 1.0);
        b.gauge_set(MetricKey::new("g", &[]), 7.0);
        a.observe(MetricKey::new("h", &[]), 0.05, &[0.1]);
        b.observe(MetricKey::new("h", &[]), 5.0, &[0.1]);
        b.observe(MetricKey::new("h2", &[]), 5.0, &[0.1]);
        a.merge(&b).unwrap();
        assert_eq!(a.counters[&MetricKey::new("c_total", &[])], 5);
        assert_eq!(a.counters[&MetricKey::new("only_b_total", &[])], 1);
        assert_eq!(a.gauges[&MetricKey::new("g", &[])], 7.0);
        assert_eq!(a.histograms[&MetricKey::new("h", &[])].counts, vec![1, 1]);
        assert_eq!(a.histograms[&MetricKey::new("h2", &[])].count, 1);

        let mut clash = MetricsRegistry::new();
        clash.observe(MetricKey::new("h", &[]), 0.5, &[9.9]);
        assert!(a.merge(&clash).is_err());
    }

    #[test]
    fn label_ordering_is_deterministic_across_insertion_orders() {
        let forward = MetricKey::new("m", &[("a", "1"), ("b", "2"), ("c", "3")]);
        let reverse = MetricKey::new("m", &[("c", "3"), ("b", "2"), ("a", "1")]);
        assert_eq!(forward, reverse);
        assert_eq!(
            forward.labels,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string()),
                ("c".to_string(), "3".to_string()),
            ]
        );
    }

    #[test]
    fn iteration_order_is_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(MetricKey::new("z", &[]), 1);
        reg.counter_add(MetricKey::new("a", &[("n", "2")]), 1);
        reg.counter_add(MetricKey::new("a", &[("n", "1")]), 1);
        let names: Vec<String> = reg
            .counters
            .keys()
            .map(|k| format!("{}{:?}", k.name, k.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
