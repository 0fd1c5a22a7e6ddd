//! Prometheus text exposition format (text/plain; version 0.0.4).

use std::fmt::Write as _;

use crate::metrics::MetricKey;
use crate::TelemetrySnapshot;

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, String)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape(&v));
    }
    out.push('}');
}

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn type_line(out: &mut String, last: &mut Option<String>, name: &str, kind: &str) {
    if last.as_deref() != Some(name) {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        *last = Some(name.to_string());
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "NaN".into()
    } else if v > 0.0 {
        "+Inf".into()
    } else {
        "-Inf".into()
    }
}

/// Render the snapshot's metrics registry in Prometheus text format.
/// Series appear in sorted `(name, labels)` order, so output is
/// deterministic.
pub fn prometheus_text(snapshot: &TelemetrySnapshot) -> String {
    let reg = &snapshot.metrics;
    let mut out = String::new();
    let mut last: Option<String> = None;

    for (key, value) in &reg.counters {
        type_line(&mut out, &mut last, &key.name, "counter");
        render_sample(&mut out, key, &value.to_string());
    }
    let mut last = None;
    for (key, value) in &reg.gauges {
        type_line(&mut out, &mut last, &key.name, "gauge");
        render_sample(&mut out, key, &fmt_f64(*value));
    }
    let mut last = None;
    for (key, hist) in &reg.histograms {
        type_line(&mut out, &mut last, &key.name, "histogram");
        let mut cumulative = 0u64;
        for (i, count) in hist.counts.iter().enumerate() {
            cumulative += count;
            let le = hist
                .bounds
                .get(i)
                .map(|&b| fmt_f64(b))
                .unwrap_or_else(|| "+Inf".into());
            let _ = write!(out, "{}_bucket", key.name);
            write_labels(&mut out, &key.labels, Some(("le", le)));
            let _ = writeln!(out, " {cumulative}");
        }
        let _ = write!(out, "{}_sum", key.name);
        write_labels(&mut out, &key.labels, None);
        let _ = writeln!(out, " {}", fmt_f64(hist.sum));
        let _ = write!(out, "{}_count", key.name);
        write_labels(&mut out, &key.labels, None);
        let _ = writeln!(out, " {}", hist.count);
    }
    out
}

fn render_sample(out: &mut String, key: &MetricKey, value: &str) {
    out.push_str(&key.name);
    write_labels(out, &key.labels, None);
    let _ = writeln!(out, " {value}");
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

/// Parse one `key="value"` label list body (the text between `{` and
/// `}`), honouring the exposition escapes (`\\`, `\"`, `\n`). Returns the
/// label pairs or a description of the malformation.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let name = &rest[..eq];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad label name {name:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value for {name:?} is not quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let close = loop {
            match chars.next() {
                None => return Err(format!("unterminated label value for {name:?}")),
                Some((i, '"')) => break i,
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {name:?}")),
                },
                Some((_, c)) => value.push(c),
            }
        };
        labels.push((name.to_string(), value));
        rest = &rest[close + 1..];
        if !rest.is_empty() && !rest.starts_with(',') {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
}

/// Validate Prometheus text-exposition output (the checks CI and the unit
/// suite gate on):
///
/// * every sample line parses as `name[{labels}] value` with well-formed,
///   properly escaped label values;
/// * every series declared `# TYPE <name> histogram` emits cumulative
///   (non-decreasing) `_bucket` counts ending in a `le="+Inf"` bucket,
///   plus `_sum` and `_count` samples whose `_count` equals the `+Inf`
///   bucket.
///
/// Returns the first malformation found, typed
/// ([`crate::TelemetryError::MalformedExposition`]); never panics.
pub fn validate_exposition(text: &str) -> Result<(), crate::TelemetryError> {
    validate_exposition_inner(text)
        .map_err(|detail| crate::TelemetryError::MalformedExposition { detail })
}

fn validate_exposition_inner(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct HistSeries {
        last_bucket: f64,
        bucket_lines: usize,
        saw_inf_last: bool,
        sum: Option<f64>,
        count: Option<f64>,
    }

    let mut histogram_types: Vec<String> = Vec::new();
    let mut hists: BTreeMap<(String, String), HistSeries> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown TYPE kind {kind:?}"));
                }
                if kind == "histogram" {
                    histogram_types.push(name.to_string());
                }
            }
            continue;
        }
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: no value on sample line {line:?}"))?;
        let name = &line[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let (labels, value_text) = if line[name_end..].starts_with('{') {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("line {lineno}: unclosed label braces"))?;
            if close < name_end {
                return Err(format!("line {lineno}: unclosed label braces"));
            }
            let labels = parse_labels(&line[name_end + 1..close])
                .map_err(|e| format!("line {lineno}: {e}"))?;
            (labels, line[close + 1..].trim())
        } else {
            (Vec::new(), line[name_end..].trim())
        };
        let value = parse_value(value_text)
            .ok_or_else(|| format!("line {lineno}: bad sample value {value_text:?}"))?;

        for base in &histogram_types {
            let suffix = &name[base.len().min(name.len())..];
            if !name.starts_with(base.as_str()) || !matches!(suffix, "_bucket" | "_sum" | "_count")
            {
                continue;
            }
            let series_labels: Vec<&(String, String)> =
                labels.iter().filter(|(k, _)| k != "le").collect();
            let series_key = (
                base.clone(),
                series_labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v},"))
                    .collect::<String>(),
            );
            let h = hists.entry(series_key).or_default();
            match suffix {
                "_bucket" => {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| format!("line {lineno}: {name} without an le label"))?;
                    if value < h.last_bucket {
                        return Err(format!(
                            "line {lineno}: {base} buckets not cumulative ({value} < {})",
                            h.last_bucket
                        ));
                    }
                    h.last_bucket = value;
                    h.bucket_lines += 1;
                    h.saw_inf_last = le == "+Inf";
                }
                "_sum" => h.sum = Some(value),
                "_count" => h.count = Some(value),
                // The suffix filter above admits only the three arms; a
                // no-op (rather than a panic) keeps the validator total.
                _ => {}
            }
            break;
        }
    }

    for ((name, labels), h) in &hists {
        let what = if labels.is_empty() {
            name.clone()
        } else {
            format!("{name}{{{labels}}}")
        };
        if h.bucket_lines == 0 {
            return Err(format!("histogram {what}: no _bucket samples"));
        }
        if !h.saw_inf_last {
            return Err(format!("histogram {what}: last bucket is not le=\"+Inf\""));
        }
        if h.sum.is_none() {
            return Err(format!("histogram {what}: missing _sum"));
        }
        match h.count {
            None => return Err(format!("histogram {what}: missing _count")),
            Some(c) if c != h.last_bucket => {
                return Err(format!(
                    "histogram {what}: _count {c} != +Inf bucket {}",
                    h.last_bucket
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn renders_all_three_kinds() {
        let tel = Telemetry::enabled();
        tel.counter_add("pareto_retries_total", &[("node", "2")], 3);
        tel.gauge_set("pareto_makespan_s", &[], 12.5);
        tel.observe("pareto_item_s", &[], 0.05, &[0.1, 1.0]);
        tel.observe("pareto_item_s", &[], 5.0, &[0.1, 1.0]);
        let text = prometheus_text(&tel.snapshot());
        assert!(text.contains("# TYPE pareto_retries_total counter"));
        assert!(text.contains("pareto_retries_total{node=\"2\"} 3"));
        assert!(text.contains("# TYPE pareto_makespan_s gauge"));
        assert!(text.contains("pareto_makespan_s 12.5"));
        assert!(text.contains("pareto_item_s_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("pareto_item_s_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pareto_item_s_count 2"));
    }

    #[test]
    fn buckets_are_cumulative() {
        let tel = Telemetry::enabled();
        for v in [0.05, 0.5, 2.0] {
            tel.observe("h_s", &[], v, &[0.1, 1.0]);
        }
        let text = prometheus_text(&tel.snapshot());
        assert!(text.contains("h_s_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("h_s_bucket{le=\"1.0\"} 2"));
        assert!(text.contains("h_s_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn exporter_output_passes_conformance() {
        let tel = Telemetry::enabled();
        tel.counter_add("pareto_retries_total", &[("node", "2")], 3);
        tel.gauge_set("pareto_makespan_s", &[], 12.5);
        for v in [0.05, 0.5, 2.0, -1.0, f64::NAN] {
            tel.observe("pareto_item_s", &[("stage", "exec")], v, &[0.1, 1.0]);
        }
        // Label values exercising every escape: backslash, quote, newline.
        tel.counter_add("pareto_paths_total", &[("path", "a\\b\"c\nd")], 1);
        let text = prometheus_text(&tel.snapshot());
        validate_exposition(&text).unwrap();
        assert!(text.contains("path=\"a\\\\b\\\"c\\nd\""));
    }

    #[test]
    fn malformed_exposition_text_is_rejected() {
        // Non-cumulative buckets.
        let bad_cumulative = "\
# TYPE h_s histogram
h_s_bucket{le=\"0.1\"} 3
h_s_bucket{le=\"+Inf\"} 1
h_s_sum 1.0
h_s_count 1
";
        assert!(validate_exposition(bad_cumulative)
            .unwrap_err()
            .to_string()
            .contains("not cumulative"));

        // Missing +Inf bucket.
        let no_inf = "\
# TYPE h_s histogram
h_s_bucket{le=\"0.1\"} 1
h_s_sum 1.0
h_s_count 1
";
        assert!(validate_exposition(no_inf)
            .unwrap_err()
            .to_string()
            .contains("+Inf"));

        // Missing _sum / _count.
        let no_sum = "\
# TYPE h_s histogram
h_s_bucket{le=\"+Inf\"} 1
h_s_count 1
";
        assert!(validate_exposition(no_sum)
            .unwrap_err()
            .to_string()
            .contains("_sum"));
        let no_count = "\
# TYPE h_s histogram
h_s_bucket{le=\"+Inf\"} 1
h_s_sum 1.0
";
        assert!(validate_exposition(no_count)
            .unwrap_err()
            .to_string()
            .contains("_count"));

        // _count disagreeing with the +Inf bucket.
        let bad_count = "\
# TYPE h_s histogram
h_s_bucket{le=\"+Inf\"} 2
h_s_sum 1.0
h_s_count 5
";
        assert!(validate_exposition(bad_count)
            .unwrap_err()
            .to_string()
            .contains("!= +Inf bucket"));

        // Unescaped quote inside a label value.
        assert!(validate_exposition("c_total{path=\"a\"b\"} 1\n").is_err());
        // Unquoted label value.
        assert!(validate_exposition("c_total{node=2} 1\n").is_err());
        // Garbage value.
        assert!(validate_exposition("c_total 1.2.3\n").is_err());
        // No value at all.
        assert!(validate_exposition("c_total\n").is_err());
    }

    #[test]
    fn empty_registry_exports_empty_and_valid() {
        let tel = Telemetry::enabled();
        let text = prometheus_text(&tel.snapshot());
        assert!(text.is_empty());
        validate_exposition(&text).unwrap();
    }
}
