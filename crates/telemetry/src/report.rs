//! Parsing, validation, and human summaries of exported telemetry.
//!
//! `paretofab report` (and the CI telemetry job) use this module to prove
//! that exported artifacts are well-formed: the JSON parses, every chrome
//! track's timestamps are monotonically non-decreasing, and every `B` has
//! a matching `E` with the same name at the same nesting depth.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Value;
use crate::TelemetryError;

/// What a chrome-trace validation saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeStats {
    /// Total events (including metadata).
    pub events: usize,
    /// Matched B/E span pairs.
    pub span_pairs: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Distinct (pid, tid) tracks carrying events.
    pub tracks: usize,
}

/// Validate a parsed chrome-trace document: per-track monotonic `ts`,
/// matched/same-name `B`/`E` pairs, no unclosed spans. Malformations are
/// typed ([`TelemetryError::MalformedTrace`]), never panics.
pub fn validate_chrome_trace(doc: &Value) -> Result<ChromeStats, TelemetryError> {
    validate_chrome_trace_inner(doc).map_err(|detail| TelemetryError::MalformedTrace { detail })
}

fn validate_chrome_trace_inner(doc: &Value) -> Result<ChromeStats, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut stats = ChromeStats {
        events: events.len(),
        ..ChromeStats::default()
    };
    // Per (pid, tid): (last ts, stack of open B names).
    let mut track_state: BTreeMap<(u64, u64), (f64, Vec<String>)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp semantics
        }
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let pid = ev
            .get("pid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        let state = track_state
            .entry((pid, tid))
            .or_insert((f64::NEG_INFINITY, Vec::new()));
        if ts < state.0 {
            return Err(format!(
                "event {i} ({name:?}): ts {ts} goes backwards on track ({pid},{tid}) \
                 (previous {})",
                state.0
            ));
        }
        state.0 = ts;
        match ph {
            "B" => state.1.push(name.to_string()),
            "E" => {
                let open = state.1.pop().ok_or_else(|| {
                    format!("event {i} ({name:?}): E without open B on track ({pid},{tid})")
                })?;
                if open != name {
                    return Err(format!(
                        "event {i}: E {name:?} closes B {open:?} on track ({pid},{tid})"
                    ));
                }
                stats.span_pairs += 1;
            }
            "i" | "I" => stats.instants += 1,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for ((pid, tid), (_, stack)) in &track_state {
        if !stack.is_empty() {
            return Err(format!(
                "track ({pid},{tid}): {} unclosed span(s), first {:?}",
                stack.len(),
                stack[0]
            ));
        }
    }
    stats.tracks = track_state.len();
    Ok(stats)
}

/// What a dump validation saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DumpStats {
    /// Spans in the dump.
    pub spans: usize,
    /// Instant markers.
    pub instants: usize,
    /// Metric series (counters + gauges + histograms).
    pub series: usize,
    /// Captured events.
    pub events: usize,
}

/// Validate a parsed version-1 telemetry dump: required sections present,
/// spans well-formed (end ≥ start, known clock), parents resolvable.
/// Malformations are typed ([`TelemetryError::MalformedDump`]), never
/// panics.
pub fn validate_dump(doc: &Value) -> Result<DumpStats, TelemetryError> {
    validate_dump_inner(doc).map_err(|detail| TelemetryError::MalformedDump { detail })
}

fn validate_dump_inner(doc: &Value) -> Result<DumpStats, String> {
    if doc.get("version").and_then(|v| v.as_f64()) != Some(1.0) {
        return Err("not a version-1 telemetry dump".into());
    }
    let spans = doc
        .get("spans")
        .and_then(|v| v.as_arr())
        .ok_or("missing spans array")?;
    let mut ids = std::collections::BTreeSet::new();
    for (i, span) in spans.iter().enumerate() {
        let id = span
            .get("id")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("span {i}: missing id"))?;
        ids.insert(id as u64);
        let start = span
            .get("start_s")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("span {i}: missing start_s"))?;
        let end = span
            .get("end_s")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("span {i}: missing end_s"))?;
        if end < start {
            return Err(format!("span {i}: end {end} < start {start}"));
        }
        match span.get("clock").and_then(|v| v.as_str()) {
            Some("wall") | Some("sim") => {}
            other => return Err(format!("span {i}: bad clock {other:?}")),
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.get("parent").and_then(|v| v.as_f64()) {
            if !ids.contains(&(parent as u64)) {
                return Err(format!("span {i}: dangling parent {parent}"));
            }
        }
    }
    let instants = doc
        .get("instants")
        .and_then(|v| v.as_arr())
        .ok_or("missing instants array")?;
    let metrics = doc.get("metrics").ok_or("missing metrics object")?;
    let mut series = 0;
    for section in ["counters", "gauges", "histograms"] {
        series += metrics
            .get(section)
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("missing metrics.{section}"))?
            .len();
    }
    let events = doc
        .get("events")
        .and_then(|v| v.as_arr())
        .ok_or("missing events array")?;
    Ok(DumpStats {
        spans: spans.len(),
        instants: instants.len(),
        series,
        events: events.len(),
    })
}

/// Render a human summary of a validated dump: the span tree with
/// durations, top-level metrics, and captured warnings.
pub fn summarize_dump(doc: &Value) -> Result<String, TelemetryError> {
    let stats = validate_dump(doc)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry dump: {} spans, {} instants, {} metric series, {} events",
        stats.spans, stats.instants, stats.series, stats.events
    );

    // Span forest, grouped per track.
    let spans = doc.get("spans").and_then(|v| v.as_arr()).unwrap_or(&[]);
    let mut by_track: BTreeMap<&str, Vec<&Value>> = BTreeMap::new();
    for span in spans {
        let track = span.get("track").and_then(|v| v.as_str()).unwrap_or("?");
        by_track.entry(track).or_default().push(span);
    }
    let all_instants = doc.get("instants").and_then(|v| v.as_arr()).unwrap_or(&[]);
    for inst in all_instants {
        let track = inst.get("track").and_then(|v| v.as_str()).unwrap_or("?");
        by_track.entry(track).or_default();
    }
    for (track, spans) in &by_track {
        let _ = writeln!(out, "\n[{track}]");
        let mut children: BTreeMap<u64, Vec<&Value>> = BTreeMap::new();
        let mut roots: Vec<&Value> = Vec::new();
        for span in spans {
            match span.get("parent").and_then(|v| v.as_f64()) {
                Some(p) => children.entry(p as u64).or_default().push(span),
                None => roots.push(span),
            }
        }
        fn emit(
            span: &Value,
            depth: usize,
            children: &BTreeMap<u64, Vec<&Value>>,
            out: &mut String,
        ) {
            let name = span.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let start = span.get("start_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let end = span.get("end_s").and_then(|v| v.as_f64()).unwrap_or(start);
            let clock = span.get("clock").and_then(|v| v.as_str()).unwrap_or("?");
            let _ = writeln!(
                out,
                "{:indent$}{name}  {:.6}s..{:.6}s  ({:.6}s, {clock})",
                "",
                start,
                end,
                end - start,
                indent = 2 * depth
            );
            let id = span.get("id").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            if let Some(kids) = children.get(&id) {
                for kid in kids {
                    emit(kid, depth + 1, children, out);
                }
            }
        }
        for root in roots {
            emit(root, 1, &children, &mut out);
        }
        let instants = doc.get("instants").and_then(|v| v.as_arr()).unwrap_or(&[]);
        for inst in instants {
            if inst.get("track").and_then(|v| v.as_str()) == Some(track) {
                let name = inst.get("name").and_then(|v| v.as_str()).unwrap_or("?");
                let ts = inst.get("ts_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let _ = writeln!(out, "  ! {name} @ {ts:.6}s");
            }
        }
    }

    // Counters and gauges, flat.
    if let Some(metrics) = doc.get("metrics") {
        let _ = writeln!(out, "\n[metrics]");
        for section in ["counters", "gauges"] {
            for m in metrics.get(section).and_then(|v| v.as_arr()).unwrap_or(&[]) {
                let name = m.get("name").and_then(|v| v.as_str()).unwrap_or("?");
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let labels = match m.get("labels") {
                    Some(Value::Obj(map)) if !map.is_empty() => {
                        let pairs: Vec<String> = map
                            .iter()
                            .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                            .collect();
                        format!("{{{}}}", pairs.join(","))
                    }
                    _ => String::new(),
                };
                let _ = writeln!(out, "  {name}{labels} = {value}");
            }
        }
        for m in metrics
            .get("histograms")
            .and_then(|v| v.as_arr())
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let count = m.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let sum = m.get("sum").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let _ = writeln!(out, "  {name} histogram: count={count} sum={sum:.6}");
        }
    }

    // Energy-ledger intervals, when the dump carries any.
    let ledger = doc.get("ledger").and_then(|v| v.as_arr()).unwrap_or(&[]);
    if !ledger.is_empty() {
        let _ = writeln!(out, "\n[ledger]");
        let mut busy_by_stage: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        for iv in ledger {
            let stage = iv
                .get("stage")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            let b0 = iv.get("busy0_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let b1 = iv.get("busy1_s").and_then(|v| v.as_f64()).unwrap_or(b0);
            let slot = busy_by_stage.entry(stage).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += b1 - b0;
        }
        for (stage, (n, busy)) in &busy_by_stage {
            let _ = writeln!(out, "  {stage}: {n} interval(s), {busy:.6}s busy");
        }
    }

    // Captured warnings last — the part humans scan for.
    let events = doc.get("events").and_then(|v| v.as_arr()).unwrap_or(&[]);
    if !events.is_empty() {
        let _ = writeln!(out, "\n[events]");
        for ev in events {
            let severity = ev.get("severity").and_then(|v| v.as_str()).unwrap_or("?");
            let target = ev.get("target").and_then(|v| v.as_str()).unwrap_or("?");
            let message = ev.get("message").and_then(|v| v.as_str()).unwrap_or("");
            let _ = writeln!(out, "  [{severity}] {target}: {message}");
        }
    }
    Ok(out)
}

/// Reconstruct one item-batch's journey from a dump's `lineage` instants:
/// every hop the batch's items took (placement, crash redistribution,
/// steal, elastic handoff, …), in causal recording order. Errors when the
/// dump carries no lineage records for the batch — either the batch id is
/// unknown or the run wasn't traced
/// ([`TelemetryError::LineageNotFound`]).
pub fn lineage_chain(doc: &Value, batch: u32) -> Result<String, TelemetryError> {
    let instants =
        doc.get("instants")
            .and_then(|v| v.as_arr())
            .ok_or(TelemetryError::MalformedDump {
                detail: "missing instants array".into(),
            })?;
    let want = batch.to_string();
    let mut out = String::new();
    let mut hops = 0usize;
    for inst in instants {
        if inst.get("name").and_then(|v| v.as_str()) != Some("lineage") {
            continue;
        }
        let attrs = inst.get("attrs");
        let attr = |k: &str| {
            attrs
                .and_then(|a| a.get(k))
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        if attr("batch") != want {
            continue;
        }
        let ts = inst.get("ts_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "hop {}: {} {} -> {} ({} items) @ {:.6}s",
            attr("hop"),
            attr("kind"),
            attr("from"),
            attr("to"),
            attr("items"),
            ts
        );
        hops += 1;
    }
    if hops == 0 {
        return Err(TelemetryError::LineageNotFound { batch });
    }
    Ok(format!(
        "lineage of batch {batch}: {hops} hop group(s)\n{out}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{chrome_trace, json_dump};
    use crate::{json, ClockDomain, SpanId, Telemetry, Track};

    fn sample() -> crate::TelemetrySnapshot {
        let tel = Telemetry::enabled();
        let root = tel.span(
            Track::Planner,
            "plan",
            ClockDomain::Wall,
            0.0,
            3.0,
            SpanId::NONE,
            vec![],
        );
        tel.span(
            Track::Planner,
            "sketch",
            ClockDomain::Wall,
            0.0,
            1.0,
            root,
            vec![],
        );
        tel.instant(Track::Node(0), "crash", ClockDomain::Sim, 1.5, vec![]);
        tel.counter_add("c_total", &[], 1);
        tel.snapshot()
    }

    #[test]
    fn valid_dump_passes_and_summarizes() {
        let dump = json_dump(&sample(), &[]);
        let doc = json::parse(&dump).unwrap();
        let stats = validate_dump(&doc).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.series, 1);
        let summary = summarize_dump(&doc).unwrap();
        assert!(summary.contains("[planner]"));
        assert!(summary.contains("sketch"));
        assert!(summary.contains("! crash"));
        assert!(summary.contains("c_total = 1"));
    }

    #[test]
    fn chrome_validator_rejects_backwards_ts() {
        let doc = json::parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","ts":10.0,"pid":1,"tid":1},
                {"name":"a","ph":"E","ts":5.0,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&doc).unwrap_err();
        assert!(err.to_string().contains("backwards"), "{err}");
    }

    #[test]
    fn chrome_validator_rejects_mismatched_pairs() {
        let doc = json::parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1},
                {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
        let doc =
            json::parse(r#"{"traceEvents":[{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1}]}"#)
                .unwrap();
        let err = validate_chrome_trace(&doc).unwrap_err();
        assert!(err.to_string().contains("unclosed"), "{err}");
        let doc =
            json::parse(r#"{"traceEvents":[{"name":"a","ph":"E","ts":1.0,"pid":1,"tid":1}]}"#)
                .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
    }

    #[test]
    fn exported_trace_validates() {
        let trace = chrome_trace(&sample());
        let doc = json::parse(&trace).unwrap();
        let stats = validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.span_pairs, 2);
        assert_eq!(stats.instants, 1);
    }

    #[test]
    fn lineage_chain_renders_hops_in_order() {
        let tel = Telemetry::enabled();
        let hop = |hop: u32, kind: &str, from: &str, to: &str, items: u32, ts: f64| {
            tel.instant(
                Track::Coordinator,
                "lineage",
                ClockDomain::Sim,
                ts,
                vec![
                    ("batch".into(), "3".into()),
                    ("hop".into(), hop.to_string()),
                    ("kind".into(), kind.into()),
                    ("from".into(), from.into()),
                    ("to".into(), to.into()),
                    ("items".into(), items.to_string()),
                ],
            );
        };
        hop(0, "place", "-", "node1", 5, 0.0);
        hop(1, "redistribute", "node1", "node0", 3, 2.5);
        hop(2, "steal", "node0", "node2", 1, 4.0);
        // Another batch's hop must not leak in.
        tel.instant(
            Track::Coordinator,
            "lineage",
            ClockDomain::Sim,
            1.0,
            vec![("batch".into(), "9".into()), ("hop".into(), "0".into())],
        );
        let dump = json_dump(&tel.snapshot(), &[]);
        let doc = json::parse(&dump).unwrap();
        let chain = lineage_chain(&doc, 3).unwrap();
        assert!(chain.starts_with("lineage of batch 3: 3 hop group(s)"));
        let p0 = chain.find("hop 0: place - -> node1 (5 items)").unwrap();
        let p1 = chain
            .find("hop 1: redistribute node1 -> node0 (3 items)")
            .unwrap();
        let p2 = chain.find("hop 2: steal node0 -> node2 (1 items)").unwrap();
        assert!(p0 < p1 && p1 < p2);
        assert!(lineage_chain(&doc, 42).is_err());
    }

    #[test]
    fn summary_includes_ledger_section() {
        let tel = Telemetry::enabled();
        tel.ledger_interval(0, "exec", Some(1), 0.0, 2.0, 0.0, 2.0);
        tel.ledger_interval(0, "transfer", None, 2.0, 2.5, 2.0, 2.5);
        let dump = json_dump(&tel.snapshot(), &[]);
        let doc = json::parse(&dump).unwrap();
        let summary = summarize_dump(&doc).unwrap();
        assert!(summary.contains("[ledger]"));
        assert!(summary.contains("exec: 1 interval(s), 2.000000s busy"));
        assert!(summary.contains("transfer: 1 interval(s), 0.500000s busy"));
    }

    #[test]
    fn dump_validator_rejects_dangling_parent() {
        let doc = json::parse(
            r#"{"version":1,"spans":[{"id":1,"parent":99,"track":"planner","name":"x",
                "clock":"wall","start_s":0.0,"end_s":1.0,"attrs":{}}],
                "instants":[],"metrics":{"counters":[],"gauges":[],"histograms":[]},
                "events":[]}"#,
        )
        .unwrap();
        let err = validate_dump(&doc).unwrap_err();
        assert!(err.to_string().contains("dangling"), "{err}");
    }
}
