//! Chrome `trace_event` exporter.
//!
//! Produces a JSON object trace (`{"traceEvents": [...]}`) that loads
//! directly in `about:tracing` or <https://ui.perfetto.dev>. Two
//! synthetic processes keep the clock domains apart (mixing them on one
//! timeline would be meaningless):
//!
//! * pid 1 — "planning (wall clock)": the planner track.
//! * pid 2 — "cluster (sim clock)": the coordinator track plus one thread
//!   per node.
//!
//! Spans are emitted as matched `B`/`E` pairs (depth-first over the
//! parent forest of each track, so nesting is explicit), instants as `i`
//! events, and tracks are named through `M` metadata events. Within a
//! track, events are merged in non-decreasing timestamp order — the
//! property the `report` validator re-checks on the way back in.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::span::{ClockDomain, SpanRecord, Track};
use crate::TelemetrySnapshot;

/// Chrome pid for wall-clock tracks.
const PID_WALL: u64 = 1;
/// Chrome pid for sim-clock tracks.
const PID_SIM: u64 = 2;

fn pid_tid(track: Track, domain: ClockDomain) -> (u64, u64) {
    let pid = match domain {
        ClockDomain::Wall => PID_WALL,
        ClockDomain::Sim => PID_SIM,
    };
    let tid = match track {
        Track::Planner => 1,
        Track::Coordinator => 1,
        Track::Node(i) => 10 + i as u64,
    };
    (pid, tid)
}

fn micros(seconds: f64) -> f64 {
    seconds * 1e6
}

fn args_value(attrs: &[(String, String)]) -> Value {
    Value::Obj(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

struct ChromeEvent {
    ts_us: f64,
    value: Value,
}

fn span_event(span: &SpanRecord, ph: &str) -> ChromeEvent {
    let (pid, tid) = pid_tid(span.track, span.domain);
    let ts_us = micros(if ph == "B" { span.start_s } else { span.end_s });
    let mut fields = vec![
        ("name", Value::Str(span.name.clone())),
        ("cat", Value::Str(span.domain.label().into())),
        ("ph", Value::Str(ph.into())),
        ("ts", Value::Num(ts_us)),
        ("pid", Value::Num(pid as f64)),
        ("tid", Value::Num(tid as f64)),
    ];
    if ph == "B" && !span.attrs.is_empty() {
        fields.push(("args", args_value(&span.attrs)));
    }
    ChromeEvent {
        ts_us,
        value: Value::obj(fields),
    }
}

/// Emit one track's spans depth-first as B/E pairs. `children` maps a
/// span's position to its child positions (sorted by start time), `roots`
/// are the track's parentless spans.
fn emit_spans(
    spans: &[&SpanRecord],
    roots: &[usize],
    children: &BTreeMap<usize, Vec<usize>>,
    out: &mut Vec<ChromeEvent>,
) {
    fn visit(
        idx: usize,
        spans: &[&SpanRecord],
        children: &BTreeMap<usize, Vec<usize>>,
        out: &mut Vec<ChromeEvent>,
    ) {
        out.push(span_event(spans[idx], "B"));
        if let Some(kids) = children.get(&idx) {
            for &kid in kids {
                visit(kid, spans, children, out);
            }
        }
        out.push(span_event(spans[idx], "E"));
    }
    for &root in roots {
        visit(root, spans, children, out);
    }
}

/// Render the snapshot as a chrome-trace JSON document.
pub fn chrome_trace(snapshot: &TelemetrySnapshot) -> String {
    let mut events: Vec<Value> = Vec::new();

    // Group spans and instants by (track, domain) so each chrome (pid,
    // tid) timeline is assembled — and ordered — independently.
    let mut tracks: BTreeMap<(u64, u64), (Track, ClockDomain)> = BTreeMap::new();
    let mut spans_by_track: BTreeMap<(u64, u64), Vec<&SpanRecord>> = BTreeMap::new();
    for span in &snapshot.spans {
        let key = pid_tid(span.track, span.domain);
        tracks.entry(key).or_insert((span.track, span.domain));
        spans_by_track.entry(key).or_default().push(span);
    }
    let mut instants_by_track: BTreeMap<(u64, u64), Vec<ChromeEvent>> = BTreeMap::new();
    for inst in &snapshot.instants {
        let key = pid_tid(inst.track, inst.domain);
        tracks.entry(key).or_insert((inst.track, inst.domain));
        let (pid, tid) = key;
        let ts_us = micros(inst.ts_s);
        let mut fields = vec![
            ("name", Value::Str(inst.name.clone())),
            ("cat", Value::Str(inst.domain.label().into())),
            ("ph", Value::Str("i".into())),
            ("ts", Value::Num(ts_us)),
            ("pid", Value::Num(pid as f64)),
            ("tid", Value::Num(tid as f64)),
            ("s", Value::Str("t".into())),
        ];
        if !inst.attrs.is_empty() {
            fields.push(("args", args_value(&inst.attrs)));
        }
        instants_by_track.entry(key).or_default().push(ChromeEvent {
            ts_us,
            value: Value::obj(fields),
        });
    }

    // Process / thread naming metadata.
    let mut seen_pids = Vec::new();
    for (&(pid, tid), &(track, _)) in &tracks {
        if !seen_pids.contains(&pid) {
            seen_pids.push(pid);
            let pname = if pid == PID_WALL {
                "planning (wall clock)"
            } else {
                "cluster (sim clock)"
            };
            events.push(Value::obj(vec![
                ("name", Value::Str("process_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::Num(pid as f64)),
                ("tid", Value::Num(0.0)),
                ("args", Value::obj(vec![("name", Value::Str(pname.into()))])),
            ]));
        }
        events.push(Value::obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Num(pid as f64)),
            ("tid", Value::Num(tid as f64)),
            (
                "args",
                Value::obj(vec![("name", Value::Str(track.label()))]),
            ),
        ]));
    }

    for &key in tracks.keys() {
        let spans = spans_by_track.remove(&key).unwrap_or_default();
        // Rebuild the parent forest inside this track. Parent references
        // pointing outside the track (or unrecorded) degrade to roots.
        let id_to_idx: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut roots: Vec<usize> = Vec::new();
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            match id_to_idx.get(&span.parent) {
                Some(&p) if span.parent != 0 => children.entry(p).or_default().push(i),
                _ => roots.push(i),
            }
        }
        let by_start = |list: &mut Vec<usize>| {
            list.sort_by(|&a, &b| {
                spans[a]
                    .start_s
                    .total_cmp(&spans[b].start_s)
                    .then(spans[a].id.cmp(&spans[b].id))
            });
        };
        by_start(&mut roots);
        for kids in children.values_mut() {
            by_start(kids);
        }
        let mut span_events = Vec::new();
        emit_spans(&spans, &roots, &children, &mut span_events);

        // Merge instants by timestamp (stable: span events first on ties,
        // so an instant recorded at a span boundary lands inside it).
        let mut instants = instants_by_track.remove(&key).unwrap_or_default();
        instants.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        let mut merged: Vec<ChromeEvent> = Vec::with_capacity(span_events.len() + instants.len());
        let mut ii = instants.into_iter().peekable();
        for ev in span_events {
            while let Some(inst) = ii.next_if(|inst| inst.ts_us < ev.ts_us) {
                merged.push(inst);
            }
            merged.push(ev);
        }
        merged.extend(ii);
        events.extend(merged.into_iter().map(|e| e.value));
    }

    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_chrome_trace;
    use crate::{json, SpanId, Telemetry};

    #[test]
    fn nested_and_sequential_spans_emit_matched_pairs() {
        let tel = Telemetry::enabled();
        let root = tel.span(
            Track::Planner,
            "plan",
            ClockDomain::Wall,
            0.0,
            4.0,
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
        tel.span(
            Track::Planner,
            "stratify",
            ClockDomain::Wall,
            1.0,
            2.0,
            root,
            vec![],
        );
        tel.span(
            Track::Node(0),
            "exec",
            ClockDomain::Sim,
            0.0,
            2.0,
            SpanId::NONE,
            vec![],
        );
        tel.span(
            Track::Node(0),
            "exec",
            ClockDomain::Sim,
            2.0,
            3.0,
            SpanId::NONE,
            vec![],
        );
        tel.instant(Track::Node(0), "crash", ClockDomain::Sim, 2.5, vec![]);
        let text = chrome_trace(&tel.snapshot());
        let doc = json::parse(&text).unwrap();
        let stats = validate_chrome_trace(&doc).expect("well-formed trace");
        assert_eq!(stats.span_pairs, 5);
        assert_eq!(stats.instants, 1);
        assert!(stats.tracks >= 2);
    }

    #[test]
    fn instants_land_in_timestamp_order() {
        let tel = Telemetry::enabled();
        // Recorded out of order on purpose: the exporter must sort.
        tel.instant(Track::Coordinator, "replan", ClockDomain::Sim, 5.0, vec![]);
        tel.instant(Track::Coordinator, "replan", ClockDomain::Sim, 2.0, vec![]);
        let text = chrome_trace(&tel.snapshot());
        let doc = json::parse(&text).unwrap();
        validate_chrome_trace(&doc).expect("well-formed trace");
    }

    #[test]
    fn cross_track_parent_degrades_to_root() {
        let tel = Telemetry::enabled();
        let planner = tel.span(
            Track::Planner,
            "plan",
            ClockDomain::Wall,
            0.0,
            1.0,
            SpanId::NONE,
            vec![],
        );
        // Parent lives on another track: must not corrupt nesting.
        tel.span(
            Track::Node(0),
            "exec",
            ClockDomain::Sim,
            0.0,
            1.0,
            planner,
            vec![],
        );
        let text = chrome_trace(&tel.snapshot());
        let doc = json::parse(&text).unwrap();
        let stats = validate_chrome_trace(&doc).expect("well-formed trace");
        assert_eq!(stats.span_pairs, 2);
    }
}
