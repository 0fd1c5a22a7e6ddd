//! The structured JSON dump: every span, instant, metric series, and
//! captured event in one self-describing document (`version: 1`). This is
//! the format `paretofab report` consumes.

use crate::json::Value;
use crate::ledger::BusyInterval;
use crate::span::{InstantRecord, SpanRecord};
use crate::{Event, TelemetrySnapshot};

fn attrs_value(attrs: &[(String, String)]) -> Value {
    Value::Obj(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

pub(crate) fn span_value(s: &SpanRecord) -> Value {
    Value::obj(vec![
        ("id", Value::Num(s.id as f64)),
        (
            "parent",
            if s.parent == 0 {
                Value::Null
            } else {
                Value::Num(s.parent as f64)
            },
        ),
        ("track", Value::Str(s.track.label())),
        ("name", Value::Str(s.name.clone())),
        ("clock", Value::Str(s.domain.label().into())),
        ("start_s", Value::Num(s.start_s)),
        ("end_s", Value::Num(s.end_s)),
        ("attrs", attrs_value(&s.attrs)),
    ])
}

pub(crate) fn instant_value(i: &InstantRecord) -> Value {
    Value::obj(vec![
        ("track", Value::Str(i.track.label())),
        ("name", Value::Str(i.name.clone())),
        ("clock", Value::Str(i.domain.label().into())),
        ("ts_s", Value::Num(i.ts_s)),
        ("attrs", attrs_value(&i.attrs)),
    ])
}

fn ledger_value(iv: &BusyInterval) -> Value {
    Value::obj(vec![
        ("node", Value::Num(iv.node as f64)),
        ("stage", Value::Str(iv.stage.clone())),
        (
            "stratum",
            iv.stratum
                .map(|s| Value::Num(s as f64))
                .unwrap_or(Value::Null),
        ),
        ("start_s", Value::Num(iv.start_s)),
        ("end_s", Value::Num(iv.end_s)),
        ("busy0_s", Value::Num(iv.busy0_s)),
        ("busy1_s", Value::Num(iv.busy1_s)),
    ])
}

fn labels_value(labels: &[(String, String)]) -> Value {
    Value::Obj(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

/// Serialize a snapshot (plus any captured events) as the version-1 JSON
/// dump.
pub fn json_dump(snapshot: &TelemetrySnapshot, events: &[Event]) -> String {
    let reg = &snapshot.metrics;
    let counters = Value::Arr(
        reg.counters
            .iter()
            .map(|(k, v)| {
                Value::obj(vec![
                    ("name", Value::Str(k.name.clone())),
                    ("labels", labels_value(&k.labels)),
                    ("value", Value::Num(*v as f64)),
                ])
            })
            .collect(),
    );
    let gauges = Value::Arr(
        reg.gauges
            .iter()
            .map(|(k, v)| {
                Value::obj(vec![
                    ("name", Value::Str(k.name.clone())),
                    ("labels", labels_value(&k.labels)),
                    ("value", Value::Num(*v)),
                ])
            })
            .collect(),
    );
    let histograms = Value::Arr(
        reg.histograms
            .iter()
            .map(|(k, h)| {
                let buckets = Value::Arr(
                    h.counts
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            Value::obj(vec![
                                (
                                    "le",
                                    h.bounds
                                        .get(i)
                                        .map(|&b| Value::Num(b))
                                        .unwrap_or(Value::Null),
                                ),
                                ("count", Value::Num(c as f64)),
                            ])
                        })
                        .collect(),
                );
                Value::obj(vec![
                    ("name", Value::Str(k.name.clone())),
                    ("labels", labels_value(&k.labels)),
                    ("buckets", buckets),
                    ("sum", Value::Num(h.sum)),
                    ("count", Value::Num(h.count as f64)),
                ])
            })
            .collect(),
    );
    let events = Value::Arr(
        events
            .iter()
            .map(|e| {
                Value::obj(vec![
                    ("severity", Value::Str(e.severity.label().into())),
                    ("target", Value::Str(e.target.clone())),
                    ("message", Value::Str(e.message.clone())),
                ])
            })
            .collect(),
    );
    Value::obj(vec![
        ("version", Value::Num(1.0)),
        (
            "spans",
            Value::Arr(snapshot.spans.iter().map(span_value).collect()),
        ),
        (
            "instants",
            Value::Arr(snapshot.instants.iter().map(instant_value).collect()),
        ),
        (
            "ledger",
            Value::Arr(snapshot.ledger.iter().map(ledger_value).collect()),
        ),
        (
            "metrics",
            Value::obj(vec![
                ("counters", counters),
                ("gauges", gauges),
                ("histograms", histograms),
            ]),
        ),
        ("events", events),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, ClockDomain, Severity, SpanId, Telemetry, Track};

    #[test]
    fn dump_parses_and_carries_everything() {
        let tel = Telemetry::enabled();
        let root = tel.span(
            Track::Planner,
            "plan",
            ClockDomain::Wall,
            0.0,
            2.0,
            SpanId::NONE,
            vec![("records".into(), "100".into())],
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
        tel.instant(Track::Node(1), "crash", ClockDomain::Sim, 4.5, vec![]);
        tel.counter_add("c_total", &[("node", "1")], 2);
        tel.gauge_set("g", &[], 0.5);
        tel.observe("h_s", &[], 0.2, &[0.1, 1.0]);
        let events = [Event {
            severity: Severity::Warning,
            target: "estimator".into(),
            message: "degraded".into(),
        }];
        let text = json_dump(&tel.snapshot(), &events);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("version").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("instants").unwrap().as_arr().unwrap().len(), 1);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("counters").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(metrics.get("gauges").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            metrics.get("histograms").unwrap().as_arr().unwrap().len(),
            1
        );
        let events = doc.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("severity").unwrap().as_str(), Some("warning"));
        // Child span carries its parent id.
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(
            spans[1].get("parent").unwrap().as_f64(),
            spans[0].get("id").unwrap().as_f64()
        );
    }
}
