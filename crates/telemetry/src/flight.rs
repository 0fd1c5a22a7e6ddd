//! Flight recorder: a bounded ring buffer of recent spans, instants, and
//! events that dumps a deterministic JSON "black box" when something goes
//! wrong (a `PlanError`, an audit violation, a chaos minimal-spec
//! discovery).
//!
//! The recorder is observational only — it subscribes to the same event
//! stream and snapshot data every exporter sees, holds at most `capacity`
//! frames (oldest dropped first), and nothing reads it back on the
//! decision path, so it inherits the telemetry layer's inertness
//! guarantee. Determinism: frames are pushed from serial code (the event
//! sink and post-run snapshot drains), so the ring's order — and therefore
//! the dumped JSON — is a pure function of the run.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::event::{Event, EventSink};
use crate::export::json_dump::{instant_value, span_value};
use crate::json::Value;
use crate::span::{InstantRecord, SpanRecord};
use crate::TelemetrySnapshot;

/// One frame in the ring.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightFrame {
    /// A closed span.
    Span(SpanRecord),
    /// A zero-duration marker.
    Instant(InstantRecord),
    /// A structured event.
    Event(Event),
}

struct Inner {
    frames: VecDeque<FlightFrame>,
    /// Total frames ever pushed (so a dump can say how many were dropped).
    pushed: u64,
}

/// The bounded ring buffer. Cheap to share behind an `Arc`; safe to use
/// as the process event sink.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                frames: VecDeque::new(),
                pushed: 0,
            }),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push one frame, evicting the oldest when full.
    pub fn push(&self, frame: FlightFrame) {
        let mut inner = self.inner.lock();
        if inner.frames.len() == self.capacity {
            inner.frames.pop_front();
        }
        inner.frames.push_back(frame);
        inner.pushed += 1;
    }

    /// Drain a telemetry snapshot into the ring: spans first, then
    /// instants, each in their deterministic recording order. Called at
    /// dump time so the black box carries the freshest simulated-timeline
    /// state next to the live event stream.
    pub fn absorb_snapshot(&self, snapshot: &TelemetrySnapshot) {
        for s in &snapshot.spans {
            self.push(FlightFrame::Span(s.clone()));
        }
        for i in &snapshot.instants {
            self.push(FlightFrame::Instant(i.clone()));
        }
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().frames.is_empty()
    }

    /// Total frames ever pushed (held + dropped).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().pushed
    }

    /// Serialize the ring as the flight-recorder JSON document.
    pub fn dump_json(&self, reason: &str) -> String {
        let inner = self.inner.lock();
        let frames = Value::Arr(
            inner
                .frames
                .iter()
                .map(|f| match f {
                    FlightFrame::Span(s) => Value::obj(vec![
                        ("type", Value::Str("span".into())),
                        ("data", span_value(s)),
                    ]),
                    FlightFrame::Instant(i) => Value::obj(vec![
                        ("type", Value::Str("instant".into())),
                        ("data", instant_value(i)),
                    ]),
                    FlightFrame::Event(e) => Value::obj(vec![
                        ("type", Value::Str("event".into())),
                        (
                            "data",
                            Value::obj(vec![
                                ("severity", Value::Str(e.severity.label().into())),
                                ("target", Value::Str(e.target.clone())),
                                ("message", Value::Str(e.message.clone())),
                            ]),
                        ),
                    ]),
                })
                .collect(),
        );
        let dropped = inner.pushed - inner.frames.len() as u64;
        Value::obj(vec![
            ("version", Value::Num(1.0)),
            ("kind", Value::Str("flight-recorder".into())),
            ("reason", Value::Str(reason.into())),
            ("capacity", Value::Num(self.capacity as f64)),
            ("pushed", Value::Num(inner.pushed as f64)),
            ("dropped", Value::Num(dropped as f64)),
            ("frames", frames),
        ])
        .to_json()
    }
}

impl EventSink for FlightRecorder {
    fn emit(&self, event: &Event) {
        self.push(FlightFrame::Event(event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Severity;
    use crate::{json, ClockDomain, SpanId, Telemetry, Track};

    fn event(n: u64) -> Event {
        Event {
            severity: Severity::Warning,
            target: "test".into(),
            message: format!("event {n}"),
        }
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let fr = FlightRecorder::new(3);
        for n in 0..5 {
            fr.push(FlightFrame::Event(event(n)));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.pushed(), 5);
        let text = fr.dump_json("test");
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("dropped").unwrap().as_f64(), Some(2.0));
        let frames = doc.get("frames").unwrap().as_arr().unwrap();
        assert_eq!(frames.len(), 3);
        // Oldest two evicted: the tail starts at event 2.
        assert_eq!(
            frames[0]
                .get("data")
                .unwrap()
                .get("message")
                .unwrap()
                .as_str(),
            Some("event 2")
        );
    }

    #[test]
    fn absorb_snapshot_carries_spans_then_instants() {
        let tel = Telemetry::enabled();
        tel.span(
            Track::Node(0),
            "exec",
            ClockDomain::Sim,
            0.0,
            1.0,
            SpanId::NONE,
            vec![],
        );
        tel.instant(Track::Coordinator, "replan", ClockDomain::Sim, 0.5, vec![]);
        let fr = FlightRecorder::new(16);
        fr.absorb_snapshot(&tel.snapshot());
        let doc = json::parse(&fr.dump_json("unit")).unwrap();
        let frames = doc.get("frames").unwrap().as_arr().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].get("type").unwrap().as_str(), Some("span"));
        assert_eq!(frames[1].get("type").unwrap().as_str(), Some("instant"));
        assert_eq!(
            frames[1].get("data").unwrap().get("name").unwrap().as_str(),
            Some("replan")
        );
    }

    #[test]
    fn dump_is_deterministic_and_carries_reason() {
        let build = || {
            let fr = FlightRecorder::new(4);
            fr.emit(&event(1));
            fr.emit(&event(2));
            fr.dump_json("audit-violation")
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        let doc = json::parse(&a).unwrap();
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("audit-violation"));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("flight-recorder"));
    }

    #[test]
    fn capacity_floor_is_one() {
        let fr = FlightRecorder::new(0);
        fr.emit(&event(1));
        fr.emit(&event(2));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.capacity(), 1);
    }
}
