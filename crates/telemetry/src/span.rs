//! Span and instant records.
//!
//! A *span* is a named interval on a *track* (the planner, the recovery
//! coordinator, or one cluster node), stamped in one of two clock domains:
//!
//! * [`ClockDomain::Sim`] — deterministic simulated seconds, used anywhere
//!   a simulated clock exists (the recovery executor, the cluster's job
//!   accounting). Sim-stamped spans are bit-identical across hosts and
//!   thread counts.
//! * [`ClockDomain::Wall`] — host wall-clock seconds since the recorder's
//!   epoch, used where no simulated clock exists (the planning pipeline).
//!   Wall-stamped spans are observational only and machine-dependent.
//!
//! Spans form a hierarchy through parent ids; exporters rebuild the tree
//! per track. *Instants* are zero-duration markers (a crash, a replan).

/// Identifier of a recorded span. `SpanId::NONE` (0) is returned by a
/// disabled recorder and means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no span / disabled recorder.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to a real recorded span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Which clock stamped a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Host wall clock, seconds since the recorder's epoch.
    Wall,
    /// Simulated clock, deterministic seconds.
    Sim,
}

impl ClockDomain {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ClockDomain::Wall => "wall",
            ClockDomain::Sim => "sim",
        }
    }
}

/// Where a record lives in the exported timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The planning pipeline (wall-clock domain).
    Planner,
    /// The recovery coordinator (replans, fault bookkeeping).
    Coordinator,
    /// One simulated cluster node.
    Node(usize),
}

impl Track {
    /// Stable label used by the exporters ("planner", "coordinator",
    /// "node3").
    pub fn label(&self) -> String {
        match self {
            Track::Planner => "planner".into(),
            Track::Coordinator => "coordinator".into(),
            Track::Node(i) => format!("node{i}"),
        }
    }
}

/// Key/value attributes attached to spans and instants.
pub type Attrs = Vec<(String, String)>;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (> 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Timeline this span belongs to.
    pub track: Track,
    /// Span name ("sketch", "exec", "transfer", …).
    pub name: String,
    /// Clock domain of `start_s`/`end_s`.
    pub domain: ClockDomain,
    /// Start, seconds in `domain`.
    pub start_s: f64,
    /// End, seconds in `domain` (`>= start_s`).
    pub end_s: f64,
    /// Attached attributes.
    pub attrs: Attrs,
}

/// One zero-duration marker.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRecord {
    /// Timeline this marker belongs to.
    pub track: Track,
    /// Marker name ("crash", "replan", …).
    pub name: String,
    /// Clock domain of `ts_s`.
    pub domain: ClockDomain,
    /// Timestamp, seconds in `domain`.
    pub ts_s: f64,
    /// Attached attributes.
    pub attrs: Attrs,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_labels_round_trip() {
        let tracks = [
            Track::Planner,
            Track::Coordinator,
            Track::Node(0),
            Track::Node(17),
        ];
        let labels: Vec<String> = tracks.iter().map(Track::label).collect();
        assert_eq!(labels, ["planner", "coordinator", "node0", "node17"]);
    }

    #[test]
    fn span_id_none_is_zero() {
        assert!(!SpanId::NONE.is_some());
        assert!(SpanId(3).is_some());
    }
}
