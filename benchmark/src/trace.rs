//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! a layer; nothing inside the program is instrumented. A recorder that is
//! off costs one branch per span, so the same workload code runs traced
//! and untraced and the difference between the two runs is the tracing
//! overhead. Spans stay in memory and are written out once, at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run; never 0.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The root span's id: spans of one operation share it.
    pub op: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span and count recorder for one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    /// Ids of the currently open spans, outermost first.
    open: Vec<u64>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    /// A recording recorder. `epoch` is shared by the recorders of one
    /// run so their stamps are comparable; `lane` keeps ids of different
    /// threads' recorders apart.
    pub fn on(epoch: Instant, lane: u32) -> Self {
        Self::new(true, epoch, lane)
    }

    fn new(on: bool, epoch: Instant, lane: u32) -> Self {
        Tracer {
            on,
            epoch,
            next_id: u64::from(lane) << 32,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A recorder for another thread of the same run: same on/off state
    /// and epoch, ids in lane `lane`. Fold it back with [`Tracer::absorb`].
    pub fn fork(&self, lane: u32) -> Tracer {
        Self::new(self.on, self.epoch, lane)
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the recorder so it can open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.open.last().copied().unwrap_or(0);
        let op = self.open.first().copied().unwrap_or(id);
        self.open.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Add to a count taken at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Fold another thread's recorder into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, n) in other.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the part its children cover
    /// (children of one parent never overlap — a recorder is one thread).
    pub fn self_ns(&self) -> BTreeMap<u64, u64> {
        let mut own: BTreeMap<u64, u64> = self
            .spans
            .iter()
            .map(|s| (s.id, s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(parent) = own.get_mut(&s.parent) {
                *parent = parent.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per span name: `(count, total seconds, total self seconds)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let own = self.self_ns();
        let mut rows: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let row = rows.entry(s.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += s.seconds();
            row.2 += own[&s.id] as f64 * 1e-9;
        }
        rows
    }

    /// The whole trace as one JSON document (see the README for the
    /// field meanings).
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(s.id as f64)),
                    ("parent".into(), Value::Num(s.parent as f64)),
                    ("op".into(), Value::Num(s.op as f64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::Num(s.start_ns as f64)),
                    ("end_ns".into(), Value::Num(s.end_ns as f64)),
                    ("self_ns".into(), Value::Num(own[&s.id] as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
            .collect();
        Value::Obj(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::Num(seed as f64)),
            ("spans".into(), Value::Arr(spans)),
            ("counts".into(), Value::Obj(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_parents_and_share_the_op() {
        let mut tr = Tracer::on(Instant::now(), 0);
        tr.span("op", |tr| {
            tr.span("plan", |tr| tr.span("lp", |_| ()));
            tr.span("check", |_| ());
        });
        tr.span("op", |_| ());
        let by_name = |n: &str| tr.spans().iter().find(|s| s.name == n).unwrap().clone();
        let (op, plan, lp, check) = (
            by_name("op"),
            by_name("plan"),
            by_name("lp"),
            by_name("check"),
        );
        assert_eq!(op.parent, 0);
        assert_eq!(plan.parent, op.id);
        assert_eq!(lp.parent, plan.id);
        assert_eq!(check.parent, op.id);
        assert!([&plan, &lp, &check].iter().all(|s| s.op == op.id));
        let second = tr.spans().last().unwrap();
        assert_eq!((second.parent, second.op), (0, second.id));
        assert!(plan.start_ns >= op.start_ns && plan.end_ns <= op.end_ns);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on(Instant::now(), 0);
        tr.span("op", |tr| {
            tr.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = tr.self_ns();
        let op = tr.spans().iter().find(|s| s.name == "op").unwrap();
        let child = tr.spans().iter().find(|s| s.name == "child").unwrap();
        assert_eq!(own[&child.id], child.end_ns - child.start_ns);
        assert_eq!(
            own[&op.id],
            (op.end_ns - op.start_ns) - (child.end_ns - child.start_ns)
        );
    }

    #[test]
    fn off_recorder_records_nothing_and_lanes_do_not_collide() {
        let mut off = Tracer::off();
        assert_eq!(off.span("op", |tr| tr.span("x", |_| 7)), 7);
        off.count("c", 3);
        assert!(off.spans().is_empty());
        assert!(off
            .to_json("w", 1)
            .get("counts")
            .unwrap()
            .members()
            .unwrap()
            .is_empty());

        let mut a = Tracer::on(Instant::now(), 1);
        let mut b = a.fork(2);
        a.span("op", |_| ());
        b.span("op", |_| ());
        a.count("c", 1);
        b.count("c", 2);
        a.absorb(b);
        assert_eq!(a.spans().len(), 2);
        assert_ne!(a.spans()[0].id, a.spans()[1].id);
        assert_eq!(
            a.to_json("w", 1)
                .get("counts")
                .unwrap()
                .get("c")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }
}
