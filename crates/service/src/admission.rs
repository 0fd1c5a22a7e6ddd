//! Admission control: a bounded queue with deterministic load-shedding,
//! and the [`Dispatcher`] that pairs it with the in-flight table.
//!
//! Both are pure state machines over caller-held locks — no threads, no
//! clocks, no transport — so the deterministic soak harness and the live
//! thread-pool server drive the *same* dispatcher type: the live server
//! holds one behind a `Mutex`/`Condvar` pair ([`crate::server`]), the soak
//! harness holds one directly in its single-threaded event loop.
//!
//! Shedding is *synchronous and typed*: a submission to a full queue
//! comes straight back as [`Submitted::Shed`] — the caller answers the
//! client with a [`crate::proto::Response::Shed`] right away. A client can
//! always distinguish "rejected under load" from "still waiting"; nothing
//! ever hangs on a full queue.

use std::collections::{BTreeMap, VecDeque};

/// Outcome of offering a request to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission<T> {
    /// Enqueued; position is the depth at admission (0 = next to run).
    Queued {
        /// Queue depth before this item was appended.
        position: usize,
    },
    /// Rejected: the queue was at capacity. The item comes back so the
    /// caller can answer its client with a typed shed.
    Shed {
        /// The rejected item.
        item: T,
        /// The capacity (== observed depth) at rejection.
        queue_depth: usize,
    },
}

/// A capacity-bounded FIFO.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Total items ever admitted.
    pub admitted: u64,
    /// Total offers rejected.
    pub shed: u64,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items (floored to 1:
    /// a zero-capacity queue would shed every request unconditionally,
    /// which is a misconfiguration, not a policy).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            admitted: 0,
            shed: 0,
        }
    }

    /// Offer an item: enqueue or shed, never block.
    pub fn offer(&mut self, item: T) -> Admission<T> {
        if self.items.len() >= self.capacity {
            self.shed += 1;
            return Admission::Shed { item, queue_depth: self.items.len() };
        }
        let position = self.items.len();
        self.items.push_back(item);
        self.admitted += 1;
        Admission::Queued { position }
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// What [`Dispatcher::submit`] did with a request.
#[derive(Debug, PartialEq, Eq)]
pub enum Submitted<T> {
    /// Identical work is already queued or executing: the request waits
    /// for that leader's answer and takes no queue slot.
    Folded,
    /// Admitted as a leader: [`Dispatcher::next_leader`] will hand it to a
    /// worker.
    Queued,
    /// The queue was at capacity: the request comes back to be answered
    /// with a typed shed. Its work key is not left in flight.
    Shed {
        /// The rejected request.
        item: T,
        /// The capacity (== observed depth) at rejection.
        queue_depth: usize,
    },
}

/// The admission state machine: the bounded queue of leaders waiting for
/// a worker plus the in-flight table of the followers folded into each.
///
/// A request is identified by its *work key*, a fingerprint of everything
/// that determines its answer ([`crate::PlanService`] computes it). A
/// coalescable request whose key is in flight — queued or executing —
/// becomes a follower and is answered from the leader's response;
/// otherwise it leads: `submit → next_leader → (executing) → complete`.
/// Every transition takes `&mut self`, so under one lock a follower can
/// never attach to a leader that has completed, been shed or been drained.
#[derive(Debug)]
pub struct Dispatcher<T> {
    queue: BoundedQueue<(u64, T)>,
    inflight: BTreeMap<u64, Vec<T>>,
}

impl<T> Dispatcher<T> {
    /// An idle dispatcher admitting at most `capacity` waiting leaders.
    pub fn new(capacity: usize) -> Self {
        Dispatcher { queue: BoundedQueue::new(capacity), inflight: BTreeMap::new() }
    }

    /// Offer a request: fold it into in-flight identical work (only when
    /// `coalescable`), queue it as a leader, or shed it.
    pub fn submit(&mut self, key: u64, coalescable: bool, item: T) -> Submitted<T> {
        if coalescable {
            if let Some(followers) = self.inflight.get_mut(&key) {
                followers.push(item);
                return Submitted::Folded;
            }
        }
        match self.queue.offer((key, item)) {
            Admission::Queued { .. } => {
                if coalescable {
                    self.inflight.insert(key, Vec::new());
                }
                Submitted::Queued
            }
            Admission::Shed { item: (_, item), queue_depth } => {
                Submitted::Shed { item, queue_depth }
            }
        }
    }

    /// The oldest waiting leader and its work key, for a worker to
    /// execute. Its key stays in flight until [`Dispatcher::complete`].
    pub fn next_leader(&mut self) -> Option<(u64, T)> {
        self.queue.pop()
    }

    /// The leader for `key` finished: retire the key and return its
    /// followers, in arrival order, to be answered from its response.
    pub fn complete(&mut self, key: u64) -> Vec<T> {
        self.inflight.remove(&key).unwrap_or_default()
    }

    /// Empty the queue: every leader no worker will pick up, oldest
    /// first, each with the followers that were waiting on it.
    pub fn drain(&mut self) -> Vec<(T, Vec<T>)> {
        let mut drained = Vec::new();
        while let Some((key, leader)) = self.queue.pop() {
            drained.push((leader, self.complete(key)));
        }
        drained
    }

    /// Nothing queued and no key in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sheds_at_capacity_and_recovers() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.offer('a'), Admission::Queued { position: 0 });
        assert_eq!(q.offer('b'), Admission::Queued { position: 1 });
        // The shed item comes back to the caller.
        assert_eq!(q.offer('c'), Admission::Shed { item: 'c', queue_depth: 2 });
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.offer('d'), Admission::Queued { position: 1 });
        assert_eq!(q.admitted, 3);
        assert_eq!(q.shed, 1);
    }

    #[test]
    fn zero_capacity_floors_to_one() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.offer(1), Admission::Queued { position: 0 });
        assert_eq!(q.offer(2), Admission::Shed { item: 2, queue_depth: 1 });
    }

    #[test]
    fn dispatcher_folds_concurrent_identical_work() {
        let mut d = Dispatcher::new(4);
        assert_eq!(d.submit(0xAA, true, 1), Submitted::Queued);
        assert_eq!(d.submit(0xAA, true, 2), Submitted::Folded);
        assert_eq!(d.submit(0xAA, true, 3), Submitted::Folded);
        // A different key is independent work; so is the same key when
        // the request may not share an answer.
        assert_eq!(d.submit(0xBB, true, 4), Submitted::Queued);
        assert_eq!(d.submit(0xAA, false, 5), Submitted::Queued);
        // Followers keep waiting while their leader executes…
        assert_eq!(d.next_leader(), Some((0xAA, 1)));
        assert_eq!(d.submit(0xAA, true, 6), Submitted::Folded);
        // …and come back in arrival order when it completes.
        assert_eq!(d.complete(0xAA), vec![2, 3, 6]);
        // Key retired: the next arrival leads again.
        assert_eq!(d.submit(0xAA, true, 7), Submitted::Queued);
        assert_eq!(d.next_leader(), Some((0xBB, 4)));
        assert_eq!(d.complete(0xBB), Vec::<i32>::new());
    }

    #[test]
    fn shed_leader_leaves_no_key_in_flight() {
        let mut d = Dispatcher::new(1);
        assert_eq!(d.submit(1, true, 'a'), Submitted::Queued);
        assert_eq!(d.submit(2, true, 'b'), Submitted::Shed { item: 'b', queue_depth: 1 });
        // Had the shed left key 2 in flight, this retry would fold into a
        // leader that will never answer.
        assert_eq!(d.next_leader(), Some((1, 'a')));
        assert_eq!(d.submit(2, true, 'c'), Submitted::Queued);
    }

    #[test]
    fn drain_returns_every_queued_leader_with_its_followers() {
        let mut d = Dispatcher::new(4);
        assert_eq!(d.submit(7, true, "leader"), Submitted::Queued);
        assert_eq!(d.submit(7, true, "first follower"), Submitted::Folded);
        assert_eq!(d.submit(7, true, "second follower"), Submitted::Folded);
        assert_eq!(d.submit(8, false, "loner"), Submitted::Queued);
        assert_eq!(
            d.drain(),
            vec![("leader", vec!["first follower", "second follower"]), ("loner", vec![])]
        );
        assert!(d.is_idle());
        assert_eq!(d.next_leader(), None);
    }
}
