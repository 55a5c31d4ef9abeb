//! The simulator's event queue: pending events in `(time, sequence)` order,
//! so same-time events pop in schedule order and a run is a function of its
//! seed, and the event budget that cuts off a non-terminating run.

use crate::process::{Endpoint, NodeId};
use crate::time::SimTime;
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a queued event does when it pops.
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    Start {
        node: NodeId,
        generation: u64,
    },
    Deliver {
        from: Endpoint,
        to: Endpoint,
        payload: Bytes,
    },
    Timer {
        node: NodeId,
        generation: u64,
        token: u64,
    },
    /// A scheduled fault action: an index into the installed plan's actions,
    /// tagged with the plan epoch so events from a replaced plan are inert.
    Fault {
        action: usize,
        epoch: u64,
    },
    /// A due restart after a crash-point crash: re-queues the node for the
    /// harness if it is still fault-crashed. Epoch-tagged like `Fault`.
    PointRestart {
        node: NodeId,
        epoch: u64,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct QueuedEvent {
    pub(crate) time: SimTime,
    seq: u64,
    /// Trace id of the event whose processing enqueued this one (0 when
    /// tracing is disabled or the enqueue was a harness root action).
    pub(crate) cause: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The pending events, their sequence counter, the budget and the count of
/// events popped.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    /// Remaining event budget, if one was set. At zero, the queue looks
    /// empty to [`EventQueue::pop`] and [`EventQueue::peek_time`].
    budget: Option<u64>,
    popped: u64,
}

impl EventQueue {
    /// Queues `kind` at `time`, after every event already queued for it.
    #[inline]
    pub(crate) fn schedule(&mut self, time: SimTime, cause: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(QueuedEvent {
            time,
            seq,
            cause,
            kind,
        }));
    }

    /// Pops the earliest event, spending one unit of the budget; `None` when
    /// the queue is empty or the budget is spent.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        if self.budget_exhausted() {
            return None;
        }
        let Reverse(event) = self.heap.pop()?;
        if let Some(budget) = self.budget.as_mut() {
            *budget -= 1;
        }
        self.popped += 1;
        Some(event)
    }

    /// The time of the next event [`EventQueue::pop`] would return.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        if self.budget_exhausted() {
            return None;
        }
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Caps the number of further events that may pop.
    pub(crate) fn set_budget(&mut self, max_events: u64) {
        self.budget = Some(max_events);
    }

    /// `true` once a budget set via [`EventQueue::set_budget`] hit zero.
    #[inline]
    pub(crate) fn budget_exhausted(&self) -> bool {
        self.budget == Some(0)
    }

    /// Events popped so far.
    pub(crate) fn popped(&self) -> u64 {
        self.popped
    }

    /// Makes this queue a copy of `src`, reusing the heap's capacity.
    pub(crate) fn copy_from(&mut self, src: &EventQueue) {
        let EventQueue {
            heap,
            seq,
            budget,
            popped,
        } = src;
        // An element-wise copy of the same valid heap array; pop order is
        // total on the unique (time, seq) key anyway.
        self.heap.clone_from(heap);
        self.seq = *seq;
        self.budget = *budget;
        self.popped = *popped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            node: 0,
            generation: 1,
            token,
        }
    }

    fn token(event: QueuedEvent) -> u64 {
        match event.kind {
            EventKind::Timer { token, .. } => token,
            other => panic!("not a timer: {other:?}"),
        }
    }

    #[test]
    fn same_time_events_pop_in_schedule_order_and_a_spent_budget_pops_nothing() {
        let mut queue = EventQueue::default();
        let (early, late) = (SimTime::from_millis(5), SimTime::from_millis(9));
        for t in [3, 1, 2] {
            queue.schedule(late, 0, timer(t));
        }
        queue.schedule(early, 0, timer(0));
        let order: Vec<u64> = (0..4).map(|_| token(queue.pop().unwrap())).collect();
        assert_eq!(order, [0, 3, 1, 2], "time first, then schedule order");
        assert_eq!(queue.popped(), 4);

        queue.schedule(late, 0, timer(4));
        queue.schedule(late, 0, timer(5));
        queue.set_budget(1);
        assert_eq!(token(queue.pop().unwrap()), 4);
        assert!(queue.budget_exhausted());
        assert_eq!(queue.peek_time(), None, "a spent budget hides the rest");
        assert!(queue.pop().is_none());
        assert_eq!((queue.heap.len(), queue.popped()), (1, 5));
    }
}
