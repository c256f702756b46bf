//! A replica's admitted-request queue: FIFO, or earliest-deadline-first
//! within priority classes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use workloads::{ModelId, PriorityClass};

/// One admitted request waiting in (or being served from) a replica queue.
#[derive(Debug, Clone, Copy)]
pub(super) struct QueuedRequest {
    pub(super) model: ModelId,
    pub(super) arrived: u64,
    pub(super) deadline: Option<u64>,
    pub(super) priority: PriorityClass,
    pub(super) sequence: u64,
}

impl QueuedRequest {
    /// Earliest-deadline-first ordering key: priority class, then deadline
    /// (best-effort last), then arrival order.
    pub(super) fn edf_key(&self) -> (PriorityClass, u64, u64) {
        (
            self.priority,
            self.deadline.unwrap_or(u64::MAX),
            self.sequence,
        )
    }
}

/// Heap entry comparing queued requests by their EDF key. The key is a
/// *total* order — sequences are unique per trace — so equal keys never
/// occur and heap pop order is fully deterministic.
#[derive(Debug, Clone, Copy)]
pub(super) struct EdfEntry(QueuedRequest);

impl PartialEq for EdfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.edf_key() == other.0.edf_key()
    }
}

impl Eq for EdfEntry {}

impl PartialOrd for EdfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EdfEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.edf_key().cmp(&other.0.edf_key())
    }
}

/// A replica's admitted-request queue: a FIFO ring, or — under
/// [`DispatchPolicy::EarliestDeadline`] — a min-heap ordered by
/// [`QueuedRequest::edf_key`].
///
/// The heap replaces a sorted-`VecDeque` linear insert (O(n) per enqueue,
/// quadratic across a backlog burst) with O(log n) push/pop. Because the EDF
/// key is a total order, popping the heap yields exactly the drain order the
/// sorted insert produced, so reports are bit-identical to the seed.
#[derive(Debug)]
pub(super) enum ReplicaQueue {
    Fifo(VecDeque<QueuedRequest>),
    Edf(BinaryHeap<Reverse<EdfEntry>>),
}

impl ReplicaQueue {
    pub(super) fn new(edf: bool) -> Self {
        if edf {
            ReplicaQueue::Edf(BinaryHeap::new())
        } else {
            ReplicaQueue::Fifo(VecDeque::new())
        }
    }

    pub(super) fn len(&self) -> usize {
        match self {
            ReplicaQueue::Fifo(queue) => queue.len(),
            ReplicaQueue::Edf(heap) => heap.len(),
        }
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(super) fn push(&mut self, request: QueuedRequest) {
        match self {
            ReplicaQueue::Fifo(queue) => queue.push_back(request),
            ReplicaQueue::Edf(heap) => heap.push(Reverse(EdfEntry(request))),
        }
    }

    /// Earliest arrival cycle among the queued requests (`None` when empty).
    pub(super) fn oldest_arrival(&self) -> Option<u64> {
        match self {
            ReplicaQueue::Fifo(queue) => queue.iter().map(|queued| queued.arrived).min(),
            ReplicaQueue::Edf(heap) => heap.iter().map(|Reverse(entry)| entry.0.arrived).min(),
        }
    }

    /// Drops every request failing `keep`. Callback order is unspecified
    /// (heap retention visits in heap order), so drop accounting must be
    /// order-insensitive — which the deadline/window counters are.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(&QueuedRequest) -> bool) {
        match self {
            ReplicaQueue::Fifo(queue) => queue.retain(|queued| keep(queued)),
            ReplicaQueue::Edf(heap) => heap.retain(|Reverse(entry)| keep(&entry.0)),
        }
    }

    /// Empties the queue into a new vector, in drain order.
    pub(super) fn take_all(&mut self) -> Vec<QueuedRequest> {
        let mut all = Vec::with_capacity(self.len());
        self.drain_into(self.len(), &mut all);
        all
    }

    /// Moves the next `size` requests — FIFO or EDF order — into `batch`.
    pub(super) fn drain_into(&mut self, size: usize, batch: &mut Vec<QueuedRequest>) {
        match self {
            ReplicaQueue::Fifo(queue) => batch.extend(queue.drain(..size)),
            ReplicaQueue::Edf(heap) => {
                // `size` is clamped to the queue length by every caller;
                // stopping at an early None keeps this panic-free anyway.
                while batch.len() < size {
                    let Some(Reverse(entry)) = heap.pop() else {
                        break;
                    };
                    batch.push(entry.0);
                }
            }
        }
    }
}
