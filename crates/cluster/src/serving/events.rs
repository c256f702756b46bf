//! The serving event heap and the board-to-board link schedule. The event
//! kinds live with the step function that matches on them.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::NodeId;

use super::partition::EV_SAMPLE;

/// The serving event heap, with a running count of non-sample events so the
/// telemetry tick's "is there still work in flight?" question is O(1) instead
/// of a whole-heap scan per sample. Sample and alert ticks are the periodic
/// observers — they must never count as work, or they would keep a finished
/// run (and each other) alive forever.
#[derive(Debug, Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u8, usize)>>,
    non_sample: usize,
}

impl EventQueue {
    pub(super) fn push(&mut self, at: u64, kind: u8, index: usize) {
        if kind < EV_SAMPLE {
            self.non_sample += 1;
        }
        self.heap.push(Reverse((at, kind, index)));
    }

    pub(super) fn pop(&mut self) -> Option<(u64, u8, usize)> {
        let Reverse((at, kind, index)) = self.heap.pop()?;
        if kind < EV_SAMPLE {
            self.non_sample -= 1;
        }
        Some((at, kind, index))
    }

    pub(super) fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Whether any completion / resume / timeout / migration event is still
    /// queued (stale batch timeouts included, exactly like the scan this
    /// counter replaced).
    pub(super) fn has_non_sample(&self) -> bool {
        self.non_sample > 0
    }
}

/// Per-link busy horizons: pre-copy rounds and stop-and-copy transfers over
/// the same board-to-board link serialize, so concurrent migrations contend
/// for bandwidth instead of each seeing a private link.
///
/// Ordered map (simlint `D1`): lookups are by exact key today, but a sharded
/// event loop will want to snapshot link horizons across partitions, and an
/// ordered map guarantees that snapshot is iteration-order-deterministic.
#[derive(Debug, Default)]
pub(super) struct LinkSchedule {
    busy_until: BTreeMap<(NodeId, NodeId), u64>,
}

impl LinkSchedule {
    /// Links are bidirectional: (a, b) and (b, a) are the same link.
    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Reserves the link for a `cycles`-long transfer starting no earlier
    /// than `now`; returns when the transfer completes (queueing behind any
    /// transfer already on the link).
    pub(super) fn reserve(&mut self, a: NodeId, b: NodeId, now: u64, cycles: u64) -> u64 {
        let slot = self.busy_until.entry(Self::key(a, b)).or_insert(0);
        let end = now.max(*slot) + cycles;
        *slot = end;
        end
    }
}
