//! The windowed-aggregation substrate of the time-series recorder and the
//! SLO engine: a bounded overwrite-oldest ring of cycle-aligned windows,
//! and the [`Merge`] rule that combines the per-partition values of a
//! sharded run into exactly what one fleet-wide aggregator would hold.

use neu10::QuantileSketch;

/// A per-window value with an exact merge: counters and fleet gauges add
/// (each partition reports its own share of a fleet count at the same
/// barrier ticks), sketches merge, SLO good/bad counts add.
pub(crate) trait Merge: Default {
    /// Folds `other` into `self`, as if one aggregator had seen both.
    fn merge(&mut self, other: &Self);

    /// Empties the value for a new window.
    fn reset(&mut self) {
        *self = Self::default();
    }
}

impl Merge for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl Merge for f64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl Merge for QuantileSketch {
    fn merge(&mut self, other: &Self) {
        QuantileSketch::merge(self, other);
    }

    /// Keeps the sketch's allocations, so a reclaimed window allocates
    /// nothing.
    fn reset(&mut self) {
        self.clear();
    }
}

/// Sentinel for a ring cell no window has claimed yet.
const EMPTY_WINDOW: u64 = u64::MAX;

/// A bounded overwrite-oldest ring of per-window values: window `index`
/// lives in cell `index % len`, so memory is `O(len)` at any event count.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    cells: Vec<(u64, T)>,
}

impl<T: Merge> Ring<T> {
    pub(crate) fn new(len: usize) -> Self {
        Ring {
            cells: (0..len.max(1))
                .map(|_| (EMPTY_WINDOW, T::default()))
                .collect(),
        }
    }

    fn slot(&self, index: u64) -> usize {
        (index % self.cells.len() as u64) as usize
    }

    /// The cell of window `index`, evicting (and resetting) an older
    /// occupant; `evicted` counts the displacement.
    pub(crate) fn cell(&mut self, index: u64, evicted: &mut u64) -> &mut T {
        let slot = self.slot(index);
        let (stored, value) = &mut self.cells[slot];
        if *stored != index {
            if *stored != EMPTY_WINDOW {
                *evicted += 1;
            }
            *stored = index;
            value.reset();
        }
        value
    }

    /// The value of window `index`, if the ring still holds it.
    pub(crate) fn get(&self, index: u64) -> Option<&T> {
        let (stored, value) = &self.cells[self.slot(index)];
        (*stored == index).then_some(value)
    }

    /// Live `(window, value)` pairs, oldest window first.
    pub(crate) fn windows(&self) -> Vec<(u64, &T)> {
        let mut live: Vec<(u64, &T)> = self
            .cells
            .iter()
            .filter(|(index, _)| *index != EMPTY_WINDOW)
            .map(|(index, value)| (*index, value))
            .collect();
        live.sort_by_key(|(index, _)| *index);
        live
    }

    /// Forgets every window without allocating; `cell` resets a value when
    /// a window reclaims its cell.
    pub(crate) fn clear(&mut self) {
        for (index, _) in &mut self.cells {
            *index = EMPTY_WINDOW;
        }
    }

    /// Folds `other`, a ring of the same length, into this one cell by cell
    /// so each ends up as if one ring had seen both event streams: equal
    /// windows merge, and of two different windows the newer one stays.
    /// `evicted` counts every displacement.
    pub(crate) fn merge(&mut self, other: &Ring<T>, evicted: &mut u64) {
        for (index, value) in other.cells.iter().filter(|(i, _)| *i != EMPTY_WINDOW) {
            let stored = self.cells[self.slot(*index)].0;
            if stored != EMPTY_WINDOW && stored > *index {
                *evicted += 1;
            } else {
                self.cell(*index, evicted).merge(value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `events` of `(window, count)` through one ring.
    fn fed(len: usize, events: &[(u64, u64)]) -> Ring<u64> {
        let mut ring = Ring::new(len);
        for &(index, by) in events {
            *ring.cell(index, &mut 0) += by;
        }
        ring
    }

    #[test]
    fn get_reads_only_the_window_a_slot_holds() {
        let ring = fed(4, &[(1, 2), (5, 3)]);
        assert_eq!(ring.get(5), Some(&3));
        assert_eq!(ring.get(1), None, "window 5 overwrote window 1");
        assert_eq!(ring.get(2), None);
    }

    #[test]
    fn merge_equals_one_ring_fed_both_streams() {
        // Partition `a` wrapped past window 2 into window 6; partition `b`
        // still holds window 2 in the same slot. The merged slot must hold
        // window 6 alone, as one ring fed both streams would.
        let a_events = [(0, 1), (2, 4), (3, 1), (6, 2)];
        let b_events = [(0, 5), (2, 7), (3, 2)];
        let mut all: Vec<(u64, u64)> = a_events.iter().chain(&b_events).copied().collect();
        all.sort_by_key(|(index, _)| *index);
        let whole = fed(4, &all);
        for (first, second) in [(&a_events[..], &b_events[..]), (&b_events, &a_events)] {
            let mut merged = fed(4, first);
            merged.merge(&fed(4, second), &mut 0);
            assert_eq!(merged.windows(), whole.windows());
        }
    }

    #[test]
    fn clear_forgets_every_window() {
        let mut ring = fed(4, &[(1, 2), (2, 3)]);
        ring.clear();
        assert!(ring.windows().is_empty());
        *ring.cell(1, &mut 0) += 1;
        assert_eq!(ring.get(1), Some(&1), "a reclaimed cell starts from reset");
    }
}
