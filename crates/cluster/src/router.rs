//! The cluster request router: per-model replica selection, admission
//! control and the pluggable dispatch policies.
//!
//! The router keeps no replica state of its own. At each arrival it walks
//! the candidates of the request's model in the order its policy needs —
//! read from the [`ReplicaIndex`] — and probes the caller's live state of
//! each slot it visits ([`CandidateState`]: queue length, in-flight batch,
//! availability) until one qualifies. The serving simulator
//! ([`crate::serving`]) owns the queues and clocks; production code would
//! back the same probe with live load reports.
//!
//! At fleet scale the expensive part of routing is not the policy but
//! *ordering the candidates*. The [`ReplicaIndex`] keeps every model's
//! routable slots sorted by outstanding work, re-filed at the edges that
//! change it, so a least-loaded dispatch usually probes one slot instead of
//! snapshotting and scanning every replica of the model.

use std::cmp::Reverse;
use std::collections::BTreeMap;
// simlint::allow(D1, reason = "imported for the two point-lookup-only index maps audited below")
use std::collections::HashMap;

use workloads::ModelId;

use crate::cluster::VnpuHandle;
use crate::NodeId;

/// The routable replicas of one model, in the two orders the policies walk.
#[derive(Debug, Default)]
struct ModelCandidates {
    /// Routable slots, ascending: the round-robin ring and the locality
    /// scan order.
    slots: Vec<usize>,
    /// `(outstanding work, slot)` of every routable slot, ascending: the
    /// load buckets laid out back to back in one array. Re-filing a slot
    /// rotates it across only the entries between its old and new key, and
    /// the array never grows past the model's candidate count, so
    /// steady-state re-keying allocates nothing.
    by_load: Vec<(usize, usize)>,
}

/// What the index knows of one slot of the owner's replica table.
#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    model: ModelId,
    handle: VnpuHandle,
    /// The outstanding work the slot is filed under; `None` once it left
    /// the routable sets (draining, retired or evicted).
    load: Option<usize>,
}

/// An incrementally-maintained routing index over the serving simulator's
/// replica table.
///
/// Tracks what the dispatch hot path needs without touching the rest of the
/// table:
///
/// * the **routable** slots of every model — live, non-draining replicas —
///   in ascending slot order (the round-robin ring) and in ascending
///   `(outstanding work, slot)` order (the least-loaded walk);
/// * the **per-(model, node) replica counts** behind the locality signal;
/// * the **handle → slot map** over every live replica (draining included),
///   replacing the linear `position()` scans that resolved migration and
///   control-plane handles.
///
/// The owner calls the lifecycle methods exactly once per edge:
/// [`insert`](ReplicaIndex::insert) on deploy, [`begin_drain`](ReplicaIndex::begin_drain)
/// when a replica stops being routable, [`relocate`](ReplicaIndex::relocate)
/// when a migration re-keys its handle, [`retire`](ReplicaIndex::retire)
/// when a drained slot dies and [`evict`](ReplicaIndex::evict) when a slot
/// dies in any state. It calls [`set_load`](ReplicaIndex::set_load) in the
/// same step as every edge that changes a replica's queued or in-flight
/// request count, so each walk sees the load the previous decision left.
#[derive(Debug, Default)]
pub struct ReplicaIndex {
    by_model: BTreeMap<ModelId, ModelCandidates>,
    /// One entry per slot of the owner's table, dead slots included.
    slots: Vec<SlotEntry>,
    /// Routable replicas of (model, node) — the locality signal. Hashed on
    /// purpose: read per candidate per locality-affine arrival, and only
    /// ever by exact key — no code path iterates it, so its order cannot
    /// reach a report or digest.
    // simlint::allow(D1, reason = "hot-path point lookups only; never iterated")
    node_counts: HashMap<(ModelId, NodeId), usize>,
    /// Slot of every live replica (routable or draining). Same audit as
    /// `node_counts`: exact-key lookups from migration/control resolution,
    /// never iterated.
    // simlint::allow(D1, reason = "hot-path point lookups only; never iterated")
    by_handle: HashMap<VnpuHandle, usize>,
}

impl ReplicaIndex {
    /// An empty index.
    pub fn new() -> Self {
        ReplicaIndex::default()
    }

    /// Registers a newly deployed, routable replica with no outstanding
    /// work. Slots must be inserted in increasing order (the serving
    /// simulator's replica table only ever grows), which keeps every
    /// candidate list sorted without searching.
    pub fn insert(&mut self, slot: usize, model: ModelId, handle: VnpuHandle) {
        debug_assert_eq!(slot, self.slots.len(), "slots are inserted in order");
        let candidates = self.by_model.entry(model).or_default();
        candidates.slots.push(slot);
        let position = candidates.by_load.partition_point(|key| *key < (0, slot));
        candidates.by_load.insert(position, (0, slot));
        self.slots.push(SlotEntry {
            model,
            handle,
            load: Some(0),
        });
        *self.node_counts.entry((model, handle.node)).or_insert(0) += 1;
        let previous = self.by_handle.insert(handle, slot);
        debug_assert!(previous.is_none(), "handles are unique among live replicas");
    }

    /// Re-files routable `slot` under `load` outstanding requests (queued
    /// plus in flight). A slot outside the routable sets has no load key,
    /// so this is a no-op for it.
    pub fn set_load(&mut self, slot: usize, load: usize) {
        let Some(entry) = self.slots.get_mut(slot) else {
            debug_assert!(false, "set_load names an unknown slot");
            return;
        };
        let Some(old) = entry.load else {
            return;
        };
        if old == load {
            return;
        }
        entry.load = Some(load);
        if let Some(candidates) = self.by_model.get_mut(&entry.model) {
            refile(&mut candidates.by_load, slot, old, load);
        }
    }

    /// Removes a replica from the routable sets when it starts draining (it
    /// stays resolvable by handle until retired).
    pub fn begin_drain(&mut self, slot: usize) {
        let Some(entry) = self.slots.get_mut(slot) else {
            return;
        };
        let Some(load) = entry.load.take() else {
            return;
        };
        let (model, node) = (entry.model, entry.handle.node);
        if let Some(candidates) = self.by_model.get_mut(&model) {
            if let Ok(position) = candidates.slots.binary_search(&slot) {
                candidates.slots.remove(position);
            }
            if let Ok(position) = candidates.by_load.binary_search(&(load, slot)) {
                candidates.by_load.remove(position);
            }
        }
        self.release_node_count(model, node);
    }

    /// Re-keys replica `slot`, whose migration moved it to `new_handle`. A
    /// routable replica moves its locality count with it; a draining one
    /// was already out of the routable sets and only re-keys its handle.
    pub fn relocate(&mut self, slot: usize, new_handle: VnpuHandle) {
        let Some(entry) = self.slots.get_mut(slot) else {
            debug_assert!(false, "relocate names an unknown slot");
            return;
        };
        let old_handle = std::mem::replace(&mut entry.handle, new_handle);
        let (model, routable) = (entry.model, entry.load.is_some());
        let removed = self.by_handle.remove(&old_handle);
        debug_assert_eq!(removed, Some(slot), "relocate must name a live replica");
        self.by_handle.insert(new_handle, slot);
        if routable {
            self.release_node_count(model, old_handle.node);
            *self
                .node_counts
                .entry((model, new_handle.node))
                .or_insert(0) += 1;
        }
    }

    /// Forgets a retired replica's handle. The slot itself stays dead in the
    /// owner's table; it left the routable sets when it drained.
    pub fn retire(&mut self, slot: usize) {
        if let Some(entry) = self.slots.get(slot) {
            debug_assert!(entry.load.is_none(), "retire follows begin_drain");
            self.by_handle.remove(&entry.handle);
        }
    }

    /// Removes a replica that died mid-run (board crash, failover fencing,
    /// cross-partition export) in one step. Unlike the graceful
    /// drain-then-retire path, eviction hits replicas in *any* state: a
    /// routable replica leaves the candidate lists — under the load it is
    /// filed at, whatever its queue holds now — and its locality count; a
    /// draining one only forgets its handle.
    pub fn evict(&mut self, slot: usize) {
        self.begin_drain(slot);
        self.retire(slot);
    }

    /// The slot of a live replica, draining included; `None` for stale
    /// handles (undeployed, or re-keyed by a migration).
    pub fn slot_of(&self, handle: VnpuHandle) -> Option<usize> {
        self.by_handle.get(&handle).copied()
    }

    /// The routable slots of `model`, in ascending slot order.
    pub fn candidates(&self, model: ModelId) -> &[usize] {
        self.by_model
            .get(&model)
            .map_or(&[], |candidates| candidates.slots.as_slice())
    }

    /// `(outstanding work, slot)` of every routable slot of `model`, in
    /// ascending order: the least-loaded walk.
    pub fn by_load(&self, model: ModelId) -> &[(usize, usize)] {
        self.by_model
            .get(&model)
            .map_or(&[], |candidates| candidates.by_load.as_slice())
    }

    /// The outstanding work routable `slot` is filed under; `None` outside
    /// the routable sets.
    pub fn load_of(&self, slot: usize) -> Option<usize> {
        self.slots.get(slot).and_then(|entry| entry.load)
    }

    /// Routable replicas of `model` on `node` (the locality signal).
    pub fn node_count(&self, model: ModelId, node: NodeId) -> usize {
        self.node_counts.get(&(model, node)).copied().unwrap_or(0)
    }

    /// Routable replicas of `model` on the node hosting `slot`.
    fn locality_of(&self, model: ModelId, slot: usize) -> usize {
        self.slots
            .get(slot)
            .map_or(0, |entry| self.node_count(model, entry.handle.node))
    }

    fn release_node_count(&mut self, model: ModelId, node: NodeId) {
        match self.node_counts.get_mut(&(model, node)) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                self.node_counts.remove(&(model, node));
            }
            None => debug_assert!(false, "released a node count that was never taken"),
        }
    }
}

/// Moves `(old, slot)` to `(new, slot)` in the ascending `order`, rotating
/// only the entries between the two positions.
fn refile(order: &mut [(usize, usize)], slot: usize, old: usize, new: usize) {
    let Ok(from) = order.binary_search(&(old, slot)) else {
        debug_assert!(false, "slot {slot} is not filed under load {old}");
        return;
    };
    let key = (new, slot);
    if new > old {
        let to = from + order[from + 1..].partition_point(|entry| *entry < key);
        order[from..=to].rotate_left(1);
        order[to] = key;
    } else {
        let to = order[..from].partition_point(|entry| *entry < key);
        order[to..=from].rotate_right(1);
        order[to] = key;
    }
}

/// How the router picks among the replicas of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// Cycle through the available replicas regardless of their load.
    RoundRobin,
    /// Send to the replica with the least outstanding work.
    LeastLoaded,
    /// Prefer replicas on nodes hosting the most replicas of the model
    /// (weight locality / warm HBM); ties break towards the least loaded.
    LocalityAffine,
    /// Deadline- and priority-aware serving: replica selection matches
    /// [`DispatchPolicy::LeastLoaded`] (minimize expected wait), but the
    /// serving simulator orders each replica's queue earliest-deadline-first
    /// within priority classes instead of FIFO.
    EarliestDeadline,
}

impl DispatchPolicy {
    /// Every dispatch policy, for sweeps.
    pub fn all() -> [DispatchPolicy; 4] {
        [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastLoaded,
            DispatchPolicy::LocalityAffine,
            DispatchPolicy::EarliestDeadline,
        ]
    }

    /// A short stable label for tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::LocalityAffine => "locality",
            DispatchPolicy::EarliestDeadline => "edf",
        }
    }

    /// Whether replicas serve their queues earliest-deadline-first within
    /// priority classes (instead of FIFO) under this policy.
    pub fn orders_queues_by_deadline(self) -> bool {
        matches!(self, DispatchPolicy::EarliestDeadline)
    }
}

/// Admission control limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum requests queued on one replica; arrivals that would exceed it
    /// are rejected (load shedding beats unbounded tail latency).
    pub max_queue_depth: usize,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            max_queue_depth: 64,
        }
    }
}

/// Router counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests offered by the trace.
    pub offered: usize,
    /// Requests admitted and enqueued on a replica.
    pub admitted: usize,
    /// Requests rejected because no replica serves the model.
    pub rejected_no_replica: usize,
    /// Requests rejected by admission control.
    pub rejected_overload: usize,
    /// Requests that completed service.
    pub completed: usize,
}

impl RouterStats {
    /// Total rejections.
    pub fn rejected(&self) -> usize {
        self.rejected_no_replica + self.rejected_overload
    }

    /// Adds `other`'s counters into these (the sharded runner folds the
    /// partitions' routers this way). Exhaustive on purpose: a new counter
    /// fails to compile here until it is merged.
    pub(crate) fn merge(&mut self, other: &RouterStats) {
        let RouterStats {
            offered,
            admitted,
            rejected_no_replica,
            rejected_overload,
            completed,
        } = *other;
        self.offered += offered;
        self.admitted += admitted;
        self.rejected_no_replica += rejected_no_replica;
        self.rejected_overload += rejected_overload;
        self.completed += completed;
    }
}

/// The live state of one candidate replica, probed by the router for each
/// slot its walk visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateState {
    /// Requests queued (excluding those in service).
    pub queue_len: usize,
    /// Requests in the batch currently being served (0 = idle). Scoring by
    /// the batch occupancy — not a busy bit — keeps a replica mid-way
    /// through an 8-request batch from looking as lightly loaded as one
    /// serving a single request.
    pub in_flight: usize,
    /// Whether the replica can take work now (not dark mid-migration).
    pub available: bool,
}

impl CandidateState {
    /// Outstanding work on the replica, in requests: queued plus every
    /// request of the in-service batch. The index files each routable slot
    /// under this count.
    pub fn outstanding(&self) -> usize {
        self.queue_len + self.in_flight
    }
}

/// The outcome of routing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchDecision {
    /// Enqueue on the replica at this index of the caller's table.
    Dispatch(usize),
    /// No replica serves the model.
    RejectNoReplica,
    /// Admission control rejected the request.
    RejectOverload,
}

/// The request router.
#[derive(Debug)]
pub struct Router {
    policy: DispatchPolicy,
    admission: AdmissionControl,
    /// Per model, the next position in [`ReplicaIndex::candidates`] to try.
    rr_cursor: BTreeMap<ModelId, usize>,
    stats: RouterStats,
}

impl Router {
    /// A router with the given policy and admission limits.
    pub fn new(policy: DispatchPolicy, admission: AdmissionControl) -> Self {
        Router {
            policy,
            admission,
            rr_cursor: BTreeMap::new(),
            stats: RouterStats::default(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The counters so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Records a completed request.
    pub fn record_completion(&mut self) {
        self.stats.completed += 1;
    }

    /// Routes one request for `model` over its candidates in `index`,
    /// probing each visited slot's live state through `probe`.
    ///
    /// Replicas that are dark mid-migration are skipped while any available
    /// replica exists; when *every* replica is dark (e.g. a full migration
    /// window) the request queues behind the migration instead of being
    /// shed. Overload rejection only triggers when every eligible replica is
    /// at `max_queue_depth` — one full queue never sheds a request another
    /// replica has room for.
    pub fn dispatch(
        &mut self,
        model: ModelId,
        index: &ReplicaIndex,
        probe: impl FnMut(usize) -> CandidateState,
    ) -> DispatchDecision {
        self.stats.offered += 1;
        let decision = self.select(model, index, probe);
        match decision {
            DispatchDecision::Dispatch(_) => self.stats.admitted += 1,
            DispatchDecision::RejectNoReplica => self.stats.rejected_no_replica += 1,
            DispatchDecision::RejectOverload => self.stats.rejected_overload += 1,
        }
        decision
    }

    /// Routes an *already admitted* request again — failover re-dispatching
    /// the orphans of a dead board. Selection is identical to
    /// [`dispatch`](Router::dispatch) but no admission counters move: the
    /// request was offered and admitted exactly once at arrival, and
    /// re-dispatch must keep `offered = admitted + rejected` intact. A
    /// rejection here means no surviving replica can take the orphan; the
    /// caller records it as lost with a fault attribution.
    pub fn redispatch(
        &mut self,
        model: ModelId,
        index: &ReplicaIndex,
        probe: impl FnMut(usize) -> CandidateState,
    ) -> DispatchDecision {
        self.select(model, index, probe)
    }

    fn select(
        &mut self,
        model: ModelId,
        index: &ReplicaIndex,
        mut probe: impl FnMut(usize) -> CandidateState,
    ) -> DispatchDecision {
        let Some(candidates) = index
            .by_model
            .get(&model)
            .filter(|candidates| !candidates.slots.is_empty())
        else {
            return DispatchDecision::RejectNoReplica;
        };
        let max_depth = self.admission.max_queue_depth;
        // Every visited slot must be filed under its live load: a slot the
        // owner forgot to re-key would be walked out of order.
        let mut probe = |slot: usize| {
            let state = probe(slot);
            debug_assert_eq!(
                index.load_of(slot),
                Some(state.outstanding()),
                "slot {slot} is filed under a stale load"
            );
            state
        };

        let pick = match self.policy {
            DispatchPolicy::RoundRobin => {
                let ring = &candidates.slots;
                let cursor = self.rr_cursor.entry(model).or_insert(0);
                let start = *cursor % ring.len();
                let positions = (0..ring.len()).map(|offset| (start + offset) % ring.len());
                let position =
                    first_eligible(positions, max_depth, |position| probe(ring[position]));
                position.map(|position| {
                    *cursor = (position + 1) % ring.len();
                    ring[position]
                })
            }
            DispatchPolicy::LeastLoaded | DispatchPolicy::EarliestDeadline => {
                let walk = candidates.by_load.iter().map(|&(_, slot)| slot);
                first_eligible(walk, max_depth, &mut probe)
            }
            DispatchPolicy::LocalityAffine => {
                // Dense nodes first, so no load order helps: one pass keeps
                // the best available and the best dark candidate apart.
                let mut any_available = false;
                let mut best_available = None;
                let mut best_dark = None;
                for &slot in &candidates.slots {
                    let state = probe(slot);
                    any_available |= state.available;
                    if state.queue_len >= max_depth {
                        continue;
                    }
                    let key = (
                        Reverse(index.locality_of(model, slot)),
                        state.outstanding(),
                        slot,
                    );
                    let best = if state.available {
                        &mut best_available
                    } else {
                        &mut best_dark
                    };
                    if best.is_none_or(|current| key < current) {
                        *best = Some(key);
                    }
                }
                let best = if any_available {
                    best_available
                } else {
                    best_dark
                };
                best.map(|(_, _, slot)| slot)
            }
        };

        match pick {
            Some(slot) => DispatchDecision::Dispatch(slot),
            None => DispatchDecision::RejectOverload,
        }
    }
}

/// The first item of `walk` whose slot is available with queue room. When
/// no visited slot is available at all — a fully dark replica set — the
/// first with queue room instead, so the request queues behind the dark
/// window rather than being shed. `None` means overload.
fn first_eligible<T: Copy>(
    walk: impl Iterator<Item = T>,
    max_depth: usize,
    mut probe: impl FnMut(T) -> CandidateState,
) -> Option<T> {
    let mut any_available = false;
    let mut dark_fallback = None;
    for item in walk {
        let state = probe(item);
        if state.available {
            any_available = true;
            if state.queue_len < max_depth {
                return Some(item);
            }
        } else if dark_fallback.is_none() && state.queue_len < max_depth {
            dark_fallback = Some(item);
        }
    }
    if any_available {
        None
    } else {
        dark_fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neu10::VnpuId;

    fn handle(slot: usize, node: u32) -> VnpuHandle {
        VnpuHandle {
            node: NodeId(node),
            vnpu: VnpuId(slot as u32),
        }
    }

    /// A replica table of one model for the router to probe: `(node,
    /// queue_len, in_flight)` per slot, all available.
    struct Table {
        index: ReplicaIndex,
        states: Vec<CandidateState>,
    }

    impl Table {
        fn new(replicas: &[(u32, usize, usize)]) -> Self {
            let mut table = Table {
                index: ReplicaIndex::new(),
                states: Vec::new(),
            };
            for (slot, &(node, queue_len, in_flight)) in replicas.iter().enumerate() {
                table.index.insert(slot, ModelId::Mnist, handle(slot, node));
                table.states.push(CandidateState {
                    queue_len,
                    in_flight,
                    available: true,
                });
                table.index.set_load(slot, queue_len + in_flight);
            }
            table
        }

        fn dark(mut self, slot: usize) -> Self {
            self.states[slot].available = false;
            self
        }

        fn dispatch(&self, router: &mut Router, model: ModelId) -> DispatchDecision {
            router.dispatch(model, &self.index, |slot| self.states[slot])
        }
    }

    #[test]
    fn round_robin_cycles_per_model() {
        let mut router = Router::new(DispatchPolicy::RoundRobin, AdmissionControl::default());
        let table = Table::new(&[(0, 0, 0), (1, 0, 0)]);
        let picks: Vec<DispatchDecision> = (0..4)
            .map(|_| table.dispatch(&mut router, ModelId::Mnist))
            .collect();
        assert_eq!(
            picks,
            vec![
                DispatchDecision::Dispatch(0),
                DispatchDecision::Dispatch(1),
                DispatchDecision::Dispatch(0),
                DispatchDecision::Dispatch(1),
            ]
        );
        // A model with no replica is turned away, and owns no cursor.
        assert_eq!(
            table.dispatch(&mut router, ModelId::Bert),
            DispatchDecision::RejectNoReplica
        );
    }

    #[test]
    fn least_loaded_follows_outstanding_work() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let table = Table::new(&[(0, 3, 1), (1, 1, 1), (2, 1, 0)]);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::Dispatch(2),
            "idle replica with the short queue wins"
        );
    }

    #[test]
    fn least_loaded_counts_batch_occupancy_not_a_busy_bit() {
        // Regression: `busy` used to be a bool, so a replica mid-way through
        // an 8-request batch scored as outstanding = queue + 1 and beat an
        // idle-but-queued replica. Occupancy now weighs the whole batch.
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        // Replica 0: empty queue but an 8-deep batch in service.
        // Replica 1: idle with 2 queued requests.
        let table = Table::new(&[(0, 0, 8), (1, 2, 0)]);
        assert_eq!(
            table.states[0].outstanding(),
            8,
            "the in-service batch is outstanding work"
        );
        assert_eq!(table.index.by_load(ModelId::Mnist), &[(2, 1), (8, 0)]);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::Dispatch(1),
            "a mid-batch replica is not near-idle"
        );
    }

    #[test]
    fn least_loaded_avoids_migrating_replicas() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let table = Table::new(&[(0, 0, 0), (1, 2, 1)]).dark(0);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::Dispatch(1)
        );
    }

    #[test]
    fn least_loaded_sheds_when_every_available_replica_is_full() {
        // A dark replica with room does not absorb the request while an
        // available (but full) one exists: the dark fallback is for fully
        // dark replica sets only.
        let mut router = Router::new(
            DispatchPolicy::LeastLoaded,
            AdmissionControl { max_queue_depth: 2 },
        );
        let table = Table::new(&[(0, 0, 0), (1, 2, 1)]).dark(0);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::RejectOverload
        );
    }

    #[test]
    fn locality_prefers_replica_dense_nodes() {
        let mut router = Router::new(DispatchPolicy::LocalityAffine, AdmissionControl::default());
        // Slots 1-3 share node 1; slot 0 is alone (and idle) on node 0.
        let table = Table::new(&[(0, 0, 0), (1, 1, 1), (1, 2, 1), (1, 3, 1)]);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::Dispatch(1),
            "locality outweighs load; load breaks the tie on the dense node"
        );
    }

    #[test]
    fn round_robin_skips_migrating_replicas() {
        // Regression: RR used to pick replicas[cursor] blindly, dispatching
        // to mid-migration replicas.
        let mut router = Router::new(DispatchPolicy::RoundRobin, AdmissionControl::default());
        let table = Table::new(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]).dark(0);
        let picks: Vec<DispatchDecision> = (0..4)
            .map(|_| table.dispatch(&mut router, ModelId::Mnist))
            .collect();
        assert_eq!(
            picks,
            vec![
                DispatchDecision::Dispatch(1),
                DispatchDecision::Dispatch(2),
                DispatchDecision::Dispatch(1),
                DispatchDecision::Dispatch(2),
            ],
            "the dark replica is never picked while others are available"
        );
    }

    #[test]
    fn round_robin_overload_requires_every_available_replica_full() {
        // Regression: RR used to reject outright when the cursor landed on a
        // full replica even though the other replica had queue room.
        let mut router = Router::new(
            DispatchPolicy::RoundRobin,
            AdmissionControl { max_queue_depth: 2 },
        );
        let table = Table::new(&[(0, 2, 1), (1, 0, 0)]);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::Dispatch(1),
            "the roomy replica absorbs the request"
        );
        let both_full = Table::new(&[(0, 2, 1), (1, 2, 1)]);
        assert_eq!(
            both_full.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::RejectOverload
        );
    }

    #[test]
    fn fully_dark_replica_sets_queue_instead_of_rejecting() {
        // When every replica is mid-migration the request waits behind the
        // migration window rather than being shed.
        for policy in DispatchPolicy::all() {
            let mut router = Router::new(policy, AdmissionControl::default());
            let table = Table::new(&[(0, 0, 0), (1, 3, 1)]).dark(0).dark(1);
            let decision = table.dispatch(&mut router, ModelId::Mnist);
            assert!(
                matches!(decision, DispatchDecision::Dispatch(_)),
                "{}: all-dark window must queue, got {decision:?}",
                policy.label()
            );
        }
    }

    #[test]
    fn edf_routes_like_least_loaded_and_flags_queue_ordering() {
        let mut router = Router::new(
            DispatchPolicy::EarliestDeadline,
            AdmissionControl::default(),
        );
        let table = Table::new(&[(0, 3, 1), (1, 0, 0)]);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::Dispatch(1)
        );
        assert!(DispatchPolicy::EarliestDeadline.orders_queues_by_deadline());
        assert!(!DispatchPolicy::LeastLoaded.orders_queues_by_deadline());
    }

    #[test]
    fn redispatch_moves_no_admission_counters() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let table = Table::new(&[(0, 1, 0), (1, 0, 0)]);
        let probe = |slot: usize| table.states[slot];
        assert_eq!(
            router.redispatch(ModelId::Mnist, &table.index, probe),
            DispatchDecision::Dispatch(1)
        );
        assert_eq!(
            router.redispatch(ModelId::Bert, &table.index, probe),
            DispatchDecision::RejectNoReplica
        );
        let stats = router.stats();
        assert_eq!(
            (stats.offered, stats.admitted, stats.rejected()),
            (0, 0, 0),
            "re-dispatching an orphan must not re-count it"
        );
    }

    #[test]
    fn set_load_refiles_in_load_then_slot_order() {
        let mut table = Table::new(&[(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]);
        let index = &mut table.index;
        index.set_load(2, 3);
        index.set_load(0, 1);
        index.set_load(3, 1);
        assert_eq!(
            index.by_load(ModelId::Mnist),
            &[(0, 1), (1, 0), (1, 3), (3, 2)]
        );
        index.set_load(2, 0);
        index.set_load(3, 0);
        assert_eq!(
            index.by_load(ModelId::Mnist),
            &[(0, 1), (0, 2), (0, 3), (1, 0)]
        );
        // A draining slot keeps no load key; re-keying it is a no-op.
        index.begin_drain(1);
        index.set_load(1, 5);
        assert_eq!(index.load_of(1), None);
        assert_eq!(index.by_load(ModelId::Mnist), &[(0, 2), (0, 3), (1, 0)]);
    }

    #[test]
    fn evict_removes_a_routable_slot_mid_run() {
        let mut index = ReplicaIndex::new();
        index.insert(0, ModelId::Mnist, handle(0, 0));
        index.insert(1, ModelId::Mnist, handle(1, 1));
        index.insert(2, ModelId::Mnist, handle(2, 1));
        index.set_load(1, 4);

        // Crash the middle slot: candidate lists, locality count and handle
        // all drop in one step, no rebuild.
        index.evict(1);
        assert_eq!(index.candidates(ModelId::Mnist), &[0, 2]);
        assert_eq!(index.by_load(ModelId::Mnist), &[(0, 0), (0, 2)]);
        assert_eq!(index.node_count(ModelId::Mnist, NodeId(1)), 1);
        assert_eq!(index.slot_of(handle(1, 1)), None);

        // A draining replica is already out of the routable sets; eviction
        // only forgets the handle.
        index.begin_drain(2);
        index.evict(2);
        assert_eq!(index.candidates(ModelId::Mnist), &[0]);
        assert_eq!(index.node_count(ModelId::Mnist, NodeId(1)), 0);
        assert_eq!(index.slot_of(handle(2, 1)), None);
        assert_eq!(index.slot_of(handle(0, 0)), Some(0));
    }

    #[test]
    fn admission_control_sheds_load() {
        let mut router = Router::new(
            DispatchPolicy::LeastLoaded,
            AdmissionControl { max_queue_depth: 2 },
        );
        let table = Table::new(&[(0, 2, 1)]);
        assert_eq!(
            table.dispatch(&mut router, ModelId::Mnist),
            DispatchDecision::RejectOverload
        );
        assert_eq!(
            table.dispatch(&mut router, ModelId::Bert),
            DispatchDecision::RejectNoReplica
        );
        let stats = router.stats();
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.rejected(), 2);
    }
}
