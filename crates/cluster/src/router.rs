//! The cluster request router: per-model replica selection, admission
//! control and the pluggable dispatch policies.
//!
//! The router is deliberately state-light — it sees a snapshot of every
//! candidate replica ([`ReplicaView`]) at each arrival and picks one (or
//! rejects the request). The serving simulator ([`crate::serving`]) owns the
//! queues and clocks; production code would back the same interface with live
//! load reports.
//!
//! At fleet scale the expensive part of routing is not the policy but
//! *finding the candidates*: rebuilding the per-model replica set (and the
//! per-node locality counts behind [`ReplicaView::node_replicas`]) from the
//! full replica table on every arrival is O(replicas²) per request. The
//! [`ReplicaIndex`] keeps those sets incrementally — the serving event loop
//! updates it on deploy / drain / retire / migrate transitions, and each
//! arrival reads exactly the candidate slots of its model.

use std::collections::BTreeMap;
// simlint::allow(D1, reason = "imported for the two point-lookup-only index maps audited below")
use std::collections::HashMap;

use workloads::ModelId;

use crate::cluster::VnpuHandle;
use crate::NodeId;

/// An incrementally-maintained routing index over the serving simulator's
/// replica table.
///
/// Tracks three things the dispatch hot path needs in O(1)/O(candidates):
///
/// * the **routable** slots of every model — live, non-draining replicas, in
///   ascending slot order (the same order a full-table scan would visit, so
///   indexed dispatch reproduces scan-based dispatch decision-for-decision);
/// * the **per-(model, node) replica counts** behind the locality signal
///   ([`ReplicaView::node_replicas`]), which a naive build recounts by a
///   nested scan per candidate;
/// * the **handle → slot map** over every live replica (draining included),
///   replacing the linear `position()` scans that resolved migration and
///   control-plane handles.
///
/// The owner calls the transition methods exactly once per lifecycle edge:
/// [`insert`](ReplicaIndex::insert) on deploy, [`begin_drain`](ReplicaIndex::begin_drain)
/// when a replica stops being routable, [`relocate`](ReplicaIndex::relocate)
/// when a migration re-keys its handle, and [`retire`](ReplicaIndex::retire)
/// when the slot dies.
#[derive(Debug, Default)]
pub struct ReplicaIndex {
    /// Routable (live, non-draining) slots per model, ascending.
    by_model: BTreeMap<ModelId, Vec<usize>>,
    /// Routable replicas of (model, node) — the locality signal. Hashed on
    /// purpose: read per candidate per arrival on the dispatch hot path,
    /// and only ever by exact key — no code path iterates it, so its order
    /// cannot reach a report or digest.
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

    /// Registers a newly deployed, routable replica. Slots must be inserted
    /// in increasing order (the serving simulator's replica table only ever
    /// grows), which keeps every candidate list sorted without searching.
    pub fn insert(&mut self, slot: usize, model: ModelId, node: NodeId, handle: VnpuHandle) {
        let candidates = self.by_model.entry(model).or_default();
        debug_assert!(
            candidates.last().is_none_or(|last| *last < slot),
            "slots are inserted in increasing order"
        );
        candidates.push(slot);
        *self.node_counts.entry((model, node)).or_insert(0) += 1;
        let previous = self.by_handle.insert(handle, slot);
        debug_assert!(previous.is_none(), "handles are unique among live replicas");
    }

    /// Removes a replica from the routable sets when it starts draining (it
    /// stays resolvable by handle until retired).
    pub fn begin_drain(&mut self, slot: usize, model: ModelId, node: NodeId) {
        if let Some(candidates) = self.by_model.get_mut(&model) {
            if let Some(position) = candidates.iter().position(|s| *s == slot) {
                candidates.remove(position);
            }
        }
        self.release_node_count(model, node);
    }

    /// Re-keys a replica whose migration moved it to a new node. Routable
    /// replicas move their locality count with them; a draining replica was
    /// already out of the routable sets and only re-keys its handle.
    pub fn relocate(
        &mut self,
        old_handle: VnpuHandle,
        new_handle: VnpuHandle,
        slot: usize,
        model: ModelId,
        routable: bool,
    ) {
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
    /// owner's table; it was removed from the routable sets when it drained.
    pub fn retire(&mut self, handle: VnpuHandle) {
        self.by_handle.remove(&handle);
    }

    /// Removes a replica that died mid-run (board crash / failover fencing)
    /// in one step, without rebuilding the index. Unlike the graceful
    /// drain-then-retire path, eviction hits replicas in *any* state: a
    /// `routable` replica leaves the candidate list and its locality count
    /// immediately; a draining one was already out of the routable sets and
    /// only forgets its handle.
    pub fn evict(
        &mut self,
        slot: usize,
        model: ModelId,
        node: NodeId,
        handle: VnpuHandle,
        routable: bool,
    ) {
        if routable {
            self.begin_drain(slot, model, node);
        }
        self.retire(handle);
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
            .map_or(&[], |slots| slots.as_slice())
    }

    /// Routable replicas of `model` on `node` (the locality signal).
    pub fn node_count(&self, model: ModelId, node: NodeId) -> usize {
        self.node_counts.get(&(model, node)).copied().unwrap_or(0)
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

/// A snapshot of one candidate replica at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaView {
    /// Index of the replica in the caller's replica table.
    pub index: usize,
    /// The node hosting the replica.
    pub node: NodeId,
    /// Requests queued (excluding those in service).
    pub queue_len: usize,
    /// Requests in the batch currently being served (0 = idle). Scoring by
    /// the batch occupancy — not a busy bit — keeps a replica mid-way
    /// through an 8-request batch from looking as lightly loaded as one
    /// serving a single request.
    pub in_flight: usize,
    /// Whether the replica is mid-migration (draining or transferring).
    pub unavailable: bool,
    /// Replicas of the same model on the replica's node (locality signal).
    pub node_replicas: usize,
}

impl ReplicaView {
    /// Outstanding work on the replica, in requests: queued plus every
    /// request of the in-service batch.
    pub fn outstanding(&self) -> usize {
        self.queue_len + self.in_flight
    }

    /// Whether a batch is currently in service.
    pub fn busy(&self) -> bool {
        self.in_flight > 0
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

    /// Routes one request for `model` over the candidate `replicas`
    /// (all replicas of that model, in stable index order).
    ///
    /// Replicas that are mid-migration (`unavailable`) are skipped while any
    /// available replica exists; when *every* replica is dark (e.g. a full
    /// migration window) the request queues behind the migration instead of
    /// being shed. Overload rejection only triggers when every eligible
    /// replica is at `max_queue_depth` — one full queue never sheds a request
    /// another replica has room for.
    pub fn dispatch(&mut self, model: ModelId, replicas: &[ReplicaView]) -> DispatchDecision {
        self.stats.offered += 1;
        match self.select(model, replicas) {
            DispatchDecision::Dispatch(index) => {
                self.stats.admitted += 1;
                DispatchDecision::Dispatch(index)
            }
            DispatchDecision::RejectNoReplica => {
                self.stats.rejected_no_replica += 1;
                DispatchDecision::RejectNoReplica
            }
            DispatchDecision::RejectOverload => {
                self.stats.rejected_overload += 1;
                DispatchDecision::RejectOverload
            }
        }
    }

    /// Routes an *already admitted* request again — failover re-dispatching
    /// the orphans of a dead board. Selection is identical to
    /// [`dispatch`](Router::dispatch) but no admission counters move: the
    /// request was offered and admitted exactly once at arrival, and
    /// re-dispatch must keep `offered = admitted + rejected` intact. A
    /// rejection here means no surviving replica can take the orphan; the
    /// caller records it as lost with a fault attribution.
    pub fn redispatch(&mut self, model: ModelId, replicas: &[ReplicaView]) -> DispatchDecision {
        self.select(model, replicas)
    }

    fn select(&mut self, model: ModelId, replicas: &[ReplicaView]) -> DispatchDecision {
        if replicas.is_empty() {
            return DispatchDecision::RejectNoReplica;
        }

        // Restrict to the available replicas while any exist; a fully dark
        // replica set queues rather than rejects.
        let any_available = replicas.iter().any(|r| !r.unavailable);
        let eligible = |r: &&ReplicaView| {
            r.queue_len < self.admission.max_queue_depth && (!any_available || !r.unavailable)
        };

        let pick = match self.policy {
            DispatchPolicy::RoundRobin => {
                let cursor = self.rr_cursor.entry(model).or_insert(0);
                let start = *cursor % replicas.len();
                let choice = (0..replicas.len())
                    .map(|offset| (start + offset) % replicas.len())
                    .find(|pos| eligible(&&replicas[*pos]));
                choice.map(|pos| {
                    *cursor = (pos + 1) % replicas.len();
                    replicas[pos]
                })
            }
            DispatchPolicy::LeastLoaded | DispatchPolicy::EarliestDeadline => replicas
                .iter()
                .filter(eligible)
                .min_by_key(|r| (r.outstanding(), r.index))
                .copied(),
            DispatchPolicy::LocalityAffine => replicas
                .iter()
                .filter(eligible)
                .min_by_key(|r| (std::cmp::Reverse(r.node_replicas), r.outstanding(), r.index))
                .copied(),
        };

        match pick {
            Some(replica) => DispatchDecision::Dispatch(replica.index),
            None => DispatchDecision::RejectOverload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(index: usize, node: u32, queue_len: usize, in_flight: usize) -> ReplicaView {
        ReplicaView {
            index,
            node: NodeId(node),
            queue_len,
            in_flight,
            unavailable: false,
            node_replicas: 1,
        }
    }

    #[test]
    fn round_robin_cycles_per_model() {
        let mut router = Router::new(DispatchPolicy::RoundRobin, AdmissionControl::default());
        let replicas = [view(0, 0, 0, 0), view(1, 1, 0, 0)];
        let picks: Vec<DispatchDecision> = (0..4)
            .map(|_| router.dispatch(ModelId::Mnist, &replicas))
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
        // Independent cursor per model.
        assert_eq!(
            router.dispatch(ModelId::Bert, &replicas),
            DispatchDecision::Dispatch(0)
        );
    }

    #[test]
    fn least_loaded_follows_outstanding_work() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let replicas = [view(0, 0, 3, 1), view(1, 1, 1, 1), view(2, 2, 1, 0)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
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
        let replicas = [view(0, 0, 0, 8), view(1, 1, 2, 0)];
        assert_eq!(
            replicas[0].outstanding(),
            8,
            "the in-service batch is outstanding work"
        );
        assert!(replicas[0].busy() && !replicas[1].busy());
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1),
            "a mid-batch replica is not near-idle"
        );
    }

    #[test]
    fn least_loaded_avoids_migrating_replicas() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let mut migrating = view(0, 0, 0, 0);
        migrating.unavailable = true;
        let replicas = [migrating, view(1, 1, 2, 1)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1)
        );
    }

    #[test]
    fn locality_prefers_replica_dense_nodes() {
        let mut router = Router::new(DispatchPolicy::LocalityAffine, AdmissionControl::default());
        let mut dense = view(1, 1, 1, 1);
        dense.node_replicas = 3;
        let replicas = [view(0, 0, 0, 0), dense];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1),
            "locality outweighs load"
        );
    }

    #[test]
    fn round_robin_skips_migrating_replicas() {
        // Regression: RR used to pick replicas[cursor] blindly, dispatching
        // to mid-migration replicas.
        let mut router = Router::new(DispatchPolicy::RoundRobin, AdmissionControl::default());
        let mut dark = view(0, 0, 0, 0);
        dark.unavailable = true;
        let replicas = [dark, view(1, 1, 0, 0), view(2, 2, 0, 0)];
        let picks: Vec<DispatchDecision> = (0..4)
            .map(|_| router.dispatch(ModelId::Mnist, &replicas))
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
        let replicas = [view(0, 0, 2, 1), view(1, 1, 0, 0)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1),
            "the roomy replica absorbs the request"
        );
        let both_full = [view(0, 0, 2, 1), view(1, 1, 2, 1)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &both_full),
            DispatchDecision::RejectOverload
        );
    }

    #[test]
    fn fully_dark_replica_sets_queue_instead_of_rejecting() {
        // When every replica is mid-migration the request waits behind the
        // migration window rather than being shed.
        for policy in DispatchPolicy::all() {
            let mut router = Router::new(policy, AdmissionControl::default());
            let mut a = view(0, 0, 0, 0);
            a.unavailable = true;
            let mut b = view(1, 1, 3, 1);
            b.unavailable = true;
            let decision = router.dispatch(ModelId::Mnist, &[a, b]);
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
        let replicas = [view(0, 0, 3, 1), view(1, 1, 0, 0)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1)
        );
        assert!(DispatchPolicy::EarliestDeadline.orders_queues_by_deadline());
        assert!(!DispatchPolicy::LeastLoaded.orders_queues_by_deadline());
    }

    #[test]
    fn redispatch_moves_no_admission_counters() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let replicas = [view(0, 0, 1, 0), view(1, 1, 0, 0)];
        assert_eq!(
            router.redispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1)
        );
        assert_eq!(
            router.redispatch(ModelId::Mnist, &[]),
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
    fn evict_removes_a_routable_slot_mid_run() {
        use neu10::VnpuId;

        let mut index = ReplicaIndex::new();
        let handle = |n: u32| VnpuHandle {
            node: NodeId(n),
            vnpu: VnpuId(0),
        };
        index.insert(0, ModelId::Mnist, NodeId(0), handle(0));
        index.insert(1, ModelId::Mnist, NodeId(1), handle(1));
        index.insert(2, ModelId::Mnist, NodeId(1), handle(2));

        // Crash the middle slot: candidate list, locality count and handle
        // all drop in one step, no rebuild.
        index.evict(1, ModelId::Mnist, NodeId(1), handle(1), true);
        assert_eq!(index.candidates(ModelId::Mnist), &[0, 2]);
        assert_eq!(index.node_count(ModelId::Mnist, NodeId(1)), 1);
        assert_eq!(index.slot_of(handle(1)), None);

        // A draining replica is already out of the routable sets; eviction
        // only forgets the handle.
        index.begin_drain(2, ModelId::Mnist, NodeId(1));
        index.evict(2, ModelId::Mnist, NodeId(1), handle(2), false);
        assert_eq!(index.candidates(ModelId::Mnist), &[0]);
        assert_eq!(index.node_count(ModelId::Mnist, NodeId(1)), 0);
        assert_eq!(index.slot_of(handle(2)), None);
        assert_eq!(index.slot_of(handle(0)), Some(0));
    }

    #[test]
    fn admission_control_sheds_load() {
        let mut router = Router::new(
            DispatchPolicy::LeastLoaded,
            AdmissionControl { max_queue_depth: 2 },
        );
        let replicas = [view(0, 0, 2, 1)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::RejectOverload
        );
        assert_eq!(
            router.dispatch(ModelId::Mnist, &[]),
            DispatchDecision::RejectNoReplica
        );
        let stats = router.stats();
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.rejected(), 2);
    }
}
