//! Prefix-sharing incremental replay: the checkpoint trie and the
//! executor that resumes from it.
//!
//! The scratch path ([`InlineExecutor`](crate::InlineExecutor)) re-executes
//! every surviving interleaving from `init_all()` — O(runs · N) event
//! applications. But the lexicographic explorers emit interleavings in an
//! order where adjacent schedules share long common prefixes (the average
//! divergent suffix of a next-permutation stream is `e ≈ 2.72` events,
//! independent of N). The [`CheckpointTrie`] caches cloned replica-state
//! snapshots at prefix nodes; the [`IncrementalExecutor`] walks the trie to
//! the deepest cached prefix of the requested interleaving, clones that
//! snapshot, and applies only the divergent suffix.
//!
//! ## Correctness (DESIGN.md §10)
//!
//! [`SystemModel::apply`] is required to be deterministic in
//! `(states, event)` and `State: Clone` must produce an independent deep
//! copy. Under those two contracts, the state reached by applying events
//! `e₀…e_{d-1}` is a pure function of that prefix — so resuming from a
//! snapshot taken at depth `d` and applying `e_d…e_{N-1}` reaches exactly
//! the state a scratch replay would. Outcomes of the skipped prefix are
//! replayed from the trie (each edge stores the [`OpOutcome`] observed when
//! it was first executed), and simulated time is recomputed from the
//! [`TimeModel`] over the *full* interleaving, so `Execution` — states,
//! outcomes, `sim_us` — is byte-identical to the scratch executor's.
//! `CacheStats::sim_us_saved` separately records how much of that total was
//! never physically re-executed.

use std::sync::Arc;

use er_pi_model::{EventId, Interleaving, Workload};

use crate::faultexec::{Delivery, FaultInterpreter};
use crate::subsume::{suffix_hashes, RunMemo, SubsumeHit, SubsumeKey, SubsumeSet};
use crate::{CacheStats, Execution, OpOutcome, SystemModel, TimeModel};

/// Default snapshot budget for incremental sessions: 64 MiB of
/// [`state_size_hint`](SystemModel::state_size_hint)-accounted state.
///
/// The `state_clone` microbench in `crates/bench` puts a full-workload
/// snapshot of every subject model well under a kilobyte, so 64 MiB keeps
/// every prefix of a 10k-interleaving campaign resident with room to spare
/// while still bounding pathological models.
pub const DEFAULT_CACHE_BUDGET: usize = 64 * 1024 * 1024;

/// A cached set of replica states at some prefix depth.
#[derive(Debug)]
struct Snapshot<S> {
    states: Vec<S>,
    /// Budget charge for this snapshot (Σ `state_size_hint`, at least 1).
    bytes: usize,
    /// Last-use tick for LRU eviction.
    tick: u64,
}

/// One trie node. The edge *into* the node is labelled by `(event, fault
/// digest)`: the node at depth `d` along a path represents the prefix
/// `il[0..d]` *under the faults anchored inside it*, and stores the
/// [`OpOutcome`] that `il[d-1]` produced when first executed.
///
/// The digest is [`FaultPlan::digest_at`](er_pi_model::FaultPlan::digest_at)
/// for the edge's event (0 when no fault anchors there), which makes fault
/// schedules part of the trie key: two plans that agree on every anchor
/// along a prefix deterministically reach the same states there (all
/// derived effects of an anchor — delayed firings, partition windows, crash
/// recovery — occur at or after the anchor's own step), so they may share
/// that prefix's snapshots; plans that disagree diverge at the first
/// differing anchor and never share deeper nodes.
#[derive(Debug)]
struct Node<S> {
    /// Event labelling the edge from the parent (unused for the root).
    event: EventId,
    /// Digest of the faults anchored at `event` under the path's plan.
    digest: u64,
    /// Outcome of applying that event at this prefix (root: placeholder).
    outcome: OpOutcome,
    /// Depth of this node (= prefix length it represents).
    depth: u32,
    /// Child node indices, searched linearly (branching factor ≤ N).
    children: Vec<u32>,
    /// Cached states after the prefix, if not evicted.
    snapshot: Option<Snapshot<S>>,
}

/// A trie over interleaving prefixes caching cloned replica-state
/// snapshots under a memory budget.
///
/// Nodes are created for every prefix ever executed (they are a few dozen
/// bytes each and record the per-edge outcome needed to replay skipped
/// prefixes); only *snapshots* — the cloned `Vec<State>` payloads — are
/// budgeted. When inserting a snapshot would exceed the budget, the
/// least-recently-used snapshot is evicted first, with *deeper* snapshots
/// evicted first on a tick tie (shallow prefixes are shared by more future
/// interleavings, so they are the more valuable residents). A budget of 0
/// disables caching entirely: every run replays from scratch.
#[derive(Debug)]
pub struct CheckpointTrie<S> {
    nodes: Vec<Node<S>>,
    /// Indices of nodes currently holding a snapshot.
    cached: Vec<u32>,
    budget: usize,
    bytes_resident: usize,
    tick: u64,
}

impl<S> CheckpointTrie<S> {
    /// Creates an empty trie with the given snapshot budget in
    /// [`state_size_hint`](SystemModel::state_size_hint)-accounted bytes.
    pub fn new(budget: usize) -> Self {
        CheckpointTrie {
            nodes: vec![Node {
                event: EventId::new(0),
                digest: 0,
                outcome: OpOutcome::Applied,
                depth: 0,
                children: Vec::new(),
                snapshot: None,
            }],
            cached: Vec::new(),
            budget,
            bytes_resident: 0,
            tick: 0,
        }
    }

    /// The configured snapshot budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes of snapshot state currently resident.
    pub fn bytes_resident(&self) -> usize {
        self.bytes_resident
    }

    /// Number of prefix nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the trie holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of snapshots currently cached.
    pub fn cached_snapshots(&self) -> usize {
        self.cached.len()
    }

    fn child(&self, node: u32, event: EventId, digest: u64) -> Option<u32> {
        self.nodes[node as usize]
            .children
            .iter()
            .copied()
            .find(|&c| {
                let child = &self.nodes[c as usize];
                child.event == event && child.digest == digest
            })
    }

    fn child_or_insert(
        &mut self,
        node: u32,
        event: EventId,
        digest: u64,
        outcome: OpOutcome,
    ) -> u32 {
        if let Some(existing) = self.child(node, event, digest) {
            debug_assert_eq!(
                self.nodes[existing as usize].outcome, outcome,
                "non-deterministic SystemModel::apply at a shared prefix"
            );
            return existing;
        }
        let idx = self.nodes.len() as u32;
        let depth = self.nodes[node as usize].depth + 1;
        self.nodes.push(Node {
            event,
            digest,
            outcome,
            depth,
            children: Vec::new(),
            snapshot: None,
        });
        self.nodes[node as usize].children.push(idx);
        idx
    }

    /// Stores `states` as the snapshot at `node`, evicting LRU snapshots
    /// if the budget is exceeded. A zero budget (or a snapshot larger than
    /// the whole budget) skips the insert.
    fn store<M>(&mut self, model: &M, node: u32, states: &[S])
    where
        S: Clone,
        M: SystemModel<State = S>,
    {
        if self.budget == 0 || self.nodes[node as usize].snapshot.is_some() {
            return;
        }
        let bytes = states
            .iter()
            .map(|s| model.state_size_hint(s))
            .sum::<usize>()
            .max(1);
        if bytes > self.budget {
            return;
        }
        self.tick += 1;
        self.nodes[node as usize].snapshot = Some(Snapshot {
            states: states.to_vec(),
            bytes,
            tick: self.tick,
        });
        self.cached.push(node);
        self.bytes_resident += bytes;
        self.evict_to_budget();
    }

    /// Evicts least-recently-used snapshots until within budget. Tick ties
    /// break toward the *deeper* node: shallow prefixes front more of the
    /// remaining enumeration, so they stay resident longer.
    fn evict_to_budget(&mut self) {
        while self.bytes_resident > self.budget && !self.cached.is_empty() {
            let victim_pos = self
                .cached
                .iter()
                .enumerate()
                .min_by_key(|(_, &n)| {
                    let node = &self.nodes[n as usize];
                    let snap = node.snapshot.as_ref().expect("cached node has snapshot");
                    (snap.tick, u32::MAX - node.depth)
                })
                .map(|(pos, _)| pos)
                .expect("non-empty cached list");
            let victim = self.cached.swap_remove(victim_pos);
            let snap = self.nodes[victim as usize]
                .snapshot
                .take()
                .expect("victim holds a snapshot");
            self.bytes_resident -= snap.bytes;
        }
    }

    /// Walks `il` from the root, returning the path of node indices
    /// (`path[d]` is the node representing `il[0..d]`) up to the deepest
    /// prefix already present in the trie.
    fn walk(&self, il: &Interleaving) -> Vec<u32> {
        let mut path = Vec::with_capacity(il.len() + 1);
        path.push(0u32);
        let mut cur = 0u32;
        for &id in il.iter() {
            match self.child(cur, id, il.faults().digest_at(id)) {
                Some(next) => {
                    cur = next;
                    path.push(next);
                }
                None => break,
            }
        }
        path
    }

    /// Clones the snapshot at `node` (refreshing its LRU tick), if present.
    fn resume(&mut self, node: u32) -> Option<Vec<S>>
    where
        S: Clone,
    {
        self.tick += 1;
        let tick = self.tick;
        let snap = self.nodes[node as usize].snapshot.as_mut()?;
        snap.tick = tick;
        Some(snap.states.clone())
    }
}

/// Replays interleavings by resuming from the deepest cached common prefix
/// in a [`CheckpointTrie`], applying only the divergent suffix.
///
/// Produces [`Execution`]s byte-identical to
/// [`InlineExecutor`](crate::InlineExecutor) — states, outcomes and
/// `sim_us` — for any eviction schedule; the differential-equivalence
/// harness (`tests/incremental_equivalence.rs`, `tests/incremental_props.rs`)
/// pins this. Each executor owns its trie, so replay gives one to each
/// worker slot; the chunked dispenser keeps each slot's stream
/// prefix-coherent.
#[derive(Debug)]
pub struct IncrementalExecutor<M: SystemModel> {
    trie: CheckpointTrie<M::State>,
    stats: CacheStats,
    last_resume_depth: usize,
    last_run_subsumed: bool,
    /// The campaign-wide explored-set, when state-hash subsumption is on.
    subsume: Option<Arc<SubsumeSet<M::State>>>,
    /// Whether the model supports a faithful state encoding — probed once
    /// per executor on the first run (`None` = not yet probed).
    subsume_supported: Option<bool>,
}

impl<M: SystemModel> IncrementalExecutor<M> {
    /// Creates an executor with an empty trie and the given snapshot
    /// budget (see [`DEFAULT_CACHE_BUDGET`]).
    pub fn new(budget: usize) -> Self {
        IncrementalExecutor {
            trie: CheckpointTrie::new(budget),
            stats: CacheStats::default(),
            last_resume_depth: 0,
            last_run_subsumed: false,
            subsume: None,
            subsume_supported: None,
        }
    }

    /// Attaches the campaign's shared explored-set; subsequent runs may be
    /// short-circuited by subsumption (and feed the set). Inert when the
    /// model declines [`SystemModel::state_encode`].
    pub(crate) fn enable_subsumption(&mut self, set: Arc<SubsumeSet<M::State>>) {
        self.subsume = Some(set);
    }

    /// The prefix depth the most recent [`IncrementalExecutor::execute`]
    /// resumed from (0 = scratch replay). Telemetry reads this to attribute
    /// each run as a cache hit or miss.
    pub fn last_resume_depth(&self) -> usize {
        self.last_resume_depth
    }

    /// Whether the most recent run was short-circuited (or, in audit mode,
    /// verified) by state-hash subsumption.
    pub fn last_run_subsumed(&self) -> bool {
        self.last_run_subsumed
    }

    /// The cache counters so far. `bytes_resident` reflects the trie's
    /// current occupancy; the other fields are cumulative.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_resident: self.trie.bytes_resident(),
            ..self.stats
        }
    }

    /// The underlying trie (inspection / tests).
    pub fn trie(&self) -> &CheckpointTrie<M::State> {
        &self.trie
    }

    /// Executes `il`, resuming from the deepest cached prefix.
    ///
    /// The returned [`Execution`] is byte-identical to
    /// [`InlineExecutor::execute`](crate::InlineExecutor::execute): the
    /// reported `sim_us` still charges `reset_cost_us` plus every event's
    /// cost (a rewind *is* a state reset, and skipped prefix events are
    /// charged as if replayed); [`CacheStats::sim_us_saved`] records the
    /// portion that was never physically re-executed.
    pub fn execute(
        &mut self,
        model: &M,
        workload: &Workload,
        il: &Interleaving,
        time: &TimeModel,
    ) -> Execution<M::State> {
        let path = self.trie.walk(il);
        // Deepest node on the path still holding a snapshot.
        let resume_depth = (0..path.len())
            .rev()
            .find(|&d| d > 0 && self.trie.nodes[path[d] as usize].snapshot.is_some())
            .unwrap_or(0);
        self.last_resume_depth = resume_depth;

        let mut outcomes = Vec::with_capacity(il.len());
        let mut sim_us = time.reset_cost_us;
        let mut saved_us = 0u64;
        for (pos, &id) in il.iter().enumerate() {
            let cost = time.event_cost_us(workload.event(id));
            sim_us += cost;
            if pos < resume_depth {
                saved_us += cost;
            }
        }

        let mut states = if resume_depth > 0 {
            self.stats.hits += 1;
            self.stats.events_saved += resume_depth as u64;
            self.stats.sim_us_saved += saved_us;
            for &node in &path[1..=resume_depth] {
                outcomes.push(self.trie.nodes[node as usize].outcome.clone());
            }
            self.trie
                .resume(path[resume_depth])
                .expect("resume depth points at a cached snapshot")
        } else {
            self.stats.misses += 1;
            model.init_all()
        };

        // Rebuild the fault interpreter's bookkeeping (partition topology,
        // outstanding delayed effects) as of the resume depth; the snapshot
        // states already contain everything the skipped prefix did.
        let mut faults = FaultInterpreter::new(il.faults());
        faults.fast_forward(workload, il.as_slice(), resume_depth);

        // Subsumption bookkeeping. The probe runs at the resume depth
        // (states come straight from the snapshot — a hit costs zero event
        // applications) and again after every applied suffix step: two
        // orders that permute only commuting events coincide a step or two
        // *past* their divergence point, so the resume-depth probe alone
        // would miss nearly every hit.
        self.last_run_subsumed = false;
        if self.subsume.is_some() && self.subsume_supported.is_none() {
            self.subsume_supported = Some(model.state_digest(&model.init_all()).is_some());
        }
        let n = il.len();
        let sub: Option<&SubsumeSet<M::State>> = match self.subsume_supported {
            Some(true) => self.subsume.as_deref(),
            _ => None,
        };
        let suffixes = sub.map(|_| suffix_hashes(il));
        let mut pending: Vec<(SubsumeKey, Option<Arc<[u8]>>)> = Vec::new();
        // In audit mode a hit does not short-circuit: the tail executes
        // anyway and is compared against the memo at the end of the run.
        let mut audit_hit: Option<(usize, SubsumeHit<M::State>)> = None;
        let mut stitched_at: Option<usize> = None;

        let mut probe = |states: &[M::State],
                         faults: &FaultInterpreter<'_>,
                         depth: usize|
         -> Option<SubsumeHit<M::State>> {
            let set = sub?;
            if depth >= n {
                return None;
            }
            let digest = model.state_digest(states)?;
            let bytes: Option<Arc<[u8]>> = if set.audit() {
                encode_states(model, states).map(Arc::from)
            } else {
                None
            };
            let key = SubsumeKey {
                state: digest,
                faults: faults.pending_digest(),
                suffix: suffixes.as_ref().expect("suffixes computed with sub")[depth],
                depth: depth as u32,
            };
            if let Some(hit) = set.lookup(&key) {
                if let (Some(a), Some(b)) = (&bytes, &hit.bytes) {
                    assert!(
                        a == b,
                        "ER_PI_SUBSUME_AUDIT: 128-bit digest collision at depth {depth}: \
                         distinct canonical states share digest {digest:#034x}"
                    );
                }
                return Some(hit);
            }
            pending.push((key, bytes));
            None
        };

        if let Some(hit) = probe(&states, &faults, resume_depth) {
            if self.subsume.as_deref().is_some_and(SubsumeSet::audit) {
                audit_hit = Some((resume_depth, hit));
            } else {
                outcomes.extend_from_slice(&hit.memo.outcomes[resume_depth..]);
                states = hit.memo.states.clone();
                stitched_at = Some(resume_depth);
            }
        }

        if stitched_at.is_none() {
            let mut cur = path[resume_depth];
            for (pos, &id) in il.iter().enumerate().skip(resume_depth) {
                let event = workload.event(id);
                faults.begin_step(model, &mut states, event);
                let outcome = match faults.delivery(event, pos) {
                    Delivery::Normal => {
                        let out = model.apply(&mut states, event);
                        if faults.duplicate(event) {
                            let _ = model.apply(&mut states, event);
                        }
                        out
                    }
                    other => FaultInterpreter::faulted_outcome(other),
                };
                cur =
                    self.trie
                        .child_or_insert(cur, id, il.faults().digest_at(id), outcome.clone());
                outcomes.push(outcome);
                // Delayed effects due at this step land before the snapshot, so
                // a stored prefix is the full deterministic function of its
                // `(events, anchored faults)` path.
                faults.end_step(model, &mut states, workload, pos);
                // Snapshot every interior prefix we just reached; the final
                // depth is never resumed from (a repeat of the same
                // interleaving resumes at N-1 and re-applies the last event),
                // and the end-of-run fault flush below therefore never leaks
                // into a cached snapshot.
                if pos + 1 < il.len() {
                    self.trie.store(model, cur, &states);
                }
                if audit_hit.is_none() {
                    if let Some(hit) = probe(&states, &faults, pos + 1) {
                        if self.subsume.as_deref().is_some_and(SubsumeSet::audit) {
                            audit_hit = Some((pos + 1, hit));
                        } else {
                            outcomes.extend_from_slice(&hit.memo.outcomes[pos + 1..]);
                            states = hit.memo.states.clone();
                            stitched_at = Some(pos + 1);
                            break;
                        }
                    }
                }
            }
            if stitched_at.is_none() {
                faults.finish(model, &mut states, workload);
            }
        }

        if let Some((depth, hit)) = audit_hit {
            assert_eq!(
                &outcomes[depth..],
                &hit.memo.outcomes[depth..],
                "ER_PI_SUBSUME_AUDIT: false subsumption at depth {depth}: \
                 executed outcomes diverge from the memoized run"
            );
            assert_eq!(
                encode_states(model, &states),
                encode_states(model, &hit.memo.states),
                "ER_PI_SUBSUME_AUDIT: false subsumption at depth {depth}: \
                 final states diverge from the memoized run"
            );
            stitched_at = Some(depth);
        }
        if let Some(depth) = stitched_at {
            self.stats.subsumed += 1;
            self.stats.subsume_events_saved += (n - depth) as u64;
            self.last_run_subsumed = true;
        }
        if let Some(set) = sub {
            if !pending.is_empty() {
                // The run's full outcome vector and final states are now
                // known (executed, stitched, or audit-verified — all
                // byte-identical by determinism): every depth probed as a
                // miss becomes a donor entry, shared through one memo.
                let memo = Arc::new(RunMemo {
                    outcomes: outcomes.clone(),
                    states: states.clone(),
                });
                for (key, bytes) in pending {
                    set.insert(key, Arc::clone(&memo), bytes);
                }
            }
        }

        Execution {
            states,
            outcomes,
            sim_us,
        }
    }
}

/// Concatenates every replica's canonical encoding, each length-prefixed so
/// adjacent replicas can never alias — the byte string whose digest is
/// [`SystemModel::state_digest`]'s default. Audit mode stores and compares
/// these bytes to tell digest collisions from honest hits. `None` when the
/// model declines encoding.
fn encode_states<M: SystemModel>(model: &M, states: &[M::State]) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    for state in states {
        let at = buf.len();
        buf.extend_from_slice(&[0u8; 8]);
        if !model.state_encode(state, &mut buf) {
            return None;
        }
        let len = (buf.len() - at - 8) as u64;
        buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
    Some(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InlineExecutor;
    use er_pi_model::{Event, EventKind, ReplicaId, Value};

    /// Heap-owning state so `Clone` independence actually matters.
    struct LogModel;

    impl SystemModel for LogModel {
        type State = Vec<i64>;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> Vec<i64> {
            Vec::new()
        }

        fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
            if let EventKind::LocalUpdate { op } = &event.kind {
                let v = op.arg(0).and_then(Value::as_int).unwrap_or(-1);
                states[event.replica.index()].push(v);
                if v % 3 == 0 {
                    return OpOutcome::failed("multiple of three");
                }
            }
            OpOutcome::Applied
        }

        fn observe(&self, state: &Vec<i64>) -> Value {
            state.iter().copied().collect()
        }

        fn state_size_hint(&self, state: &Vec<i64>) -> usize {
            state.len() * std::mem::size_of::<i64>() + std::mem::size_of::<Vec<i64>>()
        }
    }

    fn workload(n: i64) -> Workload {
        let mut w = Workload::builder();
        for i in 0..n {
            w.update(ReplicaId::new((i % 2) as u16), "op", [Value::from(i)]);
        }
        w.build()
    }

    fn lexicographic_orders(n: u32) -> Vec<Interleaving> {
        // All permutations of 0..n in lexicographic order.
        fn recurse(prefix: &mut Vec<u32>, rest: &[u32], out: &mut Vec<Interleaving>) {
            if rest.is_empty() {
                out.push(prefix.iter().copied().map(EventId::new).collect());
                return;
            }
            for (i, &x) in rest.iter().enumerate() {
                let mut next: Vec<u32> = rest.to_vec();
                next.remove(i);
                prefix.push(x);
                recurse(prefix, &next, out);
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        recurse(&mut Vec::new(), &(0..n).collect::<Vec<_>>(), &mut out);
        out
    }

    fn assert_matches_inline(budget: usize, n: u32) -> CacheStats {
        let w = workload(n as i64);
        let time = TimeModel::paper_setup();
        let mut exec = IncrementalExecutor::<LogModel>::new(budget);
        for il in lexicographic_orders(n) {
            let scratch = InlineExecutor::execute(&LogModel, &w, &il, &time);
            let inc = exec.execute(&LogModel, &w, &il, &time);
            assert_eq!(scratch.states, inc.states, "states diverged on {il}");
            assert_eq!(scratch.outcomes, inc.outcomes, "outcomes diverged on {il}");
            assert_eq!(scratch.sim_us, inc.sim_us, "sim_us diverged on {il}");
        }
        exec.stats()
    }

    #[test]
    fn matches_inline_over_all_permutations() {
        let stats = assert_matches_inline(DEFAULT_CACHE_BUDGET, 5);
        // 120 runs; the first permutation of each depth-1 block (5 of
        // them) necessarily misses, everything else resumes from a
        // cached prefix.
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 115);
        assert!(stats.events_saved > 0);
        assert!(stats.sim_us_saved > 0);
        assert!(stats.bytes_resident > 0);
    }

    #[test]
    fn zero_budget_is_scratch() {
        let stats = assert_matches_inline(0, 4);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 24);
        assert_eq!(stats.events_saved, 0);
        assert_eq!(stats.bytes_resident, 0);
    }

    #[test]
    fn tiny_budget_still_byte_identical() {
        // Room for roughly one snapshot: constant eviction churn.
        let stats = assert_matches_inline(64, 5);
        assert_eq!(stats.hits + stats.misses, 120);
    }

    #[test]
    fn repeat_of_same_interleaving_resumes_at_depth_n_minus_one() {
        let w = workload(6);
        let time = TimeModel::paper_setup();
        let il = w.recorded_order();
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        exec.execute(&LogModel, &w, &il, &time);
        let before = exec.stats();
        let again = exec.execute(&LogModel, &w, &il, &time);
        let after = exec.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.events_saved, before.events_saved + 5);
        let scratch = InlineExecutor::execute(&LogModel, &w, &il, &time);
        assert_eq!(scratch.sim_us, again.sim_us);
        assert_eq!(scratch.states, again.states);
    }

    #[test]
    fn eviction_prefers_older_then_deeper() {
        let w = workload(3);
        let time = TimeModel::paper_setup();
        let orders = lexicographic_orders(3);
        // Budget sized from real hints so at least one eviction happens.
        let mut exec = IncrementalExecutor::<LogModel>::new(2 * 80);
        for il in &orders {
            exec.execute(&LogModel, &w, il, &time);
        }
        let trie = exec.trie();
        assert!(trie.bytes_resident() <= trie.budget());
        assert!(trie.cached_snapshots() > 0);
    }

    #[test]
    fn matches_inline_across_fault_plans_sharing_one_trie() {
        use er_pi_model::{FaultEvent, FaultKind, FaultPlan};
        let w = workload(4);
        let time = TimeModel::paper_setup();
        let ids: Vec<EventId> = w.event_ids().collect();
        let plans = vec![
            FaultPlan::empty(),
            FaultPlan::new(vec![FaultEvent::new(ids[1], FaultKind::Drop)]),
            FaultPlan::new(vec![FaultEvent::new(ids[1], FaultKind::Duplicate)]),
            FaultPlan::new(vec![FaultEvent::new(ids[0], FaultKind::Delay { by: 2 })]),
            FaultPlan::new(vec![FaultEvent::new(
                ids[2],
                FaultKind::CrashRestart {
                    replica: ReplicaId::new(0),
                },
            )]),
        ];
        // One trie serves the whole product (plan-minor, like the session's
        // fault product explorer): every execution must stay byte-identical
        // to scratch replay even though plans interleave in the cache.
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        for base in lexicographic_orders(4) {
            for plan in &plans {
                let il = base.clone().with_faults(plan.clone());
                let scratch = InlineExecutor::execute(&LogModel, &w, &il, &time);
                let inc = exec.execute(&LogModel, &w, &il, &time);
                assert_eq!(scratch.states, inc.states, "states diverged on {il}");
                assert_eq!(scratch.outcomes, inc.outcomes, "outcomes diverged on {il}");
                assert_eq!(scratch.sim_us, inc.sim_us, "sim_us diverged on {il}");
            }
        }
        let stats = exec.stats();
        assert!(stats.hits > 0, "fault product still shares prefixes");
    }

    #[test]
    fn snapshot_clone_is_independent() {
        // Mutating states after a run must not corrupt cached snapshots:
        // replay the same interleaving twice and a scrambled one in between.
        let w = workload(4);
        let time = TimeModel::paper_setup();
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        let a = w.recorded_order();
        let b: Interleaving = [3u32, 2, 1, 0].into_iter().map(EventId::new).collect();
        let first = exec.execute(&LogModel, &w, &a, &time);
        drop(first);
        exec.execute(&LogModel, &w, &b, &time);
        let again = exec.execute(&LogModel, &w, &a, &time);
        let scratch = InlineExecutor::execute(&LogModel, &w, &a, &time);
        assert_eq!(scratch.states, again.states);
        assert_eq!(scratch.outcomes, again.outcomes);
    }
}
