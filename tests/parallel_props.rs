//! Property tests for parallel replay on randomized workloads.
//!
//! Three properties: (a) the union of work the shards executed is exactly
//! the sequential pruned interleaving set — nothing dropped, nothing
//! duplicated, same order; (b) the merged report is independent of the
//! worker count; (c) a panic inside one shard surfaces as
//! [`ErPiError::ExecutorPanic`], other shards are discarded cleanly, and
//! the session stays usable.

use std::collections::HashSet;

use proptest::prelude::*;

use er_pi::{ErPiError, ExploreMode, OpOutcome, Report, Session, SystemModel, TestSuite};
use er_pi_model::{Event, EventKind, ReplicaId, Value, Workload};

/// Two-replica last-write-wins register, order-sensitive by construction.
struct RegMachine;

impl SystemModel for RegMachine {
    type State = i64;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> i64 {
        0
    }

    fn apply(&self, states: &mut [i64], event: &Event) -> OpOutcome {
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                states[event.replica.index()] = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                OpOutcome::Applied
            }
            EventKind::Sync { to, .. } => {
                states[to.index()] = states[event.replica.index()];
                OpOutcome::Applied
            }
            _ => OpOutcome::failed("unsupported"),
        }
    }

    fn observe(&self, state: &i64) -> Value {
        Value::from(*state)
    }
}

/// Like [`RegMachine`], but detonates on any `bomb` op.
struct FuseMachine;

impl SystemModel for FuseMachine {
    type State = i64;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> i64 {
        0
    }

    fn apply(&self, states: &mut [i64], event: &Event) -> OpOutcome {
        if let EventKind::LocalUpdate { op } = &event.kind {
            assert!(op.function() != "bomb", "model detonated");
            states[event.replica.index()] = op.arg(0).and_then(Value::as_int).unwrap_or(0);
        }
        OpOutcome::Applied
    }

    fn observe(&self, state: &i64) -> Value {
        Value::from(*state)
    }
}

#[derive(Debug, Clone)]
enum Step {
    Update(u16, i64),
    Sync(u16),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..2, 1i64..9).prop_map(|(r, v)| Step::Update(r, v)),
            (0u16..2).prop_map(Step::Sync),
        ],
        1..6,
    )
}

fn build_workload(steps: &[Step]) -> Workload {
    let mut w = Workload::builder();
    let mut last_update = None;
    for step in steps {
        match step {
            Step::Update(r, v) => {
                last_update = Some(w.update(ReplicaId::new(*r), "set", [Value::from(*v)]));
            }
            Step::Sync(r) => {
                let from = ReplicaId::new(*r);
                let to = ReplicaId::new(1 - *r);
                match last_update {
                    Some(u) => {
                        w.sync_pair(from, to, u);
                    }
                    None => {
                        w.sync_untracked(from, to);
                    }
                }
            }
        }
    }
    w.build()
}

fn replay_with_workers(workload: &Workload, mode: ExploreMode, workers: usize) -> Report {
    let mut session = Session::new(RegMachine);
    session.set_workload(workload.clone());
    session.set_mode(mode);
    session.set_keep_runs(true);
    session.set_cap(100_000);
    session.set_workers(workers);
    session.replay(&TestSuite::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard union == pruned set: the pooled run list carries exactly the
    /// interleavings the sequential scan dispenses, in the same order,
    /// with no duplicates.
    #[test]
    fn shard_union_covers_pruned_set_exactly(steps in arb_steps()) {
        let workload = build_workload(&steps);
        let sequential = replay_with_workers(&workload, ExploreMode::ErPi, 1);
        let pooled = replay_with_workers(&workload, ExploreMode::ErPi, 4);

        let seq_ils: Vec<_> = sequential.runs.iter().map(|r| r.interleaving.clone()).collect();
        let pool_ils: Vec<_> = pooled.runs.iter().map(|r| r.interleaving.clone()).collect();
        prop_assert_eq!(&seq_ils, &pool_ils, "pooled runs are not the pruned set in order");

        let unique: HashSet<u64> = pool_ils.iter().map(|il| il.fingerprint()).collect();
        prop_assert_eq!(unique.len(), pool_ils.len(), "pooled runs contain duplicates");
    }

    /// The merged report is invariant under the worker count, in both
    /// exploration modes.
    #[test]
    fn merged_report_independent_of_worker_count(steps in arb_steps()) {
        let workload = build_workload(&steps);
        for mode in [ExploreMode::ErPi, ExploreMode::Dfs] {
            let reference = replay_with_workers(&workload, mode, 1);
            for workers in [2usize, 3, 4, 8] {
                let pooled = replay_with_workers(&workload, mode, workers);
                prop_assert_eq!(
                    reference.diff(&pooled),
                    None,
                    "report diverged at {} workers",
                    workers
                );
            }
        }
    }

    /// A panicking model in one shard surfaces as `ExecutorPanic` at any
    /// worker count — including one, where the calling thread replays
    /// alone; the session is not poisoned — a benign workload on the same
    /// session replays fine afterwards.
    #[test]
    fn shard_panic_is_contained(steps in arb_steps()) {
        for workers in [1, 4] {
            let mut bomb = Workload::builder();
            bomb.update(ReplicaId::new(0), "set", [Value::from(1)]);
            bomb.update(ReplicaId::new(1), "bomb", [Value::from(0)]);
            let bomb = bomb.build();

            let mut session = Session::new(FuseMachine);
            session.set_workload(bomb);
            session.set_mode(ExploreMode::Dfs);
            session.set_workers(workers);
            let err = session.replay(&TestSuite::new());
            prop_assert!(
                matches!(err, Err(ErPiError::ExecutorPanic(_))),
                "workers={}: expected ExecutorPanic, got {:?}",
                workers,
                err.map(|r| r.explored)
            );

            // Same session, benign randomized workload: still usable.
            let benign = build_workload(&steps);
            session.set_workload(benign);
            let report = session.replay(&TestSuite::new());
            prop_assert!(report.is_ok(), "workers={}: session poisoned after shard panic", workers);
            prop_assert!(report.unwrap().explored > 0);
        }
    }
}
