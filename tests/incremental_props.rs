//! Property tests for the incremental executor's eviction behaviour.
//!
//! The checkpoint trie is a pure accelerator: *which* snapshots happen to
//! be resident when a run starts must never leak into the report. These
//! properties drive randomized workloads through wildly different eviction
//! schedules — budget 0 (every run from scratch), budget ∞ (nothing ever
//! evicted) and a small random budget (constant eviction churn) — and
//! require the merged report to diff clean against the scratch executor
//! every time, at one worker and at several.

use proptest::prelude::*;

use er_pi::{ExploreMode, OpOutcome, Report, Session, SystemModel, TestSuite};
use er_pi_model::{Event, EventKind, ReplicaId, Value, Workload};

/// Two-replica last-write-wins register with a heap-owning state, so
/// snapshots exercise real deep clones and a non-trivial
/// `state_size_hint`.
struct HistMachine;

impl SystemModel for HistMachine {
    type State = Vec<i64>;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> Vec<i64> {
        Vec::new()
    }

    fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                let v = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                states[event.replica.index()].push(v);
                OpOutcome::Applied
            }
            EventKind::Sync { to, .. } => {
                let from = states[event.replica.index()].clone();
                states[to.index()] = from;
                OpOutcome::Applied
            }
            _ => OpOutcome::failed("unsupported"),
        }
    }

    fn observe(&self, state: &Vec<i64>) -> Value {
        Value::from(state.iter().copied().sum::<i64>())
    }

    fn state_size_hint(&self, state: &Vec<i64>) -> usize {
        std::mem::size_of::<Vec<i64>>() + state.len() * std::mem::size_of::<i64>()
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

fn replay(workload: &Workload, mode: ExploreMode, workers: usize, budget: Option<usize>) -> Report {
    let mut session = Session::new(HistMachine);
    session.set_workload(workload.clone());
    session.set_mode(mode);
    session.set_keep_runs(true);
    session.set_cap(100_000);
    session.set_workers(workers);
    match budget {
        Some(budget) => {
            session.set_incremental(true);
            session.set_cache_budget(budget);
        }
        None => {
            session.set_incremental(false);
        }
    }
    session.replay(&TestSuite::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Budget 0, budget ∞ and a small random budget produce the same
    /// report as the scratch executor, in both exploration modes.
    #[test]
    fn eviction_schedule_never_changes_the_report(
        steps in arb_steps(),
        random_budget in 1usize..512,
    ) {
        let workload = build_workload(&steps);
        for mode in [ExploreMode::ErPi, ExploreMode::Dfs] {
            let scratch = replay(&workload, mode, 1, None);
            for budget in [0, usize::MAX, random_budget] {
                let incremental = replay(&workload, mode, 1, Some(budget));
                prop_assert_eq!(
                    scratch.diff(&incremental),
                    None,
                    "budget {} diverged from scratch in {:?} mode",
                    budget,
                    mode
                );
            }
        }
    }

    /// Same property at several workers: per-worker tries with arbitrary
    /// eviction churn still merge into the scratch one-worker report.
    #[test]
    fn pooled_eviction_schedule_never_changes_the_report(
        steps in arb_steps(),
        random_budget in 1usize..512,
    ) {
        let workload = build_workload(&steps);
        let scratch = replay(&workload, ExploreMode::Dfs, 1, None);
        for workers in [2usize, 4] {
            for budget in [0, usize::MAX, random_budget] {
                let incremental = replay(&workload, ExploreMode::Dfs, workers, Some(budget));
                prop_assert_eq!(
                    scratch.diff(&incremental),
                    None,
                    "budget {} at {} workers diverged from scratch",
                    budget,
                    workers
                );
            }
        }
    }

    /// Budget 0 admits no snapshots: every probe is a miss, nothing is
    /// saved, nothing stays resident — the degenerate case really is the
    /// scratch executor plus counters.
    #[test]
    fn zero_budget_saves_nothing(steps in arb_steps()) {
        let workload = build_workload(&steps);
        let report = replay(&workload, ExploreMode::Dfs, 1, Some(0));
        let stats = report.cache_stats.expect("incremental run reports stats");
        prop_assert_eq!(stats.hits, 0);
        prop_assert_eq!(stats.events_saved, 0);
        prop_assert_eq!(stats.sim_us_saved, 0);
        prop_assert_eq!(stats.bytes_resident, 0);
        prop_assert_eq!(stats.misses, report.explored as u64);
    }
}
