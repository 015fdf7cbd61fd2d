//! Replay-pool speedup curves: wall-clock scaling of the parallel replay
//! scheduler at 1, 2, 4 and 8 workers.
//!
//! Two data sets, emitted as one JSON document:
//!
//! * the §2.3 motivating town workload (7 events, DFS → 5040
//!   interleavings) under a latency-heavy variant of the town model: each
//!   event waits out a fixed round-trip delay, standing in for the
//!   Redis-backed sequencer hops of the paper's real replay deployment
//!   (§4.3). Replay campaigns are latency-bound, so the workers overlap the
//!   waits and the curve scales with workers even on a single core;
//! * the 12-bug catalogue at a modest cap, without
//!   `stop_on_first_violation`, where pruning keeps runs short and the
//!   dispenser overhead is most visible.
//!
//! Every report is diffed against the single-worker reference before its
//! timing is trusted: a speedup obtained by diverging from the sequential
//! semantics would be meaningless.
//!
//! Usage: `fig_parallel [--cap N] [--pretty]`

use std::time::{Duration, Instant};

use er_pi::{ExploreMode, OpOutcome, Report, Session, SystemModel};
use er_pi_model::{Event, ReplicaId, Value};
use er_pi_subjects::{Bug, TownApp};
use serde::Serialize;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CATALOGUE_CAP: usize = 2_000;
/// Stand-in for one sequencer round-trip (the paper measures sub-ms hops
/// to the lock server; 40µs keeps the whole curve under ~10s wall).
const ROUND_TRIP: Duration = Duration::from_micros(40);

/// Wraps a model and charges each event a fixed round-trip wait, standing
/// in for the distributed-lock hop a real replayed event performs. The
/// wait never touches state, so replay results stay deterministic.
struct Latency<M>(M);

impl<M: SystemModel> SystemModel for Latency<M> {
    type State = M::State;

    fn replicas(&self) -> usize {
        self.0.replicas()
    }

    fn init(&self, replica: ReplicaId) -> M::State {
        self.0.init(replica)
    }

    fn apply(&self, states: &mut [M::State], event: &Event) -> OpOutcome {
        std::thread::sleep(ROUND_TRIP);
        self.0.apply(states, event)
    }

    fn observe(&self, state: &M::State) -> Value {
        self.0.observe(state)
    }

    fn state_size_hint(&self, state: &M::State) -> usize {
        // Forwarded so the wrapped model's snapshot-budget accounting
        // survives the wrapper (sessions default to incremental replay).
        self.0.state_size_hint(state)
    }
}

#[derive(Serialize)]
struct Point {
    workers: usize,
    wall_ms: u128,
    speedup: f64,
    /// `Report::diff` against the single-worker reference (must be null).
    divergence: Option<String>,
}

#[derive(Serialize)]
struct Curve {
    workload: String,
    explored: usize,
    violations: usize,
    points: Vec<Point>,
}

#[derive(Serialize)]
struct Document {
    catalogue_cap: usize,
    motivating: Curve,
    catalogue: Vec<Curve>,
    /// Speedup of the motivating curve at four workers — the acceptance
    /// threshold of the replay-pool change is ≥ 2.0 here.
    motivating_speedup_at_4: f64,
}

fn town_session(cap: usize) -> Session<Latency<TownApp>> {
    let mut session = Session::new(Latency(TownApp::new(2)));
    let r = ReplicaId::new;
    session.record(|sys| {
        let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
        sys.sync(r(0), r(1), ev1);
        let ev2 = sys.invoke(r(1), "add", [Value::from("ph")]);
        sys.sync(r(1), r(0), ev2);
        let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
        sys.sync(r(1), r(0), ev3);
        sys.external(r(0), "transmit");
    });
    // DFS over all 7! orders (5040 after the builder's recorded ordering),
    // no early stop: a fixed-size, compute-heavy campaign.
    session.set_mode(ExploreMode::Dfs);
    session.set_cap(cap);
    session
}

/// Builds one speedup curve from a closure that replays at a given worker
/// count, timing each point and diffing it against the `workers == 1`
/// reference.
fn curve(workload: String, mut replay: impl FnMut(usize) -> Report) -> Curve {
    let mut reference: Option<Report> = None;
    let mut base_ms = 0u128;
    let mut points = Vec::new();
    for workers in WORKER_COUNTS {
        let started = Instant::now();
        let report = replay(workers);
        let wall = started.elapsed().as_millis();
        let divergence = match &reference {
            None => {
                base_ms = wall;
                reference = Some(report);
                None
            }
            Some(reference) => reference.diff(&report),
        };
        points.push(Point {
            workers,
            wall_ms: wall,
            speedup: base_ms as f64 / wall.max(1) as f64,
            divergence,
        });
    }
    let reference = reference.expect("at least one worker count");
    Curve {
        workload,
        explored: reference.explored,
        violations: reference.violations.len(),
        points,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let cap: usize = get("--cap")
        .and_then(|v| v.parse().ok())
        .unwrap_or(er_pi_bench::CAP)
        .max(1);
    let pretty = args.iter().any(|a| a == "--pretty");

    let motivating = curve("motivating §2.3 (latency, DFS 5040)".into(), |workers| {
        let mut session = town_session(cap);
        session.set_workers(workers);
        session.replay(&TownApp::invariant()).expect("recorded")
    });

    let catalogue: Vec<Curve> = Bug::catalogue()
        .into_iter()
        .map(|bug| {
            curve(bug.name.to_string(), |workers| {
                bug.replay_report(CATALOGUE_CAP, false, workers)
            })
        })
        .collect();

    let motivating_speedup_at_4 = motivating
        .points
        .iter()
        .find(|p| p.workers == 4)
        .map(|p| p.speedup)
        .unwrap_or(0.0);

    let doc = Document {
        catalogue_cap: CATALOGUE_CAP,
        motivating,
        catalogue,
        motivating_speedup_at_4,
    };

    let rendered = if pretty {
        serde_json::to_string_pretty(&doc)
    } else {
        serde_json::to_string(&doc)
    }
    .expect("report serializes");
    println!("{rendered}");
}
