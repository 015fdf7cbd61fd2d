//! Per-layer probes for the traced run. Each layer is timed from outside,
//! by spans around calls into that crate's public functions.

use std::time::{Duration, Instant};

use er_pi::{
    CheckContext, FaultProduct, IncrementalExecutor, InlineExecutor, PruningConfig, Session,
    SystemModel, TimeModel, DEFAULT_CACHE_BUDGET,
};
use er_pi_fuzz::FuzzCase;
use er_pi_interleave::{DfsExplorer, ErPiExplorer, IndexedSource};
use er_pi_model::{FaultPlan, Interleaving, Value, Workload};
use er_pi_subjects::{Bug, SubjectKind, TownApp};

use crate::library::{self, Setup, CAP};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::verdict::{Finding, Tally, Verdict};

/// One campaign input of the `interleave` and `analysis` layers: a
/// recorded workload and how it is explored.
pub struct Input {
    /// Display label.
    pub label: String,
    /// The recorded workload.
    pub workload: Workload,
    /// ER-π pruning configuration; `None` explores DFS.
    pub config: Option<PruningConfig>,
    /// Fault plans of the `FaultProduct` (empty = the fault-free plan).
    pub plans: Vec<FaultPlan>,
}

impl Input {
    /// A catalogue bug in ER-π mode.
    pub fn bug(bug: &Bug) -> Input {
        Input {
            label: bug.name.to_owned(),
            workload: bug.workload().clone(),
            config: Some(bug.pruning_config().clone()),
            plans: Vec::new(),
        }
    }

    /// A fuzz trace as the daemon replays it: ER-π mode with causal
    /// pruning, the fault-free plan plus the trace's fault schedule.
    pub fn trace(case: &FuzzCase) -> Input {
        let (workload, plan) = case.build();
        let mut plans = vec![FaultPlan::empty()];
        if !plan.is_empty() {
            plans.push(plan);
        }
        Input {
            label: format!("trace:{}", case.target.name()),
            workload,
            config: Some(PruningConfig {
                require_causal: true,
                ..PruningConfig::default()
            }),
            plans,
        }
    }
}

/// Candidates the ER-π explorer of `input` examines while it is drained to
/// the cap, or `None` once they exceed `limit`.
pub fn examined_within(input: &Input, limit: u64) -> Option<u64> {
    let config = input.config.as_ref()?;
    let explorer = ErPiExplorer::new(&input.workload, config);
    let mut source = IndexedSource::new(FaultProduct::new(explorer, input.plans.clone()), CAP);
    while source.next().is_some() {
        if source.inner().inner().stats().examined() > limit {
            return None;
        }
    }
    let examined = source.inner().inner().stats().examined();
    (examined <= limit).then_some(examined)
}

/// Drains `input`'s explorer, lifted to the fault product and dispensed
/// by an `IndexedSource`, up to the cap — what a campaign generates.
/// Returns the stream and `(emitted, examined)`.
pub fn generate(input: &Input) -> (Vec<Interleaving>, u64, u64) {
    match &input.config {
        None => {
            let explorer = DfsExplorer::new(&input.workload);
            let mut source =
                IndexedSource::new(FaultProduct::new(explorer, input.plans.clone()), CAP);
            let stream: Vec<Interleaving> = source.by_ref().map(|(_, il)| il).collect();
            let n = stream.len() as u64;
            (stream, n, n)
        }
        Some(config) => {
            let explorer = ErPiExplorer::new(&input.workload, config);
            let mut source =
                IndexedSource::new(FaultProduct::new(explorer, input.plans.clone()), CAP);
            let stream: Vec<Interleaving> = source.by_ref().map(|(_, il)| il).collect();
            let stats = source.inner().inner().stats();
            (stream, stats.emitted, stats.examined())
        }
    }
}

/// The `interleave` and `analysis` layers over a workload's inputs.
pub struct InputLayers {
    /// Generation ns per emitted interleaving.
    pub gen_ns_per_run: f64,
    /// Emitted ÷ examined candidates.
    pub keep_ratio: f64,
    /// Median `analyze` time per input, µs.
    pub analyze_us: f64,
}

/// Runs the input pass `reps` times over `inputs`, one traced campaign per
/// input and repetition.
pub fn input_layers(tracer: &mut Tracer, inputs: &[Input], reps: usize) -> InputLayers {
    let (mut gen_ns, mut emitted, mut examined) = (0u128, 0u64, 0u64);
    let mut analyze_us = Vec::new();
    for _ in 0..reps {
        for input in inputs {
            tracer.next_campaign(format!("inputs:{}", input.label));
            let t = Instant::now();
            tracer.span("analysis.analyze", || {
                std::hint::black_box(er_pi::analyze(&input.workload))
            });
            analyze_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let (stream, e, x) = tracer.span("interleave.generate", || generate(input));
            gen_ns += t.elapsed().as_nanos();
            std::hint::black_box(stream);
            emitted += e;
            examined += x;
        }
    }
    InputLayers {
        gen_ns_per_run: gen_ns as f64 / emitted.max(1) as f64,
        keep_ratio: emitted as f64 / examined.max(1) as f64,
        analyze_us: median(&analyze_us),
    }
}

/// `rdl.clone_ns.<subject>`: one deep clone of a fully populated snapshot
/// of each catalogue subject, via `Bug::clone_probe`.
pub fn clone_costs(tracer: &mut Tracer, bugs: &[Bug]) -> Vec<(&'static str, f64)> {
    let subjects = [
        (SubjectKind::Roshi, "roshi"),
        (SubjectKind::OrbitDb, "orbitdb"),
        (SubjectKind::ReplicaDb, "replicadb"),
        (SubjectKind::Yorkie, "yorkie"),
    ];
    const BATCH: u32 = 2_000;
    subjects
        .iter()
        .filter_map(|&(kind, name)| {
            let bug = bugs.iter().find(|b| b.subject == kind)?;
            let probe = bug.clone_probe();
            tracer.next_campaign(format!("clone:{name}"));
            let batches: Vec<f64> = (0..9)
                .map(|_| {
                    let t = Instant::now();
                    tracer.span("rdl.clone_states", || {
                        for _ in 0..BATCH {
                            std::hint::black_box(probe.clone_states());
                        }
                    });
                    t.elapsed().as_nanos() as f64 / f64::from(BATCH)
                })
                .collect();
            Some((name, median(&batches)))
        })
        .collect()
}

/// Medians of the `town10` decomposition, per run unless noted.
#[derive(Debug, Default)]
pub struct TownLayers {
    /// Runs per campaign.
    pub runs: usize,
    /// Wall time of the default `Session` campaign.
    pub campaign_ns: f64,
    /// Wall time of the same campaign with incremental replay off.
    pub scratch_campaign_ns: f64,
    /// `Session::new` + `record`, µs per campaign.
    pub record_us: f64,
    /// `analyze`, µs per campaign.
    pub analyze_us: f64,
    /// Drain of the DFS source.
    pub gen_ns: f64,
    /// `IncrementalExecutor::execute`.
    pub incremental_ns: f64,
    /// `InlineExecutor::execute` on the same stream.
    pub scratch_ns: f64,
    /// `observe` + `Assertion::check`.
    pub check_ns: f64,
    /// `SystemModel::state_digest` over a run's final states.
    pub digest_ns: f64,
    /// Events one scratch run applies.
    pub events_per_run: f64,
    /// Incremental runs resumed from a cached prefix.
    pub hit_ratio: f64,
    /// Event applications saved ÷ scratch event applications.
    pub events_saved_ratio: f64,
    /// Trie bytes resident at the end of a campaign, MiB.
    pub bytes_resident_mb: f64,
    /// The decomposed loop's own bookkeeping (the root's self time).
    pub harness_ns: f64,
    /// Traced minus untraced decomposed campaign, % of untraced.
    pub trace_overhead_pct: f64,
}

impl TownLayers {
    /// Campaign wall time minus the layers' self times, default path.
    pub fn overhead_ns(&self) -> f64 {
        let layers = (self.record_us + self.analyze_us) * 1e3 / self.runs as f64
            + self.gen_ns
            + self.incremental_ns
            + self.check_ns;
        self.campaign_ns - layers
    }

    /// The same residual for the scratch session.
    pub fn scratch_overhead_ns(&self) -> f64 {
        let layers = (self.record_us + self.analyze_us) * 1e3 / self.runs as f64
            + self.gen_ns
            + self.scratch_ns
            + self.check_ns;
        self.scratch_campaign_ns - layers
    }
}

/// The default `town10` campaign rebuilt from its layers' public calls:
/// record, analyze, generate, then per run `IncrementalExecutor::execute`
/// and the checks. Returns its verdict and the executor's cache counters.
fn decomposed_campaign(tracer: &mut Tracer) -> (Verdict, er_pi::CacheStats, usize) {
    let root = tracer.enter("session.decomposed");
    let session = tracer.span("session.record", || {
        let mut session = Session::new(TownApp::new(2));
        library::record_town10(&mut session);
        session
    });
    let workload = session.workload().expect("recorded");
    tracer.span("analysis.analyze", || {
        std::hint::black_box(er_pi::analyze(workload))
    });
    let input = Input {
        label: "town10".to_owned(),
        workload: workload.clone(),
        config: None,
        plans: Vec::new(),
    };
    let (stream, _, _) = tracer.span("interleave.generate", || generate(&input));
    let model = session.model();
    let suite = TownApp::invariant();
    let time = TimeModel::paper_setup();
    let mut executor = IncrementalExecutor::<TownApp>::new(DEFAULT_CACHE_BUDGET);
    let mut first = None;
    let mut findings = Vec::new();
    let mut events = 0usize;
    for (i, il) in stream.iter().enumerate() {
        let exec = tracer.span("incremental.execute", || {
            executor.execute(model, workload, il, &time)
        });
        events += il.len();
        let violated = tracer.span("checks.check", || {
            let observations: Vec<Value> = exec.states.iter().map(|s| model.observe(s)).collect();
            let ctx = CheckContext {
                states: &exec.states,
                observations: &observations,
                interleaving: il,
                outcomes: &exec.outcomes,
            };
            let mut violated = Vec::new();
            for assertion in suite.assertions() {
                if let Err(message) = assertion.check(&ctx) {
                    violated.push((assertion.name().to_owned(), message));
                }
            }
            violated
        });
        if !violated.is_empty() && first.is_none() {
            first = Some(i);
        }
        findings.extend(violated);
    }
    tracer.exit(root);
    let mut verdict = Verdict {
        explored: stream.len(),
        first_violation_at: first,
        violations: findings
            .into_iter()
            .map(|(assertion, message)| Finding { assertion, message })
            .collect(),
    };
    verdict.violations.sort();
    verdict.violations.dedup();
    (verdict, executor.stats(), events)
}

/// The scratch executor and the digest probe over the `town10` stream.
fn scratch_pass(tracer: &mut Tracer, workload: &Workload, stream: &[Interleaving]) {
    let model = TownApp::new(2);
    let time = TimeModel::paper_setup();
    let root = tracer.enter("executor.pass");
    for il in stream {
        let exec = tracer.span("executor.execute", || {
            InlineExecutor::execute(&model, workload, il, &time)
        });
        tracer.span("model.state_digest", || {
            std::hint::black_box(model.state_digest(&exec.states))
        });
    }
    tracer.exit(root);
}

/// Rounds of the `town10` decomposition whose spans are kept for the
/// written trace (each holds ~40 000 spans).
const KEPT_ROUNDS: usize = 2;

/// The `town10` decomposition: until `budget` is spent (at least three
/// rounds), each round times one default `Session` campaign, one scratch
/// `Session` campaign, and the decomposed campaign untraced and traced (in
/// alternating order), followed by the traced scratch pass. Spans of the
/// first `KEPT_ROUNDS` rounds stay in the tracer; later rounds only feed
/// the medians.
pub fn town10_layers(
    setup: &Setup,
    tracer: &mut Tracer,
    budget: Duration,
    tally: &mut Tally,
) -> TownLayers {
    let want = setup.expected.town10.get(false);
    let (mut campaign, mut scratch, mut untraced, mut traced) = (vec![], vec![], vec![], vec![]);
    let mut per_campaign: Vec<std::collections::BTreeMap<&'static str, u64>> = Vec::new();
    let mut cache = er_pi::CacheStats::default();
    let mut events = 0usize;
    let (stream, _, _) = generate(&Input {
        label: "town10".to_owned(),
        workload: setup.town10.clone(),
        config: None,
        plans: Vec::new(),
    });
    let started = Instant::now();
    let mut round = 0;
    while round < 3 || started.elapsed() < budget {
        let (report, took) = library::town10_campaign(false);
        if tally.check("town10", &Verdict::of(&report), Some(want)) {
            campaign.push(took.as_nanos() as f64);
        }
        let t = Instant::now();
        let mut session = Session::new(TownApp::new(2));
        library::record_town10(&mut session);
        session
            .set_mode(er_pi::ExploreMode::Dfs)
            .set_cap(CAP)
            .set_workers(1)
            .set_incremental(false);
        let report = session.replay(&TownApp::invariant()).expect("recorded");
        let took = t.elapsed();
        if tally.check("town10 scratch", &Verdict::of(&report), Some(want)) {
            scratch.push(took.as_nanos() as f64);
        }
        for traced_now in [round % 2 == 1, round % 2 == 0] {
            if !traced_now {
                let t = Instant::now();
                let (verdict, _, _) = decomposed_campaign(&mut Tracer::new(false));
                untraced.push(t.elapsed().as_nanos() as f64);
                tally.check("town10 decomposed", &verdict, Some(want));
                continue;
            }
            tracer.next_campaign(format!("town10:{round}"));
            let from = tracer.spans().len();
            let t = Instant::now();
            let (verdict, stats, n) = decomposed_campaign(tracer);
            traced.push(t.elapsed().as_nanos() as f64);
            tally.check("town10 traced", &verdict, Some(want));
            scratch_pass(tracer, &setup.town10, &stream);
            per_campaign.push(trace::self_times(&tracer.spans()[from..], from));
            if round >= KEPT_ROUNDS {
                tracer.truncate(from);
            }
            cache = stats;
            events = n;
        }
        round += 1;
    }
    let runs = stream.len();
    let per_run = |name: &str| {
        let v: Vec<f64> = per_campaign
            .iter()
            .map(|m| *m.get(name).unwrap_or(&0) as f64 / runs as f64)
            .collect();
        median(&v)
    };
    let attributed = (cache.hits + cache.misses).max(1) as f64;
    TownLayers {
        runs,
        campaign_ns: median(&campaign) / runs as f64,
        scratch_campaign_ns: median(&scratch) / runs as f64,
        record_us: per_run("session.record") * runs as f64 / 1e3,
        analyze_us: per_run("analysis.analyze") * runs as f64 / 1e3,
        gen_ns: per_run("interleave.generate"),
        incremental_ns: per_run("incremental.execute"),
        scratch_ns: per_run("executor.execute"),
        check_ns: per_run("checks.check"),
        digest_ns: per_run("model.state_digest"),
        events_per_run: events as f64 / runs as f64,
        hit_ratio: cache.hits as f64 / attributed,
        events_saved_ratio: cache.events_saved as f64 / events.max(1) as f64,
        bytes_resident_mb: cache.bytes_resident as f64 / (1024.0 * 1024.0),
        harness_ns: per_run("session.decomposed"),
        trace_overhead_pct: (median(&traced) - median(&untraced)) / median(&untraced) * 100.0,
    }
}
