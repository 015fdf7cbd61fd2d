//! The two library workloads, `town10` and `catalogue`: whole campaigns
//! through the public `Session` / `Bug` entry points, every executor
//! setting at its library default except the ones that define the
//! workload.

use std::time::{Duration, Instant};

use er_pi::{ExploreMode, Report, Session};
use er_pi_model::{ReplicaId, Value, Workload};
use er_pi_subjects::{Bug, ReplayOptions, TownApp};
use proptest::test_runner::TestRng;

use crate::trace::Tracer;
use crate::verdict::{Expected, Tally, Verdict};

/// The paper's campaign bound (§6.3).
pub const CAP: usize = 10_000;

/// The motivating town app extended to 10 events — the recording
/// `fig_prefix` and `fig_dpor` share. Event 5 is the propagation sync of
/// the first `remove`.
pub fn record_town10(session: &mut Session<TownApp>) -> &Workload {
    let r = ReplicaId::new;
    session.record(|sys| {
        let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
        sys.sync(r(0), r(1), ev1);
        let ev2 = sys.invoke(r(1), "add", [Value::from("ph")]);
        sys.sync(r(1), r(0), ev2);
        let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
        sys.sync(r(1), r(0), ev3);
        let ev4 = sys.invoke(r(0), "add", [Value::from("pl")]);
        sys.sync(r(0), r(1), ev4);
        sys.invoke(r(1), "remove", [Value::from("ph")]);
        sys.external(r(0), "transmit");
    })
}

/// One `town10` campaign: `Session` construction + `record` + `replay`,
/// DFS, cap 10 000, one worker (the sequential replay path).
pub fn town10_campaign(stop_on_first: bool) -> (Report, Duration) {
    let started = Instant::now();
    let mut session = Session::new(TownApp::new(2));
    record_town10(&mut session);
    session
        .set_mode(ExploreMode::Dfs)
        .set_cap(CAP)
        .set_workers(1)
        .set_stop_on_first_violation(stop_on_first);
    let report = session
        .replay(&TownApp::invariant())
        .expect("town10 is recorded");
    (report, started.elapsed())
}

/// One catalogue campaign: the bug's ER-π session at cap 10 000 with the
/// default worker count (all cores, so the pooled path).
pub fn bug_campaign(bug: &Bug, stop_on_first: bool) -> (Report, Duration) {
    let started = Instant::now();
    let report = bug.replay_report_opts(&ReplayOptions {
        cap: CAP,
        stop_on_first_violation: stop_on_first,
        workers: 0,
        ..ReplayOptions::default()
    });
    (report, started.elapsed())
}

/// What every library workload builds before timing: the `town10`
/// recording, the bug catalogue and the expected verdicts.
pub struct Setup {
    /// The Table-1 catalogue.
    pub bugs: Vec<Bug>,
    /// The committed expected verdicts.
    pub expected: Expected,
    /// The `town10` workload (for the layer probes).
    pub town10: Workload,
}

impl Setup {
    /// Builds everything once.
    pub fn build() -> Result<Setup, String> {
        let expected = Expected::load()?;
        let mut session = Session::new(TownApp::new(2));
        let town10 = record_town10(&mut session).clone();
        let bugs = Bug::catalogue();
        if bugs.len() != expected.bugs.len() {
            return Err(format!(
                "catalogue has {} bugs, the expected file {}",
                bugs.len(),
                expected.bugs.len()
            ));
        }
        Ok(Setup {
            bugs,
            expected,
            town10,
        })
    }
}

/// Times one more set-up, spreading the `setup_s` samples over the run so
/// their median does not hang on the host's state in one instant.
fn time_setup(s: &mut Samples) {
    let t = Instant::now();
    let setup = Setup::build().expect("the same set-up succeeded at the start");
    s.setup_s.push(t.elapsed().as_secs_f64());
    drop(setup);
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(rng: &mut TestRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Raw samples of one library run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of each exhaustive campaign, ms.
    pub report_ms: Vec<f64>,
    /// Runs per second of each exhaustive round.
    pub runs_per_s: Vec<f64>,
    /// Per subject, stop-on-first campaign times in ms.
    pub ttv_ms: Vec<(String, Vec<f64>)>,
    /// Per subject, exhaustive campaign times in ms.
    pub campaign_ms: Vec<(String, Vec<f64>)>,
    /// The last exhaustive and stop-on-first report of each subject.
    pub reports: Vec<Report>,
    /// Seconds of each timed set-up (one before every campaign).
    pub setup_s: Vec<f64>,
    /// Campaigns finished with the right verdict.
    pub good: u64,
    /// Wall time of the whole measurement.
    pub wall: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `town10`: repeated fresh campaigns until `budget` is spent, in a seeded
/// order of exhaustive and stop-on-first campaigns (three to one).
pub fn run_town10(
    setup: &Setup,
    rng: &mut TestRng,
    budget: Duration,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples {
        ttv_ms: vec![("town10".to_owned(), Vec::new())],
        ..Samples::default()
    };
    let started = Instant::now();
    while started.elapsed() < budget {
        let mut round = [false, false, false, true];
        shuffle(rng, &mut round);
        for stop_on_first in round {
            time_setup(&mut s);
            let (report, took) = town10_campaign(stop_on_first);
            let want = setup.expected.town10.get(stop_on_first);
            if !tally.check("town10", &Verdict::of(&report), Some(want)) {
                continue;
            }
            s.good += 1;
            if stop_on_first {
                s.ttv_ms[0].1.push(ms(took));
            } else {
                s.report_ms.push(ms(took));
                s.runs_per_s
                    .push(report.explored as f64 / took.as_secs_f64());
            }
        }
    }
    s.wall = started.elapsed();
    s
}

/// `catalogue`: rounds of one exhaustive campaign per bug followed by
/// `ttv_reps` stop-on-first campaigns per bug, each in a seeded order,
/// until `budget` is spent (at least one round). `reports` ends with the
/// last round's 12 exhaustive reports, then 12 stop-on-first ones.
pub fn run_catalogue(
    setup: &Setup,
    rng: &mut TestRng,
    budget: Duration,
    ttv_reps: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Samples {
    let names = |setup: &Setup| -> Vec<(String, Vec<f64>)> {
        setup
            .bugs
            .iter()
            .map(|b| (b.name.to_owned(), Vec::new()))
            .collect()
    };
    let mut s = Samples {
        ttv_ms: names(setup),
        campaign_ms: names(setup),
        ..Samples::default()
    };
    let started = Instant::now();
    while started.elapsed() < budget || s.runs_per_s.is_empty() {
        let mut order: Vec<usize> = (0..setup.bugs.len()).collect();
        shuffle(rng, &mut order);
        let (mut runs, mut busy) = (0usize, Duration::ZERO);
        s.reports.clear();
        for &i in &order {
            let bug = &setup.bugs[i];
            time_setup(&mut s);
            tracer.next_campaign(format!("{}:exhaustive", bug.name));
            let (report, took) = tracer.span("session.campaign", || bug_campaign(bug, false));
            let want = setup.expected.bug(bug.name, false);
            if tally.check(bug.name, &Verdict::of(&report), want) {
                s.good += 1;
                runs += report.explored;
                busy += took;
                s.campaign_ms[i].1.push(ms(took));
                s.report_ms.push(ms(took));
            }
            s.reports.push(report);
        }
        if busy > Duration::ZERO {
            s.runs_per_s.push(runs as f64 / busy.as_secs_f64());
        }
        let mut short: Vec<usize> = (0..setup.bugs.len())
            .flat_map(|i| std::iter::repeat_n(i, ttv_reps))
            .collect();
        shuffle(rng, &mut short);
        let mut seen = vec![false; setup.bugs.len()];
        for i in short {
            let bug = &setup.bugs[i];
            time_setup(&mut s);
            tracer.next_campaign(format!("{}:stop-on-first", bug.name));
            let (report, took) = tracer.span("session.campaign", || bug_campaign(bug, true));
            let want = setup.expected.bug(bug.name, true);
            if tally.check(bug.name, &Verdict::of(&report), want) {
                s.good += 1;
                s.ttv_ms[i].1.push(ms(took));
            }
            if !std::mem::replace(&mut seen[i], true) {
                s.reports.push(report);
            }
        }
    }
    s.wall = started.elapsed();
    s
}
