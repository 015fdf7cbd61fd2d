//! `er-pi-perf` — wall-clock benchmark of whole ER-π campaigns, end to end
//! and layer by layer.
//!
//! ```text
//! er-pi-perf --workload <town10|catalogue|daemon> --seed N --seconds S --trace <0|1>
//! er-pi-perf expected        # print a fresh expected-verdicts file
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is one JSON object. See
//! `README.md` next to this package's manifest.

mod daemon;
mod layers;
mod library;
mod mem;
mod stats;
mod trace;
mod verdict;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use er_pi::Report;
use library::Setup;
use proptest::test_runner::TestRng;
use stats::{geomean, median, percentile};
use trace::Tracer;
use verdict::{Expected, Pair, Tally, Verdict};

/// Daemon spawns measured per run (the last one serves the load).
const DAEMON_SETUPS: usize = 5;
/// Stop-on-first campaigns per bug in each `catalogue` round.
const TTV_REPS: usize = 3;

fn usage() -> ! {
    eprintln!(
        "usage: er-pi-perf --workload <town10|catalogue|daemon> --seed N --seconds S --trace <0|1>\n       er-pi-perf expected"
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("er-pi-perf: {message}");
    std::process::exit(1);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace))
            if ["town10", "catalogue", "daemon"].contains(&workload.as_str()) =>
        {
            Args {
                workload,
                seed,
                seconds,
                trace,
            }
        }
        _ => usage(),
    }
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// One line per metric, then the result object as the last line.
    fn print(&self, tally: &Tally) {
        for (name, value, unit) in &self.0 {
            println!("{name:<44} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
            .collect();
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed,
            metrics.join(",")
        );
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The daemon binary, built next to this one.
fn server_path() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("current_exe: {e}")));
    exe.with_file_name("er-pi-server")
}

/// `p`-quantile of `samples` under the percentile rule; when too few
/// samples lie beyond it, the highest quantile that has enough, with a
/// note on standard error.
fn tail(name: &str, samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or_else(|| {
        let fallback = stats::highest_valid_quantile(samples.len()).unwrap_or(0.5);
        eprintln!(
            "note: {name}: {} samples leave fewer than {} beyond p{}; reporting p{:.1}",
            samples.len(),
            stats::MIN_BEYOND,
            q * 100.0,
            fallback * 100.0
        );
        percentile(samples, fallback).unwrap_or(f64::NAN)
    })
}

/// Builds the expected-verdicts file from fresh campaigns.
fn print_expected() {
    let town10 = Pair {
        exhaustive: Verdict::of(&library::town10_campaign(false).0),
        stop_on_first: Verdict::of(&library::town10_campaign(true).0),
    };
    let bugs: BTreeMap<String, Pair> = er_pi_subjects::Bug::catalogue()
        .iter()
        .map(|bug| {
            let pair = Pair {
                exhaustive: Verdict::of(&library::bug_campaign(bug, false).0),
                stop_on_first: Verdict::of(&library::bug_campaign(bug, true).0),
            };
            (bug.name.to_owned(), pair)
        })
        .collect();
    let expected = Expected { town10, bugs };
    println!(
        "{}",
        serde_json::to_string_pretty(&expected).expect("verdicts serialize")
    );
}

/// The library set-up, timed; the workloads time one more before each
/// campaign.
fn library_setup() -> (Setup, f64) {
    let t = Instant::now();
    let setup = Setup::build().unwrap_or_else(|e| fail(e));
    (setup, t.elapsed().as_secs_f64())
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
    runs_per_s: f64,
    ttv_ms_geomean: f64,
    report_ms: Vec<f64>,
    goodput_per_s: f64,
    peak_rss_mb: f64,
    setup_s: f64,
}

impl EndToEnd {
    fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        m.put("runs_per_s", self.runs_per_s, "1/s");
        m.put("ttv_ms_geomean", self.ttv_ms_geomean, "ms");
        m.put("report_ms_p50", median(&self.report_ms), "ms");
        m.put(
            "report_ms_p90",
            tail("report_ms_p90", &self.report_ms, 0.9),
            "ms",
        );
        m.put("goodput_per_s", self.goodput_per_s, "1/s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put("setup_s", self.setup_s, "s");
        eprintln!("report_ms samples: {}", self.report_ms.len());
        m
    }
}

fn ttv_geomean(per_subject: &[(String, Vec<f64>)]) -> f64 {
    let medians: Vec<f64> = per_subject.iter().map(|(_, v)| median(v)).collect();
    geomean(&medians)
}

fn self_rss() -> f64 {
    mem::peak_rss_mb("self").unwrap_or_else(|e| fail(e))
}

fn end_to_end(args: &Args, rng: &mut TestRng, tally: &mut Tally) -> EndToEnd {
    let budget = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "town10" => {
            let (setup, first) = library_setup();
            let mut s = library::run_town10(&setup, rng, budget, tally);
            s.setup_s.push(first);
            EndToEnd {
                runs_per_s: median(&s.runs_per_s),
                ttv_ms_geomean: ttv_geomean(&s.ttv_ms),
                goodput_per_s: s.good as f64 / s.wall.as_secs_f64(),
                report_ms: s.report_ms,
                peak_rss_mb: self_rss(),
                setup_s: median(&s.setup_s),
            }
        }
        "catalogue" => {
            let (setup, first) = library_setup();
            let mut s = library::run_catalogue(
                &setup,
                rng,
                budget,
                TTV_REPS,
                &mut Tracer::new(false),
                tally,
            );
            s.setup_s.push(first);
            EndToEnd {
                runs_per_s: median(&s.runs_per_s),
                ttv_ms_geomean: ttv_geomean(&s.ttv_ms),
                goodput_per_s: s.good as f64 / s.wall.as_secs_f64(),
                report_ms: s.report_ms,
                peak_rss_mb: self_rss(),
                setup_s: median(&s.setup_s),
            }
        }
        _ => {
            let (s, setup_s, rss) = daemon_run(rng, args.seconds, &mut Tracer::new(false), tally);
            let span = s.span.as_secs_f64().max(1e-9);
            EndToEnd {
                runs_per_s: s.explored as f64 / span,
                ttv_ms_geomean: ttv_geomean(&s.bug_report_ms),
                goodput_per_s: s.on_time as f64 / span,
                report_ms: s.report_ms,
                peak_rss_mb: rss,
                setup_s,
            }
        }
    }
}

/// Sets the daemon up `DAEMON_SETUPS` times (library set-up, spawn, first
/// `/healthz` 200), drives the last one through a seeded schedule of
/// `seconds`, and returns the samples, the median set-up time and the
/// daemon's peak RSS.
fn daemon_run(
    rng: &mut TestRng,
    seconds: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (daemon::Samples, f64, f64) {
    let server = server_path();
    let mut times = Vec::new();
    let mut live = None;
    let mut setup = None;
    for _ in 0..DAEMON_SETUPS {
        drop(live.take());
        let t = Instant::now();
        let built = Setup::build().unwrap_or_else(|e| fail(e));
        live = Some(daemon::Daemon::spawn(&server, nproc()).unwrap_or_else(|e| fail(e)));
        times.push(t.elapsed().as_secs_f64());
        setup = Some(built);
    }
    let (setup, daemon) = (setup.expect("set up"), live.expect("spawned"));
    let names: Vec<&str> = setup.bugs.iter().map(|b| b.name).collect();
    let arrivals = daemon::schedule(rng, &names, seconds);
    let samples = daemon::run(&daemon, &arrivals, &setup.expected, tracer, tally);
    let rss = mem::peak_rss_mb(&daemon.pid().to_string());
    drop(daemon);
    (samples, median(&times), rss.unwrap_or_else(|e| fail(e)))
}

/// The `interleave`/`analysis` inputs of a workload.
fn workload_inputs(workload: &str, setup: &Setup, rng: &mut TestRng) -> Vec<layers::Input> {
    let town10 = || layers::Input {
        label: "town10".to_owned(),
        workload: setup.town10.clone(),
        config: None,
        plans: Vec::new(),
    };
    match workload {
        "town10" => vec![town10()],
        "catalogue" => setup.bugs.iter().map(layers::Input::bug).collect(),
        _ => {
            // The bugs plus one block's worth of the daemon's traces.
            let names: Vec<&str> = setup.bugs.iter().map(|b| b.name).collect();
            let mut inputs: Vec<layers::Input> =
                setup.bugs.iter().map(layers::Input::bug).collect();
            for arrival in daemon::schedule(rng, &names, 2) {
                if let daemon::Subject::Trace(case) = arrival.subject {
                    inputs.push(layers::Input::trace(&case));
                }
            }
            inputs
        }
    }
}

/// `report.canonical_json_us` and `report.json_kb`: medians over `reports`.
fn report_layer(tracer: &mut Tracer, reports: &[&Report]) -> (f64, f64) {
    let (mut us, mut kb) = (Vec::new(), Vec::new());
    for report in reports {
        tracer.next_campaign("report");
        for _ in 0..5 {
            let t = Instant::now();
            let json = tracer.span("report.canonical_json", || report.canonical_json());
            us.push(t.elapsed().as_secs_f64() * 1e6);
            kb.push(json.len() as f64 / 1024.0);
        }
    }
    (median(&us), median(&kb))
}

fn per_layer(args: &Args, rng: &mut TestRng, tally: &mut Tally) -> Metrics {
    let setup = Setup::build().unwrap_or_else(|e| fail(e));
    let mut tracer = Tracer::new(true);
    let main = Duration::from_secs(args.seconds);
    let w = args.workload.as_str();
    let mut m = Metrics::default();

    // interleave + analysis, on this workload's own inputs.
    let inputs = workload_inputs(w, &setup, rng);
    let reps = if w == "town10" { 5 } else { 1 };
    let il = layers::input_layers(&mut tracer, &inputs, reps);

    // The town10 decomposition (the whole budget on `town10`).
    let budget = if w == "town10" {
        main
    } else {
        Duration::from_secs(2)
    };
    let town = layers::town10_layers(&setup, &mut tracer, budget, tally);

    // Catalogue campaigns per subject (the whole budget on `catalogue`).
    let (budget, reps) = if w == "catalogue" {
        (main, TTV_REPS)
    } else {
        (Duration::ZERO, 1)
    };
    let cat = library::run_catalogue(&setup, rng, budget, reps, &mut tracer, tally);

    let clones = layers::clone_costs(&mut tracer, &setup.bugs);

    let town_report = library::town10_campaign(false).0;
    let n = setup.bugs.len();
    let reports: Vec<&Report> = match w {
        "town10" => vec![&town_report],
        "catalogue" => cat.reports[..n].iter().collect(),
        _ => cat.reports[n..].iter().collect(),
    };
    let (json_us, json_kb) = report_layer(&mut tracer, &reports);

    // The daemon (the whole budget on `daemon`).
    let seconds = if w == "daemon" { args.seconds } else { 5 };
    let (d, _, _) = daemon_run(rng, seconds, &mut tracer, tally);

    m.put("interleave.gen_ns_per_run", il.gen_ns_per_run, "ns");
    m.put("interleave.keep_ratio", il.keep_ratio, "ratio");
    m.put("analysis.analyze_us", il.analyze_us, "us");
    m.put("executor.exec_ns_per_run", town.scratch_ns, "ns");
    m.put("executor.events_per_run", town.events_per_run, "count");
    m.put("incremental.exec_ns_per_run", town.incremental_ns, "ns");
    m.put("incremental.hit_ratio", town.hit_ratio, "ratio");
    m.put(
        "incremental.events_saved_ratio",
        town.events_saved_ratio,
        "ratio",
    );
    m.put(
        "incremental.bytes_resident_mb",
        town.bytes_resident_mb,
        "MiB",
    );
    for (subject, ns) in &clones {
        m.put(format!("rdl.clone_ns.{subject}"), *ns, "ns");
    }
    m.put("model.digest_ns", town.digest_ns, "ns");
    m.put("checks.check_ns_per_run", town.check_ns, "ns");
    m.put("session.record_us", town.record_us, "us");
    m.put("session.campaign_ns_per_run", town.campaign_ns, "ns");
    m.put("session.overhead_ns_per_run", town.overhead_ns(), "ns");
    m.put(
        "session.scratch_campaign_ns_per_run",
        town.scratch_campaign_ns,
        "ns",
    );
    m.put(
        "session.scratch_overhead_ns_per_run",
        town.scratch_overhead_ns(),
        "ns",
    );
    m.put("trace.overhead_pct", town.trace_overhead_pct, "%");
    m.put("report.canonical_json_us", json_us, "us");
    m.put("report.json_kb", json_kb, "KiB");
    for (i, bug) in setup.bugs.iter().enumerate() {
        m.put(
            format!("subjects.{}.campaign_ms", bug.name),
            median(&cat.campaign_ms[i].1),
            "ms",
        );
        m.put(
            format!("subjects.{}.ttv_ms", bug.name),
            median(&cat.ttv_ms[i].1),
            "ms",
        );
    }
    m.put("server.submit_ms_p50", median(&d.submit_ms), "ms");
    m.put("server.report_fetch_ms_p50", median(&d.fetch_ms), "ms");
    m.put("server.queue_wait_ms_p50", median(&d.queue_wait_ms), "ms");
    m.put(
        "server.queue_wait_ms_p90",
        tail("server.queue_wait_ms_p90", &d.queue_wait_ms, 0.9),
        "ms",
    );
    m.put("server.run_ms_p50", median(&d.run_ms), "ms");
    m.put("server.scrape_ms_p50", median(&d.scrape_ms), "ms");
    m.put("server.rejected", d.rejected as f64, "count");
    m.put("server.errors", d.errors as f64, "count");
    m.put(
        "server.late_ms_p90",
        tail("server.late_ms_p90", &d.late_ms, 0.9),
        "ms",
    );
    m.put("telemetry.scrape_kb", median(&d.scrape_kb), "KiB");
    m.put(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );

    print_decomposition(&town);
    let out =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/traces")).join(format!("{w}.jsonl"));
    match tracer.write_jsonl(&out) {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans().len(),
            out.display()
        ),
        Err(e) => fail(format!("writing {}: {e}", out.display())),
    }
    m
}

/// The `town10` campaign wall time, split by layer self time.
fn print_decomposition(t: &layers::TownLayers) {
    let runs = t.runs as f64;
    let fixed = |us: f64| us * 1e3 / runs;
    let rows = [
        ("session.record", fixed(t.record_us)),
        ("analysis.analyze", fixed(t.analyze_us)),
        ("interleave.generate", t.gen_ns),
        ("incremental.execute", t.incremental_ns),
        ("checks.check", t.check_ns),
        ("session overhead (residual)", t.overhead_ns()),
    ];
    eprintln!(
        "town10 decomposition, ns per run (default session, {} runs):",
        t.runs
    );
    for (name, ns) in rows {
        eprintln!(
            "  {name:<30} {ns:>10.1}  {:>5.1}%",
            ns / t.campaign_ns * 100.0
        );
    }
    eprintln!("  {:<30} {:>10.1}  100.0%", "campaign wall", t.campaign_ns);
    eprintln!(
        "  scratch session: campaign {:.1}, executor.execute {:.1}, residual {:.1}",
        t.scratch_campaign_ns,
        t.scratch_ns,
        t.scratch_overhead_ns()
    );
    eprintln!(
        "  decomposition harness self time {:.1}; tracing overhead {:.2}%",
        t.harness_ns, t.trace_overhead_pct
    );
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("expected") {
        print_expected();
        return;
    }
    let args = parse_args();
    let mut rng = TestRng::for_case("er-pi-perf", args.seed as u32);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &mut rng, &mut tally)
    } else {
        end_to_end(&args, &mut rng, &mut tally).into_metrics()
    };
    for e in &tally.errors {
        eprintln!("verdict: {e}");
    }
    if let Some((name, ..)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        fail(format!("{name} has no value: too few samples"));
    }
    metrics.print(&tally);
    if tally.failed > 0 {
        std::process::exit(1);
    }
}
