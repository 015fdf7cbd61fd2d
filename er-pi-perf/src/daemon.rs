//! The `daemon` workload: `er-pi-server` as a subprocess, driven by one
//! open-loop generator thread over plain HTTP/1.1.
//!
//! The generator holds one connection at a time (well under `nproc`) and
//! multiplexes three duties on its schedule: submitting each campaign at
//! its due time, polling submitted campaigns' status until they are done
//! (then fetching `/report`), and scraping `GET /metrics` once a second.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use er_pi_fuzz::{case_strategy, FuzzCase, OracleOptions, Target};
use proptest::test_runner::TestRng;
use proptest::Strategy;

use crate::layers;
use crate::library::shuffle;
use crate::trace::Tracer;
use crate::verdict::{Expected, Tally, Verdict};

/// Offered load, campaigns per second.
pub const RATE_PER_S: f64 = 8.0;
/// A report later than this after its scheduled send misses the limit.
pub const LATENCY_LIMIT_MS: f64 = 1_000.0;
/// Tenants submitting independently.
const TENANTS: u64 = 8;
/// `ledger` traces per block for each credit count 1–4 (2, 4, 6 and 8
/// entries). Each replays in under a millisecond standalone: many and
/// cheap, so the median measures the daemon's fixed per-campaign path.
const LEDGER_PER_CREDITS: usize = 10;
/// `crdts` traces per block by the size of their candidate space (the
/// candidates the ER-π explorer examines, a factorial of the trace's free
/// events): (largest examined count of the class, traces, fixed gap). A
/// standalone campaign takes under 12 ms up to 7! candidates, 20–40 ms at
/// 8! and 0.2–0.4 s at 9!; the classes keep about the generator's own
/// proportions (77%, 11%, 11%). The two heavy classes sit in a fixed gap
/// between bugs, so the queueing they cause is the same for every seed.
/// Larger traces (under 1% of draws, seconds each) are not drawn.
const CRDTS_CLASSES: [(u64, usize, Option<usize>); 3] = [
    (5_040, 7, None),
    (40_320, 1, Some(5)),
    (362_880, 1, Some(8)),
];

/// What one arrival submits.
#[derive(Debug, Clone)]
pub enum Subject {
    /// A catalogue bug, stop-on-first.
    Bug(String),
    /// A fuzz-generated trace with its fault schedule, exhaustive.
    Trace(Box<FuzzCase>),
}

/// One scheduled submission.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Scheduled send time, from the start of the schedule.
    pub due: Duration,
    /// The `POST /campaigns` body.
    pub body: String,
    /// What it replays.
    pub subject: Subject,
}

/// The seeded arrival schedule: whole blocks, as many as fit `seconds` at
/// `RATE_PER_S` (at least one). A block holds every catalogue bug once, in
/// catalogue order and evenly spaced, and fresh fuzz traces in the gaps
/// between them: the `ledger` strata and the `crdts` classes, the light
/// ones shuffled, the heavy ones in their fixed gap. The service runs
/// campaigns FIFO, so a heavy campaign delays the arrivals right behind
/// it; fixing where the heavy ones sit keeps that delay the same for every
/// seed, while the seed still draws the traces, their order, the tenants
/// and the arrival times. Arrivals sit on a jittered grid — one uniformly
/// placed arrival per `1/rate` slot — so every seed offers the same load.
pub fn schedule(rng: &mut TestRng, bugs: &[&str], seconds: u64) -> Vec<Arrival> {
    let traces_len = 4 * LEDGER_PER_CREDITS + CRDTS_CLASSES.iter().map(|c| c.1).sum::<usize>();
    let block_len = bugs.len() + traces_len;
    let blocks = ((RATE_PER_S * seconds as f64) / block_len as f64)
        .round()
        .max(1.0) as usize;
    let slot = 1.0 / RATE_PER_S;
    let mut subjects = Vec::with_capacity(blocks * block_len);
    for _ in 0..blocks {
        let mut pool = Vec::with_capacity(traces_len);
        let mut wanted = [LEDGER_PER_CREDITS; 4];
        while wanted.iter().any(|&n| n > 0) {
            let case = case_strategy(Target::Ledger).generate(rng);
            let credits = case.spec.entries.len() / 2;
            if let Some(n) = wanted.get_mut(credits - 1).filter(|n| **n > 0) {
                *n -= 1;
                pool.push(Subject::Trace(Box::new(case)));
            }
        }
        let mut pinned: Vec<(usize, Subject)> = Vec::new();
        let mut wanted = CRDTS_CLASSES.map(|c| c.1);
        let limit = CRDTS_CLASSES[CRDTS_CLASSES.len() - 1].0;
        while wanted.iter().any(|&n| n > 0) {
            let case = case_strategy(Target::Crdts).generate(rng);
            let Some(examined) = layers::examined_within(&layers::Input::trace(&case), limit)
            else {
                continue;
            };
            let class = CRDTS_CLASSES
                .iter()
                .position(|c| examined <= c.0)
                .expect("bounded by the last class");
            if wanted[class] == 0 {
                continue;
            }
            wanted[class] -= 1;
            let subject = Subject::Trace(Box::new(case));
            match CRDTS_CLASSES[class].2 {
                Some(gap) => pinned.push((gap.min(bugs.len() - 1), subject)),
                None => pool.push(subject),
            }
        }
        shuffle(rng, &mut pool);
        let mut pool = pool.into_iter();
        for (i, bug) in bugs.iter().enumerate() {
            subjects.push(Subject::Bug((*bug).to_owned()));
            let gap = traces_len * (i + 1) / bugs.len() - traces_len * i / bugs.len();
            let fixed: Vec<Subject> = pinned
                .extract_if(.., |(g, _)| *g == i)
                .map(|(_, subject)| subject)
                .collect();
            let rest = gap - fixed.len();
            subjects.extend(fixed);
            subjects.extend(pool.by_ref().take(rest));
        }
    }
    subjects
        .into_iter()
        .enumerate()
        .map(|(i, subject)| {
            let jitter = rng.below(1_000_000) as f64 / 1e6;
            let tenant = format!("tenant-{}", rng.below(TENANTS));
            let body = match &subject {
                Subject::Bug(name) => format!(
                    r#"{{"tenant":"{tenant}","bug":"{name}","stop_on_first_violation":true}}"#
                ),
                Subject::Trace(case) => format!(
                    r#"{{"tenant":"{tenant}","trace":{}}}"#,
                    serde_json::to_string(case).expect("fuzz cases serialize")
                ),
            };
            Arrival {
                due: Duration::from_secs_f64((i as f64 + jitter) * slot),
                body,
                subject,
            }
        })
        .collect()
}

/// The daemon subprocess; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `server` with `nproc` workers and runners and waits for the
    /// first `/healthz` 200.
    pub fn spawn(server: &std::path::Path, nproc: usize) -> Result<Daemon, String> {
        let n = nproc.to_string();
        let mut child = Command::new(server)
            .args(["--port", "0", "--workers", &n, "--runners", &n])
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", server.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        read.map_err(|e| format!("reading the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = get(&daemon.addr, "/healthz", false) {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The daemon's pid, for `/proc` readings.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `Connection: close` exchange; returns (status, body).
fn exchange(addr: &str, request: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((code, body))
}

fn get(addr: &str, path: &str, prometheus: bool) -> std::io::Result<(u16, String)> {
    let accept = if prometheus {
        "text/plain"
    } else {
        "application/json"
    };
    exchange(
        addr,
        &format!(
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"
        ),
    )
}

fn post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// A scalar string field of a flat JSON object.
fn field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":\"");
    let at = json.find(&key)? + key.len();
    json[at..].split('"').next()
}

/// The poll period for a campaign submitted `age` ago: an eighth of its
/// age, so the detection delay stays a bounded share of the latency.
pub fn poll_period(age: Duration) -> Duration {
    (age / 8).clamp(Duration::from_micros(500), Duration::from_millis(20))
}

/// How late the generator ran: actual minus scheduled send, ms (a send
/// ahead of schedule counts as on time).
pub fn lateness_ms(due: Duration, sent: Duration) -> f64 {
    sent.saturating_sub(due).as_secs_f64() * 1e3
}

enum Phase {
    Waiting,
    Submitted {
        id: String,
        submitted: Duration,
        next_poll: Duration,
        /// Last poll that still saw the campaign queued (or the submit).
        last_queued: Duration,
        running_at: Option<Duration>,
    },
    Finished,
}

/// Raw samples of one daemon run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Scheduled send → report fetched, ms, per campaign with the right
    /// verdict.
    pub report_ms: Vec<f64>,
    /// Per bug, its campaigns' report latencies, ms.
    pub bug_report_ms: Vec<(String, Vec<f64>)>,
    /// Reports inside the latency limit.
    pub on_time: u64,
    /// Interleavings explored by the campaigns with the right verdict.
    pub explored: u64,
    /// First scheduled send → last report, the serving span.
    pub span: Duration,
    /// Generator lateness, ms.
    pub late_ms: Vec<f64>,
    /// `POST /campaigns` exchange, ms.
    pub submit_ms: Vec<f64>,
    /// Successful `GET /report` exchange, ms.
    pub fetch_ms: Vec<f64>,
    /// Submit → first seen running (or last seen queued), ms.
    pub queue_wait_ms: Vec<f64>,
    /// From there → seen done, ms.
    pub run_ms: Vec<f64>,
    /// `GET /metrics` exchange, ms.
    pub scrape_ms: Vec<f64>,
    /// `GET /metrics` body size, KiB.
    pub scrape_kb: Vec<f64>,
    /// 429 refusals.
    pub rejected: u64,
    /// Transport errors, unexpected status codes and failed campaigns.
    pub errors: u64,
}

/// Drives `daemon` through `arrivals`, then checks every report: catalogue
/// bugs against `expected`, `crdts` traces for zero violations, `ledger`
/// traces byte for byte against the standalone replay.
pub fn run(
    daemon: &Daemon,
    arrivals: &[Arrival],
    expected: &Expected,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Samples {
    let addr = daemon.addr.clone();
    let mut s = Samples::default();
    let mut phases: Vec<Phase> = arrivals.iter().map(|_| Phase::Waiting).collect();
    let mut reports: Vec<Option<String>> = vec![None; arrivals.len()];
    let mut outcome: Vec<Option<Result<(), String>>> = vec![None; arrivals.len()];
    let mut latency: Vec<Option<f64>> = vec![None; arrivals.len()];
    let mut next_arrival = 0usize;
    let mut next_scrape = Duration::ZERO;
    let window = arrivals.last().map_or(Duration::ZERO, |a| a.due);
    let hard_stop = window + Duration::from_secs(90);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        let open = phases.iter().any(|p| !matches!(p, Phase::Finished));
        if !open || now > hard_stop {
            break;
        }
        // Submissions first: they are what the schedule promises.
        if next_arrival < arrivals.len() && arrivals[next_arrival].due <= now {
            let i = next_arrival;
            next_arrival += 1;
            tracer.next_campaign(format!("daemon:{i}"));
            s.late_ms.push(lateness_ms(arrivals[i].due, now));
            let sent = start.elapsed();
            let res = tracer.span("server.submit", || {
                post(&addr, "/campaigns", &arrivals[i].body)
            });
            let back = start.elapsed();
            s.submit_ms.push(ms(back - sent));
            phases[i] = match res {
                Ok((202, body)) => match field(&body, "id") {
                    Some(id) => Phase::Submitted {
                        id: id.to_owned(),
                        submitted: back,
                        next_poll: back + poll_period(Duration::ZERO),
                        last_queued: back,
                        running_at: None,
                    },
                    None => {
                        s.errors += 1;
                        outcome[i] = Some(Err(format!("submit {i}: no id in {body}")));
                        Phase::Finished
                    }
                },
                Ok((429, _)) => {
                    s.rejected += 1;
                    outcome[i] = Some(Err(format!("submit {i}: refused with 429")));
                    Phase::Finished
                }
                Ok((code, body)) => {
                    s.errors += 1;
                    outcome[i] = Some(Err(format!("submit {i}: HTTP {code} {body}")));
                    Phase::Finished
                }
                Err(e) => {
                    s.errors += 1;
                    outcome[i] = Some(Err(format!("submit {i}: {e}")));
                    Phase::Finished
                }
            };
            continue;
        }
        if now >= next_scrape && now <= window {
            next_scrape = now + Duration::from_secs(1);
            let t = start.elapsed();
            match tracer.span("server.scrape", || get(&addr, "/metrics", true)) {
                Ok((200, body)) => {
                    s.scrape_ms.push(ms(start.elapsed() - t));
                    s.scrape_kb.push(body.len() as f64 / 1024.0);
                }
                _ => s.errors += 1,
            }
            continue;
        }
        // The most overdue poll, if any is due.
        let due_poll = phases
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Phase::Submitted { next_poll, .. } if *next_poll <= now => Some((*next_poll, i)),
                _ => None,
            })
            .min();
        if let Some((_, i)) = due_poll {
            let Phase::Submitted {
                id,
                submitted,
                next_poll,
                last_queued,
                running_at,
            } = &mut phases[i]
            else {
                unreachable!("filtered to submitted campaigns")
            };
            let status = tracer.span("server.poll", || {
                get(&addr, &format!("/campaigns/{id}"), false)
            });
            let seen = start.elapsed();
            let state = match &status {
                Ok((200, body)) => field(body, "state").unwrap_or("").to_owned(),
                _ => String::new(),
            };
            match state.as_str() {
                "queued" | "running" => {
                    if state == "queued" {
                        *last_queued = seen;
                    } else if running_at.is_none() {
                        *running_at = Some(seen);
                    }
                    *next_poll = seen + poll_period(seen - *submitted);
                }
                "done" => {
                    // Polling resolves the queue/run split only to the
                    // first poll that saw it running, or else the last
                    // one that saw it queued.
                    let split = running_at.unwrap_or(*last_queued);
                    s.queue_wait_ms.push(ms(split - *submitted));
                    s.run_ms.push(ms(seen - split));
                    let t = start.elapsed();
                    let fetched = tracer.span("server.report_fetch", || {
                        get(&addr, &format!("/campaigns/{id}/report"), false)
                    });
                    let arrived = start.elapsed();
                    match fetched {
                        Ok((200, body)) => {
                            s.fetch_ms.push(ms(arrived - t));
                            latency[i] = Some(ms(arrived - arrivals[i].due));
                            s.span = s.span.max(arrived);
                            reports[i] = Some(body);
                        }
                        other => {
                            s.errors += 1;
                            outcome[i] = Some(Err(format!("report {i}: {other:?}")));
                        }
                    }
                    phases[i] = Phase::Finished;
                }
                _ => {
                    s.errors += 1;
                    outcome[i] = Some(Err(format!("status {i}: {status:?}")));
                    phases[i] = Phase::Finished;
                }
            }
            continue;
        }
        // Nothing due: sleep until the next deadline.
        let mut wake = hard_stop;
        if next_arrival < arrivals.len() {
            wake = wake.min(arrivals[next_arrival].due);
        }
        if now <= window {
            wake = wake.min(next_scrape);
        }
        for p in &phases {
            if let Phase::Submitted { next_poll, .. } = p {
                wake = wake.min(*next_poll);
            }
        }
        if let Some(gap) = wake.checked_sub(start.elapsed()) {
            std::thread::sleep(gap.min(Duration::from_millis(5)));
        }
    }
    for (i, p) in phases.iter().enumerate() {
        if !matches!(p, Phase::Finished) {
            outcome[i] = Some(Err(format!("campaign {i} unfinished at the hard stop")));
        }
    }

    // Verdicts, outside the timed window. Latency samples are kept only
    // for campaigns whose verdict is right.
    let mut by_bug: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (i, arrival) in arrivals.iter().enumerate() {
        let checked = match (&outcome[i], &reports[i]) {
            (Some(Err(e)), _) => Err(e.clone()),
            (_, None) => Err(format!("campaign {i}: no report")),
            (_, Some(body)) => verify(arrival, body, expected),
        };
        let explored = reports[i]
            .as_deref()
            .and_then(|b| Verdict::parse_report_json(b).ok())
            .map_or(0, |v| v.explored);
        if tally.record(checked) {
            s.explored += explored as u64;
            if let Some(latency) = latency[i] {
                s.report_ms.push(latency);
                if latency <= LATENCY_LIMIT_MS {
                    s.on_time += 1;
                }
                if let Subject::Bug(name) = &arrival.subject {
                    by_bug.entry(name.clone()).or_default().push(latency);
                }
            }
        }
    }
    s.bug_report_ms = by_bug.into_iter().collect();
    s
}

/// Checks one report: a catalogue bug against its expected verdict, a
/// `crdts` trace for zero violations (its generator makes every
/// interleaving converge), a `ledger` trace byte for byte against the
/// standalone replay of the same case.
fn verify(arrival: &Arrival, body: &str, expected: &Expected) -> Result<(), String> {
    let got = Verdict::parse_report_json(body)?;
    match &arrival.subject {
        Subject::Bug(name) => match expected.bug(name, true) {
            Some(want) if *want == got => Ok(()),
            want => Err(format!("{name}: verdict {got:?}, expected {want:?}")),
        },
        Subject::Trace(case) if case.target == Target::Crdts => match got.violations.is_empty() {
            true => Ok(()),
            false => Err(format!("crdts trace violated: {:?}", got.violations)),
        },
        Subject::Trace(case) => {
            let standalone = er_pi_fuzz::report_for(
                case,
                &OracleOptions {
                    workers: 1,
                    cap: er_pi_server::DEFAULT_CAP,
                    ..OracleOptions::default()
                },
            )
            .canonical_json();
            match standalone == body {
                true => Ok(()),
                false => Err(format!(
                    "ledger trace report differs from standalone: {body}"
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_counts_only_sends_after_their_due_time() {
        let due = Duration::from_millis(100);
        assert_eq!(lateness_ms(due, Duration::from_millis(90)), 0.0);
        assert_eq!(lateness_ms(due, Duration::from_millis(100)), 0.0);
        assert!((lateness_ms(due, Duration::from_micros(102_500)) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn schedule_is_seeded_open_loop_and_stratified() {
        let names: Vec<String> = (0..12).map(|i| format!("B-{i}")).collect();
        let bugs: Vec<&str> = names.iter().map(String::as_str).collect();
        let block =
            bugs.len() + 4 * LEDGER_PER_CREDITS + CRDTS_CLASSES.iter().map(|c| c.1).sum::<usize>();
        let a = schedule(&mut TestRng::for_case("t", 7), &bugs, 1);
        let b = schedule(&mut TestRng::for_case("t", 7), &bugs, 1);
        assert_eq!(a.len(), block, "whole blocks, at least one");
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.body == y.body));
        // One arrival per 1/rate slot: due times never reorder and never
        // leave their slot, whatever the service does.
        let slot = 1.0 / RATE_PER_S;
        for (i, x) in a.iter().enumerate() {
            let t = x.due.as_secs_f64();
            assert!(
                t >= i as f64 * slot && t < (i + 1) as f64 * slot,
                "{i}: {t}"
            );
        }
        // Each block holds every bug once.
        let first: Vec<_> = a[..block]
            .iter()
            .filter_map(|x| match &x.subject {
                Subject::Bug(n) => Some(n.clone()),
                Subject::Trace(_) => None,
            })
            .collect();
        assert_eq!(first.len(), bugs.len());
        // ... and every ledger stratum in full.
        for credits in 1..=4 {
            let n = a[..block]
                .iter()
                .filter(|x| match &x.subject {
                    Subject::Trace(c) => {
                        c.target == Target::Ledger && c.spec.entries.len() == 2 * credits
                    }
                    Subject::Bug(_) => false,
                })
                .count();
            assert_eq!(n, LEDGER_PER_CREDITS, "{credits} credits");
        }
        // Each heavy crdts class sits right after its bug.
        for pair in CRDTS_CLASSES.windows(2) {
            let (below, (max, _, gap)) = (pair[0].0, pair[1]);
            let gap = gap.unwrap();
            let bug = a
                .iter()
                .position(|x| matches!(&x.subject, Subject::Bug(n) if *n == bugs[gap]))
                .unwrap();
            let Subject::Trace(case) = &a[bug + 1].subject else {
                panic!("a trace follows bug {gap}");
            };
            let examined = layers::examined_within(&layers::Input::trace(case), max);
            assert!(examined > Some(below), "{examined:?}");
        }
        let c = schedule(&mut TestRng::for_case("t", 8), &bugs, 1);
        assert!(a.iter().zip(&c).any(|(x, y)| x.body != y.body));
    }

    #[test]
    fn poll_period_tracks_age_within_bounds() {
        assert_eq!(poll_period(Duration::ZERO), Duration::from_micros(500));
        assert_eq!(
            poll_period(Duration::from_millis(80)),
            Duration::from_millis(10)
        );
        assert_eq!(
            poll_period(Duration::from_secs(5)),
            Duration::from_millis(20)
        );
    }
}
