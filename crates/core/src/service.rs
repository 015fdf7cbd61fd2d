//! The replay loop: the one place a campaign's interleavings are claimed,
//! executed, checked and merged — State 3 of the paper's workflow (§4.3).
//!
//! A [`Campaign`] is one [`IndexedSource`] dispenser plus the
//! lowest-violation minimum and the stop flags. Slots claim contiguous
//! chunks from it and replay each run against their own per-slot state
//! (incremental executor, [`WorkerLoad`], hit-rate monitor, the runs
//! replayed so far); [`Campaign::finish`] merges the slots' runs back into
//! exploration order. Two entry points run the same chunk body,
//! [`Campaign::run_chunk`]:
//!
//! * [`replay_scoped`], behind [`Session::replay`](crate::Session::replay):
//!   the calling thread drives slot 0 and `workers − 1` scoped threads
//!   drive the rest, each slot's state living on its own stack frame — so
//!   the campaign may borrow the session's model, workload and suite;
//! * [`ExecutorService`], behind
//!   [`Session::replay_on`](crate::Session::replay_on): long-lived threads
//!   shared by every campaign in the process, serving the oldest campaign
//!   of the most urgent priority (`(priority, submission)` order — FIFO
//!   within a priority band) and keeping per-`(campaign, slot)` state
//!   between the chunks they claim.
//!
//! Whatever drives the slots, the merged result equals what one slot
//! replaying the source in order produces:
//!
//! * every dispensed interleaving carries a stable exploration index, and
//!   merged runs are ordered by it;
//! * stop flags and the campaign's [`CancelToken`] are checked between
//!   chunks only, so every claimed run up to the lowest violation executes
//!   and the retained index range is dense;
//! * under stop-on-first-violation the lowest-indexed violation wins: runs
//!   past it are skipped or discarded, so the output does not depend on
//!   which slot found what first;
//! * a panicking model surfaces as [`ErPiError::ExecutorPanic`], an
//!   observed cancellation as [`ErPiError::Cancelled`], and either way the
//!   whole result set is discarded — the session stays usable, and a
//!   service shrugs it off without disturbing co-scheduled campaigns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use er_pi_interleave::IndexedSource;
use er_pi_model::{Interleaving, Value, Workload};
use er_pi_telemetry::{worker_track, HitRateMonitor, Registry, Telemetry, TrackId};
use parking_lot::{Condvar, Mutex};

use crate::instrument::Instrument;
use crate::metrics::SvcMetrics;
use crate::subsume::SubsumeSet;
use crate::{
    CacheStats, CancelToken, CheckContext, ErPiError, IncrementalExecutor, InlineExecutor,
    RunRecord, SystemModel, TestSuite, TimeModel, Violation, WorkerLoad,
};

/// Default interleavings claimed per dispenser lock acquisition
/// (tunable per session via
/// [`Session::set_chunk_size`](crate::Session::set_chunk_size)).
/// Contiguous chunks (rather than strided or item-at-a-time claims)
/// preserve per-slot prefix locality: lexicographically adjacent
/// interleavings land in the same slot's checkpoint trie, so incremental
/// resumes stay hot. Chunks also amortize the dispenser lock.
pub const DEFAULT_CHUNK_SIZE: usize = 32;

/// Sentinel for "no violation found yet" in the atomic minimum.
const NO_VIOLATION: usize = usize::MAX;

/// What a campaign replays against.
pub(crate) struct Inputs<'a, M: SystemModel> {
    pub model: &'a M,
    pub workload: &'a Workload,
    pub time: &'a TimeModel,
    pub suite: &'a TestSuite<M::State>,
}

/// A campaign's replay settings.
pub(crate) struct Knobs<S> {
    pub stop_on_first_violation: bool,
    /// Snapshot budget of each slot's checkpoint trie; `None` replays
    /// every run from scratch.
    pub incremental_budget: Option<usize>,
    /// The campaign-wide explored-set for state-hash subsumption, shared
    /// by every slot's executor (`None` when subsumption is off).
    pub subsume: Option<Arc<SubsumeSet<S>>>,
    /// Dispenser claim granularity, in interleavings (min 1).
    pub chunk_size: usize,
    pub instrument: Instrument,
    pub cancel: Option<CancelToken>,
}

/// Where one claimed chunk's results sit in its slot's run and violation
/// lists: a contiguous prefix of the chunk's index range (a stop-on-first
/// skip only drops its tail).
struct Segment {
    first_index: usize,
    runs: usize,
    violations: usize,
}

/// The merged result of a campaign, before the session dresses it up as a
/// [`Report`](crate::Report).
pub(crate) struct CampaignOutput {
    /// Retained runs, ordered by exploration index (dense from 0).
    pub runs: Vec<RunRecord>,
    /// Per-run violations of the retained runs, in (run, assertion) order.
    pub violations: Vec<Violation>,
    /// Lowest run index with a violation, if any.
    pub first_violation_at: Option<usize>,
    /// Σ `sim_us` over the retained runs.
    pub sim_us: u64,
    /// Whether stop-on-first-violation ended the campaign.
    pub stopped: bool,
    /// Per-slot replay counters, in slot order.
    pub worker_loads: Vec<WorkerLoad>,
    /// Checkpoint-cache counters summed over the per-slot tries; `None`
    /// when the campaign ran the scratch executor.
    pub cache_stats: Option<CacheStats>,
}

/// A hook the inline slot of [`replay_scoped`] runs after every chunk:
/// given the number of interleavings dispensed so far, it may return a
/// regenerated explorer to reseed the source with (State-4 constraint
/// ingestion).
pub(crate) type Reseed<'r, I> = dyn FnMut(usize) -> Result<Option<I>, ErPiError> + 'r;

/// The state one slot carries from chunk to chunk. It belongs to whoever
/// drives the slot: a stack frame for [`replay_scoped`], the
/// per-`(campaign, slot)` table for the [`ExecutorService`].
pub(crate) struct Slot<M: SystemModel> {
    load: WorkerLoad,
    track: TrackId,
    /// The slot's own checkpoint trie: no cross-thread snapshot sharing,
    /// and chunked claims keep the slot's stream prefix-coherent.
    executor: Option<IncrementalExecutor<M>>,
    hit_monitor: Option<HitRateMonitor>,
    /// What the slot replayed, chunk after chunk, in claim order.
    output: SlotOutput,
}

/// A slot's replayed runs and their violations (in (run, assertion)
/// order), one [`Segment`] per claimed chunk.
#[derive(Default)]
struct SlotOutput {
    runs: Vec<RunRecord>,
    violations: Vec<Violation>,
    segments: Vec<Segment>,
}

impl<M: SystemModel> Slot<M> {
    fn new(index: usize, knobs: &Knobs<M::State>) -> Self {
        // Subsumption without incremental replay still rides on the
        // incremental executor — with a zero snapshot budget, so the trie
        // caches nothing and only the explored-set layer is live.
        let executor = match (knobs.incremental_budget, &knobs.subsume) {
            (None, None) => None,
            (budget, subsume) => {
                let mut executor = IncrementalExecutor::new(budget.unwrap_or(0));
                if let Some(set) = subsume {
                    executor.enable_subsumption(Arc::clone(set));
                }
                Some(executor)
            }
        };
        // Each slot watches its own trie's hit rate whenever someone is
        // listening — the warning names the slot via its track.
        let instrument = &knobs.instrument;
        let watched = instrument.telemetry.is_active() || instrument.metrics.is_some();
        Slot {
            load: WorkerLoad {
                worker: index,
                runs: 0,
                sim_us: 0,
            },
            track: worker_track(index),
            executor,
            hit_monitor: (knobs.incremental_budget.is_some() && watched)
                .then(HitRateMonitor::default),
            output: SlotOutput::default(),
        }
    }

    /// Reduces the slot to what the merge needs. [`replay_scoped`] retires
    /// each slot on its own thread, which drops the slot's checkpoint trie
    /// there — in parallel with the other slots, not serially in the
    /// merge.
    fn retire(self) -> Retired {
        Retired {
            load: self.load,
            cache: self.executor.map(|executor| executor.stats()),
            output: self.output,
        }
    }
}

/// What a slot leaves behind for the merge.
struct Retired {
    load: WorkerLoad,
    cache: Option<CacheStats>,
    output: SlotOutput,
}

/// The dispenser plus the bookkeeping that tells when a campaign drained.
struct Dispenser<I> {
    /// `Some` until [`Campaign::finish`] hands it back.
    source: Option<IndexedSource<I>>,
    /// Chunks claimed but not yet fully replayed.
    inflight: usize,
    /// No further chunks will ever be claimed.
    exhausted: bool,
    /// The campaign's [`CancelToken`] tripped at a chunk boundary (or the
    /// service shut down under it).
    cancelled: bool,
}

/// One campaign's shared state: the dispenser and the flags every slot
/// consults between chunks.
pub(crate) struct Campaign<S, I> {
    knobs: Knobs<S>,
    disp: Mutex<Dispenser<I>>,
    /// Signalled once the campaign is exhausted with no chunk in flight.
    drained: Condvar,
    lowest_violation: AtomicUsize,
    /// Internal stop: a violation under stop-on-first, or a model panic.
    stop: AtomicBool,
    panicked: Mutex<Option<String>>,
}

impl<S, I: Iterator<Item = Interleaving>> Campaign<S, I> {
    pub(crate) fn new(knobs: Knobs<S>, source: IndexedSource<I>) -> Self {
        Campaign {
            knobs,
            disp: Mutex::new(Dispenser {
                source: Some(source),
                inflight: 0,
                exhausted: false,
                cancelled: false,
            }),
            drained: Condvar::new(),
            lowest_violation: AtomicUsize::new(NO_VIOLATION),
            stop: AtomicBool::new(false),
            panicked: Mutex::new(None),
        }
    }

    /// Claims the next chunk and replays it on `slot` — the chunk body
    /// every entry point runs. Returns `false`, having claimed nothing, once the
    /// campaign hands out no more chunks (drained, stopped or cancelled).
    /// `metrics` are the service-wide latency histograms, when a registry
    /// is attached.
    pub(crate) fn run_chunk<M>(
        &self,
        inputs: &Inputs<'_, M>,
        slot: &mut Slot<M>,
        metrics: Option<&SvcMetrics>,
    ) -> bool
    where
        M: SystemModel<State = S>,
    {
        let telemetry = &self.knobs.instrument.telemetry;
        let t_claim = telemetry.start();
        let claim_started = metrics.map(|_| Instant::now());
        let Some(chunk) = self.claim() else {
            return false;
        };
        if let (Some(metrics), Some(started)) = (metrics, claim_started) {
            metrics
                .claim_wait
                .observe_us(started.elapsed().as_micros() as u64);
        }
        if telemetry.is_active() {
            telemetry.span_since(
                slot.track,
                "claim",
                t_claim,
                vec![
                    ("first_index", chunk[0].0.into()),
                    ("count", chunk.len().into()),
                ],
            );
        }

        let first_index = chunk[0].0;
        let (runs_before, violations_before) =
            (slot.output.runs.len(), slot.output.violations.len());
        // One unwind guard per chunk, not per run: a panic discards the
        // whole campaign, so where in the chunk it struck does not matter.
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            for (index, il) in chunk {
                // Under stop-on-first, a run past the lowest violation found
                // so far is speculative: the merge truncates it anyway, and
                // the minimum can only go down.
                if self.knobs.stop_on_first_violation
                    && index > self.lowest_violation.load(Ordering::Acquire)
                {
                    continue;
                }
                let run_started = metrics.map(|_| Instant::now());
                let t_run = telemetry.start();
                let violations = slot.output.violations.len();
                let run = execute_one(
                    inputs,
                    index,
                    il,
                    slot.executor.as_mut(),
                    telemetry,
                    slot.track,
                    &mut slot.output.violations,
                );
                if let (Some(metrics), Some(started)) = (metrics, run_started) {
                    metrics
                        .run_latency
                        .observe_us(started.elapsed().as_micros() as u64);
                }
                let violated = slot.output.violations.len() > violations;
                self.record(slot, index, &run, violated, t_run);
                slot.output.runs.push(run);
            }
        }));
        if let Err(payload) = replayed {
            self.panicked
                .lock()
                .get_or_insert_with(|| panic_message(payload.as_ref()));
            self.stop.store(true, Ordering::Release);
        }
        slot.output.segments.push(Segment {
            first_index,
            runs: slot.output.runs.len() - runs_before,
            violations: slot.output.violations.len() - violations_before,
        });
        self.release();
        true
    }

    /// Claims the next chunk under the dispenser lock, or marks the
    /// campaign exhausted.
    fn claim(&self) -> Option<Vec<(usize, Interleaving)>> {
        let mut disp = self.disp.lock();
        if disp.exhausted {
            return None;
        }
        let cancelled = self
            .knobs
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        let chunk = if cancelled || self.stopped() {
            Vec::new()
        } else {
            disp.source
                .as_mut()
                .expect("the source stays in place until the campaign finishes")
                .next_chunk(self.knobs.chunk_size.max(1))
        };
        if chunk.is_empty() {
            disp.cancelled = cancelled;
            disp.exhausted = true;
            if disp.inflight == 0 {
                self.drained.notify_all();
            }
            return None;
        }
        disp.inflight += 1;
        Some(chunk)
    }

    /// Marks a claimed chunk fully replayed.
    fn release(&self) {
        let mut disp = self.disp.lock();
        disp.inflight -= 1;
        if disp.exhausted && disp.inflight == 0 {
            self.drained.notify_all();
        }
    }

    /// Accounts one finished run on `slot`: its load, the lowest
    /// violation, the run span, the hit-rate monitor and the progress
    /// tallies.
    fn record<M>(
        &self,
        slot: &mut Slot<M>,
        index: usize,
        run: &RunRecord,
        violated: bool,
        t_run: u64,
    ) where
        M: SystemModel<State = S>,
    {
        slot.load.runs += 1;
        slot.load.sim_us += run.sim_us;
        if violated {
            self.lowest_violation.fetch_min(index, Ordering::AcqRel);
            if self.knobs.stop_on_first_violation {
                self.stop.store(true, Ordering::Release);
            }
        }
        let instrument = &self.knobs.instrument;
        let resumed_depth = slot
            .executor
            .as_ref()
            .map(IncrementalExecutor::last_resume_depth);
        if instrument.telemetry.is_active() {
            instrument.telemetry.span_since(
                slot.track,
                "run",
                t_run,
                vec![
                    ("index", index.into()),
                    ("resumed_depth", resumed_depth.unwrap_or(0).into()),
                    ("sim_us", run.sim_us.into()),
                    ("violated", violated.into()),
                    ("failed_ops", run.failed_ops.into()),
                ],
            );
        }
        // Only attribute hit/miss when the trie has a budget: a zero-budget
        // subsumption-only executor always resumes from depth 0 and would
        // report a fictitious 0% hit rate.
        let cache_hit = self
            .knobs
            .incremental_budget
            .and(resumed_depth)
            .map(|depth| depth > 0);
        if let (Some(monitor), Some(hit)) = (slot.hit_monitor.as_mut(), cache_hit) {
            if let Some(message) = monitor.record(hit) {
                if let Some(metrics) = &instrument.metrics {
                    metrics.warn_low_hit_rate();
                }
                instrument
                    .telemetry
                    .warn(slot.track, "cache:low-hit-rate", message);
            }
        }
        let subsumed = slot
            .executor
            .as_ref()
            .is_some_and(IncrementalExecutor::last_run_subsumed);
        instrument.run_done(slot.load.worker, cache_hit, subsumed);
    }

    /// Whether a violation (under stop-on-first) or a panic stopped the
    /// campaign.
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Ends the campaign as cancelled without claiming anything more (the
    /// service's shutdown path).
    fn abort(&self) {
        let mut disp = self.disp.lock();
        disp.cancelled = true;
        disp.exhausted = true;
        if disp.inflight == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until the campaign is exhausted with no chunk in flight.
    fn wait_drained(&self) {
        let mut disp = self.disp.lock();
        while !(disp.exhausted && disp.inflight == 0) {
            disp = self.drained.wait(disp);
        }
    }

    /// Merges a drained campaign: bring the slots' runs into exploration
    /// order, truncate past the lowest violation under stop-on-first, sum
    /// the rest, and fold in the `slots`' counters. Hands the exploration
    /// source back for the session's post-replay counter harvesting.
    fn finish(
        &self,
        slots: impl IntoIterator<Item = Retired>,
    ) -> Result<(CampaignOutput, IndexedSource<I>), ErPiError> {
        if let Some(what) = self.panicked.lock().take() {
            return Err(ErPiError::ExecutorPanic(what));
        }
        let source = {
            let mut disp = self.disp.lock();
            if disp.cancelled {
                // The caller asked the campaign to stop, not for an answer.
                return Err(ErPiError::Cancelled);
            }
            disp.source.take().expect("a campaign finishes once")
        };

        let mut worker_loads = Vec::new();
        let mut cache_stats: Option<CacheStats> = None;
        let mut outputs = Vec::new();
        for slot in slots {
            worker_loads.push(slot.load);
            if let Some(stats) = slot.cache {
                cache_stats
                    .get_or_insert_with(CacheStats::default)
                    .absorb(&stats);
            }
            if !slot.output.segments.is_empty() {
                outputs.push(slot.output);
            }
        }

        let lowest = self.lowest_violation.load(Ordering::Acquire);
        let stopped = self.knobs.stop_on_first_violation && lowest != NO_VIOLATION;
        let retained = if stopped { lowest + 1 } else { usize::MAX };
        let (mut runs, mut violations) = if outputs.len() == 1 {
            // A single slot claimed every chunk, in exploration order.
            let output = outputs.pop().expect("one output");
            (output.runs, output.violations)
        } else {
            interleave_segments(outputs, retained)
        };
        // Lowest-indexed violation wins: under stop-on-first, runs beyond
        // it were speculative and are discarded.
        if stopped {
            runs.truncate(retained);
            violations.truncate(violations.partition_point(|v| v.run < Some(retained)));
        }
        let sim_us = runs.iter().map(|run| run.sim_us).sum();

        let output = CampaignOutput {
            runs,
            violations,
            first_violation_at: (lowest != NO_VIOLATION).then_some(lowest),
            sim_us,
            stopped,
            worker_loads,
            cache_stats,
        };
        Ok((output, source))
    }
}

/// Merges several slots' outputs into exploration order: every chunk's
/// segment, sorted by first index, taken from its slot's lists (which hold
/// that slot's segments in claim order, hence in index order). The runs
/// are dense up to `retained`.
fn interleave_segments(
    outputs: Vec<SlotOutput>,
    retained: usize,
) -> (Vec<RunRecord>, Vec<Violation>) {
    let mut order = Vec::new();
    let mut lists = Vec::with_capacity(outputs.len());
    for (slot, output) in outputs.into_iter().enumerate() {
        order.extend(output.segments.into_iter().map(|segment| (slot, segment)));
        lists.push((output.runs.into_iter(), output.violations.into_iter()));
    }
    order.sort_unstable_by_key(|(_, segment)| segment.first_index);
    let mut runs = Vec::with_capacity(lists.iter().map(|(r, _)| r.len()).sum());
    let mut violations = Vec::with_capacity(lists.iter().map(|(_, v)| v.len()).sum());
    for (slot, segment) in order {
        debug_assert!(
            runs.len() >= retained || segment.first_index == runs.len(),
            "merged indices must be dense"
        );
        let (slot_runs, slot_violations) = &mut lists[slot];
        runs.extend(slot_runs.take(segment.runs));
        violations.extend(slot_violations.take(segment.violations));
    }
    (runs, violations)
}

/// Drives `campaign` on the calling thread as slot 0 plus `workers − 1`
/// scoped threads, then merges. With a `reseed` hook, the inline slot
/// claims one interleaving at a time and runs the hook after each, so the
/// hook sees every dispensed count; pass one worker to make it see them in
/// exploration order.
pub(crate) fn replay_scoped<M, I>(
    inputs: &Inputs<'_, M>,
    mut campaign: Campaign<M::State, I>,
    workers: usize,
    mut reseed: Option<&mut Reseed<'_, I>>,
) -> Result<(CampaignOutput, IndexedSource<I>), ErPiError>
where
    M: SystemModel + Sync,
    M::State: Send + Sync,
    I: Iterator<Item = Interleaving> + Send,
{
    if reseed.is_some() {
        campaign.knobs.chunk_size = 1;
    }
    let campaign = &campaign;
    let mut hook_failed = None;
    let slots = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.max(1))
            .map(|index| {
                scope.spawn(move || {
                    let mut slot = Slot::new(index, &campaign.knobs);
                    while campaign.run_chunk(inputs, &mut slot, None) {}
                    slot.retire()
                })
            })
            .collect();
        let mut inline = Slot::new(0, &campaign.knobs);
        while campaign.run_chunk(inputs, &mut inline, None) {
            let Some(hook) = reseed.as_deref_mut() else {
                continue;
            };
            if campaign.stopped() {
                continue;
            }
            let dispensed = campaign
                .disp
                .lock()
                .source
                .as_ref()
                .map_or(0, IndexedSource::dispensed);
            match hook(dispensed) {
                Ok(Some(inner)) => {
                    if let Some(source) = campaign.disp.lock().source.as_mut() {
                        source.reseed(inner);
                    }
                }
                Ok(None) => {}
                Err(error) => {
                    hook_failed = Some(error);
                    campaign.stop.store(true, Ordering::Release);
                }
            }
        }
        let mut slots = vec![inline.retire()];
        slots.extend(
            helpers
                .into_iter()
                .map(|helper| helper.join().expect("slots catch model panics")),
        );
        slots
    });
    if let Some(error) = hook_failed {
        return Err(error);
    }
    campaign.finish(slots)
}

/// Executes one interleaving — against a fresh checkpoint, or resuming
/// from the slot's trie when an incremental executor is supplied — and
/// checks the suite, appending any violations to `violations`.
fn execute_one<M: SystemModel>(
    inputs: &Inputs<'_, M>,
    index: usize,
    il: Interleaving,
    executor: Option<&mut IncrementalExecutor<M>>,
    telemetry: &Telemetry,
    track: TrackId,
    violations: &mut Vec<Violation>,
) -> RunRecord {
    let Inputs {
        model,
        workload,
        time,
        suite,
    } = *inputs;
    let exec = match executor {
        Some(incremental) => incremental.execute(model, workload, &il, time),
        None => InlineExecutor::execute(model, workload, &il, time),
    };
    let observations: Vec<Value> = exec.states.iter().map(|s| model.observe(s)).collect();
    let ctx = CheckContext {
        states: &exec.states,
        observations: &observations,
        interleaving: &il,
        outcomes: &exec.outcomes,
    };
    let t_check = telemetry.start();
    let before = violations.len();
    for assertion in suite.assertions() {
        if let Err(message) = assertion.check(&ctx) {
            violations.push(Violation {
                run: Some(index),
                assertion: assertion.name().to_owned(),
                message,
                interleaving: Some(il.clone()),
            });
        }
    }
    if telemetry.is_active() {
        telemetry.span_since(
            track,
            "check",
            t_check,
            vec![
                ("assertions", suite.assertions().len().into()),
                ("violated", (violations.len() > before).into()),
            ],
        );
    }
    RunRecord {
        failed_ops: exec.outcomes.iter().filter(|o| o.is_failed()).count(),
        interleaving: il,
        observations,
        sim_us: exec.sim_us,
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// What the worker threads see of a campaign: claim-and-execute one chunk,
/// or abort. Type-erased so campaigns over different models share a queue.
trait ServiceJob: Send + Sync {
    /// Scheduling key: `(priority, submission sequence)` — lower first.
    fn order_key(&self) -> (u8, u64);
    /// Claims and executes one chunk on worker `slot`. Returns `true` when
    /// the campaign will never hand out another chunk and should leave the
    /// queue. `metrics` is the service's shared latency histograms, when a
    /// registry is attached.
    fn run_chunk(&self, slot: usize, metrics: Option<&SvcMetrics>) -> bool;
    /// Ends the campaign as cancelled (service shutdown path).
    fn abort(&self);
}

/// One queued campaign: its owned inputs, the shared [`Campaign`], and one
/// state cell per service worker.
struct CampaignTask<M: SystemModel, I> {
    model: M,
    workload: Workload,
    time: TimeModel,
    suite: TestSuite<M::State>,
    priority: u8,
    seq: u64,
    campaign: Campaign<M::State, I>,
    /// Per-worker slot state, created on the worker's first claim. A
    /// worker holds its cell for the whole chunk; the submitter takes the
    /// cells once the campaign has drained.
    slots: Vec<Mutex<Option<Slot<M>>>>,
}

impl<M, I> ServiceJob for CampaignTask<M, I>
where
    M: SystemModel + Send + Sync,
    M::State: Send + Sync,
    I: Iterator<Item = Interleaving> + Send,
{
    fn order_key(&self) -> (u8, u64) {
        (self.priority, self.seq)
    }

    fn run_chunk(&self, slot: usize, metrics: Option<&SvcMetrics>) -> bool {
        let inputs = Inputs {
            model: &self.model,
            workload: &self.workload,
            time: &self.time,
            suite: &self.suite,
        };
        let mut cell = self.slots[slot].lock();
        let state = cell.get_or_insert_with(|| Slot::new(slot, &self.campaign.knobs));
        !self.campaign.run_chunk(&inputs, state, metrics)
    }

    fn abort(&self) {
        self.campaign.abort();
    }
}

/// The queue and wake-up machinery shared between the service handle and
/// its worker threads.
struct ServiceCore {
    /// Queued campaigns; scanned for the minimum
    /// [`order_key`](ServiceJob::order_key) on every pick. Campaign counts
    /// are small (a server queue, not a task graph), so a scan beats a
    /// heap that would need re-keying on removal.
    queue: Mutex<Vec<Arc<dyn ServiceJob>>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Shared latency histograms, when the embedder attached a metric
    /// registry ([`ExecutorService::with_registry`]). Installed before the
    /// workers spawn, immutable after.
    metrics: Option<SvcMetrics>,
}

impl ServiceCore {
    /// The most urgent claimable campaign, if any.
    fn pick(queue: &[Arc<dyn ServiceJob>]) -> Option<Arc<dyn ServiceJob>> {
        queue
            .iter()
            .min_by_key(|job| job.order_key())
            .map(Arc::clone)
    }

    fn worker_loop(&self, slot: usize) {
        loop {
            let job = {
                let mut queue = self.queue.lock();
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(job) = Self::pick(&queue) {
                        break job;
                    }
                    queue = self.available.wait(queue);
                }
            };
            if job.run_chunk(slot, self.metrics.as_ref()) {
                // The campaign is drained: drop it from the queue. Retain
                // by identity — several slots can discover the drain and
                // the removal must be idempotent.
                self.queue.lock().retain(|j| !Arc::ptr_eq(j, &job));
            }
        }
    }
}

/// A process-wide pool of replay worker threads multiplexing many
/// concurrent campaigns, each submitted with
/// [`Session::replay_on`](crate::Session::replay_on).
///
/// Campaigns are served in `(priority, submission)` order — priority `0`
/// is the most urgent, and within a priority band the service drains
/// campaigns FIFO, ganging every idle worker onto the front campaign. The
/// workers run the same chunk loop as
/// [`Session::replay`](crate::Session::replay), so reports stay
/// byte-identical to standalone replays. Dropping the service joins its
/// threads; campaigns still queued at that point complete with
/// [`ErPiError::Cancelled`] so no submitter is left waiting.
///
/// ```
/// use er_pi::ExecutorService;
///
/// let service = ExecutorService::new(2);
/// assert_eq!(service.workers(), 2);
/// // `Session::replay_on(&service, priority, &suite)` replays campaigns
/// // on it — see the session docs.
/// ```
pub struct ExecutorService {
    core: Arc<ServiceCore>,
    workers: usize,
    seq: AtomicU64,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExecutorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorService")
            .field("workers", &self.workers)
            .field("queued", &self.core.queue.lock().len())
            .finish()
    }
}

impl ExecutorService {
    /// Spawns a service with `workers` threads (`0` means
    /// [`ExecutorService::available_workers`]).
    pub fn new(workers: usize) -> Self {
        Self::spawn(workers, None)
    }

    /// Like [`ExecutorService::new`], with service-wide latency histograms
    /// (chunk-claim wait, per-run replay latency) registered into
    /// `registry`. The registry must be attached at construction because
    /// the worker threads capture their observation handles when they
    /// spawn.
    pub fn with_registry(workers: usize, registry: &Registry) -> Self {
        Self::spawn(workers, Some(SvcMetrics::new(registry)))
    }

    /// The platform's available parallelism (used for worker count `0` and
    /// the session default); `1` when it cannot be queried.
    ///
    /// An `ER_PI_WORKERS` environment variable overrides the probe:
    /// cgroup-limited deployments (containers with a CPU quota) report the
    /// host's core count through `available_parallelism`, so operators pin
    /// the real budget explicitly. Unparsable or zero values are ignored.
    pub fn available_workers() -> usize {
        std::env::var("ER_PI_WORKERS")
            .ok()
            .as_deref()
            .and_then(parse_workers_override)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    }

    fn spawn(workers: usize, metrics: Option<SvcMetrics>) -> Self {
        let workers = if workers == 0 {
            Self::available_workers()
        } else {
            workers
        };
        let core = Arc::new(ServiceCore {
            queue: Mutex::new(Vec::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
        });
        let handles = (0..workers)
            .map(|slot| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("er-pi-svc-{slot}"))
                    .spawn(move || core.worker_loop(slot))
                    .expect("spawn service worker")
            })
            .collect();
        ExecutorService {
            core,
            workers,
            seq: AtomicU64::new(0),
            handles,
        }
    }

    /// The number of worker threads (and therefore concurrent replay
    /// slots) this service multiplexes campaigns over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Campaigns currently queued or executing.
    pub fn queued(&self) -> usize {
        self.core.queue.lock().len()
    }

    /// Queues `campaign` over owned copies of `inputs` and blocks until the
    /// service drains it, returning the merged output plus the exploration
    /// source.
    ///
    /// # Errors
    ///
    /// [`ErPiError::Cancelled`] if the campaign's token tripped (or the
    /// service shut down) before it finished;
    /// [`ErPiError::ExecutorPanic`] if the model panicked in a worker.
    pub(crate) fn run_campaign<M, I>(
        &self,
        inputs: &Inputs<'_, M>,
        campaign: Campaign<M::State, I>,
        priority: u8,
    ) -> Result<(CampaignOutput, IndexedSource<I>), ErPiError>
    where
        M: SystemModel + Clone + Send + Sync + 'static,
        M::State: Send + Sync,
        I: Iterator<Item = Interleaving> + Send + 'static,
    {
        let task = Arc::new(CampaignTask {
            model: inputs.model.clone(),
            workload: inputs.workload.clone(),
            time: inputs.time.clone(),
            suite: inputs.suite.clone(),
            priority,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            campaign,
            slots: (0..self.workers).map(|_| Mutex::new(None)).collect(),
        });
        {
            let mut queue = self.core.queue.lock();
            queue.push(Arc::clone(&task) as Arc<dyn ServiceJob>);
            self.core.available.notify_all();
        }
        task.campaign.wait_drained();
        task.campaign.finish(
            task.slots
                .iter()
                .filter_map(|cell| cell.lock().take().map(Slot::retire)),
        )
    }
}

impl Drop for ExecutorService {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Whatever is still queued will never run: end each campaign as
        // cancelled so no submitter blocks forever.
        for job in std::mem::take(&mut *self.core.queue.lock()) {
            job.abort();
        }
    }
}

/// Parses an `ER_PI_WORKERS` override: a positive integer (surrounding
/// whitespace tolerated). Anything else — empty, zero, garbage — is `None`
/// so the platform probe stays authoritative.
fn parse_workers_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assertion, CrossCheck, OpOutcome};
    use er_pi_interleave::DfsExplorer;
    use er_pi_model::{Event, EventKind, ReplicaId};

    /// Integer register per replica; `set(v)` writes, fused sync copies.
    #[derive(Clone)]
    struct RegApp;

    impl SystemModel for RegApp {
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

        fn state_encode(&self, state: &i64, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&state.to_le_bytes());
            true
        }
    }

    fn two_writes() -> Workload {
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        let mut w = Workload::builder();
        let w1 = w.update(a, "set", [Value::from(1)]);
        w.sync_pair(a, b, w1);
        let w2 = w.update(b, "set", [Value::from(2)]);
        w.sync_pair(b, a, w2);
        w.build()
    }

    fn knobs<S>(stop_on_first_violation: bool, cancel: Option<CancelToken>) -> Knobs<S> {
        Knobs {
            stop_on_first_violation,
            incremental_budget: None,
            subsume: None,
            chunk_size: DEFAULT_CHUNK_SIZE,
            instrument: Instrument::disabled(),
            cancel,
        }
    }

    /// Which entry point replays a test campaign.
    #[derive(Clone, Copy, Debug)]
    enum Via<'s> {
        Scoped(usize),
        Service(&'s ExecutorService),
    }

    /// Replays the DFS space of `workload` on `via`.
    fn replay<M>(
        via: Via<'_>,
        model: &M,
        workload: &Workload,
        suite: &TestSuite<M::State>,
        knobs: Knobs<M::State>,
    ) -> Result<(CampaignOutput, IndexedSource<DfsExplorer>), ErPiError>
    where
        M: SystemModel + Clone + Send + Sync + 'static,
        M::State: Send + Sync,
    {
        let time = TimeModel::paper_setup();
        let inputs = Inputs {
            model,
            workload,
            time: &time,
            suite,
        };
        let source = IndexedSource::new(DfsExplorer::new(workload), usize::MAX);
        let campaign = Campaign::new(knobs, source);
        match via {
            Via::Scoped(workers) => replay_scoped(&inputs, campaign, workers, None),
            Via::Service(service) => service.run_campaign(&inputs, campaign, 5),
        }
    }

    #[test]
    fn every_entry_point_covers_the_space_in_stable_order() {
        let w = two_writes();
        let suite = TestSuite::new();
        let sequential: Vec<Interleaving> = DfsExplorer::new(&w).collect();
        for workers in [1, 2, 4] {
            let service = ExecutorService::new(workers);
            for via in [Via::Scoped(workers), Via::Service(&service)] {
                let (out, source) = replay(via, &RegApp, &w, &suite, knobs(false, None)).unwrap();
                assert_eq!(
                    out.runs.iter().map(|r| &r.interleaving).collect::<Vec<_>>(),
                    sequential.iter().collect::<Vec<_>>(),
                    "{via:?} must preserve exploration order"
                );
                let total: usize = out.worker_loads.iter().map(|l| l.runs).sum();
                assert_eq!(total, 24, "no lost or duplicated runs across slots");
                assert!(!source.truncated());
                if let Via::Scoped(workers) = via {
                    assert_eq!(out.worker_loads.len(), workers);
                }
            }
        }
    }

    #[test]
    fn lowest_indexed_violation_wins() {
        let w = two_writes();
        let suite = TestSuite::new().with(Assertion::replicas_converge("conv"));
        let (baseline, _) = replay(Via::Scoped(1), &RegApp, &w, &suite, knobs(true, None)).unwrap();
        assert!(baseline.stopped);
        for workers in [2, 4, 8] {
            let (out, _) =
                replay(Via::Scoped(workers), &RegApp, &w, &suite, knobs(true, None)).unwrap();
            assert_eq!(out.first_violation_at, baseline.first_violation_at);
            assert_eq!(out.runs, baseline.runs);
            assert_eq!(out.violations, baseline.violations);
            assert_eq!(out.sim_us, baseline.sim_us);
            assert!(out.stopped);
        }
    }

    #[test]
    fn co_scheduled_campaigns_do_not_interfere() {
        let w = two_writes();
        let service = Arc::new(ExecutorService::new(2));
        let suite = TestSuite::new().with(Assertion::replicas_converge("conv"));
        let handles: Vec<_> = (0..3u8)
            .map(|priority| {
                let service = Arc::clone(&service);
                let suite = suite.clone();
                let w = w.clone();
                std::thread::spawn(move || {
                    let time = TimeModel::paper_setup();
                    let inputs = Inputs {
                        model: &RegApp,
                        workload: &w,
                        time: &time,
                        suite: &suite,
                    };
                    let source = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
                    let campaign = Campaign::new(knobs(true, None), source);
                    service.run_campaign(&inputs, campaign, priority).unwrap()
                })
            })
            .collect();
        let (baseline, _) = replay(Via::Scoped(1), &RegApp, &w, &suite, knobs(true, None)).unwrap();
        for handle in handles {
            let (out, _) = handle.join().unwrap();
            assert_eq!(out.first_violation_at, baseline.first_violation_at);
            assert_eq!(out.runs, baseline.runs);
            assert_eq!(out.sim_us, baseline.sim_us);
            assert!(out.stopped);
        }
        assert_eq!(service.queued(), 0);
    }

    #[test]
    fn subsuming_campaign_matches_plain() {
        let w = two_writes();
        let suite = TestSuite::new().with_cross(CrossCheck::new("keep", |_| Ok(())));
        for workers in [1, 2, 4] {
            let (plain, _) = replay(
                Via::Scoped(workers),
                &RegApp,
                &w,
                &suite,
                knobs(false, None),
            )
            .unwrap();
            let set = Arc::new(SubsumeSet::new());
            let (subsuming, _) = replay(
                Via::Scoped(workers),
                &RegApp,
                &w,
                &suite,
                Knobs {
                    subsume: Some(Arc::clone(&set)),
                    ..knobs(false, None)
                },
            )
            .unwrap();
            assert_eq!(plain.runs, subsuming.runs);
            assert_eq!(plain.violations, subsuming.violations);
            assert!(plain.cache_stats.is_none());
            assert!(set.len() > 0, "every slot feeds the shared set");
            let stats = subsuming.cache_stats.expect("subsumption-only counters");
            assert_eq!(stats.hits + stats.misses, 24);
            if workers == 1 {
                // Deterministic with a single slot: later permutations of
                // the two-writes space re-reach explored states.
                assert!(stats.subsumed > 0, "subsumption must fire");
            }
        }
    }

    #[test]
    fn a_tripped_token_cancels_only_that_campaign() {
        let w = two_writes();
        let service = ExecutorService::new(2);
        let token = CancelToken::new();
        token.cancel();
        let suite = TestSuite::new();
        for via in [Via::Scoped(2), Via::Service(&service)] {
            let cancelled = replay(via, &RegApp, &w, &suite, knobs(false, Some(token.clone())));
            assert!(
                matches!(cancelled, Err(ErPiError::Cancelled)),
                "{via:?} must observe the token"
            );
        }
        // A co-resident campaign without a tripped token still completes.
        let (out, _) = replay(
            Via::Service(&service),
            &RegApp,
            &w,
            &suite,
            knobs(false, None),
        )
        .unwrap();
        assert_eq!(out.runs.len(), 24);
    }

    #[test]
    fn model_panics_surface_without_poisoning_the_service() {
        #[derive(Clone)]
        struct Bomb;
        impl SystemModel for Bomb {
            type State = ();
            fn replicas(&self) -> usize {
                1
            }
            fn init(&self, _r: ReplicaId) {}
            fn apply(&self, _s: &mut [()], _e: &Event) -> OpOutcome {
                panic!("slot kaboom");
            }
            fn observe(&self, _s: &()) -> Value {
                Value::Null
            }
        }
        let mut w = Workload::builder();
        w.update(ReplicaId::new(0), "x", [Value::from(1)]);
        w.update(ReplicaId::new(0), "y", [Value::from(2)]);
        let w = w.build();
        let service = ExecutorService::new(2);
        for via in [Via::Scoped(1), Via::Scoped(4), Via::Service(&service)] {
            match replay(via, &Bomb, &w, &TestSuite::new(), knobs(false, None)) {
                Err(ErPiError::ExecutorPanic(what)) => assert!(what.contains("slot kaboom")),
                other => panic!(
                    "{via:?}: expected ExecutorPanic, got {:?}",
                    other.map(|(o, _)| o.runs.len())
                ),
            }
        }
        // The service itself survives the panic.
        let good = two_writes();
        let (out, _) = replay(
            Via::Service(&service),
            &RegApp,
            &good,
            &TestSuite::new(),
            knobs(false, None),
        )
        .unwrap();
        assert_eq!(out.runs.len(), 24);
    }

    #[test]
    fn abort_drains_the_campaign_as_cancelled() {
        // The shutdown path Drop relies on: aborting a never-picked
        // campaign drains it so its submitter cannot block forever.
        let w = two_writes();
        let campaign: Campaign<i64, _> = Campaign::new(
            knobs(false, None),
            IndexedSource::new(DfsExplorer::new(&w), usize::MAX),
        );
        campaign.abort();
        campaign.wait_drained();
        // Idempotent: a second abort (e.g. a redundant Drop sweep) changes
        // nothing.
        campaign.abort();
        let done = campaign.finish(std::iter::empty());
        assert!(matches!(done, Err(ErPiError::Cancelled)));
    }

    #[test]
    fn an_idle_service_shuts_down_cleanly() {
        let service = ExecutorService::new(3);
        assert_eq!(service.workers(), 3);
        assert_eq!(service.queued(), 0);
        drop(service); // joins the three idle workers without hanging
    }

    #[test]
    fn workers_override_parses_strictly() {
        assert_eq!(parse_workers_override("4"), Some(4));
        assert_eq!(parse_workers_override(" 16 "), Some(16));
        assert_eq!(parse_workers_override("0"), None, "zero workers is absurd");
        assert_eq!(parse_workers_override(""), None);
        assert_eq!(parse_workers_override("-2"), None);
        assert_eq!(parse_workers_override("many"), None);
        assert_eq!(parse_workers_override("4.5"), None);
    }

    // One test covers both the platform probe and the env override:
    // `available_workers` reads `ER_PI_WORKERS` on every call, so keeping
    // the two scenarios in a single #[test] stops the parallel harness
    // from interleaving them.
    #[test]
    fn zero_workers_and_the_er_pi_workers_override() {
        let service = ExecutorService::new(0);
        assert_eq!(service.workers(), ExecutorService::available_workers());
        assert!(service.workers() >= 1);

        std::env::set_var("ER_PI_WORKERS", "3");
        let seen = ExecutorService::available_workers();
        let pinned = ExecutorService::new(0);
        std::env::remove_var("ER_PI_WORKERS");
        assert_eq!(seen, 3, "cgroup-limited deployments pin the real budget");
        assert_eq!(pinned.workers(), 3);

        std::env::set_var("ER_PI_WORKERS", "not-a-number");
        let garbage = ExecutorService::available_workers();
        std::env::remove_var("ER_PI_WORKERS");
        assert!(garbage >= 1, "garbage overrides fall back to the probe");
    }
}
