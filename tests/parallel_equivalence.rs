//! Differential-equivalence harness for parallel replay.
//!
//! The replay loop's contract is that a merged parallel [`Report`] is
//! *byte-identical* to the one-worker one — same runs, same order, same
//! violations, same simulated time — for any worker count. These tests pin
//! that contract across the entire 12-bug catalogue, with and without
//! `stop_on_first_violation`, at 1, 2 and 4 workers. `Report::diff`
//! compares every field except wall-clock time and per-worker load
//! (which are legitimately scheduling-dependent).

use er_pi_subjects::Bug;

const CAP: usize = 10_000;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// `workers == 1` replays on the calling thread alone and is the reference:
/// its report must diff clean against a second one-worker session.
#[test]
fn one_worker_is_the_sequential_path() {
    for bug in Bug::catalogue() {
        let a = bug.replay_report(CAP, true, 1);
        let b = bug.replay_report(CAP, true, 1);
        assert_eq!(
            a.diff(&b),
            None,
            "{}: sequential replay must be deterministic",
            bug.name
        );
    }
}

#[test]
fn parallel_equals_sequential_exhaustive() {
    for bug in Bug::catalogue() {
        let reference = bug.replay_report(CAP, false, 1);
        for workers in WORKER_COUNTS {
            let parallel = bug.replay_report(CAP, false, workers);
            assert_eq!(
                reference.diff(&parallel),
                None,
                "{} at {workers} workers diverged from sequential (exhaustive)",
                bug.name
            );
        }
    }
}

#[test]
fn parallel_equals_sequential_stop_on_first() {
    for bug in Bug::catalogue() {
        let reference = bug.replay_report(CAP, true, 1);
        for workers in WORKER_COUNTS {
            let parallel = bug.replay_report(CAP, true, workers);
            assert_eq!(
                reference.diff(&parallel),
                None,
                "{} at {workers} workers diverged from sequential (stop-on-first)",
                bug.name
            );
        }
    }
}

/// The first violation a parallel run reports must be the *lowest-indexed*
/// one — i.e. exactly the interleaving a sequential scan would have flagged
/// first — not merely "some" violation that happened to finish early.
#[test]
fn first_violation_index_is_scheduling_independent() {
    for bug in Bug::catalogue() {
        let reference = bug.replay_report(CAP, true, 1);
        assert!(
            reference.first_violation_at.is_some(),
            "{}: catalogue bug must manifest under ER-π pruning",
            bug.name
        );
        for workers in WORKER_COUNTS {
            let parallel = bug.replay_report(CAP, true, workers);
            assert_eq!(
                parallel.first_violation_at, reference.first_violation_at,
                "{} at {workers} workers found a different first violation",
                bug.name
            );
        }
    }
}
