//! Campaign verdicts and the committed expected-verdicts file.
//!
//! A verdict is what a campaign decided, stripped of everything
//! scheduling may change: the interleavings explored, the index of the
//! first violating one, and the distinct (assertion, message) violation
//! set. Timings only count for campaigns whose verdict matches.

use std::collections::{BTreeMap, BTreeSet};

use er_pi::Report;
use serde::{Deserialize, Serialize};

/// The committed expected-verdicts file, next to this package's manifest.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// One distinct violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Finding {
    /// Name of the violated assertion.
    pub assertion: String,
    /// Its message.
    pub message: String,
}

/// What a campaign decided.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Interleavings explored.
    pub explored: usize,
    /// 0-based index of the first violating interleaving.
    #[serde(default)]
    pub first_violation_at: Option<usize>,
    /// Distinct violations, sorted.
    pub violations: Vec<Finding>,
}

impl Verdict {
    /// The verdict of a library report.
    pub fn of(report: &Report) -> Verdict {
        Verdict::from_parts(
            report.explored,
            report.first_violation_at,
            report
                .violations
                .iter()
                .map(|v| (v.assertion.clone(), v.message.clone())),
        )
    }

    /// The verdict of a report as the daemon serves it
    /// (`Report::canonical_json`).
    pub fn parse_report_json(body: &str) -> Result<Verdict, String> {
        let wire: Verdict =
            serde_json::from_str(body).map_err(|e| format!("unparsable report: {e}"))?;
        Ok(Verdict::from_parts(
            wire.explored,
            wire.first_violation_at,
            wire.violations
                .into_iter()
                .map(|f| (f.assertion, f.message)),
        ))
    }

    fn from_parts(
        explored: usize,
        first_violation_at: Option<usize>,
        violations: impl Iterator<Item = (String, String)>,
    ) -> Verdict {
        let distinct: BTreeSet<(String, String)> = violations.collect();
        Verdict {
            explored,
            first_violation_at,
            violations: distinct
                .into_iter()
                .map(|(assertion, message)| Finding { assertion, message })
                .collect(),
        }
    }
}

/// The expected verdicts of one subject's two campaign kinds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pair {
    /// Exhaustive campaign at the cap.
    pub exhaustive: Verdict,
    /// Stop-on-first campaign at the cap.
    pub stop_on_first: Verdict,
}

/// The whole expected-verdicts file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Expected {
    /// The `town10` recording, DFS, cap 10 000.
    pub town10: Pair,
    /// Every Table-1 bug in ER-π mode, cap 10 000, by name.
    pub bugs: BTreeMap<String, Pair>,
}

impl Expected {
    /// Loads and parses the committed file.
    pub fn load() -> Result<Expected, String> {
        let text =
            std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{EXPECTED_PATH}: {e}"))
    }

    /// The expected verdict of bug `name`'s campaign.
    pub fn bug(&self, name: &str, stop_on_first: bool) -> Option<&Verdict> {
        self.bugs.get(name).map(|p| p.get(stop_on_first))
    }
}

impl Pair {
    /// The verdict of one campaign kind.
    pub fn get(&self, stop_on_first: bool) -> &Verdict {
        if stop_on_first {
            &self.stop_on_first
        } else {
            &self.exhaustive
        }
    }
}

/// Tally of checked campaigns: every mismatch is kept for the error
/// report and counts into `failed`.
#[derive(Debug, Default)]
pub struct Tally {
    /// Campaigns attempted.
    pub attempted: u64,
    /// Campaigns with a wrong verdict, an HTTP error or a refusal.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one campaign; `Err` records a failure.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 20 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    /// Compares `got` against `want` for campaign `what`.
    pub fn check(&mut self, what: &str, got: &Verdict, want: Option<&Verdict>) -> bool {
        self.record(match want {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{what}: verdict {got:?}, expected {want:?}")),
            None => Err(format!("{what}: no expected verdict")),
        })
    }
}
