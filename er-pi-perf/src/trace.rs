//! In-memory spans recorded by the benchmark around each public call it
//! makes into a layer, written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover — so the self times of a tree add up to the
//! root's duration exactly, which is what lets the `town10` decomposition
//! account for the campaign wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Campaign the span belongs to.
    pub campaign: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Handle to an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; every call is a no-op otherwise, so the
/// same driver code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Label of each campaign id (index = id - 1).
    labels: Vec<String>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Starts a new campaign, labelled for the written trace; later spans
    /// carry its id.
    pub fn next_campaign(&mut self, label: impl Into<String>) {
        if self.enabled {
            self.labels.push(label.into());
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            campaign: self.labels.len() as u32,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Drops every span from index `len` on (all of them closed), keeping
    /// memory and the written trace bounded on long runs.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.stack.iter().all(|&i| i < len), "only closed spans go");
        self.spans.truncate(len);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let label = match s.campaign {
                0 => "",
                c => &self.labels[c as usize - 1],
            };
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","parent":{parent},"campaign":{},"label":"{label}","start_ns":{},"end_ns":{}}}"#,
                s.name, s.campaign, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total self time per span name, in ns: each span's duration minus the
/// union of its children's intervals clipped to it. `spans` is a run of
/// whole trees whose first span has index `base` in its tracer.
pub fn self_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p - base].push((s.start, s.end));
        }
    }
    let mut totals = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        *totals.entry(s.name).or_insert(0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            campaign: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("a", Some(2), 50, 60),
        ];
        let own = self_times(&spans, 0);
        assert_eq!(own["root"], 100 - 20 - 30);
        assert_eq!(own["a"], 20 + 10);
        assert_eq!(own["b"], 30 - 10);
        // The tree's self times add up to the root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
        ];
        // Covered: [10, 60) and [90, 100) = 60 ns.
        assert_eq!(self_times(&spans, 0)["root"], 40);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_campaign("c");
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end >= s.start && s.campaign == 1));

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.spans().is_empty());
    }
}
