//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer it times), a group (the slot or
//! repetition it belongs to, shared by every span of that slot), a start,
//! an end and the span that was open when it started. Spans stay in memory
//! and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;

use crate::clock::now_ns;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer the call belongs to (a per-layer metric stem).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Slot (or repetition) id shared by the spans of one slot.
    pub group: u64,
    /// Start, in nanoseconds of the benchmark clock.
    pub start: u64,
    /// End, in nanoseconds of the benchmark clock.
    pub end: u64,
}

/// An in-memory span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-group self time of one layer, and its call count.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    /// Self time summed per group, in nanoseconds (one entry per group
    /// that called the layer).
    pub per_group: Vec<u64>,
    /// Number of spans (calls).
    pub calls: u64,
}

impl LayerTime {
    /// Median self time per group, in microseconds.
    pub fn median_us(&self) -> f64 {
        let us: Vec<f64> = self.per_group.iter().map(|&ns| ns as f64 * 1e-3).collect();
        crate::stats::median(&us)
    }

    /// Median self time per group, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_us() * 1e-3
    }

    /// Total self time, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.per_group.iter().sum()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Runs `f` inside a span named `name` in group `group`.
    pub fn span<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, group);
        let out = f();
        self.exit();
        out
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, group: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            group,
            start: now_ns(),
            end: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end = now_ns();
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Self time of every span named `name`, summed per group.
    pub fn layer(&self, name: &str) -> LayerTime {
        let mut per_group: BTreeMap<u64, u64> = BTreeMap::new();
        let mut calls = 0;
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if s.name == name {
                *per_group.entry(s.group).or_insert(0) += t;
                calls += 1;
            }
        }
        LayerTime {
            per_group: per_group.into_values().collect(),
            calls,
        }
    }

    /// Total duration of the spans whose parent is a span named `root`:
    /// the time the layer spans inside each `root` span cover.
    pub fn covered_ns(&self, root: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .fold(0, |acc, s| acc + (s.end - s.start))
    }

    /// Writes the spans as tab-separated `id parent group name start_ns
    /// end_ns` rows (parent `-` for a root span).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tgroup\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.group, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_sum() {
        let mut t = Tracer::new();
        t.enter("slot", 0);
        t.span("a", 0, || std::hint::black_box(1 + 1));
        t.span("a", 0, || ());
        t.exit();
        t.span("a", 1, || ());
        let a = t.layer("a");
        assert_eq!(a.calls, 3);
        assert_eq!(a.per_group.len(), 2);
        let slot = t.layer("slot");
        let spans = t.spans();
        let children = (spans[1].end - spans[1].start) + (spans[2].end - spans[2].start);
        assert_eq!(slot.total_ns(), (spans[0].end - spans[0].start) - children);
        assert_eq!(t.covered_ns("slot"), children);
    }
}
