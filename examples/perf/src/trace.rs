//! Bench-side spans around the public calls each job makes.
//!
//! Spans stay in memory and are written as JSON lines when the run ends.
//! A recorder that is not recording reads no clock, so the untraced run
//! that produces the end-to-end numbers pays nothing for this module.
//!
//! Span trees have one of three kinds of root: `setup` (one per set-up),
//! `pass` (one per traced pass, with one `job` child per app) and
//! `breakdown` (the parts of composite calls, timed once per app and kept
//! out of the pass trees so they are not counted twice).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use wasabi::engine::{EngineEvent, EngineObserver};
use wasabi::util::Json;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: Option<u64>,
}

/// In-memory span recorder. It is also the [`EngineObserver`] handed to
/// the dynamic pipeline, turning its phase events into spans.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        self.open_span(name);
        let out = f(self);
        self.close_span();
        out
    }

    /// Runs `f` inside a `job` span; every span opened inside carries `id`.
    pub fn job<T>(&mut self, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.job = Some(id);
        let out = self.span("job", f);
        self.job = None;
        out
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes the spans a panic left open above `depth`, so later spans
    /// nest correctly.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close_span();
        }
        self.job = None;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open_span(&mut self, name: &str) {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close_span(&mut self) {
        let now = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = now;
        }
    }

    /// Children of every span, by index.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(index);
            }
        }
        children
    }

    /// Nanoseconds of `span` that its children cover (their union).
    fn covered_ns(&self, span: usize, children: &[usize]) -> u64 {
        let mut intervals: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
            .collect();
        intervals.sort_unstable();
        let (lo, hi) = (self.spans[span].start_ns, self.spans[span].end_ns);
        let (mut covered, mut reach) = (0, lo);
        for (start, end) in intervals {
            let (start, end) = (start.max(reach), end.min(hi));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// Per-layer self time in milliseconds: for each span name, the sum of
    /// its spans' self time within each root tree that contains the name.
    pub fn layer_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let children = self.children();
        let mut per_root: BTreeMap<usize, BTreeMap<&str, u64>> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut root = index;
            while let Some(parent) = self.spans[root].parent {
                root = parent;
            }
            let duration = span.end_ns - span.start_ns;
            let self_ns = duration - self.covered_ns(index, &children[index]);
            *per_root
                .entry(root)
                .or_default()
                .entry(span.name.as_str())
                .or_default() += self_ns;
        }
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for sums in per_root.values() {
            for (name, ns) in sums {
                samples
                    .entry(name.to_string())
                    .or_default()
                    .push(*ns as f64 / 1e6);
            }
        }
        samples
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e6)
            .collect()
    }

    /// For every `job` span, the share of it its direct children cover.
    pub fn job_tiling(&self) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == "job")
            .map(|(index, span)| {
                let duration = (span.end_ns - span.start_ns).max(1);
                self.covered_ns(index, &children[index]) as f64 / duration as f64
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(index)),
                ("name", Json::from(span.name.as_str())),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("job", span.job.map_or(Json::Null, Json::from)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// The layer a dynamic-pipeline phase belongs to.
fn phase_layer(phase: &str) -> String {
    match phase {
        "restore" | "profile" | "plan" => format!("planner.{phase}"),
        "run" => "engine.run".to_string(),
        other => format!("core.{other}"),
    }
}

impl EngineObserver for Tracer {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        if !self.recording {
            return;
        }
        match event {
            EngineEvent::PhaseStarted { name } => self.open_span(&phase_layer(name)),
            EngineEvent::PhaseFinished { .. } => self.close_span(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_tiling_measures_cover() {
        let mut tracer = Tracer::new();
        tracer.spans = vec![
            span("pass", 0, 10_000_000, None),
            span("job", 0, 10_000_000, Some(0)),
            span("lang.compile", 0, 4_000_000, Some(1)),
            span("core.identify", 4_000_000, 9_000_000, Some(1)),
            span("pass", 20_000_000, 23_000_000, None),
            span("job", 20_000_000, 23_000_000, Some(4)),
            span("lang.compile", 20_000_000, 23_000_000, Some(5)),
        ];
        let layers = tracer.layer_ms();
        assert_eq!(layers["job"], vec![1.0, 0.0]);
        assert_eq!(layers["lang.compile"], vec![4.0, 3.0]);
        assert_eq!(
            layers["core.identify"],
            vec![5.0],
            "only the root that has it"
        );
        assert_eq!(tracer.job_tiling(), vec![0.9, 1.0]);
    }

    #[test]
    fn a_tracer_that_is_not_recording_keeps_nothing() {
        let mut tracer = Tracer::new();
        let value = tracer.span("pass", |t| t.job(0, |t| t.span("x", |_| 7)));
        assert_eq!(value, 7);
        assert!(tracer.spans.is_empty());
        tracer.set_recording(true);
        tracer.span("pass", |t| t.job(3, |t| t.span("x", |_| ())));
        assert_eq!(tracer.spans.len(), 3);
        assert_eq!(tracer.spans[2].job, Some(3));
        assert_eq!(tracer.spans[2].parent, Some(1));
    }
}
