//! What every workload provides, and the input generation they share.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use wasabi::corpus::spec::{paper_apps, AppSpec};
use wasabi::corpus::synth::GeneratedApp;
use wasabi::lang::project::Project;
use wasabi::util::rng::Rng;

/// Per-pass work counters, summed over the pass's jobs.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `value` to counter `key`.
pub fn count(counts: &mut Counts, key: &'static str, value: f64) {
    *counts.entry(key).or_default() += value;
}

/// One workload: a fixed list of jobs, one per paper app, run once per
/// pass.
pub trait Workload: Sized {
    /// Generates the inputs from `seed` and starts whatever the jobs talk
    /// to. Timed as `setup_s`.
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String>;

    /// The app each job slot runs, in job order.
    fn apps(&self) -> Vec<&'static str>;

    /// Runs job `slot` and returns the bytes the program reported. With
    /// `check`, also compares the verdicts against an independent
    /// reference; that runs only in the untimed warm-up pass.
    fn job(
        &mut self,
        slot: usize,
        t: &mut Tracer,
        counts: &mut Counts,
        check: bool,
    ) -> Result<String, String>;

    /// Times the parts of composite calls once per app (traced runs only).
    fn breakdown(&self, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
}

/// Generates the eight paper apps with `make` (one `corpus.generate` span
/// each) and applies the seed's permutation: a Fisher–Yates shuffle of the
/// job order, then of each app's file list. Seed 0 is the identity.
pub fn generate(
    seed: u64,
    t: &mut Tracer,
    make: impl Fn(&AppSpec) -> GeneratedApp,
) -> Vec<GeneratedApp> {
    let mut apps: Vec<GeneratedApp> = paper_apps()
        .iter()
        .map(|spec| t.span("corpus.generate", |_| make(spec)))
        .collect();
    if seed != 0 {
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut apps);
        for app in &mut apps {
            rng.shuffle(&mut app.files);
        }
    }
    apps
}

/// Compiles an app the way the CLI does, borrowing its sources.
pub fn compile(app: &GeneratedApp) -> Result<Project, String> {
    let sources: Vec<(&str, &str)> = app
        .files
        .iter()
        .map(|(path, source)| (path.as_str(), source.as_str()))
        .collect();
    Project::compile(app.spec.name, sources).map_err(|errors| {
        let first = errors.first().map(ToString::to_string).unwrap_or_default();
        format!("does not compile ({} errors): {first}", errors.len())
    })
}

/// Source size of an app in MiB, the unit of `lang.source_mb`.
pub fn source_mb(app: &GeneratedApp) -> f64 {
    app.files
        .iter()
        .map(|(_, source)| source.len())
        .sum::<usize>() as f64
        / MIB
}

/// Bytes per MiB, the `MB` of every metric.
pub const MIB: f64 = 1024.0 * 1024.0;
