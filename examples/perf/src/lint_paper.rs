//! `lint-paper`: `wasabi lint --json --cross-check` on each paper app at
//! paper scale, with the amplification and retry-policy seeds added.
//!
//! Compile, the LLM sweep and the static analyses make up the whole pass
//! and no test runs, so a profile or interpreter change should read as no
//! change here.

use crate::trace::Tracer;
use crate::workload::{compile, count, generate, source_mb, Counts, Workload};
use std::collections::BTreeSet;
use std::hint::black_box;
use wasabi::analysis::checkers::{lint_project, LintOptions};
use wasabi::analysis::diag::{render_json, Diagnostic};
use wasabi::core::lint::{cross_check, lint_with_overlap};
use wasabi::corpus::spec::Scale;
use wasabi::corpus::synth::{append_policy_seeds, generate_app_with_amp, GeneratedApp};
use wasabi::llm::detector::sweep_project;
use wasabi::llm::simulated::SimulatedLlm;

pub struct LintPaper {
    apps: Vec<GeneratedApp>,
}

impl Workload for LintPaper {
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let apps = generate(seed, t, |spec| {
            let mut app = generate_app_with_amp(spec, Scale::Paper);
            append_policy_seeds(&mut app);
            app
        });
        Ok(LintPaper { apps })
    }

    fn apps(&self) -> Vec<&'static str> {
        self.apps.iter().map(|app| app.spec.short).collect()
    }

    fn job(
        &mut self,
        slot: usize,
        t: &mut Tracer,
        counts: &mut Counts,
        check: bool,
    ) -> Result<String, String> {
        let app = &self.apps[slot];
        let project = t.span("lang.compile", |_| compile(app))?;
        // `wasabi lint` seeds its simulated LLM with 0.
        let report = t.span("core.lint_overlap", |_| {
            lint_with_overlap(
                &project,
                &mut SimulatedLlm::with_seed(0),
                &LintOptions::default(),
            )
        });
        let cross = t.span("core.cross_check", |_| {
            cross_check(&report.lint, &report.sweep)
        });
        let rendered = t.span("core.render", |_| {
            render_json(&report.lint.diagnostics) + &cross.render_text()
        });

        count(counts, "lang.source_mb", source_mb(app));
        count(counts, "llm.calls", report.sweep.usage.calls as f64);
        count(
            counts,
            "analysis.diagnostics",
            report.lint.diagnostics.len() as f64,
        );
        count(counts, "core.cross_check_cells", cross.cells.len() as f64);
        let checked = if check {
            check_seeds(app, &report.lint.diagnostics)
        } else {
            Ok(())
        };
        // Freeing a paper-scale project is a visible share of the job.
        t.span("core.free", |_| drop((project, report, cross)));
        checked.map(|()| rendered)
    }

    /// `lint_with_overlap` is the static checkers plus an LLM sweep.
    fn breakdown(&self, t: &mut Tracer) -> Result<(), String> {
        for app in &self.apps {
            let project = compile(app).map_err(|e| format!("{}: {e}", app.spec.short))?;
            t.span("analysis.lint", |_| {
                black_box(lint_project(&project, &LintOptions::default()));
            });
            t.span("llm.sweep", |_| {
                black_box(sweep_project(&project, &mut SimulatedLlm::with_seed(0)));
            });
        }
        Ok(())
    }
}

/// A labelled seed: the diagnostic it should (or, as a decoy, should not)
/// raise, and where.
struct Label {
    code: &'static str,
    file: String,
    coordinator: String,
    genuine: bool,
}

/// Scores the findings in the seeded files against the labels: W004–W006
/// need precision and recall 1.00, A001 at least 0.9.
fn check_seeds(app: &GeneratedApp, diagnostics: &[Diagnostic]) -> Result<(), String> {
    let truth = &app.truth;
    let policy: Vec<Label> = truth
        .policy_seeds
        .iter()
        .map(|s| Label {
            code: s.code,
            file: s.file_path.clone(),
            coordinator: s.coordinator.to_string(),
            genuine: s.genuine,
        })
        .collect();
    let amp: Vec<Label> = truth
        .amp_seeds
        .iter()
        .map(|s| Label {
            code: "A001",
            file: s.file_path.clone(),
            coordinator: s.coordinator.to_string(),
            genuine: s.genuine,
        })
        .collect();
    let mut failures = Vec::new();
    for (code, labels, floor) in [
        ("W004", &policy, 1.0),
        ("W005", &policy, 1.0),
        ("W006", &policy, 1.0),
        ("A001", &amp, 0.9),
    ] {
        let files: BTreeSet<&str> = labels.iter().map(|l| l.file.as_str()).collect();
        let found: Vec<&Diagnostic> = diagnostics
            .iter()
            .filter(|d| d.code == code && files.contains(d.file.as_str()))
            .collect();
        let genuine: Vec<&Label> = labels
            .iter()
            .filter(|l| l.code == code && l.genuine)
            .collect();
        let hits = genuine
            .iter()
            .filter(|l| {
                found
                    .iter()
                    .any(|d| d.file == l.file && d.coordinator == l.coordinator)
            })
            .count();
        let precision = ratio(hits, found.len());
        let recall = ratio(hits, genuine.len());
        if genuine.is_empty() || precision < floor || recall < floor {
            failures.push(format!(
                "{code} precision {precision:.2} recall {recall:.2} ({hits} of {} found, {} genuine)",
                found.len(),
                genuine.len()
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}
