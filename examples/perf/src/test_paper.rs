//! `test-paper`: `wasabi test --json` on each paper app at paper scale.
//!
//! The profile phase is most of a pass and the run phase under 1%, so a
//! prefilter or profiling change shows here and an interpreter change
//! should not.

use crate::paper::{APPS, TABLE3_CAP, TABLE3_DELAY, TABLE3_HOW};
use crate::trace::Tracer;
use crate::workload::{compile, count, generate, source_mb, Counts, Workload};
use std::hint::black_box;
use wasabi::analysis::loops::{all_retry_locations, LoopQueryOptions};
use wasabi::analysis::resolve::ProjectIndex;
use wasabi::core::dynamic::{run_dynamic_with_observer, DynamicOptions, DynamicResult};
use wasabi::core::identify::{identify, Identified};
use wasabi::core::report_json;
use wasabi::core::score::score;
use wasabi::corpus::spec::Scale;
use wasabi::corpus::synth::{generate_app, GeneratedApp};
use wasabi::lang::project::Project;
use wasabi::llm::detector::sweep_project;
use wasabi::llm::simulated::SimulatedLlm;

pub struct TestPaper {
    apps: Vec<GeneratedApp>,
}

impl Workload for TestPaper {
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        Ok(TestPaper {
            apps: generate(seed, t, |spec| generate_app(spec, Scale::Paper)),
        })
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
        // The LLM seed the corpus calibration (and `repro`) uses.
        let identified = t.span("core.identify", |_| {
            identify(&project, &mut SimulatedLlm::with_seed(app.spec.seed))
        });
        // `wasabi test` captures per-run timing only under `--trace-out`.
        let options = DynamicOptions {
            capture_timing: t.recording(),
            ..DynamicOptions::default()
        };
        let result = run_dynamic_with_observer(&project, &identified.locations, &options, t);
        let report = t.span("core.render", |_| report_json(&identified, &result));

        count(counts, "lang.source_mb", source_mb(app));
        count(counts, "llm.calls", identified.llm_sweep.usage.calls as f64);
        count(
            counts,
            "planner.tests_total",
            result.profile.tests_total as f64,
        );
        count(
            counts,
            "planner.tests_covering",
            result.profile.tests_covering_retry() as f64,
        );
        count(counts, "engine.runs", result.campaign.runs_total as f64);
        count(counts, "engine.retried", result.campaign.retried as f64);
        count(counts, "vm.steps", result.campaign.steps as f64);
        count(counts, "oracles.bugs", result.bugs.len() as f64);
        let checked = if check {
            check_table3(app, &project, &identified, &result)
        } else {
            Ok(())
        };
        // Freeing a paper-scale project is a visible share of the job.
        t.span("core.free", |_| drop((project, identified, result)));
        checked.map(|()| report)
    }

    /// `identify` is a control-flow query plus an LLM sweep.
    fn breakdown(&self, t: &mut Tracer) -> Result<(), String> {
        for app in &self.apps {
            let project = compile(app).map_err(|e| format!("{}: {e}", app.spec.short))?;
            t.span("analysis.retry_query", |_| {
                let index = ProjectIndex::build(&project);
                black_box(all_retry_locations(&index, &LoopQueryOptions::default()));
            });
            t.span("llm.sweep", |_| {
                black_box(sweep_project(
                    &project,
                    &mut SimulatedLlm::with_seed(app.spec.seed),
                ));
            });
        }
        Ok(())
    }
}

/// The app's Table 3 cells (reported, false positives) must equal the
/// paper's.
fn check_table3(
    app: &GeneratedApp,
    project: &Project,
    identified: &Identified,
    result: &DynamicResult,
) -> Result<(), String> {
    let short = app.spec.short;
    let row = APPS
        .iter()
        .position(|a| *a == short)
        .ok_or_else(|| format!("{short} is not a paper app"))?;
    let eval = score(app, project, identified, result, &[]);
    let measured = [eval.dyn_cap, eval.dyn_delay, eval.dyn_how].map(|c| (c.reported(), c.fp));
    let expected = [TABLE3_CAP[row], TABLE3_DELAY[row], TABLE3_HOW[row]];
    if measured == expected {
        Ok(())
    } else {
        Err(format!(
            "Table 3 (cap, delay, how) cells {measured:?} differ from the paper's {expected:?}"
        ))
    }
}
