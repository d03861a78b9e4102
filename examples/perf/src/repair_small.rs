//! `repair-small`: `wasabi repair --corpus APP --amp --scale small` on
//! each paper app.
//!
//! Repair re-enters compile, lint and the campaign engine once per
//! candidate patch on small sources, so fixed per-call cost dominates: a
//! change that speeds up large inputs at the expense of small ones shows
//! here.

use crate::trace::Tracer;
use crate::workload::{count, generate, Counts, Workload};
use wasabi::corpus::spec::Scale;
use wasabi::corpus::synth::{generate_app_with_amp, GeneratedApp};
use wasabi::repair::{render_report, repair, score_against_truth, RepairOptions};
use wasabi::util::Json;

pub struct RepairSmall {
    apps: Vec<GeneratedApp>,
}

impl Workload for RepairSmall {
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        Ok(RepairSmall {
            apps: generate(seed, t, |spec| generate_app_with_amp(spec, Scale::Small)),
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
        // Corpus mode seeds the LLM with the app's spec seed.
        let options = RepairOptions {
            llm_seed: app.spec.seed,
            ..RepairOptions::default()
        };
        let outcome = t
            .span("repair.session", |_| {
                repair(app.spec.short, app.files.clone(), &options)
            })
            .map_err(|err| format!("repair failed: {err}"))?;
        let report = t.span("core.render", |_| {
            render_report(&outcome, Some(&app.truth)).pretty()
        });

        let targets = &outcome.targets;
        let accepted = targets
            .iter()
            .flat_map(|t| &t.tried)
            .filter(|a| a.accepted)
            .count();
        count(counts, "repair.targets", targets.len() as f64);
        count(
            counts,
            "repair.fixed",
            targets.iter().filter(|t| t.fixed).count() as f64,
        );
        count(
            counts,
            "repair.candidates",
            targets.iter().map(|t| t.attempts).sum::<u32>() as f64,
        );
        count(counts, "repair.accepted", accepted as f64);
        count(
            counts,
            "repair.validation_runs",
            outcome.validation_runs as f64,
        );
        count(
            counts,
            "engine.runs",
            (outcome.baseline_runs + outcome.validation_runs) as f64,
        );
        if check {
            let score = score_against_truth(&outcome, &app.truth);
            let fixable = score.get("fixable").and_then(Json::as_i64);
            let fixed = score.get("fixed").and_then(Json::as_i64);
            if fixable.is_none() || fixable != fixed {
                return Err(format!(
                    "{fixed:?} of {fixable:?} fixable seeded bugs fixed"
                ));
            }
        }
        Ok(report)
    }
}
