//! Two shortcuts repair validation takes, against their slow paths:
//!
//! - re-sweeping one file with a fresh simulated model must give the
//!   answers (and usage) the shared model gives that file in a whole
//!   project sweep, so `sweep_project` (which sweeps on the machine's
//!   cores, one fork of the model per worker) equals the serial fold of
//!   `sweep_file`, both with one fresh model per file and with one model
//!   for every file;
//! - `patch_site_for` and `amp_sites_for` query only the diagnostic's own
//!   methods, and must resolve the loops a match against the whole
//!   project's strict and relaxed loop lists resolves.

use wasabi::analysis::checkers::{lint_project, LintOptions};
use wasabi::analysis::diag::Diagnostic;
use wasabi::analysis::loops::{find_retry_loops, LoopQueryOptions, RetryLoop};
use wasabi::analysis::patchsite::{amp_sites_for, patch_site_for, PatchSite};
use wasabi::analysis::resolve::ProjectIndex;
use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::{append_policy_seeds, generate_app_with_amp, GeneratedApp};
use wasabi::lang::project::{FileId, Project};
use wasabi::llm::detector::{sweep_file, sweep_project, LlmSweep};
use wasabi::llm::simulated::SimulatedLlm;

/// Every corpus app at tiny scale with the amplification and policy
/// seeds, compiled.
fn corpus() -> Vec<(GeneratedApp, Project)> {
    paper_apps()
        .iter()
        .map(|spec| {
            let mut app = generate_app_with_amp(spec, Scale::Tiny);
            append_policy_seeds(&mut app);
            let project = Project::compile(spec.short, app.files.clone()).expect("corpus compiles");
            (app, project)
        })
        .collect()
}

#[test]
fn per_file_sweeps_with_fresh_models_equal_the_shared_model_sweep() {
    for (app, project) in corpus() {
        let seed = app.spec.seed;
        let shared = sweep_project(&project, &mut SimulatedLlm::with_seed(seed));
        let per_file: LlmSweep = project
            .files
            .iter()
            .enumerate()
            .map(|(fidx, file)| {
                sweep_file(
                    FileId(fidx as u32),
                    file,
                    &mut SimulatedLlm::with_seed(seed),
                )
            })
            .collect();
        let mut one = SimulatedLlm::with_seed(seed);
        let serial: LlmSweep = project
            .files
            .iter()
            .enumerate()
            .map(|(fidx, file)| sweep_file(FileId(fidx as u32), file, &mut one))
            .collect();
        assert_eq!(shared, serial, "{}: serial one-model sweep differs", app.spec.short);
        assert!(
            !shared.retry_files.is_empty(),
            "{}: the sweep flags retry",
            app.spec.short
        );
        assert_eq!(
            shared, per_file,
            "{}: per-file sweep differs",
            app.spec.short
        );
    }
}

/// The whole project's retry loops: the strict keyword-filtered list,
/// then the relaxed list's loops not already in it.
fn whole_project_loops(project: &Project, options: &LoopQueryOptions) -> Vec<RetryLoop> {
    let index = ProjectIndex::build(project);
    let mut loops = find_retry_loops(&index, options);
    let relaxed = LoopQueryOptions {
        keyword_filter: false,
        ..options.clone()
    };
    for rl in find_retry_loops(&index, &relaxed) {
        if !loops
            .iter()
            .any(|have| have.file == rl.file && have.loop_id == rl.loop_id)
        {
            loops.push(rl);
        }
    }
    loops
}

fn site(project: &Project, rl: &RetryLoop) -> PatchSite {
    PatchSite {
        file: rl.file,
        file_path: project.files[rl.file.0 as usize].path.clone(),
        method: rl.coordinator.clone(),
        loop_id: rl.loop_id,
        span: rl.span,
    }
}

fn anchored_at<'a>(
    project: &Project,
    loops: &'a [RetryLoop],
    diag: &Diagnostic,
) -> Option<&'a RetryLoop> {
    loops.iter().find(|rl| {
        let file = &project.files[rl.file.0 as usize];
        let pos = file.line_map().line_col(rl.span.start);
        file.path == diag.file
            && rl.coordinator.to_string() == diag.coordinator
            && (pos.line, pos.col) == (diag.line, diag.col)
    })
}

/// The unscoped `(outer, inner)` match of an A001 diagnostic.
fn whole_project_amp_sites(
    project: &Project,
    loops: &[RetryLoop],
    diag: &Diagnostic,
) -> Option<(PatchSite, PatchSite)> {
    let outer = anchored_at(project, loops, diag)?;
    let same_method = diag.chain.len() >= 2 && diag.chain.iter().all(|hop| *hop == diag.chain[0]);
    let inner = if same_method {
        loops.iter().find(|rl| {
            rl.file == outer.file
                && rl.coordinator == outer.coordinator
                && rl.span.start > outer.span.start
                && rl.span.end <= outer.span.end
        })?
    } else {
        let target = diag.chain.last()?;
        loops
            .iter()
            .find(|rl| rl.coordinator.to_string() == *target)?
    };
    Some((site(project, outer), site(project, inner)))
}

#[test]
fn scoped_patch_sites_equal_the_whole_project_match() {
    let options = LoopQueryOptions::default();
    let (mut sites, mut amp_pairs) = (0, 0);
    for (app, project) in corpus() {
        let loops = whole_project_loops(&project, &options);
        let lint = lint_project(&project, &LintOptions::default());
        for diag in lint
            .diagnostics
            .iter()
            .filter(|d| matches!(d.code, "W001" | "W002" | "A001"))
        {
            let expected = anchored_at(&project, &loops, diag).map(|rl| site(&project, rl));
            let scoped = patch_site_for(&project, diag, &options);
            assert_eq!(scoped, expected, "{}: {}", app.spec.short, diag.render());
            sites += usize::from(scoped.is_some());
            if diag.code == "A001" {
                let expected = whole_project_amp_sites(&project, &loops, diag);
                let scoped = amp_sites_for(&project, diag, &options);
                assert_eq!(scoped, expected, "{}: {}", app.spec.short, diag.render());
                amp_pairs += usize::from(scoped.is_some());
            }
        }
    }
    assert!(
        sites > 0 && amp_pairs > 0,
        "{sites} sites, {amp_pairs} A001 pairs resolved"
    );
}
