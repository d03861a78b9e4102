//! Diagnostic → patch-site mapping for the repair loop.
//!
//! `wasabi repair` consumes lint diagnostics, which anchor a finding at a
//! `(file, line, col)` plus a coordinator method string. To synthesize a
//! patch we need the thing the diagnostic is *about*: the retry loop's
//! statement span inside its source file. This module re-runs the loop
//! query over the diagnostic's own methods only (every loop a diagnostic
//! can match lies in them) and matches it back to a concrete loop:
//!
//! - **W001/W002** anchor at the retry loop's own span, so the match is
//!   coordinator string + anchor position ([`patch_site_for`]).
//! - **A001** anchors at the *outer* loop; the inner loop is recovered
//!   from the diagnostic chain ([`amp_sites_for`]): cross-method chains
//!   end at the inner retrying method (`chain.last()`), while same-method
//!   nesting (`chain[0] == chain[1]`) means the inner loop is the retry
//!   loop whose span sits strictly inside the outer's in the same method.

use crate::diag::Diagnostic;
use crate::loops::{find_retry_loops_where, LoopQueryOptions, RetryLoop};
use crate::resolve::{LoopSite, ProjectIndex};
use wasabi_lang::ast::LoopId;
use wasabi_lang::project::{FileId, MethodId, Project};
use wasabi_lang::span::Span;

/// A concrete loop a repair template can splice around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchSite {
    /// File containing the loop.
    pub file: FileId,
    /// Path of that file (as `Project` stores it).
    pub file_path: String,
    /// Coordinator method containing the loop.
    pub method: MethodId,
    /// Loop id within the file.
    pub loop_id: LoopId,
    /// Source span of the whole loop statement.
    pub span: Span,
}

fn site_from(project: &Project, rl: &RetryLoop) -> PatchSite {
    PatchSite {
        file: rl.file,
        file_path: project.files[rl.file.0 as usize].path.clone(),
        method: rl.coordinator.clone(),
        loop_id: rl.loop_id,
        span: rl.span,
    }
}

/// The retry loops of `methods` (each `Class.method`), with the keyword
/// filter relaxed as a fallback so inner loops of interprocedural findings
/// still resolve even when their own naming evidence is weaker than the
/// anchor loop's. The order is the whole-project query's, restricted to
/// `methods`.
fn query_loops(project: &Project, options: &LoopQueryOptions, methods: &[&str]) -> Vec<RetryLoop> {
    let index = ProjectIndex::build(project);
    let in_scope = |site: &LoopSite<'_>| {
        methods
            .iter()
            .any(|m| m.split_once('.') == Some((site.class, site.method_name())))
    };
    let mut loops = find_retry_loops_where(&index, options, in_scope);
    if options.keyword_filter {
        let relaxed = LoopQueryOptions {
            keyword_filter: false,
            ..options.clone()
        };
        for rl in find_retry_loops_where(&index, &relaxed, in_scope) {
            let dup = loops
                .iter()
                .any(|have| have.file == rl.file && have.loop_id == rl.loop_id);
            if !dup {
                loops.push(rl);
            }
        }
    }
    loops
}

fn anchor_matches(project: &Project, rl: &RetryLoop, diag: &Diagnostic) -> bool {
    let file = &project.files[rl.file.0 as usize];
    if file.path != diag.file || rl.coordinator.to_string() != diag.coordinator {
        return false;
    }
    let pos = file.line_map().line_col(rl.span.start);
    pos.line == diag.line && pos.col == diag.col
}

/// Resolves the retry loop a `W001`/`W002` diagnostic anchors at.
///
/// Matching is by coordinator string plus the anchor `(file, line, col)`,
/// so it is stable under re-lints as long as the loop's own text has not
/// moved; repair re-lints after every splice precisely so the diagnostic
/// it maps carries current positions.
pub fn patch_site_for(
    project: &Project,
    diag: &Diagnostic,
    options: &LoopQueryOptions,
) -> Option<PatchSite> {
    query_loops(project, options, &[&diag.coordinator])
        .iter()
        .find(|rl| anchor_matches(project, rl, diag))
        .map(|rl| site_from(project, rl))
}

/// Resolves both loops of an `A001` retry-amplification diagnostic:
/// `(outer, inner)`.
///
/// The outer loop is the diagnostic's own anchor. The inner loop is the
/// chain's terminal hop: for a cross-method chain, the (sorted-first)
/// retry loop of the method named by `chain.last()`; for same-method
/// nesting, the retry loop whose span is strictly contained in the
/// outer's.
pub fn amp_sites_for(
    project: &Project,
    diag: &Diagnostic,
    options: &LoopQueryOptions,
) -> Option<(PatchSite, PatchSite)> {
    let mut methods = vec![diag.coordinator.as_str()];
    methods.extend(diag.chain.last().map(String::as_str));
    let loops = query_loops(project, options, &methods);
    let outer = loops.iter().find(|rl| anchor_matches(project, rl, diag))?;
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
    Some((site_from(project, outer), site_from(project, inner)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::{lint_project, LintOptions};
    use wasabi_lang::project::Project;

    fn lint(sources: Vec<(&str, &str)>) -> (Project, Vec<Diagnostic>) {
        let project = Project::compile("patchsite", sources).expect("compile");
        let result = lint_project(&project, &LintOptions::default());
        (project, result.diagnostics)
    }

    #[test]
    fn w_diagnostics_map_back_to_their_loop_span() {
        let (project, diags) = lint(vec![(
            "Flaky.jav",
            "exception IOException;\n\
             class Flaky {\n\
               method fetch() throws IOException {\n\
                 for (var retry = 0; true; retry = retry + 1) {\n\
                   try { return this.pull(); } catch (IOException e) { }\n\
                 }\n\
               }\n\
               method pull() throws IOException { return 1; }\n\
             }",
        )]);
        let w001 = diags.iter().find(|d| d.code == "W001").expect("W001");
        let site = patch_site_for(&project, w001, &LoopQueryOptions::default()).expect("site");
        assert_eq!(site.method.to_string(), "Flaky.fetch");
        assert_eq!(site.file_path, "Flaky.jav");
        let text = &project.files[site.file.0 as usize].source
            [site.span.start as usize..site.span.end as usize];
        assert!(text.starts_with("for ("), "span covers the loop: {text}");
    }

    #[test]
    fn amp_cross_method_resolves_inner_loop_from_chain() {
        let (project, diags) = lint(vec![(
            "Amp.jav",
            "exception IOException;\n\
             class Amp {\n\
               method outer() throws IOException {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.inner(); } catch (IOException e) { }\n\
                 }\n\
                 throw new IOException(\"outer exhausted\");\n\
               }\n\
               method inner() throws IOException {\n\
                 for (var retries = 0; retries < 4; retries = retries + 1) {\n\
                   try { return this.leaf(); } catch (IOException e) { }\n\
                 }\n\
                 throw new IOException(\"inner exhausted\");\n\
               }\n\
               method leaf() throws IOException { return 1; }\n\
             }",
        )]);
        let a001 = diags.iter().find(|d| d.code == "A001").expect("A001");
        let (outer, inner) =
            amp_sites_for(&project, a001, &LoopQueryOptions::default()).expect("sites");
        assert_eq!(outer.method.to_string(), "Amp.outer");
        assert_eq!(inner.method.to_string(), "Amp.inner");
        assert_ne!(outer.span, inner.span);
    }

    #[test]
    fn amp_same_method_resolves_contained_inner_loop() {
        let (project, diags) = lint(vec![(
            "Nest.jav",
            "exception IOException;\n\
             class Nest {\n\
               method run() throws IOException {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try {\n\
                     for (var retries = 0; retries < 4; retries = retries + 1) {\n\
                       try { return this.leaf(); } catch (IOException e) { }\n\
                     }\n\
                     throw new IOException(\"inner exhausted\");\n\
                   } catch (IOException e) { }\n\
                 }\n\
                 throw new IOException(\"outer exhausted\");\n\
               }\n\
               method leaf() throws IOException { return 1; }\n\
             }",
        )]);
        let a001 = diags.iter().find(|d| d.code == "A001").expect("A001");
        let (outer, inner) =
            amp_sites_for(&project, a001, &LoopQueryOptions::default()).expect("sites");
        assert_eq!(outer.method, inner.method);
        assert!(inner.span.start > outer.span.start && inner.span.end <= outer.span.end);
    }
}
