//! Patch templates: AST-backed source splices per bug class.
//!
//! Each template maps a resolved [`PatchSite`] to a [`PatchedFile`] — the
//! complete new text of one source file. Splices only *insert* text (or,
//! for flattening, replace exactly the loop statement's span), so every
//! byte outside the edit survives verbatim. Synthesized statements are
//! written in the printer's canonical form (a test checks each is a
//! [`print_stmt`] fixed point), and a flattened loop's init is rendered
//! through [`print_stmt`], so spliced text re-parses to exactly the
//! intended AST.
//!
//! Synthesized code deliberately contains no `Call`/`New` expressions:
//! call ids are assigned in parse order, so an insertion with a call in
//! it would renumber every later call site in the file and break the
//! baseline run-key comparison the validator depends on.

use wasabi_analysis::patchsite::PatchSite;
use wasabi_lang::ast::{Ast, Block, CatchClause, Stmt};
use wasabi_lang::printer::print_stmt;
use wasabi_lang::project::{Project, SourceFile};

/// The guard-counter name; contains "retry" on purpose, so a capped loop
/// keeps the naming-convention evidence the identification pass keys on.
const GUARD: &str = "retryGuard";

/// Retry cap inserted by the W001 templates. Well under the oracle's
/// unbounded threshold (100) and within the paper's observed real-world
/// cap range (≤ 20).
const CAP: i64 = 3;

/// One repair strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// W001: cap the loop; on exhaustion rethrow the caught exception
    /// (correct give-up — surfaces the last failure to the caller).
    CapRethrow,
    /// W001: cap the loop; on exhaustion break out and fall through to
    /// the loop's existing give-up path.
    CapBreak,
    /// W002: sleep at the end of each retrying catch, scaled by the loop
    /// counter when there is one (`sleep(50 + 50 * i)`).
    SleepBackoff,
    /// W002: constant `sleep(250)` at the entry of each retrying catch.
    SleepConst,
    /// A001: flatten the *inner* retry loop to a single attempt.
    FlattenInner,
    /// A001: flatten the *outer* retry loop to a single attempt.
    FlattenOuter,
}

impl Template {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Template::CapRethrow => "cap-rethrow",
            Template::CapBreak => "cap-break",
            Template::SleepBackoff => "sleep-backoff",
            Template::SleepConst => "sleep-const",
            Template::FlattenInner => "flatten-inner",
            Template::FlattenOuter => "flatten-outer",
        }
    }
}

/// The candidate templates for a diagnostic code, in default preference
/// order. The driver walks this list, skipping rejected entries and
/// letting the previous rejection's trace re-rank the remainder.
pub fn templates_for(code: &str) -> &'static [Template] {
    match code {
        "W001" => &[Template::CapRethrow, Template::CapBreak],
        "W002" => &[Template::SleepBackoff, Template::SleepConst],
        "A001" => &[Template::FlattenInner, Template::FlattenOuter],
        _ => &[],
    }
}

/// A synthesized patch: the complete new text of one source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchedFile {
    /// Path of the patched file.
    pub path: String,
    /// Full patched source.
    pub source: String,
}

/// Synthesizes `template` at `site`. For the A001 templates, `inner` is
/// the nested loop ([`FlattenInner`](Template::FlattenInner) edits it,
/// [`FlattenOuter`](Template::FlattenOuter) edits `site` itself).
/// Returns `Err` with a reason when the template is inapplicable here.
pub fn synthesize(
    template: Template,
    project: &Project,
    site: &PatchSite,
    inner: Option<&PatchSite>,
) -> Result<PatchedFile, String> {
    match template {
        Template::CapRethrow => cap_patch(project, site, true),
        Template::CapBreak => cap_patch(project, site, false),
        Template::SleepBackoff => sleep_patch(project, site, true),
        Template::SleepConst => sleep_patch(project, site, false),
        Template::FlattenInner => {
            let inner = inner.ok_or_else(|| "no inner loop resolved".to_string())?;
            flatten_patch(project, inner)
        }
        Template::FlattenOuter => flatten_patch(project, site),
    }
}

/// A single text edit; `start == end` is a pure insertion.
struct Edit {
    start: usize,
    end: usize,
    text: String,
}

/// Applies edits back-to-front so earlier offsets stay valid.
fn splice(source: &str, mut edits: Vec<Edit>) -> String {
    edits.sort_by_key(|e| std::cmp::Reverse(e.start));
    let mut out = source.to_string();
    for edit in edits {
        out.replace_range(edit.start..edit.end, &edit.text);
    }
    out
}

/// Whitespace prefix of the line containing `offset`.
fn line_indent(source: &str, offset: usize) -> String {
    let line_start = source[..offset].rfind('\n').map(|i| i + 1).unwrap_or(0);
    source[line_start..]
        .chars()
        .take_while(|c| *c == ' ')
        .collect()
}

/// Offset of the first character of the line containing `offset`.
fn line_start(source: &str, offset: usize) -> usize {
    source[..offset].rfind('\n').map(|i| i + 1).unwrap_or(0)
}

/// Re-indents printer output (indent-zero, one line per statement).
fn indent_block(text: &str, indent: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        out.push_str(indent);
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Finds the loop statement a patch site names, by loop id within its
/// coordinator method, with the file that holds it.
fn find_loop<'a>(
    project: &'a Project,
    site: &PatchSite,
) -> Result<(&'a SourceFile, &'a Stmt), String> {
    let file: &SourceFile = &project.files[site.file.0 as usize];
    for class in file.classes() {
        if file[class.name] != *site.method.class {
            continue;
        }
        for method in &file[class.methods] {
            if file[method.name] != *site.method.name {
                continue;
            }
            let mut found = None;
            file.walk_stmts(&method.body, &mut |stmt| {
                let id = match stmt {
                    Stmt::While { id, .. } | Stmt::For { id, .. } => Some(*id),
                    _ => None,
                };
                if id == Some(site.loop_id) && found.is_none() {
                    found = Some(stmt);
                }
                true
            });
            if let Some(stmt) = found {
                return Ok((file, stmt));
            }
        }
    }
    Err(format!(
        "loop {:?} not found in {}",
        site.loop_id, site.method
    ))
}

fn loop_body(stmt: &Stmt) -> Result<Block, String> {
    match stmt {
        Stmt::While { body, .. } | Stmt::For { body, .. } => Ok(*body),
        _ => Err("patch site is not a loop".to_string()),
    }
}

/// Whether a block exits the loop on *every* path: a top-level `break`/
/// `return`/`throw`, or an `if` whose branches both always exit. This is
/// deliberately stricter than the lint's cap check in
/// `wasabi_analysis::checkers` (any exit anywhere): a
/// catch that only exits down one branch — like a previously inserted
/// `retryGuard` cap — still retries in the common case and still needs
/// the next template's edit.
fn always_exits(ast: &Ast, block: &Block) -> bool {
    ast.stmts_in(block).any(|stmt| match stmt {
        Stmt::Break { .. } | Stmt::Return { .. } | Stmt::Throw { .. } => true,
        Stmt::If {
            then_blk,
            else_blk: Some(else_blk),
            ..
        } => always_exits(ast, then_blk) && always_exits(ast, else_blk),
        _ => false,
    })
}

/// Catch clauses that belong to *this* loop: recurse through `if`/`try`/
/// `switch` nesting but stop at nested loops (their catches retry the
/// inner loop, not ours). Catches that exit on every path never re-enter
/// the loop, so they need no guard.
fn retrying_catches<'a>(ast: &'a Ast, block: &Block, out: &mut Vec<&'a CatchClause>) {
    for stmt in ast.stmts_in(block) {
        match stmt {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                retrying_catches(ast, then_blk, out);
                if let Some(else_blk) = else_blk {
                    retrying_catches(ast, else_blk, out);
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                retrying_catches(ast, body, out);
                for catch in &ast[*catches] {
                    if !always_exits(ast, &catch.body) {
                        out.push(catch);
                    }
                    retrying_catches(ast, &catch.body, out);
                }
                if let Some(finally) = finally {
                    retrying_catches(ast, finally, out);
                }
            }
            Stmt::Switch { cases, default, .. } => {
                for case in &ast[*cases] {
                    retrying_catches(ast, &case.body, out);
                }
                if let Some(default) = default {
                    retrying_catches(ast, default, out);
                }
            }
            Stmt::While { .. } | Stmt::For { .. } => {}
            _ => {}
        }
    }
}

/// `var retryGuard = 0;`
fn guard_decl() -> String {
    format!("var {GUARD} = 0;\n")
}

/// `retryGuard = retryGuard + 1;`
fn guard_bump() -> String {
    format!("{GUARD} = {GUARD} + 1;\n")
}

/// `if (retryGuard >= 3) { <exit> }`, exiting by rethrowing `binding` or
/// by `break`.
fn guard_check(rethrow: Option<&str>) -> String {
    let exit = match rethrow {
        Some(binding) => format!("throw {binding};"),
        None => "break;".to_string(),
    };
    format!("if ({GUARD} >= {CAP}) {{\n    {exit}\n}}\n")
}

/// `sleep(<ms>);`
fn sleep_stmt(ms: &str) -> String {
    format!("sleep({ms});\n")
}

/// `var retryGuard = 0;` before the loop plus, in every retrying catch,
/// `retryGuard = retryGuard + 1; if (retryGuard >= 3) { <exit>; }`.
/// The guard is exactly the shape the static cap check recognizes (a
/// comparison whose then-block exits), and at run time it bounds the
/// injection count at 3, far under the oracle's unbounded threshold.
fn cap_patch(project: &Project, site: &PatchSite, rethrow: bool) -> Result<PatchedFile, String> {
    let (file, loop_stmt) = find_loop(project, site)?;
    let body = loop_body(loop_stmt)?;
    let mut catches = Vec::new();
    retrying_catches(file, &body, &mut catches);
    if catches.is_empty() {
        return Err("no retrying catch clause to guard".to_string());
    }

    let loop_indent = line_indent(&file.source, site.span.start as usize);
    let mut edits = vec![Edit {
        start: line_start(&file.source, site.span.start as usize),
        end: line_start(&file.source, site.span.start as usize),
        text: indent_block(&guard_decl(), &loop_indent),
    }];

    for catch in &catches {
        let guard = guard_check(rethrow.then(|| &file[catch.binding]));
        let indent = format!("{}    ", line_indent(&file.source, catch.span.start as usize));
        let text = format!(
            "\n{}{}",
            indent_block(&guard_bump(), &indent),
            indent_block(&guard, &indent)
        );
        edits.push(Edit {
            start: catch.body.span.start as usize + 1,
            end: catch.body.span.start as usize + 1,
            text,
        });
    }

    Ok(PatchedFile {
        path: file.path.clone(),
        source: splice(&file.source, edits),
    })
}

/// A `sleep` in every retrying catch. `backoff` scales by the loop's
/// `for`-counter when it has one (`sleep(50 + 50 * i)` at catch end);
/// the constant variant sleeps `250` virtual ms at catch entry.
fn sleep_patch(project: &Project, site: &PatchSite, backoff: bool) -> Result<PatchedFile, String> {
    let (file, loop_stmt) = find_loop(project, site)?;
    let body = loop_body(loop_stmt)?;
    let mut catches = Vec::new();
    retrying_catches(file, &body, &mut catches);
    if catches.is_empty() {
        return Err("no retrying catch clause to delay".to_string());
    }

    let counter = match *loop_stmt {
        Stmt::For {
            init: Some(init), ..
        } => match file[init] {
            Stmt::Var { name, .. } => Some(&file[name]),
            _ => None,
        },
        _ => None,
    };
    let sleep = match (counter, backoff) {
        (Some(counter), true) => sleep_stmt(&format!("50 + 50 * {counter}")),
        (None, true) => sleep_stmt("100"),
        (_, false) => sleep_stmt("250"),
    };

    let mut edits = Vec::new();
    for catch in &catches {
        let indent = format!("{}    ", line_indent(&file.source, catch.span.start as usize));
        let text = format!("\n{}", indent_block(&sleep, &indent));
        // Backoff reads better after the handler's own work; the constant
        // delay guards even handlers that exit early down a branch.
        let at = if backoff {
            catch.body.span.end as usize - 1
        } else {
            catch.body.span.start as usize + 1
        };
        edits.push(Edit {
            start: at,
            end: at,
            text,
        });
    }

    Ok(PatchedFile {
        path: file.path.clone(),
        source: splice(&file.source, edits),
    })
}

/// Whether the loop body transfers control out of the loop at a level
/// that would escape once the loop statement is removed (`break` /
/// `continue` outside any nested loop or switch).
fn has_loop_control(ast: &Ast, block: &Block) -> bool {
    let control = |block: &Block| has_loop_control(ast, block);
    for stmt in ast.stmts_in(block) {
        match stmt {
            Stmt::Break { .. } | Stmt::Continue { .. } => return true,
            Stmt::If {
                then_blk, else_blk, ..
            } if control(then_blk) || else_blk.as_ref().is_some_and(control) => {
                return true;
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } if control(body)
                || ast[*catches].iter().any(|c| control(&c.body))
                || finally.as_ref().is_some_and(control) =>
            {
                return true;
            }
            // A nested loop or switch re-binds break/continue; stop.
            Stmt::While { .. } | Stmt::For { .. } | Stmt::Switch { .. } => {}
            _ => {}
        }
    }
    false
}

/// Replaces the whole loop statement with its init (when it declares a
/// variable the body reads) followed by the body's own source text —
/// one attempt, straight through. The give-up path after the loop (the
/// corpus seeds end amplified loops with a `throw`) is untouched, so a
/// failed single attempt still propagates to the caller.
fn flatten_patch(project: &Project, site: &PatchSite) -> Result<PatchedFile, String> {
    let (file, loop_stmt) = find_loop(project, site)?;
    let body = loop_body(loop_stmt)?;
    if has_loop_control(file, &body) {
        return Err("loop body breaks or continues; flattening would strand the jump".to_string());
    }
    let init = match *loop_stmt {
        Stmt::For { init, .. } => init.map(|init| &file[init]),
        _ => None,
    };

    let mut text = String::new();
    if let Some(init) = init {
        // First line lands where `for` began, so no indent prefix; the
        // body text below keeps its original (one level deeper) indent.
        text.push_str(print_stmt(file, init).trim_end());
    }
    let inner =
        &file.source[body.span.start as usize + 1..body.span.end as usize - 1];
    text.push_str(inner.trim_end_matches([' ', '\t']));
    let indent = line_indent(&file.source, site.span.start as usize);
    text.push_str(&indent);

    Ok(PatchedFile {
        path: file.path.clone(),
        source: splice(
            &file.source,
            vec![Edit {
                start: site.span.start as usize,
                end: site.span.end as usize,
                text,
            }],
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_analysis::checkers::{lint_project, LintOptions};
    use wasabi_analysis::loops::LoopQueryOptions;
    use wasabi_analysis::patchsite::{amp_sites_for, patch_site_for};

    const FLAKY: &str = "exception IOException;\n\
        class Flaky {\n\
            method fetch() throws IOException {\n\
                for (var retry = 0; true; retry = retry + 1) {\n\
                    try { return this.pull(); } catch (IOException e) { log(\"retrying\"); }\n\
                }\n\
            }\n\
            method pull() throws IOException { return 1; }\n\
        }";

    fn compile(sources: Vec<(&str, &str)>) -> Project {
        Project::compile("templates", sources).expect("compile")
    }

    fn site_for(project: &Project, code: &str) -> PatchSite {
        let lint = lint_project(project, &LintOptions::default());
        let diag = lint
            .diagnostics
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("no {code} diagnostic"));
        patch_site_for(project, diag, &LoopQueryOptions::default()).expect("site")
    }

    fn relint(source: &str) -> Vec<String> {
        let project = compile(vec![("Flaky.jav", source)]);
        lint_project(&project, &LintOptions::default())
            .diagnostics
            .iter()
            .map(|d| d.code.to_string())
            .collect()
    }

    #[test]
    fn synthesized_snippets_are_printer_fixed_points() {
        for snippet in [
            guard_decl(),
            guard_bump(),
            guard_check(Some("e")),
            guard_check(None),
            sleep_stmt("50 + 50 * retry"),
            sleep_stmt("100"),
            sleep_stmt("250"),
        ] {
            let src = format!("class C {{ method m(e) {{ {snippet} }} }}");
            let file = SourceFile::parse("t.jav", src).expect("snippet parses");
            let class = file.classes().next().expect("class");
            let body = &file[class.methods][0].body;
            assert_eq!(body.stmts.len(), 1, "{snippet}");
            let stmt = file.stmts_in(body).next().expect("statement");
            assert_eq!(print_stmt(&file, stmt), snippet);
        }
    }

    #[test]
    fn cap_rethrow_silences_w001_and_preserves_unpatched_bytes() {
        let project = compile(vec![("Flaky.jav", FLAKY)]);
        let site = site_for(&project, "W001");
        let patch =
            synthesize(Template::CapRethrow, &project, &site, None).expect("applicable");
        assert!(patch.source.contains("var retryGuard = 0;"));
        assert!(patch.source.contains("if (retryGuard >= 3) {"));
        assert!(patch.source.contains("throw e;"));
        // Splice-only: the original text survives as subsequences around
        // the insertions; in particular the comment-free prefix is intact.
        assert!(patch.source.contains("method fetch() throws IOException {"));
        let codes = relint(&patch.source);
        assert!(!codes.contains(&"W001".to_string()), "W001 gone: {codes:?}");
    }

    #[test]
    fn cap_break_uses_break_instead_of_rethrow() {
        let project = compile(vec![("Flaky.jav", FLAKY)]);
        let site = site_for(&project, "W001");
        let patch = synthesize(Template::CapBreak, &project, &site, None).expect("applicable");
        assert!(patch.source.contains("if (retryGuard >= 3) {"));
        assert!(!patch.source.contains("throw e;"));
        assert!(!relint(&patch.source).contains(&"W001".to_string()));
    }

    #[test]
    fn sleep_templates_silence_w002() {
        let project = compile(vec![("Flaky.jav", FLAKY)]);
        let site = site_for(&project, "W002");
        let backoff =
            synthesize(Template::SleepBackoff, &project, &site, None).expect("applicable");
        assert!(backoff.source.contains("sleep(50 + 50 * retry);"));
        assert!(!relint(&backoff.source).contains(&"W002".to_string()));

        let constant =
            synthesize(Template::SleepConst, &project, &site, None).expect("applicable");
        assert!(constant.source.contains("sleep(250);"));
        assert!(!relint(&constant.source).contains(&"W002".to_string()));
    }

    #[test]
    fn flatten_inner_removes_amplification() {
        let src = "exception IOException;\n\
            class Amp {\n\
                method outer() throws IOException {\n\
                    for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                        try { return this.inner(); } catch (IOException e) { sleep(10); }\n\
                    }\n\
                    throw new IOException(\"outer exhausted\");\n\
                }\n\
                method inner() throws IOException {\n\
                    for (var retries = 0; retries < 4; retries = retries + 1) {\n\
                        try { return this.leaf(); } catch (IOException e) { sleep(10); }\n\
                    }\n\
                    throw new IOException(\"inner exhausted\");\n\
                }\n\
                method leaf() throws IOException { return 1; }\n\
            }";
        let project = compile(vec![("Amp.jav", src)]);
        let lint = lint_project(&project, &LintOptions::default());
        let diag = lint.diagnostics.iter().find(|d| d.code == "A001").expect("A001");
        let (outer, inner) =
            amp_sites_for(&project, diag, &LoopQueryOptions::default()).expect("sites");
        let patch =
            synthesize(Template::FlattenInner, &project, &outer, Some(&inner)).expect("applicable");
        // The inner loop is gone; its init survives for body references.
        assert!(patch.source.contains("var retries = 0;"));
        assert!(!patch.source.contains("retries < 4"));
        assert!(patch.source.contains("throw new IOException(\"inner exhausted\");"));
        let repaired = compile(vec![("Amp.jav", &patch.source)]);
        let codes: Vec<_> = lint_project(&repaired, &LintOptions::default())
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect();
        assert!(!codes.contains(&"A001"), "A001 gone: {codes:?}");
    }

    #[test]
    fn flatten_refuses_bodies_with_loose_break() {
        let src = "exception E;\n\
            class C {\n\
                method run() throws E {\n\
                    for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                        try { return this.op(); } catch (E e) { }\n\
                        if (retry > 2) { break; }\n\
                    }\n\
                    throw new E(\"done\");\n\
                }\n\
                method op() throws E { return 1; }\n\
            }";
        let project = compile(vec![("C.jav", src)]);
        let site = site_for(&project, "W002");
        let err = synthesize(Template::FlattenOuter, &project, &site, None).unwrap_err();
        assert!(err.contains("flatten"), "reason mentions flattening: {err}");
    }
}
