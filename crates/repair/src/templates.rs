//! Patch templates: AST-backed source splices per bug class.
//!
//! Each template maps a resolved [`PatchSite`] to a [`PatchedFile`] — the
//! complete new text of one source file. Splices only *insert* text (or,
//! for flattening, replace exactly the loop statement's span), so every
//! byte outside the edit survives verbatim; synthesized statements are
//! rendered through [`print_stmt`] so the spliced text is canonical
//! printer output and re-parses to exactly the intended AST.
//!
//! Synthesized code deliberately contains no `Call`/`New` expressions:
//! call ids are assigned in parse order, so an insertion with a call in
//! it would renumber every later call site in the file and break the
//! baseline run-key comparison the validator depends on.

use wasabi_analysis::patchsite::PatchSite;
use wasabi_lang::ast::{
    BinOp, Block, CatchClause, Expr, LValue, Literal, Stmt,
};
use wasabi_lang::printer::print_stmt;
use wasabi_lang::project::Project;
use wasabi_lang::span::Span;

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
/// coordinator method.
fn find_loop<'a>(project: &'a Project, site: &PatchSite) -> Result<&'a Stmt, String> {
    let file = &project.files[site.file.0 as usize];
    for item in &file.items {
        let wasabi_lang::ast::Item::Class(class) = item else {
            continue;
        };
        if class.name != site.method.class {
            continue;
        }
        for method in &class.methods {
            if method.name != site.method.name {
                continue;
            }
            let mut found = None;
            wasabi_lang::ast::walk_stmts(&method.body, &mut |stmt| {
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
                return Ok(stmt);
            }
        }
    }
    Err(format!(
        "loop {:?} not found in {}",
        site.loop_id, site.method
    ))
}

fn loop_body(stmt: &Stmt) -> Result<&Block, String> {
    match stmt {
        Stmt::While { body, .. } | Stmt::For { body, .. } => Ok(body),
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
fn always_exits(block: &Block) -> bool {
    block.stmts.iter().any(|stmt| match stmt {
        Stmt::Break { .. } | Stmt::Return { .. } | Stmt::Throw { .. } => true,
        Stmt::If {
            then_blk,
            else_blk: Some(else_blk),
            ..
        } => always_exits(then_blk) && always_exits(else_blk),
        _ => false,
    })
}

/// Catch clauses that belong to *this* loop: recurse through `if`/`try`/
/// `switch` nesting but stop at nested loops (their catches retry the
/// inner loop, not ours). Catches that exit on every path never re-enter
/// the loop, so they need no guard.
fn retrying_catches<'a>(block: &'a Block, out: &mut Vec<&'a CatchClause>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                retrying_catches(then_blk, out);
                if let Some(else_blk) = else_blk {
                    retrying_catches(else_blk, out);
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                retrying_catches(body, out);
                for catch in catches {
                    if !always_exits(&catch.body) {
                        out.push(catch);
                    }
                    retrying_catches(&catch.body, out);
                }
                if let Some(finally) = finally {
                    retrying_catches(finally, out);
                }
            }
            Stmt::Switch { cases, default, .. } => {
                for (_, body) in cases {
                    retrying_catches(body, out);
                }
                if let Some(default) = default {
                    retrying_catches(default, out);
                }
            }
            Stmt::While { .. } | Stmt::For { .. } => {}
            _ => {}
        }
    }
}

fn ident(name: &str) -> Expr {
    Expr::Ident(name.to_string(), Span::dummy())
}

fn int(value: i64) -> Expr {
    Expr::Literal(Literal::Int(value), Span::dummy())
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
        span: Span::dummy(),
    }
}

fn block_of(stmts: Vec<Stmt>) -> Block {
    let mut block = Block::empty();
    block.stmts = stmts;
    block
}

/// `var retryGuard = 0;` before the loop plus, in every retrying catch,
/// `retryGuard = retryGuard + 1; if (retryGuard >= 3) { <exit>; }`.
/// The guard is exactly the shape the static cap check recognizes (a
/// comparison whose then-block exits), and at run time it bounds the
/// injection count at 3, far under the oracle's unbounded threshold.
fn cap_patch(project: &Project, site: &PatchSite, rethrow: bool) -> Result<PatchedFile, String> {
    let file = &project.files[site.file.0 as usize];
    let loop_stmt = find_loop(project, site)?;
    let body = loop_body(loop_stmt)?;
    let mut catches = Vec::new();
    retrying_catches(body, &mut catches);
    if catches.is_empty() {
        return Err("no retrying catch clause to guard".to_string());
    }

    let loop_indent = line_indent(&file.source, site.span.start as usize);
    let decl = Stmt::Var {
        name: GUARD.to_string(),
        init: int(0),
        span: Span::dummy(),
    };
    let mut edits = vec![Edit {
        start: line_start(&file.source, site.span.start as usize),
        end: line_start(&file.source, site.span.start as usize),
        text: indent_block(&print_stmt(&decl), &loop_indent),
    }];

    for catch in &catches {
        let bump = Stmt::Assign {
            target: LValue::Var(GUARD.to_string(), Span::dummy()),
            value: binary(BinOp::Add, ident(GUARD), int(1)),
            span: Span::dummy(),
        };
        let exit = if rethrow {
            Stmt::Throw {
                expr: ident(&catch.binding),
                span: Span::dummy(),
            }
        } else {
            Stmt::Break { span: Span::dummy() }
        };
        let guard = Stmt::If {
            cond: binary(BinOp::GtEq, ident(GUARD), int(CAP)),
            then_blk: block_of(vec![exit]),
            else_blk: None,
            span: Span::dummy(),
        };
        let indent = format!("{}    ", line_indent(&file.source, catch.span.start as usize));
        let text = format!(
            "\n{}{}",
            indent_block(&print_stmt(&bump), &indent),
            indent_block(&print_stmt(&guard), &indent)
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
    let file = &project.files[site.file.0 as usize];
    let loop_stmt = find_loop(project, site)?;
    let body = loop_body(loop_stmt)?;
    let mut catches = Vec::new();
    retrying_catches(body, &mut catches);
    if catches.is_empty() {
        return Err("no retrying catch clause to delay".to_string());
    }

    let counter = match loop_stmt {
        Stmt::For {
            init: Some(init), ..
        } => match init.as_ref() {
            Stmt::Var { name, .. } => Some(name.clone()),
            _ => None,
        },
        _ => None,
    };
    let ms = match (&counter, backoff) {
        (Some(counter), true) => binary(
            BinOp::Add,
            int(50),
            binary(BinOp::Mul, int(50), ident(counter)),
        ),
        (None, true) => int(100),
        (_, false) => int(250),
    };
    let sleep = Stmt::Sleep {
        ms,
        span: Span::dummy(),
    };

    let mut edits = Vec::new();
    for catch in &catches {
        let indent = format!("{}    ", line_indent(&file.source, catch.span.start as usize));
        let text = format!("\n{}", indent_block(&print_stmt(&sleep), &indent));
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
fn has_loop_control(block: &Block) -> bool {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Break { .. } | Stmt::Continue { .. } => return true,
            Stmt::If {
                then_blk, else_blk, ..
            } if has_loop_control(then_blk)
                || else_blk.as_ref().map(has_loop_control).unwrap_or(false) =>
            {
                return true;
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } if has_loop_control(body)
                || catches.iter().any(|c| has_loop_control(&c.body))
                || finally.as_ref().map(has_loop_control).unwrap_or(false) =>
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
    let file = &project.files[site.file.0 as usize];
    let loop_stmt = find_loop(project, site)?;
    let body = loop_body(loop_stmt)?;
    if has_loop_control(body) {
        return Err("loop body breaks or continues; flattening would strand the jump".to_string());
    }
    let init = match loop_stmt {
        Stmt::For { init, .. } => init.as_deref(),
        _ => None,
    };

    let mut text = String::new();
    if let Some(init) = init {
        // First line lands where `for` began, so no indent prefix; the
        // body text below keeps its original (one level deeper) indent.
        text.push_str(print_stmt(init).trim_end());
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
