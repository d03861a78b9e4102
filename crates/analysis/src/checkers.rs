//! Interprocedural lint checkers over retry loops.
//!
//! [`lint_project`] runs the retry-loop query, builds the dispatch-table
//! call graph and per-method summaries, and reports through
//! [`diag`](crate::diag):
//!
//! - **W001 missing cap** — no comparison bounds the loop, either in its
//!   condition/body or in a helper the exit test calls.
//! - **W002 missing delay** — no `sleep` is reachable on the retry path,
//!   including transitively through helpers called from the catch block
//!   (so a backoff delegated to a helper, however deep, is not a
//!   single-file false positive).
//! - **W003 different exception** — a call retried by the loop may
//!   transitively throw an exception no catch clause of the loop matches,
//!   so one attempt can abort the whole retry policy.
//! - **A001 nested-retry amplification** — the loop body transitively
//!   reaches another retry loop (same method, helper, or another class);
//!   attempts multiply, and the finding reports the call chain and the
//!   worst-case attempt product.
//! - **W004 retry on non-retriable** — a catch that reaches the loop
//!   header retries an exception the [`lattice`](crate::lattice)
//!   classifies fatal; retrying re-runs the same doomed operation.
//! - **W005 unbounded backoff growth** — the
//!   [`absint`] interval of a slept-on delay variable
//!   diverges under a multiplicative self-update with no cap, or an
//!   `i64` overflow is reachable within the attempt bound.
//! - **W006 ineffective cap** — the interval fixpoint proves the
//!   attempt guard cannot do its job: at most one attempt, a counter
//!   nothing updates, or a config default that makes the guard
//!   unreachable.
//! - **I001 IF-ratio outlier** (info, opt-out via
//!   [`LintOptions::ifratio`]) — the loop's retry decision for an
//!   exception contradicts the application-wide majority policy
//!   (§3.2.2); retried-fatal outliers already reported by W004 are
//!   subsumed.
//!
//! Amplification chains only follow calls with a *unique* resolved
//! target, so a fan-out through an ambiguous receiver cannot fabricate a
//! chain; may-facts (throws, sleeps) use the full may-target sets.

use crate::absint::{self, MethodAbs};
use crate::callgraph::{sort_dedup_tail, CallGraph};
use crate::cfg::{Atom, Cfg};
use crate::diag::{sort_diagnostics, Diagnostic, Severity};
use crate::idx;
use crate::ifratio::{if_ratio_reports, IfOptions, OutlierKind};
use crate::lattice::{ExcLattice, Transience};
use crate::loops::{find_retry_loops, LoopQueryOptions, RetryLoop};
use crate::resolve::{LoopSite, ProjectIndex};
use crate::summaries::{AttemptBound, MethodSummary, Summaries};
use std::collections::{BTreeSet, HashMap, VecDeque};
use wasabi_lang::ast::{Ast, BinOp, Block, Expr, ExprId, Lit, Literal, Stmt};
use wasabi_lang::index::{ExcId, ProgramIndex};
use wasabi_lang::project::{CallSite, Project};

/// Options for a lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Retry-loop query options.
    pub loops: LoopQueryOptions,
    /// Emit `I001` IF-ratio outlier diagnostics (on by default; the
    /// `--no-ifratio` CLI flag clears it).
    pub ifratio: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            loops: LoopQueryOptions::default(),
            ifratio: true,
        }
    }
}

/// Everything the checkers computed for one retry loop; exposed so other
/// layers (overlap accounting, tests) can reuse the classification.
#[derive(Debug, Clone)]
pub struct LoopFacts {
    /// The retry loop.
    pub retry_loop: RetryLoop,
    /// Compiled-method index of the coordinator.
    pub midx: u32,
    /// Whether a cap was found (intraprocedural or helper).
    pub has_cap: bool,
    /// Whether a delay was found (transitively).
    pub has_delay: bool,
    /// The loop's own attempt bound.
    pub bound: AttemptBound,
    /// Interval of body executions inferred by the abstract
    /// interpretation (`None` when the coordinator was not analyzable).
    pub attempts: Option<absint::Interval>,
}

/// The result of [`lint_project`]: sorted diagnostics plus per-loop facts.
#[derive(Debug)]
pub struct LintResult {
    /// Sorted diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Facts per analyzed retry loop, in query order.
    pub loops: Vec<LoopFacts>,
}

/// Runs every checker over the project and returns sorted diagnostics.
pub fn lint_project(project: &Project, options: &LintOptions) -> LintResult {
    let pindex = ProjectIndex::build(project);
    let retry_loops = find_retry_loops(&pindex, &options.loops);
    let cg = CallGraph::build(project);
    let index = project.index();

    // Coordinator method indices and local attempt bounds feed the
    // summary fixpoint (may-retry / attempt facts).
    let mut loop_info: Vec<(usize, u32, AttemptBound)> = Vec::new(); // (loop idx, midx, bound)
    let mut local_retry: Vec<(u32, AttemptBound)> = Vec::new();
    for (li, rl) in retry_loops.iter().enumerate() {
        let Some(site) = find_site(&pindex, rl) else {
            continue;
        };
        let Some(midx) = method_index(index, &rl.coordinator.class, &rl.coordinator.name) else {
            continue;
        };
        let bound = loop_bound(index, site);
        loop_info.push((li, midx, bound));
        local_retry.push((midx, bound));
    }
    local_retry.sort_by_key(|&(m, _)| m);
    let summaries = Summaries::compute(project, &cg, &local_retry);

    let precise = Precise::build(&cg);

    let lattice = ExcLattice::build(index);
    let mut diags = Vec::new();
    let mut facts = Vec::new();
    // Retried-fatal findings, kept so I001 does not re-report them.
    let mut w004_found: Vec<(String, String)> = Vec::new(); // (coordinator, caught type)
    let mut cfgs: HashMap<(String, String), Cfg> = HashMap::new();
    let mut abss: HashMap<(String, String), MethodAbs> = HashMap::new();
    for &(li, midx, bound) in &loop_info {
        let rl = &retry_loops[li];
        let site = find_site(&pindex, rl).expect("site resolved above");
        let key = (site.class.to_string(), site.method_name().to_string());
        let abs = abss
            .entry(key.clone())
            .or_insert_with(|| absint::analyze_method(index, site.class, site.ast, site.method));
        let obs = abs.loops.get(&rl.loop_id).cloned();
        let cfg = cfgs
            .entry(key)
            .or_insert_with(|| Cfg::build(site.ast, &site.method.body));
        // Atoms inside the loop: delay evidence, retried-call targets.
        let mut has_delay = false;
        let mut loop_calls: Vec<CallSite> = Vec::new();
        for block in cfg.blocks_in_loop(rl.loop_id) {
            for atom in &cfg.blocks[idx(block.0, "cfg block")].atoms {
                match atom {
                    Atom::Sleep { .. } => has_delay = true,
                    Atom::Call { id, .. } => {
                        let call_site = CallSite {
                            file: rl.file,
                            call: *id,
                        };
                        if let Some(targets) = cg.targets_at(midx, call_site) {
                            if targets
                                .iter()
                                .any(|&t| summaries.methods[idx(t, "callee method")].may_sleep)
                            {
                                has_delay = true;
                            }
                        }
                        loop_calls.push(call_site);
                    }
                    Atom::Throw { .. } => {}
                }
            }
        }
        let has_cap = loop_has_cap(site.ast, site.stmt)
            || helper_cap(
                site.ast,
                site.stmt,
                rl.file,
                |site| cg.targets_at(midx, site),
                &summaries,
            );
        let anchor = || anchor_at(project, rl);

        if !has_cap {
            diags.push(Diagnostic {
                message: "retry loop has no attempt cap".to_string(),
                ..diag_base("W001", rl, anchor())
            });
        }
        if !has_delay {
            diags.push(Diagnostic {
                message: "retry loop has no delay before re-attempting (checked transitively)"
                    .to_string(),
                ..diag_base("W002", rl, anchor())
            });
        }

        // W004: a header-reaching catch retries an exception the lattice
        // classifies fatal; a retry re-runs the same doomed operation.
        let mut fatal_seen: BTreeSet<&str> = BTreeSet::new();
        for caught in &rl.reaching_catches {
            if lattice.classify_name(index, caught) == Transience::Fatal
                && fatal_seen.insert(caught.as_str())
            {
                w004_found.push((rl.coordinator.to_string(), caught.clone()));
                diags.push(Diagnostic {
                    message: format!(
                        "retry loop retries {caught}, which the exception lattice \
                         classifies as fatal (non-retriable)"
                    ),
                    ..diag_base("W004", rl, anchor())
                });
            }
        }

        if let Some(obs) = &obs {
            // W005: a slept-on delay variable diverges — multiplicative
            // self-update with no cap, or an i64 overflow reachable
            // within the attempt bound.
            let mut growth_seen: BTreeSet<&str> = BTreeSet::new();
            for sleep in &obs.sleeps {
                for var in &sleep.vars {
                    let Some(growth) = obs.growths.iter().find(|g| g.var == *var) else {
                        continue;
                    };
                    if !obs.head_interval(var).unbounded_above() {
                        continue; // narrowing proved a cap
                    }
                    let message = if obs.attempts.unbounded_above() {
                        format!(
                            "backoff delay `{}` grows by x{} per retry with no cap; \
                             the delay interval diverges",
                            var,
                            display_endpoint(growth.factor.lo)
                        )
                    } else if delay_overflows(
                        obs.entry_interval(var),
                        growth.factor,
                        obs.attempts.hi,
                    ) {
                        format!(
                            "backoff delay `{}` grows by x{} per retry; saturating i64 \
                             overflow is reachable within the {}-attempt bound",
                            var,
                            display_endpoint(growth.factor.lo),
                            obs.attempts.hi
                        )
                    } else {
                        continue;
                    };
                    if growth_seen.insert(var.as_str()) {
                        diags.push(Diagnostic {
                            message,
                            ..diag_base("W005", rl, anchor())
                        });
                    }
                }
            }

            // W006: the attempt cap cannot do its job.
            let ineffective = if obs.guard_unreachable {
                Some(
                    "attempt guard is unreachable: the bound is at or below the \
                     counter's start value (a zero config default does this), so no \
                     attempt is ever made"
                        .to_string(),
                )
            } else if obs.attempts.hi <= 1 {
                Some(format!(
                    "attempt cap permits at most {} attempt(s); the loop never \
                     actually retries",
                    obs.attempts.hi.max(0)
                ))
            } else {
                match (&obs.counter, obs.counter_updated) {
                    (Some(counter), false) => Some(format!(
                        "attempt cap compares `{counter}`, but nothing in the loop \
                         updates it; the bound can never trip"
                    )),
                    _ => None,
                }
            };
            if let Some(message) = ineffective {
                diags.push(Diagnostic {
                    message,
                    ..diag_base("W006", rl, anchor())
                });
            }
        }

        // W003: retried callee may throw something no catch matches.
        let catch_ids: Vec<ExcId> = cfg
            .catches_in_loop(rl.loop_id)
            .into_iter()
            .filter_map(|(_, ty)| index.exc_by_name(ty))
            .collect();
        let mut reported: BTreeSet<ExcId> = BTreeSet::new();
        for &call_site in &loop_calls {
            let Some(targets) = cg.targets_at(midx, call_site) else {
                continue;
            };
            for &t in targets {
                for &exc in &summaries.methods[idx(t, "callee method")].may_throw {
                    let covered = catch_ids.iter().any(|&c| {
                        index.is_exc_subtype(exc, c) || index.is_exc_subtype(c, exc)
                    });
                    if !covered && reported.insert(exc) {
                        diags.push(Diagnostic {
                            message: format!(
                                "retried call {} may throw {}, which no catch in the loop matches",
                                index.method_display(t),
                                index.exceptions[idx(exc.0, "exception")].name_str
                            ),
                            ..diag_base("W003", rl, anchor())
                        });
                    }
                }
            }
        }

        // A001 (cross-method): a call inside the loop reaches a method
        // with its own retry loop.
        let mut amplified: BTreeSet<u32> = BTreeSet::new();
        for &call_site in &loop_calls {
            let Some(targets) = cg.targets_at(midx, call_site) else {
                continue;
            };
            // Chains demand unique resolution at every hop, including
            // the first.
            if targets.len() != 1 {
                continue;
            }
            for (inner, chain) in reachable_retries(targets[0], midx, &precise, &summaries.methods)
            {
                if !amplified.insert(inner) {
                    continue;
                }
                let inner_bound = summaries.methods[idx(inner, "inner retry method")]
                    .attempts
                    .unwrap_or(AttemptBound::Capped);
                let product = bound.multiply(inner_bound);
                let mut hops = vec![rl.coordinator.to_string()];
                hops.extend(chain.iter().map(|&h| index.method_display(h)));
                diags.push(Diagnostic {
                    message: format!(
                        "retry loop reaches another retry loop in {}; worst-case attempts {} x {} = {}",
                        index.method_display(inner),
                        bound,
                        inner_bound,
                        product
                    ),
                    chain: hops,
                    ..diag_base("A001", rl, anchor())
                });
            }
        }

        facts.push(LoopFacts {
            retry_loop: rl.clone(),
            midx,
            has_cap,
            has_delay,
            bound,
            attempts: obs.as_ref().map(|o| o.attempts),
        });
    }

    // A001 (same method): one retry loop nested inside another.
    for (i, &(li, midx, outer_bound)) in loop_info.iter().enumerate() {
        let outer = &retry_loops[li];
        for &(lj, mj, inner_bound) in &loop_info[i + 1..] {
            if midx != mj {
                continue;
            }
            let inner = &retry_loops[lj];
            let site = find_site(&pindex, outer).expect("site resolved above");
            let cfg = Cfg::build(site.ast, &site.method.body);
            let nested = cfg
                .blocks_in_loop(inner.loop_id)
                .iter()
                .any(|b| cfg.blocks[idx(b.0, "cfg block")].loops.contains(&outer.loop_id));
            if !nested {
                continue;
            }
            let product = outer_bound.multiply(inner_bound);
            diags.push(Diagnostic {
                message: format!(
                    "retry loop nests another retry loop in the same method; worst-case attempts {} x {} = {}",
                    outer_bound, inner_bound, product
                ),
                chain: vec![outer.coordinator.to_string(), inner.coordinator.to_string()],
                ..diag_base("A001", outer, anchor_at(project, outer))
            });
        }
    }

    // I001: application-wide IF-ratio outliers, promoted from the score
    // path into suppressible info diagnostics.
    if options.ifratio {
        let if_options = IfOptions {
            loop_options: options.loops.clone(),
            ..IfOptions::default()
        };
        let symbols = &project.symbols;
        for report in if_ratio_reports(&pindex, &if_options) {
            for outlier in &report.outliers {
                // A retried-fatal outlier is already W004's finding.
                let subsumed = report.kind == OutlierKind::MostlyNotRetried
                    && w004_found.iter().any(|(coord, caught)| {
                        *coord == outlier.coordinator.to_string()
                            && symbols.is_exception_subtype(&report.exception, caught)
                    });
                if subsumed {
                    continue;
                }
                let file = &project.files[idx(outlier.file.0, "outlier file")];
                let pos = file.line_map().line_col(outlier.span.start);
                let policy = match report.kind {
                    OutlierKind::MostlyRetried => format!(
                        "retried in {}/{} retry loops project-wide but not retried here",
                        report.r, report.n
                    ),
                    OutlierKind::MostlyNotRetried => format!(
                        "retried here but in only {}/{} retry loops project-wide",
                        report.r, report.n
                    ),
                };
                diags.push(Diagnostic {
                    code: "I001",
                    severity: Severity::Info,
                    file: file.path.clone(),
                    line: pos.line,
                    col: pos.col,
                    coordinator: outlier.coordinator.to_string(),
                    message: format!(
                        "inconsistent retry policy: {} is {}",
                        report.exception, policy
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    sort_diagnostics(&mut diags);
    LintResult {
        diagnostics: diags,
        loops: facts,
    }
}

/// Formats an interval endpoint for messages (`?` for an infinity).
fn display_endpoint(v: i64) -> String {
    if v == absint::NEG_INF || v == absint::POS_INF {
        "?".to_string()
    } else {
        v.to_string()
    }
}

/// Whether `base * factor^attempts` can overflow `i64`. Uses the upper
/// endpoints (worst case); 64 doublings always overflow, so iteration is
/// capped there.
fn delay_overflows(base: absint::Interval, factor: absint::Interval, attempts: i64) -> bool {
    if factor.hi == absint::POS_INF {
        return true;
    }
    let mut value = if base.hi == absint::POS_INF || base.hi < 1 {
        1i64
    } else {
        base.hi
    };
    for _ in 0..attempts.clamp(0, 64) {
        match value.checked_mul(factor.hi) {
            Some(next) => value = next,
            None => return true,
        }
    }
    false
}

fn find_site<'p>(pindex: &'p ProjectIndex<'p>, rl: &RetryLoop) -> Option<&'p LoopSite<'p>> {
    pindex
        .loops()
        .iter()
        .find(|l| l.file == rl.file && l.loop_id == rl.loop_id)
}

fn method_index(index: &ProgramIndex, class: &str, name: &str) -> Option<u32> {
    let cid = index.class_by_name(class)?;
    let sym = index.interner.lookup(name)?;
    index.resolve_dispatch(cid, sym)
}

fn diag_base(code: &'static str, rl: &RetryLoop, anchor: (String, u32, u32)) -> Diagnostic {
    let (file, line, col) = anchor;
    Diagnostic {
        code,
        severity: Severity::Warning,
        file,
        line,
        col,
        coordinator: rl.coordinator.to_string(),
        message: String::new(),
        chain: Vec::new(),
    }
}

fn anchor_at(project: &Project, rl: &RetryLoop) -> (String, u32, u32) {
    let file = &project.files[idx(rl.file.0, "loop file")];
    let pos = file.line_map().line_col(rl.span.start);
    (file.path.clone(), pos.line, pos.col)
}

/// Unique-target adjacency for amplification chains: per method, the
/// targets of its calls that resolve to exactly one method, sorted and
/// deduped.
struct Precise {
    /// `targets[start[m]..start[m + 1]]`.
    start: Vec<u32>,
    targets: Vec<u32>,
}

impl Precise {
    fn build(cg: &CallGraph) -> Precise {
        let mut start = Vec::with_capacity(cg.len() + 1);
        let mut targets = Vec::new();
        start.push(0);
        for m in 0..cg.len() as u32 {
            let first = targets.len();
            targets.extend(cg.calls(m).filter(|c| c.targets.len() == 1).map(|c| c.targets[0]));
            sort_dedup_tail(&mut targets, first);
            start.push(targets.len() as u32);
        }
        Precise { start, targets }
    }

    fn of(&self, m: u32) -> &[u32] {
        let m = idx(m, "method");
        &self.targets[self.start[m] as usize..self.start[m + 1] as usize]
    }
}

/// Breadth-first search for retrying methods reachable from `start`
/// through unique-target calls, stopping at the first retrying method on
/// each path. Returns `(method, chain-from-start)` pairs in ascending
/// method order.
fn reachable_retries(
    start: u32,
    origin: u32,
    precise: &Precise,
    summaries: &[MethodSummary],
) -> Vec<(u32, Vec<u32>)> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    let mut queue: VecDeque<(u32, Vec<u32>)> = VecDeque::new();
    seen.insert(start);
    queue.push_back((start, vec![start]));
    while let Some((m, chain)) = queue.pop_front() {
        if summaries[idx(m, "method summary")].has_retry_loop && m != origin {
            out.push((m, chain));
            // Deeper nesting is that method's own finding.
            continue;
        }
        for &next in precise.of(m) {
            if next == origin || !seen.insert(next) {
                continue;
            }
            let mut chain = chain.clone();
            chain.push(next);
            queue.push_back((next, chain));
        }
    }
    out.sort_by_key(|&(m, _)| m);
    out
}

/// Whether the loop's exit test delegates the cap comparison to a helper:
/// `if (this.policy.exceeded(n)) { throw ... }` counts when the helper's
/// body contains a comparison.
fn helper_cap<'g>(
    ast: &Ast,
    loop_stmt: &Stmt,
    file: wasabi_lang::project::FileId,
    site_targets: impl Fn(CallSite) -> Option<&'g [u32]>,
    summaries: &Summaries,
) -> bool {
    let body = match loop_stmt {
        Stmt::While { body, .. } | Stmt::For { body, .. } => body,
        _ => return false,
    };
    let mut capped = false;
    ast.walk_stmts(body, &mut |stmt| {
        if let Stmt::If { cond, then_blk, else_blk, .. } = stmt {
            let exits = block_exits(ast, then_blk)
                || else_blk.as_ref().is_some_and(|b| block_exits(ast, b));
            if exits {
                ast.walk_expr(*cond, &mut |e| {
                    if let Expr::Call { id, .. } = e {
                        let call_site = CallSite { file, call: *id };
                        if let Some(targets) = site_targets(call_site) {
                            if targets
                                .iter()
                                .any(|&t| summaries.methods[idx(t, "callee method")].has_comparison)
                            {
                                capped = true;
                            }
                        }
                    }
                });
            }
        }
        true
    });
    capped
}

/// Whether the loop is syntactically bounded: a comparison in its condition,
/// or an in-body comparison guarding an exit (`break`/`return`/`throw`).
fn loop_has_cap(ast: &Ast, loop_stmt: &Stmt) -> bool {
    let (cond, body) = match loop_stmt {
        Stmt::While { cond, body, .. } => (Some(*cond), body),
        Stmt::For { cond, body, .. } => (*cond, body),
        _ => return false,
    };
    if cond.is_some_and(|cond| expr_has_comparison(ast, cond)) {
        return true;
    }
    // Look for `if (<comparison>) { ...exit... }` inside the body.
    let mut capped = false;
    ast.walk_stmts(body, &mut |stmt| {
        if let Stmt::If { cond, then_blk, else_blk, .. } = stmt {
            if expr_has_comparison(ast, *cond)
                && (block_exits(ast, then_blk)
                    || else_blk.as_ref().is_some_and(|b| block_exits(ast, b)))
            {
                capped = true;
            }
        }
        true
    });
    capped
}

fn expr_has_comparison(ast: &Ast, expr: ExprId) -> bool {
    let mut found = false;
    ast.walk_expr(expr, &mut |e| {
        if let Expr::Binary { op, .. } = e {
            if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) {
                found = true;
            }
        }
    });
    found
}

/// Whether a block contains an exit statement (`break`/`return`/`throw`)
/// anywhere.
fn block_exits(ast: &Ast, block: &Block) -> bool {
    let mut exits = false;
    ast.walk_stmts(block, &mut |stmt| {
        if matches!(stmt, Stmt::Break { .. } | Stmt::Return { .. } | Stmt::Throw { .. }) {
            exits = true;
        }
        true
    });
    exits
}

/// Extracts the loop's worst-case attempt bound from its header.
fn loop_bound(index: &ProgramIndex, site: &LoopSite<'_>) -> AttemptBound {
    let cond = match site.stmt {
        Stmt::While { cond, .. } => Some(*cond),
        Stmt::For { cond, .. } => *cond,
        _ => None,
    };
    if let Some(cond) = cond {
        if let Some(bound) = comparison_bound(index, site.class, site.ast, cond) {
            return bound;
        }
    }
    if loop_has_cap(site.ast, site.stmt) {
        return AttemptBound::Capped;
    }
    AttemptBound::Unbounded
}

/// The first comparison in `expr`, turned into a bound when one side is a
/// statically known integer (literal, `this.field` initialiser, or
/// `getConfig` default).
fn comparison_bound(
    index: &ProgramIndex,
    class: &str,
    ast: &Ast,
    expr: ExprId,
) -> Option<AttemptBound> {
    let mut found: Option<AttemptBound> = None;
    ast.walk_expr(expr, &mut |e| {
        if found.is_some() {
            return;
        }
        if let Expr::Binary { op, lhs, rhs, .. } = e {
            let (limit, inclusive) = match op {
                BinOp::Lt => (rhs, false),
                BinOp::LtEq => (rhs, true),
                BinOp::Gt => (lhs, false),
                BinOp::GtEq => (lhs, true),
                _ => return,
            };
            let value = static_int(index, class, ast, *limit);
            found = Some(match value {
                Some(v) => {
                    let v = if inclusive { v.saturating_add(1) } else { v };
                    AttemptBound::Bounded(v.max(0) as u64)
                }
                None => AttemptBound::Capped,
            });
        }
    });
    found
}

/// Statically evaluates an integer expression: literals, `this.field`
/// with a literal initialiser, and `getConfig("key")` defaults.
fn static_int(index: &ProgramIndex, class: &str, ast: &Ast, expr: ExprId) -> Option<i64> {
    match ast[expr] {
        Expr::Literal(Lit::Int(n), _) => Some(n),
        Expr::Field { recv, name, .. } if matches!(ast[recv], Expr::This(_)) => {
            absint::field_init_int(index, index.class_by_name(class)?, &ast[name])
        }
        Expr::Call { method, args, .. } if &ast[method] == "getConfig" && args.len() == 1 => {
            let Expr::Literal(Lit::Str(key), _) = ast[ast[args][0]] else {
                return None;
            };
            let id = index.config_by_name(&ast[key])?;
            match &index.configs[idx(id, "config")].default {
                Literal::Int(n) => Some(*n),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let p = Project::compile("t", vec![("t.jav", src)]).expect("compile");
        lint_project(&p, &LintOptions::default()).diagnostics
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_loop_produces_no_diagnostics() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(100); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn missing_cap_and_delay_are_reported() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 while (true) {\n\
                   try { return this.op(); } catch (E e) { log(\"retry\"); }\n\
                 }\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W001", "W002"]);
    }

    /// `loop_has_cap` on the single retry loop in `src`.
    fn has_cap(src: &str) -> bool {
        let p = Project::compile("t", vec![("t.jav", src)]).expect("compile");
        let pindex = crate::resolve::ProjectIndex::build(&p);
        let loops = find_retry_loops(&pindex, &LoopQueryOptions::default());
        assert_eq!(loops.len(), 1);
        let site = find_site(&pindex, &loops[0]).expect("loop site");
        loop_has_cap(site.ast, site.stmt)
    }

    #[test]
    fn for_guard_counts_as_cap() {
        assert!(has_cap(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(100); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        ));
        assert!(!has_cap(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 while (true) {\n\
                   try { return this.op(); } catch (E e) { log(\"retry\"); }\n\
                 }\n\
               }\n\
             }",
        ));
    }

    #[test]
    fn in_body_attempt_check_counts_as_cap() {
        assert!(has_cap(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run(maxRetries) {\n\
                 var attempts = 0;\n\
                 while (true) {\n\
                   try { return this.op(); } catch (E e) {\n\
                     attempts = attempts + 1;\n\
                     if (attempts > maxRetries) { throw new E(\"gave up\"); }\n\
                     sleep(50);\n\
                   }\n\
                 }\n\
               }\n\
             }",
        ));
    }

    #[test]
    fn negative_config_cap_shape_still_counts_as_capped() {
        // The HDFS-15439 shape: the comparison exists, so static analysis
        // sees a cap; the bug (negative config ⇒ never equal) only manifests
        // dynamically.
        assert!(has_cap(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var max = getConfig(\"mover.retry.max\");\n\
                 for (var retry = 0; retry < max; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        ));
    }

    #[test]
    fn sleep_two_helpers_deep_flips_the_old_missing_delay_verdict() {
        // The catch block delegates its backoff to a helper that delegates
        // again, so even a one-level helper lookup misses the sleep and
        // (wrongly) reports a missing delay. The summary-based checker
        // follows the whole chain and stays quiet.
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method pause() { sleep(50); }\n\
               method backoff(n) { this.pause(); }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { this.backoff(retry); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let diags = lint(src);
        assert!(diags.is_empty(), "summary-based check finds it: {diags:?}");
    }

    #[test]
    fn different_exception_is_reported_with_w003() {
        let diags = lint(
            "exception NetError;\n\
             exception DiskError;\n\
             class C {\n\
               method op() throws NetError, DiskError { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (NetError e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W003"]);
        assert!(diags[0].message.contains("DiskError"));
    }

    #[test]
    fn transitive_throw_is_seen_by_w003() {
        let diags = lint(
            "exception NetError;\n\
             exception DiskError;\n\
             class C {\n\
               method low() { throw new DiskError(\"d\"); }\n\
               method op() throws NetError { this.low(); return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (NetError e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W003"]);
        assert!(diags[0].message.contains("DiskError"));
    }

    #[test]
    fn amplification_with_keywords_reports_chain_and_product() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method inner() throws E {\n\
                 for (var retry = 0; retry < 4; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(5); }\n\
                 }\n\
                 throw new E(\"gave up\");\n\
               }\n\
               method run() {\n\
                 for (var retries = 0; retries < 3; retries = retries + 1) {\n\
                   try { return this.inner(); } catch (E e) { sleep(50); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        let amp: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "A001").collect();
        assert_eq!(amp.len(), 1, "diags: {diags:?}");
        assert_eq!(amp[0].chain, vec!["C.run", "C.inner"]);
        assert!(amp[0].message.contains("3 x 4 = 12"), "got: {}", amp[0].message);
    }

    #[test]
    fn plain_nested_loop_is_not_amplification() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method push(i) { return i; }\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try {\n\
                     for (var i = 0; i < 4; i = i + 1) { this.push(i); }\n\
                     return this.op();\n\
                   } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert!(codes(&diags).iter().all(|&c| c != "A001"), "diags: {diags:?}");
    }

    #[test]
    fn same_method_nested_retry_is_amplification() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retries = 0; retries < 3; retries = retries + 1) {\n\
                   try {\n\
                     for (var retry = 0; retry < 4; retry = retry + 1) {\n\
                       try { return this.op(); } catch (E e) { sleep(5); }\n\
                     }\n\
                     throw new E(\"inner exhausted\");\n\
                   } catch (E e) { sleep(50); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        let amp: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "A001").collect();
        assert_eq!(amp.len(), 1, "diags: {diags:?}");
        assert!(amp[0].message.contains("3 x 4 = 12"), "got: {}", amp[0].message);
    }

    #[test]
    fn helper_cap_counts_as_capped() {
        let diags = lint(
            "exception E;\n\
             class Budget { field max = 5; method exceeded(n) { return n >= this.max; } }\n\
             class C {\n\
               field budget = new Budget();\n\
               field attempts = 0;\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 while (true) {\n\
                   try { return this.op(); } catch (E e) {\n\
                     this.attempts = this.attempts + 1;\n\
                     if (this.budget.exceeded(this.attempts)) { throw new E(\"retries over\"); }\n\
                     sleep(20);\n\
                   }\n\
                 }\n\
               }\n\
             }",
        );
        assert!(codes(&diags).iter().all(|&c| c != "W001"), "diags: {diags:?}");
    }

    #[test]
    fn retry_on_fatal_exception_is_reported_with_w004() {
        let diags = lint(
            "exception FileExistsException;\n\
             class C {\n\
               method op() throws FileExistsException { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (FileExistsException e) { sleep(100); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W004"]);
        assert!(diags[0].message.contains("FileExistsException"));
    }

    #[test]
    fn retry_on_transient_exception_stays_quiet() {
        let diags = lint(
            "exception SocketTimeoutException;\n\
             class C {\n\
               method op() throws SocketTimeoutException { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (SocketTimeoutException e) { sleep(100); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn uncapped_multiplicative_backoff_is_reported_with_w005() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var delay = 10;\n\
                 var retries = 0;\n\
                 while (retries < 1000000000) {\n\
                   try { return this.op(); }\n\
                   catch (E e) { sleep(delay); delay = delay * 2; retries = retries + 1; }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W005"], "diags: {diags:?}");
        assert!(diags[0].message.contains("delay"), "got: {}", diags[0].message);
    }

    #[test]
    fn min_capped_backoff_is_not_w005() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               field capMs = 1000;\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var delay = 25;\n\
                 for (var retry = 0; retry < 16; retry = retry + 1) {\n\
                   try { return this.op(); }\n\
                   catch (E e) { sleep(delay); delay = min(delay * 2, this.capMs); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn overflowing_bounded_backoff_is_reported_with_w005() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var delay = 10;\n\
                 for (var retry = 0; retry < 200; retry = retry + 1) {\n\
                   try { return this.op(); }\n\
                   catch (E e) { sleep(delay); delay = delay * 3; }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W005"], "diags: {diags:?}");
        assert!(
            diags[0].message.contains("overflow"),
            "got: {}",
            diags[0].message
        );
    }

    #[test]
    fn small_bounded_backoff_growth_is_clean() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var delay = 10;\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); }\n\
                   catch (E e) { sleep(delay); delay = delay * 2; }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn stuck_counter_is_reported_with_w006() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var retries = 0;\n\
                 while (retries < 5) {\n\
                   try { return this.op(); } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W006"], "diags: {diags:?}");
        assert!(
            diags[0].message.contains("retries"),
            "got: {}",
            diags[0].message
        );
    }

    #[test]
    fn config_default_zero_guard_is_reported_with_w006() {
        let diags = lint(
            "exception E;\n\
             config \"app.retry.max\" default 0;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < getConfig(\"app.retry.max\"); retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W006"], "diags: {diags:?}");
        assert!(
            diags[0].message.contains("unreachable"),
            "got: {}",
            diags[0].message
        );
    }

    #[test]
    fn bound_of_one_is_reported_with_w006() {
        let diags = lint(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 1; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        assert_eq!(codes(&diags), vec!["W006"], "diags: {diags:?}");
        assert!(
            diags[0].message.contains("at most 1"),
            "got: {}",
            diags[0].message
        );
    }

    #[test]
    fn ifratio_outliers_become_i001_and_respect_the_opt_out() {
        // Four loops can throw MetaException; only one retries it.
        let mut src = String::from(
            "exception MetaException;\n\
             exception Transient;\n\
             class Store { method op() throws MetaException { return 1; } }\n\
             class R {\n\
               method run(st) {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return st.op(); } catch (MetaException e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n",
        );
        for i in 0..3 {
            src.push_str(&format!(
                "class N{i} {{\n\
                   method flaky() throws Transient {{ return 1; }}\n\
                   method run(st) {{\n\
                     for (var retry = 0; retry < 5; retry = retry + 1) {{\n\
                       try {{ st.op(); return this.flaky(); }}\n\
                       catch (Transient e) {{ sleep(10); }}\n\
                       catch (MetaException e) {{ break; }}\n\
                     }}\n\
                     return null;\n\
                   }}\n\
                 }}\n"
            ));
        }
        let p = Project::compile("t", vec![("t.jav", &src)]).expect("compile");
        let diags = lint_project(&p, &LintOptions::default()).diagnostics;
        let i001: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "I001").collect();
        assert_eq!(i001.len(), 1, "diags: {diags:?}");
        assert_eq!(i001[0].coordinator, "R.run");
        assert_eq!(i001[0].severity, Severity::Info);
        assert!(i001[0].message.contains("1/4"), "got: {}", i001[0].message);

        let opts = LintOptions {
            ifratio: false,
            ..LintOptions::default()
        };
        let diags = lint_project(&p, &opts).diagnostics;
        assert!(
            diags.iter().all(|d| d.code != "I001"),
            "opt-out must silence I001: {diags:?}"
        );
    }

    #[test]
    fn w004_subsumes_the_retried_fatal_i001_outlier() {
        // Four loops can throw IllegalStateException (fatal); only one
        // retries it: that loop gets W004 and must NOT also get I001.
        // IllegalStateException is a builtin (fatal-seeded) exception.
        let mut src = String::from(
            "exception Transient;\n\
             class Store { method op() throws IllegalStateException { return 1; } }\n\
             class R {\n\
               method run(st) {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return st.op(); } catch (IllegalStateException e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n",
        );
        for i in 0..3 {
            src.push_str(&format!(
                "class N{i} {{\n\
                   method flaky() throws Transient {{ return 1; }}\n\
                   method run(st) {{\n\
                     for (var retry = 0; retry < 5; retry = retry + 1) {{\n\
                       try {{ st.op(); return this.flaky(); }}\n\
                       catch (Transient e) {{ sleep(10); }}\n\
                       catch (IllegalStateException e) {{ break; }}\n\
                     }}\n\
                     return null;\n\
                   }}\n\
                 }}\n"
            ));
        }
        let p = Project::compile("t", vec![("t.jav", &src)]).expect("compile");
        let diags = lint_project(&p, &LintOptions::default()).diagnostics;
        assert!(
            diags.iter().any(|d| d.code == "W004" && d.coordinator == "R.run"),
            "diags: {diags:?}"
        );
        assert!(
            diags.iter().all(|d| d.code != "I001"),
            "W004 must subsume the retried-fatal outlier: {diags:?}"
        );
    }
}
