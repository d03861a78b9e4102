//! Per-method interprocedural summaries, computed as a fixpoint over the
//! call graph's SCC condensation.
//!
//! Each method gets a [`MethodSummary`]:
//!
//! - **may-throw** — the set of declared exception types that can escape
//!   the method: its `throws` clause, explicit `throw new E(..)` sites not
//!   covered by an enclosing catch, rethrown catch bindings, and every
//!   callee's may-throw set filtered through the try/catch context of the
//!   call site. The set is an over-approximation under exception
//!   subtyping: anything the method actually raises is a subtype of some
//!   member.
//! - **may-sleep** — whether a `sleep(..)` statement is reachable through
//!   any call chain (no catch filtering: delays count wherever they
//!   live).
//! - **may-retry / attempt bound** — whether the method (or anything it
//!   transitively calls) contains a retry loop, and the local loop's
//!   attempt bound when it does.
//!
//! Each transfer walks the lowered body once, with a cursor over the
//! method's calls in the [`CallGraph`]: the graph lists them in the order
//! this walk meets them, so every call expression finds its targets
//! without a lookup. A component of one method that does not call itself
//! reads no summary of its own component, so one transfer is final for it.
//!
//! # Order
//!
//! Components are solved one at a time in the order [`sccs`] returns
//! them, which is reverse topological: every component a member calls
//! is already final when its caller's component is solved. Within a
//! component the fixpoint iterates members in ascending method order until
//! stable. The components are not split among threads: per-level
//! workers measured no faster than this serial pass.

use crate::callgraph::{sccs, CallGraph, Calls, Sccs};
use crate::idx;
use std::collections::BTreeSet;
use wasabi_lang::ast::BinOp;
use wasabi_lang::index::{ExcId, LBlock, LExpr, LExprId, LStmt, ProgramIndex, Slot};
use wasabi_lang::project::Project;

/// Worst-case attempt bound of a retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptBound {
    /// Bounded by a statically known count.
    Bounded(u64),
    /// A cap exists but its value is not statically known.
    Capped,
    /// No attempt cap found.
    Unbounded,
}

impl AttemptBound {
    /// Multiplies two bounds (worst-case product of nested retries).
    pub fn multiply(self, other: AttemptBound) -> AttemptBound {
        match (self, other) {
            (AttemptBound::Unbounded, _) | (_, AttemptBound::Unbounded) => AttemptBound::Unbounded,
            (AttemptBound::Capped, _) | (_, AttemptBound::Capped) => AttemptBound::Capped,
            (AttemptBound::Bounded(a), AttemptBound::Bounded(b)) => {
                AttemptBound::Bounded(a.saturating_mul(b))
            }
        }
    }
}

impl std::fmt::Display for AttemptBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptBound::Bounded(n) => write!(f, "{n}"),
            AttemptBound::Capped => write!(f, "capped(?)"),
            AttemptBound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// The interprocedural facts computed for one compiled method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodSummary {
    /// Exception types that may escape the method.
    pub may_throw: BTreeSet<ExcId>,
    /// Whether a `sleep` is reachable through the method.
    pub may_sleep: bool,
    /// Whether the method body itself contains a retry loop.
    pub has_retry_loop: bool,
    /// Whether a retry loop is reachable through the method.
    pub may_retry: bool,
    /// Attempt bound of the method's own retry loop(s); worst case when
    /// there are several. `None` when the method has no retry loop.
    pub attempts: Option<AttemptBound>,
    /// Whether the method body itself contains an ordering comparison
    /// (`<`, `<=`, `>`, `>=`) — a local fact (not propagated) used to
    /// recognise cap checks delegated to helpers.
    pub has_comparison: bool,
}

/// Summaries for every compiled method, indexed by method index.
#[derive(Debug)]
pub struct Summaries {
    /// `methods[m]` — summary for method index `m`.
    pub methods: Vec<MethodSummary>,
}

impl Summaries {
    /// Computes all summaries. `local_retry` carries, per method index,
    /// the attempt bound of the retry loops found in that method by the
    /// loop query (empty slice when only throw/sleep facts are needed).
    pub fn compute(
        project: &Project,
        cg: &CallGraph,
        local_retry: &[(u32, AttemptBound)],
    ) -> Summaries {
        let index = project.index();
        let n = index.methods.len();
        let mut retry_bounds: Vec<Option<AttemptBound>> = vec![None; n];
        for &(midx, bound) in local_retry {
            let slot = &mut retry_bounds[idx(midx, "retry method")];
            *slot = Some(match *slot {
                // Several loops in one method: keep the worst case.
                Some(existing) => existing.max_of(bound),
                None => bound,
            });
        }

        let scc = sccs(cg);
        let solver = Solver {
            index,
            cg,
            scc: &scc,
            retry_bounds: &retry_bounds,
            // The top exception type, for rethrown values that cannot be
            // typed.
            throwable: index.exc_by_name("Throwable"),
        };
        let mut methods: Vec<MethodSummary> = vec![MethodSummary::default(); n];
        let mut scratch = Scratch::default();
        let mut current = Vec::new();
        for ci in 0..scc.len() {
            solver.solve(ci, &methods, &mut current, &mut scratch);
            for (midx, summary) in current.drain(..) {
                methods[idx(midx, "solved method")] = summary;
            }
        }
        Summaries { methods }
    }
}

impl AttemptBound {
    /// The worse (larger) of two bounds.
    fn max_of(self, other: AttemptBound) -> AttemptBound {
        match (self, other) {
            (AttemptBound::Unbounded, _) | (_, AttemptBound::Unbounded) => AttemptBound::Unbounded,
            (AttemptBound::Capped, _) | (_, AttemptBound::Capped) => AttemptBound::Capped,
            (AttemptBound::Bounded(a), AttemptBound::Bounded(b)) => AttemptBound::Bounded(a.max(b)),
        }
    }
}

/// What every transfer reads besides the summaries.
struct Solver<'a> {
    index: &'a ProgramIndex,
    cg: &'a CallGraph,
    scc: &'a Sccs,
    retry_bounds: &'a [Option<AttemptBound>],
    throwable: Option<ExcId>,
}

/// The walker's stacks, reused from one transfer to the next.
#[derive(Default)]
struct Scratch {
    /// Catch-clause types protecting the current position, innermost
    /// last.
    handlers: Vec<ExcId>,
    /// Catch-binding slots in scope, innermost last, for typing `throw e;`
    /// rethrows.
    bindings: Vec<(Slot, ExcId)>,
}

impl Solver<'_> {
    /// Solves the fixpoint of component `ci` into `out`, one entry per
    /// member in ascending method order. Reads `finalized` only for the
    /// components it calls, which are solved before it.
    fn solve(
        &self,
        ci: usize,
        finalized: &[MethodSummary],
        out: &mut Vec<(u32, MethodSummary)>,
        scratch: &mut Scratch,
    ) {
        let members = self.scc.component(ci);
        out.extend(members.iter().map(|&m| (m, MethodSummary::default())));
        let recursive =
            members.len() > 1 || self.cg.callees(members[0]).binary_search(&members[0]).is_ok();
        loop {
            let mut changed = false;
            for (i, &m) in members.iter().enumerate() {
                let next = self.transfer(m, finalized, out, scratch);
                if out[i].1 != next {
                    out[i].1 = next;
                    changed = true;
                }
            }
            if !changed || !recursive {
                break;
            }
        }
    }

    /// One application of the summary transfer function for method `midx`.
    /// `component` holds the current summaries of its component, sorted by
    /// method.
    fn transfer(
        &self,
        midx: u32,
        finalized: &[MethodSummary],
        component: &[(u32, MethodSummary)],
        scratch: &mut Scratch,
    ) -> MethodSummary {
        let method = &self.index.methods[idx(midx, "method")];
        let mut walker = BodyWalker {
            index: self.index,
            component,
            finalized,
            calls: self.cg.calls(midx),
            throwable: self.throwable,
            scratch,
            may_throw: method.throws.iter().copied().collect(),
            may_sleep: false,
            may_retry: false,
            has_comparison: false,
        };
        walker.block(method.body);
        debug_assert!(walker.calls.next().is_none(), "the walk met every call");
        let attempts = self.retry_bounds[idx(midx, "method")];
        MethodSummary {
            may_throw: walker.may_throw,
            may_sleep: walker.may_sleep,
            has_retry_loop: attempts.is_some(),
            may_retry: attempts.is_some() || walker.may_retry,
            attempts,
            has_comparison: walker.has_comparison,
        }
    }
}

struct BodyWalker<'a, 's> {
    index: &'a ProgramIndex,
    component: &'a [(u32, MethodSummary)],
    finalized: &'a [MethodSummary],
    /// The method's calls not yet met, in walk order.
    calls: Calls<'a>,
    throwable: Option<ExcId>,
    scratch: &'s mut Scratch,
    may_throw: BTreeSet<ExcId>,
    may_sleep: bool,
    may_retry: bool,
    has_comparison: bool,
}

impl<'a> BodyWalker<'a, '_> {
    /// The current summary of method `m`: its component's first, else the
    /// final result of a component solved earlier.
    fn summary_of(&self, m: u32) -> &'a MethodSummary {
        let component = self.component;
        match component.binary_search_by_key(&m, |&(member, _)| member) {
            Ok(i) => &component[i].1,
            Err(_) => &self.finalized[idx(m, "method")],
        }
    }

    /// Records that exception `exc` is raised at the current position; it
    /// escapes unless an enclosing catch clause covers it.
    fn raise(&mut self, exc: ExcId) {
        let handled = self
            .scratch
            .handlers
            .iter()
            .any(|&h| self.index.is_exc_subtype(exc, h));
        if !handled {
            self.may_throw.insert(exc);
        }
    }

    fn expr(&mut self, expr: LExprId) {
        let index = self.index;
        match index[expr] {
            LExpr::Call {
                site, recv, args, ..
            } => {
                if let Some(r) = recv {
                    self.expr(r);
                }
                for &a in &index[args] {
                    self.expr(a);
                }
                let call = self.calls.next().expect("the call graph lists every call");
                debug_assert_eq!(call.site, site, "calls are met in graph order");
                for &t in call.targets {
                    let summary = self.summary_of(t);
                    self.may_sleep |= summary.may_sleep;
                    self.may_retry |= summary.may_retry;
                    for &exc in &summary.may_throw {
                        self.raise(exc);
                    }
                }
            }
            LExpr::GlobalCall { args, .. }
            | LExpr::NewExc { args, .. }
            | LExpr::NewObj { args, .. }
            | LExpr::NewUnknown { args, .. } => {
                for &a in &index[args] {
                    self.expr(a);
                }
            }
            LExpr::Binary { op, lhs, rhs } => {
                if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) {
                    self.has_comparison = true;
                }
                self.expr(lhs);
                self.expr(rhs);
            }
            LExpr::Field { recv: expr, .. }
            | LExpr::Unary { expr, .. }
            | LExpr::InstanceOf { expr, .. } => self.expr(expr),
            LExpr::Literal(_) | LExpr::Local { .. } | LExpr::ImplicitField { .. } | LExpr::This => {
            }
        }
    }

    fn block(&mut self, block: LBlock) {
        let index = self.index;
        for &stmt in &index[block] {
            self.stmt(index[stmt]);
        }
    }

    fn stmt(&mut self, stmt: LStmt) {
        let index = self.index;
        match stmt {
            LStmt::Var { init: e, .. }
            | LStmt::AssignLocal { value: e, .. }
            | LStmt::Log { expr: e }
            | LStmt::Expr { expr: e } => self.expr(e),
            LStmt::AssignField { recv, value, .. } => {
                self.expr(recv);
                self.expr(value);
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond);
                self.block(then_blk);
                if let Some(e) = else_blk {
                    self.block(e);
                }
            }
            LStmt::While { cond, body } => {
                self.expr(cond);
                self.block(body);
            }
            LStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(index[i]);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(u) = update {
                    self.stmt(index[u]);
                }
                self.block(body);
            }
            LStmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                self.expr(scrutinee);
                for case in &index[cases] {
                    self.block(case.body);
                }
                if let Some(d) = default {
                    self.block(d);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                // The protected body runs under this try's clauses.
                let outer = self.scratch.handlers.len();
                self.scratch
                    .handlers
                    .extend(index[catches].iter().map(|c| c.exc));
                self.block(body);
                self.scratch.handlers.truncate(outer);
                // Catch bodies run under the *outer* context only; the
                // binding slot types rethrows inside the body.
                for c in &index[catches] {
                    self.scratch.bindings.push((c.binding, c.exc));
                    self.block(c.body);
                    self.scratch.bindings.pop();
                }
                if let Some(f) = finally {
                    self.block(f);
                }
            }
            LStmt::Throw { expr } => {
                self.expr(expr);
                let raised = match index[expr] {
                    LExpr::NewExc { exc, .. } => Some(exc),
                    LExpr::Local { slot, .. } => self
                        .scratch
                        .bindings
                        .iter()
                        .rev()
                        .find(|&&(binding, _)| binding == slot)
                        .map(|&(_, exc)| exc)
                        .or(self.throwable),
                    _ => self.throwable,
                };
                if let Some(exc) = raised {
                    self.raise(exc);
                }
            }
            LStmt::Return { expr } => {
                if let Some(e) = expr {
                    self.expr(e);
                }
            }
            LStmt::Sleep { ms } => {
                self.expr(ms);
                self.may_sleep = true;
            }
            LStmt::Assert { cond, msg } => {
                self.expr(cond);
                if let Some(m) = msg {
                    self.expr(m);
                }
            }
            LStmt::Break | LStmt::Continue => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn project(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    fn summaries(p: &Project) -> Summaries {
        let cg = CallGraph::build(p);
        Summaries::compute(p, &cg, &[])
    }

    fn midx(p: &Project, class: &str, name: &str) -> usize {
        let cid = p.index().class_by_name(class).expect("class");
        let sym = p.index().interner.lookup(name).expect("name");
        idx(p.index().resolve_dispatch(cid, sym).expect("dispatch"), "dispatch")
    }

    fn exc(p: &Project, name: &str) -> ExcId {
        p.index().exc_by_name(name).expect("exception")
    }

    #[test]
    fn may_throw_propagates_through_calls_and_catches() {
        let p = project(
            "exception NetError;\n\
             exception DiskError;\n\
             class C {\n\
               method low() { throw new NetError(\"n\"); }\n\
               method mid() { throw new DiskError(\"d\"); }\n\
               method both() { this.low(); this.mid(); return 1; }\n\
               method filtered() {\n\
                 try { this.both(); } catch (NetError e) { log(e); }\n\
                 return 1;\n\
               }\n\
             }",
        );
        let s = summaries(&p);
        let both = &s.methods[midx(&p, "C", "both")];
        assert!(both.may_throw.contains(&exc(&p, "NetError")));
        assert!(both.may_throw.contains(&exc(&p, "DiskError")));
        let filtered = &s.methods[midx(&p, "C", "filtered")];
        assert!(!filtered.may_throw.contains(&exc(&p, "NetError")));
        assert!(filtered.may_throw.contains(&exc(&p, "DiskError")));
    }

    #[test]
    fn rethrown_binding_keeps_its_catch_type() {
        let p = project(
            "exception NetError;\n\
             class C {\n\
               method low() throws NetError { return 1; }\n\
               method wrap() {\n\
                 try { this.low(); } catch (NetError e) { log(\"x\"); throw e; }\n\
                 return 1;\n\
               }\n\
             }",
        );
        let s = summaries(&p);
        let wrap = &s.methods[midx(&p, "C", "wrap")];
        assert!(wrap.may_throw.contains(&exc(&p, "NetError")));
    }

    #[test]
    fn may_sleep_crosses_two_call_levels() {
        let p = project(
            "class C {\n\
               method pause() { sleep(50); }\n\
               method backoff() { this.pause(); }\n\
               method run() { this.backoff(); return 1; }\n\
               method quiet() { return 1; }\n\
             }",
        );
        let s = summaries(&p);
        assert!(s.methods[midx(&p, "C", "run")].may_sleep);
        assert!(!s.methods[midx(&p, "C", "quiet")].may_sleep);
    }

    #[test]
    fn recursive_cycle_reaches_fixpoint() {
        let p = project(
            "exception NetError;\n\
             class C {\n\
               method a(n) { if (n > 0) { this.b(n - 1); } return 1; }\n\
               method b(n) { if (n > 2) { throw new NetError(\"x\"); } this.a(n); return 2; }\n\
             }",
        );
        let s = summaries(&p);
        assert!(s.methods[midx(&p, "C", "a")]
            .may_throw
            .contains(&exc(&p, "NetError")));
        assert!(s.methods[midx(&p, "C", "b")]
            .may_throw
            .contains(&exc(&p, "NetError")));
    }

    /// The walk meets a call after its receiver and arguments, in the
    /// call graph's order (the cursor asserts it in debug builds); each
    /// call's throws then land under the handlers at its own position.
    #[test]
    fn the_call_cursor_follows_receivers_and_arguments() {
        let p = project(
            "exception NetError;\n\
             exception DiskError;\n\
             class C {\n\
               method a() { throw new NetError(\"a\"); }\n\
               method b(x) { return x; }\n\
               method c(y) { throw new DiskError(\"c\"); }\n\
               method run() {\n\
                 try { this.a().b(this.c(1)); } catch (NetError e) { log(e); }\n\
                 return this.a();\n\
               }\n\
             }",
        );
        let s = summaries(&p);
        let run = &s.methods[midx(&p, "C", "run")];
        assert!(run.may_throw.contains(&exc(&p, "DiskError")));
        assert!(run.may_throw.contains(&exc(&p, "NetError")), "the unprotected call");
    }

    /// Components are solved callee first: the cycle sees what `B.y` and,
    /// through it, `A.x` were finally found to do.
    #[test]
    fn a_cycle_reads_the_final_summaries_of_the_components_it_calls() {
        let src = "exception NetError;\n\
             exception DiskError;\n\
             class A { method x() { throw new NetError(\"a\"); } }\n\
             class B { method y() { new A().x(); sleep(5); return 1; } }\n\
             class C {\n\
               method r1() { new B().y(); return this.r2(); }\n\
               method r2() { if (true) { return this.r1(); } throw new DiskError(\"c\"); }\n\
             }";
        let p = project(src);
        let s = summaries(&p);
        for method in ["r1", "r2"] {
            let summary = &s.methods[midx(&p, "C", method)];
            assert!(summary.may_sleep, "{method} reaches B.y's sleep");
            for thrown in ["NetError", "DiskError"] {
                assert!(
                    summary.may_throw.contains(&exc(&p, thrown)),
                    "{method} may throw {thrown}"
                );
            }
        }
    }
}
