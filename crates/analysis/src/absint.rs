//! Per-method interval abstract interpretation of retry policies.
//!
//! A classic interval domain over the integer locals (and directly
//! assigned `this.*` fields) of one method: constants, field
//! initialisers, and `getConfig` defaults seed the environment, a
//! fixpoint with **widening at loop heads** (after two stable-growth
//! iterations) guarantees termination, and one narrowing pass afterwards
//! recovers bounds that widening overshot — `min(delay * 2, cap)` comes
//! back down to `[base, cap]` instead of sticking at `+∞`.
//!
//! The W005/W006 checkers consume three kinds of facts per loop:
//!
//! - the **attempt interval** — how many times the body can run, derived
//!   from the loop guard (`counter < bound`) and the counter's additive
//!   updates; `[0, 0]` when the guard is unreachable at entry (a config
//!   default of `0` does this), `[0, +∞]` when nothing bounds it;
//! - **sleep observations** — the interval of every `sleep(ms)` argument
//!   inside the loop, with the variables the expression mentions;
//! - **growth observations** — assignments of the shape `v = v * k`
//!   (possibly nested inside `min(..)` or larger expressions) with
//!   factor `k ≥ 2`: the multiplicative-backoff evidence W005 requires
//!   before it calls a diverging interval a bug.
//!
//! Saturating arithmetic deliberately maps `i64` overflow to the
//! infinity endpoints, so "the delay computation overflows" and "the
//! delay diverges" land on the same lattice point.
//!
//! Field reads follow the same optimistic convention as the existing
//! `static_int` evaluation: a `this.f` read uses the declared
//! initialiser unless this method assigned the field — mutations through
//! callees are not modelled.

use std::collections::BTreeMap;
use wasabi_lang::ast::{
    Ast, BinOp, Block, Expr, ExprId, LValue, Lit, Literal, LoopId, MethodDecl, Stmt, UnOp,
};
use wasabi_lang::index::{ClassId, LExpr, ProgramIndex};
use wasabi_lang::span::Span;

/// `-∞` endpoint encoding.
pub const NEG_INF: i64 = i64::MIN;
/// `+∞` endpoint encoding.
pub const POS_INF: i64 = i64::MAX;

/// A closed integer interval `[lo, hi]` with `±∞` endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound ([`NEG_INF`] when unbounded below).
    pub lo: i64,
    /// Upper bound ([`POS_INF`] when unbounded above).
    pub hi: i64,
}

// Saturating interval arithmetic deliberately keeps inherent `add`/`mul`
// names: the std operator traits would promise ordinary integer
// semantics these ops do not have.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The single-point interval `[n, n]`.
    pub fn constant(n: i64) -> Interval {
        Interval { lo: n, hi: n }
    }

    /// The full interval `[-∞, +∞]`.
    pub fn top() -> Interval {
        Interval {
            lo: NEG_INF,
            hi: POS_INF,
        }
    }

    /// Whether this is the full interval.
    pub fn is_top(&self) -> bool {
        self.lo == NEG_INF && self.hi == POS_INF
    }

    /// Whether the upper bound is `+∞`.
    pub fn unbounded_above(&self) -> bool {
        self.hi == POS_INF
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Standard interval widening: an endpoint that is still moving jumps
    /// to its infinity.
    pub fn widen(self, newer: Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo { NEG_INF } else { self.lo },
            hi: if newer.hi > self.hi { POS_INF } else { self.hi },
        }
    }

    /// Greatest lower bound; `None` when the intervals do not intersect.
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Interval addition.
    pub fn add(self, other: Interval) -> Interval {
        Interval {
            lo: add_lo(self.lo, other.lo),
            hi: add_hi(self.hi, other.hi),
        }
    }

    /// Interval subtraction.
    pub fn sub(self, other: Interval) -> Interval {
        Interval {
            lo: add_lo(self.lo, neg(other.hi)),
            hi: add_hi(self.hi, neg(other.lo)),
        }
    }

    /// Interval multiplication; overflow saturates to the infinities.
    pub fn mul(self, other: Interval) -> Interval {
        let products = [
            mul_raw(self.lo, other.lo),
            mul_raw(self.lo, other.hi),
            mul_raw(self.hi, other.lo),
            mul_raw(self.hi, other.hi),
        ];
        Interval {
            lo: products.iter().copied().min().unwrap_or(NEG_INF),
            hi: products.iter().copied().max().unwrap_or(POS_INF),
        }
    }

    /// Interval division, precise only for strictly positive divisors.
    pub fn div(self, other: Interval) -> Interval {
        if other.lo <= 0 {
            return Interval::top();
        }
        let quotients = [
            div_raw(self.lo, other.lo),
            div_raw(self.lo, other.hi),
            div_raw(self.hi, other.lo),
            div_raw(self.hi, other.hi),
        ];
        Interval {
            lo: quotients.iter().copied().min().unwrap_or(NEG_INF),
            hi: quotients.iter().copied().max().unwrap_or(POS_INF),
        }
    }

    /// Interval remainder for strictly positive finite divisors.
    pub fn rem(self, other: Interval) -> Interval {
        if other.lo <= 0 || other.hi == POS_INF {
            return Interval::top();
        }
        let mag = other.hi - 1;
        if self.lo >= 0 {
            Interval { lo: 0, hi: mag }
        } else {
            Interval { lo: -mag, hi: mag }
        }
    }

    /// Pointwise minimum (the `min(a, b)` builtin).
    pub fn min_of(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Pointwise maximum (the `max(a, b)` builtin).
    pub fn max_of(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Arithmetic negation.
    pub fn negate(self) -> Interval {
        Interval {
            lo: neg(self.hi),
            hi: neg(self.lo),
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.lo, self.hi) {
            (NEG_INF, POS_INF) => write!(f, "[-inf, +inf]"),
            (NEG_INF, hi) => write!(f, "[-inf, {hi}]"),
            (lo, POS_INF) => write!(f, "[{lo}, +inf]"),
            (lo, hi) => write!(f, "[{lo}, {hi}]"),
        }
    }
}

fn neg(v: i64) -> i64 {
    match v {
        NEG_INF => POS_INF,
        POS_INF => NEG_INF,
        v => -v,
    }
}

fn add_lo(a: i64, b: i64) -> i64 {
    if a == NEG_INF || b == NEG_INF {
        NEG_INF
    } else {
        a.saturating_add(b)
    }
}

fn add_hi(a: i64, b: i64) -> i64 {
    if a == POS_INF || b == POS_INF {
        POS_INF
    } else {
        a.saturating_add(b)
    }
}

fn mul_raw(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let negative = (a < 0) != (b < 0);
    if a == NEG_INF || a == POS_INF || b == NEG_INF || b == POS_INF {
        return if negative { NEG_INF } else { POS_INF };
    }
    a.saturating_mul(b)
}

fn div_raw(a: i64, b: i64) -> i64 {
    match a {
        NEG_INF => NEG_INF,
        POS_INF => POS_INF,
        a => {
            if b == POS_INF {
                0
            } else {
                a / b
            }
        }
    }
}

/// Abstract environment: interval per tracked variable. Locals are keyed
/// by name, directly assigned fields by `this.<name>`; an absent key
/// means "untracked" (top for locals, declared initialiser for fields).
type Env = BTreeMap<String, Interval>;

/// One `sleep(ms)` observed inside a loop during the stable final pass.
#[derive(Debug, Clone)]
pub struct SleepObs {
    /// Source span of the `sleep` statement.
    pub span: Span,
    /// Interval of the millisecond argument at the sleep site.
    pub ms: Interval,
    /// Variables (locals and `this.*` keys) the argument mentions.
    pub vars: Vec<String>,
}

/// One multiplicative self-update (`v = .. v * k ..`, `k ≥ 2`) observed
/// inside a loop.
#[derive(Debug, Clone)]
pub struct GrowthObs {
    /// The updated variable (local name or `this.<field>` key).
    pub var: String,
    /// Interval of the multiplier.
    pub factor: Interval,
}

/// Everything the fixpoint learned about one loop.
#[derive(Debug, Clone)]
pub struct LoopObs {
    /// Interval of body executions.
    pub attempts: Interval,
    /// The guard excludes the body already at loop entry (e.g. a config
    /// default of `0` bounds the counter below its start value).
    pub guard_unreachable: bool,
    /// Counter variable of a `counter < bound`-shaped guard.
    pub counter: Option<String>,
    /// Whether any statement in the loop (body or `for` update) assigns
    /// the counter.
    pub counter_updated: bool,
    /// Stable variable intervals at the loop head.
    pub head: BTreeMap<String, Interval>,
    /// Variable intervals on entry, before the first iteration.
    pub entry: BTreeMap<String, Interval>,
    /// Sleeps inside the loop (including nested loops).
    pub sleeps: Vec<SleepObs>,
    /// Multiplicative self-updates inside the loop.
    pub growths: Vec<GrowthObs>,
}

impl LoopObs {
    /// Stable head interval of a variable (top when untracked).
    pub fn head_interval(&self, var: &str) -> Interval {
        self.head.get(var).copied().unwrap_or_else(Interval::top)
    }

    /// Entry interval of a variable (top when untracked).
    pub fn entry_interval(&self, var: &str) -> Interval {
        self.entry.get(var).copied().unwrap_or_else(Interval::top)
    }
}

/// Result of analysing one method: observations per loop id.
#[derive(Debug, Default)]
pub struct MethodAbs {
    /// Per-loop observations, keyed by the loop's file-unique id.
    pub loops: BTreeMap<LoopId, LoopObs>,
}

/// Runs the interval fixpoint over `method` of `class`, declared in `ast`.
pub fn analyze_method(
    index: &ProgramIndex,
    class: &str,
    ast: &Ast,
    method: &MethodDecl,
) -> MethodAbs {
    let mut interp = Interp {
        index,
        class,
        ast,
        loops: BTreeMap::new(),
        sleep_sink: Vec::new(),
        pending_sleeps: BTreeMap::new(),
        pending_growths: BTreeMap::new(),
    };
    let mut env = Env::new();
    // Parameters are unknown integers (or not integers at all): top, which
    // an absent key already means.
    let mut frames = Vec::new();
    let _ = interp.block(Some(env.clone()), &method.body, &mut frames);
    // `env` seeded empty on purpose; the analysis is flow-sensitive from
    // the body statements alone.
    env.clear();
    MethodAbs {
        loops: interp.loops,
    }
}

/// A `break`/`continue` target: a loop or a switch.
struct Frame {
    is_switch: bool,
    breaks: Vec<Env>,
}

struct Interp<'a> {
    index: &'a ProgramIndex,
    class: &'a str,
    ast: &'a Ast,
    loops: BTreeMap<LoopId, LoopObs>,
    /// Loops currently running their final collection pass; sleeps and
    /// growth updates are recorded into each of them.
    sleep_sink: Vec<LoopId>,
    pending_sleeps: BTreeMap<LoopId, Vec<SleepObs>>,
    pending_growths: BTreeMap<LoopId, Vec<GrowthObs>>,
}

/// Iterations of plain joining before widening kicks in.
const WIDEN_AFTER: usize = 2;
/// Hard cap on fixpoint iterations (widening converges far earlier).
const MAX_ITERS: usize = 24;

impl<'a> Interp<'a> {
    /// Executes a block; `None` means no fallthrough (all paths returned,
    /// threw, broke, or continued).
    fn block(&mut self, env: Option<Env>, block: &Block, frames: &mut Vec<Frame>) -> Option<Env> {
        let mut env = env?;
        let ast = self.ast;
        for stmt in ast.stmts_in(block) {
            env = self.stmt(env, stmt, frames)?;
        }
        Some(env)
    }

    fn stmt(&mut self, mut env: Env, stmt: &Stmt, frames: &mut Vec<Frame>) -> Option<Env> {
        let ast = self.ast;
        match stmt {
            Stmt::Var { name, init, .. } => {
                let value = self.eval(&env, *init);
                env.insert(ast[*name].to_string(), value);
                Some(env)
            }
            Stmt::Assign { target, value, .. } => {
                let interval = self.eval(&env, *value);
                if let Some(key) = lvalue_key(ast, target) {
                    self.note_growth(&env, &key, *value);
                    env.insert(key, interval);
                }
                Some(env)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let then_in = refine(env.clone(), *cond, true, self);
                let else_in = refine(env, *cond, false, self);
                let then_out = then_in.and_then(|e| self.block(Some(e), then_blk, frames));
                let else_out = match else_blk {
                    Some(blk) => else_in.and_then(|e| self.block(Some(e), blk, frames)),
                    None => else_in,
                };
                join_opt(then_out, else_out)
            }
            Stmt::While { id, cond, body, .. } => {
                self.fixpoint(env, *id, Some(*cond), None, body, frames)
            }
            Stmt::For {
                id,
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(init) = init {
                    env = self.stmt(env, &ast[*init], frames)?;
                }
                self.fixpoint(env, *id, *cond, update.map(|u| &ast[u]), body, frames)
            }
            Stmt::Switch { cases, default, .. } => {
                frames.push(Frame {
                    is_switch: true,
                    breaks: Vec::new(),
                });
                let mut out: Option<Env> = None;
                for case in &ast[*cases] {
                    let arm = self.block(Some(env.clone()), &case.body, frames);
                    out = join_opt(out, arm);
                }
                match default {
                    Some(blk) => {
                        let arm = self.block(Some(env.clone()), blk, frames);
                        out = join_opt(out, arm);
                    }
                    // No default: the scrutinee may match nothing and fall
                    // straight through.
                    None => out = join_opt(out, Some(env)),
                }
                let frame = frames.pop().expect("switch frame");
                for brk in frame.breaks {
                    out = join_opt(out, Some(brk));
                }
                out
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                let before = env.clone();
                let after_body = self.block(Some(env), body, frames);
                // A catch can run after any prefix of the body; the join
                // of the entry and exit environments over-approximates the
                // states we track (growth updates are re-joined by the
                // enclosing loop fixpoint anyway).
                let catch_in = match &after_body {
                    Some(after) => join_env(before.clone(), after.clone()),
                    None => before,
                };
                let mut out = after_body;
                for catch in &ast[*catches] {
                    let mut handler_env = catch_in.clone();
                    // The binding is an exception reference, not an int.
                    handler_env.remove(&ast[catch.binding]);
                    let handler_out = self.block(Some(handler_env), &catch.body, frames);
                    out = join_opt(out, handler_out);
                }
                match finally {
                    Some(blk) => self.block(out, blk, frames),
                    None => out,
                }
            }
            Stmt::Throw { .. } | Stmt::Return { .. } => None,
            Stmt::Break { .. } => {
                if let Some(frame) = frames.last_mut() {
                    frame.breaks.push(env);
                }
                None
            }
            Stmt::Continue { .. } => {
                // Joined back into the loop head by the next fixpoint
                // iteration; precise continue-edge tracking is not needed
                // for the attempt/delay facts.
                let _ = frames.iter_mut().rev().find(|f| !f.is_switch);
                None
            }
            Stmt::Sleep { ms, .. } => {
                if !self.sleep_sink.is_empty() {
                    let interval = self.eval(&env, *ms);
                    let mut vars = Vec::new();
                    collect_vars(ast, *ms, &mut vars);
                    vars.sort();
                    vars.dedup();
                    let obs = SleepObs {
                        span: stmt.span(),
                        ms: interval,
                        vars,
                    };
                    for &loop_id in &self.sleep_sink {
                        self.pending_sleeps
                            .entry(loop_id)
                            .or_default()
                            .push(obs.clone());
                    }
                }
                Some(env)
            }
            Stmt::Log { .. } | Stmt::Assert { .. } | Stmt::Expr { .. } => Some(env),
        }
    }

    /// Loop fixpoint: join → widen → narrow → collect, then build the
    /// [`LoopObs`] and return the exit environment.
    fn fixpoint(
        &mut self,
        entry: Env,
        id: LoopId,
        cond: Option<ExprId>,
        update: Option<&Stmt>,
        body: &Block,
        frames: &mut Vec<Frame>,
    ) -> Option<Env> {
        let ast = self.ast;
        let one_pass = |interp: &mut Self, head: &Env, frames: &mut Vec<Frame>| -> (Option<Env>, Vec<Env>) {
            let body_in = match cond {
                Some(cond) => refine(head.clone(), cond, true, interp),
                None => Some(head.clone()),
            };
            frames.push(Frame {
                is_switch: false,
                breaks: Vec::new(),
            });
            let mut body_out = interp.block(body_in, body, frames);
            if let Some(update) = update {
                if let Some(out) = body_out.take() {
                    body_out = interp.stmt(out, update, frames);
                }
            }
            let frame = frames.pop().expect("loop frame");
            (body_out, frame.breaks)
        };

        // Ascend with widening until stable.
        let mut head = entry.clone();
        for iter in 0..MAX_ITERS {
            let (body_out, _) = one_pass(self, &head, frames);
            let new_head = match body_out {
                Some(out) => join_env(entry.clone(), out),
                None => entry.clone(),
            };
            if new_head == head {
                break;
            }
            head = if iter >= WIDEN_AFTER {
                widen_env(&head, &new_head)
            } else {
                new_head
            };
        }
        // One narrowing pass recovers bounds widening overshot (caps via
        // `min`, guard refinements).
        let (body_out, _) = one_pass(self, &head, frames);
        head = match body_out {
            Some(out) => join_env(entry.clone(), out),
            None => entry.clone(),
        };
        // Final collection pass on the stable head records sleeps and
        // growth updates.
        self.pending_sleeps.insert(id, Vec::new());
        self.pending_growths.insert(id, Vec::new());
        self.sleep_sink.push(id);
        let (body_out, breaks) = one_pass(self, &head, frames);
        self.sleep_sink.pop();
        let head_final = match &body_out {
            Some(out) => join_env(entry.clone(), out.clone()),
            None => entry.clone(),
        };

        let guard_unreachable = match cond {
            Some(cond) => refine(entry.clone(), cond, true, self).is_none(),
            None => false,
        };
        let guard = cond.and_then(|cond| loop_guard(ast, cond));
        let counter = guard.map(|(var, _, _)| var.to_string());
        let counter_updated = counter
            .as_deref()
            .map(|var| assigns_var(ast, body, update, var))
            .unwrap_or(false);
        let attempts = self.attempt_interval(
            &entry,
            guard,
            counter_updated,
            guard_unreachable,
            body,
            update,
        );

        let mut sleeps = self.pending_sleeps.remove(&id).unwrap_or_default();
        sleeps.sort_by_key(|s| (s.span.start, s.span.end));
        sleeps.dedup_by_key(|s| (s.span.start, s.span.end));
        let mut growths = self.pending_growths.remove(&id).unwrap_or_default();
        growths.sort_by(|a, b| a.var.cmp(&b.var));
        growths.dedup_by(|a, b| a.var == b.var && a.factor == b.factor);

        self.loops.insert(
            id,
            LoopObs {
                attempts,
                guard_unreachable,
                counter,
                counter_updated,
                head: head_final.clone(),
                entry: entry.clone(),
                sleeps,
                growths,
            },
        );

        // Exit: the guard is false, or a break fired.
        let mut exit = match cond {
            Some(cond) => refine(head_final, cond, false, self),
            None => None, // `for(;;)`-style: only breaks leave the loop
        };
        for brk in breaks {
            exit = join_opt(exit, Some(brk));
        }
        exit
    }

    /// Interval of loop-body executions.
    fn attempt_interval(
        &self,
        entry: &Env,
        guard: Option<(&str, BinOp, ExprId)>,
        counter_updated: bool,
        guard_unreachable: bool,
        body: &Block,
        update: Option<&Stmt>,
    ) -> Interval {
        if guard_unreachable {
            return Interval::constant(0);
        }
        let Some((var, op, bound)) = guard else {
            return Interval {
                lo: 0,
                hi: POS_INF,
            };
        };
        if !counter_updated {
            return Interval {
                lo: 0,
                hi: POS_INF,
            };
        }
        // Every assignment to the counter must be an additive step ≥ 1,
        // otherwise the guard proves nothing about iteration counts.
        let Some(step) = additive_step(self, entry, body, update, var) else {
            return Interval {
                lo: 0,
                hi: POS_INF,
            };
        };
        if step.lo < 1 {
            return Interval {
                lo: 0,
                hi: POS_INF,
            };
        }
        let bound_i = self.eval(entry, bound);
        let init = entry.get(var).copied().unwrap_or_else(Interval::top);
        let limit = match op {
            BinOp::Lt => bound_i.hi,
            BinOp::LtEq => add_hi(bound_i.hi, 1),
            _ => return Interval { lo: 0, hi: POS_INF },
        };
        if limit == POS_INF || init.lo == NEG_INF {
            return Interval {
                lo: 0,
                hi: POS_INF,
            };
        }
        Interval {
            lo: 0,
            hi: limit.saturating_sub(init.lo).max(0),
        }
    }

    /// Records `key = .. key * k ..` updates with `k ≥ 2` during the
    /// collection pass.
    fn note_growth(&mut self, env: &Env, key: &str, value: ExprId) {
        if self.sleep_sink.is_empty() {
            return;
        }
        let Some(factor) = growth_factor(self, env, key, value) else {
            return;
        };
        let obs = GrowthObs {
            var: key.to_string(),
            factor,
        };
        for &loop_id in &self.sleep_sink {
            self.pending_growths
                .entry(loop_id)
                .or_default()
                .push(obs.clone());
        }
    }

    /// Evaluates an expression to an interval.
    fn eval(&self, env: &Env, expr: ExprId) -> Interval {
        let ast = self.ast;
        match ast[expr] {
            Expr::Literal(Lit::Int(n), _) => Interval::constant(n),
            Expr::Literal(..) => Interval::top(),
            Expr::Ident(name, _) => env.get(&ast[name]).copied().unwrap_or_else(Interval::top),
            Expr::This(_) | Expr::New { .. } | Expr::InstanceOf { .. } => Interval::top(),
            Expr::Field { recv, name, .. } if matches!(ast[recv], Expr::This(_)) => {
                let name = &ast[name];
                let key = format!("this.{name}");
                if let Some(interval) = env.get(&key) {
                    return *interval;
                }
                match self
                    .index
                    .class_by_name(self.class)
                    .and_then(|cid| field_init_int(self.index, cid, name))
                {
                    Some(n) => Interval::constant(n),
                    None => Interval::top(),
                }
            }
            Expr::Field { .. } => Interval::top(),
            Expr::Call {
                recv: None,
                method,
                args,
                ..
            } if &ast[method] == "min" && args.len() == 2 => self
                .eval(env, ast[args][0])
                .min_of(self.eval(env, ast[args][1])),
            Expr::Call {
                recv: None,
                method,
                args,
                ..
            } if &ast[method] == "max" && args.len() == 2 => self
                .eval(env, ast[args][0])
                .max_of(self.eval(env, ast[args][1])),
            Expr::Call {
                recv: None,
                method,
                args,
                ..
            } if &ast[method] == "getConfig" && args.len() == 1 => {
                let Expr::Literal(Lit::Str(key), _) = ast[ast[args][0]] else {
                    return Interval::top();
                };
                match self.index.config_by_name(&ast[key]) {
                    Some(id) => match &self.index.configs[id as usize].default {
                        Literal::Int(n) => Interval::constant(*n),
                        _ => Interval::top(),
                    },
                    None => Interval::top(),
                }
            }
            Expr::Call { .. } => Interval::top(),
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.eval(env, lhs);
                let r = self.eval(env, rhs);
                match op {
                    BinOp::Add => l.add(r),
                    BinOp::Sub => l.sub(r),
                    BinOp::Mul => l.mul(r),
                    BinOp::Div => l.div(r),
                    BinOp::Rem => l.rem(r),
                    _ => Interval::top(),
                }
            }
            Expr::Unary { op, expr, .. } => match op {
                UnOp::Neg => self.eval(env, expr).negate(),
                UnOp::Not => Interval::top(),
            },
        }
    }
}

/// The environment key an assignment writes, when tracked.
fn lvalue_key(ast: &Ast, target: &LValue) -> Option<String> {
    match *target {
        LValue::Var(name, _) => Some(ast[name].to_string()),
        LValue::Field { recv, name, .. } if matches!(ast[recv], Expr::This(_)) => {
            Some(format!("this.{}", &ast[name]))
        }
        LValue::Field { .. } => None,
    }
}

/// Variables (locals and `this.*` keys) mentioned by an expression.
fn collect_vars(ast: &Ast, expr: ExprId, out: &mut Vec<String>) {
    ast.walk_expr(expr, &mut |e| match *e {
        Expr::Ident(name, _) => out.push(ast[name].to_string()),
        Expr::Field { recv, name, .. } if matches!(ast[recv], Expr::This(_)) => {
            out.push(format!("this.{}", &ast[name]));
        }
        _ => {}
    });
}

/// Finds a `v * k` (or `k * v`) factor with `k ≥ 2` for `key` inside the
/// assigned expression.
fn growth_factor(interp: &Interp<'_>, env: &Env, key: &str, value: ExprId) -> Option<Interval> {
    let ast = interp.ast;
    let mut found: Option<Interval> = None;
    ast.walk_expr(value, &mut |e| {
        if found.is_some() {
            return;
        }
        let Expr::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
            ..
        } = *e
        else {
            return;
        };
        let factor = if refers_to(ast, lhs, key) {
            interp.eval(env, rhs)
        } else if refers_to(ast, rhs, key) {
            interp.eval(env, lhs)
        } else {
            return;
        };
        if factor.lo >= 2 {
            found = Some(factor);
        }
    });
    found
}

/// Whether an expression is exactly the variable `key` refers to.
fn refers_to(ast: &Ast, expr: ExprId, key: &str) -> bool {
    match ast[expr] {
        Expr::Ident(name, _) => &ast[name] == key,
        Expr::Field { recv, name, .. } if matches!(ast[recv], Expr::This(_)) => {
            key.strip_prefix("this.") == Some(&ast[name])
        }
        _ => false,
    }
}

/// Extracts a `counter <op> bound` guard with the counter on one side.
/// `&&`-conjunctions are searched left to right.
fn loop_guard(ast: &Ast, cond: ExprId) -> Option<(&str, BinOp, ExprId)> {
    match ast[cond] {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
            ..
        } => loop_guard(ast, lhs).or_else(|| loop_guard(ast, rhs)),
        Expr::Binary { op, lhs, rhs, .. } => match (op, ast[lhs], ast[rhs]) {
            (BinOp::Lt | BinOp::LtEq, Expr::Ident(v, _), _) => Some((&ast[v], op, rhs)),
            (BinOp::Gt, _, Expr::Ident(v, _)) => Some((&ast[v], BinOp::Lt, lhs)),
            (BinOp::GtEq, _, Expr::Ident(v, _)) => Some((&ast[v], BinOp::LtEq, lhs)),
            _ => None,
        },
        _ => None,
    }
}

/// Whether any statement in the body (or the `for` update) assigns `var`.
fn assigns_var(ast: &Ast, body: &Block, update: Option<&Stmt>, var: &str) -> bool {
    let is_assign = |stmt: &Stmt| -> bool {
        matches!(*stmt,
            Stmt::Assign { target: LValue::Var(name, _), .. } | Stmt::Var { name, .. }
                if &ast[name] == var)
    };
    if update.map(is_assign).unwrap_or(false) {
        return true;
    }
    let mut assigned = false;
    ast.walk_stmts(body, &mut |stmt| {
        if is_assign(stmt) {
            assigned = true;
        }
        true
    });
    assigned
}

/// When every assignment to `var` in the loop has the shape
/// `var = var + c` (or `c + var`), the joined interval of the steps;
/// `None` when some assignment has another shape.
fn additive_step(
    interp: &Interp<'_>,
    env: &Env,
    body: &Block,
    update: Option<&Stmt>,
    var: &str,
) -> Option<Interval> {
    let ast = interp.ast;
    let mut step: Option<Interval> = None;
    let mut irregular = false;
    let mut inspect = |stmt: &Stmt| {
        let Stmt::Assign {
            target: LValue::Var(name, _),
            value,
            ..
        } = *stmt
        else {
            if matches!(*stmt, Stmt::Var { name, .. } if &ast[name] == var) {
                irregular = true;
            }
            return;
        };
        if &ast[name] != var {
            return;
        }
        let is_var = |e: ExprId| matches!(ast[e], Expr::Ident(n, _) if &ast[n] == var);
        let delta = match ast[value] {
            Expr::Binary {
                op: BinOp::Add,
                lhs,
                rhs,
                ..
            } => {
                if is_var(lhs) {
                    Some(interp.eval(env, rhs))
                } else if is_var(rhs) {
                    Some(interp.eval(env, lhs))
                } else {
                    None
                }
            }
            _ => None,
        };
        match delta {
            Some(delta) => step = Some(step.map_or(delta, |s| s.join(delta))),
            None => irregular = true,
        }
    };
    if let Some(update) = update {
        inspect(update);
    }
    ast.walk_stmts(body, &mut |stmt| {
        inspect(stmt);
        true
    });
    if irregular {
        None
    } else {
        step
    }
}

/// The literal integer initialiser of a field, if any: the last
/// initialiser of its slot along the chain wins (a subclass redeclaration
/// overrides). Shared with the checkers' `static_int`.
pub(crate) fn field_init_int(index: &ProgramIndex, class: ClassId, name: &str) -> Option<i64> {
    let def = &index.classes[class.0 as usize];
    let sym = index.interner.lookup(name)?;
    let slot = def.layout.slot(sym)?;
    let init = def.inits.iter().rev().find(|i| i.slot == slot as u32)?;
    match index[init.expr] {
        LExpr::Literal(Lit::Int(n)) => Some(n),
        _ => None,
    }
}

fn join_env(a: Env, b: Env) -> Env {
    let mut out = Env::new();
    for (key, &va) in &a {
        if let Some(&vb) = b.get(key) {
            out.insert(key.clone(), va.join(vb));
        }
        // Present on one side only: the other side is top, so the join
        // is top — an absent key.
    }
    out
}

fn widen_env(old: &Env, new: &Env) -> Env {
    let mut out = Env::new();
    for (key, &vo) in old {
        if let Some(&vn) = new.get(key) {
            out.insert(key.clone(), vo.widen(vn));
        }
    }
    out
}

fn join_opt(a: Option<Env>, b: Option<Env>) -> Option<Env> {
    match (a, b) {
        (Some(a), Some(b)) => Some(join_env(a, b)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

/// Refines `env` by assuming `cond` evaluates to `truth`; `None` when the
/// assumption is contradictory (the branch is unreachable).
fn refine(env: Env, cond: ExprId, truth: bool, interp: &Interp<'_>) -> Option<Env> {
    match interp.ast[cond] {
        Expr::Literal(Lit::Bool(b), _) => (b == truth).then_some(env),
        Expr::Unary {
            op: UnOp::Not,
            expr,
            ..
        } => refine(env, expr, !truth, interp),
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
            ..
        } if truth => refine(env, lhs, true, interp).and_then(|e| refine(e, rhs, true, interp)),
        Expr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
            ..
        } if !truth => refine(env, lhs, false, interp).and_then(|e| refine(e, rhs, false, interp)),
        Expr::Binary { op, lhs, rhs, .. } => {
            let Some(op) = comparison(op, truth) else {
                return Some(env);
            };
            refine_cmp(env, lhs, op, rhs, interp)
        }
        _ => Some(env),
    }
}

/// Normalises a (possibly negated) comparison operator; `None` for
/// non-order operators left unrefined.
fn comparison(op: BinOp, truth: bool) -> Option<BinOp> {
    let op = if truth {
        op
    } else {
        match op {
            BinOp::Lt => BinOp::GtEq,
            BinOp::LtEq => BinOp::Gt,
            BinOp::Gt => BinOp::LtEq,
            BinOp::GtEq => BinOp::Lt,
            BinOp::Eq => BinOp::NotEq,
            BinOp::NotEq => BinOp::Eq,
            _ => return None,
        }
    };
    matches!(
        op,
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq | BinOp::Eq | BinOp::NotEq
    )
    .then_some(op)
}

/// Applies `lhs <op> rhs` to the tracked sides.
fn refine_cmp(
    mut env: Env,
    lhs: ExprId,
    op: BinOp,
    rhs: ExprId,
    interp: &Interp<'_>,
) -> Option<Env> {
    let l = interp.eval(&env, lhs);
    let r = interp.eval(&env, rhs);
    // Bound for the left side from the right interval, and vice versa.
    let (l_bound, r_bound) = match op {
        BinOp::Lt => (
            Interval { lo: NEG_INF, hi: add_hi(r.hi, -1) },
            Interval { lo: add_lo(l.lo, 1), hi: POS_INF },
        ),
        BinOp::LtEq => (
            Interval { lo: NEG_INF, hi: r.hi },
            Interval { lo: l.lo, hi: POS_INF },
        ),
        BinOp::Gt => (
            Interval { lo: add_lo(r.lo, 1), hi: POS_INF },
            Interval { lo: NEG_INF, hi: add_hi(l.hi, -1) },
        ),
        BinOp::GtEq => (
            Interval { lo: r.lo, hi: POS_INF },
            Interval { lo: NEG_INF, hi: l.hi },
        ),
        BinOp::Eq => (r, l),
        // `!=` only prunes when one side is a point at the other's edge;
        // skipped for simplicity.
        _ => return Some(env),
    };
    if let Some(key) = expr_key(interp.ast, lhs) {
        match l.meet(l_bound) {
            Some(refined) => {
                env.insert(key, refined);
            }
            None => return None,
        }
    } else if l.meet(l_bound).is_none() {
        return None;
    }
    if let Some(key) = expr_key(interp.ast, rhs) {
        match r.meet(r_bound) {
            Some(refined) => {
                env.insert(key, refined);
            }
            None => return None,
        }
    } else if r.meet(r_bound).is_none() {
        return None;
    }
    Some(env)
}

/// The environment key an expression reads, when it is a plain variable
/// or `this.field`.
fn expr_key(ast: &Ast, expr: ExprId) -> Option<String> {
    match ast[expr] {
        Expr::Ident(name, _) => Some(ast[name].to_string()),
        Expr::Field { recv, name, .. } if matches!(ast[recv], Expr::This(_)) => {
            Some(format!("this.{}", &ast[name]))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    /// Analyses the single method `C.run` of `src`.
    fn analyze(src: &str) -> MethodAbs {
        let p = Project::compile("t", vec![("t.jav", src)]).expect("compile");
        let (_, file, method) = p.resolve_method("C", "run").expect("C.run");
        analyze_method(&p.index, "C", file, method)
    }

    fn only_loop(abs: &MethodAbs) -> &LoopObs {
        assert_eq!(abs.loops.len(), 1, "expected one loop");
        abs.loops.values().next().unwrap()
    }

    #[test]
    fn bounded_counter_loop_attempts_are_exact() {
        let abs = analyze(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n",
        );
        let obs = only_loop(&abs);
        assert_eq!(obs.attempts, Interval { lo: 0, hi: 5 });
        assert_eq!(obs.counter.as_deref(), Some("retry"));
        assert!(obs.counter_updated);
        assert!(!obs.guard_unreachable);
    }

    #[test]
    fn field_bound_propagates_through_the_index() {
        let abs = analyze(
            "exception E;\n\
             class C {\n\
               field maxRetries = 7;\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < this.maxRetries; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n",
        );
        assert_eq!(only_loop(&abs).attempts, Interval { lo: 0, hi: 7 });
    }

    #[test]
    fn config_default_zero_makes_the_guard_unreachable() {
        let abs = analyze(
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
             }\n",
        );
        let obs = only_loop(&abs);
        assert!(obs.guard_unreachable);
        assert_eq!(obs.attempts, Interval::constant(0));
    }

    #[test]
    fn stuck_counter_is_detected() {
        let abs = analyze(
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
             }\n",
        );
        let obs = only_loop(&abs);
        assert_eq!(obs.counter.as_deref(), Some("retries"));
        assert!(!obs.counter_updated);
        assert!(obs.attempts.unbounded_above());
    }

    #[test]
    fn uncapped_multiplicative_backoff_diverges() {
        let abs = analyze(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var delay = 10;\n\
                 var retry = 0;\n\
                 while (true) {\n\
                   try { return this.op(); }\n\
                   catch (E e) { sleep(delay); delay = delay * 2; retry = retry + 1; }\n\
                 }\n\
               }\n\
             }\n",
        );
        let obs = only_loop(&abs);
        assert!(obs.head_interval("delay").unbounded_above());
        assert_eq!(obs.growths.len(), 1);
        assert_eq!(obs.growths[0].var, "delay");
        assert_eq!(obs.growths[0].factor, Interval::constant(2));
        let sleep = obs
            .sleeps
            .iter()
            .find(|s| s.vars.contains(&"delay".to_string()))
            .expect("sleep(delay) observed");
        assert!(sleep.ms.unbounded_above());
    }

    #[test]
    fn min_capped_backoff_narrows_back_to_the_cap() {
        // The shard-supervisor shape: multiplicative growth under a
        // `min(.., cap)` must NOT diverge — narrowing recovers the cap.
        let abs = analyze(
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
             }\n",
        );
        let obs = only_loop(&abs);
        let delay = obs.head_interval("delay");
        assert!(
            !delay.unbounded_above(),
            "capped growth must stay bounded, got {delay}"
        );
        assert_eq!(delay, Interval { lo: 25, hi: 1000 });
    }

    #[test]
    fn guard_capped_backoff_narrows_back_to_the_cap() {
        // The `if (delay > cap) { delay = cap; }` idiom must also narrow.
        let abs = analyze(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var delay = 10;\n\
                 for (var retry = 0; retry < 50; retry = retry + 1) {\n\
                   try { return this.op(); }\n\
                   catch (E e) {\n\
                     sleep(delay);\n\
                     delay = delay * 2;\n\
                     if (delay > 4000) { delay = 4000; }\n\
                   }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n",
        );
        let obs = only_loop(&abs);
        let delay = obs.head_interval("delay");
        assert!(
            !delay.unbounded_above(),
            "if-guarded growth must stay bounded, got {delay}"
        );
        assert!(delay.hi <= 4000, "cap respected, got {delay}");
    }

    #[test]
    fn interval_arithmetic_saturates_to_infinity() {
        let big = Interval::constant(i64::MAX / 2);
        assert_eq!(big.mul(Interval::constant(4)).hi, POS_INF);
        assert_eq!(
            Interval::constant(3).add(Interval::top()).hi,
            POS_INF
        );
        assert_eq!(
            Interval { lo: 2, hi: POS_INF }.mul(Interval::constant(2)).hi,
            POS_INF
        );
    }

    #[test]
    fn widening_then_narrowing_is_stable_across_nested_loops() {
        let abs = analyze(
            "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var total = 0;\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   for (var inner = 0; inner < 4; inner = inner + 1) {\n\
                     try { this.op(); } catch (E e) { sleep(5); }\n\
                     total = total + 1;\n\
                   }\n\
                 }\n\
                 return total;\n\
               }\n\
             }\n",
        );
        assert_eq!(abs.loops.len(), 2);
        let attempts: Vec<Interval> = abs.loops.values().map(|o| o.attempts).collect();
        assert!(attempts.contains(&Interval { lo: 0, hi: 3 }));
        assert!(attempts.contains(&Interval { lo: 0, hi: 4 }));
    }
}
