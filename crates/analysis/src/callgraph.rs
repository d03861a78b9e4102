//! Deterministic whole-program call graph over the compile-once
//! [`ProgramIndex`].
//!
//! Calls are resolved through the same flattened dispatch tables the
//! interpreter executes, so static reasoning and dynamic dispatch can no
//! longer disagree (the `resolve.rs` name-matching split-brain):
//!
//! - **this-calls** (`this.m()` / implicit receiver) resolve through the
//!   dispatch table of the declaring class *and every subclass of it* —
//!   at run time `this` may be any subtype, so the target set
//!   over-approximates dynamic dispatch exactly.
//! - **typed receivers** (`new C().m()`, locals assigned `new C(...)`,
//!   fields initialised `new C(...)`) resolve through `C`'s table alone.
//! - **unknown receivers** fall back to the set of distinct dispatch
//!   targets for the method name across all classes; a unique target
//!   resolves, anything else stays a may-set.
//!
//! The graph is flat: every call, every target set and every callee list
//! is a run in one of a few vectors (compressed sparse rows), so a build
//! allocates a handful of times however many methods and calls there are.
//! Local receiver types live in one dense slot vector, refilled per
//! method. A method's calls come in the order a pre-order walk of its body
//! meets them (each after its receiver and arguments), which is the order
//! [`Summaries`](crate::summaries::Summaries) walks the body in, so a
//! cursor over [`CallGraph::calls`] pairs each call expression with its
//! targets without a lookup.
//!
//! Everything is computed from dense ids in declaration order — no hash
//! iteration escapes into results — so the graph is byte-stable across
//! runs and worker counts.

use std::collections::HashMap;
use std::ops::Range;
use wasabi_lang::index::{ClassId, LBlock, LExpr, LExprId, LStmt, ProgramIndex};
use wasabi_lang::intern::Symbol;
use wasabi_lang::project::{CallSite, Project};

/// One call expression with its resolved may-target set.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedCall<'g> {
    /// The static call site, as carried by the lowered IR.
    pub site: CallSite,
    /// Called method name.
    pub method: Symbol,
    /// May-target method indices, sorted and deduped. Empty when the name
    /// resolves on no class (e.g. methods of runtime builtin values).
    pub targets: &'g [u32],
}

/// The whole-program call graph: per-method resolved call sites and the
/// flattened callee adjacency used by SCC/fixpoint passes.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `sites[call_start[m]..call_start[m + 1]]`: method `m`'s calls, in
    /// walk order.
    call_start: Vec<u32>,
    sites: Vec<(CallSite, Symbol)>,
    /// `targets[target_start[c]..target_start[c + 1]]`: call `c`'s
    /// may-targets, sorted and deduped.
    target_start: Vec<u32>,
    targets: Vec<u32>,
    /// `callees[callee_start[m]..callee_start[m + 1]]`: the union of
    /// method `m`'s call targets, sorted and deduped.
    callee_start: Vec<u32>,
    callees: Vec<u32>,
}

/// The calls of one method, in walk order: an iterator and a cursor.
#[derive(Debug, Clone)]
pub struct Calls<'g> {
    graph: &'g CallGraph,
    range: Range<usize>,
}

impl<'g> Iterator for Calls<'g> {
    type Item = ResolvedCall<'g>;

    fn next(&mut self) -> Option<ResolvedCall<'g>> {
        let c = self.range.next()?;
        Some(self.graph.call(c))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Calls<'_> {}

/// `run[start[i]..start[i + 1]]`.
fn run(start: &[u32], i: usize) -> Range<usize> {
    start[i] as usize..start[i + 1] as usize
}

impl CallGraph {
    /// Builds the call graph for a compiled project.
    pub fn build(project: &Project) -> CallGraph {
        let index = &project.index;
        let n = index.methods.len();
        let mut graph = CallGraph {
            call_start: Vec::with_capacity(n + 1),
            callee_start: Vec::with_capacity(n + 1),
            target_start: vec![0],
            ..CallGraph::default()
        };
        graph.call_start.push(0);
        graph.callee_start.push(0);
        let mut resolver = CallResolver {
            index,
            field_types: infer_field_types(index),
            named: NamedTargets::build(index),
            children: Children::build(index),
            locals: Vec::new(),
            owner: ClassId(0),
            stack: Vec::new(),
            graph,
        };
        for method in &index.methods {
            let first_target = resolver.graph.targets.len();
            resolver.owner = method.owner;
            resolver.infer_local_types(method.n_slots, method.body);
            resolver.walk_block(method.body);
            // The callee list: this method's targets, sorted and deduped.
            let graph = &mut resolver.graph;
            let start = graph.callees.len();
            graph
                .callees
                .extend_from_slice(&graph.targets[first_target..]);
            sort_dedup_tail(&mut graph.callees, start);
            graph.call_start.push(graph.sites.len() as u32);
            graph.callee_start.push(graph.callees.len() as u32);
        }
        resolver.graph
    }

    /// Number of methods (nodes).
    pub fn len(&self) -> usize {
        self.call_start.len().saturating_sub(1)
    }

    /// Whether the graph has no methods.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every call expression in method `m`, in walk order.
    pub fn calls(&self, m: u32) -> Calls<'_> {
        Calls {
            graph: self,
            range: run(&self.call_start, m as usize),
        }
    }

    /// The union of the target sets of method `m`'s calls, sorted and
    /// deduped.
    pub fn callees(&self, m: u32) -> &[u32] {
        &self.callees[run(&self.callee_start, m as usize)]
    }

    /// The targets of the call at `site` in method `m`, if `m` has one.
    pub(crate) fn targets_at(&self, m: u32, site: CallSite) -> Option<&[u32]> {
        self.calls(m).find(|c| c.site == site).map(|c| c.targets)
    }

    fn call(&self, c: usize) -> ResolvedCall<'_> {
        let (site, method) = self.sites[c];
        ResolvedCall {
            site,
            method,
            targets: &self.targets[run(&self.target_start, c)],
        }
    }
}

/// Sorts `v[start..]` and drops its repeats.
pub(crate) fn sort_dedup_tail(v: &mut Vec<u32>, start: usize) {
    v[start..].sort_unstable();
    let mut kept = start;
    for i in start..v.len() {
        if kept == start || v[i] != v[kept - 1] {
            v[kept] = v[i];
            kept += 1;
        }
    }
    v.truncate(kept);
}

/// Flow-insensitive `(class, field) -> concrete class` typing: a field
/// whose every initialiser and every `this.f = new C(...)` assignment
/// agrees on one class gets that type; any conflict poisons it.
fn infer_field_types(index: &ProgramIndex) -> HashMap<(ClassId, Symbol), ClassId> {
    // `None` marks a poisoned (conflicting) entry.
    let mut types: HashMap<(ClassId, Symbol), Option<ClassId>> = HashMap::new();
    let mut record = |key: (ClassId, Symbol), class: ClassId| match types.entry(key) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(Some(class));
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            if *e.get() != Some(class) {
                e.insert(None);
            }
        }
    };
    for (cidx, class) in index.classes.iter().enumerate() {
        let cid = ClassId(cidx as u32);
        for init in &class.inits {
            if let LExpr::NewObj { class: c, .. } = index[init.expr] {
                // Field initialisers address layout slots; map back to the
                // field name through the layout.
                if let Some((sym, _)) = class.layout.slots().find(|&(_, s)| s == init.slot) {
                    record((cid, sym), c);
                }
            }
        }
    }
    for method in &index.methods {
        walk_assignments(index, method.body, &mut |name, value| {
            if let LExpr::NewObj { class: c, .. } = index[value] {
                record((method.owner, name), c);
            }
        });
    }
    types
        .into_iter()
        .filter_map(|(k, v)| v.map(|c| (k, c)))
        .collect()
}

/// Visits every `this.name = value` assignment in a body (`for` headers
/// excluded).
fn walk_assignments(index: &ProgramIndex, block: LBlock, visit: &mut dyn FnMut(Symbol, LExprId)) {
    for &stmt in &index[block] {
        match index[stmt] {
            LStmt::AssignField { recv, name, value } if index[recv] == LExpr::This => {
                visit(name, value)
            }
            LStmt::If {
                then_blk, else_blk, ..
            } => {
                walk_assignments(index, then_blk, visit);
                if let Some(e) = else_blk {
                    walk_assignments(index, e, visit);
                }
            }
            LStmt::While { body, .. } | LStmt::For { body, .. } => {
                walk_assignments(index, body, visit)
            }
            LStmt::Switch { cases, default, .. } => {
                for case in &index[cases] {
                    walk_assignments(index, case.body, visit);
                }
                if let Some(d) = default {
                    walk_assignments(index, d, visit);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                walk_assignments(index, body, visit);
                for c in &index[catches] {
                    walk_assignments(index, c.body, visit);
                }
                if let Some(f) = finally {
                    walk_assignments(index, f, visit);
                }
            }
            _ => {}
        }
    }
}

/// For each method name, the distinct methods it dispatches to on any
/// class: what a call on an unknown receiver may reach.
struct NamedTargets {
    /// `targets[start[sym]..start[sym + 1]]`, sorted.
    start: Vec<u32>,
    targets: Vec<u32>,
}

impl NamedTargets {
    fn build(index: &ProgramIndex) -> NamedTargets {
        let mut pairs: Vec<(Symbol, u32)> = Vec::new();
        for class in 0..index.classes.len() {
            pairs.extend_from_slice(index.dispatch_entries(ClassId(class as u32)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut start = vec![0u32; index.interner.len() + 1];
        for &(sym, _) in &pairs {
            start[sym.index() + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        NamedTargets {
            start,
            targets: pairs.into_iter().map(|(_, m)| m).collect(),
        }
    }

    fn of(&self, method: Symbol) -> &[u32] {
        &self.targets[run(&self.start, method.index())]
    }
}

/// Each class's direct subclasses, for walking a class and its subtypes.
struct Children {
    /// `of[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    of: Vec<ClassId>,
}

impl Children {
    fn build(index: &ProgramIndex) -> Children {
        let n = index.classes.len();
        let mut start = vec![0u32; n + 1];
        for class in &index.classes {
            if let Some(p) = class.parent {
                start[p.0 as usize + 1] += 1;
            }
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill: Vec<u32> = start[..n].to_vec();
        let mut of = vec![ClassId(0); start[n] as usize];
        for (c, class) in index.classes.iter().enumerate() {
            if let Some(p) = class.parent {
                of[fill[p.0 as usize] as usize] = ClassId(c as u32);
                fill[p.0 as usize] += 1;
            }
        }
        Children { start, of }
    }
}

/// A slot's receiver type: a class id, or one of these.
const UNTYPED: u32 = u32::MAX;
const CONFLICTING: u32 = u32::MAX - 1;

struct CallResolver<'a> {
    index: &'a ProgramIndex,
    field_types: HashMap<(ClassId, Symbol), ClassId>,
    named: NamedTargets,
    children: Children,
    /// Per local slot of the current method: the one class every write
    /// of the slot instantiates, [`UNTYPED`] or [`CONFLICTING`].
    locals: Vec<u32>,
    owner: ClassId,
    /// Classes still to visit in a subtype walk.
    stack: Vec<ClassId>,
    graph: CallGraph,
}

impl<'a> CallResolver<'a> {
    /// Flow-insensitive local typing: slots only ever assigned `new C(...)`
    /// for a single `C` get that type.
    fn infer_local_types(&mut self, n_slots: u32, body: LBlock) {
        self.locals.clear();
        self.locals.resize(n_slots as usize, UNTYPED);
        self.collect_local_types(body);
    }

    fn record_local_type(&mut self, slot: u32, value: LExprId) {
        let class = match self.index[value] {
            LExpr::NewObj { class, .. } => class.0,
            _ => CONFLICTING,
        };
        let entry = &mut self.locals[slot as usize];
        *entry = if *entry == UNTYPED || *entry == class {
            class
        } else {
            CONFLICTING
        };
    }

    /// Records the type of every local write (`for` updates excluded).
    fn collect_local_types(&mut self, block: LBlock) {
        let index = self.index;
        for &stmt in &index[block] {
            self.collect_local_stmt(index[stmt]);
        }
    }

    fn collect_local_stmt(&mut self, stmt: LStmt) {
        let index = self.index;
        match stmt {
            LStmt::Var { slot, init } => self.record_local_type(slot, init),
            LStmt::AssignLocal { slot, value, .. } => self.record_local_type(slot, value),
            LStmt::If {
                then_blk, else_blk, ..
            } => {
                self.collect_local_types(then_blk);
                if let Some(e) = else_blk {
                    self.collect_local_types(e);
                }
            }
            LStmt::While { body, .. } => self.collect_local_types(body),
            LStmt::For { init, body, .. } => {
                if let Some(i) = init {
                    self.collect_local_stmt(index[i]);
                }
                self.collect_local_types(body);
            }
            LStmt::Switch { cases, default, .. } => {
                for case in &index[cases] {
                    self.collect_local_types(case.body);
                }
                if let Some(d) = default {
                    self.collect_local_types(d);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                self.collect_local_types(body);
                for c in &index[catches] {
                    self.collect_local_types(c.body);
                }
                if let Some(f) = finally {
                    self.collect_local_types(f);
                }
            }
            _ => {}
        }
    }

    /// The concrete class of a receiver expression, when statically known.
    fn static_class(&self, expr: LExprId) -> Option<ClassId> {
        match self.index[expr] {
            LExpr::This => Some(self.owner),
            LExpr::NewObj { class, .. } => Some(class),
            LExpr::Local { slot, name } => match self.locals[slot as usize] {
                UNTYPED | CONFLICTING => self.field_types.get(&(self.owner, name)).copied(),
                class => Some(ClassId(class)),
            },
            LExpr::ImplicitField { name } => self.field_types.get(&(self.owner, name)).copied(),
            LExpr::Field { recv, name } => {
                let recv_class = self.static_class(recv)?;
                self.field_types.get(&(recv_class, name)).copied()
            }
            _ => None,
        }
    }

    /// Appends the call's targets to the graph, sorted and deduped.
    fn resolve(&mut self, recv: Option<LExprId>, method: Symbol) {
        let index = self.index;
        let start = self.graph.targets.len();
        let receiver = match recv {
            None => None,
            Some(expr) if index[expr] == LExpr::This => None,
            Some(expr) => Some(self.static_class(expr)),
        };
        match receiver {
            // Implicit or explicit `this`: at run time the receiver is the
            // declaring class or any subclass of it — exactly the classes
            // whose dispatch tables the interpreter would consult.
            None => {
                self.stack.push(self.owner);
                while let Some(class) = self.stack.pop() {
                    if let Some(midx) = index.resolve_dispatch(class, method) {
                        self.graph.targets.push(midx);
                    }
                    let c = class.0 as usize;
                    self.stack
                        .extend_from_slice(&self.children.of[run(&self.children.start, c)]);
                }
            }
            Some(Some(class)) => {
                if let Some(midx) = index.resolve_dispatch(class, method) {
                    self.graph.targets.push(midx);
                }
            }
            // Unknown receiver type: any class answering to the name is a
            // may-target.
            Some(None) => self
                .graph
                .targets
                .extend_from_slice(self.named.of(method)),
        }
        sort_dedup_tail(&mut self.graph.targets, start);
        self.graph.target_start.push(self.graph.targets.len() as u32);
    }

    fn walk_expr(&mut self, expr: LExprId) {
        let index = self.index;
        match index[expr] {
            LExpr::Call {
                site,
                recv,
                method,
                args,
            } => {
                if let Some(r) = recv {
                    self.walk_expr(r);
                }
                for &a in &index[args] {
                    self.walk_expr(a);
                }
                self.resolve(recv, method);
                self.graph.sites.push((site, method));
            }
            LExpr::GlobalCall { args, .. }
            | LExpr::NewExc { args, .. }
            | LExpr::NewObj { args, .. }
            | LExpr::NewUnknown { args, .. } => {
                for &a in &index[args] {
                    self.walk_expr(a);
                }
            }
            LExpr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            LExpr::Field { recv: expr, .. }
            | LExpr::Unary { expr, .. }
            | LExpr::InstanceOf { expr, .. } => self.walk_expr(expr),
            LExpr::Literal(_) | LExpr::Local { .. } | LExpr::ImplicitField { .. } | LExpr::This => {
            }
        }
    }

    fn walk_block(&mut self, block: LBlock) {
        let index = self.index;
        for &stmt in &index[block] {
            self.walk_stmt(index[stmt]);
        }
    }

    fn walk_stmt(&mut self, stmt: LStmt) {
        let index = self.index;
        match stmt {
            LStmt::Var { init: e, .. }
            | LStmt::AssignLocal { value: e, .. }
            | LStmt::Throw { expr: e }
            | LStmt::Log { expr: e }
            | LStmt::Expr { expr: e }
            | LStmt::Sleep { ms: e } => self.walk_expr(e),
            LStmt::AssignField { recv, value, .. } => {
                self.walk_expr(recv);
                self.walk_expr(value);
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.walk_expr(cond);
                self.walk_block(then_blk);
                if let Some(e) = else_blk {
                    self.walk_block(e);
                }
            }
            LStmt::While { cond, body } => {
                self.walk_expr(cond);
                self.walk_block(body);
            }
            LStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    self.walk_stmt(index[i]);
                }
                if let Some(c) = cond {
                    self.walk_expr(c);
                }
                if let Some(u) = update {
                    self.walk_stmt(index[u]);
                }
                self.walk_block(body);
            }
            LStmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                self.walk_expr(scrutinee);
                for case in &index[cases] {
                    self.walk_block(case.body);
                }
                if let Some(d) = default {
                    self.walk_block(d);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                self.walk_block(body);
                for c in &index[catches] {
                    self.walk_block(c.body);
                }
                if let Some(f) = finally {
                    self.walk_block(f);
                }
            }
            LStmt::Return { expr } => {
                if let Some(e) = expr {
                    self.walk_expr(e);
                }
            }
            LStmt::Assert { cond, msg } => {
                self.walk_expr(cond);
                if let Some(m) = msg {
                    self.walk_expr(m);
                }
            }
            LStmt::Break | LStmt::Continue => {}
        }
    }
}

/// Strongly connected components of the callee graph, in reverse
/// topological order (callees before callers), with a dense
/// `component_of` lookup. Computed with an iterative Tarjan so deep call
/// chains cannot overflow the stack.
#[derive(Debug)]
pub struct Sccs {
    /// `members[start[c]..start[c + 1]]`: component `c`'s methods, sorted
    /// ascending; components in reverse topological order.
    start: Vec<u32>,
    members: Vec<u32>,
    /// `component_of[m]` — the component of method `m`.
    pub component_of: Vec<u32>,
}

impl Sccs {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether there are no components.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The methods of component `c`, sorted ascending.
    pub fn component(&self, c: usize) -> &[u32] {
        &self.members[run(&self.start, c)]
    }
}

/// Computes the SCCs of the call graph's callee adjacency.
pub fn sccs(cg: &CallGraph) -> Sccs {
    let n = cg.len();
    let mut index_of = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut start: Vec<u32> = vec![0];
    let mut members: Vec<u32> = Vec::with_capacity(n);
    let mut component_of = vec![0u32; n];
    let mut next_index = 0u32;

    // Explicit DFS frames: (node, next-child position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index_of[root as usize] != u32::MAX {
            continue;
        }
        frames.push((root, 0));
        index_of[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let callees = cg.callees(v);
            if *child < callees.len() {
                let w = callees[*child];
                *child += 1;
                if index_of[w as usize] == u32::MAX {
                    index_of[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index_of[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index_of[v as usize] {
                    let first = members.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component_of[w as usize] = start.len() as u32 - 1;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    members[first..].sort_unstable();
                    start.push(members.len() as u32);
                }
            }
        }
    }
    Sccs {
        start,
        members,
        component_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn project(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    fn method_idx(p: &Project, class: &str, name: &str) -> u32 {
        let cid = p.index.class_by_name(class).expect("class");
        let sym = p.index.interner.lookup(name).expect("name");
        p.index.resolve_dispatch(cid, sym).expect("dispatch")
    }

    #[test]
    fn this_calls_resolve_through_dispatch_including_overrides() {
        let p = project(
            "class Base {\n\
               method helper() { return 1; }\n\
               method run() { return this.helper(); }\n\
             }\n\
             class Derived extends Base {\n\
               method helper() { return 2; }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let run = method_idx(&p, "Base", "run");
        let base_helper = method_idx(&p, "Base", "helper");
        let derived_helper = method_idx(&p, "Derived", "helper");
        assert_ne!(base_helper, derived_helper);
        // `this.helper()` inside Base.run may dispatch to either override:
        // the runtime receiver can be a Derived instance.
        assert_eq!(cg.callees(run), [base_helper, derived_helper]);
    }

    #[test]
    fn typed_receivers_resolve_precisely() {
        let p = project(
            "class Worker { method go() { return 1; } }\n\
             class Other { method go() { return 2; } }\n\
             class Main {\n\
               field w = new Worker();\n\
               method a() { var x = new Other(); return x.go(); }\n\
               method b() { return this.w.go(); }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let a = method_idx(&p, "Main", "a");
        let b = method_idx(&p, "Main", "b");
        let worker_go = method_idx(&p, "Worker", "go");
        let other_go = method_idx(&p, "Other", "go");
        assert_eq!(cg.callees(a), [other_go]);
        assert_eq!(cg.callees(b), [worker_go]);
    }

    #[test]
    fn unknown_receiver_falls_back_to_all_named_targets() {
        let p = project(
            "class A { method go() { return 1; } }\n\
             class B { method go() { return 2; } }\n\
             class Main { method run(x) { return x.go(); } }",
        );
        let cg = CallGraph::build(&p);
        let run = method_idx(&p, "Main", "run");
        assert_eq!(cg.callees(run).len(), 2);
    }

    #[test]
    fn sccs_group_mutual_recursion_in_reverse_topo_order() {
        let p = project(
            "class C {\n\
               method a() { return this.b(); }\n\
               method b() { return this.a(); }\n\
               method leaf() { return 1; }\n\
               method top() { return this.a() + this.leaf(); }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let s = sccs(&cg);
        let a = method_idx(&p, "C", "a");
        let b = method_idx(&p, "C", "b");
        let top = method_idx(&p, "C", "top");
        assert_eq!(
            s.component_of[a as usize], s.component_of[b as usize],
            "mutual recursion shares a component"
        );
        // Reverse topological: the a/b component precedes top's.
        assert!(s.component_of[a as usize] < s.component_of[top as usize]);
    }

    #[test]
    fn calls_come_in_walk_order_receiver_then_arguments_then_the_call() {
        let p = project(
            "class C {\n\
               method a() { return this; }\n\
               method b(x) { return x; }\n\
               method c(y) { return 1; }\n\
               method d() { return 2; }\n\
               method run() { return this.a().b(this.c(this.d())); }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let run = method_idx(&p, "C", "run");
        let order: Vec<u32> = cg.calls(run).map(|c| c.targets[0]).collect();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|m| method_idx(&p, "C", m));
        assert_eq!(order, [a, d, c, b]);
        assert_eq!(cg.callees(run), [a, b, c, d]);
        let site = cg.calls(run).nth(2).expect("a third call").site;
        assert_eq!(cg.targets_at(run, site), Some(&[c][..]));
    }

    #[test]
    fn build_is_deterministic() {
        let src = "class A { method go() { return this.go(); } }\n\
                   class B extends A { method go() { return 2; } method other() { return new A().go(); } }";
        let p1 = project(src);
        let p2 = project(src);
        let render = |p: &Project| format!("{:?}", CallGraph::build(p));
        assert_eq!(render(&p1), render(&p2));
    }
}
