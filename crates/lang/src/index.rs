//! The compile-once program index: lowered bodies, resolution tables, and
//! layouts the interpreter executes against.
//!
//! A [`ProgramIndex`] is built exactly once per project, by the first
//! call to [`Project::index`](crate::project::Project::index), and shared
//! immutably (`Arc`) across every campaign worker. It precomputes all the
//! work the tree-walking interpreter used to redo on every run:
//!
//! - **Interned names** ([`Symbol`]) for classes, methods, fields, locals,
//!   exception types, and config keys — the hot path compares `u32`s.
//! - **Method-resolution tables**: each class carries a flattened dispatch
//!   table with the superclass walk done at compile time.
//! - **Field layouts** ([`FieldLayout`]): object fields live in a `Vec`
//!   indexed by slot instead of a `HashMap<String, Value>`.
//! - **Local slots**: every method body is lowered to [`LStmt`]/[`LExpr`]
//!   with locals resolved to dense slots, so the environment is a
//!   `Vec<Option<Value>>`.
//! - **Ancestry tables**: `is_exc_subtype` is a boolean matrix lookup
//!   and `is_class_subtype` an interval test, instead of a parent-chain
//!   string walk.
//! - **Config-key ids**: declared keys get dense ids for a `Vec`-backed
//!   runtime store.
//!
//! Lowering is purely structural — statement-for-statement, with call
//! sites ([`CallSite`]) baked in — so the interpreter's observable output
//! (fault messages, traces, fuel accounting) is byte-identical to the
//! pre-index tree walker.
//!
//! The lowered IR is flat, like the AST it comes from: the index owns one
//! vector per node kind (statements, expressions, the statement and
//! expression lists that blocks and argument lists are runs of, switch
//! cases, catch clauses), and the `Copy` nodes refer to one another by
//! `u32` ids ([`LStmtId`], [`LExprId`], [`List`]); index the
//! [`ProgramIndex`] with an id to get its node. A method body and a field
//! initializer are ids too. Every vector is reserved at its exact size up
//! front — each AST statement and expression lowers to exactly one node,
//! and a field initializer is lowered once and shared by every subclass
//! that inherits it — so a whole program's IR is a handful of allocations,
//! and frees in as many. String literals and the names of undeclared
//! classes keep their text in one index-wide arena ([`ProgramIndex::text`]),
//! not in the interner, so they cannot move a symbol's number.
//!
//! The index is built in one walk on the calling thread, class by class
//! in declaration order: the superclass chain's field names, the class
//! name, the chain's initializers (each lowered at its first use), then
//! each method's body followed by its name. The walk lowers each unit as
//! it reaches it and interns each name as it meets it, so a symbol's
//! number is its name's first place in the walk. Each file's names were
//! interned once, per file, when it was lexed; the builder maps them into
//! the global interner through a per-file `Name → Symbol` memo. Locals
//! resolve through a dense `Name → Slot` table over the file's names,
//! reset after each method from the list of names the method touched.
//!
//! Only a project that [`Project::link`](crate::project::Project::link)
//! accepted has an index, so the build walks valid files only. Lowering
//! does not rely on that: an unknown superclass makes its class a root,
//! and an undeclared catch type lowers to no exception. Class ancestry is
//! a pre-order interval per class over the class forest (the link rejects
//! `extends` cycles), so `is_class_subtype` is two comparisons and the
//! table is linear in the number of classes.

use crate::ast::{Block, Expr, LValue, Lit, List, Literal, MethodDecl, Name, Names, Stmt, UnOp};
use crate::intern::{Interner, Symbol};
use crate::project::{CallSite, FileId, SourceFile, SymbolTable};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

pub use crate::ast::BinOp;

/// Dense id of a declared class, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Dense id of a declared exception type (builtins included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExcId(pub u32);

/// A local-variable slot within one method's environment.
pub type Slot = u32;

/// Per-class field layout: field name → dense slot, plus the class names
/// the runtime needs for rendering and fault messages. Shared by every
/// instance of the class via `Arc`.
#[derive(Debug)]
pub struct FieldLayout {
    /// The class this layout belongs to.
    pub class_id: ClassId,
    /// Interned class name.
    pub class_sym: Symbol,
    /// Class name as text (for `render` and fault messages).
    pub class_name: String,
    /// `(field name, slot)`, sorted by symbol for binary search.
    slots: Vec<(Symbol, u32)>,
    len: usize,
}

impl FieldLayout {
    /// Slot of `name`, if the class (or an ancestor) declares that field.
    pub fn slot(&self, name: Symbol) -> Option<usize> {
        self.slots
            .binary_search_by_key(&name, |&(sym, _)| sym)
            .ok()
            .map(|i| self.slots[i].1 as usize)
    }

    /// `(field name, slot)` pairs, sorted by interned name.
    pub fn slots(&self) -> impl Iterator<Item = (Symbol, u32)> + '_ {
        self.slots.iter().copied()
    }

    /// Number of field slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the class has no fields.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A lowered field initializer: evaluated in superclass-chain order during
/// instantiation, writing into `slot`.
#[derive(Debug, Clone, Copy)]
pub struct FieldInit {
    /// Destination field slot.
    pub slot: u32,
    /// Initializer expression (call sites carry the declaring class's
    /// file); every class in the chain shares the declaring class's node.
    pub expr: LExprId,
}

/// One compiled (lowered) method body.
#[derive(Debug)]
pub struct CompiledMethod {
    /// Interned method name.
    pub name: Symbol,
    /// Parameter count; parameters occupy slots `0..params`.
    pub params: u32,
    /// Total local slots (parameters included).
    pub n_slots: u32,
    /// Lowered body.
    pub body: LBlock,
    /// Whether this is a `test` method.
    pub is_test: bool,
    /// Declaring class (the class whose `methods` list this body came
    /// from; subclasses inherit it through their dispatch tables).
    pub owner: ClassId,
    /// File the declaring class lives in.
    pub file: FileId,
    /// Declared `throws` clause, lowered to dense ids, sorted and deduped.
    pub throws: Vec<ExcId>,
}

/// A compiled class: layout, initializers, and the flattened dispatch
/// table (inheritance walk done once, at build time).
#[derive(Debug)]
pub struct ClassDef {
    /// Interned class name.
    pub name: Symbol,
    /// Class name as text.
    pub name_str: String,
    /// File the class is declared in.
    pub file: FileId,
    /// Superclass, if any.
    pub parent: Option<ClassId>,
    /// Field layout shared by all instances.
    pub layout: Arc<FieldLayout>,
    /// Field initializers across the chain, base-class fields first.
    pub inits: Vec<FieldInit>,
    /// Whether an `init` constructor resolves on this class.
    pub has_init: bool,
    /// `(method name, index into ProgramIndex::methods)`, sorted by
    /// symbol; includes inherited methods.
    dispatch: Vec<(Symbol, u32)>,
}

/// A declared exception type.
#[derive(Debug)]
pub struct ExcDef {
    /// Interned type name.
    pub name: Symbol,
    /// Type name as text.
    pub name_str: String,
    /// Parent type (`None` only for the root `Throwable`).
    pub parent: Option<ExcId>,
}

/// A declared configuration key with its dense id (= index in
/// [`ProgramIndex::configs`]) and default literal.
#[derive(Debug, Clone)]
pub struct ConfigDef {
    /// The key text.
    pub key: String,
    /// Interned key.
    pub sym: Symbol,
    /// Declared default.
    pub default: Literal,
}

/// Symbols and exception ids the interpreter needs unconditionally.
#[derive(Debug, Clone, Copy)]
pub struct WellKnown {
    /// `"<entry>"` — the synthetic entry frame.
    pub entry: Symbol,
    /// `"init"` — the constructor name.
    pub init: Symbol,
    /// `NullPointerException`.
    pub npe: ExcId,
    /// `ArithmeticException`.
    pub arithmetic: ExcId,
    /// `AssertionError`.
    pub assertion: ExcId,
}

impl Default for WellKnown {
    fn default() -> Self {
        WellKnown {
            entry: Symbol(0),
            init: Symbol(0),
            npe: ExcId(0),
            arithmetic: ExcId(0),
            assertion: ExcId(0),
        }
    }
}

/// The compile-once execution layer. Immutable after build; `Send + Sync`
/// so one `Arc<ProgramIndex>` serves every worker thread.
#[derive(Debug, Default)]
pub struct ProgramIndex {
    /// The frozen global interner.
    pub interner: Interner,
    /// Classes in declaration order (`ClassId` indexes this).
    pub classes: Vec<ClassDef>,
    /// All compiled method bodies (dispatch tables index this).
    pub methods: Vec<CompiledMethod>,
    /// Exception types, sorted by name (`ExcId` indexes this).
    pub exceptions: Vec<ExcDef>,
    /// Declared config keys, sorted by key (dense config ids index this).
    pub configs: Vec<ConfigDef>,
    class_by_sym: Vec<(Symbol, ClassId)>,
    exc_by_sym: Vec<(Symbol, ExcId)>,
    config_by_sym: Vec<(Symbol, u32)>,
    /// `exc_matrix[sub * n + sup]` ⇔ `sub` is a subtype of `sup`.
    exc_matrix: Vec<bool>,
    /// `class_spans[c]`: the pre-order positions of `c`'s subtree in the
    /// class forest, `first..end`.
    class_spans: Vec<(u32, u32)>,
    /// The classes in pre-order (`class_spans` positions index this).
    class_order: Vec<ClassId>,
    /// Well-known symbols and exception ids.
    pub wk: WellKnown,
    /// Every lowered statement (`LStmtId` indexes this).
    stmts: Vec<LStmt>,
    /// Every lowered expression (`LExprId` indexes this).
    exprs: Vec<LExpr>,
    /// Runs of statement ids: blocks.
    stmt_lists: Vec<LStmtId>,
    /// Runs of expression ids: argument lists.
    expr_lists: Vec<LExprId>,
    /// Runs of switch arms.
    cases: Vec<LCase>,
    /// Runs of catch clauses.
    catches: Vec<LCatch>,
    /// Text of string literals and of undeclared class names.
    text: Names,
}

impl ProgramIndex {
    /// The class named by `sym`, if declared.
    pub fn class_by_sym(&self, sym: Symbol) -> Option<ClassId> {
        lookup_sorted(&self.class_by_sym, sym)
    }

    /// The class named `name`, if declared.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.interner.lookup(name).and_then(|s| self.class_by_sym(s))
    }

    /// The exception type named by `sym`, if declared.
    pub fn exc_by_sym(&self, sym: Symbol) -> Option<ExcId> {
        lookup_sorted(&self.exc_by_sym, sym)
    }

    /// The exception type named `name`, if declared.
    pub fn exc_by_name(&self, name: &str) -> Option<ExcId> {
        self.interner.lookup(name).and_then(|s| self.exc_by_sym(s))
    }

    /// The dense id of config key `name`, if declared.
    pub fn config_by_name(&self, name: &str) -> Option<u32> {
        self.interner
            .lookup(name)
            .and_then(|s| lookup_sorted(&self.config_by_sym, s))
    }

    /// Whether exception `sub` is `sup` or a descendant — a table lookup.
    pub fn is_exc_subtype(&self, sub: ExcId, sup: ExcId) -> bool {
        self.exc_matrix[sub.0 as usize * self.exceptions.len() + sup.0 as usize]
    }

    /// Whether class `sub` is `sup` or a descendant: whether `sub`'s
    /// pre-order position falls in `sup`'s subtree.
    pub fn is_class_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        let (first, end) = self.class_spans[sup.0 as usize];
        (first..end).contains(&self.class_spans[sub.0 as usize].0)
    }

    /// Resolves `method` on `class` via the flattened dispatch table.
    pub fn resolve_dispatch(&self, class: ClassId, method: Symbol) -> Option<u32> {
        lookup_sorted(&self.classes[class.0 as usize].dispatch, method)
    }

    /// The full flattened dispatch table of `class`:
    /// `(method name, index into methods)`, sorted by symbol, inherited
    /// entries included. This is the same table the interpreter consults,
    /// exposed so static analyses resolve calls identically.
    pub fn dispatch_entries(&self, class: ClassId) -> &[(Symbol, u32)] {
        &self.classes[class.0 as usize].dispatch
    }

    /// All classes that are `class` or a subclass of it, ascending by id.
    /// Static this-call resolution uses this to over-approximate dynamic
    /// dispatch: at run time `this` may be any subtype of the declaring
    /// class.
    pub fn subtypes_of_class(&self, class: ClassId) -> impl Iterator<Item = ClassId> {
        let (first, end) = self.class_spans[class.0 as usize];
        let mut subtree = self.class_order[first as usize..end as usize].to_vec();
        subtree.sort_unstable();
        subtree.into_iter()
    }

    /// Renders a method index as `DeclaringClass.method`.
    pub fn method_display(&self, midx: u32) -> String {
        let m = &self.methods[midx as usize];
        format!(
            "{}.{}",
            self.classes[m.owner.0 as usize].name_str,
            self.interner.resolve(m.name)
        )
    }

    /// The text of a string literal or undeclared class name in the IR.
    pub fn text(&self, name: Name) -> &str {
        self.text.get(name)
    }

    /// Number of lowered statements.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Number of lowered expressions.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Visits every expression of `block` in pre-order: statements in
    /// order, `for` headers and nested blocks included.
    pub fn walk_exprs<'a>(&'a self, block: LBlock, visit: &mut dyn FnMut(&'a LExpr)) {
        for &id in &self[block] {
            self.stmt_exprs(id, visit);
        }
    }

    fn stmt_exprs<'a>(&'a self, stmt: LStmtId, visit: &mut dyn FnMut(&'a LExpr)) {
        match self[stmt] {
            LStmt::Var { init: expr, .. }
            | LStmt::AssignLocal { value: expr, .. }
            | LStmt::Throw { expr }
            | LStmt::Log { expr }
            | LStmt::Expr { expr }
            | LStmt::Sleep { ms: expr } => self.walk_expr(expr, visit),
            LStmt::AssignField { recv, value, .. } => {
                self.walk_expr(recv, visit);
                self.walk_expr(value, visit);
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.walk_expr(cond, visit);
                self.walk_exprs(then_blk, visit);
                if let Some(else_blk) = else_blk {
                    self.walk_exprs(else_blk, visit);
                }
            }
            LStmt::While { cond, body } => {
                self.walk_expr(cond, visit);
                self.walk_exprs(body, visit);
            }
            LStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.stmt_exprs(init, visit);
                }
                if let Some(cond) = cond {
                    self.walk_expr(cond, visit);
                }
                if let Some(update) = update {
                    self.stmt_exprs(update, visit);
                }
                self.walk_exprs(body, visit);
            }
            LStmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                self.walk_expr(scrutinee, visit);
                for case in &self[cases] {
                    self.walk_exprs(case.body, visit);
                }
                if let Some(default) = default {
                    self.walk_exprs(default, visit);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                self.walk_exprs(body, visit);
                for catch in &self[catches] {
                    self.walk_exprs(catch.body, visit);
                }
                if let Some(finally) = finally {
                    self.walk_exprs(finally, visit);
                }
            }
            LStmt::Return { expr } => {
                if let Some(expr) = expr {
                    self.walk_expr(expr, visit);
                }
            }
            LStmt::Assert { cond, msg } => {
                self.walk_expr(cond, visit);
                if let Some(msg) = msg {
                    self.walk_expr(msg, visit);
                }
            }
            LStmt::Break | LStmt::Continue => {}
        }
    }

    /// Visits `expr` and all its sub-expressions in pre-order (a call's
    /// receiver before its arguments).
    pub fn walk_expr<'a>(&'a self, expr: LExprId, visit: &mut dyn FnMut(&'a LExpr)) {
        let node = &self[expr];
        visit(node);
        match *node {
            LExpr::Call { recv, args, .. } => {
                if let Some(recv) = recv {
                    self.walk_expr(recv, visit);
                }
                for &arg in &self[args] {
                    self.walk_expr(arg, visit);
                }
            }
            LExpr::GlobalCall { args, .. }
            | LExpr::NewExc { args, .. }
            | LExpr::NewObj { args, .. }
            | LExpr::NewUnknown { args, .. } => {
                for &arg in &self[args] {
                    self.walk_expr(arg, visit);
                }
            }
            LExpr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs, visit);
                self.walk_expr(rhs, visit);
            }
            LExpr::Field { recv: expr, .. }
            | LExpr::Unary { expr, .. }
            | LExpr::InstanceOf { expr, .. } => self.walk_expr(expr, visit),
            LExpr::Literal(_) | LExpr::Local { .. } | LExpr::ImplicitField { .. } | LExpr::This => {
            }
        }
    }

    /// Builds the index of a linked project (no duplicate declarations,
    /// known parent exceptions, no `extends` cycle, every file valid) in
    /// one walk on the calling thread.
    pub(crate) fn build(files: &[Arc<SourceFile>], symbols: &SymbolTable) -> ProgramIndex {
        Builder::run(files, symbols)
    }
}

fn lookup_sorted<T: Copy>(table: &[(Symbol, T)], sym: Symbol) -> Option<T> {
    table
        .binary_search_by_key(&sym, |&(s, _)| s)
        .ok()
        .map(|i| table[i].1)
}

// ---- Lowered IR ------------------------------------------------------------

/// A lowered statement: an index into the program's statement vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LStmtId(pub u32);

/// A lowered expression: an index into the program's expression vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LExprId(pub u32);

/// A lowered block: a run of statement ids.
pub type LBlock = List<LStmtId>;

/// A lowered statement. Mirrors [`Stmt`] one-for-one so the interpreter's
/// control flow (and fuel accounting) is unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LStmt {
    /// `var name = init;` — always writes the local slot.
    Var {
        /// Destination slot.
        slot: Slot,
        /// Initializer.
        init: LExprId,
    },
    /// `name = value;` — dynamic local-or-field resolution (a slot that is
    /// set wins; else an existing `this` field; else first write creates
    /// the local).
    AssignLocal {
        /// The name's local slot.
        slot: Slot,
        /// The name, for the `this`-field fallback and messages.
        name: Symbol,
        /// Right-hand side.
        value: LExprId,
    },
    /// `recv.name = value;`
    AssignField {
        /// Receiver expression.
        recv: LExprId,
        /// Field name.
        name: Symbol,
        /// Right-hand side.
        value: LExprId,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition (must evaluate to a bool).
        cond: LExprId,
        /// Then branch.
        then_blk: LBlock,
        /// Else branch, if present.
        else_blk: Option<LBlock>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: LExprId,
        /// Loop body.
        body: LBlock,
    },
    /// `for (init; cond; update) { .. }`
    For {
        /// Init statement, if present.
        init: Option<LStmtId>,
        /// Condition, if present.
        cond: Option<LExprId>,
        /// Update statement, if present.
        update: Option<LStmtId>,
        /// Loop body.
        body: LBlock,
    },
    /// `switch (scrutinee) { case lit: { .. } default: { .. } }`
    Switch {
        /// Scrutinee expression.
        scrutinee: LExprId,
        /// Arms, in source order; no fallthrough.
        cases: List<LCase>,
        /// Default arm, if present.
        default: Option<LBlock>,
    },
    /// `try { .. } catch (E e) { .. } finally { .. }`
    Try {
        /// Protected body.
        body: LBlock,
        /// Catch clauses in source order.
        catches: List<LCatch>,
        /// Finally block, if present.
        finally: Option<LBlock>,
    },
    /// `throw expr;`
    Throw {
        /// The thrown expression (must evaluate to an exception).
        expr: LExprId,
    },
    /// `return;` / `return expr;`
    Return {
        /// Returned expression, if present.
        expr: Option<LExprId>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `sleep(ms);`
    Sleep {
        /// Milliseconds (must evaluate to a non-negative int).
        ms: LExprId,
    },
    /// `log(expr);`
    Log {
        /// Logged expression.
        expr: LExprId,
    },
    /// `assert(cond);` / `assert(cond, msg);`
    Assert {
        /// Asserted condition.
        cond: LExprId,
        /// Failure message, if present.
        msg: Option<LExprId>,
    },
    /// An expression statement.
    Expr {
        /// The expression.
        expr: LExprId,
    },
}

/// One lowered `case lit: { .. }` arm of a switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LCase {
    /// The matched literal (a string's text is in [`ProgramIndex::text`]).
    pub lit: Lit,
    /// Arm body.
    pub body: LBlock,
}

/// A lowered catch clause. The exception type is always declared (the
/// validator guarantees it), so matching is a pure table lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LCatch {
    /// Caught exception type.
    pub exc: ExcId,
    /// Slot the binding is written to.
    pub binding: Slot,
    /// Handler body.
    pub body: LBlock,
}

/// A lowered expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LExpr {
    /// A literal (a string's text is in [`ProgramIndex::text`]).
    Literal(Lit),
    /// A name with a local slot: reads the slot if set, else falls back to
    /// a `this` field, else faults (`unknown variable`).
    Local {
        /// The name's slot.
        slot: Slot,
        /// The name, for the field fallback and messages.
        name: Symbol,
    },
    /// A name with no local slot in this method: a `this` field or a
    /// fault.
    ImplicitField {
        /// The name.
        name: Symbol,
    },
    /// `this`
    This,
    /// `recv.name`
    Field {
        /// Receiver expression.
        recv: LExprId,
        /// Field name.
        name: Symbol,
    },
    /// A receiver-less call to a reserved global builtin
    /// (`queue`/`getConfig`/...). Classified at compile time.
    GlobalCall {
        /// Builtin name.
        name: Symbol,
        /// Arguments.
        args: List<LExprId>,
    },
    /// A (possibly implicit-`this`) method call: the interception point.
    Call {
        /// The static call site (file baked in at lowering).
        site: CallSite,
        /// Receiver, or `None` for implicit `this`.
        recv: Option<LExprId>,
        /// Method name.
        method: Symbol,
        /// Arguments.
        args: List<LExprId>,
    },
    /// `new E(..)` where `E` is a declared exception type.
    NewExc {
        /// The exception type.
        exc: ExcId,
        /// Constructor arguments.
        args: List<LExprId>,
    },
    /// `new C(..)` where `C` is a declared class.
    NewObj {
        /// The class.
        class: ClassId,
        /// Constructor arguments.
        args: List<LExprId>,
    },
    /// `new X(..)` where `X` is neither: arguments still evaluate, then
    /// the run faults (`cannot instantiate unknown class`).
    NewUnknown {
        /// The undeclared name (its text is in [`ProgramIndex::text`]).
        class: Name,
        /// Arguments (evaluated before the fault, as the tree walker did).
        args: List<LExprId>,
    },
    /// A binary operation (`&&`/`||` short-circuit at eval).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: LExprId,
        /// Right operand.
        rhs: LExprId,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: LExprId,
    },
    /// `expr instanceof Ty` — `Ty` resolved at compile time against both
    /// namespaces (a name may be a class *and* an exception type).
    InstanceOf {
        /// Tested expression.
        expr: LExprId,
        /// The type name (for the undeclared-exception string fallback).
        ty: Symbol,
        /// `Ty` as an exception type, if declared as one.
        exc: Option<ExcId>,
        /// `Ty` as a class, if declared as one.
        class: Option<ClassId>,
    },
}

impl Index<LStmtId> for ProgramIndex {
    type Output = LStmt;
    fn index(&self, id: LStmtId) -> &LStmt {
        &self.stmts[id.0 as usize]
    }
}

impl Index<LExprId> for ProgramIndex {
    type Output = LExpr;
    fn index(&self, id: LExprId) -> &LExpr {
        &self.exprs[id.0 as usize]
    }
}

macro_rules! list_index {
    ($($elem:ty => $field:ident),* $(,)?) => {$(
        impl Index<List<$elem>> for ProgramIndex {
            type Output = [$elem];
            fn index(&self, list: List<$elem>) -> &[$elem] {
                &self.$field[list.range()]
            }
        }
    )*};
}

list_index! {
    LStmtId => stmt_lists,
    LExprId => expr_lists,
    LCase => cases,
    LCatch => catches,
}

/// Names reserved for global builtins. A receiver-less call to one of
/// these is always the builtin, never a method on `this`.
pub fn is_global_builtin(name: &str) -> bool {
    matches!(
        name,
        "queue" | "list" | "map" | "now" | "getConfig" | "setConfig" | "str" | "min" | "max"
            | "abs" | "pow"
    )
}

// ---- Builder ---------------------------------------------------------------

const UNMAPPED: u32 = u32::MAX;

/// Start offsets of each file's run in a vector laid out file after file,
/// and the total length.
fn file_runs(files: &[Arc<SourceFile>], len: impl Fn(&SourceFile) -> usize) -> (Vec<usize>, usize) {
    let mut total = 0;
    let starts = files
        .iter()
        .map(|file| {
            let start = total;
            total += len(file);
            start
        })
        .collect();
    (starts, total)
}

/// The index under construction: the global interner with each file's
/// `Name → Symbol` memo, the type ids, the lowering scope and the IR.
struct Builder<'a> {
    files: &'a [Arc<SourceFile>],
    interner: Interner,
    /// `memo[memo_start[f] + name]`: the symbol of each name of file `f`,
    /// or [`UNMAPPED`].
    memo: Vec<u32>,
    memo_start: Vec<usize>,
    /// `inits[field_start[f] + i]`: the lowered initializer of field
    /// declaration `i` of file `f`, or [`UNMAPPED`] until it is lowered.
    inits: Vec<u32>,
    field_start: Vec<usize>,
    exc_ids: HashMap<&'a str, ExcId>,
    class_ids: HashMap<&'a str, ClassId>,
    /// The local slot of each name of the file being lowered, or
    /// [`UNMAPPED`]; sized for the file with the most names.
    scope: Vec<Slot>,
    /// The names `scope` gave a slot in the method being lowered.
    touched: Vec<Name>,
    stmts: Vec<LStmt>,
    exprs: Vec<LExpr>,
    stmt_lists: Vec<LStmtId>,
    expr_lists: Vec<LExprId>,
    cases: Vec<LCase>,
    catches: Vec<LCatch>,
    text: Names,
}

impl<'a> Builder<'a> {
    /// The global symbol of `name` from `file`, interned on first use.
    fn sym(&mut self, file: FileId, name: Name) -> Symbol {
        let at = self.memo_start[file.0 as usize] + name.0 as usize;
        if self.memo[at] == UNMAPPED {
            self.memo[at] = self
                .interner
                .intern(&self.files[file.0 as usize][name])
                .0;
        }
        Symbol(self.memo[at])
    }

    /// Builds the index in the walk that numbers the symbols (see the
    /// module docs).
    fn run(files: &'a [Arc<SourceFile>], symbols: &'a SymbolTable) -> ProgramIndex {
        let (memo_start, names) = file_runs(files, |file| file.names().len());
        let (field_start, fields) = file_runs(files, |file| file.fields.len());
        // Every AST node lowers to exactly one node (field initializers
        // once, however many subclasses share them), so the files' counts
        // are the IR's exact sizes.
        let total = |len: fn(&SourceFile) -> usize| files.iter().map(|file| len(file)).sum();
        let n_stmts: usize = total(|f| f.stmts.len());
        let n_exprs: usize = total(|f| f.exprs.len());
        let mut b = Builder {
            files,
            interner: Interner::new(),
            memo: vec![UNMAPPED; names],
            memo_start,
            inits: vec![UNMAPPED; fields],
            field_start,
            exc_ids: HashMap::new(),
            class_ids: HashMap::new(),
            scope: vec![UNMAPPED; files.iter().map(|file| file.names().len()).max().unwrap_or(0)],
            touched: Vec::new(),
            stmts: Vec::with_capacity(n_stmts),
            exprs: Vec::with_capacity(n_exprs),
            stmt_lists: Vec::with_capacity(total(|f| f.stmt_lists.len())),
            expr_lists: Vec::with_capacity(total(|f| f.expr_lists.len())),
            cases: Vec::with_capacity(total(|f| f.cases.len())),
            catches: Vec::with_capacity(total(|f| f.catches.len())),
            text: Names::default(),
        };
        let entry = b.interner.intern("<entry>");
        let init = b.interner.intern("init");

        // Exceptions, sorted by name for deterministic dense ids.
        let mut exc_names: Vec<&String> = symbols.exception_names().collect();
        exc_names.sort_unstable();
        for (i, name) in exc_names.iter().enumerate() {
            b.exc_ids.insert(name.as_str(), ExcId(i as u32));
        }
        let exceptions: Vec<ExcDef> = exc_names
            .iter()
            .map(|name| ExcDef {
                name: b.interner.intern(name),
                name_str: (*name).clone(),
                parent: symbols
                    .exception(name)
                    .and_then(|info| info.parent.as_deref())
                    .map(|p| b.exc_ids[p]),
            })
            .collect();
        let exc_matrix = ancestry_matrix(exceptions.len(), |i| {
            exceptions[i].parent.map(|p| p.0 as usize)
        });

        // Classes in declaration order, with their decls kept at hand.
        let mut decls = Vec::new();
        for (fidx, file) in files.iter().enumerate() {
            for class in file.classes() {
                b.class_ids.insert(&file[class.name], ClassId(decls.len() as u32));
                decls.push((FileId(fidx as u32), &**file, class));
            }
        }
        // An unknown superclass is a validation error; lowered anyway,
        // the class counts as a root.
        let parents: Vec<Option<ClassId>> = decls
            .iter()
            .map(|(_, file, class)| b.class_ids.get(&file[class.parent?]).copied())
            .collect();
        let (class_spans, class_order) = preorder(&parents);

        // Layouts, field initializers, and method bodies.
        let mut classes: Vec<ClassDef> = Vec::with_capacity(decls.len());
        let mut methods: Vec<CompiledMethod> = Vec::with_capacity(total(|f| f.methods.len()));
        // `own[own_start[c]..own_start[c + 1]]`: class `c`'s own methods.
        let mut own: Vec<(Symbol, u32)> = Vec::with_capacity(methods.capacity());
        let mut own_start: Vec<usize> = Vec::with_capacity(decls.len() + 1);
        let mut chain: Vec<usize> = Vec::new();
        let mut by_name: HashMap<Symbol, u32> = HashMap::new();
        for (idx, &(file_id, file, class)) in decls.iter().enumerate() {
            // Superclass chain, base first.
            chain.clear();
            chain.push(idx);
            let mut cursor = parents[idx];
            while let Some(p) = cursor {
                chain.push(p.0 as usize);
                cursor = parents[p.0 as usize];
            }
            chain.reverse();

            // Field slots: first declaration along the chain wins the slot;
            // a shadowing redeclaration reuses it (matching the HashMap
            // the tree walker kept per object).
            let mut slots: Vec<(Symbol, u32)> = Vec::new();
            by_name.clear();
            for &ci in &chain {
                let (decl_file, decl_ast, decl) = decls[ci];
                for field in &decl_ast[decl.fields] {
                    let sym = b.sym(decl_file, field.name);
                    if let std::collections::hash_map::Entry::Vacant(e) = by_name.entry(sym) {
                        e.insert(slots.len() as u32);
                        slots.push((sym, slots.len() as u32));
                    }
                }
            }
            let len = slots.len();
            slots.sort_unstable_by_key(|&(sym, _)| sym);
            let class_sym = b.sym(file_id, class.name);
            let class_name = file[class.name].to_string();
            let layout = Arc::new(FieldLayout {
                class_id: ClassId(idx as u32),
                class_sym,
                class_name: class_name.clone(),
                slots,
                len,
            });

            // Initializers in chain order; call sites inside carry the
            // declaring class's file. Initializer expressions cannot touch
            // locals, so they lower with an empty scope, and the lowered
            // node is shared by every class that inherits the field.
            let mut inits = Vec::new();
            for &ci in &chain {
                let (decl_file, decl_ast, decl) = decls[ci];
                for at in decl.fields.range() {
                    let field = &decl_ast.fields[at];
                    if let Some(expr) = field.init {
                        let sym = b.sym(decl_file, field.name);
                        let slot = by_name[&sym];
                        let memo = b.field_start[decl_file.0 as usize] + at;
                        let expr = match b.inits[memo] {
                            UNMAPPED => {
                                let id = Lowerer::new(&mut b, decl_file, decl_ast).expr(expr);
                                b.inits[memo] = id.0;
                                id
                            }
                            id => LExprId(id),
                        };
                        inits.push(FieldInit { slot, expr });
                    }
                }
            }

            // This class's own methods.
            own_start.push(own.len());
            for method in &file[class.methods] {
                let midx = methods.len() as u32;
                let compiled =
                    compile_method(&mut b, file_id, file, ClassId(idx as u32), method);
                own.push((compiled.name, midx));
                methods.push(compiled);
            }

            classes.push(ClassDef {
                name: class_sym,
                name_str: class_name,
                file: file_id,
                parent: parents[idx],
                layout,
                inits,
                has_init: false, // filled in after dispatch flattening
                dispatch: Vec::new(),
            });
        }
        own_start.push(own.len());
        debug_assert_eq!(b.stmts.len(), n_stmts, "one lowered statement per AST statement");
        debug_assert_eq!(b.exprs.len(), n_exprs, "one lowered expression per AST expression");

        // Flatten dispatch: walk derived → base; a stable sort by name then
        // keeps the first (most derived) definition of each.
        for idx in 0..classes.len() {
            let mut dispatch: Vec<(Symbol, u32)> = Vec::new();
            let mut cursor = Some(idx);
            while let Some(ci) = cursor {
                dispatch.extend_from_slice(&own[own_start[ci]..own_start[ci + 1]]);
                cursor = classes[ci].parent.map(|p| p.0 as usize);
            }
            dispatch.sort_by_key(|&(sym, _)| sym);
            dispatch.dedup_by_key(|&mut (sym, _)| sym);
            classes[idx].has_init = lookup_sorted(&dispatch, init).is_some();
            classes[idx].dispatch = dispatch;
        }

        // Configs, sorted by key for deterministic dense ids.
        let mut config_keys: Vec<(&String, &Literal)> = symbols.configs().collect();
        config_keys.sort_unstable_by_key(|&(k, _)| k);
        let configs: Vec<ConfigDef> = config_keys
            .into_iter()
            .map(|(key, default)| ConfigDef {
                key: key.clone(),
                sym: b.interner.intern(key),
                default: default.clone(),
            })
            .collect();

        let wk = WellKnown {
            entry,
            init,
            npe: b.exc_ids["NullPointerException"],
            arithmetic: b.exc_ids["ArithmeticException"],
            assertion: b.exc_ids["AssertionError"],
        };

        let mut class_by_sym: Vec<(Symbol, ClassId)> = classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name, ClassId(i as u32)))
            .collect();
        class_by_sym.sort_unstable_by_key(|&(sym, _)| sym);
        let mut exc_by_sym: Vec<(Symbol, ExcId)> = exceptions
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name, ExcId(i as u32)))
            .collect();
        exc_by_sym.sort_unstable_by_key(|&(sym, _)| sym);
        let mut config_by_sym: Vec<(Symbol, u32)> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.sym, i as u32))
            .collect();
        config_by_sym.sort_unstable_by_key(|&(sym, _)| sym);

        ProgramIndex {
            interner: b.interner,
            classes,
            methods,
            exceptions,
            configs,
            class_by_sym,
            exc_by_sym,
            config_by_sym,
            exc_matrix,
            class_spans,
            class_order,
            wk,
            stmts: b.stmts,
            exprs: b.exprs,
            stmt_lists: b.stmt_lists,
            expr_lists: b.expr_lists,
            cases: b.cases,
            catches: b.catches,
            text: b.text,
        }
    }
}

/// Builds the `n × n` transitive-ancestry matrix for a parent function.
fn ancestry_matrix(n: usize, parent: impl Fn(usize) -> Option<usize>) -> Vec<bool> {
    let mut matrix = vec![false; n * n];
    for sub in 0..n {
        let mut cursor = Some(sub);
        while let Some(cur) = cursor {
            matrix[sub * n + cur] = true;
            cursor = parent(cur);
        }
    }
    matrix
}

/// Pre-order intervals of the class forest (acyclic: validation rejects
/// `extends` cycles), from one depth-first walk that visits roots and
/// children in ascending id. Returns `spans`, where the subtree of class
/// `c` holds the pre-order positions `spans[c].0..spans[c].1`, and the
/// classes in pre-order.
fn preorder(parents: &[Option<ClassId>]) -> (Vec<(u32, u32)>, Vec<ClassId>) {
    let n = parents.len();
    // Children in ascending id: `children[first[c]..first[c + 1]]`.
    let mut first = vec![0usize; n + 1];
    for parent in parents.iter().flatten() {
        first[parent.0 as usize + 1] += 1;
    }
    for c in 0..n {
        first[c + 1] += first[c];
    }
    let mut fill = first.clone();
    let mut children = vec![ClassId(0); first[n]];
    for (c, parent) in parents.iter().enumerate() {
        if let Some(parent) = parent {
            children[fill[parent.0 as usize]] = ClassId(c as u32);
            fill[parent.0 as usize] += 1;
        }
    }
    let mut spans = vec![(0u32, 0u32); n];
    let mut order = Vec::with_capacity(n);
    // `(class, its next child's position in children)`.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in (0..n).filter(|&c| parents[c].is_none()) {
        spans[root].0 = order.len() as u32;
        order.push(ClassId(root as u32));
        stack.push((root, first[root]));
        while let Some((class, next)) = stack.last_mut() {
            if *next < first[*class + 1] {
                let child = children[*next].0 as usize;
                *next += 1;
                spans[child].0 = order.len() as u32;
                order.push(ClassId(child as u32));
                stack.push((child, first[child]));
            } else {
                spans[*class].1 = order.len() as u32;
                stack.pop();
            }
        }
    }
    debug_assert_eq!(order.len(), n, "every class descends from a root");
    (spans, order)
}

fn compile_method<'a>(
    b: &mut Builder<'a>,
    file: FileId,
    ast: &'a SourceFile,
    owner: ClassId,
    method: &MethodDecl,
) -> CompiledMethod {
    let mut throws: Vec<ExcId> = ast[method.throws]
        .iter()
        .filter_map(|&t| b.exc_ids.get(&ast[t]).copied())
        .collect();
    throws.sort_unstable();
    throws.dedup();
    let mut lower = Lowerer::new(b, file, ast);
    for &param in &ast[method.params] {
        lower.slot_for(param);
    }
    // Pass 1: collect every name that can become a local anywhere in the
    // body (var declarations, bare-assignment targets, catch bindings).
    // Reads resolve against the full set so a read that dynamically
    // precedes the write still falls through to the `this`-field lookup at
    // run time, exactly like the HashMap environment did.
    lower.collect_locals(&method.body);
    let body = lower.block(&method.body);
    let name = lower.b.sym(file, method.name);
    let n_slots = lower.n_slots;
    // Clear the scope for the next method.
    for name in b.touched.drain(..) {
        b.scope[name.0 as usize] = UNMAPPED;
    }
    CompiledMethod {
        name,
        params: method.params.len() as u32,
        n_slots,
        body,
        is_test: method.is_test,
        owner,
        file,
        throws,
    }
}

struct Lowerer<'b, 'a> {
    b: &'b mut Builder<'a>,
    file: FileId,
    ast: &'a SourceFile,
    n_slots: u32,
}

impl<'b, 'a> Lowerer<'b, 'a> {
    fn new(b: &'b mut Builder<'a>, file: FileId, ast: &'a SourceFile) -> Self {
        Lowerer {
            b,
            file,
            ast,
            n_slots: 0,
        }
    }

    fn sym(&mut self, name: Name) -> Symbol {
        self.b.sym(self.file, name)
    }

    /// The local slot of `name`, if the method has one.
    fn local(&self, name: Name) -> Option<Slot> {
        match self.b.scope[name.0 as usize] {
            UNMAPPED => None,
            slot => Some(slot),
        }
    }

    /// The local slot of a name `collect_locals` gave one.
    fn slot(&self, name: Name) -> Slot {
        self.local(name).expect("locals are collected before lowering")
    }

    fn slot_for(&mut self, name: Name) {
        if self.local(name).is_none() {
            self.b.scope[name.0 as usize] = self.n_slots;
            self.b.touched.push(name);
            self.n_slots += 1;
        }
    }

    fn collect_locals(&mut self, block: &Block) {
        let ast = self.ast;
        for stmt in ast.stmts_in(block) {
            self.collect_stmt(stmt);
        }
    }

    fn collect_stmt(&mut self, stmt: &Stmt) {
        let ast = self.ast;
        match stmt {
            Stmt::Var { name, .. } => self.slot_for(*name),
            Stmt::Assign {
                target: LValue::Var(name, _),
                ..
            } => self.slot_for(*name),
            Stmt::Assign { .. } => {}
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                self.collect_locals(then_blk);
                if let Some(else_blk) = else_blk {
                    self.collect_locals(else_blk);
                }
            }
            Stmt::While { body, .. } => self.collect_locals(body),
            Stmt::For {
                init, update, body, ..
            } => {
                if let Some(init) = init {
                    self.collect_stmt(&ast[*init]);
                }
                if let Some(update) = update {
                    self.collect_stmt(&ast[*update]);
                }
                self.collect_locals(body);
            }
            Stmt::Switch { cases, default, .. } => {
                for case in &ast[*cases] {
                    self.collect_locals(&case.body);
                }
                if let Some(default) = default {
                    self.collect_locals(default);
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                self.collect_locals(body);
                for catch in &ast[*catches] {
                    self.slot_for(catch.binding);
                    self.collect_locals(&catch.body);
                }
                if let Some(finally) = finally {
                    self.collect_locals(finally);
                }
            }
            _ => {}
        }
    }

    /// A literal, its string text copied into the index's arena.
    fn lit(&mut self, lit: Lit) -> Lit {
        match lit {
            Lit::Str(name) => Lit::Str(self.b.text.push(&self.ast[name])),
            other => other,
        }
    }

    /// Lowers a block into a run of the statement-list vector. The run is
    /// reserved first and filled as each statement is lowered, so nested
    /// blocks take the runs after it.
    fn block(&mut self, block: &Block) -> LBlock {
        let ast = self.ast;
        let ids = &ast[block.stmts];
        let start = self.b.stmt_lists.len();
        self.b.stmt_lists.resize(start + ids.len(), LStmtId(UNMAPPED));
        for (i, &id) in ids.iter().enumerate() {
            let lowered = self.stmt(&ast[id]);
            self.b.stmt_lists[start + i] = lowered;
        }
        List::new(start, ids.len())
    }

    /// Lowers an argument list into a run of the expression-list vector.
    fn args(&mut self, args: List<crate::ast::ExprId>) -> List<LExprId> {
        let ast = self.ast;
        let ids = &ast[args];
        let start = self.b.expr_lists.len();
        self.b.expr_lists.resize(start + ids.len(), LExprId(UNMAPPED));
        for (i, &id) in ids.iter().enumerate() {
            let lowered = self.expr(id);
            self.b.expr_lists[start + i] = lowered;
        }
        List::new(start, ids.len())
    }

    fn stmt(&mut self, stmt: &Stmt) -> LStmtId {
        let ast = self.ast;
        let lowered = match *stmt {
            Stmt::Var { name, init, .. } => LStmt::Var {
                slot: self.slot(name),
                init: self.expr(init),
            },
            Stmt::Assign { target, value, .. } => {
                let value = self.expr(value);
                match target {
                    LValue::Var(name, _) => LStmt::AssignLocal {
                        slot: self.slot(name),
                        name: self.sym(name),
                        value,
                    },
                    LValue::Field { recv, name, .. } => LStmt::AssignField {
                        recv: self.expr(recv),
                        name: self.sym(name),
                        value,
                    },
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => LStmt::If {
                cond: self.expr(cond),
                then_blk: self.block(&then_blk),
                else_blk: else_blk.map(|blk| self.block(&blk)),
            },
            Stmt::While { cond, body, .. } => LStmt::While {
                cond: self.expr(cond),
                body: self.block(&body),
            },
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => LStmt::For {
                init: init.map(|s| self.stmt(&ast[s])),
                cond: cond.map(|e| self.expr(e)),
                update: update.map(|s| self.stmt(&ast[s])),
                body: self.block(&body),
            },
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => {
                let scrutinee = self.expr(scrutinee);
                let arms = &ast[cases];
                let start = self.b.cases.len();
                let unfilled = LCase {
                    lit: Lit::Null,
                    body: List::new(0, 0),
                };
                self.b.cases.resize(start + arms.len(), unfilled);
                for (i, case) in arms.iter().enumerate() {
                    let lit = self.lit(case.lit);
                    let body = self.block(&case.body);
                    self.b.cases[start + i] = LCase { lit, body };
                }
                LStmt::Switch {
                    scrutinee,
                    cases: List::new(start, arms.len()),
                    default: default.map(|blk| self.block(&blk)),
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                let body = self.block(&body);
                let clauses = &ast[catches];
                let start = self.b.catches.len();
                let unfilled = LCatch {
                    exc: ExcId(UNMAPPED),
                    binding: UNMAPPED,
                    body: List::new(0, 0),
                };
                self.b.catches.resize(start + clauses.len(), unfilled);
                for (i, catch) in clauses.iter().enumerate() {
                    let lowered = LCatch {
                        exc: (self.b.exc_ids.get(&ast[catch.exc_type]).copied())
                            .unwrap_or(ExcId(UNMAPPED)),
                        binding: self.slot(catch.binding),
                        body: self.block(&catch.body),
                    };
                    self.b.catches[start + i] = lowered;
                }
                LStmt::Try {
                    body,
                    catches: List::new(start, clauses.len()),
                    finally: finally.map(|blk| self.block(&blk)),
                }
            }
            Stmt::Throw { expr, .. } => LStmt::Throw {
                expr: self.expr(expr),
            },
            Stmt::Return { expr, .. } => LStmt::Return {
                expr: expr.map(|e| self.expr(e)),
            },
            Stmt::Break { .. } => LStmt::Break,
            Stmt::Continue { .. } => LStmt::Continue,
            Stmt::Sleep { ms, .. } => LStmt::Sleep { ms: self.expr(ms) },
            Stmt::Log { expr, .. } => LStmt::Log {
                expr: self.expr(expr),
            },
            Stmt::Assert { cond, msg, .. } => LStmt::Assert {
                cond: self.expr(cond),
                msg: msg.map(|e| self.expr(e)),
            },
            Stmt::Expr { expr, .. } => LStmt::Expr {
                expr: self.expr(expr),
            },
        };
        let id = LStmtId(self.b.stmts.len() as u32);
        self.b.stmts.push(lowered);
        id
    }

    fn expr(&mut self, expr: crate::ast::ExprId) -> LExprId {
        let ast = self.ast;
        let lowered = match ast[expr] {
            Expr::Literal(lit, _) => LExpr::Literal(self.lit(lit)),
            Expr::Ident(name, _) => match self.local(name) {
                Some(slot) => LExpr::Local {
                    slot,
                    name: self.sym(name),
                },
                None => LExpr::ImplicitField {
                    name: self.sym(name),
                },
            },
            Expr::This(_) => LExpr::This,
            Expr::Field { recv, name, .. } => LExpr::Field {
                recv: self.expr(recv),
                name: self.sym(name),
            },
            Expr::Call {
                id,
                recv,
                method,
                args,
                ..
            } => {
                let args = self.args(args);
                if recv.is_none() && is_global_builtin(&ast[method]) {
                    LExpr::GlobalCall {
                        name: self.sym(method),
                        args,
                    }
                } else {
                    LExpr::Call {
                        site: CallSite {
                            file: self.file,
                            call: id,
                        },
                        recv: recv.map(|r| self.expr(r)),
                        method: self.sym(method),
                        args,
                    }
                }
            }
            Expr::New { class, args, .. } => {
                let args = self.args(args);
                let class = &ast[class];
                // Exception types take precedence over classes, matching the
                // tree walker's `symbols.exception(..)`-first resolution.
                if let Some(&exc) = self.b.exc_ids.get(class) {
                    LExpr::NewExc { exc, args }
                } else if let Some(&class) = self.b.class_ids.get(class) {
                    LExpr::NewObj { class, args }
                } else {
                    LExpr::NewUnknown {
                        class: self.b.text.push(class),
                        args,
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => LExpr::Binary {
                op,
                lhs: self.expr(lhs),
                rhs: self.expr(rhs),
            },
            Expr::Unary { op, expr, .. } => LExpr::Unary {
                op,
                expr: self.expr(expr),
            },
            Expr::InstanceOf { expr, ty, .. } => LExpr::InstanceOf {
                expr: self.expr(expr),
                ty: self.sym(ty),
                exc: self.b.exc_ids.get(&ast[ty]).copied(),
                class: self.b.class_ids.get(&ast[ty]).copied(),
            },
        };
        let id = LExprId(self.b.exprs.len() as u32);
        self.b.exprs.push(lowered);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::Project;

    fn compile(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    #[test]
    fn dispatch_flattens_the_inheritance_walk() {
        let p = compile(
            "class Base { method greet() { return 1; } method shared() { return 2; } }\n\
             class Derived extends Base { method shared() { return 3; } }",
        );
        let index = p.index();
        let base = index.class_by_name("Base").expect("Base");
        let derived = index.class_by_name("Derived").expect("Derived");
        let greet = index.interner.lookup("greet").expect("greet interned");
        let shared = index.interner.lookup("shared").expect("shared interned");
        // Derived inherits greet from Base and overrides shared.
        let inherited = index.resolve_dispatch(derived, greet).expect("inherited");
        assert_eq!(inherited, index.resolve_dispatch(base, greet).unwrap());
        let overridden = index.resolve_dispatch(derived, shared).expect("own");
        assert_ne!(overridden, index.resolve_dispatch(base, shared).unwrap());
        assert!(index.resolve_dispatch(base, index.interner.lookup("missing").unwrap_or(Symbol(u32::MAX - 1))).is_none());
    }

    #[test]
    fn field_layouts_flatten_the_chain_base_first() {
        let p = compile(
            "class Base { field a = 1; field b = 2; }\n\
             class Derived extends Base { field c = 3; field b = 4; }",
        );
        let index = p.index();
        let derived = index.class_by_name("Derived").expect("Derived");
        let layout = &index.classes[derived.0 as usize].layout;
        assert_eq!(layout.len(), 3, "shadowed field shares its slot");
        let slot = |name: &str| layout.slot(index.interner.lookup(name).unwrap()).unwrap();
        assert_eq!(slot("a"), 0);
        assert_eq!(slot("b"), 1);
        assert_eq!(slot("c"), 2);
        // Both initializers for `b` write the same slot, chain order.
        let def = &index.classes[derived.0 as usize];
        let b_inits: Vec<u32> = def
            .inits
            .iter()
            .map(|i| i.slot)
            .filter(|&s| s == 1)
            .collect();
        assert_eq!(b_inits.len(), 2);
    }

    #[test]
    fn exception_matrix_matches_symbol_table() {
        let p = compile(
            "exception IOException;\n\
             exception ConnectException extends IOException;\n\
             class A { }",
        );
        let index = p.index();
        for sub in index.exceptions.iter() {
            for sup in index.exceptions.iter() {
                let sub_id = index.exc_by_name(&sub.name_str).unwrap();
                let sup_id = index.exc_by_name(&sup.name_str).unwrap();
                assert_eq!(
                    index.is_exc_subtype(sub_id, sup_id),
                    p.symbols.is_exception_subtype(&sub.name_str, &sup.name_str),
                    "{} <: {}",
                    sub.name_str,
                    sup.name_str
                );
            }
        }
    }

    #[test]
    fn locals_get_dense_slots_and_unscoped_reads_fall_through() {
        let p = compile(
            "class C {\n\
               field f = 7;\n\
               method m(a, b) { var x = a; x = x + b; return f; }\n\
             }",
        );
        let index = p.index();
        let c = index.class_by_name("C").unwrap();
        let m = index
            .resolve_dispatch(c, index.interner.lookup("m").unwrap())
            .unwrap();
        let method = &index.methods[m as usize];
        assert_eq!(method.params, 2);
        assert_eq!(method.n_slots, 3, "a, b, x");
        // `return f;` must lower to the implicit-field fallback, not a slot.
        let ret = index[index[method.body][2]];
        let LStmt::Return { expr: Some(expr) } = ret else {
            panic!("expected a return, got {ret:?}");
        };
        assert!(
            matches!(index[expr], LExpr::ImplicitField { .. }),
            "expected implicit-field read, got {:?}",
            index[expr]
        );
    }

    #[test]
    fn config_keys_get_dense_sorted_ids() {
        let p = compile(
            "config \"b.key\" default 2;\nconfig \"a.key\" default 1;\nclass A { }",
        );
        let index = p.index();
        assert_eq!(index.configs.len(), 2);
        assert_eq!(index.configs[0].key, "a.key");
        assert_eq!(index.config_by_name("a.key"), Some(0));
        assert_eq!(index.config_by_name("b.key"), Some(1));
        assert_eq!(index.config_by_name("missing"), None);
    }
}
