//! The Javelin abstract syntax tree, stored flat per file.
//!
//! A parsed file is an [`Ast`]: a handful of vectors rather than a tree of
//! boxes. Statements and expressions live in per-file vectors and refer to
//! one another by `u32` ids ([`StmtId`], [`ExprId`]); the children of a
//! block, the arguments of a call, a method's parameters and `throws`
//! clause, a `try`'s catches and a `switch`'s cases are runs ([`List`]) in
//! per-file list vectors. Identifiers and string-literal contents are
//! interned when the file is lexed into its name table ([`Names`]); nodes
//! carry them as `Copy` [`Name`] ids, and within one file two names are
//! equal exactly when their text is. Every node is `Copy`, no node owns a
//! `Box` or `Vec`, and a file frees in as many deallocations as it has
//! vectors.
//!
//! The parser appends a node only once it is part of the tree, so every
//! statement and expression is reachable exactly once from the file's
//! items, and ids are assigned bottom-up (children before parents).
//!
//! Every call site carries a [`CallId`] and every loop (and switch) a
//! [`LoopId`]; both are unique within a file and stable for a given source
//! text, so the analysis, planner, and injection crates can name *retry
//! locations* — a (coordinator method, retried method, trigger exception)
//! triple anchored at a call site — across workflow stages.

use crate::span::Span;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

/// Identifier of a call or `new` expression, unique within one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u32);

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of a loop or switch statement, unique within one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An identifier or string-literal text, interned in its file's [`Names`].
/// Dense, starting at 0, in order of first appearance in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(pub u32);

/// A statement of one file: an index into its statement vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// An expression of one file: an index into its expression vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// A run of consecutive entries in one of a file's list vectors: the
/// statements of a block, the arguments of a call, a method's parameters,
/// and so on. Index the file's [`Ast`] with it to get the slice.
pub struct List<T> {
    start: u32,
    len: u32,
    marker: PhantomData<fn() -> T>,
}

impl<T> List<T> {
    pub(crate) fn new(start: usize, len: usize) -> Self {
        List {
            start: start as u32,
            len: len as u32,
            marker: PhantomData,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The half-open index range of the run in its list vector.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

impl<T> Clone for List<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<T> {}

impl<T> PartialEq for List<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.len) == (other.start, other.len)
    }
}

impl<T> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}; {}]", self.start, self.len)
    }
}

/// A file's name table: the text of every [`Name`], back to back.
#[derive(Debug, Clone, Default)]
pub struct Names {
    text: String,
    /// `ends[i]` is the end offset of name `i` in `text`.
    ends: Vec<u32>,
}

impl Names {
    /// The text of `name`.
    ///
    /// Panics if `name` is not from this table.
    pub fn get(&self, name: Name) -> &str {
        let i = name.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Empties the table and keeps its buffers.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// Appends `text` as a new name (the caller has checked it is new).
    pub(crate) fn push(&mut self, text: &str) -> Name {
        let name = Name(self.ends.len() as u32);
        self.text.push_str(text);
        self.ends.push(self.text.len() as u32);
        name
    }
}

/// A parsed file: its items plus the vectors every node lives in.
#[derive(Debug, Clone, Default)]
pub struct Ast {
    pub(crate) items: Vec<Item>,
    pub(crate) fields: Vec<FieldDecl>,
    pub(crate) methods: Vec<MethodDecl>,
    pub(crate) stmts: Vec<Stmt>,
    pub(crate) exprs: Vec<Expr>,
    pub(crate) stmt_lists: Vec<StmtId>,
    pub(crate) expr_lists: Vec<ExprId>,
    pub(crate) name_lists: Vec<Name>,
    pub(crate) catches: Vec<CatchClause>,
    pub(crate) cases: Vec<Case>,
    pub(crate) names: Names,
}

impl Ast {
    /// Empties every vector and keeps its allocation, for the next file
    /// a [`ParseScratch`](crate::parser::ParseScratch) parses.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.fields.clear();
        self.methods.clear();
        self.stmts.clear();
        self.exprs.clear();
        self.stmt_lists.clear();
        self.expr_lists.clear();
        self.name_lists.clear();
        self.catches.clear();
        self.cases.clear();
        self.names.clear();
    }

    /// Top-level items in source order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The classes among the items, in source order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDecl> + '_ {
        self.items.iter().filter_map(|item| match item {
            Item::Class(class) => Some(class),
            _ => None,
        })
    }

    /// The file's name table.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Number of statements in the file.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Number of expressions in the file.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// The statements of `block`, in order.
    pub fn stmts_in(&self, block: &Block) -> impl ExactSizeIterator<Item = &Stmt> + '_ {
        self[block.stmts].iter().map(|&id| &self[id])
    }

    /// The owned form of a literal, as the symbol table and lowered IR keep
    /// it.
    pub fn literal(&self, lit: Lit) -> Literal {
        match lit {
            Lit::Int(v) => Literal::Int(v),
            Lit::Str(s) => Literal::Str(self[s].to_string()),
            Lit::Bool(b) => Literal::Bool(b),
            Lit::Null => Literal::Null,
        }
    }

    /// Visits every statement of a block in pre-order, including nested
    /// blocks. The callback returns `true` to descend into the statement's
    /// sub-blocks. `for` headers are not visited as statements.
    pub fn walk_stmts<'a>(&'a self, block: &Block, visit: &mut dyn FnMut(&'a Stmt) -> bool) {
        for &id in &self[block.stmts] {
            self.walk_stmt(&self[id], visit);
        }
    }

    /// [`Ast::walk_stmts`] from one statement: visits `stmt`, then (if the
    /// callback returns `true`) the statements of its sub-blocks.
    pub fn walk_stmt<'a>(&'a self, stmt: &'a Stmt, visit: &mut dyn FnMut(&'a Stmt) -> bool) {
        if !visit(stmt) {
            return;
        }
        match stmt {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                self.walk_stmts(then_blk, visit);
                if let Some(else_blk) = else_blk {
                    self.walk_stmts(else_blk, visit);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => self.walk_stmts(body, visit),
            Stmt::Switch { cases, default, .. } => {
                for case in &self[*cases] {
                    self.walk_stmts(&case.body, visit);
                }
                if let Some(default) = default {
                    self.walk_stmts(default, visit);
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                self.walk_stmts(body, visit);
                for catch in &self[*catches] {
                    self.walk_stmts(&catch.body, visit);
                }
                if let Some(finally) = finally {
                    self.walk_stmts(finally, visit);
                }
            }
            _ => {}
        }
    }

    /// Visits every expression in a block, in evaluation-ish pre-order.
    pub fn walk_exprs<'a>(&'a self, block: &Block, visit: &mut dyn FnMut(&'a Expr)) {
        self.walk_stmts(block, &mut |stmt| {
            self.stmt_exprs(stmt, visit);
            true
        });
    }

    /// Visits the expressions a statement holds directly (a `for` header's
    /// included, sub-blocks excluded), each with its sub-expressions.
    pub fn stmt_exprs<'a>(&'a self, stmt: &'a Stmt, visit: &mut dyn FnMut(&'a Expr)) {
        match stmt {
            Stmt::Var { init, .. } => self.walk_expr(*init, visit),
            Stmt::Assign { target, value, .. } => {
                if let LValue::Field { recv, .. } = target {
                    self.walk_expr(*recv, visit);
                }
                self.walk_expr(*value, visit);
            }
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => self.walk_expr(*cond, visit),
            Stmt::For {
                init, cond, update, ..
            } => {
                if let Some(init) = init {
                    self.header_exprs(&self[*init], visit);
                }
                if let Some(cond) = cond {
                    self.walk_expr(*cond, visit);
                }
                if let Some(update) = update {
                    self.header_exprs(&self[*update], visit);
                }
            }
            Stmt::Switch { scrutinee, .. } => self.walk_expr(*scrutinee, visit),
            Stmt::Throw { expr, .. }
            | Stmt::Return {
                expr: Some(expr), ..
            }
            | Stmt::Log { expr, .. }
            | Stmt::Expr { expr, .. } => self.walk_expr(*expr, visit),
            Stmt::Sleep { ms, .. } => self.walk_expr(*ms, visit),
            Stmt::Assert { cond, msg, .. } => {
                self.walk_expr(*cond, visit);
                if let Some(msg) = msg {
                    self.walk_expr(*msg, visit);
                }
            }
            _ => {}
        }
    }

    fn header_exprs<'a>(&'a self, stmt: &'a Stmt, visit: &mut dyn FnMut(&'a Expr)) {
        if matches!(
            stmt,
            Stmt::Var { .. } | Stmt::Assign { .. } | Stmt::Expr { .. }
        ) {
            self.stmt_exprs(stmt, visit);
        }
    }

    /// Visits `expr` and all sub-expressions in pre-order.
    pub fn walk_expr<'a>(&'a self, expr: ExprId, visit: &mut dyn FnMut(&'a Expr)) {
        let node = &self[expr];
        visit(node);
        match node {
            Expr::Field { recv, .. } => self.walk_expr(*recv, visit),
            Expr::Call { recv, args, .. } => {
                if let Some(recv) = recv {
                    self.walk_expr(*recv, visit);
                }
                for &arg in &self[*args] {
                    self.walk_expr(arg, visit);
                }
            }
            Expr::New { args, .. } => {
                for &arg in &self[*args] {
                    self.walk_expr(arg, visit);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.walk_expr(*lhs, visit);
                self.walk_expr(*rhs, visit);
            }
            Expr::Unary { expr, .. } | Expr::InstanceOf { expr, .. } => {
                self.walk_expr(*expr, visit)
            }
            Expr::Literal(..) | Expr::Ident(..) | Expr::This(..) => {}
        }
    }
}

impl Index<StmtId> for Ast {
    type Output = Stmt;
    fn index(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }
}

impl Index<ExprId> for Ast {
    type Output = Expr;
    fn index(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }
}

impl Index<Name> for Ast {
    type Output = str;
    fn index(&self, name: Name) -> &str {
        self.names.get(name)
    }
}

macro_rules! list_index {
    ($($elem:ty => $field:ident),* $(,)?) => {$(
        impl Index<List<$elem>> for Ast {
            type Output = [$elem];
            fn index(&self, list: List<$elem>) -> &[$elem] {
                &self.$field[list.range()]
            }
        }
    )*};
}

list_index! {
    StmtId => stmt_lists,
    ExprId => expr_lists,
    Name => name_lists,
    CatchClause => catches,
    Case => cases,
    FieldDecl => fields,
    MethodDecl => methods,
}

/// A top-level item in a source file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Item {
    /// `exception Name extends Parent;`
    ExceptionDecl(ExceptionDecl),
    /// `config "key" default <literal>;`
    ConfigDecl(ConfigDecl),
    /// A class declaration.
    Class(ClassDecl),
}

/// Declaration of an exception type and its parent in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExceptionDecl {
    /// Exception type name.
    pub name: Name,
    /// Parent exception type; defaults to `Exception` when omitted.
    pub parent: Option<Name>,
    /// Source span of the declaration.
    pub span: Span,
}

/// Declaration of an application configuration key with its default value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigDecl {
    /// Configuration key, e.g. `"dfs.mover.retry.max.attempts"`.
    pub key: Name,
    /// Default value.
    pub default: Lit,
    /// Source span of the declaration.
    pub span: Span,
}

/// A class with fields and methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: Name,
    /// Superclass, if any.
    pub parent: Option<Name>,
    /// Field declarations.
    pub fields: List<FieldDecl>,
    /// Method and test declarations.
    pub methods: List<MethodDecl>,
    /// Source span of the whole class.
    pub span: Span,
}

/// A field declaration with an optional initializer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: Name,
    /// Initializer expression; fields default to `null` when omitted.
    pub init: Option<ExprId>,
    /// Source span.
    pub span: Span,
}

/// A method or unit-test declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodDecl {
    /// Method name.
    pub name: Name,
    /// Parameter names.
    pub params: List<Name>,
    /// Declared thrown exception types (the `throws` clause).
    pub throws: List<Name>,
    /// Method body.
    pub body: Block,
    /// Whether this was declared with `test` instead of `method`.
    pub is_test: bool,
    /// Source span of the whole method.
    pub span: Span,
}

/// A `{ ... }` sequence of statements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: List<StmtId>,
    /// Source span including the braces.
    pub span: Span,
}

/// An assignment target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LValue {
    /// A local variable or parameter.
    Var(Name, Span),
    /// A field of an object: `recv.name`.
    Field {
        /// Receiver expression.
        recv: ExprId,
        /// Field name.
        name: Name,
        /// Source span.
        span: Span,
    },
}

impl LValue {
    /// Source span of the target.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, span) => *span,
            LValue::Field { span, .. } => *span,
        }
    }
}

/// A statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stmt {
    /// `var name = init;`
    Var {
        /// Variable name.
        name: Name,
        /// Initializer.
        init: ExprId,
        /// Source span.
        span: Span,
    },
    /// `target = value;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Value expression.
        value: ExprId,
        /// Source span.
        span: Span,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop id, unique within the file.
        id: LoopId,
        /// Condition.
        cond: ExprId,
        /// Body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `for (init; cond; update) { .. }` — each header part optional.
    For {
        /// Loop id, unique within the file.
        id: LoopId,
        /// Initializer (a `var` or assignment).
        init: Option<StmtId>,
        /// Condition; `true` when omitted.
        cond: Option<ExprId>,
        /// Update statement (an assignment).
        update: Option<StmtId>,
        /// Body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `switch (scrutinee) { case LIT: { .. } ... default: { .. } }`
    Switch {
        /// Switch id (shares the loop id space; state-machine structures).
        id: LoopId,
        /// Scrutinee expression.
        scrutinee: ExprId,
        /// `case` arms; no fallthrough.
        cases: List<Case>,
        /// Optional default arm.
        default: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// `try { .. } catch (T e) { .. } finally { .. }`
    Try {
        /// Protected body.
        body: Block,
        /// Catch clauses, tried in order.
        catches: List<CatchClause>,
        /// Optional finally block.
        finally: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// `throw expr;`
    Throw {
        /// Exception value.
        expr: ExprId,
        /// Source span.
        span: Span,
    },
    /// `return expr?;`
    Return {
        /// Optional return value.
        expr: Option<ExprId>,
        /// Source span.
        span: Span,
    },
    /// `break;`
    Break {
        /// Source span.
        span: Span,
    },
    /// `continue;`
    Continue {
        /// Source span.
        span: Span,
    },
    /// `sleep(ms);` — advances the virtual clock.
    Sleep {
        /// Milliseconds to sleep.
        ms: ExprId,
        /// Source span.
        span: Span,
    },
    /// `log(expr);` — appends to the trace log.
    Log {
        /// Logged value.
        expr: ExprId,
        /// Source span.
        span: Span,
    },
    /// `assert(cond, msg?);` — throws `AssertionError` when false.
    Assert {
        /// Asserted condition.
        cond: ExprId,
        /// Optional message.
        msg: Option<ExprId>,
        /// Source span.
        span: Span,
    },
    /// A bare expression statement (usually a call).
    Expr {
        /// The expression.
        expr: ExprId,
        /// Source span.
        span: Span,
    },
}

impl Stmt {
    /// Source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Var { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Switch { span, .. }
            | Stmt::Try { span, .. }
            | Stmt::Throw { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Break { span }
            | Stmt::Continue { span }
            | Stmt::Sleep { span, .. }
            | Stmt::Log { span, .. }
            | Stmt::Assert { span, .. }
            | Stmt::Expr { span, .. } => *span,
        }
    }
}

/// One `case LIT: { .. }` arm of a switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case {
    /// The matched literal.
    pub lit: Lit,
    /// Arm body.
    pub body: Block,
}

/// One `catch (Type name) { .. }` clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatchClause {
    /// Caught exception type; matches subtypes too.
    pub exc_type: Name,
    /// Name the exception value is bound to.
    pub binding: Name,
    /// Handler body.
    pub body: Block,
    /// Source span.
    pub span: Span,
}

/// A literal as the AST stores it: strings are [`Name`]s of the file.
/// [`Ast::literal`] gives the owned [`Literal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lit {
    /// Integer.
    Int(i64),
    /// String (its unescaped text).
    Str(Name),
    /// Boolean.
    Bool(bool),
    /// The null reference.
    Null,
}

/// A literal value with owned text, as the symbol table and the lowered IR
/// keep it.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// The null reference.
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Str(s) => Quoted(s).fmt(f),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Null => write!(f, "null"),
        }
    }
}

/// A string in Javelin source form: quoted, with only the escapes the
/// lexer reads (`\"`, `\\`, `\n`, `\t`) and every other character, control
/// and multi-byte ones included, copied as is, so the lexer reads it back
/// unchanged.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                c => fmt::Write::write_char(f, c)?,
            }
        }
        f.write_str("\"")
    }
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    /// Source text of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

impl UnOp {
    /// Source text of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            UnOp::Not => "!",
            UnOp::Neg => "-",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expr {
    /// A literal.
    Literal(Lit, Span),
    /// A variable or parameter reference.
    Ident(Name, Span),
    /// The `this` reference.
    This(Span),
    /// Field access: `recv.name`.
    Field {
        /// Receiver.
        recv: ExprId,
        /// Field name.
        name: Name,
        /// Source span.
        span: Span,
    },
    /// A method call. Without a receiver this is a builtin or a call on
    /// `this`; the interpreter resolves which.
    Call {
        /// Call id, unique within the file.
        id: CallId,
        /// Receiver, if syntactically present.
        recv: Option<ExprId>,
        /// Method name.
        method: Name,
        /// Arguments.
        args: List<ExprId>,
        /// Source span.
        span: Span,
    },
    /// `new Class(args)` or `new ExceptionType(msg, cause?)`.
    New {
        /// Call id, unique within the file (shares the call id space).
        id: CallId,
        /// Class or exception type name.
        class: Name,
        /// Constructor arguments.
        args: List<ExprId>,
        /// Source span.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
        /// Source span.
        span: Span,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: ExprId,
        /// Source span.
        span: Span,
    },
    /// `expr instanceof Type` (classes and exception types).
    InstanceOf {
        /// Tested expression.
        expr: ExprId,
        /// Type name.
        ty: Name,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// Source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Literal(_, span) | Expr::Ident(_, span) | Expr::This(span) => *span,
            Expr::Field { span, .. }
            | Expr::Call { span, .. }
            | Expr::New { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. }
            | Expr::InstanceOf { span, .. } => *span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(CallId(3).to_string(), "c3");
        assert_eq!(LoopId(7).to_string(), "L7");
    }

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Int(5).to_string(), "5");
        assert_eq!(Literal::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Literal::Bool(true).to_string(), "true");
        assert_eq!(Literal::Null.to_string(), "null");
    }

    #[test]
    fn names_resolve_back_to_back_text() {
        let mut names = Names::default();
        let a = names.push("retry");
        let empty = names.push("");
        let b = names.push("h\u{e9}llo");
        assert_eq!(
            (names.get(a), names.get(empty), names.get(b)),
            ("retry", "", "h\u{e9}llo")
        );
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn binop_symbols_roundtrip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
            BinOp::And,
            BinOp::Or,
        ] {
            assert!(!op.symbol().is_empty());
        }
    }
}
