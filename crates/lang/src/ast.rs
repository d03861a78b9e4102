//! The Javelin abstract syntax tree.
//!
//! Every call site carries a [`CallId`] and every loop (and switch) a
//! [`LoopId`]; both are unique within a file and stable for a given source
//! text, so the analysis, planner, and injection crates can name *retry
//! locations* — a (coordinator method, retried method, trigger exception)
//! triple anchored at a call site — across workflow stages.

use crate::span::Span;
use std::fmt;

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

/// A top-level item in a source file.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `exception Name extends Parent;`
    ExceptionDecl(ExceptionDecl),
    /// `config "key" default <literal>;`
    ConfigDecl(ConfigDecl),
    /// A class declaration.
    Class(ClassDecl),
}

/// Declaration of an exception type and its parent in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptionDecl {
    /// Exception type name.
    pub name: String,
    /// Parent exception type; defaults to `Exception` when omitted.
    pub parent: Option<String>,
    /// Source span of the declaration.
    pub span: Span,
}

/// Declaration of an application configuration key with its default value.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigDecl {
    /// Configuration key, e.g. `"dfs.mover.retry.max.attempts"`.
    pub key: String,
    /// Default value.
    pub default: Literal,
    /// Source span of the declaration.
    pub span: Span,
}

/// A class with fields and methods.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Superclass, if any.
    pub parent: Option<String>,
    /// Field declarations.
    pub fields: Vec<FieldDecl>,
    /// Method and test declarations.
    pub methods: Vec<MethodDecl>,
    /// Source span of the whole class.
    pub span: Span,
}

/// A field declaration with an optional initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Initializer expression; fields default to `null` when omitted.
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// A method or unit-test declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Method name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Declared thrown exception types (the `throws` clause).
    pub throws: Vec<String>,
    /// Method body.
    pub body: Block,
    /// Whether this was declared with `test` instead of `method`.
    pub is_test: bool,
    /// Source span of the whole method.
    pub span: Span,
}

/// A `{ ... }` sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span including the braces.
    pub span: Span,
}

impl Block {
    /// An empty block with a dummy span, for synthesized code.
    pub fn empty() -> Self {
        Block {
            stmts: Vec::new(),
            span: Span::dummy(),
        }
    }
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A local variable or parameter.
    Var(String, Span),
    /// A field of an object: `recv.name`.
    Field {
        /// Receiver expression.
        recv: Expr,
        /// Field name.
        name: String,
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
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var name = init;`
    Var {
        /// Variable name.
        name: String,
        /// Initializer.
        init: Expr,
        /// Source span.
        span: Span,
    },
    /// `target = value;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Value expression.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: Expr,
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
        cond: Expr,
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
        init: Option<Box<Stmt>>,
        /// Condition; `true` when omitted.
        cond: Option<Expr>,
        /// Update statement (an assignment).
        update: Option<Box<Stmt>>,
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
        scrutinee: Expr,
        /// `(literal, body)` arms; no fallthrough.
        cases: Vec<(Literal, Block)>,
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
        catches: Vec<CatchClause>,
        /// Optional finally block.
        finally: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// `throw expr;`
    Throw {
        /// Exception value.
        expr: Expr,
        /// Source span.
        span: Span,
    },
    /// `return expr?;`
    Return {
        /// Optional return value.
        expr: Option<Expr>,
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
        ms: Expr,
        /// Source span.
        span: Span,
    },
    /// `log(expr);` — appends to the trace log.
    Log {
        /// Logged value.
        expr: Expr,
        /// Source span.
        span: Span,
    },
    /// `assert(cond, msg?);` — throws `AssertionError` when false.
    Assert {
        /// Asserted condition.
        cond: Expr,
        /// Optional message.
        msg: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// A bare expression statement (usually a call).
    Expr {
        /// The expression.
        expr: Expr,
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

/// One `catch (Type name) { .. }` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// Caught exception type; matches subtypes too.
    pub exc_type: String,
    /// Name the exception value is bound to.
    pub binding: String,
    /// Handler body.
    pub body: Block,
    /// Source span.
    pub span: Span,
}

/// A literal value.
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
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Literal(Literal, Span),
    /// A variable or parameter reference.
    Ident(String, Span),
    /// The `this` reference.
    This(Span),
    /// Field access: `recv.name`.
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name.
        name: String,
        /// Source span.
        span: Span,
    },
    /// A method call. Without a receiver this is a builtin or a call on
    /// `this`; the interpreter resolves which.
    Call {
        /// Call id, unique within the file.
        id: CallId,
        /// Receiver, if syntactically present.
        recv: Option<Box<Expr>>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// `new Class(args)` or `new ExceptionType(msg, cause?)`.
    New {
        /// Call id, unique within the file (shares the call id space).
        id: CallId,
        /// Class or exception type name.
        class: String,
        /// Constructor arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `expr instanceof Type` (classes and exception types).
    InstanceOf {
        /// Tested expression.
        expr: Box<Expr>,
        /// Type name.
        ty: String,
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

/// Visits every statement of a block in pre-order, including nested blocks.
///
/// The callback returns `true` to descend into the statement's sub-blocks.
pub fn walk_stmts<'a>(block: &'a Block, visit: &mut dyn FnMut(&'a Stmt) -> bool) {
    for stmt in &block.stmts {
        if !visit(stmt) {
            continue;
        }
        match stmt {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                walk_stmts(then_blk, visit);
                if let Some(else_blk) = else_blk {
                    walk_stmts(else_blk, visit);
                }
            }
            Stmt::While { body, .. } => walk_stmts(body, visit),
            Stmt::For { body, .. } => walk_stmts(body, visit),
            Stmt::Switch { cases, default, .. } => {
                for (_, case_blk) in cases {
                    walk_stmts(case_blk, visit);
                }
                if let Some(default) = default {
                    walk_stmts(default, visit);
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                walk_stmts(body, visit);
                for catch in catches {
                    walk_stmts(&catch.body, visit);
                }
                if let Some(finally) = finally {
                    walk_stmts(finally, visit);
                }
            }
            _ => {}
        }
    }
}

/// Visits every expression in a block, in evaluation-ish pre-order.
pub fn walk_exprs<'a>(block: &'a Block, visit: &mut dyn FnMut(&'a Expr)) {
    walk_stmts(block, &mut |stmt| {
        match stmt {
            Stmt::Var { init, .. } => walk_expr(init, visit),
            Stmt::Assign { target, value, .. } => {
                if let LValue::Field { recv, .. } = target {
                    walk_expr(recv, visit);
                }
                walk_expr(value, visit);
            }
            Stmt::If { cond, .. } => walk_expr(cond, visit),
            Stmt::While { cond, .. } => walk_expr(cond, visit),
            Stmt::For {
                init, cond, update, ..
            } => {
                if let Some(init) = init {
                    walk_stmt_exprs(init, visit);
                }
                if let Some(cond) = cond {
                    walk_expr(cond, visit);
                }
                if let Some(update) = update {
                    walk_stmt_exprs(update, visit);
                }
            }
            Stmt::Switch { scrutinee, .. } => walk_expr(scrutinee, visit),
            Stmt::Throw { expr, .. } => walk_expr(expr, visit),
            Stmt::Return { expr: Some(expr), .. } => walk_expr(expr, visit),
            Stmt::Sleep { ms, .. } => walk_expr(ms, visit),
            Stmt::Log { expr, .. } => walk_expr(expr, visit),
            Stmt::Assert { cond, msg, .. } => {
                walk_expr(cond, visit);
                if let Some(msg) = msg {
                    walk_expr(msg, visit);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, visit),
            _ => {}
        }
        true
    });
}

fn walk_stmt_exprs<'a>(stmt: &'a Stmt, visit: &mut dyn FnMut(&'a Expr)) {
    match stmt {
        Stmt::Var { init, .. } => walk_expr(init, visit),
        Stmt::Assign { target, value, .. } => {
            if let LValue::Field { recv, .. } = target {
                walk_expr(recv, visit);
            }
            walk_expr(value, visit);
        }
        Stmt::Expr { expr, .. } => walk_expr(expr, visit),
        _ => {}
    }
}

/// Visits `expr` and all sub-expressions in pre-order.
pub fn walk_expr<'a>(expr: &'a Expr, visit: &mut dyn FnMut(&'a Expr)) {
    visit(expr);
    match expr {
        Expr::Field { recv, .. } => walk_expr(recv, visit),
        Expr::Call { recv, args, .. } => {
            if let Some(recv) = recv {
                walk_expr(recv, visit);
            }
            for arg in args {
                walk_expr(arg, visit);
            }
        }
        Expr::New { args, .. } => {
            for arg in args {
                walk_expr(arg, visit);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, visit);
            walk_expr(rhs, visit);
        }
        Expr::Unary { expr, .. } => walk_expr(expr, visit),
        Expr::InstanceOf { expr, .. } => walk_expr(expr, visit),
        Expr::Literal(..) | Expr::Ident(..) | Expr::This(..) => {}
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
