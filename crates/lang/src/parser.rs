//! Recursive-descent parser for Javelin.
//!
//! The parser pulls tokens from the streaming [`Lexer`] into a two-token
//! window (`cur`, `next`) plus the previous token's span, and appends each
//! node to the file's [`Ast`] vectors once it is complete: children before
//! parents, so the last expression pushed is always the root of the one
//! just parsed. The children of a block, call, `try` or `switch` collect
//! on a scratch stack and move into the list vectors as one run when the
//! construct closes, so nested constructs never interleave their runs.
//!
//! A lexer error anywhere in the file is reported ahead of any parse
//! error, exactly as if the file had been lexed completely first: after a
//! parse error the rest of the stream is drained for one.
//!
//! **Nesting bound.** Every later pass (printer, validation, lowering, the
//! analyses, the VM) recurses over the tree, so its depth is bounded by
//! [`MAX_DEPTH`]: each statement, each expression node and each pair of
//! parentheses is one level, a left-deep `a + b + c` chain or `a.b.c`
//! receiver chain included. The parser tracks the depth of the position it
//! is parsing (bounding its own recursion) and the height of every node it
//! builds (catching chains, which it builds in loops); a deeper file gets
//! a parse diagnostic instead of overflowing a thread stack.

use crate::ast::*;
use crate::error::Diagnostic;
use crate::intern::NameSet;
use crate::lexer::Lexer;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// The deepest nesting of statements, expressions and parentheses a file
/// may have. Chosen so every recursive pass fits a 2 MiB thread stack with
/// room to spare; no corpus file comes near it.
pub const MAX_DEPTH: u32 = 256;

/// Parses a whole source file into its [`Ast`].
///
/// Call ids and loop ids are assigned in source order, so they are stable for
/// a given source text.
pub fn parse_file(source: &str) -> Result<Ast, Diagnostic> {
    parse_file_in(&mut ParseScratch::default(), source)
}

/// [`parse_file`] through `scratch`: the file's nodes and names collect in
/// the scratch's buffers, which keep what earlier files grew them to, and
/// are copied out into an [`Ast`] whose vectors have their exact lengths.
/// The scratch is cleared before the file, so the result is the same
/// whatever it parsed before, a file that failed included.
pub fn parse_file_in(scratch: &mut ParseScratch, source: &str) -> Result<Ast, Diagnostic> {
    scratch.clear();
    let mut parser = Parser::new(source, std::mem::take(scratch));
    let parsed = parser.file();
    if parsed.is_err() {
        while parser.next.kind != TokenKind::Eof {
            parser.next = parser.pull();
        }
    }
    let lex_error = parser.lex_error.take();
    *scratch = parser.into_scratch();
    if let Some(err) = lex_error {
        return Err(err);
    }
    parsed?;
    // A clone allocates each vector at its length.
    let mut ast = scratch.ast.clone();
    ast.names = scratch.names.names().clone();
    Ok(ast)
}

/// The buffers one parse grows: the node and list vectors, the parser's
/// list and height stacks, and the lexer's name set. A worker that parses
/// many files keeps one and passes it to every [`parse_file_in`], so the
/// buffers grow to the largest file once instead of from empty per file.
#[derive(Debug, Default)]
pub struct ParseScratch {
    ast: Ast,
    stmt_stack: Vec<StmtId>,
    expr_stack: Vec<ExprId>,
    catch_stack: Vec<CatchClause>,
    case_stack: Vec<Case>,
    stmt_height: Vec<u16>,
    expr_height: Vec<u16>,
    names: NameSet,
}

impl ParseScratch {
    /// Empties every buffer and keeps its allocation.
    fn clear(&mut self) {
        self.ast.clear();
        self.stmt_stack.clear();
        self.expr_stack.clear();
        self.catch_stack.clear();
        self.case_stack.clear();
        self.stmt_height.clear();
        self.expr_height.clear();
        self.names.clear();
    }
}

/// The three builtins that parse as statements.
#[derive(Clone, Copy)]
enum Builtin {
    Sleep,
    Log,
    Assert,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    end: u32,
    cur: Token,
    next: Token,
    /// Span of the token `bump` returned last.
    prev: Span,
    /// The lexer's first error; the stream reads as ended after it.
    lex_error: Option<Diagnostic>,
    ast: Ast,
    stmt_stack: Vec<StmtId>,
    expr_stack: Vec<ExprId>,
    catch_stack: Vec<CatchClause>,
    case_stack: Vec<Case>,
    /// Height of every statement and expression built so far.
    stmt_height: Vec<u16>,
    expr_height: Vec<u16>,
    /// Depth of the position being parsed.
    depth: u32,
    next_call_id: u32,
    next_loop_id: u32,
}

impl<'a> Parser<'a> {
    /// A parser over `source` whose buffers are `scratch`'s, emptied.
    fn new(source: &'a str, scratch: ParseScratch) -> Self {
        let end = source.len() as u32;
        let eof = Token {
            kind: TokenKind::Eof,
            span: Span::new(end, end),
        };
        let mut parser = Parser {
            lexer: Lexer::with_names(source, scratch.names),
            end,
            cur: eof,
            next: eof,
            prev: Span::dummy(),
            lex_error: None,
            ast: scratch.ast,
            stmt_stack: scratch.stmt_stack,
            expr_stack: scratch.expr_stack,
            catch_stack: scratch.catch_stack,
            case_stack: scratch.case_stack,
            stmt_height: scratch.stmt_height,
            expr_height: scratch.expr_height,
            depth: 0,
            next_call_id: 0,
            next_loop_id: 0,
        };
        parser.cur = parser.pull();
        parser.next = parser.pull();
        parser
    }

    /// Ends the parse and hands its buffers back.
    fn into_scratch(self) -> ParseScratch {
        ParseScratch {
            ast: self.ast,
            stmt_stack: self.stmt_stack,
            expr_stack: self.expr_stack,
            catch_stack: self.catch_stack,
            case_stack: self.case_stack,
            stmt_height: self.stmt_height,
            expr_height: self.expr_height,
            names: self.lexer.into_name_set(),
        }
    }

    /// The next token from the lexer, or `Eof` once it has failed.
    fn pull(&mut self) -> Token {
        if self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(tok) => return tok,
                Err(err) => self.lex_error = Some(err),
            }
        }
        Token {
            kind: TokenKind::Eof,
            span: Span::new(self.end, self.end),
        }
    }

    /// Takes the current token and advances past it. The final `Eof` is
    /// never passed.
    fn bump(&mut self) -> Token {
        let tok = self.cur;
        if tok.kind != TokenKind::Eof {
            self.prev = tok.span;
            self.cur = self.next;
            self.next = self.pull();
        }
        tok
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.cur.kind == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn describe(&self, kind: TokenKind) -> String {
        kind.describe(self.lexer.names())
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diagnostic> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.error_here(format!(
                "expected {}, found {}",
                self.describe(kind),
                self.describe(self.cur.kind)
            )))
        }
    }

    // An error ends the parse, so the parsers of identifiers, literals and
    // primary expressions take the token before checking its kind.

    fn expect_ident(&mut self) -> Result<(Name, Span), Diagnostic> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::Ident(name) => Ok((name, tok.span)),
            other => Err(Diagnostic::new(
                tok.span,
                format!("expected identifier, found {}", self.describe(other)),
            )),
        }
    }

    fn error_here(&self, message: String) -> Diagnostic {
        Diagnostic::new(self.cur.span, message)
    }

    fn fresh_call_id(&mut self) -> CallId {
        let id = CallId(self.next_call_id);
        self.next_call_id += 1;
        id
    }

    fn fresh_loop_id(&mut self) -> LoopId {
        let id = LoopId(self.next_loop_id);
        self.next_loop_id += 1;
        id
    }

    // ---- Nesting bound and node storage ------------------------------------

    /// Descends one level; the caller undoes it with `self.depth -= 1`
    /// (an error ends the parse, so error paths need not).
    fn enter(&mut self) -> Result<(), Diagnostic> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(too_deep(self.cur.span));
        }
        Ok(())
    }

    fn push_stmt(&mut self, stmt: Stmt, height: u32) -> Result<StmtId, Diagnostic> {
        if height > MAX_DEPTH {
            return Err(too_deep(stmt.span()));
        }
        let id = StmtId(self.ast.stmts.len() as u32);
        self.ast.stmts.push(stmt);
        self.stmt_height.push(height as u16);
        Ok(id)
    }

    fn push_expr(&mut self, expr: Expr, height: u32) -> Result<ExprId, Diagnostic> {
        if height > MAX_DEPTH {
            return Err(too_deep(expr.span()));
        }
        let id = ExprId(self.ast.exprs.len() as u32);
        self.ast.exprs.push(expr);
        self.expr_height.push(height as u16);
        Ok(id)
    }

    fn stmt_h(&self, id: StmtId) -> u32 {
        u32::from(self.stmt_height[id.0 as usize])
    }

    fn expr_h(&self, id: ExprId) -> u32 {
        u32::from(self.expr_height[id.0 as usize])
    }

    fn block_h(&self, block: &Block) -> u32 {
        self.ast[block.stmts]
            .iter()
            .map(|&id| self.stmt_h(id))
            .max()
            .unwrap_or(0)
    }

    fn stmt_run(&mut self, mark: usize) -> List<StmtId> {
        let start = self.ast.stmt_lists.len();
        self.ast.stmt_lists.extend(self.stmt_stack.drain(mark..));
        List::new(start, self.ast.stmt_lists.len() - start)
    }

    fn expr_run(&mut self, mark: usize) -> List<ExprId> {
        let start = self.ast.expr_lists.len();
        self.ast.expr_lists.extend(self.expr_stack.drain(mark..));
        List::new(start, self.ast.expr_lists.len() - start)
    }

    // ---- Items -----------------------------------------------------------

    fn file(&mut self) -> Result<(), Diagnostic> {
        while !self.at(TokenKind::Eof) {
            let item = self.item()?;
            self.ast.items.push(item);
        }
        Ok(())
    }

    fn item(&mut self) -> Result<Item, Diagnostic> {
        match self.cur.kind {
            TokenKind::Exception => self.exception_decl().map(Item::ExceptionDecl),
            TokenKind::Config => self.config_decl().map(Item::ConfigDecl),
            TokenKind::Class => self.class_decl().map(Item::Class),
            other => Err(self.error_here(format!(
                "expected `class`, `exception`, or `config`, found {}",
                self.describe(other)
            ))),
        }
    }

    fn exception_decl(&mut self) -> Result<ExceptionDecl, Diagnostic> {
        let start = self.expect(TokenKind::Exception)?.span;
        let (name, _) = self.expect_ident()?;
        let parent = if self.eat(TokenKind::Extends) {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(ExceptionDecl {
            name,
            parent,
            span: start.to(end),
        })
    }

    fn config_decl(&mut self) -> Result<ConfigDecl, Diagnostic> {
        let start = self.expect(TokenKind::Config)?.span;
        let tok = self.bump();
        let key = match tok.kind {
            TokenKind::Str(key) => key,
            other => {
                return Err(Diagnostic::new(
                    tok.span,
                    format!("expected string config key, found {}", self.describe(other)),
                ))
            }
        };
        self.expect(TokenKind::Default)?;
        let default = self.literal()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(ConfigDecl {
            key,
            default,
            span: start.to(end),
        })
    }

    fn class_decl(&mut self) -> Result<ClassDecl, Diagnostic> {
        let start = self.expect(TokenKind::Class)?.span;
        let (name, _) = self.expect_ident()?;
        let parent = if self.eat(TokenKind::Extends) {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        // Classes do not nest, so each class's fields and methods are
        // contiguous in the file's vectors.
        let fields = self.ast.fields.len();
        let methods = self.ast.methods.len();
        loop {
            match self.cur.kind {
                TokenKind::Field => {
                    let field = self.field_decl()?;
                    self.ast.fields.push(field);
                }
                TokenKind::Method | TokenKind::Test => {
                    let method = self.method_decl()?;
                    self.ast.methods.push(method);
                }
                TokenKind::RBrace => break,
                other => {
                    return Err(self.error_here(format!(
                        "expected `field`, `method`, `test`, or `}}`, found {}",
                        self.describe(other)
                    )))
                }
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(ClassDecl {
            name,
            parent,
            fields: List::new(fields, self.ast.fields.len() - fields),
            methods: List::new(methods, self.ast.methods.len() - methods),
            span: start.to(end),
        })
    }

    fn field_decl(&mut self) -> Result<FieldDecl, Diagnostic> {
        let start = self.expect(TokenKind::Field)?.span;
        let (name, _) = self.expect_ident()?;
        let init = if self.eat(TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(FieldDecl {
            name,
            init,
            span: start.to(end),
        })
    }

    fn method_decl(&mut self) -> Result<MethodDecl, Diagnostic> {
        let keyword = self.bump();
        let is_test = keyword.kind == TokenKind::Test;
        let start = keyword.span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let params = self.ast.name_lists.len();
        if !self.at(TokenKind::RParen) {
            loop {
                let param = self.expect_ident()?.0;
                self.ast.name_lists.push(param);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        let params = List::new(params, self.ast.name_lists.len() - params);
        self.expect(TokenKind::RParen)?;
        let throws = self.ast.name_lists.len();
        if self.eat(TokenKind::Throws) {
            loop {
                let thrown = self.expect_ident()?.0;
                self.ast.name_lists.push(thrown);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        let throws = List::new(throws, self.ast.name_lists.len() - throws);
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(MethodDecl {
            name,
            params,
            throws,
            body,
            is_test,
            span,
        })
    }

    // ---- Statements ------------------------------------------------------

    fn block(&mut self) -> Result<Block, Diagnostic> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mark = self.stmt_stack.len();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            let stmt = self.stmt()?;
            self.stmt_stack.push(stmt);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Block {
            stmts: self.stmt_run(mark),
            span: start.to(end),
        })
    }

    fn stmt(&mut self) -> Result<StmtId, Diagnostic> {
        self.enter()?;
        let builtin = match self.cur.kind {
            TokenKind::Ident(name) if self.next.kind == TokenKind::LParen => {
                match self.lexer.names().get(name) {
                    "sleep" => Some(Builtin::Sleep),
                    "log" => Some(Builtin::Log),
                    "assert" => Some(Builtin::Assert),
                    _ => None,
                }
            }
            _ => None,
        };
        let stmt = match self.cur.kind {
            TokenKind::Var => self.var_stmt()?,
            TokenKind::If => self.if_stmt()?,
            TokenKind::While => self.while_stmt()?,
            TokenKind::For => self.for_stmt()?,
            TokenKind::Switch => self.switch_stmt()?,
            TokenKind::Try => self.try_stmt()?,
            TokenKind::Throw => self.throw_stmt()?,
            TokenKind::Return => self.return_stmt()?,
            TokenKind::Break => {
                let span = self.bump().span.to(self.expect(TokenKind::Semi)?.span);
                self.push_stmt(Stmt::Break { span }, 1)?
            }
            TokenKind::Continue => {
                let span = self.bump().span.to(self.expect(TokenKind::Semi)?.span);
                self.push_stmt(Stmt::Continue { span }, 1)?
            }
            _ => match builtin {
                Some(builtin) => self.builtin_stmt(builtin)?,
                None => self.expr_or_assign_stmt()?,
            },
        };
        self.depth -= 1;
        Ok(stmt)
    }

    fn var_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::Var)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        let init = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        let height = 1 + self.expr_h(init);
        self.push_stmt(
            Stmt::Var {
                name,
                init,
                span: start.to(end),
            },
            height,
        )
    }

    fn if_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::If)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_blk = self.block()?;
        let mut span = start.to(then_blk.span);
        let else_blk = if self.eat(TokenKind::Else) {
            // Support `else if` by wrapping the nested if in a block.
            if self.at(TokenKind::If) {
                self.enter()?;
                let nested = self.if_stmt()?;
                self.depth -= 1;
                let nested_span = self.ast[nested].span();
                span = span.to(nested_span);
                let mark = self.stmt_stack.len();
                self.stmt_stack.push(nested);
                Some(Block {
                    stmts: self.stmt_run(mark),
                    span: nested_span,
                })
            } else {
                let blk = self.block()?;
                span = span.to(blk.span);
                Some(blk)
            }
        } else {
            None
        };
        let height = 1 + self
            .expr_h(cond)
            .max(self.block_h(&then_blk))
            .max(else_blk.map_or(0, |blk| self.block_h(&blk)));
        self.push_stmt(
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            },
            height,
        )
    }

    fn while_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::While)?.span;
        let id = self.fresh_loop_id();
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        let height = 1 + self.expr_h(cond).max(self.block_h(&body));
        self.push_stmt(
            Stmt::While {
                id,
                cond,
                body,
                span,
            },
            height,
        )
    }

    fn for_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::For)?.span;
        let id = self.fresh_loop_id();
        self.expect(TokenKind::LParen)?;
        let init = if self.at(TokenKind::Semi) {
            self.bump();
            None
        } else if self.at(TokenKind::Var) {
            Some(self.var_stmt()?)
        } else {
            Some(self.simple_assign_stmt()?)
        };
        let cond = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let update = if self.at(TokenKind::RParen) {
            None
        } else {
            Some(self.assign_no_semi()?)
        };
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        let height = 1 + [
            init.map_or(0, |s| self.stmt_h(s)),
            cond.map_or(0, |e| self.expr_h(e)),
            update.map_or(0, |s| self.stmt_h(s)),
            self.block_h(&body),
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        self.push_stmt(
            Stmt::For {
                id,
                init,
                cond,
                update,
                body,
                span,
            },
            height,
        )
    }

    /// An assignment followed by `;`, used in for-loop initializers.
    fn simple_assign_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let stmt = self.assign_no_semi()?;
        self.expect(TokenKind::Semi)?;
        Ok(stmt)
    }

    /// An assignment without the trailing `;`, used in for-loop headers.
    fn assign_no_semi(&mut self) -> Result<StmtId, Diagnostic> {
        let expr = self.expr()?;
        self.expect(TokenKind::Assign)?;
        let (target, target_height) = self.expr_to_lvalue(expr)?;
        let value = self.expr()?;
        let span = target.span().to(self.ast[value].span());
        let height = 1 + target_height.max(self.expr_h(value));
        self.push_stmt(
            Stmt::Assign {
                target,
                value,
                span,
            },
            height,
        )
    }

    fn switch_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::Switch)?.span;
        let id = self.fresh_loop_id();
        self.expect(TokenKind::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mark = self.case_stack.len();
        let mut height = self.expr_h(scrutinee);
        let mut default = None;
        loop {
            if self.eat(TokenKind::Case) {
                let lit = self.literal()?;
                self.expect(TokenKind::Colon)?;
                let body = self.block()?;
                height = height.max(self.block_h(&body));
                self.case_stack.push(Case { lit, body });
            } else if self.eat(TokenKind::Default) {
                self.expect(TokenKind::Colon)?;
                if default.is_some() {
                    return Err(self.error_here("duplicate `default` arm".into()));
                }
                let body = self.block()?;
                height = height.max(self.block_h(&body));
                default = Some(body);
            } else {
                break;
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        let start_run = self.ast.cases.len();
        self.ast.cases.extend(self.case_stack.drain(mark..));
        let cases = List::new(start_run, self.ast.cases.len() - start_run);
        self.push_stmt(
            Stmt::Switch {
                id,
                scrutinee,
                cases,
                default,
                span: start.to(end),
            },
            1 + height,
        )
    }

    fn try_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::Try)?.span;
        let body = self.block()?;
        let mut height = self.block_h(&body);
        let mark = self.catch_stack.len();
        let mut end = body.span;
        while self.at(TokenKind::Catch) {
            let cstart = self.bump().span;
            self.expect(TokenKind::LParen)?;
            let (exc_type, _) = self.expect_ident()?;
            let (binding, _) = self.expect_ident()?;
            self.expect(TokenKind::RParen)?;
            let cbody = self.block()?;
            end = cbody.span;
            height = height.max(self.block_h(&cbody));
            self.catch_stack.push(CatchClause {
                exc_type,
                binding,
                span: cstart.to(cbody.span),
                body: cbody,
            });
        }
        let finally = if self.eat(TokenKind::Finally) {
            let fblock = self.block()?;
            end = fblock.span;
            height = height.max(self.block_h(&fblock));
            Some(fblock)
        } else {
            None
        };
        if self.catch_stack.len() == mark && finally.is_none() {
            return Err(self.error_here("`try` requires at least one `catch` or `finally`".into()));
        }
        let start_run = self.ast.catches.len();
        self.ast.catches.extend(self.catch_stack.drain(mark..));
        let catches = List::new(start_run, self.ast.catches.len() - start_run);
        self.push_stmt(
            Stmt::Try {
                body,
                catches,
                finally,
                span: start.to(end),
            },
            1 + height,
        )
    }

    fn throw_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::Throw)?.span;
        let expr = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        let height = 1 + self.expr_h(expr);
        self.push_stmt(
            Stmt::Throw {
                expr,
                span: start.to(end),
            },
            height,
        )
    }

    fn return_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let start = self.expect(TokenKind::Return)?.span;
        let expr = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        let end = self.expect(TokenKind::Semi)?.span;
        let height = 1 + expr.map_or(0, |e| self.expr_h(e));
        self.push_stmt(
            Stmt::Return {
                expr,
                span: start.to(end),
            },
            height,
        )
    }

    fn builtin_stmt(&mut self, builtin: Builtin) -> Result<StmtId, Diagnostic> {
        let (_, start) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let first = self.expr()?;
        let msg = match builtin {
            Builtin::Assert if self.eat(TokenKind::Comma) => Some(self.expr()?),
            _ => None,
        };
        self.expect(TokenKind::RParen)?;
        let end = self.expect(TokenKind::Semi)?.span;
        let span = start.to(end);
        let height = 1 + self.expr_h(first).max(msg.map_or(0, |m| self.expr_h(m)));
        let stmt = match builtin {
            Builtin::Sleep => Stmt::Sleep { ms: first, span },
            Builtin::Log => Stmt::Log { expr: first, span },
            Builtin::Assert => Stmt::Assert {
                cond: first,
                msg,
                span,
            },
        };
        self.push_stmt(stmt, height)
    }

    fn expr_or_assign_stmt(&mut self) -> Result<StmtId, Diagnostic> {
        let expr = self.expr()?;
        if self.at(TokenKind::Assign) {
            self.bump();
            let (target, target_height) = self.expr_to_lvalue(expr)?;
            let value = self.expr()?;
            let end = self.expect(TokenKind::Semi)?.span;
            let span = target.span().to(end);
            let height = 1 + target_height.max(self.expr_h(value));
            self.push_stmt(
                Stmt::Assign {
                    target,
                    value,
                    span,
                },
                height,
            )
        } else {
            let end = self.expect(TokenKind::Semi)?.span;
            let span = self.ast[expr].span().to(end);
            let height = 1 + self.expr_h(expr);
            self.push_stmt(Stmt::Expr { expr, span }, height)
        }
    }

    /// Turns the expression just parsed into an assignment target. The
    /// target node was the last one built and lives on only as the
    /// [`LValue`], so it is taken back off the expression vector.
    fn expr_to_lvalue(&mut self, expr: ExprId) -> Result<(LValue, u32), Diagnostic> {
        let target = match self.ast[expr] {
            Expr::Ident(name, span) => LValue::Var(name, span),
            Expr::Field { recv, name, span } => LValue::Field { recv, name, span },
            other => {
                return Err(Diagnostic::new(
                    other.span(),
                    "invalid assignment target (expected variable or field)",
                ))
            }
        };
        debug_assert_eq!(expr.0 as usize + 1, self.ast.exprs.len());
        let height = self.expr_h(expr);
        self.ast.exprs.pop();
        self.expr_height.pop();
        Ok((target, height))
    }

    // ---- Expressions -----------------------------------------------------

    fn literal(&mut self) -> Result<Lit, Diagnostic> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::Int(v) => Ok(Lit::Int(v)),
            TokenKind::Str(s) => Ok(Lit::Str(s)),
            TokenKind::True => Ok(Lit::Bool(true)),
            TokenKind::False => Ok(Lit::Bool(false)),
            TokenKind::Null => Ok(Lit::Null),
            TokenKind::Minus => {
                let tok = self.bump();
                match tok.kind {
                    TokenKind::Int(v) => Ok(Lit::Int(-v)),
                    other => Err(Diagnostic::new(
                        tok.span,
                        format!("expected integer after `-`, found {}", self.describe(other)),
                    )),
                }
            }
            other => Err(Diagnostic::new(
                tok.span,
                format!("expected literal, found {}", self.describe(other)),
            )),
        }
    }

    fn expr(&mut self) -> Result<ExprId, Diagnostic> {
        self.enter()?;
        let expr = self.binary_expr(0)?;
        self.depth -= 1;
        Ok(expr)
    }

    /// Operators that bind at least as tightly as `min`, left-associative
    /// (precedence climbing: one frame per precedence level entered, not
    /// per level of the grammar).
    fn binary_expr(&mut self, min: u8) -> Result<ExprId, Diagnostic> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.cur.kind {
                TokenKind::OrOr => (Some(BinOp::Or), 1),
                TokenKind::AndAnd => (Some(BinOp::And), 2),
                TokenKind::EqEq => (Some(BinOp::Eq), 3),
                TokenKind::NotEq => (Some(BinOp::NotEq), 3),
                TokenKind::Lt => (Some(BinOp::Lt), 4),
                TokenKind::LtEq => (Some(BinOp::LtEq), 4),
                TokenKind::Gt => (Some(BinOp::Gt), 4),
                TokenKind::GtEq => (Some(BinOp::GtEq), 4),
                TokenKind::Instanceof => (None, 4),
                TokenKind::Plus => (Some(BinOp::Add), 5),
                TokenKind::Minus => (Some(BinOp::Sub), 5),
                TokenKind::Star => (Some(BinOp::Mul), 6),
                TokenKind::Slash => (Some(BinOp::Div), 6),
                TokenKind::Percent => (Some(BinOp::Rem), 6),
                _ => return Ok(lhs),
            };
            if prec < min {
                return Ok(lhs);
            }
            self.bump();
            lhs = match op {
                Some(op) => {
                    let rhs = self.binary_expr(prec + 1)?;
                    let span = self.ast[lhs].span().to(self.ast[rhs].span());
                    let height = 1 + self.expr_h(lhs).max(self.expr_h(rhs));
                    self.push_expr(Expr::Binary { op, lhs, rhs, span }, height)?
                }
                None => {
                    let (ty, ty_span) = self.expect_ident()?;
                    let span = self.ast[lhs].span().to(ty_span);
                    let height = 1 + self.expr_h(lhs);
                    self.push_expr(
                        Expr::InstanceOf {
                            expr: lhs,
                            ty,
                            span,
                        },
                        height,
                    )?
                }
            };
        }
    }

    fn unary_expr(&mut self) -> Result<ExprId, Diagnostic> {
        let op = match self.cur.kind {
            TokenKind::Bang => UnOp::Not,
            TokenKind::Minus => UnOp::Neg,
            _ => return self.postfix_expr(),
        };
        let start = self.bump().span;
        self.enter()?;
        let expr = self.unary_expr()?;
        self.depth -= 1;
        let span = start.to(self.ast[expr].span());
        let height = 1 + self.expr_h(expr);
        self.push_expr(Expr::Unary { op, expr, span }, height)
    }

    fn postfix_expr(&mut self) -> Result<ExprId, Diagnostic> {
        let mut expr = self.primary_expr()?;
        while self.at(TokenKind::Dot) {
            self.bump();
            let (name, name_span) = self.expect_ident()?;
            if self.at(TokenKind::LParen) {
                let (args, args_height) = self.call_args()?;
                let span = self.ast[expr].span().to(self.prev);
                let height = 1 + self.expr_h(expr).max(args_height);
                let id = self.fresh_call_id();
                expr = self.push_expr(
                    Expr::Call {
                        id,
                        recv: Some(expr),
                        method: name,
                        args,
                        span,
                    },
                    height,
                )?;
            } else {
                let span = self.ast[expr].span().to(name_span);
                let height = 1 + self.expr_h(expr);
                expr = self.push_expr(
                    Expr::Field {
                        recv: expr,
                        name,
                        span,
                    },
                    height,
                )?;
            }
        }
        Ok(expr)
    }

    /// `( args )`: the run of argument ids and the tallest argument.
    fn call_args(&mut self) -> Result<(List<ExprId>, u32), Diagnostic> {
        self.expect(TokenKind::LParen)?;
        let mark = self.expr_stack.len();
        let mut height = 0;
        if !self.at(TokenKind::RParen) {
            loop {
                let arg = self.expr()?;
                height = height.max(self.expr_h(arg));
                self.expr_stack.push(arg);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok((self.expr_run(mark), height))
    }

    fn primary_expr(&mut self) -> Result<ExprId, Diagnostic> {
        let tok = self.bump();
        let literal = |lit| Expr::Literal(lit, tok.span);
        match tok.kind {
            TokenKind::Int(v) => self.push_expr(literal(Lit::Int(v)), 1),
            TokenKind::Str(s) => self.push_expr(literal(Lit::Str(s)), 1),
            TokenKind::True => self.push_expr(literal(Lit::Bool(true)), 1),
            TokenKind::False => self.push_expr(literal(Lit::Bool(false)), 1),
            TokenKind::Null => self.push_expr(literal(Lit::Null), 1),
            TokenKind::This => self.push_expr(Expr::This(tok.span), 1),
            TokenKind::New => {
                let (class, _) = self.expect_ident()?;
                let (args, args_height) = self.call_args()?;
                let span = tok.span.to(self.prev);
                let id = self.fresh_call_id();
                self.push_expr(
                    Expr::New {
                        id,
                        class,
                        args,
                        span,
                    },
                    1 + args_height,
                )
            }
            TokenKind::LParen => {
                let inner = self.expr()?;
                self.expect(TokenKind::RParen)?;
                // The parentheses count as a level of their own.
                let height = self.expr_h(inner) + 1;
                if height > MAX_DEPTH {
                    return Err(too_deep(self.ast[inner].span()));
                }
                self.expr_height[inner.0 as usize] = height as u16;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                if self.at(TokenKind::LParen) {
                    let (args, args_height) = self.call_args()?;
                    let span = tok.span.to(self.prev);
                    let id = self.fresh_call_id();
                    self.push_expr(
                        Expr::Call {
                            id,
                            recv: None,
                            method: name,
                            args,
                            span,
                        },
                        1 + args_height,
                    )
                } else {
                    self.push_expr(Expr::Ident(name, tok.span), 1)
                }
            }
            other => Err(Diagnostic::new(
                tok.span,
                format!("expected expression, found {}", self.describe(other)),
            )),
        }
    }
}

fn too_deep(span: Span) -> Diagnostic {
    Diagnostic::new(span, format!("nesting deeper than {MAX_DEPTH} levels"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Ast {
        parse_file(src).expect("parse should succeed")
    }

    fn only_class(ast: &Ast) -> &ClassDecl {
        match ast.items().first().expect("one item") {
            Item::Class(c) => c,
            other => panic!("expected class, got {other:?}"),
        }
    }

    fn method(ast: &Ast, index: usize) -> &MethodDecl {
        &ast[only_class(ast).methods][index]
    }

    fn body(ast: &Ast) -> Vec<&Stmt> {
        ast.stmts_in(&method(ast, 0).body).collect()
    }

    #[test]
    fn parses_exception_and_config_decls() {
        let ast = parse_ok(
            "exception IOException;\n\
             exception ConnectException extends IOException;\n\
             config \"dfs.retry.max\" default 5;",
        );
        assert_eq!(ast.items().len(), 3);
        match &ast.items()[1] {
            Item::ExceptionDecl(d) => {
                assert_eq!(&ast[d.name], "ConnectException");
                assert_eq!(d.parent.map(|p| &ast[p]), Some("IOException"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &ast.items()[2] {
            Item::ConfigDecl(d) => {
                assert_eq!(&ast[d.key], "dfs.retry.max");
                assert_eq!(d.default, Lit::Int(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_class_with_fields_methods_tests() {
        let ast = parse_ok(
            "class C extends Base {\n\
               field count = 0;\n\
               field name;\n\
               method m(a, b) throws E1, E2 { return a + b; }\n\
               test tWorks() { assert(true); }\n\
             }",
        );
        let class = only_class(&ast);
        assert_eq!(&ast[class.name], "C");
        assert_eq!(class.parent.map(|p| &ast[p]), Some("Base"));
        assert_eq!(class.fields.len(), 2);
        assert_eq!(class.methods.len(), 2);
        let throws: Vec<&str> = ast[method(&ast, 0).throws]
            .iter()
            .map(|&n| &ast[n])
            .collect();
        assert_eq!(throws, vec!["E1", "E2"]);
        let params: Vec<&str> = ast[method(&ast, 0).params]
            .iter()
            .map(|&n| &ast[n])
            .collect();
        assert_eq!(params, vec!["a", "b"]);
        assert!(!method(&ast, 0).is_test);
        assert!(method(&ast, 1).is_test);
    }

    #[test]
    fn parses_retry_loop_with_try_catch() {
        let ast = parse_ok(
            "class R {\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.connect(); }\n\
                   catch (ConnectException e) { sleep(1000); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
        match body(&ast)[0] {
            Stmt::For { id, body, .. } => {
                assert_eq!(*id, LoopId(0));
                let first = ast.stmts_in(body).next().expect("a statement");
                assert!(matches!(first, Stmt::Try { .. }));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn call_ids_are_sequential() {
        let ast = parse_ok("class C { method m() { this.a(); this.b(new T()); } }");
        let mut ids = Vec::new();
        ast.walk_exprs(&method(&ast, 0).body, &mut |e| {
            if let Expr::Call { id, .. } = e {
                ids.push(id.0);
            }
            if let Expr::New { id, .. } = e {
                ids.push(id.0);
            }
        });
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn parses_switch_state_machine() {
        let ast = parse_ok(
            "class P {\n\
               field state = \"DISPATCH\";\n\
               method execute() {\n\
                 switch (this.state) {\n\
                   case \"DISPATCH\": { this.mark(); }\n\
                   case \"FINISH\": { return true; }\n\
                   default: { log(\"?\"); }\n\
                 }\n\
                 return false;\n\
               }\n\
             }",
        );
        match body(&ast)[0] {
            Stmt::Switch { cases, default, .. } => {
                assert_eq!(cases.len(), 2);
                let Lit::Str(first) = ast[*cases][0].lit else {
                    panic!("expected a string case");
                };
                assert_eq!(&ast[first], "DISPATCH");
                assert!(default.is_some());
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parses_else_if_chain() {
        let ast = parse_ok(
            "class C { method m(x) { if (x == 1) { return 1; } else if (x == 2) { return 2; } else { return 3; } } }",
        );
        match body(&ast)[0] {
            Stmt::If { else_blk, .. } => {
                let inner = else_blk.as_ref().expect("else");
                assert!(matches!(ast.stmts_in(inner).next(), Some(Stmt::If { .. })));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_operators_with_precedence() {
        let ast = parse_ok(
            "class C { method m(a, b) { return a + b * 2 == 10 || !(a < b) && b != null; } }",
        );
        match body(&ast)[0] {
            Stmt::Return { expr: Some(e), .. } => match &ast[*e] {
                Expr::Binary { op: BinOp::Or, .. } => {}
                other => panic!("expected top-level ||, got {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parses_instanceof_and_wrapping() {
        let ast = parse_ok(
            "class C { method m(e) { if (e.getCause() instanceof AccessControlException) { throw new WrappedException(\"w\", e); } return null; } }",
        );
        assert!(!only_class(&ast).methods.is_empty());
    }

    #[test]
    fn parses_field_assignment_targets() {
        let ast = parse_ok("class C { field f; method m(o) { this.f = 1; o.g = 2; f = 3; } }");
        let stmts = body(&ast);
        assert!(matches!(
            stmts[0],
            Stmt::Assign {
                target: LValue::Field { .. },
                ..
            }
        ));
        assert!(matches!(
            stmts[2],
            Stmt::Assign {
                target: LValue::Var(..),
                ..
            }
        ));
    }

    #[test]
    fn assignment_targets_leave_no_dead_nodes() {
        // `this`, `1`; `o`, `2`; `3`; `i`, `0`, `i`, `3`, `i`, `1`, `i + 1`:
        // the `this.f`, `o.g`, `f` and `i` targets exist only as LValues.
        let ast = parse_ok(
            "class C { method m(o) { this.f = 1; (o).g = 2; f = 3; for (i = 0; i < 3; i = i + 1) { } } }",
        );
        assert_eq!(ast.expr_count(), 12);
        let mut seen = 0;
        ast.walk_exprs(&method(&ast, 0).body, &mut |_| seen += 1);
        assert_eq!(seen, 12);
    }

    #[test]
    fn parses_try_catch_finally() {
        let ast = parse_ok(
            "class C { method m() { try { this.a(); } catch (E1 e) { } catch (E2 e) { } finally { log(\"f\"); } } }",
        );
        match body(&ast)[0] {
            Stmt::Try {
                catches, finally, ..
            } => {
                assert_eq!(catches.len(), 2);
                assert_eq!(&ast[ast[*catches][1].exc_type], "E2");
                assert!(finally.is_some());
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn nested_blocks_keep_their_own_runs() {
        let ast = parse_ok(
            "class C { method m() { if (a) { x(); if (b) { y(); z(); } w(); } else { v(); } } }",
        );
        let Stmt::If {
            then_blk, else_blk, ..
        } = body(&ast)[0]
        else {
            panic!("expected if");
        };
        assert_eq!(then_blk.stmts.len(), 3);
        assert_eq!(else_blk.expect("else").stmts.len(), 1);
        let Stmt::If {
            then_blk: inner, ..
        } = ast.stmts_in(then_blk).nth(1).expect("inner if")
        else {
            panic!("expected inner if");
        };
        assert_eq!(inner.stmts.len(), 2);
    }

    #[test]
    fn rejects_try_without_handlers() {
        assert!(parse_file("class C { method m() { try { } } }").is_err());
    }

    #[test]
    fn rejects_assignment_to_call() {
        assert!(parse_file("class C { method m() { this.a() = 3; } }").is_err());
    }

    #[test]
    fn rejects_duplicate_default_arm() {
        assert!(
            parse_file("class C { method m(x) { switch (x) { default: { } default: { } } } }")
                .is_err()
        );
    }

    #[test]
    fn parses_for_with_empty_parts() {
        let ast = parse_ok("class C { method m() { for (;;) { break; } } }");
        match body(&ast)[0] {
            Stmt::For {
                init, cond, update, ..
            } => {
                assert!(init.is_none());
                assert!(cond.is_none());
                assert!(update.is_none());
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_negative_literal_in_config() {
        let ast = parse_ok("config \"retry.max\" default -1;");
        match &ast.items()[0] {
            Item::ConfigDecl(d) => assert_eq!(ast.literal(d.default), Literal::Int(-1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sleep_log_assert_are_statements() {
        let ast = parse_ok(
            "class C { test t() { sleep(10); log(\"msg\"); assert(1 == 1, \"eq\"); assert(true); } }",
        );
        let stmts = body(&ast);
        assert!(matches!(stmts[0], Stmt::Sleep { .. }));
        assert!(matches!(stmts[1], Stmt::Log { .. }));
        assert!(matches!(stmts[2], Stmt::Assert { msg: Some(_), .. }));
        assert!(matches!(stmts[3], Stmt::Assert { msg: None, .. }));
    }

    #[test]
    fn builtin_names_are_calls_without_parentheses_next() {
        let ast = parse_ok("class C { method m(sleep) { sleep = 1; log.x(); assert2(true); } }");
        let stmts = body(&ast);
        assert!(matches!(stmts[0], Stmt::Assign { .. }));
        assert!(matches!(stmts[1], Stmt::Expr { .. }));
        assert!(matches!(stmts[2], Stmt::Expr { .. }));
    }

    #[test]
    fn error_mentions_expected_token() {
        let err = parse_file("class C {").unwrap_err();
        assert!(err.message.contains("expected"), "message: {}", err.message);
    }

    /// Every lexer and parser error, with its exact message and span. A
    /// lexer error anywhere in the file wins over an earlier parse error.
    #[test]
    fn every_error_keeps_its_message_and_span() {
        #[rustfmt::skip]
        let table = [
            ("class A { } /* never closed", "unterminated block comment", Span::new(12, 27)),
            ("class A { method m(a) { return a & a; } }", "expected `&&`", Span::new(33, 34)),
            ("class A { method m(a) { return a | a; } }", "expected `||`", Span::new(33, 34)),
            ("class A { method m() { return 1 # 2; } }", "unexpected character `#`", Span::new(32, 33)),
            ("config \"k\" default \"open", "unterminated string literal", Span::new(19, 24)),
            ("config \"k\" default \"a\\qb\";", "unknown escape `\\q`", Span::new(19, 23)),
            ("config \"k\" default \"a\nb\";", "newline in string literal", Span::new(19, 22)),
            ("config \"k\" default 99999999999999999999;", "integer literal `99999999999999999999` out of range", Span::new(19, 39)),
            ("config \"k\" default \"a\\", "unknown escape `\\\0`", Span::new(19, 23)),
            ("class { } \"open", "unterminated string literal", Span::new(10, 15)),
            ("class A { method m() { x = ; } } #", "unexpected character `#`", Span::new(33, 34)),
            ("class A {", "expected `field`, `method`, `test`, or `}`, found end of input", Span::new(9, 9)),
            ("class A { method m() { return 1 } }", "expected `;`, found `}`", Span::new(32, 33)),
            ("class 7 { }", "expected identifier, found integer `7`", Span::new(6, 7)),
            ("class \"s\" { }", "expected identifier, found string literal", Span::new(6, 9)),
            ("exception E extends;", "expected identifier, found `;`", Span::new(19, 20)),
            ("exception E", "expected `;`, found end of input", Span::new(11, 11)),
            ("var x = 1;", "expected `class`, `exception`, or `config`, found `var`", Span::new(0, 3)),
            ("}", "expected `class`, `exception`, or `config`, found `}`", Span::new(0, 1)),
            ("config k default 1;", "expected string config key, found identifier `k`", Span::new(7, 8)),
            ("config 5 default 1;", "expected string config key, found integer `5`", Span::new(7, 8)),
            ("config \"k\" default x;", "expected literal, found identifier `x`", Span::new(19, 20)),
            ("config \"k\" default -x;", "expected integer after `-`, found identifier `x`", Span::new(20, 21)),
            ("config \"k\" default -;", "expected integer after `-`, found `;`", Span::new(20, 21)),
            ("config \"k\" 1;", "expected `default`, found integer `1`", Span::new(11, 12)),
            ("class A { var x; }", "expected `field`, `method`, `test`, or `}`, found `var`", Span::new(10, 13)),
            ("class A { method m() { } x }", "expected `field`, `method`, `test`, or `}`, found identifier `x`", Span::new(25, 26)),
            ("class A extends { }", "expected identifier, found `{`", Span::new(16, 17)),
            ("class A { field f = ; }", "expected expression, found `;`", Span::new(20, 21)),
            ("class A { method m(a b) { } }", "expected `)`, found identifier `b`", Span::new(21, 22)),
            ("class A { method m(a,) { } }", "expected identifier, found `)`", Span::new(21, 22)),
            ("class A { method m() throws { } }", "expected identifier, found `{`", Span::new(28, 29)),
            ("class A { method m() throws E, { } }", "expected identifier, found `{`", Span::new(31, 32)),
            ("class A { method m() { switch (x) { default: { } default: { } } } }", "duplicate `default` arm", Span::new(58, 59)),
            ("class A { method m() { switch (x) { case y: { } } } }", "expected literal, found identifier `y`", Span::new(41, 42)),
            ("class A { method m() { switch (x) { case 1 { } } } }", "expected `:`, found `{`", Span::new(43, 44)),
            ("class A { method m() { switch (x) { foo } } }", "expected `}`, found identifier `foo`", Span::new(36, 39)),
            ("class A { method m() { try { } } }", "`try` requires at least one `catch` or `finally`", Span::new(31, 32)),
            ("class A { method m() { try { } catch (E) { } } }", "expected identifier, found `)`", Span::new(39, 40)),
            ("class A { method m() { try { } catch E e { } } }", "expected `(`, found identifier `E`", Span::new(37, 38)),
            ("class A { method m() { this.a() = 3; } }", "invalid assignment target (expected variable or field)", Span::new(23, 31)),
            ("class A { method m() { 1 + 2 = 3; } }", "invalid assignment target (expected variable or field)", Span::new(23, 28)),
            ("class A { method m() { for (;;) } }", "expected `{`, found `}`", Span::new(32, 33)),
            ("class A { method m() { for (x; ; ) { } } }", "expected `=`, found `;`", Span::new(29, 30)),
            ("class A { method m() { for (var i = 0; i < 3; i + 1) { } } }", "expected `=`, found `)`", Span::new(51, 52)),
            ("class A { method m() { for (f() = 1; ;) { } } }", "invalid assignment target (expected variable or field)", Span::new(28, 31)),
            ("class A { method m() { if x { } } }", "expected `(`, found identifier `x`", Span::new(26, 27)),
            ("class A { method m() { if (x) return; } }", "expected `{`, found `return`", Span::new(30, 36)),
            ("class A { method m() { while (x { } } }", "expected `)`, found `{`", Span::new(32, 33)),
            ("class A { method m() { return 1 +; } }", "expected expression, found `;`", Span::new(33, 34)),
            ("class A { method m() { return (1; } }", "expected `)`, found `;`", Span::new(32, 33)),
            ("class A { method m() { return a.; } }", "expected identifier, found `;`", Span::new(32, 33)),
            ("class A { method m() { return a.7; } }", "expected identifier, found integer `7`", Span::new(32, 33)),
            ("class A { method m() { return new 5(); } }", "expected identifier, found integer `5`", Span::new(34, 35)),
            ("class A { method m() { return new T; } }", "expected `(`, found `;`", Span::new(35, 36)),
            ("class A { method m() { return f(1 2); } }", "expected `)`, found integer `2`", Span::new(34, 35)),
            ("class A { method m() { return f(1,); } }", "expected expression, found `)`", Span::new(34, 35)),
            ("class A { method m() { return x instanceof 3; } }", "expected identifier, found integer `3`", Span::new(43, 44)),
            ("class A { method m() { sleep 5; } }", "expected `;`, found integer `5`", Span::new(29, 30)),
            ("class A { method m() { sleep(5) } }", "expected `;`, found `}`", Span::new(32, 33)),
            ("class A { method m() { log(); } }", "expected expression, found `)`", Span::new(27, 28)),
            ("class A { method m() { assert(true,); } }", "expected expression, found `)`", Span::new(35, 36)),
            ("class A { method m() { assert(true; } }", "expected `)`, found `;`", Span::new(34, 35)),
            ("class A { method m() { var = 1; } }", "expected identifier, found `=`", Span::new(27, 28)),
            ("class A { method m() { var x 1; } }", "expected `=`, found integer `1`", Span::new(29, 30)),
            ("class A { method m() { throw; } }", "expected expression, found `;`", Span::new(28, 29)),
            ("class A { method m() { break } }", "expected `;`, found `}`", Span::new(29, 30)),
            ("class A { method m() { continue 1; } }", "expected `;`, found integer `1`", Span::new(32, 33)),
            ("class A { method m() { return } }", "expected expression, found `}`", Span::new(30, 31)),
            ("class A { method m() { x = 1 } }", "expected `;`, found `}`", Span::new(29, 30)),
            ("class A { method m() { else { } } }", "expected expression, found `else`", Span::new(23, 27)),
            ("class A { method m() { return class; } }", "expected expression, found `class`", Span::new(30, 35)),
            ("class A { method m() { return !; } }", "expected expression, found `;`", Span::new(31, 32)),
            ("class A { method m() { return -; } }", "expected expression, found `;`", Span::new(31, 32)),
            ("class A { method m() { return \"s\" \"t\"; } }", "expected `;`, found string literal", Span::new(34, 37)),
            ("class A { method m() { return 1 2; } }", "expected `;`, found integer `2`", Span::new(32, 33)),
            ("class A { method m() { return x y; } }", "expected `;`, found identifier `y`", Span::new(32, 33)),
        ];
        for (src, message, span) in table {
            let err = parse_file(src).unwrap_err();
            assert_eq!((err.message.as_str(), err.span), (message, span), "{src:?}");
        }
        assert!(parse_file("").expect("empty file").items().is_empty());
    }

    /// A method whose body nests `depth` levels through `shape`.
    fn nested(depth: u32, shape: &str) -> String {
        let n = depth as usize;
        let body = match shape {
            // `return` is one level, each pair of parentheses one more.
            "parens" => format!("return {}1{};", "(".repeat(n - 2), ")".repeat(n - 2)),
            // `return` plus `n - 1` unary operators over the literal.
            "not" => format!("return {}true;", "!".repeat(n - 2)),
            // `n - 1` binary nodes over the leftmost literal.
            "chain" => format!("return 1{};", " + 1".repeat(n - 2)),
            // `n - 1` field accesses over `this`.
            "fields" => format!("return this{};", ".f".repeat(n - 2)),
            // `n - 2` nested ifs around a two-level `return 1;`.
            "ifs" => format!(
                "{}return 1;{}",
                "if (true) { ".repeat(n - 2),
                " }".repeat(n - 2)
            ),
            // An `else if` chain: each `if` is one level.
            "elseifs" => format!("{}{{ return 1; }}", "if (false) { } else ".repeat(n - 2)),
            other => panic!("unknown shape {other}"),
        };
        format!("class C {{ method m() {{ {body} }} }}")
    }

    const SHAPES: [&str; 6] = ["parens", "not", "chain", "fields", "ifs", "elseifs"];

    #[test]
    fn nesting_is_bounded_exactly_at_max_depth() {
        for shape in SHAPES {
            let src = nested(MAX_DEPTH, shape);
            parse_file(&src).unwrap_or_else(|e| panic!("{shape} at the bound: {e}"));
            let err = parse_file(&nested(MAX_DEPTH + 1, shape)).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 256 levels", "{shape}");
        }
    }

    #[test]
    fn far_too_deep_input_fails_without_overflowing_the_stack() {
        // The cases that aborted the process before the bound, on a 2 MiB
        // thread like a daemon runner's.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let handle = worker
            .spawn(|| {
                for src in [
                    format!(
                        "class C {{ method m() {{ return {}1; }} }}",
                        "(".repeat(200_000)
                    ),
                    format!(
                        "class C {{ method m() {{ return {}true; }} }}",
                        "!".repeat(200_000)
                    ),
                    format!(
                        "class C {{ method m() {{ return 1{}; }} }}",
                        " + 1".repeat(200_000)
                    ),
                    format!(
                        "class C {{ method m() {{ {} }} }}",
                        "if (true) { ".repeat(20_000)
                    ),
                    format!(
                        "class C {{ method m() {{ x = 1{}; }} }}",
                        ".f".repeat(200_000)
                    ),
                ] {
                    let err = parse_file(&src).unwrap_err();
                    assert_eq!(err.message, "nesting deeper than 256 levels");
                }
            })
            .expect("spawn");
        handle.join().expect("no stack overflow");
    }
}
