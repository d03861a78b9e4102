//! Control-flow graphs for Javelin methods.
//!
//! The CFG is deliberately built the way a query engine like CodeQL sees
//! code: structured statements are lowered to basic blocks with
//! over-approximate edges (both branches of every `if`, an edge from the try
//! entry into every catch handler). This keeps the analysis *syntactic* — a
//! catch block that sets a boolean flag which later forces a `break` still
//! "reaches the loop header" here, reproducing the paper's known IF-analysis
//! false positive (§4.3).

use wasabi_lang::ast::{Ast, Block as AstBlock, CallId, Expr, ExprId, LoopId, Stmt};
use wasabi_lang::span::Span;

/// Index of a basic block within a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A flow-relevant element inside a basic block.
#[derive(Debug, Clone)]
pub enum Atom {
    /// A user-method call site.
    Call {
        /// Call id within the file.
        id: CallId,
        /// Called method name.
        method: String,
        /// Receiver class hint: `Some(class)` when the receiver is `this`
        /// (or implicit), `None` when it must be resolved by name.
        recv_this: bool,
        /// Source span of the call.
        span: Span,
    },
    /// A `sleep(...)` statement (a delay API call).
    Sleep {
        /// Source span.
        span: Span,
    },
    /// A `throw` statement of the given (syntactic) exception type, if the
    /// thrown expression is a `new E(...)`; rethrows are `None`.
    Throw {
        /// Exception type, when syntactically evident.
        exc_type: Option<String>,
        /// Source span.
        span: Span,
    },
}

/// A basic block.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock {
    /// Flow-relevant atoms in order.
    pub atoms: Vec<Atom>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Loops enclosing this block, outermost first.
    pub loops: Vec<LoopId>,
    /// Set when this block is the header of a loop.
    pub loop_header: Option<LoopId>,
    /// Set when this block is the entry of a `catch (E ...)` handler.
    pub catch_entry: Option<String>,
}

/// A method's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// Builds the CFG of a method body of `ast`.
    pub fn build(ast: &Ast, body: &AstBlock) -> Cfg {
        let mut builder = Builder {
            ast,
            blocks: vec![BasicBlock::default()],
        };
        let entry = BlockId(0);
        let ctx = Ctx {
            break_to: None,
            continue_to: None,
            loops: Vec::new(),
        };
        builder.lower_block(body, entry, &ctx);
        Cfg {
            blocks: builder.blocks,
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// All blocks reachable from `from` (inclusive) following successor
    /// edges.
    pub fn reachable_from(&self, from: BlockId) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![from];
        let mut out = Vec::new();
        while let Some(block) = stack.pop() {
            let idx = block.0 as usize;
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            out.push(block);
            for succ in &self.blocks[idx].succs {
                if !seen[succ.0 as usize] {
                    stack.push(*succ);
                }
            }
        }
        out
    }

    /// Whether the header block of `loop_id` is reachable from `from`.
    pub fn header_reachable_from(&self, from: BlockId, loop_id: LoopId) -> bool {
        self.reachable_from(from).into_iter().any(|b| {
            self.blocks[b.0 as usize].loop_header == Some(loop_id)
        })
    }

    /// Catch-entry blocks that lie inside `loop_id`, with their exception
    /// types.
    pub fn catches_in_loop(&self, loop_id: LoopId) -> Vec<(BlockId, &str)> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(idx, block)| {
                let ty = block.catch_entry.as_deref()?;
                if block.loops.contains(&loop_id) {
                    Some((BlockId(idx as u32), ty))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Blocks that lie inside `loop_id`.
    pub fn blocks_in_loop(&self, loop_id: LoopId) -> Vec<BlockId> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(idx, block)| {
                if block.loops.contains(&loop_id) || block.loop_header == Some(loop_id) {
                    Some(BlockId(idx as u32))
                } else {
                    None
                }
            })
            .collect()
    }
}

#[derive(Clone)]
struct Ctx {
    break_to: Option<BlockId>,
    continue_to: Option<BlockId>,
    loops: Vec<LoopId>,
}

struct Builder<'a> {
    ast: &'a Ast,
    blocks: Vec<BasicBlock>,
}

impl Builder<'_> {
    fn new_block(&mut self, ctx: &Ctx) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            loops: ctx.loops.clone(),
            ..BasicBlock::default()
        });
        id
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        let succs = &mut self.blocks[from.0 as usize].succs;
        if !succs.contains(&to) {
            succs.push(to);
        }
    }

    fn push_atom(&mut self, block: BlockId, atom: Atom) {
        self.blocks[block.0 as usize].atoms.push(atom);
    }

    /// Collects call and sleep atoms from an expression into `block`.
    fn expr_atoms(&mut self, block: BlockId, expr: ExprId) {
        let ast = self.ast;
        ast.walk_expr(expr, &mut |e| {
            if let Expr::Call {
                id,
                recv,
                method,
                span,
                ..
            } = e
            {
                let recv_this = match recv {
                    None => true,
                    Some(r) => matches!(ast[*r], Expr::This(_)),
                };
                self.blocks[block.0 as usize].atoms.push(Atom::Call {
                    id: *id,
                    method: ast[*method].to_string(),
                    recv_this,
                    span: *span,
                });
            }
        });
    }

    fn stmt_atoms(&mut self, block: BlockId, stmt: &Stmt) {
        match stmt {
            Stmt::Var { init, .. } => self.expr_atoms(block, *init),
            Stmt::Assign { value, .. } => self.expr_atoms(block, *value),
            Stmt::Sleep { ms, span } => {
                self.expr_atoms(block, *ms);
                self.push_atom(block, Atom::Sleep { span: *span });
            }
            Stmt::Log { expr, .. } | Stmt::Expr { expr, .. } => self.expr_atoms(block, *expr),
            Stmt::Assert { cond, msg, .. } => {
                self.expr_atoms(block, *cond);
                if let Some(msg) = msg {
                    self.expr_atoms(block, *msg);
                }
            }
            Stmt::Throw { expr, span } => {
                self.expr_atoms(block, *expr);
                let exc_type = match self.ast[*expr] {
                    Expr::New { class, .. } => Some(self.ast[class].to_string()),
                    _ => None,
                };
                self.push_atom(block, Atom::Throw {
                    exc_type,
                    span: *span,
                });
            }
            Stmt::Return { expr: Some(expr), .. } => self.expr_atoms(block, *expr),
            _ => {}
        }
    }

    /// Lowers `stmts` starting in `current`; returns the block where control
    /// continues (possibly a fresh unreachable block after a terminator).
    fn lower_block(&mut self, block: &AstBlock, mut current: BlockId, ctx: &Ctx) -> BlockId {
        let ast = self.ast;
        for stmt in ast.stmts_in(block) {
            current = self.lower_stmt(stmt, current, ctx);
        }
        current
    }

    fn lower_stmt(&mut self, stmt: &Stmt, current: BlockId, ctx: &Ctx) -> BlockId {
        let ast = self.ast;
        match stmt {
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.expr_atoms(current, *cond);
                let then_entry = self.new_block(ctx);
                let join = self.new_block(ctx);
                self.edge(current, then_entry);
                let then_end = self.lower_block(then_blk, then_entry, ctx);
                self.edge(then_end, join);
                match else_blk {
                    Some(else_blk) => {
                        let else_entry = self.new_block(ctx);
                        self.edge(current, else_entry);
                        let else_end = self.lower_block(else_blk, else_entry, ctx);
                        self.edge(else_end, join);
                    }
                    None => self.edge(current, join),
                }
                join
            }
            Stmt::While { id, cond, body, .. } => {
                let mut loops = ctx.loops.clone();
                loops.push(*id);
                let header_ctx = Ctx {
                    loops: loops.clone(),
                    ..ctx.clone()
                };
                let header = self.new_block(&header_ctx);
                self.blocks[header.0 as usize].loop_header = Some(*id);
                self.expr_atoms(header, *cond);
                let after = self.new_block(ctx);
                let body_entry = self.new_block(&header_ctx);
                self.edge(current, header);
                self.edge(header, body_entry);
                self.edge(header, after);
                let body_ctx = Ctx {
                    break_to: Some(after),
                    continue_to: Some(header),
                    loops,
                };
                let body_end = self.lower_block(body, body_entry, &body_ctx);
                self.edge(body_end, header);
                after
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
                    self.stmt_atoms(current, &ast[*init]);
                }
                let mut loops = ctx.loops.clone();
                loops.push(*id);
                let header_ctx = Ctx {
                    loops: loops.clone(),
                    ..ctx.clone()
                };
                let header = self.new_block(&header_ctx);
                self.blocks[header.0 as usize].loop_header = Some(*id);
                if let Some(cond) = cond {
                    self.expr_atoms(header, *cond);
                }
                let after = self.new_block(ctx);
                let body_entry = self.new_block(&header_ctx);
                let latch = self.new_block(&header_ctx);
                if let Some(update) = update {
                    self.stmt_atoms(latch, &ast[*update]);
                }
                self.edge(current, header);
                self.edge(header, body_entry);
                self.edge(header, after);
                self.edge(latch, header);
                let body_ctx = Ctx {
                    break_to: Some(after),
                    continue_to: Some(latch),
                    loops,
                };
                let body_end = self.lower_block(body, body_entry, &body_ctx);
                self.edge(body_end, latch);
                after
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => {
                self.expr_atoms(current, *scrutinee);
                let join = self.new_block(ctx);
                for case in &ast[*cases] {
                    let entry = self.new_block(ctx);
                    self.edge(current, entry);
                    let end = self.lower_block(&case.body, entry, ctx);
                    self.edge(end, join);
                }
                match default {
                    Some(default) => {
                        let entry = self.new_block(ctx);
                        self.edge(current, entry);
                        let end = self.lower_block(default, entry, ctx);
                        self.edge(end, join);
                    }
                    None => self.edge(current, join),
                }
                join
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                let body_entry = self.new_block(ctx);
                self.edge(current, body_entry);
                let join = self.new_block(ctx);
                let body_end = self.lower_block(body, body_entry, ctx);
                self.edge(body_end, join);
                for catch in &ast[*catches] {
                    let entry = self.new_block(ctx);
                    self.blocks[entry.0 as usize].catch_entry = Some(ast[catch.exc_type].to_string());
                    // Over-approximate exceptional edge: the whole try body
                    // may transfer to the handler.
                    self.edge(body_entry, entry);
                    let end = self.lower_block(&catch.body, entry, ctx);
                    self.edge(end, join);
                }
                match finally {
                    Some(finally) => {
                        let fin_entry = self.new_block(ctx);
                        self.edge(join, fin_entry);
                        self.lower_block(finally, fin_entry, ctx)
                    }
                    None => join,
                }
            }
            Stmt::Break { .. } => {
                if let Some(target) = ctx.break_to {
                    self.edge(current, target);
                }
                // Control never falls through; start a fresh block with no
                // predecessors for any trailing (unreachable) statements.
                self.new_block(ctx)
            }
            Stmt::Continue { .. } => {
                if let Some(target) = ctx.continue_to {
                    self.edge(current, target);
                }
                self.new_block(ctx)
            }
            Stmt::Return { .. } => {
                self.stmt_atoms(current, stmt);
                self.new_block(ctx)
            }
            Stmt::Throw { .. } => {
                self.stmt_atoms(current, stmt);
                self.new_block(ctx)
            }
            other => {
                self.stmt_atoms(current, other);
                current
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::ast::Item;
    use wasabi_lang::parser::parse_file;

    fn method_cfg(src: &str) -> Cfg {
        let ast = parse_file(src).expect("parse");
        let Some(Item::Class(class)) = ast.items().last() else {
            panic!("last item should be a class");
        };
        Cfg::build(&ast, &ast[class.methods][0].body)
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = method_cfg("class C { method m() { var a = 1; var b = a + 2; return b; } }");
        // Entry plus the fresh block after `return`.
        assert_eq!(cfg.blocks.len(), 2);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn if_has_two_paths_to_join() {
        let cfg = method_cfg(
            "class C { method m(x) { if (x > 0) { log(\"a\"); } else { log(\"b\"); } return x; } }",
        );
        let entry = cfg.entry();
        assert_eq!(cfg.blocks[entry.0 as usize].succs.len(), 2);
    }

    #[test]
    fn loop_header_reachable_from_body() {
        let cfg = method_cfg(
            "class C { method m() { while (true) { log(\"x\"); } return 1; } }",
        );
        let header = cfg
            .blocks
            .iter()
            .position(|b| b.loop_header.is_some())
            .expect("header");
        // The body block loops back to the header.
        let body_blocks = cfg.blocks_in_loop(LoopId(0));
        assert!(body_blocks.len() >= 2);
        assert!(cfg.header_reachable_from(BlockId(header as u32), LoopId(0)));
    }

    #[test]
    fn catch_inside_loop_reaches_header_when_falling_through() {
        let cfg = method_cfg(
            "exception E;\n\
             class C { method m() {\n\
               for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                 try { this.connect(); return 1; } catch (E e) { log(\"again\"); }\n\
               }\n\
               return 0;\n\
             } }",
        );
        let catches = cfg.catches_in_loop(LoopId(0));
        assert_eq!(catches.len(), 1);
        assert!(cfg.header_reachable_from(catches[0].0, LoopId(0)));
    }

    #[test]
    fn catch_that_breaks_does_not_reach_header() {
        let cfg = method_cfg(
            "exception E;\n\
             class C { method m() {\n\
               for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                 try { this.connect(); return 1; } catch (E e) { break; }\n\
               }\n\
               return 0;\n\
             } }",
        );
        let catches = cfg.catches_in_loop(LoopId(0));
        assert_eq!(catches.len(), 1);
        assert!(!cfg.header_reachable_from(catches[0].0, LoopId(0)));
    }

    #[test]
    fn catch_that_returns_does_not_reach_header() {
        let cfg = method_cfg(
            "exception E;\n\
             class C { method m() {\n\
               while (true) {\n\
                 try { this.connect(); } catch (E e) { return null; }\n\
               }\n\
             } }",
        );
        let catches = cfg.catches_in_loop(LoopId(0));
        assert!(!cfg.header_reachable_from(catches[0].0, LoopId(0)));
    }

    #[test]
    fn boolean_flag_break_still_counts_as_reaching() {
        // The known syntactic blind spot (paper §4.3): the catch sets a flag
        // that later always breaks, but the CFG keeps both if-edges.
        let cfg = method_cfg(
            "exception FileNotFoundException extends Exception;\n\
             class C { method m() {\n\
               var caught = false;\n\
               while (true) {\n\
                 try { this.open(); } catch (FileNotFoundException e) { caught = true; }\n\
                 if (caught) { break; }\n\
               }\n\
             } }",
        );
        let catches = cfg.catches_in_loop(LoopId(0));
        assert!(cfg.header_reachable_from(catches[0].0, LoopId(0)));
    }

    #[test]
    fn continue_in_catch_reaches_header() {
        let cfg = method_cfg(
            "exception E;\n\
             class C { method m() {\n\
               for (var retry = 0; retry < 9; retry = retry + 1) {\n\
                 try { this.go(); } catch (E e) { continue; }\n\
                 break;\n\
               }\n\
             } }",
        );
        let catches = cfg.catches_in_loop(LoopId(0));
        assert!(cfg.header_reachable_from(catches[0].0, LoopId(0)));
    }

    #[test]
    fn call_atoms_capture_sites_and_receivers() {
        let cfg = method_cfg(
            "class C { method m(o) { this.a(); o.b(); c(); } }",
        );
        let mut calls = Vec::new();
        for block in &cfg.blocks {
            for atom in &block.atoms {
                if let Atom::Call {
                    method, recv_this, ..
                } = atom
                {
                    calls.push((method.clone(), *recv_this));
                }
            }
        }
        assert_eq!(
            calls,
            vec![
                ("a".to_string(), true),
                ("b".to_string(), false),
                ("c".to_string(), true),
            ]
        );
    }

    #[test]
    fn sleep_atoms_inside_loops() {
        let cfg = method_cfg(
            "class C { method m() { while (true) { sleep(100); } } }",
        );
        let in_loop = cfg.blocks_in_loop(LoopId(0));
        let has_sleep = in_loop.iter().any(|b| {
            cfg.blocks[b.0 as usize]
                .atoms
                .iter()
                .any(|a| matches!(a, Atom::Sleep { .. }))
        });
        assert!(has_sleep);
    }

    #[test]
    fn nested_loops_track_loop_stack() {
        let cfg = method_cfg(
            "class C { method m() { while (true) { while (false) { log(\"x\"); } } } }",
        );
        let inner_blocks = cfg.blocks_in_loop(LoopId(1));
        assert!(!inner_blocks.is_empty());
        // Inner-loop body blocks are also inside the outer loop.
        let inner_body = inner_blocks
            .iter()
            .find(|b| cfg.blocks[b.0 as usize].loops.len() == 2)
            .expect("inner body block");
        assert_eq!(cfg.blocks[inner_body.0 as usize].loops, vec![LoopId(0), LoopId(1)]);
    }

    #[test]
    fn throw_atom_records_syntactic_type() {
        let cfg = method_cfg(
            "exception E;\nclass C { method m(e2) throws E { if (true) { throw new E(\"x\"); } throw e2; } }",
        );
        let mut throws = Vec::new();
        for block in &cfg.blocks {
            for atom in &block.atoms {
                if let Atom::Throw { exc_type, .. } = atom {
                    throws.push(exc_type.clone());
                }
            }
        }
        assert_eq!(throws, vec![Some("E".to_string()), None]);
    }

    /// Shared exceptional-edge invariants: every successor edge is in
    /// bounds, every catch-entry block has at least one predecessor (the
    /// exceptional edge from the try body), and every catch entry is
    /// reachable from the method entry.
    fn assert_exceptional_invariants(cfg: &Cfg, context: &str) {
        let n = cfg.blocks.len();
        let mut preds = vec![0usize; n];
        for block in &cfg.blocks {
            for succ in &block.succs {
                assert!((succ.0 as usize) < n, "{context}: edge out of bounds");
                preds[succ.0 as usize] += 1;
            }
        }
        let reachable: std::collections::HashSet<BlockId> =
            cfg.reachable_from(cfg.entry()).into_iter().collect();
        for (i, block) in cfg.blocks.iter().enumerate() {
            if block.catch_entry.is_some() {
                assert!(
                    preds[i] > 0,
                    "{context}: catch entry {i} has no exceptional predecessor"
                );
                assert!(
                    reachable.contains(&BlockId(i as u32)),
                    "{context}: catch entry {i} unreachable from method entry"
                );
            }
        }
    }

    #[test]
    fn catch_entries_have_exceptional_predecessors() {
        let cfg = method_cfg(
            "exception E;\nexception F;\nclass C { method m() {\n\
                 try {\n\
                   try { this.a(); } catch (E e) { log(\"inner\"); }\n\
                   this.b();\n\
                 } catch (F f) { log(\"outer\"); }\n\
                 return 1;\n\
             } }",
        );
        let entries = cfg
            .blocks
            .iter()
            .filter(|b| b.catch_entry.is_some())
            .count();
        assert_eq!(entries, 2);
        assert_exceptional_invariants(&cfg, "nested try/catch");
    }

    #[test]
    fn catch_after_throwing_body_keeps_invariants() {
        // The try body unconditionally throws; the handler must still be
        // wired from inside the body, not from the (dead) fallthrough.
        let cfg = method_cfg(
            "exception E;\nclass C { method m() {\n\
                 while (true) {\n\
                   try { throw new E(\"x\"); } catch (E e) { log(\"again\"); }\n\
                 }\n\
             } }",
        );
        assert_exceptional_invariants(&cfg, "throwing body");
        let catches = cfg.catches_in_loop(LoopId(0));
        assert_eq!(catches.len(), 1);
        assert!(cfg.header_reachable_from(catches[0].0, LoopId(0)));
    }

    #[test]
    fn finally_and_multi_catch_keep_invariants() {
        let cfg = method_cfg(
            "exception E;\nexception F;\nclass C { method m(x) {\n\
                 try {\n\
                   if (x > 0) { this.a(); } else { this.b(); }\n\
                 } catch (E e) { return 1; }\n\
                 catch (F f) { log(\"f\"); }\n\
                 finally { log(\"cleanup\"); }\n\
                 return 2;\n\
             } }",
        );
        let entries: Vec<&str> = cfg
            .blocks
            .iter()
            .filter_map(|b| b.catch_entry.as_deref())
            .collect();
        assert_eq!(entries, vec!["E", "F"]);
        assert_exceptional_invariants(&cfg, "multi-catch with finally");
    }
}
