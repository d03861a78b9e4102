//! Randomized property tests over the language front end, the CFG, the
//! planner, and the simulated LLM's text reader, driven by the in-repo
//! seeded PRNG (`wasabi::util::Rng`) so the suite needs no external
//! framework and every failure is reproducible from the printed seed.
//! Part of the default `cargo test` run.

use wasabi::llm::simulated::{read, TextSignals};
use wasabi::util::Rng;

/// The simulated LLM's reader before the one-pass scanner, kept as the
/// test oracle; it reaches `read` and `TextSignals` through this module.
#[path = "../crates/llm/src/simulated/oracle.rs"]
mod oracle;

// ---- Source generators -----------------------------------------------------

/// A small expression in concrete syntax.
fn gen_expr(rng: &mut Rng, depth: u32) -> String {
    let leaf = |rng: &mut Rng| match rng.below(7) {
        0 => rng.below(1000).to_string(),
        1 => "true".to_string(),
        2 => "false".to_string(),
        3 => "null".to_string(),
        4 => "x".to_string(),
        5 => "this.f".to_string(),
        _ => "\"lit\"".to_string(),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(5) {
        0 => leaf(rng),
        1 => {
            let a = gen_expr(rng, depth - 1);
            let b = gen_expr(rng, depth - 1);
            let op = *rng.pick(&["+", "-", "*", "==", "!=", "<", ">=", "&&", "||"]);
            // Logical operators need boolean operands at run time, but
            // parsing/printing does not evaluate, so any shape is fine.
            format!("({a} {op} {b})")
        }
        2 => format!("!({})", gen_expr(rng, depth - 1)),
        3 => format!("this.m({})", gen_expr(rng, depth - 1)),
        _ => {
            let a = gen_expr(rng, depth - 1);
            let b = gen_expr(rng, depth - 1);
            format!("this.g({a}, {b})")
        }
    }
}

/// A statement in concrete syntax.
fn gen_stmt(rng: &mut Rng, depth: u32) -> String {
    let simple = |rng: &mut Rng| match rng.below(8) {
        0 => format!("var v = {};", gen_expr(rng, 2)),
        1 => format!("x = {};", gen_expr(rng, 2)),
        2 => format!("log({});", gen_expr(rng, 2)),
        3 => format!("sleep(5);\n log({});", gen_expr(rng, 2)),
        4 => format!("return {};", gen_expr(rng, 2)),
        5 => "break;".to_string(),
        6 => "continue;".to_string(),
        _ => "throw new E(\"boom\");".to_string(),
    };
    if depth == 0 {
        return simple(rng);
    }
    match rng.below(6) {
        0 => simple(rng),
        1 => {
            let c = gen_expr(rng, 2);
            let a = gen_stmt(rng, depth - 1);
            let b = gen_stmt(rng, depth - 1);
            format!("if ({c}) {{ {a} }} else {{ {b} }}")
        }
        2 => {
            let c = gen_expr(rng, 2);
            let s = gen_stmt(rng, depth - 1);
            format!("while ({c}) {{ {s} }}")
        }
        3 => {
            let c = gen_expr(rng, 2);
            let s = gen_stmt(rng, depth - 1);
            format!("for (var i = 0; {c}; i = i + 1) {{ {s} }}")
        }
        4 => {
            let a = gen_stmt(rng, depth - 1);
            let b = gen_stmt(rng, depth - 1);
            format!("try {{ {a} }} catch (E e) {{ {b} }}")
        }
        _ => {
            let c = gen_expr(rng, 2);
            let a = gen_stmt(rng, depth - 1);
            let b = gen_stmt(rng, depth - 1);
            format!("switch ({c}) {{ case 1: {{ {a} }} default: {{ {b} }} }}")
        }
    }
}

fn gen_file(rng: &mut Rng) -> String {
    let count = rng.range(1, 6) as usize;
    let stmts: Vec<String> = (0..count).map(|_| gen_stmt(rng, 3)).collect();
    format!(
        "exception E;\nclass C {{\n  field f = 0;\n  method m(x) {{\n    {}\n  }}\n  method g(a, b) {{ return a; }}\n}}\n",
        stmts.join("\n    ")
    )
}

/// An arbitrary (mostly garbage) input string for totality tests: a mix of
/// ASCII printables, language punctuation, and a few multi-byte chars.
fn gen_garbage(rng: &mut Rng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'z', 'A', 'Z', '0', '9', '_', ' ', '\n', '\t', '{', '}', '(', ')', ';', '"', '\\',
        '+', '-', '*', '/', '<', '>', '=', '!', '&', '|', '.', ',', ':', '\'', '\u{e9}',
        '\u{2603}', '\u{1f980}',
    ];
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len).map(|_| *rng.pick(POOL)).collect()
}

// ---- Front-end properties --------------------------------------------------

/// The lexer never panics: its stream either reaches the end or reports
/// an error, making progress on every token.
#[test]
fn lexer_total_on_arbitrary_input() {
    use wasabi::lang::lexer::Lexer;
    use wasabi::lang::token::TokenKind;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x1_e7e5_0000 + case);
        let input = gen_garbage(&mut rng, 200);
        let mut lexer = Lexer::new(&input);
        let mut last_end = 0;
        while let Ok(token) = lexer.next_token() {
            if token.kind == TokenKind::Eof {
                break;
            }
            assert!(token.span.end > last_end, "[case {case}] no progress");
            last_end = token.span.end;
        }
    }
}

/// The parser never panics on arbitrary input, including input nested far
/// past the nesting bound and very long operator and receiver chains,
/// which get a diagnostic instead of overflowing the stack.
#[test]
fn parser_total_on_arbitrary_input() {
    use wasabi::lang::parser::{parse_file, MAX_DEPTH};
    for case in 0..128u64 {
        let mut rng = Rng::new(0x9_a25e_0000 + case);
        let input = gen_garbage(&mut rng, 300);
        let _ = parse_file(&input);
    }
    let max = MAX_DEPTH as usize;
    let units = [
        "(", "!", "-", "{ ", "if (x) { ", "while (x) { ", "try { ", "x.", "f(", "1 + ", "a && ",
        "x instanceof T || ", "new T(", "if (x) { } else ",
    ];
    for (case, unit) in units.into_iter().enumerate() {
        let mut rng = Rng::new(0xdee9_0000 + case as u64);
        for depth in [max - 1, max, max + 1, 50_000] {
            let tail = gen_garbage(&mut rng, 40);
            let input = format!("class C {{ method m() {{ {}x{tail} }} }}", unit.repeat(depth));
            let _ = parse_file(&input);
        }
    }
}

/// Printing is a fixed point through the parser: print(parse(print(p)))
/// equals print(p) for every generated program.
#[test]
fn printer_roundtrip_fixed_point() {
    use wasabi::lang::parser::parse_file;
    use wasabi::lang::printer::print_items;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x9021_0000 + case);
        let source = gen_file(&mut rng);
        let ast = parse_file(&source)
            .unwrap_or_else(|e| panic!("[case {case}] generated source failed to parse: {e}"));
        let printed = print_items(&ast);
        let reparsed = parse_file(&printed).unwrap_or_else(|e| {
            panic!("[case {case}] printed source failed to parse: {e}\n{printed}")
        });
        let reprinted = print_items(&reparsed);
        assert_eq!(printed, reprinted, "[case {case}] printer not a fixed point");
    }
}

/// One parse scratch, fed a random sequence of corpus files mixed with
/// broken ones, gives for every file exactly what a fresh parse gives:
/// the same AST (printed, and its `Debug`), or the same error. The broken
/// files fail after the scratch has taken nodes and names from them: an
/// error in the middle of a block, an unterminated string at the end (a
/// lexer error), and a method nested past `MAX_DEPTH`; the empty file has
/// nothing to take.
#[test]
fn a_parse_scratch_carries_nothing_from_one_file_to_the_next() {
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::{append_policy_seeds, generate_app_with_amp};
    use wasabi::lang::parser::{ParseScratch, MAX_DEPTH};
    use wasabi::lang::printer::print_items;
    use wasabi::lang::project::SourceFile;
    let mut pool: Vec<(String, String)> = Vec::new();
    for spec in paper_apps() {
        let mut app = generate_app_with_amp(&spec, Scale::Small);
        append_policy_seeds(&mut app);
        let step = (app.files.len() / 4).max(1);
        pool.extend(app.files.iter().step_by(step).cloned());
    }
    let deep = "(".repeat(MAX_DEPTH as usize);
    for at in 0..pool.len() {
        let (path, source) = pool[at].clone();
        let mid = source.len() / 2;
        let block = source.as_bytes()[mid..].iter().position(|&b| b == b'{');
        let block = block.map(|open| mid + open);
        let broken = match (at % 3, block) {
            (0, Some(open)) => format!("{}{{ x = ; {}", &source[..open], &source[open + 1..]),
            (0 | 1, _) => format!("{source}\nconfig \"k\" default \"open"),
            _ => format!("{source}\nclass Deep {{ method m() {{ return {deep}1; }} }}"),
        };
        pool.push((format!("broken-{path}"), broken));
    }
    pool.push(("empty.jav".to_string(), String::new()));
    let mut scratch = ParseScratch::default();
    let mut rng = Rng::new(0x5c7a_7c40);
    let mut errors = std::collections::BTreeSet::new();
    for case in 0..300 {
        let (path, source) = &pool[rng.below(pool.len() as u64) as usize];
        let reused = SourceFile::parse_in(&mut scratch, path.as_str(), source.as_str());
        let fresh = SourceFile::parse(path.as_str(), source.as_str());
        match (reused, fresh) {
            (Ok(reused), Ok(fresh)) => {
                assert_eq!(print_items(&reused), print_items(&fresh), "[case {case}] {path}");
                assert_eq!(
                    format!("{:?}", reused.ast),
                    format!("{:?}", fresh.ast),
                    "[case {case}] {path}"
                );
            }
            (Err(reused), Err(fresh)) => {
                assert_eq!(reused, fresh, "[case {case}] {path}");
                errors.insert(reused.message);
            }
            (reused, fresh) => panic!(
                "[case {case}] {path}: reused {:?}, fresh {:?}",
                reused.map(|_| ()),
                fresh.map(|_| ())
            ),
        }
    }
    for message in [
        "expected expression, found `;`",
        "unterminated string literal",
        "nesting deeper than 256 levels",
    ] {
        assert!(errors.contains(message), "no `{message}` in {errors:?}");
    }
}

/// Walks a parsed file from its items by id and counts how often each
/// statement and expression is reached. Independent of the AST's own
/// walkers: it follows every id a node holds, `for` headers and
/// assignment-target receivers included.
struct LayoutCheck<'a> {
    ast: &'a wasabi::lang::ast::Ast,
    stmts: Vec<u32>,
    exprs: Vec<u32>,
}

impl LayoutCheck<'_> {
    fn block(&mut self, block: &wasabi::lang::ast::Block) {
        for &id in &self.ast[block.stmts] {
            self.stmt(id);
        }
    }

    fn stmt(&mut self, id: wasabi::lang::ast::StmtId) {
        use wasabi::lang::ast::{LValue, Stmt};
        assert!((id.0 as usize) < self.ast.stmt_count(), "statement {id:?} out of range");
        self.stmts[id.0 as usize] += 1;
        let ast = self.ast;
        match ast[id] {
            Stmt::Var { init, .. } => self.expr(init),
            Stmt::Assign { target, value, .. } => {
                if let LValue::Field { recv, .. } = target {
                    self.expr(recv);
                }
                self.expr(value);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.expr(cond);
                self.block(&then_blk);
                if let Some(else_blk) = else_blk {
                    self.block(&else_blk);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.expr(cond);
                self.block(&body);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                init.into_iter().for_each(|s| self.stmt(s));
                cond.into_iter().for_each(|e| self.expr(e));
                update.into_iter().for_each(|s| self.stmt(s));
                self.block(&body);
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => {
                self.expr(scrutinee);
                for case in &ast[cases] {
                    self.block(&case.body);
                }
                if let Some(default) = default {
                    self.block(&default);
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                self.block(&body);
                for catch in &ast[catches] {
                    self.block(&catch.body);
                }
                if let Some(finally) = finally {
                    self.block(&finally);
                }
            }
            Stmt::Throw { expr, .. } | Stmt::Log { expr, .. } | Stmt::Expr { expr, .. } => {
                self.expr(expr)
            }
            Stmt::Return { expr, .. } => expr.into_iter().for_each(|e| self.expr(e)),
            Stmt::Sleep { ms, .. } => self.expr(ms),
            Stmt::Assert { cond, msg, .. } => {
                self.expr(cond);
                msg.into_iter().for_each(|e| self.expr(e));
            }
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }

    fn expr(&mut self, id: wasabi::lang::ast::ExprId) {
        use wasabi::lang::ast::{Expr, Lit};
        assert!((id.0 as usize) < self.ast.expr_count(), "expression {id:?} out of range");
        self.exprs[id.0 as usize] += 1;
        let ast = self.ast;
        match ast[id] {
            Expr::Literal(Lit::Str(name), _) | Expr::Ident(name, _) => {
                assert!((name.0 as usize) < ast.names().len(), "name {name:?} out of range");
            }
            Expr::Literal(..) | Expr::This(_) => {}
            Expr::Field { recv, .. } => self.expr(recv),
            Expr::Call { recv, args, .. } => {
                recv.into_iter().for_each(|e| self.expr(e));
                for &arg in &ast[args] {
                    self.expr(arg);
                }
            }
            Expr::New { args, .. } => {
                for &arg in &ast[args] {
                    self.expr(arg);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Unary { expr, .. } | Expr::InstanceOf { expr, .. } => self.expr(expr),
        }
    }
}

/// Every id and child run of a parsed file is in range, and every
/// statement and expression is reachable exactly once from the items:
/// no node is shared, and none is left dead (an expression turned into an
/// assignment target leaves nothing behind).
fn check_layout(ast: &wasabi::lang::ast::Ast, what: &str) {
    let mut check = LayoutCheck {
        ast,
        stmts: vec![0; ast.stmt_count()],
        exprs: vec![0; ast.expr_count()],
    };
    for class in ast.classes() {
        for field in &ast[class.fields] {
            field.init.into_iter().for_each(|e| check.expr(e));
        }
        for method in &ast[class.methods] {
            for &name in ast[method.params].iter().chain(&ast[method.throws]) {
                assert!((name.0 as usize) < ast.names().len(), "{what}: name out of range");
            }
            check.block(&method.body);
        }
    }
    let bad_stmt = check.stmts.iter().position(|&n| n != 1);
    let bad_expr = check.exprs.iter().position(|&n| n != 1);
    assert_eq!(bad_stmt, None, "{what}: a statement is not reached exactly once");
    assert_eq!(bad_expr, None, "{what}: an expression is not reached exactly once");
}

#[test]
fn flat_ast_nodes_are_in_range_and_reachable_once() {
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::{append_policy_seeds, generate_app_with_amp};
    use wasabi::lang::parser::parse_file;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x1a_7000 + case);
        let source = gen_file(&mut rng);
        let ast = parse_file(&source).expect("generated source parses");
        check_layout(&ast, &format!("case {case}"));
    }
    // Assignments to fields and locals in every header position.
    let ast = parse_file(
        "class C { field f = this.g(1).h; method m(o) { this.f = 1; (o.p).q = (2); x = 3; \
         for (i = 0; i < 3; o.n = i) { } for (var j = 0; ; j = j + 1) { break; } } }",
    )
    .expect("parses");
    check_layout(&ast, "assignment targets");
    for spec in paper_apps() {
        let mut app = generate_app_with_amp(&spec, Scale::Small);
        append_policy_seeds(&mut app);
        for (path, source) in &app.files {
            let ast = parse_file(source).unwrap_or_else(|e| panic!("{path}: {e}"));
            check_layout(&ast, path);
        }
    }
}

/// Walks a compiled program's lowered IR by id from every method body and
/// every distinct field initializer (subclasses share their base's), and
/// counts how often each lowered statement and expression is reached.
/// Independent of the index's own walkers: it follows every id a node
/// holds, `for` headers included, and checks every id it meets against
/// the table it indexes.
struct IrLayoutCheck<'a> {
    project: &'a wasabi::lang::project::Project,
    stmts: Vec<u32>,
    exprs: Vec<u32>,
    /// Local slots of the body being walked (none in an initializer).
    slots: u32,
}

impl IrLayoutCheck<'_> {
    fn block(&mut self, block: wasabi::lang::index::LBlock) {
        let index = self.project.index();
        for &id in &index[block] {
            self.stmt(id);
        }
    }

    fn slot(&self, slot: u32) {
        assert!(slot < self.slots, "slot {slot} out of range ({})", self.slots);
    }

    fn sym(&self, sym: wasabi::lang::intern::Symbol) {
        let n = self.project.index().interner.len();
        assert!(sym.index() < n, "symbol {sym:?} out of range");
    }

    fn exc(&self, exc: wasabi::lang::index::ExcId) {
        let n = self.project.index().exceptions.len();
        assert!((exc.0 as usize) < n, "exception {exc:?} out of range");
    }

    fn class(&self, class: wasabi::lang::index::ClassId) {
        let n = self.project.index().classes.len();
        assert!((class.0 as usize) < n, "class {class:?} out of range");
    }

    fn stmt(&mut self, id: wasabi::lang::index::LStmtId) {
        use wasabi::lang::index::LStmt;
        let index = self.project.index();
        assert!((id.0 as usize) < index.stmt_count(), "statement {id:?} out of range");
        self.stmts[id.0 as usize] += 1;
        match index[id] {
            LStmt::Var { slot, init } => {
                self.slot(slot);
                self.expr(init);
            }
            LStmt::AssignLocal { slot, name, value } => {
                self.slot(slot);
                self.sym(name);
                self.expr(value);
            }
            LStmt::AssignField { recv, name, value } => {
                self.expr(recv);
                self.sym(name);
                self.expr(value);
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond);
                self.block(then_blk);
                else_blk.into_iter().for_each(|b| self.block(b));
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
                init.into_iter().for_each(|s| self.stmt(s));
                cond.into_iter().for_each(|e| self.expr(e));
                update.into_iter().for_each(|s| self.stmt(s));
                self.block(body);
            }
            LStmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                self.expr(scrutinee);
                for case in &index[cases] {
                    self.lit(case.lit);
                    self.block(case.body);
                }
                default.into_iter().for_each(|b| self.block(b));
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                self.block(body);
                for catch in &index[catches] {
                    self.exc(catch.exc);
                    self.slot(catch.binding);
                    self.block(catch.body);
                }
                finally.into_iter().for_each(|b| self.block(b));
            }
            LStmt::Throw { expr } | LStmt::Log { expr } | LStmt::Expr { expr } => self.expr(expr),
            LStmt::Sleep { ms } => self.expr(ms),
            LStmt::Return { expr } => expr.into_iter().for_each(|e| self.expr(e)),
            LStmt::Assert { cond, msg } => {
                self.expr(cond);
                msg.into_iter().for_each(|e| self.expr(e));
            }
            LStmt::Break | LStmt::Continue => {}
        }
    }

    fn lit(&self, lit: wasabi::lang::ast::Lit) {
        if let wasabi::lang::ast::Lit::Str(text) = lit {
            let _ = self.project.index().text(text);
        }
    }

    fn args(&mut self, args: wasabi::lang::ast::List<wasabi::lang::index::LExprId>) {
        let index = self.project.index();
        for &arg in &index[args] {
            self.expr(arg);
        }
    }

    fn expr(&mut self, id: wasabi::lang::index::LExprId) {
        use wasabi::lang::index::LExpr;
        let index = self.project.index();
        assert!((id.0 as usize) < index.expr_count(), "expression {id:?} out of range");
        self.exprs[id.0 as usize] += 1;
        match index[id] {
            LExpr::Literal(lit) => self.lit(lit),
            LExpr::Local { slot, name } => {
                self.slot(slot);
                self.sym(name);
            }
            LExpr::ImplicitField { name } => self.sym(name),
            LExpr::This => {}
            LExpr::Field { recv, name } => {
                self.expr(recv);
                self.sym(name);
            }
            LExpr::GlobalCall { name, args } => {
                self.sym(name);
                self.args(args);
            }
            LExpr::Call {
                site,
                recv,
                method,
                args,
            } => {
                assert!((site.file.0 as usize) < self.project.files.len(), "file out of range");
                recv.into_iter().for_each(|e| self.expr(e));
                self.sym(method);
                self.args(args);
            }
            LExpr::NewExc { exc, args } => {
                self.exc(exc);
                self.args(args);
            }
            LExpr::NewObj { class, args } => {
                self.class(class);
                self.args(args);
            }
            LExpr::NewUnknown { class, args } => {
                let _ = index.text(class);
                self.args(args);
            }
            LExpr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            LExpr::Unary { expr, .. } => self.expr(expr),
            LExpr::InstanceOf {
                expr,
                ty,
                exc,
                class,
            } => {
                self.expr(expr);
                self.sym(ty);
                exc.into_iter().for_each(|e| self.exc(e));
                class.into_iter().for_each(|c| self.class(c));
            }
        }
    }
}

/// Every id of a program's lowered IR is in range, the IR has exactly one
/// node per AST statement and expression, and every lowered node is
/// reachable exactly once from the method bodies and the distinct field
/// initializers: no node is shared between bodies, none is left dead, and
/// an inherited initializer is lowered once.
fn check_ir_layout(project: &wasabi::lang::project::Project, what: &str) {
    let index = project.index();
    let ast_stmts: usize = project.files.iter().map(|f| f.stmt_count()).sum();
    let ast_exprs: usize = project.files.iter().map(|f| f.expr_count()).sum();
    assert_eq!(index.stmt_count(), ast_stmts, "{what}: one lowered statement per AST statement");
    assert_eq!(index.expr_count(), ast_exprs, "{what}: one lowered expression per AST expression");
    let mut check = IrLayoutCheck {
        project,
        stmts: vec![0; index.stmt_count()],
        exprs: vec![0; index.expr_count()],
        slots: 0,
    };
    for method in &index.methods {
        check.slots = method.n_slots;
        check.block(method.body);
    }
    let mut inits: Vec<_> = index
        .classes
        .iter()
        .flat_map(|class| class.inits.iter().map(|init| init.expr))
        .collect();
    inits.sort_unstable();
    inits.dedup();
    check.slots = 0;
    for init in inits {
        check.expr(init);
    }
    let bad_stmt = check.stmts.iter().position(|&n| n != 1);
    let bad_expr = check.exprs.iter().position(|&n| n != 1);
    assert_eq!(bad_stmt, None, "{what}: a lowered statement is not reached exactly once");
    assert_eq!(bad_expr, None, "{what}: a lowered expression is not reached exactly once");
}

#[test]
fn flat_ir_nodes_are_in_range_and_reachable_once() {
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::{append_policy_seeds, compile_app, generate_app_with_amp};
    use wasabi::lang::project::Project;
    let mut compiled = 0;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x1f_7000 + case);
        let source = gen_file(&mut rng);
        if let Ok(project) = Project::compile("p", vec![("f.jav", source)]) {
            check_ir_layout(&project, &format!("case {case}"));
            compiled += 1;
        }
    }
    assert!(compiled > 64, "only {compiled} of 128 generated programs compiled");
    // Every node kind, inherited and shadowed initializers, `for` headers,
    // string switches, and classes declared before their parents.
    let project = Project::compile(
        "kinds",
        vec![
            (
                "a.jav",
                "exception E;\n\
                 class D extends B { field d = new B(); field b = \"s\"; \
                   method m(o) { var x = 1; for (i = 0; i < 3; i = i + 1) { x = x + i; } \
                     for (var j = o; ; o.n = j) { break; } \
                     switch (o) { case \"k\": { log(o); } case 2: { continue; } default: { sleep(1); } } \
                     try { this.f(x, -x); } catch (E e) { throw e; } finally { assert(!false, \"m\"); } \
                     if (o instanceof E || o instanceof B) { return new Missing(1); } \
                     while (x > 0) { x = max(x - 1, 0); } y = null; this.b = y; return this.d.b; } }",
            ),
            (
                "b.jav",
                "class B { field b = 1; field c = this.g(now()); method g(t) { return t; } \
                 method f(a, b) { return a; } }",
            ),
        ],
    )
    .expect("compiles");
    check_ir_layout(&project, "kinds");
    for spec in paper_apps() {
        let mut app = generate_app_with_amp(&spec, Scale::Small);
        append_policy_seeds(&mut app);
        check_ir_layout(&compile_app(&app), spec.short);
    }
}

/// A string literal's value: any Unicode scalar, weighted towards quotes,
/// backslashes, control characters, combining marks and multi-byte text.
fn gen_literal(rng: &mut Rng) -> String {
    let len = rng.below(24);
    (0..len)
        .map(|_| match rng.below(4) {
            0 => *rng.pick(&['"', '\\', '\n', '\t', '\r', '\0', '\u{1b}', '\u{7f}']),
            1 => *rng.pick(&['\u{e9}', '\u{301}', '\u{2603}', '\u{200b}', '\u{1f980}', '\u{10ffff}']),
            2 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

/// The values of every string literal in `source`, in order.
fn string_literals(source: &str) -> Vec<String> {
    use wasabi::lang::lexer::Lexer;
    use wasabi::lang::token::TokenKind;
    let mut lexer = Lexer::new(source);
    let mut values = Vec::new();
    loop {
        let token = lexer.next_token().unwrap_or_else(|e| panic!("{e}\n{source}"));
        match token.kind {
            TokenKind::Str(value) => values.push(lexer.names().get(value).to_string()),
            TokenKind::Eof => return values,
            _ => {}
        }
    }
}

/// A literal holding arbitrary UTF-8 lexes to exactly its value, and
/// printing then re-parsing the file keeps that value.
#[test]
fn string_literals_survive_print_and_parse() {
    use wasabi::lang::parser::parse_file;
    use wasabi::lang::printer::print_items;
    for case in 0..256u64 {
        let mut rng = Rng::new(0x5_7a1e_0000 + case);
        let value = gen_literal(&mut rng);
        // The lexer's own escapes, written independently of the printer.
        let mut quoted = String::new();
        for c in value.chars() {
            match c {
                '"' => quoted.push_str("\\\""),
                '\\' => quoted.push_str("\\\\"),
                '\n' => quoted.push_str("\\n"),
                c => quoted.push(c),
            }
        }
        let source = format!(
            "config \"{quoted}\" default \"{quoted}\";\nclass C {{\n  method m() {{\n    log(\"{quoted}\");\n  }}\n}}\n"
        );
        let expected = vec![value.clone(); 3];
        assert_eq!(string_literals(&source), expected, "[case {case}] lexed {value:?}");
        let ast = parse_file(&source).unwrap_or_else(|e| panic!("[case {case}] {e}"));
        let printed = print_items(&ast);
        assert_eq!(string_literals(&printed), expected, "[case {case}] printed:\n{printed}");
        let reparsed = parse_file(&printed).unwrap_or_else(|e| panic!("[case {case}] {e}"));
        assert_eq!(print_items(&reparsed), printed, "[case {case}] printer not a fixed point");
    }
}

/// CFG construction is total on generated programs, every edge targets a
/// valid block, and loop headers are unique per loop id.
#[test]
fn cfg_structural_invariants() {
    use wasabi::analysis::cfg::Cfg;
    use wasabi::lang::parser::parse_file;
    for case in 0..128u64 {
        let mut rng = Rng::new(0xcf9_0000 + case);
        let source = gen_file(&mut rng);
        let ast = parse_file(&source).expect("generated source parses");
        for class in ast.classes() {
            for method in &ast[class.methods] {
                let cfg = Cfg::build(&ast, &method.body);
                let blocks = cfg.blocks.len();
                let mut headers = std::collections::HashSet::new();
                for block in &cfg.blocks {
                    for succ in &block.succs {
                        assert!((succ.0 as usize) < blocks, "[case {case}] edge out of range");
                    }
                    if let Some(id) = block.loop_header {
                        assert!(headers.insert(id), "[case {case}] duplicate header for {id}");
                    }
                }
                // Reachability from the entry never escapes the graph.
                let reachable = cfg.reachable_from(cfg.entry());
                assert!(reachable.len() <= blocks, "[case {case}] reachability escaped");
            }
        }
    }
}

/// Retry-loop detection is deterministic and keyword filtering only
/// removes loops (never adds).
#[test]
fn keyword_filter_is_monotone() {
    use wasabi::analysis::loops::{find_retry_loops, LoopQueryOptions};
    use wasabi::analysis::resolve::ProjectIndex;
    use wasabi::lang::parser::parse_file;
    use wasabi::lang::project::Project;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x1007_0000 + case);
        let source = gen_file(&mut rng);
        let _ = parse_file(&source).expect("generated source parses");
        let Ok(project) = Project::compile("p", vec![("f.jav", source)]) else {
            continue; // e.g. `x = ...` before declaration; compile errors are fine
        };
        let index = ProjectIndex::build(&project);
        let with = find_retry_loops(&index, &LoopQueryOptions::default());
        let options = LoopQueryOptions {
            keyword_filter: false,
            ..LoopQueryOptions::default()
        };
        let without = find_retry_loops(&index, &options);
        assert!(with.len() <= without.len(), "[case {case}] filter added loops");
        let unfiltered: std::collections::HashSet<_> =
            without.iter().map(|l| (l.file, l.loop_id)).collect();
        for retry_loop in &with {
            assert!(
                unfiltered.contains(&(retry_loop.file, retry_loop.loop_id)),
                "[case {case}] filtered set is not a subset"
            );
        }
    }
}

// ---- Interning and slot-environment properties ------------------------------

/// A random identifier-ish string (the interner must also cope with
/// non-identifier text, so a few odd characters are mixed in).
fn gen_name(rng: &mut Rng) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', '_', '.', '<', '>', '\u{e9}',
    ];
    let len = rng.range(1, 12) as usize;
    (0..len).map(|_| *rng.pick(POOL)).collect()
}

/// `resolve(intern(s)) == s` over a generated corpus, interning is
/// idempotent (same symbol back), and distinct strings get distinct
/// symbols.
#[test]
fn interner_roundtrip_and_idempotence() {
    use std::collections::HashMap;
    use wasabi::lang::intern::Interner;
    for case in 0..64u64 {
        let mut rng = Rng::new(0x1_274e_0000 + case);
        let mut interner = Interner::new();
        let mut expected: HashMap<String, wasabi::lang::intern::Symbol> = HashMap::new();
        for _ in 0..rng.range(1, 300) {
            let name = gen_name(&mut rng);
            let sym = interner.intern(&name);
            match expected.get(&name) {
                Some(prior) => assert_eq!(*prior, sym, "[case {case}] intern not idempotent"),
                None => {
                    expected.insert(name.clone(), sym);
                }
            }
            assert_eq!(interner.resolve(sym), name, "[case {case}] roundtrip");
            assert_eq!(interner.lookup(&name), Some(sym), "[case {case}] lookup");
        }
        // Distinct strings map to distinct symbols.
        assert_eq!(interner.len(), expected.len(), "[case {case}] symbol reuse");
    }
}

// A reference evaluator over the *surface AST* with a string-keyed
// HashMap environment — the semantics the slot-lowered interpreter must
// reproduce. Covers int locals (declared anywhere, function-scoped),
// assignment, if/while, and wrapping arithmetic.
mod reference {
    use std::collections::HashMap;
    use wasabi::lang::ast::{Ast, BinOp, Block, ExprId, Expr, LValue, Lit, Stmt, UnOp};

    pub fn eval(ast: &Ast, env: &mut HashMap<String, i64>, expr: ExprId) -> i64 {
        match ast[expr] {
            Expr::Literal(Lit::Int(v), _) => v,
            Expr::Unary {
                op: UnOp::Neg,
                expr,
                ..
            } => eval(ast, env, expr).wrapping_neg(),
            Expr::Ident(name, _) => env[&ast[name]],
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, b) = (eval(ast, env, lhs), eval(ast, env, rhs));
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    other => panic!("reference: unexpected int op {other:?}"),
                }
            }
            other => panic!("reference: unexpected expr {other:?}"),
        }
    }

    pub fn eval_cond(ast: &Ast, env: &mut HashMap<String, i64>, expr: ExprId) -> bool {
        match ast[expr] {
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, b) = (eval(ast, env, lhs), eval(ast, env, rhs));
                match op {
                    BinOp::Lt => a < b,
                    BinOp::LtEq => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::GtEq => a >= b,
                    BinOp::Eq => a == b,
                    BinOp::NotEq => a != b,
                    other => panic!("reference: unexpected cmp {other:?}"),
                }
            }
            other => panic!("reference: unexpected cond {other:?}"),
        }
    }

    /// Executes a block; returns `Some(value)` when a `return` fired.
    pub fn exec(ast: &Ast, env: &mut HashMap<String, i64>, block: &Block) -> Option<i64> {
        for stmt in ast.stmts_in(block) {
            match *stmt {
                Stmt::Var { name, init, .. } => {
                    let value = eval(ast, env, init);
                    env.insert(ast[name].to_string(), value);
                }
                Stmt::Assign { target, value, .. } => {
                    let value = eval(ast, env, value);
                    match target {
                        LValue::Var(name, _) => {
                            env.insert(ast[name].to_string(), value);
                        }
                        other => panic!("reference: unexpected lvalue {other:?}"),
                    }
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                    ..
                } => {
                    if eval_cond(ast, env, cond) {
                        if let Some(v) = exec(ast, env, &then_blk) {
                            return Some(v);
                        }
                    } else if let Some(else_blk) = else_blk {
                        if let Some(v) = exec(ast, env, &else_blk) {
                            return Some(v);
                        }
                    }
                }
                Stmt::While { cond, body, .. } => {
                    while eval_cond(ast, env, cond) {
                        if let Some(v) = exec(ast, env, &body) {
                            return Some(v);
                        }
                    }
                }
                Stmt::Return { expr: Some(expr), .. } => return Some(eval(ast, env, expr)),
                other => panic!("reference: unexpected stmt {other:?}"),
            }
        }
        None
    }
}

/// Generates an int-only method body over function-scoped locals: `var`
/// declarations (possibly nested inside branches, exercising the lowering
/// rule that locals are slotted per method, not per block), assignments,
/// `if`/`else`, and bounded `while` loops with fresh counters.
fn gen_int_body(rng: &mut Rng, vars: &mut Vec<String>, loops: &mut u32, depth: u32) -> String {
    let int_expr = |rng: &mut Rng, vars: &[String]| -> String {
        let leaf = |rng: &mut Rng, vars: &[String]| -> String {
            if !vars.is_empty() && rng.below(2) == 0 {
                rng.pick(vars).clone()
            } else {
                (rng.below(2000) as i64 - 1000).to_string()
            }
        };
        let a = leaf(rng, vars);
        let b = leaf(rng, vars);
        let op = *rng.pick(&["+", "-", "*"]);
        format!("({a} {op} {b})")
    };
    let cond_expr = |rng: &mut Rng, vars: &[String]| -> String {
        let a = int_expr(rng, vars);
        let b = int_expr(rng, vars);
        let cmp = *rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
        format!("({a} {cmp} {b})")
    };
    let count = rng.range(1, 5) as usize;
    let mut out = String::new();
    for _ in 0..count {
        let choice = if depth == 0 { rng.below(2) } else { rng.below(4) };
        match choice {
            0 => {
                let name = format!("v{}", vars.len());
                out.push_str(&format!("var {name} = {};\n", int_expr(rng, vars)));
                vars.push(name);
            }
            1 if !vars.is_empty() => {
                let name = rng.pick(vars).clone();
                out.push_str(&format!("{name} = {};\n", int_expr(rng, vars)));
            }
            1 => {}
            2 => {
                // Vars declared inside a branch may be skipped at run time,
                // so they must not be read afterwards: generate each branch
                // with its own clone of the var list. Both clones start at
                // the same length, so sibling branches routinely declare the
                // same name — exercising slot sharing in the lowering.
                let cond = cond_expr(rng, vars);
                let mut then_vars = vars.clone();
                let then_blk = gen_int_body(rng, &mut then_vars, loops, depth - 1);
                let mut else_vars = vars.clone();
                let else_blk = gen_int_body(rng, &mut else_vars, loops, depth - 1);
                out.push_str(&format!(
                    "if ({cond}) {{\n{then_blk}}} else {{\n{else_blk}}}\n"
                ));
            }
            _ => {
                // Bounded loop on a fresh counter, so termination is
                // guaranteed whatever the generated body does.
                let counter = format!("l{loops}");
                *loops += 1;
                let bound = rng.range(1, 5);
                // The counter is deliberately NOT visible inside the body:
                // a generated `lN = ...` reset would loop forever.
                let mut body_vars = vars.clone();
                let body = gen_int_body(rng, &mut body_vars, loops, depth - 1);
                out.push_str(&format!(
                    "var {counter} = 0;\nwhile ({counter} < {bound}) {{\n{body}{counter} = {counter} + 1;\n}}\n"
                ));
                vars.push(counter);
            }
        }
    }
    out
}

/// The slot-addressed environment of the lowered interpreter computes the
/// same result as a string-keyed HashMap environment over the surface AST,
/// on random method bodies.
#[test]
fn slot_env_matches_reference_hashmap_env() {
    use std::collections::HashMap;
    use wasabi::lang::parser::parse_file;
    use wasabi::lang::project::Project;
    use wasabi::vm::interp::{Interp, InvokeResult, RunLimits};
    use wasabi::vm::interceptor::NoopInterceptor;
    use wasabi::vm::Value;

    for case in 0..96u64 {
        let mut rng = Rng::new(0x5107_0000 + case);
        let mut vars = vec!["p0".to_string(), "p1".to_string()];
        let mut loops = 0u32;
        let body = gen_int_body(&mut rng, &mut vars, &mut loops, 3);
        // Mix every variable into the result so a single misassigned slot
        // changes the output.
        let sum = vars
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{v} * {}", 2 * i as i64 + 1))
            .collect::<Vec<_>>()
            .join(" + ");
        let source = format!("class P {{\n method run(p0, p1) {{\n{body}return {sum};\n }}\n}}\n");

        // Reference: string-keyed environment over the parsed AST.
        let ast = parse_file(&source)
            .unwrap_or_else(|e| panic!("[case {case}] generated source failed to parse: {e}"));
        let class = ast
            .classes()
            .next()
            .unwrap_or_else(|| panic!("[case {case}] expected a class"));
        let method = &ast[class.methods][0];
        let (a0, a1) = (rng.below(100) as i64, rng.below(100) as i64);
        let mut env: HashMap<String, i64> = HashMap::new();
        env.insert("p0".to_string(), a0);
        env.insert("p1".to_string(), a1);
        let expected = reference::exec(&ast, &mut env, &method.body)
            .unwrap_or_else(|| panic!("[case {case}] reference did not return"));

        // Subject: the slot-compiled interpreter.
        let project = Project::compile("prop", vec![("p.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}"));
        let mut noop = NoopInterceptor;
        let mut interp = Interp::new(&project, &mut noop, RunLimits::default());
        match interp.invoke("P", "run", vec![Value::Int(a0), Value::Int(a1)]) {
            InvokeResult::Ok(Value::Int(actual)) => {
                assert_eq!(actual, expected, "[case {case}]\n{source}");
            }
            other => panic!("[case {case}] unexpected result {other:?}\n{source}"),
        }
    }
}

// ---- Planner properties ----------------------------------------------------

/// Every coverable site appears exactly once in the plan, and only
/// covering tests are used.
#[test]
fn plan_covers_each_site_exactly_once() {
    use std::collections::BTreeSet;
    use wasabi::lang::ast::CallId;
    use wasabi::lang::project::{CallSite, FileId, MethodId};
    use wasabi::planner::coverage::CoverageProfile;
    use wasabi::planner::plan::plan;

    let site = |c: u32| CallSite { file: FileId(0), call: CallId(c) };
    for case in 0..64u64 {
        let mut rng = Rng::new(0x91a9_0000 + case);
        // 1..12 tests, each covering a random set of 0..6 sites from 0..20.
        let tests = rng.range(1, 12) as usize;
        let coverage: Vec<BTreeSet<u32>> = (0..tests)
            .map(|_| {
                let count = rng.below(6);
                (0..count).map(|_| rng.below(20) as u32).collect()
            })
            .collect();

        let mut profile = CoverageProfile {
            tests_total: coverage.len(),
            ..CoverageProfile::default()
        };
        for (i, sites) in coverage.iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            let test = MethodId::new("T", format!("t{i:02}"));
            let sites: Vec<CallSite> = sites.iter().map(|c| site(*c)).collect();
            for s in &sites {
                profile.site_to_tests.entry(*s).or_default().push(test.clone());
            }
            profile.per_test.insert(test, sites);
        }
        let all_sites: BTreeSet<CallSite> = (0u32..25).map(site).collect();
        let test_plan = plan(&profile, &all_sites);

        // Exactly-once coverage of every coverable site.
        let mut planned: Vec<CallSite> = test_plan.entries.iter().map(|e| e.site).collect();
        planned.sort();
        let mut expected: Vec<CallSite> = profile.covered_sites().into_iter().collect();
        expected.sort();
        assert_eq!(planned, expected, "[case {case}]");
        // Plan entries reference real covering tests.
        for entry in &test_plan.entries {
            let sites = &profile.per_test[&entry.test];
            assert!(sites.contains(&entry.site), "[case {case}]");
        }
        // Uncovered = all minus covered.
        assert_eq!(
            test_plan.uncovered_sites.len(),
            all_sites.len() - profile.covered_sites().len(),
            "[case {case}]"
        );
    }
}

// ---- Abstract-interpretation properties --------------------------------------

/// The statically inferred attempt-bound interval over-approximates what
/// the VM actually does: on random bounded retry loops (random
/// init/bound/step, failures injected through an argument, optionally
/// exiting early on success), the attempt count the interpreter observes
/// always falls inside the loop's static interval.
#[test]
fn attempt_interval_over_approximates_vm_attempts() {
    use wasabi::analysis::absint::analyze_method;
    use wasabi::lang::ast::Item;
    use wasabi::lang::project::Project;
    use wasabi::vm::interceptor::NoopInterceptor;
    use wasabi::vm::interp::{Interp, InvokeResult, RunLimits};
    use wasabi::vm::Value;

    for case in 0..96u64 {
        let mut rng = Rng::new(0xab51_0000 + case);
        let init = rng.below(4) as i64;
        let bound = rng.below(12) as i64;
        let step = rng.range(1, 4);
        // Half the cases return out of the loop on success (observing
        // fewer attempts than the bound permits), half run to the bound.
        let call = if rng.below(2) == 0 {
            "if ((fail - attempts) <= 0) { return attempts; }\n        this.op((fail - attempts));"
        } else {
            "this.op((fail - attempts));"
        };
        let source = format!(
            "exception E;\n\
             class C {{\n\
               method op(f) throws E {{\n\
                 if (f > 0) {{ throw new E(\"transient\"); }}\n\
                 return 1;\n\
               }}\n\
               method run(fail) {{\n\
                 var attempts = 0;\n\
                 for (var retry = {init}; retry < {bound}; retry = retry + {step}) {{\n\
                   attempts = attempts + 1;\n\
                   try {{\n\
                     {call}\n\
                   }} catch (E e) {{ sleep(1); }}\n\
                 }}\n\
                 return attempts;\n\
               }}\n\
             }}\n"
        );
        let project = Project::compile("prop", vec![("c.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}\n{source}"));

        let file = &project.files[0];
        let Item::Class(class) = &file.items()[1] else {
            panic!("[case {case}] expected the class item");
        };
        let method = file[class.methods]
            .iter()
            .find(|m| &file[m.name] == "run")
            .unwrap_or_else(|| panic!("[case {case}] C.run missing"));
        let abs = analyze_method(project.index(), "C", file, method);
        let obs = abs
            .loops
            .values()
            .next()
            .unwrap_or_else(|| panic!("[case {case}] no loop observation"));

        for fail in [0i64, 2, 5, 40] {
            let mut noop = NoopInterceptor;
            let mut interp = Interp::new(&project, &mut noop, RunLimits::default());
            let observed = match interp.invoke("C", "run", vec![Value::Int(fail)]) {
                InvokeResult::Ok(Value::Int(n)) => n,
                other => panic!("[case {case}] unexpected result {other:?}\n{source}"),
            };
            assert!(
                obs.attempts.lo <= observed && observed <= obs.attempts.hi,
                "[case {case}] fail={fail}: observed {observed} attempts outside \
                 static interval {}\n{source}",
                obs.attempts,
            );
        }
    }
}

/// Abstract interpretation is total and well-formed across every corpus
/// app (amplification and policy seeds included): every method analyses
/// without panicking, every loop observation carries a well-formed
/// attempts interval, and the sweep sees real finite attempt bounds.
#[test]
fn absint_is_total_and_well_formed_corpus_wide() {
    use wasabi::analysis::absint::{analyze_method, POS_INF};
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::{append_policy_seeds, compile_app, generate_app_with_amp};

    let mut loops_seen = 0usize;
    let mut finite_bounds = 0usize;
    for spec in paper_apps() {
        let mut app = generate_app_with_amp(&spec, Scale::Tiny);
        append_policy_seeds(&mut app);
        let project = compile_app(&app);
        for (_, file, class, method) in project.all_methods() {
            let (class, name) = (&file[class.name], &file[method.name]);
            let abs = analyze_method(project.index(), class, file, method);
            for obs in abs.loops.values() {
                loops_seen += 1;
                assert!(
                    obs.attempts.lo <= obs.attempts.hi,
                    "{class}.{name}: malformed attempts interval {}",
                    obs.attempts
                );
                if obs.attempts.hi < POS_INF {
                    finite_bounds += 1;
                    assert!(
                        obs.attempts.lo >= 0,
                        "{class}.{name}: negative attempt bound {}",
                        obs.attempts
                    );
                }
            }
        }
    }
    assert!(loops_seen > 100, "sweep covered real loops ({loops_seen})");
    assert!(
        finite_bounds > 50,
        "sweep inferred finite attempt bounds ({finite_bounds})"
    );
}

// ---- Interprocedural summary properties -------------------------------------

/// A method body made of throws, rethrowing catches, and acyclic
/// `this` calls: method `i` may only call methods with larger indices, so
/// every generated program terminates and the call graph is a DAG.
fn gen_throwy_method(rng: &mut Rng, index: usize, methods: usize, depth: u32) -> String {
    let excs = ["E0", "E1", "E2"];
    let call = |rng: &mut Rng| -> Option<String> {
        if index + 1 >= methods {
            return None;
        }
        let callee = rng.range(index as i64 + 1, methods as i64) as usize;
        Some(format!("this.m{callee}((p + 1));"))
    };
    let simple = |rng: &mut Rng| match rng.below(4) {
        0 => format!("throw new {}(\"boom\");", rng.pick(&excs)),
        1 => call(rng).unwrap_or_else(|| "log(\"leaf\");".to_string()),
        2 => "return 1;".to_string(),
        _ => "log(\"noop\");".to_string(),
    };
    if depth == 0 {
        return simple(rng);
    }
    match rng.below(5) {
        0 | 1 => simple(rng),
        2 => {
            let a = gen_throwy_method(rng, index, methods, depth - 1);
            let b = gen_throwy_method(rng, index, methods, depth - 1);
            format!("if (p < {}) {{ {a} }} else {{ {b} }}", rng.below(10))
        }
        3 => {
            let body = gen_throwy_method(rng, index, methods, depth - 1);
            let caught = rng.pick(&excs);
            let handler = match rng.below(3) {
                0 => "throw e;".to_string(),
                1 => format!("throw new {}(\"wrapped\");", rng.pick(&excs)),
                _ => "log(\"swallowed\");".to_string(),
            };
            format!("try {{ {body} }} catch ({caught} e) {{ {handler} }}")
        }
        _ => {
            let a = gen_throwy_method(rng, index, methods, depth - 1);
            let b = gen_throwy_method(rng, index, methods, depth - 1);
            format!("{a}\n{b}")
        }
    }
}

/// Every exception the VM observes escaping a method is predicted by that
/// method's interprocedural may-throw summary (the static set
/// over-approximates the dynamic behaviour).
#[test]
fn may_throw_over_approximates_vm_exceptions() {
    use wasabi::analysis::callgraph::CallGraph;
    use wasabi::analysis::summaries::Summaries;
    use wasabi::lang::project::Project;
    use wasabi::vm::interceptor::NoopInterceptor;
    use wasabi::vm::interp::{Interp, InvokeResult, RunLimits};
    use wasabi::vm::Value;

    for case in 0..96u64 {
        let mut rng = Rng::new(0x7112_0000 + case);
        let methods = rng.range(2, 6) as usize;
        let bodies: Vec<String> = (0..methods)
            .map(|i| {
                let body = gen_throwy_method(&mut rng, i, methods, 3);
                format!(" method m{i}(p) {{ {body}\n return 0; }}")
            })
            .collect();
        let source = format!(
            "exception E0;\nexception E1;\nexception E2;\nclass C {{\n{}\n}}\n",
            bodies.join("\n")
        );
        let project = Project::compile("prop", vec![("c.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}\n{source}"));
        let cg = CallGraph::build(&project);
        let summaries = Summaries::compute(&project, &cg, &[]);
        let index = project.index();

        for i in 0..methods {
            let name = format!("m{i}");
            let midx = (0..index.methods.len() as u32)
                .find(|&m| index.method_display(m) == format!("C.{name}"))
                .unwrap_or_else(|| panic!("[case {case}] method C.{name} not indexed"));
            let may_throw = &summaries.methods[midx as usize].may_throw;
            for arg in [0i64, 3, 7, 11] {
                let mut noop = NoopInterceptor;
                let mut interp = Interp::new(&project, &mut noop, RunLimits::default());
                match interp.invoke("C", &name, vec![Value::Int(arg)]) {
                    InvokeResult::Ok(_) => {}
                    InvokeResult::Exception(exc) => {
                        let escaped = index
                            .exc_by_name(&exc.ty)
                            .unwrap_or_else(|| panic!("[case {case}] undeclared {}", exc.ty));
                        assert!(
                            may_throw.iter().any(|&t| index.is_exc_subtype(escaped, t)),
                            "[case {case}] C.{name}({arg}) escaped {} but may-throw \
                             predicts only {:?}\n{source}",
                            exc.ty,
                            may_throw,
                        );
                    }
                    InvokeResult::Vm(err) => {
                        panic!("[case {case}] VM error in C.{name}({arg}): {err:?}\n{source}")
                    }
                }
            }
        }
    }
}

// ---- Simulated-LLM text reader ---------------------------------------------

/// Every word the simulated LLM's reader looks for, in one case or another.
const READER_WORDS: &[&str] = &[
    "retry", "retries", "retrying", "reattempt", "resubmit", "reschedule", "catch", "catch (",
    "catch(", "while (", "while(", "for (", "for(", ".put(", ".putDelayed(", "switch (",
    "switch(", "sleep(", "schedule", "backoff(", "delay(", "pause(", "waitQuietly(",
    "method backoff", "method delay(", "method pause", "method waitQuietly", "poll",
    "compareAndSet", "spinlock", "spin_", "busywait", "max", "limit", "cap", "attempt", "budget",
    "error code", "errcode", "err_", "<", ">",
];

fn mixed_case(rng: &mut Rng, word: &str) -> String {
    word.chars()
        .map(|c| if rng.below(3) == 0 { c.to_ascii_uppercase() } else { c })
        .collect()
}

/// Up to `max` bytes that spell none of the reader's words.
fn filler(rng: &mut Rng, max: u64) -> String {
    const POOL: &[u8] = b"xyz_ {}();.=\n";
    (0..rng.below(max + 1)).map(|_| *rng.pick(POOL) as char).collect()
}

/// A method declaration as the reader sees it, sometimes malformed (no
/// name, no parenthesis, wrong case) so that it starts no region.
fn gen_decl(rng: &mut Rng) -> String {
    let keyword = *rng.pick(&["method ", "test ", "method ", "test ", "Method ", "TEST ", "method"]);
    let name = *rng.pick(&["run", "m$1", "t_x", "", "retry"]);
    let open = *rng.pick(&["(", " (", "\n(", "", " x("]);
    format!("{keyword}{name}{open}")
}

/// An ASCII text built to stress the one-pass reader: mixed-case words,
/// declarations, words cut by a region edge (a word ending in `t` whose
/// `t` starts `test NAME(`), and a cap-ish word with a `<`/`>` at some
/// distance around the 48-byte window, often with a region edge between.
fn gen_reader_text(rng: &mut Rng) -> String {
    let mut text = String::new();
    for _ in 0..rng.range(1, 40) {
        match rng.below(10) {
            0..=2 => {
                let word = *rng.pick(READER_WORDS);
                text.push_str(&mixed_case(rng, word));
            }
            3 | 4 => text.push_str(&gen_decl(rng)),
            5 => {
                let word = *rng.pick(&["attempt", "limit", "budget", "resubmit", "compareAndSet"]);
                text.push_str(&word[..word.len() - 1]);
                text.push_str("test t(");
            }
            6 | 7 => {
                let cap = *rng.pick(&["max", "limit", "cap", "attempt", "retries", "budget"]);
                let angle = *rng.pick(&["<", ">"]);
                let (first, second) = if rng.below(2) == 0 { (cap, angle) } else { (angle, cap) };
                let before = filler(rng, 50);
                let decl = if rng.below(2) == 0 { gen_decl(rng) } else { String::new() };
                let after = filler(rng, 50);
                text.push_str(&format!("{first}{before}{decl}{after}{second}"));
            }
            _ => text.push_str(&filler(rng, 12)),
        }
    }
    text
}

/// The one-pass reader agrees with the oracle on random ASCII texts: the
/// whole-file signals, every region's name and text, and every region's
/// signals.
#[test]
fn reader_matches_the_oracle_on_random_ascii_texts() {
    for case in 0..600u64 {
        let mut rng = Rng::new(0x5ca7_0000 + case);
        let text = gen_reader_text(&mut rng);
        oracle::assert_agrees(&format!("[case {case}] {text:?}"), &text);
    }
}

/// The reader never panics on UTF-8 text, and its regions tile the text
/// from the first declaration to the end on char boundaries. The cases mix
/// multi-byte characters into reader words, with `€` followed by 46 ASCII
/// bytes and a `<` (which once split the `€` when cutting the cap window)
/// pinned as case 0.
#[test]
fn reader_is_total_on_arbitrary_utf8() {
    const POOL: &[&str] = &[
        "\u{20ac}", "\u{e9}", "\u{212a}", "\u{130}", "\u{1f980}", "<", ">", "max", "method m(",
        "test t(", "catch (", "retry", ".put(", " ", "x", "\n",
    ];
    for case in 0..400u64 {
        let mut rng = Rng::new(0x7e47_0000 + case);
        let text = if case == 0 {
            format!("// \u{20ac}{}<\nclass C {{ method m() {{ }} }}", "x".repeat(46))
        } else {
            (0..rng.below(120)).map(|_| *rng.pick(POOL)).collect()
        };
        let reading = read(&text);
        assert_eq!(reading.signals.bytes, text.len(), "[case {case}] {text:?}");
        for (k, method) in reading.methods.iter().enumerate() {
            let region = text.get(method.span.clone());
            assert!(region.is_some_and(|r| r.starts_with("method ") || r.starts_with("test ")));
            assert!(!method.name.is_empty(), "[case {case}] {text:?}");
            assert_eq!(method.signals.bytes, method.span.len(), "[case {case}] {text:?}");
            let end = reading.methods.get(k + 1).map_or(text.len(), |next| next.span.start);
            assert_eq!(method.span.end, end, "[case {case}] regions tile the text");
        }
    }
}

// ---- The ordered fan-out -----------------------------------------------------

/// `fanout::map_with` is the serial map at every width: for 0 to 40 items
/// with random, tied or zero weights, on 1 to 4 workers, it returns the
/// serial results in input order and maps each item exactly once; at
/// widths 1 and 3 a panic in one item reaches the caller.
#[test]
fn fanout_equals_the_serial_map_at_every_width() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wasabi::util::fanout::map_with;

    let value = |(i, weight): (usize, usize)| (i as u64) * 1_000_003 + weight as u64;
    for case in 0..123u64 {
        let mut rng = Rng::new(0xfa40_0000 + case);
        let count = (case % 41) as usize;
        let weights: Vec<usize> = match case % 3 {
            0 => (0..count).map(|_| rng.below(1 << 20) as usize).collect(),
            1 => (0..count).map(|_| rng.below(3) as usize).collect(),
            _ => vec![0; count],
        };
        let items: Vec<(usize, usize)> = weights.into_iter().enumerate().collect();
        let serial: Vec<u64> = items.iter().copied().map(value).collect();
        for width in 1..=4 {
            let mapped: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            let out = map_with(
                vec![(); width],
                items.clone(),
                |&(_, w)| w,
                |(), item| {
                    mapped[item.0].fetch_add(1, Ordering::Relaxed);
                    value(item)
                },
            );
            assert_eq!(out, serial, "[case {case}, width {width}]");
            for (i, times) in mapped.iter().enumerate() {
                let times = times.load(Ordering::Relaxed);
                assert_eq!(times, 1, "[case {case}, width {width}] item {i}");
            }
        }
    }

    for width in [1, 3] {
        for bad in [0, 7, 19] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                map_with(
                    vec![(); width],
                    (0..20).collect(),
                    |&i: &usize| i,
                    |(), i| {
                        assert_ne!(i, bad, "item {bad} fails");
                        i
                    },
                )
            }));
            let panic = outcome.expect_err("the panic reaches the caller");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains(&format!("item {bad} fails")),
                "width {width}: {message}"
            );
        }
    }
}

/// `fanout::map_beside` is the serial map plus one call of `beside`: for
/// 0 to 40 items with random, tied or zero weights, on 1 to 4 workers, it
/// returns the serial results in input order, maps each item once, and
/// runs `beside` once, on the caller's thread. A panic in `beside`, or in
/// item 0, 7 or 19, reaches the caller with its own payload.
#[test]
fn map_beside_is_the_serial_map_plus_one_beside_call() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use wasabi::util::fanout::map_beside;

    let value = |(i, weight): (usize, usize)| (i as u64) * 1_000_003 + weight as u64;
    let caller = thread::current().id();
    for case in 0..123u64 {
        let mut rng = Rng::new(0xbe51_0000 + case);
        let count = (case % 41) as usize;
        let weights: Vec<usize> = match case % 3 {
            0 => (0..count).map(|_| rng.below(1 << 20) as usize).collect(),
            1 => (0..count).map(|_| rng.below(3) as usize).collect(),
            _ => vec![0; count],
        };
        let items: Vec<(usize, usize)> = weights.into_iter().enumerate().collect();
        let serial: Vec<u64> = items.iter().copied().map(value).collect();
        for width in 1..=4 {
            let mapped: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            let besides = AtomicUsize::new(0);
            let (out, beside) = map_beside(
                vec![(); width],
                items.clone(),
                |&(_, w)| w,
                |(), item| {
                    mapped[item.0].fetch_add(1, Ordering::Relaxed);
                    value(item)
                },
                || {
                    besides.fetch_add(1, Ordering::Relaxed);
                    (thread::current().id(), case * 10 + width as u64)
                },
            );
            assert_eq!(out, serial, "[case {case}, width {width}]");
            assert_eq!(beside, (caller, case * 10 + width as u64), "[case {case}, width {width}]");
            assert_eq!(besides.load(Ordering::Relaxed), 1, "[case {case}, width {width}]");
            for (i, times) in mapped.iter().enumerate() {
                let times = times.load(Ordering::Relaxed);
                assert_eq!(times, 1, "[case {case}, width {width}] item {i}");
            }
        }
    }

    let payload = |outcome: thread::Result<(Vec<usize>, ())>| -> String {
        let panic = outcome.expect_err("the panic reaches the caller");
        panic.downcast_ref::<String>().expect("a formatted message").clone()
    };
    for width in 1..=4 {
        for bad in [0, 7, 19] {
            let message = payload(catch_unwind(AssertUnwindSafe(|| {
                map_beside(
                    vec![(); width],
                    (0..20).collect(),
                    |&i: &usize| i,
                    |(), i| {
                        assert_ne!(i, bad, "item {bad} fails");
                        i
                    },
                    || (),
                )
            })));
            assert!(message.contains(&format!("item {bad} fails")), "width {width}: {message}");
        }
        let message = payload(catch_unwind(AssertUnwindSafe(|| {
            map_beside(
                vec![(); width],
                (0..20).collect(),
                |&i: &usize| i,
                |(), i| i,
                || panic!("{}", format!("beside fails at width {width}")),
            )
        })));
        assert_eq!(message, format!("beside fails at width {width}"));
    }
}

/// The index's interval ancestry is the parent walk: for random class
/// forests whose classes extend classes declared before or after them,
/// `is_class_subtype` agrees with `SymbolTable::is_class_subtype` on every
/// pair, and `subtypes_of_class` lists exactly the subtypes, ascending.
#[test]
fn class_ancestry_intervals_match_the_parent_walk() {
    use wasabi::lang::index::ClassId;
    use wasabi::lang::project::Project;
    for case in 0..64u64 {
        let mut rng = Rng::new(0xa5ce_0000 + case);
        let n = 1 + rng.below(40) as usize;
        // A random rank order keeps the forest acyclic: a class extends
        // only a class of lower rank, declared anywhere.
        let mut rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut rank);
        let mut by_rank = vec![0; n];
        for (class, &r) in rank.iter().enumerate() {
            by_rank[r] = class;
        }
        let files: Vec<(String, String)> = (0..n)
            .map(|class| {
                let parent = match rank[class] {
                    0 => None,
                    _ if rng.below(4) == 0 => None,
                    r => Some(by_rank[rng.below(r as u64) as usize]),
                };
                let extends = parent.map_or(String::new(), |p| format!(" extends C{p}"));
                (format!("c{class}.jav"), format!("class C{class}{extends} {{ }}"))
            })
            .collect();
        let project = Project::compile("forest", files).expect("an acyclic forest compiles");
        let (index, symbols) = (project.index(), &project.symbols);
        for sup in 0..n as u32 {
            let sup_name = &index.classes[sup as usize].name_str;
            let mut walked = Vec::new();
            for sub in 0..n as u32 {
                let sub_name = &index.classes[sub as usize].name_str;
                let expected = symbols.is_class_subtype(sub_name, sup_name);
                assert_eq!(
                    index.is_class_subtype(ClassId(sub), ClassId(sup)),
                    expected,
                    "[case {case}] {sub_name} <: {sup_name}"
                );
                if expected {
                    walked.push(ClassId(sub));
                }
            }
            let listed: Vec<ClassId> = index.subtypes_of_class(ClassId(sup)).collect();
            assert_eq!(listed, walked, "[case {case}] subtypes of {sup_name}");
        }
    }
}
