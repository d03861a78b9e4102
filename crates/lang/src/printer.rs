//! Pretty-printer for Javelin ASTs.
//!
//! The printer produces canonical source text that re-parses to the same AST
//! (modulo spans); because call ids and loop ids are assigned in source
//! order, they are also preserved. `print → parse → print` is a fixed point,
//! which the property tests rely on.

use crate::ast::*;

/// Pretty-prints a whole file.
pub fn print_items(items: &[Item]) -> String {
    let mut p = Printer::new();
    for item in items {
        p.item(item);
    }
    p.out
}

/// Pretty-prints a single class.
pub fn print_class(class: &ClassDecl) -> String {
    let mut p = Printer::new();
    p.class(class);
    p.out
}

/// Pretty-prints an expression (mainly for diagnostics and reports).
pub fn print_expr(expr: &Expr) -> String {
    let mut p = Printer::new();
    p.expr(expr);
    p.out
}

/// Pretty-prints a single statement at indent zero (trailing newline
/// included, one line per statement). Patch synthesis renders repair
/// snippets through this so spliced text is canonical printer output.
pub fn print_stmt(stmt: &Stmt) -> String {
    let mut p = Printer::new();
    p.stmt(stmt);
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, header: &str) {
        self.line(&format!("{header} {{"));
        self.indent += 1;
    }

    fn close(&mut self, suffix: &str) {
        self.indent -= 1;
        self.line(&format!("}}{suffix}"));
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::ExceptionDecl(d) => {
                let parent = d
                    .parent
                    .as_ref()
                    .map(|p| format!(" extends {p}"))
                    .unwrap_or_default();
                self.line(&format!("exception {}{parent};", d.name));
            }
            Item::ConfigDecl(d) => {
                self.line(&format!("config {} default {};", Quoted(&d.key), d.default));
            }
            Item::Class(c) => self.class(c),
        }
    }

    fn class(&mut self, class: &ClassDecl) {
        let parent = class
            .parent
            .as_ref()
            .map(|p| format!(" extends {p}"))
            .unwrap_or_default();
        self.open(&format!("class {}{parent}", class.name));
        for field in &class.fields {
            match &field.init {
                Some(init) => {
                    let mut p = Printer::new();
                    p.expr(init);
                    self.line(&format!("field {} = {};", field.name, p.out));
                }
                None => self.line(&format!("field {};", field.name)),
            }
        }
        for method in &class.methods {
            self.method(method);
        }
        self.close("");
    }

    fn method(&mut self, method: &MethodDecl) {
        let kw = if method.is_test { "test" } else { "method" };
        let params = method.params.join(", ");
        let throws = if method.throws.is_empty() {
            String::new()
        } else {
            format!(" throws {}", method.throws.join(", "))
        };
        self.open(&format!("{kw} {}({params}){throws}", method.name));
        for stmt in &method.body.stmts {
            self.stmt(stmt);
        }
        self.close("");
    }

    fn block_inline(&mut self, block: &Block, header: &str, suffix: &str) {
        self.open(header);
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
        self.close(suffix);
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Var { name, init, .. } => {
                let mut p = Printer::new();
                p.expr(init);
                self.line(&format!("var {name} = {};", p.out));
            }
            Stmt::Assign { target, value, .. } => {
                let mut p = Printer::new();
                p.lvalue(target);
                p.out.push_str(" = ");
                p.expr(value);
                let text = format!("{};", p.out);
                self.line(&text);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let mut p = Printer::new();
                p.expr(cond);
                self.block_inline(then_blk, &format!("if ({})", p.out), "");
                if let Some(else_blk) = else_blk {
                    // Undo the newline so `else` attaches visually; simplest
                    // canonical form keeps `else` on its own header line.
                    self.block_inline(else_blk, "else", "");
                }
            }
            Stmt::While { cond, body, .. } => {
                let mut p = Printer::new();
                p.expr(cond);
                self.block_inline(body, &format!("while ({})", p.out), "");
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                let mut header = String::from("for (");
                match init {
                    Some(stmt) => {
                        let mut p = Printer::new();
                        p.header_stmt(stmt);
                        header.push_str(&p.out);
                        header.push(';');
                    }
                    None => header.push(';'),
                }
                header.push(' ');
                if let Some(cond) = cond {
                    let mut p = Printer::new();
                    p.expr(cond);
                    header.push_str(&p.out);
                }
                header.push_str("; ");
                if let Some(update) = update {
                    let mut p = Printer::new();
                    p.header_stmt(update);
                    header.push_str(&p.out);
                }
                header.push(')');
                self.block_inline(body, &header, "");
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => {
                let mut p = Printer::new();
                p.expr(scrutinee);
                self.open(&format!("switch ({})", p.out));
                for (lit, body) in cases {
                    self.block_inline(body, &format!("case {lit}:"), "");
                }
                if let Some(default) = default {
                    self.block_inline(default, "default:", "");
                }
                self.close("");
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                self.block_inline(body, "try", "");
                for catch in catches {
                    self.block_inline(
                        &catch.body,
                        &format!("catch ({} {})", catch.exc_type, catch.binding),
                        "",
                    );
                }
                if let Some(finally) = finally {
                    self.block_inline(finally, "finally", "");
                }
            }
            Stmt::Throw { expr, .. } => {
                let mut p = Printer::new();
                p.expr(expr);
                self.line(&format!("throw {};", p.out));
            }
            Stmt::Return { expr, .. } => match expr {
                Some(expr) => {
                    let mut p = Printer::new();
                    p.expr(expr);
                    self.line(&format!("return {};", p.out));
                }
                None => self.line("return;"),
            },
            Stmt::Break { .. } => self.line("break;"),
            Stmt::Continue { .. } => self.line("continue;"),
            Stmt::Sleep { ms, .. } => {
                let mut p = Printer::new();
                p.expr(ms);
                self.line(&format!("sleep({});", p.out));
            }
            Stmt::Log { expr, .. } => {
                let mut p = Printer::new();
                p.expr(expr);
                self.line(&format!("log({});", p.out));
            }
            Stmt::Assert { cond, msg, .. } => {
                let mut p = Printer::new();
                p.expr(cond);
                match msg {
                    Some(msg) => {
                        let mut m = Printer::new();
                        m.expr(msg);
                        self.line(&format!("assert({}, {});", p.out, m.out));
                    }
                    None => self.line(&format!("assert({});", p.out)),
                }
            }
            Stmt::Expr { expr, .. } => {
                let mut p = Printer::new();
                p.expr(expr);
                self.line(&format!("{};", p.out));
            }
        }
    }

    /// Prints a for-header statement (no trailing semicolon).
    fn header_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Var { name, init, .. } => {
                self.out.push_str("var ");
                self.out.push_str(name);
                self.out.push_str(" = ");
                self.expr(init);
            }
            Stmt::Assign { target, value, .. } => {
                self.lvalue(target);
                self.out.push_str(" = ");
                self.expr(value);
            }
            other => panic!("unsupported for-header statement: {other:?}"),
        }
    }

    fn lvalue(&mut self, lvalue: &LValue) {
        match lvalue {
            LValue::Var(name, _) => self.out.push_str(name),
            LValue::Field { recv, name, .. } => {
                self.expr_prec(recv, 100);
                self.out.push('.');
                self.out.push_str(name);
            }
        }
    }

    fn expr(&mut self, expr: &Expr) {
        self.expr_prec(expr, 0);
    }

    /// Prints `expr`, parenthesizing when its precedence is below `min_prec`.
    fn expr_prec(&mut self, expr: &Expr, min_prec: u8) {
        let prec = expr_precedence(expr);
        let need_parens = prec < min_prec;
        if need_parens {
            self.out.push('(');
        }
        match expr {
            Expr::Literal(lit, _) => self.out.push_str(&lit.to_string()),
            Expr::Ident(name, _) => self.out.push_str(name),
            Expr::This(_) => self.out.push_str("this"),
            Expr::Field { recv, name, .. } => {
                self.expr_prec(recv, 100);
                self.out.push('.');
                self.out.push_str(name);
            }
            Expr::Call {
                recv, method, args, ..
            } => {
                if let Some(recv) = recv {
                    self.expr_prec(recv, 100);
                    self.out.push('.');
                }
                self.out.push_str(method);
                self.args(args);
            }
            Expr::New { class, args, .. } => {
                self.out.push_str("new ");
                self.out.push_str(class);
                self.args(args);
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // Left-associative: the right operand needs strictly higher
                // precedence to avoid reassociation on re-parse.
                self.expr_prec(lhs, prec);
                self.out.push(' ');
                self.out.push_str(op.symbol());
                self.out.push(' ');
                self.expr_prec(rhs, prec + 1);
            }
            Expr::Unary { op, expr, .. } => {
                self.out.push_str(op.symbol());
                self.expr_prec(expr, 90);
            }
            Expr::InstanceOf { expr, ty, .. } => {
                self.expr_prec(expr, prec + 1);
                self.out.push_str(" instanceof ");
                self.out.push_str(ty);
            }
        }
        if need_parens {
            self.out.push(')');
        }
    }

    fn args(&mut self, args: &[Expr]) {
        self.out.push('(');
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr_prec(arg, 0);
        }
        self.out.push(')');
    }
}

fn expr_precedence(expr: &Expr) -> u8 {
    match expr {
        Expr::Binary { op, .. } => match op {
            BinOp::Or => 10,
            BinOp::And => 20,
            BinOp::Eq | BinOp::NotEq => 30,
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 40,
            BinOp::Add | BinOp::Sub => 50,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 60,
        },
        Expr::InstanceOf { .. } => 40,
        Expr::Unary { .. } => 90,
        _ => 100,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn roundtrip(src: &str) {
        let items = parse_file(src).expect("initial parse");
        let printed = print_items(&items);
        let reparsed = parse_file(&printed)
            .unwrap_or_else(|e| panic!("printed source failed to parse: {e}\n{printed}"));
        let reprinted = print_items(&reparsed);
        assert_eq!(printed, reprinted, "printer not a fixed point");
    }

    #[test]
    fn roundtrips_retry_loop() {
        roundtrip(
            "exception ConnectException extends IOException;\n\
             class WebHdfs {\n\
               field maxAttempts = 5;\n\
               method run() throws IOException {\n\
                 for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
                   try { var conn = this.connect(\"url\"); return this.getResponse(conn); }\n\
                   catch (AccessControlException e) { break; }\n\
                   catch (ConnectException e) { }\n\
                   sleep(1000);\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        );
    }

    #[test]
    fn roundtrips_switch_and_queue() {
        roundtrip(
            "class TaskProcessor {\n\
               field taskQueue;\n\
               method run() {\n\
                 while (!this.taskQueue.isEmpty()) {\n\
                   var task = this.taskQueue.take();\n\
                   try { task.execute(); }\n\
                   catch (Exception e) { if (task.isShutdown == false) { this.taskQueue.put(task); } }\n\
                 }\n\
               }\n\
               method step(state) {\n\
                 switch (state) { case \"A\": { return 1; } default: { return 0; } }\n\
               }\n\
             }",
        );
    }

    #[test]
    fn parenthesization_preserves_structure() {
        let src = "class C { method m(a, b) { return (a + b) * 2 - -a / (b % 3); } }";
        let items = parse_file(src).unwrap();
        let printed = print_items(&items);
        let reparsed = parse_file(&printed).unwrap();
        assert_eq!(print_items(&reparsed), printed);
        assert!(printed.contains("(a + b) * 2"));
    }

    #[test]
    fn unary_on_call_prints() {
        roundtrip("class C { method m(q) { if (!q.isEmpty() && !(1 == 2)) { return 1; } return 0; } }");
    }

    #[test]
    fn instanceof_in_condition_roundtrips() {
        roundtrip(
            "class C { method m(e) { if (e instanceof A || e.getCause() instanceof B) { return true; } return false; } }",
        );
    }

    #[test]
    fn print_stmt_renders_single_statements() {
        let items = parse_file(
            "class C { method m(e) { if (x >= 3) { throw e; } sleep(50 + 50 * r); } }",
        )
        .unwrap();
        let Item::Class(class) = &items[0] else {
            panic!("expected class");
        };
        let stmts = &class.methods[0].body.stmts;
        assert_eq!(print_stmt(&stmts[0]), "if (x >= 3) {\n    throw e;\n}\n");
        assert_eq!(print_stmt(&stmts[1]), "sleep(50 + 50 * r);\n");
    }

    #[test]
    fn print_expr_is_compact() {
        let items =
            parse_file("class C { method m(a) { return a.f.g(1, \"x\").h + 2; } }").unwrap();
        let Item::Class(class) = &items[0] else {
            panic!("expected class");
        };
        let Stmt::Return { expr: Some(e), .. } = &class.methods[0].body.stmts[0] else {
            panic!("expected return");
        };
        assert_eq!(print_expr(e), "a.f.g(1, \"x\").h + 2");
    }
}
