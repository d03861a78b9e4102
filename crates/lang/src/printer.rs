//! Pretty-printer for Javelin ASTs.
//!
//! The printer produces canonical source text that re-parses to the same AST
//! (modulo spans); because call ids and loop ids are assigned in source
//! order, they are also preserved. `print → parse → print` is a fixed point,
//! which the property tests rely on.

use crate::ast::*;
use std::fmt::Write as _;

/// Pretty-prints a whole file.
pub fn print_items(ast: &Ast) -> String {
    let mut p = Printer::new(ast);
    for item in ast.items() {
        p.item(item);
    }
    p.out
}

/// Pretty-prints a single class of `ast`.
pub fn print_class(ast: &Ast, class: &ClassDecl) -> String {
    let mut p = Printer::new(ast);
    p.class(class);
    p.out
}

/// Pretty-prints an expression of `ast` (mainly for diagnostics and
/// reports).
pub fn print_expr(ast: &Ast, expr: ExprId) -> String {
    let mut p = Printer::new(ast);
    p.expr(expr);
    p.out
}

/// Pretty-prints a single statement of `ast` at indent zero (trailing
/// newline included, one line per statement). Repair's flatten template
/// renders a loop's init through this, so spliced text is canonical
/// printer output.
pub fn print_stmt(ast: &Ast, stmt: &Stmt) -> String {
    let mut p = Printer::new(ast);
    p.stmt(stmt);
    p.out
}

struct Printer<'a> {
    ast: &'a Ast,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(ast: &'a Ast) -> Self {
        Printer {
            ast,
            out: String::new(),
            indent: 0,
        }
    }

    /// Renders `expr` on its own, for a header or a one-line statement.
    fn render(&self, expr: ExprId) -> String {
        let mut p = Printer::new(self.ast);
        p.expr(expr);
        p.out
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

    fn names(&self, list: List<Name>) -> String {
        let names: Vec<&str> = self.ast[list].iter().map(|&n| &self.ast[n]).collect();
        names.join(", ")
    }

    fn item(&mut self, item: &Item) {
        let ast = self.ast;
        match item {
            Item::ExceptionDecl(d) => {
                let parent = d
                    .parent
                    .map(|p| format!(" extends {}", &ast[p]))
                    .unwrap_or_default();
                self.line(&format!("exception {}{parent};", &ast[d.name]));
            }
            Item::ConfigDecl(d) => {
                let default = ast.literal(d.default);
                self.line(&format!(
                    "config {} default {default};",
                    Quoted(&ast[d.key])
                ));
            }
            Item::Class(c) => self.class(c),
        }
    }

    fn class(&mut self, class: &ClassDecl) {
        let ast = self.ast;
        let parent = class
            .parent
            .map(|p| format!(" extends {}", &ast[p]))
            .unwrap_or_default();
        self.open(&format!("class {}{parent}", &ast[class.name]));
        for field in &ast[class.fields] {
            match field.init {
                Some(init) => {
                    let init = self.render(init);
                    self.line(&format!("field {} = {init};", &ast[field.name]));
                }
                None => self.line(&format!("field {};", &ast[field.name])),
            }
        }
        for method in &ast[class.methods] {
            self.method(method);
        }
        self.close("");
    }

    fn method(&mut self, method: &MethodDecl) {
        let kw = if method.is_test { "test" } else { "method" };
        let params = self.names(method.params);
        let throws = if method.throws.is_empty() {
            String::new()
        } else {
            format!(" throws {}", self.names(method.throws))
        };
        self.open(&format!(
            "{kw} {}({params}){throws}",
            &self.ast[method.name]
        ));
        self.stmts(&method.body);
        self.close("");
    }

    fn stmts(&mut self, block: &Block) {
        let ast = self.ast;
        for stmt in ast.stmts_in(block) {
            self.stmt(stmt);
        }
    }

    fn block_inline(&mut self, block: &Block, header: &str, suffix: &str) {
        self.open(header);
        self.stmts(block);
        self.close(suffix);
    }

    fn stmt(&mut self, stmt: &Stmt) {
        let ast = self.ast;
        match stmt {
            Stmt::Var { name, init, .. } => {
                let init = self.render(*init);
                self.line(&format!("var {} = {init};", &ast[*name]));
            }
            Stmt::Assign { target, value, .. } => {
                let mut p = Printer::new(ast);
                p.lvalue(target);
                p.out.push_str(" = ");
                p.expr(*value);
                let text = format!("{};", p.out);
                self.line(&text);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let cond = self.render(*cond);
                self.block_inline(then_blk, &format!("if ({cond})"), "");
                if let Some(else_blk) = else_blk {
                    // Undo the newline so `else` attaches visually; simplest
                    // canonical form keeps `else` on its own header line.
                    self.block_inline(else_blk, "else", "");
                }
            }
            Stmt::While { cond, body, .. } => {
                let cond = self.render(*cond);
                self.block_inline(body, &format!("while ({cond})"), "");
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
                        let mut p = Printer::new(ast);
                        p.header_stmt(&ast[*stmt]);
                        header.push_str(&p.out);
                        header.push(';');
                    }
                    None => header.push(';'),
                }
                header.push(' ');
                if let Some(cond) = cond {
                    header.push_str(&self.render(*cond));
                }
                header.push_str("; ");
                if let Some(update) = update {
                    let mut p = Printer::new(ast);
                    p.header_stmt(&ast[*update]);
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
                let scrutinee = self.render(*scrutinee);
                self.open(&format!("switch ({scrutinee})"));
                for case in &ast[*cases] {
                    let lit = ast.literal(case.lit);
                    self.block_inline(&case.body, &format!("case {lit}:"), "");
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
                for catch in &ast[*catches] {
                    self.block_inline(
                        &catch.body,
                        &format!("catch ({} {})", &ast[catch.exc_type], &ast[catch.binding]),
                        "",
                    );
                }
                if let Some(finally) = finally {
                    self.block_inline(finally, "finally", "");
                }
            }
            Stmt::Throw { expr, .. } => {
                let expr = self.render(*expr);
                self.line(&format!("throw {expr};"));
            }
            Stmt::Return { expr, .. } => match expr {
                Some(expr) => {
                    let expr = self.render(*expr);
                    self.line(&format!("return {expr};"));
                }
                None => self.line("return;"),
            },
            Stmt::Break { .. } => self.line("break;"),
            Stmt::Continue { .. } => self.line("continue;"),
            Stmt::Sleep { ms, .. } => {
                let ms = self.render(*ms);
                self.line(&format!("sleep({ms});"));
            }
            Stmt::Log { expr, .. } => {
                let expr = self.render(*expr);
                self.line(&format!("log({expr});"));
            }
            Stmt::Assert { cond, msg, .. } => {
                let cond = self.render(*cond);
                match msg {
                    Some(msg) => {
                        let msg = self.render(*msg);
                        self.line(&format!("assert({cond}, {msg});"));
                    }
                    None => self.line(&format!("assert({cond});")),
                }
            }
            Stmt::Expr { expr, .. } => {
                let expr = self.render(*expr);
                self.line(&format!("{expr};"));
            }
        }
    }

    /// Prints a for-header statement (no trailing semicolon).
    fn header_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Var { name, init, .. } => {
                self.out.push_str("var ");
                self.out.push_str(&self.ast[*name]);
                self.out.push_str(" = ");
                self.expr(*init);
            }
            Stmt::Assign { target, value, .. } => {
                self.lvalue(target);
                self.out.push_str(" = ");
                self.expr(*value);
            }
            other => panic!("unsupported for-header statement: {other:?}"),
        }
    }

    fn lvalue(&mut self, lvalue: &LValue) {
        match lvalue {
            LValue::Var(name, _) => self.out.push_str(&self.ast[*name]),
            LValue::Field { recv, name, .. } => {
                self.expr_prec(*recv, 100);
                self.out.push('.');
                self.out.push_str(&self.ast[*name]);
            }
        }
    }

    fn expr(&mut self, expr: ExprId) {
        self.expr_prec(expr, 0);
    }

    /// Prints `expr`, parenthesizing when its precedence is below `min_prec`.
    fn expr_prec(&mut self, expr: ExprId, min_prec: u8) {
        let ast = self.ast;
        let expr = &ast[expr];
        let prec = expr_precedence(expr);
        let need_parens = prec < min_prec;
        if need_parens {
            self.out.push('(');
        }
        match expr {
            Expr::Literal(lit, _) => match lit {
                Lit::Int(v) => write!(self.out, "{v}").expect("writing to a String"),
                Lit::Str(s) => {
                    write!(self.out, "{}", Quoted(&ast[*s])).expect("writing to a String")
                }
                Lit::Bool(b) => write!(self.out, "{b}").expect("writing to a String"),
                Lit::Null => self.out.push_str("null"),
            },
            Expr::Ident(name, _) => self.out.push_str(&ast[*name]),
            Expr::This(_) => self.out.push_str("this"),
            Expr::Field { recv, name, .. } => {
                self.expr_prec(*recv, 100);
                self.out.push('.');
                self.out.push_str(&ast[*name]);
            }
            Expr::Call {
                recv, method, args, ..
            } => {
                if let Some(recv) = recv {
                    self.expr_prec(*recv, 100);
                    self.out.push('.');
                }
                self.out.push_str(&ast[*method]);
                self.args(*args);
            }
            Expr::New { class, args, .. } => {
                self.out.push_str("new ");
                self.out.push_str(&ast[*class]);
                self.args(*args);
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // Left-associative: the right operand needs strictly higher
                // precedence to avoid reassociation on re-parse.
                self.expr_prec(*lhs, prec);
                self.out.push(' ');
                self.out.push_str(op.symbol());
                self.out.push(' ');
                self.expr_prec(*rhs, prec + 1);
            }
            Expr::Unary { op, expr, .. } => {
                self.out.push_str(op.symbol());
                self.expr_prec(*expr, 90);
            }
            Expr::InstanceOf { expr, ty, .. } => {
                self.expr_prec(*expr, prec + 1);
                self.out.push_str(" instanceof ");
                self.out.push_str(&ast[*ty]);
            }
        }
        if need_parens {
            self.out.push(')');
        }
    }

    fn args(&mut self, args: List<ExprId>) {
        self.out.push('(');
        for (i, &arg) in self.ast[args].iter().enumerate() {
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
        let ast = parse_file(src).expect("initial parse");
        let printed = print_items(&ast);
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
        let ast = parse_file(src).unwrap();
        let printed = print_items(&ast);
        let reparsed = parse_file(&printed).unwrap();
        assert_eq!(print_items(&reparsed), printed);
        assert!(printed.contains("(a + b) * 2"));
    }

    #[test]
    fn unary_on_call_prints() {
        roundtrip(
            "class C { method m(q) { if (!q.isEmpty() && !(1 == 2)) { return 1; } return 0; } }",
        );
    }

    #[test]
    fn instanceof_in_condition_roundtrips() {
        roundtrip(
            "class C { method m(e) { if (e instanceof A || e.getCause() instanceof B) { return true; } return false; } }",
        );
    }

    #[test]
    fn print_stmt_renders_single_statements() {
        let ast =
            parse_file("class C { method m(e) { if (x >= 3) { throw e; } sleep(50 + 50 * r); } }")
                .unwrap();
        let Item::Class(class) = &ast.items()[0] else {
            panic!("expected class");
        };
        let stmts: Vec<&Stmt> = ast.stmts_in(&ast[class.methods][0].body).collect();
        assert_eq!(
            print_stmt(&ast, stmts[0]),
            "if (x >= 3) {\n    throw e;\n}\n"
        );
        assert_eq!(print_stmt(&ast, stmts[1]), "sleep(50 + 50 * r);\n");
        assert_eq!(
            print_class(&ast, class),
            "class C {\n    method m(e) {\n        if (x >= 3) {\n            throw e;\n        }\n        sleep(50 + 50 * r);\n    }\n}\n"
        );
    }

    #[test]
    fn print_expr_is_compact() {
        let ast = parse_file("class C { method m(a) { return a.f.g(1, \"x\").h + 2; } }").unwrap();
        let Item::Class(class) = &ast.items()[0] else {
            panic!("expected class");
        };
        let Some(Stmt::Return { expr: Some(e), .. }) =
            ast.stmts_in(&ast[class.methods][0].body).next()
        else {
            panic!("expected return");
        };
        assert_eq!(print_expr(&ast, *e), "a.f.g(1, \"x\").h + 2");
    }
}
