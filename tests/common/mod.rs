//! Test helpers shared by several integration tests.

// Each test binary compiles this module and uses a part of it.
#![allow(dead_code)]

pub mod ir_debug {
    //! The lowered program rendered exactly as the derived `Debug` of the
    //! boxed IR it replaced rendered it (`{:?}` of `Vec<ClassDef>` and of
    //! `Vec<CompiledMethod>`, every `Box` printing through), so digests
    //! recorded from that IR still hold for the flat one.

    use std::fmt::{self, Debug, Formatter};
    use wasabi::lang::ast::Lit;
    use wasabi::lang::index::{
        ClassDef, ClassId, CompiledMethod, LBlock, LExpr, LExprId, LStmt, LStmtId, ProgramIndex,
    };
    use wasabi::lang::intern::Symbol;

    /// `{:?}` of the index's classes, as `Vec<ClassDef>` printed.
    pub fn classes(index: &ProgramIndex) -> String {
        let classes: Vec<Class<'_>> = (0..index.classes.len())
            .map(|c| Class(index, ClassId(c as u32)))
            .collect();
        format!("{classes:?}")
    }

    /// `{:?}` of the index's methods, as `Vec<CompiledMethod>` printed.
    pub fn methods(index: &ProgramIndex) -> String {
        let methods: Vec<Method<'_>> = index.methods.iter().map(|m| Method(index, m)).collect();
        format!("{methods:?}")
    }

    /// The index's interner strings in symbol order, one per line, then
    /// its lowered classes, methods, exceptions and configs: what the
    /// front-end pins hash. The interner's hash table is left out (its
    /// layout is random).
    pub fn dump(index: &ProgramIndex) -> String {
        let mut out = String::new();
        for i in 0..index.interner.len() {
            out.push_str(index.interner.resolve(Symbol(i as u32)));
            out.push('\n');
        }
        out + &format!(
            "{}{}{:?}{:?}",
            classes(index),
            methods(index),
            index.exceptions,
            index.configs
        )
    }

    /// `{:?}` of one method body, as `Vec<LStmt>` printed.
    pub fn body(index: &ProgramIndex, method: &CompiledMethod) -> String {
        format!("{:?}", Block(index, method.body))
    }

    struct Class<'a>(&'a ProgramIndex, ClassId);
    struct Method<'a>(&'a ProgramIndex, &'a CompiledMethod);
    struct Block<'a>(&'a ProgramIndex, LBlock);
    struct Stmt<'a>(&'a ProgramIndex, LStmtId);
    struct Expr<'a>(&'a ProgramIndex, LExprId);
    struct Args<'a>(&'a ProgramIndex, wasabi::lang::ast::List<LExprId>);
    struct Literal<'a>(&'a ProgramIndex, Lit);

    impl Debug for Class<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            let Class(ix, id) = *self;
            let c: &ClassDef = &ix.classes[id.0 as usize];
            let inits: Vec<Init<'_>> = c.inits.iter().map(|i| Init(ix, i.slot, i.expr)).collect();
            f.debug_struct("ClassDef")
                .field("name", &c.name)
                .field("name_str", &c.name_str)
                .field("file", &c.file)
                .field("parent", &c.parent)
                .field("layout", &c.layout)
                .field("inits", &inits)
                .field("has_init", &c.has_init)
                .field("dispatch", &ix.dispatch_entries(id))
                .finish()
        }
    }

    struct Init<'a>(&'a ProgramIndex, u32, LExprId);

    impl Debug for Init<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            f.debug_struct("FieldInit")
                .field("slot", &self.1)
                .field("expr", &Expr(self.0, self.2))
                .finish()
        }
    }

    impl Debug for Method<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            let Method(ix, m) = *self;
            f.debug_struct("CompiledMethod")
                .field("name", &m.name)
                .field("params", &m.params)
                .field("n_slots", &m.n_slots)
                .field("body", &Block(ix, m.body))
                .field("is_test", &m.is_test)
                .field("owner", &m.owner)
                .field("file", &m.file)
                .field("throws", &m.throws)
                .finish()
        }
    }

    impl Debug for Block<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            let Block(ix, block) = *self;
            f.debug_list()
                .entries(ix[block].iter().map(|&s| Stmt(ix, s)))
                .finish()
        }
    }

    impl Debug for Args<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            let Args(ix, args) = *self;
            f.debug_list()
                .entries(ix[args].iter().map(|&e| Expr(ix, e)))
                .finish()
        }
    }

    impl Debug for Literal<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            match self.1 {
                Lit::Int(v) => f.debug_tuple("Int").field(&v).finish(),
                Lit::Str(s) => f.debug_tuple("Str").field(&self.0.text(s)).finish(),
                Lit::Bool(b) => f.debug_tuple("Bool").field(&b).finish(),
                Lit::Null => f.write_str("Null"),
            }
        }
    }

    impl Debug for Stmt<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            let Stmt(ix, id) = *self;
            let e = |id| Expr(ix, id);
            let b = |id| Block(ix, id);
            match ix[id] {
                LStmt::Var { slot, init } => f
                    .debug_struct("Var")
                    .field("slot", &slot)
                    .field("init", &e(init))
                    .finish(),
                LStmt::AssignLocal { slot, name, value } => f
                    .debug_struct("AssignLocal")
                    .field("slot", &slot)
                    .field("name", &name)
                    .field("value", &e(value))
                    .finish(),
                LStmt::AssignField { recv, name, value } => f
                    .debug_struct("AssignField")
                    .field("recv", &e(recv))
                    .field("name", &name)
                    .field("value", &e(value))
                    .finish(),
                LStmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => f
                    .debug_struct("If")
                    .field("cond", &e(cond))
                    .field("then_blk", &b(then_blk))
                    .field("else_blk", &else_blk.map(b))
                    .finish(),
                LStmt::While { cond, body } => f
                    .debug_struct("While")
                    .field("cond", &e(cond))
                    .field("body", &b(body))
                    .finish(),
                LStmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => f
                    .debug_struct("For")
                    .field("init", &init.map(|s| Stmt(ix, s)))
                    .field("cond", &cond.map(e))
                    .field("update", &update.map(|s| Stmt(ix, s)))
                    .field("body", &b(body))
                    .finish(),
                LStmt::Switch {
                    scrutinee,
                    cases,
                    default,
                } => {
                    let cases: Vec<_> = ix[cases]
                        .iter()
                        .map(|case| (Literal(ix, case.lit), b(case.body)))
                        .collect();
                    f.debug_struct("Switch")
                        .field("scrutinee", &e(scrutinee))
                        .field("cases", &cases)
                        .field("default", &default.map(b))
                        .finish()
                }
                LStmt::Try {
                    body,
                    catches,
                    finally,
                } => {
                    let catches: Vec<Catch<'_>> = ix[catches]
                        .iter()
                        .map(|c| Catch(ix, c.exc, c.binding, c.body))
                        .collect();
                    f.debug_struct("Try")
                        .field("body", &b(body))
                        .field("catches", &catches)
                        .field("finally", &finally.map(b))
                        .finish()
                }
                LStmt::Throw { expr } => f.debug_struct("Throw").field("expr", &e(expr)).finish(),
                LStmt::Return { expr } => f
                    .debug_struct("Return")
                    .field("expr", &expr.map(e))
                    .finish(),
                LStmt::Break => f.write_str("Break"),
                LStmt::Continue => f.write_str("Continue"),
                LStmt::Sleep { ms } => f.debug_struct("Sleep").field("ms", &e(ms)).finish(),
                LStmt::Log { expr } => f.debug_struct("Log").field("expr", &e(expr)).finish(),
                LStmt::Assert { cond, msg } => f
                    .debug_struct("Assert")
                    .field("cond", &e(cond))
                    .field("msg", &msg.map(e))
                    .finish(),
                LStmt::Expr { expr } => f.debug_struct("Expr").field("expr", &e(expr)).finish(),
            }
        }
    }

    struct Catch<'a>(&'a ProgramIndex, wasabi::lang::index::ExcId, u32, LBlock);

    impl Debug for Catch<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            f.debug_struct("LCatch")
                .field("exc", &self.1)
                .field("binding", &self.2)
                .field("body", &Block(self.0, self.3))
                .finish()
        }
    }

    impl Debug for Expr<'_> {
        fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
            let Expr(ix, id) = *self;
            let e = |id| Expr(ix, id);
            let args = |list| Args(ix, list);
            match ix[id] {
                LExpr::Literal(lit) => f.debug_tuple("Literal").field(&Literal(ix, lit)).finish(),
                LExpr::Local { slot, name } => f
                    .debug_struct("Local")
                    .field("slot", &slot)
                    .field("name", &name)
                    .finish(),
                LExpr::ImplicitField { name } => f
                    .debug_struct("ImplicitField")
                    .field("name", &name)
                    .finish(),
                LExpr::This => f.write_str("This"),
                LExpr::Field { recv, name } => f
                    .debug_struct("Field")
                    .field("recv", &e(recv))
                    .field("name", &name)
                    .finish(),
                LExpr::GlobalCall { name, args: a } => f
                    .debug_struct("GlobalCall")
                    .field("name", &name)
                    .field("args", &args(a))
                    .finish(),
                LExpr::Call {
                    site,
                    recv,
                    method,
                    args: a,
                } => f
                    .debug_struct("Call")
                    .field("site", &site)
                    .field("recv", &recv.map(e))
                    .field("method", &method)
                    .field("args", &args(a))
                    .finish(),
                LExpr::NewExc { exc, args: a } => f
                    .debug_struct("NewExc")
                    .field("exc", &exc)
                    .field("args", &args(a))
                    .finish(),
                LExpr::NewObj { class, args: a } => f
                    .debug_struct("NewObj")
                    .field("class", &class)
                    .field("args", &args(a))
                    .finish(),
                LExpr::NewUnknown { class, args: a } => f
                    .debug_struct("NewUnknown")
                    .field("class", &ix.text(class))
                    .field("args", &args(a))
                    .finish(),
                LExpr::Binary { op, lhs, rhs } => f
                    .debug_struct("Binary")
                    .field("op", &op)
                    .field("lhs", &e(lhs))
                    .field("rhs", &e(rhs))
                    .finish(),
                LExpr::Unary { op, expr } => f
                    .debug_struct("Unary")
                    .field("op", &op)
                    .field("expr", &e(expr))
                    .finish(),
                LExpr::InstanceOf {
                    expr,
                    ty,
                    exc,
                    class,
                } => f
                    .debug_struct("InstanceOf")
                    .field("expr", &e(expr))
                    .field("ty", &ty)
                    .field("exc", &exc)
                    .field("class", &class)
                    .finish(),
            }
        }
    }
}

pub mod widths {
    //! The parse and the sweep fanned out to a chosen number of workers,
    //! for tests that compare every width with `Project::compile` and
    //! `sweep_project`, which use the machine's.

    use std::sync::Arc;
    use wasabi::lang::error::Diagnostic;
    use wasabi::lang::project::{FileId, Project, SourceFile};
    use wasabi::llm::detector::{sweep_file, LlmSweep};
    use wasabi::llm::model::LanguageModel;
    use wasabi::util::fanout::map_with;

    /// Parses `sources` on `width` workers, then links them as
    /// `Project::compile` does: errors come back in file order.
    pub fn compile(
        name: &str,
        sources: &[(String, String)],
        width: usize,
    ) -> Result<Project, Vec<Diagnostic>> {
        let parsed = map_with(
            vec![(); width],
            sources.iter().collect(),
            |(_, source)| source.len(),
            |(), (path, source)| SourceFile::parse(path.as_str(), source.as_str()),
        );
        let mut files = Vec::new();
        let mut errors = Vec::new();
        for file in parsed {
            match file {
                Ok(file) => files.push(Arc::new(file)),
                Err(err) => errors.push(err),
            }
        }
        if !errors.is_empty() {
            return Err(errors);
        }
        Project::link(name, files)
    }

    /// Sweeps every file on `width` forks of `llm` and folds the answers in
    /// file order.
    pub fn sweep(project: &Project, llm: &dyn LanguageModel, width: usize) -> LlmSweep {
        map_with(
            (0..width).map(|_| llm.fork()).collect(),
            project.files.iter().enumerate().collect(),
            |(_, file)| file.source.len(),
            |llm, (fidx, file)| sweep_file(FileId(fidx as u32), file, &mut **llm),
        )
        .into_iter()
        .collect()
    }
}
