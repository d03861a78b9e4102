//! Callee resolution and project-wide indexes.
//!
//! Like the paper's CodeQL queries, resolution is *static and approximate*:
//! calls on `this` resolve through the enclosing class hierarchy; calls on
//! other receivers resolve only when the method name names a single
//! dispatch target across the project. Unresolvable calls are skipped,
//! which is a (realistic) source of false negatives.
//!
//! Resolution consults the compiled [`ProgramIndex`] dispatch tables — the
//! same tables the VM dispatches through — rather than a parallel
//! name-matching structure, so static targets can never drift from runtime
//! targets. [`ProjectIndex::resolve_callee`] keeps the historical
//! single-target contract (the statically enclosing class's view);
//! [`ProjectIndex::resolve_targets`] returns the full dispatch-consistent
//! may-set, which includes subclass overrides a `this` call can reach at
//! runtime.

use std::collections::HashMap;
use wasabi_lang::ast::{Ast, Expr, LoopId, MethodDecl, Stmt};
use wasabi_lang::index::{ClassId, ProgramIndex};
use wasabi_lang::project::{CallSite, FileId, MethodId, Project};

/// A method declaration together with the file AST that resolves its ids
/// and names.
#[derive(Debug, Clone, Copy)]
pub struct MethodRef<'p> {
    /// The declaring file's AST.
    pub ast: &'p Ast,
    /// The declaration.
    pub decl: &'p MethodDecl,
}

impl<'p> MethodRef<'p> {
    /// The declared `throws` clause, in source order.
    pub fn throws(&self) -> impl Iterator<Item = &'p str> + 'p {
        let ast = self.ast;
        ast[self.decl.throws].iter().map(move |&name| &ast[name])
    }
}

/// Where a loop lives: file, enclosing class/method, and the loop statement.
#[derive(Debug, Clone, Copy)]
pub struct LoopSite<'p> {
    /// File the loop is in.
    pub file: FileId,
    /// That file's AST, which resolves `method` and `stmt`.
    pub ast: &'p Ast,
    /// Enclosing (coordinator) method.
    pub method: &'p MethodDecl,
    /// Enclosing class name.
    pub class: &'p str,
    /// The loop statement (`Stmt::While` or `Stmt::For`).
    pub stmt: &'p Stmt,
    /// The loop id.
    pub loop_id: LoopId,
}

impl<'p> LoopSite<'p> {
    /// The enclosing method's name.
    pub fn method_name(&self) -> &'p str {
        &self.ast[self.method.name]
    }
}

/// Precomputed project-wide lookup structures.
pub struct ProjectIndex<'p> {
    project: &'p Project,
    /// Method name → declaring (class, method) pairs.
    by_name: HashMap<&'p str, Vec<(&'p str, MethodRef<'p>)>>,
    /// All loops in the project.
    loops: Vec<LoopSite<'p>>,
}

impl<'p> ProjectIndex<'p> {
    /// Builds the index by walking every method in the project.
    pub fn build(project: &'p Project) -> Self {
        let mut by_name: HashMap<&str, Vec<(&str, MethodRef<'p>)>> = HashMap::new();
        let mut loops = Vec::new();
        for (fidx, file) in project.files.iter().enumerate() {
            let ast: &Ast = file;
            for class in ast.classes() {
                let class_name = &ast[class.name];
                for decl in &ast[class.methods] {
                    by_name
                        .entry(&ast[decl.name])
                        .or_default()
                        .push((class_name, MethodRef { ast, decl }));
                    ast.walk_stmts(&decl.body, &mut |stmt| {
                        match stmt {
                            Stmt::While { id, .. } | Stmt::For { id, .. } => {
                                loops.push(LoopSite {
                                    file: FileId(fidx as u32),
                                    ast,
                                    method: decl,
                                    class: class_name,
                                    stmt,
                                    loop_id: *id,
                                });
                            }
                            _ => {}
                        }
                        true
                    });
                }
            }
        }
        ProjectIndex {
            project,
            by_name,
            loops,
        }
    }

    /// The underlying project.
    pub fn project(&self) -> &'p Project {
        self.project
    }

    /// All loops in the project, in file/source order.
    pub fn loops(&self) -> &[LoopSite<'p>] {
        &self.loops
    }

    /// Maps a compiled method index back to its AST declaration.
    fn compiled_target(&self, midx: u32) -> Option<(MethodId, MethodRef<'p>)> {
        let index: &ProgramIndex = self.project.index();
        let compiled = &index.methods[midx as usize];
        let owner = index.classes[compiled.owner.0 as usize].name_str.as_str();
        let name = index.interner.resolve(compiled.name);
        self.by_name
            .get(name)?
            .iter()
            .find(|(class, _)| *class == owner)
            .map(|&(class, decl)| (MethodId::new(class, name), decl))
    }

    /// The single dispatch target for `method` anywhere in the program, if
    /// exactly one class hierarchy defines it.
    fn unique_foreign_target(&self, method: &str) -> Option<u32> {
        let index: &ProgramIndex = self.project.index();
        let sym = index.interner.lookup(method)?;
        let mut target = None;
        for cid in (0..index.classes.len() as u32).map(ClassId) {
            match (index.resolve_dispatch(cid, sym), target) {
                (None, _) => {}
                (Some(midx), None) => target = Some(midx),
                (Some(midx), Some(t)) if midx == t => {}
                // Two distinct targets: ambiguous, give up like a purely
                // syntactic query.
                (Some(_), Some(_)) => return None,
            }
        }
        target
    }

    /// Resolves a called method statically to a single target.
    ///
    /// `recv_this` means the receiver is `this` (or implicit): resolve
    /// through `enclosing_class`'s dispatch table. Otherwise the name must
    /// map to a single dispatch target project-wide. This is the
    /// historical point query — a `this` call resolves to the statically
    /// enclosing class's view and ignores subclass overrides; use
    /// [`ProjectIndex::resolve_targets`] for the dispatch-consistent set.
    pub fn resolve_callee(
        &self,
        enclosing_class: &str,
        method: &str,
        recv_this: bool,
    ) -> Option<(MethodId, MethodRef<'p>)> {
        let index: &ProgramIndex = self.project.index();
        if recv_this {
            let cid = index.class_by_name(enclosing_class)?;
            let sym = index.interner.lookup(method)?;
            return self.compiled_target(index.resolve_dispatch(cid, sym)?);
        }
        self.compiled_target(self.unique_foreign_target(method)?)
    }

    /// Every method a call could dispatch to at runtime.
    ///
    /// For `this` calls the receiver may be any subtype of the enclosing
    /// class, so every override in the hierarchy below it is a possible
    /// target. Foreign receivers keep the unique-target rule. Targets are
    /// returned in compiled-method order, deduplicated.
    pub fn resolve_targets(
        &self,
        enclosing_class: &str,
        method: &str,
        recv_this: bool,
    ) -> Vec<(MethodId, MethodRef<'p>)> {
        let index: &ProgramIndex = self.project.index();
        let mut mids: Vec<u32> = Vec::new();
        if recv_this {
            let (Some(cid), Some(sym)) = (
                index.class_by_name(enclosing_class),
                index.interner.lookup(method),
            ) else {
                return Vec::new();
            };
            for sub in index.subtypes_of_class(cid) {
                if let Some(midx) = index.resolve_dispatch(sub, sym) {
                    mids.push(midx);
                }
            }
        } else if let Some(midx) = self.unique_foreign_target(method) {
            mids.push(midx);
        }
        mids.sort_unstable();
        mids.dedup();
        mids.into_iter()
            .filter_map(|m| self.compiled_target(m))
            .collect()
    }

    /// Methods invoked by `method` (resolved where possible) with their
    /// declared `throws` — the CodeQL follow-up step WASABI runs after the
    /// LLM flags a coordinator method (§3.1.1, second technique).
    pub fn invoked_with_throws(
        &self,
        class: &str,
        method: MethodRef<'_>,
    ) -> Vec<(CallSite, MethodId, Vec<String>)> {
        let file = match self.project.symbols.class(class) {
            Some(info) => info.file,
            None => return Vec::new(),
        };
        let ast = method.ast;
        let mut out = Vec::new();
        ast.walk_exprs(&method.decl.body, &mut |expr| {
            if let Expr::Call {
                id, recv, method, ..
            } = expr
            {
                let recv_this = match recv {
                    None => true,
                    Some(r) => matches!(ast[*r], Expr::This(_)),
                };
                for (callee, decl) in self.resolve_targets(class, &ast[*method], recv_this) {
                    out.push((
                        CallSite { file, call: *id },
                        callee,
                        decl.throws().map(str::to_string).collect(),
                    ));
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    #[test]
    fn indexes_loops_across_methods() {
        let p = project(
            "class A { method m() { while (true) { break; } for (;;) { break; } } }\n\
             class B { method n() { while (false) { } } }",
        );
        let index = ProjectIndex::build(&p);
        assert_eq!(index.loops().len(), 3);
        assert_eq!(index.loops()[0].class, "A");
        assert_eq!(index.loops()[2].class, "B");
    }

    #[test]
    fn resolves_this_calls_through_hierarchy() {
        let p = project(
            "class Base { method helper() { return 1; } }\n\
             class Kid extends Base { method m() { this.helper(); } }",
        );
        let index = ProjectIndex::build(&p);
        let (id, _) = index.resolve_callee("Kid", "helper", true).expect("resolved");
        assert_eq!(id, MethodId::new("Base", "helper"));
    }

    #[test]
    fn unique_name_resolution_for_foreign_receivers() {
        let p = project(
            "class Conn { method close() { return 1; } }\n\
             class C { method m(conn) { conn.close(); } }",
        );
        let index = ProjectIndex::build(&p);
        let (id, _) = index.resolve_callee("C", "close", false).expect("resolved");
        assert_eq!(id, MethodId::new("Conn", "close"));
    }

    #[test]
    fn ambiguous_names_are_unresolved() {
        let p = project(
            "class A { method go() { return 1; } }\n\
             class B { method go() { return 2; } }\n\
             class C { method m(x) { x.go(); } }",
        );
        let index = ProjectIndex::build(&p);
        assert!(index.resolve_callee("C", "go", false).is_none());
    }

    #[test]
    fn this_call_targets_include_subclass_overrides() {
        // The split-brain divergence this reroute pins down: the old
        // name-matching resolver saw only the statically enclosing
        // hierarchy's declaration for a `this` call, but at runtime the
        // receiver can be a subclass whose override throws something else
        // entirely. The point query keeps the historical single-target
        // answer; the dispatch-table may-set includes the override.
        let p = project(
            "exception BaseError;\n\
             exception KidError;\n\
             class Base {\n\
               method process() throws BaseError { return 1; }\n\
               method run() { return this.process(); }\n\
             }\n\
             class Kid extends Base {\n\
               method process() throws KidError { return 2; }\n\
             }",
        );
        let index = ProjectIndex::build(&p);
        let (id, decl) = index.resolve_callee("Base", "process", true).expect("resolved");
        assert_eq!(id, MethodId::new("Base", "process"));
        assert_eq!(decl.throws().collect::<Vec<_>>(), vec!["BaseError"]);
        let targets: Vec<MethodId> = index
            .resolve_targets("Base", "process", true)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(
            targets,
            vec![MethodId::new("Base", "process"), MethodId::new("Kid", "process")]
        );
        // From Kid's point of view only the override is reachable.
        let from_kid: Vec<MethodId> = index
            .resolve_targets("Kid", "process", true)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(from_kid, vec![MethodId::new("Kid", "process")]);
    }

    #[test]
    fn invoked_with_throws_lists_call_sites() {
        let p = project(
            "exception ConnectException;\nexception IOException;\n\
             class C {\n\
               method connect() throws ConnectException { return 1; }\n\
               method fetch() throws IOException { return 2; }\n\
               method run() { this.connect(); this.fetch(); this.fetch(); }\n\
             }",
        );
        let index = ProjectIndex::build(&p);
        let (_, ast, decl) = p.resolve_method("C", "run").unwrap();
        let invoked = index.invoked_with_throws("C", MethodRef { ast, decl });
        assert_eq!(invoked.len(), 3);
        assert_eq!(invoked[0].1, MethodId::new("C", "connect"));
        assert_eq!(invoked[0].2, vec!["ConnectException"]);
        assert_eq!(invoked[1].2, vec!["IOException"]);
    }
}
