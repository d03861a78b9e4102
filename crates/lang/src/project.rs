//! Compiled multi-file programs: source files, symbol tables, and the
//! exception hierarchy.
//!
//! A [`SourceFile`] is its path, its text and its flat [`Ast`]: a handful
//! of vectors, with names interned per file. Everything that reads the
//! AST resolves ids and names through the file ([`SourceFile`] derefs to
//! its [`Ast`]). Linking builds the [`SymbolTable`] with owned names and
//! validates the files. The [`ProgramIndex`], which maps each file's
//! names into the global interner, is built on the first call to
//! [`Project::index`], by whichever static analysis needs it first.

use crate::ast::{Ast, CallId, ClassDecl, Expr, Item, Literal, MethodDecl, Stmt};
use crate::error::Diagnostic;
use crate::index::ProgramIndex;
use crate::parser::{parse_file_in, ParseScratch};
use crate::span::{LineMap, Span};
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use wasabi_util::fanout;

/// Index of a source file within a [`Project`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A static call site: file plus call id within the file.
///
/// Retry locations are anchored at call sites; the analysis crate produces
/// them and the injection/planner crates match on them at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSite {
    /// File containing the call expression.
    pub file: FileId,
    /// Call id within the file.
    pub call: CallId,
}

impl fmt::Display for CallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.call)
    }
}

/// A parsed source file plus its raw text (kept for the LLM analyses).
/// Derefs to its [`Ast`], which resolves every id and name in it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// File path (used in diagnostics and reports).
    pub path: String,
    /// Raw source text, comments included.
    pub source: String,
    /// The parsed file.
    pub ast: Ast,
}

impl Deref for SourceFile {
    type Target = Ast;

    fn deref(&self) -> &Ast {
        &self.ast
    }
}

impl SourceFile {
    /// Parses one file. A parse error carries the file's path.
    pub fn parse(
        path: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<SourceFile, Diagnostic> {
        SourceFile::parse_in(&mut ParseScratch::default(), path, source)
    }

    /// [`SourceFile::parse`] through `scratch`, whose buffers the previous
    /// file left grown: the file's vectors are allocated once, at their
    /// exact lengths. The result does not depend on what `scratch` parsed
    /// before.
    pub fn parse_in(
        scratch: &mut ParseScratch,
        path: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<SourceFile, Diagnostic> {
        let path = path.into();
        let source = source.into();
        match parse_file_in(scratch, &source) {
            Ok(ast) => Ok(SourceFile { path, source, ast }),
            Err(err) => Err(err.with_path(&path)),
        }
    }

    /// Builds a line map for rendering spans in this file.
    pub fn line_map(&self) -> LineMap {
        LineMap::new(&self.source)
    }
}

/// A fully-qualified method name, `Class.method`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId {
    /// Declaring (or receiving) class name.
    pub class: String,
    /// Method name.
    pub name: String,
}

impl MethodId {
    /// Creates a method id.
    pub fn new(class: impl Into<String>, name: impl Into<String>) -> Self {
        MethodId {
            class: class.into(),
            name: name.into(),
        }
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.name)
    }
}

/// Information about one declared class.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// File the class is declared in.
    pub file: FileId,
    /// Index of the class item within the file's items.
    pub item_idx: usize,
    /// Superclass name, if any.
    pub parent: Option<String>,
}

/// Information about one declared exception type.
#[derive(Debug, Clone)]
pub struct ExceptionInfo {
    /// Parent exception type (`None` only for the root `Throwable`).
    pub parent: Option<String>,
    /// Whether the type is a language builtin rather than user-declared.
    pub builtin: bool,
}

/// Exception types that exist in every project.
///
/// `Throwable` is the root; `AssertionError` sits directly under it so that
/// application-level `catch (Exception e)` handlers do not swallow test
/// assertions, mirroring Java's `Error` branch.
pub const BUILTIN_EXCEPTIONS: &[(&str, Option<&str>)] = &[
    ("Throwable", None),
    ("Exception", Some("Throwable")),
    ("AssertionError", Some("Throwable")),
    ("RuntimeException", Some("Exception")),
    ("NullPointerException", Some("RuntimeException")),
    ("IllegalArgumentException", Some("RuntimeException")),
    ("IllegalStateException", Some("RuntimeException")),
    ("ArithmeticException", Some("RuntimeException")),
];

/// Symbols declared across a project: classes, exceptions, and configs.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    classes: HashMap<String, ClassInfo>,
    exceptions: HashMap<String, ExceptionInfo>,
    configs: HashMap<String, Literal>,
}

impl SymbolTable {
    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassInfo> {
        self.classes.get(name)
    }

    /// Looks up an exception type by name.
    pub fn exception(&self, name: &str) -> Option<&ExceptionInfo> {
        self.exceptions.get(name)
    }

    /// Returns the default value for a configuration key.
    pub fn config_default(&self, key: &str) -> Option<&Literal> {
        self.configs.get(key)
    }

    /// Iterates over all configuration keys with their defaults.
    pub fn configs(&self) -> impl Iterator<Item = (&String, &Literal)> {
        self.configs.iter()
    }

    /// Iterates over all declared class names.
    pub fn class_names(&self) -> impl Iterator<Item = &String> {
        self.classes.keys()
    }

    /// Iterates over all exception type names (builtins included).
    pub fn exception_names(&self) -> impl Iterator<Item = &String> {
        self.exceptions.keys()
    }

    /// Whether exception type `sub` is `sup` or a descendant of `sup`.
    ///
    /// Unknown types are not subtypes of anything.
    pub fn is_exception_subtype(&self, sub: &str, sup: &str) -> bool {
        let mut current = sub;
        loop {
            if current == sup {
                return true;
            }
            match self.exceptions.get(current).and_then(|i| i.parent.as_deref()) {
                Some(parent) => current = parent,
                None => return false,
            }
        }
    }

    /// Whether class `sub` is `sup` or a descendant of `sup`.
    pub fn is_class_subtype(&self, sub: &str, sup: &str) -> bool {
        let mut current = sub;
        loop {
            if current == sup {
                return true;
            }
            match self.classes.get(current).and_then(|i| i.parent.as_deref()) {
                Some(parent) => current = parent,
                None => return false,
            }
        }
    }

    /// All declared exception types that are subtypes of `sup`.
    pub fn exception_subtypes(&self, sup: &str) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .exceptions
            .keys()
            .filter(|name| self.is_exception_subtype(name, sup))
            .map(String::as_str)
            .collect();
        out.sort_unstable();
        out
    }
}

/// How many AST statements and expressions each worker of the link's
/// validation must have: a project validates its files on more than one
/// thread only from `2 * NODES_PER_WORKER` nodes. On the 2-core reference
/// box validation alone takes 17–45 ns a node (warm, one thread) and
/// starting and joining a scoped thread 19–41 µs, so a worker's share is
/// 0.6–1.5 ms, over ten times what its thread costs. Every small corpus
/// app (at most 35,709 nodes) validates on one thread, so repair's
/// relinks start none; every paper-scale app (at least 84,722) validates
/// on two.
pub const NODES_PER_WORKER: usize = 32_768;

/// A compiled multi-file Javelin program.
#[derive(Debug, Clone)]
pub struct Project {
    /// Project (application) name, e.g. `"hdfs"`.
    pub name: String,
    /// Source files in compilation order. Parsed files are immutable and
    /// shared: a project relinked with one file replaced keeps the others'
    /// `Arc`s.
    pub files: Vec<Arc<SourceFile>>,
    /// Project-wide symbol table.
    pub symbols: SymbolTable,
    /// The compile-once execution index, built by the first
    /// [`Project::index`] call.
    index: OnceLock<Arc<ProgramIndex>>,
}

impl Project {
    /// Parses and links a set of `(path, source)` files into a project.
    ///
    /// The files are parsed on [`fanout::width`] workers, largest first,
    /// each worker through one [`ParseScratch`] of its own. The sources
    /// become `String`s on the caller's thread first: a worker thread
    /// allocates from an allocator arena of its own, and text that lives
    /// as long as the project is cheaper kept in the caller's, where the
    /// next project reuses it. All files are parsed even if earlier ones
    /// fail, so the returned error list covers the whole input, in file
    /// order.
    pub fn compile(
        name: impl Into<String>,
        sources: Vec<(impl Into<String>, impl Into<String>)>,
    ) -> Result<Project, Vec<Diagnostic>> {
        let sources: Vec<(String, String)> = sources
            .into_iter()
            .map(|(path, source)| (path.into(), source.into()))
            .collect();
        let parsed = fanout::map_with(
            (0..fanout::width()).map(|_| ParseScratch::default()).collect(),
            sources,
            |(_, source)| source.len(),
            |scratch, (path, source)| SourceFile::parse_in(scratch, path, source).map(Arc::new),
        );
        let mut files = Vec::with_capacity(parsed.len());
        let mut errors = Vec::new();
        for file in parsed {
            match file {
                Ok(file) => files.push(file),
                Err(err) => errors.push(err),
            }
        }
        if !errors.is_empty() {
            return Err(errors);
        }
        Project::link(name, files)
    }

    /// Links parsed files into a project: the symbol table and validation.
    ///
    /// The symbol table is checked first (duplicate declarations, unknown
    /// parent exceptions, `extends` cycles), then each file; the errors
    /// come back in that order, the files' in file order. Up to
    /// [`fanout::width`] workers validate the files: a project gets one
    /// worker per [`NODES_PER_WORKER`] statements and expressions. The
    /// link builds no index; [`Project::index`] builds it on first use.
    pub fn link(
        name: impl Into<String>,
        files: Vec<Arc<SourceFile>>,
    ) -> Result<Project, Vec<Diagnostic>> {
        let nodes: usize = files.iter().map(|file| file.stmts.len() + file.exprs.len()).sum();
        let width = fanout::width().min(nodes / NODES_PER_WORKER).max(1);
        let mut errors = Vec::new();
        let symbols = build_symbols(&files, &mut errors);
        reject_cycles(&files, &symbols, &mut errors);
        let per_file = fanout::map_with(
            vec![(); width],
            files.iter().collect(),
            |file| file.stmts.len() + file.exprs.len(),
            |(), file| validate_file(file, &symbols),
        );
        errors.extend(per_file.into_iter().flatten());
        if !errors.is_empty() {
            return Err(errors);
        }
        Ok(Project {
            name: name.into(),
            files,
            symbols,
            index: OnceLock::new(),
        })
    }

    /// The compile-once execution index (interned names, lowered bodies,
    /// resolution tables), shared across workers.
    ///
    /// The first call builds it, in one walk on the calling thread; every
    /// later call, and every call racing the first, returns the same
    /// `Arc`. The index lives as long as the project, so the first call
    /// belongs on the thread that owns the project: the IR is then
    /// allocated from that thread's allocator arena, as the project's
    /// sources are. The static analyses call it before they fan out.
    pub fn index(&self) -> &Arc<ProgramIndex> {
        self.index
            .get_or_init(|| Arc::new(ProgramIndex::build(&self.files, &self.symbols)))
    }

    /// Returns the class declaration for `name`, if declared, with the
    /// file that resolves it.
    pub fn class_decl(&self, name: &str) -> Option<(&SourceFile, &ClassDecl)> {
        let info = self.symbols.class(name)?;
        let file = &self.files[info.file.0 as usize];
        match &file.items()[info.item_idx] {
            Item::Class(class) => Some((file, class)),
            _ => None,
        }
    }

    /// Resolves a method on `class`, walking the superclass chain.
    ///
    /// Returns the declaring class name together with the declaration and
    /// the file that resolves it.
    pub fn resolve_method(
        &self,
        class: &str,
        method: &str,
    ) -> Option<(&str, &SourceFile, &MethodDecl)> {
        let mut current = class;
        loop {
            let (file, decl) = self.class_decl(current)?;
            if let Some(m) = file[decl.methods].iter().find(|m| &file[m.name] == method) {
                return Some((&file[decl.name], file, m));
            }
            current = &file[decl.parent?];
        }
    }

    /// Iterates over `(file, class, method)` for every method in the
    /// project, with the file that resolves each.
    pub fn all_methods(
        &self,
    ) -> impl Iterator<Item = (FileId, &SourceFile, &ClassDecl, &MethodDecl)> {
        self.files.iter().enumerate().flat_map(|(fidx, file)| {
            let file: &SourceFile = file;
            file.classes().flat_map(move |class| {
                file[class.methods]
                    .iter()
                    .map(move |m| (FileId(fidx as u32), file, class, m))
            })
        })
    }

    /// All unit tests in the project, as `(file, MethodId)`.
    pub fn tests(&self) -> Vec<(FileId, MethodId)> {
        self.all_methods()
            .filter(|(_, _, _, m)| m.is_test)
            .map(|(fid, file, class, m)| (fid, MethodId::new(&file[class.name], &file[m.name])))
            .collect()
    }

    /// Renders a span in file `file` as `path:line:col`.
    pub fn locate(&self, file: FileId, span: Span) -> String {
        let f = &self.files[file.0 as usize];
        let pos = f.line_map().line_col(span.start);
        format!("{}:{pos}", f.path)
    }
}

/// One file's validation errors, in source order: unknown superclasses,
/// duplicate methods, and unknown types in `throws`, `catch` and
/// `instanceof`.
fn validate_file(file: &SourceFile, symbols: &SymbolTable) -> Vec<Diagnostic> {
    let mut errors = Vec::new();
    for class in file.classes() {
        let class_name = &file[class.name];
        if let Some(parent) = class.parent {
            let parent = &file[parent];
            if symbols.class(parent).is_none() {
                errors.push(
                    Diagnostic::new(class.span, format!("unknown superclass `{parent}`"))
                        .with_path(&file.path),
                );
            }
        }
        let mut seen = HashMap::new();
        for method in &file[class.methods] {
            if let Some(_prev) = seen.insert(method.name, method.span) {
                errors.push(
                    Diagnostic::new(
                        method.span,
                        format!(
                            "duplicate method `{}` in class `{class_name}`",
                            &file[method.name]
                        ),
                    )
                    .with_path(&file.path),
                );
            }
            for &thrown in &file[method.throws] {
                let thrown = &file[thrown];
                if symbols.exception(thrown).is_none() {
                    errors.push(
                        Diagnostic::new(
                            method.span,
                            format!("unknown exception `{thrown}` in throws clause"),
                        )
                        .with_path(&file.path),
                    );
                }
            }
            validate_body(file, symbols, method, &mut errors);
        }
    }
    errors
}

fn validate_body(
    file: &SourceFile,
    symbols: &SymbolTable,
    method: &MethodDecl,
    errors: &mut Vec<Diagnostic>,
) {
    file.walk_stmts(&method.body, &mut |stmt| {
        if let Stmt::Try { catches, .. } = stmt {
            for catch in &file[*catches] {
                let exc_type = &file[catch.exc_type];
                if symbols.exception(exc_type).is_none() {
                    errors.push(
                        Diagnostic::new(
                            catch.span,
                            format!("unknown exception `{exc_type}` in catch"),
                        )
                        .with_path(&file.path),
                    );
                }
            }
        }
        true
    });
    file.walk_exprs(&method.body, &mut |expr| {
        if let Expr::InstanceOf { ty, span, .. } = expr {
            let ty = &file[*ty];
            if symbols.exception(ty).is_none() && symbols.class(ty).is_none() {
                errors.push(
                    Diagnostic::new(*span, format!("unknown type `{ty}` in instanceof"))
                        .with_path(&file.path),
                );
            }
        }
    });
}

/// Rejects every `extends` cycle, among classes and among exception
/// types: one diagnostic per cycle, at the first declaration of its
/// members in file order, and the cycles in that order. Everything after
/// validation walks `parent` links up to a root, so a cycle would never
/// end.
fn reject_cycles(files: &[Arc<SourceFile>], symbols: &SymbolTable, errors: &mut Vec<Diagnostic>) {
    // Every class and exception declaration in file order.
    let mut decls: Vec<(bool, &str, &SourceFile, Span)> = Vec::new();
    for file in files {
        for item in file.items() {
            match item {
                Item::Class(decl) => decls.push((true, &file[decl.name], file, decl.span)),
                Item::ExceptionDecl(decl) => decls.push((false, &file[decl.name], file, decl.span)),
                Item::ConfigDecl(_) => {}
            }
        }
    }
    // Each name's first declaration; a name's parent is the symbol
    // table's, as the later walks see it, and a builtin parent that is
    // not redeclared ends the walk.
    let mut first: [HashMap<&str, usize>; 2] = Default::default();
    for (at, &(class, name, _, _)) in decls.iter().enumerate() {
        first[usize::from(class)].entry(name).or_insert(at);
    }
    let parent: Vec<Option<usize>> = decls
        .iter()
        .map(|&(class, name, _, _)| {
            let parent = match class {
                true => symbols.class(name)?.parent.as_deref(),
                false => symbols.exception(name)?.parent.as_deref(),
            };
            first[usize::from(class)].get(parent?).copied()
        })
        .collect();
    // 0: not walked yet, 1: on the walk in progress, 2: done.
    let mut mark = vec![0u8; decls.len()];
    let mut path = Vec::new();
    let mut cycles = Vec::new();
    for start in 0..decls.len() {
        let mut cursor = Some(start);
        while let Some(at) = cursor {
            match mark[at] {
                2 => break,
                1 => {
                    let from = path.iter().position(|&p| p == at).expect("on the path");
                    cycles.push(path[from..].to_vec());
                    break;
                }
                _ => {
                    mark[at] = 1;
                    path.push(at);
                    cursor = parent[at];
                }
            }
        }
        for at in path.drain(..) {
            mark[at] = 2;
        }
    }
    // Each cycle starts at its first declaration; cycles in that order.
    for members in &mut cycles {
        let lead = (0..members.len())
            .min_by_key(|&i| members[i])
            .expect("a cycle has members");
        members.rotate_left(lead);
    }
    cycles.sort_unstable_by_key(|members| members[0]);
    for members in cycles {
        let (class, _, file, span) = decls[members[0]];
        let chain: Vec<String> = members
            .iter()
            .chain(&members[..1])
            .map(|&at| format!("`{}`", decls[at].1))
            .collect();
        let kind = if class { "class" } else { "exception" };
        errors.push(
            Diagnostic::new(
                span,
                format!("inheritance cycle: {kind} {}", chain.join(" extends ")),
            )
            .with_path(&file.path),
        );
    }
}

fn build_symbols(files: &[Arc<SourceFile>], errors: &mut Vec<Diagnostic>) -> SymbolTable {
    let mut symbols = SymbolTable::default();
    for (name, parent) in BUILTIN_EXCEPTIONS {
        symbols.exceptions.insert(
            name.to_string(),
            ExceptionInfo {
                parent: parent.map(str::to_string),
                builtin: true,
            },
        );
    }
    for (fidx, file) in files.iter().enumerate() {
        for (item_idx, item) in file.items().iter().enumerate() {
            match item {
                Item::ExceptionDecl(decl) => {
                    let name = &file[decl.name];
                    let info = ExceptionInfo {
                        parent: Some(decl.parent.map_or("Exception", |p| &file[p]).to_string()),
                        builtin: false,
                    };
                    if symbols.exceptions.insert(name.to_string(), info).is_some() {
                        errors.push(
                            Diagnostic::new(
                                decl.span,
                                format!("duplicate exception declaration `{name}`"),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
                Item::ConfigDecl(decl) => {
                    let key = &file[decl.key];
                    if symbols
                        .configs
                        .insert(key.to_string(), file.literal(decl.default))
                        .is_some()
                    {
                        errors.push(
                            Diagnostic::new(
                                decl.span,
                                format!("duplicate config declaration `{key}`"),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
                Item::Class(decl) => {
                    let name = &file[decl.name];
                    let info = ClassInfo {
                        file: FileId(fidx as u32),
                        item_idx,
                        parent: decl.parent.map(|p| file[p].to_string()),
                    };
                    if symbols.classes.insert(name.to_string(), info).is_some() {
                        errors.push(
                            Diagnostic::new(
                                decl.span,
                                format!("duplicate class declaration `{name}`"),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
            }
        }
    }
    // Check exception parents after all declarations are collected.
    for file in files {
        for item in file.items() {
            if let Item::ExceptionDecl(decl) = item {
                let parent = decl.parent.map_or("Exception", |p| &file[p]);
                if !symbols.exceptions.contains_key(parent) {
                    errors.push(
                        Diagnostic::new(
                            decl.span,
                            format!("unknown parent exception `{parent}`"),
                        )
                        .with_path(&file.path),
                    );
                }
            }
        }
    }
    symbols
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(sources: &[(&str, &str)]) -> Project {
        Project::compile("test", sources.to_vec()).expect("compile should succeed")
    }

    #[test]
    fn builtin_exception_hierarchy() {
        let p = compile(&[("a.jav", "class A { }")]);
        assert!(p.symbols.is_exception_subtype("NullPointerException", "Exception"));
        assert!(p.symbols.is_exception_subtype("AssertionError", "Throwable"));
        assert!(!p.symbols.is_exception_subtype("AssertionError", "Exception"));
        assert!(p.symbols.is_exception_subtype("Exception", "Exception"));
    }

    #[test]
    fn user_exceptions_default_to_exception_parent() {
        let p = compile(&[(
            "e.jav",
            "exception IOException;\nexception ConnectException extends IOException;\nclass A { }",
        )]);
        assert!(p.symbols.is_exception_subtype("ConnectException", "IOException"));
        assert!(p.symbols.is_exception_subtype("ConnectException", "Exception"));
        assert!(!p.symbols.is_exception_subtype("IOException", "ConnectException"));
    }

    #[test]
    fn method_resolution_walks_superclass_chain() {
        let p = compile(&[(
            "a.jav",
            "class Base { method greet() { return \"hi\"; } }\n\
             class Derived extends Base { method other() { return 1; } }",
        )]);
        let (owner, file, m) = p.resolve_method("Derived", "greet").expect("resolved");
        assert_eq!(owner, "Base");
        assert_eq!(&file[m.name], "greet");
        assert!(p.resolve_method("Derived", "missing").is_none());
    }

    #[test]
    fn collects_tests_across_files() {
        let p = compile(&[
            ("a.jav", "class A { test t1() { assert(true); } method m() { } }"),
            ("b.jav", "class B { test t2() { assert(true); } }"),
        ]);
        let tests = p.tests();
        assert_eq!(tests.len(), 2);
        assert_eq!(tests[0].1, MethodId::new("A", "t1"));
        assert_eq!(tests[1].1, MethodId::new("B", "t2"));
    }

    #[test]
    fn config_defaults_are_recorded() {
        let p = compile(&[(
            "c.jav",
            "config \"dfs.retry.max\" default 5;\nconfig \"dfs.retry.enabled\" default true;\nclass A { }",
        )]);
        assert_eq!(p.symbols.config_default("dfs.retry.max"), Some(&Literal::Int(5)));
        assert_eq!(
            p.symbols.config_default("dfs.retry.enabled"),
            Some(&Literal::Bool(true))
        );
        assert_eq!(p.symbols.config_default("missing"), None);
    }

    #[test]
    fn rejects_duplicate_class() {
        let err = Project::compile("t", vec![("a.jav", "class A { }\nclass A { }")]).unwrap_err();
        assert!(err[0].message.contains("duplicate class"));
    }

    #[test]
    fn rejects_unknown_superclass_and_exception() {
        let err = Project::compile(
            "t",
            vec![(
                "a.jav",
                "class A extends Missing { method m() throws NoSuchExc { } }",
            )],
        )
        .unwrap_err();
        let messages: Vec<_> = err.iter().map(|d| d.message.as_str()).collect();
        assert!(messages.iter().any(|m| m.contains("unknown superclass")));
        assert!(messages.iter().any(|m| m.contains("unknown exception")));
    }

    #[test]
    fn rejects_unknown_catch_type() {
        let err = Project::compile(
            "t",
            vec![("a.jav", "class A { method m() { try { this.x(); } catch (Nope e) { } } }")],
        )
        .unwrap_err();
        assert!(err[0].message.contains("unknown exception `Nope`"));
    }

    #[test]
    fn rejects_unknown_instanceof_type() {
        let err = Project::compile(
            "t",
            vec![("a.jav", "class A { method m(e) { return e instanceof Ghost; } }")],
        )
        .unwrap_err();
        assert!(err[0].message.contains("unknown type `Ghost`"));
    }

    #[test]
    fn rejects_duplicate_method() {
        let err = Project::compile(
            "t",
            vec![("a.jav", "class A { method m() { } method m() { } }")],
        )
        .unwrap_err();
        assert!(err[0].message.contains("duplicate method"));
    }

    #[test]
    fn a_cycle_is_reported_once_at_its_first_declaration_in_file_order() {
        let err = Project::compile(
            "t",
            vec![
                ("a.jav", "class W extends Y { }\nclass Z extends Y { }"),
                ("b.jav", "class Y extends Z { }"),
            ],
        )
        .unwrap_err();
        assert_eq!(err.len(), 1, "{err:?}");
        assert_eq!(err[0].path, "a.jav");
        assert_eq!(err[0].span.start, 22, "at `class Z`");
        assert_eq!(err[0].message, "inheritance cycle: class `Z` extends `Y` extends `Z`");
    }

    #[test]
    fn parse_errors_carry_paths() {
        let err = Project::compile("t", vec![("bad.jav", "class {")]).unwrap_err();
        assert_eq!(err[0].path, "bad.jav");
    }

    #[test]
    fn exception_subtypes_lists_descendants() {
        let p = compile(&[(
            "e.jav",
            "exception IOException;\nexception ConnectException extends IOException;\n\
             exception SocketException extends IOException;\nclass A { }",
        )]);
        let subs = p.symbols.exception_subtypes("IOException");
        assert_eq!(subs, vec!["ConnectException", "IOException", "SocketException"]);
    }

    #[test]
    fn locate_renders_path_line_col() {
        let p = compile(&[("dir/a.jav", "class A {\n  method m() { }\n}")]);
        let file = &p.files[0];
        let class = file.classes().next().expect("class expected");
        let loc = p.locate(FileId(0), file[class.methods][0].span);
        assert_eq!(loc, "dir/a.jav:2:3");
    }
}
