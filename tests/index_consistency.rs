//! Consistency and determinism tests for the compile-once `ProgramIndex`
//! against the name-based `SymbolTable` it replaces on the hot path.
//!
//! The synthetic corpus apps exercise deep exception hierarchies (wrapper
//! types, well-known JDK types, per-app families) and class inheritance,
//! so agreement over *every pair* here is strong evidence the precomputed
//! ancestry matrices encode exactly the declaration-time subtype relation.

mod common;

use wasabi::corpus::spec::Scale;
use wasabi::corpus::synth::{compile_app, generate_all};
use wasabi::lang::project::Project;

/// The exception-ancestry matrix agrees with the symbol table's chain walk
/// for every ordered pair of declared exception types, in every corpus app.
#[test]
fn exception_matrix_matches_symbol_table_on_corpus() {
    for app in generate_all(Scale::Tiny) {
        let project = compile_app(&app);
        let names: Vec<&String> = project.symbols.exception_names().collect();
        assert!(!names.is_empty(), "{}: no exceptions declared", app.spec.name);
        for sub in &names {
            let sub_id = project
                .index
                .exc_by_name(sub)
                .unwrap_or_else(|| panic!("{}: `{sub}` missing from index", app.spec.name));
            for sup in &names {
                let sup_id = project.index.exc_by_name(sup).unwrap();
                assert_eq!(
                    project.index.is_exc_subtype(sub_id, sup_id),
                    project.symbols.is_exception_subtype(sub, sup),
                    "{}: matrix disagrees on {sub} <: {sup}",
                    app.spec.name
                );
            }
        }
    }
}

/// Same agreement for the class-ancestry matrix.
#[test]
fn class_matrix_matches_symbol_table_on_corpus() {
    for app in generate_all(Scale::Tiny) {
        let project = compile_app(&app);
        let names: Vec<&String> = project.symbols.class_names().collect();
        for sub in &names {
            let sub_id = project.index.class_by_name(sub).unwrap();
            for sup in &names {
                let sup_id = project.index.class_by_name(sup).unwrap();
                assert_eq!(
                    project.index.is_class_subtype(sub_id, sup_id),
                    project.symbols.is_class_subtype(sub, sup),
                    "{}: matrix disagrees on {sub} <: {sup}",
                    app.spec.name
                );
            }
        }
    }
}

/// Flattened dispatch tables agree with the symbol table's inheritance
/// walk: every `(class, method-name)` pair resolves on one side iff it
/// resolves on the other, with matching arity.
#[test]
fn dispatch_tables_match_method_resolution_on_corpus() {
    use std::collections::BTreeSet;
    for app in generate_all(Scale::Tiny) {
        let project = compile_app(&app);
        let method_names: BTreeSet<String> = project
            .all_methods()
            .map(|(_, file, _, m)| file[m.name].to_string())
            .collect();
        for class in project.symbols.class_names() {
            let class_id = project.index.class_by_name(class).unwrap();
            for method in &method_names {
                let walked = project.resolve_method(class, method);
                let indexed = project
                    .index
                    .interner
                    .lookup(method)
                    .and_then(|sym| project.index.resolve_dispatch(class_id, sym));
                match (walked, indexed) {
                    (None, None) => {}
                    (Some((_, _, decl)), Some(midx)) => {
                        let compiled = &project.index.methods[midx as usize];
                        assert_eq!(
                            decl.params.len() as u32,
                            compiled.params,
                            "{}: arity mismatch for {class}.{method}",
                            app.spec.name
                        );
                    }
                    (walked, indexed) => panic!(
                        "{}: {class}.{method} resolves to {walked:?} by walk \
                         but {indexed:?} by dispatch table",
                        app.spec.name
                    ),
                }
            }
        }
    }
}

/// Building the index twice from identical sources yields an identical
/// index — interner, id assignment, layouts, and dispatch included. The
/// campaign engine's byte-identical reports rely on this.
#[test]
fn index_build_is_deterministic() {
    let app = &generate_all(Scale::Tiny)[0];
    let fingerprint = |project: &Project| {
        let index = &project.index;
        let mut out = String::new();
        for class in &index.classes {
            out.push_str(&format!(
                "class {} file={:?} parent={:?} has_init={} fields=[",
                class.name_str, class.file, class.parent, class.has_init
            ));
            for (sym, slot) in class.layout.slots() {
                out.push_str(&format!("{}:{slot},", index.interner.resolve(sym)));
            }
            out.push(']');
            out.push('\n');
        }
        for exc in &index.exceptions {
            out.push_str(&format!("exc {} parent={:?}\n", exc.name_str, exc.parent));
        }
        for config in &index.configs {
            out.push_str(&format!("config {} = {:?}\n", config.key, config.default));
        }
        for method in &index.methods {
            out.push_str(&format!(
                "method {} params={} slots={} body={}\n",
                index.interner.resolve(method.name),
                method.params,
                method.n_slots,
                common::ir_debug::body(index, method)
            ));
        }
        out
    };
    let first = compile_app(app);
    let second = compile_app(app);
    assert_eq!(fingerprint(&first), fingerprint(&second));
}
