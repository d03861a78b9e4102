//! Consistency and determinism tests for the compile-once `ProgramIndex`
//! against the name-based `SymbolTable` it replaces on the hot path.
//!
//! The synthetic corpus apps exercise deep exception hierarchies (wrapper
//! types, well-known JDK types, per-app families) and class inheritance,
//! so agreement over *every pair* here is strong evidence the precomputed
//! ancestry matrices encode exactly the declaration-time subtype relation.

mod common;

use std::sync::{Arc, Barrier};
use std::thread;
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
                .index()
                .exc_by_name(sub)
                .unwrap_or_else(|| panic!("{}: `{sub}` missing from index", app.spec.name));
            for sup in &names {
                let sup_id = project.index().exc_by_name(sup).unwrap();
                assert_eq!(
                    project.index().is_exc_subtype(sub_id, sup_id),
                    project.symbols.is_exception_subtype(sub, sup),
                    "{}: matrix disagrees on {sub} <: {sup}",
                    app.spec.name
                );
            }
        }
    }
}

/// Same agreement for the class ancestry (pre-order intervals), and
/// `subtypes_of_class` lists exactly the subtypes, in ascending id order.
#[test]
fn class_matrix_matches_symbol_table_on_corpus() {
    for app in generate_all(Scale::Tiny) {
        let project = compile_app(&app);
        let names: Vec<&String> = project.symbols.class_names().collect();
        for sup in &names {
            let sup_id = project.index().class_by_name(sup).unwrap();
            let mut subtypes = Vec::new();
            for sub in &names {
                let sub_id = project.index().class_by_name(sub).unwrap();
                let walked = project.symbols.is_class_subtype(sub, sup);
                assert_eq!(
                    project.index().is_class_subtype(sub_id, sup_id),
                    walked,
                    "{}: ancestry disagrees on {sub} <: {sup}",
                    app.spec.name
                );
                if walked {
                    subtypes.push(sub_id);
                }
            }
            subtypes.sort_unstable();
            let listed: Vec<_> = project.index().subtypes_of_class(sup_id).collect();
            assert_eq!(listed, subtypes, "{}: subtypes of {sup}", app.spec.name);
        }
    }
}

/// An `extends` cycle, of classes or of exception types, is a link error
/// naming the cycle at its first declaration, not a compile that never
/// returns. Each compile runs on its own thread, so a regression fails
/// the test instead of hanging it.
#[test]
fn inheritance_cycles_are_link_errors() {
    use std::sync::mpsc;
    use std::time::Duration;
    let cases = [
        (
            "class A extends A { }",
            vec!["inheritance cycle: class `A` extends `A`"],
        ),
        (
            "exception E1 extends E2; exception E2 extends E1;",
            vec!["inheritance cycle: exception `E1` extends `E2` extends `E1`"],
        ),
        (
            "class X extends B { }\nclass B extends C { }\nclass C extends B { }\n\
             exception Exception extends IOException; exception IOException;",
            vec![
                "duplicate exception declaration `Exception`",
                "inheritance cycle: class `B` extends `C` extends `B`",
                "inheritance cycle: exception `Exception` extends `IOException` extends \
                 `Exception`",
            ],
        ),
    ];
    for (source, expected) in cases {
        let (send, receive) = mpsc::channel();
        std::thread::spawn(move || {
            let errors = Project::compile("cycle", vec![("a.jav", source)])
                .map(|_| ())
                .map_err(|errors| errors.into_iter().map(|e| e.message).collect::<Vec<_>>());
            let _ = send.send(errors);
        });
        let errors = receive
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("compiling `{source}` did not return"))
            .expect_err("a cycle is a link error");
        assert_eq!(errors, expected, "{source}");
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
            let class_id = project.index().class_by_name(class).unwrap();
            for method in &method_names {
                let walked = project.resolve_method(class, method);
                let indexed = project
                    .index()
                    .interner
                    .lookup(method)
                    .and_then(|sym| project.index().resolve_dispatch(class_id, sym));
                match (walked, indexed) {
                    (None, None) => {}
                    (Some((_, _, decl)), Some(midx)) => {
                        let compiled = &project.index().methods[midx as usize];
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
        let index = project.index();
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

/// The index is built on first use: on each of the eight small apps,
/// `identify` and `lint_with_overlap` give the same bytes on a fresh
/// project, where they build the index beside the LLM sweep, as on one
/// whose `index()` was called before them, which keeps its index.
#[test]
fn index_on_first_use_leaves_identify_and_lint_unchanged() {
    use wasabi::analysis::checkers::LintOptions;
    use wasabi::core::identify::identify;
    use wasabi::core::lint::lint_with_overlap;
    use wasabi::llm::simulated::SimulatedLlm;
    let identified = |project: &Project| {
        format!("{:?}", identify(project, &mut SimulatedLlm::with_seed(11)))
    };
    let linted = |project: &Project| {
        let llm = &mut SimulatedLlm::with_seed(11);
        format!("{:?}", lint_with_overlap(project, llm, &LintOptions::default()))
    };
    for app in generate_all(Scale::Small) {
        let name = app.spec.name;
        let fresh = compile_app(&app);
        let warm = fresh.clone();
        let built = Arc::clone(warm.index());
        let (cold_identify, cold_lint) = (fresh.clone(), fresh);
        assert_eq!(identified(&cold_identify), identified(&warm), "{name}: identify");
        assert_eq!(linted(&cold_lint), linted(&warm), "{name}: lint");
        assert!(Arc::ptr_eq(warm.index(), &built), "{name}: the warm index was rebuilt");
        for cold in [&cold_identify, &cold_lint] {
            assert!(!Arc::ptr_eq(cold.index(), &built), "{name}: a fresh clone shares the index");
        }
    }
}

/// Two threads racing on a fresh project's first `index()` call get the
/// same `Arc`: the index is built once.
#[test]
fn racing_first_index_calls_get_one_index() {
    let project = compile_app(&generate_all(Scale::Tiny)[0]);
    let start = Barrier::new(2);
    let race = || {
        start.wait();
        Arc::clone(project.index())
    };
    let (first, second) = thread::scope(|scope| {
        let first = scope.spawn(race);
        let second = scope.spawn(race);
        (first.join().expect("first"), second.join().expect("second"))
    });
    assert!(Arc::ptr_eq(&first, &second));
    assert!(Arc::ptr_eq(&first, project.index()));
}
