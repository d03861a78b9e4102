//! Corpus-wide invariants: every generated file round-trips through the
//! pretty-printer, and the whole pipeline is deterministic.

use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::generate_app;
use wasabi::lang::parser::parse_file;
use wasabi::lang::printer::print_items;

#[test]
fn printer_is_a_fixed_point_over_the_whole_corpus() {
    // MapReduce is the smallest app; Tiny scale keeps this fast while still
    // covering every template (structures are scale-invariant).
    let spec = paper_apps().into_iter().find(|s| s.short == "MA").expect("MA");
    let app = generate_app(&spec, Scale::Tiny);
    for (path, source) in &app.files {
        let ast = parse_file(source).unwrap_or_else(|e| panic!("{path}: {e}"));
        let printed = print_items(&ast);
        let reparsed =
            parse_file(&printed).unwrap_or_else(|e| panic!("{path} (printed): {e}"));
        assert_eq!(
            print_items(&reparsed),
            printed,
            "printer not a fixed point for {path}"
        );
    }
}

#[test]
fn every_app_has_the_spec_number_of_tests_at_tiny_scale() {
    for spec in paper_apps() {
        let app = generate_app(&spec, Scale::Tiny);
        let project = wasabi::corpus::synth::compile_app(&app);
        assert_eq!(
            project.tests().len(),
            app.tests_generated,
            "{}: generator bookkeeping vs discovered tests",
            spec.short
        );
        assert!(app.covering_tests > 0, "{}", spec.short);
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    use wasabi::core::dynamic::{run_dynamic, DynamicOptions};
    use wasabi::core::identify::identify;
    use wasabi::llm::simulated::SimulatedLlm;

    let spec = paper_apps().into_iter().find(|s| s.short == "CA").expect("CA");
    let run = || {
        let app = generate_app(&spec, Scale::Tiny);
        let project = wasabi::corpus::synth::compile_app(&app);
        let mut llm = SimulatedLlm::with_seed(spec.seed);
        let identified = identify(&project, &mut llm);
        let result = run_dynamic(&project, &identified.locations, &DynamicOptions::default());
        let mut bugs: Vec<String> = result
            .bugs
            .iter()
            .map(|b| format!("{}:{}", b.kind, b.key))
            .collect();
        bugs.sort();
        (identified.locations.len(), result.runs_planned, bugs)
    };
    assert_eq!(run(), run());
}
