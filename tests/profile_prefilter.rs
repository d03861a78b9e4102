//! The profile prefilter against the slow path: on every corpus app,
//! profiling only the tests the static reachability walk keeps must give
//! the same `CoverageProfile` as executing the whole suite. A skipped
//! test that dynamically covered a site would change the plan, and with
//! it the report bytes.

use wasabi::core::identify::identify;
use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::generate_app;
use wasabi::lang::project::Project;
use wasabi::llm::simulated::SimulatedLlm;
use wasabi::planner::coverage::{prefilter_suite, profile_coverage, profile_tests, site_set};
use wasabi::vm::runner::RunOptions;

#[test]
fn prefiltered_profile_equals_the_whole_suite_profile_on_every_app() {
    let options = RunOptions::default();
    for spec in paper_apps() {
        let app = generate_app(&spec, Scale::Small);
        let sources: Vec<(&str, &str)> = app
            .files
            .iter()
            .map(|(path, source)| (path.as_str(), source.as_str()))
            .collect();
        let project = Project::compile(spec.name, sources).expect("corpus compiles");
        let locations = identify(&project, &mut SimulatedLlm::with_seed(spec.seed)).locations;
        let sites = site_set(&locations);
        let suite = project.tests();

        let kept = prefilter_suite(&project, &sites, suite.clone()).len();
        let filtered = profile_coverage(&project, &locations, &options);
        let whole = profile_tests(&project, &sites, &suite, suite.len(), &options, 2);
        assert_eq!(
            format!("{filtered:?}"),
            format!("{whole:?}"),
            "{}: prefilter changed the profile",
            spec.short
        );
        // The prefilter is on and earns its keep: it skips filler, and it
        // keeps every test the profile needs.
        assert!(
            kept < suite.len(),
            "{}: prefilter kept all {} tests",
            spec.short,
            suite.len()
        );
        assert!(kept >= whole.tests_covering_retry(), "{}", spec.short);
    }
}
