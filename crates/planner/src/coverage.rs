//! Coverage profiling: which unit test covers which retry location.
//!
//! WASABI instruments every retry location and runs the whole suite once
//! (§3.1.4). Here the instrumentation is a
//! [`wasabi_inject::CoverageRecorder`] attached to the interpreter.

use std::collections::{BTreeMap, BTreeSet};
use wasabi_analysis::loops::RetryLocation;
use wasabi_inject::CoverageRecorder;
use wasabi_lang::index::{ClassId, LExpr, LStmt};
use wasabi_lang::project::{CallSite, FileId, MethodId, Project};
use wasabi_vm::runner::{run_test, RunOptions};

/// The result of the profiling pass.
#[derive(Debug, Clone, Default)]
pub struct CoverageProfile {
    /// Sites covered by each test (only tests that cover at least one).
    pub per_test: BTreeMap<MethodId, Vec<CallSite>>,
    /// Tests covering each site.
    pub site_to_tests: BTreeMap<CallSite, Vec<MethodId>>,
    /// Total number of tests in the suite.
    pub tests_total: usize,
    /// Total virtual milliseconds spent profiling.
    pub profile_virtual_ms: u64,
}

impl CoverageProfile {
    /// Number of tests covering at least one retry location.
    pub fn tests_covering_retry(&self) -> usize {
        self.per_test.len()
    }

    /// Sites covered by at least one test.
    pub fn covered_sites(&self) -> BTreeSet<CallSite> {
        self.site_to_tests.keys().copied().collect()
    }
}

/// Runs every test that may reach a site of `locations` once, serially,
/// with coverage instrumentation on those sites: the suite is
/// [prefiltered](prefilter_suite) and the surviving tests
/// [profiled](profile_tests). The dynamic pipeline makes the same calls
/// itself, on its worker count and with each step traced.
pub fn profile_coverage(
    project: &Project,
    locations: &[RetryLocation],
    options: &RunOptions,
) -> CoverageProfile {
    let sites = site_set(locations);
    let suite = project.tests();
    let tests_total = suite.len();
    let tests = prefilter_suite(project, &sites, suite);
    profile_tests(project, &sites, &tests, tests_total, options, 1)
}

/// The instrumented call sites of `locations`.
pub fn site_set(locations: &[RetryLocation]) -> BTreeSet<CallSite> {
    locations.iter().map(|l| l.site).collect()
}

/// Static reachability prefilter: drops the tests of `suite` whose call
/// graph provably cannot reach any site in `sites`. Such a test would
/// record empty coverage — exactly what [`profile_tests`] drops from
/// `per_test` — so executing it buys nothing. Large generated suites are
/// mostly such filler (app HI at paper scale: 35k tests, 1.5k of them
/// covering), so skipping it is most of what keeps the profile phase
/// cheap. When the walk cannot model the program (see
/// [`reachable_test_mask`]) the whole suite is kept.
pub fn prefilter_suite(
    project: &Project,
    sites: &BTreeSet<CallSite>,
    suite: Vec<(FileId, MethodId)>,
) -> Vec<(FileId, MethodId)> {
    match reachable_test_mask(project, sites, &suite) {
        Some(mask) => suite
            .into_iter()
            .zip(mask)
            .filter_map(|(test, keep)| keep.then_some(test))
            .collect(),
        None => suite,
    }
}

/// Executes `tests` once each with coverage instrumentation on `sites`,
/// on `jobs` worker threads. Baseline executions are independent (each
/// test runs in its own interpreter with its own recorder), so the tests
/// are split into contiguous chunks and the per-chunk results
/// concatenated back in suite order — the resulting profile is
/// byte-identical to the serial one for any `jobs` value. `tests_total`
/// is the size of the whole suite, before any prefilter.
pub fn profile_tests(
    project: &Project,
    sites: &BTreeSet<CallSite>,
    tests: &[(FileId, MethodId)],
    tests_total: usize,
    options: &RunOptions,
    jobs: usize,
) -> CoverageProfile {
    let mut profile = CoverageProfile {
        tests_total,
        ..CoverageProfile::default()
    };
    let jobs = jobs.max(1).min(tests.len().max(1));
    let per_test: Vec<(MethodId, Vec<CallSite>, u64)> = if jobs == 1 {
        profile_chunk(project, sites, tests, options)
    } else {
        let chunk_len = tests.len().div_ceil(jobs);
        let mut merged = Vec::with_capacity(tests.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = tests
                .chunks(chunk_len)
                .map(|chunk| scope.spawn(move || profile_chunk(project, sites, chunk, options)))
                .collect();
            for handle in handles {
                merged.extend(handle.join().expect("profile worker panicked"));
            }
        });
        merged
    };
    for (test, covered, virtual_ms) in per_test {
        profile.profile_virtual_ms += virtual_ms;
        if covered.is_empty() {
            continue;
        }
        for site in &covered {
            profile
                .site_to_tests
                .entry(*site)
                .or_default()
                .push(test.clone());
        }
        profile.per_test.insert(test, covered);
    }
    profile
}

/// Profiles one contiguous chunk of the suite, returning `(test, covered
/// sites, virtual ms)` in chunk order.
fn profile_chunk(
    project: &Project,
    sites: &BTreeSet<CallSite>,
    tests: &[(FileId, MethodId)],
    options: &RunOptions,
) -> Vec<(MethodId, Vec<CallSite>, u64)> {
    let mut recorder = CoverageRecorder::new(sites.iter().copied());
    tests
        .iter()
        .map(|(_, test)| {
            recorder.reset();
            let run = run_test(project, test, &mut recorder, options);
            (test.clone(), recorder.covered(), run.virtual_ms)
        })
        .collect()
}

/// Which suite tests can possibly reach one of the instrumented sites,
/// decided by a *maximally over-approximate* static walk; `None` disables
/// the prefilter entirely (every test executes).
///
/// Soundness is the whole game here — a skipped test that dynamically
/// covered a site would change the plan and therefore the report bytes —
/// so the walk is deliberately cruder than the lint layer's typed
/// [`CallGraph`](wasabi_analysis::callgraph::CallGraph):
///
/// - a call `x.m(...)` may target **every** compiled method named `m`,
///   regardless of what receiver typing could prove (dynamic dispatch
///   always lands on a method of the called name, so the name-set is a
///   superset of any resolution);
/// - `new C(...)` edges to `C`'s (possibly inherited) `init` constructor;
/// - global builtins never invoke user methods (they fault on unknown
///   names), so `GlobalCall`s contribute no edges beyond their argument
///   expressions;
/// - field initialisers also run on instantiation but live outside method
///   bodies, so if **any** class's initialiser expression contains a call
///   or an instantiation the prefilter refuses (`None`) rather than model
///   it. (Corpus and example programs initialise fields with literals.)
///
/// The reverse walk runs over names, not name-expanded edges: reaching
/// any method named `m` reaches the *name* `m` once, and reaching a name
/// reaches every method that calls it. Linking each caller of `m` to
/// each method named `m` instead is quadratic in the popular names of a
/// generated suite (HI at paper scale: ~2 s for this walk alone). Both
/// formulations reach exactly the same methods; the work here is linear
/// in methods, call expressions and instantiations.
fn reachable_test_mask(
    project: &Project,
    sites: &BTreeSet<CallSite>,
    tests: &[(FileId, MethodId)],
) -> Option<Vec<bool>> {
    let index = &project.index;
    for class in &index.classes {
        for init in &class.inits {
            if expr_contains_user_call(&init.expr) {
                return None;
            }
        }
    }

    // One body walk collects, per called name and per instantiated class,
    // the methods that call or instantiate it (each caller once: bodies
    // are walked one method at a time, so a repeat is always the last
    // entry), and marks the methods containing a target call site. Call
    // names and class ids are dense ids of the frozen program index.
    let mut reach = vec![false; index.methods.len()];
    let mut name_callers: Vec<Vec<u32>> = vec![Vec::new(); index.interner.len()];
    let mut class_callers: Vec<Vec<u32>> = vec![Vec::new(); index.classes.len()];
    let push_caller = |callers: &mut Vec<u32>, m: u32| {
        if callers.last() != Some(&m) {
            callers.push(m);
        }
    };
    for (m, method) in index.methods.iter().enumerate() {
        walk_stmts(&method.body, &mut |expr| match expr {
            LExpr::Call { site, method, .. } => {
                push_caller(&mut name_callers[method.index()], m as u32);
                if sites.contains(site) {
                    reach[m] = true;
                }
            }
            LExpr::NewObj { class, .. } => {
                push_caller(&mut class_callers[class.0 as usize], m as u32);
            }
            _ => {}
        });
    }
    // The classes whose `new` runs each method as its constructor.
    let mut ctor_classes: Vec<Vec<ClassId>> = vec![Vec::new(); index.methods.len()];
    for class in 0..index.classes.len() {
        let class = ClassId(class as u32);
        if let Some(ctor) = index.resolve_dispatch(class, index.wk.init) {
            ctor_classes[ctor as usize].push(class);
        }
    }

    // Reverse BFS from the site-bearing methods. Every method is popped
    // at most once, so its name and its constructor classes each release
    // their callers at most once.
    let mut name_reached = vec![false; name_callers.len()];
    let mut frontier: Vec<u32> = reach
        .iter()
        .enumerate()
        .filter_map(|(m, &r)| r.then_some(m as u32))
        .collect();
    while let Some(m) = frontier.pop() {
        let name = index.methods[m as usize].name.index();
        let by_name: &[u32] = if name_reached[name] {
            &[]
        } else {
            name_reached[name] = true;
            &name_callers[name]
        };
        let by_ctor = ctor_classes[m as usize]
            .iter()
            .flat_map(|class| &class_callers[class.0 as usize]);
        for &caller in by_name.iter().chain(by_ctor) {
            if !reach[caller as usize] {
                reach[caller as usize] = true;
                frontier.push(caller);
            }
        }
    }

    Some(
        tests
            .iter()
            .map(|(_, test)| {
                // A test that cannot be mapped back to a compiled method
                // executes unconditionally: degrade to profiling, never to
                // silently skipping.
                let resolved = index
                    .class_by_name(&test.class)
                    .zip(index.interner.lookup(&test.name))
                    .and_then(|(class, name)| index.resolve_dispatch(class, name));
                match resolved {
                    Some(m) => reach[m as usize],
                    None => true,
                }
            })
            .collect(),
    )
}

/// Whether an expression contains user-code invocation (a dispatchable
/// call or an instantiation, whose constructor and field initialisers run
/// user code). Builtin `GlobalCall`s and exception constructions are
/// benign in themselves; their argument expressions still recurse.
fn expr_contains_user_call(expr: &LExpr) -> bool {
    let mut found = false;
    walk_expr(expr, &mut |e| {
        if matches!(e, LExpr::Call { .. } | LExpr::NewObj { .. }) {
            found = true;
        }
    });
    found
}

/// Pre-order visit of every expression node in a body.
fn walk_stmts<'a>(stmts: &'a [LStmt], visit: &mut dyn FnMut(&'a LExpr)) {
    for stmt in stmts {
        match stmt {
            LStmt::Var { init, .. } => walk_expr(init, visit),
            LStmt::AssignLocal { value, .. } => walk_expr(value, visit),
            LStmt::AssignField { recv, value, .. } => {
                walk_expr(recv, visit);
                walk_expr(value, visit);
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                walk_expr(cond, visit);
                walk_stmts(then_blk, visit);
                if let Some(e) = else_blk {
                    walk_stmts(e, visit);
                }
            }
            LStmt::While { cond, body } => {
                walk_expr(cond, visit);
                walk_stmts(body, visit);
            }
            LStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    walk_stmts(std::slice::from_ref(i), visit);
                }
                if let Some(c) = cond {
                    walk_expr(c, visit);
                }
                if let Some(u) = update {
                    walk_stmts(std::slice::from_ref(u), visit);
                }
                walk_stmts(body, visit);
            }
            LStmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                walk_expr(scrutinee, visit);
                for (_, body) in cases {
                    walk_stmts(body, visit);
                }
                if let Some(d) = default {
                    walk_stmts(d, visit);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                walk_stmts(body, visit);
                for c in catches {
                    walk_stmts(&c.body, visit);
                }
                if let Some(f) = finally {
                    walk_stmts(f, visit);
                }
            }
            LStmt::Throw { expr } | LStmt::Log { expr } | LStmt::Expr { expr } => {
                walk_expr(expr, visit)
            }
            LStmt::Return { expr } => {
                if let Some(e) = expr {
                    walk_expr(e, visit);
                }
            }
            LStmt::Sleep { ms } => walk_expr(ms, visit),
            LStmt::Assert { cond, msg } => {
                walk_expr(cond, visit);
                if let Some(m) = msg {
                    walk_expr(m, visit);
                }
            }
            LStmt::Break | LStmt::Continue => {}
        }
    }
}

fn walk_expr<'a>(expr: &'a LExpr, visit: &mut dyn FnMut(&'a LExpr)) {
    visit(expr);
    match expr {
        LExpr::Call { recv, args, .. } => {
            if let Some(r) = recv {
                walk_expr(r, visit);
            }
            for a in args {
                walk_expr(a, visit);
            }
        }
        LExpr::Field { recv, .. } => walk_expr(recv, visit),
        LExpr::GlobalCall { args, .. }
        | LExpr::NewExc { args, .. }
        | LExpr::NewObj { args, .. }
        | LExpr::NewUnknown { args, .. } => {
            for a in args {
                walk_expr(a, visit);
            }
        }
        LExpr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, visit);
            walk_expr(rhs, visit);
        }
        LExpr::Unary { expr, .. } => walk_expr(expr, visit),
        LExpr::InstanceOf { expr, .. } => walk_expr(expr, visit),
        LExpr::Literal(_) | LExpr::Local { .. } | LExpr::ImplicitField { .. } | LExpr::This => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
    use wasabi_analysis::resolve::ProjectIndex;

    fn project() -> Project {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method op2() throws E { return 2; }\n\
               method runA() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
               method runB() {\n\
                 for (var retries = 0; retries < 3; retries = retries + 1) {\n\
                   try { return this.op2(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
               test t1() { assert(this.runA() == 1); }\n\
               test t2() { assert(this.runA() == 1); assert(this.runB() == 2); }\n\
               test t3() { assert(true); }\n\
             }";
        Project::compile("t", vec![("c.jav", src)]).expect("compile")
    }

    #[test]
    fn profiles_per_test_site_coverage() {
        let p = project();
        let index = ProjectIndex::build(&p);
        let locations: Vec<RetryLocation> =
            all_retry_locations(&index, &LoopQueryOptions::default())
                .into_iter()
                .flat_map(|(_, locs)| locs)
                .collect();
        assert_eq!(locations.len(), 2, "two retry locations");
        let profile = profile_coverage(&p, &locations, &RunOptions::default());
        assert_eq!(profile.tests_total, 3);
        assert_eq!(profile.tests_covering_retry(), 2, "t3 covers nothing");
        assert_eq!(profile.covered_sites().len(), 2);
        let t1 = profile.per_test.get(&MethodId::new("C", "t1")).unwrap();
        assert_eq!(t1.len(), 1);
        let t2 = profile.per_test.get(&MethodId::new("C", "t2")).unwrap();
        assert_eq!(t2.len(), 2);
        // Both t1 and t2 cover the runA site.
        let shared = profile.site_to_tests.get(&t1[0]).unwrap();
        assert_eq!(shared.len(), 2);
    }

    fn locations_of(p: &Project) -> Vec<RetryLocation> {
        let index = ProjectIndex::build(p);
        all_retry_locations(&index, &LoopQueryOptions::default())
            .into_iter()
            .flat_map(|(_, locs)| locs)
            .collect()
    }

    #[test]
    fn prefilter_keeps_reaching_tests_and_skips_filler() {
        let p = project();
        let locations = locations_of(&p);
        let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
        let tests = p.tests();
        let mask = reachable_test_mask(&p, &sites, &tests).expect("prefilter enabled");
        let verdicts: BTreeMap<&str, bool> = tests
            .iter()
            .zip(&mask)
            .map(|((_, t), &keep)| (t.name.as_str(), keep))
            .collect();
        assert!(verdicts["t1"] && verdicts["t2"], "covering tests kept");
        assert!(!verdicts["t3"], "filler test provably reaches no site");
    }

    #[test]
    fn prefilter_traces_reachability_through_constructors() {
        // The covering test only touches the retry loop via `new D()`:
        // D's constructor calls the coordinator, so the test is reachable
        // only through the NewObj -> init edge.
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n\
             class D {\n\
               method init() { var c = new C(); c.run(); }\n\
             }\n\
             class T {\n\
               test tCtor() { var d = new D(); assert(true); }\n\
               test tFiller() { assert(true); }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).expect("compile");
        let locations = locations_of(&p);
        assert_eq!(locations.len(), 1);
        let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
        let tests = p.tests();
        let mask = reachable_test_mask(&p, &sites, &tests).expect("prefilter enabled");
        let verdicts: BTreeMap<&str, bool> = tests
            .iter()
            .zip(&mask)
            .map(|((_, t), &keep)| (t.name.as_str(), keep))
            .collect();
        assert!(verdicts["tCtor"], "constructor edge keeps the test");
        assert!(!verdicts["tFiller"]);
        // And the executed profile agrees with the static verdict.
        let profile = profile_coverage(&p, &locations, &RunOptions::default());
        assert!(profile
            .per_test
            .contains_key(&MethodId::new("T", "tCtor")));
    }

    #[test]
    fn prefilter_refuses_field_initialiser_calls() {
        // `field w = new Worker()` runs Worker's constructor outside any
        // method body; the prefilter must disable itself rather than
        // model it.
        let src = "exception E;\n\
             class Worker { method go() { return 1; } }\n\
             class C {\n\
               field w = new Worker();\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
               test t() { assert(this.run() == 1); }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).expect("compile");
        let locations = locations_of(&p);
        let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
        assert!(
            reachable_test_mask(&p, &sites, &p.tests()).is_none(),
            "field-initialiser instantiation disables the prefilter"
        );
    }

    /// The name-fan-out formulation the linear walk replaced: every method
    /// named `m` gets a reverse edge to every caller of `m`. Quadratic,
    /// but the literal reading of the reachability rules, so it is the
    /// oracle for the randomized differential below.
    fn fan_out_mask(
        p: &Project,
        sites: &BTreeSet<CallSite>,
        tests: &[(FileId, MethodId)],
    ) -> Vec<bool> {
        let index = &p.index;
        let n = index.methods.len();
        let mut reverse: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut reach = vec![false; n];
        for (m, method) in index.methods.iter().enumerate() {
            walk_stmts(&method.body, &mut |expr| match expr {
                LExpr::Call { site, method, .. } => {
                    reach[m] |= sites.contains(site);
                    for (t, target) in index.methods.iter().enumerate() {
                        if target.name == *method {
                            reverse[t].insert(m);
                        }
                    }
                }
                LExpr::NewObj { class, .. } => {
                    if let Some(ctor) = index.resolve_dispatch(*class, index.wk.init) {
                        reverse[ctor as usize].insert(m);
                    }
                }
                _ => {}
            });
        }
        let mut frontier: Vec<usize> = (0..n).filter(|&m| reach[m]).collect();
        while let Some(m) = frontier.pop() {
            for &caller in &reverse[m] {
                if !reach[caller] {
                    reach[caller] = true;
                    frontier.push(caller);
                }
            }
        }
        tests
            .iter()
            .map(|(_, test)| {
                let resolved = index
                    .class_by_name(&test.class)
                    .zip(index.interner.lookup(&test.name))
                    .and_then(|(class, name)| index.resolve_dispatch(class, name));
                match resolved {
                    Some(m) => reach[m as usize],
                    None => true,
                }
            })
            .collect()
    }

    /// A random program over a five-name pool, so names collide across
    /// classes: calls by name, instantiations (some classes inherit a
    /// constructor), retry loops, and tests that enter anywhere.
    fn random_program(rng: &mut wasabi_util::Rng) -> String {
        const NAMES: &[&str] = &["a", "b", "c", "d", "init"];
        let classes = 2 + rng.below(6);
        let stmt = |rng: &mut wasabi_util::Rng| match rng.below(4) {
            0 => format!("var o = new K{}();", rng.below(classes)),
            1 => format!(
                "for (var retry = 0; retry < 3; retry = retry + 1) {{ \
                 try {{ return this.{}(); }} catch (E e) {{ sleep(1); }} }}",
                rng.pick(NAMES)
            ),
            _ => format!("this.{}();", rng.pick(NAMES)),
        };
        let body = |rng: &mut wasabi_util::Rng| -> String {
            (0..rng.below(3)).map(|_| stmt(rng) + " ").collect()
        };
        let mut src = String::from("exception E;\n");
        for c in 0..classes {
            let parent = if c > 0 && rng.chance(0.3) {
                format!(" extends K{}", rng.below(c))
            } else {
                String::new()
            };
            src += &format!("class K{c}{parent} {{\n");
            for name in NAMES {
                if rng.chance(0.5) {
                    src += &format!("  method {name}() throws E {{ {}return 1; }}\n", body(rng));
                }
            }
            for t in 0..rng.below(3) {
                src += &format!("  test t{t}() {{ {}assert(true); }}\n", body(rng));
            }
            src += "}\n";
        }
        src
    }

    #[test]
    fn linear_walk_matches_the_name_fan_out_oracle_on_random_programs() {
        let (mut kept, mut skipped) = (0, 0);
        for case in 0..300u64 {
            let mut rng = wasabi_util::Rng::new(0x9e37_0000 + case);
            let src = random_program(&mut rng);
            let p = Project::compile("r", vec![("r.jav", src.as_str())])
                .unwrap_or_else(|errors| panic!("case {case}: {errors:?}\n{src}"));
            let sites = site_set(&locations_of(&p));
            let tests = p.tests();
            let mask = reachable_test_mask(&p, &sites, &tests).expect("literal initialisers");
            assert_eq!(
                mask,
                fan_out_mask(&p, &sites, &tests),
                "case {case}:\n{src}"
            );
            kept += mask.iter().filter(|&&k| k).count();
            skipped += mask.iter().filter(|&&k| !k).count();
        }
        assert!(kept > 50 && skipped > 50, "{kept} kept, {skipped} skipped");
    }

    #[test]
    fn parallel_profile_is_identical_to_serial() {
        let p = project();
        let index = ProjectIndex::build(&p);
        let locations: Vec<RetryLocation> =
            all_retry_locations(&index, &LoopQueryOptions::default())
                .into_iter()
                .flat_map(|(_, locs)| locs)
                .collect();
        let serial = profile_coverage(&p, &locations, &RunOptions::default());
        let sites = site_set(&locations);
        let tests = prefilter_suite(&p, &sites, p.tests());
        // jobs beyond the suite size must clamp, not spawn idle workers.
        for jobs in [2, 3, 4, 16] {
            let parallel = profile_tests(&p, &sites, &tests, 3, &RunOptions::default(), jobs);
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "profile diverges at jobs={jobs}"
            );
        }
    }
}
