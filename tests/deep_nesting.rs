//! The parser's nesting bound end to end. A file nested exactly
//! `MAX_DEPTH` levels deep, through every shape that recursion follows
//! (operator chains, parentheses, unary operators, nested calls, nested
//! ifs), compiles, lints, prints and runs: in process on a 2 MiB thread
//! (the size of a daemon runner's or campaign worker's stack), through
//! `wasabi lint` and `wasabi test --jobs 2`, and on a `wasabi serve`
//! runner. One level deeper is a compile error with a pinned message, and
//! the daemon that refused it answers its next request.

use std::process::Command;
use wasabi::analysis::checkers::{lint_project, LintOptions};
use wasabi::core::{compile_app, report_json, run_app_job, DynamicOptions};
use wasabi::engine::NullObserver;
use wasabi::lang::parser::MAX_DEPTH;
use wasabi::lang::printer::print_items;
use wasabi::lang::project::Project;
use wasabi::serve::{spawn, Connection, Request, ServeOptions};
use wasabi::util::Json;
use wasabi::vm::runner::{run_all_tests, RunOptions};

/// An app whose methods each nest `MAX_DEPTH` levels (`return` is one
/// level, so each returned expression is `MAX_DEPTH - 1` tall), except
/// the method named `deeper`, which nests one level more.
fn deep_app(deeper: &str) -> String {
    let k = |shape: &str| MAX_DEPTH as usize - 2 + usize::from(shape == deeper);
    let k_chain = k("chain");
    format!(
        "exception E;\n\
         class Deep {{\n\
           method id(x) {{ return x; }}\n\
           method chain() {{ return 1{chain}; }}\n\
           method parens() {{ return {open}7{close}; }}\n\
           method nots() {{ return {nots}true; }}\n\
           method negs() {{ return {negs}5; }}\n\
           method calls() {{ return {calls}3{calls_close}; }}\n\
           method ifs() {{ {ifs}return 1;{ifs_close} return 0; }}\n\
           method run() {{\n\
             for (var retry = 0; retry < 3; retry = retry + 1) {{\n\
               try {{ return this.chain(); }} catch (E e) {{ sleep(10); }}\n\
             }}\n\
             return 0;\n\
           }}\n\
           test tDeep() {{\n\
             assert(this.chain() == {chain_value});\n\
             assert(this.parens() == 7);\n\
             assert(this.nots());\n\
             assert(this.negs() == 5);\n\
             assert(this.calls() == 3);\n\
             assert(this.ifs() == 1);\n\
             assert(this.run() == {chain_value});\n\
           }}\n\
         }}\n",
        chain = " + 1".repeat(k_chain),
        open = "(".repeat(k("parens")),
        close = ")".repeat(k("parens")),
        nots = "!".repeat(k("nots")),
        negs = "- ".repeat(k("negs")),
        calls = "this.id(".repeat(k("calls")),
        calls_close = ")".repeat(k("calls")),
        ifs = "if (true) { ".repeat(k("ifs")),
        ifs_close = " }".repeat(k("ifs")),
        chain_value = k_chain + 1,
    )
}

/// Runs `f` on a thread with a 2 MiB stack and returns its result.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

#[test]
fn the_deepest_file_compiles_lints_prints_and_runs_on_a_small_stack() {
    let source = deep_app("");
    let (printed, lint, report) = on_small_stack(move || {
        let project = Project::compile("deep", vec![("deep.jav", source.as_str())])
            .unwrap_or_else(|e| panic!("{e:?}"));
        let printed = print_items(&project.files[0]);
        let lint = lint_project(&project, &LintOptions::default())
            .diagnostics
            .len();
        let runs = run_all_tests(&project, &RunOptions::default());
        assert!(runs[0].outcome.is_pass(), "tDeep: {:?}", runs[0].outcome);
        let job = compile_app("cli", vec![("deep.jav".into(), source.clone())], 0)
            .unwrap_or_else(|e| panic!("{e:?}"));
        let result = run_app_job(&job, &DynamicOptions::default(), &mut NullObserver);
        (printed, lint, report_json(&job.identified, &result))
    });
    assert!(printed.contains(&format!("return 1{};", " + 1".repeat(254))));
    assert_eq!(lint, 0, "the capped, delayed retry loop is clean");
    Json::parse(&report).expect("the campaign reports");
}

#[test]
fn one_level_deeper_is_a_parse_error_in_every_shape() {
    for shape in ["chain", "parens", "nots", "negs", "calls", "ifs"] {
        let source = deep_app(shape);
        let err = Project::compile("deep", vec![("deep.jav", source.as_str())]).expect_err(shape);
        assert_eq!(err.len(), 1, "{shape}");
        assert_eq!(err[0].message, "nesting deeper than 256 levels", "{shape}");
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-deep-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn cli_handles_the_bound_and_refuses_one_level_more() {
    let dir = temp_dir("cli");
    let ok = dir.join("deep.jav");
    std::fs::write(&ok, deep_app("")).expect("write");
    let too_deep = dir.join("deeper.jav");
    std::fs::write(
        &too_deep,
        format!(
            "class C {{\n  method m() {{ return 1{}; }}\n}}\n",
            " + 1".repeat(256)
        ),
    )
    .expect("write");
    let wasabi = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_wasabi"))
            .args(args)
            .output()
            .expect("wasabi runs")
    };
    let ok = ok.to_string_lossy().into_owned();
    let lint = wasabi(&["lint", "--quiet", &ok]);
    assert_eq!(
        lint.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&lint.stderr)
    );
    let test = wasabi(&["test", "--quiet", "--jobs", "2", "--json", &ok]);
    assert!(
        matches!(test.status.code(), Some(0 | 1)),
        "{}",
        String::from_utf8_lossy(&test.stderr)
    );
    let serial = wasabi(&["test", "--quiet", "--jobs", "1", "--json", &ok]);
    assert_eq!(test.stdout, serial.stdout, "--jobs 2 reports as --jobs 1");

    let too_deep = too_deep.to_string_lossy().into_owned();
    for command in ["lint", "test"] {
        let output = wasabi(&[command, "--quiet", &too_deep]);
        assert_eq!(output.status.code(), Some(2), "{command}");
        // The span covers the 256th `+`, the first node past the bound.
        assert_eq!(
            String::from_utf8_lossy(&output.stderr).trim_end(),
            format!("{too_deep}@32..1057: nesting deeper than 256 levels"),
            "{command}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_runs_the_bound_and_survives_deeper_submits() {
    let handle = spawn(ServeOptions::default()).expect("daemon binds");
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let mut submit = |source: String| {
        let response = conn
            .request(&Request::Submit {
                name: "cli".to_string(),
                priority: 5,
                files: vec![("deep.jav".to_string(), source)],
                jobs: None,
                shards: None,
            })
            .expect("submit response");
        let id = response.get("id").and_then(Json::as_u64).expect("job id");
        conn.request(&Request::Wait { id }).expect("wait response")
    };
    let done = submit(deep_app(""));
    assert_eq!(
        done.get("ok").and_then(Json::as_bool),
        Some(true),
        "{done:?}"
    );
    let batch = {
        let job = compile_app("cli", vec![("deep.jav".into(), deep_app(""))], 0).expect("compiles");
        let result = run_app_job(&job, &DynamicOptions::default(), &mut NullObserver);
        report_json(&job.identified, &result)
    };
    assert_eq!(
        done.get("report").and_then(Json::as_str),
        Some(batch.as_str())
    );
    // The inputs that used to abort the daemon from a runner thread.
    for source in [
        format!(
            "class C {{ method m() {{ return {}1; }} }}",
            "(".repeat(20_000)
        ),
        format!(
            "class C {{ method m() {{ return 1{}; }} }}",
            " + 1".repeat(20_000)
        ),
    ] {
        let refused = submit(source);
        assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
        let error = refused.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.contains("nesting deeper than 256 levels"), "{error}");
    }
    let again = submit(deep_app(""));
    assert_eq!(
        again.get("ok").and_then(Json::as_bool),
        Some(true),
        "answers after refusals"
    );
    assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));
    let _ = conn.request(&Request::Shutdown {
        drain: false,
        deadline_ms: None,
    });
    handle.join();
}
