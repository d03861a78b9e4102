//! Restoring default retry configurations in unit tests (§3.1.4).
//!
//! Developers sometimes restrict retry in tests by overriding retry
//! configuration keys (e.g. setting the maximum attempts to 0). WASABI scans
//! tests for such writes and pins the affected keys to their declared
//! defaults during repurposed runs, so injected faults exercise the real
//! retry behaviour.

use std::collections::BTreeMap;
use wasabi_lang::ast::{Expr, Lit};
use wasabi_lang::project::{MethodId, Project};

/// Substrings that mark a configuration key as retry-related.
pub const RETRY_KEY_MARKERS: &[&str] = &["retry", "retries", "attempt", "backoff"];

/// Result of the scan: which keys to pin, and which tests altered them.
#[derive(Debug, Clone, Default)]
pub struct ConfigRestoration {
    /// Retry-related keys written by at least one test, to be pinned to
    /// their declared defaults.
    pub pinned: Vec<String>,
    /// For each pinned key, the tests that wrote it.
    pub altered_by: BTreeMap<String, Vec<MethodId>>,
}

/// Whether a configuration key looks retry-related.
pub fn is_retry_key(key: &str) -> bool {
    let lower = key.to_lowercase();
    RETRY_KEY_MARKERS.iter().any(|m| lower.contains(m))
}

/// Scans every test method for `setConfig("<retry key>", ...)` writes. A
/// test's [`MethodId`] is built only for a write that matches, once per
/// write: most tests write no retry key.
pub fn restore_retry_configs(project: &Project) -> ConfigRestoration {
    let mut restoration = ConfigRestoration::default();
    for (_, file, class, method) in project.all_methods() {
        if !method.is_test {
            continue;
        }
        file.walk_exprs(&method.body, &mut |expr| {
            let Expr::Call { recv, method: name, args, .. } = *expr else {
                return;
            };
            if recv.is_some() || &file[name] != "setConfig" {
                return;
            }
            let Some(Expr::Literal(Lit::Str(key), _)) = file[args].first().map(|&a| file[a])
            else {
                return;
            };
            let key = &file[key];
            if is_retry_key(key) && project.symbols.config_default(key).is_some() {
                restoration
                    .altered_by
                    .entry(key.to_string())
                    .or_default()
                    .push(MethodId::new(&file[class.name], &file[method.name]));
            }
        });
    }
    restoration.pinned = restoration.altered_by.keys().cloned().collect();
    restoration
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_key_matching() {
        assert!(is_retry_key("dfs.mover.retry.max.attempts"));
        assert!(is_retry_key("client.backoff.ms"));
        assert!(is_retry_key("job.maxAttempts"));
        assert!(!is_retry_key("dfs.blocksize"));
    }

    #[test]
    fn finds_test_local_retry_overrides() {
        let src = "config \"rpc.retry.max\" default 10;\n\
             config \"io.buffer\" default 4096;\n\
             class T {\n\
               test tRestricts() { setConfig(\"rpc.retry.max\", 0); assert(true); }\n\
               test tUnrelated() { setConfig(\"io.buffer\", 1); assert(true); }\n\
               method helper() { setConfig(\"rpc.retry.max\", 1); }\n\
             }";
        let p = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let restoration = restore_retry_configs(&p);
        assert_eq!(restoration.pinned, vec!["rpc.retry.max"]);
        let writers = &restoration.altered_by["rpc.retry.max"];
        assert_eq!(writers, &vec![MethodId::new("T", "tRestricts")]);
    }

    #[test]
    fn each_write_lists_its_test_in_scan_order() {
        let src = "config \"rpc.retry.max\" default 10;\n\
             class T {\n\
               test tB() { setConfig(\"rpc.retry.max\", 0); setConfig(\"rpc.retry.max\", 1); }\n\
               test tA() { setConfig(\"rpc.retry.max\", 2); }\n\
             }";
        let p = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let writers = &restore_retry_configs(&p).altered_by["rpc.retry.max"];
        let tb = MethodId::new("T", "tB");
        assert_eq!(writers, &vec![tb.clone(), tb, MethodId::new("T", "tA")]);
    }

    #[test]
    fn undeclared_keys_are_ignored() {
        let src = "class T { test t() { setConfig(\"ghost.retry.max\", 0); assert(true); } }";
        let p = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let restoration = restore_retry_configs(&p);
        assert!(restoration.pinned.is_empty());
    }

    #[test]
    fn pinned_keys_integrate_with_runner() {
        use wasabi_vm::runner::{run_all_tests, RunOptions};
        let src = "config \"job.retry.max\" default 3;\n\
             class T {\n\
               test tPinned() {\n\
                 setConfig(\"job.retry.max\", 0);\n\
                 assert(getConfig(\"job.retry.max\") == 3, \"default restored\");\n\
               }\n\
             }";
        let p = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let restoration = restore_retry_configs(&p);
        let options = RunOptions {
            pinned_configs: restoration.pinned,
            ..RunOptions::default()
        };
        let runs = run_all_tests(&p, &options);
        assert!(runs[0].outcome.is_pass(), "outcome: {:?}", runs[0].outcome);
    }
}
