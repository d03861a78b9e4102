//! `serve-resubmit`: one client resubmitting the eight small-scale apps to
//! an in-process `wasabi serve` daemon whose compiled-app cache already
//! holds them.
//!
//! Cache hits skip compile and identify, so what is left is the wire path
//! (framing and digesting a megabyte of source per job, the report frame)
//! and the run layer, neither of which the batch workloads exercise much.

use crate::trace::Tracer;
use crate::workload::{count, generate, Counts, Workload, MIB};
use wasabi::core::{compile_app, report_json, run_app_job, DynamicOptions};
use wasabi::corpus::spec::Scale;
use wasabi::corpus::synth::{generate_app, GeneratedApp};
use wasabi::engine::NullObserver;
use wasabi::serve::protocol::render_request;
use wasabi::serve::scheduler::DEFAULT_PRIORITY;
use wasabi::serve::{spawn, Connection, DaemonHandle, Request, ServeOptions};
use wasabi::util::Json;

struct Submission {
    app: GeneratedApp,
    request: Request,
    /// Size of the submit frame and injected runs in the report, both
    /// read in the warm-up pass.
    frame_mb: f64,
    runs: f64,
}

pub struct ServeResubmit {
    submissions: Vec<Submission>,
    conn: Connection,
    daemon: Option<DaemonHandle>,
}

impl Workload for ServeResubmit {
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let submissions = generate(seed, t, |spec| generate_app(spec, Scale::Small))
            .into_iter()
            .map(|app| {
                let request = Request::Submit {
                    name: app.spec.short.to_string(),
                    priority: DEFAULT_PRIORITY,
                    files: app.files.clone(),
                    jobs: None,
                    shards: None,
                };
                Submission {
                    app,
                    request,
                    frame_mb: 0.0,
                    runs: 0.0,
                }
            })
            .collect();
        // `wasabi serve` defaults, except one campaign worker like the
        // batch workloads.
        let options = ServeOptions {
            campaign_jobs: 1,
            ..ServeOptions::default()
        };
        let daemon = t
            .span("serve.spawn", |_| spawn(options))
            .map_err(|err| format!("cannot start the daemon: {err}"))?;
        let conn = Connection::connect(&daemon.addr)
            .map_err(|err| format!("cannot connect to the daemon: {err}"))?;
        let mut workload = ServeResubmit {
            submissions,
            conn,
            daemon: Some(daemon),
        };
        // Fill the compiled-app cache; these round trips are set-up, so
        // they get no spans of their own.
        t.span("serve.fill", |_| {
            (0..workload.submissions.len()).try_for_each(|slot| {
                let short = workload.submissions[slot].app.spec.short;
                workload
                    .round_trip(slot, &mut Tracer::new())
                    .map(drop)
                    .map_err(|problem| format!("{short}: {problem}"))
            })
        })?;
        Ok(workload)
    }

    fn apps(&self) -> Vec<&'static str> {
        self.submissions.iter().map(|s| s.app.spec.short).collect()
    }

    fn job(
        &mut self,
        slot: usize,
        t: &mut Tracer,
        counts: &mut Counts,
        check: bool,
    ) -> Result<String, String> {
        let reply = t.span("serve.round_trip", |t| self.round_trip(slot, t))?;
        let cached = reply.get("cached").and_then(Json::as_bool) == Some(true);
        let bugs = reply.get("bugs").and_then(Json::as_u64).unwrap_or(0);
        count(counts, "serve.cache_lookups", 1.0);
        count(counts, "serve.cache_hits", f64::from(u8::from(cached)));
        count(counts, "oracles.bugs", bugs as f64);
        let report = reply
            .get("report")
            .and_then(Json::as_str)
            .ok_or("the reply carries no report")?
            .to_string();
        if !cached {
            return Err("the reply was not a cache hit".to_string());
        }
        let submission = &mut self.submissions[slot];
        if check {
            submission.runs = check_report(&submission.app, &report)?;
            submission.frame_mb = (render_request(&submission.request).len() + 1) as f64 / MIB;
        }
        count(counts, "serve.frame_mb", submission.frame_mb);
        count(counts, "engine.runs", submission.runs);
        Ok(report)
    }
}

impl ServeResubmit {
    /// Submits job `slot` and waits for its reply on the one connection.
    fn round_trip(&mut self, slot: usize, t: &mut Tracer) -> Result<Json, String> {
        let request = &self.submissions[slot].request;
        let conn = &mut self.conn;
        let accepted = t
            .span("serve.submit", |_| conn.request(request))
            .map_err(|err| format!("submit failed: {err}"))?;
        let id = accepted
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("submission refused: {accepted}"))?;
        let reply = t
            .span("serve.wait", |_| conn.request(&Request::Wait { id }))
            .map_err(|err| format!("wait failed: {err}"))?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("job failed: {reply}"));
        }
        Ok(reply)
    }
}

/// The daemon's report must be byte-equal to the batch pipeline's for the
/// same sources. Returns the report's injected-run count.
fn check_report(app: &GeneratedApp, report: &str) -> Result<f64, String> {
    let job = compile_app(app.spec.short, app.files.clone(), 0)
        .map_err(|errors| format!("batch compile failed ({} errors)", errors.len()))?;
    let result = run_app_job(&job, &DynamicOptions::default(), &mut NullObserver);
    if report_json(&job.identified, &result) != report {
        return Err("the daemon's report differs from the batch report".to_string());
    }
    Ok(result.runs_planned as f64)
}

impl Drop for ServeResubmit {
    fn drop(&mut self) {
        let shutdown = Request::Shutdown {
            drain: false,
            deadline_ms: None,
        };
        let Some(daemon) = self.daemon.take() else {
            return;
        };
        // Join only once the daemon has the shutdown order; otherwise its
        // threads would never end and the join would hang.
        let stopped = self.conn.request(&shutdown).is_ok()
            || Connection::connect(&daemon.addr).is_ok_and(|mut c| c.request(&shutdown).is_ok());
        if stopped {
            daemon.join();
        }
    }
}
