//! End-to-end daemon tests over real TCP connections on a loopback
//! port. These cover protocol robustness (malformed frames, oversized
//! payloads, disconnects, double-cancel), the determinism contract
//! (reports independent of arrival order; cache hits byte-identical to
//! fresh compiles), and submit-by-digest (`Connection::request` offers
//! digests and uploads only what the daemon lacks). Scheduling *policy*
//! is tested on `ManualClock` in the scheduler module; nothing here
//! asserts on timing.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread;
use wasabi_core::{compile_app, report_json, run_app_job, DynamicOptions};
use wasabi_engine::NullObserver;
use wasabi_serve::daemon::{spawn, Bind, DaemonHandle, ServeOptions, STAGED_IDLE_LIMIT};
use wasabi_serve::protocol::{render_request, Request, DEFAULT_MAX_FRAME_BYTES};
use wasabi_serve::scheduler::SchedulerConfig;
use wasabi_serve::Connection;
use wasabi_util::Json;

const APP_X: &str = "\
exception E;\n\
class X {\n\
  method op() throws E { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (E e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tRun() { assert(this.run() == \"ok\"); }\n\
}\n";

const APP_Y: &str = "\
exception F;\n\
class Y {\n\
  method fetch() throws F { return \"y\"; }\n\
  method poll() {\n\
    for (var i = 0; i < 3; i = i + 1) {\n\
      try { return this.fetch(); } catch (F e) { sleep(5); }\n\
    }\n\
    return \"gave up\";\n\
  }\n\
  test tPoll() { assert(this.poll() == \"y\"); }\n\
}\n";

fn start(options: ServeOptions) -> DaemonHandle {
    spawn(options).expect("daemon binds on loopback")
}

fn default_daemon() -> DaemonHandle {
    start(ServeOptions::default())
}

fn submit(conn: &mut Connection, path: &str, source: &str) -> u64 {
    let response = conn
        .request(&Request::Submit {
            name: "cli".to_string(),
            priority: 5,
            files: vec![(path.to_string(), source.to_string())],
            jobs: None,
            shards: None,
        })
        .expect("submit response");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{response:?}");
    response.get("id").and_then(Json::as_u64).expect("job id")
}

fn wait_report(conn: &mut Connection, id: u64) -> (String, bool) {
    let response = conn.request(&Request::Wait { id }).expect("wait response");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{response:?}");
    let report = response
        .get("report")
        .and_then(Json::as_str)
        .expect("report field")
        .to_string();
    let cached = response
        .get("cached")
        .and_then(Json::as_bool)
        .expect("cached field");
    (report, cached)
}

fn shutdown(handle: DaemonHandle) {
    let mut conn = Connection::connect(&handle.addr).expect("connect for shutdown");
    let _ = conn.request(&Request::Shutdown {
        drain: false,
        deadline_ms: None,
    });
    handle.join();
}

#[test]
fn malformed_frame_gets_error_and_connection_stays_usable() {
    let handle = default_daemon();
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    // Plain garbage, then nesting deep enough to overflow a recursive
    // parser's stack: each gets an error, and the connection keeps going.
    for frame in ["{this is not json".to_string(), "[".repeat(20_000)] {
        conn.send_line(&frame).expect("send");
        let line = conn.read_line().expect("read").expect("response");
        let response = Json::parse(&line).expect("error is valid json");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert!(line.contains("malformed"), "line: {line}");
        // Same connection keeps working.
        let stats = conn.request(&Request::Stats).expect("stats after error");
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    }
    shutdown(handle);
}

#[test]
fn oversized_frame_is_rejected_and_daemon_keeps_accepting() {
    let handle = start(ServeOptions {
        max_frame_bytes: 512,
        ..ServeOptions::default()
    });
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let huge = format!(
        "{{\"kind\":\"wasabi-serve\",\"v\":1,\"op\":\"submit\",\"name\":\"{}\"}}",
        "x".repeat(4096)
    );
    conn.send_line(&huge).expect("send oversized");
    let line = conn.read_line().expect("read").expect("error before drop");
    assert!(line.contains("exceeds 512 bytes"), "line: {line}");
    // The daemon dropped this connection rather than resynchronize...
    assert_eq!(conn.read_line().expect("read"), None, "connection closed");
    // ...but keeps serving new ones.
    let mut fresh = Connection::connect(&handle.addr).expect("reconnect");
    let stats = fresh.request(&Request::Stats).expect("stats");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    shutdown(handle);
}

#[test]
fn disconnect_mid_job_does_not_lose_the_job() {
    let handle = default_daemon();
    let id = {
        let mut conn = Connection::connect(&handle.addr).expect("connect");
        submit(&mut conn, "x.jav", APP_X)
        // Connection drops here, likely while the job is queued/running.
    };
    let mut conn = Connection::connect(&handle.addr).expect("reconnect");
    let (report, _) = wait_report(&mut conn, id);
    assert!(report.contains("\"bugs\""), "job completed despite disconnect");
    shutdown(handle);
}

#[test]
fn double_cancel_is_a_clean_error_and_scheduler_survives() {
    // One runner and a long queue: the second submission stays queued
    // long enough to cancel deterministically.
    let handle = start(ServeOptions {
        scheduler: SchedulerConfig {
            max_queued: 8,
            max_inflight: 1,
            queue_timeout_us: None,
        },
        ..ServeOptions::default()
    });
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let first = submit(&mut conn, "x.jav", APP_X);
    // Park the victim behind extra queued work so it is still queued
    // when the cancel arrives, however fast the first campaign runs.
    let fillers: Vec<u64> = (0..3).map(|_| submit(&mut conn, "x.jav", APP_X)).collect();
    let victim = submit(&mut conn, "y.jav", APP_Y);
    let cancelled = conn.request(&Request::Cancel { id: victim }).expect("cancel");
    assert_eq!(cancelled.get("ok").and_then(Json::as_bool), Some(true), "{cancelled:?}");
    let again = conn.request(&Request::Cancel { id: victim }).expect("double cancel");
    assert_eq!(again.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        again.get("error").and_then(Json::as_str).unwrap_or("").contains("already cancelled"),
        "{again:?}"
    );
    // Waiting on the cancelled job reports cancellation, not a hang.
    let waited = conn.request(&Request::Wait { id: victim }).expect("wait");
    assert_eq!(waited.get("ok").and_then(Json::as_bool), Some(false));
    // The scheduler is not poisoned: the first job still completes and
    // new submissions still flow.
    let (report, _) = wait_report(&mut conn, first);
    assert!(report.contains("\"bugs\""));
    for filler in fillers {
        wait_report(&mut conn, filler);
    }
    let next = submit(&mut conn, "x.jav", APP_X);
    let (next_report, _) = wait_report(&mut conn, next);
    assert_eq!(report, next_report, "same app, same report");
    shutdown(handle);
}

#[test]
fn cancel_of_unknown_job_is_a_clean_error() {
    let handle = default_daemon();
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let response = conn.request(&Request::Cancel { id: 424242 }).expect("cancel");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        response.get("error").and_then(Json::as_str).unwrap_or("").contains("unknown"),
        "{response:?}"
    );
    shutdown(handle);
}

#[test]
fn reports_are_byte_identical_regardless_of_arrival_order() {
    // Daemon 1 sees X before Y; daemon 2 sees Y before X (and runs them
    // on a single runner to force strictly opposite execution order).
    let single = || {
        start(ServeOptions {
            scheduler: SchedulerConfig {
                max_queued: 8,
                max_inflight: 1,
                queue_timeout_us: None,
            },
            ..ServeOptions::default()
        })
    };
    let first = single();
    let (x1, y1) = {
        let mut conn = Connection::connect(&first.addr).expect("connect");
        let x = submit(&mut conn, "x.jav", APP_X);
        let y = submit(&mut conn, "y.jav", APP_Y);
        (wait_report(&mut conn, x).0, wait_report(&mut conn, y).0)
    };
    shutdown(first);
    let second = single();
    let (x2, y2) = {
        let mut conn = Connection::connect(&second.addr).expect("connect");
        let y = submit(&mut conn, "y.jav", APP_Y);
        let x = submit(&mut conn, "x.jav", APP_X);
        (wait_report(&mut conn, x).0, wait_report(&mut conn, y).0)
    };
    shutdown(second);
    assert_eq!(x1, x2, "app X report independent of arrival order");
    assert_eq!(y1, y2, "app Y report independent of arrival order");
    assert_ne!(x1, y1, "distinct apps produce distinct reports");
}

#[test]
fn repeat_submission_hits_the_cache_with_identical_report() {
    let handle = default_daemon();
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let first = submit(&mut conn, "x.jav", APP_X);
    let (fresh_report, fresh_cached) = wait_report(&mut conn, first);
    assert!(!fresh_cached, "first submission compiles");
    let second = submit(&mut conn, "x.jav", APP_X);
    let (cached_report, cached) = wait_report(&mut conn, second);
    assert!(cached, "second submission hits the ProgramIndex cache");
    assert_eq!(fresh_report, cached_report, "cache hit is byte-identical");
    let stats = conn.request(&Request::Stats).expect("stats");
    assert!(stats.get("cache_hits").and_then(Json::as_u64).unwrap_or(0) >= 1);
    shutdown(handle);
}

#[test]
fn admission_control_rejects_with_reason_when_queue_is_full() {
    let handle = start(ServeOptions {
        scheduler: SchedulerConfig {
            max_queued: 1,
            max_inflight: 1,
            queue_timeout_us: None,
        },
        ..ServeOptions::default()
    });
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    // Submit until the first rejection. How many get in first depends on
    // how fast the single runner dequeues, so nothing asserts on the
    // count; the bound only stops a daemon that never pushes back. The
    // rejection answers an offer, with or without uploads before it.
    let mut kept = Vec::new();
    let mut rejection = None;
    for _ in 0..64 {
        let response = conn
            .request(&Request::Submit {
                name: "cli".to_string(),
                priority: 5,
                files: vec![("x.jav".to_string(), APP_X.to_string())],
                jobs: None,
                shards: None,
            })
            .expect("submit response");
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            kept.push(response.get("id").and_then(Json::as_u64).expect("job id"));
        } else {
            rejection = Some(response);
            break;
        }
    }
    let rejection = rejection.expect("overflow submissions must see backpressure");
    let reason = rejection.get("rejected").and_then(Json::as_str).unwrap_or("");
    assert!(reason.contains("queue full"), "{rejection:?}");
    assert!(!kept.is_empty(), "the first submission is admitted");
    for id in kept {
        wait_report(&mut conn, id);
    }
    shutdown(handle);
}

#[test]
fn subscribe_streams_events_until_finished() {
    let handle = default_daemon();
    let mut control = Connection::connect(&handle.addr).expect("connect");
    let id = submit(&mut control, "x.jav", APP_X);
    // Subscribe from a second connection while the job runs (or, if it
    // already finished, expect the immediate terminal event).
    let (tx, rx) = mpsc::channel();
    let addr = handle.addr.clone();
    let streamer = thread::spawn(move || {
        let mut sub = Connection::connect(&addr).expect("subscriber connects");
        let ack = sub.request(&Request::Subscribe { id }).expect("subscribe ack");
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
        while let Some(line) = sub.read_line().expect("event line") {
            let event = Json::parse(&line).expect("event is json");
            let kind = event
                .get("event")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let done = kind == "finished";
            tx.send(kind).expect("collector alive");
            if done {
                break;
            }
        }
    });
    let events: Vec<String> = rx.into_iter().collect();
    streamer.join().expect("streamer thread");
    assert_eq!(events.last().map(String::as_str), Some("finished"), "events: {events:?}");
    let (report, _) = wait_report(&mut control, id);
    assert!(report.contains("\"bugs\""));
    shutdown(handle);
}

#[test]
fn compile_errors_come_back_as_job_failures() {
    let handle = default_daemon();
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let id = submit_raw(&mut conn, "bad.jav", "class {");
    let response = conn.request(&Request::Wait { id }).expect("wait");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        response.get("error").and_then(Json::as_str).unwrap_or("").contains("compile failed"),
        "{response:?}"
    );
    // The runner pool survives compile failures.
    let good = submit(&mut conn, "x.jav", APP_X);
    wait_report(&mut conn, good);
    shutdown(handle);
}

fn submit_raw(conn: &mut Connection, path: &str, source: &str) -> u64 {
    let response = conn
        .request(&Request::Submit {
            name: "cli".to_string(),
            priority: 5,
            files: vec![(path.to_string(), source.to_string())],
            jobs: None,
            shards: None,
        })
        .expect("submit response");
    response.get("id").and_then(Json::as_u64).expect("job id")
}

#[test]
fn graceful_drain_refuses_new_work_and_finishes_admitted_jobs() {
    // A single runner keeps the second job queued when the drain lands,
    // so the drain demonstrably finishes *queued* work, not just running.
    let handle = start(ServeOptions {
        scheduler: SchedulerConfig {
            max_queued: 8,
            max_inflight: 1,
            queue_timeout_us: None,
        },
        ..ServeOptions::default()
    });
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let first = submit(&mut conn, "x.jav", APP_X);
    let second = submit(&mut conn, "y.jav", APP_Y);
    // Open the late connection, and prove its session is being served,
    // before the drain: once both jobs finish, the drain closes the
    // listener, and a connection opened after that would be refused.
    let mut late = Connection::connect(&handle.addr).expect("connect before the drain");
    let stats = late.request(&Request::Stats).expect("stats before the drain");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true), "{stats:?}");

    let mut drainer = Connection::connect(&handle.addr).expect("connect for drain");
    let ack = drainer
        .request(&Request::Shutdown {
            drain: true,
            deadline_ms: Some(60_000),
        })
        .expect("drain ack");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true), "{ack:?}");

    // New admissions are refused with a retryable rejection, not an
    // error, even if the admitted jobs have already finished. The refusal
    // answers the submission's first offer.
    let refused = late
        .request(&Request::Submit {
            name: "cli".to_string(),
            priority: 5,
            files: vec![("x.jav".to_string(), APP_X.to_string())],
            jobs: None,
            shards: None,
        })
        .expect("submit while draining");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("rejected").and_then(Json::as_str),
        Some("draining"),
        "{refused:?}"
    );

    // Both admitted jobs still complete with real reports.
    let (first_report, _) = wait_report(&mut conn, first);
    let (second_report, _) = wait_report(&mut conn, second);
    assert!(first_report.contains("\"bugs\""));
    assert!(second_report.contains("\"bugs\""));
    // And the daemon exits on its own once the queue is dry.
    handle.join();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let dir = std::env::temp_dir().join(format!("wasabi-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("serve.sock");
    let handle = start(ServeOptions {
        bind: Bind::Unix(path.clone()),
        ..ServeOptions::default()
    });
    let mut conn = Connection::connect(&handle.addr).expect("connect over unix socket");
    let id = submit(&mut conn, "x.jav", APP_X);
    let (report, _) = wait_report(&mut conn, id);
    assert!(report.contains("\"bugs\""));
    shutdown(handle);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

fn submission(name: &str, files: &[(&str, &str)]) -> Request {
    Request::Submit {
        name: name.to_string(),
        priority: 5,
        files: files
            .iter()
            .map(|&(path, source)| (path.to_string(), source.to_string()))
            .collect(),
        jobs: None,
        shards: None,
    }
}

/// Submits through the offer path; returns the job id and how many
/// uploads the admission consumed.
fn offer(conn: &mut Connection, request: &Request) -> (u64, u64) {
    let response = conn.request(request).expect("submit response");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response:?}"
    );
    let id = response.get("id").and_then(Json::as_u64).expect("job id");
    let uploaded = response
        .get("uploaded")
        .and_then(Json::as_u64)
        .expect("uploaded count");
    (id, uploaded)
}

fn stat(conn: &mut Connection, key: &str) -> u64 {
    let stats = conn.request(&Request::Stats).expect("stats");
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no {key} in {stats:?}"))
}

/// `wasabi test --json`'s report for the same sources.
fn batch_report(request: &Request) -> String {
    let Request::Submit { name, files, .. } = request else {
        panic!("not a submission: {request:?}")
    };
    let job = compile_app(name, files.clone(), 0).expect("batch compile");
    let result = run_app_job(&job, &DynamicOptions::default(), &mut NullObserver);
    report_json(&job.identified, &result)
}

/// MA, the smallest paper-scale app, makes a v1 frame larger than the
/// default cap; by digest a default daemon takes it, reports it byte for
/// byte like batch mode, and takes a warm resubmission with no uploads.
#[test]
fn default_daemon_accepts_a_paper_scale_app_by_digest() {
    use wasabi_corpus::spec::{paper_apps, Scale};
    let spec = paper_apps()
        .into_iter()
        .find(|spec| spec.short == "MA")
        .expect("MA spec");
    let app = wasabi_corpus::synth::generate_app(&spec, Scale::Paper);
    let request = Request::Submit {
        name: spec.short.to_string(),
        priority: 5,
        files: app.files,
        jobs: None,
        shards: None,
    };
    let v1_frame = render_request(&request).len() + 1;
    assert!(
        v1_frame > DEFAULT_MAX_FRAME_BYTES,
        "MA's v1 frame is {v1_frame} bytes"
    );

    let handle = default_daemon();
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let (id, uploaded) = offer(&mut conn, &request);
    assert!(uploaded > 0);
    let (report, cached) = wait_report(&mut conn, id);
    assert!(!cached);
    assert_eq!(
        report,
        batch_report(&request),
        "daemon and batch reports differ"
    );

    let before = stat(&mut conn, "uploaded_files");
    let (again, uploaded) = offer(&mut conn, &request);
    assert_eq!(uploaded, 0);
    assert_eq!(
        stat(&mut conn, "uploaded_files"),
        before,
        "a warm resubmission uploads nothing"
    );
    assert_eq!(wait_report(&mut conn, again), (report, true));
    shutdown(handle);
}

/// An edited app has a new cache key and takes no file from the cached
/// one, so all its files upload; contents offered under two paths upload
/// once.
#[test]
fn an_edited_app_uploads_every_file_and_shared_contents_upload_once() {
    let handle = default_daemon();
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let first = submission("cli", &[("x.jav", APP_X), ("y.jav", APP_Y)]);
    let (id, uploaded) = offer(&mut conn, &first);
    assert_eq!(uploaded, 2);
    wait_report(&mut conn, id);

    let edited_y = format!("{APP_Y}// edited\n");
    let edited = submission("cli", &[("x.jav", APP_X), ("y.jav", &edited_y)]);
    let files = stat(&mut conn, "uploaded_files");
    let (id, uploaded) = offer(&mut conn, &edited);
    assert_eq!(uploaded, 2);
    assert_eq!(stat(&mut conn, "uploaded_files"), files + 2);
    let (report, cached) = wait_report(&mut conn, id);
    assert!(!cached);
    assert_eq!(report, batch_report(&edited));

    let note = "// shared by two paths\n";
    let shared = submission(
        "cli",
        &[("x.jav", APP_X), ("a/note.jav", note), ("b/note.jav", note)],
    );
    let (files, reused) = (
        stat(&mut conn, "uploaded_files"),
        stat(&mut conn, "reused_files"),
    );
    let (id, uploaded) = offer(&mut conn, &shared);
    assert_eq!(uploaded, 2);
    assert_eq!(stat(&mut conn, "uploaded_files"), files + 2);
    assert_eq!(
        stat(&mut conn, "reused_files"),
        reused + 1,
        "b/note.jav reused the upload of a/note.jav"
    );
    assert_eq!(wait_report(&mut conn, id).0, batch_report(&shared));
    shutdown(handle);
}

/// A raw v1 `submit` frame carries every file; the daemon still admits it
/// (its files count as uploads) and reports like the offer path.
#[test]
fn a_raw_v1_submit_frame_still_works() {
    let handle = default_daemon();
    let mut conn = Connection::connect(&handle.addr).expect("connect");
    let request = submission("cli", &[("x.jav", APP_X)]);
    let (id, _) = offer(&mut conn, &request);
    let (by_digest, _) = wait_report(&mut conn, id);
    conn.send_line(&render_request(&request))
        .expect("send v1 frame");
    let line = conn.read_line().expect("read").expect("reply");
    let reply = Json::parse(&line).expect("json reply");
    let id = reply
        .get("id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{line}"));
    assert_eq!(
        reply.get("uploaded").and_then(Json::as_u64),
        Some(1),
        "{line}"
    );
    assert_eq!(wait_report(&mut conn, id), (by_digest, true));
    shutdown(handle);
}

/// A client facing a daemon that predates v2 falls back to one v1 frame,
/// and sends later submissions as v1 frames straight away.
#[test]
fn client_falls_back_to_v1_frames_for_an_old_daemon() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    let stub = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut frames = Vec::new();
        for line in BufReader::new(stream).lines() {
            let frame = line.expect("frame");
            let reply = if frame.contains("\"v\":2") {
                "{\"ok\":false,\"error\":\"unsupported protocol version 2 (daemon speaks 1)\"}"
            } else {
                "{\"ok\":true,\"id\":1,\"position\":0}"
            };
            writer
                .write_all(format!("{reply}\n").as_bytes())
                .expect("reply");
            frames.push(frame);
        }
        frames
    });
    let request = submission("cli", &[("x.jav", APP_X)]);
    {
        let mut conn = Connection::connect(&addr).expect("connect to stub");
        for _ in 0..2 {
            let reply = conn.request(&request).expect("reply");
            assert_eq!(reply.get("id").and_then(Json::as_u64), Some(1), "{reply:?}");
        }
    }
    let frames = stub.join().expect("stub thread");
    let v1 = render_request(&request);
    assert_eq!(frames.len(), 3, "{frames:?}");
    assert!(frames[0].contains("\"op\":\"offer\""), "{}", frames[0]);
    assert_eq!(frames[1..], [v1.clone(), v1]);
}

fn put(conn: &mut Connection, contents: &str) -> Json {
    conn.send_line(&render_request(&Request::Put {
        files: vec![contents.to_string()],
    }))
    .expect("send put");
    Json::parse(&conn.read_line().expect("read").expect("reply")).expect("json")
}

/// All connections together may stage at most the frame cap times the
/// cache capacity. A put past that is refused whole and its connection
/// stays usable; staged bytes come free when an offer takes them or when
/// their connection closes.
#[test]
fn puts_past_the_daemon_wide_staging_bound_are_errors() {
    let handle = start(ServeOptions {
        max_frame_bytes: 4096,
        cache_capacity: 1,
        ..ServeOptions::default()
    });
    let mut first = Connection::connect(&handle.addr).expect("connect");
    let mut second = Connection::connect(&handle.addr).expect("connect");
    let a = format!("{APP_X}// {}\n", "a".repeat(3000));
    let b = format!("{APP_Y}// {}\n", "b".repeat(3000));
    assert_eq!(put(&mut first, &a).get("stored").and_then(Json::as_u64), Some(1));
    let refused = put(&mut second, &b);
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    let error = refused.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("at most 4096 bytes"), "{refused:?}");
    assert_eq!(stat(&mut second, "uploaded_files"), 1);

    // Admitting the first connection's app takes its staged upload.
    let (_, uploaded) = offer(&mut first, &submission("cli", &[("x.jav", &a)]));
    assert_eq!(uploaded, 1);
    assert_eq!(put(&mut second, &b).get("stored").and_then(Json::as_u64), Some(1));
    let refused = put(&mut first, &a);
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false), "{refused:?}");

    // Closing the second connection frees what it staged; its session
    // thread notices the close on its own schedule, so poll.
    drop(second);
    let stored = (0..500).any(|_| {
        let reply = put(&mut first, &a);
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            return true;
        }
        thread::sleep(std::time::Duration::from_millis(10));
        false
    });
    assert!(stored, "a closed connection's staged bytes were never freed");
    shutdown(handle);
}

/// A session that holds staged uploads and then sends no frame for
/// `STAGED_IDLE_LIMIT` is closed and its staged bytes are released, so
/// other clients' puts go through again; a session with nothing staged may
/// idle as long as it likes.
#[test]
fn an_idle_session_holding_staged_uploads_is_closed_and_releases_them() {
    let handle = start(ServeOptions {
        max_frame_bytes: 4096,
        cache_capacity: 1,
        ..ServeOptions::default()
    });
    let mut idle = Connection::connect(&handle.addr).expect("connect");
    let mut stalled = Connection::connect(&handle.addr).expect("connect");
    let mut other = Connection::connect(&handle.addr).expect("connect");
    let a = format!("{APP_X}// {}\n", "a".repeat(3000));
    let b = format!("{APP_Y}// {}\n", "b".repeat(3000));
    let started = std::time::Instant::now();
    assert_eq!(put(&mut stalled, &a).get("stored").and_then(Json::as_u64), Some(1));
    let refused = put(&mut other, &b);
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false), "{refused:?}");

    // `stalled` now sends nothing; once it has been silent for the limit,
    // the daemon closes it and `other`'s put fits under the bound.
    let stored = (0..200).any(|_| {
        thread::sleep(std::time::Duration::from_millis(50));
        put(&mut other, &b).get("ok").and_then(Json::as_bool) == Some(true)
    });
    assert!(stored, "an idle session's staged bytes were never freed");
    let waited = started.elapsed();
    assert!(
        waited + std::time::Duration::from_millis(50) >= STAGED_IDLE_LIMIT,
        "released after {waited:?}, before the idle limit"
    );
    let _ = stalled.send_line(&render_request(&Request::Stats));
    assert!(
        !matches!(stalled.read_line(), Ok(Some(_))),
        "the idle session was not closed"
    );

    // `idle` staged nothing and was silent even longer: it still answers.
    assert_eq!(stat(&mut idle, "uploaded_files"), 2);
    shutdown(handle);
}

/// At most `max_queued + max_inflight` sessions are live at once: the
/// connection past the cap gets one rejection frame and is closed, and
/// once a session ends a new connection is served.
#[test]
fn connections_past_the_session_cap_are_refused_until_a_session_ends() {
    let handle = start(ServeOptions {
        scheduler: SchedulerConfig {
            max_queued: 1,
            max_inflight: 1,
            queue_timeout_us: None,
        },
        ..ServeOptions::default()
    });
    let mut first = Connection::connect(&handle.addr).expect("connect");
    let mut second = Connection::connect(&handle.addr).expect("connect");
    assert_eq!(stat(&mut first, "sessions"), 2);
    assert_eq!(stat(&mut second, "sessions"), 2);

    let mut third = Connection::connect(&handle.addr).expect("connect");
    let line = third.read_line().expect("read").expect("a refusal frame");
    let refusal = Json::parse(&line).expect("json refusal");
    assert_eq!(
        refusal.get("ok").and_then(Json::as_bool),
        Some(false),
        "{line}"
    );
    let reason = refusal.get("rejected").and_then(Json::as_str).unwrap_or("");
    assert!(reason.contains("at most 2 connections"), "{line}");
    assert!(
        !matches!(third.read_line(), Ok(Some(_))),
        "the refused connection was not closed"
    );

    // The session thread notices the close on its own schedule, so poll.
    drop(second);
    let freed = (0..500).any(|_| {
        if stat(&mut first, "sessions") == 1 {
            return true;
        }
        thread::sleep(std::time::Duration::from_millis(10));
        false
    });
    assert!(freed, "a closed session never freed its slot");
    let mut fourth = Connection::connect(&handle.addr).expect("connect");
    assert_eq!(stat(&mut fourth, "sessions"), 2);
    // Stop over a live session: a new connection might find no free slot
    // until the daemon notices these close.
    let _ = fourth.request(&Request::Shutdown {
        drain: false,
        deadline_ms: None,
    });
    handle.join();
}
