//! End-to-end daemon tests over real TCP connections on a loopback
//! port. These cover protocol robustness (malformed frames, oversized
//! payloads, disconnects, double-cancel) and the determinism contract
//! (reports independent of arrival order; cache hits byte-identical to
//! fresh compiles). Scheduling *policy* is tested on `ManualClock` in
//! the scheduler module; nothing here asserts on timing.

use std::sync::mpsc;
use std::thread;
use wasabi_serve::daemon::{spawn, Bind, DaemonHandle, ServeOptions};
use wasabi_serve::protocol::Request;
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
    // count; the bound only stops a daemon that never pushes back.
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
    // error, even if the admitted jobs have already finished.
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
