#![forbid(unsafe_code)]
//! Campaign-as-a-service: the `wasabi serve` daemon.
//!
//! The batch CLI recompiles an app for every invocation; the daemon
//! keeps a process warm, caches compiled [`wasabi_core::AppJob`]s by
//! source digest, and schedules submitted campaigns across a bounded
//! runner pool with per-client priorities and explicit backpressure.
//! Clients speak a schema-versioned JSON-lines protocol over TCP or a
//! unix socket: submit sources, poll status, cancel, wait for the
//! report, or subscribe to a live span/progress event stream.
//!
//! Layering:
//! - [`wheel`]: a slotted timer wheel driven by an external clock — the
//!   deadline primitive, deterministic under `ManualClock`;
//! - [`scheduler`]: the pure admission/priority/timeout state machine;
//! - [`cache`]: the compiled-app LRU;
//! - [`protocol`]: wire frames (requests, responses, events);
//! - [`daemon`]: threads and sockets around all of the above;
//! - [`client`]: the blocking client the CLI and tests use;
//! - [`retry`]: the client-side bounded/jittered submit retry loop.
//!
//! The determinism contract carries over from the engine: a submitted
//! job's report is byte-identical to `wasabi test --json` on the same
//! sources, whether it was compiled fresh or served from the cache.

pub mod cache;
pub mod client;
pub mod daemon;
pub mod protocol;
pub mod retry;
pub mod scheduler;
pub mod wheel;

pub use cache::IndexCache;
pub use client::Connection;
pub use daemon::{spawn, Bind, DaemonHandle, ServeOptions};
pub use protocol::{parse_request, render_request, Request, PROTOCOL_KIND, PROTOCOL_VERSION};
pub use retry::{retry_submit, Attempt};
pub use scheduler::{Admission, CancelOutcome, JobState, Scheduler, SchedulerConfig};
pub use wheel::TimerWheel;
