//! The serve wire protocol: schema-versioned JSON lines.
//!
//! Every frame is one line of JSON (no embedded newlines — the in-repo
//! writer escapes them). Requests carry `kind` and `v` so a daemon can
//! reject frames from the wrong tool or a future protocol revision with a
//! clean error instead of a parse failure deep in a handler. The daemon
//! speaks versions 1 and 2; only the two v2 ops below carry `"v":2`, so a
//! v1 daemon still accepts every other frame a v2 client sends.
//!
//! A v1 `submit` carries every file's contents in one frame, which the
//! frame cap bounds (a paper-scale app does not fit in the default one):
//!
//! ```text
//! {"kind":"wasabi-serve","v":1,"op":"submit","name":"cli",
//!  "files":[["app.jav","<source>"]]}
//! ```
//!
//! Protocol v2 submits by digest. The client first sends an `offer` of
//! `(path, digest)` pairs, each digest the FNV-1a 64 of the file's
//! contents ([`file_digests`]) as 16 hex digits:
//!
//! ```text
//! {"kind":"wasabi-serve","v":2,"op":"offer","name":"cli",
//!  "files":[["app.jav","af63bd4c8601b7df"]]}
//! ```
//!
//! If the daemon holds every file — the whole compiled app in its cache,
//! or each file among this connection's staged uploads — it admits the
//! job and replies as to a `submit`, plus
//! `"uploaded"`: how many staged uploads the job consumed. Otherwise it
//! replies `{"ok":true,"missing":[digest...],"max_frame":N}` and the
//! client uploads just those files in `put` frames of at most `N` bytes
//! each, newline included ([`render_puts`]), then offers again:
//!
//! ```text
//! {"kind":"wasabi-serve","v":2,"op":"put","files":["<source>","<source>"]}
//! ```
//!
//! The daemon hashes every uploaded file itself and stages it for the
//! connection until an offer that names it resolves or the connection
//! closes. All connections together may stage at most the frame cap
//! times the cache capacity in bytes; a `put` past that gets an error.
//! A v1 `submit` is handled as a `put` of all
//! its files plus an `offer`. A client facing a v1 daemon gets
//! `unsupported protocol version 2` for its offer and falls back to one
//! v1 frame.
//!
//! Older clients send an integer `"priority"` with `submit` and `offer`.
//! The parser accepts and ignores it: the daemon's queue is FIFO.
//!
//! Digests are cache keys, not credentials: a 64-bit FNV digest is
//! neither secret nor collision-resistant, so a client that knows a
//! file's path and digest but not its bytes can still obtain the report
//! of an app the daemon holds.
//!
//! Responses are objects with `"ok":true` plus op-specific fields, or
//! `"ok":false` with either `"error"` (the request failed) or
//! `"rejected"` (admission control refused it — the job never existed).
//! Campaign reports travel as a single JSON string field; the writer's
//! exact escape round-trip keeps them byte-identical to batch output.

use crate::scheduler::DEFAULT_PRIORITY;
use wasabi_util::json::write_escaped;
use wasabi_util::rng::{fnv1a64, fnv1a64_each};
use wasabi_util::Json;

/// Protocol discriminator: frames from other tools are rejected early.
pub const PROTOCOL_KIND: &str = "wasabi-serve";
/// Current protocol revision; the daemon also accepts v1 frames.
pub const PROTOCOL_VERSION: u64 = 2;
/// The revision every op but `offer` and `put` is sent as, so daemons
/// that predate v2 accept them.
const V1: u64 = 1;
/// Default cap on one frame's size in bytes. Oversized frames get an
/// error response and the connection is dropped — never buffered.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a campaign job: app sources plus plan options.
    Submit {
        /// Project name (reports depend on it; the CLI uses `"cli"`).
        name: String,
        /// Ignored: the queue is FIFO. A parsed frame carries
        /// [`DEFAULT_PRIORITY`] and a rendered one omits it; the field stays
        /// until the benchmark stops building submissions with it (ROADMAP
        /// item 3).
        priority: u8,
        /// `(relative path, contents)` pairs.
        files: Vec<(String, String)>,
        /// Campaign worker count override.
        jobs: Option<usize>,
        /// Run the campaign as a crash-tolerant multi-process sharded
        /// campaign with this many child processes (None = in-process).
        shards: Option<usize>,
    },
    /// Submit by digest (v2): admitted when the daemon holds every file,
    /// else answered with the digests it lacks.
    Offer {
        /// Project name, as in `Submit`.
        name: String,
        /// `(relative path, digest of the contents)` pairs; see
        /// [`file_digests`].
        files: Vec<(String, u64)>,
        /// Campaign worker count override.
        jobs: Option<usize>,
        /// Sharded campaign child count, as in `Submit`.
        shards: Option<usize>,
    },
    /// Upload file contents for a later offer on this connection (v2).
    Put {
        /// File contents; the daemon computes their digests.
        files: Vec<String>,
    },
    /// Query a job's state (and queue position while queued).
    Status {
        /// Job id from the submit response.
        id: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id.
        id: u64,
    },
    /// Stream span/progress events for a job until it finishes.
    Subscribe {
        /// Job id.
        id: u64,
    },
    /// Block until a job reaches a terminal state; reply with its result.
    Wait {
        /// Job id.
        id: u64,
    },
    /// Daemon counters: scheduler admissions, cache hits, uploads.
    Stats,
    /// Stop the daemon after replying. With `drain`, new submissions are
    /// refused (`"rejected":"draining"` — retryable) while admitted jobs
    /// finish, up to `deadline_ms`; without it, the stop is immediate.
    Shutdown {
        /// Refuse new work, finish what was admitted, then exit.
        drain: bool,
        /// Drain deadline in milliseconds (None = no deadline).
        deadline_ms: Option<u64>,
    },
}

/// Each file's digest on the wire: FNV-1a 64 of its contents, hashed
/// several files at a time.
pub fn file_digests<'a>(contents: impl IntoIterator<Item = &'a str>) -> Vec<u64> {
    let bytes: Vec<&[u8]> = contents.into_iter().map(str::as_bytes).collect();
    fnv1a64_each(&bytes)
}

/// The compiled-app cache key: FNV-1a 64 over the project name and each
/// file's path and digest. Paths count for the reason they count in
/// `wasabi_core::source_digest`: the simulated LLM draws on them.
pub fn app_key(name: &str, files: &[(String, u64)]) -> u64 {
    let mut bytes = Vec::with_capacity(name.len() + 1 + files.len() * 48);
    bytes.extend_from_slice(name.as_bytes());
    bytes.push(0);
    for (path, digest) in files {
        bytes.extend_from_slice(path.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&digest.to_le_bytes());
    }
    fnv1a64([bytes.as_slice()])
}

/// A digest as it travels: 16 lower-case hex digits.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Reads a digest written by [`digest_hex`] (either case).
pub fn parse_digest(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

fn str_field(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn u64_field(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn count_field(value: &Json, key: &str) -> Result<Option<usize>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n >= 1)
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a positive integer")),
    }
}

/// Moves the non-empty `"files"` array out of the frame, so that file
/// contents are not copied again.
fn take_files(value: &mut Json, op: &str) -> Result<Vec<Json>, String> {
    let field = match value {
        Json::Obj(fields) => fields.iter_mut().find(|(key, _)| key == "files"),
        _ => None,
    };
    match field.map(|(_, files)| std::mem::replace(files, Json::Null)) {
        Some(Json::Arr(files)) if files.is_empty() => Err(format!("{op} needs at least one file")),
        Some(Json::Arr(files)) => Ok(files),
        _ => Err("missing or non-array field \"files\"".to_string()),
    }
}

/// Reads a `[path, text]` pair, moving both strings out.
fn string_pair(entry: Json) -> Option<(String, String)> {
    let Json::Arr(pair) = entry else { return None };
    let mut pair = pair.into_iter();
    match (pair.next(), pair.next()) {
        (Some(Json::Str(path)), Some(Json::Str(text))) => Some((path, text)),
        _ => None,
    }
}

/// Parses one request line. Errors are protocol-level (shown to the
/// client verbatim); they never carry partial state.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut value = Json::parse(line).map_err(|e| format!("malformed frame: {e}"))?;
    match value.get("kind").and_then(Json::as_str) {
        Some(PROTOCOL_KIND) => {}
        Some(other) => return Err(format!("unknown protocol kind {other:?}")),
        None => return Err("missing protocol field \"kind\"".to_string()),
    }
    match value.get("v").and_then(Json::as_u64) {
        Some(V1..=PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(format!(
                "unsupported protocol version {other} (daemon speaks versions {V1} to {PROTOCOL_VERSION})"
            ))
        }
        None => return Err("missing protocol field \"v\"".to_string()),
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing field \"op\"")?
        .to_string();
    match op.as_str() {
        "submit" => {
            let name = str_field(&value, "name")?;
            let files = take_files(&mut value, "submit")?
                .into_iter()
                .map(|entry| string_pair(entry).ok_or("each file must be [path, contents]"))
                .collect::<Result<_, _>>()?;
            Ok(Request::Submit {
                name,
                priority: DEFAULT_PRIORITY,
                files,
                jobs: count_field(&value, "jobs")?,
                shards: count_field(&value, "shards")?,
            })
        }
        "offer" => {
            let name = str_field(&value, "name")?;
            let files = take_files(&mut value, "offer")?
                .into_iter()
                .map(|entry| {
                    string_pair(entry)
                        .and_then(|(path, digest)| Some((path, parse_digest(&digest)?)))
                        .ok_or("each offered file must be [path, 16 hex digit digest]")
                })
                .collect::<Result<_, _>>()?;
            Ok(Request::Offer {
                name,
                files,
                jobs: count_field(&value, "jobs")?,
                shards: count_field(&value, "shards")?,
            })
        }
        "put" => {
            let files = take_files(&mut value, "put")?
                .into_iter()
                .map(|entry| match entry {
                    Json::Str(contents) => Ok(contents),
                    _ => Err("each uploaded file must be a string"),
                })
                .collect::<Result<_, _>>()?;
            Ok(Request::Put { files })
        }
        "status" => Ok(Request::Status {
            id: u64_field(&value, "id")?,
        }),
        "cancel" => Ok(Request::Cancel {
            id: u64_field(&value, "id")?,
        }),
        "subscribe" => Ok(Request::Subscribe {
            id: u64_field(&value, "id")?,
        }),
        "wait" => Ok(Request::Wait {
            id: u64_field(&value, "id")?,
        }),
        "stats" => Ok(Request::Stats),
        // Old clients send a bare shutdown op: absent fields mean an
        // immediate stop, exactly the v1 behavior.
        "shutdown" => Ok(Request::Shutdown {
            drain: value.get("drain").and_then(Json::as_bool).unwrap_or(false),
            deadline_ms: value.get("deadline_ms").and_then(Json::as_u64),
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Everything of a `put` frame before its first file.
const PUT_HEAD: &str = "{\"kind\":\"wasabi-serve\",\"v\":2,\"op\":\"put\",\"files\":[";
/// Everything of a `put` frame after its last file.
const PUT_TAIL: &str = "]}";

/// Renders `put` frames carrying `contents` in order, as many files to a
/// frame as fit in `max_frame` bytes with the newline. Fails with the
/// index of the first file that does not fit in a frame alone.
pub fn render_puts(contents: &[&str], max_frame: usize) -> Result<Vec<String>, usize> {
    let fits = |frame: &String| frame.len() + PUT_TAIL.len() < max_frame;
    let mut frames = Vec::new();
    let mut frame = String::from(PUT_HEAD);
    for (at, text) in contents.iter().enumerate() {
        let mark = frame.len();
        if mark > PUT_HEAD.len() {
            frame.push(',');
        }
        write_escaped(&mut frame, text);
        if fits(&frame) {
            continue;
        }
        if mark > PUT_HEAD.len() {
            // Close the frame before this file and start the next with it.
            frame.truncate(mark);
            frame.push_str(PUT_TAIL);
            frames.push(std::mem::replace(&mut frame, String::from(PUT_HEAD)));
            write_escaped(&mut frame, text);
        }
        if !fits(&frame) {
            return Err(at);
        }
    }
    if frame.len() > PUT_HEAD.len() || frames.is_empty() {
        frame.push_str(PUT_TAIL);
        frames.push(frame);
    }
    Ok(frames)
}

/// Renders a request as a wire line (without the trailing newline). The
/// `wasabi submit` client and the tests share this with the parser, so
/// both directions stay in sync. `Submit` renders as the v1 frame.
pub fn render_request(request: &Request) -> String {
    let version = match request {
        Request::Offer { .. } | Request::Put { .. } => PROTOCOL_VERSION,
        _ => V1,
    };
    let mut fields: Vec<(String, Json)> = vec![
        ("kind".to_string(), Json::from(PROTOCOL_KIND)),
        ("v".to_string(), Json::from(version)),
    ];
    let mut job = |op: &str, name: &str, files: Json, jobs, shards| {
        fields.push(("op".to_string(), Json::from(op)));
        fields.push(("name".to_string(), Json::from(name)));
        fields.push(("files".to_string(), files));
        for (key, count) in [("jobs", jobs), ("shards", shards)] {
            if let Some(count) = count {
                fields.push((key.to_string(), Json::from(count)));
            }
        }
    };
    match request {
        Request::Submit {
            name,
            files,
            jobs,
            shards,
            ..
        } => job(
            "submit",
            name,
            Json::arr(files.iter().map(|(path, contents)| {
                Json::arr([Json::from(path.as_str()), Json::from(contents.as_str())])
            })),
            *jobs,
            *shards,
        ),
        Request::Offer {
            name,
            files,
            jobs,
            shards,
        } => job(
            "offer",
            name,
            Json::arr(files.iter().map(|(path, digest)| {
                Json::arr([Json::from(path.as_str()), Json::from(digest_hex(*digest))])
            })),
            *jobs,
            *shards,
        ),
        Request::Put { files } => {
            let contents: Vec<&str> = files.iter().map(String::as_str).collect();
            return render_puts(&contents, usize::MAX)
                .expect("every frame fits an unbounded cap")
                .remove(0);
        }
        Request::Status { id } => {
            fields.push(("op".to_string(), Json::from("status")));
            fields.push(("id".to_string(), Json::from(*id as i64)));
        }
        Request::Cancel { id } => {
            fields.push(("op".to_string(), Json::from("cancel")));
            fields.push(("id".to_string(), Json::from(*id as i64)));
        }
        Request::Subscribe { id } => {
            fields.push(("op".to_string(), Json::from("subscribe")));
            fields.push(("id".to_string(), Json::from(*id as i64)));
        }
        Request::Wait { id } => {
            fields.push(("op".to_string(), Json::from("wait")));
            fields.push(("id".to_string(), Json::from(*id as i64)));
        }
        Request::Stats => fields.push(("op".to_string(), Json::from("stats"))),
        Request::Shutdown { drain, deadline_ms } => {
            fields.push(("op".to_string(), Json::from("shutdown")));
            if *drain {
                fields.push(("drain".to_string(), Json::from(true)));
            }
            if let Some(ms) = deadline_ms {
                fields.push(("deadline_ms".to_string(), Json::from(*ms)));
            }
        }
    }
    Json::obj(fields).to_string()
}

/// An `"ok":true` response with extra fields, as one wire line.
pub fn ok_response(fields: impl IntoIterator<Item = (&'static str, Json)>) -> String {
    let mut all: Vec<(&'static str, Json)> = vec![("ok", Json::from(true))];
    all.extend(fields);
    Json::obj(all).to_string()
}

/// An `"ok":false` error response (the request failed).
pub fn error_response(message: &str) -> String {
    Json::obj([("ok", Json::from(false)), ("error", Json::from(message))]).to_string()
}

/// An `"ok":false` admission-control rejection (backpressure: the job was
/// never created).
pub fn rejected_response(reason: &str) -> String {
    Json::obj([("ok", Json::from(false)), ("rejected", Json::from(reason))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_render_and_parse() {
        let request = Request::Submit {
            name: "cli".to_string(),
            priority: DEFAULT_PRIORITY,
            files: vec![("a.jav".to_string(), "class A {}\nline \"two\"".to_string())],
            jobs: Some(4),
            shards: Some(3),
        };
        assert_eq!(parse_request(&render_request(&request)), Ok(request));
    }

    #[test]
    fn offer_and_put_round_trip_as_v2_frames() {
        let offer = Request::Offer {
            name: "cli".to_string(),
            files: vec![
                ("a.jav".to_string(), u64::MAX),
                ("b/b.jav".to_string(), 0x0123),
            ],
            jobs: None,
            shards: Some(2),
        };
        let put = Request::Put {
            files: vec!["class A {}\n\"\u{e9}\"".to_string(), String::new()],
        };
        for request in [offer, put] {
            let line = render_request(&request);
            assert!(
                line.starts_with("{\"kind\":\"wasabi-serve\",\"v\":2,"),
                "{line}"
            );
            assert_eq!(parse_request(&line), Ok(request));
        }
        assert!(
            render_request(&Request::Stats).contains("\"v\":1"),
            "old ops stay v1"
        );
    }

    #[test]
    fn digests_travel_as_sixteen_hex_digits() {
        for digest in [0, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_digest(&digest_hex(digest)), Some(digest));
        }
        for bad in [
            "",
            "123",
            "+123456789abcdef",
            "0123456789abcdefa",
            "0123456789abcdeg",
        ] {
            assert_eq!(parse_digest(bad), None, "{bad:?}");
        }
        let line = "{\"kind\":\"wasabi-serve\",\"v\":2,\"op\":\"offer\",\"name\":\"x\",\"files\":[[\"a.jav\",\"12\"]]}";
        assert!(parse_request(line).unwrap_err().contains("16 hex digit"));
    }

    #[test]
    fn app_key_depends_on_name_paths_and_digests() {
        let files = vec![("a.jav".to_string(), 1), ("b.jav".to_string(), 2)];
        let base = app_key("cli", &files);
        assert_ne!(base, app_key("other", &files));
        assert_ne!(base, app_key("cli", &[files[1].clone(), files[0].clone()]));
        assert_ne!(
            base,
            app_key("cli", &[files[0].clone(), ("b.jav".to_string(), 3)])
        );
        assert_ne!(
            base,
            app_key("cli", &[files[0].clone(), ("c.jav".to_string(), 2)])
        );
    }

    /// Puts pack greedily, every frame fits the cap with its newline, the
    /// files come back in order, and a file too big for any frame fails.
    #[test]
    fn puts_pack_files_in_order_under_the_frame_cap() {
        let texts: Vec<String> = (0..40)
            .map(|i| format!("class C{i} {{ \"{}\" }}\n", "x".repeat(i * 4)))
            .collect();
        let contents: Vec<&str> = texts.iter().map(String::as_str).collect();
        let escaped_len = |text: &str| Json::from(text).to_string().len();
        let one = render_puts(&contents, usize::MAX).unwrap();
        assert_eq!(one.len(), 1);
        for cap in [one[0].len() + 1, 600, 300] {
            let frames = render_puts(&contents, cap).unwrap();
            let mut unpacked: Vec<String> = Vec::new();
            for frame in &frames {
                assert!(frame.len() < cap, "a {}-byte frame, cap {cap}", frame.len());
                let Ok(Request::Put { files }) = parse_request(frame) else {
                    panic!("not a put frame: {frame}");
                };
                unpacked.extend(files);
                if let Some(next) = texts.get(unpacked.len()) {
                    assert!(
                        frame.len() + 1 + escaped_len(next) >= cap,
                        "frames are packed greedily"
                    );
                }
            }
            assert_eq!(unpacked, texts, "cap {cap}");
        }
        let alone = |text: &str| PUT_HEAD.len() + escaped_len(text) + PUT_TAIL.len() + 1;
        let first_too_big = texts.iter().position(|text| alone(text) > 150);
        assert!(first_too_big > Some(0));
        assert_eq!(render_puts(&contents, 150).err(), first_too_big);
    }

    #[test]
    fn control_ops_round_trip() {
        for request in [
            Request::Status { id: 7 },
            Request::Cancel { id: 7 },
            Request::Subscribe { id: 7 },
            Request::Wait { id: 7 },
            Request::Stats,
            Request::Shutdown {
                drain: false,
                deadline_ms: None,
            },
            Request::Shutdown {
                drain: true,
                deadline_ms: Some(1500),
            },
        ] {
            assert_eq!(parse_request(&render_request(&request)), Ok(request));
        }
    }

    #[test]
    fn bare_shutdown_frames_from_old_clients_stop_immediately() {
        let line = "{\"kind\":\"wasabi-serve\",\"v\":1,\"op\":\"shutdown\"}";
        assert_eq!(
            parse_request(line),
            Ok(Request::Shutdown {
                drain: false,
                deadline_ms: None,
            })
        );
    }

    #[test]
    fn malformed_and_foreign_frames_are_rejected_with_reasons() {
        assert!(parse_request("{not json").unwrap_err().contains("malformed"));
        assert!(parse_request("{\"op\":\"stats\"}")
            .unwrap_err()
            .contains("\"kind\""));
        let foreign = "{\"kind\":\"other-tool\",\"v\":1,\"op\":\"stats\"}";
        assert!(parse_request(foreign).unwrap_err().contains("other-tool"));
        let future = format!("{{\"kind\":\"wasabi-serve\",\"v\":{},\"op\":\"stats\"}}", 99);
        assert!(parse_request(&future).unwrap_err().contains("version 99"));
        let no_files = "{\"kind\":\"wasabi-serve\",\"v\":1,\"op\":\"submit\",\"name\":\"x\",\"files\":[]}";
        assert!(parse_request(no_files).unwrap_err().contains("one file"));
    }

    /// Garbage from JSON punctuation, protocol keys and values, numbers
    /// beyond the integer range, multi-byte text, and deep nesting.
    fn gen_garbage(rng: &mut wasabi_util::Rng, max_len: usize) -> String {
        #[rustfmt::skip]
        const POOL: &[&str] = &[
            "{", "}", "[", "]", ":", ",", "\"", "\\", " ", "0", "7", "-", ".", "e",
            "18446744073709551616", "true", "null", "\"kind\"", "\"wasabi-serve\"", "\"v\"",
            "1", "2", "\"op\"", "\"submit\"", "\"offer\"", "\"put\"", "\"files\"",
            "\"priority\"", "\"jobs\"", "\"shards\"", "\"id\"", "\"drain\"",
            "\"0123456789abcdef\"", "\u{e9}", "\u{1f980}",
        ];
        // A deep run leads, so the parser descends into it before any error.
        let mut text = String::new();
        if rng.chance(0.1) {
            let depth = 1 + rng.below(20_000) as usize;
            text.push_str(&rng.pick(&["[", "{\"files\":"]).repeat(depth));
        }
        let len = rng.below(max_len as u64 + 1) as usize;
        text.extend((0..len).map(|_| *rng.pick(POOL)));
        text
    }

    /// `parse_request` answers every frame with `Ok` or `Err`: garbage,
    /// deep nesting, every prefix of a valid submit frame, and bit flips
    /// of one. A panic here would kill the daemon session thread; a
    /// stack overflow would kill the daemon.
    #[test]
    fn parse_request_is_total_on_garbage_truncation_and_bit_flips() {
        let contents = ["class A {}\n\"quoted\" \u{e9}", "class B {}"];
        let valid_frames = [
            render_request(&Request::Submit {
                name: "cli".to_string(),
                priority: DEFAULT_PRIORITY,
                files: vec![
                    ("a.jav".to_string(), contents[0].to_string()),
                    ("b/b.jav".to_string(), contents[1].to_string()),
                ],
                jobs: Some(4),
                shards: Some(2),
            }),
            render_request(&Request::Offer {
                name: "cli".to_string(),
                files: ["a.jav", "b/b.jav"]
                    .iter()
                    .map(|path| path.to_string())
                    .zip(file_digests(contents))
                    .collect(),
                jobs: Some(4),
                shards: Some(2),
            }),
            render_request(&Request::Put {
                files: contents.iter().map(|c| c.to_string()).collect(),
            }),
        ];
        for depth in [wasabi_util::json::MAX_DEPTH + 1, 20_000] {
            assert!(parse_request(&"[".repeat(depth)).is_err());
        }
        let mut rng = wasabi_util::Rng::new(0x5e4e_0001);
        for _ in 0..256 {
            let _ = parse_request(&gen_garbage(&mut rng, 200));
        }
        for valid in &valid_frames {
            assert!(parse_request(valid).is_ok());
            for _ in 0..256 {
                let _ = parse_request(&format!("{valid}{}", gen_garbage(&mut rng, 120)));
                let mut flipped = valid.clone().into_bytes();
                let at = rng.below(flipped.len() as u64) as usize;
                flipped[at] ^= 1 << rng.below(8);
                let _ = parse_request(&String::from_utf8_lossy(&flipped));
            }
            for cut in 0..valid.len() {
                let prefix = String::from_utf8_lossy(&valid.as_bytes()[..cut]);
                assert!(
                    parse_request(&prefix).is_err(),
                    "a cut frame is never a request: {prefix}"
                );
            }
        }
    }

    /// Old clients' `priority` field parses to the same request as a frame
    /// without it, whatever its value.
    #[test]
    fn priority_from_old_clients_is_accepted_and_ignored() {
        let frame = |op: &str, v: u64, file: &str, priority: &str| {
            format!(
                "{{\"kind\":\"wasabi-serve\",\"v\":{v},\"op\":\"{op}\",\"name\":\"x\",{priority}\"files\":[[\"a.jav\",\"{file}\"]]}}"
            )
        };
        for (op, v, file) in [("submit", 1, "c"), ("offer", 2, "0123456789abcdef")] {
            let plain = parse_request(&frame(op, v, file, "")).expect("parses");
            assert!(!render_request(&plain).contains("priority"));
            for priority in ["0", "5", "9", "200"] {
                let old = frame(op, v, file, &format!("\"priority\":{priority},"));
                assert_eq!(parse_request(&old), Ok(plain.clone()), "{old}");
            }
        }
    }
}
