//! The serve wire protocol: schema-versioned JSON lines.
//!
//! Every frame is one line of JSON (no embedded newlines — the in-repo
//! writer escapes them). Requests carry `kind` and `v` so a daemon can
//! reject frames from the wrong tool or a future protocol revision with a
//! clean error instead of a parse failure deep in a handler:
//!
//! ```text
//! {"kind":"wasabi-serve","v":1,"op":"submit","name":"cli","priority":5,
//!  "files":[["app.jav","<source>"]]}
//! ```
//!
//! Responses are objects with `"ok":true` plus op-specific fields, or
//! `"ok":false` with either `"error"` (the request failed) or
//! `"rejected"` (admission control refused it — the job never existed).
//! Campaign reports travel as a single JSON string field; the writer's
//! exact escape round-trip keeps them byte-identical to batch output.

use wasabi_util::Json;

/// Protocol discriminator: frames from other tools are rejected early.
pub const PROTOCOL_KIND: &str = "wasabi-serve";
/// Current protocol revision.
pub const PROTOCOL_VERSION: u64 = 1;
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
        /// Scheduling priority, 0 (highest) ..= 9; default 5.
        priority: u8,
        /// `(relative path, contents)` pairs.
        files: Vec<(String, String)>,
        /// Campaign worker count override.
        jobs: Option<usize>,
        /// Run the campaign as a crash-tolerant multi-process sharded
        /// campaign with this many child processes (None = in-process).
        shards: Option<usize>,
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
    /// Daemon counters: scheduler admissions, cache hits, and friends.
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

/// Parses one request line. Errors are protocol-level (shown to the
/// client verbatim); they never carry partial state.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Json::parse(line).map_err(|e| format!("malformed frame: {e}"))?;
    match value.get("kind").and_then(Json::as_str) {
        Some(PROTOCOL_KIND) => {}
        Some(other) => return Err(format!("unknown protocol kind {other:?}")),
        None => return Err("missing protocol field \"kind\"".to_string()),
    }
    match value.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(format!(
                "unsupported protocol version {other} (daemon speaks {PROTOCOL_VERSION})"
            ))
        }
        None => return Err("missing protocol field \"v\"".to_string()),
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing field \"op\"")?;
    match op {
        "submit" => {
            let name = str_field(&value, "name")?;
            let priority = match value.get("priority") {
                None => crate::scheduler::DEFAULT_PRIORITY,
                Some(p) => {
                    let p = p.as_u64().ok_or("non-integer field \"priority\"")?;
                    u8::try_from(p.min(u64::from(crate::scheduler::MAX_PRIORITY)))
                        .expect("clamped to u8 range")
                }
            };
            let files_value = value
                .get("files")
                .and_then(Json::as_arr)
                .ok_or("missing or non-array field \"files\"")?;
            if files_value.is_empty() {
                return Err("submit needs at least one file".to_string());
            }
            let mut files = Vec::with_capacity(files_value.len());
            for entry in files_value {
                let pair = entry.as_arr().ok_or("each file must be [path, contents]")?;
                let (Some(path), Some(contents)) = (
                    pair.first().and_then(Json::as_str),
                    pair.get(1).and_then(Json::as_str),
                ) else {
                    return Err("each file must be [path, contents]".to_string());
                };
                files.push((path.to_string(), contents.to_string()));
            }
            let jobs = match value.get("jobs") {
                None => None,
                Some(j) => Some(
                    j.as_u64()
                        .and_then(|j| usize::try_from(j).ok())
                        .filter(|&j| j >= 1)
                        .ok_or("field \"jobs\" must be a positive integer")?,
                ),
            };
            let shards = match value.get("shards") {
                None => None,
                Some(s) => Some(
                    s.as_u64()
                        .and_then(|s| usize::try_from(s).ok())
                        .filter(|&s| s >= 1)
                        .ok_or("field \"shards\" must be a positive integer")?,
                ),
            };
            Ok(Request::Submit {
                name,
                priority,
                files,
                jobs,
                shards,
            })
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

/// Renders a request as a wire line (without the trailing newline). The
/// `wasabi submit` client and the tests share this with the parser, so
/// both directions stay in sync.
pub fn render_request(request: &Request) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("kind".to_string(), Json::from(PROTOCOL_KIND)),
        ("v".to_string(), Json::from(PROTOCOL_VERSION)),
    ];
    match request {
        Request::Submit {
            name,
            priority,
            files,
            jobs,
            shards,
        } => {
            fields.push(("op".to_string(), Json::from("submit")));
            fields.push(("name".to_string(), Json::from(name.as_str())));
            fields.push(("priority".to_string(), Json::from(u32::from(*priority))));
            fields.push((
                "files".to_string(),
                Json::arr(files.iter().map(|(path, contents)| {
                    Json::arr([Json::from(path.as_str()), Json::from(contents.as_str())])
                })),
            ));
            if let Some(jobs) = jobs {
                fields.push(("jobs".to_string(), Json::from(*jobs)));
            }
            if let Some(shards) = shards {
                fields.push(("shards".to_string(), Json::from(*shards)));
            }
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
            priority: 2,
            files: vec![("a.jav".to_string(), "class A {}\nline \"two\"".to_string())],
            jobs: Some(4),
            shards: Some(3),
        };
        assert_eq!(parse_request(&render_request(&request)), Ok(request));
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
            "1", "\"op\"", "\"submit\"", "\"files\"", "\"priority\"", "\"jobs\"",
            "\"shards\"", "\"id\"", "\"drain\"", "\u{e9}", "\u{1f980}",
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
        let valid = render_request(&Request::Submit {
            name: "cli".to_string(),
            priority: 3,
            files: vec![
                ("a.jav".to_string(), "class A {}\n\"quoted\" \u{e9}".to_string()),
                ("b/b.jav".to_string(), "class B {}".to_string()),
            ],
            jobs: Some(4),
            shards: Some(2),
        });
        assert!(parse_request(&valid).is_ok());
        for depth in [wasabi_util::json::MAX_DEPTH + 1, 20_000] {
            assert!(parse_request(&"[".repeat(depth)).is_err());
        }
        let mut rng = wasabi_util::Rng::new(0x5e4e_0001);
        for _ in 0..256 {
            let _ = parse_request(&gen_garbage(&mut rng, 200));
            let _ = parse_request(&format!("{valid}{}", gen_garbage(&mut rng, 120)));
            let mut flipped = valid.clone().into_bytes();
            let at = rng.below(flipped.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            let _ = parse_request(&String::from_utf8_lossy(&flipped));
        }
        for cut in 0..valid.len() {
            let prefix = String::from_utf8_lossy(&valid.as_bytes()[..cut]);
            assert!(parse_request(&prefix).is_err(), "a cut frame is never a request: {prefix}");
        }
    }

    #[test]
    fn default_priority_applies_when_absent() {
        let line = "{\"kind\":\"wasabi-serve\",\"v\":1,\"op\":\"submit\",\"name\":\"x\",\"files\":[[\"a.jav\",\"c\"]]}";
        match parse_request(line).expect("parses") {
            Request::Submit { priority, .. } => {
                assert_eq!(priority, crate::scheduler::DEFAULT_PRIORITY)
            }
            other => panic!("unexpected request {other:?}"),
        }
    }
}
