//! The durable campaign journal: checkpoint/resume for long campaigns.
//!
//! A journal is an append-only text file with one JSON document per line:
//!
//! ```text
//! {"kind":"wasabi-journal","schema_version":2}      <- header, always first
//! {"key":{...},"outcome":{...},...}                 <- one line per record
//! {"epoch":1,"completed":32}                        <- fsync'd marker
//! ...
//! ```
//!
//! The writer appends a record line for every finished run and an epoch
//! marker (followed by `fsync`) every 32 records (`EPOCH_EVERY`), so at
//! most one epoch of work can be lost to an OS crash and at most one
//! *line* to a process kill mid-write. The reader ([`load`]) accepts a journal
//! whose final line is half-written — it drops exactly that line — but
//! rejects corruption anywhere earlier, because silent gaps would violate
//! the engine's every-key-exactly-once guarantee.
//!
//! Record serialization is lossless: a [`RunRecord`] parsed back from its
//! journal line is field-for-field identical to the original, which is
//! what makes a resumed campaign's final report byte-identical to an
//! uninterrupted one (see `tests/determinism.rs`). Keys are written in a
//! fixed order so journal bytes are stable across runs too.
//!
//! Two fields of a record line are derived, not stored: `"attempts"` is
//! always 1 (the engine runs each run once) and `"quarantined"` is whether
//! the run crashed. The reader checks their shape and discards their
//! values, so a journal whose lines carry other values still resumes. It
//! refuses the outcome kinds `timed_out` and `wall_clock_exceeded`, which
//! only a per-run wall-clock budget could produce.

use crate::campaign::{RunOutcome, RunRecord};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use wasabi_analysis::loops::{Mechanism, RetryLocation};
use wasabi_lang::ast::{CallId, LoopId};
use wasabi_lang::project::{CallSite, FileId, MethodId};
use wasabi_oracles::judge::{BugKind, OracleReport};
use wasabi_planner::plan::RunKey;
use wasabi_util::Json;
use wasabi_vm::trace::{ExcSummary, TestOutcome};

/// Journal (and JSON-summary) schema version. Version 1 is the implicit,
/// unversioned PR-1 summary format; version 2 added `schema_version`,
/// crash/retry/quarantine accounting, and the journal itself.
pub const SCHEMA_VERSION: i64 = 2;

/// Records per epoch: each epoch appends a marker line and fsyncs.
const EPOCH_EVERY: usize = 32;

/// An open journal being appended to by a running campaign.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Records appended by this process (not counting recovered lines).
    appended: usize,
    /// Records since the last epoch marker.
    since_epoch: usize,
    /// Epoch markers written.
    epochs: usize,
    /// Set after the first I/O error: the journal stops writing (the
    /// campaign itself must not die to a full disk) and reports once.
    disabled: bool,
}

impl Journal {
    /// Opens `path` for appending, creating it (with a header line) if
    /// absent. An existing file is first *repaired*: the torn tail that
    /// [`load`] drops (a half-written final line, or a torn line followed
    /// only by epoch markers) is cut, so a killed process never corrupts
    /// the next session's appends. A file that [`load`] refuses, for a bad
    /// header or a corrupt line with data after it, is refused with the
    /// same `corrupt line N` error and left as it is. An empty file, or
    /// one whose only line is a torn header, is recreated fresh.
    pub fn open(path: &Path) -> Result<Journal, String> {
        let valid_len = kept_len(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(|err| format!("open {}: {err}", path.display()))?;
        file.set_len(valid_len)
            .map_err(|err| format!("truncate {}: {err}", path.display()))?;
        file.seek(SeekFrom::End(0))
            .map_err(|err| format!("seek {}: {err}", path.display()))?;
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            appended: 0,
            since_epoch: 0,
            epochs: 0,
            disabled: false,
        };
        if valid_len == 0 {
            let header = Json::obj([
                ("kind", Json::from("wasabi-journal")),
                ("schema_version", Json::from(SCHEMA_VERSION)),
            ]);
            journal.write_line(&header);
        }
        Ok(journal)
    }

    /// Appends one record; every `EPOCH_EVERY`-th append also writes an
    /// epoch marker and fsyncs.
    pub fn append(&mut self, record: &RunRecord) {
        self.write_line(&record_to_json(record));
        self.appended += 1;
        self.since_epoch += 1;
        if self.since_epoch >= EPOCH_EVERY {
            self.checkpoint();
        }
    }

    /// Writes a final epoch marker and fsyncs, unless the last append
    /// already closed an epoch.
    pub fn finish(&mut self) {
        if self.since_epoch > 0 {
            self.checkpoint();
        }
    }

    fn checkpoint(&mut self) {
        self.epochs += 1;
        self.since_epoch = 0;
        let marker = Json::obj([
            ("epoch", Json::from(self.epochs)),
            ("completed", Json::from(self.appended)),
        ]);
        self.write_line(&marker);
        if !self.disabled {
            if let Err(err) = self.file.sync_data() {
                self.report_io_error(&err);
            }
        }
    }

    /// Records appended by this process so far (not counting recovered
    /// lines). Drives the `chaos_exit_after` crash point.
    pub fn appended(&self) -> usize {
        self.appended
    }

    fn write_line(&mut self, value: &Json) {
        if self.disabled {
            return;
        }
        let mut line = value.to_string();
        line.push('\n');
        if let Err(err) = self.file.write_all(line.as_bytes()) {
            self.report_io_error(&err);
        }
    }

    /// Degrade, don't die: a full disk must cost the checkpoint, not the
    /// campaign.
    fn report_io_error(&mut self, err: &std::io::Error) {
        self.disabled = true;
        eprintln!(
            "[engine] journal {} failed ({err}); journaling disabled for the rest of the campaign",
            self.path.display()
        );
    }
}

/// What [`load`] recovered from a journal.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// Recovered records, in journal (completion) order. Duplicate keys
    /// are kept; the engine's resume merge takes the first occurrence.
    pub records: Vec<RunRecord>,
    /// A half-written final line was dropped during recovery.
    pub dropped_tail: bool,
}

/// Reads a journal back for `--resume`. Tolerates a torn tail — a
/// half-written line at the end of the file, *or* a half-written record
/// line whose only followers are valid epoch markers (a crash racing the
/// epoch fsync can flush the marker while the record line it counts was
/// still buffered) — but rejects corruption anywhere that would silently
/// drop data, as well as a missing or wrong-schema header.
pub fn load(path: &Path) -> Result<JournalLoad, String> {
    let mut reader = JournalReader::open(path)?;
    let mut result = JournalLoad::default();
    while let Some(record) = reader.next_record()? {
        result.records.push(record);
    }
    result.dropped_tail = reader.dropped_tail;
    Ok(result)
}

/// Reads a journal one line at a time, validating the header and
/// dropping a torn tail: the one reader behind [`load`] and
/// [`Journal::open`]'s repair (`kept_len`).
#[derive(Debug)]
struct JournalReader {
    reader: std::io::BufReader<File>,
    path: PathBuf,
    /// 1-based number of the last line read (for error messages).
    line: usize,
    /// A torn tail was dropped (half-written final line, or a half-written
    /// record line followed only by epoch markers).
    dropped_tail: bool,
    finished: bool,
    /// Bytes consumed so far.
    offset: u64,
    /// Bytes through the last complete line that parsed: what a session
    /// appending to the journal keeps of it.
    kept: u64,
}

impl JournalReader {
    /// Opens `path` and validates its header line.
    fn open(path: &Path) -> Result<JournalReader, String> {
        let file = File::open(path)
            .map_err(|err| format!("read journal {}: {err}", path.display()))?;
        let mut reader = JournalReader {
            reader: std::io::BufReader::new(file),
            path: path.to_path_buf(),
            line: 0,
            dropped_tail: false,
            finished: false,
            offset: 0,
            kept: 0,
        };
        let Some((line, complete)) = reader.read_raw_line()? else {
            return Err(format!("journal {}: empty file", path.display()));
        };
        // The header is never torn-tail material — a journal whose first
        // line is unreadable or wrong-schema is unusable.
        match Json::parse(&line).and_then(|value| classify(&value, 0)) {
            Ok(Line::Header) => {
                reader.keep(complete);
                Ok(reader)
            }
            Ok(_) => Err(format!("journal {}: missing header line", path.display())),
            Err(err) => Err(format!("journal {}: corrupt line 1: {err}", path.display())),
        }
    }

    /// Reads the next non-empty line; returns `(text, had_newline)`, or
    /// `None` at end of file.
    fn read_raw_line(&mut self) -> Result<Option<(String, bool)>, String> {
        use std::io::BufRead;
        loop {
            let mut buf = String::new();
            let n = self
                .reader
                .read_line(&mut buf)
                .map_err(|err| format!("read journal {}: {err}", self.path.display()))?;
            if n == 0 {
                return Ok(None);
            }
            self.line += 1;
            self.offset += n as u64;
            let complete = buf.ends_with('\n');
            let text = buf.trim_end_matches('\n').to_string();
            if text.is_empty() {
                continue;
            }
            return Ok(Some((text, complete)));
        }
    }

    /// Returns the next record, skipping epoch markers. `Ok(None)` means a
    /// clean end of journal (possibly after dropping a torn tail — check
    /// `dropped_tail`).
    fn next_record(&mut self) -> Result<Option<RunRecord>, String> {
        if self.finished {
            return Ok(None);
        }
        loop {
            let Some((text, complete)) = self.read_raw_line()? else {
                self.finished = true;
                return Ok(None);
            };
            let index = self.line - 1;
            match Json::parse(&text).and_then(|value| classify(&value, index)) {
                Ok(Line::Header) => {
                    return Err(format!(
                        "journal {}: duplicate header at line {}",
                        self.path.display(),
                        self.line
                    ))
                }
                Ok(Line::Epoch) => self.keep(complete),
                Ok(Line::Record(record)) => {
                    self.keep(complete);
                    return Ok(Some(*record));
                }
                Err(err) => {
                    // A torn line (no trailing newline, or cut mid-JSON) is
                    // the expected signature of a killed process. Usually it
                    // is the final line, but a kill racing the epoch fsync
                    // can leave a torn record line *followed by* the epoch
                    // marker that was flushed separately — the tail is
                    // droppable as long as nothing after the tear carries
                    // data (valid epoch markers only, the last of which may
                    // itself be torn).
                    let corrupt_line = self.line;
                    if !complete || self.tail_is_only_epoch_markers()? {
                        self.dropped_tail = true;
                        self.finished = true;
                        return Ok(None);
                    }
                    return Err(format!(
                        "journal {}: corrupt line {corrupt_line}: {err}",
                        self.path.display()
                    ));
                }
            }
        }
    }

    /// Counts the line just read into the kept prefix when it is whole.
    fn keep(&mut self, complete: bool) {
        if complete {
            self.kept = self.offset;
        }
    }

    /// After a corrupt (complete) line: is everything that follows a valid
    /// epoch marker, except possibly a torn final line? Consumes the rest
    /// of the file.
    fn tail_is_only_epoch_markers(&mut self) -> Result<bool, String> {
        while let Some((text, complete)) = self.read_raw_line()? {
            let parsed = Json::parse(&text).and_then(|value| classify(&value, self.line - 1));
            match parsed {
                Ok(Line::Epoch) => continue,
                // A torn final line is droppable whatever it was becoming.
                Err(_) if !complete => return Ok(true),
                // A record (or header) after the tear means the corruption
                // sits *between* data lines — dropping it would open a gap.
                _ => return Ok(false),
            }
        }
        Ok(true)
    }
}

enum Line {
    Header,
    Epoch,
    Record(Box<RunRecord>),
}

fn classify(value: &Json, index: usize) -> Result<Line, String> {
    if value.get("kind").and_then(Json::as_str) == Some("wasabi-journal") {
        let version = value.get("schema_version").and_then(Json::as_i64);
        if version != Some(SCHEMA_VERSION) {
            return Err(format!(
                "schema_version {version:?} (this build reads {SCHEMA_VERSION})"
            ));
        }
        return Ok(Line::Header);
    }
    if value.get("epoch").is_some() {
        return Ok(Line::Epoch);
    }
    if value.get("key").is_some() {
        return record_from_json(value).map(|r| Line::Record(Box::new(r)));
    }
    Err(format!("unrecognized journal line {}", index + 1))
}

// ---- RunRecord <-> Json ----------------------------------------------------
//
// Key order is fixed so journal bytes are stable; every field of every
// nested type round-trips exactly (no floats appear anywhere in a record,
// so there are no precision hazards).

// Checked narrowing for parsed ids and counts: a corrupt (or torn-and-
// mended) record with an out-of-range value must fail the parse — and
// therefore trigger torn-tail repair or a corruption error — rather than
// silently wrap into a *valid-looking* small id, which would violate the
// every-key-exactly-once guarantee in the nastiest possible way.

fn u64_field(value: &Json, what: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("{what}: expected unsigned int"))
}

fn u32_field(value: &Json, what: &str) -> Result<u32, String> {
    let n = u64_field(value, what)?;
    u32::try_from(n).map_err(|_| format!("{what}: {n} out of range (max {})", u32::MAX))
}

fn u8_field(value: &Json, what: &str) -> Result<u8, String> {
    let n = u64_field(value, what)?;
    u8::try_from(n).map_err(|_| format!("{what}: {n} out of range (max {})", u8::MAX))
}

fn method_to_json(method: &MethodId) -> Json {
    Json::arr([Json::from(method.class.as_str()), Json::from(method.name.as_str())])
}

fn method_from_json(value: &Json) -> Result<MethodId, String> {
    let parts = value.as_arr().ok_or("method: expected array")?;
    match parts {
        [class, name] => Ok(MethodId::new(
            class.as_str().ok_or("method class: expected string")?,
            name.as_str().ok_or("method name: expected string")?,
        )),
        _ => Err("method: expected [class, name]".to_string()),
    }
}

fn site_to_json(site: &CallSite) -> Json {
    Json::arr([Json::from(site.file.0), Json::from(site.call.0)])
}

fn site_from_json(value: &Json) -> Result<CallSite, String> {
    let parts = value.as_arr().ok_or("site: expected array")?;
    match parts {
        [file, call] => Ok(CallSite {
            file: FileId(u32_field(file, "site file")?),
            call: CallId(u32_field(call, "site call")?),
        }),
        _ => Err("site: expected [file, call]".to_string()),
    }
}

fn key_to_json(key: &RunKey) -> Json {
    Json::obj([
        ("test", method_to_json(&key.test)),
        ("site", site_to_json(&key.site)),
        ("exc", Json::from(key.exception.as_str())),
        ("k", Json::from(key.k)),
    ])
}

fn key_from_json(value: &Json) -> Result<RunKey, String> {
    Ok(RunKey {
        test: method_from_json(value.get("test").ok_or("key: missing test")?)?,
        site: site_from_json(value.get("site").ok_or("key: missing site")?)?,
        exception: value
            .get("exc")
            .and_then(Json::as_str)
            .ok_or("key: missing exc")?
            .to_string(),
        k: u32_field(value.get("k").ok_or("key: missing k")?, "key k")?,
    })
}

fn exc_to_json(exc: &ExcSummary) -> Json {
    Json::obj([
        ("ty", Json::from(exc.ty.as_str())),
        ("message", Json::from(exc.message.as_str())),
        ("chain", Json::arr(exc.chain.iter().map(|c| Json::from(c.as_str())))),
        ("raised_at", Json::arr(exc.raised_at.iter().map(method_to_json))),
        ("injected", Json::from(exc.injected)),
    ])
}

fn string_list(value: Option<&Json>, what: &str) -> Result<Vec<String>, String> {
    value
        .and_then(Json::as_arr)
        .ok_or(format!("{what}: expected array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or(format!("{what}: expected string element"))
        })
        .collect()
}

fn exc_from_json(value: &Json) -> Result<ExcSummary, String> {
    Ok(ExcSummary {
        ty: value
            .get("ty")
            .and_then(Json::as_str)
            .ok_or("exc: missing ty")?
            .to_string(),
        message: value
            .get("message")
            .and_then(Json::as_str)
            .ok_or("exc: missing message")?
            .to_string(),
        chain: string_list(value.get("chain"), "exc chain")?,
        raised_at: value
            .get("raised_at")
            .and_then(Json::as_arr)
            .ok_or("exc: missing raised_at")?
            .iter()
            .map(method_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        injected: value
            .get("injected")
            .and_then(Json::as_bool)
            .ok_or("exc: missing injected")?,
    })
}

fn outcome_to_json(outcome: &RunOutcome) -> Json {
    let kind = |k: &str| ("kind", Json::from(k));
    match outcome {
        RunOutcome::Crashed { message } => {
            Json::obj([kind("crashed"), ("message", Json::from(message.as_str()))])
        }
        RunOutcome::Completed(test) => match test {
            TestOutcome::Passed => Json::obj([kind("passed")]),
            TestOutcome::AssertionFailed { message } => Json::obj([
                kind("assertion_failed"),
                ("message", Json::from(message.as_str())),
            ]),
            TestOutcome::ExceptionEscaped { exc } => {
                Json::obj([kind("exception_escaped"), ("exc", exc_to_json(exc))])
            }
            TestOutcome::Timeout { virtual_ms } => {
                Json::obj([kind("timeout"), ("virtual_ms", Json::from(*virtual_ms))])
            }
            TestOutcome::FuelExhausted => Json::obj([kind("fuel_exhausted")]),
            TestOutcome::VmFault { message } => Json::obj([
                kind("vm_fault"),
                ("message", Json::from(message.as_str())),
            ]),
        },
    }
}

fn outcome_from_json(value: &Json) -> Result<RunOutcome, String> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("outcome: missing kind")?;
    let message = || -> Result<String, String> {
        Ok(value
            .get("message")
            .and_then(Json::as_str)
            .ok_or("outcome: missing message")?
            .to_string())
    };
    Ok(match kind {
        "crashed" => RunOutcome::Crashed { message: message()? },
        "passed" => RunOutcome::Completed(TestOutcome::Passed),
        "assertion_failed" => {
            RunOutcome::Completed(TestOutcome::AssertionFailed { message: message()? })
        }
        "exception_escaped" => RunOutcome::Completed(TestOutcome::ExceptionEscaped {
            exc: exc_from_json(value.get("exc").ok_or("outcome: missing exc")?)?,
        }),
        "timeout" => RunOutcome::Completed(TestOutcome::Timeout {
            virtual_ms: value
                .get("virtual_ms")
                .and_then(Json::as_u64)
                .ok_or("outcome: missing virtual_ms")?,
        }),
        "fuel_exhausted" => RunOutcome::Completed(TestOutcome::FuelExhausted),
        "vm_fault" => RunOutcome::Completed(TestOutcome::VmFault { message: message()? }),
        other => return Err(format!("outcome: unknown kind `{other}`")),
    })
}

fn location_to_json(location: &RetryLocation) -> Json {
    Json::obj([
        ("site", site_to_json(&location.site)),
        ("coordinator", method_to_json(&location.coordinator)),
        ("retried", method_to_json(&location.retried)),
        ("exc", Json::from(location.exception.as_str())),
        (
            "mechanism",
            match location.mechanism {
                Mechanism::Loop(LoopId(id)) => Json::from(i64::from(id)),
                Mechanism::LlmFlagged => Json::from("llm"),
            },
        ),
    ])
}

fn location_from_json(value: &Json) -> Result<RetryLocation, String> {
    let mechanism = match value.get("mechanism") {
        Some(Json::Int(id)) => Mechanism::Loop(LoopId(
            u32::try_from(*id)
                .map_err(|_| format!("location mechanism: loop id {id} out of range"))?,
        )),
        Some(Json::Str(s)) if s == "llm" => Mechanism::LlmFlagged,
        _ => return Err("location: bad mechanism".to_string()),
    };
    Ok(RetryLocation {
        site: site_from_json(value.get("site").ok_or("location: missing site")?)?,
        coordinator: method_from_json(value.get("coordinator").ok_or("location: missing coordinator")?)?,
        retried: method_from_json(value.get("retried").ok_or("location: missing retried")?)?,
        exception: value
            .get("exc")
            .and_then(Json::as_str)
            .ok_or("location: missing exc")?
            .to_string(),
        mechanism,
    })
}

fn bug_kind_to_str(kind: BugKind) -> &'static str {
    match kind {
        BugKind::MissingCap => "missing-cap",
        BugKind::MissingDelay => "missing-delay",
        BugKind::DifferentException => "different-exception",
    }
}

fn bug_kind_from_str(text: &str) -> Result<BugKind, String> {
    Ok(match text {
        "missing-cap" => BugKind::MissingCap,
        "missing-delay" => BugKind::MissingDelay,
        "different-exception" => BugKind::DifferentException,
        other => return Err(format!("unknown bug kind `{other}`")),
    })
}

fn report_to_json(report: &OracleReport) -> Json {
    Json::obj([
        ("kind", Json::from(bug_kind_to_str(report.kind))),
        ("test", method_to_json(&report.test)),
        ("location", location_to_json(&report.location)),
        ("detail", Json::from(report.detail.as_str())),
        ("dedup_key", Json::from(report.dedup_key.as_str())),
        (
            "exc_chain",
            Json::arr(report.exc_chain.iter().map(|c| Json::from(c.as_str()))),
        ),
    ])
}

fn report_from_json(value: &Json) -> Result<OracleReport, String> {
    Ok(OracleReport {
        kind: bug_kind_from_str(
            value
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("report: missing kind")?,
        )?,
        test: method_from_json(value.get("test").ok_or("report: missing test")?)?,
        location: location_from_json(value.get("location").ok_or("report: missing location")?)?,
        detail: value
            .get("detail")
            .and_then(Json::as_str)
            .ok_or("report: missing detail")?
            .to_string(),
        dedup_key: value
            .get("dedup_key")
            .and_then(Json::as_str)
            .ok_or("report: missing dedup_key")?
            .to_string(),
        exc_chain: string_list(value.get("exc_chain"), "report exc_chain")?,
    })
}

/// Serializes one record as a stable-key-order JSON object (one journal
/// line, compact).
pub fn record_to_json(record: &RunRecord) -> Json {
    Json::obj([
        ("key", key_to_json(&record.key)),
        ("outcome", outcome_to_json(&record.outcome)),
        ("reports", Json::arr(record.reports.iter().map(report_to_json))),
        ("rethrow_filtered", Json::from(record.rethrow_filtered)),
        ("not_a_trigger", Json::from(record.not_a_trigger)),
        ("virtual_ms", Json::from(record.virtual_ms)),
        ("steps", Json::from(record.steps)),
        ("injections", Json::from(record.injections)),
        ("attempts", Json::from(1u32)),
        (
            "quarantined",
            Json::from(matches!(record.outcome, RunOutcome::Crashed { .. })),
        ),
    ])
}

/// Parses a record back; exact inverse of [`record_to_json`].
fn record_from_json(value: &Json) -> Result<RunRecord, String> {
    let record = RunRecord {
        key: key_from_json(value.get("key").ok_or("record: missing key")?)?,
        outcome: outcome_from_json(value.get("outcome").ok_or("record: missing outcome")?)?,
        reports: value
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or("record: missing reports")?
            .iter()
            .map(report_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        rethrow_filtered: value
            .get("rethrow_filtered")
            .and_then(Json::as_bool)
            .ok_or("record: missing rethrow_filtered")?,
        not_a_trigger: value
            .get("not_a_trigger")
            .and_then(Json::as_bool)
            .ok_or("record: missing not_a_trigger")?,
        virtual_ms: value
            .get("virtual_ms")
            .and_then(Json::as_u64)
            .ok_or("record: missing virtual_ms")?,
        steps: value
            .get("steps")
            .and_then(Json::as_u64)
            .ok_or("record: missing steps")?,
        injections: u32_field(
            value.get("injections").ok_or("record: missing injections")?,
            "record injections",
        )?,
    };
    // The derived fields: their shape is checked, their values dropped.
    u8_field(
        value.get("attempts").ok_or("record: missing attempts")?,
        "record attempts",
    )?;
    value
        .get("quarantined")
        .and_then(Json::as_bool)
        .ok_or("record: missing quarantined")?;
    Ok(record)
}

/// How many bytes of the journal at `path` [`Journal::open`] keeps: every
/// complete line [`load`] reads, less the torn tail it drops. `Ok(0)` for
/// a missing or empty file, or one whose only line is a torn header (no
/// record was ever written). Fails as [`load`] does.
fn kept_len(path: &Path) -> Result<u64, String> {
    match std::fs::metadata(path) {
        Ok(meta) if meta.len() == 0 => return Ok(0),
        Ok(_) => {}
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(err) => return Err(format!("read {}: {err}", path.display())),
    }
    let mut reader = match JournalReader::open(path) {
        Ok(reader) => reader,
        Err(err) => {
            let text = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            return if text.contains(&b'\n') { Err(err) } else { Ok(0) };
        }
    };
    while reader.next_record()?.is_some() {}
    Ok(reader.kept)
}

/// Reads the journal for `--resume`, reporting recovery as one stderr
/// line. Missing files are an error — resuming from nothing is almost
/// certainly a typo'd path, and silently running the full plan would
/// masquerade as a resume.
pub fn load_for_resume(path: &Path) -> Result<Vec<RunRecord>, String> {
    let loaded = load(path)?;
    if loaded.dropped_tail {
        eprintln!(
            "[engine] journal {}: dropped a half-written final line (process was killed mid-append)",
            path.display()
        );
    }
    eprintln!(
        "[engine] resuming: {} completed run(s) recovered from {}",
        loaded.records.len(),
        path.display()
    );
    Ok(loaded.records)
}

// ---- Dead-letter queue -----------------------------------------------------
//
// Runs that repeatedly crash their shard *process* are bisected out of the
// restart set by the supervisor and quarantined here — a schema-versioned
// JSON-lines file (`dlq.jsonl`) next to the shard journals. A dead-lettered
// run produces no RunRecord; the merged report counts it in `dead_lettered`.

/// Schema version of the dead-letter journal.
pub const DLQ_SCHEMA_VERSION: i64 = 1;

/// One process-level quarantined run: it repeatedly killed the shard child
/// that executed it, and the supervisor bisected it out of the restart set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The poison run.
    pub key: RunKey,
    /// Shard whose child process it kept killing.
    pub shard: usize,
    /// Rendering of the last crashed child exit ("exit code 134",
    /// "signal 9", ...).
    pub exit: String,
    /// Restarts the supervisor had spent on this shard when the run was
    /// isolated.
    pub restarts: u32,
    /// Supervisor decision: "bisected" (isolated as the poison run) or
    /// "restart cap exhausted" (dead-lettered wholesale with its segment).
    pub reason: String,
}

/// Serializes one dead letter (stable key order, one line).
pub fn dead_letter_to_json(letter: &DeadLetter) -> Json {
    Json::obj([
        ("key", key_to_json(&letter.key)),
        ("shard", Json::from(letter.shard as u64)),
        ("exit", Json::from(letter.exit.as_str())),
        ("restarts", Json::from(letter.restarts)),
        ("reason", Json::from(letter.reason.as_str())),
    ])
}

/// Parses a dead letter back; exact inverse of [`dead_letter_to_json`].
pub fn dead_letter_from_json(value: &Json) -> Result<DeadLetter, String> {
    Ok(DeadLetter {
        key: key_from_json(value.get("key").ok_or("dead letter: missing key")?)?,
        shard: u64_field(value.get("shard").ok_or("dead letter: missing shard")?, "dead letter shard")?
            .try_into()
            .map_err(|_| "dead letter shard out of range".to_string())?,
        exit: value
            .get("exit")
            .and_then(Json::as_str)
            .ok_or("dead letter: missing exit")?
            .to_string(),
        restarts: u32_field(
            value.get("restarts").ok_or("dead letter: missing restarts")?,
            "dead letter restarts",
        )?,
        reason: value
            .get("reason")
            .and_then(Json::as_str)
            .ok_or("dead letter: missing reason")?
            .to_string(),
    })
}

fn dlq_header() -> Json {
    Json::obj([
        ("kind", Json::from("wasabi-dlq")),
        ("schema_version", Json::from(DLQ_SCHEMA_VERSION)),
    ])
}

/// Appends dead letters to `path`, creating the file (with its header) on
/// first use, and fsyncs — a quarantine decision must survive a subsequent
/// supervisor crash. Appending nothing is a no-op (no empty file appears).
/// An existing file is first cut to what [`load_dead_letters`] reads of
/// it, as [`Journal::open`] cuts a journal: a torn final line goes, and an
/// empty file or a lone torn header gets a fresh header. A file that
/// [`load_dead_letters`] refuses is refused with its error and left as it
/// is.
pub fn append_dead_letters(path: &Path, letters: &[DeadLetter]) -> Result<(), String> {
    if letters.is_empty() {
        return Ok(());
    }
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(err) => return Err(format!("read dlq {}: {err}", path.display())),
    };
    let (_, kept) = parse_dead_letters(path, &bytes)?;
    let mut text = String::new();
    if kept == 0 {
        text.push_str(&dlq_header().to_string());
        text.push('\n');
    } else if bytes[kept - 1] != b'\n' {
        // The last line parsed whole but lost its newline to the tear.
        text.push('\n');
    }
    for letter in letters {
        text.push_str(&dead_letter_to_json(letter).to_string());
        text.push('\n');
    }
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(|err| format!("open dlq {}: {err}", path.display()))?;
    file.set_len(kept as u64)
        .map_err(|err| format!("truncate dlq {}: {err}", path.display()))?;
    file.seek(SeekFrom::End(0))
        .map_err(|err| format!("seek dlq {}: {err}", path.display()))?;
    file.write_all(text.as_bytes())
        .map_err(|err| format!("write dlq {}: {err}", path.display()))?;
    file.sync_all()
        .map_err(|err| format!("sync dlq {}: {err}", path.display()))?;
    Ok(())
}

/// Loads the dead-letter journal. A missing file means no runs were
/// quarantined (the common case) and yields an empty list. Tolerates a
/// torn final line — the supervisor fsyncs after every batch, but the
/// batch itself can be cut by a crash, and so can the header of a file
/// that was being created: an empty file, or one whose only line is a
/// torn header, holds no letters. Anything else corrupt is an error (a
/// silently dropped dead letter would resurrect a poison run as a
/// merge-phase gap).
pub fn load_dead_letters(path: &Path) -> Result<Vec<DeadLetter>, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(format!("read dlq {}: {err}", path.display())),
    };
    parse_dead_letters(path, &bytes).map(|(letters, _)| letters)
}

/// The letters in a dead-letter journal's bytes, and how many of its
/// bytes hold them: through the last line that parsed, header included.
/// The first non-empty line is the header.
fn parse_dead_letters(path: &Path, bytes: &[u8]) -> Result<(Vec<DeadLetter>, usize), String> {
    let mut letters = Vec::new();
    let (mut kept, mut end, mut header_seen) = (0, 0, false);
    for (index, raw) in bytes.split_inclusive(|&byte| byte == b'\n').enumerate() {
        end += raw.len();
        let complete = raw.ends_with(b"\n");
        let line = &raw[..raw.len() - usize::from(complete)];
        if line.is_empty() {
            continue;
        }
        let parsed = std::str::from_utf8(line)
            .map_err(|err| err.to_string())
            .and_then(Json::parse)
            .and_then(|value| {
                if header_seen {
                    return dead_letter_from_json(&value).map(Some);
                }
                let kind = value.get("kind").and_then(Json::as_str);
                if kind != Some("wasabi-dlq") {
                    return Err("missing dlq header".to_string());
                }
                let version = value.get("schema_version").and_then(Json::as_i64);
                if version != Some(DLQ_SCHEMA_VERSION) {
                    return Err(format!(
                        "dlq schema_version {version:?} (this build reads {DLQ_SCHEMA_VERSION})"
                    ));
                }
                Ok(None)
            });
        match parsed {
            Ok(letter) => {
                header_seen = true;
                letters.extend(letter);
                kept = end;
            }
            // Only the final line can lack its newline.
            Err(_) if !complete => {
                eprintln!(
                    "[engine] dlq {}: dropped a half-written final line",
                    path.display()
                );
            }
            Err(err) => {
                return Err(format!("dlq {}: corrupt line {}: {err}", path.display(), index + 1));
            }
        }
    }
    Ok((letters, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignOptions};
    use crate::observer::NullObserver;
    use std::collections::BTreeSet;
    use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
    use wasabi_analysis::resolve::ProjectIndex;
    use wasabi_lang::project::Project;
    use wasabi_planner::coverage::profile_coverage;
    use wasabi_planner::plan::{expand_plan, plan, InjectionRun};
    use wasabi_vm::runner::RunOptions;

    const SOURCE: &str = "\
exception ConnectException;\nexception SocketException;\n\
class Flaky {\n\
  method op() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { assert(this.run() == \"ok\"); }\n\
}\n\
class Solid {\n\
  field maxAttempts = 4;\n\
  method fetch() throws SocketException { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.fetch(); } catch (SocketException e) { sleep(25); }\n\
    }\n\
    throw new SocketException(\"giving up\");\n\
  }\n\
  test tSolid() { assert(this.run() == \"ok\"); }\n\
}\n";

    fn campaign_fixture() -> (Project, Vec<InjectionRun>) {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let index = ProjectIndex::build(&project);
        let locations: Vec<_> = all_retry_locations(&index, &LoopQueryOptions::default())
            .into_iter()
            .flat_map(|(_, locations)| locations)
            .collect();
        let run_options = RunOptions::default();
        let profile = profile_coverage(&project, &locations, &run_options);
        let all_sites: BTreeSet<_> = locations.iter().map(|l| l.site).collect();
        let test_plan = plan(&profile, &all_sites);
        let runs = expand_plan(&test_plan, &locations, &[1, 100]);
        (project, runs)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("wasabi-journal-test-{}-{name}", std::process::id()));
        path
    }

    /// A contained panic's record, as the engine builds it.
    fn crashed(key: RunKey) -> RunRecord {
        RunRecord {
            key,
            outcome: RunOutcome::Crashed {
                message: "interpreter bug: \"quoted\"\n".to_string(),
            },
            reports: Vec::new(),
            rethrow_filtered: false,
            not_a_trigger: false,
            virtual_ms: 0,
            steps: 0,
            injections: 0,
        }
    }

    #[test]
    fn records_round_trip_through_json_lines() {
        let (project, runs) = campaign_fixture();
        let mut records = run_campaign(
            &project,
            &runs,
            &CampaignOptions::default(),
            &mut NullObserver,
        )
        .records;
        assert!(records.iter().any(|record| !record.reports.is_empty()));
        // A crashed record too, not just clean completions.
        records.push(crashed(records[0].key.clone()));
        for record in &records {
            let line = record_to_json(record).to_string();
            let back = record_from_json(&Json::parse(&line).expect("parse")).expect("decode");
            assert_eq!(
                format!("{record:?}"),
                format!("{back:?}"),
                "journal round-trip must be lossless"
            );
        }
    }

    #[test]
    fn journal_write_then_load_recovers_every_record() {
        let (project, runs) = campaign_fixture();
        let path = temp_path("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let options = CampaignOptions {
            journal: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let result = run_campaign(&project, &runs, &options, &mut NullObserver);
        let loaded = load(&path).expect("load journal");
        assert!(!loaded.dropped_tail);
        assert_eq!(loaded.records.len(), result.records.len());
        for (a, b) in result.records.iter().zip(&loaded.records) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_drops_only_a_half_written_final_line() {
        let (project, runs) = campaign_fixture();
        let path = temp_path("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let options = CampaignOptions {
            journal: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let result = run_campaign(&project, &runs, &options, &mut NullObserver);
        // Simulate a process killed mid-append: cut the file mid-way
        // through its final record line.
        let text = std::fs::read_to_string(&path).expect("read");
        let body = text.trim_end_matches('\n');
        let last_line_start = body.rfind('\n').expect("multi-line") + 1;
        let torn_at = last_line_start + (body.len() - last_line_start) / 2;
        std::fs::write(&path, &text[..torn_at]).expect("truncate");

        let loaded = load(&path).expect("load tolerates torn tail");
        assert!(loaded.dropped_tail, "tail must be reported as dropped");
        // Everything before the torn line survived. The torn line was the
        // final epoch marker or a record; either way, at most one record
        // is missing.
        assert!(loaded.records.len() + 1 >= result.records.len() - 1);
        for record in &loaded.records {
            assert!(result.records.iter().any(|r| r.key == record.key));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_mid_file_corruption_and_bad_headers() {
        let path = temp_path("corrupt.jsonl");
        // Corrupt line sandwiched between data lines: hard error. (Followed
        // by only epoch markers it would be a droppable tail — see
        // load_tolerates_a_torn_line_followed_by_epoch_markers.)
        std::fs::write(
            &path,
            format!(
                "{{\"kind\":\"wasabi-journal\",\"schema_version\":2}}\n{{garbage\n{}\n",
                record_line(7)
            ),
        )
        .expect("write");
        let err = load(&path).expect_err("mid-file corruption must fail");
        assert!(err.contains("corrupt line 2"), "got: {err}");
        // Missing header: hard error.
        std::fs::write(&path, "{\"epoch\":1,\"completed\":0}\n").expect("write");
        let err = load(&path).expect_err("missing header must fail");
        assert!(err.contains("missing header"), "got: {err}");
        // Wrong schema version: hard error.
        std::fs::write(&path, "{\"kind\":\"wasabi-journal\",\"schema_version\":99}\n").expect("write");
        let err = load(&path).expect_err("wrong schema must fail");
        assert!(err.contains("schema_version"), "got: {err}");
        let _ = std::fs::remove_file(&path);
    }

    /// A minimal valid record line for hand-built journals.
    fn record_line(k: u64) -> String {
        format!(
            "{{\"key\":{{\"test\":[\"C\",\"t\"],\"site\":[0,4],\"exc\":\"E\",\
             \"k\":{k}}},\"outcome\":{{\"kind\":\"passed\"}},\"reports\":[],\
             \"rethrow_filtered\":false,\"not_a_trigger\":false,\"virtual_ms\":0,\
             \"steps\":0,\"injections\":0,\"attempts\":1,\"quarantined\":false}}"
        )
    }

    const HEADER_LINE: &str = "{\"kind\":\"wasabi-journal\",\"schema_version\":2}";

    /// Regression: the torn-tail repair used to tolerate corruption only on
    /// the literal final line. A process killed while the epoch fsync was in
    /// flight can leave a *torn record line followed by its epoch marker*
    /// (the marker was flushed from a separate buffer write) — that tail is
    /// droppable: nothing after the tear carries data.
    #[test]
    fn load_tolerates_a_torn_line_followed_by_epoch_markers() {
        let path = temp_path("torn-then-epoch.jsonl");

        // Torn record line, then a valid epoch marker: droppable tail.
        std::fs::write(
            &path,
            format!(
                "{HEADER_LINE}\n{}\n{{\"key\":{{\"test\":[\"C\n{{\"epoch\":1,\"completed\":2}}\n",
                record_line(1)
            ),
        )
        .expect("write");
        let loaded = load(&path).expect("torn line before epoch marker is a droppable tail");
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.records.len(), 1, "the intact record before the tear survives");

        // Torn record line, epoch marker, then *another* torn final line
        // (the next session's kill): still droppable.
        std::fs::write(
            &path,
            format!(
                "{HEADER_LINE}\n{}\n{{gar\n{{\"epoch\":1,\"completed\":2}}\n{{\"epoch\":2,\"comp",
                record_line(1)
            ),
        )
        .expect("write");
        let loaded = load(&path).expect("epoch markers then a torn final line still droppable");
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.records.len(), 1);

        // But a valid *record* after the tear means dropping would open a
        // silent gap mid-journal: that stays a hard corruption error.
        std::fs::write(
            &path,
            format!("{HEADER_LINE}\n{{gar\n{}\n", record_line(1)),
        )
        .expect("write");
        let err = load(&path).expect_err("a record after the tear must stay a hard error");
        assert!(err.contains("corrupt line 2"), "got: {err}");

        // Same if the record hides behind an epoch marker.
        std::fs::write(
            &path,
            format!(
                "{HEADER_LINE}\n{{gar\n{{\"epoch\":1,\"completed\":1}}\n{}\n",
                record_line(1)
            ),
        )
        .expect("write");
        let err = load(&path).expect_err("epoch then record after the tear must stay a hard error");
        assert!(err.contains("corrupt line 2"), "got: {err}");
        let _ = std::fs::remove_file(&path);
    }

    /// The line reader is the machine `load` and `Journal::open` run on;
    /// spot-check it yields records one at a time with identical repair
    /// behavior.
    #[test]
    fn journal_reader_streams_records_and_repairs_tails() {
        let path = temp_path("reader.jsonl");
        std::fs::write(
            &path,
            format!(
                "{HEADER_LINE}\n{}\n{{\"epoch\":1,\"completed\":1}}\n{}\n{{\"key\":{{tor",
                record_line(1),
                record_line(2)
            ),
        )
        .expect("write");
        let mut reader = JournalReader::open(&path).expect("open");
        let first = reader.next_record().expect("read").expect("first record");
        assert_eq!(first.key.k, 1);
        assert!(!reader.dropped_tail, "tail not reached yet");
        let second = reader.next_record().expect("read").expect("second record");
        assert_eq!(second.key.k, 2);
        assert!(reader.next_record().expect("read").is_none());
        assert!(reader.dropped_tail, "torn final line dropped");
        assert!(reader.next_record().expect("read").is_none(), "stays finished");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dead_letters_round_trip_and_tolerate_torn_tails() {
        let path = temp_path("dlq.jsonl");
        let _ = std::fs::remove_file(&path);

        // Missing file: no quarantined runs, not an error.
        assert_eq!(load_dead_letters(&path).expect("missing dlq"), Vec::new());

        let letter = |k: u32, reason: &str| DeadLetter {
            key: RunKey {
                test: MethodId::new("C", "t"),
                site: CallSite { file: FileId(0), call: CallId(4) },
                exception: "E".to_string(),
                k,
            },
            shard: 2,
            exit: "exit code 86".to_string(),
            restarts: 5,
            reason: reason.to_string(),
        };
        append_dead_letters(&path, &[letter(1, "bisected")]).expect("append");
        append_dead_letters(&path, &[letter(100, "restart cap exhausted")]).expect("append more");
        let loaded = load_dead_letters(&path).expect("load");
        assert_eq!(loaded, vec![letter(1, "bisected"), letter(100, "restart cap exhausted")]);

        // Torn final line (supervisor killed mid-batch): dropped, earlier
        // letters survive, and the next append cuts it before writing.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() - 10]).expect("tear");
        let loaded = load_dead_letters(&path).expect("load torn");
        assert_eq!(loaded, vec![letter(1, "bisected")]);
        append_dead_letters(&path, &[letter(7, "bisected")]).expect("append after a tear");
        let loaded = load_dead_letters(&path).expect("load repaired");
        assert_eq!(loaded, vec![letter(1, "bisected"), letter(7, "bisected")]);

        // A last line that parsed whole but lost its newline is kept, and
        // the next append starts a line of its own.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, text.trim_end_matches('\n')).expect("drop the newline");
        append_dead_letters(&path, &[letter(9, "bisected")]).expect("append");
        let loaded = load_dead_letters(&path).expect("load");
        assert_eq!(
            loaded,
            vec![
                letter(1, "bisected"),
                letter(7, "bisected"),
                letter(9, "bisected")
            ]
        );

        // A supervisor killed while creating the file leaves it empty or
        // with a torn header: no letters, and the next append writes a
        // fresh header.
        let header = "{\"kind\":\"wasabi-dlq\",\"schema_version\":1}\n";
        for torn in ["", &header[..10], &header[..header.len() - 1]] {
            std::fs::write(&path, torn).expect("write torn header");
            assert_eq!(
                load_dead_letters(&path).expect("torn header"),
                Vec::new(),
                "{torn:?}"
            );
            append_dead_letters(&path, &[letter(1, "bisected")]).expect("append");
            let written = std::fs::read_to_string(&path).expect("read");
            assert!(written.starts_with(header), "{torn:?}: {written}");
            assert_eq!(
                load_dead_letters(&path).expect("load"),
                vec![letter(1, "bisected")]
            );
        }

        // Mid-file corruption: hard error, and an append refuses the file
        // and leaves it as it is.
        let corrupt = "{\"kind\":\"wasabi-dlq\",\"schema_version\":1}\n{gar\n{\"key\":{}}\n";
        std::fs::write(&path, corrupt).expect("write");
        let err = load_dead_letters(&path).expect_err("mid-file corruption");
        assert!(err.contains("corrupt line 2"), "got: {err}");
        let append_err = append_dead_letters(&path, &[letter(1, "bisected")])
            .expect_err("append refuses what load refuses");
        assert_eq!(append_err, err);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), corrupt);

        // Oversized / malformed shard values must parse-error, never
        // truncate into a bogus shard index (the old `u64 as usize` cast
        // silently wrapped on 32-bit targets).
        let line = dead_letter_to_json(&letter(1, "bisected")).to_string();
        assert!(line.contains("\"shard\":2"), "fixture drifted: {line}");
        for bad in ["-7", "18446744073709551616", "\"2\"", "2.5"] {
            let doc = line.replace("\"shard\":2", &format!("\"shard\":{bad}"));
            let rejected = Json::parse(&doc).and_then(|parsed| dead_letter_from_json(&parsed));
            assert!(rejected.is_err(), "shard {bad} must be rejected");
        }

        // Seeded round-trip sweep across the shard range the JSON integer
        // model represents (i64-backed), including its boundary values.
        let mut rng = wasabi_util::Rng::new(0x0D1A);
        let mut shards: Vec<usize> = (0..32).map(|_| (rng.next_u64() >> 1) as usize).collect();
        shards.extend([0, 1, i64::MAX as usize]);
        for (i, shard) in shards.into_iter().enumerate() {
            let mut sample = letter(i as u32, "bisected");
            sample.shard = shard;
            let round =
                dead_letter_from_json(&Json::parse(&dead_letter_to_json(&sample).to_string()).expect("parse"))
                    .expect("round trip");
            assert_eq!(round, sample, "shard {shard} must survive unchanged");
        }

        // Wrong header kind: hard error.
        std::fs::write(&path, "{\"kind\":\"wasabi-journal\",\"schema_version\":2}\n").expect("write");
        let err = load_dead_letters(&path).expect_err("wrong kind");
        assert!(err.contains("missing dlq header"), "got: {err}");
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: ids and counts wider than their in-memory field used to
    /// be narrowed with bare `as` casts, so a corrupt journal line like
    /// `"attempts": 300` silently wrapped to 44 and resumed a campaign
    /// with plausible-looking garbage. Out-of-range values must fail the
    /// parse instead.
    #[test]
    fn record_parse_rejects_out_of_range_ids_and_counts() {
        let line = |site_file: u64, k: u64, injections: u64, attempts: u64| {
            format!(
                "{{\"key\":{{\"test\":[\"C\",\"t\"],\"site\":[{site_file},4],\"exc\":\"E\",\
                 \"k\":{k}}},\"outcome\":{{\"kind\":\"passed\"}},\"reports\":[],\
                 \"rethrow_filtered\":false,\"not_a_trigger\":false,\"virtual_ms\":0,\
                 \"steps\":0,\"injections\":{injections},\"attempts\":{attempts},\
                 \"quarantined\":false}}"
            )
        };
        let parse = |text: &str| record_from_json(&Json::parse(text).expect("json"));

        // In-range values parse fine (the maxima themselves round-trip).
        let ok = parse(&line(u64::from(u32::MAX), 100, u64::from(u32::MAX), 255))
            .expect("maxima must parse");
        assert_eq!(ok.key.site.file.0, u32::MAX);
        assert_eq!(ok.injections, u32::MAX);

        // One-past-the-end (and far past) each fail with a field-named error.
        let big = 1u64 << 40;
        for (text, field) in [
            (line(big, 1, 0, 1), "site file"),
            (line(0, big, 0, 1), "key k"),
            (line(0, 1, big, 1), "record injections"),
            (line(0, 1, 0, 300), "record attempts"),
            (line(0, 1, 0, 256), "record attempts"),
        ] {
            let err = parse(&text).expect_err("oversized value must fail parse");
            assert!(
                err.contains(field) && err.contains("out of range"),
                "expected `{field} ... out of range`, got: {err}"
            );
        }

        // A negative loop id in a report location must not wrap to u32.
        let loc = "{\"site\":[0,1],\"coordinator\":[\"C\",\"run\"],\"retried\":[\"C\",\"op\"],\
                   \"exc\":\"E\",\"mechanism\":-3}";
        let err = location_from_json(&Json::parse(loc).expect("json"))
            .expect_err("negative loop id must fail");
        assert!(err.contains("out of range"), "got: {err}");
    }

    /// Lines written while a crashed run was retried carry other
    /// `"attempts"` and `"quarantined"` values: a completed run recovered
    /// by a retry (`"attempts":2`) and a crash that used up three attempts
    /// (`"attempts":3,"quarantined":true`). Both still load, as one
    /// completed and one crashed record, and are written back with
    /// `"attempts":1` and `"quarantined"` equal to whether the run crashed.
    #[test]
    fn lines_with_retried_attempts_still_load() {
        let recovered = record_line(1).replace("\"attempts\":1", "\"attempts\":2");
        let exhausted = record_to_json(&crashed(parse_key(&record_line(100))))
            .to_string()
            .replace("\"attempts\":1", "\"attempts\":3");
        assert!(
            exhausted.contains("\"attempts\":3,\"quarantined\":true"),
            "{exhausted}"
        );
        let path = temp_path("retried.jsonl");
        std::fs::write(&path, format!("{HEADER_LINE}\n{recovered}\n{exhausted}\n")).expect("write");
        let loaded = load(&path).expect("load");
        assert!(!loaded.dropped_tail);
        let outcomes: Vec<&RunOutcome> = loaded.records.iter().map(|r| &r.outcome).collect();
        assert!(
            matches!(
                outcomes[..],
                [
                    RunOutcome::Completed(TestOutcome::Passed),
                    RunOutcome::Crashed { .. }
                ]
            ),
            "{outcomes:?}"
        );
        let rewritten: Vec<String> = loaded
            .records
            .iter()
            .map(|record| record_to_json(record).to_string())
            .collect();
        assert_eq!(
            rewritten,
            [
                record_line(1),
                exhausted.replace("\"attempts\":3", "\"attempts\":1")
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    fn parse_key(line: &str) -> RunKey {
        record_from_json(&Json::parse(line).expect("json"))
            .expect("record")
            .key
    }

    /// The two outcome kinds only a per-run wall-clock budget could write
    /// are refused with an error that names the line.
    #[test]
    fn budget_outcome_kinds_are_errors_that_name_the_line() {
        let path = temp_path("budget.jsonl");
        for kind in ["timed_out", "wall_clock_exceeded"] {
            let line =
                record_line(1).replace("\"kind\":\"passed\"", &format!("\"kind\":\"{kind}\""));
            std::fs::write(
                &path,
                format!("{HEADER_LINE}\n{line}\n{}\n", record_line(2)),
            )
            .expect("write");
            let err = load(&path).expect_err("a budget outcome must not load");
            assert!(
                err.contains("corrupt line 2") && err.contains(kind),
                "{kind}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_repairs_a_torn_tail_before_appending() {
        let path = temp_path("repair.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"wasabi-journal\",\"schema_version\":2}\n{\"epoch\":1,\"comp",
        )
        .expect("write");
        drop(Journal::open(&path).expect("open repairs"));
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, "{\"kind\":\"wasabi-journal\",\"schema_version\":2}\n");
        // And the repaired file loads cleanly (no records yet).
        let loaded = load(&path).expect("load repaired");
        assert!(loaded.records.is_empty());
        assert!(!loaded.dropped_tail);
        let _ = std::fs::remove_file(&path);
    }

    /// `open` cuts only what `load` drops: a journal whose bad line has a
    /// record after it is refused with `load`'s error, byte for byte
    /// untouched, and a torn line followed only by epoch markers is cut.
    #[test]
    fn open_refuses_what_load_refuses_and_cuts_what_load_drops() {
        let path = temp_path("open-mid-corrupt.jsonl");
        let text = format!("{HEADER_LINE}\n{{garbage}}\n{}\n{{\"epoch\":1,\"completed\":1}}\n", record_line(3));
        std::fs::write(&path, &text).expect("write");
        let load_err = load(&path).expect_err("load refuses mid-file corruption");
        let open_err = Journal::open(&path).expect_err("open refuses it too");
        assert!(open_err.contains("corrupt line 2"), "got: {open_err}");
        assert_eq!(open_err, load_err);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), text, "left as it was");

        let kept = format!("{HEADER_LINE}\n{}\n", record_line(1));
        std::fs::write(
            &path,
            format!("{kept}{{\"key\":{{\"te\n{{\"epoch\":1,\"completed\":2}}\n"),
        )
        .expect("write");
        drop(Journal::open(&path).expect("open cuts the torn tail"));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), kept);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_from_journal_is_byte_identical_and_reruns_less() {
        let (project, runs) = campaign_fixture();
        let full_path = temp_path("full.jsonl");
        let cut_path = temp_path("cut.jsonl");
        let _ = std::fs::remove_file(&full_path);
        let _ = std::fs::remove_file(&cut_path);

        let full = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                journal: Some(full_path.clone()),
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );

        // Simulate a kill: keep the header + the first half of the
        // record lines, with the last kept line torn mid-write.
        let text = std::fs::read_to_string(&full_path).expect("read");
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let keep = (lines.len() / 2).max(2);
        let mut cut: String = lines[..keep].concat();
        cut.truncate(cut.len().saturating_sub(7)); // tear the tail
        std::fs::write(&cut_path, &cut).expect("write cut");

        let recovered = load(&cut_path).expect("load cut journal");
        assert!(recovered.dropped_tail);
        assert!(
            !recovered.records.is_empty() && recovered.records.len() < runs.len(),
            "partial recovery: {} of {}",
            recovered.records.len(),
            runs.len()
        );
        let executed_before = recovered.records.len();
        let resumed = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                jobs: 4,
                resume: recovered.records,
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        assert_eq!(
            resumed.stats.worker_runs.iter().sum::<usize>(),
            runs.len() - executed_before,
            "strictly fewer runs re-executed than the full plan"
        );
        let render = |records: &[RunRecord]| -> Vec<String> {
            records.iter().map(|r| format!("{r:?}")).collect()
        };
        assert_eq!(
            render(&full.records),
            render(&resumed.records),
            "resumed campaign must be byte-identical to the uninterrupted one"
        );
        let _ = std::fs::remove_file(&full_path);
        let _ = std::fs::remove_file(&cut_path);
    }

    #[test]
    fn journal_appends_across_sessions_resume_same_file() {
        let (project, runs) = campaign_fixture();
        let path = temp_path("sessions.jsonl");
        let _ = std::fs::remove_file(&path);
        // Session 1: journal half the campaign (simulated by journaling a
        // full run, then cutting the file to half the record lines).
        let full = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                journal: Some(path.clone()),
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        std::fs::write(&path, lines[..lines.len() / 2].concat()).expect("cut");
        // Session 2: resume from the same file while appending to it —
        // the natural `--journal j --resume j` CLI shape.
        let recovered = load_for_resume(&path).expect("load");
        let resumed = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                journal: Some(path.clone()),
                resume: recovered,
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        assert_eq!(
            resumed.records.len(),
            full.records.len(),
            "every key reported exactly once"
        );
        // The journal now holds every record (old + appended), so a
        // third session would re-run nothing.
        let final_load = load(&path).expect("load final");
        let keys: BTreeSet<String> = final_load
            .records
            .iter()
            .map(|r| format!("{:?}", r.key))
            .collect();
        assert_eq!(keys.len(), runs.len());
        let _ = std::fs::remove_file(&path);
    }
}
