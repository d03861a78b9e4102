//! Structured span export: the `--trace-out` JSON-lines trace file.
//!
//! A trace is one header line plus one line per closed span:
//!
//! ```text
//! {"kind":"wasabi-trace","schema_version":1,"app":"HD"}
//! {"span":"phase","name":"plan","start_us":10,"end_us":90}
//! {"span":"run","test":"C.t","site":"0:3","exc":"E","k":1,...}
//! ```
//!
//! A step inside a phase is a phase span with a dotted name
//! (`profile.prefilter`, `profile.baseline-exec`); it lies within its
//! phase's span and `wasabi stats` shows it indented under the phase.
//!
//! Spans are written only after they close, so a well-formed trace never
//! contains a dangling open span; `wasabi stats` re-reads the file and
//! [`validate_trace`] cross-checks run spans against a campaign journal
//! (same keys, same attempt counts) — the CI smoke stage runs both.

use crate::campaign::RunRecord;
use crate::metrics::RunTiming;
use std::fmt::Write as _;
use std::path::Path;
use wasabi_util::Json;

/// Trace file `kind` marker.
pub const TRACE_KIND: &str = "wasabi-trace";
/// Trace schema version; bump on any incompatible line-shape change.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// One closed phase span (compile/restore/profile/plan/run/report), or
/// a step inside one (`<phase>.<step>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: String,
    /// Clock-relative start, microseconds.
    pub start_us: u64,
    /// Clock-relative end, microseconds.
    pub end_us: u64,
}

impl PhaseSpan {
    /// The span's duration in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One closed per-run span with its identity, outcome, and timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpan {
    /// Test method, rendered `Class.method`.
    pub test: String,
    /// Call site, rendered as its display form.
    pub site: String,
    /// Injected exception type.
    pub exception: String,
    /// Injection budget K.
    pub k: u32,
    /// Worker that executed the run (`jobs` = the supervisor, inline).
    pub worker: usize,
    /// Outcome kind (the journal's outcome vocabulary).
    pub outcome: String,
    /// Attempts consumed.
    pub attempts: u8,
    /// Faults injected.
    pub injections: u32,
    /// Interpreter steps.
    pub steps: u64,
    /// Oracle reports produced.
    pub reports: usize,
    /// Clock-relative start, microseconds.
    pub start_us: u64,
    /// Clock-relative end, microseconds.
    pub end_us: u64,
    /// Host-time breakdown for the run.
    pub timing: RunTiming,
}

impl RunSpan {
    /// The span's identity tuple — matches a journal record's `RunKey`
    /// rendering.
    pub fn key_string(&self) -> String {
        format!("{} @ {} {} K={}", self.test, self.site, self.exception, self.k)
    }
}

/// A parsed trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceFile {
    /// Application label from the header (may be empty).
    pub app: String,
    /// Phase spans, in file order.
    pub phases: Vec<PhaseSpan>,
    /// Run spans, in file order.
    pub runs: Vec<RunSpan>,
}

fn phase_to_json(span: &PhaseSpan) -> Json {
    Json::obj([
        ("span", Json::from("phase")),
        ("name", Json::from(span.name.as_str())),
        ("start_us", Json::from(span.start_us)),
        ("end_us", Json::from(span.end_us)),
    ])
}

fn run_to_json(span: &RunSpan) -> Json {
    Json::obj([
        ("span", Json::from("run")),
        ("test", Json::from(span.test.as_str())),
        ("site", Json::from(span.site.as_str())),
        ("exc", Json::from(span.exception.as_str())),
        ("k", Json::from(span.k)),
        ("worker", Json::from(span.worker)),
        ("outcome", Json::from(span.outcome.as_str())),
        ("attempts", Json::from(u32::from(span.attempts))),
        ("injections", Json::from(span.injections)),
        ("steps", Json::from(span.steps)),
        ("reports", Json::from(span.reports)),
        ("start_us", Json::from(span.start_us)),
        ("end_us", Json::from(span.end_us)),
        ("queue_wait_us", Json::from(span.timing.queue_wait_us)),
        ("run_wall_us", Json::from(span.timing.run_wall_us)),
        ("interp_us", Json::from(span.timing.interp_us)),
        ("judge_us", Json::from(span.timing.judge_us)),
        ("backoff_ms", Json::from(span.timing.backoff_ms)),
    ])
}

/// Renders a full trace document (header plus one line per span).
pub fn render_trace(app: &str, phases: &[PhaseSpan], runs: &[RunSpan]) -> String {
    let mut text = String::new();
    let header = Json::obj([
        ("kind", Json::from(TRACE_KIND)),
        ("schema_version", Json::from(TRACE_SCHEMA_VERSION)),
        ("app", Json::from(app)),
    ]);
    let _ = writeln!(text, "{header}");
    for span in phases {
        let _ = writeln!(text, "{}", phase_to_json(span));
    }
    for span in runs {
        let _ = writeln!(text, "{}", run_to_json(span));
    }
    text
}

/// Writes a trace file atomically (temp file, then rename), so a killed
/// writer never leaves a torn trace for `wasabi stats` to read.
pub fn write_trace(
    path: &Path,
    app: &str,
    phases: &[PhaseSpan],
    runs: &[RunSpan],
) -> Result<(), String> {
    wasabi_util::write_atomic(path, render_trace(app, phases, runs).as_bytes())
        .map_err(|err| format!("cannot write trace {}: {err}", path.display()))
}

fn u64_of(value: &Json, what: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("{what}: expected unsigned int"))
}

fn field<'v>(value: &'v Json, name: &str, what: &str) -> Result<&'v Json, String> {
    value.get(name).ok_or_else(|| format!("{what}: missing {name}"))
}

fn str_field(value: &Json, name: &str, what: &str) -> Result<String, String> {
    field(value, name, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: {name} must be a string"))
}

fn num_field(value: &Json, name: &str, what: &str) -> Result<u64, String> {
    u64_of(field(value, name, what)?, &format!("{what} {name}"))
}

fn phase_from_json(value: &Json, line: usize) -> Result<PhaseSpan, String> {
    let what = format!("trace line {line} (phase)");
    let span = PhaseSpan {
        name: str_field(value, "name", &what)?,
        start_us: num_field(value, "start_us", &what)?,
        end_us: num_field(value, "end_us", &what)?,
    };
    if span.end_us < span.start_us {
        return Err(format!("{what}: span ends before it starts"));
    }
    Ok(span)
}

fn run_from_json(value: &Json, line: usize) -> Result<RunSpan, String> {
    let what = format!("trace line {line} (run)");
    let narrow_u32 = |name: &str| -> Result<u32, String> {
        let n = num_field(value, name, &what)?;
        u32::try_from(n).map_err(|_| format!("{what}: {name} {n} out of range"))
    };
    let attempts_raw = num_field(value, "attempts", &what)?;
    let span = RunSpan {
        test: str_field(value, "test", &what)?,
        site: str_field(value, "site", &what)?,
        exception: str_field(value, "exc", &what)?,
        k: narrow_u32("k")?,
        worker: num_field(value, "worker", &what)? as usize,
        outcome: str_field(value, "outcome", &what)?,
        attempts: u8::try_from(attempts_raw)
            .map_err(|_| format!("{what}: attempts {attempts_raw} out of range"))?,
        injections: narrow_u32("injections")?,
        steps: num_field(value, "steps", &what)?,
        reports: num_field(value, "reports", &what)? as usize,
        start_us: num_field(value, "start_us", &what)?,
        end_us: num_field(value, "end_us", &what)?,
        timing: RunTiming {
            queue_wait_us: num_field(value, "queue_wait_us", &what)?,
            run_wall_us: num_field(value, "run_wall_us", &what)?,
            interp_us: num_field(value, "interp_us", &what)?,
            judge_us: num_field(value, "judge_us", &what)?,
            backoff_ms: num_field(value, "backoff_ms", &what)?,
        },
    };
    if span.end_us < span.start_us {
        return Err(format!("{what}: span ends before it starts"));
    }
    Ok(span)
}

/// Parses a trace document from text. Strict: a bad header, an unknown
/// span kind, or a malformed span line is a hard error (traces are
/// written in one piece; there is no torn tail to tolerate).
pub fn parse_trace(text: &str) -> Result<TraceFile, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or("trace: empty file")?;
    let header = Json::parse(header_line).map_err(|err| format!("trace header: {err}"))?;
    match header.get("kind").and_then(Json::as_str) {
        Some(TRACE_KIND) => {}
        _ => return Err(format!("trace header: missing kind `{TRACE_KIND}`")),
    }
    match header.get("schema_version").and_then(Json::as_u64) {
        Some(TRACE_SCHEMA_VERSION) => {}
        Some(other) => {
            return Err(format!(
                "trace header: schema_version {other}, expected {TRACE_SCHEMA_VERSION}"
            ))
        }
        None => return Err("trace header: missing schema_version".to_string()),
    }
    let mut trace = TraceFile {
        app: header
            .get("app")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        ..TraceFile::default()
    };
    for (index, line) in lines {
        let value =
            Json::parse(line).map_err(|err| format!("trace line {}: {err}", index + 1))?;
        match value.get("span").and_then(Json::as_str) {
            Some("phase") => trace.phases.push(phase_from_json(&value, index + 1)?),
            Some("run") => trace.runs.push(run_from_json(&value, index + 1)?),
            Some(other) => return Err(format!("trace line {}: unknown span `{other}`", index + 1)),
            None => return Err(format!("trace line {}: missing span kind", index + 1)),
        }
    }
    Ok(trace)
}

/// Reads and parses a trace file.
pub fn load_trace(path: &Path) -> Result<TraceFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read trace {}: {err}", path.display()))?;
    parse_trace(&text)
}

/// Validates a trace's internal consistency and, when a journal's records
/// are given, cross-checks every run span against its record: same key
/// set, same attempt counts, same injection counts. Returns a list of
/// problems (empty = valid).
pub fn validate_trace(trace: &TraceFile, journal: Option<&[RunRecord]>) -> Vec<String> {
    let mut problems = Vec::new();
    // Parsing already rejects end < start; here we check cross-span facts.
    let mut seen = std::collections::BTreeMap::new();
    for span in &trace.runs {
        if seen.insert(span.key_string(), span).is_some() {
            problems.push(format!("duplicate run span for {}", span.key_string()));
        }
        let inner = span
            .timing
            .interp_us
            .saturating_add(span.timing.judge_us);
        if span.timing.run_wall_us < inner && span.timing.run_wall_us > 0 {
            // Tolerate zero (sub-microsecond runs round down); anything
            // else claiming interp+judge exceeded the whole run is bogus.
            problems.push(format!(
                "{}: interp+judge {}us exceeds run wall {}us",
                span.key_string(),
                inner,
                span.timing.run_wall_us
            ));
        }
    }
    if let Some(records) = journal {
        for record in records {
            let key = format!(
                "{} @ {} {} K={}",
                record.key.test, record.key.site, record.key.exception, record.key.k
            );
            match seen.remove(&key) {
                None => problems.push(format!("journal record has no run span: {key}")),
                Some(span) => {
                    if span.attempts != record.attempts {
                        problems.push(format!(
                            "{key}: span says {} attempt(s), journal says {}",
                            span.attempts, record.attempts
                        ));
                    }
                    if span.injections != record.injections {
                        problems.push(format!(
                            "{key}: span says {} injection(s), journal says {}",
                            span.injections, record.injections
                        ));
                    }
                }
            }
        }
        for leftover in seen.keys() {
            problems.push(format!("run span has no journal record: {leftover}"));
        }
    }
    problems
}

fn us_to_ms_str(us: u64) -> String {
    format!("{}.{:03}", us / 1000, us % 1000)
}

/// Whether a phase span is a step inside another phase: steps are named
/// `<phase>.<step>` (e.g. `profile.prefilter`) and lie within their
/// phase's span.
fn is_step(span: &PhaseSpan) -> bool {
    span.name.contains('.')
}

/// Renders the `wasabi stats` table for one or more traces: a per-phase
/// wall-time breakdown per app, with each phase's steps indented under
/// it, then run aggregates. The total and the shares count phases only,
/// since a step's time is already part of its phase.
pub fn render_stats(traces: &[TraceFile]) -> String {
    let mut out = String::new();
    for trace in traces {
        let app = if trace.app.is_empty() { "?" } else { &trace.app };
        let total: u64 = trace
            .phases
            .iter()
            .filter(|span| !is_step(span))
            .map(PhaseSpan::wall_us)
            .sum();
        let steps = trace.phases.iter().filter(|span| is_step(span)).count();
        let _ = writeln!(
            out,
            "app {app}: {} phase(s), {steps} step(s), {} run span(s)",
            trace.phases.len() - steps,
            trace.runs.len()
        );
        let _ = writeln!(out, "  {:<24} {:>12} {:>7}", "phase", "wall_ms", "share");
        // Spans are written in completion order, so a step precedes its
        // phase in the file; start order puts it after.
        let mut rows: Vec<&PhaseSpan> = trace.phases.iter().collect();
        rows.sort_by_key(|span| (span.start_us, is_step(span)));
        for span in rows {
            let share = if total == 0 {
                0.0
            } else {
                span.wall_us() as f64 * 100.0 / total as f64
            };
            let indent = if is_step(span) { "  " } else { "" };
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>6.1}%",
                format!("{indent}{}", span.name),
                us_to_ms_str(span.wall_us()),
                share
            );
        }
        let _ = writeln!(out, "  {:<24} {:>12}", "total", us_to_ms_str(total));
        if !trace.runs.is_empty() {
            let runs = trace.runs.len() as u64;
            let sum = |f: fn(&RunSpan) -> u64| trace.runs.iter().map(f).sum::<u64>();
            let attempts: u64 = trace.runs.iter().map(|r| u64::from(r.attempts)).sum();
            let injections: u64 = trace.runs.iter().map(|r| u64::from(r.injections)).sum();
            let _ = writeln!(
                out,
                "  runs: {runs}, attempts: {attempts}, injections: {injections}, steps: {}",
                sum(|r| r.steps)
            );
            let _ = writeln!(
                out,
                "  per-run mean: interp {} ms, judge {} ms, queue wait {} ms, backoff {} ms",
                us_to_ms_str(sum(|r| r.timing.interp_us) / runs),
                us_to_ms_str(sum(|r| r.timing.judge_us) / runs),
                us_to_ms_str(sum(|r| r.timing.queue_wait_us) / runs),
                sum(|r| r.timing.backoff_ms) / runs
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_util::Rng;

    fn phase(name: &str, start_us: u64, end_us: u64) -> PhaseSpan {
        PhaseSpan {
            name: name.to_string(),
            start_us,
            end_us,
        }
    }

    fn run_span(test: &str, attempts: u8) -> RunSpan {
        RunSpan {
            test: test.to_string(),
            site: "f0:c3".to_string(),
            exception: "E".to_string(),
            k: 1,
            worker: 0,
            outcome: "passed".to_string(),
            attempts,
            injections: 1,
            steps: 42,
            reports: 0,
            start_us: 10,
            end_us: 60,
            timing: RunTiming {
                queue_wait_us: 5,
                run_wall_us: 50,
                interp_us: 30,
                judge_us: 4,
                backoff_ms: 0,
            },
        }
    }

    #[test]
    fn trace_round_trips_through_text() {
        let phases = vec![phase("plan", 0, 100), phase("run", 100, 900)];
        let runs = vec![run_span("C.t", 1), run_span("C.u", 2)];
        let text = render_trace("HD", &phases, &runs);
        let back = parse_trace(&text).expect("parse");
        assert_eq!(back.app, "HD");
        assert_eq!(back.phases, phases);
        assert_eq!(back.runs, runs);
        assert!(validate_trace(&back, None).is_empty());
    }

    #[test]
    fn parse_rejects_bad_headers_and_spans() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("{\"kind\":\"other\"}\n").is_err());
        let wrong_version =
            format!("{{\"kind\":\"{TRACE_KIND}\",\"schema_version\":99,\"app\":\"x\"}}\n");
        assert!(parse_trace(&wrong_version).is_err());
        let header =
            format!("{{\"kind\":\"{TRACE_KIND}\",\"schema_version\":{TRACE_SCHEMA_VERSION},\"app\":\"x\"}}\n");
        // Unknown span kind.
        assert!(parse_trace(&format!("{header}{{\"span\":\"nope\"}}\n")).is_err());
        // Phase ending before it starts.
        assert!(parse_trace(&format!(
            "{header}{{\"span\":\"phase\",\"name\":\"p\",\"start_us\":9,\"end_us\":3}}\n"
        ))
        .is_err());
    }

    #[test]
    fn validate_cross_checks_against_journal_records() {
        use crate::campaign::{RunOutcome, RunRecord};
        use wasabi_lang::ast::CallId;
        use wasabi_lang::project::{CallSite, FileId, MethodId};
        use wasabi_planner::plan::RunKey;
        use wasabi_vm::trace::TestOutcome;

        let span = run_span("C.t", 2);
        let record = RunRecord {
            key: RunKey {
                test: MethodId::new("C", "t"),
                site: CallSite {
                    file: FileId(0),
                    call: CallId(3),
                },
                exception: "E".to_string(),
                k: 1,
            },
            outcome: RunOutcome::Completed(TestOutcome::Passed),
            reports: Vec::new(),
            rethrow_filtered: false,
            not_a_trigger: false,
            virtual_ms: 0,
            steps: 42,
            injections: 1,
            attempts: 2,
            quarantined: false,
        };
        // Site rendering must agree with the span's; check the fixture.
        assert_eq!(record.key.site.to_string(), span.site);
        let trace = TraceFile {
            app: "t".into(),
            phases: Vec::new(),
            runs: vec![span.clone()],
        };
        assert!(validate_trace(&trace, Some(std::slice::from_ref(&record))).is_empty());

        // Attempt mismatch is caught.
        let mut bad = record.clone();
        bad.attempts = 1;
        let problems = validate_trace(&trace, Some(std::slice::from_ref(&bad)));
        assert!(problems.iter().any(|p| p.contains("attempt")), "{problems:?}");

        // Missing span / missing record are caught.
        let empty = TraceFile::default();
        let problems = validate_trace(&empty, Some(std::slice::from_ref(&record)));
        assert!(problems.iter().any(|p| p.contains("no run span")));
        let problems = validate_trace(&trace, Some(&[]));
        assert!(problems.iter().any(|p| p.contains("no journal record")));
    }

    /// Garbage for the totality sweep: JSON punctuation, trace keywords,
    /// digits, and a few multi-byte chars, so some inputs get deep into
    /// the span decoders before failing.
    fn gen_garbage(rng: &mut Rng, max_len: usize) -> String {
        #[rustfmt::skip]
        const POOL: &[&str] = &[
            "{", "}", "[", "]", ":", ",", "\"", "\\", " ", "\n", "0", "7", "-", ".", "e",
            "18446744073709551616", "true", "null", "\"span\"", "\"phase\"", "\"run\"",
            "\"kind\"", "\"wasabi-trace\"", "\"schema_version\"", "1", "\"start_us\"",
            "\"end_us\"", "\"attempts\"", "\u{e9}", "\u{1f980}",
        ];
        let len = rng.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| *rng.pick(POOL)).collect()
    }

    /// Parsing (and validating and rendering whatever parses) never panics:
    /// arbitrary garbage, a valid trace with garbage lines appended, a
    /// valid trace cut at any byte, and a valid trace with one byte flipped
    /// all end in `Ok` or `Err`.
    #[test]
    fn parse_trace_is_total_on_garbage_truncation_and_bit_flips() {
        let phases = vec![phase("plan", 0, 100), phase("run", 100, 900)];
        let runs = vec![run_span("C.t", 1), run_span("C.u", 255)];
        let valid = render_trace("HD", &phases, &runs);
        let exercise = |text: &str| {
            if let Ok(trace) = parse_trace(text) {
                let _ = validate_trace(&trace, Some(&[]));
                let _ = render_stats(std::slice::from_ref(&trace));
            }
        };
        for case in 0..256u64 {
            let mut rng = Rng::new(0x7ace_0000 + case);
            exercise(&gen_garbage(&mut rng, 200));
            exercise(&format!("{valid}{}", gen_garbage(&mut rng, 120)));

            let cut = rng.below(valid.len() as u64 + 1) as usize;
            exercise(&String::from_utf8_lossy(&valid.as_bytes()[..cut]));

            let mut flipped = valid.clone().into_bytes();
            let at = rng.below(flipped.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            exercise(&String::from_utf8_lossy(&flipped));
        }
        // The unmutated fixture itself parses: the sweep starts from a
        // valid trace, not from something the parser already rejects.
        assert!(parse_trace(&valid).is_ok());
    }

    #[test]
    fn stats_nest_steps_under_their_phase_and_total_phases_only() {
        // Completion order, as the recorder writes them: steps first.
        let trace = TraceFile {
            app: "HI".into(),
            phases: vec![
                phase("restore", 0, 1000),
                phase("profile.prefilter", 1000, 3000),
                phase("profile.baseline-exec", 3000, 4000),
                phase("profile", 1000, 4000),
            ],
            runs: Vec::new(),
        };
        let table = render_stats(std::slice::from_ref(&trace));
        assert!(table.contains("2 phase(s), 2 step(s)"), "{table}");
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert!(rows[0].starts_with("  restore "), "{table}");
        assert!(rows[1].starts_with("  profile "), "{table}");
        assert!(rows[2].starts_with("    profile.prefilter "), "{table}");
        assert!(rows[3].starts_with("    profile.baseline-exec "), "{table}");
        assert!(rows[2].ends_with("50.0%"), "{table}");
        assert!(
            rows[4].contains("total") && rows[4].ends_with("4.000"),
            "{table}"
        );
    }

    #[test]
    fn stats_rendering_mentions_every_phase() {
        let trace = TraceFile {
            app: "HD".into(),
            phases: vec![phase("plan", 0, 2000), phase("run", 2000, 10_000)],
            runs: vec![run_span("C.t", 1)],
        };
        let table = render_stats(std::slice::from_ref(&trace));
        assert!(table.contains("app HD"));
        assert!(table.contains("plan"));
        assert!(table.contains("run"));
        assert!(table.contains("total"));
        assert!(table.contains("runs: 1"));
    }
}
