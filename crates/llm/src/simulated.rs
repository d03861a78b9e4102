//! A deterministic simulated LLM with calibrated imperfections.
//!
//! `SimulatedLlm` answers the WASABI prompts using only *non-structural*
//! evidence from the raw source text — identifier names, comments, string
//! literals, and keyword co-occurrence — never the AST. This mirrors the
//! paper's observation that fuzzy code comprehension finds retry where
//! program analysis cannot (queues, state machines, loops without keyword
//! names), and it reproduces GPT-4's documented error modes:
//!
//! - **recall cliff on large files** (§4.2: 100 retry loops missed, located
//!   in files ~2× the size of detected ones);
//! - **poll / spin-lock / retry-named-parameter false positives** (§4.2–4.3);
//! - **single-file blindness**: a delay implemented by a helper defined in a
//!   different file is invisible (§4.3);
//! - **occasional miscomprehension** of caps and delays (§4.3).
//!
//! All randomness is a pure function of `(seed, file path, question)`, so
//! every run over the same corpus gives identical answers.
//!
//! The model reads each file once, when Q1 sends it: [`read`] makes one
//! pass over the bytes and yields the whole file's [`TextSignals`] and
//! those of every method region. Q2–Q4 and the Q1 follow-up are answered
//! from that reading.

use crate::model::{Answer, LanguageModel, Usage};
use crate::prompts::{Prompt, Question};
use std::collections::HashMap;
use std::ops::Range;

#[cfg(test)]
mod oracle;

/// What the model "remembers" about a file after reading it once.
#[derive(Debug, Clone, Default)]
struct FileComprehension {
    signals: TextSignals,
    /// Methods whose body region reads like retry, in source order.
    retry_methods: Vec<String>,
}

/// Tunable error-rate profile for the simulated model.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// File size (bytes) beyond which the model starts missing retry.
    pub large_file_bytes: usize,
    /// How fast the miss probability grows past the threshold (bytes per
    /// +100% probability unit).
    pub miss_slope_bytes: usize,
    /// Upper bound on the large-file miss probability.
    pub max_miss_prob: f64,
    /// Probability of labeling a poll/spin file as retry (Q1 false
    /// positive).
    pub poll_fp_rate: f64,
    /// Probability of labeling a file that merely parses retry-named
    /// parameters as retry.
    pub param_fp_rate: f64,
    /// Probability of flipping a Yes answer to Q2/Q3 into No (manufactures
    /// a false WHEN finding — the paper's "miscomprehension" FP mode).
    pub flip_yes_rate: f64,
    /// Probability of flipping a No answer to Q2/Q3 into Yes (loses a true
    /// finding). Lower: the paper's detector errs toward over-reporting.
    pub flip_no_rate: f64,
    /// Probability Q4 fails to recognize poll behaviour it should exclude.
    pub q4_miss_rate: f64,
}

impl Default for SimProfile {
    fn default() -> Self {
        SimProfile {
            large_file_bytes: 6_000,
            miss_slope_bytes: 5_000,
            max_miss_prob: 0.95,
            poll_fp_rate: 0.35,
            param_fp_rate: 0.25,
            flip_yes_rate: 0.09,
            flip_no_rate: 0.03,
            q4_miss_rate: 0.45,
        }
    }
}

/// Non-structural signals read from raw source text.
///
/// Keywords match in any ASCII case. Only ASCII letters are case-folded: a
/// non-ASCII letter whose Unicode lowercase is ASCII (the Kelvin sign `K`,
/// for one) does not spell a keyword.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextSignals {
    /// Retry-family keyword anywhere (identifier, comment, or string).
    pub retry_keyword: bool,
    /// A `catch (` occurs.
    pub has_catch: bool,
    /// A loop keyword occurs.
    pub has_loop: bool,
    /// A queue re-enqueue (`.put(`/`.putDelayed(`) occurs *after* a catch.
    pub reenqueue_after_catch: bool,
    /// A `switch`/`case` state machine occurs.
    pub has_state_machine: bool,
    /// A sleep / delayed-scheduling call occurs.
    pub has_sleep: bool,
    /// A backoff/delay helper is *called*.
    pub calls_delay_helper: bool,
    /// A backoff/delay helper with a sleep is *defined in this file*.
    pub defines_delay_helper: bool,
    /// Poll / spin-lock / compare-and-set vocabulary occurs.
    pub has_poll: bool,
    /// A `<`/`>` lies within 48 bytes of a cap-ish word.
    pub has_cap_comparison: bool,
    /// Error-code vocabulary ("error code", "errcode", "err_") occurs.
    pub has_error_code: bool,
    /// Text size in bytes.
    pub bytes: usize,
}

impl TextSignals {
    /// The core fuzzy judgement: does this text *read* like it performs
    /// retry? Requires error checking (a catch) plus a re-execution shape.
    pub fn reads_like_retry(&self) -> bool {
        if !self.has_catch {
            return false;
        }
        // Queue re-enqueue after error handling reads as retry even without
        // the keyword; loops and state machines need the vocabulary.
        if self.reenqueue_after_catch {
            return true;
        }
        self.retry_keyword && (self.has_loop || self.has_state_machine)
    }

    /// Error-code retry: a loop that checks error codes and retries, with
    /// no exceptions involved (§4.2's untestable structures).
    pub fn reads_like_errcode_retry(&self) -> bool {
        self.retry_keyword && self.has_loop && self.has_error_code && !self.has_catch
    }
}

/// One method region of a file: the text from a `method NAME(` or
/// `test NAME(` declaration up to the next declaration or the end of the
/// file. This is a purely textual view; the declarations match in exact
/// case, and text before the first one belongs to no region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodRegion<'a> {
    /// The declared name.
    pub name: &'a str,
    /// The region's byte range in the file.
    pub span: Range<usize>,
    /// The signals of the region's text on its own.
    pub signals: TextSignals,
}

/// Everything the model takes from one reading of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading<'a> {
    /// The whole file's signals.
    pub signals: TextSignals,
    /// The method regions, in source order.
    pub methods: Vec<MethodRegion<'a>>,
}

/// How near (in bytes) a `<`/`>` must be to a cap-ish word to read as a cap.
const CAP_WINDOW: usize = 48;

// What an occurrence of a pattern tells the reader.
const RETRY: u16 = 1 << 0;
/// The bare word `catch`: the first one starts "catch, then `.put(`".
const CATCH: u16 = 1 << 1;
const CATCH_CLAUSE: u16 = 1 << 2;
const LOOP: u16 = 1 << 3;
const PUT: u16 = 1 << 4;
const SWITCH: u16 = 1 << 5;
const SLEEP: u16 = 1 << 6;
/// `sleep(` itself, which a delay helper's definition needs.
const SLEEP_CALL: u16 = 1 << 7;
const CALLS_DELAY: u16 = 1 << 8;
const DEFINES_DELAY: u16 = 1 << 9;
const POLL: u16 = 1 << 10;
const CAP_WORD: u16 = 1 << 11;
const ANGLE: u16 = 1 << 12;
const ERROR_CODE: u16 = 1 << 13;
/// A `method ` or `test ` declaration keyword, matched in exact case.
const DECL: u16 = 1 << 14;

/// Every pattern the reader looks for, in lower case, with what an
/// occurrence means. `retrying` needs no entry of its own: it contains
/// `retry`.
const PATTERNS: [(&[u8], u16); 43] = [
    (b"retry", RETRY),
    (b"retries", RETRY | CAP_WORD),
    (b"reattempt", RETRY),
    (b"resubmit", RETRY),
    (b"reschedule", RETRY),
    (b"catch", CATCH),
    (b"catch (", CATCH_CLAUSE),
    (b"catch(", CATCH_CLAUSE),
    (b"while (", LOOP),
    (b"while(", LOOP),
    (b"for (", LOOP),
    (b"for(", LOOP),
    (b".put(", PUT),
    (b".putdelayed(", PUT | SLEEP),
    (b"switch (", SWITCH),
    (b"switch(", SWITCH),
    (b"sleep(", SLEEP | SLEEP_CALL),
    (b"schedule", SLEEP),
    (b"backoff(", CALLS_DELAY),
    (b"delay(", CALLS_DELAY),
    (b"pause(", CALLS_DELAY),
    (b"waitquietly(", CALLS_DELAY),
    (b"method backoff", DEFINES_DELAY),
    (b"method delay", DEFINES_DELAY),
    (b"method pause", DEFINES_DELAY),
    (b"method waitquietly", DEFINES_DELAY),
    (b"poll", POLL),
    (b"compareandset", POLL),
    (b"spinlock", POLL),
    (b"spin_", POLL),
    (b"busywait", POLL),
    (b"max", CAP_WORD),
    (b"limit", CAP_WORD),
    (b"cap", CAP_WORD),
    (b"attempt", CAP_WORD),
    (b"budget", CAP_WORD),
    (b"error code", ERROR_CODE),
    (b"errcode", ERROR_CODE),
    (b"err_", ERROR_CODE),
    (b"<", ANGLE),
    (b">", ANGLE),
    (b"method ", DECL),
    (b"test ", DECL),
];

/// A 5-bit code per byte for the trigram filter: ASCII letters fold to
/// 1..=26, every other byte among the first three of some pattern gets a
/// code of its own, and all remaining bytes are 0. No pattern starts with
/// a byte of code 0.
const CODES: [u8; 256] = codes();
/// Bit `c0 << 10 | c1 << 5 | c2` is set when some pattern can start with
/// three bytes of codes `c0 c1 c2`; a pattern shorter than three bytes
/// allows any code past its end. 4 KB.
const TRIGRAMS: [u64; 512] = trigrams();
/// Bit `p` of `AT[b][k]` is set when byte `b` may stand at offset `k` of
/// `PATTERNS[p]`, in any ASCII case (or anywhere past the pattern's end).
/// 6 KB.
const AT: [[u64; 3]; 256] = at_offsets();

const fn codes() -> [u8; 256] {
    let mut codes = [0u8; 256];
    let mut letter = 0;
    while letter < 26 {
        codes[b'a' as usize + letter] = 1 + letter as u8;
        codes[b'A' as usize + letter] = 1 + letter as u8;
        letter += 1;
    }
    let mut next = 27;
    let mut p = 0;
    while p < PATTERNS.len() {
        let word = PATTERNS[p].0;
        let mut k = 0;
        while k < word.len() && k < 3 {
            if codes[word[k] as usize] == 0 {
                assert!(next < 32, "codes fit in 5 bits");
                codes[word[k] as usize] = next;
                next += 1;
            }
            k += 1;
        }
        p += 1;
    }
    codes
}

const fn trigrams() -> [u64; 512] {
    let mut bits = [0u64; 512];
    let mut p = 0;
    while p < PATTERNS.len() {
        let word = PATTERNS[p].0;
        let [(lo0, hi0), (lo1, hi1), (lo2, hi2)] =
            [codes_at(word, 0), codes_at(word, 1), codes_at(word, 2)];
        let mut c0 = lo0;
        while c0 < hi0 {
            let mut c1 = lo1;
            while c1 < hi1 {
                let mut c2 = lo2;
                while c2 < hi2 {
                    let key = c0 << 10 | c1 << 5 | c2;
                    bits[key >> 6] |= 1 << (key & 63);
                    c2 += 1;
                }
                c1 += 1;
            }
            c0 += 1;
        }
        p += 1;
    }
    bits
}

/// The range of codes `word` allows at offset `k`: its own byte's, or any
/// past its end.
const fn codes_at(word: &[u8], k: usize) -> (usize, usize) {
    if k < word.len() {
        let code = CODES[word[k] as usize] as usize;
        (code, code + 1)
    } else {
        (0, 32)
    }
}

const fn at_offsets() -> [[u64; 3]; 256] {
    assert!(PATTERNS.len() <= 64, "one bit per pattern");
    let mut table = [[0u64; 3]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut k = 0;
        while k < 3 {
            let mut p = 0;
            while p < PATTERNS.len() {
                let word = PATTERNS[p].0;
                if k >= word.len() || word[k] == (byte as u8).to_ascii_lowercase() {
                    table[byte][k] |= 1 << p;
                }
                p += 1;
            }
            k += 1;
        }
        byte += 1;
    }
    table
}

/// One pattern occurrence: where it starts and which `PATTERNS` entry.
#[derive(Debug, Clone, Copy)]
struct Hit {
    at: usize,
    pattern: usize,
}

/// Reads a file in one pass over its bytes, then folds what the pass saw
/// into the whole file's signals and each method region's.
///
/// The pass records every pattern occurrence and every method declaration;
/// the text is scanned once and no region is copied. In a region, an
/// occurrence counts only when it lies wholly inside the region, "catch,
/// then `.put(`" starts at the region's first `catch`, and the cap window
/// is clipped to the region. Total on any UTF-8 text.
pub fn read(text: &str) -> Reading<'_> {
    let bytes = text.as_bytes();
    let mut hits = Vec::new();
    let mut decls: Vec<(usize, &str)> = Vec::new();
    // Matches every pattern that can start at `at` (its first three bytes
    // passed the filter) against the text.
    let mut match_at = |at: usize| {
        let byte = |k: usize| bytes.get(at + k).map_or(0, |&b| b as usize);
        let mut candidates = AT[byte(0)][0] & AT[byte(1)][1] & AT[byte(2)][2];
        while candidates != 0 {
            let pattern = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let (word, meaning) = PATTERNS[pattern];
            let Some(found) = bytes.get(at..at + word.len()) else {
                continue;
            };
            if meaning == DECL {
                // The keyword is ASCII, so `at + word.len()` is a char boundary.
                if found == word {
                    if let Some(name) = declared_name(&text[at + word.len()..]) {
                        decls.push((at, name));
                    }
                }
            } else if found.eq_ignore_ascii_case(word) {
                hits.push(Hit { at, pattern });
            }
        }
    };
    // `key` holds the codes of the three bytes that end at `end`. Two code-0
    // bytes past the text let its last two positions through; a key that
    // reaches before the text starts with code 0 and never passes.
    let mut key = 0;
    let codes = bytes.iter().map(|&b| CODES[b as usize] as usize);
    for (end, code) in codes.enumerate() {
        key = (key << 5 | code) & 0x7fff;
        if TRIGRAMS[key >> 6] >> (key & 63) & 1 != 0 {
            match_at(end - 2);
        }
    }
    for end in bytes.len()..bytes.len() + 2 {
        key = key << 5 & 0x7fff;
        if TRIGRAMS[key >> 6] >> (key & 63) & 1 != 0 {
            match_at(end - 2);
        }
    }
    let signals = fold(&hits, 0..bytes.len());
    let mut methods = Vec::with_capacity(decls.len());
    let mut rest = hits.as_slice();
    for (k, &(start, name)) in decls.iter().enumerate() {
        let end = decls.get(k + 1).map_or(bytes.len(), |&(next, _)| next);
        rest = &rest[rest.partition_point(|hit| hit.at < start)..];
        let inside = rest.partition_point(|hit| hit.at < end);
        methods.push(MethodRegion {
            name,
            span: start..end,
            signals: fold(&rest[..inside], start..end),
        });
        rest = &rest[inside..];
    }
    Reading { signals, methods }
}

/// The name after a declaration keyword, when the text goes on `NAME (`.
fn declared_name(rest: &str) -> Option<&str> {
    let len = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '$'))
        .unwrap_or(rest.len());
    (len > 0 && rest[len..].trim_start().starts_with('(')).then(|| &rest[..len])
}

/// Folds the occurrences that start inside `span` into the signals of the
/// span's text. An occurrence that runs past the span's end is not in it.
fn fold(hits: &[Hit], span: Range<usize>) -> TextSignals {
    let mut seen = 0u16;
    let mut first_catch = None;
    let mut last_put = None;
    let mut last_cap_word: Option<usize> = None;
    let mut last_angle: Option<usize> = None;
    let mut cap_comparison = false;
    for hit in hits {
        let (word, meaning) = PATTERNS[hit.pattern];
        let end = hit.at + word.len();
        if end > span.end {
            continue;
        }
        seen |= meaning;
        if meaning & CATCH != 0 && first_catch.is_none() {
            first_catch = Some(hit.at);
        }
        if meaning & PUT != 0 {
            last_put = Some(hit.at);
        }
        // Cap-ish words are letters only and never overlap each other, so
        // a word before a `<` ends before it, and the nearest word on
        // either side is the one to test against the window.
        if meaning & ANGLE != 0 {
            cap_comparison |= last_cap_word.is_some_and(|at| at + CAP_WINDOW >= hit.at);
            last_angle = Some(hit.at);
        }
        if meaning & CAP_WORD != 0 {
            cap_comparison |= last_angle.is_some_and(|at| end <= at + CAP_WINDOW);
            last_cap_word = Some(hit.at);
        }
    }
    let has = |bits: u16| seen & bits != 0;
    TextSignals {
        retry_keyword: has(RETRY),
        has_catch: has(CATCH_CLAUSE),
        has_loop: has(LOOP),
        reenqueue_after_catch: matches!((first_catch, last_put), (Some(c), Some(p)) if p >= c),
        has_state_machine: has(SWITCH),
        has_sleep: has(SLEEP),
        calls_delay_helper: has(CALLS_DELAY),
        defines_delay_helper: has(DEFINES_DELAY) && has(SLEEP_CALL),
        has_poll: has(POLL),
        has_cap_comparison: cap_comparison,
        has_error_code: has(ERROR_CODE),
        bytes: span.len(),
    }
}

/// The deterministic simulated LLM.
pub struct SimulatedLlm {
    seed: u64,
    profile: SimProfile,
    usage: Usage,
    /// Per-file comprehension cache (Q2–Q4 refer to the file sent with Q1).
    memory: HashMap<String, FileComprehension>,
}

impl SimulatedLlm {
    /// Creates a model with the given seed and error profile.
    pub fn new(seed: u64, profile: SimProfile) -> Self {
        SimulatedLlm {
            seed,
            profile,
            usage: Usage::default(),
            memory: HashMap::new(),
        }
    }

    /// Creates a model with the default profile.
    pub fn with_seed(seed: u64) -> Self {
        SimulatedLlm::new(seed, SimProfile::default())
    }

    /// Deterministic pseudo-random draw in `[0, 1)` keyed by file and tag.
    fn draw(&self, file_path: &str, tag: &str) -> f64 {
        // FNV-1a over (seed, path, tag).
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut mix = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        };
        for byte in self.seed.to_le_bytes() {
            mix(byte);
        }
        for byte in file_path.bytes() {
            mix(byte);
        }
        for byte in tag.bytes() {
            mix(byte);
        }
        // One extra scramble round for avalanche.
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51afd7ed558ccd);
        hash ^= hash >> 33;
        (hash >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&self, file_path: &str, tag: &str, probability: f64) -> bool {
        self.draw(file_path, tag) < probability
    }

    fn large_file_miss(&self, file_path: &str, bytes: usize) -> bool {
        if bytes <= self.profile.large_file_bytes {
            return false;
        }
        let over = (bytes - self.profile.large_file_bytes) as f64;
        let prob = (over / self.profile.miss_slope_bytes as f64).min(self.profile.max_miss_prob);
        self.chance(file_path, "large-file-miss", prob)
    }

    /// Reads the file a prompt carries (once, in [`read`]) into the
    /// per-file memory, and returns the memory of the prompt's file.
    fn signals_for(&mut self, prompt: &Prompt<'_>) -> TextSignals {
        if !prompt.file_contents.is_empty() {
            let reading = read(prompt.file_contents);
            let retry_methods = reading
                .methods
                .iter()
                .filter(|m| m.signals.reads_like_retry() || m.signals.reads_like_errcode_retry())
                .map(|m| m.name.to_string())
                .collect();
            self.memory.insert(
                prompt.file_path.to_string(),
                FileComprehension {
                    signals: reading.signals,
                    retry_methods,
                },
            );
        }
        self.memory
            .get(prompt.file_path)
            .map(|c| c.signals)
            .unwrap_or_default()
    }

    fn answer_q1(&mut self, prompt: &Prompt<'_>) -> Answer {
        let signals = self.signals_for(prompt);
        if signals.reads_like_retry() || signals.reads_like_errcode_retry() {
            // Large files overwhelm the model: it misses the retry entirely.
            if self.large_file_miss(prompt.file_path, signals.bytes) {
                return Answer::No;
            }
            return Answer::Yes;
        }
        // False-positive modes: poll/spin loops and retry-named parameter
        // parsing sometimes read like retry.
        if signals.has_poll
            && signals.has_loop
            && self.chance(prompt.file_path, "poll-fp", self.profile.poll_fp_rate)
        {
            return Answer::Yes;
        }
        if !(signals.has_poll && signals.has_loop)
            && signals.retry_keyword
            && !signals.has_catch
            && self.chance(prompt.file_path, "param-fp", self.profile.param_fp_rate)
        {
            return Answer::Yes;
        }
        Answer::No
    }

    fn answer_q2(&mut self, prompt: &Prompt<'_>) -> Answer {
        let signals = self.signals_for(prompt);
        let mut saw_delay = signals.has_sleep;
        // Single-file blindness: a called delay helper only counts when its
        // definition (with the sleep) is in this same file.
        if !saw_delay && signals.calls_delay_helper && signals.defines_delay_helper {
            saw_delay = true;
        }
        let answer = if saw_delay { Answer::Yes } else { Answer::No };
        self.maybe_flip(prompt.file_path, "q2-flip", answer)
    }

    /// Applies the asymmetric miscomprehension noise.
    fn maybe_flip(&self, file_path: &str, tag: &str, answer: Answer) -> Answer {
        let rate = match answer {
            Answer::Yes => self.profile.flip_yes_rate,
            Answer::No => self.profile.flip_no_rate,
        };
        if self.chance(file_path, tag, rate) {
            flip(answer)
        } else {
            answer
        }
    }

    fn answer_q3(&mut self, prompt: &Prompt<'_>) -> Answer {
        let signals = self.signals_for(prompt);
        let answer = if signals.has_cap_comparison {
            Answer::Yes
        } else {
            Answer::No
        };
        self.maybe_flip(prompt.file_path, "q3-flip", answer)
    }

    fn answer_q4(&mut self, prompt: &Prompt<'_>) -> Answer {
        let signals = self.signals_for(prompt);
        if signals.has_poll {
            // Should say Yes (exclude), but sometimes fails to.
            if self.chance(prompt.file_path, "q4-miss", self.profile.q4_miss_rate) {
                return Answer::No;
            }
            return Answer::Yes;
        }
        Answer::No
    }

    fn answer_methods(&mut self, prompt: &Prompt<'_>) -> Vec<String> {
        self.memory
            .get(prompt.file_path)
            .map(|c| c.retry_methods.clone())
            .unwrap_or_default()
    }
}

fn flip(answer: Answer) -> Answer {
    match answer {
        Answer::Yes => Answer::No,
        Answer::No => Answer::Yes,
    }
}

impl LanguageModel for SimulatedLlm {
    fn ask_yes_no(&mut self, prompt: &Prompt<'_>) -> Answer {
        self.usage.record(prompt.chars_sent());
        match prompt.question {
            Question::PerformsRetry => self.answer_q1(prompt),
            Question::SleepsBeforeRetry => self.answer_q2(prompt),
            Question::HasCap => self.answer_q3(prompt),
            Question::PollOrSpin => self.answer_q4(prompt),
            Question::WhichMethods => Answer::No,
        }
    }

    fn ask_methods(&mut self, prompt: &Prompt<'_>) -> Vec<String> {
        self.usage.record(prompt.chars_sent());
        self.answer_methods(prompt)
    }

    fn usage(&self) -> Usage {
        self.usage
    }

    fn fork(&self) -> Box<dyn LanguageModel + Send> {
        Box::new(SimulatedLlm::new(self.seed, self.profile.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts;

    #[test]
    fn signals_detect_loop_retry_vocabulary() {
        let s = read(
            "class C { method run() { for (var retry = 0; retry < max; retry = retry + 1) { \
             try { this.op(); } catch (E e) { sleep(10); } } } }",
        )
        .signals;
        assert!(s.retry_keyword && s.has_catch && s.has_loop);
        assert!(s.has_sleep && s.has_cap_comparison);
        assert!(s.reads_like_retry());
    }

    #[test]
    fn queue_reenqueue_reads_like_retry_without_keyword() {
        let s = read(
            "class P { method run(q) { while (!q.isEmpty()) { var t = q.take(); \
             try { t.execute(); } catch (E e) { q.put(t); } } } }",
        )
        .signals;
        assert!(!s.retry_keyword);
        assert!(s.reenqueue_after_catch);
        assert!(s.reads_like_retry());
    }

    #[test]
    fn policy_definition_does_not_read_like_retry() {
        let s = read(
            "class RetrySettingsBuilder { method build(maxRetries) { return new Policy(maxRetries); } }",
        )
        .signals;
        assert!(s.retry_keyword);
        assert!(!s.has_catch);
        assert!(!s.reads_like_retry());
    }

    #[test]
    fn comments_count_as_evidence() {
        // No retry-named identifiers — only a comment.
        let s = read(
            "class C { method run() { // keep retrying until the broker comes back\n\
             while (true) { try { this.op(); } catch (E e) { } } } }",
        )
        .signals;
        assert!(s.retry_keyword);
        assert!(s.reads_like_retry());
    }

    #[test]
    fn large_files_get_missed_often() {
        let retry_core = "method run() { for (var retry = 0; retry < 9; retry = retry + 1) { \
             try { this.op(); } catch (E e) { sleep(1); } } return null; }";
        let padding = "// unrelated helper code follows\n".repeat(400); // ~12 KB
        let large = format!("class C {{ {retry_core} }}\n{padding}");
        let small = format!("class C {{ {retry_core} }}");
        let mut missed = 0;
        let mut small_missed = 0;
        for seed in 0..100 {
            let mut llm = SimulatedLlm::with_seed(seed);
            let big_path = format!("big{seed}.jav");
            if !llm.ask_yes_no(&prompts::q1_performs_retry(&big_path, &large)).is_yes() {
                missed += 1;
            }
            let small_path = format!("small{seed}.jav");
            if !llm.ask_yes_no(&prompts::q1_performs_retry(&small_path, &small)).is_yes() {
                small_missed += 1;
            }
        }
        assert!(missed > 50, "large files should be missed often, got {missed}/100");
        assert_eq!(small_missed, 0, "small files should always be found");
    }

    #[test]
    fn poll_files_are_sometimes_false_positives() {
        let poll = "class Monitor { method watch() { while (true) { \
             var status = this.pollStatus(); if (status == \"done\") { break; } } } \
             method pollStatus() { return \"busy\"; } }";
        let mut yes = 0;
        for seed in 0..200 {
            let mut llm = SimulatedLlm::with_seed(seed);
            let path = format!("poll{seed}.jav");
            if llm.ask_yes_no(&prompts::q1_performs_retry(&path, poll)).is_yes() {
                yes += 1;
            }
        }
        assert!(yes > 30 && yes < 140, "poll FP rate should be moderate, got {yes}/200");
    }

    #[test]
    fn helper_sleep_in_same_file_is_seen_but_not_cross_file() {
        let with_helper = "class C { method run() { while (true) { try { this.op(); } \
             catch (E e) { this.backoff(1); } } } // retry helper\n\
             method backoff(n) { sleep(100 * n); } }";
        let without_helper = "class C { method run() { while (true) { try { this.op(); } \
             catch (E e) { this.backoff(1); } } } // retry helper defined elsewhere\n }";
        let mut llm = SimulatedLlm::new(3, SimProfile { flip_yes_rate: 0.0, ..SimProfile::default() });
        let q1 = prompts::q1_performs_retry("with.jav", with_helper);
        assert!(llm.ask_yes_no(&q1).is_yes());
        assert!(llm.ask_yes_no(&prompts::q2_sleeps_before_retry("with.jav")).is_yes());
        let q1b = prompts::q1_performs_retry("without.jav", without_helper);
        assert!(llm.ask_yes_no(&q1b).is_yes());
        assert!(
            !llm.ask_yes_no(&prompts::q2_sleeps_before_retry("without.jav")).is_yes(),
            "single-file blindness: helper sleep in another file is invisible"
        );
    }

    /// The one-pass reading equals the oracle's on every file of the eight
    /// small apps with both seed families, for the whole file and for every
    /// method region.
    #[test]
    fn reading_matches_the_oracle_on_the_corpus() {
        use wasabi_corpus::spec::{paper_apps, Scale};
        use wasabi_corpus::synth::{append_policy_seeds, generate_app_with_amp};
        let mut files = 0;
        for spec in paper_apps() {
            let mut app = generate_app_with_amp(&spec, Scale::Small);
            append_policy_seeds(&mut app);
            for (path, text) in &app.files {
                oracle::assert_agrees(&format!("{}/{path}", spec.short), text);
                files += 1;
            }
        }
        assert!(files > 1000, "only {files} files");
    }

    /// The file that once split a `€` when cutting the cap window.
    #[test]
    fn reading_is_total_on_multibyte_text_near_a_comparison() {
        let text = format!("class C {{ // €{}< max\n method m() {{ }} }}", "x".repeat(46));
        let reading = read(&text);
        assert!(reading.signals.has_cap_comparison);
        assert_eq!(reading.methods.len(), 1);
    }

    /// Keywords match in any ASCII case, but only ASCII letters fold: the
    /// Kelvin sign lower-cases to `k` in Unicode yet spells no `backoff(`.
    #[test]
    fn case_folding_is_ascii_only() {
        assert!(read("this.BackOff(1);").signals.calls_delay_helper);
        let kelvin = "this.bac\u{212a}off(1);";
        assert!(oracle::extract(kelvin).calls_delay_helper);
        assert!(!read(kelvin).signals.calls_delay_helper);
    }

    #[test]
    fn method_regions_split_by_declaration() {
        let text =
            "class C { method a() { return 1; } method b(x) { return x; } test tC() { assert(true); } }";
        let regions = read(text).methods;
        let names: Vec<&str> = regions.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["a", "b", "tC"]);
        let first = &text[regions[0].span.clone()];
        assert!(first.contains("return 1"));
        assert!(!first.contains("return x"));
        assert_eq!(regions[2].span.end, text.len());
    }

    #[test]
    fn answers_are_deterministic_per_seed_and_differ_across_seeds() {
        let poll = "class M { method watch() { while (true) { var s = this.poll(); \
             if (s == 1) { break; } } } method poll() { return 1; } }";
        let ask = |seed: u64, path: &str| {
            let mut llm = SimulatedLlm::with_seed(seed);
            llm.ask_yes_no(&prompts::q1_performs_retry(path, poll)).is_yes()
        };
        for path in ["a.jav", "b.jav", "c.jav"] {
            assert_eq!(ask(1, path), ask(1, path));
        }
        // Across 64 paths, at least one seed-1 vs seed-2 disagreement.
        let disagree = (0..64).any(|i| {
            let path = format!("f{i}.jav");
            ask(1, &path) != ask(2, &path)
        });
        assert!(disagree, "different seeds should not be identical everywhere");
    }

    #[test]
    fn usage_is_tracked_per_call() {
        let mut llm = SimulatedLlm::with_seed(0);
        let q1 = prompts::q1_performs_retry("a.jav", "class A { }");
        llm.ask_yes_no(&q1);
        llm.ask_yes_no(&prompts::q3_has_cap("a.jav"));
        let usage = llm.usage();
        assert_eq!(usage.calls, 2);
        assert!(usage.bytes_sent as usize > q1.file_contents.len());
    }
}
