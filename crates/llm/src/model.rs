//! The `LanguageModel` trait and API-usage accounting.

use crate::prompts::Prompt;

/// A yes/no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Affirmative.
    Yes,
    /// Negative.
    No,
}

impl Answer {
    /// Whether the answer is yes.
    pub fn is_yes(self) -> bool {
        self == Answer::Yes
    }
}

/// Cumulative API usage, mirroring the paper's cost accounting (§4.3):
/// number of calls, data volume, token count, and dollar cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// API calls made.
    pub calls: u64,
    /// Bytes sent across all calls.
    pub bytes_sent: u64,
    /// Prompt tokens (≈ bytes / 4.8, the paper's 16 MB ↔ 3.3 M tokens).
    pub tokens: u64,
}

/// Dollars per million prompt tokens. Calibrated so that the paper's median
/// per-application volume (3.3 M tokens) costs about 8 USD.
pub const USD_PER_MILLION_TOKENS: f64 = 2.4;

impl Usage {
    /// Records one call that sent `bytes` bytes.
    pub fn record(&mut self, bytes: usize) {
        self.calls += 1;
        self.bytes_sent += bytes as u64;
        // The paper's observed ratio: 16 MB ≈ 3.3 M tokens (~4.8 bytes per
        // token for code-heavy prompts).
        self.tokens += (bytes as u64 * 10) / 48;
    }

    /// Estimated dollar cost at [`USD_PER_MILLION_TOKENS`].
    pub fn cost_usd(&self) -> f64 {
        self.tokens as f64 / 1_000_000.0 * USD_PER_MILLION_TOKENS
    }

    /// Adds another usage record into this one.
    pub fn absorb(&mut self, other: &Usage) {
        self.calls += other.calls;
        self.bytes_sent += other.bytes_sent;
        self.tokens += other.tokens;
    }
}

/// An LLM that can answer WASABI's prompts.
///
/// The shipped implementation is [`crate::simulated::SimulatedLlm`], a
/// deterministic fuzzy-text-comprehension model; an API-backed client can
/// implement this trait without any other change to the pipeline.
pub trait LanguageModel {
    /// Answers a yes/no prompt (Q1–Q4).
    fn ask_yes_no(&mut self, prompt: &Prompt<'_>) -> Answer;

    /// Answers the Q1 follow-up: method names implementing retry.
    fn ask_methods(&mut self, prompt: &Prompt<'_>) -> Vec<String>;

    /// Cumulative usage so far.
    fn usage(&self) -> Usage;

    /// A fresh model for another worker of a sweep: the same seed and
    /// configuration, with no memory of earlier prompts and no usage.
    ///
    /// The sweep asks each worker's fork about whole files, Q1 first, so a
    /// model whose answers about a file depend only on that file's prompts
    /// (as [`SimulatedLlm`](crate::simulated::SimulatedLlm)'s do) answers
    /// through its forks exactly as it would alone.
    fn fork(&self) -> Box<dyn LanguageModel + Send>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_accumulates_and_prices() {
        let mut usage = Usage::default();
        usage.record(4800);
        usage.record(4800);
        assert_eq!(usage.calls, 2);
        assert_eq!(usage.bytes_sent, 9600);
        assert_eq!(usage.tokens, 2000);
        let cost = usage.cost_usd();
        assert!((cost - 2000.0 / 1e6 * USD_PER_MILLION_TOKENS).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_volume_costs_about_eight_dollars() {
        let mut usage = Usage::default();
        // 16 MB across ~2600 calls.
        for _ in 0..2600 {
            usage.record(16_000_000 / 2600);
        }
        assert!((usage.tokens as f64 - 3.33e6).abs() < 0.1e6, "tokens: {}", usage.tokens);
        assert!((usage.cost_usd() - 8.0).abs() < 0.5, "cost: {}", usage.cost_usd());
    }

    #[test]
    fn absorb_merges_usage() {
        let mut a = Usage::default();
        a.record(100);
        let mut b = Usage::default();
        b.record(200);
        a.absorb(&b);
        assert_eq!(a.calls, 2);
        assert_eq!(a.bytes_sent, 300);
    }
}
