//! The WASABI prompts (paper Figure 2).
//!
//! Prompt texts are reproduced from the paper; the file contents are
//! appended when the question is about a specific file.

use std::fmt;

/// Which question a prompt asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Question {
    /// Q1: does the file perform retry anywhere?
    PerformsRetry,
    /// Q1 follow-up: which methods implement the retry?
    WhichMethods,
    /// Q2: does the code sleep before retrying or resubmitting?
    SleepsBeforeRetry,
    /// Q3: is there a cap or time limit on retry attempts?
    HasCap,
    /// Q4: is this poll / spin-lock behaviour rather than retry?
    PollOrSpin,
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Question::PerformsRetry => write!(f, "Q1"),
            Question::WhichMethods => write!(f, "Q1-followup"),
            Question::SleepsBeforeRetry => write!(f, "Q2"),
            Question::HasCap => write!(f, "Q3"),
            Question::PollOrSpin => write!(f, "Q4"),
        }
    }
}

/// A fully-rendered prompt: question text plus the source file it is about.
/// It borrows all three texts, so sending a file copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct Prompt<'a> {
    /// The question asked.
    pub question: Question,
    /// Path of the file under discussion.
    pub file_path: &'a str,
    /// The question text (without the file contents).
    pub instruction: &'a str,
    /// The file contents sent along with the question.
    pub file_contents: &'a str,
}

impl Prompt<'_> {
    /// Total characters sent for this prompt (instruction + contents).
    pub fn chars_sent(&self) -> usize {
        self.instruction.len() + self.file_contents.len()
    }
}

/// Q1 — retry identification (sent with the whole file).
pub fn q1_performs_retry<'a>(file_path: &'a str, contents: &'a str) -> Prompt<'a> {
    Prompt {
        question: Question::PerformsRetry,
        file_path,
        instruction: "Q1. Does the following code perform retry anywhere? Answer (Yes) or (No).\n\
            - Say NO if the file only _defines_ or _creates_ retry policies, or only passes \
            retry parameters to other builders/constructors.\n\
            - Say NO if the file does not check for exceptions or errors before retry.\n\
            **Remember that retry mechanisms can be implemented through for or while loops \
            or data structures like state machines and queues.**",
        file_contents: contents,
    }
}

/// Q1 follow-up — which methods implement the retry (conversation continues,
/// the file is already in context, so only the question is re-sent).
pub fn q1_which_methods(file_path: &str) -> Prompt<'_> {
    Prompt {
        question: Question::WhichMethods,
        file_path,
        instruction: "Which methods in this file implement the retry behaviour? \
            List the method names only.",
        file_contents: "",
    }
}

/// Q2 — delay detection.
pub fn q2_sleeps_before_retry(file_path: &str) -> Prompt<'_> {
    Prompt {
        question: Question::SleepsBeforeRetry,
        file_path,
        instruction: "Q2. Does the code sleep before retrying or resubmitting the request? \
            Answer (Yes) or (No).\n\
            **Remember that delay might be implemented through scheduling after an interval \
            or some other mechanism.**",
        file_contents: "",
    }
}

/// Q3 — cap detection.
pub fn q3_has_cap(file_path: &str) -> Prompt<'_> {
    Prompt {
        question: Question::HasCap,
        file_path,
        instruction: "Q3. Does the code have a cap OR time limit on the number of times a \
            request is retried or resubmitted? Answer (Yes) or (No).\n\
            **Remember that timeouts or caps should be specifically applied to retry and \
            not other behaviors.**",
        file_contents: "",
    }
}

/// Q4 — poll / spin-lock exclusion.
pub fn q4_poll_or_spin(file_path: &str) -> Prompt<'_> {
    Prompt {
        question: Question::PollOrSpin,
        file_path,
        instruction: "Q4. Do any of the retry-containing methods either call \
            \"compareAndSet\" or contain poll-related behavior? Answer (Yes) or (No).",
        file_contents: "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_carries_file_contents() {
        let p = q1_performs_retry("a.jav", "class A { }");
        assert_eq!(p.question, Question::PerformsRetry);
        assert!(p.instruction.contains("state machines and queues"));
        assert_eq!(p.file_contents, "class A { }");
        assert!(p.chars_sent() > p.instruction.len());
    }

    #[test]
    fn followups_do_not_resend_the_file() {
        for p in [
            q1_which_methods("a.jav"),
            q2_sleeps_before_retry("a.jav"),
            q3_has_cap("a.jav"),
            q4_poll_or_spin("a.jav"),
        ] {
            assert!(p.file_contents.is_empty());
            assert_eq!(p.file_path, "a.jav");
        }
    }

    #[test]
    fn question_labels_match_figure_2() {
        assert_eq!(Question::PerformsRetry.to_string(), "Q1");
        assert_eq!(Question::SleepsBeforeRetry.to_string(), "Q2");
        assert_eq!(Question::HasCap.to_string(), "Q3");
        assert_eq!(Question::PollOrSpin.to_string(), "Q4");
    }
}
