#![forbid(unsafe_code)]
//! Experiment-reproduction support: plain-text table rendering and the
//! paper's reference numbers (shared by the `repro` binary and the
//! integration tests). Timing lives in the outside-in benchmark under
//! `examples/perf`, which includes `paper.rs` by path.

pub mod paper;
pub mod tables;
