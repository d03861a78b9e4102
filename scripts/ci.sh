#!/usr/bin/env bash
# CI entry point. Stages 1, 3-4 and 6-12: the workspace has no cargo
# features, so there is no all-features stage 2, and the lint-baseline
# check that was stage 5 runs inside stage 10.
#
#   1. tier-1: the gate every change must pass — release build + full test
#      suite, exactly what `cargo tier1` runs. Also runs `cargo clippy
#      --workspace --all-targets -- -D warnings` and `cargo doc` with
#      rustdoc warnings denied: every crate of the workspace is lint-clean,
#      and no doc link dangles or points at a private item.
#   3. resilience smoke: a --jobs 4 campaign must report
#      byte-identically to the serial run, a kill-and-resume round-trip
#      (journal cut mid-line, then --resume) must report byte-identically
#      to the uninterrupted baseline, and a campaign recorded with
#      --trace-out must pass `wasabi stats` validation against its
#      journal (schema, closed spans, injection counts).
#   4. digest + benchmark smoke: the seed-corpus `wasabi test --json`
#      reports must match the recorded digest
#      (scripts/seed_report_digest.txt) — the compile-once
#      interning/index layer must never change observable output — and a
#      short traced run of the outside-in benchmark (examples/perf, the
#      command BENCHMARK.json names) must pass: every workload's verdict
#      checks hold and each job's spans tile at least 90% of the job. A
#      second short run at seed 7 permutes the job order and every file
#      list, so the parse workers' reused scratch buffers and the index
#      built on first use meet orders seed 0 never gives them, under the
#      same verdict checks.
#   6. serve smoke: a `wasabi serve` daemon on a loopback port must
#      answer two submissions of the seed app with byte-identical
#      reports whose digest equals the batch value pinned in
#      scripts/seed_report_digest.txt, and the second submission must
#      be a compiled-app cache hit.
#   7. chaos shard smoke: the seed app as a 4-shard multi-process
#      campaign with one shard chaos-killed mid-flight must recover and
#      merge to the exact single-process report bytes (digest-pinned),
#      `wasabi merge` must reproduce them offline from the shard
#      directory, again after an empty `dlq.jsonl` (what a supervisor
#      killed while creating it leaves) is written into it, and a
#      same-chaos-seed rerun must be byte-identical.
#   8. adaptive gate: `wasabi test --adaptive` over all eight corpus
#      apps must report the exact fixed-grid bug set while executing at
#      least 40% fewer runs in aggregate (writes BENCH_PR8.json).
#   9. repair gate: `wasabi repair` over all eight corpus apps (small
#      scale, amplification seeds included) must fix at least 80% of the
#      fixable seeded W001/W002/A001 bugs — in aggregate and per class —
#      within the default 3 attempts, with byte-identical reports for
#      --jobs 1 and --jobs 4 (writes BENCH_PR9.json).
#  10. lint gate: `wasabi lint --json --cross-check` over all eight
#      corpus apps (small scale, amplification and policy seeds included)
#      must be byte-identical on one core (`taskset -c 0`, so the parse,
#      the LLM sweep and the link's validation run on the caller's thread
#      alone, and the checkers, index build first, run before the sweep
#      rather than beside it) and on all cores, the
#      W004/W005/W006 findings must score at least 0.9 precision and
#      recall per code against the policy_truth.json sidecars, and HD and
#      MA with the amplification seeds alone must report nothing outside
#      the checked-in baseline (scripts/lint_baseline.txt; writes
#      BENCH_PR10.json).
#  11. paper gate: the stdout of `repro --scale paper all` must equal
#      repro_paper_output.txt byte for byte, so the paper numbers that
#      EXPERIMENTS.md quotes (Tables 3-6, the section 4.3 cost table)
#      cannot drift.
#  12. front-end gate: in release, the printer's output over every file
#      of the eight paper-scale apps (amplification and policy seeds
#      included), a canonical dump of each app's ProgramIndex, and per app
#      the call graph, the method summaries and the lint output must hash
#      to the values pinned in tests/frontend_pins.rs (the default test
#      suite checks the same at small scale). It runs on all cores and
#      again under `taskset -c 0`, so neither the fan-out of the parse
#      (each worker through its own reused scratch), the validation and
#      the sweep nor the index built on first use moves a byte; and every
#      paper app must be large enough to validate on two threads, every
#      small app small enough to validate on one.
#
# Everything resolves offline: the workspace has no registry dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== stage 1: tier-1 (build, tests, clippy, rustdoc) =="
cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== stage 3: resilience smoke =="
cargo xtask smoke

echo "== stage 4: report digest + short traced benchmark run =="
cargo xtask digest
cargo run --release --offline --quiet --manifest-path examples/perf/Cargo.toml -- --seconds 1 --trace 1
cargo run --release --offline --quiet --manifest-path examples/perf/Cargo.toml -- --seconds 1 --seed 7

echo "== stage 6: serve smoke (daemon vs batch digest, cache hit) =="
cargo xtask serve-smoke

echo "== stage 7: chaos shard smoke (killed shard recovers, digest-pinned merge, empty DLQ merges) =="
cargo xtask chaos-shard-smoke

echo "== stage 8: adaptive gate (fixed-grid recall at reduced budget) =="
cargo xtask adaptive-gate

echo "== stage 9: repair gate (auto-repair fix rate vs seeded ground truth) =="
cargo xtask repair-gate

echo "== stage 10: lint gate (W004-W006 precision/recall, cross-check matrix, baseline) =="
cargo xtask lint-gate

echo "== stage 11: paper gate (repro --scale paper all vs repro_paper_output.txt) =="
cargo xtask paper-gate

echo "== stage 12: front-end gate (paper-scale printer, ProgramIndex and analysis digests) =="
cargo xtask frontend-gate

echo "== ci: all stages passed =="
