//! # domino-bench
//!
//! Micro-benchmarks of the substrates (engine, PHY DSP, scheduling,
//! medium, controller scaling, end-to-end, lint), run via `cargo bench`
//! on the testkit harness (`TESTKIT_BENCH_JSON` writes machine-readable
//! results). The paper's tables and figures are regenerated by
//! `domino-run <name>` (see `domino_runner::experiments`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The crate's substance is in `benches/`; the library target exists so
// the doc above has a home.
