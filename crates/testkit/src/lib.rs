//! # domino-testkit
//!
//! The in-tree test and measurement substrate of the DOMINO reproduction.
//! It exists so the workspace builds and verifies **hermetically** — with no
//! registry access at all — and has three parts:
//!
//! * [`rng`] — the workspace's only PRNG: xoshiro256++ seeded through
//!   SplitMix64 `(master_seed, stream)` derivation, with uniform / range /
//!   Box–Muller normal / exponential / shuffle APIs. `domino-sim` re-exports
//!   [`rng::Rng`] as `SimRng`; every stochastic subsystem draws from it.
//! * [`prop`] — a property-testing harness (replaces `proptest`): seeded
//!   case generation, configurable case counts, and Hypothesis-style
//!   choice-sequence shrinking with [`prop::replay`] for pinning regressions.
//! * [`bench`](mod@bench) — a wall-clock benchmark harness (replaces `criterion`):
//!   warmup + calibrated samples, median/p95 reporting, JSON output.
//! * [`digest`] — hand-rolled SHA-256 (replaces `sha2`): the content
//!   digest behind the campaign result cache's keys and verified reads.
//!
//! This crate must never grow a dependency, in-workspace or external: it is
//! below `domino-sim` in the crate DAG and is the guarantee that
//! `cargo build --release && cargo test -q` needs nothing but the toolchain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod digest;
pub mod prop;
pub mod rng;

pub use rng::Rng;
