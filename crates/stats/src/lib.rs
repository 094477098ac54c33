//! # domino-stats
//!
//! Measurement utilities for the DOMINO reproduction's evaluation:
//! a per-packet delay accumulator, Jain's fairness index (the paper's
//! fairness metric), empirical CDFs for Fig 14, and plain-text table
//! rendering for the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod fairness;
pub mod meters;
pub mod table;

pub use cdf::Cdf;
pub use fairness::jain_index;
pub use meters::DelayMeter;
pub use table::Table;
