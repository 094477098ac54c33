//! # domino-medium
//!
//! The shared-channel physics of the DOMINO (CoNEXT'13) reproduction's
//! network simulator: frame types ([`frames`]), the SINR/capture medium
//! with per-receiver worst-case interference tracking ([`medium`]), and
//! the calibrated detection models for signature bursts and ROP symbols
//! ([`signatures`]) whose numbers come from `domino-phy`'s sample-level
//! experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frames;
#[allow(clippy::module_inception)]
pub mod medium;
pub mod signatures;

pub use frames::{Burst, BurstMarker, Frame, FrameBody, InlineVec, BURST_CAP};
pub use medium::{Medium, Reception, TxId};
