//! # domino-mac
//!
//! The MAC-layer engines of the DOMINO (CoNEXT'13) reproduction. Four
//! channel-access schemes over the same medium, topology and traffic
//! substrates:
//!
//! * [`dcf`] — IEEE 802.11 DCF (CSMA/CA), the distributed baseline;
//! * [`centaur`] — the CENTAUR-style hybrid: centrally batched downlink
//!   epochs with carrier-sense alignment, DCF uplink;
//! * [`omniscient`] — an idealized, perfectly synchronized centralized
//!   scheduler (the upper bound of Fig 2);
//! * [`domino`] — the paper's contribution: relative scheduling executed
//!   through signature triggers, with ROP polling, fake-link keep-alives
//!   and missed-ACK retransmission.
//!
//! Each scheme is a [`World`]: one [`Plant`](plant::Plant) plus the
//! scheme's own state. [`run`](run::run) is the one driver that takes
//! any of them through faults, probes, checkpoints and restore.
//!
//! Shared pieces: [`plant`] (what every run has, whatever its scheme:
//! engine, medium, fault plane, flows, RTO timers, the end-of-run flush
//! and the shared head of every snapshot), [`timing`] (802.11g constants
//! and DOMINO slot geometry), [`workload`] (flow specs and run
//! statistics), [`flows`] (queues, transport and metering).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centaur;
pub mod dcf;
pub mod domino;
pub mod flows;
pub mod omniscient;
pub mod plant;
pub mod run;
pub mod timing;
pub mod workload;

pub use centaur::CentaurWorld;
pub use dcf::DcfWorld;
pub use domino::DominoWorld;
pub use omniscient::OmniWorld;
pub use run::{Checkpoints, RunInputs, World};
pub use workload::{FlowKind, FlowSpec, RunStats, Workload};
