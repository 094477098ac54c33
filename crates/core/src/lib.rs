//! # domino-core
//!
//! The public API of the DOMINO (CoNEXT'13) reproduction.
//!
//! DOMINO is a centralized MAC framework for enterprise WLANs built on
//! *relative scheduling*: wireless transmissions trigger other wireless
//! transmissions through Gold-code signature bursts, removing the need
//! for microsecond time synchronization between APs. This workspace
//! reproduces the paper's full system and evaluation; see `DESIGN.md` for
//! the system inventory and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! Quick start:
//!
//! ```
//! use domino_core::{Scheme, SimulationBuilder, scenarios};
//!
//! // The paper's Fig 1 motivation topology: a hidden and an exposed
//! // terminal relationship that DCF handles poorly.
//! let net = scenarios::fig1();
//! let builder = SimulationBuilder::new(net)
//!     .udp(2e6, 1e6)      // per-link offered rates
//!     .duration_s(0.2)
//!     .seed(42);
//! let domino = builder.run(Scheme::Domino);
//! let dcf = builder.run(Scheme::Dcf);
//! println!("DOMINO {:.1} Mb/s vs DCF {:.1} Mb/s",
//!          domino.aggregate_mbps(), dcf.aggregate_mbps());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod report;
pub mod scenarios;

pub use builder::{RunOpts, Scheme, SimulationBuilder};
pub use report::RunReport;

// Re-export the substrate crates a downstream user needs.
pub use domino_faults as faults;
pub use domino_faults::{FaultConfig, FaultStats};
pub use domino_mac as mac;
pub use domino_mac::{Checkpoints, RunStats, Workload};
pub use domino_medium as medium;
pub use domino_obs as obs;
pub use domino_obs::{MemTracer, ProfHandle, Probe, TraceEvent, TraceHandle};
pub use domino_phy as phy;
pub use domino_scheduler as scheduler;
pub use domino_sim as sim;
pub use domino_stats as stats;
pub use domino_topology as topology;
pub use domino_traffic as traffic;
pub use domino_wired as wired;
