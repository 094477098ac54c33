//! # domino-topology
//!
//! Topology substrate for the DOMINO (CoNEXT'13) reproduction: nodes and
//! AP–client associations ([`node`], [`network`]), directed links
//! ([`link`]), pairwise RSS maps ([`rss`]), conflict graphs with
//! hidden/exposed classification ([`conflict`]), the synthetic 40-node
//! two-building trace that replaces the paper's measurement campaign
//! ([`trace`]), the paper's T(m, n) selection procedure and Fig 14
//! random-placement generator ([`builder`]), the hand-drawn example
//! topologies of Figs 1, 7 and 13 ([`presets`]), and the §5
//! conflict-map maintenance-overhead arithmetic ([`dynamics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod conflict;
pub mod dynamics;
pub mod inline;
pub mod link;
pub mod network;
pub mod node;
pub mod presets;
pub mod rss;
pub mod trace;

pub use conflict::{ConflictGraph, LinkMask, PairKind, PairStats};
pub use inline::InlineVec;
pub use link::{Direction, Link, LinkId};
pub use network::{Network, PhyParams};
pub use node::{Node, NodeId, NodeRole, Position};
pub use rss::RssMatrix;
