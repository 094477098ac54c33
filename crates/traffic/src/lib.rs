//! # domino-traffic
//!
//! Traffic substrate for the DOMINO (CoNEXT'13) reproduction: packets and
//! flows ([`packet`]), bounded per-link MAC queues whose occupancy feeds
//! ROP reports ([`queue`]), constant-bit-rate UDP sources ([`udp`]), and a
//! Reno-style TCP-lite transport ([`tcp`]) for the paper's TCP
//! experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod packet;
pub mod queue;
pub mod tcp;
pub mod udp;

pub use packet::{FlowId, Packet, PacketId, PacketKind, DEFAULT_PACKET_BYTES, TCP_ACK_BYTES};
pub use queue::LinkQueue;
pub use tcp::{TcpReceiver, TcpSender};
pub use udp::UdpSource;
