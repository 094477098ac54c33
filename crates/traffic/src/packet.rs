//! Packets and flows.

use domino_sim::SimTime;
use domino_topology::LinkId;

/// Globally unique packet identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId(pub u64);

/// Flow identifier (one flow per directed link in the paper's workloads).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

/// What a packet carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// UDP payload.
    Udp,
    /// TCP data segment; `seq` is meaningful.
    TcpData,
    /// TCP cumulative acknowledgment; `seq` holds the ack number.
    TcpAck,
}

/// A network-layer packet traversing one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Originating flow.
    pub flow: FlowId,
    /// The directed link this packet must traverse.
    pub link: LinkId,
    /// Payload size in bytes (the paper's evaluation uses 512-byte data
    /// packets).
    pub payload_bytes: usize,
    /// Enqueue time, for delay accounting ("from the time a packet is
    /// queued to the time it is successfully delivered", §4.2.4).
    pub created_at: SimTime,
    /// Payload kind.
    pub kind: PacketKind,
    /// TCP sequence/ack number in MSS units (0 for UDP).
    pub seq: u64,
}

impl Packet {
    /// True for TCP data segments (the only packets counted toward TCP
    /// goodput).
    pub fn counts_toward_goodput(&self) -> bool {
        matches!(self.kind, PacketKind::Udp | PacketKind::TcpData)
    }
}

domino_sim::snap_value!(PacketId(u64));
domino_sim::snap_value!(FlowId(u32));
domino_sim::snap_value!(enum PacketKind, "packet kind" { 0 => Udp, 1 => TcpData, 2 => TcpAck });
domino_sim::snap_value!(Packet { id, flow, link, payload_bytes, created_at, kind, seq });

/// The paper's default data packet size.
pub const DEFAULT_PACKET_BYTES: usize = 512;

/// Size we give TCP ACK packets. Under DCF this is their airtime basis;
/// under DOMINO an ACK still occupies a full fixed slot (§4.2.3 explains
/// the resulting TCP gain loss).
pub const TCP_ACK_BYTES: usize = 40;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_classification() {
        let mk = |kind| Packet {
            id: PacketId(0),
            flow: FlowId(0),
            link: LinkId(0),
            payload_bytes: 512,
            created_at: SimTime::ZERO,
            kind,
            seq: 0,
        };
        assert!(mk(PacketKind::Udp).counts_toward_goodput());
        assert!(mk(PacketKind::TcpData).counts_toward_goodput());
        assert!(!mk(PacketKind::TcpAck).counts_toward_goodput());
    }
}
