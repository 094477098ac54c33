//! Packets and flows.

use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter};
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

impl SnapValue for Packet {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.id.0);
        w.put_u32(self.flow.0);
        self.link.put(w);
        w.put_u64(self.payload_bytes as u64);
        self.created_at.put(w);
        w.put_u8(match self.kind {
            PacketKind::Udp => 0,
            PacketKind::TcpData => 1,
            PacketKind::TcpAck => 2,
        });
        w.put_u64(self.seq);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Packet {
            id: PacketId(r.get_u64()?),
            flow: FlowId(r.get_u32()?),
            link: SnapValue::thaw(r)?,
            payload_bytes: r.get_len()?,
            created_at: SimTime::thaw(r)?,
            kind: match r.get_u8()? {
                0 => PacketKind::Udp,
                1 => PacketKind::TcpData,
                2 => PacketKind::TcpAck,
                _ => return Err(SnapError::Corrupt("packet kind")),
            },
            seq: r.get_u64()?,
        })
    }
}

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
