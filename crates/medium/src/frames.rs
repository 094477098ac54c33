//! On-air frame types.
//!
//! Every transmission the simulator puts on the medium is one of these
//! frames. The DOMINO-specific control surfaces — trigger instructions
//! appended to data/ACK frames (Fig 8), signature bursts, ROP polls and
//! replies — are first-class frame fields, so "a corrupted packet loses
//! its trigger instructions" and similar couplings fall out naturally.

use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter};
use domino_topology::{LinkId, NodeId};
use domino_traffic::{Packet, PacketId};

/// Inline capacity of a [`Burst`]'s signature list. The converter caps
/// combined signatures at `max_outbound` (4, Fig 9) and clamps configs
/// above it, so 4 is exact — and it matters: bursts travel by value
/// inside MAC events, so this capacity sets the event-queue element
/// size (the ablation experiments only push `max_outbound` *below* the
/// paper's operating point; `InlineVec` panics loudly if anything ever
/// overflows the cap).
pub const BURST_CAP: usize = 4;

pub use domino_topology::InlineVec;

/// A set of signatures one node broadcasts to trigger the next slot's
/// transmitters (paper §3.2). `targets[i]` owns `codes[i]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Burst {
    /// Gold-code indices being summed (at most 4, §3.2).
    pub codes: InlineVec<u32, BURST_CAP>,
    /// The nodes those codes belong to (same order as `codes`).
    pub targets: InlineVec<NodeId, BURST_CAP>,
    /// Which end-of-burst marker follows the signatures.
    pub marker: BurstMarker,
    /// Absolute index of the slot this burst triggers (lets a triggered
    /// client know which slot it is starting, and feeds the Fig 11
    /// misalignment log).
    pub slot: u64,
    /// The broadcaster itself transmits again in slot `slot`. Every
    /// slot's bursts are simultaneous, so a node that just broadcast is
    /// deaf to its triggers; the controller sets this flag in the
    /// instruction instead (APs derive it from their own program).
    pub continues: bool,
}

impl Burst {
    /// Number of combined signatures.
    pub fn combined(&self) -> usize {
        self.codes.len()
    }
}

impl SnapValue for Burst {
    fn put(&self, w: &mut SnapWriter) {
        // InlineVec is hand-rolled: length byte + items. The two lists
        // share one length by construction (`targets[i]` owns `codes[i]`).
        w.put_u8(self.codes.len() as u8);
        for &c in self.codes.as_slice() {
            w.put_u32(c);
        }
        for t in self.targets.as_slice() {
            t.put(w);
        }
        self.marker.put(w);
        self.slot.put(w);
        self.continues.put(w);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = usize::from(r.get_u8()?);
        if n > BURST_CAP {
            return Err(SnapError::Corrupt("burst length"));
        }
        let mut codes = InlineVec::new();
        for _ in 0..n {
            codes.push(r.get_u32()?);
        }
        let mut targets = InlineVec::new();
        for _ in 0..n {
            targets.push(NodeId::thaw(r)?);
        }
        Ok(Burst {
            codes,
            targets,
            marker: SnapValue::thaw(r)?,
            slot: SnapValue::thaw(r)?,
            continues: SnapValue::thaw(r)?,
        })
    }
}

/// The special signature appended after the trigger signatures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BurstMarker {
    /// S′ — the START signature: triggered nodes begin the next slot
    /// immediately.
    Start,
    /// The ROP signature: triggered nodes wait one ROP slot before
    /// transmitting (paper §3.3).
    Rop,
}

domino_sim::snap_value!(enum BurstMarker, "burst marker" { 0 => Start, 1 => Rop });

/// What a frame carries.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameBody {
    /// A data frame on `packet.link`. When `fake` is set, only the MAC
    /// header goes on the air (schedule keep-alive, §3.3) and nothing is
    /// delivered to the flow.
    ///
    /// `client_burst` is the trigger instruction for the receiving client
    /// (the samples of S1 in Fig 8): the client stores it if and only if
    /// the frame decodes.
    Data {
        /// The payload packet.
        packet: Packet,
        /// Header-only fake-link frame?
        fake: bool,
        /// S1 instruction for the client, when the AP is the sender.
        client_burst: Option<Burst>,
    },
    /// Link-layer acknowledgment. Carries the S1 instruction when the AP
    /// is the *receiver* (Fig 8b: the AP appends S1 to the ACK).
    MacAck {
        /// Packet being acknowledged.
        packet: PacketId,
        /// The link the data traveled on.
        link: LinkId,
        /// S1 instruction for the client, when the AP sends this ACK.
        client_burst: Option<Burst>,
    },
    /// ROP polling packet, broadcast by an AP to all its clients
    /// (paper Fig 4).
    Poll {
        /// The polling AP.
        ap: NodeId,
    },
    /// One client's share of the collective ROP answer symbol: its queue
    /// length on its private subchannel.
    RopReport {
        /// The reporting client.
        client: NodeId,
        /// Its AP.
        ap: NodeId,
        /// Queue length, already clamped to 63.
        queue: u32,
    },
    /// A signature burst (trigger transmission).
    SignatureBurst(Burst),
}

domino_sim::snap_value!(enum FrameBody, "frame body tag" {
    0 => Data { packet, fake, client_burst },
    1 => MacAck { packet, link, client_burst },
    2 => Poll { ap },
    3 => RopReport { client, ap, queue },
    4 => SignatureBurst(burst),
});

/// A frame queued for / on the medium.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Transmitting node.
    pub src: NodeId,
    /// Payload.
    pub body: FrameBody,
    /// Coded bits on air (drives the PER model; 0 for signature bursts
    /// and ROP symbols, which use their own detection models).
    pub bits: usize,
}

domino_sim::snap_value!(Frame { src, body, bits });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_snapshot_roundtrips_every_body() {
        use domino_sim::SimTime;
        use domino_traffic::{FlowId, PacketKind};
        let burst = Burst {
            codes: [3, 7].into_iter().collect(),
            targets: [NodeId(3), NodeId(7)].into_iter().collect(),
            marker: BurstMarker::Rop,
            slot: 42,
            continues: true,
        };
        let packet = Packet {
            id: PacketId(99),
            flow: FlowId(2),
            link: LinkId(5),
            payload_bytes: 512,
            created_at: SimTime::from_micros(17),
            kind: PacketKind::TcpData,
            seq: 8,
        };
        let frames = [
            Frame {
                src: NodeId(0),
                body: FrameBody::Data { packet, fake: true, client_burst: Some(burst) },
                bits: 4096,
            },
            Frame {
                src: NodeId(1),
                body: FrameBody::MacAck { packet: PacketId(7), link: LinkId(3), client_burst: None },
                bits: 320,
            },
            Frame { src: NodeId(2), body: FrameBody::Poll { ap: NodeId(2) }, bits: 256 },
            Frame {
                src: NodeId(3),
                body: FrameBody::RopReport { client: NodeId(3), ap: NodeId(0), queue: 63 },
                bits: 0,
            },
            Frame { src: NodeId(4), body: FrameBody::SignatureBurst(burst), bits: 0 },
        ];
        for f in &frames {
            let mut w = SnapWriter::new();
            f.put(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(&Frame::thaw(&mut r).unwrap(), f);
            assert!(r.is_exhausted());
        }
        // A burst length beyond the cap is corrupt, not a panic.
        let mut w = SnapWriter::new();
        burst.put(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] = BURST_CAP as u8 + 1;
        assert!(matches!(
            Burst::thaw(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("burst length"))
        ));
    }

    #[test]
    fn burst_helpers() {
        let b = Burst {
            codes: [3, 7].into_iter().collect(),
            targets: [NodeId(3), NodeId(7)].into_iter().collect(),
            marker: BurstMarker::Start,
            slot: 4,
            continues: false,
        };
        assert_eq!(b.combined(), 2);
    }
}
