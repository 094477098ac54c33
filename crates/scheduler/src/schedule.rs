//! Schedule data types: strict schedules (what an arbitrary scheduler
//! emits) and relative schedules (what DOMINO executes).

use domino_topology::{InlineVec, LinkId, NodeId};

/// Inline capacity of a [`BurstAssignment`]'s target list. The converter
/// clamps trigger assignment at `max_outbound.min(MAX_TRIGGER_TARGETS)`
/// (4, Fig 9 — ablations only go below it), and the medium's `BURST_CAP`
/// matches, so assignments convert to on-air bursts without truncation
/// while keeping both inline types at event-queue-friendly sizes.
pub const MAX_TRIGGER_TARGETS: usize = 4;

/// A strict schedule: `slots[i]` is the set of links that transmit
/// concurrently in slot `i` (paper §3.3, `S = [s1 … sk]`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StrictSchedule {
    /// Concurrent link sets, one per slot.
    pub slots: Vec<Vec<LinkId>>,
}

impl StrictSchedule {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the schedule has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// One link's appearance in a relative-schedule slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEntry {
    /// The scheduled link.
    pub link: LinkId,
    /// Fake-link keep-alive (header-only transmission, no payload
    /// consumed, §3.3)?
    pub fake: bool,
    /// No trigger could reach this link's sender from the previous slot
    /// (e.g. an isolated AP cell): the AP starts it individually, per the
    /// paper's first-batch rule, instead of waiting for a signature.
    pub kick_off: bool,
}

domino_sim::snap_value!(SlotEntry { link, fake, kick_off });

/// A signature broadcast assignment: at the end of a slot, `broadcaster`
/// transmits the signatures of `targets` (each a next-slot transmitter or
/// a polling AP), capped at 4 by the outbound constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstAssignment {
    /// The node sending the combined signatures.
    pub broadcaster: NodeId,
    /// The nodes being triggered (inline: building an assignment never
    /// touches the allocator).
    pub targets: InlineVec<NodeId, MAX_TRIGGER_TARGETS>,
}

/// An ROP slot shared by non-conflicting APs (paper §3.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RopSlot {
    /// APs that poll their clients during this slot.
    pub aps: Vec<NodeId>,
}

/// One slot of a relative schedule.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RelativeSlot {
    /// Links transmitting in this slot.
    pub entries: Vec<SlotEntry>,
    /// Signature broadcasts at the end of this slot (they trigger the
    /// ROP slot, if any, and the next slot's transmitters).
    pub bursts: Vec<BurstAssignment>,
    /// ROP slot inserted between this slot and the next; when present,
    /// this slot's bursts carry the ROP marker instead of START.
    pub rop_after: Option<RopSlot>,
}

/// A converted batch ready for distribution to the APs.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RelativeBatch {
    /// Burst assignments for the *retained* last slot of the previous
    /// batch — they trigger this batch's first slot (batch connection,
    /// §3.3). Empty for the very first batch, whose slot 0 is started by
    /// the APs individually.
    pub connecting_bursts: Vec<BurstAssignment>,
    /// Whether an ROP slot sits between the previous batch's last slot
    /// and this batch's first slot.
    pub connecting_rop: Option<RopSlot>,
    /// The batch's slots.
    pub slots: Vec<RelativeSlot>,
}

impl RelativeBatch {
    /// Total scheduled link-slots (including fakes).
    pub fn total_entries(&self) -> usize {
        self.slots.iter().map(|s| s.entries.len()).sum()
    }

    /// Total fake entries.
    pub fn fake_entries(&self) -> usize {
        self.slots
            .iter()
            .flat_map(|s| &s.entries)
            .filter(|e| e.fake)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_counters() {
        let batch = RelativeBatch {
            connecting_bursts: vec![],
            connecting_rop: None,
            slots: vec![
                RelativeSlot {
                    entries: vec![
                        SlotEntry { link: LinkId(0), fake: false, kick_off: false },
                        SlotEntry { link: LinkId(2), fake: true, kick_off: false },
                    ],
                    bursts: vec![],
                    rop_after: None,
                },
                RelativeSlot {
                    entries: vec![SlotEntry { link: LinkId(1), fake: false, kick_off: false }],
                    bursts: vec![],
                    rop_after: None,
                },
            ],
        };
        assert_eq!(batch.total_entries(), 3);
        assert_eq!(batch.fake_entries(), 1);
    }

    #[test]
    fn strict_schedule_len() {
        let s = StrictSchedule { slots: vec![vec![LinkId(0)], vec![]] };
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(StrictSchedule::default().is_empty());
    }
}
