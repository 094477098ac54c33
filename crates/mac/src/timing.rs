//! 802.11g timing constants and DOMINO slot geometry.
//!
//! All schemes share the same PHY timing (the paper configures CENTAUR
//! and DCF "according to 802.11g standard" and fixes the data rate to
//! 12 Mb/s with 512-byte packets). DOMINO's fixed slot length is derived
//! here from the Fig 8 timeline: data (+ appended trigger-instruction
//! samples) → SIFS → ACK → one slot → signature burst.

use domino_phy::error_model::DataRate;
use domino_phy::signature::SIGNATURE_DURATION_NS;
use domino_sim::SimDuration;

/// 802.11g slot time (9 µs).
pub const SLOT_TIME: SimDuration = SimDuration::from_micros(9);
/// 802.11g SIFS (10 µs).
pub const SIFS: SimDuration = SimDuration::from_micros(10);
/// DIFS = SIFS + 2 · slot (28 µs).
pub const DIFS: SimDuration = SimDuration::from_micros(28);
/// ERP-OFDM PLCP preamble + header (20 µs).
pub const PLCP_PREAMBLE: SimDuration = SimDuration::from_micros(20);
/// MAC header + FCS overhead added to every data frame, bytes.
pub const MAC_OVERHEAD_BYTES: usize = 36;
/// MAC ACK frame length, bytes.
pub const ACK_BYTES: usize = 14;
/// DCF minimum contention window (CWmin).
pub const CW_MIN: u32 = 15;
/// DCF maximum contention window (CWmax).
pub const CW_MAX: u32 = 1023;
/// DCF retry limit before a frame is dropped.
pub const RETRY_LIMIT: u32 = 7;

/// One 127-chip Gold signature on the air (6.35 µs).
pub const SIGNATURE_DURATION: SimDuration = SimDuration::from_nanos(SIGNATURE_DURATION_NS);

/// A trigger burst: combined signatures followed by the START/ROP marker
/// signature (2 × 6.35 µs).
pub const BURST_DURATION: SimDuration = SimDuration::from_nanos(2 * SIGNATURE_DURATION_NS);

/// Samples of the client's burst instruction appended to a data/ACK frame
/// (up to 4 signatures + marker ≈ we budget 2 signature durations, the
/// instruction is compressed samples).
pub const INSTRUCTION_APPENDIX: SimDuration = SimDuration::from_nanos(2 * SIGNATURE_DURATION_NS);

/// ROP polling packet payload, bytes (preamble for CFO correction +
/// subchannel map).
pub const POLL_BYTES: usize = 24;

/// The ROP answer symbol: 3.2 µs CP + 12.8 µs body (Table 1).
pub const ROP_SYMBOL: SimDuration = SimDuration::from_nanos(16_000);

/// Bytes of a header-only fake-link frame (§3.3: "a node only need to
/// send the header of the fake packet").
pub const FAKE_HEADER_BYTES: usize = 24;

/// Airtime of a data frame: PLCP preamble + (payload + MAC overhead) at
/// the PHY rate.
pub fn data_airtime(rate: DataRate, payload_bytes: usize) -> SimDuration {
    PLCP_PREAMBLE + SimDuration::from_nanos(rate.airtime_ns(payload_bytes + MAC_OVERHEAD_BYTES))
}

/// Airtime of a MAC ACK.
pub fn ack_airtime(rate: DataRate) -> SimDuration {
    PLCP_PREAMBLE + SimDuration::from_nanos(rate.airtime_ns(ACK_BYTES))
}

/// Airtime of a header-only fake frame.
pub fn fake_airtime(rate: DataRate) -> SimDuration {
    PLCP_PREAMBLE + SimDuration::from_nanos(rate.airtime_ns(FAKE_HEADER_BYTES))
}

/// Airtime of an ROP polling packet.
pub fn poll_airtime(rate: DataRate) -> SimDuration {
    PLCP_PREAMBLE + SimDuration::from_nanos(rate.airtime_ns(POLL_BYTES))
}

/// How long a DCF sender waits for an ACK after its data frame ends.
pub fn ack_timeout(rate: DataRate) -> SimDuration {
    SIFS + ack_airtime(rate) + SLOT_TIME + SLOT_TIME
}

/// Geometry of one DOMINO slot (Fig 8). The data transmission starts the
/// slot; every offset below is from that instant.
#[derive(Clone, Copy, Debug)]
pub struct SlotGeometry {
    /// Data airtime including the appended instruction samples.
    pub data_airtime: SimDuration,
    /// Offset of the ACK from slot start.
    pub ack_start: SimDuration,
    /// ACK airtime including the appendix (uplink case: AP appends S1 to
    /// the ACK).
    pub ack_airtime: SimDuration,
    /// Offset of the signature burst from slot start.
    pub burst_start: SimDuration,
    /// Total slot duration.
    pub total: SimDuration,
}

/// Compute the fixed slot geometry for a data rate and payload size.
pub fn slot_geometry(rate: DataRate, payload_bytes: usize) -> SlotGeometry {
    let data = data_airtime(rate, payload_bytes) + INSTRUCTION_APPENDIX;
    let ack = ack_airtime(rate) + INSTRUCTION_APPENDIX;
    let ack_start = data + SIFS;
    let burst_start = ack_start + ack + SLOT_TIME;
    let total = burst_start + BURST_DURATION + SIFS;
    SlotGeometry { data_airtime: data, ack_start, ack_airtime: ack, burst_start, total }
}

/// Duration of an ROP slot: poll packet + one slot of turnaround + the
/// answer symbol + SIFS of margin.
pub fn rop_slot_duration(rate: DataRate) -> SimDuration {
    poll_airtime(rate) + SLOT_TIME + ROP_SYMBOL + SIFS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_airtime_at_12mbps() {
        // (512 + 36) bytes = 4384 bits / 12 Mb/s = 365.33 us + 20 us
        // preamble.
        let t = data_airtime(DataRate::Mbps12, 512);
        assert_eq!(t.as_nanos(), 20_000 + 365_333);
    }

    #[test]
    fn ack_airtime_small() {
        let t = ack_airtime(DataRate::Mbps12);
        // 14 bytes = 112 bits = 9.33 us + 20 us.
        assert_eq!(t.as_nanos(), 20_000 + 9_333);
        assert!(t < data_airtime(DataRate::Mbps12, 512));
    }

    #[test]
    fn slot_geometry_is_consistent() {
        let g = slot_geometry(DataRate::Mbps12, 512);
        assert!(g.ack_start > g.data_airtime);
        assert!(g.burst_start > g.ack_start + g.ack_airtime);
        assert!(g.total > g.burst_start + BURST_DURATION);
        // A DOMINO slot for 512 B at 12 Mb/s lands in the ~480 us range.
        let us = g.total.as_micros_f64();
        assert!((450.0..520.0).contains(&us), "slot = {us} us");
    }

    #[test]
    fn rop_slot_is_short_relative_to_data_slots() {
        let rop = rop_slot_duration(DataRate::Mbps12);
        let slot = slot_geometry(DataRate::Mbps12, 512).total;
        assert!(rop < slot / 4 + SimDuration::from_micros(20), "rop = {rop}");
        // Roughly: 36 us poll + 9 + 16 + 10 ≈ 71 us.
        assert!((60.0..90.0).contains(&rop.as_micros_f64()));
    }

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(DIFS.as_micros(), SIFS.as_micros() + 2 * SLOT_TIME.as_micros());
    }

    #[test]
    fn fake_frames_are_much_shorter_than_data() {
        let fake = fake_airtime(DataRate::Mbps12);
        let data = data_airtime(DataRate::Mbps12, 512);
        assert!(fake.as_nanos() * 5 < data.as_nanos());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn slot_geometry_scales_with_payload() {
        let small = slot_geometry(DataRate::Mbps12, 256);
        let big = slot_geometry(DataRate::Mbps12, 1024);
        assert!(big.total > small.total);
        // Difference = the extra payload airtime exactly.
        let extra = DataRate::Mbps12.airtime_ns(1024) - DataRate::Mbps12.airtime_ns(256);
        assert_eq!((big.total - small.total).as_nanos(), extra);
    }

    #[test]
    fn slot_geometry_scales_with_rate() {
        let slow = slot_geometry(DataRate::Mbps6, 512);
        let fast = slot_geometry(DataRate::Mbps54, 512);
        assert!(slow.total > fast.total);
    }

    #[test]
    fn ack_timeout_covers_the_ack() {
        // The timeout must exceed SIFS + ack airtime, else every ACK
        // "times out".
        for rate in [DataRate::Mbps6, DataRate::Mbps12, DataRate::Mbps54] {
            assert!(ack_timeout(rate) > SIFS + ack_airtime(rate));
        }
    }

    #[test]
    fn burst_is_two_signatures() {
        assert_eq!(BURST_DURATION.as_nanos(), 2 * SIGNATURE_DURATION.as_nanos());
        assert_eq!(SIGNATURE_DURATION.as_nanos(), 6_350);
    }

    #[test]
    fn rop_slot_contains_poll_turnaround_and_symbol() {
        let rop = rop_slot_duration(DataRate::Mbps12);
        assert!(rop > poll_airtime(DataRate::Mbps12) + SLOT_TIME + ROP_SYMBOL);
    }
}
