//! Constant-bit-rate UDP sources (the paper's default workload).

use crate::packet::{FlowId, Packet, PacketId, PacketKind, DEFAULT_PACKET_BYTES};
use domino_sim::{SimDuration, SimTime};
use domino_topology::LinkId;

/// A CBR source emitting [`DEFAULT_PACKET_BYTES`] packets at a fixed rate
/// on one link.
///
/// It draws no randomness, so its arrivals are a function of time: the
/// source may lag behind the clock, and [`UdpSource::skip_through`]
/// catches it up past any number of intervals in one step, exactly (time
/// is integer nanoseconds).
#[derive(Clone, Debug)]
pub struct UdpSource {
    flow: FlowId,
    link: LinkId,
    interval: Option<SimDuration>,
    next_arrival: SimTime,
    next_packet_serial: u64,
}

impl UdpSource {
    /// Create a source; `rate_bps == 0` yields a silent source.
    ///
    /// The first packet arrives one full interval after `start` (flows
    /// ramp in rather than bursting at t=0, and distinct flows can be
    /// staggered via `start`). Panics when the packet interval rounds to
    /// 0 ns (see [`UdpSource::packet_interval`]).
    pub fn new(flow: FlowId, link: LinkId, rate_bps: f64, start: SimTime) -> UdpSource {
        assert!(rate_bps >= 0.0 && rate_bps.is_finite());
        let interval = (rate_bps > 0.0).then(|| UdpSource::packet_interval(rate_bps));
        assert!(
            interval.is_none_or(|i| !i.is_zero()),
            "{rate_bps} b/s: packet interval rounds to 0 ns"
        );
        let next_arrival = match interval {
            Some(i) => start + i,
            None => SimTime::MAX,
        };
        UdpSource { flow, link, interval, next_arrival, next_packet_serial: 0 }
    }

    /// The time between two packets at `rate_bps` (> 0), rounded to the
    /// nanosecond.
    pub fn packet_interval(rate_bps: f64) -> SimDuration {
        SimDuration::from_secs_f64(DEFAULT_PACKET_BYTES as f64 * 8.0 / rate_bps)
    }

    /// The flow this source feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The link this source feeds.
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// When the next packet arrives ([`SimTime::MAX`] for a silent
    /// source).
    pub fn next_arrival(&self) -> SimTime {
        self.next_arrival
    }

    /// The time between two packets (`None` for a silent source).
    pub fn interval(&self) -> Option<SimDuration> {
        self.interval
    }

    /// Emit the packet due at [`UdpSource::next_arrival`] and advance.
    /// `id_base` namespaces packet ids across flows (caller passes a
    /// per-flow prefix).
    pub fn emit(&mut self, id_base: u64) -> Packet {
        let interval = self.interval.expect("emit on a silent source");
        let created_at = self.next_arrival;
        let serial = self.next_packet_serial;
        self.next_packet_serial += 1;
        self.next_arrival = created_at + interval;
        Packet {
            id: PacketId(id_base | serial),
            flow: self.flow,
            link: self.link,
            payload_bytes: DEFAULT_PACKET_BYTES,
            created_at,
            kind: PacketKind::Udp,
            seq: serial,
        }
    }

    /// Advance past every packet due at or before `now` without minting
    /// them, exactly as that many [`UdpSource::emit`] calls would (serials
    /// included). Returns how many packets that was.
    pub fn skip_through(&mut self, now: SimTime) -> u64 {
        let (Some(interval), Some(late)) = (self.interval, now.checked_since(self.next_arrival))
        else {
            return 0;
        };
        let due = (late.as_nanos() / interval.as_nanos())
            .checked_add(1)
            .expect("packet count overflow");
        self.next_arrival += interval * due;
        self.next_packet_serial += due;
        due
    }
}

// Dynamic state: the arrival clock and the packet serial. Rate, flow and
// link are configuration.
domino_sim::snapshot_fields!(UdpSource { next_arrival, next_packet_serial });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_interval_for_10mbps_512b() {
        // 4096 bits at 10 Mb/s = 409.6 us per packet.
        let s = UdpSource::new(FlowId(0), LinkId(0), 10e6, SimTime::ZERO);
        assert_eq!(s.next_arrival(), SimTime::from_nanos(409_600));
    }

    #[test]
    fn emission_advances_clock_and_serial() {
        let mut s = UdpSource::new(FlowId(1), LinkId(2), 10e6, SimTime::ZERO);
        let p0 = s.emit(1 << 32);
        let p1 = s.emit(1 << 32);
        assert_eq!(p0.created_at, SimTime::from_nanos(409_600));
        assert_eq!(p1.created_at, SimTime::from_nanos(819_200));
        assert_eq!(p0.seq, 0);
        assert_eq!(p1.seq, 1);
        assert_ne!(p0.id, p1.id);
        assert_eq!(p0.link, LinkId(2));
        assert_eq!(p0.kind, PacketKind::Udp);
    }

    #[test]
    fn silent_source_never_fires() {
        let s = UdpSource::new(FlowId(0), LinkId(0), 0.0, SimTime::ZERO);
        assert_eq!(s.next_arrival(), SimTime::MAX);
    }

    #[test]
    fn staggered_start() {
        let s = UdpSource::new(FlowId(0), LinkId(0), 10e6, SimTime::from_micros(100));
        assert_eq!(s.next_arrival(), SimTime::from_nanos(509_600));
    }

    #[test]
    #[should_panic(expected = "silent source")]
    fn emit_on_silent_source_panics() {
        let mut s = UdpSource::new(FlowId(0), LinkId(0), 0.0, SimTime::ZERO);
        let _ = s.emit(0);
    }

    #[test]
    fn skipping_matches_emitting() {
        let mut skipped = UdpSource::new(FlowId(0), LinkId(0), 10e6, SimTime::ZERO);
        let mut emitted = skipped.clone();
        // Nothing is due before the first arrival.
        assert_eq!(skipped.skip_through(SimTime::from_nanos(409_599)), 0);
        // Through 3 intervals inclusive: 3 packets.
        assert_eq!(skipped.skip_through(SimTime::from_nanos(3 * 409_600)), 3);
        for _ in 0..3 {
            let _ = emitted.emit(0);
        }
        assert_eq!(skipped.next_arrival(), emitted.next_arrival());
        assert_eq!(skipped.emit(0), emitted.emit(0), "the serial advanced too");
        let mut silent = UdpSource::new(FlowId(0), LinkId(0), 0.0, SimTime::ZERO);
        assert_eq!(silent.skip_through(SimTime::from_secs(9)), 0);
    }

    #[test]
    #[should_panic(expected = "rounds to 0 ns")]
    fn zero_interval_panics() {
        // 4096 bits at 1e13 b/s is 0.41 ns, which rounds to 0.
        let _ = UdpSource::new(FlowId(0), LinkId(0), 1e13, SimTime::ZERO);
    }

    #[test]
    fn rate_accounting_over_a_second() {
        let mut s = UdpSource::new(FlowId(0), LinkId(0), 6e6, SimTime::ZERO);
        let mut count = 0u64;
        while s.next_arrival() <= SimTime::from_secs(1) {
            let _ = s.emit(0);
            count += 1;
        }
        // 6 Mb/s / 4096 bits ≈ 1464 packets.
        assert!((count as i64 - 1464).abs() <= 1, "count={count}");
    }
}
