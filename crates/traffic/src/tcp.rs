//! TCP-lite: a Reno-style transport for the paper's TCP experiments.
//!
//! The paper's Fig 12(d–f) runs TCP flows at a 10 Mb/s offered rate over
//! each scheme, with the TCP ACK treated as a regular packet (under
//! DOMINO it occupies a whole slot, which is why TCP gains are smaller
//! than UDP — §4.2.3). This module provides engine-agnostic sender and
//! receiver state machines: slow start, congestion avoidance, duplicate-ACK
//! fast retransmit, and go-back-N RTO recovery with an adaptive
//! (SRTT + 4·RTTVAR) timer.
//!
//! The MAC harness owns the event loop; it calls [`TcpSender::poll`] when
//! the window may have opened, forwards delivered data segments to
//! [`TcpReceiver::on_data`], turns the returned cumulative ack into a
//! reverse-link packet, and feeds it back into [`TcpSender::on_ack`].

use crate::packet::{FlowId, Packet, PacketId, PacketKind, DEFAULT_PACKET_BYTES};
use domino_sim::{SimDuration, SimTime};
use domino_topology::LinkId;
use std::collections::BTreeMap;

/// Initial congestion window, packets.
const INITIAL_CWND: f64 = 2.0;
/// Initial slow-start threshold, packets.
const INITIAL_SSTHRESH: f64 = 32.0;
/// Congestion-window cap, packets.
const MAX_CWND: f64 = 64.0;
/// Application buffer bound, packets of accumulated credit.
const APP_BUFFER_PACKETS: f64 = 128.0;
/// RTO clamp, low end.
const MIN_RTO: SimDuration = SimDuration::from_millis(20);
/// RTO clamp, high end.
const MAX_RTO: SimDuration = SimDuration::from_secs(2);
/// Duplicate ACKs that trigger fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;

/// Sender-side TCP-lite state machine. Its segments carry the paper's
/// 512-byte virtual packet ([`DEFAULT_PACKET_BYTES`]).
#[derive(Clone, Debug)]
pub struct TcpSender {
    flow: FlowId,
    link: LinkId,
    /// Application offered rate in bits/s (0 or less: unlimited,
    /// backlogged).
    rate_bps: f64,
    id_base: u64,
    id_serial: u64,
    /// Next never-sent sequence number (MSS units).
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    snd_una: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// seq → send time for RTT sampling.
    in_flight: BTreeMap<u64, SimTime>,
    app_credit: f64,
    credit_updated_at: SimTime,
    srtt_us: Option<f64>,
    rttvar_us: f64,
    rto_backoff: u32,
    rto_deadline: Option<SimTime>,
    retransmissions: u64,
}

impl TcpSender {
    /// A fresh sender for `flow` over `link` at an application rate of
    /// `rate_bps`, with `id_base` namespacing its packet ids.
    pub fn new(flow: FlowId, link: LinkId, rate_bps: f64, id_base: u64, start: SimTime) -> TcpSender {
        TcpSender {
            flow,
            link,
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            rate_bps,
            id_base,
            id_serial: 0,
            next_seq: 0,
            snd_una: 0,
            dup_acks: 0,
            in_flight: BTreeMap::new(),
            app_credit: 0.0,
            credit_updated_at: start,
            srtt_us: None,
            rttvar_us: 0.0,
            rto_backoff: 0,
            rto_deadline: None,
            retransmissions: 0,
        }
    }

    /// Current congestion window (packets).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Total fast + timeout retransmissions.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Deadline of the pending retransmission timer, if armed. The
    /// harness schedules a check at this instant and calls
    /// [`TcpSender::on_timer`].
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    fn current_rto(&self) -> SimDuration {
        let base_us = match self.srtt_us {
            Some(srtt) => srtt + 4.0 * self.rttvar_us,
            None => 100_000.0, // 100 ms before the first sample
        };
        let scaled = base_us * f64::from(1u32 << self.rto_backoff.min(6));
        let d = SimDuration::from_micros_f64(scaled.max(0.0));
        d.clamp(MIN_RTO, MAX_RTO)
    }

    fn accrue_credit(&mut self, now: SimTime) {
        if self.rate_bps <= 0.0 {
            self.app_credit = APP_BUFFER_PACKETS;
            self.credit_updated_at = now;
            return;
        }
        let dt = now.saturating_since(self.credit_updated_at).as_secs_f64();
        let packets = self.rate_bps * dt / (DEFAULT_PACKET_BYTES as f64 * 8.0);
        self.app_credit = (self.app_credit + packets).min(APP_BUFFER_PACKETS);
        self.credit_updated_at = now;
    }

    fn make_packet(&mut self, seq: u64, now: SimTime) -> Packet {
        let serial = self.id_serial;
        self.id_serial += 1;
        Packet {
            id: PacketId(self.id_base | serial),
            flow: self.flow,
            link: self.link,
            payload_bytes: DEFAULT_PACKET_BYTES,
            created_at: now,
            kind: PacketKind::TcpData,
            seq,
        }
    }

    /// Release as many segments as the window and application allow.
    /// Call whenever the window may have opened (ack arrival, timer,
    /// periodic app tick).
    pub fn poll(&mut self, now: SimTime) -> Vec<Packet> {
        self.accrue_credit(now);
        let mut out = Vec::new();
        while (self.in_flight.len() as f64) < self.cwnd.floor()
            && self.app_credit >= 1.0
        {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.app_credit -= 1.0;
            self.in_flight.insert(seq, now);
            out.push(self.make_packet(seq, now));
        }
        if !self.in_flight.is_empty() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.current_rto());
        }
        out
    }

    /// Process a cumulative acknowledgment (`ack` = receiver's next
    /// expected sequence). Returns any segments newly released.
    pub fn on_ack(&mut self, ack: u64, now: SimTime) -> Vec<Packet> {
        if ack > self.snd_una {
            // New data acknowledged.
            let advanced = ack - self.snd_una;
            // RTT sample from the oldest newly-acked segment, if we still
            // have its send time.
            if let Some(&sent) = self.in_flight.get(&self.snd_una) {
                let sample_us = now.saturating_since(sent).as_micros_f64();
                match self.srtt_us {
                    None => {
                        self.srtt_us = Some(sample_us);
                        self.rttvar_us = sample_us / 2.0;
                    }
                    Some(srtt) => {
                        self.rttvar_us =
                            0.75 * self.rttvar_us + 0.25 * (sample_us - srtt).abs();
                        self.srtt_us = Some(0.875 * srtt + 0.125 * sample_us);
                    }
                }
            }
            self.in_flight = self.in_flight.split_off(&ack);
            self.snd_una = ack;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            for _ in 0..advanced {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
            }
            self.cwnd = self.cwnd.min(MAX_CWND);
            self.rto_deadline = if self.in_flight.is_empty() {
                None
            } else {
                Some(now + self.current_rto())
            };
            self.poll(now)
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESHOLD && self.in_flight.contains_key(&self.snd_una) {
                // Fast retransmit of the missing segment.
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.retransmissions += 1;
                self.in_flight.insert(self.snd_una, now);
                self.rto_deadline = Some(now + self.current_rto());
                let p = self.make_packet(self.snd_una, now);
                let mut out = vec![p];
                out.extend(self.poll(now));
                out
            } else {
                Vec::new()
            }
        }
    }

    /// Check the retransmission timer. Call at (or after) the deadline
    /// returned by [`TcpSender::rto_deadline`]. On expiry: go-back-N —
    /// collapse the window and resend from `snd_una`.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<Packet> {
        match self.rto_deadline {
            Some(deadline) if now >= deadline && !self.in_flight.is_empty() => {
                self.retransmissions += 1;
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = 1.0;
                self.dup_acks = 0;
                self.rto_backoff += 1;
                // Go-back-N: everything unacked will be resent in order.
                self.in_flight.clear();
                self.next_seq = self.snd_una;
                let seq = self.next_seq;
                self.next_seq += 1;
                self.in_flight.insert(seq, now);
                self.rto_deadline = Some(now + self.current_rto());
                vec![self.make_packet(seq, now)]
            }
            _ => Vec::new(),
        }
    }
}

// Dynamic state: everything the congestion-control machine mutates.
// `flow`, `link`, `rate_bps` and `id_base` are configuration.
domino_sim::snapshot_fields!(TcpSender {
    id_serial,
    next_seq,
    snd_una,
    cwnd,
    ssthresh,
    dup_acks,
    in_flight,
    app_credit,
    credit_updated_at,
    srtt_us,
    rttvar_us,
    rto_backoff,
    rto_deadline,
    retransmissions,
});

/// Receiver-side TCP-lite state: tracks the cumulative ack point.
#[derive(Clone, Debug, Default)]
pub struct TcpReceiver {
    expected: u64,
    out_of_order: std::collections::BTreeSet<u64>,
    delivered: u64,
}

impl TcpReceiver {
    /// A fresh receiver.
    pub fn new() -> TcpReceiver {
        TcpReceiver::default()
    }

    /// Register an arriving data segment; returns the cumulative ack to
    /// send back (the next expected sequence number).
    pub fn on_data(&mut self, seq: u64) -> u64 {
        if seq >= self.expected {
            self.out_of_order.insert(seq);
        }
        while self.out_of_order.remove(&self.expected) {
            self.expected += 1;
            self.delivered += 1;
        }
        self.expected
    }

    /// In-order segments delivered to the application so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Next expected sequence number.
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

domino_sim::snapshot_fields!(TcpReceiver { expected, out_of_order, delivered });

#[cfg(test)]
mod tests {
    use super::*;

    fn sender() -> TcpSender {
        TcpSender::new(FlowId(0), LinkId(0), 10e6, 0, SimTime::ZERO)
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn initial_poll_respects_cwnd() {
        let mut s = sender();
        let pkts = s.poll(at_ms(100));
        assert_eq!(pkts.len(), 2, "initial cwnd = 2");
        assert_eq!(pkts[0].seq, 0);
        assert_eq!(pkts[1].seq, 1);
        assert!(s.rto_deadline().is_some());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender();
        let p = s.poll(at_ms(100));
        assert_eq!(p.len(), 2);
        // Ack both: cwnd 2 -> 4, window opens by 4.
        let released = s.on_ack(2, at_ms(110));
        assert_eq!(s.cwnd(), 4.0);
        assert_eq!(released.len(), 4);
    }

    #[test]
    fn congestion_avoidance_grows_slowly() {
        let mut s = sender();
        // Push cwnd to ssthresh.
        s.cwnd = 32.0;
        let _ = s.poll(at_ms(100));
        let before = s.cwnd();
        let _ = s.on_ack(1, at_ms(120));
        assert!(s.cwnd() - before < 1.0, "CA growth per ack must be < 1");
    }

    #[test]
    fn dupacks_trigger_fast_retransmit() {
        let mut s = sender();
        s.cwnd = 8.0;
        let sent = s.poll(at_ms(100));
        assert!(sent.len() >= 4);
        assert_eq!(s.on_ack(0, at_ms(110)).len(), 0);
        assert_eq!(s.on_ack(0, at_ms(111)).len(), 0);
        let resent = s.on_ack(0, at_ms(112));
        assert!(!resent.is_empty());
        assert_eq!(resent[0].seq, 0, "fast retransmit resends snd_una");
        assert_eq!(s.retransmissions(), 1);
        assert!(s.cwnd() <= 4.0, "window halved: {}", s.cwnd());
    }

    #[test]
    fn rto_collapses_window() {
        let mut s = sender();
        s.cwnd = 16.0;
        let _ = s.poll(at_ms(100));
        let deadline = s.rto_deadline().unwrap();
        let resent = s.on_timer(deadline);
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].seq, 0);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.retransmissions(), 1);
        // Backoff: new deadline further out than the first RTO interval.
        assert!(s.rto_deadline().unwrap() > deadline);
    }

    #[test]
    fn timer_before_deadline_is_noop() {
        let mut s = sender();
        let _ = s.poll(at_ms(100));
        let deadline = s.rto_deadline().unwrap();
        assert!(s.on_timer(deadline - SimDuration::from_millis(1)).is_empty());
        assert_eq!(s.retransmissions(), 0);
    }

    #[test]
    fn app_rate_limits_release() {
        let rate_bps = 4096.0 * 10.0; // 10 pkt/s
        let mut s = TcpSender::new(FlowId(0), LinkId(0), rate_bps, 0, SimTime::ZERO);
        s.cwnd = 64.0;
        // After 100 ms only one packet of credit accrued.
        let pkts = s.poll(at_ms(100));
        assert_eq!(pkts.len(), 1);
        // After a further second, ten more.
        let pkts = s.poll(at_ms(1100));
        assert_eq!(pkts.len(), 10);
    }

    #[test]
    fn receiver_cumulative_ack_with_reordering() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(2), 1, "gap holds the ack");
        assert_eq!(r.on_data(1), 3, "filling the gap advances past both");
        assert_eq!(r.delivered(), 3);
        // Duplicate delivery is harmless.
        assert_eq!(r.on_data(1), 3);
    }

    #[test]
    fn full_handshake_loop_transfers_data() {
        // Sender and receiver wired directly: everything delivered
        // instantly; cwnd should open and data flow at the app rate.
        let mut s = sender();
        let mut r = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut delivered = 0u64;
        for _ in 0..200 {
            now += SimDuration::from_millis(5);
            let mut pending = s.poll(now);
            // Deliver until the exchange quiesces (acks release more
            // segments, which are delivered in turn).
            while let Some(p) = pending.pop() {
                let ack = r.on_data(p.seq);
                pending.extend(s.on_ack(ack, now));
            }
            delivered = r.delivered();
        }
        assert!(delivered > 100, "delivered={delivered}");
    }
}
