//! Traffic state shared by every scheme: per-link queues, UDP/TCP flow
//! state, delivery accounting.
//!
//! The scheme engines (DCF, CENTAUR, Omniscient, DOMINO) differ only in
//! *when* a link gets to transmit; everything about packet arrivals,
//! TCP feedback, queue occupancy and goodput/delay metering is identical
//! and lives here. The [`Plant`](crate::plant::Plant) owns the one
//! `FlowEngine` of a run and drives it: TCP tick events, RTO timers, the
//! end-of-run flush.
//!
//! UDP arrivals are not events. A constant-bit-rate source draws no
//! randomness, so what its link's queue holds is a function of time.
//! Every queue accessor takes `now` and first brings the link up to it:
//! the packets due at or before `now` join the queue in arrival order,
//! and once the queue is full the rest count as drops without being
//! minted. Bringing a link up to `t1` and then to `t2` equals bringing it
//! up to `t2` alone, so no reader can tell when it happened.

use crate::workload::{FlowKind, RunStats, Workload};
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{SimDuration, SimTime};
use domino_topology::{LinkId, Network};
use domino_traffic::{
    FlowId, LinkQueue, Packet, PacketId, PacketKind, TcpReceiver, TcpSender, UdpSource,
    DEFAULT_PACKET_BYTES, TCP_ACK_BYTES,
};
use std::cmp::Reverse;

/// Recommended interval for the harness's periodic TCP application tick.
pub const TCP_TICK: SimDuration = SimDuration::from_millis(2);

/// Where a UDP packet ranks among the arrivals due at one instant, lowest
/// first: the longest packet interval, then the lowest flow index. It is
/// the order in which per-packet arrival events would fire if each were
/// queued when its predecessor fired: the longer interval queued its
/// event earlier, and equal intervals keep their order from t = 0.
pub type ArrivalRank = (Reverse<SimDuration>, u32);

fn arrival_rank(src: &UdpSource) -> ArrivalRank {
    (Reverse(src.interval().unwrap_or(SimDuration::ZERO)), src.flow().0)
}

/// The next arrival among a link's sources ([`SimTime::MAX`]: none).
fn next_due(lane: &[UdpSource]) -> SimTime {
    lane.iter().map(UdpSource::next_arrival).min().unwrap_or(SimTime::MAX)
}

#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum FlowRuntime {
    /// Its source sits in its link's lane of [`FlowEngine`]'s `udp`.
    Udp,
    Tcp {
        sender: TcpSender,
        receiver: TcpReceiver,
        link: LinkId,
        reverse: LinkId,
        delivered_segments: u64,
    },
}

/// Queues + flow state + metering for one run. Every queue accessor
/// takes `now` and brings the link's UDP arrivals up to it first.
#[derive(Debug)]
pub struct FlowEngine {
    queues: Vec<LinkQueue>,
    flows: Vec<FlowRuntime>,
    /// link index → flow index (for TCP data links and reverse-ack
    /// lookup).
    flow_of_link: Vec<Option<usize>>,
    /// link index → its UDP sources in [`ArrivalRank`] order, each as far
    /// as the link's last access brought it.
    udp: Vec<Vec<UdpSource>>,
    /// link index → the next arrival of its lane ([`SimTime::MAX`]:
    /// none), so an access with nothing due costs one comparison.
    due: Vec<SimTime>,
    /// Highest UDP sequence delivered per link (a lost MAC ACK makes the
    /// sender retransmit a packet the receiver already has; goodput must
    /// not double-count it).
    last_udp_seq: Vec<Option<u64>>,
    ack_serial: u64,
    /// Statistics under construction.
    pub stats: RunStats,
}

impl FlowEngine {
    /// Build the runtime for a workload over a network.
    pub fn new(net: &Network, workload: &Workload, duration_s: f64) -> FlowEngine {
        let num_links = net.links().len();
        let mut flow_of_link = vec![None; num_links];
        let mut udp: Vec<Vec<UdpSource>> = vec![Vec::new(); num_links];
        let flows: Vec<FlowRuntime> = workload
            .flows
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                flow_of_link[spec.link.index()] = Some(i);
                match &spec.kind {
                    FlowKind::Udp { rate_bps } => {
                        udp[spec.link.index()].push(UdpSource::new(
                            FlowId(i as u32),
                            spec.link,
                            *rate_bps,
                            SimTime::ZERO,
                        ));
                        FlowRuntime::Udp
                    }
                    FlowKind::Tcp { rate_bps } => FlowRuntime::Tcp {
                        sender: TcpSender::new(
                            FlowId(i as u32),
                            spec.link,
                            *rate_bps,
                            (i as u64) << 40,
                            SimTime::ZERO,
                        ),
                        receiver: TcpReceiver::new(),
                        link: spec.link,
                        reverse: net.reverse_link(spec.link),
                        delivered_segments: 0,
                    },
                }
            })
            .collect();
        for lane in &mut udp {
            lane.sort_by_key(arrival_rank);
        }
        FlowEngine {
            queues: (0..num_links).map(|_| LinkQueue::default()).collect(),
            flows,
            flow_of_link,
            due: udp.iter().map(|lane| next_due(lane)).collect(),
            udp,
            last_udp_seq: vec![None; num_links],
            ack_serial: 0,
            stats: RunStats::new(num_links, duration_s),
        }
    }

    /// Bring one link up to `now`: its UDP packets due at or before `now`
    /// join the queue in arrival order ([`ArrivalRank`] breaks ties) until
    /// it is full, and the rest count as drops without being minted.
    fn sync(&mut self, link: usize, now: SimTime) {
        if self.due[link] > now {
            return;
        }
        let (queue, lane) = (&mut self.queues[link], &mut self.udp[link]);
        while !queue.is_full() {
            // `min_by_key` keeps the first of equals: the lane's order.
            let Some(src) = lane
                .iter_mut()
                .filter(|s| s.next_arrival() <= now)
                .min_by_key(|s| s.next_arrival())
            else {
                break;
            };
            let id_base = u64::from(src.flow().0) << 40;
            queue.push(src.emit(id_base));
        }
        for src in lane.iter_mut() {
            self.stats.drops += src.skip_through(now);
        }
        self.due[link] = next_due(lane);
    }

    /// The queue of one link, brought up to `now`.
    pub fn queue(&mut self, link: LinkId, now: SimTime) -> &LinkQueue {
        self.sync(link.index(), now);
        &self.queues[link.index()]
    }

    /// Mutable queue access (schemes pop/push here), brought up to `now`.
    pub fn queue_mut(&mut self, link: LinkId, now: SimTime) -> &mut LinkQueue {
        self.sync(link.index(), now);
        &mut self.queues[link.index()]
    }

    /// Bring every link up to `end`: the end-of-run flush.
    pub fn sync_all(&mut self, end: SimTime) {
        for link in 0..self.queues.len() {
            self.sync(link, end);
        }
    }

    /// The earliest instant a UDP packet is due on any of `links` that no
    /// access has queued or dropped yet ([`SimTime::MAX`]: never).
    pub fn next_arrival(&self, links: &[LinkId]) -> SimTime {
        links.iter().map(|l| self.due[l.index()]).min().unwrap_or(SimTime::MAX)
    }

    /// The rank of the first UDP packet due on any of `links` at exactly
    /// `at` (`None` when none is, or an access already took it).
    pub fn arrival_rank(&self, links: &[LinkId], at: SimTime) -> Option<ArrivalRank> {
        links
            .iter()
            .filter_map(|l| self.udp[l.index()].iter().find(|s| s.next_arrival() == at))
            .map(arrival_rank)
            .min()
    }

    /// Indices of TCP flows.
    pub fn tcp_flows(&self) -> Vec<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(f, FlowRuntime::Tcp { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Drive a TCP sender's application/window (periodic tick and after
    /// acks); releases segments into the link queue.
    pub fn tcp_tick(&mut self, flow: usize, now: SimTime) {
        let packets = match &mut self.flows[flow] {
            FlowRuntime::Tcp { sender, .. } => sender.poll(now),
            // lint: allow(D005) caller contract: tick events carry TCP flow indices only
            _ => panic!("flow {flow} is not TCP"),
        };
        self.enqueue_all(packets, now);
    }

    /// Current RTO deadline of a TCP flow.
    pub fn tcp_rto_deadline(&self, flow: usize) -> Option<SimTime> {
        match &self.flows[flow] {
            FlowRuntime::Tcp { sender, .. } => sender.rto_deadline(),
            _ => None,
        }
    }

    /// Fire a TCP retransmission-timer check.
    pub fn tcp_timer(&mut self, flow: usize, now: SimTime) {
        let packets = match &mut self.flows[flow] {
            FlowRuntime::Tcp { sender, .. } => sender.on_timer(now),
            // lint: allow(D005) caller contract: RTO events carry TCP flow indices only
            _ => panic!("flow {flow} is not TCP"),
        };
        self.enqueue_all(packets, now);
    }

    fn enqueue_all(&mut self, packets: Vec<Packet>, now: SimTime) {
        for p in packets {
            if !self.queue_mut(p.link, now).push(p) {
                self.stats.drops += 1;
            }
        }
    }

    /// Account a successful delivery of `packet` at `now` and run the
    /// transport reaction (TCP receivers generate acks onto the reverse
    /// link; TCP senders absorb acks and may release more segments).
    /// Returns the flow whose sender absorbed an ack: the only flow whose
    /// RTO deadline a delivery can move.
    pub fn deliver(&mut self, packet: &Packet, now: SimTime) -> Option<usize> {
        match packet.kind {
            PacketKind::Udp => {
                let last = &mut self.last_udp_seq[packet.link.index()];
                if last.is_some_and(|l| packet.seq <= l) {
                    return None; // duplicate of an already-delivered packet
                }
                *last = Some(packet.seq);
                self.stats.delivered_bits[packet.link.index()] +=
                    packet.payload_bytes as u64 * 8;
                self.stats.delays[packet.link.index()]
                    .record_us(now.saturating_since(packet.created_at).as_micros_f64());
            }
            PacketKind::TcpData => {
                let flow_idx = self.flow_of_link[packet.link.index()]
                    .expect("TCP data on a link without a flow"); // lint: allow(D005) TCP packets are only minted by a flow on that link
                let mss = DEFAULT_PACKET_BYTES as u64 * 8;
                let (ack, link, reverse) = match &mut self.flows[flow_idx] {
                    FlowRuntime::Tcp { receiver, link, reverse, delivered_segments, .. } => {
                        let ack = receiver.on_data(packet.seq);
                        // Goodput counts in-order delivered segments only
                        // (retransmissions don't double-count).
                        let newly = receiver.delivered() - *delivered_segments;
                        *delivered_segments = receiver.delivered();
                        self.stats.delivered_bits[link.index()] += newly * mss;
                        (ack, *link, *reverse)
                    }
                    // lint: allow(D005) flow_of_link maps TCP links to TCP runtimes by construction
                    _ => panic!("flow mismatch"),
                };
                self.stats.delays[link.index()]
                    .record_us(now.saturating_since(packet.created_at).as_micros_f64());
                // Ack as a regular packet on the reverse link.
                self.ack_serial += 1;
                let ack_packet = Packet {
                    id: PacketId((0xACu64 << 48) | self.ack_serial),
                    flow: packet.flow,
                    link: reverse,
                    payload_bytes: TCP_ACK_BYTES,
                    created_at: now,
                    kind: PacketKind::TcpAck,
                    seq: ack,
                };
                if !self.queue_mut(reverse, now).push(ack_packet) {
                    self.stats.drops += 1;
                }
            }
            PacketKind::TcpAck => {
                // The ack arrived back at the data sender: find the flow
                // whose data link is the reverse of the ack's link.
                let flow_idx = self
                    .flows
                    .iter()
                    .position(|f| matches!(f, FlowRuntime::Tcp { reverse, .. } if *reverse == packet.link))
                    .expect("TCP ack on a link that is no flow's reverse"); // lint: allow(D005) acks are minted with reverse = some flow's data link
                let released = match &mut self.flows[flow_idx] {
                    FlowRuntime::Tcp { sender, .. } => sender.on_ack(packet.seq, now),
                    // lint: allow(D005) position() above matched a Tcp variant at this index
                    _ => unreachable!(),
                };
                self.enqueue_all(released, now);
                return Some(flow_idx);
            }
        }
        None
    }

    /// Snapshot of all dynamic traffic state. Flow specs, the link
    /// universe and the packet size are configuration and stay with the
    /// restore target's constructor. The UDP sources are saved as they
    /// stand, behind the clock where no access has caught them up.
    pub fn snapshot_save(&self, w: &mut SnapWriter) {
        w.put_u64(self.queues.len() as u64);
        for q in &self.queues {
            q.save(w);
        }
        w.put_u64(self.flows.len() as u64);
        for f in &self.flows {
            match f {
                FlowRuntime::Udp => w.put_u8(0),
                FlowRuntime::Tcp { sender, receiver, delivered_segments, .. } => {
                    w.put_u8(1);
                    sender.save(w);
                    receiver.save(w);
                    w.put_u64(*delivered_segments);
                }
            }
        }
        for src in self.udp.iter().flatten() {
            src.save(w);
        }
        self.last_udp_seq.put(w);
        w.put_u64(self.ack_serial);
        self.stats.save(w);
    }

    /// Restore the state written by [`FlowEngine::snapshot_save`] into an
    /// engine built from the same `(net, workload, duration)`.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.get_len()? != self.queues.len() {
            return Err(SnapError::Corrupt("flow engine queue count"));
        }
        for q in &mut self.queues {
            q.restore(r)?;
        }
        if r.get_len()? != self.flows.len() {
            return Err(SnapError::Corrupt("flow engine flow count"));
        }
        for f in &mut self.flows {
            match (r.get_u8()?, f) {
                (0, FlowRuntime::Udp) => {}
                (1, FlowRuntime::Tcp { sender, receiver, delivered_segments, .. }) => {
                    sender.restore(r)?;
                    receiver.restore(r)?;
                    *delivered_segments = r.get_u64()?;
                }
                _ => return Err(SnapError::Corrupt("flow runtime kind")),
            }
        }
        for src in self.udp.iter_mut().flatten() {
            src.restore(r)?;
        }
        for (due, lane) in self.due.iter_mut().zip(&self.udp) {
            *due = next_due(lane);
        }
        self.last_udp_seq = SnapValue::thaw(r)?;
        if self.last_udp_seq.len() != self.queues.len() {
            return Err(SnapError::Corrupt("udp seq table length"));
        }
        self.ack_serial = r.get_u64()?;
        self.stats.restore(r)
    }

    /// Total MAC retransmissions recorded by TCP senders (diagnostics).
    pub fn tcp_retransmissions(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| match f {
                FlowRuntime::Tcp { sender, .. } => sender.retransmissions(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FlowSpec, Workload};
    use domino_phy::units::Dbm;
    use domino_testkit::{prop, prop_assert_eq};
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeId, NodeRole, Position};
    use domino_topology::rss::RssMatrix;

    /// 10 Mb/s of 512-byte packets: one every 409.6 µs.
    const INTERVAL_NS: u64 = 409_600;

    fn net() -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(2);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-55.0));
        Network::new(nodes, rss, PhyParams::default())
    }

    fn at_interval(k: u64) -> SimTime {
        SimTime::from_nanos(k * INTERVAL_NS)
    }

    #[test]
    fn udp_arrivals_fill_the_queue() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        assert_eq!(fe.next_arrival(&[LinkId(0), LinkId(1)]), at_interval(1));
        assert!(fe.queue(LinkId(0), at_interval(1) - SimDuration::from_nanos(1)).is_empty());
        // Inclusive: the fifth packet is due at exactly 5 intervals.
        assert_eq!(fe.queue(LinkId(0), at_interval(5)).len(), 5);
        assert_eq!(fe.next_arrival(&[LinkId(0)]), at_interval(6));
        assert_eq!(fe.next_arrival(&[LinkId(1)]), SimTime::MAX, "no uplink flow");
        assert_eq!(fe.stats.drops, 0);
    }

    #[test]
    fn udp_delivery_meters_goodput_and_delay() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let p = fe.queue_mut(LinkId(0), at_interval(1)).pop().unwrap();
        let deliver_at = p.created_at + SimDuration::from_micros(500);
        assert_eq!(fe.deliver(&p, deliver_at), None, "UDP touches no sender");
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        assert!((fe.stats.delays[0].mean_us() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn tcp_data_generates_ack_on_reverse_link() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.tcp_flows()[0];
        let t = SimTime::from_millis(1);
        fe.tcp_tick(flow, t);
        assert!(!fe.queue(LinkId(0), t).is_empty(), "sender released segments");
        let p = fe.queue_mut(LinkId(0), t).pop().unwrap();
        assert_eq!(p.kind, PacketKind::TcpData);
        let t = SimTime::from_millis(2);
        assert_eq!(fe.deliver(&p, t), None, "data reaches the receiver only");
        // Ack waits on the reverse (uplink) queue.
        assert_eq!(fe.queue(LinkId(1), t).len(), 1);
        let ack = fe.queue_mut(LinkId(1), t).pop().unwrap();
        assert_eq!(ack.kind, PacketKind::TcpAck);
        assert_eq!(ack.seq, 1);
        // Goodput counted once.
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        // Delivering the ack opens the sender's window.
        let t = SimTime::from_millis(3);
        let before = fe.queue(LinkId(0), t).len();
        assert_eq!(fe.deliver(&ack, t), Some(flow), "the ack reached the flow's sender");
        assert!(fe.queue(LinkId(0), t).len() > before, "ack released new segments");
    }

    #[test]
    fn tcp_retransmission_does_not_double_count_goodput() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.tcp_flows()[0];
        let t = SimTime::from_millis(1);
        fe.tcp_tick(flow, t);
        let p = fe.queue_mut(LinkId(0), t).pop().unwrap();
        fe.deliver(&p, SimTime::from_millis(2));
        let bits = fe.stats.delivered_bits[0];
        // Same segment again (spurious retransmission).
        fe.deliver(&p, SimTime::from_millis(3));
        assert_eq!(fe.stats.delivered_bits[0], bits);
    }

    #[test]
    fn tcp_rto_fires_through_the_engine_interface() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.tcp_flows()[0];
        let t = SimTime::from_millis(1);
        fe.tcp_tick(flow, t);
        assert!(!fe.queue(LinkId(0), t).is_empty());
        let deadline = fe.tcp_rto_deadline(flow).expect("rto armed after send");
        // Drain the queue (packets "lost"), then fire the timer: the
        // retransmission lands back in the queue.
        while fe.queue_mut(LinkId(0), t).pop().is_some() {}
        fe.tcp_timer(flow, deadline);
        assert_eq!(fe.queue(LinkId(0), deadline).len(), 1, "go-back-N retransmission queued");
        assert_eq!(fe.tcp_retransmissions(), 1);
    }

    #[test]
    fn duplicate_udp_delivery_not_double_counted() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let p = fe.queue_mut(LinkId(0), at_interval(1)).pop().unwrap();
        fe.deliver(&p, SimTime::from_millis(1));
        // MAC retry after lost ACK.
        assert_eq!(fe.deliver(&p, SimTime::from_millis(2)), None);
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        assert_eq!(fe.stats.delays[0].count(), 1);
    }

    #[test]
    fn queue_overflow_counts_drops() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let q = fe.queue_mut(LinkId(0), at_interval(250));
        assert_eq!(q.len(), 200);
        assert_eq!(q.pop().unwrap().seq, 0, "the first 200 packets queued");
        assert_eq!(fe.stats.drops, 50, "the other 50 dropped");
        // The dropped packets used up their serials.
        let q = fe.queue(LinkId(0), at_interval(251));
        assert_eq!(q.len(), 200);
        assert_eq!(fe.stats.drops, 50);
        fe.sync_all(at_interval(252));
        assert_eq!(fe.stats.drops, 51);
    }

    #[test]
    fn same_instant_arrivals_queue_longest_interval_first() {
        let n = net();
        let udp = |rate_bps| FlowSpec { link: LinkId(0), kind: FlowKind::Udp { rate_bps } };
        // Flow 0 every interval, flow 1 every second one, flow 2 likewise.
        let w = Workload { flows: vec![udp(10e6), udp(5e6), udp(5e6)] };
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let links = [LinkId(0)];
        let every = |k| Reverse(SimDuration::from_nanos(k * INTERVAL_NS));
        assert_eq!(fe.arrival_rank(&links, at_interval(1)), Some((every(1), 0)));
        assert_eq!(fe.arrival_rank(&links, at_interval(2)), Some((every(2), 1)));
        assert_eq!(fe.arrival_rank(&links, at_interval(3)), None, "no source's next arrival");
        let q = fe.queue_mut(LinkId(0), at_interval(2));
        let flows: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|p| p.flow.0).collect();
        assert_eq!(flows, [0, 1, 2, 0], "at 2 intervals: flows 1 and 2 ahead of flow 0");
        assert_eq!(fe.arrival_rank(&links, at_interval(4)), Some((every(2), 1)));
    }

    /// Lazy sync with arithmetic drops against a per-packet reference in
    /// which every UDP packet arrives on its own, in time order, with
    /// same-instant ties in [`ArrivalRank`] order: random rates (silent
    /// ones included) over one or two flows per link, reads, pops and
    /// head-of-line re-pushes at random instants, and a snapshot restore
    /// midway. Queue contents, drops and source serials must agree.
    #[test]
    fn lazy_arrivals_match_a_per_packet_reference() {
        let tie_prone = [0.0, 250e3, 1e6, 2e6, 4e6, 10e6, 20e6];
        prop::check("lazy UDP arrivals match per-packet arrivals", |g| {
            let n = net();
            let flows = g.vec(1, 4, |g| {
                let rate_bps =
                    if g.bool() { *g.pick(&tie_prone) } else { g.u64(48_000, 30_000_000) as f64 };
                FlowSpec { link: LinkId(g.u64(0, 1) as u32), kind: FlowKind::Udp { rate_bps } }
            });
            let w = Workload { flows };
            let mut fe = FlowEngine::new(&n, &w, 1.0);
            let mut sources: Vec<UdpSource> = fe.udp.iter().flatten().cloned().collect();
            let mut queues = [LinkQueue::default(), LinkQueue::default()];
            let mut drops = 0;
            let mut held: Vec<Packet> = Vec::new();
            let mut now = SimTime::ZERO;
            let restore_at = g.usize(0, 30);
            for step in 0..g.usize(1, 30) {
                now += SimDuration::from_micros(g.u64(0, 8_000));
                while let Some(src) = sources
                    .iter_mut()
                    .filter(|s| s.next_arrival() <= now)
                    .min_by_key(|s| (s.next_arrival(), arrival_rank(s)))
                {
                    let p = src.emit(u64::from(src.flow().0) << 40);
                    if !queues[p.link.index()].push(p) {
                        drops += 1;
                    }
                }
                let link = LinkId(g.u64(0, 1) as u32);
                match g.u64(0, 2) {
                    0 => {}
                    1 => {
                        let popped = fe.queue_mut(link, now).pop();
                        prop_assert_eq!(popped, queues[link.index()].pop());
                        held.extend(popped);
                    }
                    _ => {
                        if let Some(p) = held.pop() {
                            let lazy = fe.queue_mut(p.link, now).push_front(p);
                            prop_assert_eq!(lazy, queues[p.link.index()].push_front(p));
                        }
                    }
                }
                prop_assert_eq!(bytes(fe.queue(link, now)), bytes(&queues[link.index()]));
                if step == restore_at {
                    let mut w_snap = SnapWriter::new();
                    fe.snapshot_save(&mut w_snap);
                    fe = FlowEngine::new(&n, &w, 1.0);
                    fe.snapshot_restore(&mut SnapReader::new(&w_snap.into_bytes())).unwrap();
                }
            }
            fe.sync_all(now);
            for (lazy, eager) in fe.queues.iter().zip(&queues) {
                prop_assert_eq!(bytes(lazy), bytes(eager));
            }
            prop_assert_eq!(fe.stats.drops, drops);
            for (lazy, eager) in fe.udp.iter().flatten().zip(&sources) {
                prop_assert_eq!(bytes(lazy), bytes(eager), "source serial and clock");
            }
        });
    }

    fn bytes(state: &impl Snapshot) -> Vec<u8> {
        let mut w = SnapWriter::new();
        state.save(&mut w);
        w.into_bytes()
    }
}
