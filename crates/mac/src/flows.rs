//! Traffic state shared by every scheme: per-link queues, UDP/TCP flow
//! state, delivery accounting.
//!
//! The scheme engines (DCF, CENTAUR, Omniscient, DOMINO) differ only in
//! *when* a link gets to transmit; everything about packet arrivals,
//! TCP feedback, queue occupancy and goodput/delay metering is identical
//! and lives here. The [`Plant`](crate::plant::Plant) owns the one
//! `FlowEngine` of a run and drives it: arrival and tick events, RTO
//! timers, the end-of-run flush.

use crate::workload::{FlowKind, RunStats, Workload};
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{SimDuration, SimTime};
use domino_topology::{LinkId, Network};
use domino_traffic::{
    FlowId, LinkQueue, Packet, PacketId, PacketKind, TcpReceiver, TcpSender, UdpSource,
    TCP_ACK_BYTES,
};

/// Recommended interval for the harness's periodic TCP application tick.
pub const TCP_TICK: SimDuration = SimDuration::from_millis(2);

#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum FlowRuntime {
    Udp(UdpSource),
    Tcp {
        sender: TcpSender,
        receiver: TcpReceiver,
        link: LinkId,
        reverse: LinkId,
        delivered_segments: u64,
    },
}

/// Queues + flow state + metering for one run.
#[derive(Debug)]
pub struct FlowEngine {
    packet_bytes: usize,
    queues: Vec<LinkQueue>,
    flows: Vec<FlowRuntime>,
    /// link index → flow index (for TCP data links and reverse-ack
    /// lookup).
    flow_of_link: Vec<Option<usize>>,
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
        let flows: Vec<FlowRuntime> = workload
            .flows
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                flow_of_link[spec.link.index()] = Some(i);
                match &spec.kind {
                    FlowKind::Udp { rate_bps } => FlowRuntime::Udp(UdpSource::new(
                        FlowId(i as u32),
                        spec.link,
                        *rate_bps,
                        workload.packet_bytes,
                        SimTime::ZERO,
                    )),
                    FlowKind::Tcp { cfg } => FlowRuntime::Tcp {
                        sender: TcpSender::new(
                            FlowId(i as u32),
                            spec.link,
                            cfg.clone(),
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
        FlowEngine {
            packet_bytes: workload.packet_bytes,
            queues: (0..num_links).map(|_| LinkQueue::default()).collect(),
            flows,
            flow_of_link,
            last_udp_seq: vec![None; num_links],
            ack_serial: 0,
            stats: RunStats::new(num_links, duration_s),
        }
    }

    /// The queue of one link.
    pub fn queue(&self, link: LinkId) -> &LinkQueue {
        &self.queues[link.index()]
    }

    /// Mutable queue access (schemes pop/push here).
    pub fn queue_mut(&mut self, link: LinkId) -> &mut LinkQueue {
        &mut self.queues[link.index()]
    }

    /// Total packets waiting across all links.
    pub fn total_backlog(&self) -> usize {
        self.queues.iter().map(LinkQueue::len).sum()
    }

    /// Indices of UDP flows.
    pub fn udp_flows(&self) -> Vec<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(f, FlowRuntime::Udp(_)))
            .map(|(i, _)| i)
            .collect()
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

    /// The data link of a flow.
    pub fn flow_link(&self, flow: usize) -> LinkId {
        match &self.flows[flow] {
            FlowRuntime::Udp(src) => src.link(),
            FlowRuntime::Tcp { link, .. } => *link,
        }
    }

    /// Next arrival instant of a UDP flow.
    pub fn udp_next_arrival(&self, flow: usize) -> SimTime {
        match &self.flows[flow] {
            FlowRuntime::Udp(src) => src.next_arrival(),
            // lint: allow(D005) caller contract: flow index came from a UDP event; misrouting must not silently corrupt stats
            _ => panic!("flow {flow} is not UDP"),
        }
    }

    /// Emit the due packet of a UDP flow into its queue. Returns whether
    /// it was queued (false = dropped at the full queue).
    pub fn udp_arrive(&mut self, flow: usize) -> bool {
        let packet = match &mut self.flows[flow] {
            FlowRuntime::Udp(src) => src.emit((flow as u64) << 40),
            // lint: allow(D005) caller contract: arrival events carry UDP flow indices only
            _ => panic!("flow {flow} is not UDP"),
        };
        let ok = self.queues[packet.link.index()].push(packet);
        if !ok {
            self.stats.drops += 1;
        }
        ok
    }

    /// Drive a TCP sender's application/window (periodic tick and after
    /// acks); releases segments into the link queue.
    pub fn tcp_tick(&mut self, flow: usize, now: SimTime) {
        let packets = match &mut self.flows[flow] {
            FlowRuntime::Tcp { sender, .. } => sender.poll(now),
            // lint: allow(D005) caller contract: tick events carry TCP flow indices only
            _ => panic!("flow {flow} is not TCP"),
        };
        self.enqueue_all(packets);
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
        self.enqueue_all(packets);
    }

    fn enqueue_all(&mut self, packets: Vec<Packet>) {
        for p in packets {
            if !self.queues[p.link.index()].push(p) {
                self.stats.drops += 1;
            }
        }
    }

    /// Account a successful delivery of `packet` at `now` and run the
    /// transport reaction (TCP receivers generate acks onto the reverse
    /// link; TCP senders absorb acks and may release more segments).
    pub fn deliver(&mut self, packet: &Packet, now: SimTime) {
        match packet.kind {
            PacketKind::Udp => {
                let last = &mut self.last_udp_seq[packet.link.index()];
                if last.is_some_and(|l| packet.seq <= l) {
                    return; // duplicate of an already-delivered packet
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
                let mss = self.packet_bytes as u64 * 8;
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
                if !self.queues[reverse.index()].push(ack_packet) {
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
                self.enqueue_all(released);
            }
        }
    }

    /// Snapshot of all dynamic traffic state. Flow specs, the link
    /// universe and the packet size are configuration and stay with the
    /// restore target's constructor.
    pub fn snapshot_save(&self, w: &mut SnapWriter) {
        w.put_u64(self.queues.len() as u64);
        for q in &self.queues {
            q.save(w);
        }
        w.put_u64(self.flows.len() as u64);
        for f in &self.flows {
            match f {
                FlowRuntime::Udp(src) => {
                    w.put_u8(0);
                    src.save(w);
                }
                FlowRuntime::Tcp { sender, receiver, delivered_segments, .. } => {
                    w.put_u8(1);
                    sender.save(w);
                    receiver.save(w);
                    w.put_u64(*delivered_segments);
                }
            }
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
                (0, FlowRuntime::Udp(src)) => src.restore(r)?,
                (1, FlowRuntime::Tcp { sender, receiver, delivered_segments, .. }) => {
                    sender.restore(r)?;
                    receiver.restore(r)?;
                    *delivered_segments = r.get_u64()?;
                }
                _ => return Err(SnapError::Corrupt("flow runtime kind")),
            }
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
    use crate::workload::Workload;
    use domino_phy::units::Dbm;
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeId, NodeRole, Position};
    use domino_topology::rss::RssMatrix;

    fn net() -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(2);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-55.0));
        Network::new(nodes, rss, PhyParams::default())
    }

    #[test]
    fn udp_arrivals_fill_the_queue() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.udp_flows()[0];
        assert!(fe.udp_next_arrival(flow) > SimTime::ZERO);
        for _ in 0..5 {
            assert!(fe.udp_arrive(flow));
        }
        assert_eq!(fe.queue(LinkId(0)).len(), 5);
        assert_eq!(fe.total_backlog(), 5);
    }

    #[test]
    fn udp_delivery_meters_goodput_and_delay() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.udp_flows()[0];
        fe.udp_arrive(flow);
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        let deliver_at = p.created_at + SimDuration::from_micros(500);
        fe.deliver(&p, deliver_at);
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        assert!((fe.stats.delays[0].mean_us() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn tcp_data_generates_ack_on_reverse_link() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.tcp_flows()[0];
        fe.tcp_tick(flow, SimTime::from_millis(1));
        assert!(!fe.queue(LinkId(0)).is_empty(), "sender released segments");
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        assert_eq!(p.kind, PacketKind::TcpData);
        fe.deliver(&p, SimTime::from_millis(2));
        // Ack waits on the reverse (uplink) queue.
        assert_eq!(fe.queue(LinkId(1)).len(), 1);
        let ack = fe.queue_mut(LinkId(1)).pop().unwrap();
        assert_eq!(ack.kind, PacketKind::TcpAck);
        assert_eq!(ack.seq, 1);
        // Goodput counted once.
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        // Delivering the ack opens the sender's window.
        let before = fe.queue(LinkId(0)).len();
        fe.deliver(&ack, SimTime::from_millis(3));
        assert!(fe.queue(LinkId(0)).len() > before, "ack released new segments");
    }

    #[test]
    fn tcp_retransmission_does_not_double_count_goodput() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.tcp_flows()[0];
        fe.tcp_tick(flow, SimTime::from_millis(1));
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        fe.deliver(&p, SimTime::from_millis(2));
        let bits = fe.stats.delivered_bits[0];
        // Same segment again (spurious retransmission).
        fe.deliver(&p, SimTime::from_millis(3));
        assert_eq!(fe.stats.delivered_bits[0], bits);
    }

    #[test]
    fn duplicate_udp_delivery_not_double_counted() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.udp_flows()[0];
        fe.udp_arrive(flow);
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        fe.deliver(&p, SimTime::from_millis(1));
        fe.deliver(&p, SimTime::from_millis(2)); // MAC retry after lost ACK
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        assert_eq!(fe.stats.delays[0].count(), 1);
    }

    #[test]
    fn queue_overflow_counts_drops() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.udp_flows()[0];
        for _ in 0..250 {
            let _ = fe.udp_arrive(flow);
        }
        assert!(fe.stats.drops > 0);
        assert_eq!(fe.queue(LinkId(0)).len(), 200);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::workload::Workload;
    use domino_phy::units::Dbm;
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeId, NodeRole, Position};
    use domino_topology::rss::RssMatrix;
    use domino_topology::{LinkId, Network};

    fn net() -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(2);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-55.0));
        Network::new(nodes, rss, PhyParams::default())
    }

    #[test]
    fn tcp_rto_fires_through_the_engine_interface() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let flow = fe.tcp_flows()[0];
        fe.tcp_tick(flow, SimTime::from_millis(1));
        let q_before = fe.queue(LinkId(0)).len();
        assert!(q_before > 0);
        let deadline = fe.tcp_rto_deadline(flow).expect("rto armed after send");
        // Drain the queue (packets "lost"), then fire the timer: the
        // retransmission lands back in the queue.
        while fe.queue_mut(LinkId(0)).pop().is_some() {}
        fe.tcp_timer(flow, deadline);
        assert_eq!(fe.queue(LinkId(0)).len(), 1, "go-back-N retransmission queued");
        assert_eq!(fe.tcp_retransmissions(), 1);
    }

    #[test]
    fn flow_link_lookup() {
        let n = net();
        let w = Workload::udp_updown(&n, 5e6, 1e6);
        let fe = FlowEngine::new(&n, &w, 1.0);
        assert_eq!(fe.flow_link(0), LinkId(0));
        assert_eq!(fe.flow_link(1), LinkId(1));
    }

    #[test]
    fn total_backlog_sums_all_queues() {
        let n = net();
        let w = Workload::udp_updown(&n, 5e6, 5e6);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        for flow in fe.udp_flows() {
            fe.udp_arrive(flow);
            fe.udp_arrive(flow);
        }
        assert_eq!(fe.total_backlog(), 4);
    }
}
