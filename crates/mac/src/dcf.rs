//! DCF: IEEE 802.11 Distributed Coordination Function.
//!
//! The paper's primary baseline. Full CSMA/CA: DIFS sensing, binary
//! exponential backoff (CW 15…1023) with freeze/resume on channel
//! activity, SIFS-spaced link-layer ACKs, ACK timeouts, retry limit 7.
//! Hidden- and exposed-terminal behaviour emerges from the medium's RSS
//! physics, not from special cases.
//!
//! [`CsmaCore`] is the per-node contention machine and [`CsmaEv`] its
//! events; [`DcfWorld`] runs it on the plant for a pure-DCF run. CENTAUR
//! reuses both for its unscheduled uplink.
//!
//! UDP arrivals are not events (see [`crate::flows`]), so an idle
//! contender whose queues are empty *parks* until its next packet is due,
//! and a [`CsmaEv::Wake`] at that instant starts its backoff. All senders
//! due at one instant wake inside one event, in the [`ArrivalRank`] of
//! each one's first packet due then, and that event is queued no later
//! than the first of them parks: per-packet arrival events, each queued
//! one interval ahead, would have kicked them in that order, and the
//! order decides who takes which backoff draw.

use crate::flows::{ArrivalRank, FlowEngine};
use crate::plant::{restore_table, Ev, Plant, SchemeEvent, Step};
use crate::run::{RunInputs, World};
use crate::timing::{ack_airtime, ack_timeout, data_airtime, CW_MAX, CW_MIN, DIFS, RETRY_LIMIT, SIFS, SLOT_TIME};
use crate::workload::RunStats;
use domino_medium::{Frame, FrameBody, Reception};
use domino_obs::{CostPath, Probe};
use domino_phy::error_model::DataRate;
use domino_sim::rng::streams;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{SimRng, SimTime};
use domino_topology::{LinkId, Network, NodeId};
use domino_traffic::Packet;

/// The CSMA/CA contention events: all of DCF's own events, and CENTAUR's
/// unscheduled uplink.
#[derive(Debug)]
pub enum CsmaEv {
    /// A node's backoff may have reached zero (the node's timer).
    BackoffExpire {
        /// Node index.
        node: u32,
    },
    /// A data sender's ACK wait expires (the node's timer).
    AckTimeout {
        /// Node index.
        node: u32,
    },
    /// A receiver's SIFS elapsed; transmit the ACK.
    SendAck {
        /// Acknowledging node.
        rx: u32,
        /// The packet being acknowledged.
        packet: Packet,
    },
    /// The senders parked until now have a packet due: start them.
    Wake,
}

impl SchemeEvent for CsmaEv {
    /// A wake stands in for packet arrivals, so it is traffic.
    fn cost_class(&self) -> CostPath {
        match self {
            CsmaEv::Wake => CostPath::EvTraffic,
            CsmaEv::BackoffExpire { .. } | CsmaEv::AckTimeout { .. } | CsmaEv::SendAck { .. } => {
                CostPath::EvSlot
            }
        }
    }

    /// One timer per node, indexed by the node.
    fn timer(&self) -> Option<usize> {
        match self {
            CsmaEv::BackoffExpire { node } | CsmaEv::AckTimeout { node } => Some(*node as usize),
            CsmaEv::SendAck { .. } | CsmaEv::Wake => None,
        }
    }
}

/// A scheme event type that carries [`CsmaEv`]s: DCF's own, and CENTAUR's
/// for its uplink.
pub trait CsmaHost: SchemeEvent + From<CsmaEv> {}

impl<X: SchemeEvent + From<CsmaEv>> CsmaHost for X {}

domino_sim::snap_value!(enum CsmaEv, "csma event tag" {
    0 => BackoffExpire { node },
    1 => AckTimeout { node },
    2 => SendAck { rx, packet },
    3 => Wake,
});

#[derive(Clone, Debug, PartialEq)]
enum NodeState {
    /// Nothing to do or waiting for a packet.
    Idle,
    /// Backoff in progress; `anchor` is when the current countdown
    /// started (None = frozen by a busy channel).
    Counting { anchor: Option<SimTime> },
    /// Our data frame is on the air.
    Transmitting,
    /// Data sent; waiting for the ACK.
    AwaitAck,
}

domino_sim::snap_value!(enum NodeState, "csma node state tag" {
    0 => Idle,
    1 => Counting { anchor },
    2 => Transmitting,
    3 => AwaitAck,
});

#[derive(Debug)]
struct CsmaNode {
    out_links: Vec<LinkId>,
    cw: u32,
    retries: u32,
    remaining_slots: Option<u32>,
    state: NodeState,
    current: Option<Packet>,
}

/// The CSMA/CA contention machinery for a set of contending nodes.
///
/// Node sets are bit words: bit `k` of word `w` is node `64·w + k`.
#[derive(Debug)]
pub struct CsmaCore {
    nodes: Vec<CsmaNode>,
    contender: Vec<u64>,
    /// Each contender's carrier sense as the last scan saw it
    /// (non-contenders' bits stay clear).
    last_busy: Vec<u64>,
    /// Per node: the instant a parked contender wakes (idle, its queues
    /// empty, its next UDP packet due then).
    wake_at: Vec<Option<SimTime>>,
    /// One wake's senders with their ranks (scratch, reused).
    waking: Vec<(Option<ArrivalRank>, usize)>,
    rng: SimRng,
    rate: DataRate,
}

impl CsmaCore {
    /// Build the core; `contenders` are the nodes that run CSMA (all
    /// nodes for DCF; only clients for CENTAUR). Each starts idle with
    /// empty queues, so each parks here, in node order: build the core
    /// before queuing any scheme event.
    pub fn new<X: CsmaHost>(
        net: &Network,
        contenders: &[NodeId],
        seed: u64,
        plant: &mut Plant<X>,
    ) -> CsmaCore {
        let nodes = (0..net.num_nodes() as u32)
            .map(|n| CsmaNode {
                out_links: net.links_from(NodeId(n)),
                cw: CW_MIN,
                retries: 0,
                remaining_slots: None,
                state: NodeState::Idle,
                current: None,
            })
            .collect();
        let words = net.num_nodes().div_ceil(64);
        let mut contender = vec![0; words];
        for c in contenders {
            set_bit(&mut contender, c.index());
        }
        let mut core = CsmaCore {
            nodes,
            contender,
            last_busy: vec![0; words],
            wake_at: vec![None; net.num_nodes()],
            waking: Vec::with_capacity(net.num_nodes()),
            rng: SimRng::derive(seed, streams::DCF_BACKOFF),
            rate: net.phy().data_rate,
        };
        for node in 0..net.num_nodes() {
            core.try_start(node, SimTime::ZERO, plant);
        }
        core
    }

    /// Raw draws taken from the backoff stream so far (profiler food
    /// for `rng;dcf_backoff`).
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    /// The node's pending data frame at `now`, if it has one.
    fn head_packet(&self, node: usize, now: SimTime, fe: &mut FlowEngine) -> Option<Packet> {
        if let Some(p) = self.nodes[node].current {
            return Some(p);
        }
        // Earliest-queued head across this node's outgoing links (one
        // device queue in spirit).
        self.nodes[node]
            .out_links
            .iter()
            .filter_map(|&l| fe.queue(l, now).peek().copied())
            .min_by_key(|p| p.created_at)
    }

    /// Process one of the contention machine's own events.
    pub fn handle<X: CsmaHost>(&mut self, now: SimTime, ev: CsmaEv, plant: &mut Plant<X>) {
        match ev {
            CsmaEv::BackoffExpire { node } => self.on_backoff_expire(node as usize, now, plant),
            CsmaEv::AckTimeout { node } => self.on_ack_timeout(node as usize, now, plant),
            CsmaEv::SendAck { rx, packet } => self.send_ack(rx as usize, &packet, now, plant),
            CsmaEv::Wake => self.wake(now, plant),
        }
    }

    /// Kick a node: if it is idle and has traffic, enter backoff; if it is
    /// idle without, park it.
    pub fn try_start<X: CsmaHost>(&mut self, node: usize, now: SimTime, plant: &mut Plant<X>) {
        if !bit(&self.contender, node) || self.nodes[node].state != NodeState::Idle {
            return;
        }
        if self.head_packet(node, now, &mut plant.fe).is_none() {
            return self.park(node, plant);
        }
        self.wake_at[node] = None;
        if self.nodes[node].remaining_slots.is_none() {
            let cw = self.nodes[node].cw;
            self.nodes[node].remaining_slots = Some(self.rng.below(u64::from(cw) + 1) as u32);
        }
        self.nodes[node].state = NodeState::Counting { anchor: None };
        self.resume(node, now, plant);
    }

    /// Park an idle contender with empty queues until its next UDP packet
    /// is due, queuing the wake at that instant unless a sender parked
    /// for it already did. With no UDP packet ever due, only the kicks
    /// after deliveries and TCP releases start it.
    fn park<X: CsmaHost>(&mut self, node: usize, plant: &mut Plant<X>) {
        if self.wake_at[node].is_some() {
            return;
        }
        let at = plant.fe.next_arrival(&self.nodes[node].out_links);
        if at == SimTime::MAX {
            return;
        }
        if !self.wake_at.contains(&Some(at)) {
            plant.schedule(at, CsmaEv::Wake);
        }
        self.wake_at[node] = Some(at);
    }

    /// Start every sender parked until `now`, ranked by its first packet
    /// due now.
    fn wake<X: CsmaHost>(&mut self, now: SimTime, plant: &mut Plant<X>) {
        self.waking.clear();
        for (node, at) in self.wake_at.iter_mut().enumerate() {
            if *at == Some(now) {
                *at = None;
                let rank = plant.fe.arrival_rank(&self.nodes[node].out_links, now);
                self.waking.push((rank, node));
            }
        }
        self.waking.sort_unstable();
        for i in 0..self.waking.len() {
            let node = self.waking[i].1;
            self.try_start(node, now, plant);
        }
    }

    fn resume<X: CsmaHost>(&mut self, node: usize, now: SimTime, plant: &mut Plant<X>) {
        if plant.medium.is_busy(NodeId(node as u32)) {
            return; // stay frozen; the busy→idle scan resumes us
        }
        let remaining = self.nodes[node].remaining_slots.unwrap_or(0);
        self.nodes[node].state = NodeState::Counting { anchor: Some(now) };
        let expire = now + DIFS + SLOT_TIME * u64::from(remaining);
        plant.schedule(expire, CsmaEv::BackoffExpire { node: node as u32 });
    }

    fn freeze<X: SchemeEvent>(&mut self, node: usize, now: SimTime, plant: &mut Plant<X>) {
        if let NodeState::Counting { anchor: Some(anchor) } = self.nodes[node].state {
            let elapsed = now.saturating_since(anchor);
            let slots_done = elapsed
                .checked_sub(DIFS)
                .map(|d| (d.as_nanos() / SLOT_TIME.as_nanos()) as u32)
                .unwrap_or(0);
            let rem = self.nodes[node].remaining_slots.unwrap_or(0);
            self.nodes[node].remaining_slots = Some(rem.saturating_sub(slots_done));
            self.nodes[node].state = NodeState::Counting { anchor: None };
            plant.disarm(node);
        }
    }

    /// Re-scan channel state after any medium change, freezing or
    /// resuming counters. Only the contenders whose carrier sense flipped
    /// since the last scan are visited, in ascending node order. Freeze
    /// and resume only disarm or schedule timers and never touch the
    /// medium, so one read of each carrier-sense word serves the scan.
    pub fn scan<X: CsmaHost>(&mut self, now: SimTime, plant: &mut Plant<X>) {
        let mut visits = 0;
        for w in 0..self.contender.len() {
            let busy = plant.medium.busy_word(w);
            let flips = (busy ^ self.last_busy[w]) & self.contender[w];
            self.last_busy[w] ^= flips;
            visits += u64::from(flips.count_ones());
            for k in set_bits(flips) {
                let node = 64 * w + k;
                if busy >> k & 1 == 1 {
                    self.freeze(node, now, plant);
                } else if matches!(self.nodes[node].state, NodeState::Counting { anchor: None }) {
                    self.resume(node, now, plant);
                }
            }
        }
        plant.probe.prof.add(CostPath::CsmaVisits, visits);
    }

    /// A backoff timer fired: transmit if the node still counts down.
    fn on_backoff_expire<X: CsmaHost>(&mut self, node: usize, now: SimTime, plant: &mut Plant<X>) {
        if !matches!(self.nodes[node].state, NodeState::Counting { anchor: Some(_) }) {
            return;
        }
        // A transmission that started at this very instant is invisible
        // to carrier sense (sensing is causal): we transmit into it —
        // that is exactly how same-slot DCF collisions happen. Busy from
        // *earlier* transmissions means our freeze lost a race; re-wait.
        if plant.medium.is_busy_before_instant(NodeId(node as u32), now) {
            self.freeze(node, now, plant);
            return;
        }
        // Claim the head packet (pop it from its queue on first attempt).
        let packet = match self.nodes[node].current {
            Some(p) => p,
            None => {
                let head = self
                    .head_packet(node, now, &mut plant.fe)
                    .expect("counting without a packet"); // lint: allow(D005) backoff countdown only runs while a head packet is queued
                let popped = plant
                    .fe
                    .queue_mut(head.link, now)
                    .pop()
                    .expect("head packet vanished"); // lint: allow(D005) head_packet just returned it; a miss is queue corruption
                debug_assert_eq!(popped.id, head.id);
                self.nodes[node].current = Some(popped);
                popped
            }
        };
        self.nodes[node].remaining_slots = None;
        self.nodes[node].state = NodeState::Transmitting;
        let frame = Frame {
            src: NodeId(node as u32),
            body: FrameBody::Data { packet, fake: false, client_burst: None },
            bits: (packet.payload_bytes + crate::timing::MAC_OVERHEAD_BYTES) * 8,
        };
        plant.transmit(now, frame, data_airtime(self.rate, packet.payload_bytes));
        self.scan(now, plant);
    }

    /// Shared handling of a finished *data* frame sent by a CSMA node:
    /// arm the sender's ACK timeout. (Reception side is in
    /// [`CsmaCore::handle_data_receptions`].)
    pub fn after_data_tx<X: CsmaHost>(
        &mut self,
        sender: usize,
        now: SimTime,
        plant: &mut Plant<X>,
    ) {
        debug_assert_eq!(self.nodes[sender].state, NodeState::Transmitting);
        self.nodes[sender].state = NodeState::AwaitAck;
        let timeout = CsmaEv::AckTimeout { node: sender as u32 };
        plant.schedule(now + ack_timeout(self.rate), timeout);
    }

    /// Deliver data receptions (each re-arms the RTO of the TCP flow whose
    /// sender absorbed it, if any) and schedule their ACKs (used for any
    /// data frame, whether a CSMA node or a scheduled AP sent it).
    pub fn handle_data_receptions<X: CsmaHost>(
        receptions: &[Reception],
        now: SimTime,
        plant: &mut Plant<X>,
    ) {
        for r in receptions {
            if !r.success {
                continue;
            }
            if let FrameBody::Data { packet, fake: false, .. } = &r.frame.body {
                plant.deliver(packet, now);
                if !plant.medium.is_transmitting(r.rx) {
                    plant.schedule(now + SIFS, CsmaEv::SendAck { rx: r.rx.0, packet: *packet });
                }
            }
        }
    }

    /// Transmit a MAC ACK (fired SIFS after a successful data
    /// reception).
    fn send_ack<X: CsmaHost>(
        &mut self,
        rx: usize,
        packet: &Packet,
        now: SimTime,
        plant: &mut Plant<X>,
    ) {
        if plant.medium.is_transmitting(NodeId(rx as u32)) {
            return; // cannot ack while transmitting
        }
        let frame = Frame {
            src: NodeId(rx as u32),
            body: FrameBody::MacAck { packet: packet.id, link: packet.link, client_burst: None },
            bits: crate::timing::ACK_BYTES * 8,
        };
        plant.transmit(now, frame, ack_airtime(self.rate));
        self.scan(now, plant);
    }

    /// An ACK reception reached a CSMA sender: resolve its pending frame.
    /// Returns true if this reception was consumed.
    pub fn on_ack_reception<X: CsmaHost>(
        &mut self,
        r: &Reception,
        now: SimTime,
        plant: &mut Plant<X>,
    ) -> bool {
        let FrameBody::MacAck { packet, .. } = &r.frame.body else {
            return false;
        };
        let node = r.rx.index();
        if !bit(&self.contender, node) {
            return false;
        }
        if !r.success {
            return true; // lost ACK; the timeout will handle it
        }
        match self.nodes[node].current {
            Some(p) if p.id == *packet && self.nodes[node].state == NodeState::AwaitAck => {
                self.nodes[node].current = None;
                self.nodes[node].cw = CW_MIN;
                self.nodes[node].retries = 0;
                self.nodes[node].remaining_slots = None;
                self.nodes[node].state = NodeState::Idle;
                plant.disarm(node); // cancels the pending timeout
                self.try_start(node, now, plant);
                true
            }
            _ => true,
        }
    }

    /// The ACK wait expired: retry or drop.
    fn on_ack_timeout<X: CsmaHost>(&mut self, node: usize, now: SimTime, plant: &mut Plant<X>) {
        if self.nodes[node].state != NodeState::AwaitAck {
            return;
        }
        plant.fe.stats.ack_timeouts += 1;
        self.nodes[node].retries += 1;
        if self.nodes[node].retries > RETRY_LIMIT {
            plant.fe.stats.drops += 1;
            self.nodes[node].current = None;
            self.nodes[node].cw = CW_MIN;
            self.nodes[node].retries = 0;
        } else {
            plant.fe.stats.retries += 1;
            self.nodes[node].cw = (self.nodes[node].cw * 2 + 1).min(CW_MAX);
        }
        self.nodes[node].remaining_slots = None;
        self.nodes[node].state = NodeState::Idle;
        self.try_start(node, now, plant);
    }

    /// Bit `k` is set when node `64·w + k` is idle (no branch per node).
    fn idle_word(&self, w: usize) -> u64 {
        let lo = 64 * w;
        let hi = self.nodes.len().min(lo + 64);
        let mut word = 0;
        for (k, n) in self.nodes[lo..hi].iter().enumerate() {
            word |= u64::from(matches!(n.state, NodeState::Idle)) << k;
        }
        word
    }

    /// Kick every idle contender (after deliveries released new packets),
    /// in ascending node order. `try_start` does nothing for any other
    /// node and changes only its own node, so each word's idle mask is
    /// built before its kicks.
    pub fn try_start_all<X: CsmaHost>(&mut self, now: SimTime, plant: &mut Plant<X>) {
        let mut visits = 0;
        for w in 0..self.contender.len() {
            let idle = self.contender[w] & self.idle_word(w);
            visits += u64::from(idle.count_ones());
            for k in set_bits(idle) {
                self.try_start(64 * w + k, now, plant);
            }
        }
        plant.probe.prof.add(CostPath::CsmaVisits, visits);
    }
}

/// Is node `i` in the set `words`?
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Add node `i` to the set `words`.
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (k < 64).then_some(k)
    })
}

impl Snapshot for CsmaCore {
    /// Dynamic state: every node's contention machine, the busy-edge
    /// detector, the parked senders' wake instants and the backoff RNG.
    /// The contender set, the outgoing-link tables and the PHY rate are
    /// configuration. (The wake events themselves are the engine's.)
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            w.put_u32(n.cw);
            w.put_u32(n.retries);
            n.remaining_slots.put(w);
            n.state.put(w);
            n.current.put(w);
        }
        let last_busy: Vec<bool> = (0..self.nodes.len()).map(|n| bit(&self.last_busy, n)).collect();
        last_busy.put(w);
        self.wake_at.put(w);
        self.rng.put(w);
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.get_len()? != self.nodes.len() {
            return Err(SnapError::Corrupt("csma node count"));
        }
        for n in &mut self.nodes {
            n.cw = r.get_u32()?;
            n.retries = r.get_u32()?;
            n.remaining_slots = SnapValue::thaw(r)?;
            n.state = SnapValue::thaw(r)?;
            n.current = SnapValue::thaw(r)?;
        }
        let last_busy: Vec<bool> = SnapValue::thaw(r)?;
        if last_busy.len() != self.nodes.len() {
            return Err(SnapError::Corrupt("csma busy table length"));
        }
        self.last_busy.fill(0);
        for (n, _) in last_busy.iter().enumerate().filter(|(_, &busy)| busy) {
            set_bit(&mut self.last_busy, n);
        }
        restore_table(&mut self.wake_at, r, "csma wake table length")?;
        let stray = |n: usize| self.wake_at[n].is_some() && !bit(&self.contender, n);
        if (0..self.nodes.len()).any(stray) {
            return Err(SnapError::Corrupt("csma wake of a non-contender"));
        }
        self.rng = SimRng::thaw(r)?;
        Ok(())
    }
}

/// The complete state of a pure-DCF run between events.
#[derive(Debug)]
pub struct DcfWorld {
    plant: Plant<CsmaEv>,
    csma: CsmaCore,
}

impl World for DcfWorld {
    type Config = ();
    type Event = CsmaEv;

    /// DCF has no scheduler, so only the engine's liveness events and the
    /// medium's fault injections appear in its trace.
    fn new(inputs: &RunInputs<'_>, (): (), probe: Probe) -> DcfWorld {
        let net = inputs.net;
        let contenders: Vec<NodeId> = (0..net.num_nodes() as u32).map(NodeId).collect();
        let mut plant = Plant::new(inputs, probe, net.num_nodes());
        let csma = CsmaCore::new(net, &contenders, inputs.seed, &mut plant);
        DcfWorld { plant, csma }
    }

    fn plant(&mut self) -> &mut Plant<CsmaEv> {
        &mut self.plant
    }

    fn handle(&mut self, now: SimTime, ev: Ev<CsmaEv>) {
        match self.plant.step(now, ev) {
            Step::Released => self.csma.try_start_all(now, &mut self.plant),
            Step::TxEnd(receptions) => {
                self.csma.scan(now, &mut self.plant);
                if let Some(first) = receptions.first() {
                    match &first.frame.body {
                        FrameBody::Data { .. } => {
                            self.csma.after_data_tx(first.frame.src.index(), now, &mut self.plant);
                            CsmaCore::handle_data_receptions(&receptions, now, &mut self.plant);
                        }
                        FrameBody::MacAck { .. } => {
                            for r in &receptions {
                                self.csma.on_ack_reception(r, now, &mut self.plant);
                            }
                        }
                        _ => {}
                    }
                }
                self.plant.reuse(receptions);
                self.csma.try_start_all(now, &mut self.plant);
            }
            Step::Scheme(ev) => self.csma.handle(now, ev, &mut self.plant),
        }
    }

    fn finalize(self) -> RunStats {
        self.plant.probe.prof.add(CostPath::RngDcfBackoff, self.csma.rng_draws());
        self.plant.finish()
    }
}

domino_sim::snapshot_fields!(DcfWorld { csma });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centaur::CentaurWorld;
    use crate::run::testing::{assert_checkpoint_resume_matches, run_plain};
    use crate::run::{run, Checkpoints};
    use crate::workload::{FlowKind, FlowSpec, Workload};
    use domino_faults::FaultConfig;
    use domino_phy::units::Dbm;
    use domino_topology::builder::random_placement;
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeRole, Position};
    use domino_topology::presets::{fig1, fig7};
    use domino_topology::rss::RssMatrix;

    fn dcf(net: &Network, w: &Workload, duration_s: f64, seed: u64) -> RunStats {
        run_plain::<DcfWorld>(net, w, duration_s, seed, ())
    }

    #[test]
    fn every_event_roundtrips() {
        use crate::plant::testing::{assert_events_roundtrip, sample_packet};
        assert_events_roundtrip(&[
            Ev::Scheme(CsmaEv::BackoffExpire { node: 3 }),
            Ev::Scheme(CsmaEv::AckTimeout { node: 1 }),
            Ev::Scheme(CsmaEv::SendAck { rx: 2, packet: sample_packet() }),
            Ev::Scheme(CsmaEv::Wake),
        ]);
    }

    fn one_pair() -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(2);
        rss.set_symmetric(domino_topology::NodeId(0), domino_topology::NodeId(1), Dbm(-55.0));
        Network::new(nodes, rss, PhyParams::default())
    }

    #[test]
    fn saturated_single_pair_throughput() {
        let net = one_pair();
        let w = Workload::udp_saturated(&[LinkId(0)]);
        let stats = dcf(&net, &w, 2.0, 1);
        let mbps = stats.aggregate_mbps();
        // 512 B at 12 Mb/s with DIFS + mean backoff + SIFS + ACK
        // overhead lands around 7-8 Mb/s.
        assert!((6.0..9.5).contains(&mbps), "DCF single-pair: {mbps} Mb/s");
        assert!(stats.ack_timeouts == 0, "clean channel has no timeouts");
    }

    #[test]
    fn deterministic_per_seed() {
        let net = one_pair();
        let w = Workload::udp_updown(&net, 3e6, 1e6);
        let a = dcf(&net, &w, 1.0, 7);
        let b = dcf(&net, &w, 1.0, 7);
        assert!(a == b, "same seed, different runs");
    }

    #[test]
    fn light_load_is_served_fully() {
        let net = one_pair();
        let w = Workload::udp_updown(&net, 1e6, 0.5e6);
        let stats = dcf(&net, &w, 2.0, 3);
        let down = stats.link_mbps(LinkId(0));
        let up = stats.link_mbps(LinkId(1));
        assert!((down - 1.0).abs() < 0.08, "downlink served: {down}");
        assert!((up - 0.5).abs() < 0.05, "uplink served: {up}");
        // Light load means small queues and small delays.
        assert!(stats.mean_delay_us(&[LinkId(0)]) < 5_000.0);
    }

    #[test]
    fn hidden_terminal_starves_victim() {
        let net = fig1(PhyParams::default());
        // Saturate the paper's three flows: AP1->C1 (link 0), C2->AP2
        // (uplink of pair 2), AP3->C3 (downlink of pair 3).
        let l_ap1 = LinkId(0);
        let l_c2 = net.links().iter().find(|l| !l.is_downlink() && l.ap == domino_topology::NodeId(2)).unwrap().id;
        let l_ap3 = net.links().iter().find(|l| l.is_downlink() && l.sender == domino_topology::NodeId(4)).unwrap().id;
        let w = Workload::udp_saturated(&[l_ap1, l_c2, l_ap3]);
        let stats = dcf(&net, &w, 3.0, 5);
        let t1 = stats.link_mbps(l_ap1);
        let t3 = stats.link_mbps(l_ap3);
        // AP3's downlink is the hidden-terminal victim: far below AP1.
        assert!(t3 < t1 * 0.5, "victim {t3} vs aggressor {t1}");
        assert!(stats.ack_timeouts > 100, "collisions must show up as timeouts");
    }

    #[test]
    fn exposed_terminal_serializes_under_dcf() {
        let net = fig1(PhyParams::default());
        let l_ap1 = LinkId(0);
        let l_c2 = net.links().iter().find(|l| !l.is_downlink() && l.ap == domino_topology::NodeId(2)).unwrap().id;
        let w = Workload::udp_saturated(&[l_ap1, l_c2]);
        let stats = dcf(&net, &w, 2.0, 9);
        let total = stats.link_mbps(l_ap1) + stats.link_mbps(l_c2);
        // The two links are exposed (could run concurrently at ~8 each)
        // but DCF serializes them: aggregate stays near single-link
        // capacity.
        assert!(total < 10.0, "DCF should serialize exposed links: {total}");
        assert!(total > 5.0, "but they do share the channel: {total}");
    }

    #[test]
    fn checkpoint_and_resume_match_uninterrupted_run() {
        let net = one_pair();
        let w = Workload::udp_updown(&net, 3e6, 1e6);
        let off = FaultConfig::off();
        let inputs = RunInputs { net: &net, workload: &w, duration_s: 1.0, seed: 7, faults: &off };
        let boundary = SimTime::from_nanos(500_000_000);
        assert_checkpoint_resume_matches::<DcfWorld>(&inputs, (), boundary);

        // A payload for a different configuration is rejected, not
        // silently mis-restored.
        let mut snap = Vec::new();
        let ckpt = Checkpoints { at: &[boundary], sink: &mut |_, bytes| snap = bytes };
        run::<DcfWorld>(&inputs, (), Probe::default(), Some(ckpt), None).unwrap();
        let other = Workload::udp_updown(&net, 3e6, 0.0);
        let foreign = RunInputs { workload: &other, ..inputs };
        assert!(run::<DcfWorld>(&foreign, (), Probe::default(), None, Some((boundary, &snap))).is_err());
    }

    #[test]
    fn restore_rejects_a_wake_of_a_non_contender() {
        let net = one_pair();
        let w = Workload::udp_updown(&net, 1e6, 1e6);
        let off = FaultConfig::off();
        let inputs = RunInputs { net: &net, workload: &w, duration_s: 1.0, seed: 1, faults: &off };
        let mut plant: Plant<CsmaEv> = Plant::new(&inputs, Probe::default(), net.num_nodes());
        // Only the client contends, as under CENTAUR; it parks at once.
        let mut build = || CsmaCore::new(&net, &[NodeId(1)], 1, &mut plant);
        let mut core = build();
        assert_eq!(core.wake_at, [None, Some(SimTime::from_nanos(4_096_000))]);
        let saved = |core: &CsmaCore| {
            let mut w = SnapWriter::new();
            core.save(&mut w);
            w.into_bytes()
        };
        assert_eq!(build().restore(&mut SnapReader::new(&saved(&core))), Ok(()));
        core.wake_at[0] = Some(SimTime::from_millis(1));
        assert_eq!(
            build().restore(&mut SnapReader::new(&saved(&core))),
            Err(SnapError::Corrupt("csma wake of a non-contender"))
        );
    }

    /// Drive a run of `net` under UDP 10/5 Mb/s event by event, as
    /// `run::drive` does, checking after every event that each
    /// contender's carrier sense, as its last scan saw it, is the
    /// medium's now. Returns the number of events.
    fn drive_checking_sense<W: World>(
        net: &Network,
        duration_s: f64,
        faults: &FaultConfig,
        csma: fn(&W) -> &CsmaCore,
    ) -> u64
    where
        W::Config: Default,
    {
        let workload = Workload::udp_updown(net, 10e6, 5e6);
        let inputs = RunInputs { net, workload: &workload, duration_s, seed: 0xD0311, faults };
        let mut world = W::new(&inputs, W::Config::default(), Probe::default());
        let horizon = world.plant().end;
        let mut events = 0;
        while let Some((now, ev)) =
            world.plant().engine.pop_until_checked(horizon).expect("no livelock")
        {
            world.handle(now, ev);
            events += 1;
            let sensed: Vec<bool> = (0..net.num_nodes() as u32)
                .map(|n| world.plant().medium.is_busy(NodeId(n)))
                .collect();
            let core = csma(&world);
            for (node, &busy) in sensed.iter().enumerate() {
                if bit(&core.contender, node) {
                    let seen = bit(&core.last_busy, node);
                    assert_eq!(seen, busy, "node {node} after event {events} at {now:?}");
                }
            }
        }
        events
    }

    #[test]
    fn every_contender_senses_what_the_medium_says_after_every_event() {
        let fig7 = fig7(PhyParams::default());
        // Fig 14's first random T(20,3): 80 nodes, two words per node set.
        let t20x3 = random_placement(20, 3, 800.0, 30.0, PhyParams::default(), 1);
        for (net, duration_s) in [(&fig7, 0.2), (&t20x3, 0.1)] {
            for faults in [FaultConfig::off(), FaultConfig::chaos(0.5)] {
                let events = [
                    drive_checking_sense::<DcfWorld>(net, duration_s, &faults, |w| &w.csma),
                    drive_checking_sense(net, duration_s, &faults, CentaurWorld::csma),
                ];
                assert!(events.iter().all(|&n| n > 1000), "events per scheme: {events:?}");
            }
        }
    }

    #[test]
    fn checkpoint_resume_under_chaos_and_tcp() {
        let net = one_pair();
        let w = Workload::tcp_updown(&net, 6e6, 0.0);
        let chaos = FaultConfig::chaos(0.7);
        let inputs = RunInputs { net: &net, workload: &w, duration_s: 1.0, seed: 21, faults: &chaos };
        assert_checkpoint_resume_matches::<DcfWorld>(&inputs, (), SimTime::from_nanos(300_000_000));
    }

    #[test]
    fn tcp_flow_progresses() {
        let net = one_pair();
        let w = Workload {
            flows: vec![FlowSpec { link: LinkId(0), kind: FlowKind::Tcp { rate_bps: 10e6 } }],
        };
        let stats = dcf(&net, &w, 2.0, 11);
        let mbps = stats.link_mbps(LinkId(0));
        assert!(mbps > 3.0, "TCP over clean DCF: {mbps} Mb/s");
    }
}
