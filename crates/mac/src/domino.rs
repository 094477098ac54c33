//! DOMINO: relative scheduling executed through signature triggers.
//!
//! The paper's contribution. The central controller computes strict
//! schedules with the RAND greedy policy, converts them to relative
//! schedules (`domino-scheduler`), and distributes per-AP programs over
//! the jittery wired backbone. On the air, *nothing is clocked*: each
//! slot's transmitters start when they detect their own Gold-code
//! signature followed by the START (or ROP) marker in the previous slot's
//! end-of-exchange bursts (Fig 8). Re-anchoring to the *last* received
//! trigger is what heals the initial wired-jitter misalignment within a
//! few slots (Fig 11 / §3.4).
//!
//! Faithfully modeled details:
//! * trigger instructions ride in-band: the client's burst assignment is
//!   embedded in the AP's data frame (downlink) or ACK (uplink), so a
//!   corrupted exchange silences both bursts — the paper's ..2 failure;
//! * fake links transmit header-only keep-alives and carry triggers;
//! * ROP slots: poll → one WiFi slot → the shared 16 µs answer symbol,
//!   with decode success from the Fig 5/6-calibrated model; reports are
//!   relayed to the controller over the wire;
//! * missed-ACK retransmission per §3.5 (client: retransmit on next
//!   trigger; AP: retransmit when the schedule head targets the same
//!   receiver);
//! * watchdog self-start: the very first batch (and any fully broken
//!   chain) starts by the APs individually, then heals.

use crate::plant::{restore_table, Ev, Plant, SchemeEvent, Step};
use crate::run::{RunInputs, World};
use crate::timing::{
    fake_airtime, poll_airtime, rop_slot_duration, slot_geometry, SlotGeometry, ACK_BYTES,
    MAC_OVERHEAD_BYTES, POLL_BYTES, ROP_SYMBOL, SIFS, SLOT_TIME,
};
use crate::workload::{DominoCounters, RunStats, WATCHDOG_STORM_THRESHOLD};
use domino_medium::{Burst, BurstMarker, Frame, FrameBody, InlineVec, Reception};
use domino_obs::{CostPath, FaultKind, Probe, TraceEvent};
use domino_scheduler::{
    BacklogView, BurstAssignment, ConversionOutcome, Converter, ConverterConfig, RandScheduler,
    RelativeBatch, SlotEntry,
};
use domino_sim::rng::streams;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{SimDuration, SimTime};
use domino_topology::{ConflictGraph, Direction, LinkId, Network, NodeId};
use domino_traffic::{Packet, PacketKind, DEFAULT_PACKET_BYTES};
use domino_wired::{Backbone, WiredLatency};
use std::collections::VecDeque;

/// Replay cost per buffered report when the warm standby promotes: the
/// bounded delta it ingests before taking over as the acting controller.
const REPLAY_COST: SimDuration = SimDuration::from_micros(50);

/// Self-start watchdog: how long an AP with pending work waits for a
/// trigger before starting on its own (§3.3).
const WATCHDOG: SimDuration = SimDuration::from_micros(1500);

/// Bounded delta: queue-report copies the standby retains between two
/// state checkpoints. Older reports are superseded by the checkpoint
/// itself, so the cap only sheds load under checkpoint starvation.
const STANDBY_BUF_CAP: usize = 256;

/// DOMINO's timers: the controller's compute, then each node's slot start
/// and watchdog, interleaved: `1 + 2 * nodes` in all.
const COMPUTE_TIMER: usize = 0;

/// The timer of `node`'s pending slot start.
fn start_timer(node: usize) -> usize {
    1 + 2 * node
}

/// The timer of `ap`'s self-start watchdog.
fn watchdog_timer(ap: usize) -> usize {
    2 + 2 * ap
}

/// DOMINO engine parameters.
#[derive(Clone, Debug)]
pub struct DominoConfig {
    /// Strict-schedule slots per batch (the §5 polling-frequency knob:
    /// ROP runs once per batch).
    pub batch_slots: usize,
    /// Wired backbone latency model.
    pub wired: WiredLatency,
    /// Converter settings (trigger caps, fake links, ROP insertion).
    pub converter: ConverterConfig,
}

impl Default for DominoConfig {
    fn default() -> DominoConfig {
        DominoConfig {
            batch_slots: 5,
            wired: WiredLatency::default(),
            converter: ConverterConfig::default(),
        }
    }
}

/// What an AP does in one scheduled slot.
#[derive(Clone, Debug, PartialEq)]
enum ApActionKind {
    /// Transmit (downlink): the AP is the slot's sender on `link`.
    TxData {
        /// The downlink.
        link: LinkId,
    },
    /// Receive (uplink): the client transmits on `link`; the AP ACKs.
    RxData {
        /// The uplink.
        link: LinkId,
    },
    /// Run the ROP poll.
    Poll,
}

/// One per-AP program entry.
#[derive(Clone, Debug)]
struct ApAction {
    slot: u64,
    kind: ApActionKind,
    /// An ROP slot sits immediately before this action's slot (the
    /// self-trigger path must wait it out, like the ROP marker does).
    rop_before: bool,
    /// No over-the-air trigger reaches this entry: the AP starts it
    /// individually at its estimated slot time (§3.3's first-batch rule,
    /// applied per entry — isolated AP cells live on this).
    kick_off: bool,
    /// Burst the AP broadcasts at the slot's burst offset.
    own_burst: Option<Burst>,
    /// Burst instruction for the client (embedded in data or ACK).
    client_burst: Option<Burst>,
}

/// An AP's program: its pending actions in delivery order.
///
/// Fault-free programs are slot-sorted, since every batch continues the
/// slot ids of the one before; crashes, lost batches and failovers can
/// append lower slots behind higher ones. The program counts its
/// descents (adjacent actions whose later one has the lower slot), a
/// derived figure rebuilt on restore and never saved, so a slot lookup
/// binary-searches while there are none and scans otherwise.
#[derive(Debug, Default)]
struct Program {
    actions: VecDeque<ApAction>,
    descents: usize,
}

impl Program {
    fn front(&self) -> Option<&ApAction> {
        self.actions.front()
    }

    fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    fn clear(&mut self) {
        self.actions.clear();
        self.descents = 0;
    }

    fn pop_front(&mut self) -> Option<ApAction> {
        let head = self.actions.pop_front()?;
        if self.actions.front().is_some_and(|next| next.slot < head.slot) {
            self.descents -= 1;
        }
        Some(head)
    }

    fn push_back(&mut self, action: ApAction) {
        if self.actions.back().is_some_and(|last| action.slot < last.slot) {
            self.descents += 1;
        }
        self.actions.push_back(action);
    }

    /// Index of the first action for `slot`, as a front-to-back scan
    /// would find it.
    fn position(&self, slot: u64) -> Option<usize> {
        if self.descents > 0 {
            return self.actions.iter().position(|a| a.slot == slot);
        }
        let i = self.actions.partition_point(|a| a.slot < slot);
        self.actions.get(i).is_some_and(|a| a.slot == slot).then_some(i)
    }

    /// The first action for `slot` (its slot must not be changed).
    fn find_mut(&mut self, slot: u64) -> Option<&mut ApAction> {
        let i = self.position(slot)?;
        self.actions.get_mut(i)
    }
}

impl SnapValue for Program {
    fn put(&self, w: &mut SnapWriter) {
        self.actions.put(w);
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<Program, SnapError> {
        let mut program = Program::default();
        for action in VecDeque::<ApAction>::thaw(r)? {
            program.push_back(action);
        }
        Ok(program)
    }
}

/// Replacement burst info for one already-delivered retained-slot
/// action: `(slot, own burst, client burst)`.
type RetainedUpdate = (u64, Option<Burst>, Option<Burst>);

/// Wired message to one AP (opaque outside the DOMINO engine).
#[derive(Debug)]
pub struct ApMessage {
    first_slot: u64,
    actions: Vec<ApAction>,
    /// Replacement burst info for already-delivered retained-slot
    /// actions, keyed by slot id (batch connection, §3.3).
    retained_updates: Vec<RetainedUpdate>,
}

/// DOMINO scheme events.
#[derive(Debug)]
pub enum DEv {
    /// Wired delivery of a batch program to an AP.
    BatchArrive {
        /// Destination AP node index.
        ap: u32,
        /// The AP's program.
        msg: ApMessage,
    },
    /// Wired delivery of a queue report to the controller.
    ReportArrive {
        /// Reported link id.
        link: u32,
        /// Its queue length.
        queue: u32,
    },
    /// Controller computes and dispatches the next batch (the
    /// controller's timer).
    ControllerCompute,
    /// A triggered node's slot begins (the node's start timer).
    SlotStart {
        /// Node index.
        node: u32,
        /// Slot id.
        slot: u64,
    },
    /// A node's scheduled burst goes on the air.
    SendBurst {
        /// Node index.
        node: u32,
        /// The burst.
        burst: Burst,
    },
    /// A receiver's ACK is due.
    SendAck {
        /// Acknowledging node.
        rx: u32,
        /// The packet being acknowledged.
        packet: Packet,
        /// Burst instruction for the client, embedded in the ACK.
        client_burst: Option<Burst>,
    },
    /// A sender checks whether its data was ACKed.
    AckCheck {
        /// Sender node index.
        node: u32,
    },
    /// A client answers a poll with its share of the ROP symbol.
    RopAnswer {
        /// Answering client node index.
        client: u32,
        /// Polling AP node index.
        ap: u32,
    },
    /// An AP with pending work got no trigger for too long (the AP's
    /// watchdog timer).
    Watchdog {
        /// AP node index.
        ap: u32,
    },
    /// An untriggerable entry's estimated slot time arrived.
    KickOff {
        /// AP node index.
        ap: u32,
        /// Slot id.
        slot: u64,
    },
    /// The acting controller's heartbeat timer (warm-standby plane; the
    /// timer always reschedules itself, a dead controller just emits
    /// nothing).
    CtrlHeartbeat,
    /// The acting controller ships its scheduler+backlog+converter image
    /// to the standby.
    CtrlCheckpoint,
    /// A heartbeat reaches the standby.
    HeartbeatArrive,
    /// A state checkpoint reaches the standby.
    CkptArrive {
        /// The serialized controller image.
        state: Vec<u8>,
    },
    /// The ROP relay's copy of a queue report reaches the standby.
    StandbyReport {
        /// Reported link id.
        link: u32,
        /// Its queue length.
        queue: u32,
    },
    /// The standby's deterministic failure detector ticks.
    StandbyProbe,
}

/// Per-node runtime state.
#[derive(Debug)]
struct NodeRt {
    /// AP program (empty for clients).
    program: Program,
    /// End of this node's current exchange: its correlator is not armed
    /// while it is mid-slot, so triggers arriving before this instant are
    /// ignored (this is also what absorbs the second of the two assigned
    /// redundant triggers).
    busy_until: SimTime,
    /// Sender-side: packet on the air awaiting its ACK (kept for the
    /// §3.5 retransmission rules).
    unacked: Option<Packet>,
    /// The pending packet's ACK arrived.
    acked: bool,
}

// ------------------------------------------------- snapshot encodings

domino_sim::snap_value!(enum ApActionKind, "ap action kind tag" {
    0 => TxData { link },
    1 => RxData { link },
    2 => Poll,
});
domino_sim::snap_value!(ApAction { slot, kind, rop_before, kick_off, own_burst, client_burst });
domino_sim::snap_value!(ApMessage { first_slot, actions, retained_updates });
domino_sim::snap_value!(NodeRt { program, busy_until, unacked, acked });
domino_sim::snap_value!(enum DEv, "domino event tag" {
    0 => BatchArrive { ap, msg },
    1 => ReportArrive { link, queue },
    2 => ControllerCompute,
    3 => SlotStart { node, slot },
    4 => SendBurst { node, burst },
    5 => SendAck { rx, packet, client_burst },
    6 => AckCheck { node },
    7 => RopAnswer { client, ap },
    8 => Watchdog { ap },
    9 => KickOff { ap, slot },
    10 => CtrlHeartbeat,
    11 => CtrlCheckpoint,
    12 => HeartbeatArrive,
    13 => CkptArrive { state },
    14 => StandbyReport { link, queue },
    15 => StandbyProbe,
});

/// The complete state of a DOMINO run between events.
///
/// Under a fault plane: backbone loss/spikes under the batch programs and
/// ROP relays, AP crashes with state loss, controller compute stalls that
/// overrun the batch fallback timer, stale ROP reports, primary-controller
/// crashes (warm standby or cold restart), plus the medium-resident fade
/// and churn classes. With faults all off the run is byte-identical to
/// one without a fault plane.
#[derive(Debug)]
pub struct DominoWorld {
    net: Network,
    cfg: DominoConfig,
    plant: Plant<DEv>,
    backbone: Backbone,
    graph: ConflictGraph,
    scheduler: RandScheduler,
    converter: Converter,
    backlog: BacklogView,
    nodes: Vec<NodeRt>,
    geo: SlotGeometry,
    rop_dur: SimDuration,
    next_slot_id: u64,
    signature_of: Vec<u32>,
    /// Trigger-chain diagnostics, reported on the run's `RunStats`.
    counters: DominoCounters,
    /// The controller waits for the first ROP report of the current
    /// batch before computing the next one (with a time fallback).
    awaiting_report: bool,
    /// When the current batch was dispatched.
    dispatch_time: SimTime,
    /// Execution time remaining after the batch's first ROP slot — the
    /// report wave is the execution-anchored clock that paces the next
    /// compute.
    post_poll_exec: SimDuration,
    /// Per-link last truthful ROP value — what a stale report replays.
    last_rop: Vec<u32>,
    /// Consecutive watchdog restarts with zero deliveries in between
    /// (storm detection, see `DominoCounters::watchdog_storms`).
    wd_streak: u64,
    /// Monotone batch id for BatchBegin/BatchEnd trace pairing.
    batch_seq: u64,
    // ---- warm-standby control plane (inert unless `faults.standby`) ----
    /// The warm standby is armed for this run.
    standby_on: bool,
    /// Dedicated backbone for heartbeat / checkpoint / report-copy
    /// traffic. It draws from its own jitter stream (`STANDBY_WIRED`) so
    /// the primary backbone's sequence — and every standby-off golden —
    /// is untouched.
    standby_bb: Backbone,
    /// Heartbeat (and failure-detector probe) period.
    hb_every: SimDuration,
    /// Full-state checkpoint period.
    ckpt_every: SimDuration,
    /// The acting controller crashed and nobody has taken over yet.
    ctrl_down: bool,
    /// A (re)starting controller is rebuilding until this instant;
    /// compute events and report ingestion are dead before it.
    ctrl_dark_until: SimTime,
    /// When the last controller crash struck (recovery accounting).
    last_crash_at: SimTime,
    /// Last scheduler+backlog+converter image the standby ingested.
    standby_ckpt: Vec<u8>,
    /// Queue-report copies received since that image — the bounded delta
    /// replayed at promotion.
    standby_buf: Vec<(u32, u32)>,
    /// A heartbeat arrived since the standby's last probe.
    hb_seen: bool,
    /// Consecutive probes without a heartbeat.
    hb_missed: u32,
    /// Static topology tables cached at construction: the per-batch
    /// controller loops would otherwise rebuild these Vecs on every
    /// compute (hundreds per run).
    ap_list: Vec<NodeId>,
    clients: Vec<Vec<NodeId>>,
    /// Per node: the first link it sends on, which for a client is its
    /// uplink.
    uplink: Vec<Option<LinkId>>,
    /// Controller scratch, recycled across computes.
    backlog_buf: Vec<u32>,
    before_buf: Vec<u32>,
    committed_buf: Vec<u32>,
    /// Converted-batch storage, recycled through `Converter::convert_into`.
    outcome_buf: ConversionOutcome,
    /// Per node: the program `dispatch_batch` is building for that AP
    /// (clients' stay empty).
    staged: Vec<(Vec<ApAction>, Vec<RetainedUpdate>)>,
    /// Dispatch's per-node lookups into one burst list.
    bursts: BurstIndex,
    /// Recycled `ApMessage` payload storage: messages that complete
    /// delivery hand their buffers back via `on_batch_arrive`.
    action_pool: Vec<Vec<ApAction>>,
    retained_pool: Vec<Vec<RetainedUpdate>>,
}

/// Per-node lookups into one slot boundary's burst list, reused across
/// boundaries: which burst assignment a node broadcasts, and whether it
/// transmits in the slot the bursts trigger. Entries are valid under the
/// current stamp only, so switching boundaries clears nothing.
#[derive(Debug)]
struct BurstIndex {
    stamp: u64,
    /// `(stamp, index of its first assignment in the burst list)` per
    /// broadcaster.
    assigned: Vec<(u64, usize)>,
    /// Stamp per sender of the triggered slot.
    sends: Vec<u64>,
}

impl BurstIndex {
    fn new(net: &Network) -> BurstIndex {
        BurstIndex {
            stamp: 0,
            assigned: vec![(0, 0); net.num_nodes()],
            sends: vec![0; net.num_nodes()],
        }
    }

    /// Index `bursts`, whose triggered slot's entries are `next`; `sigs`
    /// gives each node's Gold-code index.
    fn view<'a>(
        &'a mut self,
        net: &Network,
        sigs: &'a [u32],
        bursts: &'a [BurstAssignment],
        next: &[SlotEntry],
    ) -> BurstView<'a> {
        self.stamp += 1;
        for (k, b) in bursts.iter().enumerate() {
            let at = &mut self.assigned[b.broadcaster.index()];
            if at.0 != self.stamp {
                *at = (self.stamp, k);
            }
        }
        for e in next {
            self.sends[net.link(e.link).sender.index()] = self.stamp;
        }
        BurstView { index: self, sigs, bursts }
    }
}

/// One boundary's indexed bursts (see [`BurstIndex::view`]).
struct BurstView<'a> {
    index: &'a BurstIndex,
    sigs: &'a [u32],
    bursts: &'a [BurstAssignment],
}

impl BurstView<'_> {
    /// `node` transmits in the triggered slot.
    fn continues(&self, node: NodeId) -> bool {
        self.index.sends[node.index()] == self.index.stamp
    }

    /// The burst `node` broadcasts at this boundary, if it has one.
    fn burst(&self, node: NodeId, marker: BurstMarker, slot: u64) -> Option<Burst> {
        let (stamp, k) = self.index.assigned[node.index()];
        let b = self.bursts.get(k).filter(|_| stamp == self.index.stamp)?;
        let sigs = self.sigs;
        Some(Burst {
            // lint: allow(D007) collect into array-backed InlineVec<_, BURST_CAP>; no heap
            codes: b.targets.iter().map(|t| sigs[t.index()]).collect(),
            // lint: allow(D007) collect into array-backed InlineVec<_, BURST_CAP>; no heap
            targets: b.targets.iter().copied().collect(),
            marker,
            slot,
            continues: self.continues(node),
        })
    }

    /// A client's instruction: its own burst, or a target-less one that
    /// tells it in-band that it transmits again in the triggered slot
    /// (it is deaf during the burst phase).
    fn client_burst(&self, client: NodeId, marker: BurstMarker, slot: u64) -> Option<Burst> {
        self.burst(client, marker, slot).or_else(|| {
            self.continues(client).then(|| Burst {
                codes: InlineVec::new(),
                targets: InlineVec::new(),
                marker,
                slot,
                continues: true,
            })
        })
    }
}

impl World for DominoWorld {
    type Config = DominoConfig;
    type Event = DEv;

    fn new(inputs: &RunInputs<'_>, cfg: DominoConfig, probe: Probe) -> DominoWorld {
        let RunInputs { net, faults, .. } = *inputs;
        let geo = slot_geometry(net.phy().data_rate, DEFAULT_PACKET_BYTES);
        let rop_dur = rop_slot_duration(net.phy().data_rate);
        let mut plant = Plant::new(inputs, probe, 1 + 2 * net.num_nodes());
        let backbone =
            plant.backbone(inputs, cfg.wired.clone(), streams::WIRED_JITTER, streams::FAULT_WIRED);
        let standby_bb = plant.backbone(
            inputs,
            cfg.wired.clone(),
            streams::STANDBY_WIRED,
            streams::FAULT_STANDBY_WIRED,
        );
        plant.schedule(SimTime::ZERO, DEv::ControllerCompute);
        let hb_every = SimDuration::from_secs_f64(faults.standby_heartbeat_us * 1e-6);
        let ckpt_every = SimDuration::from_secs_f64(faults.standby_checkpoint_us * 1e-6);
        if faults.standby {
            plant.schedule(SimTime::ZERO + hb_every, DEv::CtrlHeartbeat);
            plant.schedule(SimTime::ZERO + ckpt_every, DEv::CtrlCheckpoint);
            // The probe runs half a period out of phase so an in-flight
            // heartbeat lands before it is judged missing.
            plant.schedule(
                SimTime::ZERO
                    + SimDuration::from_secs_f64(faults.standby_heartbeat_us * 1.5e-6),
                DEv::StandbyProbe,
            );
        }
        let nodes = (0..net.num_nodes())
            .map(|_| NodeRt {
                program: Program::default(),
                busy_until: SimTime::ZERO,
                unacked: None,
                acked: false,
            })
            .collect();
        let signature_of = net.nodes().iter().map(|n| n.signature as u32).collect();
        let ap_list = net.aps();
        let clients = (0..net.num_nodes())
            .map(|n| net.clients_of(NodeId(n as u32)))
            .collect();
        let mut uplink = vec![None; net.num_nodes()];
        for l in net.links() {
            uplink[l.sender.index()].get_or_insert(l.id);
        }
        DominoWorld {
            plant,
            backbone,
            graph: ConflictGraph::build(net),
            scheduler: RandScheduler::new(net.links().len()),
            converter: Converter::new(cfg.converter.clone()),
            backlog: BacklogView::new(net.links().len()),
            nodes,
            geo,
            rop_dur,
            next_slot_id: 0,
            signature_of,
            counters: DominoCounters::default(),
            awaiting_report: false,
            dispatch_time: SimTime::ZERO,
            post_poll_exec: SimDuration::ZERO,
            last_rop: vec![0; net.links().len()],
            wd_streak: 0,
            batch_seq: 0,
            standby_on: faults.standby,
            standby_bb,
            hb_every,
            ckpt_every,
            ctrl_down: false,
            ctrl_dark_until: SimTime::ZERO,
            last_crash_at: SimTime::ZERO,
            standby_ckpt: Vec::new(),
            standby_buf: Vec::new(),
            hb_seen: false,
            hb_missed: 0,
            ap_list,
            clients,
            uplink,
            backlog_buf: Vec::new(),
            before_buf: Vec::new(),
            committed_buf: Vec::new(),
            outcome_buf: ConversionOutcome::default(),
            staged: (0..net.num_nodes()).map(|_| (Vec::new(), Vec::new())).collect(),
            bursts: BurstIndex::new(net),
            action_pool: Vec::new(),
            retained_pool: Vec::new(),
            net: net.clone(),
            cfg,
        }
    }

    fn plant(&mut self) -> &mut Plant<DEv> {
        &mut self.plant
    }

    fn finalize(mut self) -> RunStats {
        self.plant.probe.prof.add(
            CostPath::RngWired,
            self.backbone.rng_draws() + self.standby_bb.rng_draws(),
        );
        let stats = &mut self.plant.fe.stats;
        stats.domino = self.counters;
        for bb in [&self.backbone, &self.standby_bb] {
            stats.faults.merge_backbone(bb.messages_lost(), bb.spikes_injected());
        }
        self.plant.finish()
    }

    fn handle(&mut self, now: SimTime, ev: Ev<DEv>) {
        let ev = match self.plant.step(now, ev) {
            Step::Released => return,
            Step::TxEnd(receptions) => return self.on_tx_end(now, receptions),
            Step::Scheme(ev) => ev,
        };
        match ev {
            DEv::BatchArrive { ap, msg } => self.on_batch_arrive(now, ap as usize, msg),
            DEv::ReportArrive { link, queue } => {
                if !self.ctrl_alive(now) {
                    return; // a dead controller loses the report
                }
                self.backlog.report(LinkId(link), queue);
                // The report wave is execution-anchored: schedule the
                // next compute so it lands one wired delay before this
                // batch drains. Stragglers of the previous wave arriving
                // right after a dispatch must not consume the new batch's
                // wave slot.
                let batch_age = now.saturating_since(self.dispatch_time);
                if self.awaiting_report && batch_age >= SimDuration::from_micros(400) {
                    self.awaiting_report = false;
                    let batch_id = self.batch_seq;
                    self.plant.probe.trace.emit(now.as_nanos(), move || TraceEvent::BatchEnd {
                        batch: batch_id,
                    });
                    let lead = SimDuration::from_micros_f64(self.cfg.wired.mean_us)
                        + self.geo.total;
                    let at = (now + self.post_poll_exec.saturating_sub(lead))
                        .max(now + SimDuration::from_micros(150));
                    self.plant.schedule(at, DEv::ControllerCompute);
                }
            }
            DEv::ControllerCompute => {
                if self.ctrl_alive(now) {
                    // The crash draw sits at the accept site so the class
                    // costs zero RNG draws when it is off.
                    if let Some(downtime) = self.plant.node_faults.ctrl_crash() {
                        self.on_ctrl_crash(now, downtime);
                    } else {
                        self.controller_compute(now);
                    }
                }
            }
            DEv::SlotStart { node, slot } => self.on_slot_start(now, node as usize, slot),
            DEv::SendBurst { node, burst } => self.on_send_burst(now, node as usize, burst),
            DEv::SendAck { rx, packet, client_burst } => {
                self.on_send_ack(now, rx as usize, packet, client_burst)
            }
            DEv::AckCheck { node } => self.on_ack_check(node as usize),
            DEv::RopAnswer { client, ap } => {
                self.on_rop_answer(now, client as usize, ap as usize)
            }
            DEv::Watchdog { ap } => self.on_watchdog(now, ap as usize),
            DEv::KickOff { ap, slot } => self.on_kick_off(now, ap as usize, slot),
            DEv::CtrlHeartbeat => {
                // The timer survives crashes; a dead controller just
                // emits nothing until its successor takes over.
                if self.ctrl_alive(now) {
                    if let Some(m) = self.standby_bb.try_send(now, ()) {
                        self.plant.schedule(m.deliver_at, DEv::HeartbeatArrive);
                    }
                }
                self.plant.schedule(now + self.hb_every, DEv::CtrlHeartbeat);
            }
            DEv::CtrlCheckpoint => {
                if self.ctrl_alive(now) {
                    let mut w = SnapWriter::new();
                    self.scheduler.save(&mut w);
                    self.backlog.save(&mut w);
                    self.converter.save(&mut w);
                    let state = w.into_bytes();
                    let len = state.len() as u32;
                    self.plant.probe.trace.emit(now.as_nanos(), move || TraceEvent::CtrlCheckpoint {
                        bytes: len,
                    });
                    if let Some(m) = self.standby_bb.try_send(now, ()) {
                        self.plant.schedule(m.deliver_at, DEv::CkptArrive { state });
                    }
                    // A lost checkpoint is not re-sent: the next period's
                    // image supersedes it anyway.
                }
                self.plant.schedule(now + self.ckpt_every, DEv::CtrlCheckpoint);
            }
            DEv::HeartbeatArrive => self.hb_seen = true,
            DEv::CkptArrive { state } => {
                self.standby_ckpt = state;
                // The delta restarts relative to this image.
                self.standby_buf.clear();
            }
            DEv::StandbyReport { link, queue } => {
                if self.standby_buf.len() < STANDBY_BUF_CAP {
                    self.standby_buf.push((link, queue));
                }
            }
            DEv::StandbyProbe => {
                if self.hb_seen {
                    self.hb_seen = false;
                    self.hb_missed = 0;
                } else {
                    self.hb_missed += 1;
                }
                if self.ctrl_down && self.hb_missed >= domino_faults::STANDBY_MISSED_K {
                    self.promote_standby(now);
                }
                self.plant.schedule(now + self.hb_every, DEv::StandbyProbe);
            }
        }
    }
}

impl Snapshot for DominoWorld {
    /// Serialize everything the run's future depends on. Scratch storage
    /// (the controller's compute buffers, the dispatch staging, index and
    /// pools) is empty or stale between events and rebuilt on demand, so
    /// it is deliberately not part of the image.
    fn save(&self, w: &mut SnapWriter) {
        self.backbone.save(w);
        self.standby_bb.save(w);
        self.scheduler.save(w);
        self.converter.save(w);
        self.backlog.save(w);
        self.nodes.put(w);
        w.put_u64(self.next_slot_id);
        self.counters.put(w);
        self.awaiting_report.put(w);
        self.dispatch_time.put(w);
        self.post_poll_exec.put(w);
        self.last_rop.put(w);
        w.put_u64(self.wd_streak);
        w.put_u64(self.batch_seq);
        self.ctrl_down.put(w);
        self.ctrl_dark_until.put(w);
        self.last_crash_at.put(w);
        self.standby_ckpt.put(w);
        self.standby_buf.put(w);
        self.hb_seen.put(w);
        w.put_u32(self.hb_missed);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.backbone.restore(r)?;
        self.standby_bb.restore(r)?;
        self.scheduler.restore(r)?;
        self.converter.restore(r)?;
        self.backlog.restore(r)?;
        restore_table(&mut self.nodes, r, "node table length")?;
        self.next_slot_id = r.get_u64()?;
        self.counters = SnapValue::thaw(r)?;
        self.awaiting_report = SnapValue::thaw(r)?;
        self.dispatch_time = SnapValue::thaw(r)?;
        self.post_poll_exec = SnapValue::thaw(r)?;
        restore_table(&mut self.last_rop, r, "rop table length")?;
        self.wd_streak = r.get_u64()?;
        self.batch_seq = r.get_u64()?;
        self.ctrl_down = SnapValue::thaw(r)?;
        self.ctrl_dark_until = SnapValue::thaw(r)?;
        self.last_crash_at = SnapValue::thaw(r)?;
        self.standby_ckpt = SnapValue::thaw(r)?;
        self.standby_buf = SnapValue::thaw(r)?;
        self.hb_seen = SnapValue::thaw(r)?;
        self.hb_missed = r.get_u32()?;
        Ok(())
    }
}

impl DominoWorld {
    // ---------------------------------------------------- warm standby

    /// The acting controller exists and is not mid-restart.
    fn ctrl_alive(&self, now: SimTime) -> bool {
        !self.ctrl_down && now >= self.ctrl_dark_until
    }

    /// The acting controller crashes at a compute instant. With the warm
    /// standby armed, the deterministic detector (k missed heartbeats)
    /// promotes it; without it, a cold restart loses the scheduler,
    /// backlog and converter state and sits out the full downtime.
    fn on_ctrl_crash(&mut self, now: SimTime, downtime: SimDuration) {
        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
            kind: FaultKind::CtrlCrash,
            node: u32::MAX, // the controller is not a radio node
        });
        self.awaiting_report = false;
        self.last_crash_at = now;
        // The dead incarnation's pending compute dies with it.
        self.plant.disarm(COMPUTE_TIMER);
        if self.standby_on {
            self.ctrl_down = true;
            return;
        }
        self.scheduler = RandScheduler::new(self.net.links().len());
        self.backlog = BacklogView::new(self.net.links().len());
        self.converter = Converter::new(self.cfg.converter.clone());
        self.plant.fe.stats.faults.recovery_ns += downtime.as_nanos();
        self.ctrl_dark_until = now + downtime;
        self.plant.schedule(self.ctrl_dark_until, DEv::ControllerCompute);
    }

    /// The standby's failure detector fired: take over. Rebuild the
    /// controller from the last shipped state image, replay the buffered
    /// report delta on top, and resume computing once the replay cost has
    /// been paid.
    fn promote_standby(&mut self, now: SimTime) {
        let replayed = self.standby_buf.len() as u64;
        self.scheduler = RandScheduler::new(self.net.links().len());
        self.backlog = BacklogView::new(self.net.links().len());
        self.converter = Converter::new(self.cfg.converter.clone());
        if !self.standby_ckpt.is_empty() {
            let mut r = SnapReader::new(&self.standby_ckpt);
            // lint: allow(D005) the image was produced by these components' own save
            self.scheduler.restore(&mut r).expect("standby scheduler image");
            // lint: allow(D005) same standby image, written by BacklogView's own save
            self.backlog.restore(&mut r).expect("standby backlog image");
            // lint: allow(D005) same standby image, written by Converter's own save
            self.converter.restore(&mut r).expect("standby converter image");
        }
        for &(link, queue) in &self.standby_buf {
            self.backlog.report(LinkId(link), queue);
        }
        self.standby_buf.clear();
        let promotion_end = now + REPLAY_COST * replayed;
        let recovery = promotion_end.saturating_since(self.last_crash_at);
        self.plant.fe.stats.faults.standby_promotions += 1;
        self.plant.fe.stats.faults.replayed_reports += replayed;
        self.plant.fe.stats.faults.recovery_ns += recovery.as_nanos();
        let promote = move || TraceEvent::StandbyPromote { replayed };
        self.plant.probe.trace.emit(now.as_nanos(), promote);
        self.ctrl_down = false;
        self.ctrl_dark_until = promotion_end;
        self.hb_missed = 0;
        self.hb_seen = false;
        self.plant.schedule(promotion_end, DEv::ControllerCompute);
    }

    // ------------------------------------------------------- controller

    fn controller_compute(&mut self, now: SimTime) {
        self.plant.probe.prof.tick(CostPath::CtrlCompute);
        // Downlink queues are known instantly over the wire; uplinks only
        // through ROP reports. All three working buffers are world scratch
        // recycled across computes.
        let mut backlog = std::mem::take(&mut self.backlog_buf);
        backlog.clear();
        backlog.extend(self.net.links().iter().map(|l| match l.direction {
            Direction::Downlink => self.plant.fe.queue(l.id, now).len() as u32,
            Direction::Uplink => self.backlog.estimate(l.id),
        }));
        let mut before = std::mem::take(&mut self.before_buf);
        before.clear();
        before.extend_from_slice(&backlog);
        let mut strict = self
            .scheduler
            .schedule_batch(&self.graph, &mut backlog, self.cfg.batch_slots);
        self.plant.probe.prof.tick(CostPath::CtrlSchedule);
        if strict.is_empty() {
            // Idle heartbeat: fake-only slots keep the trigger chains and
            // the ROP polling alive so new uplink backlog is discovered
            // (fake-link insertion turns an empty slot into a maximal
            // cover). The very first batch needs two slots to create a
            // boundary for the ROP insertion.
            let n = if self.converter.has_retained_slot() { 1 } else { 2 };
            strict.slots = vec![Vec::new(); n];
        }
        // Commit uplink consumption to the stale-report tracker.
        let mut committed = std::mem::take(&mut self.committed_buf);
        committed.clear();
        committed.extend_from_slice(self.backlog.estimates());
        for l in self.net.links() {
            if l.direction == Direction::Uplink {
                let used = before[l.id.index()] - backlog[l.id.index()];
                committed[l.id.index()] = committed[l.id.index()].saturating_sub(used);
            }
        }
        self.backlog.commit_schedule(&committed);
        self.backlog_buf = backlog;
        self.before_buf = before;
        self.committed_buf = committed;

        let polling: &[NodeId] = if self.cfg.converter.insert_rop {
            &self.ap_list
        } else {
            &[]
        };
        let mut outcome = std::mem::take(&mut self.outcome_buf);
        self.converter
            .convert_into(&self.net, &self.graph, &strict, polling, &mut outcome);
        self.plant.probe.prof.tick(CostPath::CtrlConvert);
        self.plant.probe.prof.add_with(CostPath::CtrlSlots, || outcome.batch.slots.len() as u64);
        self.plant.probe.prof.add_with(CostPath::CtrlActions, || {
            outcome.batch.slots.iter().map(|s| s.entries.len() as u64).sum()
        });
        self.scheduler.recycle(strict);

        let n_slots = outcome.batch.slots.len();
        if n_slots == 0 && outcome.batch.connecting_rop.is_none() {
            self.outcome_buf = outcome;
            self.plant.schedule(now + SimDuration::from_millis(1), DEv::ControllerCompute);
            return;
        }

        let n_rops = outcome
            .batch
            .slots
            .iter()
            .filter(|s| s.rop_after.is_some())
            .count()
            + usize::from(outcome.batch.connecting_rop.is_some());
        // Slots that run after the batch's first poll (whose report wave
        // paces the next compute).
        let after_first_poll = if outcome.batch.connecting_rop.is_some() {
            n_slots
        } else {
            outcome
                .batch
                .slots
                .iter()
                .position(|s| s.rop_after.is_some())
                .map(|i| n_slots - (i + 1))
                .unwrap_or(0)
        };
        self.post_poll_exec = self.geo.total * after_first_poll as u64;
        // A stalled controller ships the batch late. The fallback timer
        // below is deliberately NOT extended: overrunning it — the next
        // compute firing while the late batch is still in flight — is the
        // injected failure mode.
        let stall = self.plant.compute_stall(now);
        self.dispatch_batch(now, &outcome.batch, stall);

        // Pacing: the next batch is computed when this batch's first ROP
        // report comes back (proof the batch is executing), with a
        // fallback timer sized to the batch's nominal execution time.
        // Without ROP there are no reports, so the timer alone paces
        // dispatch — slightly ahead of the batch's drain so the
        // connecting bursts arrive in time.
        let exec = self.geo.total * n_slots as u64 + self.rop_dur * n_rops as u64;
        let wired = SimDuration::from_micros_f64(self.cfg.wired.mean_us);
        let fallback = if self.cfg.converter.insert_rop {
            exec + wired * 2 + WATCHDOG
        } else {
            exec.checked_sub(wired)
                .unwrap_or(SimDuration::from_micros(200))
                .max(SimDuration::from_micros(200))
        };
        self.awaiting_report = true;
        self.dispatch_time = now;
        self.plant.schedule(now + fallback, DEv::ControllerCompute);
        self.outcome_buf = outcome;
    }

    /// Turn a converted batch into per-AP wired messages, each delayed by
    /// `stall` (the controller's injected compute stall; zero normally).
    ///
    /// One pass over the batch builds every AP's program: each action
    /// goes to its AP's staging buffer in batch order, so each AP's
    /// actions keep the order a per-AP walk would give. Then the APs with
    /// a non-empty program draw on the backbone in `ap_list` order.
    fn dispatch_batch(&mut self, now: SimTime, batch: &RelativeBatch, stall: SimDuration) {
        self.plant.probe.prof.tick(CostPath::CtrlDispatch);
        let first_slot = self.next_slot_id;
        let retained_slot = first_slot.wrapping_sub(1);
        self.next_slot_id += batch.slots.len() as u64;
        self.batch_seq += 1;
        let batch_id = self.batch_seq;
        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::BatchBegin {
            batch: batch_id,
            first_slot,
            slots: batch.slots.len() as u32,
        });
        let mut staged = std::mem::take(&mut self.staged);
        let poll_action = |slot| ApAction {
            slot,
            kind: ApActionKind::Poll,
            rop_before: false,
            kick_off: false,
            own_burst: None,
            client_burst: None,
        };

        // Batch connection: bursts for the retained slot trigger the first
        // slot (and the connecting ROP slot).
        let conn_marker = if batch.connecting_rop.is_some() {
            BurstMarker::Rop
        } else {
            BurstMarker::Start
        };
        if let Some(rop) = &batch.connecting_rop {
            for ap in &rop.aps {
                staged[ap.index()].0.push(poll_action(first_slot));
            }
        }
        if !batch.connecting_bursts.is_empty() {
            let first = batch.slots.first().map_or(&[][..], |s| &s.entries[..]);
            let view =
                self.bursts.view(&self.net, &self.signature_of, &batch.connecting_bursts, first);
            for &ap in &self.ap_list {
                let own = view.burst(ap, conn_marker, first_slot);
                let client = self.clients[ap.index()]
                    .iter()
                    .find_map(|&c| view.client_burst(c, conn_marker, first_slot));
                if own.is_some() || client.is_some() {
                    staged[ap.index()].1.push((retained_slot, own, client));
                }
            }
        }

        let mut rop_before = batch.connecting_rop.is_some();
        for (i, slot) in batch.slots.iter().enumerate() {
            let slot_id = first_slot + i as u64;
            let next_slot_id = slot_id + 1;
            let marker = if slot.rop_after.is_some() {
                BurstMarker::Rop
            } else {
                BurstMarker::Start
            };
            let next = batch.slots.get(i + 1).map_or(&[][..], |s| &s.entries[..]);
            let view = self.bursts.view(&self.net, &self.signature_of, &slot.bursts, next);
            for entry in &slot.entries {
                let link = *self.net.link(entry.link);
                // The client's instruction is sent even when it has no
                // trigger targets of its own: a client that transmits
                // again in the next slot is deaf during the burst phase
                // and must learn its continuation in-band.
                staged[link.ap.index()].0.push(ApAction {
                    slot: slot_id,
                    kind: if link.is_downlink() {
                        ApActionKind::TxData { link: entry.link }
                    } else {
                        ApActionKind::RxData { link: entry.link }
                    },
                    rop_before,
                    kick_off: entry.kick_off,
                    own_burst: view.burst(link.ap, marker, next_slot_id),
                    client_burst: view.client_burst(link.client(), marker, next_slot_id),
                });
            }
            if let Some(rop) = &slot.rop_after {
                for ap in &rop.aps {
                    staged[ap.index()].0.push(poll_action(next_slot_id));
                }
            }
            rop_before = slot.rop_after.is_some();
        }

        for &ap in &self.ap_list {
            let (actions, retained_updates) = &mut staged[ap.index()];
            if actions.is_empty() && retained_updates.is_empty() {
                continue;
            }
            if let Some(m) = self.backbone.try_send(now, ()) {
                self.plant.probe.prof.tick(CostPath::CtrlDispatchMsgs);
                let actions =
                    std::mem::replace(actions, self.action_pool.pop().unwrap_or_default());
                let retained_updates = std::mem::replace(
                    retained_updates,
                    self.retained_pool.pop().unwrap_or_default(),
                );
                let msg = ApMessage { first_slot, actions, retained_updates };
                self.plant.schedule(m.deliver_at + stall, DEv::BatchArrive { ap: ap.0, msg });
            } else {
                // A lost program is not re-sent: the controller's
                // fallback timer paces the next compute regardless, and
                // the AP's retained entries are shed when the next batch
                // lands.
                actions.clear();
                retained_updates.clear();
            }
        }
        self.staged = staged;
    }

    // --------------------------------------------------------- AP logic

    fn on_batch_arrive(&mut self, now: SimTime, ap: usize, msg: ApMessage) {
        let rt = &mut self.nodes[ap];
        let accepted = self.plant.ap_accepts(now, ap, |plant| {
            // Crash with state loss: the program and the unacked frame are
            // gone, and so are the slot start and the watchdog the old
            // incarnation armed. The AP rejoins lazily — the first batch
            // delivered after the downtime restarts it. A dark AP's
            // program dies with it.
            rt.program.clear();
            rt.unacked = None;
            rt.acked = false;
            plant.disarm(start_timer(ap));
            plant.disarm(watchdog_timer(ap));
        });
        if !accepted {
            return;
        }
        let ApMessage { first_slot, mut actions, mut retained_updates } = msg;
        // Apply retained-slot burst updates to still-pending actions.
        for (slot, own, client) in retained_updates.drain(..) {
            if let Some(action) = self.nodes[ap].program.find_mut(slot) {
                if own.is_some() {
                    action.own_burst = own;
                }
                if client.is_some() {
                    action.client_burst = client;
                }
            }
            // If the retained action already executed, these triggers are
            // lost; the watchdog restarts the chain.
        }
        let was_idle = self.nodes[ap].program.is_empty();
        let head_is_first = actions.first().is_some_and(|a| a.slot == first_slot);
        // Untriggerable entries start on their own, paced by the nominal
        // slot length from the batch's arrival; once an island's chain is
        // running, its later slots chain relatively as usual.
        for a in &actions {
            if a.kick_off {
                let offset = self.geo.total * a.slot.saturating_sub(first_slot);
                self.plant.schedule(now + offset, DEv::KickOff { ap: ap as u32, slot: a.slot });
            }
        }
        self.counters.actions_dispatched += actions.len() as u64;
        for a in actions.drain(..) {
            self.nodes[ap].program.push_back(a);
        }
        // Hand the message's buffers back to the dispatch pools.
        self.action_pool.push(actions);
        self.retained_pool.push(retained_updates);

        if was_idle && head_is_first && !self.plant.armed(start_timer(ap)) {
            // Chain (re)start: APs begin individually (paper §3.3);
            // relative scheduling heals the misalignment (§4.2.2).
            self.self_start(now, ap);
        }
        self.arm_watchdog(now, ap);
    }

    /// Restart a chain at this AP: transmit/poll heads start directly;
    /// for a receive head "the AP will send a signature to the sender of
    /// that link" (paper §3.3).
    fn self_start(&mut self, now: SimTime, ap: usize) {
        let Some(head) = self.nodes[ap].program.front().cloned() else {
            return;
        };
        match head.kind {
            ApActionKind::RxData { link } => {
                self.trigger_client(now, ap, self.net.link(link).client(), head.slot);
            }
            _ => {
                self.schedule_start(now, ap, head.slot);
            }
        }
    }

    /// Trigger `client` for `slot` with a direct START burst of its own
    /// signature: how an AP starts a slot whose entry is a receive.
    fn trigger_client(&mut self, now: SimTime, ap: usize, client: NodeId, slot: u64) {
        let burst = Burst {
            codes: InlineVec::of(self.signature_of[client.index()]),
            targets: InlineVec::of(client),
            marker: BurstMarker::Start,
            slot,
            continues: false,
        };
        self.on_send_burst(now, ap, burst);
    }

    /// (Re-)arm the self-start watchdog; every call marks progress and
    /// supersedes the watchdog already armed.
    fn arm_watchdog(&mut self, now: SimTime, ap: usize) {
        if self.nodes[ap].program.is_empty() {
            return;
        }
        self.plant.schedule(now + WATCHDOG, DEv::Watchdog { ap: ap as u32 });
    }

    /// A node detected its own signature in a burst: (re-)anchor its slot
    /// start to this (the last) trigger (§3.4).
    fn on_trigger(&mut self, now: SimTime, node: usize, marker: BurstMarker, slot: u64) {
        if self.plant.medium.is_transmitting(NodeId(node as u32)) {
            return; // a transmitting radio cannot run its correlator
        }
        if self.plant.ap_dark(node, now) {
            return; // crashed: the radio is down
        }
        if now < self.nodes[node].busy_until {
            self.counters.stale_triggers += 1;
            return; // mid-exchange: the correlator is not armed
        }
        let is_poll_next = self.nodes[node]
            .program
            .front()
            .is_some_and(|a| a.kind == ApActionKind::Poll);
        let delay = match (marker, is_poll_next) {
            (BurstMarker::Rop, true) => SLOT_TIME, // the polling AP starts the ROP slot
            (BurstMarker::Rop, false) => self.rop_dur + SLOT_TIME,
            (BurstMarker::Start, _) => SLOT_TIME,
        };
        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::TriggerFire {
            node: node as u32,
            slot,
        });
        self.schedule_start(now + delay, node, slot);
    }

    /// Commit a (re-)anchored slot start for `node` at `at`, superseding
    /// any earlier pending start (last trigger wins, §3.4).
    fn schedule_start(&mut self, at: SimTime, node: usize, slot: u64) {
        self.plant.schedule(at, DEv::SlotStart { node: node as u32, slot });
    }

    /// Self-trigger: the node finishing slot `s` (which started at
    /// `slot_start`) transmits again in slot `s+1`; it cannot hear any
    /// trigger during the simultaneous burst phase, so it continues from
    /// its own slot timing.
    fn self_trigger_after_slot(&mut self, slot_start: SimTime, node: usize, next_slot: u64, rop_before: bool) {
        let mut at = slot_start
            + self.geo.burst_start
            + crate::timing::BURST_DURATION
            + SLOT_TIME;
        if rop_before {
            at += self.rop_dur;
        }
        self.schedule_start(at, node, next_slot);
    }

    fn on_slot_start(&mut self, now: SimTime, node: usize, slot: u64) {
        if self.plant.medium.is_transmitting(NodeId(node as u32)) {
            return;
        }
        // The node is now committed to this slot's exchange; its
        // correlator re-arms at the burst phase.
        self.nodes[node].busy_until = now + self.geo.burst_start;
        if self.net.node(NodeId(node as u32)).is_ap() {
            self.ap_execute(now, node, slot);
        } else {
            self.client_transmit(now, node, slot);
        }
    }

    /// The AP acts on a trigger. The trigger's slot index is advisory
    /// (the real protocol carries none): entries for clearly-passed slots
    /// are shed so a lagging AP rejoins the live grid — their packets
    /// never left the queues — but the trigger always starts the next
    /// pending entry.
    fn ap_execute(&mut self, now: SimTime, ap: usize, slot: u64) {
        while let Some(head) = self.nodes[ap].program.front() {
            if head.slot < slot {
                self.counters.actions_shed += 1;
                self.nodes[ap].program.pop_front();
            } else {
                break;
            }
        }
        let Some(action) = self.nodes[ap].program.front().cloned() else {
            return;
        };
        match action.kind {
            ApActionKind::TxData { link } => {
                self.nodes[ap].program.pop_front();
                self.start_data_slot(
                    now,
                    NodeId(ap as u32),
                    link,
                    action.own_burst,
                    action.client_burst,
                    action.slot,
                );
                self.maybe_self_trigger(now, ap, action.slot);
                self.arm_watchdog(now, ap);
            }
            ApActionKind::Poll => {
                self.nodes[ap].program.pop_front();
                self.start_poll(now, NodeId(ap as u32));
                // The polling AP may itself transmit in the slot that
                // follows the ROP slot.
                if self.nodes[ap]
                    .program
                    .front()
                    .is_some_and(|a| a.slot == action.slot)
                {
                    // The guard above ensures the head slot equals action.slot.
                    self.schedule_start(now + self.rop_dur + SLOT_TIME, ap, action.slot);
                }
                self.arm_watchdog(now, ap);
            }
            ApActionKind::RxData { link } => {
                // Our trigger fired for a slot whose entry is a receive:
                // relay the trigger to the client with a direct burst
                // (kick-off path; ordinary uplink slots trigger the
                // client over the air instead).
                let client = self.net.link(link).client();
                if now >= self.nodes[client.index()].busy_until {
                    self.trigger_client(now, ap, client, action.slot);
                }
            }
        }
    }

    /// If the AP's (new) program head is the very next slot, arrange its
    /// self-trigger relative to the slot that starts at `slot_start`.
    fn maybe_self_trigger(&mut self, slot_start: SimTime, ap: usize, current_slot: u64) {
        let Some(head) = self.nodes[ap].program.front() else {
            return;
        };
        // RxData heads are passive (the client drives that slot); only
        // TxData/Poll continuations need a self-trigger.
        if head.slot == current_slot + 1 && !matches!(head.kind, ApActionKind::RxData { .. }) {
            let rop = head.rop_before;
            let next = head.slot;
            self.self_trigger_after_slot(slot_start, ap, next, rop);
        }
    }

    /// A triggered client transmits its uplink head (or a fake header).
    fn client_transmit(&mut self, now: SimTime, client: usize, slot: u64) {
        self.counters.client_transmissions += 1;
        let Some(uplink) = self.uplink[client] else { return };
        // §3.5 missed ACK: the client retransmits the unacked packet when
        // its next trigger arrives.
        let packet = match self.nodes[client].unacked.take() {
            Some(p) => Some(p),
            None => self.plant.fe.queue_mut(uplink, now).pop(),
        };
        self.transmit_exchange(now, NodeId(client as u32), uplink, packet, None, slot);
    }

    /// Shared data-slot start for AP transmitters.
    fn start_data_slot(
        &mut self,
        now: SimTime,
        sender: NodeId,
        link: LinkId,
        own_burst: Option<Burst>,
        client_burst: Option<Burst>,
        slot: u64,
    ) {
        // §3.5 missed ACK (AP side): retransmit if the schedule head has
        // the same destination — here, the same link.
        let packet = match self.nodes[sender.index()].unacked.take() {
            Some(p) if p.link == link => Some(p),
            Some(p) => {
                // Different destination: back to its queue for the
                // scheduler.
                let _ = self.plant.fe.queue_mut(p.link, now).push_front(p);
                self.plant.fe.queue_mut(link, now).pop()
            }
            None => self.plant.fe.queue_mut(link, now).pop(),
        };
        // The AP's burst goes out at the fixed offset regardless of the
        // exchange outcome (its job is to trigger the next slot).
        if let Some(b) = own_burst {
            self.plant.schedule(
                now + self.geo.burst_start,
                DEv::SendBurst { node: sender.0, burst: b },
            );
        }
        self.transmit_exchange(now, sender, link, packet, client_burst, slot);
    }

    /// Put the data (or fake-header) frame of a slot on the air.
    fn transmit_exchange(
        &mut self,
        now: SimTime,
        sender: NodeId,
        link: LinkId,
        packet: Option<Packet>,
        client_burst: Option<Burst>,
        slot: u64,
    ) {
        if self.plant.medium.is_transmitting(sender) {
            if let Some(p) = packet {
                let _ = self.plant.fe.queue_mut(link, now).push_front(p);
            }
            return;
        }
        self.plant.fe.stats.slot_starts.push(crate::workload::SlotStartRecord {
            slot,
            start_ns: now.as_nanos(),
            link,
            fake: packet.is_none(),
        });
        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::SlotStart {
            slot,
            link: link.0,
            fake: packet.is_none(),
        });
        let airtime = self.data_phase(packet.is_none());
        let frame = match packet {
            Some(p) => {
                self.nodes[sender.index()].unacked = Some(p);
                self.nodes[sender.index()].acked = false;
                self.plant.schedule(
                    now + self.geo.ack_start + self.geo.ack_airtime + SLOT_TIME,
                    DEv::AckCheck { node: sender.0 },
                );
                Frame {
                    src: sender,
                    body: FrameBody::Data { packet: p, fake: false, client_burst },
                    bits: (p.payload_bytes + MAC_OVERHEAD_BYTES) * 8,
                }
            }
            None => Frame {
                src: sender,
                body: FrameBody::Data {
                    packet: Packet {
                        id: domino_traffic::PacketId(u64::MAX),
                        flow: domino_traffic::FlowId(u32::MAX),
                        link,
                        payload_bytes: 0,
                        created_at: now,
                        kind: PacketKind::Udp,
                        seq: u64::MAX,
                    },
                    fake: true,
                    client_burst,
                },
                bits: crate::timing::FAKE_HEADER_BYTES * 8,
            },
        };
        self.plant.transmit(now, frame, airtime);
    }

    /// How long a slot's data phase runs: a real frame's fixed airtime, or
    /// a fake exchange's short header (the burst offset never moves).
    fn data_phase(&self, fake: bool) -> SimDuration {
        if fake {
            fake_airtime(self.net.phy().data_rate) + crate::timing::INSTRUCTION_APPENDIX
        } else {
            self.geo.data_airtime
        }
    }

    fn start_poll(&mut self, now: SimTime, ap: NodeId) {
        if self.plant.medium.is_transmitting(ap) {
            return;
        }
        self.plant.probe.prof.tick(CostPath::RopPoll);
        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::RopPoll { ap: ap.0 });
        let frame = Frame { src: ap, body: FrameBody::Poll { ap }, bits: POLL_BYTES * 8 };
        self.plant.transmit(now, frame, poll_airtime(self.net.phy().data_rate));
    }

    // ------------------------------------------------------- receptions

    fn on_tx_end(&mut self, now: SimTime, receptions: Vec<Reception>) {
        for r in &receptions {
            let rx = r.rx.index();
            match &r.frame.body {
                FrameBody::Data { packet, fake, client_burst } => {
                    let l = *self.net.link(packet.link);
                    let intended = if l.is_downlink() { l.client() } else { l.ap };
                    if r.rx == intended {
                        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::SlotEnd {
                            link: packet.link.0,
                            delivered: r.success && !*fake,
                        });
                    }
                    if !r.success {
                        continue;
                    }
                    if !*fake {
                        self.plant.deliver(packet, now);
                        self.wd_streak = 0; // progress: the storm streak ends
                    }
                    let ap_is_receiver = self.net.node(r.rx).is_ap();
                    // How far into the fixed slot the data phase ran.
                    let elapsed = self.data_phase(*fake);
                    // Downlink: the client schedules its instructed burst
                    // at the slot's fixed burst offset.
                    if !ap_is_receiver {
                        if let Some(b) = client_burst {
                            let at = now + (self.geo.burst_start - elapsed);
                            self.plant.schedule(at, DEv::SendBurst { node: r.rx.0, burst: *b });
                            if b.continues {
                                let rop = b.marker == BurstMarker::Rop;
                                self.self_trigger_after_slot(now - elapsed, rx, b.slot, rop);
                            }
                        }
                    }
                    // Uplink: the AP advances its program, schedules its
                    // own burst and embeds the client's instruction in
                    // the ACK.
                    let reply_burst = if ap_is_receiver {
                        self.ap_uplink_reception(now, rx, packet.link, elapsed)
                    } else {
                        None
                    };
                    // Real frames are ACKed; a fake uplink still gets a
                    // header-ACK when it must carry the client's burst
                    // instruction (Fig 8b's S1 has no other ride). The
                    // ACK always sits at the slot's fixed ACK offset — a
                    // fake exchange's header ends early, and an early ACK
                    // would land inside concurrent links' data phases.
                    let must_ack = !*fake || (ap_is_receiver && reply_burst.is_some());
                    if must_ack && !self.plant.medium.is_transmitting(r.rx) {
                        let ack_at = now + (self.geo.ack_start - elapsed);
                        self.plant.schedule(
                            ack_at,
                            DEv::SendAck { rx: r.rx.0, packet: *packet, client_burst: reply_burst },
                        );
                    }
                }
                FrameBody::MacAck { packet, link, client_burst } => {
                    if !r.success {
                        continue;
                    }
                    let sender = self.net.link(*link).sender.index();
                    if rx == sender
                        && self.nodes[sender].unacked.is_some_and(|p| p.id == *packet)
                    {
                        self.nodes[sender].unacked = None;
                        self.nodes[sender].acked = true;
                    }
                    // Uplink case: the client's instruction rides the
                    // ACK; it bursts one slot later.
                    if let Some(b) = client_burst {
                        if !self.net.node(r.rx).is_ap() {
                            self.plant.schedule(
                                now + SLOT_TIME,
                                DEv::SendBurst { node: r.rx.0, burst: *b },
                            );
                            if b.continues {
                                let rop = b.marker == BurstMarker::Rop;
                                // The ACK ends at slot_start + data phase +
                                // SIFS + ack airtime; fake exchanges (the
                                // acked id is the fake sentinel) had a
                                // short data phase.
                                let fake = *packet == domino_traffic::PacketId(u64::MAX);
                                let offset = self.data_phase(fake) + SIFS + self.geo.ack_airtime;
                                if now.as_nanos() >= offset.as_nanos() {
                                    let slot_start = now - offset;
                                    self.self_trigger_after_slot(slot_start, rx, b.slot, rop);
                                }
                            }
                        }
                    }
                }
                FrameBody::Poll { ap } => {
                    if !r.success {
                        continue;
                    }
                    let answer = DEv::RopAnswer { client: r.rx.0, ap: ap.0 };
                    self.plant.schedule(now + SLOT_TIME, answer);
                }
                FrameBody::RopReport { client, ap, queue } => {
                    if !r.success {
                        continue;
                    }
                    self.plant.probe.prof.tick(CostPath::RopReport);
                    self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::RopReport {
                        client: client.0,
                        ap: ap.0,
                        queue: *queue,
                    });
                    if let Some(link) = self.uplink[client.index()] {
                        if let Some(m) = self.backbone.try_send(now, ()) {
                            self.plant.schedule(
                                m.deliver_at,
                                DEv::ReportArrive { link: link.0, queue: *queue },
                            );
                        }
                        // The relay mirrors every report to the standby
                        // so its post-checkpoint delta stays current.
                        if self.standby_on {
                            if let Some(m) = self.standby_bb.try_send(now, ()) {
                                self.plant.schedule(
                                    m.deliver_at,
                                    DEv::StandbyReport { link: link.0, queue: *queue },
                                );
                            }
                        }
                    }
                }
                FrameBody::SignatureBurst(b) => {
                    if !r.success {
                        self.counters.triggers_failed += 1;
                        self.plant.probe.prof.tick(CostPath::SigMiss);
                        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::SigMiss {
                            node: r.rx.0,
                            slot: b.slot,
                        });
                        continue;
                    }
                    self.counters.triggers_detected += 1;
                    self.plant.probe.prof.tick(CostPath::SigDetect);
                    self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::SigDetect {
                        node: r.rx.0,
                        slot: b.slot,
                    });
                    self.on_trigger(now, rx, b.marker, b.slot);
                }
            }
        }
        self.plant.reuse(receptions);
    }

    /// The AP received an uplink frame: advance its program past the
    /// matching RxData head and schedule its own burst for this slot.
    /// Returns the client's burst instruction to embed in the ACK.
    fn ap_uplink_reception(
        &mut self,
        now: SimTime,
        ap: usize,
        link: LinkId,
        elapsed: SimDuration,
    ) -> Option<Burst> {
        let matches = self.nodes[ap]
            .program
            .front()
            .is_some_and(|a| a.kind == (ApActionKind::RxData { link }));
        if !matches {
            return None;
        }
        let action = self.nodes[ap].program.pop_front()?;
        self.arm_watchdog(now, ap);
        if let Some(b) = action.own_burst {
            // The data phase consumed `elapsed`; the burst sits at the
            // slot's fixed offset.
            let at = now + (self.geo.burst_start - elapsed);
            self.plant.schedule(at, DEv::SendBurst { node: ap as u32, burst: b });
        }
        self.maybe_self_trigger(now - elapsed, ap, action.slot);
        action.client_burst
    }

    // ------------------------------------------------------- mid-slot

    fn on_send_ack(
        &mut self,
        now: SimTime,
        rx: usize,
        packet: Packet,
        client_burst: Option<Burst>,
    ) {
        if self.plant.medium.is_transmitting(NodeId(rx as u32)) {
            return;
        }
        let frame = Frame {
            src: NodeId(rx as u32),
            body: FrameBody::MacAck { packet: packet.id, link: packet.link, client_burst },
            bits: ACK_BYTES * 8,
        };
        self.plant.transmit(now, frame, self.geo.ack_airtime);
    }

    fn on_send_burst(&mut self, now: SimTime, node: usize, burst: Burst) {
        if burst.targets.is_empty() || self.plant.medium.is_transmitting(NodeId(node as u32)) {
            return;
        }
        let frame = Frame {
            src: NodeId(node as u32),
            body: FrameBody::SignatureBurst(burst),
            bits: 0,
        };
        self.counters.bursts_sent += 1;
        self.plant.probe.prof.tick(CostPath::SigEmit);
        self.plant.probe.prof.add_with(CostPath::SigTargets, || {
            if let FrameBody::SignatureBurst(b) = &frame.body {
                b.targets.len() as u64
            } else {
                0
            }
        });
        if let FrameBody::SignatureBurst(b) = &frame.body {
            self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::SigEmit {
                node: node as u32,
                slot: b.slot,
                targets: b.targets.iter().map(|t| t.0).collect(),
            });
        }
        self.plant.transmit(now, frame, crate::timing::BURST_DURATION);
    }

    fn on_ack_check(&mut self, node: usize) {
        if self.nodes[node].acked {
            self.nodes[node].acked = false;
            return;
        }
        if self.nodes[node].unacked.is_some() {
            // Kept for the §3.5 retransmission paths; count the miss.
            self.plant.fe.stats.ack_timeouts += 1;
            self.plant.fe.stats.retries += 1;
        }
    }

    fn on_rop_answer(&mut self, now: SimTime, client: usize, ap: usize) {
        if self.plant.medium.is_transmitting(NodeId(client as u32)) {
            return;
        }
        let Some(link) = self.uplink[client] else { return };
        let unacked = u32::from(self.nodes[client].unacked.is_some());
        let fresh = self.plant.fe.queue(link, now).rop_report() + unacked;
        // Stale-report fault: the client replays the previous round's
        // value instead of the live queue state.
        let stale = self.plant.node_faults.report_stale();
        if stale {
            self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
                kind: FaultKind::StaleRop,
                node: client as u32,
            });
        }
        let queue = if stale { self.last_rop[link.index()] } else { fresh };
        self.last_rop[link.index()] = fresh;
        let frame = Frame {
            src: NodeId(client as u32),
            body: FrameBody::RopReport {
                client: NodeId(client as u32),
                ap: NodeId(ap as u32),
                queue: queue.min(63),
            },
            bits: 0,
        };
        self.plant.transmit(now, frame, ROP_SYMBOL);
    }

    fn on_watchdog(&mut self, now: SimTime, ap: usize) {
        if self.nodes[ap].program.is_empty() {
            return;
        }
        if self.plant.armed(start_timer(ap)) {
            self.arm_watchdog(now, ap);
            return;
        }
        // Never restart into an active channel: the "stall" may be an
        // exchange we are part of (e.g. the uplink data we are waiting
        // for is in flight right now — a burst would deafen us to it).
        if self.plant.medium.is_busy(NodeId(ap as u32)) {
            let retry = DEv::Watchdog { ap: ap as u32 };
            self.plant.schedule(now + SimDuration::from_micros(200), retry);
            return;
        }
        // A receive head that has been stalled for a whole watchdog
        // period is dead (its client either missed the trigger or its
        // data keeps failing): discard the opportunity — the scheduler
        // still sees the backlog and reschedules the link — and restart
        // from the next entry.
        if matches!(
            self.nodes[ap].program.front().map(|a| &a.kind),
            Some(ApActionKind::RxData { .. })
        ) {
            self.nodes[ap].program.pop_front();
            if self.nodes[ap].program.is_empty() {
                return;
            }
        }
        self.counters.watchdog_restarts += 1;
        // Storm detection: restarts with zero deliveries in between mean
        // the fallback timer, not the trigger chain, is pacing the
        // schedule. Counting is observation-only (no events, no RNG).
        self.wd_streak += 1;
        if self.wd_streak == WATCHDOG_STORM_THRESHOLD {
            self.counters.watchdog_storms += 1;
        }
        // Chain broken: restart individually (§3.3's first-batch rule
        // doubles as the self-healing restart).
        self.self_start(now, ap);
        self.arm_watchdog(now, ap);
    }

    /// An untriggerable entry's estimated time arrived: start it unless a
    /// real trigger already did (or the channel is mid-exchange).
    fn on_kick_off(&mut self, now: SimTime, ap: usize, slot: u64) {
        if self.plant.armed(start_timer(ap)) || now < self.nodes[ap].busy_until {
            return; // a trigger beat us to it
        }
        let Some(head) = self.nodes[ap].program.front().cloned() else {
            return;
        };
        if head.slot > slot {
            return; // already past it
        }
        if self.plant.medium.is_busy(NodeId(ap as u32)) {
            self.plant.schedule(
                now + SimDuration::from_micros(100),
                DEv::KickOff { ap: ap as u32, slot },
            );
            return;
        }
        self.counters.kick_offs += 1;
        match head.kind {
            ApActionKind::RxData { link } if head.slot == slot => {
                self.trigger_client(now, ap, self.net.link(link).client(), slot);
            }
            _ => self.schedule_start(now, ap, slot),
        }
    }
}

impl SchemeEvent for DEv {
    fn cost_class(&self) -> CostPath {
        match self {
            DEv::BatchArrive { .. }
            | DEv::ReportArrive { .. }
            | DEv::ControllerCompute => CostPath::EvController,
            DEv::SlotStart { .. }
            | DEv::SendBurst { .. }
            | DEv::SendAck { .. }
            | DEv::AckCheck { .. }
            | DEv::Watchdog { .. }
            | DEv::KickOff { .. } => CostPath::EvSlot,
            DEv::RopAnswer { .. } => CostPath::EvRop,
            DEv::CtrlHeartbeat
            | DEv::CtrlCheckpoint
            | DEv::HeartbeatArrive
            | DEv::CkptArrive { .. }
            | DEv::StandbyReport { .. }
            | DEv::StandbyProbe => CostPath::EvStandby,
        }
    }

    fn timer(&self) -> Option<usize> {
        match self {
            DEv::ControllerCompute => Some(COMPUTE_TIMER),
            DEv::SlotStart { node, .. } => Some(start_timer(*node as usize)),
            DEv::Watchdog { ap } => Some(watchdog_timer(*ap as usize)),
            DEv::BatchArrive { .. }
            | DEv::ReportArrive { .. }
            | DEv::SendBurst { .. }
            | DEv::SendAck { .. }
            | DEv::AckCheck { .. }
            | DEv::RopAnswer { .. }
            | DEv::KickOff { .. }
            | DEv::CtrlHeartbeat
            | DEv::CtrlCheckpoint
            | DEv::HeartbeatArrive
            | DEv::CkptArrive { .. }
            | DEv::StandbyReport { .. }
            | DEv::StandbyProbe => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcf::DcfWorld;
    use crate::omniscient::OmniWorld;
    use crate::run::testing::{assert_checkpoint_resume_matches, run_faulted, run_plain};
    use crate::workload::Workload;
    use domino_faults::FaultConfig;
    use domino_topology::presets::{fig1, fig7};
    use domino_topology::{NodeId, PhyParams};

    fn domino(net: &Network, w: &Workload, duration_s: f64, seed: u64) -> RunStats {
        run_plain::<DominoWorld>(net, w, duration_s, seed, DominoConfig::default())
    }

    /// Every variant, standby events included: those are rarely pending
    /// at a checkpoint boundary, so no resume test reaches their encoding.
    #[test]
    fn every_event_roundtrips() {
        use crate::plant::testing::{assert_events_roundtrip, sample_packet};
        let burst = Burst {
            codes: [3, 7].into_iter().collect(),
            targets: [NodeId(3), NodeId(7)].into_iter().collect(),
            marker: BurstMarker::Rop,
            slot: 42,
            continues: true,
        };
        let action = |slot, kind| ApAction {
            slot,
            kind,
            rop_before: slot % 2 == 0,
            kick_off: slot % 3 == 0,
            own_burst: Some(burst),
            client_burst: None,
        };
        let msg = ApMessage {
            first_slot: 8,
            actions: vec![
                action(8, ApActionKind::TxData { link: LinkId(1) }),
                action(9, ApActionKind::RxData { link: LinkId(2) }),
                action(10, ApActionKind::Poll),
            ],
            retained_updates: vec![(7, Some(burst), None), (7, None, Some(burst))],
        };
        let ev = |x: DEv| Ev::Scheme(x);
        assert_events_roundtrip(&[
            ev(DEv::BatchArrive { ap: 0, msg }),
            ev(DEv::ReportArrive { link: 3, queue: 12 }),
            ev(DEv::ControllerCompute),
            ev(DEv::SlotStart { node: 5, slot: 7 }),
            ev(DEv::SendBurst { node: 1, burst }),
            ev(DEv::SendAck { rx: 2, packet: sample_packet(), client_burst: Some(burst) }),
            ev(DEv::SendAck { rx: 2, packet: sample_packet(), client_burst: None }),
            ev(DEv::AckCheck { node: 3 }),
            ev(DEv::RopAnswer { client: 4, ap: 0 }),
            ev(DEv::Watchdog { ap: 2 }),
            ev(DEv::KickOff { ap: 2, slot: 11 }),
            ev(DEv::CtrlHeartbeat),
            ev(DEv::CtrlCheckpoint),
            ev(DEv::HeartbeatArrive),
            ev(DEv::CkptArrive { state: vec![1, 2, 3, 255] }),
            ev(DEv::StandbyReport { link: 6, queue: 63 }),
            ev(DEv::StandbyProbe),
        ]);
    }

    /// A program's slot lookup finds what a front-to-back scan finds, on
    /// slot-sorted programs (duplicate slots included: a Poll shares its
    /// slot with the TxData after it) and on programs that crashes and
    /// failovers left with lower slots behind higher ones, through
    /// appends, pops, clears and a snapshot round trip.
    #[test]
    fn program_lookup_matches_a_linear_scan() {
        use domino_testkit::{prop, prop_assert_eq};
        prop::check("program slot lookup matches a linear scan", |g| {
            let unsorted = g.bool();
            let mut program = Program::default();
            let mut slot = 100u64;
            for _ in 0..g.usize(1, 60) {
                match g.u64(0, 9) {
                    0 => {
                        program.pop_front();
                    }
                    1 if g.u64(0, 4) == 0 => program.clear(),
                    2 => program = Program::from_bytes(&program.to_bytes()).unwrap(),
                    _ => {
                        slot = if unsorted && g.u64(0, 3) == 0 {
                            slot.saturating_sub(g.u64(1, 6))
                        } else {
                            slot + g.u64(0, 2)
                        };
                        let kind = if g.bool() {
                            ApActionKind::Poll
                        } else {
                            ApActionKind::TxData { link: LinkId(0) }
                        };
                        program.push_back(ApAction {
                            slot,
                            kind,
                            rop_before: false,
                            kick_off: false,
                            own_burst: None,
                            client_burst: None,
                        });
                    }
                }
                let slots: Vec<u64> = program.actions.iter().map(|a| a.slot).collect();
                let descents = slots.windows(2).filter(|w| w[1] < w[0]).count();
                prop_assert_eq!(program.descents, descents);
                let (lo, hi) = (slots.iter().min().copied(), slots.iter().max().copied());
                for probe in lo.unwrap_or(slot).saturating_sub(1)..=hi.unwrap_or(slot) + 1 {
                    prop_assert_eq!(
                        program.position(probe),
                        slots.iter().position(|&s| s == probe),
                        "slot {probe} in {slots:?}"
                    );
                }
            }
        });
    }

    fn fig1_links(net: &Network) -> (LinkId, LinkId, LinkId) {
        let dl = |ap: u32| {
            net.links()
                .iter()
                .find(|l| l.is_downlink() && l.sender == NodeId(ap))
                .unwrap()
                .id
        };
        let ul = |ap: u32| {
            net.links()
                .iter()
                .find(|l| !l.is_downlink() && l.ap == NodeId(ap))
                .unwrap()
                .id
        };
        (dl(0), ul(2), dl(4))
    }

    #[test]
    fn single_pair_downlink_flows() {
        let net = fig1(PhyParams::default());
        let (l1, _, _) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l1]);
        let stats = domino(&net, &w, 2.0, 1);
        let mbps = stats.link_mbps(l1);
        // One link per slot: 4096 bits / ~492 us slot ≈ 8.3 Mb/s (minus
        // ROP overhead).
        assert!(mbps > 6.0, "DOMINO single link: {mbps} Mb/s");
        // The trigger-chain diagnostics ride on the run report: a healthy
        // run is paced by detected triggers, not by fallback timers.
        let d = stats.domino;
        assert!(d.bursts_sent > 0, "no signature bursts recorded: {d:?}");
        assert!(d.triggers_detected > 0, "no triggers recorded: {d:?}");
        assert!(d.actions_dispatched > 0, "no dispatches recorded: {d:?}");
        assert!(
            d.triggers_detected > d.watchdog_restarts,
            "chain paced by watchdogs, not triggers: {d:?}"
        );
    }

    #[test]
    fn fig2_shape_domino_matches_omniscient() {
        let net = fig1(PhyParams::default());
        let (l1, l2, l3) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l1, l2, l3]);
        let domino = domino(&net, &w, 3.0, 1);
        let dcf = run_plain::<DcfWorld>(&net, &w, 3.0, 1, ());
        let omni = run_plain::<OmniWorld>(&net, &w, 3.0, 1, ());
        let (d, c, o) =
            (domino.aggregate_mbps(), dcf.aggregate_mbps(), omni.aggregate_mbps());
        // Fig 2: DOMINO performs close to the omniscient scheme and far
        // above DCF.
        assert!(d > c * 1.4, "DOMINO {d} vs DCF {c}");
        assert!(d > o * 0.75, "DOMINO {d} should be close to omniscient {o}");
        // The exposed uplink is scheduled every slot; the hidden victim
        // is not starved.
        assert!(domino.link_mbps(l2) > 5.0, "C2->AP2: {}", domino.link_mbps(l2));
        assert!(domino.link_mbps(l3) > 2.0, "AP3->C3: {}", domino.link_mbps(l3));
    }

    #[test]
    fn uplink_traffic_is_scheduled_via_rop() {
        let net = fig7(PhyParams::default());
        let ups: Vec<LinkId> = net
            .links()
            .iter()
            .filter(|l| !l.is_downlink())
            .map(|l| l.id)
            .collect();
        let w = Workload::udp_saturated(&ups);
        let stats = domino(&net, &w, 3.0, 2);
        let total = stats.aggregate_mbps();
        // Client-driven slots lean on relayed triggers and carry more
        // per-slot control overhead than downlinks; the healthy signal is
        // meaningful aggregate progress with no starved link.
        assert!(total > 4.0, "uplink-only DOMINO: {total} Mb/s");
        for &u in &ups {
            assert!(
                stats.link_mbps(u) > 1.0,
                "uplink {u} starved: {}",
                stats.link_mbps(u)
            );
        }
    }

    #[test]
    fn misalignment_heals_within_a_few_slots() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 10e6, 10e6);
        let cfg = DominoConfig {
            wired: WiredLatency::with_std(60.0),
            ..DominoConfig::default()
        };
        let stats = run_plain::<DominoWorld>(&net, &w, 1.0, 3, cfg);
        let mis = stats.misalignment_by_slot();
        assert!(mis.len() > 10, "not enough slots recorded: {}", mis.len());
        // Steady state must be tightly aligned even though slot 0 starts
        // with wired jitter.
        let mut late: Vec<f64> = mis.iter().skip(8).map(|&(_, m)| m).collect();
        late.sort_by(|a, b| a.total_cmp(b));
        let late_median = late[late.len() / 2];
        assert!(late_median < 15.0, "steady-state misalignment {late_median} us");
    }

    #[test]
    fn deterministic() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 5e6, 5e6);
        let a = domino(&net, &w, 1.0, 9);
        let b = domino(&net, &w, 1.0, 9);
        assert!(a == b, "same seed, different runs");
    }

    #[test]
    fn tcp_over_domino_progresses() {
        let net = fig1(PhyParams::default());
        let w = Workload::tcp_updown(&net, 10e6, 0.0);
        let stats = domino(&net, &w, 3.0, 4);
        // Modest by design: the paper treats the TCP ACK as a regular
        // packet occupying a whole slot (§4.2.3), which halves the slot
        // budget of a single flow; the healthy signal is progress with
        // few transport-level losses.
        assert!(
            stats.aggregate_mbps() > 1.0,
            "TCP over DOMINO: {} Mb/s",
            stats.aggregate_mbps()
        );
        assert!(
            stats.tcp_retransmissions < 100,
            "TCP losses: {}",
            stats.tcp_retransmissions
        );
    }

    #[test]
    fn fake_links_can_be_disabled_for_ablation() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 10e6, 0.0);
        let cfg = DominoConfig {
            converter: ConverterConfig {
                insert_fake_links: false,
                ..ConverterConfig::default()
            },
            ..DominoConfig::default()
        };
        let without = run_plain::<DominoWorld>(&net, &w, 2.0, 5, cfg);
        let with = domino(&net, &w, 2.0, 5);
        assert!(without.aggregate_mbps() > 0.0);
        assert!(with.aggregate_mbps() > 0.0);
    }

    #[test]
    fn checkpoint_resume_under_ctrl_crash_and_standby() {
        // Chaos plus the failover class: the snapshot must carry the
        // fault plane, the standby's buffered delta, and mid-promotion
        // controller state byte-for-byte.
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 8e6, 8e6);
        let faults = FaultConfig {
            ctrl_crash: 0.05,
            ctrl_downtime_us: 20_000.0,
            standby: true,
            ..FaultConfig::chaos(0.5)
        };
        let inputs = RunInputs { net: &net, workload: &w, duration_s: 2.0, seed: 13, faults: &faults };
        let baseline = assert_checkpoint_resume_matches::<DominoWorld>(
            &inputs,
            DominoConfig::default(),
            SimTime::from_nanos(900_000_000),
        );
        assert!(baseline.faults.ctrl_crashes > 0, "no crash drawn: {:?}", baseline.faults);
    }

    #[test]
    fn warm_standby_beats_cold_restart() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 8e6, 8e6);
        let cold_cfg = FaultConfig {
            ctrl_crash: 0.02,
            ctrl_downtime_us: 50_000.0,
            ..FaultConfig::off()
        };
        let warm_cfg = FaultConfig { standby: true, ..cold_cfg.clone() };
        let cold =
            run_faulted::<DominoWorld>(&net, &w, 3.0, 17, &cold_cfg, DominoConfig::default());
        let warm =
            run_faulted::<DominoWorld>(&net, &w, 3.0, 17, &warm_cfg, DominoConfig::default());
        assert!(cold.faults.ctrl_crashes > 0, "no cold crashes: {:?}", cold.faults);
        assert!(warm.faults.ctrl_crashes > 0, "no warm crashes: {:?}", warm.faults);
        assert_eq!(cold.faults.standby_promotions, 0);
        // Every warm crash ends in a promotion, and the cold run pays the
        // full configured downtime per crash.
        assert_eq!(warm.faults.standby_promotions, warm.faults.ctrl_crashes);
        assert_eq!(cold.faults.recovery_ns, cold.faults.ctrl_crashes * 50_000_000);
        // The deterministic detector needs k heartbeat periods plus the
        // replay cost — far below the cold downtime per crash.
        let warm_avg = warm.faults.recovery_ns / warm.faults.standby_promotions;
        assert!(
            warm_avg < 10_000_000,
            "warm recovery should be a few heartbeats, got {warm_avg} ns"
        );
        assert!(
            warm.faults.recovery_ns / warm.faults.ctrl_crashes
                < cold.faults.recovery_ns / cold.faults.ctrl_crashes,
            "warm {:?} vs cold {:?}",
            warm.faults,
            cold.faults
        );
        // The replayed delta is what the promotion rebuilds from.
        assert!(
            warm.faults.replayed_reports > 0,
            "no reports replayed at promotion: {:?}",
            warm.faults
        );
        assert!(warm.aggregate_mbps() > 0.0 && cold.aggregate_mbps() > 0.0);
    }
}

