//! CENTAUR-style hybrid data path (the paper's second baseline).
//!
//! Following the paper's description of CENTAUR (§1, §4.2.3): the central
//! controller schedules *downlink* packets in epochs of conflict-free
//! rounds; APs execute their assignments using carrier sensing plus a
//! *fixed* backoff to align exposed transmissions; the next epoch is
//! released only when every AP reports its batch complete. Uplink traffic
//! is unscheduled DCF and disturbs the downlink schedule at will.
//!
//! Two structural behaviours matter for the reproduction:
//! * **Alignment by shared idle events** — APs that hear each other
//!   observe the same busy→idle transition, wait the same fixed backoff,
//!   and fire simultaneously (exposed-set concurrency, Fig 13a /
//!   Table 3 row 1).
//! * **The batch barrier** — APs that cannot hear each other desynchronize,
//!   the common neighbour keeps deferring, and the whole epoch waits for
//!   the slowest AP while the others idle (Fig 13b / Table 3 row 2,
//!   where CENTAUR drops below DCF).
//!
//! The failover fault class adds a primary-controller crash at compute
//! time. CENTAUR's controller state is lean — the scheduler's fairness
//! order — so the warm standby ships exactly that: periodic order
//! checkpoints, a deterministic missed-heartbeat detector, and promotion
//! that restores the last shipped order. With the standby off, a crash
//! cold-restarts the controller after its downtime with the order lost.

use crate::dcf::{CsmaCore, CsmaEv};
use crate::plant::{restore_table, Ev, Plant, SchemeEvent, Step};
use crate::run::{RunInputs, World};
use crate::timing::{ack_timeout, data_airtime, DIFS, MAC_OVERHEAD_BYTES, RETRY_LIMIT};
use crate::workload::RunStats;
use domino_medium::{Frame, FrameBody, Reception};
use domino_obs::{CostPath, FaultKind, Probe, TraceEvent};
use domino_scheduler::RandScheduler;
use domino_sim::rng::streams;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{SimDuration, SimTime};
use domino_topology::{ConflictGraph, Direction, LinkId, Network, NodeId};
use domino_traffic::Packet;
use domino_wired::{Backbone, WiredLatency};
use std::collections::VecDeque;

/// Packet quota per scheduled link per round: rounds amortize the wired
/// round-trip of the release barrier.
const PACKETS_PER_ROUND: usize = 8;

/// The fixed alignment backoff after a sensed idle transition (§4.2.3).
const FIXED_BACKOFF: SimDuration = DIFS;

/// CENTAUR scheme events.
#[derive(Debug)]
pub enum CentaurEv {
    /// The clients' DCF uplink contention.
    Csma(CsmaEv),
    /// An epoch assignment reaches an AP over the wire.
    EpochArrive {
        /// Destination AP node index.
        ap: u32,
        /// Epoch number.
        epoch: u64,
        /// Link ids to serve, in round order.
        assignments: Vec<LinkId>,
    },
    /// An AP's fixed alignment backoff expires (the AP's timer).
    ApArm {
        /// AP node index.
        ap: u32,
    },
    /// An AP's ACK wait expires (the AP's timer).
    ApAckTimeout {
        /// AP node index.
        ap: u32,
    },
    /// An AP's completion report reaches the controller.
    DoneArrive {
        /// Reporting AP node index.
        ap: u32,
        /// Epoch number.
        epoch: u64,
    },
    /// Idle controller re-checks the queues.
    ControllerCheck,
    /// Fault-plane fallback: the batch barrier has waited too long — a
    /// lost epoch assignment or completion report would otherwise hang
    /// the controller forever. Scheduled only when faults are enabled.
    EpochTimeout {
        /// The epoch this timeout guards.
        epoch: u64,
    },
}

impl From<CsmaEv> for CentaurEv {
    fn from(ev: CsmaEv) -> CentaurEv {
        CentaurEv::Csma(ev)
    }
}

impl SchemeEvent for CentaurEv {
    /// The uplink's contention is slot work; the epochs are the
    /// controller plane.
    fn cost_class(&self) -> CostPath {
        match self {
            CentaurEv::Csma(ev) => ev.cost_class(),
            CentaurEv::EpochArrive { .. }
            | CentaurEv::ApArm { .. }
            | CentaurEv::ApAckTimeout { .. }
            | CentaurEv::DoneArrive { .. }
            | CentaurEv::ControllerCheck
            | CentaurEv::EpochTimeout { .. } => CostPath::EvController,
        }
    }

    /// One timer per node, indexed by the node: a client's is its CSMA
    /// timer, an AP's its scheduled downlink's (APs never contend).
    fn timer(&self) -> Option<usize> {
        match self {
            CentaurEv::Csma(ev) => ev.timer(),
            CentaurEv::ApArm { ap } | CentaurEv::ApAckTimeout { ap } => Some(*ap as usize),
            CentaurEv::EpochArrive { .. }
            | CentaurEv::DoneArrive { .. }
            | CentaurEv::ControllerCheck
            | CentaurEv::EpochTimeout { .. } => None,
        }
    }
}

domino_sim::snap_value!(enum CentaurEv, "centaur event tag" {
    0 => Csma(ev),
    1 => EpochArrive { ap, epoch, assignments },
    2 => ApArm { ap },
    3 => ApAckTimeout { ap },
    4 => DoneArrive { ap, epoch },
    5 => ControllerCheck,
    6 => EpochTimeout { epoch },
});

/// How long the controller waits on the batch barrier before abandoning
/// an epoch (fault-plane recovery; never scheduled in fault-free runs).
const EPOCH_TIMEOUT: SimDuration = SimDuration::from_millis(15);

#[derive(Clone, Copy, PartialEq, Debug)]
enum ApPhase {
    /// No assignments (between epochs).
    Idle,
    /// Waiting for the channel to go idle.
    WaitIdle,
    /// Fixed backoff running.
    Armed,
    /// Our data frame is on the air.
    Transmitting,
    /// Waiting for the client's ACK.
    AwaitAck,
}

domino_sim::snap_value!(enum ApPhase, "ap phase tag" {
    0 => Idle,
    1 => WaitIdle,
    2 => Armed,
    3 => Transmitting,
    4 => AwaitAck,
});

#[derive(Debug)]
struct ApState {
    assignments: VecDeque<LinkId>,
    epoch: u64,
    phase: ApPhase,
    current: Option<Packet>,
    retries: u32,
    arm_expiry: SimTime,
    last_busy: bool,
    /// NAV-adjusted time reference shared by aligned APs: the last sensed
    /// busy→idle transition, pushed past the ACK window when the frame
    /// that ended was a data frame (whose duration field reserves the
    /// channel through its ACK).
    nav_anchor: SimTime,
}

domino_sim::snap_value!(ApState {
    assignments,
    epoch,
    phase,
    current,
    retries,
    arm_expiry,
    last_busy,
    nav_anchor,
});

/// The complete state of a CENTAUR run between events.
///
/// Under a fault plane: backbone loss/spikes on the epoch wire, AP
/// crashes at epoch delivery, controller compute stalls, primary-controller
/// crashes (warm standby or cold restart), and the medium-resident churn
/// class. Lost epoch or Done messages are recovered by a fallback
/// `EPOCH_TIMEOUT` on the batch barrier (scheduled only when faults are
/// enabled, so fault-free runs stay byte-identical).
#[derive(Debug)]
pub struct CentaurWorld {
    net: Network,
    plant: Plant<CentaurEv>,
    backbone: Backbone,
    sched: RandScheduler,
    csma: CsmaCore,
    ap_states: Vec<Option<ApState>>,
    epoch_counter: u64,
    pending_done: usize,
    /// Controller failover: while dark, the controller ignores its own
    /// check events until the promotion (or cold restart) scheduled at
    /// the dark end.
    ctrl_dark_until: SimTime,
    /// The fairness-order bytes last shipped to the warm standby.
    standby_ckpt: Vec<u8>,
    next_ckpt_at: SimTime,
    // Immutable run parameters.
    standby: bool,
    ckpt_every: SimDuration,
    detect_delay: SimDuration,
    graph: ConflictGraph,
    aps: Vec<NodeId>,
    nav_window: SimDuration,
    faults_on: bool,
    rate: domino_phy::error_model::DataRate,
}

impl World for CentaurWorld {
    type Config = ();
    type Event = CentaurEv;

    fn new(inputs: &RunInputs<'_>, _: (), probe: Probe) -> CentaurWorld {
        let RunInputs { net, seed, faults, .. } = *inputs;
        let mut plant = Plant::new(inputs, probe, net.num_nodes());
        let backbone = plant.backbone(
            inputs,
            WiredLatency::default(),
            streams::WIRED_JITTER,
            streams::FAULT_WIRED,
        );
        let rate = net.phy().data_rate;

        // Clients contend with DCF; APs follow the schedule.
        let clients: Vec<NodeId> = net
            .nodes()
            .iter()
            .filter(|n| !n.is_ap())
            .map(|n| n.id)
            .collect();
        let csma = CsmaCore::new(net, &clients, seed, &mut plant);

        let aps = net.aps();
        let mut ap_states: Vec<Option<ApState>> = (0..net.num_nodes()).map(|_| None).collect();
        for &ap in &aps {
            ap_states[ap.index()] = Some(ApState {
                assignments: VecDeque::new(),
                epoch: 0,
                phase: ApPhase::Idle,
                current: None,
                retries: 0,
                arm_expiry: SimTime::ZERO,
                last_busy: false,
                nav_anchor: SimTime::ZERO,
            });
        }
        plant.schedule(SimTime::ZERO, CentaurEv::ControllerCheck);
        CentaurWorld {
            net: net.clone(),
            plant,
            backbone,
            sched: RandScheduler::new(net.links().len()),
            csma,
            ap_states,
            epoch_counter: 0,
            pending_done: 0,
            ctrl_dark_until: SimTime::ZERO,
            standby_ckpt: Vec::new(),
            next_ckpt_at: SimTime::ZERO,
            standby: faults.standby,
            ckpt_every: SimDuration::from_secs_f64(faults.standby_checkpoint_us * 1e-6),
            detect_delay: SimDuration::from_secs_f64(
                faults.standby_heartbeat_us * f64::from(domino_faults::STANDBY_MISSED_K) * 1e-6,
            ),
            graph: ConflictGraph::build_for_scheduling(net),
            aps,
            // NAV window of a data frame: SIFS + ACK. An AP that hears a
            // data frame end (but maybe not the ACK) and an AP that hears
            // the ACK end must compute the same aligned fire time.
            nav_window: crate::timing::SIFS + crate::timing::ack_airtime(rate),
            faults_on: faults.enabled(),
            rate,
        }
    }

    fn plant(&mut self) -> &mut Plant<CentaurEv> {
        &mut self.plant
    }

    fn handle(&mut self, now: SimTime, ev: Ev<CentaurEv>) {
        let ev = match self.plant.step(now, ev) {
            Step::Released => return self.csma.try_start_all(now, &mut self.plant),
            Step::TxEnd(receptions) => return self.on_tx_end(receptions, now),
            Step::Scheme(ev) => ev,
        };
        match ev {
            CentaurEv::Csma(ev) => {
                // Only a transmission start can move the APs' carrier
                // sense; an ACK timeout or a wake starts none.
                let rescan = !matches!(ev, CsmaEv::AckTimeout { .. } | CsmaEv::Wake);
                self.csma.handle(now, ev, &mut self.plant);
                if rescan {
                    self.scan_aps(now, SimDuration::ZERO);
                }
            }
            CentaurEv::EpochArrive { ap, epoch, assignments } => {
                self.on_epoch_arrive(ap, epoch, assignments, now);
            }
            CentaurEv::ApArm { ap } => {
                self.ap_arm_fired(ap as usize, now);
                self.csma.scan(now, &mut self.plant);
                self.scan_aps(now, SimDuration::ZERO);
            }
            CentaurEv::ApAckTimeout { ap } => {
                // lint: allow(D005) ack timeouts are armed only for AP indices
                let st = self.ap_states[ap as usize].as_mut().expect("ack timeout for non-AP");
                if st.phase != ApPhase::AwaitAck {
                    return;
                }
                self.plant.fe.stats.ack_timeouts += 1;
                st.retries += 1;
                if st.retries > RETRY_LIMIT {
                    self.plant.fe.stats.drops += 1;
                    st.current = None;
                    st.retries = 0;
                } else {
                    self.plant.fe.stats.retries += 1;
                }
                self.advance_ap(ap as usize, now);
            }
            CentaurEv::DoneArrive { ap: _, epoch } => {
                if epoch == self.epoch_counter && self.pending_done > 0 {
                    self.pending_done -= 1;
                    if self.pending_done == 0 {
                        let epoch = self.epoch_counter;
                        self.plant.probe.trace.emit(now.as_nanos(), move || {
                            TraceEvent::EpochBarrier { epoch, pending: 0 }
                        });
                        self.plant.schedule(now, CentaurEv::ControllerCheck);
                    }
                }
            }
            CentaurEv::ControllerCheck => self.on_controller_check(now),
            CentaurEv::EpochTimeout { epoch } => {
                if epoch == self.epoch_counter && self.pending_done > 0 {
                    // Barrier released by the timeout, not by Done
                    // reports: `pending` records how many were missing.
                    let pending = self.pending_done as u32;
                    self.plant.probe.trace.emit(now.as_nanos(), move || {
                        TraceEvent::EpochBarrier { epoch, pending }
                    });
                    self.pending_done = 0;
                    self.plant.schedule(now, CentaurEv::ControllerCheck);
                }
            }
        }
    }

    fn finalize(mut self) -> RunStats {
        let prof = &self.plant.probe.prof;
        prof.add(CostPath::RngDcfBackoff, self.csma.rng_draws());
        prof.add(CostPath::RngWired, self.backbone.rng_draws());
        let faults = &mut self.plant.fe.stats.faults;
        faults.merge_backbone(self.backbone.messages_lost(), self.backbone.spikes_injected());
        self.plant.finish()
    }
}

impl Snapshot for CentaurWorld {
    fn save(&self, w: &mut SnapWriter) {
        self.backbone.save(w);
        self.csma.save(w);
        self.sched.save(w);
        self.ap_states.put(w);
        self.epoch_counter.put(w);
        self.pending_done.put(w);
        self.ctrl_dark_until.put(w);
        self.standby_ckpt.put(w);
        self.next_ckpt_at.put(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.backbone.restore(r)?;
        self.csma.restore(r)?;
        self.sched.restore(r)?;
        let built: Vec<bool> = self.ap_states.iter().map(Option::is_some).collect();
        restore_table(&mut self.ap_states, r, "ap state table length")?;
        if self.ap_states.iter().map(Option::is_some).ne(built) {
            return Err(SnapError::Corrupt("ap state table shape"));
        }
        self.epoch_counter = SnapValue::thaw(r)?;
        self.pending_done = SnapValue::thaw(r)?;
        self.ctrl_dark_until = SnapValue::thaw(r)?;
        self.standby_ckpt = SnapValue::thaw(r)?;
        self.next_ckpt_at = SnapValue::thaw(r)?;
        Ok(())
    }
}

impl CentaurWorld {
    fn on_tx_end(&mut self, receptions: Vec<Reception>, now: SimTime) {
        self.csma.scan(now, &mut self.plant);
        // A data frame's NAV reserves the channel through its ACK; an
        // idle transition it causes is anchored past that window.
        let nav = match receptions.first().map(|r| &r.frame.body) {
            Some(FrameBody::Data { .. }) => self.nav_window,
            _ => SimDuration::ZERO,
        };
        self.scan_aps(now, nav);
        if let Some(first) = receptions.first() {
            let src = first.frame.src;
            match &first.frame.body {
                FrameBody::Data { .. } => {
                    let scheduled_ap = self.ap_states[src.index()]
                        .as_mut()
                        .filter(|s| s.phase == ApPhase::Transmitting);
                    if let Some(st) = scheduled_ap {
                        st.phase = ApPhase::AwaitAck;
                        self.plant.schedule(
                            now + ack_timeout(self.rate),
                            CentaurEv::ApAckTimeout { ap: src.0 },
                        );
                    } else if self.ap_states[src.index()].is_none() {
                        self.csma.after_data_tx(src.index(), now, &mut self.plant);
                    }
                    // An AP whose state was torn down mid-air
                    // (fault-plane crash) gets neither path: its frame
                    // still delivers, nobody waits for the ACK.
                    CsmaCore::handle_data_receptions(&receptions, now, &mut self.plant);
                }
                FrameBody::MacAck { .. } => {
                    for r in &receptions {
                        if !self.csma.on_ack_reception(r, now, &mut self.plant)
                            || self.ap_states[r.rx.index()].is_some()
                        {
                            self.handle_ap_ack(r, now);
                        }
                    }
                }
                _ => {}
            }
        }
        self.plant.reuse(receptions);
        self.csma.try_start_all(now, &mut self.plant);
    }

    fn on_epoch_arrive(&mut self, ap: u32, epoch: u64, assignments: Vec<LinkId>, now: SimTime) {
        let apx = ap as usize;
        let ap_states = &mut self.ap_states;
        let accepted = self.plant.ap_accepts(now, apx, |plant| {
            // Crash with state loss: forget everything and disarm the
            // AP's timer. A dark AP's assignment dies with it; the epoch
            // timeout releases the barrier.
            // lint: allow(D005) controller addresses epochs to APs only; a miss is a wiring bug worth a crash
            let st = ap_states[apx].as_mut().expect("epoch for non-AP");
            st.assignments.clear();
            st.current = None;
            st.retries = 0;
            st.phase = ApPhase::Idle;
            plant.disarm(apx);
        });
        if !accepted {
            return;
        }
        // lint: allow(D005) controller addresses epochs to APs only; a miss is a wiring bug worth a crash
        let st = self.ap_states[apx].as_mut().expect("epoch for non-AP");
        st.assignments = assignments.into();
        st.epoch = epoch;
        match st.phase {
            // Mid-flight (only reachable when the epoch timeout released
            // the barrier early): keep the current exchange; the
            // completion path advances into the new assignments.
            ApPhase::Transmitting | ApPhase::AwaitAck => {}
            _ if st.assignments.is_empty() => self.report_done(now, apx, epoch),
            _ => {
                st.phase = ApPhase::WaitIdle;
                self.arm_if_idle(apx, now);
            }
        }
    }

    fn on_controller_check(&mut self, now: SimTime) {
        if now < self.ctrl_dark_until || self.pending_done > 0 {
            // Crashed controller, or round still running.
            return;
        }
        if self.standby && now >= self.next_ckpt_at {
            // Ship the scheduler's fairness order to the warm standby.
            // The copy is instantaneous but *stale by design*: a crash
            // restores the order as of the last interval boundary.
            let mut cw = SnapWriter::new();
            self.sched.save(&mut cw);
            let bytes = cw.into_bytes();
            let len = bytes.len() as u32;
            self.plant
                .probe
                .trace
                .emit(now.as_nanos(), move || TraceEvent::CtrlCheckpoint { bytes: len });
            self.standby_ckpt = bytes;
            self.next_ckpt_at = now + self.ckpt_every;
        }
        if let Some(downtime) = self.plant.node_faults.ctrl_crash() {
            self.crash_controller(now, downtime);
            return;
        }
        // Snapshot downlink queues (instant AP→controller knowledge over
        // the wire) and pick one maximal non-conflicting set for this
        // round.
        let mut backlog: Vec<u32> = self
            .net
            .links()
            .iter()
            .map(|l| {
                if l.direction == Direction::Downlink {
                    self.plant.fe.queue(l.id, now).len() as u32
                } else {
                    0
                }
            })
            .collect();
        let queue_lens = backlog.clone();
        let batch = self.sched.schedule_batch(&self.graph, &mut backlog, 1);
        let Some(round) = batch.slots.first() else {
            self.plant.schedule(now + SimDuration::from_millis(1), CentaurEv::ControllerCheck);
            return;
        };
        self.epoch_counter += 1;
        self.pending_done = self.aps.len();
        // A stalled controller computes the round late; every assignment
        // ships after the stall.
        let stall = self.plant.compute_stall(now);
        // Each scheduled link gets a quota of up to `PACKETS_PER_ROUND`
        // back-to-back packets; the next round is released only when
        // every AP reports done (the CENTAUR batch barrier).
        for &ap in &self.aps {
            let assignments: Vec<LinkId> = round
                .iter()
                .copied()
                .filter(|&l| self.net.link(l).ap == ap)
                .flat_map(|l| {
                    let quota =
                        (queue_lens[l.index()] as usize).min(PACKETS_PER_ROUND);
                    std::iter::repeat_n(l, quota)
                })
                .collect();
            if let Some(m) = self.backbone.try_send(now, ()) {
                self.plant.schedule(
                    m.deliver_at + stall,
                    CentaurEv::EpochArrive { ap: ap.0, epoch: self.epoch_counter, assignments },
                );
            }
        }
        if self.faults_on {
            // Fallback: a lost assignment or Done would hang the barrier
            // forever without this.
            let epoch = self.epoch_counter;
            self.plant.schedule(now + stall + EPOCH_TIMEOUT, CentaurEv::EpochTimeout { epoch });
        }
    }

    /// The primary controller crashes mid-compute. With a warm standby
    /// the deterministic failure detector fires after
    /// `STANDBY_MISSED_K` silent heartbeat intervals and the standby
    /// promotes itself, restoring the last shipped fairness-order
    /// checkpoint (bounded staleness, no wall clocks). Without one, the
    /// controller cold-restarts after its configured downtime with the
    /// order lost.
    fn crash_controller(&mut self, now: SimTime, downtime: SimDuration) {
        self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
            kind: FaultKind::CtrlCrash,
            node: u32::MAX,
        });
        self.sched = RandScheduler::new(self.net.links().len());
        let recovery = if self.standby {
            if !self.standby_ckpt.is_empty() {
                let mut r = SnapReader::new(&self.standby_ckpt);
                // lint: allow(D005) the checkpoint bytes were produced by this very scheduler's save
                self.sched.restore(&mut r).expect("standby checkpoint bytes");
            }
            self.plant.fe.stats.faults.standby_promotions += 1;
            self.plant
                .probe
                .trace
                .emit(now.as_nanos(), || TraceEvent::StandbyPromote { replayed: 0 });
            self.detect_delay
        } else {
            downtime
        };
        self.plant.fe.stats.faults.recovery_ns += recovery.as_nanos();
        self.ctrl_dark_until = now + recovery;
        self.plant.schedule(self.ctrl_dark_until, CentaurEv::ControllerCheck);
    }

    /// Report this AP's epoch done to the controller (lost if the
    /// backbone drops it).
    fn report_done(&mut self, now: SimTime, ap: usize, epoch: u64) {
        if let Some(m) = self.backbone.try_send(now, ()) {
            self.plant.schedule(m.deliver_at, CentaurEv::DoneArrive { ap: ap as u32, epoch });
        }
    }

    /// Arm an AP's fixed backoff if it waits for an idle channel and has
    /// one.
    fn arm_if_idle(&mut self, ap: usize, now: SimTime) {
        let Some(st) = self.ap_states[ap].as_mut().filter(|st| st.phase == ApPhase::WaitIdle)
        else {
            return;
        };
        if self.plant.medium.is_busy(NodeId(ap as u32)) {
            st.last_busy = true;
            return;
        }
        st.phase = ApPhase::Armed;
        // Anchor the fixed wait to the shared NAV reference, not to this
        // AP's private ready time; that is what lets every AP of an
        // exposed set fire at the same instant regardless of which frames
        // each could hear.
        st.arm_expiry = (st.nav_anchor + FIXED_BACKOFF).max(now);
        self.plant.schedule(st.arm_expiry, CentaurEv::ApArm { ap: ap as u32 });
    }

    /// Busy/idle scan for all scheduled APs. `nav_extension` is added to
    /// the idle-transition anchor when the frame that just left the air
    /// was a data frame (its NAV reserves the ACK window); pass zero for
    /// scans triggered by transmission starts.
    fn scan_aps(&mut self, now: SimTime, nav_extension: SimDuration) {
        for i in 0..self.aps.len() {
            let ap = self.aps[i];
            let busy = self.plant.medium.is_busy(ap);
            let Some(st) = self.ap_states[ap.index()].as_mut() else {
                continue;
            };
            if busy == st.last_busy {
                continue;
            }
            st.last_busy = busy;
            if !busy {
                st.nav_anchor = now + nav_extension;
            }
            if busy {
                // Cancel a pending arm — unless the busy-makers started
                // at this very instant and our arm fires now too
                // (simultaneous aligned starts must not suppress each
                // other).
                let simultaneous_start =
                    st.arm_expiry == now && !self.plant.medium.is_busy_before_instant(ap, now);
                if st.phase == ApPhase::Armed && !simultaneous_start {
                    st.phase = ApPhase::WaitIdle;
                    self.plant.disarm(ap.index());
                }
            } else if st.phase == ApPhase::WaitIdle {
                self.arm_if_idle(ap.index(), now);
            }
        }
    }

    /// The fixed backoff expired: transmit the next assignment.
    fn ap_arm_fired(&mut self, ap: usize, now: SimTime) {
        // lint: allow(D005) ApArm events are scheduled for AP indices only
        let st = self.ap_states[ap].as_mut().expect("arm for non-AP");
        if st.phase != ApPhase::Armed {
            return;
        }
        if self.plant.medium.is_busy_before_instant(NodeId(ap as u32), now) {
            st.phase = ApPhase::WaitIdle;
            return;
        }
        // Claim a packet: retry the current one, or pop the next
        // assignment with data.
        if st.current.is_none() {
            while let Some(link) = st.assignments.pop_front() {
                if let Some(p) = self.plant.fe.queue_mut(link, now).pop() {
                    st.current = Some(p);
                    break;
                }
                // Stale backlog estimate: skip the empty assignment.
            }
        }
        let Some(packet) = st.current else {
            st.phase = ApPhase::Idle;
            let epoch = st.epoch;
            return self.report_done(now, ap, epoch);
        };
        st.phase = ApPhase::Transmitting;
        let frame = Frame {
            src: NodeId(ap as u32),
            body: FrameBody::Data { packet, fake: false, client_burst: None },
            bits: (packet.payload_bytes + MAC_OVERHEAD_BYTES) * 8,
        };
        self.plant.transmit(now, frame, data_airtime(self.rate, packet.payload_bytes));
    }

    /// An ACK reached an AP in `AwaitAck`: advance to its next assignment.
    fn handle_ap_ack(&mut self, r: &Reception, now: SimTime) {
        let FrameBody::MacAck { packet, .. } = &r.frame.body else {
            return;
        };
        if !r.success {
            return;
        }
        let ap = r.rx.index();
        match self.ap_states[ap].as_mut() {
            Some(st)
                if st.phase == ApPhase::AwaitAck
                    && st.current.is_some_and(|p| p.id == *packet) =>
            {
                st.current = None;
                st.retries = 0;
                self.plant.disarm(ap);
            }
            _ => return,
        }
        self.advance_ap(ap, now);
    }

    /// Move an AP to its next assignment or report epoch completion.
    fn advance_ap(&mut self, ap: usize, now: SimTime) {
        // lint: allow(D005) callers index this helper with AP node ids only
        let st = self.ap_states[ap].as_mut().expect("advance for non-AP");
        if st.current.is_none() && st.assignments.is_empty() {
            st.phase = ApPhase::Idle;
            let epoch = st.epoch;
            self.report_done(now, ap, epoch);
        } else {
            st.phase = ApPhase::WaitIdle;
            self.arm_if_idle(ap, now);
        }
    }
}

#[cfg(test)]
impl CentaurWorld {
    /// The uplink's contention machine.
    pub(crate) fn csma(&self) -> &CsmaCore {
        &self.csma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcf::DcfWorld;
    use crate::run::testing::{assert_checkpoint_resume_matches, run_faulted, run_plain};
    use crate::workload::Workload;
    use domino_faults::FaultConfig;
    use domino_topology::presets::{fig13a, fig13b, fig1};
    use domino_topology::PhyParams;

    fn downlinks(net: &Network) -> Vec<LinkId> {
        net.links().iter().filter(|l| l.is_downlink()).map(|l| l.id).collect()
    }

    fn centaur(net: &Network, w: &Workload, duration_s: f64, seed: u64) -> RunStats {
        run_plain::<CentaurWorld>(net, w, duration_s, seed, ())
    }

    fn dcf(net: &Network, w: &Workload, duration_s: f64, seed: u64) -> RunStats {
        run_plain::<DcfWorld>(net, w, duration_s, seed, ())
    }

    #[test]
    fn every_event_roundtrips() {
        use crate::plant::testing::{assert_events_roundtrip, sample_packet};
        let ev = |x: CentaurEv| Ev::Scheme(x);
        assert_events_roundtrip(&[
            ev(CsmaEv::BackoffExpire { node: 3 }.into()),
            ev(CsmaEv::AckTimeout { node: 1 }.into()),
            ev(CsmaEv::SendAck { rx: 2, packet: sample_packet() }.into()),
            ev(CsmaEv::Wake.into()),
            ev(CentaurEv::EpochArrive { ap: 4, epoch: 9, assignments: vec![LinkId(1), LinkId(6)] }),
            ev(CentaurEv::EpochArrive { ap: 0, epoch: 1, assignments: Vec::new() }),
            ev(CentaurEv::ApArm { ap: 2 }),
            ev(CentaurEv::ApAckTimeout { ap: 2 }),
            ev(CentaurEv::DoneArrive { ap: 4, epoch: 9 }),
            ev(CentaurEv::ControllerCheck),
            ev(CentaurEv::EpochTimeout { epoch: 11 }),
        ]);
    }

    #[test]
    fn exposed_set_runs_concurrently_fig13a() {
        let net = fig13a(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let centaur = centaur(&net, &w, 3.0, 1).aggregate_mbps();
        let dcf = dcf(&net, &w, 3.0, 1).aggregate_mbps();
        // Table 3 row 1: CENTAUR ≈ 3x DCF on mutually exposed links.
        assert!(
            centaur > dcf * 2.0,
            "CENTAUR {centaur} should crush DCF {dcf} on fig13a"
        );
        assert!(centaur > 20.0, "four concurrent links: {centaur}");
    }

    #[test]
    fn common_exposed_neighbour_breaks_alignment_fig13b() {
        let net = fig13b(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let centaur = centaur(&net, &w, 3.0, 1);
        let dcf = dcf(&net, &w, 3.0, 1);
        // Table 3 row 2: CENTAUR falls below DCF.
        assert!(
            centaur.aggregate_mbps() < dcf.aggregate_mbps(),
            "CENTAUR {} should underperform DCF {} on fig13b",
            centaur.aggregate_mbps(),
            dcf.aggregate_mbps()
        );
    }

    #[test]
    fn downlink_only_fig1_avoids_hidden_collisions() {
        let net = fig1(PhyParams::default());
        // Only the two hidden downlinks (AP1->C1 and AP3->C3).
        let d = downlinks(&net);
        let w = Workload::udp_saturated(&[d[0], d[2]]);
        let centaur = centaur(&net, &w, 3.0, 2);
        let dcf = dcf(&net, &w, 3.0, 2);
        // The scheduler never puts the conflicting pair in one round, so
        // CENTAUR rescues the hidden-terminal victim (AP3->C3) that DCF
        // starves, and collision timeouts all but disappear.
        let victim = d[2];
        assert!(
            centaur.link_mbps(victim) > dcf.link_mbps(victim) * 3.0,
            "victim under CENTAUR {} vs DCF {}",
            centaur.link_mbps(victim),
            dcf.link_mbps(victim)
        );
        let links = [d[0], d[2]];
        assert!(
            centaur.fairness(&links) > dcf.fairness(&links) + 0.2,
            "fairness {} vs {}",
            centaur.fairness(&links),
            dcf.fairness(&links)
        );
        assert!(centaur.ack_timeouts < dcf.ack_timeouts / 4 + 10);
    }

    #[test]
    fn uplink_disturbs_downlink_schedule() {
        let net = fig1(PhyParams::default());
        let d = downlinks(&net);
        let down_only = Workload::udp_saturated(&[d[0], d[2]]);
        let down = centaur(&net, &down_only, 2.0, 3);
        let with_up = Workload::udp_updown(&net, 10e6, 10e6);
        let both = centaur(&net, &with_up, 2.0, 3);
        let down_tput_alone = down.link_mbps(d[0]) + down.link_mbps(d[2]);
        let down_tput_disturbed = both.link_mbps(d[0]) + both.link_mbps(d[2]);
        assert!(
            down_tput_disturbed < down_tput_alone,
            "uplink DCF must hurt the schedule: {down_tput_disturbed} vs {down_tput_alone}"
        );
    }

    #[test]
    fn deterministic() {
        let net = fig13a(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let a = centaur(&net, &w, 1.0, 5);
        let b = centaur(&net, &w, 1.0, 5);
        assert!(a == b, "same seed, different runs");
    }

    #[test]
    fn checkpoint_resume_under_ctrl_crash_and_standby() {
        let net = fig13b(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let faults = FaultConfig {
            ctrl_crash: 0.05,
            ctrl_downtime_us: 20_000.0,
            standby: true,
            ..FaultConfig::off()
        };
        let inputs = RunInputs { net: &net, workload: &w, duration_s: 2.0, seed: 9, faults: &faults };
        let baseline = assert_checkpoint_resume_matches::<CentaurWorld>(
            &inputs,
            (),
            SimTime::from_nanos(900_000_000),
        );
        assert!(baseline.faults.ctrl_crashes > 0, "seed must exercise the crash path");
    }

    #[test]
    fn warm_standby_recovers_faster_than_cold_restart() {
        let net = fig13a(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let cold_cfg = FaultConfig {
            ctrl_crash: 0.02,
            ctrl_downtime_us: 50_000.0,
            ..FaultConfig::off()
        };
        let warm_cfg = FaultConfig { standby: true, ..cold_cfg.clone() };
        let cold = run_faulted::<CentaurWorld>(&net, &w, 3.0, 7, &cold_cfg, ());
        let warm = run_faulted::<CentaurWorld>(&net, &w, 3.0, 7, &warm_cfg, ());
        assert!(cold.faults.ctrl_crashes > 0, "crashes: {}", cold.faults.ctrl_crashes);
        assert_eq!(cold.faults.standby_promotions, 0);
        assert!(warm.faults.standby_promotions > 0);
        assert_eq!(warm.faults.standby_promotions, warm.faults.ctrl_crashes);
        // Deterministic detector: k missed heartbeats of 1 ms each.
        assert_eq!(warm.faults.recovery_ns, warm.faults.standby_promotions * 3_000_000);
        // Cold restart pays the full configured downtime per crash.
        assert_eq!(cold.faults.recovery_ns, cold.faults.ctrl_crashes * 50_000_000);
        assert!(
            warm.aggregate_mbps() > cold.aggregate_mbps(),
            "warm {} vs cold {}",
            warm.aggregate_mbps(),
            cold.aggregate_mbps()
        );
    }
}
