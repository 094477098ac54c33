//! The plant every scheme runs on.
//!
//! Whatever its channel access, a run has the same plant: the event
//! engine, the medium with its fault classes and probe attached, the
//! node-class fault source and its AP crash bookkeeping, the traffic
//! flows with their TCP retransmission (RTO) timers, the probe, the
//! end-of-run flush and the shared head of every snapshot. A scheme world
//! holds one [`Plant`] plus only its own state; its own events ride in
//! [`Ev::Scheme`].
//!
//! UDP arrivals have no event: the [`FlowEngine`] fills a link's queue
//! when the queue is read or written, and the end-of-run flush brings
//! every link up to where the run ended.
//!
//! The plant owns every timer and retires a superseded one in one way: it
//! cancels the queued event through its [`EventHandle`] and queues the
//! replacement, so a timer has at most one event queued, placed among
//! same-instant events where it was last re-armed. Each TCP flow's RTO is
//! such a timer, at the flow's deadline; only the flow's own tick, its own
//! RTO and an ack its sender absorbs move that deadline and re-arm it. A
//! scheme event names the timer it is ([`SchemeEvent::timer`]), and a
//! timer's slot empties when its event pops. A restored plant recovers
//! every handle from the restored queue.

use crate::flows::{FlowEngine, TCP_TICK};
use crate::run::RunInputs;
use crate::workload::{client_indices, RunStats};
use domino_faults::{FaultPlane, NodeFaults};
use domino_medium::{Frame, Medium, Reception, TxId};
use domino_obs::{CostPath, FaultKind, Probe, TraceEvent};
use domino_sim::engine::{DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW};
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{Engine, EventHandle, SimDuration, SimTime};
use domino_traffic::Packet;
use domino_wired::{Backbone, WiredLatency};

/// The events of a run: the plant's own, plus the scheme's in
/// [`Ev::Scheme`].
#[derive(Debug)]
pub enum Ev<X> {
    /// Periodic TCP application tick.
    TcpTick {
        /// Flow index.
        flow: usize,
    },
    /// TCP retransmission-timer check.
    TcpRto {
        /// Flow index.
        flow: usize,
    },
    /// A transmission leaves the air.
    TxEnd {
        /// Medium handle.
        tx: TxId,
    },
    /// Scheme-specific event.
    Scheme(X),
}

/// A scheme's own events: snapshot-encodable, billed to one cost class
/// each, and each either a timer or not.
pub trait SchemeEvent: SnapValue {
    /// Cost-attribution class (see `domino_obs::CostPath`). Exhaustive
    /// in every scheme on purpose: a new variant must pick its bucket.
    fn cost_class(&self) -> CostPath;

    /// The timer this event is, if any: an index below the timer count the
    /// scheme builds its plant with. Queuing it supersedes the timer's
    /// queued event. Exhaustive in every scheme, as above.
    fn timer(&self) -> Option<usize>;
}

impl<X: SchemeEvent> Ev<X> {
    /// Cost-attribution class of one event.
    pub fn cost_class(&self) -> CostPath {
        match self {
            Ev::TcpTick { .. } | Ev::TcpRto { .. } => CostPath::EvTraffic,
            Ev::TxEnd { .. } => CostPath::EvMedium,
            Ev::Scheme(x) => x.cost_class(),
        }
    }
}

domino_sim::snap_value!(enum Ev<X>, "plant event tag" {
    0 => TcpTick { flow },
    1 => TcpRto { flow },
    2 => TxEnd { tx },
    3 => Scheme(x),
});

/// What is left of an event once the plant has done its share.
pub(crate) enum Step<X> {
    /// A TCP tick or an RTO may have released segments.
    Released,
    /// A transmission left the air: the medium's verdicts, in the plant's
    /// one reception buffer, which the scheme hands back with
    /// [`Plant::reuse`].
    TxEnd(Vec<Reception>),
    /// The scheme's own event.
    Scheme(X),
}

/// Everything a run has, whatever its scheme.
#[derive(Debug)]
pub struct Plant<X> {
    /// The event engine.
    pub(crate) engine: Engine<Ev<X>>,
    /// The shared channel, with the medium-resident fault classes.
    pub(crate) medium: Medium,
    /// Queues, flows and the statistics under construction.
    pub(crate) fe: FlowEngine,
    /// Node-class faults (AP crashes, compute stalls, controller
    /// crashes, stale reports). All draws short-circuit when off.
    pub(crate) node_faults: NodeFaults,
    /// Observation-only trace sink and cost profiler (off by default;
    /// excluded from snapshots — a restored run profiles from zero).
    pub(crate) probe: Probe,
    /// Where the run ends: its horizon, or the instant the liveness
    /// monitor stopped it. The end-of-run flush brings the queues here.
    pub(crate) end: SimTime,
    /// The one queued RTO event of each flow, if any.
    rto: Vec<Option<EventHandle>>,
    /// The one queued event of each scheme timer, if any.
    timers: Vec<Option<EventHandle>>,
    /// Until when each crashed AP stays dark.
    ap_dark_until: Vec<SimTime>,
    /// Crash flag per AP: the first message accepted after the downtime
    /// counts as the recovery.
    ap_crashed: Vec<bool>,
    /// The run's one reception buffer, lent to the scheme with each
    /// [`Step::TxEnd`] (scratch: empty between events).
    rx_buf: Vec<Reception>,
}

impl<X: SchemeEvent> Plant<X> {
    /// Build the plant at t = 0 with the probe attached, the first TCP
    /// ticks queued (ahead of any scheme event) and the scheme's `timers`
    /// timers disarmed.
    pub(crate) fn new(inputs: &RunInputs<'_>, probe: Probe, timers: usize) -> Plant<X> {
        let RunInputs { net, workload, duration_s, seed, faults } = *inputs;
        let plane = FaultPlane::new(faults, seed, &client_indices(net), duration_s);
        let mut medium = Medium::new(net.clone(), seed);
        if plane.cfg.enabled() {
            medium.set_faults(plane.medium);
        }
        medium.set_probe(probe.clone());
        let mut engine = Engine::new();
        engine.set_liveness(DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW);
        engine.set_probe(probe.clone());
        let fe = FlowEngine::new(net, workload, duration_s);
        for flow in fe.tcp_flows() {
            engine.schedule_at(SimTime::ZERO + TCP_TICK, Ev::TcpTick { flow });
        }
        Plant {
            engine,
            medium,
            fe,
            node_faults: plane.node,
            probe,
            end: SimTime::ZERO + SimDuration::from_secs_f64(duration_s),
            rto: vec![None; workload.flows.len()],
            timers: vec![None; timers],
            ap_dark_until: vec![SimTime::ZERO; net.num_nodes()],
            ap_crashed: vec![false; net.num_nodes()],
            rx_buf: Vec::new(),
        }
    }

    /// A backbone for this run: `latency` jitter drawn from
    /// `jitter_stream`, the run's wired loss and spike knobs drawn from
    /// `fault_stream`, and the probe's tracer attached.
    pub(crate) fn backbone(
        &self,
        inputs: &RunInputs<'_>,
        latency: WiredLatency,
        jitter_stream: u64,
        fault_stream: u64,
    ) -> Backbone {
        let faults = inputs.faults;
        let mut bb = Backbone::on_streams(latency, inputs.seed, jitter_stream, fault_stream);
        bb.set_loss(faults.wired_loss);
        bb.set_spikes(faults.wired_spike, domino_faults::WIRED_SPIKE_US);
        bb.set_tracer(self.probe.trace.clone());
        bb
    }

    /// Queue a scheme event at `at`. A timer's event first cancels the
    /// one the timer had queued.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: impl Into<X>) {
        let ev = ev.into();
        let Some(timer) = ev.timer() else {
            self.engine.schedule_at(at, Ev::Scheme(ev));
            return;
        };
        self.disarm(timer);
        self.timers[timer] = Some(self.engine.schedule_at(at, Ev::Scheme(ev)));
    }

    /// Cancel the event `timer` has queued, if any.
    pub(crate) fn disarm(&mut self, timer: usize) {
        if let Some(queued) = self.timers[timer].take() {
            self.engine.cancel(queued);
        }
    }

    /// Whether `timer` has an event queued.
    pub(crate) fn armed(&self, timer: usize) -> bool {
        self.timers[timer].is_some()
    }

    /// Put `frame` on the air for `airtime`; its [`Ev::TxEnd`] follows.
    pub(crate) fn transmit(&mut self, now: SimTime, frame: Frame, airtime: SimDuration) {
        let tx = self.medium.begin(now, frame);
        self.engine.schedule_at(now + airtime, Ev::TxEnd { tx });
    }

    /// Do the plant's share of one event: traffic events are handled in
    /// full, re-arming their own flow's RTO, a transmission's end is
    /// adjudicated, and a scheme timer's event empties its timer's slot;
    /// what traffic released, the verdicts, and every other event go back
    /// to the scheme.
    pub(crate) fn step(&mut self, now: SimTime, ev: Ev<X>) -> Step<X> {
        match ev {
            Ev::TcpTick { flow } => {
                self.fe.tcp_tick(flow, now);
                self.engine.schedule_in(TCP_TICK, Ev::TcpTick { flow });
                self.rearm_rto(flow, now);
                Step::Released
            }
            Ev::TcpRto { flow } => {
                self.fe.tcp_timer(flow, now);
                self.rearm_rto(flow, now);
                Step::Released
            }
            Ev::TxEnd { tx } => {
                let mut receptions = std::mem::take(&mut self.rx_buf);
                receptions.clear();
                self.medium.end_into(tx, now, &mut receptions);
                Step::TxEnd(receptions)
            }
            Ev::Scheme(x) => {
                if let Some(timer) = x.timer() {
                    self.timers[timer] = None;
                }
                Step::Scheme(x)
            }
        }
    }

    /// Take back the reception buffer a [`Step::TxEnd`] lent out.
    pub(crate) fn reuse(&mut self, receptions: Vec<Reception>) {
        self.rx_buf = receptions;
    }

    /// Deliver `packet` at `now` and re-arm the RTO of the flow whose
    /// sender absorbed it, if any.
    pub(crate) fn deliver(&mut self, packet: &Packet, now: SimTime) {
        if let Some(flow) = self.fe.deliver(packet, now) {
            self.rearm_rto(flow, now);
        }
    }

    /// Re-arm one TCP flow's RTO: cancel the event already queued (a
    /// no-op when it is the one being handled) and queue the replacement
    /// at the flow's current deadline, moved or not.
    fn rearm_rto(&mut self, flow: usize, now: SimTime) {
        if let Some(queued) = self.rto[flow].take() {
            self.engine.cancel(queued);
        }
        self.rto[flow] = self
            .fe
            .tcp_rto_deadline(flow)
            .map(|deadline| self.engine.schedule_at(deadline.max(now), Ev::TcpRto { flow }));
    }

    /// The AP-crash gate in front of a wired message to `ap`. False when
    /// the AP is dark, or crashes on this delivery (`lose_state` then
    /// wipes what the crash loses and disarms the timers it had armed);
    /// true when the AP accepts the message, counting its recovery if it
    /// had crashed.
    pub(crate) fn ap_accepts(
        &mut self,
        now: SimTime,
        ap: usize,
        lose_state: impl FnOnce(&mut Self),
    ) -> bool {
        if self.ap_dark(ap, now) {
            return false;
        }
        if let Some(downtime) = self.node_faults.crash() {
            self.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
                kind: FaultKind::ApCrash,
                node: ap as u32,
            });
            lose_state(self);
            self.ap_dark_until[ap] = now + downtime;
            self.ap_crashed[ap] = true;
            return false;
        }
        if self.ap_crashed[ap] {
            self.ap_crashed[ap] = false;
            self.node_faults.recovered();
            self.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultRecover {
                kind: FaultKind::ApCrash,
                node: ap as u32,
            });
        }
        true
    }

    /// Whether `node` is inside a crash's dark interval.
    pub(crate) fn ap_dark(&self, node: usize, now: SimTime) -> bool {
        now < self.ap_dark_until[node]
    }

    /// Draw the controller's compute stall for this batch: zero unless
    /// one strikes, which is traced.
    pub(crate) fn compute_stall(&mut self, now: SimTime) -> SimDuration {
        let Some(stall) = self.node_faults.compute_stall() else {
            return SimDuration::ZERO;
        };
        // The controller is not a radio node; u32::MAX marks it.
        self.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
            kind: FaultKind::ComputeStall,
            node: u32::MAX,
        });
        stall
    }

    /// End-of-run flush: every link's queue is brought up to the end of
    /// the run, inclusive as the engine's horizon is (the arrivals no read
    /// reached still fill the queues and count their drops); timer-wheel
    /// op counts and the draw totals of the plant's RNG streams go to the
    /// profiler (no-ops when it is off), the plant's counters to the
    /// stats. A scheme flushes its own streams and counters first.
    pub(crate) fn finish(mut self) -> RunStats {
        self.fe.sync_all(self.end);
        self.engine.profile_wheel();
        self.probe.prof.add(CostPath::RngPhyError, self.medium.phy_rng_draws());
        self.probe.prof.add(
            CostPath::RngFaults,
            self.node_faults.rng_draws() + self.medium.faults().map_or(0, |f| f.rng_draws()),
        );
        let tcp_retransmissions = self.fe.tcp_retransmissions();
        let mut stats = self.fe.stats;
        stats.events = self.engine.events_processed();
        stats.tcp_retransmissions = tcp_retransmissions;
        stats.faults.merge_node(&self.node_faults);
        if let Some(mf) = self.medium.faults() {
            stats.faults.merge_medium(mf);
        }
        stats
    }

    /// Serialize the plant: the head of every world's snapshot. The timer
    /// handles are not written: they name events of this engine only.
    pub(crate) fn snapshot_save(&self, w: &mut SnapWriter) {
        self.engine.snapshot_save(w);
        self.medium.snapshot_save(w);
        self.fe.snapshot_save(w);
        self.node_faults.save(w);
        self.ap_dark_until.put(w);
        self.ap_crashed.put(w);
    }

    /// Overwrite the plant from a [`Plant::snapshot_save`] payload of the
    /// same configuration, then take every timer's handle from the
    /// restored queue. A queue holding two RTOs of one flow, or an RTO of
    /// a flow that is not TCP, is corrupt; so is one holding two events of
    /// one scheme timer, or an event of a timer the run does not have.
    pub(crate) fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engine.snapshot_restore(r)?;
        self.medium.snapshot_restore(r)?;
        self.fe.snapshot_restore(r)?;
        self.node_faults.restore(r)?;
        restore_table(&mut self.ap_dark_until, r, "ap dark table length")?;
        restore_table(&mut self.ap_crashed, r, "ap crash table length")?;
        self.rto.fill(None);
        self.timers.fill(None);
        let (mut rto_corrupt, mut timer_corrupt) = (false, false);
        let (rto, timers, tcp_flows) = (&mut self.rto, &mut self.timers, self.fe.tcp_flows());
        self.engine.for_each_pending(|handle, _, ev| match ev {
            Ev::TcpRto { flow } => match rto.get_mut(*flow) {
                Some(slot @ None) if tcp_flows.contains(flow) => *slot = Some(handle),
                _ => rto_corrupt = true,
            },
            Ev::Scheme(x) => match x.timer().map(|timer| timers.get_mut(timer)) {
                Some(Some(slot @ None)) => *slot = Some(handle),
                Some(_) => timer_corrupt = true,
                None => {}
            },
            Ev::TcpTick { .. } | Ev::TxEnd { .. } => {}
        });
        if rto_corrupt {
            return Err(SnapError::Corrupt("rto events per flow"));
        }
        if timer_corrupt {
            return Err(SnapError::Corrupt("events per scheme timer"));
        }
        Ok(())
    }
}

/// Overwrite a fixed-length table from a snapshot, rejecting a payload
/// whose table length differs (`what` names the table in the error).
pub(crate) fn restore_table<T: SnapValue>(
    table: &mut Vec<T>,
    r: &mut SnapReader<'_>,
    what: &'static str,
) -> Result<(), SnapError> {
    let restored: Vec<T> = SnapValue::thaw(r)?;
    if restored.len() != table.len() {
        return Err(SnapError::Corrupt(what));
    }
    *table = restored;
    Ok(())
}

#[cfg(test)]
pub(crate) mod testing {
    //! Checks every scheme's event encoding shares.

    use super::*;
    use domino_topology::LinkId;
    use domino_traffic::{FlowId, Packet, PacketId, PacketKind};

    /// A packet with every field distinct from its default.
    pub(crate) fn sample_packet() -> Packet {
        Packet {
            id: PacketId(99),
            flow: FlowId(2),
            link: LinkId(5),
            payload_bytes: 512,
            created_at: SimTime::from_micros(17),
            kind: PacketKind::TcpData,
            seq: 41,
        }
    }

    /// `put`, `thaw`, `put` again gives the same bytes for every event,
    /// and an unknown tag, of the plant or of the scheme, is corrupt.
    pub(crate) fn assert_events_roundtrip<X: SnapValue>(events: &[Ev<X>]) {
        for ev in events {
            let mut w = SnapWriter::new();
            ev.put(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let back = Ev::<X>::thaw(&mut r).expect("thaw");
            assert!(r.is_exhausted(), "trailing bytes after thaw");
            let mut again = SnapWriter::new();
            back.put(&mut again);
            assert_eq!(again.into_bytes(), bytes, "put/thaw mismatch");
        }
        let unknown = |bytes: &[u8]| {
            matches!(Ev::<X>::thaw(&mut SnapReader::new(bytes)), Err(SnapError::Corrupt(_)))
        };
        assert!(unknown(&[4]), "unknown plant tag decoded");
        assert!(unknown(&[3, 0xff]), "unknown scheme tag decoded");
    }
}

#[cfg(test)]
mod tests {
    use super::testing::assert_events_roundtrip;
    use super::*;
    use crate::centaur::{CentaurEv, CentaurWorld};
    use crate::dcf::{CsmaEv, DcfWorld};
    use crate::domino::{DEv, DominoWorld};
    use crate::omniscient::{OmniEv, OmniWorld};
    use crate::run::World;
    use crate::workload::{FlowKind, FlowSpec, RunStats, Workload};
    use domino_faults::FaultConfig;
    use domino_topology::network::PhyParams;
    use domino_topology::presets::{fig1, fig7};
    use domino_topology::{LinkId, Network};
    use domino_traffic::{FlowId, PacketId, PacketKind, TCP_ACK_BYTES};

    #[test]
    fn plant_events_roundtrip() {
        let events: [Ev<OmniEv>; 3] = [
            Ev::TcpTick { flow: 1 },
            Ev::TcpRto { flow: 2 },
            Ev::TxEnd { tx: TxId(7) },
        ];
        assert_events_roundtrip(&events);
    }

    /// TCP both ways on every Fig 1 link, then one UDP flow, the last.
    fn mixed_workload() -> (Network, Workload) {
        let net = fig1(PhyParams::default());
        let mut workload = Workload::tcp_updown(&net, 6e6, 1e6);
        workload.flows.push(FlowSpec { link: LinkId(0), kind: FlowKind::Udp { rate_bps: 1e6 } });
        (net, workload)
    }

    /// A plant's snapshot with `timers` timers and `events` queued straight
    /// into its engine, restored into a fresh plant of the same inputs.
    fn restore_with<X: SchemeEvent>(
        timers: usize,
        events: Vec<Ev<X>>,
    ) -> (Result<(), SnapError>, Plant<X>) {
        let (net, workload) = mixed_workload();
        let faults = FaultConfig::off();
        let inputs =
            RunInputs { net: &net, workload: &workload, duration_s: 1.0, seed: 1, faults: &faults };
        let mut saved: Plant<X> = Plant::new(&inputs, Probe::default(), timers);
        for ev in events {
            saved.engine.schedule_at(SimTime::from_millis(100), ev);
        }
        let mut w = SnapWriter::new();
        saved.snapshot_save(&mut w);
        let mut plant = Plant::new(&inputs, Probe::default(), timers);
        (plant.snapshot_restore(&mut SnapReader::new(&w.into_bytes())), plant)
    }

    /// [`restore_with`] the given RTO events queued.
    fn restore_with_rtos(flows: &[usize]) -> (Result<(), SnapError>, Plant<OmniEv>) {
        restore_with(0, flows.iter().map(|&flow| Ev::TcpRto { flow }).collect())
    }

    #[test]
    fn restore_recovers_rto_handles() {
        let (restored, mut plant) = restore_with_rtos(&[0, 2]);
        assert_eq!(restored, Ok(()));
        assert_eq!(plant.rto.iter().filter(|h| h.is_some()).count(), 2);
        for flow in [0, 2] {
            let handle = plant.rto[flow].expect("the restored RTO's handle");
            assert!(plant.engine.cancel(handle), "flow {flow}: the handle names its RTO");
        }
    }

    #[test]
    fn restore_recovers_scheme_timer_handles() {
        let nodes = mixed_workload().0.num_nodes();
        let csma =
            [CsmaEv::BackoffExpire { node: 0 }, CsmaEv::Wake, CsmaEv::AckTimeout { node: 2 }];
        let (restored, mut plant) = restore_with(nodes, csma.map(Ev::Scheme).into());
        assert_eq!(restored, Ok(()));
        assert_timers_cancel(&mut plant, &[0, 2]);
        let domino = [
            DEv::Watchdog { ap: 0 },
            DEv::ControllerCompute,
            DEv::KickOff { ap: 0, slot: 4 },
            DEv::SlotStart { node: 3, slot: 4 },
        ];
        let timers: Vec<usize> = domino.iter().filter_map(DEv::timer).collect();
        let (restored, mut plant) = restore_with(1 + 2 * nodes, domino.map(Ev::Scheme).into());
        assert_eq!(restored, Ok(()));
        assert_timers_cancel(&mut plant, &timers);
    }

    /// Exactly `timers` are armed, and a cancel through each handle
    /// succeeds.
    fn assert_timers_cancel<X: SchemeEvent>(plant: &mut Plant<X>, timers: &[usize]) {
        assert_eq!(plant.timers.iter().filter(|h| h.is_some()).count(), timers.len());
        for &timer in timers {
            let handle = plant.timers[timer].expect("the restored timer's handle");
            assert!(plant.engine.cancel(handle), "timer {timer}: the handle names its event");
        }
    }

    #[test]
    fn restore_rejects_two_events_of_one_timer_or_a_timer_outside_the_table() {
        let corrupt = Err(SnapError::Corrupt("events per scheme timer"));
        let nodes = mixed_workload().0.num_nodes();
        let backoff = |node| Ev::Scheme(CsmaEv::BackoffExpire { node });
        let twice = vec![backoff(1), backoff(0), backoff(1)];
        assert_eq!(restore_with(nodes, twice).0, corrupt, "duplicate");
        let start = Ev::Scheme(DEv::SlotStart { node: nodes as u32, slot: 0 });
        assert_eq!(restore_with(1 + 2 * nodes, vec![start]).0, corrupt, "node outside the network");
    }

    #[test]
    fn restore_rejects_two_rtos_for_one_flow_or_a_non_tcp_flow() {
        let corrupt = Err(SnapError::Corrupt("rto events per flow"));
        let udp = mixed_workload().1.flows.len() - 1;
        assert_eq!(restore_with_rtos(&[1, 0, 1]).0, corrupt, "duplicate");
        assert_eq!(restore_with_rtos(&[udp]).0, corrupt, "UDP flow");
        assert_eq!(restore_with_rtos(&[udp + 1]).0, corrupt, "flow out of range");
    }

    /// One queued event per timer: every TCP flow has exactly one RTO
    /// queued, at its deadline (or now, when the deadline has passed),
    /// while it has a deadline, and none otherwise; every queued scheme
    /// timer event sits in its timer's slot under its own handle, and
    /// every armed slot names a queued event.
    fn assert_one_event_per_timer<X: SchemeEvent>(plant: &Plant<X>, now: SimTime) {
        let mut rtos: Vec<Vec<SimTime>> = vec![Vec::new(); plant.rto.len()];
        let mut queued: Vec<Vec<EventHandle>> = vec![Vec::new(); plant.timers.len()];
        plant.engine.for_each_pending(|handle, at, ev| match ev {
            Ev::TcpRto { flow } => rtos[*flow].push(at),
            Ev::Scheme(x) => {
                if let Some(timer) = x.timer() {
                    queued[timer].push(handle);
                }
            }
            Ev::TcpTick { .. } | Ev::TxEnd { .. } => {}
        });
        for flow in plant.fe.tcp_flows() {
            let want: Vec<SimTime> =
                plant.fe.tcp_rto_deadline(flow).map(|d| d.max(now)).into_iter().collect();
            assert_eq!(rtos[flow], want, "flow {flow} at {now:?}");
        }
        for (timer, slot) in plant.timers.iter().enumerate() {
            assert_eq!(queued[timer], Vec::from_iter(*slot), "timer {timer} at {now:?}");
        }
    }

    /// Drive a 0.2-s fig7 run event by event, as `run::drive` does,
    /// checking every timer after every event. Returns the number of RTOs
    /// that popped and the run's stats.
    fn drive_checking_timers<W: World>(
        workload: fn(&Network) -> Workload,
        faults: &FaultConfig,
    ) -> (u64, RunStats)
    where
        W::Config: Default,
    {
        let net = fig7(PhyParams::default());
        let workload = workload(&net);
        let inputs =
            RunInputs { net: &net, workload: &workload, duration_s: 0.2, seed: 0xD0311, faults };
        let mut world = W::new(&inputs, W::Config::default(), Probe::default());
        let horizon = world.plant().end;
        let mut rtos = 0;
        while let Some((now, ev)) =
            world.plant().engine.pop_until_checked(horizon).expect("no livelock")
        {
            rtos += u64::from(matches!(ev, Ev::TcpRto { .. }));
            world.handle(now, ev);
            assert_one_event_per_timer(world.plant(), now);
        }
        (rtos, world.finalize())
    }

    #[test]
    fn every_timer_keeps_one_event_queued() {
        let tcp: fn(&Network) -> Workload = |net| Workload::tcp_updown(net, 10e6, 5e6);
        let udp: fn(&Network) -> Workload = |net| Workload::udp_updown(net, 10e6, 5e6);
        for faults in [FaultConfig::off(), FaultConfig::chaos(0.5)] {
            for (workload, has_rtos) in [(tcp, true), (udp, false)] {
                let rtos = [
                    drive_checking_timers::<DcfWorld>(workload, &faults).0,
                    drive_checking_timers::<CentaurWorld>(workload, &faults).0,
                    drive_checking_timers::<DominoWorld>(workload, &faults).0,
                    drive_checking_timers::<OmniWorld>(workload, &faults).0,
                ];
                // Omniscient retries a lost frame itself: no RTO ever fires.
                let expected = rtos[..3].iter().all(|&n| (n > 0) == has_rtos);
                assert!(expected, "RTOs per scheme: {rtos:?}");
            }
        }
        // Controller crashes under a warm standby: the controller timer's
        // crash and promotion paths.
        let failover = FaultConfig { ctrl_crash: 0.05, standby: true, ..FaultConfig::off() };
        let promotions = [
            drive_checking_timers::<CentaurWorld>(udp, &failover).1,
            drive_checking_timers::<DominoWorld>(udp, &failover).1,
        ]
        .map(|stats| stats.faults.standby_promotions);
        assert!(promotions.iter().all(|&n| n > 0), "promotions per scheme: {promotions:?}");
    }

    /// An ack delivered to flow g re-arms g only: flow f's queued RTO
    /// keeps its handle, and with it its place among the events of its
    /// instant (ahead of an event queued after it).
    #[test]
    fn a_delivery_leaves_other_flows_rtos_in_place() {
        let (net, workload) = mixed_workload();
        let faults = FaultConfig::off();
        let inputs =
            RunInputs { net: &net, workload: &workload, duration_s: 1.0, seed: 1, faults: &faults };
        let mut plant: Plant<OmniEv> = Plant::new(&inputs, Probe::default(), 0);
        // The first ticks release the downlinks' segments and arm their
        // RTOs at one instant; a scheme event is queued after f's.
        let downlinks: Vec<usize> = (0..workload.flows.len())
            .filter(|&i| net.link(workload.flows[i].link).is_downlink())
            .collect();
        let (f, g) = (downlinks[0], downlinks[1]);
        let now = SimTime::ZERO + TCP_TICK;
        let mut deadline = SimTime::MAX;
        while let Some((_, ev)) = plant.engine.pop_until(now) {
            let flow = match ev {
                Ev::TcpTick { flow } => flow,
                _ => panic!("only ticks at the first tick instant"),
            };
            let _ = plant.step(now, ev);
            if flow == f {
                deadline = plant.fe.tcp_rto_deadline(f).expect("f armed");
                plant.schedule(deadline, OmniEv::SlotStart);
            }
        }
        assert_eq!(plant.fe.tcp_rto_deadline(g), Some(deadline));
        let f_handle = plant.rto[f];
        let ack = Packet {
            id: PacketId(1),
            flow: FlowId(g as u32),
            link: net.reverse_link(workload.flows[g].link),
            payload_bytes: TCP_ACK_BYTES,
            created_at: now,
            kind: PacketKind::TcpAck,
            seq: 1,
        };
        let g_handle = plant.rto[g];
        plant.deliver(&ack, now);
        assert_ne!(plant.rto[g], g_handle, "g re-armed");
        assert_ne!(plant.fe.tcp_rto_deadline(g), Some(deadline), "g's deadline moved");
        assert_eq!(plant.rto[f], f_handle, "f untouched");
        let mut at_deadline = Vec::new();
        while let Some((t, ev)) = plant.engine.pop_until(deadline) {
            if t == deadline {
                at_deadline.push(ev);
            }
        }
        // f's RTO still pops ahead of the slot event queued after it.
        assert!(matches!(at_deadline[0], Ev::TcpRto { flow } if flow == f), "{at_deadline:?}");
        assert!(matches!(at_deadline[1], Ev::Scheme(OmniEv::SlotStart)), "{at_deadline:?}");
        assert!(!at_deadline.iter().any(|ev| matches!(ev, Ev::TcpRto { flow } if *flow == g)));
    }

    /// Engine events travel by value through the timer wheel, so their
    /// size is the wheel's element size: pinned so a fat variant cannot
    /// slip in unnoticed.
    #[test]
    fn engine_event_sizes_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<Ev<CsmaEv>>(), 56, "DCF");
        assert_eq!(size_of::<Ev<CentaurEv>>(), 56, "CENTAUR");
        assert_eq!(size_of::<Ev<OmniEv>>(), 16, "Omniscient");
        assert_eq!(size_of::<Ev<DEv>>(), 112, "DOMINO");
    }
}
