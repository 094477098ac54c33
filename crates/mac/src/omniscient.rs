//! The omniscient centralized scheduler (the Fig 2 upper bound).
//!
//! An idealized scheme: the controller sees every queue instantaneously,
//! all nodes share a perfect clock, and control traffic is free. Each
//! slot it greedily packs a maximal set of backlogged, non-conflicting
//! links (the same RAND policy DOMINO uses) and everyone transmits in
//! perfect synchrony. This is what strict scheduling *would* achieve if
//! microsecond synchronization were free — the bar DOMINO is measured
//! against.

use crate::dcf::{sync_rto, Ev};
use crate::flows::{FlowEngine, TCP_TICK};
use crate::run::{RunInputs, World};
use crate::timing::{ack_airtime, data_airtime, SIFS};
use crate::workload::{client_indices, RunStats};
use domino_faults::FaultPlane;
use domino_medium::{Frame, FrameBody, Medium};
use domino_obs::{Probe, TraceEvent};
use domino_scheduler::RandScheduler;
use domino_sim::engine::{DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW};
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{Engine, SimDuration, SimTime};
use domino_topology::{ConflictGraph, LinkId, Network};

/// Scheme events for the omniscient engine.
#[derive(Debug)]
pub enum OmniEv {
    /// A synchronized slot begins.
    SlotStart,
}

impl SnapValue for OmniEv {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(0); // SlotStart, the only variant
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(OmniEv::SlotStart),
            _ => Err(SnapError::Corrupt("omni event tag")),
        }
    }
}

/// The complete state of an omniscient run between events.
///
/// Only the medium-resident fault classes (churn dark intervals; fades are
/// moot without signature bursts) touch this idealized scheme — its
/// control plane is free and lossless by definition.
#[derive(Debug)]
pub struct OmniWorld {
    net: Network,
    engine: Engine<Ev<OmniEv>>,
    medium: Medium,
    fe: FlowEngine,
    sched: RandScheduler,
    rto_gen: Vec<u64>,
    /// Synchronized-slot index, for the trace only.
    slot_idx: u64,
    graph: ConflictGraph,
    rate: domino_phy::error_model::DataRate,
    /// Fixed slot: data + SIFS + ack + SIFS turnaround.
    slot: SimDuration,
    /// Observation-only trace sink and cost profiler (off by default).
    probe: Probe,
}

impl World for OmniWorld {
    type Config = ();
    type Event = Ev<OmniEv>;

    fn new(inputs: &RunInputs<'_>, (): (), probe: Probe) -> OmniWorld {
        let RunInputs { net, workload, duration_s, seed, faults } = *inputs;
        let mut engine: Engine<Ev<OmniEv>> = Engine::new();
        let mut medium = Medium::new(net.clone(), seed);
        let plane = FaultPlane::new(faults, seed, &client_indices(net), duration_s);
        if plane.cfg.enabled() {
            medium.set_faults(plane.medium);
        }
        medium.set_probe(probe.clone());
        engine.set_liveness(DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW);
        engine.set_probe(probe.clone());
        let fe = FlowEngine::new(net, workload, duration_s);
        let graph = ConflictGraph::build_for_scheduling(net);
        let sched = RandScheduler::new(net.links().len());
        let rto_gen: Vec<u64> = vec![0; workload.flows.len()];
        let rate = net.phy().data_rate;
        let slot = data_airtime(rate, workload.packet_bytes) + SIFS + ack_airtime(rate) + SIFS;

        for flow in fe.udp_flows() {
            engine.schedule_at(fe.udp_next_arrival(flow), Ev::UdpArrival { flow });
        }
        for flow in fe.tcp_flows() {
            engine.schedule_at(SimTime::ZERO + TCP_TICK, Ev::TcpTick { flow });
        }
        engine.schedule_at(SimTime::ZERO, Ev::Scheme(OmniEv::SlotStart));
        OmniWorld {
            net: net.clone(),
            engine,
            medium,
            fe,
            sched,
            rto_gen,
            slot_idx: 0,
            graph,
            rate,
            slot,
            probe,
        }
    }

    fn engine(&mut self) -> &mut Engine<Ev<OmniEv>> {
        &mut self.engine
    }

    fn stats(&mut self) -> &mut RunStats {
        &mut self.fe.stats
    }

    fn handle(&mut self, now: SimTime, ev: Ev<OmniEv>) {
        self.probe.prof.tick(ev.cost_class());
        match ev {
            Ev::UdpArrival { flow } => {
                let _ = self.fe.udp_arrive(flow);
                self.engine.schedule_at(self.fe.udp_next_arrival(flow), Ev::UdpArrival { flow });
            }
            Ev::TcpTick { flow } => {
                self.fe.tcp_tick(flow, now);
                self.engine.schedule_in(TCP_TICK, Ev::TcpTick { flow });
                sync_rto(&mut self.engine, &self.fe, &mut self.rto_gen, flow, now);
            }
            Ev::TcpRto { flow, gen } => {
                if self.rto_gen[flow] == gen {
                    self.fe.tcp_timer(flow, now);
                    sync_rto(&mut self.engine, &self.fe, &mut self.rto_gen, flow, now);
                }
            }
            Ev::Scheme(OmniEv::SlotStart) => {
                // Perfect knowledge: one maximal set from true queue
                // lengths.
                let mut backlog: Vec<u32> = (0..self.net.links().len())
                    .map(|l| self.fe.queue(LinkId(l as u32)).len() as u32)
                    .collect();
                let batch = self.sched.schedule_batch(&self.graph, &mut backlog, 1);
                self.slot_idx += 1;
                if let Some(links) = batch.slots.first() {
                    let mut txs = Vec::new();
                    for &l in links {
                        let slot_idx = self.slot_idx;
                        self.probe.trace.emit(now.as_nanos(), || TraceEvent::SlotStart {
                            slot: slot_idx,
                            link: l.0,
                            fake: false,
                        });
                        // lint: allow(D005) the scheduler only emits links whose live backlog was non-zero
                        let packet = self.fe.queue_mut(l).pop().expect("empty queue");
                        let airtime = data_airtime(self.rate, packet.payload_bytes);
                        let frame = Frame {
                            src: self.net.link(l).sender,
                            body: FrameBody::Data { packet, fake: false, client_burst: None },
                            bits: (packet.payload_bytes + crate::timing::MAC_OVERHEAD_BYTES) * 8,
                        };
                        let tx = self.medium.begin(now, frame);
                        txs.push((tx, now + airtime));
                    }
                    for (tx, end) in txs {
                        self.engine.schedule_at(end, Ev::TxEnd { tx });
                    }
                }
                self.engine.schedule_at(now + self.slot, Ev::Scheme(OmniEv::SlotStart));
            }
            Ev::TxEnd { tx } => {
                let receptions = self.medium.end(tx, now);
                for r in &receptions {
                    if let FrameBody::Data { packet, .. } = &r.frame.body {
                        let l = *self.net.link(packet.link);
                        let intended = if l.is_downlink() { l.client() } else { l.ap };
                        if r.rx == intended {
                            self.probe.trace.emit(now.as_nanos(), || TraceEvent::SlotEnd {
                                link: packet.link.0,
                                delivered: r.success,
                            });
                        }
                        if r.success {
                            self.fe.deliver(packet, now);
                        } else {
                            // The omniscient controller observes the
                            // loss and retries next slot.
                            self.fe.stats.retries += 1;
                            if !self.fe.queue_mut(packet.link).push_front(*packet) {
                                self.fe.stats.drops += 1;
                            }
                        }
                    }
                }
                for flow in self.fe.tcp_flows() {
                    sync_rto(&mut self.engine, &self.fe, &mut self.rto_gen, flow, now);
                }
            }
            Ev::BackoffExpire { .. } | Ev::AckTimeout { .. } | Ev::SendAck { .. } => {
                // lint: allow(D005) this engine never schedules CSMA events; reaching here is a dispatch bug
                unreachable!("no CSMA events in the omniscient engine")
            }
        }
    }

    fn finalize(mut self) -> RunStats {
        // End-of-run profile flush (no-ops when the handle is off).
        self.engine.profile_wheel();
        self.probe.prof.add(domino_obs::CostPath::RngPhyError, self.medium.phy_rng_draws());
        self.probe.prof.add(
            domino_obs::CostPath::RngFaults,
            self.medium.faults().map(|f| f.rng_draws()).unwrap_or(0),
        );
        self.fe.stats.events = self.engine.events_processed();
        self.fe.stats.tcp_retransmissions = self.fe.tcp_retransmissions();
        if let Some(mf) = self.medium.faults() {
            self.fe.stats.faults.merge_medium(mf);
        }
        self.fe.stats
    }

    fn snapshot_save(&mut self, w: &mut SnapWriter) {
        self.engine.snapshot_save(w);
        self.medium.snapshot_save(w);
        self.fe.snapshot_save(w);
        self.sched.save(w);
        self.rto_gen.put(w);
        w.put_u64(self.slot_idx);
    }

    fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engine.snapshot_restore(r)?;
        self.medium.snapshot_restore(r)?;
        self.fe.snapshot_restore(r)?;
        self.sched.restore(r)?;
        let rto_gen: Vec<u64> = SnapValue::thaw(r)?;
        if rto_gen.len() != self.rto_gen.len() {
            return Err(SnapError::Corrupt("rto gen table length"));
        }
        self.rto_gen = rto_gen;
        self.slot_idx = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcf::DcfWorld;
    use crate::run::testing::{assert_checkpoint_resume_matches, run_plain};
    use crate::workload::Workload;
    use domino_faults::FaultConfig;
    use domino_topology::presets::fig1;
    use domino_topology::{NodeId, PhyParams};

    pub(crate) fn fig1_links(net: &Network) -> (LinkId, LinkId, LinkId) {
        let l_ap1 = net
            .links()
            .iter()
            .find(|l| l.is_downlink() && l.sender == NodeId(0))
            .unwrap()
            .id;
        let l_c2 = net
            .links()
            .iter()
            .find(|l| !l.is_downlink() && l.ap == NodeId(2))
            .unwrap()
            .id;
        let l_ap3 = net
            .links()
            .iter()
            .find(|l| l.is_downlink() && l.sender == NodeId(4))
            .unwrap()
            .id;
        (l_ap1, l_c2, l_ap3)
    }

    fn omni(net: &Network, w: &Workload, duration_s: f64, seed: u64) -> RunStats {
        run_plain::<OmniWorld>(net, w, duration_s, seed, ())
    }

    #[test]
    fn fig2_shape_exposed_link_runs_continuously() {
        let net = fig1(PhyParams::default());
        let (l_ap1, l_c2, l_ap3) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l_ap1, l_c2, l_ap3]);
        let stats = omni(&net, &w, 3.0, 1);
        let (t1, t2, t3) = (
            stats.link_mbps(l_ap1),
            stats.link_mbps(l_c2),
            stats.link_mbps(l_ap3),
        );
        // The exposed uplink rides along every slot; the two hidden
        // downlinks alternate and each get about half of C2's rate.
        assert!(t2 > 7.0, "C2->AP2 should be near full rate: {t2}");
        assert!((t1 - t3).abs() < 1.5, "hidden pair shares fairly: {t1} vs {t3}");
        assert!(t1 > 3.0 && t3 > 3.0, "no starvation: {t1}, {t3}");
        assert!(stats.aggregate_mbps() > 14.0, "aggregate: {}", stats.aggregate_mbps());
    }

    #[test]
    fn omniscient_beats_dcf_on_fig1() {
        let net = fig1(PhyParams::default());
        let (l_ap1, l_c2, l_ap3) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l_ap1, l_c2, l_ap3]);
        let omni = omni(&net, &w, 3.0, 1).aggregate_mbps();
        let dcf = run_plain::<DcfWorld>(&net, &w, 3.0, 1, ()).aggregate_mbps();
        // The paper's Fig 2: the omniscient scheme is ~76% above DCF.
        assert!(omni > dcf * 1.4, "omniscient {omni} should clearly beat DCF {dcf}");
    }

    #[test]
    fn deterministic() {
        let net = fig1(PhyParams::default());
        let (l_ap1, l_c2, _) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l_ap1, l_c2]);
        let a = omni(&net, &w, 1.0, 3);
        let b = omni(&net, &w, 1.0, 3);
        assert_eq!(a.delivered_bits, b.delivered_bits);
    }

    #[test]
    fn checkpoint_and_resume_match_uninterrupted_run() {
        let net = fig1(PhyParams::default());
        let (l_ap1, l_c2, l_ap3) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l_ap1, l_c2, l_ap3]);
        let off = FaultConfig::off();
        let inputs = RunInputs { net: &net, workload: &w, duration_s: 1.0, seed: 3, faults: &off };
        assert_checkpoint_resume_matches::<OmniWorld>(&inputs, (), SimTime::from_nanos(400_000_000));
    }
}
