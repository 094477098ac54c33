//! The omniscient centralized scheduler (the Fig 2 upper bound).
//!
//! An idealized scheme: the controller sees every queue instantaneously,
//! all nodes share a perfect clock, and control traffic is free. Each
//! slot it greedily packs a maximal set of backlogged, non-conflicting
//! links (the same RAND policy DOMINO uses) and everyone transmits in
//! perfect synchrony. This is what strict scheduling *would* achieve if
//! microsecond synchronization were free — the bar DOMINO is measured
//! against.

use crate::plant::{Ev, Plant, SchemeEvent, Step};
use crate::run::{RunInputs, World};
use crate::timing::{ack_airtime, data_airtime, SIFS};
use crate::workload::RunStats;
use domino_medium::{Frame, FrameBody, Reception};
use domino_obs::{CostPath, Probe, TraceEvent};
use domino_scheduler::RandScheduler;
use domino_sim::{SimDuration, SimTime};
use domino_topology::{ConflictGraph, LinkId, Network};
use domino_traffic::DEFAULT_PACKET_BYTES;

/// Scheme events for the omniscient engine.
#[derive(Debug)]
pub enum OmniEv {
    /// A synchronized slot begins.
    SlotStart,
}

impl SchemeEvent for OmniEv {
    /// The oracle's slots are controller work.
    fn cost_class(&self) -> CostPath {
        CostPath::EvController
    }

    /// The slot clock is never superseded: no timers.
    fn timer(&self) -> Option<usize> {
        None
    }
}

domino_sim::snap_value!(enum OmniEv, "omni event tag" { 0 => SlotStart });

/// The complete state of an omniscient run between events.
///
/// Only the medium-resident fault classes (churn dark intervals; fades are
/// moot without signature bursts) touch this idealized scheme — its
/// control plane is free and lossless by definition.
#[derive(Debug)]
pub struct OmniWorld {
    net: Network,
    plant: Plant<OmniEv>,
    sched: RandScheduler,
    /// Synchronized-slot index, for the trace only.
    slot_idx: u64,
    graph: ConflictGraph,
    rate: domino_phy::error_model::DataRate,
    /// Fixed slot: data + SIFS + ack + SIFS turnaround.
    slot: SimDuration,
}

impl World for OmniWorld {
    type Config = ();
    type Event = OmniEv;

    fn new(inputs: &RunInputs<'_>, (): (), probe: Probe) -> OmniWorld {
        let net = inputs.net;
        let rate = net.phy().data_rate;
        let mut plant = Plant::new(inputs, probe, 0);
        plant.schedule(SimTime::ZERO, OmniEv::SlotStart);
        OmniWorld {
            net: net.clone(),
            plant,
            sched: RandScheduler::new(net.links().len()),
            slot_idx: 0,
            graph: ConflictGraph::build_for_scheduling(net),
            rate,
            slot: data_airtime(rate, DEFAULT_PACKET_BYTES) + SIFS + ack_airtime(rate) + SIFS,
        }
    }

    fn plant(&mut self) -> &mut Plant<OmniEv> {
        &mut self.plant
    }

    fn handle(&mut self, now: SimTime, ev: Ev<OmniEv>) {
        match self.plant.step(now, ev) {
            Step::Released => {}
            Step::Scheme(OmniEv::SlotStart) => self.on_slot_start(now),
            Step::TxEnd(receptions) => self.on_tx_end(now, receptions),
        }
    }

    fn finalize(self) -> RunStats {
        self.plant.finish()
    }
}

domino_sim::snapshot_fields!(OmniWorld { sched, slot_idx });

impl OmniWorld {
    fn on_slot_start(&mut self, now: SimTime) {
        // Perfect knowledge: one maximal set from true queue lengths.
        let mut backlog: Vec<u32> = (0..self.net.links().len())
            .map(|l| self.plant.fe.queue(LinkId(l as u32), now).len() as u32)
            .collect();
        let batch = self.sched.schedule_batch(&self.graph, &mut backlog, 1);
        self.slot_idx += 1;
        if let Some(links) = batch.slots.first() {
            for &l in links {
                let slot_idx = self.slot_idx;
                self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::SlotStart {
                    slot: slot_idx,
                    link: l.0,
                    fake: false,
                });
                // lint: allow(D005) the scheduler only emits links whose live backlog was non-zero
                let packet = self.plant.fe.queue_mut(l, now).pop().expect("empty queue");
                let frame = Frame {
                    src: self.net.link(l).sender,
                    body: FrameBody::Data { packet, fake: false, client_burst: None },
                    bits: (packet.payload_bytes + crate::timing::MAC_OVERHEAD_BYTES) * 8,
                };
                self.plant.transmit(now, frame, data_airtime(self.rate, packet.payload_bytes));
            }
        }
        self.plant.schedule(now + self.slot, OmniEv::SlotStart);
    }

    fn on_tx_end(&mut self, now: SimTime, receptions: Vec<Reception>) {
        for r in &receptions {
            if let FrameBody::Data { packet, .. } = &r.frame.body {
                let l = *self.net.link(packet.link);
                let intended = if l.is_downlink() { l.client() } else { l.ap };
                if r.rx == intended {
                    self.plant.probe.trace.emit(now.as_nanos(), || TraceEvent::SlotEnd {
                        link: packet.link.0,
                        delivered: r.success,
                    });
                }
                if r.success {
                    self.plant.deliver(packet, now);
                } else {
                    // The omniscient controller observes the loss and
                    // retries next slot.
                    self.plant.fe.stats.retries += 1;
                    if !self.plant.fe.queue_mut(packet.link, now).push_front(*packet) {
                        self.plant.fe.stats.drops += 1;
                    }
                }
            }
        }
        self.plant.reuse(receptions);
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
    fn every_event_roundtrips() {
        crate::plant::testing::assert_events_roundtrip(&[Ev::Scheme(OmniEv::SlotStart)]);
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
        assert!(a == b, "same seed, different runs");
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
