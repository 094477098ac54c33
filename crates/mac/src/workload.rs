//! Workload specification and per-run statistics.

use domino_faults::FaultStats;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_stats::{jain_index, DelayMeter};
use domino_topology::{Direction, LinkId, Network};

/// What kind of traffic a flow carries.
#[derive(Clone, Debug)]
pub enum FlowKind {
    /// Constant-bit-rate UDP at the given offered rate.
    Udp {
        /// Offered rate, bits/s.
        rate_bps: f64,
    },
    /// TCP-lite at the given application rate.
    Tcp {
        /// Offered rate, bits/s (0 or less: unlimited, backlogged).
        rate_bps: f64,
    },
}

/// One flow over one directed link.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// The directed link the flow's data packets traverse.
    pub link: LinkId,
    /// Traffic kind.
    pub kind: FlowKind,
}

/// A complete workload. Every data packet carries the paper's 512-byte
/// payload ([`domino_traffic::DEFAULT_PACKET_BYTES`]).
#[derive(Clone, Debug)]
pub struct Workload {
    /// The flows.
    pub flows: Vec<FlowSpec>,
}

impl Workload {
    /// The paper's Fig 12 workload: UDP on every downlink at
    /// `down_bps` and on every uplink at `up_bps` (zero-rate flows are
    /// omitted).
    pub fn udp_updown(net: &Network, down_bps: f64, up_bps: f64) -> Workload {
        Workload::updown(net, down_bps, up_bps, |rate_bps| FlowKind::Udp { rate_bps })
    }

    /// TCP on every downlink at `down_bps` offered and every uplink at
    /// `up_bps` offered (zero-rate flows are omitted).
    pub fn tcp_updown(net: &Network, down_bps: f64, up_bps: f64) -> Workload {
        Workload::updown(net, down_bps, up_bps, |rate_bps| FlowKind::Tcp { rate_bps })
    }

    /// One `kind` flow per link at its direction's rate, if positive.
    fn updown(net: &Network, down_bps: f64, up_bps: f64, kind: fn(f64) -> FlowKind) -> Workload {
        let flows = net
            .links()
            .iter()
            .filter_map(|l| {
                let rate = match l.direction {
                    Direction::Downlink => down_bps,
                    Direction::Uplink => up_bps,
                };
                (rate > 0.0).then(|| FlowSpec { link: l.id, kind: kind(rate) })
            })
            .collect();
        Workload { flows }
    }

    /// Saturated UDP on an explicit set of links (motivation/Table 2
    /// experiments): offered far above channel capacity.
    pub fn udp_saturated(links: &[LinkId]) -> Workload {
        Workload {
            flows: links
                .iter()
                .map(|&l| FlowSpec { link: l, kind: FlowKind::Udp { rate_bps: 20e6 } })
                .collect(),
        }
    }

    /// Links that carry a configured flow.
    pub fn flow_links(&self) -> Vec<LinkId> {
        self.flows.iter().map(|f| f.link).collect()
    }
}

/// Node indices of every client in `net` — the nodes the fault plane's
/// churn class may take dark.
pub fn client_indices(net: &Network) -> Vec<u32> {
    net.nodes()
        .iter()
        .filter(|n| n.role == domino_topology::NodeRole::Client)
        .map(|n| n.id.0)
        .collect()
}

/// Everything a scheme engine reports after a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunStats {
    /// Measured duration, seconds.
    pub duration_s: f64,
    /// Goodput bits delivered per link.
    pub delivered_bits: Vec<u64>,
    /// Per-link packet delays.
    pub delays: Vec<DelayMeter>,
    /// Packets dropped (queue overflow or retry exhaustion).
    pub drops: u64,
    /// MAC-level retransmissions.
    pub retries: u64,
    /// ACK timeouts (DCF diagnostics; the paper quotes 57 386 for DCF vs
    /// 0 for CENTAUR in one configuration).
    pub ack_timeouts: u64,
    /// Engine events processed (set when the run ends).
    pub events: u64,
    /// Transport-layer (TCP) retransmissions across all flows (set when
    /// the run ends).
    pub tcp_retransmissions: u64,
    /// Populated by DOMINO only: one record per slot transmission, for
    /// the Fig 10 timeline and the Fig 11 misalignment analysis (empty
    /// for the other MACs).
    pub slot_starts: Vec<SlotStartRecord>,
    /// Populated by DOMINO only: trigger-chain diagnostics (all zero for
    /// the other MACs).
    pub domino: DominoCounters,
    /// Fault-plane injection and recovery counters (all zero when the
    /// fault plane is off).
    pub faults: FaultStats,
}

/// DOMINO trigger-chain diagnostics, accumulated during a run and carried
/// on [`RunStats`] so they flow through the normal reporting path (no
/// stderr side channel). Healthy runs show `triggers_detected` dominating
/// `watchdog_restarts`/`kick_offs`: the relative chain, not the fallback
/// timers, is what paces the schedule (§3.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DominoCounters {
    /// Signature bursts put on the air.
    pub bursts_sent: u64,
    /// Bursts whose signature a targeted receiver detected.
    pub triggers_detected: u64,
    /// Bursts lost to the channel (correlator miss / SINR failure).
    pub triggers_failed: u64,
    /// Triggers discarded because the receiver was mid-exchange.
    pub stale_triggers: u64,
    /// Client-driven slot starts (uplink data or fake header).
    pub client_transmissions: u64,
    /// Watchdog-initiated chain restarts (§3.3's self-start rule).
    pub watchdog_restarts: u64,
    /// Untriggerable entries started by their estimated-time fallback.
    pub kick_offs: u64,
    /// Program entries shed because their slot had clearly passed.
    pub actions_shed: u64,
    /// Program entries dispatched to APs over the wire.
    pub actions_dispatched: u64,
    /// Watchdog-restart storms: runs of more than
    /// [`WATCHDOG_STORM_THRESHOLD`] consecutive watchdog restarts with
    /// zero deliveries in between. A storm means the fallback timer, not
    /// the relative chain, is driving the schedule — the failure mode the
    /// fault plane is designed to expose.
    pub watchdog_storms: u64,
}

/// Consecutive zero-delivery watchdog restarts that count as one storm
/// (see [`DominoCounters::watchdog_storms`]).
pub const WATCHDOG_STORM_THRESHOLD: u64 = 8;

/// One DOMINO slot transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotStartRecord {
    /// Absolute slot index.
    pub slot: u64,
    /// Transmission start, ns since simulation start.
    pub start_ns: u64,
    /// The link transmitting.
    pub link: LinkId,
    /// Header-only fake keep-alive?
    pub fake: bool,
}

domino_sim::snap_value!(SlotStartRecord { slot, start_ns, link, fake });
domino_sim::snap_value!(DominoCounters {
    bursts_sent,
    triggers_detected,
    triggers_failed,
    stale_triggers,
    client_transmissions,
    watchdog_restarts,
    kick_offs,
    actions_shed,
    actions_dispatched,
    watchdog_storms,
});

impl Snapshot for RunStats {
    /// Everything except the measured duration, the link count and the
    /// two end-of-run totals (`events` and `tcp_retransmissions`, which
    /// only `Plant::finish` sets, so both are zero at every checkpoint)
    /// is dynamic; each delay meter is its count and running total.
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.delivered_bits.len() as u64);
        for &b in &self.delivered_bits {
            w.put_u64(b);
        }
        for d in &self.delays {
            w.put_u64(d.count());
            w.put_f64(d.total_us());
        }
        w.put_u64(self.drops);
        w.put_u64(self.retries);
        w.put_u64(self.ack_timeouts);
        self.slot_starts.put(w);
        self.domino.put(w);
        self.faults.save(w);
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let links = r.get_len()?;
        if links != self.delivered_bits.len() {
            return Err(SnapError::Corrupt("run stats link count"));
        }
        for b in &mut self.delivered_bits {
            *b = r.get_u64()?;
        }
        for d in &mut self.delays {
            let count = r.get_u64()?;
            *d = DelayMeter::from_parts(count, r.get_f64()?)
                .ok_or(SnapError::Corrupt("delay meter total"))?;
        }
        self.drops = r.get_u64()?;
        self.retries = r.get_u64()?;
        self.ack_timeouts = r.get_u64()?;
        self.slot_starts = SnapValue::thaw(r)?;
        self.domino = SnapValue::thaw(r)?;
        self.faults.restore(r)
    }
}

impl RunStats {
    /// Empty stats over `num_links` links.
    pub fn new(num_links: usize, duration_s: f64) -> RunStats {
        RunStats {
            duration_s,
            delivered_bits: vec![0; num_links],
            delays: vec![DelayMeter::new(); num_links],
            drops: 0,
            retries: 0,
            ack_timeouts: 0,
            events: 0,
            tcp_retransmissions: 0,
            slot_starts: Vec::new(),
            domino: DominoCounters::default(),
            faults: FaultStats::default(),
        }
    }

    /// Goodput of one link, Mb/s.
    pub fn link_mbps(&self, link: LinkId) -> f64 {
        self.delivered_bits[link.index()] as f64 / self.duration_s / 1e6
    }

    /// Aggregate goodput, Mb/s.
    pub fn aggregate_mbps(&self) -> f64 {
        self.delivered_bits.iter().sum::<u64>() as f64 / self.duration_s / 1e6
    }

    /// Jain's fairness index over the given links' goodputs (the paper
    /// computes fairness "among all links" that carry flows).
    pub fn fairness(&self, links: &[LinkId]) -> f64 {
        let alloc: Vec<f64> = links.iter().map(|&l| self.link_mbps(l)).collect();
        jain_index(&alloc)
    }

    /// Mean delivery delay over the given links, µs ("average delay per
    /// link": mean of per-link means, matching Fig 12's metric).
    pub fn mean_delay_us(&self, links: &[LinkId]) -> f64 {
        let means: Vec<f64> = links
            .iter()
            .map(|&l| self.delays[l.index()].mean_us())
            .filter(|&m| m > 0.0)
            .collect();
        if means.is_empty() {
            0.0
        } else {
            // Explicit left-to-right fold: same result as `.sum()` today, but
            // the pinned association order survives future refactors (D009).
            let mut total = 0.0;
            for m in &means {
                total += m;
            }
            total / means.len() as f64
        }
    }

    /// Fig 11 metric: maximum pairwise start misalignment per absolute
    /// slot index, in µs, ordered by slot.
    pub fn misalignment_by_slot(&self) -> Vec<(u64, f64)> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for r in &self.slot_starts {
            let e = groups.entry(r.slot).or_insert((r.start_ns, r.start_ns));
            e.0 = e.0.min(r.start_ns);
            e.1 = e.1.max(r.start_ns);
        }
        groups
            .into_iter()
            .map(|(slot, (lo, hi))| (slot, (hi - lo) as f64 / 1_000.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_phy::units::Dbm;
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeId, NodeRole, Position};
    use domino_sim::SimDuration;
    use domino_testkit::{prop, prop_assert, prop_assert_eq};
    use domino_topology::rss::RssMatrix;

    fn tiny_net() -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(2);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-55.0));
        Network::new(nodes, rss, PhyParams::default())
    }

    #[test]
    fn udp_updown_builds_flows_per_direction() {
        let net = tiny_net();
        let w = Workload::udp_updown(&net, 10e6, 5e6);
        assert_eq!(w.flows.len(), 2);
        let w0 = Workload::udp_updown(&net, 10e6, 0.0);
        assert_eq!(w0.flows.len(), 1, "zero-rate uplink omitted");
    }

    #[test]
    fn stats_throughput_and_fairness() {
        let mut s = RunStats::new(2, 2.0);
        s.delivered_bits[0] = 4_000_000;
        s.delivered_bits[1] = 4_000_000;
        assert!((s.link_mbps(LinkId(0)) - 2.0).abs() < 1e-12);
        assert!((s.aggregate_mbps() - 4.0).abs() < 1e-12);
        assert!((s.fairness(&[LinkId(0), LinkId(1)]) - 1.0).abs() < 1e-12);
        s.delivered_bits[1] = 0;
        assert!((s.fairness(&[LinkId(0), LinkId(1)]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn misalignment_groups_by_slot() {
        let mut s = RunStats::new(1, 1.0);
        let rec = |slot, start_ns| SlotStartRecord { slot, start_ns, link: LinkId(0), fake: false };
        s.slot_starts = vec![rec(0, 1_000), rec(0, 21_000), rec(1, 50_000), rec(1, 52_000)];
        let m = s.misalignment_by_slot();
        assert_eq!(m, vec![(0, 20.0), (1, 2.0)]);
    }

    #[test]
    fn mean_delay_skips_silent_links() {
        let mut s = RunStats::new(2, 1.0);
        s.delays[0].record_us(100.0);
        s.delays[0].record_us(200.0);
        assert!((s.mean_delay_us(&[LinkId(0), LinkId(1)]) - 150.0).abs() < 1e-12);
    }

    fn saved(s: &RunStats) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn stats_saved_at_a_split_and_fed_the_rest_equal_the_whole_run() {
        prop::check("a checkpoint splits the deliveries without a trace", |g| {
            let links = g.usize(1, 4);
            let deliveries = g.vec(0, 300, |g| {
                let delay = SimDuration::from_nanos(g.u64(0, 50_000_000));
                (g.usize(0, links - 1), delay.as_micros_f64())
            });
            let split = g.usize(0, deliveries.len());
            let feed = |s: &mut RunStats, part: &[(usize, f64)]| {
                for &(link, delay_us) in part {
                    s.delivered_bits[link] += 4096;
                    s.delays[link].record_us(delay_us);
                }
            };
            let mut whole = RunStats::new(links, 1.0);
            feed(&mut whole, &deliveries);
            let mut head = RunStats::new(links, 1.0);
            feed(&mut head, &deliveries[..split]);
            let bytes = saved(&head);
            let mut resumed = RunStats::new(links, 1.0);
            let mut r = SnapReader::new(&bytes);
            resumed.restore(&mut r).expect("a saved payload restores");
            prop_assert!(r.is_exhausted());
            feed(&mut resumed, &deliveries[split..]);
            prop_assert_eq!(resumed, whole);
        });
    }

    #[test]
    fn restore_refuses_a_negative_or_nan_delay_total() {
        let mut s = RunStats::new(1, 1.0);
        s.delays[0].record_us(12.5);
        let good = saved(&s);
        let at = good
            .windows(8)
            .position(|w| w == 12.5f64.to_bits().to_le_bytes())
            .expect("the total is in the payload");
        for bad in [-12.5, f64::NAN] {
            let mut bytes = good.clone();
            bytes[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let mut target = RunStats::new(1, 1.0);
            assert_eq!(
                target.restore(&mut SnapReader::new(&bytes)),
                Err(SnapError::Corrupt("delay meter total")),
                "total {bad}"
            );
        }
    }
}
