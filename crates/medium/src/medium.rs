//! The shared wireless channel.
//!
//! [`Medium`] tracks every in-flight transmission, maintains the ambient
//! power each node senses, and adjudicates reception when a transmission
//! ends: packet frames through the SINR→PER model (worst-case
//! interference over the frame's airtime), ROP symbols through the
//! calibrated subchannel model, signature bursts through the calibrated
//! correlation-detection model. Hidden terminals, exposed terminals and
//! capture all *emerge* from the RSS matrix — nothing here knows which
//! links the paper calls hidden.

use crate::frames::{Frame, FrameBody};
use crate::signatures::{rop_decode_probability, signature_detection_probability};
use domino_faults::MediumFaults;
use domino_obs::{CostPath, FaultKind, Probe, TraceEvent};
use domino_phy::units::Dbm;
use domino_sim::rng::streams;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{SimRng, SimTime};
use domino_topology::{Network, NodeId};

/// Handle to an in-flight transmission.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxId(pub u64);

domino_sim::snap_value!(TxId(u64));

/// The medium's verdict on one (transmission, receiver) pair.
#[derive(Clone, Debug)]
pub struct Reception {
    /// The adjudicated receiver.
    pub rx: NodeId,
    /// The frame. Burst targets live inline in the frame, so handing a
    /// copy to each co-receiver's verdict is a flat memcpy — no
    /// allocation, no shared ownership.
    pub frame: Frame,
    /// Did the receiver get it?
    pub success: bool,
}

#[derive(Debug)]
struct RxTrack {
    rx: NodeId,
    /// Peak interference (mW) observed at `rx` during the transmission,
    /// excluding the transmission's own signal.
    max_interf_mw: f64,
    /// The receiver spent part of the airtime transmitting (half-duplex
    /// loss).
    rx_transmitted: bool,
}

#[derive(Debug)]
struct ActiveTx {
    id: TxId,
    frame: Frame,
    start: SimTime,
    tracks: Vec<RxTrack>,
}

/// The shared channel.
#[derive(Debug)]
pub struct Medium {
    net: Network,
    active: Vec<ActiveTx>,
    /// Per node: is one of `active`'s frames its own? Derived from
    /// `active` (set in `begin`, cleared in `end_into`, rebuilt on
    /// restore, never saved), so carrier-sense and half-duplex queries are
    /// a lookup, not a scan of the in-flight list.
    transmitting: Vec<bool>,
    ambient_mw: Vec<f64>,
    noise_mw: f64,
    cs_threshold_mw: f64,
    /// `rss[tx · n + rx]` in mW with sub-floor entries zeroed — the
    /// adjudication path's view. dBm→mW is a `powf`; the matrix is static,
    /// so both views are precomputed once at construction (bit-identical
    /// to converting on every call: same inputs, same single conversion).
    rss_floor_mw: Vec<f64>,
    /// Same matrix without the floor cut (the interference-update path
    /// historically summed unfloored values; keeping both views preserves
    /// every adjudication bit).
    rss_raw_mw: Vec<f64>,
    rng: SimRng,
    next_tx: u64,
    /// Peak reporter RSS per in-progress ROP round: (ap, round start ns,
    /// peak dBm).
    rop_peaks: Vec<(NodeId, u64, f64)>,
    /// Clients per AP (empty for client nodes), precomputed so a Poll's
    /// audience is a slice lookup instead of a filtered allocation.
    clients: Vec<Vec<NodeId>>,
    /// Retired track vectors, reused by later transmissions so the
    /// per-transmission bookkeeping settles into steady-state storage.
    track_pool: Vec<Vec<RxTrack>>,
    /// Scratch receiver list for [`Medium::begin`] (same reuse idea).
    rx_scratch: Vec<NodeId>,
    /// Channel/churn fault classes, when the run's fault plane is active.
    /// `None` (the default) costs nothing and draws nothing, so fault-free
    /// runs adjudicate byte-identically to a plane-free build.
    faults: Option<MediumFaults>,
    /// Trace sink and cost profiler: observation-only scratch state,
    /// never part of a snapshot.
    probe: Probe,
}

impl Medium {
    /// A quiet medium over `net`.
    pub fn new(net: Network, master_seed: u64) -> Medium {
        let n = net.num_nodes();
        let noise_mw = net.phy().noise_floor.to_milliwatts();
        let cs_threshold_mw = net.phy().cs_threshold.to_milliwatts();
        let mut rss_floor_mw = vec![0.0; n * n];
        let mut rss_raw_mw = vec![0.0; n * n];
        for tx in 0..n {
            for rx in 0..n {
                let rss = net.rss().get(NodeId(tx as u32), NodeId(rx as u32));
                let raw = rss.to_milliwatts();
                rss_raw_mw[tx * n + rx] = raw;
                if rss > Dbm::FLOOR {
                    rss_floor_mw[tx * n + rx] = raw;
                }
            }
        }
        let clients = (0..n).map(|ap| net.clients_of(NodeId(ap as u32))).collect();
        Medium {
            net,
            active: Vec::new(),
            transmitting: vec![false; n],
            ambient_mw: vec![0.0; n],
            noise_mw,
            cs_threshold_mw,
            rss_floor_mw,
            rss_raw_mw,
            rng: SimRng::derive(master_seed, streams::PHY_ERROR),
            next_tx: 0,
            rop_peaks: Vec::new(),
            clients,
            track_pool: Vec::new(),
            rx_scratch: Vec::new(),
            faults: None,
            probe: Probe::default(),
        }
    }

    /// Attach a trace sink and cost profiler. Observation only —
    /// attaching never changes adjudication or RNG state. The medium
    /// emits [`TraceEvent::FaultInject`] when an installed fault class
    /// (churn, fade, ROP corruption) actually fires, and counts
    /// begins, ends and adjudications (one branch each when off; never a
    /// draw or an allocation when on).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Raw draws taken from the PHY-error stream so far (profiler food:
    /// `rng;phy_error`).
    pub fn phy_rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    /// Install the channel- and churn-class fault sources. Fade and
    /// corruption draws come from their own streams and only run *after*
    /// the base PHY draw, so the `PHY_ERROR` sequence is untouched.
    pub fn set_faults(&mut self, faults: MediumFaults) {
        self.faults = Some(faults);
    }

    /// The fault state, when installed (for end-of-run accounting).
    pub fn faults(&self) -> Option<&MediumFaults> {
        self.faults.as_ref()
    }

    /// The network this medium simulates.
    pub fn network(&self) -> &Network {
        &self.net
    }

    #[inline]
    fn rss_mw(&self, tx: NodeId, rx: NodeId) -> f64 {
        self.rss_floor_mw[tx.index() * self.net.num_nodes() + rx.index()]
    }

    /// Is `node` currently transmitting?
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.transmitting[node.index()]
    }

    /// Does `node` sense the channel busy (energy above the carrier-sense
    /// threshold)? A transmitting node always senses busy.
    pub fn is_busy(&self, node: NodeId) -> bool {
        self.is_transmitting(node)
            || self.ambient_mw[node.index()] >= self.cs_threshold_mw
    }

    /// Carrier sense of 64 nodes as one word: bit `k` is
    /// [`Medium::is_busy`] of node `64·w + k` (and 0 past the last node).
    /// Built on demand from the transmitting flags and the ambient field
    /// with no branch per node; `begin` and `end_into` keep no bitset.
    pub fn busy_word(&self, w: usize) -> u64 {
        let lo = 64 * w;
        let hi = self.transmitting.len().min(lo + 64);
        let mut word = 0;
        for (k, (&tx, &mw)) in
            self.transmitting[lo..hi].iter().zip(&self.ambient_mw[lo..hi]).enumerate()
        {
            word |= u64::from(tx | (mw >= self.cs_threshold_mw)) << k;
        }
        word
    }

    /// Like [`Medium::is_busy`], but ignoring transmissions that began at
    /// exactly `now`. CENTAUR-style aligned starts need this: two APs
    /// whose fixed backoffs expire at the same instant both transmit;
    /// neither could have sensed the other yet (sensing is causal).
    pub fn is_busy_before_instant(&self, node: NodeId, now: SimTime) -> bool {
        if self.is_transmitting(node) {
            return true;
        }
        let mw: f64 = self
            .active
            .iter()
            .filter(|t| t.start < now)
            .map(|t| self.rss_mw(t.frame.src, node))
            // lint: allow(D009) sequential left fold over the insertion-ordered `active` Vec; order already pinned
            .sum();
        mw >= self.cs_threshold_mw
    }

    /// Ambient received power at `node` from all in-flight transmissions.
    pub fn ambient_at(&self, node: NodeId) -> Dbm {
        let total = self.ambient_mw[node.index()] + self.noise_mw;
        Dbm::from_milliwatts(total)
    }

    /// Append `frame`'s intended receivers to `out` (no allocation on the
    /// steady-state path: Poll audiences come from the precomputed
    /// per-AP client table, burst targets live inline in the frame).
    fn push_receivers(&self, frame: &Frame, out: &mut Vec<NodeId>) {
        match &frame.body {
            FrameBody::Data { packet, .. } => out.push(self.net.link(packet.link).receiver),
            FrameBody::MacAck { link, .. } => out.push(self.net.link(*link).sender),
            FrameBody::Poll { ap } => out.extend_from_slice(&self.clients[ap.index()]),
            FrameBody::RopReport { ap, .. } => out.push(*ap),
            FrameBody::SignatureBurst(b) => out.extend_from_slice(&b.targets),
        }
    }

    /// Put `frame` on the air at `now`. The caller schedules the matching
    /// [`Medium::end`] at `now + airtime` (airtime policy lives in
    /// `domino-mac::timing`).
    pub fn begin(&mut self, now: SimTime, frame: Frame) -> TxId {
        assert!(
            !self.is_transmitting(frame.src),
            "{} is already transmitting",
            frame.src
        );
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.probe.prof.tick(CostPath::MediumBegin);
        // ROP round bookkeeping: record the strongest reporter per (ap,
        // start instant).
        if let FrameBody::RopReport { client, ap, .. } = frame.body {
            let rss = self.net.rss().get(client, ap).value();
            let key = (ap, now.as_nanos());
            match self.rop_peaks.iter_mut().find(|(a, t, _)| *a == ap && *t == key.1) {
                Some(entry) => entry.2 = entry.2.max(rss),
                None => self.rop_peaks.push((ap, key.1, rss)),
            }
            // Prune stale rounds (> 1 ms old).
            let cutoff = now.as_nanos().saturating_sub(1_000_000);
            self.rop_peaks.retain(|&(_, t, _)| t >= cutoff);
        }

        // The new signal raises ambient power everywhere (split at the
        // source index so its own entry is skipped without a per-element
        // branch).
        {
            let n = self.net.num_nodes();
            let src = frame.src.index();
            let row = &self.rss_floor_mw[src * n..(src + 1) * n];
            let (amb_lo, amb_hi) = self.ambient_mw.split_at_mut(src);
            for (a, &r) in amb_lo.iter_mut().zip(&row[..src]) {
                *a += r;
            }
            for (a, &r) in amb_hi[1..].iter_mut().zip(&row[src + 1..]) {
                *a += r;
            }
        }

        // Existing transmissions see more interference now.
        let src = frame.src;
        let num_nodes = self.net.num_nodes();
        for tx in &mut self.active {
            for track in &mut tx.tracks {
                if track.rx == src {
                    track.rx_transmitted = true;
                }
                let own = if tx.frame.src == track.rx {
                    0.0
                } else {
                    self.rss_raw_mw[tx.frame.src.index() * num_nodes + track.rx.index()]
                };
                let interf = (self.ambient_mw[track.rx.index()] - own).max(0.0);
                track.max_interf_mw = track.max_interf_mw.max(interf);
            }
        }

        // Tracks for the new transmission, in recycled storage.
        let mut rxs = std::mem::take(&mut self.rx_scratch);
        rxs.clear();
        self.push_receivers(&frame, &mut rxs);
        let mut tracks = self.track_pool.pop().unwrap_or_default();
        debug_assert!(tracks.is_empty());
        for &rx in &rxs {
            let own = self.rss_mw(frame.src, rx);
            let interf = (self.ambient_mw[rx.index()] - own).max(0.0);
            tracks.push(RxTrack {
                rx,
                max_interf_mw: interf,
                rx_transmitted: self.is_transmitting(rx),
            });
        }
        self.rx_scratch = rxs;

        self.transmitting[src.index()] = true;
        self.active.push(ActiveTx { id, frame, start: now, tracks });
        id
    }

    /// Take `tx` off the air and adjudicate reception at every intended
    /// receiver.
    pub fn end(&mut self, tx: TxId, now: SimTime) -> Vec<Reception> {
        let mut out = Vec::new();
        self.end_into(tx, now, &mut out);
        out
    }

    /// [`Medium::end`], appending verdicts to a caller-owned buffer so a
    /// hot event loop can reuse one allocation across every transmission.
    pub fn end_into(&mut self, tx: TxId, now: SimTime, out: &mut Vec<Reception>) {
        let pos = self
            .active
            .iter()
            .position(|t| t.id == tx)
            .unwrap_or_else(|| panic!("ending unknown transmission {tx:?}"));
        let done = self.active.swap_remove(pos);
        self.transmitting[done.frame.src.index()] = false;
        debug_assert!(now >= done.start, "transmission ends before it starts");
        self.probe.prof.tick(CostPath::MediumEnd);

        // Remove the signal from the ambient field (same split-at-source
        // traversal as `begin`; element order and arithmetic unchanged).
        {
            let n = self.net.num_nodes();
            let src = done.frame.src.index();
            let row = &self.rss_floor_mw[src * n..(src + 1) * n];
            let (amb_lo, amb_hi) = self.ambient_mw.split_at_mut(src);
            for (a, &r) in amb_lo.iter_mut().zip(&row[..src]) {
                *a = (*a - r).max(0.0);
            }
            for (a, &r) in amb_hi[1..].iter_mut().zip(&row[src + 1..]) {
                *a = (*a - r).max(0.0);
            }
        }

        out.reserve(done.tracks.len());
        for track in &done.tracks {
            let reception = self.adjudicate(&done, track, now);
            out.push(reception);
        }
        // Recycle the track storage for a later transmission.
        let ActiveTx { mut tracks, .. } = done;
        tracks.clear();
        self.track_pool.push(tracks);
    }

    /// Save the channel's dynamic state: in-flight transmissions (with
    /// their interference tracks), the ambient power field, the PHY RNG,
    /// the transmission counter, ROP round peaks and the fault classes.
    /// The RSS matrices, the per-node transmitting flags (derived from the
    /// in-flight set), the recycling pools and the probe are
    /// configuration, derived or scratch and are reconstructed, not saved.
    pub fn snapshot_save(&self, w: &mut SnapWriter) {
        w.put_u64(self.active.len() as u64);
        for tx in &self.active {
            w.put_u64(tx.id.0);
            tx.frame.put(w);
            tx.start.put(w);
            w.put_u64(tx.tracks.len() as u64);
            for t in &tx.tracks {
                w.put_u32(t.rx.0);
                w.put_f64(t.max_interf_mw);
                w.put_u8(u8::from(t.rx_transmitted));
            }
        }
        w.put_u64(self.ambient_mw.len() as u64);
        for &a in &self.ambient_mw {
            w.put_f64(a);
        }
        self.rng.put(w);
        w.put_u64(self.next_tx);
        w.put_u64(self.rop_peaks.len() as u64);
        for &(ap, t, peak) in &self.rop_peaks {
            w.put_u32(ap.0);
            w.put_u64(t);
            w.put_f64(peak);
        }
        match &self.faults {
            None => w.put_u8(0),
            Some(f) => {
                w.put_u8(1);
                f.save(w);
            }
        }
    }

    /// Restore the state written by [`Medium::snapshot_save`] into a
    /// medium freshly constructed over the same network and seed. Fault
    /// presence must match the saved run: the restore target is built
    /// from the same config, so a mismatch means the snapshot belongs to
    /// a different run. In-flight sources and track receivers must be
    /// nodes of the network, and no two in-flight frames may share a
    /// source; the per-node transmitting flags are rebuilt from them.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_active = r.get_len()?;
        let n = self.net.num_nodes();
        self.active.clear();
        self.transmitting.fill(false);
        for _ in 0..n_active {
            let id = TxId(r.get_u64()?);
            let frame = Frame::thaw(r)?;
            let start = SimTime::thaw(r)?;
            let sending = self
                .transmitting
                .get_mut(frame.src.index())
                .ok_or(SnapError::Corrupt("in-flight source is not a node"))?;
            if *sending {
                return Err(SnapError::Corrupt("two in-flight frames share a source"));
            }
            *sending = true;
            let n_tracks = r.get_len()?;
            let mut tracks = Vec::with_capacity(n_tracks.min(4096));
            for _ in 0..n_tracks {
                let rx = NodeId(r.get_u32()?);
                if rx.index() >= n {
                    return Err(SnapError::Corrupt("track receiver is not a node"));
                }
                tracks.push(RxTrack {
                    rx,
                    max_interf_mw: r.get_f64()?,
                    rx_transmitted: match r.get_u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(SnapError::Corrupt("rx_transmitted flag")),
                    },
                });
            }
            self.active.push(ActiveTx { id, frame, start, tracks });
        }
        let n_ambient = r.get_len()?;
        if n_ambient != self.ambient_mw.len() {
            return Err(SnapError::Corrupt("ambient field length"));
        }
        for a in &mut self.ambient_mw {
            *a = r.get_f64()?;
        }
        self.rng = SimRng::thaw(r)?;
        self.next_tx = r.get_u64()?;
        let n_peaks = r.get_len()?;
        self.rop_peaks.clear();
        for _ in 0..n_peaks {
            let ap = domino_topology::NodeId(r.get_u32()?);
            let t = r.get_u64()?;
            let peak = r.get_f64()?;
            self.rop_peaks.push((ap, t, peak));
        }
        match (r.get_u8()?, &mut self.faults) {
            (0, None) => {}
            (1, Some(f)) => f.restore(r)?,
            _ => return Err(SnapError::Corrupt("fault presence mismatch")),
        }
        Ok(())
    }

    fn adjudicate(&mut self, done: &ActiveTx, track: &RxTrack, now: SimTime) -> Reception {
        self.probe.prof.tick(match &done.frame.body {
            FrameBody::Data { .. } => CostPath::AdjData,
            FrameBody::MacAck { .. } => CostPath::AdjMacAck,
            FrameBody::Poll { .. } => CostPath::AdjPoll,
            FrameBody::RopReport { .. } => CostPath::AdjRopReport,
            FrameBody::SignatureBurst(_) => CostPath::AdjSignature,
        });
        let src = done.frame.src;
        let rx = track.rx;
        let sig_mw = self.rss_mw(src, rx);
        let fail = || Reception { rx, frame: done.frame.clone(), success: false };

        if sig_mw <= 0.0 || track.rx_transmitted {
            return fail();
        }
        // Churned-dark endpoints: a departed client neither transmits
        // usefully nor receives; either end dark fails the reception.
        if let Some(f) = &mut self.faults {
            let src_dark = f.churn.check_dark(src.index() as u32, now);
            if src_dark || f.churn.check_dark(rx.index() as u32, now) {
                let node = if src_dark { src.0 } else { rx.0 };
                self.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
                    kind: FaultKind::ChurnDrop,
                    node,
                });
                return fail();
            }
        }

        let mut interf_mw = track.max_interf_mw;
        // Same-round ROP reporters do not interfere with each other: they
        // occupy orthogonal subchannels by construction (paper §3.1).
        if let FrameBody::RopReport { ap, .. } = done.frame.body {
            for other in &self.active {
                if let FrameBody::RopReport { ap: oap, client: oc, .. } = other.frame.body {
                    if oap == ap && other.start == done.start {
                        interf_mw -= self.rss_mw(oc, rx);
                    }
                }
            }
            interf_mw = interf_mw.max(0.0);
        }

        let sinr_db = 10.0 * (sig_mw / (interf_mw + self.noise_mw)).log10();

        let success = match &done.frame.body {
            FrameBody::Data { .. } | FrameBody::MacAck { .. } | FrameBody::Poll { .. } => {
                // Computed per frame, not memoised: SINRs are continuous,
                // so (SINR, length) keys seldom repeat and a lookup per
                // frame costs more than its few hits save.
                let per = self.net.phy().data_rate.per(sinr_db, done.frame.bits.max(1));
                !self.rng.chance(per)
            }
            FrameBody::RopReport { client, ap, .. } => {
                let snr_db = sinr_db; // external interference already folded in
                let own_rss = self.net.rss().get(*client, *ap).value();
                let peak = self
                    .rop_peaks
                    .iter()
                    .find(|&&(a, t, _)| a == *ap && t == done.start.as_nanos())
                    .map(|&(_, _, p)| p)
                    .unwrap_or(own_rss);
                let gap = (peak - own_rss).max(0.0);
                let p = rop_decode_probability(snr_db, gap);
                let mut ok = self.rng.chance(p);
                if ok {
                    if let Some(f) = &mut self.faults {
                        // Decoded but corrupted: the integrity check at
                        // the AP discards it, same as a decode failure.
                        if f.channel.rop_corrupts() {
                            ok = false;
                            self.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
                                kind: FaultKind::RopCorrupt,
                                node: client.0,
                            });
                        }
                    }
                }
                ok
            }
            FrameBody::SignatureBurst(b) => {
                let p = signature_detection_probability(b.combined(), sinr_db);
                let mut ok = self.rng.chance(p);
                if ok {
                    if let Some(f) = &mut self.faults {
                        // Correlated fade: suppress this and the next
                        // FADE_LEN − 1 would-be detections.
                        if f.channel.fade_suppresses() {
                            ok = false;
                            self.probe.trace.emit(now.as_nanos(), || TraceEvent::FaultInject {
                                kind: FaultKind::Fade,
                                node: rx.0,
                            });
                        }
                    }
                }
                ok
            }
        };

        Reception { rx, frame: done.frame.clone(), success }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{Burst, BurstMarker, InlineVec, BURST_CAP};
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeRole, Position};
    use domino_topology::rss::RssMatrix;
    use domino_topology::LinkId;
    use domino_traffic::{FlowId, Packet, PacketId, PacketKind};

    /// Two AP-client pairs; cross-RSS injected per test.
    fn net(cross: &[(u32, u32, f64)]) -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
            make_node(2, NodeRole::Ap, None, Position::default()),
            make_node(3, NodeRole::Client, Some(2), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(4);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-55.0));
        rss.set_symmetric(NodeId(2), NodeId(3), Dbm(-55.0));
        for &(a, b, v) in cross {
            rss.set_symmetric(NodeId(a), NodeId(b), Dbm(v));
        }
        Network::new(nodes, rss, PhyParams::default())
    }

    fn data_frame(net: &Network, link: u32) -> Frame {
        let l = net.link(LinkId(link));
        Frame {
            src: l.sender,
            body: FrameBody::Data {
                packet: Packet {
                    id: PacketId(1),
                    flow: FlowId(0),
                    link: LinkId(link),
                    payload_bytes: 512,
                    created_at: SimTime::ZERO,
                    kind: PacketKind::Udp,
                    seq: 0,
                },
                fake: false,
                client_burst: None,
            },
            bits: 4096,
        }
    }

    #[test]
    fn clean_transmission_succeeds() {
        let n = net(&[]);
        let mut m = Medium::new(n.clone(), 1);
        let t = m.begin(SimTime::ZERO, data_frame(&n, 0));
        let rx = m.end(t, SimTime::from_micros(341));
        assert_eq!(rx.len(), 1);
        assert!(rx[0].success);
        assert_eq!(rx[0].rx, NodeId(1));
    }

    #[test]
    fn hidden_terminal_collision_fails() {
        // AP2's signal is loud at C1: concurrent transmissions collide
        // there.
        let n = net(&[(2, 1, -58.0)]);
        let mut m = Medium::new(n.clone(), 2);
        let t0 = m.begin(SimTime::ZERO, data_frame(&n, 0)); // AP0 -> C1
        let t1 = m.begin(SimTime::from_micros(10), data_frame(&n, 2)); // AP2 -> C3
        let rx0 = m.end(t0, SimTime::from_micros(341));
        assert!(!rx0[0].success, "C1's SINR should break reception");
        // AP2's own link is clean (nothing loud near C3).
        let rx1 = m.end(t1, SimTime::from_micros(351));
        assert!(rx1[0].success);
    }

    #[test]
    fn interference_peak_is_remembered() {
        // Interferer overlaps only the middle of the victim frame; the
        // victim must still see the peak interference.
        let n = net(&[(2, 1, -58.0)]);
        let mut m = Medium::new(n.clone(), 3);
        let t0 = m.begin(SimTime::ZERO, data_frame(&n, 0));
        let t1 = m.begin(SimTime::from_micros(100), data_frame(&n, 2));
        let _ = m.end(t1, SimTime::from_micros(200)); // interferer gone
        let rx0 = m.end(t0, SimTime::from_micros(341));
        assert!(!rx0[0].success, "peak interference forgotten");
    }

    #[test]
    fn exposed_transmissions_both_succeed() {
        // APs hear each other, receivers are clean.
        let n = net(&[(0, 2, -70.0)]);
        let mut m = Medium::new(n.clone(), 4);
        let t0 = m.begin(SimTime::ZERO, data_frame(&n, 0));
        let t1 = m.begin(SimTime::ZERO, data_frame(&n, 2));
        assert!(m.end(t0, SimTime::from_micros(341))[0].success);
        assert!(m.end(t1, SimTime::from_micros(341))[0].success);
    }

    #[test]
    fn carrier_sense_reflects_audible_transmitters() {
        let n = net(&[(0, 2, -70.0)]);
        let mut m = Medium::new(n.clone(), 5);
        assert!(!m.is_busy(NodeId(2)));
        let t = m.begin(SimTime::ZERO, data_frame(&n, 0));
        assert!(m.is_busy(NodeId(2)), "AP2 hears AP0 at -70 dBm");
        assert!(!m.is_busy(NodeId(3)), "C3 hears nothing");
        assert!(m.is_busy(NodeId(0)), "a transmitter senses itself busy");
        m.end(t, SimTime::from_micros(341));
        assert!(!m.is_busy(NodeId(2)));
    }

    #[test]
    fn half_duplex_receiver_misses_frame() {
        let n = net(&[]);
        let mut m = Medium::new(n.clone(), 6);
        // C1 transmits its uplink while AP0 sends it a downlink frame.
        let _up = m.begin(SimTime::ZERO, data_frame(&n, 1)); // C1 -> AP0
        let down = m.begin(SimTime::ZERO, data_frame(&n, 0)); // AP0 -> C1
        let rx = m.end(down, SimTime::from_micros(341));
        assert!(!rx[0].success, "a transmitting node cannot receive");
    }

    #[test]
    fn signature_burst_detected_under_data_interference() {
        // A burst to C1 while AP2 blasts a packet whose signal at C1 is
        // as loud as the burst: raw SINR ~0 dB, but correlation gain
        // carries it.
        let n = net(&[(2, 1, -55.0)]);
        let mut m = Medium::new(n.clone(), 7);
        let _jam = m.begin(SimTime::ZERO, data_frame(&n, 2));
        let burst = Frame {
            src: NodeId(0),
            body: FrameBody::SignatureBurst(Burst {
                codes: InlineVec::of(1),
                targets: InlineVec::of(NodeId(1)),
                marker: BurstMarker::Start,
                slot: 0,
                continues: false,
            }),
            bits: 0,
        };
        let mut ok = 0;
        for i in 0..50 {
            let t = m.begin(SimTime::from_micros(1 + i), burst.clone());
            if m.end(t, SimTime::from_micros(1 + i))[0].success {
                ok += 1;
            }
        }
        assert!(ok >= 45, "burst detection under interference: {ok}/50");
    }

    #[test]
    fn full_cap_burst_stays_reliable() {
        // BURST_CAP is exactly the paper's 4-combined-signature operating
        // point (the converter clamps `max_outbound` to it, so a larger
        // burst can never reach the air). The degradation beyond 4 is
        // pinned directly on `signature_detection_probability` in
        // `signatures::tests::detection_degrades_beyond_four`; here we
        // pin the other side through the full adjudication path: a burst
        // at the cap still detects reliably.
        let n = net(&[]);
        let mut m = Medium::new(n.clone(), 8);
        let burst = Frame {
            src: NodeId(0),
            body: FrameBody::SignatureBurst(Burst {
                codes: (1..=BURST_CAP as u32).collect(),
                targets: std::iter::repeat_n(NodeId(1), BURST_CAP).collect(),
                marker: BurstMarker::Start,
                slot: 0,
                continues: false,
            }),
            bits: 0,
        };
        let mut ok = 0;
        for i in 0..100 {
            let t = m.begin(SimTime::from_micros(i), burst.clone());
            ok += m.end(t, SimTime::from_micros(i)).iter().filter(|r| r.success).count();
        }
        assert!(ok > 380, "4-signature bursts should be reliable: {ok}/400");
    }

    #[test]
    fn rop_reports_share_a_symbol_without_colliding() {
        // Both clients of AP0... our fixture has one client per AP, so
        // use both pairs' clients reporting to their own APs at once.
        let n = net(&[]);
        let mut m = Medium::new(n.clone(), 9);
        let rep = |client: u32, ap: u32| Frame {
            src: NodeId(client),
            body: FrameBody::RopReport { client: NodeId(client), ap: NodeId(ap), queue: 5 },
            bits: 0,
        };
        let t0 = m.begin(SimTime::ZERO, rep(1, 0));
        let t1 = m.begin(SimTime::ZERO, rep(3, 2));
        assert!(m.end(t0, SimTime::from_micros(16))[0].success);
        assert!(m.end(t1, SimTime::from_micros(16))[0].success);
    }

    #[test]
    fn poll_reaches_all_clients() {
        let n = net(&[]);
        let mut m = Medium::new(n.clone(), 10);
        let poll = Frame { src: NodeId(0), body: FrameBody::Poll { ap: NodeId(0) }, bits: 256 };
        let t = m.begin(SimTime::ZERO, poll);
        let rx = m.end(t, SimTime::from_micros(30));
        assert_eq!(rx.len(), 1); // AP0 has one client
        assert!(rx[0].success);
        assert_eq!(rx[0].rx, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn double_transmit_panics() {
        let n = net(&[]);
        let mut m = Medium::new(n.clone(), 11);
        let _ = m.begin(SimTime::ZERO, data_frame(&n, 0));
        let _ = m.begin(SimTime::ZERO, data_frame(&n, 0));
    }

    #[test]
    #[should_panic(expected = "unknown transmission")]
    fn ending_unknown_tx_panics() {
        let n = net(&[]);
        let mut m = Medium::new(n, 12);
        let _ = m.end(TxId(99), SimTime::ZERO);
    }

    /// Save `m` and restore the bytes into a fresh medium over `n`.
    fn save_restore(n: &Network, m: &Medium) -> Result<Medium, SnapError> {
        let mut w = SnapWriter::new();
        m.snapshot_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Medium::new(n.clone(), 13);
        restored.snapshot_restore(&mut SnapReader::new(&bytes))?;
        Ok(restored)
    }

    #[test]
    fn restore_rejects_bad_in_flight_nodes() {
        let n = net(&[]);
        let in_flight = || {
            let mut m = Medium::new(n.clone(), 13);
            m.begin(SimTime::ZERO, data_frame(&n, 0));
            m.begin(SimTime::ZERO, data_frame(&n, 2));
            m
        };
        assert!(save_restore(&n, &in_flight()).is_ok());

        let mut m = in_flight();
        m.active[1].frame.src = NodeId(4);
        let err = save_restore(&n, &m).err();
        assert_eq!(err, Some(SnapError::Corrupt("in-flight source is not a node")));

        let mut m = in_flight();
        m.active[0].tracks[0].rx = NodeId(4);
        let err = save_restore(&n, &m).err();
        assert_eq!(err, Some(SnapError::Corrupt("track receiver is not a node")));

        let mut m = in_flight();
        m.active[1].frame.src = m.active[0].frame.src;
        let err = save_restore(&n, &m).err();
        assert_eq!(err, Some(SnapError::Corrupt("two in-flight frames share a source")));
    }

    /// Random `begin`/`end` interleavings on `n` with a save/restore
    /// midway. After every step a node is transmitting exactly when one
    /// of the in-flight frames is its own, and every carrier-sense word
    /// agrees with [`Medium::is_busy`] bit for bit (bits past the last
    /// node clear).
    fn check_sensing_across_a_restore(name: &str, n: &Network) {
        use domino_testkit::{prop, prop_assert_eq};
        let links = n.links().len() as u32;
        let nodes = n.num_nodes();
        prop::check(name, |g| {
            let mut m = Medium::new(n.clone(), 14);
            let mut live: Vec<TxId> = Vec::new();
            let steps = g.usize(1, 40);
            let restore_at = g.usize(0, steps);
            for step in 0..steps {
                if step == restore_at {
                    m = save_restore(n, &m).expect("restore");
                }
                let now = SimTime::from_micros(step as u64);
                let frame = data_frame(n, g.u64(0, u64::from(links) - 1) as u32);
                if !live.is_empty() && (g.bool() || m.is_transmitting(frame.src)) {
                    let tx = live.swap_remove(g.usize(0, live.len() - 1));
                    m.end(tx, now);
                } else if !m.is_transmitting(frame.src) {
                    live.push(m.begin(now, frame));
                }
                for node in 0..nodes as u32 {
                    let node = NodeId(node);
                    let sending = m.active.iter().any(|t| t.frame.src == node);
                    prop_assert_eq!(m.is_transmitting(node), sending, "step {step}, {node}");
                }
                for w in 0..nodes.div_ceil(64) {
                    let want = (0..64)
                        .filter(|k| 64 * w + k < nodes && m.is_busy(NodeId((64 * w + k) as u32)))
                        .fold(0u64, |word, k| word | 1 << k);
                    prop_assert_eq!(m.busy_word(w), want, "step {step}, word {w}");
                }
            }
        });
    }

    #[test]
    fn sensing_tracks_in_flight_sources_across_a_restore() {
        let four = net(&[(0, 2, -70.0), (2, 1, -58.0)]);
        check_sensing_across_a_restore("sensing on the 4-node fixture", &four);
        // Fig 14's first random T(20,3): 80 nodes, two carrier-sense words.
        let t20x3 =
            domino_topology::builder::random_placement(20, 3, 800.0, 30.0, PhyParams::default(), 1);
        assert_eq!(t20x3.num_nodes(), 80);
        check_sensing_across_a_restore("sensing on a random T(20,3)", &t20x3);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::frames::{Burst, BurstMarker, InlineVec};
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeRole, Position};
    use domino_topology::rss::RssMatrix;
    use domino_topology::LinkId;
    use domino_traffic::{FlowId, Packet, PacketId, PacketKind};

    /// One AP with three clients at controllable RSS.
    fn star(rss_values: &[f64]) -> Network {
        let mut nodes = vec![make_node(0, NodeRole::Ap, None, Position::default())];
        for (i, _) in rss_values.iter().enumerate() {
            nodes.push(make_node(i as u32 + 1, NodeRole::Client, Some(0), Position::default()));
        }
        let mut rss = RssMatrix::disconnected(nodes.len());
        for (i, &v) in rss_values.iter().enumerate() {
            rss.set_symmetric(NodeId(0), NodeId(i as u32 + 1), Dbm(v));
        }
        Network::new(nodes, rss, PhyParams::default())
    }

    fn report(net: &Network, client: u32, queue: u32) -> Frame {
        let _ = net;
        Frame {
            src: NodeId(client),
            body: FrameBody::RopReport { client: NodeId(client), ap: NodeId(0), queue },
            bits: 0,
        }
    }

    #[test]
    fn rop_gap_over_38db_breaks_the_weak_reporter() {
        // Two clients 45 dB apart answer the same poll: the strong one
        // decodes, the weak one collapses (Fig 6 calibration).
        let net = star(&[-50.0, -95.0 + 9.0]); // -50 vs -86: 36 dB... use 45
        let net = {
            let _ = net;
            star(&[-45.0, -90.0])
        };
        let mut m = Medium::new(net.clone(), 3);
        let mut weak_ok = 0;
        let mut strong_ok = 0;
        for i in 0..100u64 {
            let t0 = SimTime::from_micros(i * 100);
            let a = m.begin(t0, report(&net, 1, 5));
            let b = m.begin(t0, report(&net, 2, 7));
            let end = t0 + domino_sim::SimDuration::from_micros(16);
            strong_ok += usize::from(m.end(a, end)[0].success);
            weak_ok += usize::from(m.end(b, end)[0].success);
        }
        assert!(strong_ok > 95, "strong reporter: {strong_ok}/100");
        assert!(weak_ok < 20, "45 dB gap should break the weak reporter: {weak_ok}/100");
    }

    #[test]
    fn rop_rounds_at_different_times_do_not_interact() {
        let net = star(&[-55.0, -60.0]);
        let mut m = Medium::new(net.clone(), 4);
        // Client 1 reports alone at t0; client 2 alone much later: both
        // are their round's peak, both succeed.
        let a = m.begin(SimTime::from_micros(0), report(&net, 1, 5));
        assert!(m.end(a, SimTime::from_micros(16))[0].success);
        let b = m.begin(SimTime::from_millis(2), report(&net, 2, 9));
        assert!(m.end(b, SimTime::from_millis(2) + domino_sim::SimDuration::from_micros(16))[0].success);
    }

    #[test]
    fn ambient_power_returns_to_noise_after_all_ends() {
        let net = star(&[-55.0, -60.0, -65.0]);
        let mut m = Medium::new(net.clone(), 5);
        let noise_before = m.ambient_at(NodeId(0)).value();
        let mut txs = Vec::new();
        for c in 1..=3u32 {
            let p = Packet {
                id: PacketId(u64::from(c)),
                flow: FlowId(0),
                link: LinkId((c - 1) * 2 + 1), // uplinks
                payload_bytes: 512,
                created_at: SimTime::ZERO,
                kind: PacketKind::Udp,
                seq: 0,
            };
            txs.push(m.begin(
                SimTime::from_micros(u64::from(c)),
                Frame {
                    src: NodeId(c),
                    body: FrameBody::Data { packet: p, fake: false, client_burst: None },
                    bits: 4096,
                },
            ));
        }
        assert!(m.ambient_at(NodeId(0)).value() > noise_before + 10.0);
        for t in txs {
            m.end(t, SimTime::from_micros(400));
        }
        let after = m.ambient_at(NodeId(0)).value();
        assert!((after - noise_before).abs() < 0.1, "{noise_before} -> {after}");
    }

    #[test]
    fn burst_to_out_of_range_target_fails_cleanly() {
        let net = star(&[-55.0]);
        let m = Medium::new(net.clone(), 6);
        // A burst targeting a node the sender cannot reach at all: the
        // medium adjudicates failure rather than panicking. Client 1
        // bursts at... itself is the only other node; use a fabricated
        // two-node disconnected net instead.
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let rss = RssMatrix::disconnected(2); // not even the pair link
        let net2 = Network::new(nodes, rss, PhyParams::default());
        let mut m2 = Medium::new(net2, 7);
        let burst = Frame {
            src: NodeId(0),
            body: FrameBody::SignatureBurst(Burst {
                codes: InlineVec::of(1),
                targets: InlineVec::of(NodeId(1)),
                marker: BurstMarker::Start,
                slot: 0,
                continues: false,
            }),
            bits: 0,
        };
        let t = m2.begin(SimTime::ZERO, burst);
        let rx = m2.end(t, SimTime::from_micros(13));
        assert_eq!(rx.len(), 1);
        assert!(!rx[0].success);
        let _ = m;
    }

    fn data_on_link0(n: &Network) -> Frame {
        let _ = n;
        Frame {
            src: NodeId(0),
            body: FrameBody::Data {
                packet: Packet {
                    id: PacketId(1),
                    flow: FlowId(0),
                    link: LinkId(0),
                    payload_bytes: 512,
                    created_at: SimTime::ZERO,
                    kind: PacketKind::Udp,
                    seq: 0,
                },
                fake: false,
                client_burst: None,
            },
            bits: 4096,
        }
    }

    #[test]
    fn churned_dark_endpoint_fails_reception() {
        use domino_faults::{FaultConfig, FaultPlane};
        let n = star(&[-55.0]);
        // Client 1 leaves every millisecond on average and stays dark
        // 25 ms each time: dark at ~96% of instants.
        let cfg = FaultConfig { churn_rate_hz: 1_000.0, ..FaultConfig::off() };
        let plane = FaultPlane::new(&cfg, 5, &[1], 1.0);
        let mut m = Medium::new(n.clone(), 1);
        m.set_faults(plane.medium);
        let mut failed = 0u32;
        for i in 0..20u64 {
            let at = SimTime::from_millis(10 + i * 40);
            let t = m.begin(at, data_on_link0(&n));
            if !m.end(t, at)[0].success {
                failed += 1;
            }
        }
        assert!(failed >= 15, "dark client kept receiving: {failed}/20 failed");
        let f = m.faults().expect("installed");
        assert_eq!(u64::from(failed), f.churn.drops);
        assert!(f.churn.events > 0);
    }

    #[test]
    fn fade_bursts_suppress_otherwise_good_detections() {
        use domino_faults::{FaultConfig, FaultPlane};
        let n = star(&[-55.0]);
        let burst = Frame {
            src: NodeId(0),
            body: FrameBody::SignatureBurst(Burst {
                codes: InlineVec::of(1),
                targets: InlineVec::of(NodeId(1)),
                marker: BurstMarker::Start,
                slot: 0,
                continues: false,
            }),
            bits: 0,
        };
        let run = |faded: bool| {
            let mut m = Medium::new(n.clone(), 6);
            if faded {
                let cfg = FaultConfig { fade: 0.2, ..FaultConfig::off() };
                m.set_faults(FaultPlane::new(&cfg, 6, &[], 1.0).medium);
            }
            let mut ok = 0u32;
            for i in 0..200u64 {
                let t = m.begin(SimTime::from_micros(i * 20), burst.clone());
                if m.end(t, SimTime::from_micros(i * 20))[0].success {
                    ok += 1;
                }
            }
            (ok, m.faults().map(|f| f.channel.detections_suppressed).unwrap_or(0))
        };
        let (clean_ok, _) = run(false);
        let (faded_ok, suppressed) = run(true);
        // Fades only ever subtract, and by exactly the suppression count.
        assert_eq!(u64::from(clean_ok - faded_ok), suppressed);
        assert!(suppressed > 30, "fades barely fired: {suppressed}");
    }

    #[test]
    fn snapshot_mid_flight_continues_byte_identically() {
        use domino_faults::{FaultConfig, FaultPlane};
        let n = star(&[-55.0, -60.0, -58.0]);
        let cfg = FaultConfig { fade: 0.1, rop_corrupt: 0.1, ..FaultConfig::off() };
        let build = |seed| {
            let mut m = Medium::new(n.clone(), seed);
            m.set_faults(FaultPlane::new(&cfg, seed, &[1, 2, 3], 1.0).medium);
            m
        };
        let mut m = build(21);
        // Warm up the RNG, then leave two frames in flight.
        for i in 0..40u64 {
            let t = m.begin(SimTime::from_micros(i * 50), data_on_link0(&n));
            let _ = m.end(t, SimTime::from_micros(i * 50 + 20));
        }
        let inflight_a = m.begin(SimTime::from_millis(3), data_on_link0(&n));
        let inflight_b = m.begin(SimTime::from_millis(3), report(&n, 2, 9));

        let mut w = SnapWriter::new();
        m.snapshot_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = build(21);
        let mut r = SnapReader::new(&bytes);
        restored.snapshot_restore(&mut r).unwrap();
        assert!(r.is_exhausted());

        // Both continue in lockstep: same verdicts, same draws, and
        // crucially the in-flight transmissions adjudicate identically.
        let end_a = |m2: &mut Medium| m2.end(inflight_a, SimTime::from_millis(3) + domino_sim::SimDuration::from_micros(341));
        let end_b = |m2: &mut Medium| m2.end(inflight_b, SimTime::from_millis(3) + domino_sim::SimDuration::from_micros(16));
        let (oa, ob) = (end_a(&mut m), end_b(&mut m));
        let (ra, rb) = (end_a(&mut restored), end_b(&mut restored));
        assert_eq!(oa[0].success, ra[0].success);
        assert_eq!(ob[0].success, rb[0].success);
        assert_eq!(m.phy_rng_draws(), restored.phy_rng_draws());
        for i in 0..60u64 {
            let at = SimTime::from_millis(4) + domino_sim::SimDuration::from_micros(i * 30);
            let t1 = m.begin(at, data_on_link0(&n));
            let t2 = restored.begin(at, data_on_link0(&n));
            assert_eq!(m.end(t1, at)[0].success, restored.end(t2, at)[0].success, "step {i}");
        }
        assert_eq!(m.phy_rng_draws(), restored.phy_rng_draws());
        let (fo, fr) = (m.faults().unwrap(), restored.faults().unwrap());
        assert_eq!(fo.channel.rops_corrupted, fr.channel.rops_corrupted);
        assert_eq!(fo.churn.drops, fr.churn.drops);

        // A faultless medium rejects a faulted snapshot.
        let mut plain = Medium::new(n.clone(), 21);
        assert!(matches!(
            plain.snapshot_restore(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("fault presence mismatch"))
        ));
    }

    #[test]
    fn rop_corruption_discards_decoded_reports() {
        use domino_faults::{FaultConfig, FaultPlane};
        let n = star(&[-55.0]);
        let rep = report(&n, 1, 5);
        let run = |corrupt: bool| {
            let mut m = Medium::new(n.clone(), 7);
            if corrupt {
                let cfg = FaultConfig { rop_corrupt: 0.4, ..FaultConfig::off() };
                m.set_faults(FaultPlane::new(&cfg, 7, &[], 1.0).medium);
            }
            let mut ok = 0u64;
            for i in 0..500u64 {
                let t = m.begin(SimTime::from_micros(i * 20), rep.clone());
                if m.end(t, SimTime::from_micros(i * 20 + 16))[0].success {
                    ok += 1;
                }
            }
            (ok, m.faults().map(|f| f.channel.rops_corrupted).unwrap_or(0))
        };
        let (clean_ok, _) = run(false);
        let (corrupt_ok, corrupted) = run(true);
        assert_eq!(clean_ok - corrupt_ok, corrupted);
        let rate = corrupted as f64 / clean_ok as f64;
        assert!((rate - 0.4).abs() < 0.08, "corruption rate {rate}");
    }
}
