//! The schedule converter (paper §3.3): strict schedule → relative
//! schedule.
//!
//! Three transformations, in order:
//!
//! 1. **Fake-link insertion** — every slot is extended to a *maximal*
//!    independent set of the conflict graph; the added links are fake
//!    (header-only keep-alives) and exist purely to widen the trigger
//!    coverage so every node keeps hearing signatures.
//! 2. **ROP-slot insertion** — greedily place one ROP slot between
//!    neighbouring slots per polling AP; APs whose links do not conflict
//!    share a slot. Bursts before an ROP slot carry the ROP marker so the
//!    next slot's transmitters wait one ROP-slot duration.
//! 3. **Trigger assignment** — for every transmitter of slot `i+1` (and
//!    every AP polling at the boundary), pick up to `max_inbound` (2)
//!    triggering nodes among the endpoints of slot `i`'s links, highest
//!    RSS first (a walk down the target's RSS ranking,
//!    [`ConflictGraph::loudest_at`]), with at most `max_outbound` (4)
//!    signatures per broadcaster. A link whose sender no endpoint of slot `i` can
//!    trigger stays in slot `i+1` as a kick-off entry, started on its
//!    own as a first batch's links are; nothing goes back to the
//!    scheduler.
//!
//! **Batch connection**: the converter retains the last slot of each
//! batch; the next batch's first slot is triggered by burst assignments
//! computed for that retained slot (`connecting_bursts`).

use crate::schedule::{
    BurstAssignment, RelativeBatch, RelativeSlot, RopSlot, SlotEntry, StrictSchedule,
    MAX_TRIGGER_TARGETS,
};
use domino_phy::units::Dbm;
use domino_topology::{ConflictGraph, LinkId, LinkMask, Network, NodeId};

/// Upper bound on signatures per broadcaster the converter's inline
/// scratch can hold (the paper's `max_outbound` is 4).
const MAX_OUT: usize = MAX_TRIGGER_TARGETS;

/// Converter tuning (paper §3.2/§3.3 constants).
#[derive(Clone, Debug)]
pub struct ConverterConfig {
    /// Maximum triggers per next-transmitter (paper: 2).
    pub max_inbound: usize,
    /// Maximum signatures per broadcaster (paper: 4, from Fig 9).
    pub max_outbound: usize,
    /// Minimum RSS for a trigger assignment. Correlation gain keeps lone
    /// signatures detectable near the noise floor, but a *scheduled*
    /// trigger must survive the other simultaneous end-of-slot bursts, so
    /// the converter demands a healthy margin; senders no broadcaster can
    /// reach become kick-off entries instead.
    pub trigger_min_rss: Dbm,
    /// Insert fake links (ablation knob; the paper always does).
    pub insert_fake_links: bool,
    /// Insert ROP slots (off for downlink-only or USRP-profile runs).
    pub insert_rop: bool,
}

impl Default for ConverterConfig {
    fn default() -> ConverterConfig {
        ConverterConfig {
            max_inbound: 2,
            max_outbound: 4,
            trigger_min_rss: Dbm(-88.0),
            insert_fake_links: true,
            insert_rop: true,
        }
    }
}

/// Result of converting one strict batch.
#[derive(Clone, Debug, Default)]
pub struct ConversionOutcome {
    /// The executable batch.
    pub batch: RelativeBatch,
    /// APs that found no ROP opportunity this batch.
    pub unpolled_aps: Vec<NodeId>,
}

/// Stateful strict→relative converter (retains the batch-connection
/// slot).
///
/// The scratch fields at the bottom are pure working storage, rebuilt or
/// cleared on every call: the converter runs once per batch on the
/// simulator's controller path, and reusing the buffers keeps the
/// steady state allocation-free without touching any output. None of it
/// is derived from a network's RSS map or conflict graph, so one
/// converter may serve networks of any shape in turn.
#[derive(Debug)]
pub struct Converter {
    cfg: ConverterConfig,
    retained: Option<Vec<SlotEntry>>,
    batch_counter: u64,
    /// Fake-link insertion's blocked mask, reused across slots.
    blocked: LinkMask,
    /// Per-node outbound trigger targets ([`MAX_OUT`] inline slots),
    /// valid for this boundary's broadcasters.
    out_targets: Vec<([NodeId; MAX_OUT], usize)>,
    /// Per-node inbound trigger count, valid for this boundary's targets.
    inbound: Vec<u8>,
    /// Per node: the boundary stamp under which it last joined the
    /// broadcaster list, with its position in that list, and the stamp
    /// under which it last joined the target list.
    broadcaster_at: Vec<(u64, u32)>,
    target_at: Vec<u64>,
    /// The current boundary's stamp (raised per boundary, so no table
    /// needs clearing).
    boundary: u64,
    /// Broadcaster candidates at the boundary being assigned.
    broadcasters: Vec<NodeId>,
    /// Trigger targets at the boundary being assigned, each with the
    /// index of its RSS ranking where its next walk starts.
    targets: Vec<(NodeId, Option<LinkId>, usize)>,
    /// Recycled slot storage (entries/bursts capacity survives between
    /// batches via [`Converter::convert_into`]).
    slot_pool: Vec<RelativeSlot>,
    /// Recycled ROP-slot AP lists.
    rop_pool: Vec<Vec<NodeId>>,
    /// Working copy of one strict slot during fake-link insertion.
    set_buf: Vec<LinkId>,
    /// The next-slot links the last assigned boundary left untriggered.
    untriggered: Vec<LinkId>,
}

impl Converter {
    /// A fresh converter.
    pub fn new(cfg: ConverterConfig) -> Converter {
        Converter {
            cfg,
            retained: None,
            batch_counter: 0,
            blocked: LinkMask::default(),
            out_targets: Vec::new(),
            inbound: Vec::new(),
            broadcaster_at: Vec::new(),
            target_at: Vec::new(),
            boundary: 0,
            broadcasters: Vec::new(),
            targets: Vec::new(),
            slot_pool: Vec::new(),
            rop_pool: Vec::new(),
            set_buf: Vec::new(),
            untriggered: Vec::new(),
        }
    }

    /// Size the per-node scratch tables to `nodes` (in practice: once, on
    /// the first batch). Their contents are only read under the current
    /// boundary's stamp, which no entry of a fresh table carries.
    fn size_node_tables(&mut self, nodes: usize) {
        if self.inbound.len() != nodes {
            self.out_targets = vec![([NodeId(0); MAX_OUT], 0); nodes];
            self.inbound = vec![0; nodes];
            self.broadcaster_at = vec![(0, 0); nodes];
            self.target_at = vec![0; nodes];
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ConverterConfig {
        &self.cfg
    }

    /// Whether a retained slot exists (false only before the first
    /// non-empty batch).
    pub fn has_retained_slot(&self) -> bool {
        self.retained.is_some()
    }

    /// The entries of the retained batch-connection slot, if any.
    pub fn retained_entries(&self) -> Option<&[SlotEntry]> {
        self.retained.as_deref()
    }

    /// Convert one strict batch. `polling_aps` asks for ROP slots for
    /// those APs (normally all APs, once per batch).
    pub fn convert(
        &mut self,
        net: &Network,
        graph: &ConflictGraph,
        strict: &StrictSchedule,
        polling_aps: &[NodeId],
    ) -> ConversionOutcome {
        let mut out = ConversionOutcome::default();
        self.convert_into(net, graph, strict, polling_aps, &mut out);
        out
    }

    /// [`Converter::convert`], reusing a caller-held outcome. The
    /// previous contents of `out` are recycled into the converter's slot
    /// pool, so a controller loop that keeps handing back the same
    /// outcome never allocates batch storage in steady state.
    pub fn convert_into(
        &mut self,
        net: &Network,
        graph: &ConflictGraph,
        strict: &StrictSchedule,
        polling_aps: &[NodeId],
        out: &mut ConversionOutcome,
    ) {
        self.batch_counter += 1;
        out.unpolled_aps.clear();
        out.batch.connecting_bursts.clear();
        if let Some(rop) = out.batch.connecting_rop.take() {
            self.rop_pool.push(rop.aps);
        }
        self.slot_pool.append(&mut out.batch.slots);
        if strict.is_empty() && polling_aps.is_empty() {
            return;
        }
        self.size_node_tables(net.num_nodes());

        // 1. Fake-link insertion.
        let n_links = net.links().len();
        for (i, slot) in strict.slots.iter().enumerate() {
            let mut rslot = self.slot_pool.pop().unwrap_or_default();
            rslot.entries.clear();
            rslot.bursts.clear();
            if let Some(rop) = rslot.rop_after.take() {
                self.rop_pool.push(rop.aps);
            }
            let mut set = std::mem::take(&mut self.set_buf);
            set.clear();
            set.extend_from_slice(slot);
            rslot
                .entries
                .extend(set.iter().map(|&l| SlotEntry { link: l, fake: false, kick_off: false }));
            if self.cfg.insert_fake_links {
                // Rotate the candidate order per slot so fake coverage
                // cycles over the whole network.
                let rot = (self.batch_counter as usize * 7 + i) % n_links.max(1);
                let candidates = (rot..n_links).chain(0..rot).map(|l| LinkId(l as u32));
                let before = set.len();
                graph.extend_to_maximal_in_place(&mut set, candidates, &mut self.blocked);
                rslot.entries.extend(
                    set[before..]
                        .iter()
                        .map(|&l| SlotEntry { link: l, fake: true, kick_off: false }),
                );
            }
            self.set_buf = set;
            out.batch.slots.push(rslot);
        }

        // 2. ROP-slot insertion. Boundary b sits after "previous slot" b:
        // boundary 0 = between the retained slot and slots[0] (only if a
        // retained slot exists), boundary i = between slots[i-1] and
        // slots[i].
        if self.cfg.insert_rop {
            for &ap in polling_aps {
                if !self.try_insert_rop(
                    net,
                    graph,
                    ap,
                    &mut out.batch.slots,
                    &mut out.batch.connecting_rop,
                ) {
                    out.unpolled_aps.push(ap);
                }
            }
        }

        // 3. Trigger assignment per boundary. A boundary whose previous
        // slot is empty (or absent, for the very first batch) has no live
        // chain to trigger from: its links are marked kick-off and the
        // APs start them individually (§3.3's first-batch rule).
        let slots = &mut out.batch.slots;
        match &self.retained {
            None => mark_all_kick_offs(slots, 0),
            Some(retained) if retained.is_empty() => mark_all_kick_offs(slots, 0),
            _ => {}
        }
        for i in 0..slots.len().saturating_sub(1) {
            if slots[i].entries.is_empty() {
                mark_all_kick_offs(slots, i + 1);
            }
        }
        if self.retained.as_ref().is_some_and(|r| !r.is_empty()) {
            // The retained slot leaves `self` for the duration of the
            // call so `assign_boundary` can use the scratch tables.
            let retained = self.retained.take().unwrap_or_default();
            {
                let rop_aps: &[NodeId] = out
                    .batch
                    .connecting_rop
                    .as_ref()
                    .map(|r| r.aps.as_slice())
                    .unwrap_or(&[]);
                let next: &[SlotEntry] =
                    out.batch.slots.first().map(|s| s.entries.as_slice()).unwrap_or(&[]);
                self.assign_boundary(
                    net,
                    graph,
                    &retained,
                    next,
                    rop_aps,
                    &mut out.batch.connecting_bursts,
                );
            }
            self.retained = Some(retained);
            mark_kick_offs(&mut out.batch.slots, 0, &self.untriggered);
        }
        for i in 0..out.batch.slots.len().saturating_sub(1) {
            // Disjoint borrows: slot `i` is read (entries, rop_after) and
            // written (bursts); slot `i + 1` is read then kick-off
            // marked.
            let (head, tail) = out.batch.slots.split_at_mut(i + 1);
            let RelativeSlot { entries: prev_entries, bursts: prev_bursts, rop_after: prev_rop } =
                &mut head[i];
            if prev_entries.is_empty() {
                continue;
            }
            let rop_aps: &[NodeId] = prev_rop.as_ref().map(|r| r.aps.as_slice()).unwrap_or(&[]);
            prev_bursts.clear();
            self.assign_boundary(net, graph, prev_entries, &tail[0].entries, rop_aps, prev_bursts);
            mark_kick_offs_in(&mut tail[0], &self.untriggered);
        }

        // Retain the last slot for batch connection (reusing the
        // previous retained buffer).
        if let Some(last) = out.batch.slots.last() {
            let mut r = self.retained.take().unwrap_or_default();
            r.clear();
            r.extend_from_slice(&last.entries);
            self.retained = Some(r);
        }
    }

    /// Try to give `ap` an ROP opportunity; returns success. An ROP slot
    /// is shared only by APs whose cells do not conflict.
    fn try_insert_rop(
        &mut self,
        net: &Network,
        graph: &ConflictGraph,
        ap: NodeId,
        slots: &mut [RelativeSlot],
        connecting_rop: &mut Option<RopSlot>,
    ) -> bool {
        // Boundary None sits between the retained slot and the first
        // slot; inner boundaries follow in execution order.
        let boundaries = (self.retained.is_some().then_some(None).into_iter())
            .chain((0..slots.len().saturating_sub(1)).map(Some));
        for boundary in boundaries {
            let prev_entries: &[SlotEntry] = match boundary {
                None => self.retained.as_deref().unwrap_or(&[]),
                Some(i) => &slots[i].entries,
            };
            if !self.slot_can_trigger(net, prev_entries, ap) {
                continue;
            }
            let slot_ref: &mut Option<RopSlot> = match boundary {
                None => connecting_rop,
                Some(i) => &mut slots[i].rop_after,
            };
            match slot_ref {
                None => {
                    let mut aps = self.rop_pool.pop().unwrap_or_default();
                    aps.clear();
                    aps.push(ap);
                    *slot_ref = Some(RopSlot { aps });
                    return true;
                }
                Some(existing) => {
                    if existing.aps.iter().all(|&other| !graph.cells_conflict(ap, other)) {
                        existing.aps.push(ap);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Can any endpoint of `prev` links deliver a signature to `target`?
    fn slot_can_trigger(&self, net: &Network, prev: &[SlotEntry], target: NodeId) -> bool {
        prev.iter().any(|e| {
            let l = net.link(e.link);
            [l.sender, l.receiver].iter().any(|&n| {
                n != target && net.rss().get(n, target) >= self.cfg.trigger_min_rss
            })
        })
    }

    /// Can `b` take `target` at the boundary stamped `stamp`: is it one of
    /// the boundary's broadcasters, below the outbound cap `cap`, and not
    /// triggering `target` already?
    fn can_trigger(&self, b: NodeId, target: NodeId, stamp: u64, cap: usize) -> bool {
        let (assigned, count) = &self.out_targets[b.index()];
        self.broadcaster_at[b.index()].0 == stamp
            && *count < cap
            && !assigned[..*count].contains(&target)
    }

    /// Assign triggers at one boundary. Targets are the next slot's
    /// senders plus the polling APs. Appends the burst assignments to
    /// `bursts` and leaves the untriggered next-slot links in
    /// `self.untriggered`.
    fn assign_boundary(
        &mut self,
        net: &Network,
        graph: &ConflictGraph,
        prev: &[SlotEntry],
        next: &[SlotEntry],
        rop_aps: &[NodeId],
        bursts: &mut Vec<BurstAssignment>,
    ) {
        // Candidate broadcasters: both endpoints of every prev-slot link,
        // each once, in first-seen order. A node's stamp says whether it
        // joined this boundary's list already; joining records its list
        // position and resets its outbound table.
        self.boundary += 1;
        let stamp = self.boundary;
        self.broadcasters.clear();
        for e in prev {
            let l = net.link(e.link);
            for n in [l.sender, l.receiver] {
                if self.broadcaster_at[n.index()].0 != stamp {
                    self.broadcaster_at[n.index()] = (stamp, self.broadcasters.len() as u32);
                    self.out_targets[n.index()].1 = 0;
                    self.broadcasters.push(n);
                }
            }
        }

        // Targets: (node, link-to-mark-if-untriggered), each node once.
        // Targets that are endpoints of the previous slot may be deaf
        // during the simultaneous burst phase (the engine's self-trigger
        // path covers them), but they still receive assignments: the
        // redundancy is what rides out partial failures (§3.2's
        // cross-links).
        self.targets.clear();
        let senders = next.iter().map(|e| (net.link(e.link).sender, Some(e.link)));
        for (n, link) in senders.chain(rop_aps.iter().map(|&ap| (ap, None))) {
            if self.target_at[n.index()] != stamp {
                self.target_at[n.index()] = stamp;
                self.inbound[n.index()] = 0;
                self.targets.push((n, link, 0));
            }
        }

        // Two passes: primary trigger for everyone, then secondary
        // triggers ("repeat the previous step to find the secondary
        // possible triggering node", §3.3).
        self.untriggered.clear();
        let cap = self.cfg.max_outbound.min(MAX_OUT);
        let min_rss = self.cfg.trigger_min_rss;
        for pass in 0..self.cfg.max_inbound {
            for ti in 0..self.targets.len() {
                let (target, link, from) = self.targets[ti];
                if usize::from(self.inbound[target.index()]) > pass {
                    continue; // already has a trigger from this pass
                }
                // Highest RSS first (§3.3): walk the nodes loudest at the
                // target down to the trigger floor and take the first
                // eligible broadcaster. Of the eligible broadcasters tied
                // with it (the same RSS bits: `total_cmp`-equal), the one
                // latest in the broadcaster list wins, the last maximum a
                // scan of that list in order keeps. A NaN RSS is never
                // eligible, as in that scan.
                let row = graph.loudest_at(net, target);
                let mut first = None;
                for (i, &(b, rss)) in row.iter().enumerate().skip(from) {
                    if rss < min_rss {
                        break;
                    }
                    if rss >= min_rss && self.can_trigger(b, target, stamp, cap) {
                        first = Some(i);
                        break;
                    }
                }
                // What the walk passed stays ineligible for the rest of
                // the boundary (stamps are fixed; caps and assignments
                // only fill), so the next pass starts where this one
                // stopped, and skips a target that found no trigger.
                self.targets[ti].2 = first.unwrap_or(row.len());
                let best = first.map(|i| {
                    let (mut best, rss) = row[i];
                    let bits = rss.value().to_bits();
                    let list_pos = |n: NodeId| self.broadcaster_at[n.index()].1;
                    for &(b, _) in row[i + 1..].iter().take_while(|e| e.1.value().to_bits() == bits) {
                        if list_pos(b) > list_pos(best) && self.can_trigger(b, target, stamp, cap) {
                            best = b;
                        }
                    }
                    best
                });
                match best {
                    Some(b) => {
                        let (assigned, count) = &mut self.out_targets[b.index()];
                        assigned[*count] = target;
                        *count += 1;
                        self.inbound[target.index()] += 1;
                    }
                    None if pass == 0 => {
                        if let Some(l) = link {
                            self.untriggered.push(l);
                        }
                    }
                    None => {}
                }
            }
        }

        // One burst per broadcaster that got targets, in ascending node
        // order.
        let out_targets = &self.out_targets;
        self.broadcasters.retain(|b| out_targets[b.index()].1 > 0);
        self.broadcasters.sort_unstable();
        bursts.extend(self.broadcasters.iter().map(|&b| {
            let (assigned, count) = &out_targets[b.index()];
            BurstAssignment { broadcaster: b, targets: assigned[..*count].iter().copied().collect() }
        }));
    }
}

// Dynamic state: the batch counter (it seeds the fake-candidate
// rotation) and the retained batch-connection slot. Every other field is
// scratch.
domino_sim::snapshot_fields!(Converter { batch_counter, retained });

/// Mark the given links of `slots[idx]` as kick-offs (no over-the-air
/// trigger reaches their sender; the AP starts them individually).
fn mark_kick_offs(slots: &mut [RelativeSlot], idx: usize, untriggered: &[LinkId]) {
    if let Some(slot) = slots.get_mut(idx) {
        mark_kick_offs_in(slot, untriggered);
    }
}

/// [`mark_kick_offs`] on an already-resolved slot.
fn mark_kick_offs_in(slot: &mut RelativeSlot, untriggered: &[LinkId]) {
    if untriggered.is_empty() {
        return;
    }
    for e in slot.entries.iter_mut() {
        if untriggered.contains(&e.link) {
            e.kick_off = true;
        }
    }
}

/// Mark every entry of `slots[idx]` as a kick-off.
fn mark_all_kick_offs(slots: &mut [RelativeSlot], idx: usize) {
    if let Some(slot) = slots.get_mut(idx) {
        for e in slot.entries.iter_mut() {
            e.kick_off = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
    use domino_topology::presets::{fig13a, fig7};
    use domino_topology::PhyParams;
    use std::collections::BTreeMap;

    fn downlinks(net: &Network) -> Vec<LinkId> {
        net.links().iter().filter(|l| l.is_downlink()).map(|l| l.id).collect()
    }

    /// The Fig 7(c) two-slot strict schedule.
    fn fig7_strict(net: &Network) -> StrictSchedule {
        let d = downlinks(net);
        StrictSchedule { slots: vec![vec![d[0], d[2]], vec![d[1], d[3]]] }
    }

    #[test]
    fn slots_stay_independent_after_fake_insertion() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let mut conv = Converter::new(ConverterConfig::default());
        let outcome = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        for slot in &outcome.batch.slots {
            let links: Vec<LinkId> = slot.entries.iter().map(|e| e.link).collect();
            assert!(graph.is_independent(&links), "{links:?}");
        }
    }

    #[test]
    fn fake_links_fill_slack_slots() {
        // In fig13a all four downlinks are mutually compatible; a strict
        // slot holding only one of them must be topped up with fakes.
        let net = fig13a(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let d = downlinks(&net);
        let strict = StrictSchedule { slots: vec![vec![d[0]]] };
        let mut conv = Converter::new(ConverterConfig::default());
        let outcome = conv.convert(&net, &graph, &strict, &[]);
        assert!(
            outcome.batch.fake_entries() >= 3,
            "expected the three other downlinks as fakes, got {}",
            outcome.batch.fake_entries()
        );
        let links: Vec<LinkId> = outcome.batch.slots[0].entries.iter().map(|e| e.link).collect();
        assert!(graph.is_independent(&links));
        // Maximality: nothing else fits.
        for l in (0..net.links().len() as u32).map(LinkId) {
            if !links.contains(&l) {
                assert!(!graph.compatible_with_all(l, &links), "{l} would still fit");
            }
        }
    }

    #[test]
    fn triggers_respect_inbound_and_outbound_caps() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let mut conv = Converter::new(ConverterConfig::default());
        // Convert twice so boundaries (including batch connection) exist.
        let _ = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        let outcome = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        let check = |bursts: &[BurstAssignment]| {
            let mut inbound: BTreeMap<NodeId, usize> = BTreeMap::new();
            for b in bursts {
                assert!(b.targets.len() <= 4, "outbound cap violated: {b:?}");
                for &t in &b.targets {
                    *inbound.entry(t).or_default() += 1;
                }
            }
            for (node, count) in inbound {
                assert!(count <= 2, "inbound cap violated for {node}: {count}");
            }
        };
        check(&outcome.batch.connecting_bursts);
        for slot in &outcome.batch.slots {
            check(&slot.bursts);
        }
    }

    #[test]
    fn every_next_slot_sender_is_triggered() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let mut conv = Converter::new(ConverterConfig::default());
        let outcome = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        // Boundary between slot 0 and slot 1: every sender in slot 1 must
        // either appear in some burst of slot 0 or be an endpoint of
        // slot 0 itself (those continue from their own slot timing — the
        // engine's self-trigger path — because all end-of-slot bursts are
        // simultaneous).
        let slot0 = &outcome.batch.slots[0];
        let slot1 = &outcome.batch.slots[1];
        let triggered: Vec<NodeId> =
            slot0.bursts.iter().flat_map(|b| b.targets.to_vec()).collect();
        let endpoints: Vec<NodeId> = slot0
            .entries
            .iter()
            .flat_map(|e| {
                let l = net.link(e.link);
                [l.sender, l.receiver]
            })
            .collect();
        for e in &slot1.entries {
            let sender = net.link(e.link).sender;
            assert!(
                triggered.contains(&sender) || endpoints.contains(&sender),
                "sender {sender} of {:?} neither triggered nor self-triggered",
                e.link
            );
        }
    }

    #[test]
    fn batch_connection_retains_last_slot() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let mut conv = Converter::new(ConverterConfig::default());
        let first = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        assert!(first.batch.connecting_bursts.is_empty(), "first batch has no predecessor");
        assert!(conv.has_retained_slot());
        // Snapshot the retained slot *before* converting the second batch
        // (conversion replaces it).
        let retained: Vec<SlotEntry> = conv.retained_entries().unwrap().to_vec();
        let second = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        // The second batch is connected: its first-slot senders are
        // covered by connecting bursts or by being endpoints of the
        // retained slot (self-trigger).
        let triggered: Vec<NodeId> = second
            .batch
            .connecting_bursts
            .iter()
            .flat_map(|b| b.targets.to_vec())
            .collect();
        let endpoints: Vec<NodeId> = retained
            .iter()
            .flat_map(|e| {
                let l = net.link(e.link);
                [l.sender, l.receiver]
            })
            .collect();
        for e in &second.batch.slots[0].entries {
            let sender = net.link(e.link).sender;
            assert!(
                triggered.contains(&sender) || endpoints.contains(&sender),
                "first slot sender {sender} unconnected"
            );
        }
    }

    #[test]
    fn rop_slots_inserted_and_shared() {
        let net = fig13a(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let d = downlinks(&net);
        let strict = StrictSchedule { slots: vec![d.clone(), d.clone()] };
        let aps = net.aps();
        let mut conv = Converter::new(ConverterConfig::default());
        let outcome = conv.convert(&net, &graph, &strict, &aps);
        let polled: usize = outcome
            .batch
            .slots
            .iter()
            .filter_map(|s| s.rop_after.as_ref())
            .map(|r| r.aps.len())
            .sum::<usize>()
            + outcome.batch.connecting_rop.as_ref().map_or(0, |r| r.aps.len());
        assert_eq!(
            polled + outcome.unpolled_aps.len(),
            aps.len(),
            "every AP either polls or is reported unpolled"
        );
        assert!(polled >= 2, "at least some APs must find an ROP slot");
        // In fig13a all links are mutually non-conflicting, so sharing
        // must happen: at most 2 boundaries exist, but 4 APs poll.
        let rop_slots: Vec<&RopSlot> = outcome
            .batch
            .slots
            .iter()
            .filter_map(|s| s.rop_after.as_ref())
            .collect();
        assert!(
            rop_slots.iter().any(|r| r.aps.len() > 1)
                || outcome.batch.connecting_rop.as_ref().is_some_and(|r| r.aps.len() > 1),
            "non-conflicting APs should share an ROP slot"
        );
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let mut conv = Converter::new(ConverterConfig::default());
        let outcome = conv.convert(&net, &graph, &StrictSchedule::default(), &[]);
        assert!(outcome.batch.slots.is_empty());
        assert!(!conv.has_retained_slot());
    }

    #[test]
    fn snapshot_resumes_batch_connection_identically() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let mut conv = Converter::new(ConverterConfig::default());
        let _ = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        let _ = conv.convert(&net, &graph, &fig7_strict(&net), &net.aps());

        let mut w = SnapWriter::new();
        conv.save(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = Converter::new(ConverterConfig::default());
        let mut r = SnapReader::new(&bytes);
        fresh.restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(fresh.retained_entries(), conv.retained_entries());

        // The next batch — including the rotation-sensitive fake links
        // and the connecting bursts off the retained slot — matches.
        let a = conv.convert(&net, &graph, &fig7_strict(&net), &net.aps());
        let b = fresh.convert(&net, &graph, &fig7_strict(&net), &net.aps());
        assert_eq!(a.batch.connecting_bursts, b.batch.connecting_bursts);
        assert_eq!(a.batch.slots.len(), b.batch.slots.len());
        for (sa, sb) in a.batch.slots.iter().zip(&b.batch.slots) {
            assert_eq!(sa.entries, sb.entries);
            assert_eq!(sa.bursts, sb.bursts);
        }
    }

    /// A retained entry's flags are the bytes 0 and 1, like every flag
    /// in a snapshot: a restore reads 2 as corrupt, not as `true`.
    #[test]
    fn snapshot_rejects_a_retained_flag_other_than_0_or_1() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let mut conv = Converter::new(ConverterConfig::default());
        let _ = conv.convert(&net, &graph, &fig7_strict(&net), &net.aps());
        let first = conv.retained_entries().and_then(|e| e.first().copied()).unwrap();
        let mut w = SnapWriter::new();
        conv.save(&mut w);
        let mut bytes = w.into_bytes();
        // The batch counter (u64), the retained slot's option tag (u8),
        // its entry count (u64), then the first entry's link (u32) and
        // its `fake` byte.
        let fake_at = 8 + 1 + 8 + 4;
        assert_eq!(bytes[fake_at], u8::from(first.fake));
        bytes[fake_at] = 2;
        let mut fresh = Converter::new(ConverterConfig::default());
        assert_eq!(
            fresh.restore(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("bool tag"))
        );
    }

    /// Trigger assignment as a scan over every broadcaster of the
    /// boundary for every target, keeping the last maximum: the reference
    /// the ranked walk of [`Converter::assign_boundary`] must reproduce.
    /// Returns the bursts and the untriggered next-slot links.
    fn scan_assign(
        net: &Network,
        cfg: &ConverterConfig,
        prev: &[SlotEntry],
        next: &[SlotEntry],
        rop_aps: &[NodeId],
    ) -> (Vec<BurstAssignment>, Vec<LinkId>) {
        let mut broadcasters: Vec<NodeId> = Vec::new();
        for e in prev {
            let l = net.link(e.link);
            for n in [l.sender, l.receiver] {
                if !broadcasters.contains(&n) {
                    broadcasters.push(n);
                }
            }
        }
        let mut targets: Vec<(NodeId, Option<LinkId>)> = Vec::new();
        let senders = next.iter().map(|e| (net.link(e.link).sender, Some(e.link)));
        for (n, link) in senders.chain(rop_aps.iter().map(|&ap| (ap, None))) {
            if !targets.iter().any(|&(t, _)| t == n) {
                targets.push((n, link));
            }
        }
        let mut assigned: Vec<Vec<NodeId>> = vec![Vec::new(); net.num_nodes()];
        let mut inbound = vec![0; net.num_nodes()];
        let mut untriggered = Vec::new();
        for pass in 0..cfg.max_inbound {
            for &(target, link) in &targets {
                if inbound[target.index()] > pass {
                    continue;
                }
                let mut best = None;
                let mut best_rss = f64::NEG_INFINITY;
                for &b in &broadcasters {
                    let out = &assigned[b.index()];
                    let rss = net.rss().get(b, target);
                    if b != target
                        && rss >= cfg.trigger_min_rss
                        && out.len() < cfg.max_outbound.min(MAX_OUT)
                        && !out.contains(&target)
                        && (best.is_none() || rss.value().total_cmp(&best_rss).is_ge())
                    {
                        best = Some(b);
                        best_rss = rss.value();
                    }
                }
                match best {
                    Some(b) => {
                        assigned[b.index()].push(target);
                        inbound[target.index()] += 1;
                    }
                    None if pass == 0 => untriggered.extend(link),
                    None => {}
                }
            }
        }
        broadcasters.sort_unstable();
        let bursts = broadcasters
            .iter()
            .filter(|b| !assigned[b.index()].is_empty())
            .map(|&b| BurstAssignment {
                broadcaster: b,
                targets: assigned[b.index()].iter().copied().collect(),
            })
            .collect();
        (bursts, untriggered)
    }

    /// The ranked walk assigns exactly what a scan over every broadcaster
    /// assigns: random boundaries (previous and next slots, polling APs)
    /// on T(10,2) and Fig 14 T(20,3) networks and on the Fig 1 and Fig 7
    /// presets, whose fabricated RSS values tie by the dozen, under random
    /// trigger caps and floors, several boundaries per converter.
    #[test]
    fn ranked_walk_assigns_like_a_full_broadcaster_scan() {
        use domino_testkit::{prop, prop_assert_eq};
        use domino_topology::builder::{random_placement, t_topology};
        use domino_topology::presets::fig1;
        use domino_topology::trace::{generate, TraceConfig};
        let trace = generate(&TraceConfig::default(), 0xD0311);
        let mut nets: Vec<Network> = (1..=3)
            .filter_map(|s| {
                (0..16).find_map(|a| t_topology(&trace, 10, 2, PhyParams::default(), s ^ (a << 32)))
            })
            .collect();
        nets.extend((1..=2).map(|s| random_placement(20, 3, 800.0, 30.0, PhyParams::default(), s)));
        nets.extend([fig1(PhyParams::default()), fig7(PhyParams::default())]);
        let graphs: Vec<ConflictGraph> = nets.iter().map(ConflictGraph::build).collect();
        prop::check("ranked walk assigns like a full broadcaster scan", |g| {
            let k = g.usize(0, nets.len() - 1);
            let (net, graph) = (&nets[k], &graphs[k]);
            let cfg = ConverterConfig {
                max_inbound: g.usize(1, 3),
                max_outbound: g.usize(1, 4),
                trigger_min_rss: Dbm(g.i64(-100, -60) as f64),
                ..ConverterConfig::default()
            };
            let mut conv = Converter::new(cfg.clone());
            conv.size_node_tables(net.num_nodes());
            let n_links = net.links().len() as u64;
            let aps = net.aps();
            let slot = |g: &mut prop::Gen| -> Vec<SlotEntry> {
                g.vec(0, 12, |g| SlotEntry {
                    link: LinkId(g.u64(0, n_links - 1) as u32),
                    fake: false,
                    kick_off: false,
                })
            };
            for _ in 0..g.usize(1, 4) {
                let prev = slot(g);
                let next = slot(g);
                let rop_aps: Vec<NodeId> = aps.iter().copied().filter(|_| g.u64(0, 3) == 0).collect();
                let mut bursts = Vec::new();
                conv.assign_boundary(net, graph, &prev, &next, &rop_aps, &mut bursts);
                let (want_bursts, want_untriggered) = scan_assign(net, &cfg, &prev, &next, &rop_aps);
                prop_assert_eq!(&bursts, &want_bursts);
                prop_assert_eq!(&conv.untriggered, &want_untriggered);
            }
        });
    }

    #[test]
    fn fake_links_can_be_disabled() {
        let net = fig7(PhyParams::default());
        let graph = ConflictGraph::build(&net);
        let cfg = ConverterConfig { insert_fake_links: false, ..ConverterConfig::default() };
        let mut conv = Converter::new(cfg);
        let outcome = conv.convert(&net, &graph, &fig7_strict(&net), &[]);
        assert_eq!(outcome.batch.fake_entries(), 0);
    }
}
