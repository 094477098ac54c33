//! The RAND-style greedy slot scheduler (paper §4.2.1).
//!
//! "To calculate the schedule for each slot, the first link l from the
//! queue of links Q that has data to send is added to a set C(l). Then we
//! add another link l′ from Q − C(l) to C(l) if l′ is not conflicting
//! with any link in C(l). … All of the links in C(l) are then scheduled
//! in this slot. To improve the fairness, we move the links in C(l) to
//! the end of Q."
//!
//! The scheduler works from the controller's *view* of per-link backlog
//! (AP queues via the wired network, client queues via ROP) and consumes
//! one packet of backlog per scheduled slot.

use crate::schedule::StrictSchedule;
use domino_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use domino_topology::{ConflictGraph, LinkId, LinkMask};

/// Rotating-queue greedy scheduler.
///
/// The pools and masks at the bottom are scratch: a caller that hands
/// each schedule back via [`RandScheduler::recycle`] keeps the
/// steady-state compute loop allocation-free.
#[derive(Clone, Debug)]
pub struct RandScheduler {
    order: Vec<LinkId>,
    slot_pool: Vec<Vec<LinkId>>,
    spare: Vec<StrictSchedule>,
    /// The slot being built: its links and every link conflicting with
    /// one of them.
    blocked: LinkMask,
    /// The slot's links, which the fairness rotation moves to the back.
    chosen_mask: LinkMask,
}

impl RandScheduler {
    /// A scheduler over `num_links` links in initial id order.
    pub fn new(num_links: usize) -> RandScheduler {
        RandScheduler {
            order: (0..num_links as u32).map(LinkId).collect(),
            slot_pool: Vec::new(),
            spare: Vec::new(),
            blocked: LinkMask::default(),
            chosen_mask: LinkMask::default(),
        }
    }

    /// Hand a consumed schedule back for reuse by a later
    /// [`RandScheduler::schedule_batch`].
    pub fn recycle(&mut self, mut s: StrictSchedule) {
        for mut v in s.slots.drain(..) {
            v.clear();
            self.slot_pool.push(v);
        }
        self.spare.push(s);
    }

    /// Current fairness order (mostly for inspection/testing).
    pub fn order(&self) -> &[LinkId] {
        &self.order
    }

    /// Produce a strict schedule of at most `max_slots` slots, consuming
    /// from `backlog` (packets per link, indexed by `LinkId::index`).
    ///
    /// Each slot takes, in fairness order, every backlogged link that
    /// conflicts with none taken before it: a link fits iff its bit is
    /// clear in the slot's blocked mask. Stops early when no link has
    /// backlog left. Fairness rotation is applied after every slot.
    pub fn schedule_batch(
        &mut self,
        graph: &ConflictGraph,
        backlog: &mut [u32],
        max_slots: usize,
    ) -> StrictSchedule {
        assert_eq!(backlog.len(), self.order.len(), "backlog size mismatch");
        let mut schedule = self.spare.pop().unwrap_or_default();
        debug_assert!(schedule.slots.is_empty());
        for _ in 0..max_slots {
            let mut chosen = self.slot_pool.pop().unwrap_or_default();
            chosen.clear();
            self.blocked.reset(graph);
            for &l in &self.order {
                if backlog[l.index()] > 0 && !self.blocked.contains(l) {
                    chosen.push(l);
                    graph.block(&mut self.blocked, l);
                }
            }
            if chosen.is_empty() {
                self.slot_pool.push(chosen);
                break;
            }
            self.chosen_mask.reset(graph);
            for &l in &chosen {
                backlog[l.index()] -= 1;
                self.chosen_mask.insert(l);
            }
            // Fairness: move the scheduled links to the end of Q,
            // preserving their relative order.
            let taken = &self.chosen_mask;
            self.order.retain(|&l| !taken.contains(l));
            self.order.extend_from_slice(&chosen);
            schedule.slots.push(chosen);
        }
        schedule
    }
}

impl Snapshot for RandScheduler {
    /// Dynamic state: the fairness rotation order. The recycling pools
    /// are scratch and the link universe is configuration.
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.order.len() as u64);
        for &l in &self.order {
            w.put_u32(l.0);
        }
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let len = r.get_len()?;
        if len != self.order.len() {
            return Err(SnapError::Corrupt("scheduler order length"));
        }
        for slot in &mut self.order {
            *slot = LinkId(r.get_u32()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_phy::units::Dbm;
    use domino_topology::network::{make_node, Network, PhyParams};
    use domino_topology::node::{NodeId, NodeRole, Position};
    use domino_topology::rss::RssMatrix;

    /// Three AP-client pairs where downlinks 0 and 2 (link ids 0 and 4)
    /// conflict, everything else across pairs is independent.
    fn fixture() -> (Network, ConflictGraph) {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
            make_node(2, NodeRole::Ap, None, Position::default()),
            make_node(3, NodeRole::Client, Some(2), Position::default()),
            make_node(4, NodeRole::Ap, None, Position::default()),
            make_node(5, NodeRole::Client, Some(4), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(6);
        for (a, c) in [(0u32, 1u32), (2, 3), (4, 5)] {
            rss.set_symmetric(NodeId(a), NodeId(c), Dbm(-55.0));
        }
        // AP0 and AP4 interfere at each other's clients.
        rss.set_symmetric(NodeId(0), NodeId(5), Dbm(-58.0));
        rss.set_symmetric(NodeId(4), NodeId(1), Dbm(-58.0));
        let net = Network::new(nodes, rss, PhyParams::default());
        let graph = ConflictGraph::build(&net);
        (net, graph)
    }

    #[test]
    fn slots_are_independent_sets() {
        let (net, graph) = fixture();
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = vec![3u32; net.links().len()];
        let s = sched.schedule_batch(&graph, &mut backlog, 10);
        assert!(!s.is_empty());
        for slot in &s.slots {
            assert!(graph.is_independent(slot), "slot {slot:?} conflicts");
        }
    }

    #[test]
    fn consumes_backlog() {
        let (net, graph) = fixture();
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = vec![0u32; net.links().len()];
        backlog[0] = 2; // only downlink 0 has traffic
        let s = sched.schedule_batch(&graph, &mut backlog, 10);
        assert_eq!(s.len(), 2, "exactly two slots for two packets");
        assert_eq!(s.slots[0], vec![LinkId(0)]);
        assert_eq!(backlog[0], 0);
    }

    #[test]
    fn empty_backlog_gives_empty_schedule() {
        let (net, graph) = fixture();
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = vec![0u32; net.links().len()];
        assert!(sched.schedule_batch(&graph, &mut backlog, 5).is_empty());
    }

    #[test]
    fn conflicting_links_never_share_a_slot() {
        let (net, graph) = fixture();
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = vec![5u32; net.links().len()];
        let s = sched.schedule_batch(&graph, &mut backlog, 20);
        // Links 0 (AP0->C1) and 4 (AP4->C5) conflict by construction.
        for slot in &s.slots {
            assert!(!(slot.contains(&LinkId(0)) && slot.contains(&LinkId(4))));
        }
    }

    #[test]
    fn fairness_rotation_alternates_conflicting_links() {
        let (net, graph) = fixture();
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = vec![0u32; net.links().len()];
        backlog[0] = 4;
        backlog[4] = 4;
        let s = sched.schedule_batch(&graph, &mut backlog, 8);
        assert_eq!(s.len(), 8);
        // The two conflicting downlinks must alternate, not starve.
        let first: Vec<bool> = s.slots.iter().map(|sl| sl.contains(&LinkId(0))).collect();
        let count0 = first.iter().filter(|&&b| b).count();
        assert_eq!(count0, 4, "link 0 scheduled {count0}/8");
        assert!(first[0] != first[1], "expected alternation, got {first:?}");
    }

    #[test]
    fn greedy_packs_compatible_links_together() {
        let (net, graph) = fixture();
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = vec![0u32; net.links().len()];
        backlog[0] = 1; // AP0 downlink
        backlog[2] = 1; // AP2 downlink (independent of everything)
        let s = sched.schedule_batch(&graph, &mut backlog, 5);
        assert_eq!(s.len(), 1, "both links fit one slot");
        assert_eq!(s.slots[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "backlog size mismatch")]
    fn backlog_size_checked() {
        let (_, graph) = fixture();
        let mut sched = RandScheduler::new(12);
        let mut backlog = vec![0u32; 3];
        let _ = sched.schedule_batch(&graph, &mut backlog, 1);
    }
}
