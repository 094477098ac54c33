//! Link conflict graphs (paper §3, "Identifying hidden and exposed
//! links").
//!
//! Each vertex is a directed link; an edge means the two links cannot
//! transmit in the same slot. Conflicts are computed from the RSS map: two
//! links conflict when they share a node, or when either link's data/ACK
//! reception would drop below the capture SINR with the other link's
//! endpoints transmitting. Hidden and exposed link pairs — the phenomena
//! DOMINO exploits — are *classified* from the same map, never
//! special-cased in the simulator.

use crate::link::LinkId;
use crate::network::Network;
use crate::node::NodeId;
use domino_phy::units::Dbm;
use std::sync::OnceLock;

/// The conflict graph over a network's links.
///
/// Each link's conflicts are one row of `u64` words: bit `j` of row `i` is
/// set when links `i` and `j` conflict. Rows are symmetric with an empty
/// diagonal. A greedy slot builder ORs each chosen link's row into a
/// [`LinkMask`], so one bit test tells whether a candidate conflicts with
/// any link chosen so far.
///
/// Built with the rows, and from them alone, is the cell relation the
/// converter's ROP-slot sharing needs: two APs' cells conflict when any
/// link of one conflicts with any link of the other.
///
/// Alongside, per receiver and ranked only when first read, the order in
/// which trigger assignment considers broadcasters: every other node,
/// loudest at that receiver first ([`ConflictGraph::loudest_at`]).
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    n: usize,
    /// Words per link row: `n` bits rounded up to whole words.
    words: usize,
    /// Row `i` is `rows[i * words..(i + 1) * words]`.
    rows: Vec<u64>,
    /// Words per cell row: one bit per node.
    cell_words: usize,
    /// Node-indexed: bit `b` of row `a` is set when a link whose AP is `a`
    /// conflicts with a link whose AP is `b` (clients' rows stay empty).
    cells: Vec<u64>,
    /// Node-indexed RSS rankings, each filled by its first
    /// [`ConflictGraph::loudest_at`].
    loudest: Box<[OnceLock<Ranking>]>,
}

/// One receiver's RSS ranking: every other node with its RSS there,
/// strongest first.
type Ranking = Box<[(NodeId, Dbm)]>;

impl ConflictGraph {
    /// Build the conflict graph of `net` from its RSS map with the
    /// data-phase rule ([`links_conflict`]) — the map used for
    /// hidden/exposed classification and statistics.
    pub fn build(net: &Network) -> ConflictGraph {
        let capture = net.phy().data_rate.capture_sinr_db();
        Self::build_with(net, |net, a, b| data_conflict(net, capture, a, b))
    }

    /// Build the *scheduling* conflict graph: the ACK-aware rule
    /// ([`links_conflict_with_acks`]), which is what a centralized
    /// scheduler must respect — two links whose ACK phases collide cannot
    /// share a slot reliably.
    pub fn build_for_scheduling(net: &Network) -> ConflictGraph {
        let capture = net.phy().data_rate.capture_sinr_db();
        Self::build_with(net, |net, a, b| ack_conflict(net, capture, a, b))
    }

    /// Build under a symmetric pairwise conflict `rule`, evaluated once
    /// per unordered pair.
    fn build_with(net: &Network, rule: impl Fn(&Network, LinkId, LinkId) -> bool) -> ConflictGraph {
        let n = net.links().len();
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for i in 0..n {
            for j in (i + 1)..n {
                if rule(net, LinkId(i as u32), LinkId(j as u32)) {
                    rows[i * words + j / 64] |= 1 << (j % 64);
                    rows[j * words + i / 64] |= 1 << (i % 64);
                }
            }
        }
        let nodes = net.num_nodes();
        let cell_words = nodes.div_ceil(64);
        let mut cells = vec![0u64; nodes * cell_words];
        for (i, li) in net.links().iter().enumerate() {
            let row = &rows[i * words..(i + 1) * words];
            for j in set_bits(row) {
                let b = net.links()[j].ap.index();
                cells[li.ap.index() * cell_words + b / 64] |= 1 << (b % 64);
            }
        }
        let loudest = (0..nodes).map(|_| OnceLock::new()).collect();
        ConflictGraph { n, words, rows, cell_words, cells, loudest }
    }

    /// Number of link vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The conflict row of `l`: bit `j` is set when `l` conflicts with
    /// link `j`.
    #[inline]
    pub fn row(&self, l: LinkId) -> &[u64] {
        let i = l.index();
        &self.rows[i * self.words..(i + 1) * self.words]
    }

    /// Do two links conflict?
    #[inline]
    pub fn conflicts(&self, a: LinkId, b: LinkId) -> bool {
        let j = b.index();
        self.row(a)[j / 64] >> (j % 64) & 1 == 1
    }

    /// Links conflicting with `l`, in id order.
    pub fn neighbors(&self, l: LinkId) -> Vec<LinkId> {
        set_bits(self.row(l)).map(|j| LinkId(j as u32)).collect()
    }

    /// Degree of a link vertex.
    pub fn degree(&self, l: LinkId) -> usize {
        self.row(l).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Do the cells of APs `a` and `b` conflict: does some link whose AP
    /// is `a` conflict with some link whose AP is `b`? False whenever
    /// either node has no links as their AP (a client, for one).
    #[inline]
    pub fn cells_conflict(&self, a: NodeId, b: NodeId) -> bool {
        let j = b.index();
        self.cells[a.index() * self.cell_words + j / 64] >> (j % 64) & 1 == 1
    }

    /// Every node but `rx` with its RSS at `rx`, strongest first under
    /// `f64::total_cmp`; equal values keep ascending node order. `net`
    /// must be the network the graph was built from.
    ///
    /// A row is ranked the first time it is read and kept for the graph's
    /// lifetime, so a run pays only for the receivers it asks about.
    pub fn loudest_at(&self, net: &Network, rx: NodeId) -> &[(NodeId, Dbm)] {
        self.loudest[rx.index()].get_or_init(|| {
            let rss = net.rss();
            let mut row: Vec<(NodeId, Dbm)> = (0..rss.len() as u32)
                .map(NodeId)
                .filter(|&tx| tx != rx)
                .map(|tx| (tx, rss.get(tx, rx)))
                .collect();
            row.sort_by(|a, b| b.1.value().total_cmp(&a.1.value()));
            row.into_boxed_slice()
        })
    }

    /// Add `l` and every link conflicting with it to `blocked`.
    #[inline]
    pub fn block(&self, blocked: &mut LinkMask, l: LinkId) {
        blocked.insert(l);
        for (w, &r) in blocked.words.iter_mut().zip(self.row(l)) {
            *w |= r;
        }
    }

    /// Is `candidate` compatible with every link in `set`?
    pub fn compatible_with_all(&self, candidate: LinkId, set: &[LinkId]) -> bool {
        set.iter().all(|&s| s != candidate && !self.conflicts(candidate, s))
    }

    /// Is `set` an independent set (pairwise non-conflicting, no
    /// duplicates)?
    pub fn is_independent(&self, set: &[LinkId]) -> bool {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if a == b || self.conflicts(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Extend the independent `set` to a *maximal* independent set by
    /// greedily adding, in the given order, each candidate that conflicts
    /// with no link of `set` and is not in it (the converter's fake-link
    /// insertion, paper §3.3). `blocked` is caller scratch: it ends
    /// holding `set` and every link conflicting with one of its links.
    pub fn extend_to_maximal_in_place(
        &self,
        set: &mut Vec<LinkId>,
        candidates: impl IntoIterator<Item = LinkId>,
        blocked: &mut LinkMask,
    ) {
        debug_assert!(self.is_independent(set));
        blocked.reset(self);
        for &s in set.iter() {
            self.block(blocked, s);
        }
        for c in candidates {
            if !blocked.contains(c) {
                set.push(c);
                self.block(blocked, c);
            }
        }
    }
}

/// A set of links as a bit mask over link ids, one conflict row wide: the
/// scratch a greedy slot builder grows with [`ConflictGraph::block`].
/// Reused across slots, it stops allocating once it has grown to its
/// graph's row width.
#[derive(Clone, Debug, Default)]
pub struct LinkMask {
    words: Vec<u64>,
}

impl LinkMask {
    /// Empty the mask and size it to `graph`'s rows.
    #[inline]
    pub fn reset(&mut self, graph: &ConflictGraph) {
        self.words.clear();
        self.words.resize(graph.words, 0);
    }

    /// Is `l` in the mask?
    #[inline]
    pub fn contains(&self, l: LinkId) -> bool {
        let j = l.index();
        self.words[j / 64] >> (j % 64) & 1 == 1
    }

    /// Add `l` to the mask.
    #[inline]
    pub fn insert(&mut self, l: LinkId) {
        let j = l.index();
        self.words[j / 64] |= 1 << (j % 64);
    }
}

/// Indices of the set bits of `row`, ascending.
fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Would concurrent operation of links `a` and `b` break either *data*
/// reception?
///
/// This is the standard measurement-based conflict rule (the paper builds
/// its map per Kashyap et al. / Reis et al.): link A conflicts with B when
/// B's sender corrupts A's receiver or vice versa. ACK-phase cross terms
/// are not part of the map — ACKs are an order of magnitude shorter than
/// data frames and the occasional ACK collision is recovered by the MAC's
/// retransmission rules, exactly as on real hardware. The stricter
/// ACK-aware predicate is available as [`links_conflict_with_acks`].
///
/// This per-pair form recomputes the capture threshold on every call;
/// [`ConflictGraph::build`] applies the same rule with the threshold
/// computed once.
pub fn links_conflict(net: &Network, a: LinkId, b: LinkId) -> bool {
    data_conflict(net, net.phy().data_rate.capture_sinr_db(), a, b)
}

/// The conservative variant of [`links_conflict`] that also protects both
/// links' ACK receptions against both endpoints of the other link.
pub fn links_conflict_with_acks(net: &Network, a: LinkId, b: LinkId) -> bool {
    ack_conflict(net, net.phy().data_rate.capture_sinr_db(), a, b)
}

/// [`links_conflict`] under a precomputed `capture` threshold (dB).
fn data_conflict(net: &Network, capture: f64, a: LinkId, b: LinkId) -> bool {
    let la = net.link(a);
    let lb = net.link(b);
    // Shared node: a radio cannot do two things in one slot.
    if la.sender == lb.sender
        || la.sender == lb.receiver
        || la.receiver == lb.sender
        || la.receiver == lb.receiver
    {
        return true;
    }
    let noise = net.phy().noise_floor;
    let broken = |sig_tx, sig_rx, interferer| {
        let sig = net.rss().get(sig_tx, sig_rx);
        let interf = net.rss().get(interferer, sig_rx);
        let sinr = (sig - interf.power_sum(noise)).value();
        sinr < capture
    };
    broken(la.sender, la.receiver, lb.sender) || broken(lb.sender, lb.receiver, la.sender)
}

/// [`links_conflict_with_acks`] under a precomputed `capture` threshold
/// (dB).
fn ack_conflict(net: &Network, capture: f64, a: LinkId, b: LinkId) -> bool {
    if data_conflict(net, capture, a, b) {
        return true;
    }
    let la = net.link(a);
    let lb = net.link(b);
    let noise = net.phy().noise_floor;
    let broken = |sig_tx, sig_rx, other: &crate::link::Link| {
        let sig = net.rss().get(sig_tx, sig_rx);
        let interf = net
            .rss()
            .get(other.sender, sig_rx)
            .power_sum(net.rss().get(other.receiver, sig_rx));
        let sinr = (sig - interf.power_sum(noise)).value();
        sinr < capture
    };
    broken(la.sender, la.receiver, lb)
        || broken(la.receiver, la.sender, lb)
        || broken(lb.sender, lb.receiver, la)
        || broken(lb.receiver, lb.sender, la)
}

/// Classification of a pair of links relative to carrier sensing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairKind {
    /// Conflicting and mutually sensable: ordinary contention.
    Contending,
    /// Conflicting but the senders cannot sense each other: hidden pair
    /// (DCF collides).
    Hidden,
    /// Non-conflicting but the senders sense each other: exposed pair
    /// (DCF serializes needlessly).
    Exposed,
    /// Non-conflicting and mutually inaudible: independent.
    Independent,
}

/// Classify a link pair (ignoring pairs that share a node, which are
/// trivially [`PairKind::Contending`]).
pub fn classify_pair(net: &Network, graph: &ConflictGraph, a: LinkId, b: LinkId) -> PairKind {
    let la = net.link(a);
    let lb = net.link(b);
    let sense = net.can_sense(la.sender, lb.sender) || net.can_sense(lb.sender, la.sender);
    match (graph.conflicts(a, b), sense) {
        (true, true) => PairKind::Contending,
        (true, false) => PairKind::Hidden,
        (false, true) => PairKind::Exposed,
        (false, false) => PairKind::Independent,
    }
}

/// Counts of hidden and exposed pairs over all unordered link pairs that
/// do not share a node (the statistic the paper quotes for T(10,2): "10
/// hidden link pairs and 62 exposed link pairs out of 720 possible link
/// pairs").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Unordered pairs examined.
    pub total: usize,
    /// Hidden pairs.
    pub hidden: usize,
    /// Exposed pairs.
    pub exposed: usize,
}

/// Compute [`PairStats`] for a network.
pub fn pair_stats(net: &Network, graph: &ConflictGraph) -> PairStats {
    let mut stats = PairStats::default();
    let n = net.links().len();
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (LinkId(i as u32), LinkId(j as u32));
            let (la, lb) = (net.link(a), net.link(b));
            if la.sender == lb.sender
                || la.sender == lb.receiver
                || la.receiver == lb.sender
                || la.receiver == lb.receiver
            {
                continue;
            }
            stats.total += 1;
            match classify_pair(net, graph, a, b) {
                PairKind::Hidden => stats.hidden += 1,
                PairKind::Exposed => stats.exposed += 1,
                _ => {}
            }
        }
    }
    stats
}

/// Fraction of unordered node pairs heard by a common receiver whose RSS
/// gap exceeds `gap_db` — the statistic behind the paper's "only 0.54 % of
/// all link pairs have an RSS difference greater than 38 dB".
pub fn rss_gap_fraction(net: &Network, gap_db: f64) -> f64 {
    let mut total = 0usize;
    let mut over = 0usize;
    let floor = net.phy().comm_range_rss;
    for rx in 0..net.num_nodes() as u32 {
        let rx = crate::node::NodeId(rx);
        let audible = net.rss().audible_at(rx, floor);
        for (i, &a) in audible.iter().enumerate() {
            for &b in &audible[i + 1..] {
                total += 1;
                let ra: Dbm = net.rss().get(a, rx);
                let rb: Dbm = net.rss().get(b, rx);
                if (ra.value() - rb.value()).abs() > gap_db {
                    over += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        over as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{make_node, PhyParams};
    use crate::node::{NodeId, NodeRole, Position};
    use crate::rss::RssMatrix;

    /// Two AP-client pairs with controllable cross-RSS.
    fn net_with(cross: &[(u32, u32, f64)]) -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
            make_node(2, NodeRole::Ap, None, Position::default()),
            make_node(3, NodeRole::Client, Some(2), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(4);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-50.0));
        rss.set_symmetric(NodeId(2), NodeId(3), Dbm(-50.0));
        for &(a, b, v) in cross {
            rss.set_symmetric(NodeId(a), NodeId(b), Dbm(v));
        }
        Network::new(nodes, rss, PhyParams::default())
    }

    #[test]
    fn isolated_pairs_do_not_conflict() {
        let net = net_with(&[]);
        let g = ConflictGraph::build(&net);
        // Downlink 0 (AP0->C1) vs downlink 2 (AP2->C3).
        assert!(!g.conflicts(LinkId(0), LinkId(2)));
        // Same pair's own up/down conflict (shared nodes).
        assert!(g.conflicts(LinkId(0), LinkId(1)));
    }

    #[test]
    fn strong_interference_creates_conflict() {
        // AP0 is loud at C3: AP2->C3 cannot run while AP0->C1 runs.
        let net = net_with(&[(0, 3, -55.0)]);
        let g = ConflictGraph::build(&net);
        assert!(g.conflicts(LinkId(0), LinkId(2)));
    }

    #[test]
    fn hidden_pair_classified() {
        // Senders AP0 and AP2 cannot hear each other, but AP0 corrupts C3.
        let net = net_with(&[(0, 3, -55.0)]);
        let g = ConflictGraph::build(&net);
        assert_eq!(classify_pair(&net, &g, LinkId(0), LinkId(2)), PairKind::Hidden);
        let stats = pair_stats(&net, &g);
        assert!(stats.hidden >= 1);
    }

    #[test]
    fn exposed_pair_classified() {
        // Senders hear each other but both receptions survive: exposed.
        let net = net_with(&[(0, 2, -70.0)]);
        let g = ConflictGraph::build(&net);
        assert_eq!(classify_pair(&net, &g, LinkId(0), LinkId(2)), PairKind::Exposed);
        let stats = pair_stats(&net, &g);
        assert!(stats.exposed >= 1);
    }

    #[test]
    fn independent_pair_classified() {
        let net = net_with(&[]);
        let g = ConflictGraph::build(&net);
        assert_eq!(classify_pair(&net, &g, LinkId(0), LinkId(2)), PairKind::Independent);
    }

    #[test]
    fn weak_interference_is_tolerated() {
        // -50 signal vs -90 interference: SINR ≈ 38.5 dB, far above
        // capture.
        let net = net_with(&[(0, 3, -90.0)]);
        let g = ConflictGraph::build(&net);
        assert!(!g.conflicts(LinkId(0), LinkId(2)));
    }

    #[test]
    fn independent_set_operations() {
        let net = net_with(&[]);
        let g = ConflictGraph::build(&net);
        assert!(g.is_independent(&[LinkId(0), LinkId(2)]));
        assert!(!g.is_independent(&[LinkId(0), LinkId(1)]));
        assert!(!g.is_independent(&[LinkId(0), LinkId(0)]));

        let mut set = vec![LinkId(0)];
        let all: Vec<LinkId> = (0..4).map(LinkId).collect();
        let mut blocked = LinkMask::default();
        g.extend_to_maximal_in_place(&mut set, all.iter().copied(), &mut blocked);
        assert!(g.is_independent(&set));
        // Link 2 or 3 must have been added (other pair is compatible).
        assert_eq!(set.len(), 2);
        // The mask ends holding the set and everything it blocks: here,
        // every link.
        assert!(all.iter().all(|&l| blocked.contains(l)));
        // Maximality: nothing else fits.
        for &c in &all {
            if !set.contains(&c) {
                assert!(!g.compatible_with_all(c, &set));
            }
        }
    }

    #[test]
    fn degree_and_neighbors_agree() {
        let net = net_with(&[(0, 3, -55.0)]);
        let g = ConflictGraph::build(&net);
        for i in 0..g.len() as u32 {
            assert_eq!(g.degree(LinkId(i)), g.neighbors(LinkId(i)).len());
        }
    }

    #[test]
    fn cells_conflict_when_any_of_their_links_do() {
        // AP0 is loud at C3: downlink AP0->C1 breaks AP2->C3, so the two
        // cells conflict both ways; each cell conflicts with itself (its
        // up- and downlink share the AP) and clients have no cell.
        let g = ConflictGraph::build(&net_with(&[(0, 3, -55.0)]));
        assert!(g.cells_conflict(NodeId(0), NodeId(2)));
        assert!(g.cells_conflict(NodeId(2), NodeId(0)));
        assert!(g.cells_conflict(NodeId(0), NodeId(0)));
        assert!(!g.cells_conflict(NodeId(1), NodeId(2)));
        assert!(!g.cells_conflict(NodeId(2), NodeId(3)));
        let quiet = ConflictGraph::build(&net_with(&[]));
        assert!(!quiet.cells_conflict(NodeId(0), NodeId(2)));
    }

    #[test]
    fn loudest_at_ranks_every_other_node_strongest_first() {
        // At C3: its AP2 at -50 dBm, then AP0 and C1 tied at -55 dBm in
        // node order.
        let net = net_with(&[(0, 3, -55.0), (1, 3, -55.0)]);
        let g = ConflictGraph::build(&net);
        let row = g.loudest_at(&net, NodeId(3));
        assert_eq!(row, &[(NodeId(2), Dbm(-50.0)), (NodeId(0), Dbm(-55.0)), (NodeId(1), Dbm(-55.0))]);
        // A row is ranked once and kept.
        assert!(std::ptr::eq(row, g.loudest_at(&net, NodeId(3))));
        // Unheard nodes rank last, at the floor.
        assert_eq!(g.loudest_at(&net, NodeId(0))[2], (NodeId(2), Dbm::FLOOR));
    }

    #[test]
    fn rss_gap_fraction_bounds() {
        let net = net_with(&[(0, 2, -70.0)]);
        let f = rss_gap_fraction(&net, 38.0);
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn ack_aware_variant_is_stricter() {
        // Interference only at the *sender* of link 0 (which receives the
        // ACK): we poison AP0's reception from C1 by making C3 loud at
        // AP0. The data-phase map tolerates this; the ACK-aware variant
        // flags it.
        let net = net_with(&[(3, 0, -52.0)]);
        // Link 0 = AP0->C1 (down), link 3 = C3->AP2 (up).
        assert!(!links_conflict(&net, LinkId(0), LinkId(3)));
        assert!(links_conflict_with_acks(&net, LinkId(0), LinkId(3)));
    }
}
