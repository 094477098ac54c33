//! Cross-crate integration tests: the full pipeline from topology
//! generation through scheduling, conversion, and the four MAC engines.

use domino::core::{scenarios, Scheme, SimulationBuilder, Workload};
use domino::scheduler::{Converter, ConverterConfig, RandScheduler};
use domino::topology::conflict::{pair_stats, ConflictGraph};
use domino::topology::{LinkId, PhyParams};

#[test]
fn trace_to_topology_to_conflicts() {
    // The canonical trace supports the paper's T(10,2) with a pair
    // structure near the published one (10 hidden / 62 exposed of 720).
    let net = scenarios::standard_t(10, 2, 1);
    assert_eq!(net.num_nodes(), 30);
    assert_eq!(net.links().len(), 40);
    let graph = ConflictGraph::build(&net);
    let stats = pair_stats(&net, &graph);
    assert_eq!(stats.total, 720, "the paper counts 720 non-sharing link pairs");
    assert!(stats.hidden >= 2 && stats.hidden <= 40, "hidden={}", stats.hidden);
    assert!(stats.exposed >= 20 && stats.exposed <= 120, "exposed={}", stats.exposed);
}

/// Both graph builds agree with their per-pair reference rules on every
/// link pair of Fig 12's T(10,2) and of Fig 14's first three random
/// T(20,3) topologies, and their edge counts are pinned.
#[test]
fn conflict_graph_builds_agree_with_the_pair_rules() {
    use domino::topology::conflict::{links_conflict, links_conflict_with_acks};
    let nets = [
        ("T(10,2) seed 1", scenarios::standard_t(10, 2, 1), (284, 332)),
        ("random T(20,3) seed 1", scenarios::random_t(20, 3, 1), (424, 496)),
        ("random T(20,3) seed 1001", scenarios::random_t(20, 3, 1001), (446, 484)),
        ("random T(20,3) seed 2001", scenarios::random_t(20, 3, 2001), (375, 484)),
    ];
    for (name, net, (data_edges, sched_edges)) in nets {
        let data = ConflictGraph::build(&net);
        let sched = ConflictGraph::build_for_scheduling(&net);
        let n = net.links().len();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (LinkId(i as u32), LinkId(j as u32));
                if i != j {
                    let rules = (links_conflict(&net, a, b), links_conflict_with_acks(&net, a, b));
                    let graphs = (data.conflicts(a, b), sched.conflicts(a, b));
                    assert_eq!(graphs, rules, "{name}: {a:?}/{b:?}");
                }
            }
        }
        let edges = |g: &ConflictGraph| {
            (0..n).map(|i| g.degree(LinkId(i as u32))).sum::<usize>() / 2
        };
        assert_eq!((edges(&data), edges(&sched)), (data_edges, sched_edges), "{name}");
    }
}

#[test]
fn schedule_convert_execute_round_trip() {
    // Strict schedule -> relative schedule -> executable batch, with
    // invariants held at every step.
    let net = scenarios::standard_t(6, 2, 3);
    let graph = ConflictGraph::build_for_scheduling(&net);
    let mut sched = RandScheduler::new(net.links().len());
    let mut conv = Converter::new(ConverterConfig::default());

    let mut backlog = vec![5u32; net.links().len()];
    let strict = sched.schedule_batch(&graph, &mut backlog, 5);
    assert!(!strict.is_empty());
    for slot in &strict.slots {
        assert!(graph.is_independent(slot));
    }

    let outcome = conv.convert(&net, &graph, &strict, &net.aps());
    for slot in &outcome.batch.slots {
        let links: Vec<LinkId> = slot.entries.iter().map(|e| e.link).collect();
        assert!(graph.is_independent(&links), "converted slot conflicts");
        for b in &slot.bursts {
            assert!(b.targets.len() <= 4, "outbound cap");
        }
    }
}

#[test]
fn all_four_schemes_run_on_the_same_scenario() {
    let net = scenarios::standard_t(4, 2, 5);
    let builder = SimulationBuilder::new(net).udp(4e6, 1e6).duration_s(0.5).seed(5);
    for scheme in Scheme::ALL {
        let r = builder.run(scheme);
        assert!(
            r.aggregate_mbps() > 1.0,
            "{} delivered only {} Mb/s",
            scheme.label(),
            r.aggregate_mbps()
        );
        assert!(r.fairness() > 0.0 && r.fairness() <= 1.0);
    }
}

#[test]
fn domino_beats_dcf_on_the_motivation_network() {
    // The paper's headline on its running example, with Fig 2's flows:
    // AP1->C1, C2->AP2, AP3->C3.
    use domino::topology::NodeId;
    let net = scenarios::fig1();
    let l_ap1 = net.links().iter().find(|l| l.is_downlink() && l.sender == NodeId(0)).unwrap().id;
    let l_c2 = net.links().iter().find(|l| !l.is_downlink() && l.ap == NodeId(2)).unwrap().id;
    let l_ap3 = net.links().iter().find(|l| l.is_downlink() && l.sender == NodeId(4)).unwrap().id;
    let b = SimulationBuilder::new(net)
        .workload(Workload::udp_saturated(&[l_ap1, l_c2, l_ap3]))
        .duration_s(1.5)
        .seed(2);
    let domino = b.run(Scheme::Domino);
    let dcf = b.run(Scheme::Dcf);
    assert!(
        domino.gain_over(&dcf) > 1.2,
        "DOMINO {} vs DCF {}",
        domino.aggregate_mbps(),
        dcf.aggregate_mbps()
    );
}

#[test]
fn runs_are_reproducible_across_the_whole_stack() {
    let net = scenarios::standard_t(5, 2, 9);
    let b = SimulationBuilder::new(net).udp(6e6, 2e6).duration_s(0.5).seed(77);
    for scheme in Scheme::ALL {
        let a = b.run(scheme);
        let c = b.run(scheme);
        assert!(a.stats == c.stats, "{} not deterministic", scheme.label());
    }
}

#[test]
fn usrp_scenarios_order_domino_gains_like_table2() {
    // ET gains most, HT next, SC least (Table 2's structure).
    let mut gains = Vec::new();
    for scenario in scenarios::UsrpScenario::ALL {
        let net = scenarios::usrp_scenario(scenario);
        let downlinks: Vec<LinkId> = net
            .links()
            .iter()
            .filter(|l| l.is_downlink())
            .map(|l| l.id)
            .collect();
        let cfg = domino::mac::domino::DominoConfig {
            converter: ConverterConfig { insert_rop: false, ..ConverterConfig::default() },
            ..Default::default()
        };
        let b = SimulationBuilder::new(net)
            .workload(Workload::udp_saturated(&downlinks))
            .duration_s(2.0)
            .seed(3)
            .domino_config(cfg);
        gains.push(b.run(Scheme::Domino).gain_over(&b.run(Scheme::Dcf)));
    }
    let (sc, ht, et) = (gains[0], gains[1], gains[2]);
    assert!(et > ht, "ET {et} should beat HT {ht}");
    assert!(ht > sc, "HT {ht} should beat SC {sc}");
    assert!(et > 1.5, "ET gain {et}");
}

#[test]
fn preset_phy_params_are_consistent() {
    let phy = PhyParams::default();
    assert!(phy.cs_threshold.value() < phy.comm_range_rss.value());
    assert!(phy.noise_floor.value() < phy.cs_threshold.value());
}

/// The liveness monitor's default budget is at least twice the busiest
/// 1-ms window of the suite's heaviest cells: Fig 12's TCP/DOMINO cell,
/// where every superseded retransmission timer left queued would pop at
/// one instant, and a Fig 14 random T(20,3) UDP cell, the densest network.
#[test]
fn busiest_liveness_window_is_at_most_half_the_default_budget() {
    use domino::core::{ProfHandle, TraceEvent, TraceHandle};
    use domino::sim::engine::DEFAULT_EVENT_BUDGET;
    let fig12 = SimulationBuilder::new(scenarios::standard_t(10, 2, 1));
    let fig14 = SimulationBuilder::new(scenarios::random_t(20, 3, 1));
    let cells = [
        ("Fig 12 TCP 10/4", fig12.tcp(10e6, 4e6).duration_s(1.0)),
        ("random T(20,3)", fig14.udp(10e6, 10e6).duration_s(0.25)),
    ];
    for (name, b) in cells {
        let (trace, sink) = TraceHandle::mem();
        let report = b.seed(1).run_profiled(Scheme::Domino, trace, ProfHandle::off());
        assert_eq!(report.stats.faults.livelocks, 0, "{name}");
        let busiest = sink
            .take()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::LivelockCheck { events } => Some(events),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(busiest > 0, "{name}: no liveness window closed");
        assert!(
            busiest <= DEFAULT_EVENT_BUDGET / 2,
            "{name}: {busiest} events in one window, budget {DEFAULT_EVENT_BUDGET}"
        );
    }
}
