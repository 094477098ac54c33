//! Fig 2: per-link and overall throughput on the Fig 1 motivation
//! topology (AP1→C1, C2→AP2, AP3→C3 saturated) under all four schemes.
//!
//! One shard per scheme; each run is a pure function of `(config, seed)`,
//! so the merged table is byte-identical to the serial binary.

use super::util::{mbps, outln, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder, Workload};
use domino_stats::Table;
use domino_topology::{LinkId, NodeId};

/// Registry key.
pub const NAME: &str = "fig02_motivation";

const SCHEMES: [Scheme; 4] = [Scheme::Dcf, Scheme::Centaur, Scheme::Domino, Scheme::Omniscient];

struct Cell {
    scheme: Scheme,
    link_mbps: [f64; 3],
    overall: f64,
}

domino_sim::snap_value!(Cell { scheme, link_mbps, overall });

fn flow_links(net: &domino_topology::Network) -> [LinkId; 3] {
    let l_ap1 = net
        .links()
        .iter()
        .find(|l| l.is_downlink() && l.sender == NodeId(0))
        .expect("fig1 AP1 downlink")
        .id;
    let l_c2 = net
        .links()
        .iter()
        .find(|l| !l.is_downlink() && l.ap == NodeId(2))
        .expect("fig1 C2 uplink")
        .id;
    let l_ap3 = net
        .links()
        .iter()
        .find(|l| l.is_downlink() && l.sender == NodeId(4))
        .expect("fig1 AP3 downlink")
        .id;
    [l_ap1, l_c2, l_ap3]
}

/// Build the plan: one shard per scheme on the Fig 1 network.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(5.0);
    let shards: Vec<Box<dyn FnOnce() -> Cell + Send>> = SCHEMES
        .iter()
        .map(|&scheme| -> Box<dyn FnOnce() -> Cell + Send> {
            Box::new(move || {
                let net = scenarios::fig1();
                let links = flow_links(&net);
                let builder = SimulationBuilder::new(net)
                    .workload(Workload::udp_saturated(&links))
                    .duration_s(duration)
                    .seed(seed);
                let r = builder.run(scheme);
                Cell {
                    scheme,
                    link_mbps: [
                        r.link_mbps(links[0]),
                        r.link_mbps(links[1]),
                        r.link_mbps(links[2]),
                    ],
                    overall: r.aggregate_mbps(),
                }
            })
        })
        .collect();
    Plan::new(shards, |cells: Vec<Cell>| {
        let mut table = Table::new(
            "Fig 2 — throughput on the Fig 1 network (Mb/s)",
            &["scheme", "AP1->C1", "C2->AP2", "AP3->C3", "overall"],
        );
        for c in &cells {
            table.row(&[
                c.scheme.label().to_string(),
                mbps(c.link_mbps[0]),
                mbps(c.link_mbps[1]),
                mbps(c.link_mbps[2]),
                mbps(c.overall),
            ]);
        }
        let mut out = String::new();
        push_block(&mut out, &table.render());

        let get = |s: Scheme| cells.iter().find(|c| c.scheme == s).map(|c| c.overall).unwrap_or(0.0);
        outln!(
            out,
            "omniscient/DCF = {:.2} (paper: 1.76), omniscient/CENTAUR = {:.2} (paper: 1.61), DOMINO/omniscient = {:.2} (paper: ~close)",
            get(Scheme::Omniscient) / get(Scheme::Dcf),
            get(Scheme::Omniscient) / get(Scheme::Centaur),
            get(Scheme::Domino) / get(Scheme::Omniscient),
        );
        out
    })
}
