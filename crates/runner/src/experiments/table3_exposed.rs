//! Table 3: aggregate throughput with four pairs of exposed downlinks —
//! Fig 13(a), where all links are mutually exposed, vs Fig 13(b), where
//! three senders share one common exposed neighbour.
//!
//! One shard per (topology, scheme) simulation.

use super::util::{mbps, outln, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder, Workload};
use domino_stats::Table;
use domino_topology::PhyParams;

/// Registry key.
pub const NAME: &str = "table3_exposed";

const TOPOLOGIES: [&str; 2] = ["Fig 13(a)", "Fig 13(b)"];
const SCHEMES: [Scheme; 3] = [Scheme::Domino, Scheme::Centaur, Scheme::Dcf];

/// Build the plan: 2 topologies × 3 schemes = 6 shards.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(5.0);
    let mut shards: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for topo in 0..TOPOLOGIES.len() {
        for &scheme in &SCHEMES {
            shards.push(Box::new(move || {
                let net = if topo == 0 {
                    scenarios::fig13a(PhyParams::default())
                } else {
                    scenarios::fig13b(PhyParams::default())
                };
                let downlinks: Vec<_> = net
                    .links()
                    .iter()
                    .filter(|l| l.is_downlink())
                    .map(|l| l.id)
                    .collect();
                SimulationBuilder::new(net)
                    .workload(Workload::udp_saturated(&downlinks))
                    .duration_s(duration)
                    .seed(seed)
                    .run(scheme)
                    .aggregate_mbps()
            }));
        }
    }
    Plan::new(shards, |cells: Vec<f64>| {
        let mut t = Table::new(
            "Table 3 — aggregate throughput with 4 exposed downlink pairs (Mb/s)",
            &["topology", "DOMINO", "CENTAUR", "DCF"],
        );
        for (i, name) in TOPOLOGIES.iter().enumerate() {
            let row: Vec<String> = std::iter::once(name.to_string())
                .chain((0..SCHEMES.len()).map(|j| mbps(cells[i * SCHEMES.len() + j])))
                .collect();
            t.row(&row);
        }
        let mut out = String::new();
        push_block(&mut out, &t.render());
        outln!(out, "paper: 13a 32.72/28.60/9.97, 13b 33.85/18.35/22.13");
        out
    })
}
