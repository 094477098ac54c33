//! Fig 14: CDF of the DOMINO/DCF throughput gain over repeated random
//! T(20,3) topologies (80 nodes in an 800 m × 800 m area, ns-3 default
//! path loss, saturated-ish UDP).
//!
//! One shard per (topology, scheme) simulation — the per-topology seeds
//! (`seed + i*1000`) match the original serial binary exactly, so the
//! output is byte-identical at equal scale.

use super::util::outln;
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder};
use domino_stats::Cdf;

/// Registry key.
pub const NAME: &str = "fig14_gain_cdf";

/// Build the plan: `runs` random topologies × {DOMINO, DCF} shards.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let runs = scale.trials(10, 50);
    let duration = scale.duration(2.0);

    let mut shards: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for i in 0..runs {
        let topo_seed = seed + i as u64 * 1000;
        for scheme in [Scheme::Domino, Scheme::Dcf] {
            shards.push(Box::new(move || {
                let net = scenarios::random_t(20, 3, topo_seed);
                SimulationBuilder::new(net)
                    .udp(10e6, 10e6)
                    .duration_s(duration)
                    .seed(topo_seed)
                    .run(scheme)
                    .aggregate_mbps()
            }));
        }
    }
    Plan::new(shards, move |cells: Vec<f64>| {
        let mut out = String::new();
        let mut gains = Vec::with_capacity(runs);
        for i in 0..runs {
            let (domino, dcf) = (cells[2 * i], cells[2 * i + 1]);
            let gain = domino / dcf;
            outln!(
                out,
                "run {i:>2}: DOMINO {domino:.2} Mb/s, DCF {dcf:.2} Mb/s, gain {gain:.2}x"
            );
            gains.push(gain);
        }

        let cdf = Cdf::from_samples(gains);
        outln!(
            out,
            "\n## Fig 14 — CDF of DOMINO/DCF throughput gain ({runs} random T(20,3) topologies)\n"
        );
        for (x, p) in cdf.points() {
            outln!(out, "{x:5.2}x  {p:4.2}  {}", "#".repeat((p * 50.0) as usize));
        }
        let (lo, hi) = cdf.range();
        outln!(
            out,
            "\nrange {lo:.2}x – {hi:.2}x, median {:.2}x (paper: 1.22x – 1.96x, median 1.58x)",
            cdf.median()
        );
        out
    })
}
