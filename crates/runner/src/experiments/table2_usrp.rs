//! Table 2: aggregate throughput of DOMINO vs DCF in the three USRP
//! prototype scenarios — same contention domain (SC), hidden terminals
//! (HT), exposed terminals (ET) — two saturated AP→client pairs.
//!
//! One shard per (scenario, scheme) simulation; see the original
//! experiment notes in DESIGN.md for the documented USRP-slowdown
//! substitution.

use super::util::{mbps, outln, push_block, ratio};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder, Workload};
use domino_mac::domino::DominoConfig;
use domino_scheduler::ConverterConfig;
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "table2_usrp";

/// Throughput scale between our 12 Mb/s PHY simulation and the paper's
/// USRP prototype (their DCF-SC measured 2.76 kb/s vs our ~7.4 Mb/s).
const USRP_SLOWDOWN: f64 = 2680.0;

/// Build the plan: 3 scenarios × {DOMINO, DCF} = 6 shards.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(5.0);
    let mut shards: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for scenario in scenarios::UsrpScenario::ALL {
        for scheme in [Scheme::Domino, Scheme::Dcf] {
            shards.push(Box::new(move || {
                let net = scenarios::usrp_scenario(scenario);
                let downlinks: Vec<_> = net
                    .links()
                    .iter()
                    .filter(|l| l.is_downlink())
                    .map(|l| l.id)
                    .collect();
                // The prototype preloads schedules and has saturated queues; no
                // ROP runs (paper §4.1: "the transmission schedules are already
                // loaded in each AP").
                let domino_cfg = DominoConfig {
                    converter: ConverterConfig { insert_rop: false, ..ConverterConfig::default() },
                    ..DominoConfig::default()
                };
                SimulationBuilder::new(net)
                    .workload(Workload::udp_saturated(&downlinks))
                    .duration_s(duration)
                    .seed(seed)
                    .domino_config(domino_cfg)
                    .run(scheme)
                    .aggregate_mbps()
            }));
        }
    }
    Plan::new(shards, |cells: Vec<f64>| {
        let mut t = Table::new(
            "Table 2 — aggregate throughput, 2 saturated downlink pairs",
            &["scenario", "DOMINO (Mb/s)", "DCF (Mb/s)", "gain", "DOMINO (USRP-eq kb/s)", "DCF (USRP-eq kb/s)"],
        );
        for (i, scenario) in scenarios::UsrpScenario::ALL.iter().enumerate() {
            let (domino, dcf) = (cells[2 * i], cells[2 * i + 1]);
            t.row(&[
                scenario.label().to_string(),
                mbps(domino),
                mbps(dcf),
                ratio(domino / dcf),
                format!("{:.2}", domino * 1000.0 / USRP_SLOWDOWN),
                format!("{:.2}", dcf * 1000.0 / USRP_SLOWDOWN),
            ]);
        }
        let mut out = String::new();
        push_block(&mut out, &t.render());
        outln!(out, "paper (kb/s): SC 4.25/2.76 (1.54x), HT 5.42/1.62 (3.35x), ET 9.18/2.72 (3.38x)");
        out
    })
}
