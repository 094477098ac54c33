//! Fig 11: maximum transmission misalignment at the start of the
//! contention-free period vs slot index, for wired latency jitter of
//! 20/40/60/80 µs on T(10,2).
//!
//! One shard per jitter level.

use super::util::{outln, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder};
use domino_mac::domino::DominoConfig;
use domino_stats::Table;
use domino_wired::WiredLatency;

/// Registry key.
pub const NAME: &str = "fig11_misalignment";

const JITTERS: [f64; 4] = [20.0, 40.0, 60.0, 80.0];
const SLOTS: usize = 8;

/// Build the plan: one shard per wired-jitter level.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(0.5);
    let shards: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>> = JITTERS
        .iter()
        .map(|&std_us| -> Box<dyn FnOnce() -> Vec<f64> + Send> {
            Box::new(move || {
                let net = scenarios::standard_t(10, 2, seed);
                let cfg =
                    DominoConfig { wired: WiredLatency::with_std(std_us), ..DominoConfig::default() };
                let report = SimulationBuilder::new(net)
                    .udp(10e6, 10e6)
                    .duration_s(duration)
                    .seed(seed)
                    .domino_config(cfg)
                    .run(Scheme::Domino);
                let mis = report.misalignment_by_slot();
                (0..SLOTS as u64)
                    .map(|s| mis.iter().find(|&&(idx, _)| idx == s).map(|&(_, m)| m).unwrap_or(0.0))
                    .collect()
            })
        })
        .collect();
    Plan::new(shards, |series: Vec<Vec<f64>>| {
        let header: Vec<String> = std::iter::once("slot".to_string())
            .chain(JITTERS.iter().map(|j| format!("{j:.0} us jitter")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new("Fig 11 — max TX misalignment (µs) vs slot index", &header_refs);
        for s in 0..SLOTS {
            let mut row = vec![s.to_string()];
            for col in &series {
                row.push(format!("{:.2}", col[s]));
            }
            t.row(&row);
        }
        let mut out = String::new();
        push_block(&mut out, &t.render());
        outln!(out, "paper: initial 10–20 us, reduced to 1–2 us within 4 slots");
        out
    })
}
