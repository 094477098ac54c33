//! §5 "Polling frequency": delay and throughput of UDP on T(10,2) as the
//! batch size (the reciprocal of polling frequency — ROP runs once per
//! batch) varies, under heavy (5 Mb/s per link) and light (500 kb/s per
//! link) traffic.
//!
//! One shard per (load, batch size) simulation — 8 shards.

use super::util::{mbps, outln, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder};
use domino_mac::domino::DominoConfig;
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "sec5_polling_sweep";

const BATCH_SIZES: [usize; 4] = [2, 5, 10, 20];
const LOADS: [(&str, f64); 2] =
    [("heavy (5 Mb/s per link)", 5e6), ("light (500 kb/s per link)", 0.5e6)];

/// Build the plan: 2 loads × 4 batch sizes = 8 shards.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(4.0);
    let mut shards: Vec<Box<dyn FnOnce() -> (f64, f64) + Send>> = Vec::new();
    for &(_, rate) in &LOADS {
        for &batch in &BATCH_SIZES {
            shards.push(Box::new(move || {
                let net = scenarios::standard_t(10, 2, seed);
                let cfg = DominoConfig { batch_slots: batch, ..DominoConfig::default() };
                let report = SimulationBuilder::new(net)
                    .udp(rate, rate)
                    .duration_s(duration)
                    .seed(seed)
                    .domino_config(cfg)
                    .run(Scheme::Domino);
                (report.aggregate_mbps(), report.mean_delay_us() / 1000.0)
            }));
        }
    }
    Plan::new(shards, |cells: Vec<(f64, f64)>| {
        let mut out = String::new();
        for (i, (label, _)) in LOADS.iter().enumerate() {
            let mut t = Table::new(
                &format!("§5 polling-frequency sweep — {label}"),
                &["batch size (slots)", "throughput (Mb/s)", "mean delay (ms)"],
            );
            for (j, &batch) in BATCH_SIZES.iter().enumerate() {
                let (tput, delay_ms) = cells[i * BATCH_SIZES.len() + j];
                t.row(&[batch.to_string(), mbps(tput), format!("{delay_ms:.2}")]);
            }
            push_block(&mut out, &t.render());
        }
        outln!(out, "paper: heavy traffic — delay slightly decreases / throughput slightly increases with batch size; light traffic — delay increases with batch size");
        out
    })
}
