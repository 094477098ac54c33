//! Fig 9: signature detection ratio vs number of combined signatures
//! (1–7), for the paper's five sender setups, from the sample-level
//! Gold-code correlator.
//!
//! One shard per combined-signature count. The serial binary threaded a
//! single RNG through all 35 cells; here each shard derives its own
//! stream from `(experiment, combined)`, so cell values are shard-local
//! and independent of execution order. The paper-facing claims (≈100 %
//! detection through 4 combined signatures, false positives < 1 %) are
//! unchanged — they are also asserted independently by
//! `domino-phy`'s unit tests.

use super::util::{outln, shard_rng};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_phy::signature::{detection_experiment, Fig9Setup};
use domino_phy::GoldFamily;
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "fig09_signature_detection";

struct Row {
    combined: usize,
    /// Detection ratio per setup, in `Fig9Setup::ALL` order.
    detection: Vec<f64>,
    /// Worst false-positive ratio across this row's setups.
    worst_fp: f64,
}

domino_sim::snap_value!(Row { combined, detection, worst_fp });

/// Build the plan: one shard per combined-signature count (1–7).
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let runs = scale.trials(200, 1000);
    let shards: Vec<Box<dyn FnOnce() -> Row + Send>> = (1..=7usize)
        .map(|k| -> Box<dyn FnOnce() -> Row + Send> {
            Box::new(move || {
                let family = GoldFamily::degree7();
                let mut rng = shard_rng(seed, NAME, k as u64);
                let mut detection = Vec::with_capacity(Fig9Setup::ALL.len());
                let mut worst_fp: f64 = 0.0;
                for setup in Fig9Setup::ALL {
                    let stats = detection_experiment(&family, setup, k, 10.0, runs, &mut rng);
                    detection.push(stats.detection_ratio);
                    worst_fp = worst_fp.max(stats.false_positive_ratio);
                }
                Row { combined: k, detection, worst_fp }
            })
        })
        .collect();
    Plan::new(shards, move |rows: Vec<Row>| {
        let header: Vec<String> = std::iter::once("combined".to_string())
            .chain(Fig9Setup::ALL.iter().map(|s| s.label().to_string()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!("Fig 9 — signature detection ratio (% of {runs} runs)"),
            &header_refs,
        );
        let mut worst_fp: f64 = 0.0;
        for row in &rows {
            let mut cells = vec![row.combined.to_string()];
            cells.extend(row.detection.iter().map(|d| format!("{:.1}", d * 100.0)));
            t.row(&cells);
            worst_fp = worst_fp.max(row.worst_fp);
        }
        let mut out = String::new();
        super::util::push_block(&mut out, &t.render());
        outln!(
            out,
            "worst false-positive ratio: {:.2}% (paper: below 1% throughout)",
            worst_fp * 100.0
        );
        out
    })
}
