//! Fig 6: correct-decoding ratio of the weaker of two adjacent ROP
//! clients vs their RSS difference (15–40 dB), for 0–4 guard subcarriers.
//!
//! One shard per guard count. `guard_sweep` already derives a fresh RNG
//! per `(guard, diff)` point from the master seed, so splitting the sweep
//! across shards reproduces the serial binary byte-for-byte.

use super::util::outln;
use crate::plan::Plan;
use crate::scale::Scale;
use domino_phy::ofdm::{guard_sweep, GuardSweepPoint};
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "fig06_guard_sweep";

const GUARDS: [usize; 5] = [0, 1, 2, 3, 4];

fn diffs() -> Vec<f64> {
    (0..=10).map(|i| 15.0 + 2.5 * i as f64).collect()
}

/// Build the plan: one shard per guard count, merged into one table.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let trials = scale.trials(80, 1000);
    let shards: Vec<Box<dyn FnOnce() -> Vec<GuardSweepPoint> + Send>> = GUARDS
        .iter()
        .map(|&g| -> Box<dyn FnOnce() -> Vec<GuardSweepPoint> + Send> {
            Box::new(move || guard_sweep(&[g], &diffs(), trials, seed))
        })
        .collect();
    Plan::new(shards, |columns: Vec<Vec<GuardSweepPoint>>| {
        let points: Vec<GuardSweepPoint> = columns.into_iter().flatten().collect();
        let diffs = diffs();
        let header: Vec<String> = std::iter::once("RSS diff (dB)".to_string())
            .chain(GUARDS.iter().map(|g| format!("{g} guards")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Fig 6 — weak-client correct-decode ratio (%) vs RSS difference",
            &header_refs,
        );
        for &d in &diffs {
            let mut row = vec![format!("{d:.1}")];
            for &g in &GUARDS {
                let p = points
                    .iter()
                    .find(|p| p.guard == g && (p.rss_diff_db - d).abs() < 1e-9)
                    .expect("sweep point");
                row.push(format!("{:.0}", p.decode_ratio * 100.0));
            }
            t.row(&row);
        }
        let mut out = String::new();
        super::util::push_block(&mut out, &t.render());

        // The paper's headline number: the tolerance of 3 guard subcarriers.
        let tol3 = points
            .iter()
            .filter(|p| p.guard == 3 && p.decode_ratio >= 0.95)
            .map(|p| p.rss_diff_db)
            .fold(0.0, f64::max);
        outln!(out, "3-guard tolerance (>=95% decode): {tol3:.1} dB (paper: 38 dB)");
        out
    })
}
