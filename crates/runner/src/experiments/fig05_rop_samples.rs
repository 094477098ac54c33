//! Fig 5: the received OFDM spectrum at the AP for two clients on
//! adjacent subchannels — (a) similar RSS, no guard; (b) 30 dB RSS gap,
//! no guard; (c) 30 dB gap with 3 guard subcarriers.
//!
//! One shard per snapshot. The seeds (`seed`, `seed+1`, `seed+2`) match
//! the original serial binary exactly, so the output is byte-identical to
//! the pre-runner regenerator.

use crate::plan::Plan;
use crate::scale::Scale;
use domino_phy::ofdm::{received_spectrum, SpectrumScenario};
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "fig05_rop_samples";

fn render_scenario(name: &str, scenario: SpectrumScenario, seed: u64) -> String {
    let spec = received_spectrum(scenario, seed);
    let peak = spec.iter().map(|&(_, a)| a).fold(f64::MIN, f64::max);
    let mut t = Table::new(name, &["bin", "amplitude (dB rel. peak)", ""]);
    for (bin, amp) in &spec {
        let db = 20.0 * (amp / peak).max(1e-9).log10();
        let bars = ((db + 60.0).max(0.0) / 2.0) as usize;
        t.row(&[bin.to_string(), format!("{db:7.1}"), "#".repeat(bars)]);
    }
    t.render()
}

/// Build the plan: three shards, one per Fig 5 snapshot.
pub fn plan(_scale: Scale, seed: u64) -> Plan {
    let scenarios: [(&'static str, SpectrumScenario, u64); 3] = [
        (
            "Fig 5a — adjacent subchannels, similar RSS, no guard (bits 111111 / 011111)",
            SpectrumScenario::SimilarRssNoGuard,
            seed,
        ),
        (
            "Fig 5b — adjacent subchannels, 30 dB RSS difference, no guard",
            SpectrumScenario::Unequal30DbNoGuard,
            seed + 1,
        ),
        (
            "Fig 5c — adjacent subchannels, 30 dB RSS difference, 3 guard subcarriers",
            SpectrumScenario::Unequal30DbWithGuard,
            seed + 2,
        ),
    ];
    let shards: Vec<Box<dyn FnOnce() -> String + Send>> = scenarios
        .into_iter()
        .map(|(name, scenario, s)| -> Box<dyn FnOnce() -> String + Send> {
            Box::new(move || render_scenario(name, scenario, s))
        })
        .collect();
    Plan::new(shards, |blocks: Vec<String>| {
        let mut out = String::new();
        for block in blocks {
            super::util::push_block(&mut out, &block);
        }
        out
    })
}
