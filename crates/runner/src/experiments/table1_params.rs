//! Table 1: the OFDM symbol parameters of ROP vs plain WiFi, printed from
//! the implementation's own constants (so the table cannot drift from the
//! code).

use super::util::{outln, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_phy::ofdm::{RopSymbolConfig, SAMPLE_RATE_HZ};
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "table1_params";

/// Build the plan: a single cheap shard (pure constants, no simulation).
pub fn plan(_scale: Scale, _seed: u64) -> Plan {
    Plan::single(|| {
        let cfg = RopSymbolConfig::default();
        let layout = cfg.layout();
        let wifi_cp_us = 16.0 / SAMPLE_RATE_HZ * 1e6;
        let wifi_sym_us = 80.0 / SAMPLE_RATE_HZ * 1e6;

        let mut t = Table::new("Table 1 — OFDM symbol parameters", &["parameter", "WiFi", "ROP"]);
        t.row(&["number of subcarriers".into(), "64".into(), cfg.n_fft.to_string()]);
        t.row(&[
            "subcarriers per subchannel".into(),
            "-".into(),
            cfg.data_per_subchannel.to_string(),
        ]);
        t.row(&["guard subcarriers".into(), "-".into(), cfg.guard_subcarriers.to_string()]);
        t.row(&[
            "number of subchannels".into(),
            "-".into(),
            layout.num_subchannels().to_string(),
        ]);
        t.row(&[
            "CP duration".into(),
            format!("{wifi_cp_us:.1} us"),
            format!("{:.1} us", cfg.cp_duration_us()),
        ]);
        t.row(&[
            "symbol duration".into(),
            format!("{wifi_sym_us:.0} us"),
            format!("{:.0} us", cfg.symbol_duration_us()),
        ]);
        let mut out = String::new();
        push_block(&mut out, &t.render());
        outln!(
            out,
            "max queue report per subchannel: {} packets (6-bit 2-ASK)",
            cfg.max_queue_report()
        );
        out
    })
}
