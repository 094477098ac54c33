//! Chaos degradation: throughput, delay and fairness vs fault intensity
//! on T(6,2) for all four schemes, plus DOMINO's fault-plane ledger.
//!
//! Intensity `x` maps through [`FaultConfig::chaos`] to a correlated dose
//! of wired loss/delay spikes, AP crashes, controller compute stalls,
//! signature fade bursts, stale/corrupted ROP reports and client churn.
//! Intensity 0.0 is the all-off plane and must reproduce the unfaulted
//! run byte-for-byte; the gate here is that DOMINO *degrades* with the
//! dose instead of collapsing at the first lost trigger, and that no
//! scheme ever trips the engine's liveness monitor.

use super::util::{mbps, push_block};
use crate::plan::{Plan, RunDigest};
use crate::scale::Scale;
use domino_core::{scenarios, FaultConfig, FaultStats, Scheme, SimulationBuilder};
use domino_obs::jsonl::{self, TraceMeta};
use domino_obs::{ProfHandle, TraceHandle};
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "chaos_degradation";

struct Cell {
    tput: f64,
    delay_ms: f64,
    fairness: f64,
    faults: FaultStats,
    watchdog_storms: u64,
}

domino_sim::snap_value!(Cell { tput, delay_ms, fairness, faults, watchdog_storms });

/// Build the plan: one shard per (intensity, scheme) cell.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let intensities: Vec<f64> = match scale {
        Scale::Full => (0..=5).map(|i| 0.2 * i as f64).collect(),
        Scale::Quick => vec![0.0, 0.25, 0.5, 1.0],
    };
    let duration = scale.duration(2.0);

    let mut shards: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for &x in &intensities {
        for &scheme in &Scheme::ALL {
            shards.push(Box::new(move || {
                let net = scenarios::standard_t(6, 2, seed);
                let faults =
                    if x > 0.0 { FaultConfig::chaos(x) } else { FaultConfig::off() };
                let r = SimulationBuilder::new(net)
                    .udp(8e6, 2e6)
                    .duration_s(duration)
                    .seed(seed)
                    .faults(faults)
                    .run(scheme);
                Cell {
                    tput: r.aggregate_mbps(),
                    delay_ms: r.mean_delay_us() / 1000.0,
                    fairness: r.fairness(),
                    faults: r.stats.faults,
                    watchdog_storms: r.stats.domino.watchdog_storms,
                }
            }));
        }
    }

    Plan::new_digested(shards, move |outs: Vec<Cell>| {
        // Cells arrive intensity-major, scheme-minor (Scheme::ALL order).
        let rows: Vec<&[Cell]> = outs.chunks(Scheme::ALL.len()).collect();
        let labels: Vec<&str> = Scheme::ALL.iter().map(|s| s.label()).collect();

        let mut tput = Table::new(
            "Chaos degradation on T(6,2) — aggregate throughput (Mb/s)",
            &[&["intensity"], &labels[..]].concat(),
        );
        let mut delay = Table::new(
            "Chaos degradation — average delay per link (ms)",
            &[&["intensity"], &labels[..]].concat(),
        );
        let mut fair = Table::new(
            "Chaos degradation — Jain's fairness index",
            &[&["intensity"], &labels[..]].concat(),
        );
        let mut ledger = Table::new(
            "DOMINO fault-plane ledger (injections and recoveries per run)",
            &["intensity", "injected", "AP crashes", "recovered", "wd storms", "livelocks"],
        );
        for (x, cells) in intensities.iter().zip(&rows) {
            let label = format!("{x:.2}");
            let metric = |f: fn(&Cell) -> f64, fmt: fn(f64) -> String| -> Vec<String> {
                std::iter::once(label.clone())
                    .chain(cells.iter().map(|c| fmt(f(c))))
                    .collect()
            };
            tput.row(&metric(|c| c.tput, mbps));
            delay.row(&metric(|c| c.delay_ms, |v| format!("{v:.2}")));
            fair.row(&metric(|c| c.fairness, |v| format!("{v:.2}")));
            let d = &cells[2]; // Scheme::ALL[2] == Domino
            ledger.row(&[
                label,
                d.faults.injections().to_string(),
                d.faults.ap_crashes.to_string(),
                d.faults.crash_recoveries.to_string(),
                d.watchdog_storms.to_string(),
                d.faults.livelocks.to_string(),
            ]);
        }

        // The digest sums every cell (all schemes, all intensities), so
        // the --json manifest reflects the whole grid's fault exposure.
        let mut digest = RunDigest::default();
        for c in &outs {
            digest.merge(&RunDigest {
                livelocks: c.faults.livelocks,
                watchdog_storms: c.watchdog_storms,
                fault_classes: c.faults.classes().to_vec(),
            });
        }

        let mut out = String::new();
        push_block(&mut out, &tput.render());
        push_block(&mut out, &delay.render());
        push_block(&mut out, &fair.render());
        push_block(&mut out, &ledger.render());
        out.push_str(&format!(
            "liveness: {} run(s) aborted by the engine monitor (gate: 0)\n",
            digest.livelocks
        ));
        (out, digest)
    })
}

/// Render the designated trace of this experiment (`domino-run --trace`):
/// one DOMINO run on the same T(6,2) network and seed at full chaos
/// intensity (1.0), serialized as versioned JSONL. This is the trace the
/// EXPERIMENTS.md walkthrough dissects with `domino-trace`.
pub fn trace(scale: Scale, seed: u64) -> String {
    let (handle, sink) = TraceHandle::mem();
    let net = scenarios::standard_t(6, 2, seed);
    let _ = SimulationBuilder::new(net)
        .udp(8e6, 2e6)
        .duration_s(scale.duration(2.0))
        .seed(seed)
        .faults(FaultConfig::chaos(1.0))
        .run_profiled(Scheme::Domino, handle, ProfHandle::off());
    let meta = TraceMeta {
        experiment: NAME.to_string(),
        scheme: Scheme::Domino.label().to_ascii_lowercase(),
        seed,
        scale: scale.name().to_string(),
    };
    jsonl::write_trace(&meta, &sink.take())
}
