//! Fig 10: the transmission timeline of the Fig 7 network under DOMINO
//! with all uplink and downlink flows saturated — the paper's
//! "microscope" view showing triggers between slots, fake packets, ROP
//! slots and the self-healing of the initial wired-jitter misalignment.
//!
//! A single short simulation: one shard renders the whole view.

use super::util::outln;
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder};
use domino_obs::jsonl::{self, TraceMeta};
use domino_obs::{ProfHandle, TraceHandle};

/// Registry key.
pub const NAME: &str = "fig10_timeline";

/// Render the designated trace of this experiment (`domino-run --trace`):
/// the same single DOMINO run as [`plan`], with a memory sink attached,
/// serialized as versioned JSONL. The run itself is unperturbed — tracing
/// is observation-only, so the rendered `results/` text stays
/// byte-identical whether or not a trace is being captured.
pub fn trace(scale: Scale, seed: u64) -> String {
    let (handle, sink) = TraceHandle::mem();
    let net = scenarios::fig7();
    let _ = SimulationBuilder::new(net)
        .udp(10e6, 10e6)
        .duration_s(scale.duration(0.2))
        .seed(seed)
        .run_profiled(Scheme::Domino, handle, ProfHandle::off());
    let meta = TraceMeta {
        experiment: NAME.to_string(),
        scheme: Scheme::Domino.label().to_ascii_lowercase(),
        seed,
        scale: scale.name().to_string(),
    };
    jsonl::write_trace(&meta, &sink.take())
}

/// Build the plan: a single shard (one 0.2 s quick-scale simulation).
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(0.2);
    Plan::single(move || {
        let net = scenarios::fig7();
        let report = SimulationBuilder::new(net.clone())
            .udp(10e6, 10e6)
            .duration_s(duration)
            .seed(seed)
            .run(Scheme::Domino);

        let mut out = String::new();
        outln!(out, "## Fig 10 — DOMINO timeline on the Fig 7 network (first 40 slot transmissions)\n");
        outln!(out, "{:>10}  {:>5}  {:<18} kind", "start(us)", "slot", "link");
        for rec in report.stats.slot_starts.iter().take(40) {
            let l = net.link(rec.link);
            let dir = if l.is_downlink() { "->" } else { "<-" };
            outln!(
                out,
                "{:>10.1}  {:>5}  AP{} {} client{:<5} {}",
                rec.start_ns as f64 / 1000.0,
                rec.slot,
                l.ap.0 / 2 + 1,
                dir,
                l.client().0,
                if rec.fake { "fake (header only)" } else { "data" },
            );
        }

        outln!(out, "\n## Misalignment per slot (µs) — §4.2.2's healing in action\n");
        for (slot, mis) in report.misalignment_by_slot().iter().take(12) {
            outln!(out, "slot {slot:>3}: {mis:7.2} us  {}", "#".repeat((*mis as usize).min(60)));
        }
        let fakes = report.stats.slot_starts.iter().filter(|r| r.fake).count();
        outln!(
            out,
            "\ntotal slot transmissions: {}, of which fake keep-alives: {} ({:.1}%)",
            report.stats.slot_starts.len(),
            fakes,
            100.0 * fakes as f64 / report.stats.slot_starts.len().max(1) as f64
        );
        out
    })
}
