//! Trace analysis: trigger-chain reconstruction, slot timelines, fault
//! timelines, and trace diffing.
//!
//! Every function here is pure — it consumes parsed records and renders
//! `String`s; printing is the CLI's job (D006 keeps stdout out of
//! library code). All reports iterate `BTreeMap`s, so identical traces
//! render identical bytes.

use crate::event::{FaultKind, TraceEvent};
use crate::jsonl::{parse_trace, ParseError, TraceMeta};
use crate::tracer::TraceRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The paper's outbound-degree cap: one signature burst targets at most
/// four nodes (§3.2).
pub const MAX_OUTBOUND: usize = 4;

/// The paper's inbound-degree cap: at most two bursts target the same
/// node for the same slot (§3.2).
pub const MAX_INBOUND: u64 = 2;

// ----------------------------------------------------------------- check

/// Structural validation of a parsed trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// Run identity from the header.
    pub meta: TraceMeta,
    /// Total events.
    pub events: usize,
    /// Last timestamp minus first, ns (0 for empty traces).
    pub span_ns: u64,
    /// Events per kind, sorted by wire name.
    pub counts: Vec<(String, u64)>,
}

/// Parse `text` and validate its structure: known schema, known events,
/// monotonically non-decreasing timestamps.
pub fn check(text: &str) -> Result<CheckReport, ParseError> {
    let (meta, records) = parse_trace(text)?;
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last = 0u64;
    for (i, rec) in records.iter().enumerate() {
        if rec.t_ns < last {
            return Err(ParseError {
                line: i + 2,
                msg: format!("timestamp regression: {} after {}", rec.t_ns, last),
            });
        }
        last = rec.t_ns;
        *counts.entry(rec.ev.name()).or_insert(0) += 1;
    }
    let span_ns = match (records.first(), records.last()) {
        (Some(a), Some(b)) => b.t_ns - a.t_ns,
        _ => 0,
    };
    Ok(CheckReport {
        meta,
        events: records.len(),
        span_ns,
        counts: counts.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    })
}

/// Render a [`CheckReport`] for the terminal.
pub fn render_check(r: &CheckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace ok: {} / {} seed={} scale={}",
        r.meta.experiment, r.meta.scheme, r.meta.seed, r.meta.scale
    );
    let _ = writeln!(out, "{} events over {:.3} ms", r.events, r.span_ns as f64 / 1e6);
    for (name, n) in &r.counts {
        let _ = writeln!(out, "  {name:<16} {n}");
    }
    out
}

// ---------------------------------------------------------------- chains

/// Trigger-chain reconstruction over a DOMINO trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainReport {
    /// Signature bursts emitted.
    pub emits: u64,
    /// Bursts detected by a target.
    pub detects: u64,
    /// Bursts missed by a target.
    pub misses: u64,
    /// Chain roots (bursts emitted by a node with no recorded inbound
    /// trigger — watchdog/kick-off starts).
    pub roots: u64,
    /// Deepest trigger chain observed (a root burst is depth 1).
    pub max_depth: u64,
    /// Largest outbound target set on any single burst.
    pub max_outbound: usize,
    /// Largest number of bursts addressed to one (slot, target) pair.
    pub max_inbound: u64,
    /// Degree-limit violations, rendered.
    pub violations: Vec<String>,
}

/// Reconstruct trigger chains from `records`.
///
/// Depth propagates through detections: a burst emitted by a node whose
/// own trigger was detected at depth `d` creates depth `d + 1` for each
/// target that detects it. Slot ids are globally monotonic, so the
/// inbound count per `(slot, target)` is well-defined over a whole
/// trace.
pub fn chains(records: &[TraceRecord]) -> ChainReport {
    let mut report = ChainReport::default();
    // Depth of the chain that most recently triggered each node.
    let mut node_depth: BTreeMap<u32, u64> = BTreeMap::new();
    // Pending burst depth addressed to (slot, target).
    let mut pending: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    let mut inbound: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for rec in records {
        match &rec.ev {
            TraceEvent::SigEmit { node, slot, targets } => {
                report.emits += 1;
                let depth = match node_depth.get(node) {
                    Some(d) => d + 1,
                    None => {
                        report.roots += 1;
                        1
                    }
                };
                report.max_depth = report.max_depth.max(depth);
                report.max_outbound = report.max_outbound.max(targets.len());
                if targets.len() > MAX_OUTBOUND {
                    report.violations.push(format!(
                        "t={} node {} burst for slot {} targets {} nodes (limit {})",
                        rec.t_ns,
                        node,
                        slot,
                        targets.len(),
                        MAX_OUTBOUND
                    ));
                }
                for &target in targets {
                    let n = inbound.entry((*slot, target)).or_insert(0);
                    *n += 1;
                    report.max_inbound = report.max_inbound.max(*n);
                    if *n > MAX_INBOUND {
                        report.violations.push(format!(
                            "slot {slot} target {target} has {n} inbound bursts (limit {MAX_INBOUND})"
                        ));
                    }
                    pending.insert((*slot, target), depth);
                }
            }
            TraceEvent::SigDetect { node, slot } => {
                report.detects += 1;
                if let Some(depth) = pending.get(&(*slot, *node)) {
                    node_depth.insert(*node, *depth);
                    report.max_depth = report.max_depth.max(*depth);
                }
            }
            TraceEvent::SigMiss { .. } => {
                report.misses += 1;
            }
            _ => {}
        }
    }
    report
}

/// Render a [`ChainReport`] for the terminal.
pub fn render_chains(r: &ChainReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "signature bursts: {} emitted, {} detected, {} missed", r.emits, r.detects, r.misses);
    let _ = writeln!(out, "chain roots: {} (watchdog / kick-off starts)", r.roots);
    let _ = writeln!(out, "max chain depth: {}", r.max_depth);
    let _ = writeln!(out, "max outbound degree: {} (limit {})", r.max_outbound, MAX_OUTBOUND);
    let _ = writeln!(out, "max inbound degree: {} (limit {})", r.max_inbound, MAX_INBOUND);
    if r.violations.is_empty() {
        let _ = writeln!(out, "degree limits respected");
    } else {
        let _ = writeln!(out, "VIOLATIONS:");
        for v in &r.violations {
            let _ = writeln!(out, "  {v}");
        }
    }
    out
}

// -------------------------------------------------------------- timeline

/// Render the slot timeline: one line per `slot_start`, capped at
/// `limit` rows (0 = unlimited). Controller checkpoints and standby
/// promotions are interleaved uncapped — they are rare, and seeing a
/// promotion between two slot rows is exactly what the view is for.
pub fn timeline(records: &[TraceRecord], limit: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>12}  {:>6}  {:>4}  kind", "t_us", "slot", "link");
    let mut shown = 0usize;
    let mut total = 0usize;
    let mut checkpoints = 0u64;
    let mut promotions = 0u64;
    for rec in records {
        match &rec.ev {
            TraceEvent::SlotStart { slot, link, fake } => {
                total += 1;
                if limit != 0 && shown >= limit {
                    continue;
                }
                shown += 1;
                let kind = if *fake { "fake" } else { "data" };
                let _ =
                    writeln!(out, "{:>12.1}  {:>6}  {:>4}  {kind}", rec.t_ns as f64 / 1e3, slot, link);
            }
            TraceEvent::CtrlCheckpoint { bytes } => {
                checkpoints += 1;
                let _ = writeln!(
                    out,
                    "{:>12.1}  {:>6}  {:>4}  checkpoint ({bytes} bytes)",
                    rec.t_ns as f64 / 1e3,
                    "-",
                    "-"
                );
            }
            TraceEvent::StandbyPromote { replayed } => {
                promotions += 1;
                let _ = writeln!(
                    out,
                    "{:>12.1}  {:>6}  {:>4}  PROMOTE (replayed {replayed})",
                    rec.t_ns as f64 / 1e3,
                    "-",
                    "-"
                );
            }
            _ => {}
        }
    }
    if shown < total {
        let _ = writeln!(out, "... {} more slot starts not shown", total - shown);
    }
    let _ = writeln!(out, "{total} slot starts");
    if checkpoints > 0 || promotions > 0 {
        let _ = writeln!(out, "{checkpoints} controller checkpoints, {promotions} standby promotions");
    }
    out
}

// ---------------------------------------------------------------- faults

/// Fault-timeline summary: per-class injection counts and
/// injection→recovery latency for the classes that recover.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Injections per class, in wire-name order.
    pub injections: Vec<(FaultKind, u64)>,
    /// Recoveries per class, in wire-name order.
    pub recoveries: Vec<(FaultKind, u64)>,
    /// Paired injection→recovery latencies, ns, per class.
    pub latencies_ns: Vec<(FaultKind, Vec<u64>)>,
    /// Backbone messages dropped.
    pub backbone_drops: u64,
    /// Backbone latency spikes observed.
    pub backbone_spikes: u64,
    /// Controller state checkpoints shipped to the warm standby.
    pub checkpoints: u64,
    /// Bytes across all shipped checkpoints.
    pub checkpoint_bytes: u64,
    /// Standby promotions (controller failovers completed).
    pub promotions: u64,
    /// Buffered queue reports replayed across all promotions.
    pub replayed: u64,
}

/// Summarize the fault timeline of `records`.
pub fn fault_summary(records: &[TraceRecord]) -> FaultReport {
    let mut injections: BTreeMap<FaultKind, u64> = BTreeMap::new();
    let mut recoveries: BTreeMap<FaultKind, u64> = BTreeMap::new();
    let mut latencies: BTreeMap<FaultKind, Vec<u64>> = BTreeMap::new();
    // Open injections per (kind, node), awaiting recovery.
    let mut open: BTreeMap<(FaultKind, u32), u64> = BTreeMap::new();
    let mut report = FaultReport::default();
    for rec in records {
        match &rec.ev {
            TraceEvent::FaultInject { kind, node } => {
                *injections.entry(*kind).or_insert(0) += 1;
                open.insert((*kind, *node), rec.t_ns);
            }
            TraceEvent::FaultRecover { kind, node } => {
                *recoveries.entry(*kind).or_insert(0) += 1;
                if let Some(at) = open.remove(&(*kind, *node)) {
                    latencies.entry(*kind).or_default().push(rec.t_ns - at);
                }
            }
            TraceEvent::BackboneDrop {} => report.backbone_drops += 1,
            TraceEvent::BackboneSend { spiked: true, .. } => report.backbone_spikes += 1,
            TraceEvent::CtrlCheckpoint { bytes } => {
                report.checkpoints += 1;
                report.checkpoint_bytes += u64::from(*bytes);
            }
            TraceEvent::StandbyPromote { replayed } => {
                report.promotions += 1;
                report.replayed += replayed;
            }
            _ => {}
        }
    }
    report.injections = injections.into_iter().collect();
    report.recoveries = recoveries.into_iter().collect();
    report.latencies_ns = latencies.into_iter().collect();
    report
}

/// Render a [`FaultReport`] for the terminal.
pub fn render_faults(r: &FaultReport) -> String {
    let mut out = String::new();
    if r.injections.is_empty()
        && r.backbone_drops == 0
        && r.backbone_spikes == 0
        && r.checkpoints == 0
        && r.promotions == 0
    {
        let _ = writeln!(out, "no faults in trace");
        return out;
    }
    for (kind, n) in &r.injections {
        let recovered = r
            .recoveries
            .iter()
            .find(|(k, _)| k == kind)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        let _ = writeln!(out, "{:<14} injected {n}, recovered {recovered}", kind.name());
        if let Some((_, lats)) = r.latencies_ns.iter().find(|(k, _)| k == kind) {
            if !lats.is_empty() {
                let sum: u64 = lats.iter().sum();
                let max = lats.iter().copied().max().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{:<14} recovery latency: mean {:.1} us, max {:.1} us over {} pairs",
                    "",
                    sum as f64 / lats.len() as f64 / 1e3,
                    max as f64 / 1e3,
                    lats.len()
                );
            }
        }
    }
    let _ = writeln!(out, "backbone: {} drops, {} latency spikes", r.backbone_drops, r.backbone_spikes);
    if r.checkpoints > 0 || r.promotions > 0 {
        let _ = writeln!(
            out,
            "standby: {} checkpoints ({} bytes), {} promotions ({} reports replayed)",
            r.checkpoints, r.checkpoint_bytes, r.promotions, r.replayed
        );
    }
    out
}

// ------------------------------------------------------------------ diff

/// Compare two traces: report the first diverging record and per-kind
/// count deltas.
pub fn diff(
    a_meta: &TraceMeta,
    a: &[TraceRecord],
    b_meta: &TraceMeta,
    b: &[TraceRecord],
) -> String {
    let mut out = String::new();
    if a_meta != b_meta {
        let _ = writeln!(
            out,
            "headers differ: {}/{} seed={} vs {}/{} seed={}",
            a_meta.experiment, a_meta.scheme, a_meta.seed, b_meta.experiment, b_meta.scheme, b_meta.seed
        );
    }
    let first_divergence = a.iter().zip(b.iter()).position(|(x, y)| x != y);
    match first_divergence {
        Some(i) => {
            let _ = writeln!(out, "first divergence at event {} (of {} / {}):", i + 1, a.len(), b.len());
            let _ = writeln!(out, "  a: t={} {:?}", a[i].t_ns, a[i].ev);
            let _ = writeln!(out, "  b: t={} {:?}", b[i].t_ns, b[i].ev);
        }
        None if a.len() != b.len() => {
            let (longer, name, shorter_len) = if a.len() > b.len() {
                (a, "a", b.len())
            } else {
                (b, "b", a.len())
            };
            let _ = writeln!(
                out,
                "traces identical for {} events; {} continues with t={} {:?}",
                shorter_len, name, longer[shorter_len].t_ns, longer[shorter_len].ev
            );
        }
        None => {
            let _ = writeln!(out, "traces identical ({} events)", a.len());
            return out;
        }
    }
    let mut deltas: BTreeMap<&'static str, i64> = BTreeMap::new();
    for rec in a {
        *deltas.entry(rec.ev.name()).or_insert(0) += 1;
    }
    for rec in b {
        *deltas.entry(rec.ev.name()).or_insert(0) -= 1;
    }
    let changed: Vec<(&str, i64)> = deltas.into_iter().filter(|&(_, d)| d != 0).collect();
    if changed.is_empty() {
        let _ = writeln!(out, "per-kind counts identical");
    } else {
        let _ = writeln!(out, "per-kind count deltas (a - b):");
        for (name, d) in changed {
            let _ = writeln!(out, "  {name:<16} {d:+}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { t_ns, ev }
    }

    #[test]
    fn chains_track_depth_and_roots() {
        // Root burst from node 0 triggers node 1; node 1's burst
        // triggers node 2: depth 1 → 2 for the detecting targets.
        let records = vec![
            rec(0, TraceEvent::SigEmit { node: 0, slot: 1, targets: vec![1] }),
            rec(10, TraceEvent::SigDetect { node: 1, slot: 1 }),
            rec(20, TraceEvent::SigEmit { node: 1, slot: 2, targets: vec![2] }),
            rec(30, TraceEvent::SigDetect { node: 2, slot: 2 }),
            rec(40, TraceEvent::SigEmit { node: 3, slot: 3, targets: vec![0] }),
            rec(50, TraceEvent::SigMiss { node: 0, slot: 3 }),
        ];
        let r = chains(&records);
        assert_eq!(r.emits, 3);
        assert_eq!(r.detects, 2);
        assert_eq!(r.misses, 1);
        assert_eq!(r.roots, 2, "node 0 and node 3 start chains");
        assert_eq!(r.max_depth, 2);
        assert_eq!(r.max_outbound, 1);
        assert_eq!(r.max_inbound, 1);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn chains_flag_degree_violations() {
        let records = vec![
            rec(0, TraceEvent::SigEmit { node: 0, slot: 1, targets: vec![1, 2, 3, 4, 5] }),
            rec(1, TraceEvent::SigEmit { node: 6, slot: 1, targets: vec![1] }),
            rec(2, TraceEvent::SigEmit { node: 7, slot: 1, targets: vec![1] }),
        ];
        let r = chains(&records);
        assert_eq!(r.max_outbound, 5);
        assert_eq!(r.max_inbound, 3, "three bursts target (slot 1, node 1)");
        assert_eq!(r.violations.len(), 2);
    }

    #[test]
    fn fault_summary_pairs_recovery_latency() {
        let records = vec![
            rec(100, TraceEvent::FaultInject { kind: FaultKind::ApCrash, node: 2 }),
            rec(150, TraceEvent::BackboneDrop {}),
            rec(600, TraceEvent::FaultRecover { kind: FaultKind::ApCrash, node: 2 }),
            rec(700, TraceEvent::BackboneSend { delay_ns: 1, spiked: true }),
            rec(800, TraceEvent::FaultInject { kind: FaultKind::Fade, node: 9 }),
        ];
        let r = fault_summary(&records);
        assert_eq!(r.injections, vec![(FaultKind::ApCrash, 1), (FaultKind::Fade, 1)]);
        assert_eq!(r.recoveries, vec![(FaultKind::ApCrash, 1)]);
        assert_eq!(r.latencies_ns, vec![(FaultKind::ApCrash, vec![500])]);
        assert_eq!(r.backbone_drops, 1);
        assert_eq!(r.backbone_spikes, 1);
    }

    #[test]
    fn diff_reports_first_divergence() {
        let meta = TraceMeta { experiment: "x".into(), scheme: "domino".into(), seed: 1, scale: "q".into() };
        let a = vec![rec(0, TraceEvent::RopPoll { ap: 1 }), rec(5, TraceEvent::BackboneDrop {})];
        let b = vec![rec(0, TraceEvent::RopPoll { ap: 1 }), rec(6, TraceEvent::BackboneDrop {})];
        let d = diff(&meta, &a, &meta, &b);
        assert!(d.contains("first divergence at event 2"), "{d}");
        let same = diff(&meta, &a, &meta, &a);
        assert!(same.contains("traces identical"), "{same}");
    }

    #[test]
    fn check_rejects_time_regressions() {
        let text = "{\"schema\":\"domino-trace\",\"v\":1,\"experiment\":\"x\",\"scheme\":\"s\",\"seed\":1,\"scale\":\"q\"}\n{\"t\":10,\"ev\":\"backbone_drop\"}\n{\"t\":3,\"ev\":\"backbone_drop\"}\n";
        assert!(check(text).is_err());
        let ok = "{\"schema\":\"domino-trace\",\"v\":1,\"experiment\":\"x\",\"scheme\":\"s\",\"seed\":1,\"scale\":\"q\"}\n{\"t\":3,\"ev\":\"backbone_drop\"}\n{\"t\":10,\"ev\":\"rop_poll\",\"ap\":2}\n";
        let report = check(ok).expect("valid trace");
        assert_eq!(report.events, 2);
        assert_eq!(report.span_ns, 7);
        assert_eq!(report.counts, vec![("backbone_drop".to_owned(), 1), ("rop_poll".to_owned(), 1)]);
    }

    #[test]
    fn fault_summary_covers_standby_lifecycle() {
        let records = vec![
            rec(100, TraceEvent::CtrlCheckpoint { bytes: 400 }),
            rec(200, TraceEvent::CtrlCheckpoint { bytes: 600 }),
            rec(300, TraceEvent::FaultInject { kind: FaultKind::ApCrash, node: 0 }),
            rec(400, TraceEvent::StandbyPromote { replayed: 7 }),
        ];
        let r = fault_summary(&records);
        assert_eq!(r.checkpoints, 2);
        assert_eq!(r.checkpoint_bytes, 1000);
        assert_eq!(r.promotions, 1);
        assert_eq!(r.replayed, 7);
        let text = render_faults(&r);
        assert!(
            text.contains("standby: 2 checkpoints (1000 bytes), 1 promotions (7 reports replayed)"),
            "{text}"
        );
        // Checkpoints alone (no injected faults) still render.
        let quiet = fault_summary(&[rec(1, TraceEvent::CtrlCheckpoint { bytes: 8 })]);
        assert!(render_faults(&quiet).contains("standby: 1 checkpoints"), "quiet trace renders");
    }

    #[test]
    fn timeline_interleaves_failover_rows() {
        let records = vec![
            rec(1000, TraceEvent::SlotStart { slot: 1, link: 0, fake: false }),
            rec(1500, TraceEvent::CtrlCheckpoint { bytes: 256 }),
            rec(2000, TraceEvent::StandbyPromote { replayed: 3 }),
            rec(3000, TraceEvent::SlotStart { slot: 2, link: 1, fake: true }),
        ];
        let text = timeline(&records, 0);
        assert!(text.contains("checkpoint (256 bytes)"), "{text}");
        assert!(text.contains("PROMOTE (replayed 3)"), "{text}");
        assert!(text.contains("2 slot starts"), "{text}");
        assert!(text.contains("1 controller checkpoints, 1 standby promotions"), "{text}");
        // Failover rows ride outside the slot cap.
        let capped = timeline(&records, 1);
        assert!(capped.contains("PROMOTE"), "{capped}");
        assert!(capped.contains("... 1 more slot starts not shown"), "{capped}");
    }

    #[test]
    fn timeline_caps_rows() {
        let records: Vec<TraceRecord> = (0..5)
            .map(|i| rec(i * 1000, TraceEvent::SlotStart { slot: i, link: 0, fake: i % 2 == 0 }))
            .collect();
        let full = timeline(&records, 0);
        assert!(full.contains("5 slot starts"), "{full}");
        let capped = timeline(&records, 2);
        assert!(capped.contains("... 3 more slot starts not shown"), "{capped}");
    }
}
