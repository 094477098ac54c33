//! The merged campaign report.
//!
//! One text artifact summarising an entire campaign: a per-cell digest
//! table (so any two campaign runs can be compared with `diff`) followed
//! by per-experiment rollups — nearest-rank quantiles over the cells'
//! output sizes and run-digest counters, and summed fault-class totals.
//!
//! The report is deliberately a **pure function of the grid and the
//! cells' outputs**: it contains no wall-clock times, no cache hit/miss
//! counts, and no machine identifiers. That is what makes the headline
//! guarantees checkable with `diff` — a warm-cache rerun and an
//! interrupted-then-resumed campaign must both reproduce the cold run's
//! report byte-for-byte.

/// Everything the report needs to know about one completed cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// Cell id, `<experiment>.<scale>.s<seed>`.
    pub cell: String,
    /// Experiment name (rollup grouping key).
    pub experiment: String,
    /// Hex SHA-256 of the cell's rendered output text.
    pub digest: String,
    /// Size of the rendered output in bytes.
    pub bytes: u64,
    /// Livelock count from the run digest.
    pub livelocks: u64,
    /// Watchdog-storm count from the run digest.
    pub watchdog_storms: u64,
    /// Fault-class counters from the run digest.
    pub fault_classes: Vec<(String, u64)>,
}

/// Nearest-rank quantile over a **sorted** sample (`q` in `[0, 1]`).
///
/// Nearest-rank returns an element of the sample (never an
/// interpolation), which keeps integer outputs exact and byte-stable.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1).saturating_sub(1).min(sorted.len().saturating_sub(1));
    sorted.get(idx).copied().unwrap_or(0)
}

fn quantile_row(label: &str, samples: &mut [u64]) -> String {
    samples.sort_unstable();
    let q = |p: f64| quantile(samples, p);
    format!(
        "{label} min={} p25={} p50={} p75={} p90={} max={}\n",
        q(0.0),
        q(0.25),
        q(0.50),
        q(0.75),
        q(0.90),
        q(1.0),
    )
}

/// Render the merged report. `cells` must already be in grid order —
/// the sweep driver passes the expansion order of the manifest, so the
/// report is identical regardless of which cells came from the cache,
/// the ledger, or fresh execution.
pub fn render(campaign: &str, fingerprint: &str, cells: &[CellResult]) -> String {
    let mut out = String::from("# domino campaign report v1\n");
    out.push_str(&format!("campaign {campaign}\n"));
    out.push_str(&format!("fingerprint {fingerprint}\n"));
    out.push_str(&format!("cells {}\n\n## cells\n", cells.len()));
    for c in cells {
        out.push_str(&format!(
            "{} {} {} livelocks={} storms={}",
            c.cell, c.digest, c.bytes, c.livelocks, c.watchdog_storms
        ));
        for (class, n) in &c.fault_classes {
            if *n > 0 {
                out.push_str(&format!(" {class}={n}"));
            }
        }
        out.push('\n');
    }

    // Rollups group by experiment, in first-appearance (grid) order.
    let mut order: Vec<&str> = Vec::new();
    for c in cells {
        if !order.contains(&c.experiment.as_str()) {
            order.push(&c.experiment);
        }
    }
    for exp in order {
        let group: Vec<&CellResult> = cells.iter().filter(|c| c.experiment == exp).collect();
        out.push_str(&format!("\n## rollup {exp}\ncells {}\n", group.len()));
        let mut bytes: Vec<u64> = group.iter().map(|c| c.bytes).collect();
        let mut livelocks: Vec<u64> = group.iter().map(|c| c.livelocks).collect();
        let mut storms: Vec<u64> = group.iter().map(|c| c.watchdog_storms).collect();
        out.push_str(&quantile_row("bytes    ", &mut bytes));
        out.push_str(&quantile_row("livelocks", &mut livelocks));
        out.push_str(&quantile_row("storms   ", &mut storms));
        // Fault classes: summed per class, declaration order of the first
        // cell that reports each class.
        let mut classes: Vec<(String, u64)> = Vec::new();
        for c in &group {
            for (class, n) in &c.fault_classes {
                match classes.iter_mut().find(|(k, _)| k == class) {
                    Some((_, total)) => *total += n,
                    None => classes.push((class.clone(), *n)),
                }
            }
        }
        for (class, total) in classes.iter().filter(|(_, t)| *t > 0) {
            out.push_str(&format!("fault {class} total={total}\n"));
        }
        let distinct = group.iter().map(|c| c.digest.as_str()).collect::<std::collections::BTreeSet<_>>();
        out.push_str(&format!("distinct_outputs {}\n", distinct.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        assert_eq!(quantile(&[], 0.5), 0);
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 0.25), 3);
        assert_eq!(quantile(&v, 0.50), 5);
        assert_eq!(quantile(&v, 0.90), 9);
        assert_eq!(quantile(&v, 1.0), 10);
        assert_eq!(quantile(&[7], 0.5), 7);
    }

    fn cell(exp: &str, seed: u64, bytes: u64, livelocks: u64) -> CellResult {
        CellResult {
            cell: format!("{exp}.quick.s{seed}"),
            experiment: exp.to_string(),
            digest: format!("{seed:064x}"),
            bytes,
            livelocks,
            watchdog_storms: seed % 2,
            fault_classes: vec![("ap_crashes".to_string(), seed), ("quiet".to_string(), 0)],
        }
    }

    #[test]
    fn report_is_deterministic_and_grouped() {
        let cells = vec![cell("fig05", 1, 100, 0), cell("fig05", 2, 110, 3), cell("table1", 1, 50, 1)];
        let a = render("nightly", &"ab".repeat(32), &cells);
        let b = render("nightly", &"ab".repeat(32), &cells);
        assert_eq!(a, b);
        assert!(a.contains("cells 3"));
        assert!(a.contains("## rollup fig05\ncells 2"));
        assert!(a.contains("## rollup table1\ncells 1"));
        assert!(a.contains("fault ap_crashes total=3\n"), "summed per experiment:\n{a}");
        assert!(!a.contains("quiet"), "zero-total classes omitted");
        assert!(a.contains("distinct_outputs 2"));
    }

    #[test]
    fn no_wall_clock_fields_appear() {
        let text = render("c", &"00".repeat(32), &[cell("x", 1, 10, 0)]);
        for banned in ["ns", "elapsed", "hit", "miss"] {
            for line in text.lines() {
                for word in line.split_ascii_whitespace() {
                    assert_ne!(word, banned, "report leaked `{banned}`");
                }
            }
        }
    }
}
