//! The incremental campaign driver: expand a manifest grid, run every
//! cell through the shard cache, and merge a deterministic report —
//! resumable at any interruption point.
//!
//! A campaign directory looks like:
//!
//! ```text
//! <out>/
//!   ledger.txt        append-only completion log (see campaign::ledger)
//!   cells/<id>.txt    one rendered output per grid cell
//!   report.txt        merged report (see campaign::report)
//! ```
//!
//! Three determinism guarantees, each checked end-to-end by
//! `scripts/ci.sh`:
//!
//! * **Cache transparency** — a cell's text is byte-identical whether
//!   its shards were computed, cached, or mixed (`cache` module).
//! * **Resume transparency** — `--resume` skips cells whose ledger entry
//!   *and* on-disk file digest both check out; a cell file that was
//!   tampered with or torn mid-write is re-run, never trusted. The
//!   ledger binds to the campaign name and the code fingerprint, so a
//!   resume under edited sources is refused rather than spliced.
//! * **Report purity** — the merged report contains no wall times and no
//!   cache counters, so cold, warm, and interrupted-then-resumed runs of
//!   the same grid produce byte-identical `report.txt`.
//!
//! Per rule D006 this module never prints: progress lines go through the
//! caller's callback and the binary decides what to do with them.

use crate::cache::CacheSession;
use crate::registry;
use crate::scale::Scale;
use domino_campaign::store::StoreStats;
use domino_campaign::{fingerprint, ledger, manifest, report};
use domino_testkit::digest::sha256_hex;
use std::io::Write;
use std::path::{Path, PathBuf};

/// How one campaign invocation should execute.
#[derive(Debug)]
pub struct CampaignConfig {
    /// Campaign output directory (ledger, cell files, report).
    pub out_dir: PathBuf,
    /// Shard cache directory; `None` disables the cache entirely.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for shard execution.
    pub jobs: usize,
    /// Resume from an existing ledger instead of starting fresh.
    pub resume: bool,
}

/// What a campaign invocation did.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Campaign name from the manifest.
    pub name: String,
    /// Total grid cells.
    pub cells_total: usize,
    /// Cells skipped because the ledger + cell file verified.
    pub cells_resumed: usize,
    /// Cells executed by this invocation.
    pub cells_executed: usize,
    /// Shards served from the cache, summed over executed cells.
    pub shards_cached: usize,
    /// Shards computed, summed over executed cells.
    pub shards_executed: usize,
    /// Where the merged report was written.
    pub report_path: PathBuf,
    /// Cache counters, when a cache was in use.
    pub cache_stats: Option<StoreStats>,
}

fn parse_scale(name: &str) -> Result<Scale, String> {
    Scale::from_name(name).ok_or_else(|| format!("campaign: unknown scale `{name}`"))
}

fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("campaign: cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("campaign: cannot commit {}: {e}", path.display()))
}

/// A resumed cell is only trusted if its file still hashes to what the
/// ledger recorded.
fn verify_resumed(cells_dir: &Path, entry: &ledger::Entry) -> Option<String> {
    let text = std::fs::read_to_string(cells_dir.join(format!("{}.txt", entry.cell))).ok()?;
    (sha256_hex(text.as_bytes()) == entry.digest).then_some(text)
}

/// Run (or resume) the campaign described by `manifest_text`. Progress
/// lines are handed to `on_progress` as cells complete; nothing is
/// printed here.
pub fn run_campaign(
    manifest_text: &str,
    cfg: &CampaignConfig,
    on_progress: &mut dyn FnMut(&str),
) -> Result<CampaignOutcome, String> {
    let spec = manifest::parse(manifest_text)?;
    for name in &spec.experiments {
        if registry::find(name).is_none() {
            return Err(format!(
                "campaign: unknown experiment `{name}` (see `domino-run --list`)"
            ));
        }
    }
    for scale in &spec.scales {
        parse_scale(scale)?;
    }

    // The ledger binds to the code fingerprint even when the shard cache
    // is off, so resume can always refuse to splice across code changes.
    let mut session = match &cfg.cache_dir {
        Some(dir) => Some(CacheSession::open(dir)?),
        None => None,
    };
    let fp = match &session {
        Some(s) => s.fingerprint().to_string(),
        None => {
            let root = fingerprint::workspace_crates_root()
                .ok_or_else(|| "campaign: cannot locate workspace crates/ directory".to_string())?;
            fingerprint::fingerprint(&fingerprint::scan(&root)?)?
        }
    };

    let cells_dir = cfg.out_dir.join("cells");
    std::fs::create_dir_all(&cells_dir)
        .map_err(|e| format!("campaign: cannot create {}: {e}", cells_dir.display()))?;
    let ledger_path = cfg.out_dir.join("ledger.txt");

    let previous = if cfg.resume {
        let text = std::fs::read_to_string(&ledger_path).map_err(|e| {
            format!("campaign: --resume but no ledger at {}: {e}", ledger_path.display())
        })?;
        let led = ledger::parse(&text)?;
        if led.name != spec.name {
            return Err(format!(
                "campaign: ledger belongs to campaign `{}`, manifest says `{}`",
                led.name, spec.name
            ));
        }
        if led.fingerprint != fp {
            return Err(
                "campaign: sources changed since the ledger was written; \
                 re-run without --resume to start over"
                    .to_string(),
            );
        }
        Some(led)
    } else {
        std::fs::write(&ledger_path, ledger::render_header(&spec.name, &fp))
            .map_err(|e| format!("campaign: cannot write {}: {e}", ledger_path.display()))?;
        None
    };
    let mut ledger_file = std::fs::OpenOptions::new()
        .append(true)
        .open(&ledger_path)
        .map_err(|e| format!("campaign: cannot open {}: {e}", ledger_path.display()))?;

    let grid = spec.cells();
    let mut results: Vec<report::CellResult> = Vec::with_capacity(grid.len());
    let mut cells_resumed = 0usize;
    let mut cells_executed = 0usize;
    let mut shards_cached = 0usize;
    let mut shards_executed = 0usize;

    for cell in &grid {
        let id = cell.id();
        let resumed = previous
            .as_ref()
            .and_then(|led| led.get(&id))
            .and_then(|entry| verify_resumed(&cells_dir, entry).map(|text| (entry, text)));
        if let Some((entry, text)) = resumed {
            results.push(report::CellResult {
                cell: id.clone(),
                experiment: cell.experiment.clone(),
                digest: entry.digest.clone(),
                bytes: text.len() as u64,
                livelocks: entry.livelocks,
                watchdog_storms: entry.watchdog_storms,
                fault_classes: entry.fault_classes.clone(),
            });
            cells_resumed += 1;
            on_progress(&format!("{id:<40} resumed (verified)"));
            continue;
        }

        let exp = registry::find(&cell.experiment)
            .ok_or_else(|| format!("campaign: unknown experiment `{}`", cell.experiment))?;
        let scale = parse_scale(&cell.scale)?;
        let run = crate::run_experiment(exp, scale, cell.seed, cfg.jobs, session.as_mut());
        let (cached, executed) = (run.shards_cached, run.shards_executed());
        shards_cached += cached;
        shards_executed += executed;

        // Durability order matters: cell file first, ledger line second —
        // a crash between the two re-runs the cell, never trusts a
        // missing file.
        write_atomic(&cells_dir.join(format!("{id}.txt")), &run.text)?;
        let entry = ledger::Entry {
            cell: id.clone(),
            digest: sha256_hex(run.text.as_bytes()),
            livelocks: run.digest.livelocks,
            watchdog_storms: run.digest.watchdog_storms,
            fault_classes: run
                .digest
                .fault_classes
                .iter()
                .map(|(name, count)| (name.to_string(), *count))
                .collect(),
        };
        ledger_file
            .write_all(ledger::render_entry(&entry).as_bytes())
            .and_then(|()| ledger_file.flush())
            .map_err(|e| format!("campaign: cannot append ledger: {e}"))?;
        results.push(report::CellResult {
            cell: id.clone(),
            experiment: cell.experiment.clone(),
            digest: entry.digest,
            bytes: run.text.len() as u64,
            livelocks: entry.livelocks,
            watchdog_storms: entry.watchdog_storms,
            fault_classes: entry.fault_classes,
        });
        cells_executed += 1;
        on_progress(&format!(
            "{id:<40} {executed} shard{} executed, {cached} cached",
            if executed == 1 { "" } else { "s" }
        ));
    }

    let report_path = cfg.out_dir.join("report.txt");
    write_atomic(&report_path, &report::render(&spec.name, &fp, &results))?;
    let cache_stats = match session.as_mut() {
        Some(s) => {
            s.flush()?;
            Some(s.stats())
        }
        None => None,
    };
    Ok(CampaignOutcome {
        name: spec.name,
        cells_total: grid.len(),
        cells_resumed,
        cells_executed,
        shards_cached,
        shards_executed,
        report_path,
        cache_stats,
    })
}

/// Render the closing summary of a campaign invocation (printed by the
/// binary, composed here per rule D006).
pub fn render_campaign_summary(outcome: &CampaignOutcome) -> String {
    let mut line = format!(
        "campaign {}: {} cells ({} resumed, {} executed); shards: {} cached, {} executed",
        outcome.name,
        outcome.cells_total,
        outcome.cells_resumed,
        outcome.cells_executed,
        outcome.shards_cached,
        outcome.shards_executed,
    );
    if let Some(stats) = &outcome.cache_stats {
        line.push_str(&format!(
            "; cache: {} hits, {} misses, {} stores, {} evictions",
            stats.hits, stats.misses, stats.stores, stats.evictions
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "campaign smoke\n\
                            experiments table1_params fig05_rop_samples\n\
                            seeds 1 2\n";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("domino-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(root: &Path, resume: bool) -> CampaignConfig {
        CampaignConfig {
            out_dir: root.join("out"),
            cache_dir: Some(root.join("cache")),
            jobs: 2,
            resume,
        }
    }

    #[test]
    fn cold_then_warm_reports_are_identical_and_warm_runs_nothing() {
        let root = tmp_dir("warm");
        let mut lines = Vec::new();
        let cold =
            run_campaign(MANIFEST, &cfg(&root, false), &mut |l| lines.push(l.to_string()))
                .unwrap();
        assert_eq!(cold.cells_total, 4);
        assert_eq!(cold.cells_executed, 4);
        assert!(cold.shards_executed > 0);
        let cold_report = std::fs::read_to_string(&cold.report_path).unwrap();

        let warm = run_campaign(MANIFEST, &cfg(&root, false), &mut |_| {}).unwrap();
        assert_eq!(warm.shards_executed, 0, "warm rerun must compute nothing");
        assert_eq!(warm.cache_stats.unwrap().misses, 0);
        let warm_report = std::fs::read_to_string(&warm.report_path).unwrap();
        assert_eq!(cold_report, warm_report, "reports must be byte-identical");
        assert!(render_campaign_summary(&warm).contains("cache:"));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_report() {
        let root = tmp_dir("resume");
        let cold = run_campaign(MANIFEST, &cfg(&root, false), &mut |_| {}).unwrap();
        let cold_report = std::fs::read_to_string(&cold.report_path).unwrap();

        // Simulate an interruption after three cells: drop the last
        // ledger line and its cell file, and the report.
        let fresh = tmp_dir("resume2");
        let c = cfg(&fresh, false);
        let _ = run_campaign(MANIFEST, &c, &mut |_| {}).unwrap();
        let ledger_path = c.out_dir.join("ledger.txt");
        let text = std::fs::read_to_string(&ledger_path).unwrap();
        let kept: Vec<&str> = text.lines().collect();
        let (last, head) = kept.split_last().unwrap();
        let lost_cell = last.split_ascii_whitespace().nth(1).unwrap().to_string();
        std::fs::write(&ledger_path, format!("{}\n", head.join("\n"))).unwrap();
        std::fs::remove_file(c.out_dir.join("cells").join(format!("{lost_cell}.txt"))).unwrap();
        std::fs::remove_file(c.out_dir.join("report.txt")).unwrap();

        let resumed = run_campaign(MANIFEST, &cfg(&fresh, true), &mut |_| {}).unwrap();
        assert_eq!(resumed.cells_resumed, 3);
        assert_eq!(resumed.cells_executed, 1);
        let resumed_report = std::fs::read_to_string(&resumed.report_path).unwrap();
        assert_eq!(cold_report, resumed_report, "resume must reproduce the cold report");
        let _ = std::fs::remove_dir_all(root);
        let _ = std::fs::remove_dir_all(fresh);
    }

    #[test]
    fn tampered_cell_file_is_rerun_on_resume() {
        let root = tmp_dir("tamper");
        let c = cfg(&root, false);
        let _ = run_campaign(MANIFEST, &c, &mut |_| {}).unwrap();
        let victim = c.out_dir.join("cells/table1_params.quick.s1.txt");
        std::fs::write(&victim, "tampered\n").unwrap();
        let resumed = run_campaign(MANIFEST, &cfg(&root, true), &mut |_| {}).unwrap();
        assert_eq!(resumed.cells_executed, 1, "tampered cell must re-run");
        assert_ne!(std::fs::read_to_string(&victim).unwrap(), "tampered\n");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn resume_refuses_foreign_ledgers() {
        let root = tmp_dir("foreign");
        let c = cfg(&root, false);
        let _ = run_campaign(MANIFEST, &c, &mut |_| {}).unwrap();
        let other = "campaign other\nexperiments table1_params\n";
        let err = run_campaign(other, &cfg(&root, true), &mut |_| {}).unwrap_err();
        assert!(err.contains("belongs to campaign"), "{err}");

        // Fingerprint mismatch: rewrite the binding line.
        let ledger_path = c.out_dir.join("ledger.txt");
        let text = std::fs::read_to_string(&ledger_path).unwrap();
        let swapped = text.replacen(
            text.lines().nth(1).unwrap(),
            &format!("campaign smoke {}", "0".repeat(64)),
            1,
        );
        std::fs::write(&ledger_path, swapped).unwrap();
        let err = run_campaign(MANIFEST, &cfg(&root, true), &mut |_| {}).unwrap_err();
        assert!(err.contains("sources changed"), "{err}");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn campaign_without_cache_still_completes_and_reports() {
        let root = tmp_dir("nocache");
        let c = CampaignConfig {
            out_dir: root.join("out"),
            cache_dir: None,
            jobs: 1,
            resume: false,
        };
        let small = "campaign tiny\nexperiments table1_params\n";
        let outcome = run_campaign(small, &c, &mut |_| {}).unwrap();
        assert_eq!(outcome.cells_total, 1);
        assert!(outcome.cache_stats.is_none());
        assert!(outcome.report_path.is_file());
        let err = run_campaign("campaign x\nexperiments nope\n", &c, &mut |_| {}).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        let _ = std::fs::remove_dir_all(root);
    }
}
