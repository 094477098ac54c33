//! `domino-profile` — deterministic cost-attribution reports and the
//! perf-regression diff.
//!
//! Two subcommands:
//!
//! * `report` runs one configured simulation with the cost profiler
//!   attached (see [`domino_obs::profile`]) and renders the result —
//!   the human table by default, the folded-stack form with `--folded`.
//!   Every count is an exact integer over simulated work, so the same
//!   configuration always renders the same bytes; CI pins the committed
//!   `results/profile_fig7_domino.txt` snapshot against a fresh report.
//!
//! * `diff` compares two snapshots. Folded profiles are exact, so their
//!   threshold is **zero**: any delta is a finding and the exit status
//!   is nonzero. Bench JSON snapshots (`BENCH_runner.json` or a testkit
//!   micro-bench group file) carry wall times, which are noisy on a
//!   shared host, so medians are compared under a relative tolerance
//!   (default ±40%, `--tolerance` to override) and only growth beyond
//!   it counts as a regression.
//!
//! The library renders; the binary prints. That split keeps every
//! rendered byte inside lint rule D006's render-path crates.

use crate::simcmd::{RunSpec, Scenario, Traffic};
use domino_core::Scheme;
use domino_obs::{CostProfile, ProfHandle, TraceHandle};
use std::fmt::Write as _;

/// Usage string for the binary (printed on `--help` and parse errors).
pub const USAGE: &str = "usage: domino-profile report [--scheme <dcf|centaur|domino|omniscient>] \
[--scenario <fig1|fig7|t6x2|t10x2|rt20x3>] [--seed <n>] [--duration-s <s>] \
[--udp <down_bps>,<up_bps> | --tcp <down_bps>,<up_bps>] [--chaos <x>] \
[--folded]\n\
       domino-profile diff <before> <after> [--tolerance <pct>]";

/// Parsed `domino-profile report …` invocation.
#[derive(Clone, Debug)]
pub struct ReportArgs {
    /// Scheme, scenario, seed, horizon, workload and chaos (the flags
    /// `domino-run sim` takes too).
    pub spec: RunSpec,
    /// Emit the folded-stack form instead of the table.
    pub folded: bool,
}

impl Default for ReportArgs {
    /// The CI pin: `fig7_200ms/DOMINO` — the paper's Fig. 7 topology,
    /// DOMINO scheme, 200 ms horizon, default workload, no faults.
    fn default() -> ReportArgs {
        ReportArgs {
            spec: RunSpec {
                scheme: Scheme::Domino,
                scenario: Scenario::Fig7,
                seed: 1,
                duration_s: 0.2,
                traffic: Traffic::Udp(8e6, 2e6),
                chaos: 0.0,
            },
            folded: false,
        }
    }
}

/// Parse the arguments after `report`.
pub fn parse_report(args: &[String]) -> Result<ReportArgs, String> {
    let mut out = ReportArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if out.spec.parse_flag(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--folded" => out.folded = true,
            "--help" | "-h" => return Err(String::new()),
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// Run the configured simulation with the profiler attached and render
/// the requested form. The text is a pure function of the arguments.
pub fn run_report(args: &ReportArgs) -> String {
    let spec = &args.spec;
    let (handle, profiler) = ProfHandle::collecting();
    let report = spec.builder(spec.faults()).run_profiled(spec.scheme, TraceHandle::off(), handle);
    let profile = profiler.snapshot();
    if args.folded {
        return profile.render_folded();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} / {} seed={} duration_s={:.6} events={}",
        spec.scenario.name(),
        report.scheme.label(),
        spec.seed,
        spec.duration_s,
        report.stats.events,
    );
    out.push_str(&profile.render_table());
    out
}

/// Parsed `domino-profile diff …` invocation.
#[derive(Clone, Debug)]
pub struct DiffArgs {
    /// Baseline snapshot path.
    pub before: std::path::PathBuf,
    /// Candidate snapshot path.
    pub after: std::path::PathBuf,
    /// Relative tolerance (percent) for wall-time bench entries.
    pub tolerance_pct: f64,
}

/// Parse the arguments after `diff`.
pub fn parse_diff(args: &[String]) -> Result<DiffArgs, String> {
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    let mut tolerance_pct = 40.0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                tolerance_pct = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or("--tolerance needs a non-negative percent")?;
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => paths.push(path.into()),
        }
    }
    if paths.len() != 2 {
        return Err("diff needs exactly two snapshot paths".to_string());
    }
    let after = paths.pop().expect("len checked");
    let before = paths.pop().expect("len checked");
    Ok(DiffArgs { before, after, tolerance_pct })
}

/// The outcome of one snapshot comparison.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    /// Human-readable comparison, one finding per line.
    pub text: String,
    /// Did the candidate regress past the applicable threshold?
    pub regressed: bool,
}

/// Compare two snapshot texts. Folded cost profiles (the default form)
/// are exact, so *any* delta regresses; bench JSON medians regress only
/// when they grow more than `tolerance_pct` percent.
pub fn diff(before: &str, after: &str, tolerance_pct: f64) -> Result<DiffOutcome, String> {
    if before.trim_start().starts_with('{') || after.trim_start().starts_with('{') {
        return diff_bench(before, after, tolerance_pct);
    }
    let a = CostProfile::parse_folded(before).map_err(|e| format!("before: {e}"))?;
    let b = CostProfile::parse_folded(after).map_err(|e| format!("after: {e}"))?;
    let lines = a.diff(&b);
    if lines.is_empty() {
        return Ok(DiffOutcome { text: "profiles identical\n".to_string(), regressed: false });
    }
    let mut text = String::new();
    for line in &lines {
        let _ = writeln!(text, "DELTA {line}");
    }
    let _ = writeln!(
        text,
        "{} cost center(s) differ (exact counters: zero tolerance)",
        lines.len()
    );
    Ok(DiffOutcome { text, regressed: true })
}

/// `(name, median_ns)` pairs scraped from a bench JSON snapshot. The
/// format is our own (`testkit::bench::Harness` / `scripts/bench.sh`),
/// so a line-oriented scan is exact: every result entry is one line
/// carrying both a `"name"` and a `"median_ns"` field.
fn bench_entries(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else { continue };
        let Some(median) = field_f64(line, "\"median_ns\": ") else { continue };
        out.push((name, median));
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn diff_bench(before: &str, after: &str, tolerance_pct: f64) -> Result<DiffOutcome, String> {
    let a = bench_entries(before);
    let b = bench_entries(after);
    if a.is_empty() {
        return Err("before: no bench entries found".to_string());
    }
    if b.is_empty() {
        return Err("after: no bench entries found".to_string());
    }
    let mut text = String::new();
    let mut regressed = false;
    for (name, old) in &a {
        let Some((_, new)) = b.iter().find(|(n, _)| n == name) else {
            regressed = true;
            let _ = writeln!(text, "MISSING {name} (present before, absent after)");
            continue;
        };
        let delta_pct = if *old > 0.0 { (new - old) / old * 100.0 } else { 0.0 };
        if delta_pct > tolerance_pct {
            regressed = true;
            let _ = writeln!(
                text,
                "REGRESSED {name} {old:.0} ns -> {new:.0} ns ({delta_pct:+.1}% > {tolerance_pct:.0}%)"
            );
        } else if delta_pct.abs() > tolerance_pct {
            let _ = writeln!(text, "improved {name} {old:.0} ns -> {new:.0} ns ({delta_pct:+.1}%)");
        }
    }
    for (name, _) in &b {
        if !a.iter().any(|(n, _)| n == name) {
            let _ = writeln!(text, "new {name} (no baseline)");
        }
    }
    let _ = writeln!(
        text,
        "{} bench entries compared, tolerance {tolerance_pct:.0}%: {}",
        a.len(),
        if regressed { "REGRESSED" } else { "ok" }
    );
    Ok(DiffOutcome { text, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn report_parse_rejects_bad_input_and_accepts_good() {
        assert!(parse_report(&argv(&["--scheme", "nope"])).is_err());
        assert!(parse_report(&argv(&["--duration-s", "-1"])).is_err());
        assert!(parse_report(&argv(&["--bogus"])).is_err());
        let a = parse_report(&argv(&[
            "--scheme", "dcf", "--scenario", "fig1", "--seed", "7", "--duration-s", "0.1",
            "--folded",
        ]))
        .unwrap();
        assert_eq!(a.spec.scheme, Scheme::Dcf);
        assert_eq!(a.spec.seed, 7);
        assert!(a.folded);
    }

    #[test]
    fn report_parse_refuses_a_horizon_that_rounds_to_zero() {
        for v in ["0", "-0", "1e-12"] {
            let err = parse_report(&argv(&["--duration-s", v])).unwrap_err();
            assert!(err.contains("--duration-s") && err.contains("rounds to 0 ns"), "{v}: {err}");
        }
        assert_eq!(parse_report(&argv(&["--duration-s", "0.05"])).unwrap().spec.duration_s, 0.05);
    }

    #[test]
    fn default_report_attributes_and_names_bookkeeping_costs() {
        let mut args = ReportArgs::default();
        let table = run_report(&args);
        // The acceptance bar: ≥90% of events land in a named subsystem
        // bucket, and the signature/converter bookkeeping is explicit.
        let share: u64 = table
            .lines()
            .find(|l| l.starts_with("attributed_events"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|l| l.split('%').next())
            .and_then(|l| l.parse().ok())
            .expect("attribution footer present");
        assert!(share >= 90, "attribution share {share}% below bar:\n{table}");
        for cost in ["signature;emit", "signature;emit;targets", "controller;convert;slots",
            "controller;convert;actions"]
        {
            assert!(table.contains(cost), "missing {cost}:\n{table}");
        }
        // Determinism: same configuration, same bytes.
        assert_eq!(table, run_report(&args));
        args.folded = true;
        let folded = run_report(&args);
        let profile = CostProfile::parse_folded(&folded).expect("folded parses");
        assert_eq!(profile.attributed_percent(), 100);
    }

    #[test]
    fn folded_diff_is_zero_tolerance() {
        let base = "engine;pop 100\nevents;slot 100\n";
        let same = diff(base, base, 40.0).unwrap();
        assert!(!same.regressed);
        let grown = diff(base, "engine;pop 101\nevents;slot 100\n", 40.0).unwrap();
        assert!(grown.regressed);
        assert!(grown.text.contains("DELTA engine;pop 100 -> 101 (+1)"));
        assert!(diff("bogus;center 1", base, 40.0).is_err());
    }

    #[test]
    fn bench_diff_tolerates_noise_but_catches_growth() {
        let before = r#"{"results": [
            {"name": "ctrl/round_aps_02", "median_ns": 1000.0, "p95_ns": 1.0},
            {"name": "ctrl/round_aps_20", "median_ns": 16000.0, "p95_ns": 1.0}
        ]}"#;
        let noisy = r#"{"results": [
            {"name": "ctrl/round_aps_02", "median_ns": 1300.0, "p95_ns": 1.0},
            {"name": "ctrl/round_aps_20", "median_ns": 15000.0, "p95_ns": 1.0}
        ]}"#;
        let ok = diff(before, noisy, 40.0).unwrap();
        assert!(!ok.regressed, "{}", ok.text);
        let blown = r#"{"results": [
            {"name": "ctrl/round_aps_02", "median_ns": 2500.0, "p95_ns": 1.0},
            {"name": "ctrl/round_aps_20", "median_ns": 15000.0, "p95_ns": 1.0}
        ]}"#;
        let bad = diff(before, blown, 40.0).unwrap();
        assert!(bad.regressed);
        assert!(bad.text.contains("REGRESSED ctrl/round_aps_02"));
        let missing = diff(before, r#"{"name": "other", "median_ns": 1.0}"#, 40.0).unwrap();
        assert!(missing.regressed);
        assert!(missing.text.contains("MISSING ctrl/round_aps_02"));
    }

    #[test]
    fn diff_parse_needs_two_paths() {
        assert!(parse_diff(&argv(&["one"])).is_err());
        assert!(parse_diff(&argv(&["--tolerance", "x", "a", "b"])).is_err());
        let d = parse_diff(&argv(&["a.txt", "b.txt", "--tolerance", "25"])).unwrap();
        assert_eq!(d.tolerance_pct, 25.0);
    }
}
