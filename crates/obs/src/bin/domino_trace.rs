//! domino-trace: analyze JSONL traces written by `domino-run --trace`.
//!
//! Subcommands:
//!
//! ```text
//! check    <trace>        validate schema, event kinds, timestamps
//! chains   <trace>        reconstruct trigger chains vs the ≤2/≤4 limits
//! timeline <trace> [-n N] render the slot timeline (first N rows)
//! faults   <trace>        fault timeline: injections, recovery latency
//! diff     <a> <b>        first divergence + per-kind count deltas
//! ```
//!
//! All rendering lives in `domino_obs::analysis`; this binary only reads
//! files and prints pre-rendered strings.

use domino_obs::analysis;
use domino_obs::jsonl::parse_trace;
use std::process::ExitCode;

const USAGE: &str = "usage: domino-trace <check|chains|timeline|faults|diff> <trace.jsonl> [args]

  check    <trace>          validate schema, event kinds, timestamps
  chains   <trace>          trigger chains vs the paper's degree limits
  timeline <trace> [-n N]   slot timeline (default first 40 rows, 0 = all)
  faults   <trace>          injections, recoveries, recovery latency
  diff     <a> <b>          first divergence + per-kind count deltas";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn load(path: &str) -> Result<(domino_obs::TraceMeta, Vec<domino_obs::TraceRecord>), String> {
    parse_trace(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "check" => {
            let path = args.get(1).ok_or(USAGE.to_owned())?;
            let report = analysis::check(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            Ok(analysis::render_check(&report))
        }
        "chains" => {
            let path = args.get(1).ok_or(USAGE.to_owned())?;
            let (_, records) = load(path)?;
            Ok(analysis::render_chains(&analysis::chains(&records)))
        }
        "timeline" => {
            let path = args.get(1).ok_or(USAGE.to_owned())?;
            let mut limit = 40usize;
            if let Some(flag) = args.get(2) {
                if flag == "-n" || flag == "--limit" {
                    limit = args
                        .get(3)
                        .and_then(|v| v.parse().ok())
                        .ok_or("timeline: -n needs a number".to_owned())?;
                } else {
                    return Err(format!("unknown flag '{flag}'\n{USAGE}"));
                }
            }
            let (_, records) = load(path)?;
            Ok(analysis::timeline(&records, limit))
        }
        "faults" => {
            let path = args.get(1).ok_or(USAGE.to_owned())?;
            let (_, records) = load(path)?;
            Ok(analysis::render_faults(&analysis::fault_summary(&records)))
        }
        "diff" => {
            let a_path = args.get(1).ok_or(USAGE.to_owned())?;
            let b_path = args.get(2).ok_or(USAGE.to_owned())?;
            let (a_meta, a) = load(a_path)?;
            let (b_meta, b) = load(b_path)?;
            Ok(analysis::diff(&a_meta, &a, &b_meta, &b))
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{}", out);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{}", msg);
            ExitCode::FAILURE
        }
    }
}
