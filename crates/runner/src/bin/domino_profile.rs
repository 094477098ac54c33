//! `domino-profile` — cost-attribution reports and the regression diff.
//!
//! ```text
//! domino-profile report [--scheme <s>] [--scenario <n>] [--seed <n>]
//!                       [--duration-s <s>] [--udp <down>,<up> | --tcp <down>,<up>]
//!                       [--chaos <x>] [--folded]
//!
//!   Run one configured simulation with the deterministic cost profiler
//!   attached and print the attribution table (or, with --folded, the
//!   flamegraph-compatible folded-stack form). Counts are exact integers
//!   over simulated work: the same configuration prints the same bytes.
//!
//! domino-profile diff <before> <after> [--tolerance <pct>]
//!
//!   Compare two snapshots. Folded profiles diff at zero tolerance (any
//!   delta exits 1); bench JSON snapshots compare medians under the
//!   relative tolerance (default 40%) and exit 1 only on growth past it.
//! ```
//!
//! All rendering lives in `domino_runner::profcmd`; this binary parses
//! argv, does the file IO, and prints pre-rendered strings.

use domino_runner::profcmd;
use std::process::ExitCode;

fn report_main(args: &[String]) -> ExitCode {
    let parsed = match profcmd::parse_report(args) {
        Ok(p) => p,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", profcmd::USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{}", profcmd::USAGE);
            return ExitCode::from(2);
        }
    };
    print!("{}", profcmd::run_report(&parsed));
    ExitCode::SUCCESS
}

fn diff_main(args: &[String]) -> ExitCode {
    let parsed = match profcmd::parse_diff(args) {
        Ok(p) => p,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", profcmd::USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{}", profcmd::USAGE);
            return ExitCode::from(2);
        }
    };
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let (before, after) = match (read(&parsed.before), read(&parsed.after)) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match profcmd::diff(&before, &after, parsed.tolerance_pct) {
        Ok(outcome) => {
            print!("{}", outcome.text);
            if outcome.regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.split_first() {
        Some((cmd, rest)) if cmd == "report" => report_main(rest),
        Some((cmd, rest)) if cmd == "diff" => diff_main(rest),
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" => {
            eprintln!("{}", profcmd::USAGE);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", profcmd::USAGE);
            ExitCode::from(2)
        }
    }
}
