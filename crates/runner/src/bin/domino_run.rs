//! `domino-run` — regenerate and verify the paper's evaluation outputs.
//!
//! ```text
//! domino-run [all | <experiment>...] [flags]
//!
//!   --full         paper scale (50 s simulations, 1000-trial sweeps)
//!   --seed <n>     master seed (default 1)
//!   --jobs <n>     worker threads (default: all hardware threads)
//!   --check        byte-diff regenerated output against results/ instead
//!                  of writing; exit 1 on any mismatch
//!   --json <path>  write a JSON manifest with per-shard wall times
//!   --trace <dir>  also write each selected experiment's designated
//!                  JSONL event trace to <dir>/<name>.jsonl (experiments
//!                  without one are skipped); analyze with `domino-trace`
//!   --out <dir>    results directory (default: ./results, falling back
//!                  to the directory committed next to the workspace)
//!   --cache        serve shards from the content-addressed result cache,
//!                  executing only misses (bytes are identical either way)
//!   --cache-dir <dir>  cache location (default: .domino-cache)
//!   --list         list registered experiments and exit
//!
//! domino-run campaign <manifest> [--jobs <n>] [--resume] [--report]
//!                                [--out <dir>] [--no-cache] [--cache-dir <dir>]
//!
//!   Expand the manifest's experiment × scale × seed grid and run every
//!   cell through the shard cache, writing <out>/cells/*.txt, an
//!   append-only ledger, and a deterministic merged report.txt.
//!   --resume skips ledger-verified cells; --report prints the report.
//!
//! domino-run sim --scheme <s> [--scenario <n>] [--seed <n>] [--duration-s <s>]
//!                [--udp <down>,<up> | --tcp <down>,<up>] [--chaos <x>]
//!                [--standby] [--ctrl-crash <p>]
//!                [--checkpoint-every-us <n> | --checkpoint-at-us <t>]...
//!                [--state-dir <dir>] [--restore <file>]
//!
//!   One crash-resumable run. Checkpoints are sealed, digest-verified
//!   snapshot containers written under --state-dir; --restore finishes a
//!   run from one in a fresh process. The stats block on stdout is
//!   byte-identical whether or not the run was interrupted.
//!
//! domino-run fingerprint
//!
//!   Print the per-crate source manifest (the committed
//!   results/source_manifest.txt must byte-match it).
//! ```
//!
//! Output text is a pure function of `(experiment, scale, seed)`; the
//! jobs count, shard completion order, and the cache never change a
//! byte. Tracing is observation-only: `--trace` never changes the
//! rendered results.

use domino_campaign::fingerprint;
use domino_runner::cache::{render_cache_line, CacheSession};
use domino_runner::registry::{self, Experiment, REGISTRY};
use domino_runner::scale::Scale;
use domino_runner::simcmd;
use domino_runner::sweep::{render_campaign_summary, run_campaign, CampaignConfig};
use domino_runner::{
    check_against, pool, render_list, render_manifest, render_progress, render_summary,
    run_experiment, CheckStatus,
};
use domino_testkit::bench::Stopwatch;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    names: Vec<String>,
    scale: Scale,
    seed: u64,
    jobs: usize,
    check: bool,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    cache: bool,
    cache_dir: PathBuf,
    list: bool,
}

const USAGE: &str = "usage: domino-run [all | <experiment>...] \
[--full] [--seed <n>] [--jobs <n>] [--check] [--json <path>] [--trace <dir>] \
[--out <dir>] [--cache] [--cache-dir <dir>] [--list]\n\
       domino-run campaign <manifest> [--jobs <n>] [--resume] [--report] \
[--out <dir>] [--no-cache] [--cache-dir <dir>]\n\
       domino-run sim --scheme <s> [--checkpoint-every-us <n>] [--restore <file>] [...]\n\
       domino-run fingerprint";

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        names: Vec::new(),
        scale: Scale::Quick,
        seed: registry::DEFAULT_SEED,
        jobs: pool::default_jobs(),
        check: false,
        json: None,
        trace: None,
        out: None,
        cache: false,
        cache_dir: PathBuf::from(".domino-cache"),
        list: false,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => cli.scale = Scale::Full,
            "--seed" => {
                cli.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--jobs" => {
                cli.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--jobs needs a positive integer")?;
            }
            "--check" => cli.check = true,
            "--json" => cli.json = Some(it.next().ok_or("--json needs a path")?.into()),
            "--trace" => cli.trace = Some(it.next().ok_or("--trace needs a directory")?.into()),
            "--out" => cli.out = Some(it.next().ok_or("--out needs a directory")?.into()),
            "--cache" => cli.cache = true,
            "--no-cache" => cli.cache = false,
            "--cache-dir" => {
                cli.cache_dir = it.next().ok_or("--cache-dir needs a directory")?.into();
            }
            "--list" => cli.list = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => cli.names.push(name.to_string()),
        }
    }
    Ok(cli)
}

/// Resolve the positional names into registry entries, in registry order
/// for `all`/empty and in the order given otherwise.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() || names.iter().any(|n| n == "all") {
        return Ok(REGISTRY.iter().collect());
    }
    names
        .iter()
        .map(|n| {
            registry::find(n).ok_or_else(|| {
                format!("unknown experiment {n}; `domino-run --list` shows the registry")
            })
        })
        .collect()
}

/// `--out` if given, else `./results` when present, else the `results/`
/// directory committed next to this workspace.
fn results_dir(cli: &Cli) -> PathBuf {
    if let Some(dir) = &cli.out {
        return dir.clone();
    }
    let cwd = PathBuf::from("results");
    if cwd.is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `domino-run campaign …` — parse the subcommand's own flags and drive
/// the sweep engine.
fn campaign_main(args: &[String]) -> ExitCode {
    let mut manifest_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut cache_dir = PathBuf::from(".domino-cache");
    let mut use_cache = true;
    let mut jobs = pool::default_jobs();
    let mut resume = false;
    let mut report = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = match it.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1) {
                    Some(n) => n,
                    None => {
                        eprintln!("--jobs needs a positive integer\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--resume" => resume = true,
            "--report" => report = true,
            "--no-cache" => use_cache = false,
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = d.into(),
                None => {
                    eprintln!("--cache-dir needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(d) => out = Some(d.into()),
                None => {
                    eprintln!("--out needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            path if manifest_path.is_none() => manifest_path = Some(path.into()),
            extra => {
                eprintln!("unexpected argument {extra}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(manifest_path) = manifest_path else {
        eprintln!("campaign needs a manifest path\n{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", manifest_path.display());
            return ExitCode::FAILURE;
        }
    };
    // Default output directory: campaigns/out/<campaign name>.
    let out_dir = match out {
        Some(dir) => dir,
        None => match domino_campaign::manifest::parse(&text) {
            Ok(spec) => PathBuf::from("campaigns/out").join(spec.name),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let cfg = CampaignConfig {
        out_dir,
        cache_dir: use_cache.then_some(cache_dir),
        jobs,
        resume,
    };
    let total = Stopwatch::start();
    match run_campaign(&text, &cfg, &mut |line| println!("{line}")) {
        Ok(outcome) => {
            println!("{}", render_campaign_summary(&outcome));
            println!("{}", render_summary(outcome.cells_total, total.elapsed_ns(), cfg.jobs));
            println!("report: {}", outcome.report_path.display());
            if report {
                match std::fs::read_to_string(&outcome.report_path) {
                    Ok(t) => print!("{t}"),
                    Err(e) => {
                        eprintln!("cannot read {}: {e}", outcome.report_path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `domino-run sim …` — one crash-resumable run: write sealed checkpoint
/// files (stderr notes each one) and print the deterministic stats block.
fn sim_main(args: &[String]) -> ExitCode {
    let parsed = match simcmd::parse(args) {
        Ok(p) => p,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", simcmd::USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{}", simcmd::USAGE);
            return ExitCode::from(2);
        }
    };
    match simcmd::run(&parsed) {
        Ok(outcome) => {
            for (path, sealed) in &outcome.checkpoints {
                if let Some(dir) = path.parent() {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("cannot create {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                }
                if let Err(e) = std::fs::write(path, sealed) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("checkpoint: {} ({} bytes)", path.display(), sealed.len());
            }
            print!("{}", outcome.text);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// `domino-run fingerprint` — print the live per-crate source manifest.
fn fingerprint_main() -> ExitCode {
    let Some(root) = fingerprint::workspace_crates_root() else {
        eprintln!("cannot locate workspace crates/ directory");
        return ExitCode::FAILURE;
    };
    match fingerprint::scan(&root) {
        Ok(entries) => {
            print!("{}", fingerprint::render(&entries));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.split_first() {
        Some((cmd, rest)) if cmd == "campaign" => return campaign_main(rest),
        Some((cmd, rest)) if cmd == "sim" => return sim_main(rest),
        Some((cmd, rest)) if cmd == "fingerprint" && rest.is_empty() => {
            return fingerprint_main();
        }
        _ => {}
    }
    let cli = match parse(argv) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print!("{}", render_list());
        return ExitCode::SUCCESS;
    }
    let selected = match select(&cli.names) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let dir = results_dir(&cli);
    if !cli.check {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(trace_dir) = &cli.trace {
        if let Err(e) = std::fs::create_dir_all(trace_dir) {
            eprintln!("cannot create {}: {e}", trace_dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut session = if cli.cache {
        match CacheSession::open(&cli.cache_dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let total = Stopwatch::start();
    let mut runs = Vec::with_capacity(selected.len());
    let mut mismatches = 0usize;
    for exp in selected {
        let run = run_experiment(exp, cli.scale, cli.seed, cli.jobs, session.as_mut());
        if session.is_some() {
            println!("{}", render_cache_line(&run));
        }
        let path = dir.join(run.output());
        let verdict = if cli.check {
            match check_against(&dir, &run) {
                CheckStatus::Match => "check: match".to_string(),
                CheckStatus::Missing => {
                    mismatches += 1;
                    format!("check: MISSING {}", path.display())
                }
                CheckStatus::Differs { line, expected, actual } => {
                    mismatches += 1;
                    format!(
                        "check: DIFFERS at line {line}\n  committed:   {expected}\n  regenerated: {actual}"
                    )
                }
            }
        } else {
            match std::fs::write(&path, &run.text) {
                Ok(()) => format!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        };
        println!("{}", render_progress(&run, &verdict));
        if let Some(trace_dir) = &cli.trace {
            if let Some(render_trace) = exp.trace {
                let path = trace_dir.join(format!("{}.jsonl", exp.name));
                let jsonl = render_trace(cli.scale, cli.seed);
                if let Err(e) = std::fs::write(&path, jsonl) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("trace: {}", path.display());
            }
        }
        runs.push(run);
    }
    let wall_ns = total.elapsed_ns();

    if let Some(path) = &cli.json {
        let manifest =
            render_manifest(cli.scale, cli.seed, cli.jobs, pool::default_jobs(), &runs, wall_ns);
        if let Err(e) = std::fs::write(path, manifest) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("manifest: {}", path.display());
    }

    if let Some(s) = session.as_mut() {
        if let Err(e) = s.flush() {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        print!("{}", s.render_stats());
    }

    println!("{}", render_summary(runs.len(), wall_ns, cli.jobs));
    if mismatches > 0 {
        eprintln!("{mismatches} experiment(s) differ from {}", dir.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
