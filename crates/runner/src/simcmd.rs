//! `domino-run sim` — one crash-resumable simulation run.
//!
//! The experiment registry answers "regenerate the paper"; this
//! subcommand answers "run one configured simulation, snapshot it at
//! checkpoints, and finish it later in a fresh process". Checkpoints are
//! the sealed containers of [`domino_sim::snapshot`]: versioned,
//! digest-verified, and bound to the complete run configuration, so a
//! resume under the wrong scheme, seed, or fault plane fails loudly
//! instead of silently diverging. The rendered stats block is a pure
//! function of the run — a restored run's block byte-matches the
//! uninterrupted run's, which is exactly what the CI gate diffs.

use domino_core::traffic::UdpSource;
use domino_core::{scenarios, Checkpoints, FaultConfig, RunOpts, RunReport, Scheme, SimulationBuilder};
use domino_sim::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Usage string for the subcommand (the binary prints it on `--help`).
pub const USAGE: &str = "usage: domino-run sim --scheme <dcf|centaur|domino|omniscient> \
[--scenario <fig1|fig7|t6x2|t10x2|rt20x3>] [--seed <n>] [--duration-s <s>] \
[--udp <down_bps>,<up_bps> | --tcp <down_bps>,<up_bps>] [--chaos <x>] \
[--standby] [--ctrl-crash <p>] \
[--checkpoint-every-us <n> | --checkpoint-at-us <t>]... [--state-dir <dir>] \
[--restore <file>]";

domino_obs::named_enum! {
    /// Built-in network scenarios the subcommand can instantiate, by the
    /// name `--scenario` takes (the stats block and the `domino-profile`
    /// header print it too).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Scenario {
        /// The paper's Fig. 1 topology.
        Fig1 => "fig1",
        /// The paper's Fig. 7 topology.
        Fig7 => "fig7",
        /// The standard T(6,2) enterprise topology (seeded).
        T6x2 => "t6x2",
        /// The standard T(10,2) enterprise topology (seeded; seed 1 is
        /// Fig. 12's network).
        T10x2 => "t10x2",
        /// Fig. 14's random T(20,3) topology (seeded; seed 1 is Fig. 14's
        /// first network).
        Rt20x3 => "rt20x3",
    }
}

/// Offered traffic on every downlink and uplink, in bits per second.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Traffic {
    /// UDP `(down_bps, up_bps)`.
    Udp(f64, f64),
    /// TCP `(down_bps, up_bps)`.
    Tcp(f64, f64),
}

/// The run-defining flags `domino-run sim` and `domino-profile report`
/// share: `--scheme`, `--scenario`, `--seed`, `--duration-s`, `--udp` or
/// `--tcp`, and `--chaos`. Each command supplies its own defaults.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// MAC scheme to run.
    pub scheme: Scheme,
    /// Network scenario.
    pub scenario: Scenario,
    /// Master seed.
    pub seed: u64,
    /// Simulated horizon in seconds.
    pub duration_s: f64,
    /// Workload (`--udp` or `--tcp`; the last one given wins).
    pub traffic: Traffic,
    /// Chaos fault intensity (0 = fault plane off).
    pub chaos: f64,
}

impl RunSpec {
    /// Consume `flag` (and its value from `it`) if it is one of the shared
    /// flags. Returns whether it was.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--scheme" => {
                let name = need(it, flag)?;
                self.scheme = Scheme::ALL
                    .into_iter()
                    .find(|s| s.label().to_ascii_lowercase() == name)
                    .ok_or_else(|| format!("unknown scheme {name}"))?;
            }
            "--scenario" => {
                let name = need(it, flag)?;
                self.scenario =
                    Scenario::from_name(&name).ok_or_else(|| format!("unknown scenario {name}"))?;
            }
            "--seed" => {
                self.seed = need(it, flag)?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--duration-s" => {
                let seconds = parse_f64(&need(it, flag)?, flag)?;
                if SimDuration::from_secs_f64(seconds).is_zero() {
                    return Err(format!("{flag} {seconds}: the horizon rounds to 0 ns"));
                }
                self.duration_s = seconds;
            }
            "--udp" => {
                let (down, up) = parse_rates(&need(it, flag)?, flag)?;
                self.traffic = Traffic::Udp(down, up);
            }
            "--tcp" => {
                let (down, up) = parse_rates(&need(it, flag)?, flag)?;
                self.traffic = Traffic::Tcp(down, up);
            }
            "--chaos" => self.chaos = parse_f64(&need(it, flag)?, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The fault plane `--chaos` selects.
    pub fn faults(&self) -> FaultConfig {
        if self.chaos > 0.0 {
            FaultConfig::chaos(self.chaos)
        } else {
            FaultConfig::off()
        }
    }

    /// The configured run under `faults`.
    pub fn builder(&self, faults: FaultConfig) -> SimulationBuilder {
        let net = match self.scenario {
            Scenario::Fig1 => scenarios::fig1(),
            Scenario::Fig7 => scenarios::fig7(),
            Scenario::T6x2 => scenarios::standard_t(6, 2, self.seed),
            Scenario::T10x2 => scenarios::standard_t(10, 2, self.seed),
            Scenario::Rt20x3 => scenarios::random_t(20, 3, self.seed),
        };
        let b = SimulationBuilder::new(net);
        let b = match self.traffic {
            Traffic::Udp(down, up) => b.udp(down, up),
            Traffic::Tcp(down, up) => b.tcp(down, up),
        };
        b.duration_s(self.duration_s).seed(self.seed).faults(faults)
    }
}

/// The value following `flag`.
fn need(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
}

/// `<down_bps>,<up_bps>`: two finite, non-negative rates, neither so
/// high that a packet's interval rounds to 0 ns (above 8.192e12 b/s).
fn parse_rates(v: &str, flag: &str) -> Result<(f64, f64), String> {
    let (down, up) = v.split_once(',').ok_or_else(|| format!("{flag} needs <down_bps>,<up_bps>"))?;
    let rate = |v| {
        let bps = parse_f64(v, flag)?;
        if bps > 0.0 && UdpSource::packet_interval(bps).is_zero() {
            return Err(format!("{flag}: at {bps} b/s a packet interval rounds to 0 ns"));
        }
        Ok(bps)
    };
    Ok((rate(down)?, rate(up)?))
}

/// A finite, non-negative number.
fn parse_f64(v: &str, flag: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| format!("{flag} needs a non-negative number"))
}

/// The most checkpoints `--checkpoint-every-us` may ask for: each one
/// seals a whole payload.
const MAX_PERIODIC_CHECKPOINTS: u64 = 10_000;

/// Parsed `domino-run sim …` invocation.
#[derive(Clone, Debug)]
pub struct SimArgs {
    /// Scheme, scenario, seed, horizon, workload and chaos.
    pub spec: RunSpec,
    /// Enable the warm-standby controller.
    pub standby: bool,
    /// Per-compute controller crash probability.
    pub ctrl_crash: f64,
    /// Periodic checkpoint interval in µs (expanded to boundaries).
    pub checkpoint_every_us: Option<f64>,
    /// Explicit checkpoint times in µs.
    pub checkpoint_at_us: Vec<f64>,
    /// Directory the sealed checkpoint files are written to.
    pub state_dir: PathBuf,
    /// Resume from this sealed checkpoint instead of starting at t=0.
    pub restore: Option<PathBuf>,
}

/// Parse the subcommand's arguments (everything after `sim`).
pub fn parse(args: &[String]) -> Result<SimArgs, String> {
    let mut out = SimArgs {
        spec: RunSpec {
            scheme: Scheme::Domino,
            scenario: Scenario::T6x2,
            seed: 1,
            duration_s: 1.0,
            traffic: Traffic::Udp(8e6, 2e6),
            chaos: 0.0,
        },
        standby: false,
        ctrl_crash: 0.0,
        checkpoint_every_us: None,
        checkpoint_at_us: Vec::new(),
        state_dir: PathBuf::from("."),
        restore: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if out.spec.parse_flag(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--standby" => out.standby = true,
            "--ctrl-crash" => {
                out.ctrl_crash = parse_f64(&need(&mut it, "--ctrl-crash")?, "--ctrl-crash")?;
            }
            "--checkpoint-every-us" => {
                out.checkpoint_every_us =
                    Some(parse_f64(&need(&mut it, "--checkpoint-every-us")?, "--checkpoint-every-us")?);
            }
            "--checkpoint-at-us" => {
                out.checkpoint_at_us
                    .push(parse_f64(&need(&mut it, "--checkpoint-at-us")?, "--checkpoint-at-us")?);
            }
            "--state-dir" => out.state_dir = need(&mut it, "--state-dir")?.into(),
            "--restore" => out.restore = Some(need(&mut it, "--restore")?.into()),
            "--help" | "-h" => return Err(String::new()),
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    // Checked once every flag is read: `--duration-s` may come later.
    if let Some(every_us) = out.checkpoint_every_us {
        let (step, count) = periodic(&out.spec, every_us);
        if step == 0 {
            return Err(format!("--checkpoint-every-us {every_us}: the interval rounds to 0 ns"));
        }
        if count > MAX_PERIODIC_CHECKPOINTS {
            return Err(format!(
                "--checkpoint-every-us {every_us}: {count} checkpoints in the run, \
                 at most {MAX_PERIODIC_CHECKPOINTS} allowed"
            ));
        }
    }
    Ok(out)
}

/// The run's outcome: the deterministic stats block, plus the sealed
/// checkpoint files for the caller to write (the library never prints).
#[derive(Debug)]
pub struct SimOutcome {
    /// Rendered stats block (byte-identical for interrupted-then-resumed
    /// and uninterrupted runs of the same configuration).
    pub text: String,
    /// `(path, sealed bytes)` of every checkpoint taken, ascending in t.
    pub checkpoints: Vec<(PathBuf, Vec<u8>)>,
}

/// The run's horizon in ns.
fn horizon_ns(spec: &RunSpec) -> u64 {
    (spec.duration_s * 1e9).round() as u64
}

/// The interval of `--checkpoint-every-us` in ns, and how many of its
/// boundaries fall inside the horizon (none for a zero interval), counted
/// without expanding them.
fn periodic(spec: &RunSpec, every_us: f64) -> (u64, u64) {
    let step = (every_us * 1e3).round() as u64;
    (step, horizon_ns(spec).saturating_sub(1).checked_div(step).unwrap_or(0))
}

/// Ascending checkpoint boundaries from `--checkpoint-every-us` and
/// `--checkpoint-at-us`, capped at the horizon.
fn boundaries(args: &SimArgs) -> Vec<SimTime> {
    let horizon_ns = horizon_ns(&args.spec);
    let mut ns: Vec<u64> = args
        .checkpoint_at_us
        .iter()
        .map(|us| (us * 1e3).round() as u64)
        .collect();
    if let Some(every_us) = args.checkpoint_every_us {
        let (step, count) = periodic(&args.spec, every_us);
        ns.extend((1..=count).map(|k| k * step));
    }
    ns.sort_unstable();
    ns.dedup();
    ns.retain(|&t| t > 0 && t < horizon_ns);
    ns.into_iter().map(SimTime::from_nanos).collect()
}

/// Execute the parsed invocation: run from t=0, or restore-and-finish
/// when `--restore` is given, sealing a checkpoint at each boundary after
/// the start.
pub fn run(args: &SimArgs) -> Result<SimOutcome, String> {
    let mut faults = args.spec.faults();
    faults.ctrl_crash = args.ctrl_crash;
    faults.standby = args.standby;
    let b = args.spec.builder(faults);
    let sealed = match &args.restore {
        Some(path) => Some(
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let mut checkpoints = Vec::new();
    let at = boundaries(args);
    let state_dir = &args.state_dir;
    let sink = &mut |t: SimTime, sealed: Vec<u8>| {
        let file = state_dir.join(format!("ckpt_{:012}.dsnp", t.as_nanos()));
        checkpoints.push((file, sealed));
    };
    let opts = RunOpts {
        checkpoints: Some(Checkpoints { at: &at, sink }),
        restore: sealed.as_deref(),
        ..RunOpts::default()
    };
    let report = b.run_with(args.spec.scheme, opts).map_err(|e| match &args.restore {
        Some(path) => format!("cannot resume from {}: {e:?}", path.display()),
        None => format!("run failed: {e:?}"),
    })?;
    Ok(SimOutcome { text: render_stats(args, &report), checkpoints })
}

/// Render the deterministic stats block. Integer counters are printed
/// exactly; throughput/delay/fairness use fixed precision. Identical
/// `RunStats` render to identical bytes, which is what makes the
/// snapshot CI gate a byte-diff.
pub fn render_stats(args: &SimArgs, r: &RunReport) -> String {
    let s = &r.stats;
    let mut out = String::new();
    let _ = writeln!(out, "scheme: {}", r.scheme.label());
    let _ = writeln!(out, "scenario: {}", args.spec.scenario.name());
    let _ = writeln!(out, "seed: {}", args.spec.seed);
    let _ = writeln!(out, "duration_s: {:.6}", args.spec.duration_s);
    let _ = writeln!(out, "events: {}", s.events);
    let delivered: Vec<String> = s.delivered_bits.iter().map(u64::to_string).collect();
    let _ = writeln!(out, "delivered_bits: [{}]", delivered.join(", "));
    let _ = writeln!(out, "drops: {}", s.drops);
    let _ = writeln!(out, "retries: {}", s.retries);
    let _ = writeln!(out, "ack_timeouts: {}", s.ack_timeouts);
    let _ = writeln!(out, "tcp_retransmissions: {}", s.tcp_retransmissions);
    let _ = writeln!(out, "aggregate_mbps: {:.6}", r.aggregate_mbps());
    let _ = writeln!(out, "mean_delay_us: {:.6}", r.mean_delay_us());
    let _ = writeln!(out, "fairness: {:.6}", r.fairness());
    for (name, count) in s.faults.classes() {
        let _ = writeln!(out, "fault.{name}: {count}");
    }
    for (name, count) in s.faults.recovery_classes() {
        let _ = writeln!(out, "recovery.{name}: {count}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_rejects_bad_input_and_accepts_good() {
        assert!(parse(&argv(&["--scheme", "nope"])).is_err());
        assert!(parse(&argv(&["--seed"])).is_err());
        assert!(parse(&argv(&["--udp", "8e6"])).is_err());
        assert!(parse(&argv(&["--udp", "1e13,0"])).is_err(), "packet interval rounds to 0 ns");
        assert!(parse(&argv(&["--tcp", "8e6"])).is_err());
        assert!(parse(&argv(&["--scenario", "t10x3"])).is_err());
        let t = parse(&argv(&["--scenario", "t10x2", "--udp", "1,2", "--tcp", "10e6,4e6"]));
        let t = t.unwrap();
        assert_eq!(t.spec.scenario, Scenario::T10x2);
        assert_eq!(t.spec.traffic, Traffic::Tcp(10e6, 4e6), "the last workload flag wins");
        let r = parse(&argv(&["--scenario", "rt20x3", "--udp", "10e6,10e6"])).unwrap();
        assert_eq!(r.spec.scenario, Scenario::Rt20x3);
        assert_eq!(r.spec.scenario.name(), "rt20x3");
        assert!(parse(&argv(&["--bogus"])).is_err());
        let a = parse(&argv(&[
            "--scheme", "dcf", "--scenario", "fig7", "--seed", "9", "--duration-s", "0.5",
            "--checkpoint-every-us", "100000", "--checkpoint-at-us", "250000",
        ]))
        .unwrap();
        assert_eq!(a.spec.scheme, Scheme::Dcf);
        assert_eq!(a.spec.scenario, Scenario::Fig7);
        assert_eq!(a.spec.seed, 9);
        let b = boundaries(&a);
        assert!(!b.is_empty());
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b.iter().all(|t| t.as_nanos() < 500_000_000));
    }

    #[test]
    fn parse_refuses_a_horizon_that_rounds_to_zero() {
        for v in ["0", "-0", "1e-12"] {
            let err = parse(&argv(&["--duration-s", v])).unwrap_err();
            assert!(err.contains("--duration-s") && err.contains("rounds to 0 ns"), "{v}: {err}");
        }
        assert_eq!(parse(&argv(&["--duration-s", "1e-9"])).unwrap().spec.duration_s, 1e-9);
    }

    #[test]
    fn parse_bounds_periodic_checkpoints_before_any_run() {
        // One boundary per ns for a second: refused by its count, whichever
        // order the two flags come in, before anything is expanded.
        for flags in [
            ["--checkpoint-every-us", "0.001", "--duration-s", "1"],
            ["--duration-s", "1", "--checkpoint-every-us", "0.001"],
        ] {
            let err = parse(&argv(&flags)).unwrap_err();
            assert!(err.contains("999999999 checkpoints"), "{err}");
        }
        let err = parse(&argv(&["--checkpoint-every-us", "0.0004"])).unwrap_err();
        assert!(err.contains("rounds to 0 ns"), "{err}");
        // 9,999 boundaries inside a 1-s run, and 10,000 in one 1 ns longer.
        let ok = parse(&argv(&["--duration-s", "1", "--checkpoint-every-us", "100"])).unwrap();
        assert_eq!(periodic(&ok.spec, 100.0), (100_000, 9_999));
        let longer = ["--duration-s", "1.000000001", "--checkpoint-every-us", "100"];
        assert!(parse(&argv(&longer)).is_ok());
        let over = ["--duration-s", "1.0002", "--checkpoint-every-us", "100"];
        assert!(parse(&argv(&over)).unwrap_err().contains("10001 checkpoints"));
    }

    #[test]
    fn checkpointed_run_emits_sealed_states_and_matches_plain_run() {
        let mut a = parse(&argv(&[
            "--scheme", "domino", "--scenario", "fig7", "--seed", "11", "--duration-s", "0.4",
            "--checkpoint-every-us", "100000",
        ]))
        .unwrap();
        let ckpt = run(&a).unwrap();
        assert_eq!(ckpt.checkpoints.len(), 3); // 100, 200, 300 ms
        a.checkpoint_every_us = None;
        let plain = run(&a).unwrap();
        assert_eq!(ckpt.text, plain.text);
    }

    #[test]
    fn restored_run_byte_matches_uninterrupted_stats() {
        let dir = std::env::temp_dir().join("domino_simcmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = parse(&argv(&[
            "--scheme", "centaur", "--scenario", "t6x2", "--seed", "7", "--duration-s", "0.4",
            "--chaos", "0.5", "--checkpoint-at-us", "200000",
        ]))
        .unwrap();
        a.state_dir = dir.clone();
        let ckpt = run(&a).unwrap();
        assert_eq!(ckpt.checkpoints.len(), 1);
        let (path, bytes) = &ckpt.checkpoints[0];
        std::fs::write(path, bytes).unwrap();

        let mut resumed = a.clone();
        resumed.checkpoint_at_us.clear();
        resumed.restore = Some(path.clone());
        let restored = run(&resumed).unwrap();
        assert_eq!(restored.text, ckpt.text);
        assert!(restored.checkpoints.is_empty());
        let _ = std::fs::remove_file(path);
    }
}
