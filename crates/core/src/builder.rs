//! The high-level simulation API.
//!
//! ```
//! use domino_core::{Scheme, SimulationBuilder};
//! use domino_core::scenarios;
//!
//! let net = scenarios::fig1();
//! let report = SimulationBuilder::new(net.clone())
//!     .saturated_downlinks()
//!     .duration_s(0.5)
//!     .seed(7)
//!     .run(Scheme::Domino);
//! assert!(report.aggregate_mbps() > 0.0);
//! ```

use crate::report::RunReport;
use domino_faults::FaultConfig;
use domino_mac::domino::DominoConfig;
use domino_mac::run::{run, Checkpoints, RunInputs};
use domino_mac::{CentaurWorld, DcfWorld, DominoWorld, OmniWorld, Workload};
use domino_obs::{ProfHandle, Probe, TraceHandle};
use domino_sim::snapshot::{self, SnapError};
use domino_sim::SimTime;
use domino_topology::{Direction, Network};

/// The four channel-access schemes of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// 802.11 DCF (distributed baseline).
    Dcf,
    /// CENTAUR-style hybrid (scheduled downlink epochs, DCF uplink).
    Centaur,
    /// DOMINO relative scheduling (the paper's contribution).
    Domino,
    /// Idealized perfectly-synchronized centralized scheduler.
    Omniscient,
}

impl Scheme {
    /// All schemes, in the order the paper's figures list them.
    pub const ALL: [Scheme; 4] = [Scheme::Dcf, Scheme::Centaur, Scheme::Domino, Scheme::Omniscient];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Dcf => "DCF",
            Scheme::Centaur => "CENTAUR",
            Scheme::Domino => "DOMINO",
            Scheme::Omniscient => "Omniscient",
        }
    }
}

// Each tag is the scheme's index in `Scheme::ALL`.
domino_sim::snap_value!(enum Scheme, "scheme tag" {
    0 => Dcf,
    1 => Centaur,
    2 => Domino,
    3 => Omniscient,
});

/// Configures and runs one simulation.
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    network: Network,
    workload: Option<Workload>,
    duration_s: f64,
    seed: u64,
    domino: DominoConfig,
    faults: FaultConfig,
}

impl SimulationBuilder {
    /// Start building a run over `network`.
    pub fn new(network: Network) -> SimulationBuilder {
        SimulationBuilder {
            network,
            workload: None,
            duration_s: 10.0,
            seed: 1,
            domino: DominoConfig::default(),
            faults: FaultConfig::off(),
        }
    }

    /// Use an explicit workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// UDP at `down_bps` on every downlink and `up_bps` on every uplink
    /// (the Fig 12 workload).
    pub fn udp(mut self, down_bps: f64, up_bps: f64) -> Self {
        self.workload = Some(Workload::udp_updown(&self.network, down_bps, up_bps));
        self
    }

    /// TCP at the given offered rates per direction.
    pub fn tcp(mut self, down_bps: f64, up_bps: f64) -> Self {
        self.workload = Some(Workload::tcp_updown(&self.network, down_bps, up_bps));
        self
    }

    /// Saturated UDP on every downlink.
    pub fn saturated_downlinks(mut self) -> Self {
        let links: Vec<_> = self
            .network
            .links()
            .iter()
            .filter(|l| l.direction == Direction::Downlink)
            .map(|l| l.id)
            .collect();
        self.workload = Some(Workload::udp_saturated(&links));
        self
    }

    /// Simulated duration in seconds (the paper uses 50 s runs; tests use
    /// shorter ones).
    pub fn duration_s(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.duration_s = seconds;
        self
    }

    /// Master random seed (runs are pure functions of config + seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override DOMINO engine parameters (batch size, wired jitter,
    /// converter knobs).
    pub fn domino_config(mut self, cfg: DominoConfig) -> Self {
        self.domino = cfg;
        self
    }

    /// Inject faults from a [`FaultConfig`]. The default is all off,
    /// which is byte-identical to a build without the fault plane.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = cfg;
        self
    }

    /// The network under simulation.
    pub fn network_ref(&self) -> &Network {
        &self.network
    }

    /// Run under the given scheme.
    pub fn run(&self, scheme: Scheme) -> RunReport {
        self.run_profiled(scheme, TraceHandle::off(), ProfHandle::off())
    }

    /// [`SimulationBuilder::run`] with a trace sink and a cost profiler
    /// attached. Both are observation only: they draw no randomness,
    /// schedule no events, and allocate nothing on the hot path, so a run
    /// with the handles off is byte-identical to [`run`].
    ///
    /// The handles are passed per call (rather than stored on the
    /// builder) so the builder itself stays `Send`: they are `Rc`-based
    /// and must be created inside the thread that runs the simulation.
    ///
    /// [`run`]: SimulationBuilder::run
    pub fn run_profiled(&self, scheme: Scheme, tracer: TraceHandle, prof: ProfHandle) -> RunReport {
        self.execute(scheme, Probe::new(tracer, prof), None, None)
            // lint: allow(D005) only a restore payload can fail, and this run has none
            .expect("a run without a restore payload cannot fail")
    }

    /// SHA-256 binding of the complete run configuration under `scheme`.
    ///
    /// Snapshots sealed by a checkpointed [`SimulationBuilder::run_with`]
    /// carry this digest, and a restoring `run_with` rejects any payload
    /// whose binding differs — a world rebuilt from different static
    /// state would silently diverge instead of failing loudly.
    pub fn binding(&self, scheme: Scheme) -> [u8; 32] {
        let workload = format!("{:?}", self.workload);
        let network = format!("{:?}", self.network);
        let domino = format!("{:?}", self.domino);
        let faults = format!("{:?}", self.faults);
        snapshot::binding_digest(&[
            scheme.label().as_bytes(),
            &self.seed.to_le_bytes(),
            &self.duration_s.to_bits().to_le_bytes(),
            network.as_bytes(),
            workload.as_bytes(),
            domino.as_bytes(),
            faults.as_bytes(),
        ])
    }

    /// Run under `scheme` with every mode `opts` selects — tracing,
    /// profiling, crash-resumable checkpoints, restore — through the one
    /// run path of [`domino_mac::run`]. Each checkpoint is sealed into the
    /// versioned, digest-verified container before it reaches the sink. A
    /// restore opens a sealed checkpoint taken under the *same*
    /// configuration and finishes the run. Neither changes the run: the
    /// report is byte-identical to the uninterrupted, unprobed run's.
    ///
    /// Fails only on a restore payload that does not open or decode.
    pub fn run_with(&self, scheme: Scheme, opts: RunOpts<'_>) -> Result<RunReport, SnapError> {
        if opts.checkpoints.is_none() && opts.restore.is_none() {
            return self.execute(scheme, opts.probe, None, None);
        }
        // The binding costs a formatted dump of the whole configuration:
        // computed only when a snapshot is sealed or opened.
        let binding = self.binding(scheme);
        let restore = match opts.restore {
            Some(sealed) => {
                let (t, payload) = snapshot::open(sealed, &binding)?;
                Some((SimTime::from_nanos(t), payload))
            }
            None => None,
        };
        let mut seal;
        let checkpoints = match opts.checkpoints {
            Some(Checkpoints { at, sink }) => {
                seal = |t: SimTime, payload: Vec<u8>| {
                    sink(t, snapshot::seal(&binding, t.as_nanos(), &payload));
                };
                Some(Checkpoints { at, sink: &mut seal })
            }
            None => None,
        };
        self.execute(scheme, opts.probe, checkpoints, restore)
    }

    /// The one dispatch on `Scheme`: build the scheme's world and drive it
    /// through [`domino_mac::run`] with unsealed checkpoints and restore.
    fn execute(
        &self,
        scheme: Scheme,
        probe: Probe,
        checkpoints: Option<Checkpoints<'_>>,
        restore: Option<(SimTime, &[u8])>,
    ) -> Result<RunReport, SnapError> {
        let workload = self
            .workload
            .as_ref()
            // lint: allow(D005) builder misuse: no run exists to return an Err through
            .expect("no workload configured: call udp()/tcp()/workload() first");
        let inputs = RunInputs {
            net: &self.network,
            workload,
            duration_s: self.duration_s,
            seed: self.seed,
            faults: &self.faults,
        };
        let stats = match scheme {
            Scheme::Dcf => run::<DcfWorld>(&inputs, (), probe, checkpoints, restore),
            Scheme::Centaur => run::<CentaurWorld>(&inputs, (), probe, checkpoints, restore),
            Scheme::Domino => {
                run::<DominoWorld>(&inputs, self.domino.clone(), probe, checkpoints, restore)
            }
            Scheme::Omniscient => run::<OmniWorld>(&inputs, (), probe, checkpoints, restore),
        }?;
        Ok(RunReport::new(scheme, workload.flow_links(), stats))
    }
}

/// How one [`SimulationBuilder::run_with`] call is observed, checkpointed
/// and resumed. The default is a plain run from t = 0.
#[derive(Debug, Default)]
pub struct RunOpts<'a> {
    /// Trace sink and cost profiler (both off by default).
    pub probe: Probe,
    /// Checkpoint boundaries plus the sink each *sealed* snapshot is
    /// handed to. The run continues past every boundary.
    pub checkpoints: Option<Checkpoints<'a>>,
    /// A sealed checkpoint to resume from instead of starting at t = 0.
    /// Boundaries at or before its own are skipped.
    pub restore: Option<&'a [u8]>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use domino_sim::snapshot::SnapValue;

    #[test]
    fn schemes_roundtrip_and_unknown_tags_are_corrupt() {
        for (idx, scheme) in Scheme::ALL.into_iter().enumerate() {
            assert_eq!(scheme.to_bytes(), [idx as u8]);
            assert_eq!(Scheme::from_bytes(&scheme.to_bytes()), Ok(scheme));
        }
        assert_eq!(Scheme::from_bytes(&[200]), Err(SnapError::Corrupt("scheme tag")));
    }

    /// A plain run with `probe` attached.
    fn probed(b: &SimulationBuilder, scheme: Scheme, probe: Probe) -> RunReport {
        b.run_with(scheme, RunOpts { probe, ..RunOpts::default() }).expect("no restore")
    }

    /// A run checkpointed at `at`, returning the sealed snapshots.
    fn checkpointed(
        b: &SimulationBuilder,
        scheme: Scheme,
        probe: Probe,
        at: &[SimTime],
    ) -> (RunReport, Vec<Vec<u8>>) {
        let mut sealed = Vec::new();
        let checkpoints = Some(Checkpoints { at, sink: &mut |_, bytes| sealed.push(bytes) });
        let report =
            b.run_with(scheme, RunOpts { probe, checkpoints, restore: None }).expect("no restore");
        (report, sealed)
    }

    /// Resume a sealed snapshot.
    fn resume(b: &SimulationBuilder, scheme: Scheme, sealed: &[u8]) -> Result<RunReport, SnapError> {
        b.run_with(scheme, RunOpts { restore: Some(sealed), ..RunOpts::default() })
    }

    #[test]
    fn builder_runs_every_scheme() {
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net).udp(2e6, 1e6).duration_s(0.3).seed(3);
        for scheme in Scheme::ALL {
            let report = b.run(scheme);
            assert_eq!(report.scheme, scheme);
            assert!(
                report.aggregate_mbps() > 0.5,
                "{}: {}",
                scheme.label(),
                report.aggregate_mbps()
            );
        }
    }

    #[test]
    fn deterministic_across_builder_clones() {
        let net = scenarios::fig7();
        let b = SimulationBuilder::new(net).udp(5e6, 0.0).duration_s(0.3).seed(9);
        let a = b.clone().run(Scheme::Domino);
        let c = b.run(Scheme::Domino);
        assert!(a.stats == c.stats, "a cloned builder ran differently");
    }

    #[test]
    #[should_panic(expected = "no workload")]
    fn missing_workload_panics() {
        let net = scenarios::fig1();
        let _ = SimulationBuilder::new(net).run(Scheme::Dcf);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Domino.label(), "DOMINO");
        assert_eq!(Scheme::ALL.len(), 4);
    }

    #[test]
    fn all_off_fault_plane_is_byte_identical() {
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net).udp(3e6, 1e6).duration_s(0.3).seed(11);
        for scheme in Scheme::ALL {
            let plain = b.clone().run(scheme);
            let off = b.clone().faults(FaultConfig::off()).run(scheme);
            assert!(plain.stats == off.stats, "{scheme:?}: the off plane changed the run");
            assert_eq!(off.stats.faults, Default::default(), "{scheme:?}");
        }
    }

    #[test]
    fn tracing_is_observation_only() {
        // The determinism pin for the observability plane: attaching a
        // trace sink must not perturb event order, timing, or RNG state —
        // even under an active fault plane — and a disabled handle makes
        // zero allocations (the emit closure never runs). Every scheme
        // still produces trace events (the engine's liveness roll-over
        // alone guarantees a non-empty trace).
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net)
            .udp(3e6, 1e6)
            .duration_s(0.4)
            .seed(13)
            .faults(FaultConfig::chaos(0.8));
        for scheme in Scheme::ALL {
            let plain = b.run(scheme);
            let (handle, sink) = TraceHandle::mem();
            let traced = probed(&b, scheme, Probe::new(handle, ProfHandle::off()));
            assert!(plain.stats == traced.stats, "{scheme:?}: tracing changed the run");
            assert!(!sink.is_empty(), "{scheme:?} produced no trace events");
        }
    }

    #[test]
    fn every_lost_wired_message_is_traced() {
        // Both of DOMINO's wires, the primary and the warm standby's (its
        // heartbeats, checkpoints and report copies), trace each message
        // they lose, so the trace accounts for every loss the stats count.
        // CENTAUR's standby copies synchronously: it has one wire.
        let b = SimulationBuilder::new(scenarios::standard_t(10, 2, 1))
            .udp(5e6, 2e6)
            .duration_s(0.5)
            .seed(3)
            .faults(FaultConfig {
                wired_loss: 0.1,
                ctrl_crash: 0.02,
                ctrl_downtime_us: 5_000.0,
                standby: true,
                ..FaultConfig::off()
            });
        for scheme in [Scheme::Domino, Scheme::Centaur] {
            let (handle, sink) = TraceHandle::mem();
            let run = probed(&b, scheme, Probe::new(handle, ProfHandle::off()));
            let drop = domino_obs::TraceEvent::BackboneDrop {};
            let traced = sink.take().iter().filter(|r| r.ev == drop).count();
            assert_eq!(traced as u64, run.stats.faults.wired_msgs_lost, "{scheme:?}");
        }
    }

    #[test]
    fn profiling_never_perturbs_a_run() {
        // The determinism pin for the cost profiler, the profiling twin
        // of `tracing_is_observation_only`: attaching a collecting
        // profiler must not perturb event order, timing, RNG state, or
        // the emitted trace — even under an active fault plane. A
        // profiled run that also checkpoints at a random boundary must
        // match too, profile included: snapshotting rebuilds the timer
        // wheel, and its `engine;wheel;*` counts must survive that.
        // Seeds and schemes sweep via the testkit property harness so the
        // pin holds across schemes × fault schedules (half the cases
        // fault-free), not one lucky configuration.
        let net = scenarios::fig1();
        let config = domino_testkit::prop::Config {
            cases: 24, // three full sims per case: bound the runtime
            ..Default::default()
        };
        domino_testkit::prop::check_with(config, "profiling_never_perturbs_a_run", |g| {
            let seed = g.u64(1, 1 << 40);
            let chaos = if g.bool() { 0.0 } else { g.f64(0.0, 1.0) };
            let scheme = *g.pick(&Scheme::ALL);
            let boundary = SimTime::from_nanos(g.u64(1, 199) * 1_000_000);
            let b = SimulationBuilder::new(net.clone())
                .udp(3e6, 1e6)
                .duration_s(0.2)
                .seed(seed)
                .faults(FaultConfig::chaos(chaos));
            let (plain_tr, plain_sink) = TraceHandle::mem();
            let plain = b.run_profiled(scheme, plain_tr, ProfHandle::off());
            let plain_trace = plain_sink.take();
            let (prof_tr, prof_sink) = TraceHandle::mem();
            let (handle, profiler) = ProfHandle::collecting();
            let profiled = b.run_profiled(scheme, prof_tr, handle);
            let (ckpt_tr, ckpt_sink) = TraceHandle::mem();
            let (ckpt_handle, ckpt_profiler) = ProfHandle::collecting();
            let ckpt_probe = Probe::new(ckpt_tr, ckpt_handle);
            let (ckpt, sealed) = checkpointed(&b, scheme, ckpt_probe, &[boundary]);
            domino_testkit::prop_assert!(sealed.len() == 1, "{scheme:?} seed={seed}: no checkpoint");
            let runs = [("profiled", &profiled, &prof_sink), ("checkpointed", &ckpt, &ckpt_sink)];
            for (mode, run, sink) in runs {
                domino_testkit::prop_assert!(
                    plain.stats == run.stats,
                    "{scheme:?} seed={seed}: {mode} run changed the stats"
                );
                domino_testkit::prop_assert!(
                    plain_trace == sink.take(),
                    "{scheme:?} seed={seed}: {mode} run changed the trace"
                );
            }
            let profile = profiler.snapshot();
            let ckpt_profile = ckpt_profiler.snapshot();
            domino_testkit::prop_assert!(
                profile == ckpt_profile,
                "{scheme:?} seed={seed}: checkpointing changed the profile: {:?}",
                profile.diff(&ckpt_profile)
            );
            domino_testkit::prop_assert!(
                profile.total_events() == plain.stats.events,
                "{scheme:?} seed={seed}: engine pops ({}) != run events ({})",
                profile.total_events(),
                plain.stats.events
            );
            domino_testkit::prop_assert!(
                profile.attributed_percent() == 100,
                "{scheme:?} seed={seed}: only {}% of events attributed",
                profile.attributed_percent()
            );
        });
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_for_every_scheme() {
        // UDP, light mixed-rate UDP (senders idle between packets), and
        // TCP on two networks: a TCP snapshot carries queued
        // retransmission timers whose handles the restore must recover.
        let chaos = |net| {
            SimulationBuilder::new(net).duration_s(0.4).seed(21).faults(FaultConfig::chaos(0.5))
        };
        let builders = [
            chaos(scenarios::fig1()).udp(3e6, 1e6),
            chaos(scenarios::fig7()).udp(1e6, 250e3),
            chaos(scenarios::fig1()).tcp(3e6, 1e6),
            chaos(scenarios::standard_t(10, 2, 1)).tcp(10e6, 4e6),
        ];
        let boundaries = [SimTime::from_nanos(200_000_000), SimTime::from_nanos(300_000_000)];
        for (i, b, scheme) in
            builders.iter().enumerate().flat_map(|(i, b)| Scheme::ALL.map(|s| (i, b, s)))
        {
            let case = format!("builder {i}, {scheme:?}");
            let baseline = b.run(scheme);
            let (ckpt_run, sealed) = checkpointed(b, scheme, Probe::default(), &boundaries);
            assert_eq!(sealed.len(), 2, "{case}");
            assert!(baseline.stats == ckpt_run.stats, "{case}: snapshotting perturbed the run");
            let resumed = resume(b, scheme, &sealed[0]).expect("restore");
            assert!(baseline.stats == resumed.stats, "{case}: restored run diverged");
            // A resumed run checkpoints too: boundaries up to its own are
            // skipped, and a later one seals exactly the bytes the
            // uninterrupted run sealed there.
            let mut again = Vec::new();
            let opts = RunOpts {
                checkpoints: Some(Checkpoints {
                    at: &boundaries,
                    sink: &mut |_, bytes| again.push(bytes),
                }),
                restore: Some(&sealed[0]),
                ..RunOpts::default()
            };
            let resumed = b.run_with(scheme, opts).expect("restore");
            assert_eq!(again, sealed[1..], "{case}: resumed checkpoint differs");
            assert!(baseline.stats == resumed.stats, "{case}: resumed run diverged");
        }
    }

    #[test]
    fn resume_rejects_foreign_and_corrupt_snapshots() {
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net).udp(3e6, 1e6).duration_s(0.3).seed(5);
        let boundary = SimTime::from_nanos(100_000_000);
        let (_, mut sealed) = checkpointed(&b, Scheme::Domino, Probe::default(), &[boundary]);
        let snap = sealed.pop().unwrap();
        // Any configuration difference flips the binding digest.
        let other = b.clone().seed(6);
        assert_eq!(
            resume(&other, Scheme::Domino, &snap).err(),
            Some(SnapError::BindingMismatch)
        );
        assert_eq!(
            resume(&b, Scheme::Dcf, &snap).err(),
            Some(SnapError::BindingMismatch)
        );
        // A flipped payload byte is a digest error, never a wrong run.
        let mut torn = snap.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x40;
        assert_eq!(
            resume(&b, Scheme::Domino, &torn).err(),
            Some(SnapError::DigestMismatch)
        );
        let ok = resume(&b, Scheme::Domino, &snap).expect("clean restore");
        assert!(ok.aggregate_mbps() > 0.0);
    }

    #[test]
    fn chaos_injects_and_every_scheme_survives() {
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net)
            .udp(3e6, 1e6)
            .duration_s(0.4)
            .seed(13)
            .faults(FaultConfig::chaos(0.8));
        for scheme in Scheme::ALL {
            let report = b.clone().run(scheme);
            assert_eq!(report.stats.faults.livelocks, 0, "{scheme:?} livelocked");
            assert!(
                report.stats.faults.injections() > 0,
                "{scheme:?} saw no injections: {:?}",
                report.stats.faults
            );
            assert!(report.aggregate_mbps() > 0.0, "{scheme:?} collapsed");
        }
    }
}
