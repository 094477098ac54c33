//! The one run path every scheme shares.
//!
//! A scheme is a [`World`]: one [`Plant`] plus the scheme's own state,
//! built from the [`RunInputs`], its own config and a [`Probe`]. [`run`]
//! is the only driver. It restores a world from a snapshot when asked,
//! hands a snapshot to the caller at each checkpoint boundary, drives the
//! engine to the horizon (the plant's `end`), billing each event to the
//! profiler, and finalizes. Any combination of faults, tracing,
//! profiling, checkpoints and restore therefore takes the same path. The
//! driver is generic, so each world gets its own monomorphised event loop
//! with no dynamic dispatch per event.

use crate::plant::{Ev, Plant, SchemeEvent};
use crate::workload::{RunStats, Workload};
use domino_faults::FaultConfig;
use domino_obs::Probe;
use domino_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use domino_sim::{SimDuration, SimTime};
use domino_topology::Network;

/// What every run needs, whatever its scheme.
#[derive(Clone, Copy, Debug)]
pub struct RunInputs<'a> {
    /// The network under simulation.
    pub net: &'a Network,
    /// Offered traffic.
    pub workload: &'a Workload,
    /// Simulated horizon in seconds.
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Fault plane (all off is byte-identical to no plane at all).
    pub faults: &'a FaultConfig,
}

/// The complete state of one scheme's run between events.
///
/// Its [`Snapshot`] is the scheme's own dynamic state, in a fixed order:
/// the driver writes the plant's state ahead of it, and restores both
/// into a freshly built world of the same configuration.
pub trait World: Snapshot + Sized {
    /// Scheme-specific parameters (`()` for schemes without any).
    type Config;
    /// The scheme's own events, carried in [`Ev::Scheme`].
    type Event: SchemeEvent;

    /// Build the world at t = 0 with its initial events queued, the
    /// probe attached to the plant and the world itself.
    fn new(inputs: &RunInputs<'_>, cfg: Self::Config, probe: Probe) -> Self;

    /// The plant the scheme runs on.
    fn plant(&mut self) -> &mut Plant<Self::Event>;

    /// Process one event delivered at `now`.
    fn handle(&mut self, now: SimTime, ev: Ev<Self::Event>);

    /// Flush end-of-run counters into the stats (and the profiler).
    fn finalize(self) -> RunStats;
}

/// Snapshot boundaries plus the sink each snapshot is handed to.
pub struct Checkpoints<'a> {
    /// Boundaries in ascending sim time; any past the horizon are ignored.
    pub at: &'a [SimTime],
    /// Receives `(boundary, payload)`. The run then continues exactly as
    /// if no snapshot had been taken.
    pub sink: &'a mut dyn FnMut(SimTime, Vec<u8>),
}

impl std::fmt::Debug for Checkpoints<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoints").field("at", &self.at).finish_non_exhaustive()
    }
}

/// Run one `W` world to its horizon.
///
/// With `restore = Some((t, payload))` the world is rebuilt from the
/// same inputs and config the snapshot was taken under, overwritten with
/// the payload a checkpoint sink received at boundary `t`, and driven on
/// from there; boundaries at or before `t` are skipped. Each remaining
/// boundary `b` snapshots the state after every event before `b`.
/// Neither snapshotting nor the probe changes the run: the stats are
/// byte-identical to a plain run's. Only a restore can fail.
pub fn run<W: World>(
    inputs: &RunInputs<'_>,
    cfg: W::Config,
    probe: Probe,
    checkpoints: Option<Checkpoints<'_>>,
    restore: Option<(SimTime, &[u8])>,
) -> Result<RunStats, SnapError> {
    let mut world = W::new(inputs, cfg, probe);
    let mut resumed_at = None;
    if let Some((t, payload)) = restore {
        let mut r = SnapReader::new(payload);
        world.plant().snapshot_restore(&mut r)?;
        world.restore(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt("trailing snapshot bytes"));
        }
        resumed_at = Some(t);
    }
    let horizon = world.plant().end;
    if let Some(Checkpoints { at, sink }) = checkpoints {
        for &b in at.iter().filter(|&&b| b <= horizon && resumed_at.is_none_or(|t| b > t)) {
            // Events at exactly `b` land after the snapshot: drive the
            // engine through b−1ns (pop_until is horizon-inclusive).
            if b > SimTime::ZERO && !drive(&mut world, b - SimDuration::from_nanos(1)) {
                return Ok(world.finalize()); // livelocked mid-run
            }
            let mut w = SnapWriter::new();
            world.plant().snapshot_save(&mut w);
            world.save(&mut w);
            sink(b, w.into_bytes());
        }
    }
    drive(&mut world, horizon);
    Ok(world.finalize())
}

/// Process events through `horizon` (inclusive), billing each to its
/// cost class. Returns false when the liveness monitor aborted the run,
/// which then ends at the instant it stopped.
fn drive<W: World>(world: &mut W, horizon: SimTime) -> bool {
    loop {
        let plant = world.plant();
        match plant.engine.pop_until_checked(horizon) {
            Ok(Some((now, ev))) => {
                plant.probe.prof.tick(ev.cost_class());
                world.handle(now, ev);
            }
            Ok(None) => return true,
            Err(livelock) => {
                plant.fe.stats.faults.livelocks += 1;
                plant.end = livelock.at;
                return false;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! Shorthands for the scheme modules' unit tests.

    use super::*;

    /// A fault-free, unprobed run.
    pub(crate) fn run_plain<W: World>(
        net: &Network,
        workload: &Workload,
        duration_s: f64,
        seed: u64,
        cfg: W::Config,
    ) -> RunStats {
        run_faulted::<W>(net, workload, duration_s, seed, &FaultConfig::off(), cfg)
    }

    /// An unprobed run under `faults`.
    pub(crate) fn run_faulted<W: World>(
        net: &Network,
        workload: &Workload,
        duration_s: f64,
        seed: u64,
        faults: &FaultConfig,
        cfg: W::Config,
    ) -> RunStats {
        let inputs = RunInputs { net, workload, duration_s, seed, faults };
        run::<W>(&inputs, cfg, Probe::default(), None, None).expect("no restore to fail")
    }

    /// Checkpoint a run at `boundary`, then resume the snapshot in a
    /// fresh world. Asserts that both match the uninterrupted run and
    /// returns it.
    pub(crate) fn assert_checkpoint_resume_matches<W: World>(
        inputs: &RunInputs<'_>,
        cfg: W::Config,
        boundary: SimTime,
    ) -> RunStats
    where
        W::Config: Clone,
    {
        let plain = run::<W>(inputs, cfg.clone(), Probe::default(), None, None).unwrap();
        let mut snaps: Vec<(SimTime, Vec<u8>)> = Vec::new();
        let at = [boundary];
        let sink = &mut |t, bytes| snaps.push((t, bytes));
        let ckpt =
            run::<W>(inputs, cfg.clone(), Probe::default(), Some(Checkpoints { at: &at, sink }), None)
                .unwrap();
        // Taking a snapshot mid-run must not perturb the run.
        assert!(ckpt == plain, "taking a snapshot perturbed the run");
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, boundary);
        // Restoring into a fresh world and finishing reproduces the
        // uninterrupted run exactly.
        let resumed =
            run::<W>(inputs, cfg, Probe::default(), None, Some((boundary, &snaps[0].1))).unwrap();
        assert!(resumed == plain, "the resumed run diverged");
        plain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FlowKind, FlowSpec};
    use domino_obs::CostPath;
    use domino_sim::snapshot::SnapValue;
    use domino_topology::presets::fig1;
    use domino_topology::{LinkId, PhyParams};

    /// A scheme event that re-queues itself at its own instant.
    #[derive(Debug)]
    struct Spin;

    impl SchemeEvent for Spin {
        fn cost_class(&self) -> CostPath {
            CostPath::EvSlot
        }
        fn timer(&self) -> Option<usize> {
            None
        }
    }

    impl SnapValue for Spin {
        fn put(&self, _: &mut SnapWriter) {}
        fn thaw(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Spin)
        }
    }

    /// A world that livelocks at 1 ms.
    struct SpinWorld(Plant<Spin>);

    impl World for SpinWorld {
        type Config = ();
        type Event = Spin;
        fn new(inputs: &RunInputs<'_>, (): (), probe: Probe) -> SpinWorld {
            let mut plant = Plant::new(inputs, probe, 0);
            plant.schedule(SimTime::from_millis(1), Spin);
            SpinWorld(plant)
        }
        fn plant(&mut self) -> &mut Plant<Spin> {
            &mut self.0
        }
        fn handle(&mut self, now: SimTime, _: Ev<Spin>) {
            self.0.schedule(now, Spin);
        }
        fn finalize(self) -> RunStats {
            self.0.finish()
        }
    }

    impl Snapshot for SpinWorld {
        fn save(&self, _: &mut SnapWriter) {}
        fn restore(&mut self, _: &mut SnapReader<'_>) -> Result<(), SnapError> {
            Ok(())
        }
    }

    #[test]
    fn a_livelocked_run_flushes_to_where_it_stopped() {
        let net = fig1(PhyParams::default());
        // 4096 bits every 4096 ns: 244 packets by 1 ms, 200 of them queued.
        let flow = FlowSpec { link: LinkId(0), kind: FlowKind::Udp { rate_bps: 1e9 } };
        let workload = Workload { flows: vec![flow] };
        let faults = FaultConfig::off();
        let inputs =
            RunInputs { net: &net, workload: &workload, duration_s: 1.0, seed: 1, faults: &faults };
        let stats = run::<SpinWorld>(&inputs, (), Probe::default(), None, None).unwrap();
        assert_eq!(stats.faults.livelocks, 1);
        assert_eq!(stats.drops, 244 - 200, "flushed to 1 ms, not to the 1-s horizon");
    }
}
