//! # domino-faults
//!
//! A seeded, deterministic fault-injection plane for the DOMINO
//! reproduction. Every MAC run owns a [`FaultPlane`]; with the default
//! [`FaultConfig`] (all knobs at zero) the plane draws **nothing** and the
//! run is byte-identical to a plane-free build — the committed goldens in
//! `results/` stay exact.
//!
//! Four fault classes, each on its own [`SimRng`] stream so that turning
//! one class on never perturbs another (and `--jobs N` stays byte-exact):
//!
//! | class | stream | injects |
//! |-------|--------|---------|
//! | wired | `FAULT_WIRED` (inside `domino_wired::Backbone`) | backbone message loss, delay spikes |
//! | node | `FAULT_NODE` | AP crash/restart with state loss, controller compute stalls, stale ROP reports |
//! | channel | `FAULT_CHANNEL` | correlated signature-detection fades, corrupted ROP reports |
//! | churn | `FAULT_CHURN` | client leave/rejoin dark intervals (pre-generated schedule) |
//!
//! The wired class is implemented by the loss/spike knobs on
//! `domino_wired::Backbone` (the plane only carries its parameters); the
//! channel and churn classes ride inside `domino_medium::Medium` via
//! [`MediumFaults`]; the node class is consulted by the DOMINO and CENTAUR
//! state machines directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use domino_sim::rng::streams;
use domino_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use domino_sim::{SimDuration, SimRng, SimTime};

/// Mean extra delay of a spiked backbone message, µs (exponential).
pub const WIRED_SPIKE_US: f64 = 2_500.0;

/// How long a crashed AP stays dark before it can rejoin, µs.
pub const AP_DOWNTIME_US: f64 = 15_000.0;

/// Mean extra compute time of a stalled controller batch, µs
/// (exponential).
pub const COMPUTE_STALL_US: f64 = 1_500.0;

/// Would-be signature detections one fade burst suppresses.
pub const FADE_LEN: u32 = 6;

/// Dark time after each client leave before the client rejoins, µs.
pub const CHURN_DOWNTIME_US: f64 = 25_000.0;

/// Consecutive missed heartbeats that make the warm standby promote
/// itself.
pub const STANDBY_MISSED_K: u32 = 3;

/// All fault-plane knobs. `Default` is every fault off: probabilities
/// zero. A run with the default config makes zero draws from any fault
/// stream. The magnitudes of the chaos classes are the constants above.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-message backbone loss probability (wired class).
    pub wired_loss: f64,
    /// Per-message backbone delay-spike probability (wired class).
    pub wired_spike: f64,
    /// Per-batch-arrival AP crash probability (node class).
    pub ap_crash: f64,
    /// Per-compute controller stall probability (node class).
    pub compute_stall: f64,
    /// Probability a delivered ROP report is stale — it reflects the
    /// previous round's queue state instead of the current one.
    pub rop_stale: f64,
    /// Probability a successful signature detection opens a fade burst
    /// (channel class).
    pub fade: f64,
    /// Probability a successfully decoded ROP report is corrupted and
    /// must be discarded (channel class).
    pub rop_corrupt: f64,
    /// Per-client leave rate, events per second (churn class).
    pub churn_rate_hz: f64,
    /// Per-compute primary-controller crash probability (failover
    /// class). With the standby off a crashed controller cold-restarts
    /// after [`FaultConfig::ctrl_downtime_us`] with its soft state lost.
    pub ctrl_crash: f64,
    /// How long a crashed primary stays dark before its cold restart, µs.
    pub ctrl_downtime_us: f64,
    /// Warm-standby controller enabled: the standby ingests periodic
    /// state checkpoints and heartbeats over a dedicated wired stream and
    /// promotes itself after [`STANDBY_MISSED_K`] missed heartbeats,
    /// replaying the report delta since the last checkpoint.
    pub standby: bool,
    /// Primary → standby state-checkpoint interval, µs.
    pub standby_checkpoint_us: f64,
    /// Primary → standby heartbeat interval (and the standby's detector
    /// probe period), µs.
    pub standby_heartbeat_us: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            wired_loss: 0.0,
            wired_spike: 0.0,
            ap_crash: 0.0,
            compute_stall: 0.0,
            rop_stale: 0.0,
            fade: 0.0,
            rop_corrupt: 0.0,
            churn_rate_hz: 0.0,
            ctrl_crash: 0.0,
            ctrl_downtime_us: 0.0,
            standby: false,
            standby_checkpoint_us: 5_000.0,
            standby_heartbeat_us: 1_000.0,
        }
    }
}

impl FaultConfig {
    /// The all-off configuration (same as `Default`).
    pub fn off() -> FaultConfig {
        FaultConfig::default()
    }

    /// True when any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.wired_loss > 0.0
            || self.wired_spike > 0.0
            || self.ap_crash > 0.0
            || self.compute_stall > 0.0
            || self.rop_stale > 0.0
            || self.fade > 0.0
            || self.rop_corrupt > 0.0
            || self.churn_rate_hz > 0.0
            || self.ctrl_crash > 0.0
    }

    /// The canonical chaos profile at `intensity` ∈ [0, 1]: every class
    /// active, probabilities scaled linearly so the `chaos_degradation`
    /// experiment sweeps one scalar. Intensity 0.0 is exactly
    /// [`FaultConfig::off`] (all probabilities zero).
    pub fn chaos(intensity: f64) -> FaultConfig {
        let x = intensity.clamp(0.0, 1.0);
        FaultConfig {
            wired_loss: 0.12 * x,
            wired_spike: 0.08 * x,
            ap_crash: 0.01 * x,
            compute_stall: 0.08 * x,
            rop_stale: 0.06 * x,
            fade: 0.04 * x,
            rop_corrupt: 0.10 * x,
            churn_rate_hz: 1.5 * x,
            // The failover class stays out of the chaos profile: the
            // chaos goldens pin PR 4's degradation numbers, and the
            // `failover_recovery` experiment sweeps these knobs itself.
            ..FaultConfig::off()
        }
    }
}

/// Injection and recovery totals of one run, aggregated across all fault
/// classes. Lives on `RunStats` so experiments can report degradation
/// alongside throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Backbone messages dropped by the wired loss knob.
    pub wired_msgs_lost: u64,
    /// Backbone messages delayed by the spike knob.
    pub wired_spikes: u64,
    /// AP crashes injected.
    pub ap_crashes: u64,
    /// APs that rejoined after a crash (recovery side).
    pub crash_recoveries: u64,
    /// Controller compute stalls injected.
    pub compute_stalls: u64,
    /// Signature fades opened.
    pub fades_opened: u64,
    /// Signature detections suppressed by fades.
    pub detections_suppressed: u64,
    /// ROP reports corrupted in flight.
    pub rops_corrupted: u64,
    /// ROP reports delivered stale.
    pub stale_reports: u64,
    /// Client leave events in the churn schedule.
    pub churn_events: u64,
    /// Receptions failed because one endpoint was churned dark.
    pub churn_drops: u64,
    /// Runs aborted by the engine's liveness monitor (always 0 unless a
    /// MAC livelocked; the chaos gate pins this at zero).
    pub livelocks: u64,
    /// Primary-controller crashes injected (failover class).
    pub ctrl_crashes: u64,
    /// Warm-standby promotions completed after a primary crash.
    pub standby_promotions: u64,
    /// Buffered report deltas replayed during standby promotions.
    pub replayed_reports: u64,
    /// Total controller-recovery time, ns: the sum over every recovery
    /// (standby promotion or cold restart) of crash-to-serviceable time,
    /// including detection and delta replay. The failover experiment
    /// divides by [`FaultStats::ctrl_crashes`] for the mean latency.
    pub recovery_ns: u64,
}

impl FaultStats {
    /// Fold in the node-class counters.
    pub fn merge_node(&mut self, node: &NodeFaults) {
        self.ap_crashes += node.crashes;
        self.crash_recoveries += node.recoveries;
        self.compute_stalls += node.stalls;
        self.stale_reports += node.stale_reports;
        self.ctrl_crashes += node.ctrl_crashes;
    }

    /// Fold in the medium-resident channel and churn counters.
    pub fn merge_medium(&mut self, mf: &MediumFaults) {
        self.fades_opened += mf.channel.fades_opened;
        self.detections_suppressed += mf.channel.detections_suppressed;
        self.rops_corrupted += mf.channel.rops_corrupted;
        self.churn_events += mf.churn.events;
        self.churn_drops += mf.churn.drops;
    }

    /// Fold in the backbone's wired-class counters.
    pub fn merge_backbone(&mut self, lost: u64, spikes: u64) {
        self.wired_msgs_lost += lost;
        self.wired_spikes += spikes;
    }

    /// Total injections across every class (recoveries excluded).
    pub fn injections(&self) -> u64 {
        self.wired_msgs_lost
            + self.wired_spikes
            + self.ap_crashes
            + self.compute_stalls
            + self.fades_opened
            + self.rops_corrupted
            + self.stale_reports
            + self.churn_events
    }

    /// Every counter as a `(stable name, value)` pair, in declaration
    /// order. The names feed metric registries and run manifests, so
    /// they are part of the output contract — do not rename.
    pub fn classes(&self) -> [(&'static str, u64); 12] {
        [
            ("wired_msgs_lost", self.wired_msgs_lost),
            ("wired_spikes", self.wired_spikes),
            ("ap_crashes", self.ap_crashes),
            ("crash_recoveries", self.crash_recoveries),
            ("compute_stalls", self.compute_stalls),
            ("fades_opened", self.fades_opened),
            ("detections_suppressed", self.detections_suppressed),
            ("rops_corrupted", self.rops_corrupted),
            ("stale_reports", self.stale_reports),
            ("churn_events", self.churn_events),
            ("churn_drops", self.churn_drops),
            ("livelocks", self.livelocks),
        ]
    }

    /// The failover counters as `(stable name, value)` pairs. Kept out
    /// of [`FaultStats::classes`] so the 12-entry contract the chaos
    /// goldens pin stays untouched; the failover experiment reads these
    /// directly.
    pub fn recovery_classes(&self) -> [(&'static str, u64); 4] {
        [
            ("ctrl_crashes", self.ctrl_crashes),
            ("standby_promotions", self.standby_promotions),
            ("replayed_reports", self.replayed_reports),
            ("recovery_ns", self.recovery_ns),
        ]
    }
}

domino_sim::snap_value!(FaultStats {
    wired_msgs_lost,
    wired_spikes,
    ap_crashes,
    crash_recoveries,
    compute_stalls,
    fades_opened,
    detections_suppressed,
    rops_corrupted,
    stale_reports,
    churn_events,
    churn_drops,
    livelocks,
    ctrl_crashes,
    standby_promotions,
    replayed_reports,
    recovery_ns,
});

/// Node-class faults: AP crashes, controller compute stalls, stale
/// reports. Consulted by the DOMINO/CENTAUR state machines.
#[derive(Clone, Debug)]
pub struct NodeFaults {
    crash_p: f64,
    stall_p: f64,
    stale_p: f64,
    ctrl_crash_p: f64,
    ctrl_downtime: SimDuration,
    rng: SimRng,
    /// AP crashes injected so far.
    pub crashes: u64,
    /// Crash recoveries observed so far (counted by the MAC when a
    /// crashed AP accepts its first post-downtime batch).
    pub recoveries: u64,
    /// Compute stalls injected so far.
    pub stalls: u64,
    /// Stale reports injected so far.
    pub stale_reports: u64,
    /// Primary-controller crashes injected so far (failover class).
    pub ctrl_crashes: u64,
}

impl NodeFaults {
    fn new(cfg: &FaultConfig, master_seed: u64) -> NodeFaults {
        NodeFaults {
            crash_p: cfg.ap_crash.clamp(0.0, 1.0),
            stall_p: cfg.compute_stall.clamp(0.0, 1.0),
            stale_p: cfg.rop_stale.clamp(0.0, 1.0),
            ctrl_crash_p: cfg.ctrl_crash.clamp(0.0, 1.0),
            ctrl_downtime: SimDuration::from_micros_f64(cfg.ctrl_downtime_us.max(0.0)),
            rng: SimRng::derive(master_seed, streams::FAULT_NODE),
            crashes: 0,
            recoveries: 0,
            stalls: 0,
            stale_reports: 0,
            ctrl_crashes: 0,
        }
    }

    /// Does the AP crash at this opportunity? Returns the downtime during
    /// which it stays dark (state already lost). No draw when off.
    pub fn crash(&mut self) -> Option<SimDuration> {
        if self.crash_p > 0.0 && self.rng.chance(self.crash_p) {
            self.crashes += 1;
            Some(SimDuration::from_micros_f64(AP_DOWNTIME_US))
        } else {
            None
        }
    }

    /// Record that a crashed AP came back and accepted a batch.
    pub fn recovered(&mut self) {
        self.recoveries += 1;
    }

    /// Raw draws taken from the node-fault stream so far (profiler food
    /// for `rng;faults`).
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    /// Does this controller compute stall? Returns the extra compute time
    /// (exponential around [`COMPUTE_STALL_US`]). No draw when off.
    pub fn compute_stall(&mut self) -> Option<SimDuration> {
        if self.stall_p > 0.0 && self.rng.chance(self.stall_p) {
            self.stalls += 1;
            Some(SimDuration::from_micros_f64(self.rng.exponential(COMPUTE_STALL_US)))
        } else {
            None
        }
    }

    /// Does the primary controller crash at this compute opportunity?
    /// Returns the downtime until a cold restart would be serviceable
    /// (the standby, when enabled, usually beats it). No draw when off.
    pub fn ctrl_crash(&mut self) -> Option<SimDuration> {
        if self.ctrl_crash_p > 0.0 && self.rng.chance(self.ctrl_crash_p) {
            self.ctrl_crashes += 1;
            Some(self.ctrl_downtime)
        } else {
            None
        }
    }

    /// Is this delivered ROP report stale (reflecting the previous
    /// round's queue state)? No draw when off.
    pub fn report_stale(&mut self) -> bool {
        if self.stale_p > 0.0 && self.rng.chance(self.stale_p) {
            self.stale_reports += 1;
            true
        } else {
            false
        }
    }
}

// Dynamic state: the RNG position and the injection counters. The
// probabilities and the controller downtime come from [`FaultConfig`] and
// are reconstructed by the restore target's constructor.
domino_sim::snapshot_fields!(NodeFaults {
    rng,
    crashes,
    recoveries,
    stalls,
    stale_reports,
    ctrl_crashes,
});

/// Channel-class faults: correlated signature fades (beyond the i.i.d.
/// base detection draw) and corrupted ROP reports. Owned by the medium.
#[derive(Clone, Debug)]
pub struct ChannelFaults {
    fade_p: f64,
    corrupt_p: f64,
    rng: SimRng,
    fade_remaining: u32,
    /// Fades opened so far.
    pub fades_opened: u64,
    /// Detections suppressed so far (the opening detection included).
    pub detections_suppressed: u64,
    /// ROP reports corrupted so far.
    pub rops_corrupted: u64,
}

impl ChannelFaults {
    fn new(cfg: &FaultConfig, master_seed: u64) -> ChannelFaults {
        ChannelFaults {
            fade_p: cfg.fade.clamp(0.0, 1.0),
            corrupt_p: cfg.rop_corrupt.clamp(0.0, 1.0),
            rng: SimRng::derive(master_seed, streams::FAULT_CHANNEL),
            fade_remaining: 0,
            fades_opened: 0,
            detections_suppressed: 0,
            rops_corrupted: 0,
        }
    }

    /// Called on each *otherwise successful* signature detection: inside
    /// a fade the detection is suppressed; outside, a new fade may open
    /// (suppressing this detection and the next [`FADE_LEN`] − 1). The
    /// correlation is what the i.i.d. base draw cannot produce.
    pub fn fade_suppresses(&mut self) -> bool {
        if self.fade_remaining > 0 {
            self.fade_remaining -= 1;
            self.detections_suppressed += 1;
            return true;
        }
        if self.fade_p > 0.0 && self.rng.chance(self.fade_p) {
            self.fades_opened += 1;
            self.detections_suppressed += 1;
            self.fade_remaining = FADE_LEN - 1;
            return true;
        }
        false
    }

    /// Raw draws taken from the channel-fault stream so far.
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    /// Called on each *otherwise successful* ROP decode: a corrupted
    /// report fails its integrity check and is discarded by the receiver.
    pub fn rop_corrupts(&mut self) -> bool {
        if self.corrupt_p > 0.0 && self.rng.chance(self.corrupt_p) {
            self.rops_corrupted += 1;
            true
        } else {
            false
        }
    }
}

// Dynamic state: the RNG position, the open fade window and the
// counters. Probabilities are configuration.
domino_sim::snapshot_fields!(ChannelFaults {
    rng,
    fade_remaining,
    fades_opened,
    detections_suppressed,
    rops_corrupted,
});

/// Churn-class faults: a pre-generated, per-client schedule of dark
/// intervals (leave → downtime → rejoin). Pre-generation keeps the
/// schedule independent of event-processing order, so `--jobs N` and any
/// MAC interleaving see the identical timeline.
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    /// Disjoint, sorted dark intervals per node index.
    intervals: Vec<Vec<(SimTime, SimTime)>>,
    /// Leave events in the schedule.
    pub events: u64,
    /// Receptions failed because an endpoint was dark.
    pub drops: u64,
}

impl ChurnSchedule {
    fn new(cfg: &FaultConfig, master_seed: u64, clients: &[u32], duration_s: f64) -> ChurnSchedule {
        let num_nodes = clients.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let mut intervals = vec![Vec::new(); num_nodes];
        let mut events = 0u64;
        if cfg.churn_rate_hz > 0.0 {
            let mut rng = SimRng::derive(master_seed, streams::FAULT_CHURN);
            let horizon = SimDuration::from_secs_f64(duration_s);
            let downtime = SimDuration::from_micros_f64(CHURN_DOWNTIME_US);
            let mean_gap_s = 1.0 / cfg.churn_rate_hz;
            for &c in clients {
                let mut t = SimDuration::from_secs_f64(rng.exponential(mean_gap_s));
                while t < horizon {
                    let start = SimTime::ZERO + t;
                    if let Some(v) = intervals.get_mut(c as usize) {
                        v.push((start, start + downtime));
                    }
                    events += 1;
                    t = t + downtime + SimDuration::from_secs_f64(rng.exponential(mean_gap_s));
                }
            }
        }
        ChurnSchedule { intervals, events, drops: 0 }
    }

    /// Is `node` churned dark at `now`? Pure query, no counting.
    pub fn is_dark(&self, node: u32, now: SimTime) -> bool {
        self.intervals
            .get(node as usize)
            .is_some_and(|v| v.iter().any(|&(s, e)| s <= now && now < e))
    }

    /// [`ChurnSchedule::is_dark`] plus drop accounting: call when a dark
    /// endpoint costs a reception.
    pub fn check_dark(&mut self, node: u32, now: SimTime) -> bool {
        if self.is_dark(node, now) {
            self.drops += 1;
            true
        } else {
            false
        }
    }

    /// True when no node ever goes dark (schedule empty).
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }
}

impl Snapshot for ChurnSchedule {
    /// Only the drop counter is dynamic: the dark intervals (and their
    /// count) are pre-generated from `(config, seed)` and regenerate
    /// identically in the restore target. `events` is saved anyway as a
    /// cheap cross-check that both sides built the same schedule.
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.events);
        w.put_u64(self.drops);
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let events = r.get_u64()?;
        if events != self.events {
            return Err(SnapError::Corrupt("churn schedule mismatch"));
        }
        self.drops = r.get_u64()?;
        Ok(())
    }
}

/// The channel + churn classes bundled for the medium to own.
#[derive(Clone, Debug)]
pub struct MediumFaults {
    /// Correlated fades and ROP corruption.
    pub channel: ChannelFaults,
    /// Client dark intervals.
    pub churn: ChurnSchedule,
}

impl MediumFaults {
    /// Runtime draws taken by the medium-owned fault classes. The churn
    /// schedule is excluded by construction: its draws happen once while
    /// pre-generating the dark intervals, not during the run.
    pub fn rng_draws(&self) -> u64 {
        self.channel.rng_draws()
    }
}

domino_sim::snapshot_fields!(MediumFaults { channel, churn });

/// One run's fault plane: the configuration plus the per-class fault
/// sources, each on its own RNG stream. Constructed once per MAC run and
/// then split — [`MediumFaults`] moves into the medium, [`NodeFaults`]
/// stays with the MAC state machine, and the wired knobs are applied to
/// the backbone.
#[derive(Clone, Debug)]
pub struct FaultPlane {
    /// The knobs this plane was built from.
    pub cfg: FaultConfig,
    /// Node-class faults (crashes, stalls, stale reports).
    pub node: NodeFaults,
    /// Channel- and churn-class faults, destined for the medium.
    pub medium: MediumFaults,
}

impl FaultPlane {
    /// Build the plane for one run. `clients` are the node indices that
    /// can churn; `duration_s` bounds the pre-generated churn schedule.
    pub fn new(
        cfg: &FaultConfig,
        master_seed: u64,
        clients: &[u32],
        duration_s: f64,
    ) -> FaultPlane {
        FaultPlane {
            cfg: cfg.clone(),
            node: NodeFaults::new(cfg, master_seed),
            medium: MediumFaults {
                channel: ChannelFaults::new(cfg, master_seed),
                churn: ChurnSchedule::new(cfg, master_seed, clients, duration_s),
            },
        }
    }

    /// An all-off plane (zero draws ever).
    pub fn off(master_seed: u64) -> FaultPlane {
        FaultPlane::new(&FaultConfig::off(), master_seed, &[], 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_sim::snapshot::SnapValue;

    #[test]
    fn default_config_is_off() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg, FaultConfig::off());
        assert!(!FaultConfig::chaos(0.0).enabled());
        assert!(FaultConfig::chaos(0.5).enabled());
    }

    #[test]
    fn chaos_at_zero_intensity_is_off() {
        assert_eq!(FaultConfig::chaos(0.0), FaultConfig::off());
        assert_eq!(FaultConfig::chaos(-1.0), FaultConfig::off());
    }

    #[test]
    fn chaos_profile_scales_linearly() {
        let half = FaultConfig::chaos(0.5);
        let full = FaultConfig::chaos(1.0);
        assert!((full.wired_loss - 2.0 * half.wired_loss).abs() < 1e-12);
        assert!((full.churn_rate_hz - 2.0 * half.churn_rate_hz).abs() < 1e-12);
        // Out-of-range intensities clamp.
        assert_eq!(FaultConfig::chaos(7.0), FaultConfig::chaos(1.0));
    }

    #[test]
    fn off_plane_never_fires() {
        let mut plane = FaultPlane::off(1);
        for _ in 0..1_000 {
            assert!(plane.node.crash().is_none());
            assert!(plane.node.compute_stall().is_none());
            assert!(plane.node.ctrl_crash().is_none());
            assert!(!plane.node.report_stale());
            assert!(!plane.medium.channel.fade_suppresses());
            assert!(!plane.medium.channel.rop_corrupts());
        }
        assert!(plane.medium.churn.is_empty());
        let mut stats = FaultStats::default();
        stats.merge_node(&plane.node);
        stats.merge_medium(&plane.medium);
        assert_eq!(stats, FaultStats::default());
        assert_eq!(stats.injections(), 0);
    }

    #[test]
    fn fades_are_correlated_bursts() {
        let cfg = FaultConfig { fade: 0.05, ..FaultConfig::off() };
        let mut plane = FaultPlane::new(&cfg, 7, &[], 10.0);
        let ch = &mut plane.medium.channel;
        let n = 50_000u64;
        let suppressed = (0..n).filter(|_| ch.fade_suppresses()).count() as u64;
        assert_eq!(suppressed, ch.detections_suppressed);
        // Each opened fade suppresses exactly FADE_LEN detections; the
        // loop may end inside the last one.
        let cut_short = u64::from(ch.fade_remaining);
        assert_eq!(suppressed + cut_short, ch.fades_opened * u64::from(FADE_LEN));
        // Suppression rate ≈ p·len / (1 + p·(len−1)) = 24 %.
        let rate = suppressed as f64 / n as f64;
        assert!((0.20..0.28).contains(&rate), "rate {rate}");
    }

    #[test]
    fn churn_schedule_is_deterministic_and_bounded() {
        let cfg = FaultConfig { churn_rate_hz: 2.0, ..FaultConfig::off() };
        let a = ChurnSchedule::new(&cfg, 9, &[1, 3, 5], 10.0);
        let b = ChurnSchedule::new(&cfg, 9, &[1, 3, 5], 10.0);
        assert_eq!(a.events, b.events);
        assert!(a.events > 0, "2 Hz × 3 clients × 10 s must produce events");
        // ~2 Hz per client for 10 s → ~60 leaves overall, Poisson spread.
        assert!((20..140).contains(&a.events), "events {}", a.events);
        // Dark exactly inside intervals: scan a grid and cross-check.
        let mut dark_ns = 0u64;
        for ms in 0..10_000u64 {
            let t = SimTime::from_millis(ms);
            for &c in &[1u32, 3, 5] {
                assert_eq!(a.is_dark(c, t), b.is_dark(c, t));
                if a.is_dark(c, t) {
                    dark_ns += 1;
                }
            }
        }
        // Expected dark fraction ≈ rate × downtime = 2 × 0.025 = 5 % per
        // client of 30 000 samples ≈ 1500; allow wide slack.
        assert!((300..4_000).contains(&dark_ns), "dark samples {dark_ns}");
        // A node with no schedule is never dark.
        assert!(!a.is_dark(99, SimTime::from_millis(5)));
    }

    #[test]
    fn check_dark_counts_drops() {
        let cfg = FaultConfig { churn_rate_hz: 50.0, ..FaultConfig::off() };
        let mut s = ChurnSchedule::new(&cfg, 3, &[0], 5.0);
        let mut hits = 0u64;
        for ms in 0..5_000u64 {
            if s.check_dark(0, SimTime::from_millis(ms)) {
                hits += 1;
            }
        }
        assert!(hits > 0);
        assert_eq!(hits, s.drops);
    }

    #[test]
    fn node_faults_draw_only_when_on() {
        // Two planes with different *other* classes enabled must agree on
        // the node stream: class independence.
        let a_cfg = FaultConfig { ap_crash: 0.3, ..FaultConfig::off() };
        let b_cfg = FaultConfig { fade: 0.9, wired_loss: 0.5, ..a_cfg.clone() };
        let mut a = FaultPlane::new(&a_cfg, 13, &[], 1.0);
        let mut b = FaultPlane::new(&b_cfg, 13, &[], 1.0);
        for _ in 0..200 {
            assert_eq!(a.node.crash().is_some(), b.node.crash().is_some());
        }
        assert_eq!(a.node.crashes, b.node.crashes);
    }

    #[test]
    fn stall_durations_are_positive_and_counted() {
        let cfg = FaultConfig { compute_stall: 1.0, ..FaultConfig::off() };
        let mut plane = FaultPlane::new(&cfg, 17, &[], 1.0);
        let mut total = SimDuration::ZERO;
        for _ in 0..100 {
            let d = plane.node.compute_stall().expect("p=1 always stalls");
            total += d;
        }
        assert_eq!(plane.node.stalls, 100);
        let mean_us = total.as_micros_f64() / 100.0;
        assert!((500.0..6_000.0).contains(&mean_us), "mean stall {mean_us}");
    }

    #[test]
    fn ctrl_crash_draws_and_counts() {
        let cfg = FaultConfig {
            ctrl_crash: 0.5,
            ctrl_downtime_us: 3_000.0,
            ..FaultConfig::off()
        };
        assert!(cfg.enabled());
        let mut plane = FaultPlane::new(&cfg, 41, &[], 1.0);
        let mut fired = 0u64;
        for _ in 0..400 {
            if let Some(d) = plane.node.ctrl_crash() {
                assert_eq!(d, SimDuration::from_micros_f64(3_000.0));
                fired += 1;
            }
        }
        assert_eq!(fired, plane.node.ctrl_crashes);
        assert!((120..280).contains(&fired), "fired {fired}");
        let mut stats = FaultStats::default();
        stats.merge_node(&plane.node);
        assert_eq!(stats.ctrl_crashes, fired);
        // The failover class is drawn on the shared node stream but the
        // chaos profile keeps it off.
        assert_eq!(FaultConfig::chaos(1.0).ctrl_crash, 0.0);
        assert!(!FaultConfig::chaos(1.0).standby);
    }

    #[test]
    fn snapshot_roundtrips_mid_run_fault_state() {
        let cfg = FaultConfig::chaos(1.0);
        let mut plane = FaultPlane::new(&cfg, 31, &[1, 2], 2.0);
        for ms in 0..300u64 {
            let _ = plane.node.crash();
            let _ = plane.node.compute_stall();
            let _ = plane.medium.channel.fade_suppresses();
            let _ = plane.medium.channel.rop_corrupts();
            let _ = plane.medium.churn.check_dark(1, SimTime::from_millis(ms));
        }
        let mut w = SnapWriter::new();
        plane.node.save(&mut w);
        plane.medium.save(&mut w);
        let bytes = w.into_bytes();

        // Restore into a fresh plane built from the same (cfg, seed).
        let mut fresh = FaultPlane::new(&cfg, 31, &[1, 2], 2.0);
        let mut r = SnapReader::new(&bytes);
        fresh.node.restore(&mut r).unwrap();
        fresh.medium.restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(fresh.node.crashes, plane.node.crashes);
        assert_eq!(fresh.medium.churn.drops, plane.medium.churn.drops);
        // The restored RNGs continue exactly where the originals were.
        for _ in 0..50 {
            assert_eq!(
                fresh.node.compute_stall().is_some(),
                plane.node.compute_stall().is_some()
            );
            assert_eq!(
                fresh.medium.channel.fade_suppresses(),
                plane.medium.channel.fade_suppresses()
            );
        }

        // A schedule built from different churn inputs is rejected.
        let mut other = FaultPlane::new(&cfg, 31, &[1], 2.0);
        let mut r = SnapReader::new(&bytes);
        other.node.restore(&mut r).unwrap();
        assert!(matches!(
            other.medium.restore(&mut r),
            Err(SnapError::Corrupt("churn schedule mismatch"))
        ));
    }

    #[test]
    fn fault_stats_roundtrip_through_bytes() {
        let stats = FaultStats {
            wired_msgs_lost: 1,
            wired_spikes: 2,
            ap_crashes: 3,
            crash_recoveries: 4,
            compute_stalls: 5,
            fades_opened: 6,
            detections_suppressed: 7,
            rops_corrupted: 8,
            stale_reports: 9,
            churn_events: 10,
            churn_drops: 11,
            livelocks: 12,
            ctrl_crashes: 13,
            standby_promotions: 14,
            replayed_reports: 15,
            recovery_ns: 16,
        };
        let bytes = stats.to_bytes();
        assert_eq!(bytes.len(), 16 * 8);
        assert_eq!(FaultStats::from_bytes(&bytes), Ok(stats));
        for cut in 0..bytes.len() {
            assert!(FaultStats::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn fault_stats_snapshot_covers_every_counter() {
        let mut stats = FaultStats::default();
        for (i, (_, _)) in FaultStats::default().classes().iter().enumerate() {
            // Distinct values per field so a field-order slip is caught.
            let v = (i as u64 + 1) * 11;
            match i {
                0 => stats.wired_msgs_lost = v,
                1 => stats.wired_spikes = v,
                2 => stats.ap_crashes = v,
                3 => stats.crash_recoveries = v,
                4 => stats.compute_stalls = v,
                5 => stats.fades_opened = v,
                6 => stats.detections_suppressed = v,
                7 => stats.rops_corrupted = v,
                8 => stats.stale_reports = v,
                9 => stats.churn_events = v,
                10 => stats.churn_drops = v,
                _ => stats.livelocks = v,
            }
        }
        stats.ctrl_crashes = 2;
        stats.standby_promotions = 2;
        stats.replayed_reports = 19;
        stats.recovery_ns = 123_456_789;
        let mut w = SnapWriter::new();
        stats.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FaultStats::default();
        let mut r = SnapReader::new(&bytes);
        restored.restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, stats);
        assert_eq!(restored.recovery_classes()[0], ("ctrl_crashes", 2));
    }

    #[test]
    fn fault_stats_merge_and_injections() {
        let cfg = FaultConfig::chaos(1.0);
        let mut plane = FaultPlane::new(&cfg, 23, &[1], 2.0);
        for _ in 0..500 {
            let _ = plane.node.crash();
            let _ = plane.node.compute_stall();
            let _ = plane.node.report_stale();
            let _ = plane.medium.channel.fade_suppresses();
            let _ = plane.medium.channel.rop_corrupts();
        }
        plane.node.recovered();
        let mut stats = FaultStats::default();
        stats.merge_node(&plane.node);
        stats.merge_medium(&plane.medium);
        stats.merge_backbone(3, 4);
        assert_eq!(stats.wired_msgs_lost, 3);
        assert_eq!(stats.wired_spikes, 4);
        assert_eq!(stats.crash_recoveries, 1);
        assert!(stats.injections() > 0);
        assert_eq!(
            stats.injections(),
            stats.wired_msgs_lost
                + stats.wired_spikes
                + stats.ap_crashes
                + stats.compute_stalls
                + stats.fades_opened
                + stats.rops_corrupted
                + stats.stale_reports
                + stats.churn_events
        );
    }
}
