//! The deterministic cost-attribution profiler.
//!
//! Where the tracer (see [`crate::tracer`]) answers *what happened when*,
//! the profiler answers *where the simulation spends its work*: how many
//! engine pops, timer-wheel cascades, medium adjudications, controller
//! convert calls and RNG draws a run costs, attributed to a **fixed
//! subsystem taxonomy** ([`CostPath`]). Every count is an exact integer
//! over simulated work — no wall clock, no sampling — so two runs of the
//! same seed produce byte-identical profiles and a CI gate can hold them
//! to **zero-tolerance** thresholds (wall-time profiling stays runner- and
//! bench-side, per lint rule D001).
//!
//! The API mirrors [`TraceHandle`](crate::tracer::TraceHandle): a
//! [`ProfHandle`] is closure-gated, so a disabled handle performs one
//! `Option` check and never touches the counter cells, never allocates,
//! and never draws randomness. An enabled handle increments cells of a
//! fixed-size array behind a `RefCell` — still allocation-free, which is
//! what lets hooks sit inside lint rule D007's no-allocation call graph
//! (`Engine::pop`, `Medium::begin`, `dispatch_batch`).
//!
//! Profiling must never perturb a run: the `profiling_never_perturbs_a_run`
//! property in `domino-core` pins `profiled ≡ unprofiled` (identical
//! `RunStats` and trace bytes) across schemes × fault schedules.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

crate::named_enum! {
    /// One node of the fixed cost taxonomy.
    ///
    /// Each variant names a subsystem cost center with a stable folded-stack
    /// path (`group;node` with `;` separators, the flamegraph convention).
    /// The enum is the schema of the profile report: variants are appended,
    /// never renamed, so historical profiles stay diffable. A variant's
    /// discriminant is its profile cell, and `ALL` is the report order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CostPath {
        /// Events popped off the engine's timer wheel.
        EnginePop => "engine;pop",
        /// Timer-wheel insertions.
        WheelInsert => "engine;wheel;insert",
        /// Timer-wheel cancellations.
        WheelCancel => "engine;wheel;cancel",
        /// Timer nodes re-filed during a wheel-level cascade.
        WheelCascade => "engine;wheel;cascade",
        /// Traffic-plane events (TCP ticks, RTO timers, CSMA wakes).
        EvTraffic => "events;traffic",
        /// Medium events (transmission ends).
        EvMedium => "events;medium",
        /// Controller events (batch compute, report/batch arrivals).
        EvController => "events;controller",
        /// Slot-execution events (slot starts, bursts, ACKs, watchdogs).
        EvSlot => "events;slot",
        /// ROP polling events.
        EvRop => "events;rop",
        /// Standby/failover events (heartbeats, checkpoints, probes).
        EvStandby => "events;standby",
        /// `Medium::begin` calls (transmissions put on the air).
        MediumBegin => "medium;begin",
        /// `Medium::end` calls (transmissions leaving the air).
        MediumEnd => "medium;end",
        /// Data-frame reception adjudications.
        AdjData => "medium;adjudicate;data",
        /// MAC-ACK reception adjudications.
        AdjMacAck => "medium;adjudicate;mac_ack",
        /// Poll-frame reception adjudications.
        AdjPoll => "medium;adjudicate;poll",
        /// ROP-report reception adjudications.
        AdjRopReport => "medium;adjudicate;rop_report",
        /// Signature-burst detection adjudications.
        AdjSignature => "medium;adjudicate;signature",
        /// Controller batch computations.
        CtrlCompute => "controller;compute",
        /// Scheduler `schedule_batch` calls.
        CtrlSchedule => "controller;schedule",
        /// `Converter::convert` calls (schedule → per-AP actions).
        CtrlConvert => "controller;convert",
        /// Slots produced by the converter.
        CtrlSlots => "controller;convert;slots",
        /// Per-AP actions produced by the converter.
        CtrlActions => "controller;convert;actions",
        /// Batch dispatches onto the wired backbone.
        CtrlDispatch => "controller;dispatch",
        /// Per-AP messages sent during dispatch.
        CtrlDispatchMsgs => "controller;dispatch;messages",
        /// Signature bursts emitted.
        SigEmit => "signature;emit",
        /// Targets addressed across all emitted bursts.
        SigTargets => "signature;emit;targets",
        /// Signature bursts detected by a targeted receiver.
        SigDetect => "signature;detect",
        /// Signature bursts missed by a targeted receiver.
        SigMiss => "signature;miss",
        /// ROP polls started.
        RopPoll => "rop;poll",
        /// ROP queue reports received.
        RopReport => "rop;report",
        /// PHY-error stream RNG draws (medium adjudication).
        RngPhyError => "rng;phy_error",
        /// Fault-plane stream RNG draws (all fault streams summed).
        RngFaults => "rng;faults",
        /// Wired-backbone stream RNG draws (jitter, loss, spike).
        RngWired => "rng;wired",
        /// DCF backoff stream RNG draws.
        RngDcfBackoff => "rng;dcf_backoff",
        /// Contenders the CSMA contention loop examined: the carrier-sense
        /// scans after medium changes and the kicks after frame ends (DCF,
        /// and CENTAUR's uplink).
        CsmaVisits => "csma;visits",
    }
}

impl CostPath {
    /// Number of cost centers (cells in a profile).
    pub const COUNT: usize = CostPath::ALL.len();

    /// Is this one of the per-event-class buckets the attribution share
    /// is computed over?
    fn is_event_class(self) -> bool {
        matches!(
            self,
            CostPath::EvTraffic
                | CostPath::EvMedium
                | CostPath::EvController
                | CostPath::EvSlot
                | CostPath::EvRop
                | CostPath::EvStandby
        )
    }
}

/// The live counter cells a [`ProfHandle`] writes into.
///
/// Interior mutability mirrors `MemTracer`: the handle is shared `Rc`-style
/// between the engine, the medium and the scheme world, all on the run
/// thread. The cell array is fixed-size, so enabling profiling performs no
/// allocation after construction.
#[derive(Debug)]
pub struct CostProfiler {
    cells: RefCell<[u64; CostPath::COUNT]>,
}

impl Default for CostProfiler {
    fn default() -> CostProfiler {
        CostProfiler::new()
    }
}

impl CostProfiler {
    /// A profiler with all cells at zero.
    pub fn new() -> CostProfiler {
        CostProfiler { cells: RefCell::new([0; CostPath::COUNT]) }
    }

    /// Add `delta` to one cost center.
    #[inline]
    pub fn add(&self, path: CostPath, delta: u64) {
        let mut cells = self.cells.borrow_mut();
        cells[path as usize] = cells[path as usize].saturating_add(delta);
    }

    /// Snapshot the current counts.
    pub fn snapshot(&self) -> CostProfile {
        CostProfile { counts: *self.cells.borrow() }
    }
}

/// A closure-gated profiler handle (the `TraceHandle` of cost attribution).
///
/// `ProfHandle::off()` is the disabled handle every unprofiled run uses:
/// its [`add`](ProfHandle::add) is a single `Option` check, and
/// [`add_with`](ProfHandle::add_with) never evaluates its closure — the
/// cost of carrying a disabled handle through the hot path is one branch.
#[derive(Clone, Debug, Default)]
pub struct ProfHandle(Option<Rc<CostProfiler>>);

impl ProfHandle {
    /// The disabled handle: counts nothing, costs one branch per hook.
    pub fn off() -> ProfHandle {
        ProfHandle(None)
    }

    /// An enabled handle plus the profiler to read results from.
    pub fn collecting() -> (ProfHandle, Rc<CostProfiler>) {
        let prof = Rc::new(CostProfiler::new());
        (ProfHandle(Some(Rc::clone(&prof))), prof)
    }

    /// Is a profiler attached?
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Count one unit against `path`.
    #[inline]
    pub fn tick(&self, path: CostPath) {
        if let Some(prof) = &self.0 {
            prof.add(path, 1);
        }
    }

    /// Count `delta` units against `path`.
    #[inline]
    pub fn add(&self, path: CostPath, delta: u64) {
        if let Some(prof) = &self.0 {
            prof.add(path, delta);
        }
    }

    /// Count `delta()` units against `path`; the closure only runs when
    /// profiling is enabled, so computing an expensive delta is free on
    /// the unprofiled path.
    #[inline]
    pub fn add_with(&self, path: CostPath, delta: impl FnOnce() -> u64) {
        if let Some(prof) = &self.0 {
            prof.add(path, delta());
        }
    }
}

/// `num / den` to three decimals, rounded half up (`0.000` when `den` is 0).
fn fixed3(num: u64, den: u64) -> String {
    let milli = (u128::from(num) * 1000 + u128::from(den) / 2).checked_div(den.into());
    let milli = milli.unwrap_or(0);
    format!("{}.{:03}", milli / 1000, milli % 1000)
}

/// An immutable profile: the counts of one finished run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostProfile {
    counts: [u64; CostPath::COUNT],
}

impl Default for CostProfile {
    fn default() -> CostProfile {
        CostProfile { counts: [0; CostPath::COUNT] }
    }
}

impl CostProfile {
    /// The count recorded against one cost center.
    pub fn get(&self, path: CostPath) -> u64 {
        self.counts[path as usize]
    }

    /// Total engine pops (the denominator of event attribution).
    pub fn total_events(&self) -> u64 {
        self.get(CostPath::EnginePop)
    }

    /// Events attributed to a named per-class bucket.
    pub fn attributed_events(&self) -> u64 {
        CostPath::ALL
            .iter()
            .filter(|p| p.is_event_class())
            .map(|&p| self.get(p))
            .sum()
    }

    /// Attribution share in integer percent (100 when nothing ran).
    pub fn attributed_percent(&self) -> u64 {
        let total = self.total_events();
        if total == 0 {
            return 100;
        }
        self.attributed_events().saturating_mul(100) / total
    }

    /// Render the folded-stack form: one `path count` line per nonzero
    /// cost center, in taxonomy order. Feed straight to `flamegraph.pl`.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for p in CostPath::ALL {
            let n = self.get(p);
            if n > 0 {
                let _ = writeln!(out, "{} {}", p.name(), n);
            }
        }
        out
    }

    /// Render the human table: header, per-group sections, attribution
    /// footer, then the timer wheel's inserts, cancels and cascades per
    /// pop, the medium's adjudications per frame put on the air and the
    /// converter's actions per slot. Byte-stable: pure function of the
    /// counts.
    pub fn render_table(&self) -> String {
        let mut out = String::from("# domino-profile v1\n");
        let _ = writeln!(out, "{:<30} {:>14}", "cost_center", "count");
        let mut group = "";
        for p in CostPath::ALL {
            let n = self.get(p);
            if n == 0 {
                continue;
            }
            let name = p.name();
            let head = name.split(';').next().unwrap_or(name);
            if head != group {
                let _ = writeln!(out, "-- {head}");
                group = head;
            }
            let _ = writeln!(out, "{:<30} {:>14}", name, n);
        }
        let _ = writeln!(
            out,
            "attributed_events {} / {} ({}%)",
            self.attributed_events(),
            self.total_events(),
            self.attributed_percent(),
        );
        let [insert, cancel, cascade] =
            [CostPath::WheelInsert, CostPath::WheelCancel, CostPath::WheelCascade]
                .map(|p| fixed3(self.get(p), self.total_events()));
        let _ = writeln!(out, "wheel_per_pop insert {insert} cancel {cancel} cascade {cascade}");
        let adjudications = [
            CostPath::AdjData,
            CostPath::AdjMacAck,
            CostPath::AdjPoll,
            CostPath::AdjRopReport,
            CostPath::AdjSignature,
        ]
        .iter()
        .map(|&p| self.get(p))
        .sum();
        let per_frame = fixed3(adjudications, self.get(CostPath::MediumBegin));
        let _ = writeln!(out, "medium_per_frame adjudications {per_frame}");
        let per_slot = fixed3(self.get(CostPath::CtrlActions), self.get(CostPath::CtrlSlots));
        let _ = writeln!(out, "controller_per_slot actions {per_slot}");
        out
    }

    /// Parse the folded-stack form back into a profile. Unknown paths are
    /// an error (they mean the reader is older than the writer).
    pub fn parse_folded(text: &str) -> Result<CostProfile, String> {
        let mut profile = CostProfile::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let (Some(name), Some(count)) = (parts.next(), parts.next()) else {
                return Err(format!("line {}: expected `path count`", i + 1));
            };
            let Some(path) = CostPath::from_name(name) else {
                return Err(format!("line {}: unknown cost center '{name}'", i + 1));
            };
            let Ok(n) = count.parse::<u64>() else {
                return Err(format!("line {}: bad count '{count}'", i + 1));
            };
            profile.counts[path as usize] = n;
        }
        Ok(profile)
    }

    /// Compare two profiles cost-center by cost-center.
    ///
    /// Every count is exact, so the regression threshold is **zero**: any
    /// delta is a finding. Returns one line per differing cost center
    /// (`path before -> after (+delta)`) — empty means identical.
    pub fn diff(&self, other: &CostProfile) -> Vec<String> {
        let mut lines = Vec::new();
        for p in CostPath::ALL {
            let (a, b) = (self.get(p), other.get(p));
            if a != b {
                let sign = if b >= a { "+" } else { "-" };
                lines.push(format!("{} {} -> {} ({sign}{})", p.name(), a, b, b.abs_diff(a)));
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_evaluates_the_delta() {
        let handle = ProfHandle::off();
        assert!(!handle.is_on());
        handle.add_with(CostPath::EnginePop, || {
            panic!("closure must not run on a disabled handle")
        });
        handle.tick(CostPath::EnginePop);
    }

    #[test]
    fn collecting_handle_accumulates() {
        let (handle, prof) = ProfHandle::collecting();
        assert!(handle.is_on());
        handle.tick(CostPath::EnginePop);
        handle.add(CostPath::EnginePop, 4);
        handle.add_with(CostPath::WheelCascade, || 7);
        let clone = handle.clone();
        clone.tick(CostPath::EnginePop);
        let snap = prof.snapshot();
        assert_eq!(snap.get(CostPath::EnginePop), 6);
        assert_eq!(snap.get(CostPath::WheelCascade), 7);
        assert_eq!(snap.get(CostPath::SigEmit), 0);
    }

    #[test]
    fn taxonomy_names_are_distinct_and_total() {
        let mut names: Vec<&str> = CostPath::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), CostPath::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CostPath::COUNT, "duplicate folded path");
        for p in CostPath::ALL {
            assert_eq!(CostPath::from_name(p.name()), Some(p));
        }
        assert_eq!(CostPath::from_name("engine;nope"), None);
    }

    #[test]
    fn attribution_share_is_event_classes_over_pops() {
        let (handle, prof) = ProfHandle::collecting();
        handle.add(CostPath::EnginePop, 10);
        handle.add(CostPath::EvTraffic, 4);
        handle.add(CostPath::EvSlot, 5);
        // medium;begin is not an event class: must not inflate the share.
        handle.add(CostPath::MediumBegin, 100);
        let snap = prof.snapshot();
        assert_eq!(snap.attributed_events(), 9);
        assert_eq!(snap.attributed_percent(), 90);
        assert_eq!(CostProfile::default().attributed_percent(), 100);
    }

    #[test]
    fn folded_render_round_trips_and_table_is_stable() {
        let (handle, prof) = ProfHandle::collecting();
        handle.add(CostPath::EnginePop, 12);
        handle.add(CostPath::EvSlot, 12);
        handle.add(CostPath::CtrlConvert, 3);
        handle.add(CostPath::SigEmit, 2);
        let snap = prof.snapshot();
        let folded = snap.render_folded();
        assert!(folded.contains("engine;pop 12\n"));
        assert!(folded.contains("controller;convert 3\n"));
        assert!(!folded.contains("rng;"), "zero cells omitted:\n{folded}");
        let parsed = CostProfile::parse_folded(&folded).expect("round trip");
        assert_eq!(parsed, snap);
        assert_eq!(snap.render_table(), snap.render_table());
        assert!(snap.render_table().contains("attributed_events 12 / 12 (100%)"));
        let idle = "wheel_per_pop insert 0.000 cancel 0.000 cascade 0.000\n\
                    medium_per_frame adjudications 0.000\n\
                    controller_per_slot actions 0.000\n";
        assert!(snap.render_table().ends_with(idle), "no wheel ops, frames or slots");
        handle.add(CostPath::WheelInsert, 119);
        handle.add(CostPath::WheelCancel, 7);
        handle.add(CostPath::WheelCascade, 20);
        handle.add(CostPath::MediumBegin, 4);
        handle.add(CostPath::AdjData, 3);
        handle.add(CostPath::AdjMacAck, 1);
        handle.add(CostPath::AdjSignature, 2);
        handle.add(CostPath::CtrlSlots, 3);
        handle.add(CostPath::CtrlActions, 7);
        let snap = prof.snapshot();
        let table = snap.render_table();
        let footer = "wheel_per_pop insert 9.917 cancel 0.583 cascade 1.667\n\
                      medium_per_frame adjudications 1.500\n\
                      controller_per_slot actions 2.333\n";
        assert!(table.ends_with(footer), "rounded from the exact counts:\n{table}");
        assert_eq!(fixed3(1, 2000), "0.001", "half rounds up");
        assert_eq!(fixed3(5, 0), "0.000", "no pops");
        let folded = snap.render_folded();
        assert!(!folded.contains("per_pop"), "the folded form carries counts only");
        assert!(CostProfile::parse_folded("bogus;path 3").is_err());
        assert!(CostProfile::parse_folded("engine;pop nan").is_err());
    }

    #[test]
    fn diff_reports_exact_deltas_only() {
        let (handle, prof) = ProfHandle::collecting();
        handle.add(CostPath::EnginePop, 5);
        let a = prof.snapshot();
        assert!(a.diff(&a).is_empty());
        handle.add(CostPath::EnginePop, 2);
        handle.add(CostPath::WheelCascade, 1);
        let b = prof.snapshot();
        let lines = a.diff(&b);
        assert_eq!(
            lines,
            vec!["engine;pop 5 -> 7 (+2)".to_string(), "engine;wheel;cascade 0 -> 1 (+1)".to_string()]
        );
        let back = b.diff(&a);
        assert_eq!(back[0], "engine;pop 7 -> 5 (-2)");
    }
}
