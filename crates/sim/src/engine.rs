//! The discrete-event engine.
//!
//! [`Engine`] owns the pending-event queue and the simulation clock. The
//! simulation world (medium, MAC instances, traffic sources, controller) is
//! owned by the caller; the main loop is:
//!
//! ```
//! use domino_sim::engine::Engine;
//! use domino_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::from_micros(10), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some((now, ev)) = engine.pop_until(SimTime::from_secs(1)) {
//!     match ev {
//!         Ev::Tick(n) if n < 3 => {
//!             ticks += 1;
//!             engine.schedule_in(SimDuration::from_micros(10), Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => { ticks += 1; }
//!     }
//!     let _ = now;
//! }
//! assert_eq!(ticks, 4);
//! ```
//!
//! Events scheduled for the same instant are delivered in scheduling order
//! (FIFO), which makes runs fully deterministic.
//!
//! # Implementation
//!
//! The queue is a hierarchical timer wheel (the crate's private `wheel`
//! module): O(1) scheduling and cancellation, amortized-O(1) delivery, and
//! bounded memory under cancellation churn (entries are arena slots on a
//! free list, not heap tombstones). The delivery order is the same
//! `(time, seq)` total order the original binary-heap queue produced —
//! that queue survives as [`crate::oracle::ReferenceQueue`], and the
//! differential property suite in `crates/sim/tests/` drives arbitrary
//! operation interleavings against both to pin the equivalence.

use crate::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{TimerWheel, WheelHandle};
use domino_obs::{CostPath, Probe, TraceEvent};

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// Handles are generation-checked: after the event is delivered or
/// cancelled the handle goes permanently stale, and a stale handle can
/// never alias a later event even when its storage is reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventHandle(u64);

impl EventHandle {
    /// Pack a wheel `(index, generation)` pair.
    #[inline]
    fn pack(h: WheelHandle) -> EventHandle {
        EventHandle((u64::from(h.gen) << 32) | u64::from(h.index))
    }

    /// Recover the wheel handle.
    #[inline]
    fn unpack(self) -> WheelHandle {
        WheelHandle { index: self.0 as u32, gen: (self.0 >> 32) as u32 }
    }
}

/// Default liveness budget: events allowed per liveness window before the
/// engine declares a livelock. It is about four times the busiest 1-ms
/// window measured in any legitimate run: 474 events, in Fig 14's random
/// T(20,3) networks under saturated UDP (DOMINO, seeds 1–10, 0.25 s; DCF
/// peaks at 185). Fig 12's 4-s cells stay at or below 168 (its TCP/DOMINO
/// cell). A test pins the heaviest cells at half the budget or less. A
/// genuine spin trips it well within a millisecond of wall time.
pub const DEFAULT_EVENT_BUDGET: u64 = 1_900;

/// Default liveness window of simulated time over which the event budget
/// applies.
pub const DEFAULT_LIVENESS_WINDOW: SimDuration = SimDuration::from_millis(1);

/// Typed error returned by [`Engine::pop_until_checked`] when the event
/// rate exceeds the configured budget without the clock advancing past the
/// liveness window — i.e. the run is spinning instead of making progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Livelock {
    /// Simulation time at which the budget was exhausted.
    pub at: SimTime,
    /// Events delivered inside the current window when the check fired.
    pub events_in_window: u64,
    /// The configured per-window budget.
    pub budget: u64,
}

impl std::fmt::Display for Livelock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "livelock at {:?}: {} events in one liveness window (budget {})",
            self.at, self.events_in_window, self.budget
        )
    }
}

impl std::error::Error for Livelock {}

/// Progress-tracking state for the liveness monitor.
#[derive(Clone, Copy, Debug)]
struct Liveness {
    budget: u64,
    window: SimDuration,
    window_start: SimTime,
    window_events: u64,
}

/// Discrete-event queue plus simulation clock.
pub struct Engine<E> {
    wheel: TimerWheel<E>,
    processed: u64,
    liveness: Option<Liveness>,
    /// Trace sink and cost profiler: observation-only and excluded from
    /// snapshots, so a restored engine profiles from zero.
    probe: Probe,
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Payloads need not be Debug; summarize the queue instead.
        f.debug_struct("Engine")
            .field("now", &self.now())
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Create an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            wheel: TimerWheel::new(),
            processed: 0,
            liveness: None,
            probe: Probe::default(),
        }
    }

    /// Attach a trace sink and cost profiler. Observation only —
    /// attaching never changes event order, timing, or RNG state. The
    /// engine emits [`TraceEvent::LivelockCheck`] at every liveness-window
    /// roll and [`TraceEvent::Livelock`] when the budget trips, and counts
    /// one `engine;pop` per delivery (one branch per pop when off).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Flush the timer wheel's lifetime operation counters into the
    /// attached profiler (`engine;wheel;insert` / `cancel` / `cascade`).
    /// Call once at end of run: the wheel counts continuously, so
    /// flushing twice would double-count.
    pub fn profile_wheel(&self) {
        let (inserts, cancels, cascaded) = self.wheel.op_counts();
        self.probe.prof.add(CostPath::WheelInsert, inserts);
        self.probe.prof.add(CostPath::WheelCancel, cancels);
        self.probe.prof.add(CostPath::WheelCascade, cascaded);
    }

    /// Arm the liveness monitor: more than `budget` events delivered while
    /// the clock stays inside one `window` of simulated time makes
    /// [`Engine::pop_until_checked`] return a [`Livelock`]. Observation
    /// only — arming never changes event order, timing, or RNG state.
    pub fn set_liveness(&mut self, budget: u64, window: SimDuration) {
        self.liveness = Some(Liveness {
            budget,
            window,
            window_start: self.now(),
            window_events: 0,
        });
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.wheel.cursor())
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending. Cancelled events leave the count
    /// immediately — the wheel has no tombstones.
    #[inline]
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// True when no live events remain.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Arena high-water mark: event slots ever allocated. Bounded by the
    /// peak number of *simultaneously* pending events regardless of how
    /// many schedule/cancel cycles have run — the bounded-memory contract
    /// the cancellation-churn stress test pins. Diagnostic only.
    #[inline]
    pub fn arena_slots(&self) -> usize {
        self.wheel.arena_slots()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Panics if `at` is before the current time: the past is immutable.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventHandle {
        assert!(at >= self.now(), "cannot schedule into the past: {at:?} < {:?}", self.now());
        EventHandle::pack(self.wheel.insert(at.as_nanos(), payload))
    }

    /// Schedule `payload` after `delay` from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventHandle {
        self.schedule_at(self.now() + delay, payload)
    }

    /// Schedule `payload` at the current instant (delivered after all
    /// already-queued events for this instant).
    #[inline]
    pub fn schedule_now(&mut self, payload: E) -> EventHandle {
        self.schedule_at(self.now(), payload)
    }

    /// Cancel a previously scheduled event in O(1). Returns `true` if the
    /// event was still pending. Cancelling an already-delivered,
    /// already-cancelled, or never-issued handle is a `false` no-op — the
    /// generation check makes stale handles harmless.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.wheel.cancel(handle.unpack())
    }

    /// Pop the next event not later than `horizon`. Advances the clock to
    /// the event's timestamp. Returns `None` when the queue is exhausted or
    /// the next event lies beyond the horizon (the clock then stays put).
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (time, payload) = self.wheel.pop_min_until(horizon.as_nanos())?;
        self.processed += 1;
        self.probe.prof.tick(CostPath::EnginePop);
        Some((SimTime::from_nanos(time), payload))
    }

    /// Pop the next event regardless of horizon.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// [`Engine::pop_until`] under the liveness monitor: delivers the next
    /// event, or returns a typed [`Livelock`] once the per-window event
    /// budget set by [`Engine::set_liveness`] is exhausted without the
    /// clock leaving the window. With no monitor armed this is exactly
    /// `pop_until`.
    pub fn pop_until_checked(
        &mut self,
        horizon: SimTime,
    ) -> Result<Option<(SimTime, E)>, Livelock> {
        let popped = self.pop_until(horizon);
        if let (Some((t, _)), Some(liv)) = (&popped, &mut self.liveness) {
            if *t >= liv.window_start + liv.window {
                let events = liv.window_events;
                self.probe.trace.emit(t.as_nanos(), move || TraceEvent::LivelockCheck { events });
                liv.window_start = *t;
                liv.window_events = 0;
            }
            liv.window_events += 1;
            if liv.window_events > liv.budget {
                let (events, budget) = (liv.window_events, liv.budget);
                self.probe.trace.emit(t.as_nanos(), move || TraceEvent::Livelock { events, budget });
                return Err(Livelock {
                    at: *t,
                    events_in_window: liv.window_events,
                    budget: liv.budget,
                });
            }
        }
        Ok(popped)
    }

    /// Serialize the engine's dynamic state: clock cursor, delivery
    /// count, liveness-window progress, and every pending event in
    /// delivery order.
    ///
    /// Saving reads the wheel and leaves it alone: events of one instant
    /// share a bucket in schedule order, so a stable sort by time over the
    /// bucket lists yields the `(time, seq)` delivery order. A run that
    /// snapshots and *continues* is therefore the run that never
    /// snapshotted — same delivery, same `engine;wheel;*` op counts —
    /// and every outstanding [`EventHandle`] still names its event after
    /// the save (pinned by the `snapshot_*` tests below). A restored
    /// engine issues new handles; [`Engine::for_each_pending`] recovers
    /// them.
    pub fn snapshot_save(&self, w: &mut SnapWriter)
    where
        E: SnapValue,
    {
        w.put_u64(self.wheel.cursor());
        w.put_u64(self.processed);
        match &self.liveness {
            Some(liv) => {
                w.put_u8(1);
                w.put_u64(liv.window_start.as_nanos());
                w.put_u64(liv.window_events);
            }
            None => w.put_u8(0),
        }
        let mut pending: Vec<(u64, &E)> = Vec::with_capacity(self.wheel.len());
        self.wheel.for_each(|_, t, p| pending.push((t, p)));
        pending.sort_by_key(|&(t, _)| t);
        w.put_u64(pending.len() as u64);
        for (t, p) in pending {
            w.put_u64(t);
            p.put(w);
        }
    }

    /// Overwrite this engine's dynamic state from a snapshot written by
    /// [`Engine::snapshot_save`]. Any events already queued (a freshly
    /// constructed world schedules its initial events) are discarded —
    /// the snapshot's queue replaces them wholesale, under new handles,
    /// and the re-inserts are not counted: a restored engine profiles
    /// from zero. Liveness *progress* is restored only when the monitor
    /// is armed; its budget and window are configuration and stay as
    /// [`Engine::set_liveness`] set them.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>
    where
        E: SnapValue,
    {
        let cursor = r.get_u64()?;
        self.processed = r.get_u64()?;
        let liveness_saved = match r.get_u8()? {
            0 => None,
            1 => {
                let window_start = SimTime::from_nanos(r.get_u64()?);
                let window_events = r.get_u64()?;
                Some((window_start, window_events))
            }
            _ => return Err(SnapError::Corrupt("liveness tag")),
        };
        if let (Some(liv), Some((start, events))) = (&mut self.liveness, liveness_saved) {
            liv.window_start = start;
            liv.window_events = events;
        }
        let n = r.get_len()?;
        let mut fresh = TimerWheel::new();
        fresh.advance(cursor);
        let mut last = cursor;
        for _ in 0..n {
            let t = r.get_u64()?;
            if t < last {
                return Err(SnapError::Corrupt("event order"));
            }
            last = t;
            fresh.insert(t, E::thaw(r)?);
        }
        fresh.reset_op_counts();
        self.wheel = fresh;
        Ok(())
    }

    /// Visit every pending event with its handle and due time, in a fixed
    /// order that is not delivery order. After a restore this is how the
    /// caller recovers the handles of the events the snapshot queued.
    pub fn for_each_pending<'a>(&'a self, mut f: impl FnMut(EventHandle, SimTime, &'a E)) {
        self.wheel.for_each(|h, t, p| f(EventHandle::pack(h), SimTime::from_nanos(t), p));
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_min().map(SimTime::from_nanos)
    }

    /// Advance the clock to `at` without delivering anything. Used at the
    /// end of a run to account for trailing idle time. Panics when moving
    /// backwards or past a pending event.
    pub fn fast_forward(&mut self, at: SimTime) {
        assert!(at >= self.now(), "cannot move the clock backwards");
        if let Some(next) = self.peek_time() {
            assert!(at <= next, "fast_forward would skip a pending event at {next:?}");
        }
        self.wheel.advance(at.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Ev {
        A(u32),
    }

    #[test]
    fn profiler_counts_pops_and_wheel_ops_without_perturbing() {
        use domino_obs::{ProfHandle, TraceHandle};
        let drive = |prof: ProfHandle| {
            let mut e = Engine::new();
            e.set_probe(Probe::new(TraceHandle::off(), prof));
            for i in 0..10u64 {
                // Spread across wheel levels so cascades happen.
                e.schedule_at(SimTime::from_nanos(i * 1000), Ev::A(i as u32));
            }
            let h = e.schedule_at(SimTime::from_nanos(70), Ev::A(99));
            assert!(e.cancel(h));
            let mut order = Vec::new();
            while let Some((t, Ev::A(i))) = e.pop() {
                order.push((t.as_nanos(), i));
            }
            e.profile_wheel();
            order
        };
        let plain = drive(ProfHandle::off());
        let (on, prof) = ProfHandle::collecting();
        let profiled = drive(on);
        assert_eq!(plain, profiled, "profiling must not change delivery");
        let snap = prof.snapshot();
        assert_eq!(snap.get(CostPath::EnginePop), 10);
        assert_eq!(snap.get(CostPath::WheelInsert), 11);
        assert_eq!(snap.get(CostPath::WheelCancel), 1);
        assert!(snap.get(CostPath::WheelCascade) > 0, "multi-level schedule must cascade");
    }

    #[test]
    fn delivers_in_time_order() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(30), Ev::A(3));
        e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.schedule_at(SimTime::from_micros(20), Ev::A(2));
        let order: Vec<u32> = std::iter::from_fn(|| e.pop())
            .map(|(_, Ev::A(n))| n)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_micros(30));
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    fn ties_are_fifo() {
        let mut e = Engine::new();
        let t = SimTime::from_micros(5);
        for n in 0..10 {
            e.schedule_at(t, Ev::A(n));
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop())
            .map(|(_, Ev::A(n))| n)
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.schedule_at(SimTime::from_micros(100), Ev::A(2));
        assert!(e.pop_until(SimTime::from_micros(50)).is_some());
        assert!(e.pop_until(SimTime::from_micros(50)).is_none());
        // Clock did not advance past the horizon check.
        assert_eq!(e.now(), SimTime::from_micros(10));
        assert!(e.pop().is_some());
    }

    #[test]
    fn cancellation() {
        let mut e = Engine::new();
        let h1 = e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.schedule_at(SimTime::from_micros(20), Ev::A(2));
        assert!(e.cancel(h1));
        assert!(!e.cancel(h1), "double-cancel reports false");
        let (_, ev) = e.pop().unwrap();
        assert_eq!(ev, Ev::A(2));
        assert!(e.pop().is_none());
        assert_eq!(e.events_processed(), 1);
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut e: Engine<Ev> = Engine::new();
        assert!(!e.cancel(EventHandle(999)));
    }

    #[test]
    fn cancel_after_delivery_returns_false() {
        let mut e = Engine::new();
        let h = e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        assert!(e.pop().is_some());
        assert!(!e.cancel(h), "delivered events are not cancellable");
        assert_eq!(e.pending(), 0, "a late cancel must not corrupt pending()");
    }

    #[test]
    fn stale_handle_never_aliases_reused_storage() {
        let mut e = Engine::new();
        let h1 = e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        assert!(e.cancel(h1));
        // The replacement event reuses h1's storage slot.
        let h2 = e.schedule_at(SimTime::from_micros(20), Ev::A(2));
        assert_ne!(h1, h2);
        assert!(!e.cancel(h1), "stale handle must miss the reused slot");
        assert_eq!(e.pending(), 1);
        assert!(e.cancel(h2));
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut e = Engine::new();
        let h = e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.schedule_at(SimTime::from_micros(20), Ev::A(2));
        assert_eq!(e.pending(), 2);
        e.cancel(h);
        assert_eq!(e.pending(), 1);
        assert!(!e.is_idle());
        e.pop();
        assert!(e.is_idle());
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.pop();
        e.schedule_in(SimDuration::from_micros(5), Ev::A(2));
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.pop();
        e.schedule_at(SimTime::from_micros(5), Ev::A(2));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut e = Engine::new();
        let h = e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.schedule_at(SimTime::from_micros(20), Ev::A(2));
        e.cancel(h);
        assert_eq!(e.peek_time(), Some(SimTime::from_micros(20)));
    }

    #[test]
    fn fast_forward_advances_clock() {
        let mut e: Engine<Ev> = Engine::new();
        e.fast_forward(SimTime::from_secs(50));
        assert_eq!(e.now(), SimTime::from_secs(50));
    }

    #[test]
    #[should_panic(expected = "skip a pending event")]
    fn fast_forward_cannot_skip_events() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.fast_forward(SimTime::from_micros(20));
    }

    #[test]
    fn fast_forward_to_pending_event_keeps_it_deliverable() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.schedule_at(SimTime::from_micros(10), Ev::A(2));
        e.fast_forward(SimTime::from_micros(10));
        assert_eq!(e.pop(), Some((SimTime::from_micros(10), Ev::A(1))));
        assert_eq!(e.pop(), Some((SimTime::from_micros(10), Ev::A(2))));
    }

    #[test]
    fn liveness_catches_zero_time_spin() {
        let mut e = Engine::new();
        e.set_liveness(100, SimDuration::from_millis(1));
        e.schedule_at(SimTime::from_micros(10), Ev::A(0));
        let horizon = SimTime::from_secs(1);
        let err = loop {
            match e.pop_until_checked(horizon) {
                Ok(Some((_, Ev::A(n)))) => {
                    // A self-perpetuating same-instant event: never advances.
                    e.schedule_now(Ev::A(n + 1));
                }
                Ok(None) => panic!("spin should not drain"),
                Err(lv) => break lv,
            }
        };
        assert_eq!(err.at, SimTime::from_micros(10));
        assert_eq!(err.budget, 100);
        assert!(err.events_in_window > err.budget);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn liveness_stays_quiet_when_time_advances() {
        let mut e = Engine::new();
        e.set_liveness(10, SimDuration::from_micros(100));
        e.schedule_at(SimTime::ZERO, Ev::A(0));
        let horizon = SimTime::from_secs(1);
        let mut count = 0u32;
        while let Some((_, Ev::A(n))) =
            e.pop_until_checked(horizon).expect("progressing run is live")
        {
            count += 1;
            if n < 5_000 {
                // Sparse enough that each window sees few events.
                e.schedule_in(SimDuration::from_micros(50), Ev::A(n + 1));
            }
        }
        assert_eq!(count, 5_001);
    }

    impl crate::snapshot::SnapValue for Ev {
        fn put(&self, w: &mut SnapWriter) {
            let Ev::A(n) = self;
            w.put_u32(*n);
        }
        fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Ev::A(r.get_u32()?))
        }
    }

    /// A queue with ties and out-of-order inserts, half delivered.
    fn half_run_engine() -> Engine<Ev> {
        let mut e = Engine::new();
        for n in [30u32, 10, 20, 10, 50, 20, 40, 10] {
            e.schedule_at(SimTime::from_micros(u64::from(n)), Ev::A(n));
        }
        for _ in 0..3 {
            e.pop();
        }
        e
    }

    fn drain(e: &mut Engine<Ev>) -> Vec<(SimTime, Ev)> {
        std::iter::from_fn(|| e.pop()).collect()
    }

    #[test]
    fn snapshot_preserves_delivery() {
        // Saving and *continuing* must not change delivery order, nor the
        // wheel's op counters the profiler reports.
        let mut plain = half_run_engine();
        let mut saved = half_run_engine();
        let mut w = SnapWriter::new();
        saved.snapshot_save(&mut w);
        assert_eq!(drain(&mut saved), drain(&mut plain));
        assert_eq!(saved.now(), plain.now());
        assert_eq!(saved.events_processed(), plain.events_processed());
        assert_eq!(saved.wheel.op_counts(), plain.wheel.op_counts());
    }

    #[test]
    fn snapshot_restores_into_fresh_engine() {
        let mut plain = half_run_engine();
        let saved = half_run_engine();
        let mut w = SnapWriter::new();
        saved.snapshot_save(&mut w);
        let bytes = w.into_bytes();

        // The restoring engine starts with unrelated queued events; the
        // snapshot replaces them wholesale.
        let mut restored: Engine<Ev> = Engine::new();
        restored.schedule_at(SimTime::from_micros(1), Ev::A(999));
        let mut r = SnapReader::new(&bytes);
        restored.snapshot_restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.now(), plain.now());
        assert_eq!(restored.events_processed(), plain.events_processed());
        assert_eq!(drain(&mut restored), drain(&mut plain));
    }

    #[test]
    fn handles_survive_a_save() {
        // B is scheduled first but due last: a save that rebuilt the wheel
        // would renumber the arena and let B's handle name A.
        let mut e = Engine::new();
        let b = e.schedule_at(SimTime::from_nanos(20), Ev::A(2));
        e.schedule_at(SimTime::from_nanos(10), Ev::A(1));
        e.snapshot_save(&mut SnapWriter::new());
        assert!(e.cancel(b), "the handle must still name B");
        assert_eq!(e.pop(), Some((SimTime::from_nanos(10), Ev::A(1))));
        assert_eq!(e.pop(), None, "B was cancelled");
    }

    #[test]
    fn restored_engine_hands_out_handles_of_its_events() {
        let mut saved = half_run_engine();
        let mut w = SnapWriter::new();
        saved.snapshot_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored: Engine<Ev> = Engine::new();
        restored.snapshot_restore(&mut SnapReader::new(&bytes)).unwrap();
        let mut visited = Vec::new();
        restored.for_each_pending(|h, t, ev| visited.push((h, t, ev.clone())));
        let mut expect: Vec<(SimTime, Ev)> = drain(&mut saved);
        let mut got: Vec<(SimTime, Ev)> =
            visited.iter().map(|(_, t, ev)| (*t, ev.clone())).collect();
        expect.sort_by_key(|(t, Ev::A(n))| (*t, *n));
        got.sort_by_key(|(t, Ev::A(n))| (*t, *n));
        assert_eq!(got, expect, "every pending event is visited once");
        for (h, _, _) in visited {
            assert!(restored.cancel(h), "a visited handle names a pending event");
        }
        assert!(restored.is_idle());
    }

    #[test]
    fn snapshot_restore_rejects_corrupt_order() {
        let saved = half_run_engine();
        let mut w = SnapWriter::new();
        saved.snapshot_save(&mut w);
        let mut bytes = w.into_bytes();
        // The event list starts after cursor(8) + processed(8) + liveness
        // tag(1) + count(8); swap the first event's time to zero to break
        // the nondecreasing-order invariant.
        bytes[25..33].copy_from_slice(&0u64.to_le_bytes());
        let mut fresh: Engine<Ev> = Engine::new();
        let err = fresh.snapshot_restore(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapError::Corrupt("event order"));
    }

    #[test]
    fn snapshot_roundtrips_liveness_progress() {
        let mut e: Engine<Ev> = Engine::new();
        // Window of 5 µs: the pop at 10 µs rolls the window to 10 µs.
        e.set_liveness(1000, SimDuration::from_micros(5));
        e.schedule_at(SimTime::from_micros(10), Ev::A(1));
        e.schedule_at(SimTime::from_micros(11), Ev::A(2));
        let _ = e.pop_until_checked(SimTime::MAX);
        let mut w = SnapWriter::new();
        e.snapshot_save(&mut w);
        let bytes = w.into_bytes();
        let mut back: Engine<Ev> = Engine::new();
        back.set_liveness(1000, SimDuration::from_micros(5));
        back.snapshot_restore(&mut SnapReader::new(&bytes)).unwrap();
        let liv = back.liveness.unwrap();
        assert_eq!(liv.window_start, SimTime::from_micros(10));
        assert_eq!(liv.window_events, 1);
        assert_eq!(back.pending(), 1);
    }

    #[test]
    fn unarmed_checked_pop_is_plain_pop_until() {
        let mut e = Engine::new();
        for n in 0..10_000 {
            e.schedule_at(SimTime::from_nanos(5), Ev::A(n));
        }
        let horizon = SimTime::from_secs(1);
        let mut seen = 0;
        while let Ok(Some(_)) = e.pop_until_checked(horizon) {
            seen += 1;
        }
        assert_eq!(seen, 10_000);
    }
}
