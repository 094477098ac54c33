//! Differential oracle harness for the timer-wheel engine.
//!
//! The wheel in `crates/sim/src/wheel.rs` replaced the original binary-heap
//! queue; the heap survives as [`ReferenceQueue`], whose `(time, seq)`
//! min-order *is* the delivery specification. The property here drives
//! arbitrary interleaved schedule / same-instant burst / cancel / pop /
//! `pop_until` / peek / `fast_forward` sequences against both queues in
//! lockstep and asserts identical `(time, payload)` streams (payloads are
//! schedule-ordinal, so a stream match pins the seq tie-break too), plus
//! identical clocks, pending counts, and idle flags after every operation.
//!
//! Also here: two stress shapes for the engine — a 350k-event same-instant
//! cascade that keeps FIFO order under a budget of its own and trips the
//! default liveness budget, and a long cancellation churn with bounded
//! arena memory (the wheel free-lists slots instead of accumulating
//! tombstones).

use domino_sim::engine::{Livelock, DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW};
use domino_sim::oracle::RefHandle;
use domino_sim::{Engine, EventHandle, ReferenceQueue, SimDuration, SimTime};
use domino_testkit::prop;

/// Delay shapes spanning every wheel level: same-instant, level-0
/// neighbours, the level-0/1 and 1/2 boundaries, protocol-scale (9 µs slot,
/// 1 ms window), and far-future (level 5+ cascades).
const DELAYS: [u64; 8] = [0, 1, 63, 64, 4_095, 9_000, 1_000_000, 1 << 34];

/// One lockstep run of the wheel engine against the heap oracle.
fn drive(g: &mut prop::Gen) {
    let mut wheel: Engine<u32> = Engine::new();
    let mut oracle: ReferenceQueue<u32> = ReferenceQueue::new();
    let mut handles: Vec<(EventHandle, RefHandle)> = Vec::new();
    let mut next_payload = 0u32;
    let ops = g.usize(1, 120);
    for _ in 0..ops {
        match g.usize(0, 9) {
            0..=3 => {
                // Schedule at a level-targeted offset from now.
                let base = *g.pick(&DELAYS);
                let jitter = g.u64(0, 64);
                let at = SimTime::from_nanos(wheel.now().as_nanos() + base + jitter);
                let p = next_payload;
                next_payload += 1;
                handles.push((wheel.schedule_at(at, p), oracle.schedule_at(at, p)));
            }
            4 => {
                // Same-instant burst: FIFO tie-break territory.
                let n = g.usize(1, 8);
                for _ in 0..n {
                    let p = next_payload;
                    next_payload += 1;
                    handles.push((wheel.schedule_now(p), oracle.schedule_now(p)));
                }
            }
            5 | 6 => {
                // Cancel an arbitrary recorded handle — possibly already
                // delivered, cancelled, or stale. The verdicts must agree.
                if !handles.is_empty() {
                    let i = g.usize(0, handles.len() - 1);
                    let (hw, ho) = handles[i];
                    assert_eq!(wheel.cancel(hw), oracle.cancel(ho), "cancel disagreement");
                }
            }
            7 => {
                assert_eq!(wheel.pop(), oracle.pop());
            }
            8 => {
                // Horizon-bounded pop, including past-horizon misses that
                // must leave both clocks untouched.
                let dt = g.u64(0, 2_000_000);
                let h = SimTime::from_nanos(wheel.now().as_nanos().saturating_add(dt));
                assert_eq!(wheel.pop_until(h), oracle.pop_until(h));
            }
            _ => {
                // Peek, then fast-forward somewhere legal (at most to the
                // next pending event), exercising delivery-free cascades.
                let pw = wheel.peek_time();
                assert_eq!(pw, oracle.peek_time());
                let dt = g.u64(0, 100_000);
                let mut target = wheel.now().as_nanos().saturating_add(dt);
                if let Some(p) = pw {
                    target = target.min(p.as_nanos());
                }
                wheel.fast_forward(SimTime::from_nanos(target));
                oracle.fast_forward(SimTime::from_nanos(target));
            }
        }
        assert_eq!(wheel.now(), oracle.now());
        assert_eq!(wheel.pending(), oracle.pending());
        assert_eq!(wheel.is_idle(), oracle.is_idle());
    }
    // Drain both queues: the complete remaining streams must agree.
    loop {
        let a = wheel.pop();
        assert_eq!(a, oracle.pop());
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.events_processed(), oracle.events_processed());
    assert!(wheel.is_idle() && oracle.is_idle());
}

#[test]
fn wheel_matches_heap_oracle() {
    prop::check("wheel matches (time, seq) heap order", drive);
}

/// Pinned choice sequences: the minimal interesting shapes, replayed
/// forever. (No shrunk counterexample has been found; if one ever is, its
/// `prop::replay` line from the failure message belongs here.)
#[test]
fn wheel_matches_heap_oracle_pins() {
    // Everything minimal: one op, all choices zero.
    prop::replay(&[], drive);
    // Far-future schedule (level-5 placement) then an unbounded pop: one
    // event cascading down the whole wheel.
    prop::replay(&[1, 0, 7, 0, 7], drive);
    // Maximal same-instant burst, then one pop; the drain checks the rest
    // of the FIFO order.
    prop::replay(&[1, 4, 7, 7], drive);
    // Schedule at now, cancel it, pop into the empty queue.
    prop::replay(&[2, 0, 0, 0, 5, 0, 7], drive);
}

/// Drive a self-perpetuating same-instant cascade of up to 350k events
/// under `budget`: returns how many were delivered, checking that they all
/// came at one instant in FIFO order, and the livelock if one tripped.
fn same_instant_cascade(budget: u64) -> (u32, Option<Livelock>) {
    let mut e: Engine<u32> = Engine::new();
    e.set_liveness(budget, DEFAULT_LIVENESS_WINDOW);
    let t = SimTime::from_millis(5);
    e.schedule_at(t, 0);
    let mut delivered = 0u32;
    let horizon = SimTime::from_secs(1);
    loop {
        match e.pop_until_checked(horizon) {
            Ok(Some((at, n))) => {
                assert_eq!(at, t, "cascade must stay at one instant");
                assert_eq!(n, delivered, "same-instant FIFO order broke");
                delivered += 1;
                if delivered < 350_000 {
                    e.schedule_now(delivered);
                }
            }
            Ok(None) => return (delivered, None),
            Err(lv) => return (delivered, Some(lv)),
        }
    }
}

/// A 350k-event cascade at one instant: under a budget that clears it, the
/// wheel delivers every event in FIFO order; the default budget, sized to
/// real runs (no legitimate window reaches a thousand events), trips on
/// the same spin instead.
#[test]
fn same_instant_cascade_350k_stress() {
    let (delivered, livelock) = same_instant_cascade(400_000);
    assert_eq!(livelock, None);
    assert_eq!(delivered, 350_000);
    let (delivered, livelock) = same_instant_cascade(DEFAULT_EVENT_BUDGET);
    let lv = livelock.expect("the default budget must trip on a 350k spin");
    assert_eq!(lv.budget, DEFAULT_EVENT_BUDGET);
    assert_eq!(lv.at, SimTime::from_millis(5));
    assert_eq!(u64::from(delivered), DEFAULT_EVENT_BUDGET);
}

/// Long-run schedule/cancel churn: 200k cycles must not grow the engine.
/// The retired heap kept every cancelled entry as a tombstone until its
/// timestamp drained; the wheel's free list caps the arena at the peak
/// number of *simultaneously* pending events — single digits here.
#[test]
fn cancellation_churn_memory_is_bounded() {
    let mut e: Engine<u64> = Engine::new();
    for round in 0..200_000u64 {
        // A far-future timer armed and immediately disarmed (the dominant
        // MAC pattern: ACK timeouts that almost always get cancelled).
        let h = e.schedule_at(SimTime::from_nanos(10_000_000 + round * 100), round);
        assert!(e.cancel(h));
        // Occasional real traffic so the clock moves while churning.
        if round % 1_000 == 0 {
            e.schedule_in(SimDuration::from_nanos(50), round);
            assert!(e.pop().is_some());
        }
    }
    assert!(e.is_idle());
    assert!(
        e.arena_slots() <= 8,
        "arena grew under churn: {} slots for ≤2 concurrent events",
        e.arena_slots()
    );
}
