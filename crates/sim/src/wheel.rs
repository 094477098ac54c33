//! Hierarchical timer wheel: the event-queue core behind [`crate::engine::Engine`].
//!
//! Replaces the original `BinaryHeap<(time, seq)>` queue (preserved as the
//! differential-test oracle in [`crate::oracle`]) with a radix timing wheel:
//!
//! * **Geometry.** 11 levels × 64 slots. Level `L` buckets pending events by
//!   bits `[6L, 6L+6)` of their absolute nanosecond timestamp; 11 × 6 = 66
//!   bits covers the full `u64` clock, so there is no overflow list. An
//!   event lives at the *lowest* level at which its timestamp differs from
//!   the wheel cursor — equivalently `level = msb(t ^ cursor) / 6` — which
//!   means a level-0 bucket only ever holds events with one exact
//!   timestamp, and same-instant FIFO order is plain list order.
//! * **Placement invariant.** Every pending event sits in the bucket
//!   determined by `(its time, the current cursor)`. The cursor only moves
//!   forward when an event is delivered (or the clock is fast-forwarded),
//!   and it never passes a pending event, so re-bucketing ("cascading") is
//!   confined to the buckets that contain the new cursor time — at most one
//!   per level per advance, each event cascading at most 10 times over its
//!   whole life (amortized O(1)).
//! * **Determinism contract.** Delivery order is exactly the heap's
//!   `(time, seq)` total order. Two events with equal timestamps occupy the
//!   same bucket at every point in their lives (placement is a pure
//!   function of time and cursor), insertion appends at the tail, and
//!   cascades walk head→tail re-appending in order — so list order *is*
//!   schedule order. The differential suite in `crates/sim/tests/`
//!   pins this against the heap oracle.
//! * **Storage.** Entries live in a slab arena and link into their bucket
//!   through intrusive prev/next indices. Cancellation is O(1): a
//!   generation check, an unlink, and a push onto the internal free list —
//!   no tombstones anywhere, so memory is bounded by the peak number of
//!   simultaneously pending events regardless of churn.

/// Bits per wheel level (64 slots).
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; `LEVELS * SLOT_BITS >= 64` covers every `u64` instant.
const LEVELS: usize = 11;
/// Null index for intrusive links and the free list.
const NIL: u32 = u32::MAX;
/// `bucket` value marking an arena slot as free.
const FREE: u16 = u16::MAX;

/// One arena slot: either a pending event or a free-list node.
struct Node<E> {
    /// Absolute due time in nanoseconds.
    time: u64,
    /// Generation, bumped on every allocation *and* every release, so a
    /// slot's live generations are odd and any stale handle misses.
    gen: u32,
    /// Owning bucket (`level * SLOTS + slot`), or [`FREE`].
    bucket: u16,
    /// Previous node in the bucket list, or [`NIL`].
    prev: u32,
    /// Next node in the bucket list (doubles as the free-list link).
    next: u32,
    /// The event payload; `None` while the slot is free.
    payload: Option<E>,
}

/// Intrusive doubly-linked list head/tail for one bucket.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { head: NIL, tail: NIL };
}

/// A `(arena index, generation)` pair naming one scheduled event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct WheelHandle {
    pub(crate) index: u32,
    pub(crate) gen: u32,
}

/// The timer wheel. See the module docs for the design.
pub(crate) struct TimerWheel<E> {
    arena: Vec<Node<E>>,
    /// Head of the free list (linked through `Node::next`).
    free: u32,
    /// Per-level slot-occupancy bitmaps; bit `s` of `occ[L]` is set iff
    /// bucket `(L, s)` is non-empty.
    occ: [u64; LEVELS],
    buckets: Vec<Bucket>,
    /// Wheel position: no pending event is earlier than this instant.
    cursor: u64,
    /// Number of pending events.
    live: usize,
    /// Lifetime insert count (cost bookkeeping; never feeds behavior).
    inserts: u64,
    /// Lifetime successful-cancel count.
    cancels: u64,
    /// Lifetime count of nodes re-filed by level cascades — the wheel's
    /// amortized maintenance cost, surfaced through the profiler.
    cascaded: u64,
}

impl<E> TimerWheel<E> {
    /// An empty wheel with the cursor at time zero.
    pub(crate) fn new() -> TimerWheel<E> {
        TimerWheel {
            arena: Vec::new(),
            free: NIL,
            occ: [0; LEVELS],
            buckets: vec![Bucket::EMPTY; LEVELS * SLOTS],
            cursor: 0,
            live: 0,
            inserts: 0,
            cancels: 0,
            cascaded: 0,
        }
    }

    /// Lifetime `(inserts, cancels, cascaded nodes)` — exact counters the
    /// profiler attributes to `engine;wheel;*`.
    #[inline]
    pub(crate) fn op_counts(&self) -> (u64, u64, u64) {
        (self.inserts, self.cancels, self.cascaded)
    }

    /// Zero the lifetime op counters, so a wheel filled from a snapshot
    /// does not count its own re-inserts.
    pub(crate) fn reset_op_counts(&mut self) {
        self.inserts = 0;
        self.cancels = 0;
        self.cascaded = 0;
    }

    /// Current wheel position (nanoseconds).
    #[inline]
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Number of pending events.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Arena high-water mark: slots ever allocated. Bounded by the peak
    /// number of *simultaneously* pending events (free slots are reused),
    /// which the cancellation-churn stress test pins.
    #[inline]
    pub(crate) fn arena_slots(&self) -> usize {
        self.arena.len()
    }

    /// The bucket index for an event at `time` given the current cursor.
    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        let xor = time ^ self.cursor;
        if xor == 0 {
            // Same instant as the cursor: level 0, the cursor's own slot.
            return (self.cursor & (SLOTS as u64 - 1)) as usize;
        }
        let level = ((63 - xor.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        level * SLOTS + slot
    }

    /// Append node `idx` to bucket `bucket` (tail insertion keeps FIFO).
    fn push_bucket(&mut self, bucket: usize, idx: u32) {
        let tail = self.buckets[bucket].tail;
        self.arena[idx as usize].bucket = bucket as u16;
        self.arena[idx as usize].prev = tail;
        self.arena[idx as usize].next = NIL;
        if tail == NIL {
            self.buckets[bucket].head = idx;
            self.occ[bucket / SLOTS] |= 1u64 << (bucket % SLOTS);
        } else {
            self.arena[tail as usize].next = idx;
        }
        self.buckets[bucket].tail = idx;
    }

    /// Unlink node `idx` from its bucket, clearing the occupancy bit when
    /// the bucket empties. The node keeps its payload; the caller decides
    /// whether it is delivered or released.
    fn unlink(&mut self, idx: u32) {
        let (bucket, prev, next) = {
            let n = &self.arena[idx as usize];
            (n.bucket as usize, n.prev, n.next)
        };
        if prev == NIL {
            self.buckets[bucket].head = next;
        } else {
            self.arena[prev as usize].next = next;
        }
        if next == NIL {
            self.buckets[bucket].tail = prev;
        } else {
            self.arena[next as usize].prev = prev;
        }
        if self.buckets[bucket].head == NIL {
            self.occ[bucket / SLOTS] &= !(1u64 << (bucket % SLOTS));
        }
    }

    /// Return node `idx` to the free list and bump its generation so every
    /// outstanding handle to it goes stale.
    fn release(&mut self, idx: u32) {
        let n = &mut self.arena[idx as usize];
        n.gen = n.gen.wrapping_add(1);
        n.bucket = FREE;
        n.prev = NIL;
        n.payload = None;
        n.next = self.free;
        self.free = idx;
    }

    /// Schedule `payload` at absolute `time` (nanoseconds). The caller
    /// (the engine) guarantees `time >= cursor`.
    pub(crate) fn insert(&mut self, time: u64, payload: E) -> WheelHandle {
        debug_assert!(time >= self.cursor, "insert before the wheel cursor");
        let idx = if self.free != NIL {
            let idx = self.free;
            let n = &mut self.arena[idx as usize];
            self.free = n.next;
            n.time = time;
            n.gen = n.gen.wrapping_add(1);
            n.payload = Some(payload);
            idx
        } else {
            let idx = self.arena.len() as u32;
            self.arena.push(Node {
                time,
                gen: 1,
                bucket: FREE,
                prev: NIL,
                next: NIL,
                payload: Some(payload),
            });
            idx
        };
        let gen = self.arena[idx as usize].gen;
        let bucket = self.bucket_of(time);
        self.push_bucket(bucket, idx);
        self.live += 1;
        self.inserts = self.inserts.wrapping_add(1);
        WheelHandle { index: idx, gen }
    }

    /// Cancel the event named by `handle`. Returns `true` iff it was still
    /// pending; stale, delivered, foreign, and double-cancelled handles are
    /// all rejected by the generation check. O(1).
    pub(crate) fn cancel(&mut self, handle: WheelHandle) -> bool {
        let Some(node) = self.arena.get(handle.index as usize) else {
            return false;
        };
        if node.gen != handle.gen || node.bucket == FREE {
            return false;
        }
        self.unlink(handle.index);
        self.release(handle.index);
        self.live -= 1;
        self.cancels = self.cancels.wrapping_add(1);
        true
    }

    /// The first occupied bucket in delivery order: lowest level first,
    /// lowest slot within the level. By the placement invariant every
    /// occupied slot is at or after the cursor's slot on its level, and
    /// lower-level windows precede higher-level ones, so this bucket
    /// contains the globally earliest event.
    fn min_bucket(&self) -> Option<usize> {
        for level in 0..LEVELS {
            let word = self.occ[level];
            if word != 0 {
                let slot = word.trailing_zeros() as usize;
                debug_assert!(
                    slot as u64 >= (self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1),
                    "occupied slot behind the cursor"
                );
                return Some(level * SLOTS + slot);
            }
        }
        None
    }

    /// The earliest `(node index, time)` in `bucket`. For level-0 buckets
    /// every entry shares one timestamp, so the head is the answer; higher
    /// levels scan for the minimum time, first-in-list winning ties (list
    /// order is schedule order for equal times).
    fn min_in_bucket(&self, bucket: usize) -> (u32, u64) {
        let head = self.buckets[bucket].head;
        debug_assert!(head != NIL, "min_in_bucket on an empty bucket");
        if bucket < SLOTS {
            return (head, self.arena[head as usize].time);
        }
        let mut best = head;
        let mut best_time = self.arena[head as usize].time;
        let mut idx = self.arena[head as usize].next;
        while idx != NIL {
            let n = &self.arena[idx as usize];
            if n.time < best_time {
                best = idx;
                best_time = n.time;
            }
            idx = n.next;
        }
        (best, best_time)
    }

    /// Visit every pending event as `(handle, time, payload)` without
    /// disturbing the wheel, bucket by bucket in list order. Events of one
    /// instant share a bucket, so they come out in schedule order; the
    /// instants themselves are not sorted.
    pub(crate) fn for_each<'a>(&'a self, mut f: impl FnMut(WheelHandle, u64, &'a E)) {
        for bucket in &self.buckets {
            let mut idx = bucket.head;
            while idx != NIL {
                let n = &self.arena[idx as usize];
                if let Some(payload) = &n.payload {
                    f(WheelHandle { index: idx, gen: n.gen }, n.time, payload);
                }
                idx = n.next;
            }
        }
    }

    /// Earliest pending timestamp, if any. Read-only.
    pub(crate) fn peek_min(&self) -> Option<u64> {
        self.min_bucket().map(|b| self.min_in_bucket(b).1)
    }

    /// Deliver the earliest event if it is due at or before `horizon`.
    /// On delivery the cursor advances to the event's time and the buckets
    /// holding that instant cascade down. A horizon miss mutates nothing.
    ///
    /// Order of operations matters for cost: the cursor advances (and
    /// cascades) *before* the unlink, which drops the due event — and its
    /// whole near-time cluster — into level 0, where this and subsequent
    /// deliveries are O(1) head removals instead of repeated scans of a
    /// populated high-level bucket.
    pub(crate) fn pop_min_until(&mut self, horizon: u64) -> Option<(u64, E)> {
        let time = self.peek_min()?;
        if time > horizon {
            return None;
        }
        self.advance(time);
        // Post-cascade, the level-0 slot at the cursor holds exactly the
        // events due at `time`, in schedule order.
        let slot = (time & (SLOTS as u64 - 1)) as usize;
        let idx = self.buckets[slot].head;
        debug_assert!(idx != NIL, "min event missing from its level-0 slot");
        debug_assert_eq!(self.arena[idx as usize].time, time);
        self.unlink(idx);
        let payload = self.arena[idx as usize].payload.take();
        self.release(idx);
        self.live -= 1;
        payload.map(|p| (time, p))
    }

    /// Move the cursor to `to`, cascading every bucket whose window the
    /// cursor just entered. Requires that no pending event is earlier than
    /// `to` (delivery pops the minimum first; fast-forward asserts it).
    pub(crate) fn advance(&mut self, to: u64) {
        let from = self.cursor;
        debug_assert!(to >= from, "wheel cursor moved backwards");
        self.cursor = to;
        let xor = from ^ to;
        if xor < SLOTS as u64 {
            // Same level-0 window: no placement changes.
            return;
        }
        let top = ((63 - xor.leading_zeros()) / SLOT_BITS) as usize;
        // Top-down: a level-L cascade may refill the level-(L-1) bucket
        // that the next iteration then disperses further.
        for level in (1..=top.min(LEVELS - 1)).rev() {
            let slot = ((to >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            let bucket = level * SLOTS + slot;
            let mut idx = self.buckets[bucket].head;
            if idx == NIL {
                continue;
            }
            // Detach the whole list, then re-append head→tail so relative
            // order (and with it same-instant FIFO) is preserved.
            self.buckets[bucket] = Bucket::EMPTY;
            self.occ[level] &= !(1u64 << slot);
            while idx != NIL {
                let next = self.arena[idx as usize].next;
                let time = self.arena[idx as usize].time;
                debug_assert!(time >= to, "cascade found an event behind the cursor");
                let target = self.bucket_of(time);
                debug_assert!(target < bucket, "cascade must strictly descend");
                self.push_bucket(target, idx);
                self.cascaded = self.cascaded.wrapping_add(1);
                idx = next;
            }
        }
    }
}

impl<E> std::fmt::Debug for TimerWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("cursor", &self.cursor)
            .field("live", &self.live)
            .field("arena_slots", &self.arena.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // One event per level boundary, inserted shuffled.
        let times = [5u64, 63, 64, 4095, 4096, 1 << 20, 1 << 30, 1 << 40, 1 << 50, 3];
        for &t in times.iter().rev() {
            w.insert(t, t);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &expect in &sorted {
            assert_eq!(w.pop_min_until(u64::MAX), Some((expect, expect)));
        }
        assert_eq!(w.pop_min_until(u64::MAX), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_instant_is_fifo_through_cascades() {
        let mut w = TimerWheel::new();
        // All at one far-future instant: inserted at a high level, cascade
        // down together, must come out in insertion order.
        let t = (1 << 30) + 12345;
        for i in 0..100u32 {
            w.insert(t, i);
        }
        for i in 0..100u32 {
            assert_eq!(w.pop_min_until(u64::MAX), Some((t, i)));
        }
    }

    #[test]
    fn cancel_is_generation_checked() {
        let mut w = TimerWheel::new();
        let h1 = w.insert(100, 1u32);
        assert!(w.cancel(h1));
        assert!(!w.cancel(h1), "double cancel");
        let h2 = w.insert(100, 2u32);
        // h2 reuses h1's arena slot with a fresh generation.
        assert_eq!(h1.index, h2.index);
        assert_ne!(h1.gen, h2.gen);
        assert!(!w.cancel(h1), "stale handle must miss the reused slot");
        assert_eq!(w.pop_min_until(u64::MAX), Some((100, 2)));
        assert!(!w.cancel(h2), "delivered handle");
    }

    #[test]
    fn horizon_miss_mutates_nothing() {
        let mut w = TimerWheel::new();
        w.insert(1 << 20, 7u32);
        assert_eq!(w.pop_min_until(100), None);
        assert_eq!(w.cursor(), 0, "failed pop must not advance the cursor");
        assert_eq!(w.peek_min(), Some(1 << 20));
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut w = TimerWheel::new();
        for round in 0..1000u64 {
            let h = w.insert(1_000_000 + round, round);
            assert!(w.cancel(h));
        }
        assert_eq!(w.arena_slots(), 1, "churn must recycle one slot");
        assert_eq!(w.len(), 0);
    }
}
