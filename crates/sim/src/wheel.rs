//! A hierarchical timer wheel: the arrival scheduler behind the
//! simulated-client traffic frontend.
//!
//! The client driver needs to hold one pending arrival per simulated
//! client — 100k to 1M events — and repeatedly extract the earliest,
//! with O(1) amortized cost per event and **deterministic** extraction
//! order. A comparison heap would be O(log n) per op and 1M entries
//! deep; a calendar of fixed-width bins (the same binning idiom as
//! [`BinState`](crate::bins::BinState) uses for the balls-into-bins
//! processes) makes both insert and pop O(1) amortized.
//!
//! Two levels of 256 slots each cover `256 · slot_ns` and
//! `256² · slot_ns` of virtual time; events beyond that horizon wait in
//! an overflow list and cascade inward as the cursor advances.
//!
//! Delivery has one ordering step, shared by [`TimerWheel::pop`] and
//! [`TimerWheel::peek_at`]: when the run of events awaiting delivery is
//! exhausted, advance the cursor to the next occupied slot, sort that
//! slot by `(virtual time, insertion sequence)` and move it, whole, into
//! the run. The key is unique, so the (unstable, in-place) sort has one
//! possible outcome and the pop order is a pure function of the
//! scheduled times and the order of the calls — independent of
//! wall-clock execution speed. That property is what makes a fixed-seed
//! client run replay bit-identically. An event scheduled into a slot
//! whose run is already out for delivery waits for the next run, so a
//! peek *commits* the wheel to the slot it looked at: it never changes
//! what the next pop returns, and the pop order is the un-peeked one as
//! long as nothing is scheduled between a peek and the pop that follows
//! it — the driver's `pop, schedule, peek, pop, …` pattern.
//!
//! Times are virtual nanoseconds since the run began (`u64`). The wheel
//! never blocks: pacing against the wall clock is the caller's job.

/// Slots per level. 256 keeps both level arrays cache-friendly and the
/// cascade scans trivially bounded.
const SLOTS: usize = 256;

#[derive(Debug)]
struct Entry<T> {
    /// Scheduled virtual time in nanoseconds (the *intended* time, kept
    /// even when the event is scheduled late).
    at: u64,
    /// Insertion sequence number: the deterministic tie-breaker.
    seq: u64,
    item: T,
}

/// A two-level timer wheel over virtual-nanosecond timestamps.
///
/// See the [module docs](self) for the design; the API is a plain
/// priority queue specialized for monotonically advancing time:
/// [`schedule`](TimerWheel::schedule) an event at an absolute virtual
/// time, [`pop`](TimerWheel::pop) the earliest. Events scheduled in the
/// past (an overloaded client falling behind) are delivered as soon as
/// possible while keeping their original timestamp.
#[derive(Debug)]
pub struct TimerWheel<T> {
    slot_ns: u64,
    /// `log2(slot_ns)` when the slot width is a power of two (the
    /// driver's is), so a timestamp maps to its slot with a shift.
    slot_shift: Option<u32>,
    /// Level 0: slot `abs % SLOTS` holds events whose absolute slot
    /// `abs` satisfies `abs - cur < SLOTS`.
    l0: Vec<Vec<Entry<T>>>,
    l0_len: usize,
    /// Level 1: slot `(abs / SLOTS) % SLOTS` holds events whose chunk
    /// `abs / SLOTS` is within `SLOTS` chunks of the cursor's.
    l1: Vec<Vec<Entry<T>>>,
    l1_len: usize,
    /// Events beyond the level-1 horizon.
    overflow: Vec<Entry<T>>,
    /// Current absolute slot: no un-popped event maps below it.
    cur: u64,
    /// Next insertion sequence number.
    seq: u64,
    /// Total events held (all levels plus the ready run).
    len: usize,
    /// The current slot's drained events, sorted, awaiting delivery.
    ready: std::collections::VecDeque<(u64, T)>,
}

impl<T> TimerWheel<T> {
    /// A wheel whose level-0 slots are `slot_ns` wide.
    ///
    /// The slot width is the scheduling granularity *within* which
    /// events are ordered by exact timestamp anyway, so it only trades
    /// memory locality against cascade frequency; ~65 µs (the driver's
    /// default) covers 16.7 ms at level 0 and 4.3 s at level 1.
    ///
    /// # Panics
    /// If `slot_ns` is zero.
    pub fn new(slot_ns: u64) -> Self {
        assert!(slot_ns > 0, "slot width must be positive");
        TimerWheel {
            slot_ns,
            slot_shift: slot_ns.is_power_of_two().then(|| slot_ns.trailing_zeros()),
            l0: (0..SLOTS).map(|_| Vec::new()).collect(),
            l0_len: 0,
            l1: (0..SLOTS).map(|_| Vec::new()).collect(),
            l1_len: 0,
            overflow: Vec::new(),
            cur: 0,
            seq: 0,
            len: 0,
            ready: std::collections::VecDeque::new(),
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at virtual time `at_ns`. Times at or before the
    /// cursor are delivered as soon as possible, timestamp preserved.
    pub fn schedule(&mut self, at_ns: u64, item: T) {
        let entry = Entry {
            at: at_ns,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        self.len += 1;
        self.place(entry);
    }

    /// The absolute slot a timestamp falls in.
    #[inline]
    fn slot_of(&self, at_ns: u64) -> u64 {
        match self.slot_shift {
            Some(shift) => at_ns >> shift,
            None => at_ns / self.slot_ns,
        }
    }

    fn place(&mut self, entry: Entry<T>) {
        let abs = self.slot_of(entry.at).max(self.cur);
        if abs - self.cur < SLOTS as u64 {
            self.l0[(abs % SLOTS as u64) as usize].push(entry);
            self.l0_len += 1;
        } else if abs / SLOTS as u64 - self.cur / SLOTS as u64 <= SLOTS as u64 {
            self.l1[((abs / SLOTS as u64) % SLOTS as u64) as usize].push(entry);
            self.l1_len += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Extracts the earliest pending event as `(intended_ns, item)`.
    ///
    /// Ties (same slot, same timestamp) break by insertion order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.refill();
        let next = self.ready.pop_front()?;
        self.len -= 1;
        Some(next)
    }

    /// The intended time of the event the next [`pop`](Self::pop) will
    /// return, without extracting it.
    pub fn peek_at(&mut self) -> Option<u64> {
        self.refill();
        self.ready.front().map(|&(at, _)| at)
    }

    /// The ordering step: if the ready run is exhausted and anything is
    /// pending, advances to the next occupied slot (never past one),
    /// sorts it and moves it into the run.
    fn refill(&mut self) {
        if !self.ready.is_empty() || self.len == 0 {
            return;
        }
        let slot = loop {
            let slot = (self.cur % SLOTS as u64) as usize;
            if !self.l0[slot].is_empty() {
                break slot;
            }
            self.advance();
        };
        // `(at, seq)` is unique, so the unstable sort is deterministic.
        self.l0[slot].sort_unstable_by_key(|e| (e.at, e.seq));
        self.l0_len -= self.l0[slot].len();
        // Drain in place: the slot Vec keeps its capacity, so the
        // steady pop/reschedule cycle never reallocates.
        let TimerWheel { l0, ready, .. } = self;
        ready.extend(l0[slot].drain(..).map(|e| (e.at, e.item)));
    }

    /// Events whose intended time is at or before `now_ns` but not yet
    /// popped — the arrival backlog. Exact, and O(slots) rather than
    /// O(events held): a slot wholly before `now_ns` contributes its
    /// length, and only the slots that can hold both due and undue
    /// events are scanned — the one containing `now_ns` (likewise the
    /// level-1 chunk containing it), the cursor's slot (late events
    /// keep their original timestamp there) and the overflow list.
    pub fn due_len(&self, now_ns: u64) -> usize {
        let due = |slot: &Vec<Entry<T>>| slot.iter().filter(|e| e.at <= now_ns).count();
        let now_slot = self.slot_of(now_ns);
        // Level 0 holds absolute slots `cur .. cur + SLOTS`, the one at
        // offset `d` from the cursor in `l0[(cur + d) % SLOTS]`. Events
        // sit in the slot of their own timestamp, except late ones,
        // which `place` puts in the cursor's slot — and the cursor
        // leaves a slot only once it is empty.
        let l0_at = |d: u64| &self.l0[((self.cur % SLOTS as u64 + d) % SLOTS as u64) as usize];
        let in_l0 = match now_slot.checked_sub(self.cur) {
            None => due(l0_at(0)),
            Some(d) => {
                let whole: usize = (0..d.min(SLOTS as u64)).map(|d| l0_at(d).len()).sum();
                whole + if d < SLOTS as u64 { due(l0_at(d)) } else { 0 }
            }
        };
        // Level 1 holds chunks `cur_chunk + 1 ..= cur_chunk + SLOTS`
        // (`place` sends nearer events to level 0, `cascade` empties the
        // cursor's chunk), never late ones.
        let cur_chunk = self.cur / SLOTS as u64;
        let l1_at = |d: u64| &self.l1[((cur_chunk + d) % SLOTS as u64) as usize];
        let in_l1 = match (now_slot / SLOTS as u64).checked_sub(cur_chunk) {
            None | Some(0) => 0,
            Some(d) => {
                let whole: usize = (1..d.min(SLOTS as u64 + 1)).map(|d| l1_at(d).len()).sum();
                whole + if d <= SLOTS as u64 { due(l1_at(d)) } else { 0 }
            }
        };
        // `ready` is one drained slot, sorted by timestamp.
        let in_ready = self.ready.partition_point(|&(at, _)| at <= now_ns);
        in_ready + in_l0 + in_l1 + due(&self.overflow)
    }

    /// Moves the cursor forward one step (or jumps over a known-empty
    /// region), cascading outer levels inward at chunk boundaries.
    fn advance(&mut self) {
        if self.l0_len > 0 {
            self.cur += 1;
            if self.cur.is_multiple_of(SLOTS as u64) {
                self.cascade();
            }
            return;
        }
        // Level 0 is empty: jump straight to the earliest chunk that
        // holds anything, in level 1 or overflow.
        let cur_chunk = self.cur / SLOTS as u64;
        let mut best = u64::MAX;
        for (i, v) in self.l1.iter().enumerate() {
            if v.is_empty() {
                continue;
            }
            // The unique chunk > cur_chunk congruent to i mod SLOTS.
            let base = cur_chunk + 1;
            let c = base + (i as u64 + SLOTS as u64 - base % SLOTS as u64) % SLOTS as u64;
            best = best.min(c);
        }
        for e in &self.overflow {
            best = best.min(self.slot_of(e.at) / SLOTS as u64);
        }
        debug_assert!(best != u64::MAX, "advance() called on an empty wheel");
        self.cur = best * SLOTS as u64;
        self.cascade();
    }

    /// Promotes the cursor's chunk from level 1 into level 0 and pulls
    /// newly in-horizon overflow events into the levels.
    fn cascade(&mut self) {
        let chunk_slot = ((self.cur / SLOTS as u64) % SLOTS as u64) as usize;
        let batch = std::mem::take(&mut self.l1[chunk_slot]);
        self.l1_len -= batch.len();
        for e in batch {
            self.place(e);
        }
        if !self.overflow.is_empty() {
            let cur_chunk = self.cur / SLOTS as u64;
            let mut i = 0;
            while i < self.overflow.len() {
                let chunk = self.slot_of(self.overflow[i].at) / SLOTS as u64;
                if chunk.saturating_sub(cur_chunk) <= SLOTS as u64 {
                    let e = self.overflow.swap_remove(i);
                    self.place(e);
                } else {
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn pops_in_time_order_across_slots() {
        let mut w = TimerWheel::new(1_000);
        for (at, id) in [(5_000u64, 0u32), (1_500, 1), (900_000, 2), (250, 3)] {
            w.schedule(at, id);
        }
        assert_eq!(w.len(), 4);
        let got = drain(&mut w);
        assert_eq!(got, vec![(250, 3), (1_500, 1), (5_000, 0), (900_000, 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_slot_orders_by_time_then_insertion() {
        let mut w = TimerWheel::new(1_000_000);
        // All three land in slot 0; 7 and 8 share a timestamp.
        w.schedule(900, 7);
        w.schedule(100, 9);
        w.schedule(900, 8);
        assert_eq!(drain(&mut w), vec![(100, 9), (900, 7), (900, 8)]);
    }

    #[test]
    fn late_events_deliver_immediately_with_original_timestamp() {
        let mut w = TimerWheel::new(1_000);
        w.schedule(500_000, 1);
        assert_eq!(w.pop(), Some((500_000, 1)));
        // The cursor sits at 500µs now; a "past" event still comes out,
        // stamped with its intended (overdue) time.
        w.schedule(10, 2);
        w.schedule(600_000, 3);
        assert_eq!(drain(&mut w), vec![(10, 2), (600_000, 3)]);
    }

    #[test]
    fn cascades_through_level_one_and_overflow() {
        let slot = 1_000u64;
        let l0_span = slot * SLOTS as u64; //      256 µs
        let l1_span = l0_span * SLOTS as u64; // 65.536 ms
        let mut w = TimerWheel::new(slot);
        let times = [
            l1_span * 3 + 17,  // deep overflow
            l0_span * 5 + 123, // level 1
            l1_span + 999,     // level 1 horizon edge
            42,                // level 0
            l1_span * 9,       // deeper overflow
        ];
        for (i, &t) in times.iter().enumerate() {
            w.schedule(t, i as u32);
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // The client-driver usage pattern: pop one, reschedule it later.
        let mut w = TimerWheel::new(4_096);
        for c in 0..100u32 {
            w.schedule(c as u64 * 1_000, c);
        }
        let mut last = 0u64;
        let mut popped = 0usize;
        for round in 0..1_000 {
            let (at, c) = w.pop().expect("non-empty");
            assert!(at >= last, "round {round}: {at} after {last}");
            last = at;
            popped += 1;
            w.schedule(at + 37_000 + (c as u64 % 7) * 9_100, c);
        }
        assert_eq!(popped, 1_000);
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn identical_schedules_pop_identically() {
        // Bit-identical pop order is what makes fixed-seed client runs
        // reproducible; build the same schedule twice and compare.
        let build = || {
            let mut w = TimerWheel::new(65_536);
            let mut x = 0x9e3779b97f4a7c15u64;
            for c in 0..10_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                w.schedule(x % 200_000_000, c);
            }
            w
        };
        let (mut a, mut b) = (build(), build());
        loop {
            match (a.pop(), b.pop()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn len_and_due_len_bookkeeping() {
        let mut w = TimerWheel::new(1_000);
        assert_eq!(w.due_len(u64::MAX), 0);
        for i in 0..50u32 {
            w.schedule(i as u64 * 10_000, i);
        }
        assert_eq!(w.len(), 50);
        assert_eq!(w.due_len(99_999), 10); // events at 0..=90_000
        assert_eq!(w.due_len(u64::MAX), 50);
        for _ in 0..20 {
            w.pop();
        }
        assert_eq!(w.len(), 30);
        assert_eq!(w.due_len(u64::MAX), 30);
        assert_eq!(w.peek_at(), Some(200_000));
    }

    /// `due_len` by definition: walk every event held.
    fn due_len_brute(w: &TimerWheel<u32>, now_ns: u64) -> usize {
        let held = w.l0.iter().chain(w.l1.iter()).flatten();
        held.chain(w.overflow.iter())
            .map(|e| e.at)
            .chain(w.ready.iter().map(|&(at, _)| at))
            .filter(|&at| at <= now_ns)
            .count()
    }

    #[test]
    fn due_len_matches_the_brute_force_count() {
        let slot = 1_000u64;
        let l1_span = slot * (SLOTS * SLOTS) as u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rnd = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut w = TimerWheel::new(slot);
        // The clock the events are scheduled around: the last popped
        // timestamp, so "late" means behind the cursor.
        let mut now = 0u64;
        let (mut late, mut level1, mut overflow) = (0, 0, 0);
        for step in 0..4_000u32 {
            match rnd(10) {
                // Near future: level 0, often the cursor's own slot.
                0 | 1 => w.schedule(now + rnd(slot * 40), step),
                // Late: behind the cursor, timestamp kept.
                2 | 3 => {
                    late += (now > slot) as u32;
                    w.schedule(now.saturating_sub(rnd(slot * 300)), step);
                }
                // Level 1, up to its horizon.
                4 => {
                    level1 += 1;
                    w.schedule(now + slot * SLOTS as u64 + rnd(l1_span), step);
                }
                // Beyond the level-1 horizon.
                5 => {
                    overflow += 1;
                    w.schedule(now + l1_span + slot * SLOTS as u64 + rnd(l1_span * 3), step);
                }
                // Pops leave a part-drained `ready` run behind and move
                // the cursor (cascading the far events inward).
                _ => {
                    for _ in 0..rnd(5) {
                        if let Some((at, _)) = w.pop() {
                            now = now.max(at);
                        }
                    }
                }
            }
            let probes = [
                0,
                now,
                now + rnd(slot * 3),
                now.saturating_sub(rnd(slot * 3)),
                now + rnd(l1_span * 5),
                u64::MAX / 2,
                u64::MAX,
            ];
            for probe in probes {
                assert_eq!(
                    w.due_len(probe),
                    due_len_brute(&w, probe),
                    "step {step}, probe {probe}, cursor slot {}",
                    w.cur
                );
            }
            assert_eq!(w.due_len(u64::MAX), w.len());
        }
        assert!(late > 100 && level1 > 100 && overflow > 100);
        assert!(
            w.cur > (SLOTS * SLOTS) as u64,
            "the cursor should outrun the first level-1 horizon, got slot {}",
            w.cur
        );
    }

    #[test]
    fn a_peek_before_a_pop_changes_nothing_observable() {
        // Twin wheels fed one schedule/pop script; `peeked` is also
        // peeked, at random, ahead of its pops (where the driver peeks:
        // a peek commits to the slot it looked at, so a script that
        // scheduled between a peek and the next pop would be a
        // different script). Pop sequences and every `len`/`due_len`
        // probe must agree, at a division and at a shift slot width.
        for slot in [1_000u64, 1_024] {
            let l0_span = slot * SLOTS as u64;
            let l1_span = l0_span * SLOTS as u64;
            let mut x = 0x2545f4914f6cdd1du64 ^ slot;
            let mut rnd = move |bound: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % bound
            };
            let (mut plain, mut peeked) = (TimerWheel::new(slot), TimerWheel::new(slot));
            let mut now = 0u64;
            let (mut late, mut level1, mut overflow, mut peeks) = (0, 0, 0, 0);
            for step in 0..6_000u32 {
                let kind = rnd(10);
                let at = match kind {
                    0 | 1 => Some(now + rnd(slot * 40)),
                    2 | 3 => {
                        late += (now > slot) as u32;
                        Some(now.saturating_sub(rnd(slot * 300)))
                    }
                    4 => {
                        level1 += 1;
                        Some(now + l0_span + rnd(l1_span))
                    }
                    5 => {
                        overflow += 1;
                        Some(now + l1_span + l0_span + rnd(l1_span * 3))
                    }
                    _ => None,
                };
                if let Some(at) = at {
                    plain.schedule(at, step);
                    peeked.schedule(at, step);
                }
                let probes = [
                    0,
                    now,
                    now + rnd(slot * 3),
                    now + rnd(l1_span * 5),
                    u64::MAX,
                ];
                for _ in 0..at.map_or(rnd(5), |_| 0) {
                    let ahead = (rnd(2) == 0).then(|| {
                        peeks += 1;
                        let at = peeked.peek_at();
                        assert_eq!(peeked.peek_at(), at, "a second peek sees the same event");
                        for probe in probes {
                            assert_eq!(peeked.due_len(probe), plain.due_len(probe), "step {step}");
                        }
                        at
                    });
                    let got = peeked.pop();
                    assert_eq!(got, plain.pop(), "step {step}");
                    if let Some(at) = ahead {
                        assert_eq!(at, got.map(|e| e.0), "step {step}");
                    }
                    now = now.max(got.map_or(0, |e| e.0));
                }
                assert_eq!(peeked.len(), plain.len(), "step {step}");
                for probe in probes {
                    assert_eq!(peeked.due_len(probe), plain.due_len(probe), "step {step}");
                }
            }
            assert!(late > 100 && level1 > 100 && overflow > 100 && peeks > 1_000);
            assert!(
                plain.cur > (SLOTS * SLOTS) as u64,
                "cursor at {}",
                plain.cur
            );
            assert_eq!(drain(&mut peeked), drain(&mut plain));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slot_width_rejected() {
        let _ = TimerWheel::<u32>::new(0);
    }
}
