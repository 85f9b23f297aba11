//! An array-backed 4-ary min-heap with FIFO tie-breaking, fronted by a
//! four-entry sorted buffer.
//!
//! `std::collections::BinaryHeap` is a max-heap without a stable ordering
//! for equal priorities, so we implement our own. Entries with equal
//! priorities are returned in insertion order, which the MultiQueue relies
//! on when priorities are coarse timestamps (two elements enqueued to the
//! same internal queue with the same timestamp must come out in enqueue
//! order for the queue-like sequential specification to make sense).
//!
//! # The front buffer
//!
//! The smallest entries — up to four — sit in a sorted buffer held
//! inline in the struct, beside the `Vec` header, in descending key
//! order so the minimum is the last occupied slot (the small deletion
//! buffer of Williams, Sanders & Dementiev, "Engineering MultiQueues",
//! ESA 2021). Keys are `(priority, insertion index)`, so they are
//! unique and the invariant is strict:
//!
//! * the buffer is sorted, and its maximum is below the heap root;
//! * the buffer is empty only when the heap is empty too.
//!
//! `delete_min` pops the buffer's last slot; when that empties the
//! buffer, it refills it with up to four heap pops in a row before
//! returning. `add` puts a key below the buffer's maximum (or any key,
//! into an empty buffer) into the buffer, evicting the maximum into the
//! heap when the buffer is full; every other key goes onto the heap.
//! `read_min` — which `LockedPq`'s release runs on every operation —
//! reads the buffer alone. So three of every four dequeues, and every
//! release, touch only the struct, never the heap array that other
//! cores keep writing. The size is fixed at four. Buffers of 8 and 16
//! won a little on shallow heaps and lost more on the cache-missing
//! deep-drain shape, where a refill holds the lock for all of its pops
//! (README, "Verdicts").
//!
//! # The layout and the descent
//!
//! Beneath the buffer the array is an implicit **4-ary** heap: the
//! children of `i` are `4i + 1 ..= 4i + 4` and its parent is
//! `(i - 1) / 4`, so a heap of 2,500 entries is about 6 levels deep
//! where a binary one is about 11. `ARITY` is a private constant, as
//! `BUFFER` is: there is no knob and no second layout.
//!
//! A refill's `sift_down` descends bottom-up, as
//! `std::collections::BinaryHeap::pop` does. It lifts the root out and
//! moves the hole to the smallest of its four children at every level,
//! without comparing the lifted entry, until the hole has no full group
//! of children below it; a partial last group (1–3 children, all
//! leaves) gives the hole its smallest member, and the lifted entry
//! then sifts up from where the hole stopped. The entry a refill lifts
//! is the array's old tail, which usually belongs near the bottom, so
//! the descent does not spend a comparison per level on it.
//! The smallest child comes from a two-round tournament, `min(c0, c1)`
//! and `min(c2, c3)` then the smaller of the two, with each index
//! picked by arithmetic on a comparison `as usize`, so a level costs no
//! unpredictable branch. That makes every load's address depend on the
//! comparison before it, so at each level the lines of the hole's 16
//! grandchildren — the next level's children, whichever child wins —
//! are prefetched two levels ahead of the hole. The prefetch is what
//! keeps a cache-missing descent from serialising its misses: without
//! it the branch-free descent lost `mq-deep-drain` by 36% (README,
//! "Verdicts").
//!
//! Both sifts move through a hole: the moving entry is lifted out of
//! the array once, each child (or parent) on its path moves into the gap
//! with a single write, and the entry goes back where the walk ends —
//! one write per level where a `Vec::swap` walk does two, and no bounds
//! check per level. The gap is a `Hole` guard, the device
//! `std::collections::BinaryHeap` uses: its `Drop` refills the gap. All
//! unchecked indexing, and the prefetch hint, live in that guard.
//!
//! # Panics in `P::cmp`
//!
//! A panicking comparison unwinds to a heap that still holds every
//! entry it held exactly once, except at most the one entry the
//! interrupted call had in hand (the value `add` was given or `delete_min` was
//! about to return), which is dropped. The *order* may be broken: the
//! `Hole` refills the array's gap, a refill moves each heap root into
//! the buffer before it sifts, an eviction moves the buffer's maximum
//! into the array before it sifts up, and a refill cut short leaves its
//! slots ascending rather than descending. Whatever the state,
//! `delete_min` still drains all of them — it pops the buffer's last
//! slot and refills an empty buffer first — which is what `LockedPq`'s
//! poison-then-`salvage_into` path relies on.

use std::mem::ManuallyDrop;
use std::ptr;

use crate::traits::SeqPriorityQueue;

/// Capacity of the sorted front buffer.
const BUFFER: usize = 4;

/// Children per array node.
const ARITY: usize = 4;

/// One heap entry: priority, tie-breaking sequence number, payload.
#[derive(Debug, Clone)]
struct Entry<P, V> {
    priority: P,
    seq: u64,
    value: V,
}

impl<P: Ord, V> Entry<P, V> {
    /// Lexicographic (priority, seq) order: FIFO among equal priorities.
    #[inline]
    fn key(&self) -> (&P, u64) {
        (&self.priority, self.seq)
    }
}

/// A 4-ary min-heap over `(P, insertion index)` keys, with its
/// smallest entries in a sorted front buffer (see the module docs). The
/// name predates the 4-ary layout.
///
/// # Example
/// ```
/// use dlz_pq::{BinaryHeap, SeqPriorityQueue};
/// let mut h = BinaryHeap::new();
/// h.add(5u64, "five");
/// h.add(1, "one");
/// h.add(5, "five-again");
/// assert_eq!(h.delete_min(), Some((1, "one")));
/// assert_eq!(h.delete_min(), Some((5, "five")));        // FIFO tie-break
/// assert_eq!(h.delete_min(), Some((5, "five-again")));
/// assert_eq!(h.delete_min(), None);
/// ```
// The field order is load-bearing: repr(C) puts the words every
// operation writes (`len`, the `Vec` header, `next_seq`) first, so that
// inside a `LockedPq` they share the lock word's cache line.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct BinaryHeap<P, V> {
    /// Occupied slots of `front`.
    len: usize,
    entries: Vec<Entry<P, V>>,
    next_seq: u64,
    /// The smallest entries in descending key order: `front[..len]` are
    /// occupied, the minimum last; the rest are `None`.
    front: [Option<Entry<P, V>>; BUFFER],
}

impl<P: Ord, V> Default for BinaryHeap<P, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Ord, V> BinaryHeap<P, V> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty heap whose array can hold `cap` entries without
    /// reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeap {
            len: 0,
            entries: Vec::with_capacity(cap),
            next_seq: 0,
            front: [const { None }; BUFFER],
        }
    }

    /// Current backing-array capacity.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Drains the heap in priority order into a vector.
    pub fn into_sorted_vec(mut self) -> Vec<(P, V)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(e) = self.delete_min() {
            out.push(e);
        }
        out
    }

    /// Iterates over entries in unspecified order.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (&P, &V)> {
        self.front
            .iter()
            .flatten()
            .chain(&self.entries)
            .map(|e| (&e.priority, &e.value))
    }

    /// The occupied buffer slot `i`.
    #[inline]
    fn slot(&self, i: usize) -> &Entry<P, V> {
        self.front[i]
            .as_ref()
            .expect("slots below len are occupied")
    }

    /// Puts `e` into the buffer at its sorted place, evicting the
    /// maximum into the heap when the buffer is full. `e` must be below
    /// the maximum unless the buffer is empty.
    fn insert_front(&mut self, e: Entry<P, V>) {
        // The search compares before anything moves; after an eviction
        // only `sift_up` compares, with the old maximum already in the
        // array. Either way a panic leaves every entry but `e` in place.
        let mut at = (1..self.len)
            .find(|&i| self.slot(i).key() < e.key())
            .unwrap_or(self.len);
        if self.len == BUFFER {
            let max = self.front[0].take().expect("a full buffer");
            self.front.rotate_left(1);
            self.len -= 1;
            at -= 1;
            self.entries.push(max);
            self.sift_up(self.entries.len() - 1);
        }
        self.front[at..=self.len].rotate_right(1);
        self.front[at] = Some(e);
        self.len += 1;
    }

    /// Moves up to four heap minima into the empty buffer. Each root
    /// enters the buffer before the array sifts, and the slots fill
    /// ascending and are reversed at the end, so a panic mid-refill
    /// leaves every entry in place once.
    fn refill(&mut self) {
        debug_assert_eq!(self.len, 0, "refill of a non-empty buffer");
        while self.len < BUFFER && !self.entries.is_empty() {
            self.front[self.len] = Some(self.entries.swap_remove(0));
            self.len += 1;
            if !self.entries.is_empty() {
                self.sift_down();
            }
        }
        self.front[..self.len].reverse();
    }

    /// Moves the entry at `pos` up to its place.
    fn sift_up(&mut self, pos: usize) {
        let mut hole = Hole::new(&mut self.entries, pos);
        while hole.pos > 0 {
            let parent = (hole.pos - 1) / ARITY;
            // SAFETY: `parent < hole.pos`, which is in bounds, so
            // `parent` is in bounds and is not the hole.
            if hole.element().key() >= unsafe { hole.get(parent) }.key() {
                break;
            }
            // SAFETY: as above.
            unsafe { hole.move_to(parent) };
        }
    }

    /// Moves the root entry to its place: the hole descends along the
    /// smallest children to the bottom, and the entry sifts up from
    /// there (see the module docs).
    fn sift_down(&mut self) {
        let end = self.entries.len();
        let mut hole = Hole::new(&mut self.entries, 0);
        let mut child = 1;
        // All four children exist while `child + ARITY <= end`.
        while child + ARITY <= end {
            // The children of `child..child + ARITY` are contiguous.
            hole.prefetch(ARITY * child + 1, ARITY * ARITY);
            // SAFETY: `child..child + ARITY` is below `end`, the slice
            // length, and above `hole.pos`; `a` and `b` are in it.
            let smallest = unsafe {
                let lt = |i: usize, j: usize| (hole.get(i).key() < hole.get(j).key()) as usize;
                let a = child + lt(child + 1, child);
                let b = child + 2 + lt(child + 3, child + 2);
                a + lt(b, a) * (b - a)
            };
            // SAFETY: `smallest` is one of those children.
            unsafe { hole.move_to(smallest) };
            child = ARITY * hole.pos + 1;
        }
        // A partial last group: its 1–3 children are leaves.
        if child < end {
            let mut smallest = child;
            for c in child + 1..end {
                // SAFETY: `c` and `smallest` are below `end` and above
                // `hole.pos`.
                if unsafe { hole.get(c).key() < hole.get(smallest).key() } {
                    smallest = c;
                }
            }
            // SAFETY: as above.
            unsafe { hole.move_to(smallest) };
        }
        let pos = hole.pos;
        drop(hole);
        self.sift_up(pos);
    }

    /// Verifies the buffer and heap invariants; used by tests and debug
    /// assertions.
    #[doc(hidden)]
    pub fn check_invariant(&self) -> bool {
        let (front, rest) = self.front.split_at(self.len);
        let front_ok = front.iter().all(Option::is_some)
            && rest.iter().all(Option::is_none)
            && (1..self.len).all(|i| self.slot(i - 1).key() > self.slot(i).key());
        let boundary_ok = match (self.len, self.entries.first()) {
            (_, None) => true,
            (0, Some(_)) => false,
            (_, Some(root)) => self.slot(0).key() < root.key(),
        };
        let heap_ok = (1..self.entries.len())
            .all(|i| self.entries[i].key() >= self.entries[(i - 1) / ARITY].key());
        front_ok && boundary_ok && heap_ok
    }
}

/// A gap in a slice: the element at `pos` has been lifted out and is
/// written back on drop, wherever the gap has moved to by then. While
/// the guard lives, `data[pos]` is a bitwise duplicate of a value held
/// elsewhere (in `elt`, or in the slot last moved from) and must be
/// neither read nor dropped — which the guard ensures by being the only
/// access path to `data` and by refilling the gap in `Drop`, on unwind
/// too.
struct Hole<'a, T> {
    data: &'a mut [T],
    elt: ManuallyDrop<T>,
    pos: usize,
}

impl<'a, T> Hole<'a, T> {
    /// Lifts `data[pos]` out.
    ///
    /// # Panics
    /// If `pos` is out of bounds.
    fn new(data: &'a mut [T], pos: usize) -> Self {
        assert!(pos < data.len(), "hole outside the heap");
        // SAFETY: `pos` is in bounds (checked above, in release builds
        // too); the duplicate left in `data[pos]` is overwritten before
        // the borrow of `data` ends (see `Drop`).
        let elt = unsafe { ptr::read(data.get_unchecked(pos)) };
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    /// The lifted-out element.
    #[inline]
    fn element(&self) -> &T {
        &self.elt
    }

    /// The element at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and must not be the hole's position.
    #[inline]
    unsafe fn get(&self, index: usize) -> &T {
        debug_assert!(index != self.pos && index < self.data.len());
        // SAFETY: in bounds by the caller's contract.
        unsafe { self.data.get_unchecked(index) }
    }

    /// Moves the element at `index` into the hole; the hole is then at
    /// `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and must not be the hole's position.
    #[inline]
    unsafe fn move_to(&mut self, index: usize) {
        debug_assert!(index != self.pos && index < self.data.len());
        // SAFETY: both positions are in bounds (`index` by the caller's
        // contract, `pos` by construction) and distinct, so the regions
        // do not overlap; the duplicate now at `index` is the new hole.
        unsafe {
            let base = self.data.as_mut_ptr();
            ptr::copy_nonoverlapping(base.add(index), base.add(self.pos), 1);
        }
        self.pos = index;
    }

    /// Hints the cache to load the lines of `data[first..first + count]`,
    /// clipped to the slice. A hint only: the addresses are computed with
    /// `wrapping_add` and never dereferenced, and a `first` past the end
    /// prefetches nothing. On targets other than x86_64, and under Miri,
    /// it does nothing.
    #[inline]
    fn prefetch(&self, first: usize, count: usize) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            const LINE: usize = 64;
            let end = (first + count).min(self.data.len());
            if first >= end {
                return;
            }
            let base = self.data.as_ptr();
            let stop = base.wrapping_add(end) as *const u8;
            let start = base.wrapping_add(first) as *const u8;
            let mut line = start.wrapping_sub(start as usize % LINE);
            while line < stop {
                // SAFETY: a prefetch is a hint that never faults and
                // reads nothing into the program; `line` is not
                // dereferenced.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(line.cast()) };
                line = line.wrapping_add(LINE);
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let _ = (first, count);
    }
}

impl<T> Drop for Hole<'_, T> {
    fn drop(&mut self) {
        // SAFETY: `pos` is in bounds by construction; writing `elt` over
        // the duplicate there restores "every element exactly once".
        // `elt` is a `ManuallyDrop`, so it is not dropped a second time.
        unsafe {
            let pos = self.pos;
            ptr::copy_nonoverlapping(&*self.elt, self.data.get_unchecked_mut(pos), 1);
        }
    }
}

impl<P: Ord, V> SeqPriorityQueue<P, V> for BinaryHeap<P, V> {
    fn add(&mut self, priority: P, value: V) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry {
            priority,
            seq,
            value,
        };
        if self.len == 0 || e.key() < self.slot(0).key() {
            self.insert_front(e);
        } else {
            self.entries.push(e);
            self.sift_up(self.entries.len() - 1);
        }
    }

    fn delete_min(&mut self) -> Option<(P, V)> {
        // Empty buffer over a non-empty heap: only after a panic.
        if self.len == 0 {
            self.refill();
        }
        self.len = self.len.checked_sub(1)?;
        let e = self.front[self.len]
            .take()
            .expect("slots below len are occupied");
        if self.len == 0 {
            self.refill();
        }
        Some((e.priority, e.value))
    }

    fn read_min(&self) -> Option<(&P, &V)> {
        let e = self.front[..self.len].last()?.as_ref()?;
        Some((&e.priority, &e.value))
    }

    fn len(&self) -> usize {
        self.len + self.entries.len()
    }

    fn clear(&mut self) {
        self.front = [const { None }; BUFFER];
        self.len = 0;
        self.entries.clear();
        self.next_seq = 0;
    }
}

impl<P: Ord, V> FromIterator<(P, V)> for BinaryHeap<P, V> {
    fn from_iter<T: IntoIterator<Item = (P, V)>>(iter: T) -> Self {
        let mut h = BinaryHeap::new();
        for (p, v) in iter {
            h.add(p, v);
        }
        h
    }
}

#[cfg(test)]
impl<P, V> BinaryHeap<P, V> {
    /// Where the words every operation writes (`len`, the `Vec` header,
    /// `next_seq`) end, in bytes from the start of the struct.
    pub(crate) fn header_end() -> usize {
        use std::mem::{offset_of, size_of};
        let ends = [
            offset_of!(Self, len) + size_of::<usize>(),
            offset_of!(Self, entries) + size_of::<Vec<Entry<P, V>>>(),
            offset_of!(Self, next_seq) + size_of::<u64>(),
        ];
        ends.into_iter().max().expect("three fields")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_heap_behaviour() {
        let mut h: BinaryHeap<u64, ()> = BinaryHeap::new();
        assert_eq!(h.len(), 0);
        assert!(h.is_empty());
        assert_eq!(h.read_min(), None);
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn single_element() {
        let mut h = BinaryHeap::new();
        h.add(7u64, 'a');
        assert_eq!(h.read_min(), Some((&7, &'a')));
        assert_eq!(h.delete_min(), Some((7, 'a')));
        assert!(h.is_empty());
    }

    #[test]
    fn ascending_and_descending_inserts_sort() {
        let mut h = BinaryHeap::new();
        for i in 0..100u64 {
            h.add(i, i);
        }
        for i in (100..200u64).rev() {
            h.add(i, i);
        }
        for i in 0..200u64 {
            assert_eq!(h.delete_min(), Some((i, i)));
        }
    }

    #[test]
    fn fifo_tie_break() {
        let mut h = BinaryHeap::new();
        for i in 0..50 {
            h.add(0u64, i);
        }
        for i in 0..50 {
            assert_eq!(h.delete_min(), Some((0, i)));
        }
    }

    #[test]
    fn fifo_ties_straddle_the_buffer_heap_boundary() {
        let mut h = BinaryHeap::new();
        for v in 0..6u64 {
            h.add(5u64, v);
            assert!(h.check_invariant());
        }
        // The first tie went into the empty buffer, the rest onto the
        // heap: a later tie is a larger key.
        assert_eq!((h.len, h.entries.len()), (1, 5));
        assert_eq!(h.delete_min(), Some((5, 0)));
        // That pop emptied the buffer, which refilled with ties 1..=4.
        assert_eq!((h.len, h.entries.len()), (4, 1));
        h.add(5, 6); // above the buffer's maximum, tie 4: onto the heap
        h.add(3, 7); // below it: into the buffer, evicting tie 4
        assert_eq!((h.len, h.entries.len()), (4, 3));
        assert_eq!(h.entries[0].value, 4, "the evicted tie is the heap root");
        assert!(h.check_invariant());
        let drained: Vec<_> = std::iter::from_fn(|| h.delete_min()).collect();
        let ties = (1..=6).map(|v| (5, v));
        assert_eq!(
            drained,
            [(3, 7)].into_iter().chain(ties).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_full_buffer_evicts_its_maximum_into_the_heap() {
        let mut h = BinaryHeap::new();
        // Each add is below the buffer's maximum, so all four stay there.
        for p in [60u64, 50, 40, 30] {
            h.add(p, p);
        }
        assert_eq!((h.len, h.entries.len()), (BUFFER, 0));
        h.add(45, 45);
        assert_eq!((h.len, h.entries.len()), (BUFFER, 1));
        assert_eq!(h.entries[0].priority, 60, "the old maximum left the buffer");
        h.add(100, 100); // above the buffer's maximum: heap
        h.add(5, 5); // evicts 50, which becomes the heap root
        assert_eq!(h.entries[0].priority, 50);
        let front: Vec<u64> = (0..h.len).map(|i| h.slot(i).priority).collect();
        assert_eq!(front, [45, 40, 30, 5]);
        assert_eq!(h.read_min(), Some((&5, &5)));
        assert!(h.check_invariant());
        assert_eq!(
            h.into_sorted_vec(),
            [5, 30, 40, 45, 50, 60, 100].map(|p| (p, p))
        );
    }

    #[test]
    fn interleaved_add_delete_keeps_invariant() {
        let mut h = BinaryHeap::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for step in 0..5_000u64 {
            // xorshift for a deterministic pseudo-random workload
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if step % 3 == 2 {
                h.delete_min();
            } else {
                h.add(x % 1000, step);
            }
            debug_assert!(h.check_invariant());
        }
        assert!(h.check_invariant());
        let sorted = h.into_sorted_vec();
        assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn clear_resets_sequence() {
        let mut h = BinaryHeap::new();
        h.add(1u64, 1);
        h.add(2, 2);
        h.clear();
        assert!(h.is_empty());
        h.add(5, 50);
        assert_eq!(h.delete_min(), Some((5, 50)));
    }

    #[test]
    fn from_iterator_collects() {
        let h: BinaryHeap<u64, u64> = (0..10u64).map(|i| (10 - i, i)).collect();
        assert_eq!(h.len(), 10);
        assert_eq!(h.read_min(), Some((&1, &9)));
    }

    #[test]
    fn max_u64_priority() {
        let mut h = BinaryHeap::new();
        h.add(u64::MAX, "inf");
        h.add(0, "zero");
        assert_eq!(h.delete_min(), Some((0, "zero")));
        assert_eq!(h.delete_min(), Some((u64::MAX, "inf")));
    }

    #[test]
    fn iter_unordered_visits_all() {
        let mut h = BinaryHeap::new();
        for i in 0..20u64 {
            h.add(i, i * 2);
        }
        let mut seen: Vec<u64> = h.iter_unordered().map(|(p, _)| *p).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20u64).collect::<Vec<_>>());
    }

    /// xorshift64: the deterministic stream behind the randomized tests.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn differential_against_std_heap_under_heavy_duplication() {
        use std::cmp::Reverse;
        // The reference: std's max-heap over `Reverse((priority, seq))`
        // is a min-heap with the same FIFO tie-break. 32 distinct
        // priorities over 120k ops per seed make almost every comparison
        // a tie on priority, so the `seq` half of the key does the work.
        // (Miri runs the same script, shortened: it is there for the
        // `Hole` guard's pointer work, not for the coverage.)
        let (steps, phase) = if cfg!(miri) {
            (3_000, 150)
        } else {
            (120_000, 6_000)
        };
        for seed in [0x9e3779b97f4a7c15u64, 0xdeadbeefcafef00d] {
            let mut x = seed;
            let mut ours: BinaryHeap<u64, u64> = BinaryHeap::new();
            let mut reference: std::collections::BinaryHeap<Reverse<(u64, u64)>> =
                std::collections::BinaryHeap::new();
            let mut seq = 0u64;
            for step in 0..steps {
                // Alternating grow and drain phases reach both deep heaps
                // and the empty heap.
                let grow = (step / phase) % 2 == 0;
                match xorshift(&mut x) % 100 {
                    0 if step % 64 == 0 => {
                        ours.clear();
                        reference.clear();
                        seq = 0;
                    }
                    r if (r < 70) == grow => {
                        let p = xorshift(&mut x) % 32;
                        ours.add(p, seq);
                        reference.push(Reverse((p, seq)));
                        seq += 1;
                    }
                    _ => {
                        let want = reference.pop().map(|Reverse(k)| k);
                        assert_eq!(ours.delete_min(), want, "step {step}, seed {seed:#x}");
                    }
                }
                assert!(ours.check_invariant(), "step {step}, seed {seed:#x}");
                assert_eq!(ours.len(), reference.len());
                assert_eq!(
                    ours.read_min().map(|(p, v)| (*p, *v)),
                    reference.peek().map(|Reverse(k)| *k)
                );
            }
        }
    }

    #[test]
    fn every_small_size_keeps_the_invariant_and_drains_in_key_order() {
        // Sizes 0..=70 cover a root alone, partial last groups of 1–3
        // children and exact multiples of the arity, for the array and
        // for every heap a drain's refills leave behind.
        for n in 0..=70u64 {
            for order in ["ascending", "descending", "all-equal"] {
                let priority = |i: u64| match order {
                    "ascending" => i,
                    "descending" => 1_000 - i,
                    _ => 7,
                };
                let mut h = BinaryHeap::new();
                for i in 0..n {
                    h.add(priority(i), i);
                    assert!(h.check_invariant(), "{order}, size {n}, add {i}");
                }
                let mut want: Vec<(u64, u64)> = (0..n).map(|i| (priority(i), i)).collect();
                // Key order: priority, then insertion order among ties.
                want.sort_unstable();
                for (k, &w) in want.iter().enumerate() {
                    assert_eq!(h.delete_min(), Some(w), "{order}, size {n}, pop {k}");
                    assert!(h.check_invariant(), "{order}, size {n}, pop {k}");
                }
                assert_eq!(h.delete_min(), None);
            }
        }
    }

    #[test]
    fn a_deep_heap_drains_like_std() {
        use std::cmp::Reverse;
        // 2^17 + 3 entries: the last grandchild group of the array
        // straddles its end, so the prefetch range is clipped. (Miri
        // runs a smaller heap of the same shape.)
        let shift = if cfg!(miri) { 9 } else { 17 };
        let n = (1u64 << shift) + 3;
        let mut x = 0x853c49e6748fea9bu64;
        let mut ours: BinaryHeap<u64, u64> = BinaryHeap::new();
        let mut reference = std::collections::BinaryHeap::new();
        for seq in 0..n {
            let p = xorshift(&mut x) % 4_096;
            ours.add(p, seq);
            reference.push(Reverse((p, seq)));
        }
        assert!(ours.check_invariant());
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(ours.delete_min(), Some(want));
        }
        assert_eq!(ours.delete_min(), None);
    }

    /// A priority whose comparison panics once a shared countdown runs
    /// out (a negative countdown never fires).
    #[derive(Debug)]
    struct Fuse<'a> {
        p: u64,
        countdown: &'a std::cell::Cell<i64>,
    }

    impl PartialEq for Fuse<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Fuse<'_> {}
    impl PartialOrd for Fuse<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Fuse<'_> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let left = self.countdown.get();
            if left == 0 {
                panic!("comparison fuse blew");
            }
            self.countdown.set(left - 1);
            self.p.cmp(&other.p)
        }
    }

    /// A payload that counts its drops per id.
    struct Counted<'a> {
        id: usize,
        drops: &'a [std::cell::Cell<u32>],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops[self.id].set(self.drops[self.id].get() + 1);
        }
    }

    #[test]
    fn a_panicking_comparison_leaves_every_value_exactly_once() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const ADDS: usize = 48;
        /// Where a blown fuse interrupted the script.
        #[derive(Clone, Copy, PartialEq)]
        enum Site {
            /// A `delete_min` whose pop emptied the buffer: inside the
            /// refill's `sift_down`, the only comparisons there.
            Refill,
            /// An `add` that had already evicted the buffer's maximum:
            /// inside the eviction's `sift_up`, the only comparisons
            /// after the eviction.
            Eviction,
            Elsewhere,
        }
        // The script: 48 adds with 8 deletes mixed in, then a full drain.
        let run = |fuse: i64, drops: &[std::cell::Cell<u32>]| -> (Option<Site>, usize) {
            let countdown = std::cell::Cell::new(fuse);
            let mut heap: BinaryHeap<Fuse<'_>, Counted<'_>> = BinaryHeap::new();
            let mut returned = 0usize;
            // (is an add, buffer length, heap length) before each call.
            let mut before = (false, 0usize, 0usize);
            let blew = catch_unwind(AssertUnwindSafe(|| {
                let mut x = 0x2545f4914f6cdd1du64;
                for id in 0..ADDS {
                    let p = xorshift(&mut x) % 8;
                    let p = Fuse {
                        p,
                        countdown: &countdown,
                    };
                    before = (true, heap.len, heap.entries.len());
                    heap.add(p, Counted { id, drops });
                    before = (false, heap.len, heap.entries.len());
                    if id % 6 == 5 && heap.delete_min().is_some() {
                        returned += 1;
                    }
                }
                before = (false, heap.len, heap.entries.len());
                while heap.delete_min().is_some() {
                    returned += 1;
                    before = (false, heap.len, heap.entries.len());
                }
            }))
            .is_err();
            let site = blew.then_some(match before {
                (false, 1, h) if h >= 2 => Site::Refill,
                (true, BUFFER, _) if heap.len == BUFFER - 1 => Site::Eviction,
                _ => Site::Elsewhere,
            });
            // Whatever the panic interrupted, the buffer and the array
            // hold distinct live values: no id twice, none dropped.
            countdown.set(-1);
            let mut seen = [false; ADDS];
            for (_, v) in heap.iter_unordered() {
                assert!(
                    !seen[v.id],
                    "id {} is in the heap twice (fuse {fuse})",
                    v.id
                );
                seen[v.id] = true;
                assert_eq!(drops[v.id].get(), 0, "id {} dropped yet held", v.id);
            }
            // The salvage path: `delete_min` until empty serves each of
            // them once, broken order or not.
            let held = heap.len();
            let mut salvaged = 0usize;
            while heap.delete_min().is_some() {
                salvaged += 1;
            }
            assert_eq!(salvaged, held, "fuse {fuse}");
            (site, returned + salvaged)
        };
        // Every k: fuses grow until one outlasts the whole script.
        let mut hits = Vec::new();
        for fuse in 0.. {
            let drops: Vec<_> = (0..ADDS).map(|_| std::cell::Cell::new(0)).collect();
            let (site, served) = run(fuse, &drops);
            // Every value that entered was dropped exactly once by now:
            // served, or (at most one) in flight in the panicking call.
            let entered = drops.iter().filter(|d| d.get() > 0).count();
            assert!(
                drops.iter().all(|d| d.get() <= 1),
                "double drop, fuse {fuse}"
            );
            assert!(
                served == entered || (site.is_some() && served + 1 == entered),
                "fuse {fuse}: {served} served of {entered} entered"
            );
            match site {
                Some(site) => hits.push(site),
                None => {
                    assert_eq!(served, ADDS, "an unblown run serves everything");
                    break;
                }
            }
        }
        let count = |want: Site| hits.iter().filter(|&&s| s == want).count();
        assert!(
            hits.len() > 100,
            "the script should compare a lot, got {}",
            hits.len()
        );
        assert!(
            count(Site::Refill) > 100,
            "refill sift_down fuses: {}",
            count(Site::Refill)
        );
        assert!(
            count(Site::Eviction) >= 5,
            "eviction sift_up fuses: {}",
            count(Site::Eviction)
        );
    }
}
