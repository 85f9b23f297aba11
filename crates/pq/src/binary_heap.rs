//! An array-backed binary min-heap with FIFO tie-breaking.
//!
//! `std::collections::BinaryHeap` is a max-heap without a stable ordering
//! for equal priorities, so we implement our own. Entries with equal
//! priorities are returned in insertion order, which the MultiQueue relies
//! on when priorities are coarse timestamps (two elements enqueued to the
//! same internal queue with the same timestamp must come out in enqueue
//! order for the queue-like sequential specification to make sense).
//!
//! # Sifting through a hole
//!
//! Both sifts lift the moving entry out of the array once, move each
//! child (or parent) on its path into the gap with a single write, and
//! put the entry back where the walk ends — one write per level where a
//! `Vec::swap` walk does two, and no bounds check per level. The gap is a
//! `Hole` guard, the device `std::collections::BinaryHeap` uses: its
//! `Drop` refills the gap, so a panicking `P::cmp` unwinds to an array
//! that still holds every entry exactly once (the heap *order* may be
//! broken; `delete_min` still drains everything, which is what
//! `LockedPq`'s poison-then-`salvage_into` path relies on). All unchecked
//! indexing lives in that guard. The layout is the plain binary one:
//! children of `i` at `2i + 1` and `2i + 2`.

use std::mem::ManuallyDrop;
use std::ptr;

use crate::traits::SeqPriorityQueue;

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

/// A binary min-heap over `(P, insertion index)` keys.
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
#[derive(Debug, Clone)]
pub struct BinaryHeap<P, V> {
    entries: Vec<Entry<P, V>>,
    next_seq: u64,
}

impl<P: Ord, V> Default for BinaryHeap<P, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Ord, V> BinaryHeap<P, V> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        BinaryHeap {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty heap that can hold `cap` entries without
    /// reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeap {
            entries: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Current backing-array capacity.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Drains the heap in priority order into a vector.
    pub fn into_sorted_vec(mut self) -> Vec<(P, V)> {
        let mut out = Vec::with_capacity(self.entries.len());
        while let Some(e) = self.delete_min() {
            out.push(e);
        }
        out
    }

    /// Iterates over entries in unspecified (heap) order.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (&P, &V)> {
        self.entries.iter().map(|e| (&e.priority, &e.value))
    }

    /// Moves the entry at `pos` up to its place.
    fn sift_up(&mut self, pos: usize) {
        let mut hole = Hole::new(&mut self.entries, pos);
        while hole.pos > 0 {
            let parent = (hole.pos - 1) / 2;
            // SAFETY: `parent < hole.pos`, which is in bounds, so
            // `parent` is in bounds and is not the hole.
            if hole.element().key() >= unsafe { hole.get(parent) }.key() {
                break;
            }
            // SAFETY: as above.
            unsafe { hole.move_to(parent) };
        }
    }

    /// Moves the entry at `pos` down to its place.
    fn sift_down(&mut self, pos: usize) {
        let end = self.entries.len();
        let mut hole = Hole::new(&mut self.entries, pos);
        let mut child = 2 * hole.pos + 1;
        // Both children exist while `child + 1 < end`.
        while child + 1 < end {
            // SAFETY: `child` and `child + 1` are below `end`, the slice
            // length, and above `hole.pos`.
            if unsafe { hole.get(child + 1).key() < hole.get(child).key() } {
                child += 1;
            }
            // SAFETY: `child < end` and `child > hole.pos`, as above.
            if hole.element().key() <= unsafe { hole.get(child) }.key() {
                return;
            }
            // SAFETY: as above.
            unsafe { hole.move_to(child) };
            child = 2 * hole.pos + 1;
        }
        // SAFETY (both calls): `child == end - 1` is in bounds and above
        // `hole.pos`.
        if child + 1 == end && unsafe { hole.get(child) }.key() < hole.element().key() {
            unsafe { hole.move_to(child) };
        }
    }

    /// Verifies the heap invariant; used by tests and debug assertions.
    #[doc(hidden)]
    pub fn check_invariant(&self) -> bool {
        (1..self.entries.len()).all(|i| self.entries[i].key() >= self.entries[(i - 1) / 2].key())
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
        self.entries.push(Entry {
            priority,
            seq,
            value,
        });
        self.sift_up(self.entries.len() - 1);
    }

    fn delete_min(&mut self) -> Option<(P, V)> {
        if self.entries.is_empty() {
            return None;
        }
        // The last entry takes the root's place and sifts down from it.
        let e = self.entries.swap_remove(0);
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some((e.priority, e.value))
    }

    fn read_min(&self) -> Option<(&P, &V)> {
        self.entries.first().map(|e| (&e.priority, &e.value))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
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
        // The script: 48 adds with 8 deletes mixed in, then a full drain.
        let run = |fuse: i64, drops: &[std::cell::Cell<u32>]| -> (bool, usize) {
            let countdown = std::cell::Cell::new(fuse);
            let mut heap: BinaryHeap<Fuse<'_>, Counted<'_>> = BinaryHeap::new();
            let mut returned = 0usize;
            let blew = catch_unwind(AssertUnwindSafe(|| {
                let mut x = 0x2545f4914f6cdd1du64;
                for id in 0..ADDS {
                    let p = xorshift(&mut x) % 8;
                    let p = Fuse {
                        p,
                        countdown: &countdown,
                    };
                    heap.add(p, Counted { id, drops });
                    if id % 6 == 5 && heap.delete_min().is_some() {
                        returned += 1;
                    }
                }
                while heap.delete_min().is_some() {
                    returned += 1;
                }
            }))
            .is_err();
            // Whatever the panic interrupted, the array holds distinct
            // live values: no id twice, none already dropped.
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
            (blew, returned + salvaged)
        };
        // Every k: fuses grow until one outlasts the whole script.
        let mut blown = 0;
        for fuse in 0.. {
            let drops: Vec<_> = (0..ADDS).map(|_| std::cell::Cell::new(0)).collect();
            let (blew, served) = run(fuse, &drops);
            // Every value that entered was dropped exactly once by now:
            // served, or (at most one) in flight in the panicking call.
            let entered = drops.iter().filter(|d| d.get() > 0).count();
            assert!(
                drops.iter().all(|d| d.get() <= 1),
                "double drop, fuse {fuse}"
            );
            assert!(
                served == entered || (blew && served + 1 == entered),
                "fuse {fuse}: {served} served of {entered} entered"
            );
            if !blew {
                assert_eq!(served, ADDS, "an unblown run serves everything");
                break;
            }
            blown += 1;
        }
        assert!(blown > 100, "the script should compare a lot, got {blown}");
    }
}
