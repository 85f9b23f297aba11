//! Linearizable concurrent priority queues built from a lock plus a
//! sequential queue, with a lock-free `ReadMin` hint.
//!
//! Algorithm 2 in the paper assumes `m` *linearizable* priority queues
//! supporting `Add`, `DeleteMin` and `ReadMin`. [`LockedPq`] provides
//! exactly that, engineered for the MultiQueue's contention profile:
//!
//! * **One packed header word.** The lock flag, the poison flag and
//!   the entry count live in a single `AtomicU64`. Acquiring the lock
//!   is one CAS and releasing it, with the refreshed count, one store,
//!   both on one cache line, where an earlier layout paid for three
//!   separate atomic words.
//! * **One line for the lock, the hint and the heap header.**
//!   `LockedPq` is `repr(C, align(128))`: the header and the published
//!   min hint sit unpadded at offset 0 and the sequential queue follows
//!   at once, so [`BinaryHeap`]'s first fields — buffer length, `Vec`
//!   header, sequence counter — share their 64-byte line. The lock
//!   holder writes those words on every operation, and the header CAS
//!   that takes the lock already writes that line, so they move between
//!   cores with it instead of as a second line. The lock-free `ReadMin`
//!   step still touches exactly one line. Heap writes under the lock do
//!   invalidate hint readers' copy of it, but the acquiring CAS and the
//!   releasing store of the header invalidate it anyway. The 128-byte
//!   alignment keeps adjacent queues in the MultiQueue's array off each
//!   other's lines and adjacent-line prefetch pairs.
//! * **Publish only on change.** The hint word is stored only when the
//!   minimum actually changed; an insert of a non-minimal element or a
//!   delete that does not move the front costs readers nothing.
//!
//! The MultiQueue's dequeue reads two of these hints *without locking*
//! (the `ReadMin` step), then locks only the queue it chose. The hint
//! may be stale by the time the lock is taken — that staleness is
//! precisely the relaxation the paper analyzes, so it is allowed by
//! construction.
//!
//! # Whole-operation attempts
//!
//! The MultiQueue's operation loop does not hold guards; it asks one
//! queue to run one whole operation and reacts to how that ended.
//! [`LockedPq::attempt`] is that surface: it takes `block` (wait out
//! contention, or report it), the caller's [`ContentionStats`] and the
//! operation as a closure over the sequential queue, and returns an
//! [`Attempt`] — the closure's result if it ran, or why it did not
//! (lock contended, queue poisoned and to be routed around). A closure
//! that did not run consumed nothing, so the caller re-routes whatever
//! it captured. The closure runs *inside* the critical section, so a
//! history stamp drawn in it marks the operation's linearization point
//! in this linearizable queue, and the lock is released (hint
//! republished, count stored) before `attempt` returns.
//!
//! `attempt` and [`salvage_into`](LockedPq::salvage_into) are the two
//! disciplines over one acquire loop: `attempt` never touches a
//! poisoned queue, `salvage_into` acquires one despite its poison to
//! drain it and return it to service. Nothing else runs under the lock.
//!
//! # Lines an operation touches
//!
//! A `LockedPq<u64>` over [`BinaryHeap`] is 256 bytes, 128-aligned. By
//! 64-byte line: `H` holds the header, the hint, the buffer length, the
//! heap array's `Vec` header and the sequence counter (bytes 0–55);
//! the four 32-byte front-buffer slots fill bytes 56–183, so `F1` holds
//! most of slot 0, slot 1 and the start of slot 2, and `F2` the rest of
//! slot 2 and slot 3; the last line is padding no operation touches.
//! The heap array is a separate allocation: root first, 24-byte
//! entries, four children per node, so the top three levels (21
//! entries) fill eight lines. A shared line is one
//! that another core writes. On a 2-worker MultiQueue of m = 8, an op
//! touches:
//!
//! | op | shared lines |
//! |---|---|
//! | dequeue served by the buffer (3 in 4) | 2 sampled `H` (one CAS'd and released), 1–2 of `F1`/`F2`: **3–4, no array line** |
//! | dequeue that refills the buffer (1 in 4) | the same, plus four pops: root and tail lines and four sift paths (~6 levels at 2,500 entries, down from ~11 in the binary layout; top ~8 lines hot): **~9–15** |
//! | insert onto the heap | `H`, `F1` (the buffer maximum it is routed by), the array tail and a sift-up of O(1) levels: **3–4** |
//! | insert into the buffer | `H`, `F1`/`F2`; an eviction adds the tail and a sift-up to the root: **2–3, or ~14 when it evicts** |
//!
//! In every row the acquired queue's header takes two writes: the
//! acquiring CAS and the releasing store, which reads nothing first
//! (the count it stores is the queue's, or on a panic the one the CAS
//! saw).
//!
//! Each row is one line below the padded layout's, which kept the hint
//! and header alone on `H` and put the buffer length, `Vec` header and
//! sequence counter on a line `S` of their own, written by every
//! operation too (384 bytes per queue). On the traced ladder the
//! one-line layout cut the 2-thread dequeue rung by 78 ns and the
//! insert rung by 32 ns (5 of 5 pairs).
//!
//! Without the buffer every dequeue paid the refill row's array cost
//! for one pop: 2 `H`, the `Vec` header's line, the root, tail and top
//! path lines, about 6–7 shared lines. Checked against the traced
//! ladder of the padded layout (`mq-balanced`, medians of 10 runs,
//! ~70 ns per line moved between cores), (t2 − t1) ÷ 70 ns gives a
//! dequeue 6.5 lines before the buffer and 5.4 after, and an insert
//! 3.3 and 3.4. The ladder's rungs run 2,048-op bursts of one kind,
//! where only 1.4% of inserts enter the buffer. Interleaved 50/50, most
//! do (84%, a quarter of them evicting, in a 2-thread m = 8 run),
//! because a new uniform key usually falls below the fourth-smallest
//! resident.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::binary_heap::BinaryHeap;
use crate::spinlock::Backoff;
use crate::stats::ContentionStats;
use crate::traits::{ConcurrentPq, SeqPriorityQueue};

/// Value published in the hint word when the queue is (believed) empty.
/// A non-empty queue never publishes it: a minimum of `u64::MAX` is
/// published as `EMPTY_HINT - 1`, still a lower bound of the minimum.
pub const EMPTY_HINT: u64 = u64::MAX;

/// The hint `queue` publishes: its minimum priority, clamped below
/// [`EMPTY_HINT`], or `EMPTY_HINT` when it is empty.
#[inline]
fn hint_of<V, Q: SeqPriorityQueue<u64, V>>(queue: &Q) -> u64 {
    queue
        .read_min()
        .map_or(EMPTY_HINT, |(p, _)| (*p).min(EMPTY_HINT - 1))
}

/// How one acquisition — and, through [`LockedPq::attempt`], one whole
/// operation — on one queue ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt<R> {
    /// The lock was acquired and the operation ran; carries its result.
    Ran(R),
    /// The lock was held by someone else (non-blocking mode only).
    /// Says nothing about what the queue holds.
    Contended,
    /// A previous critical section panicked mid-mutation, so the
    /// sequential queue behind the lock may be inconsistent: re-choose
    /// another queue. Recover with [`LockedPq::salvage_into`], which
    /// drains whatever is still readable, recounts and clears the mark.
    /// Reported immediately, never waited on, and not counted as
    /// contention.
    Poisoned,
}

/// Bit layout of the packed per-queue header word.
///
/// ```text
/// 63       62         61............0
/// [locked] [poisoned] [ entry count ]
/// ```
///
/// * bit 63 — the lock flag (test-and-test-and-set via CAS);
/// * bit 62 — the poison flag: set at release when the critical
///   section unwound from a panic, so the sequential queue may be
///   inconsistent. [`pack`](header::pack) never sets it — only the
///   panicking release ORs it in, and every normal release clears it;
/// * bits 0..=61 — the entry count, saturating rather than overflowing
///   into the flags.
mod header {
    /// The lock flag.
    pub const LOCK_BIT: u64 = 1 << 63;
    /// The poison flag: the last critical section panicked.
    pub const POISON_BIT: u64 = 1 << 62;
    /// Mask of the count field.
    pub const COUNT_MASK: u64 = POISON_BIT - 1;

    /// Packs the lock flag and the count into one word. `count`
    /// saturates at [`COUNT_MASK`]. The poison flag is never packed —
    /// the panicking release ORs [`POISON_BIT`] in explicitly, so every
    /// normal release clears it.
    #[inline]
    pub fn pack(locked: bool, count: u64) -> u64 {
        let lock = if locked { LOCK_BIT } else { 0 };
        lock | count.min(COUNT_MASK)
    }

    /// `true` if the word's lock flag is set.
    #[inline]
    pub const fn is_locked(word: u64) -> bool {
        word & LOCK_BIT != 0
    }

    /// `true` if the word's poison flag is set.
    #[inline]
    pub const fn is_poisoned(word: u64) -> bool {
        word & POISON_BIT != 0
    }

    /// The word's entry count field.
    #[inline]
    pub const fn count(word: u64) -> u64 {
        word & COUNT_MASK
    }
}

/// The hot words: packed header plus published min hint, the two words
/// the lock-free paths touch. Unpadded: the sequential queue's header
/// follows them on the same line (see the module docs).
#[derive(Debug)]
struct Hot {
    /// Packed lock / poison / count (see `header`).
    header: AtomicU64,
    /// Current minimum priority, or [`EMPTY_HINT`]. Updated while the
    /// lock is held, and only when the minimum changed; read without
    /// the lock (that is the point).
    top: AtomicU64,
}

/// A lock-based linearizable priority queue with a published min hint.
///
/// # Example
/// ```
/// use dlz_pq::{LockedPq, BinaryHeap, ConcurrentPq};
/// let q: LockedPq<&str> = LockedPq::new(BinaryHeap::new());
/// q.insert(4, "four");
/// q.insert(2, "two");
/// assert_eq!(q.min_hint(), 2);
/// assert_eq!(q.remove_min(), Some((2, "two")));
/// ```
// repr(C) guarantees the declared field order: the hot words at offset
// 0, the queue right after them, so the header CAS that takes the lock
// also brings in the queue's own header (`BinaryHeap` orders its fields
// for this). align(128) keeps adjacent queues of an array off each
// other's lines and adjacent-line prefetch pairs.
#[repr(C, align(128))]
pub struct LockedPq<V, Q = BinaryHeap<u64, V>>
where
    Q: SeqPriorityQueue<u64, V>,
{
    hot: Hot,
    /// The sequential queue; exclusive access is granted by the header
    /// word's lock bit.
    inner: UnsafeCell<Q>,
    _marker: std::marker::PhantomData<fn() -> V>,
}

// SAFETY: the header's lock bit grants exclusive access to `inner`;
// `Q: Send` suffices because only one thread observes `&mut Q` at a
// time (same argument as a mutex).
unsafe impl<V, Q: SeqPriorityQueue<u64, V> + Send> Sync for LockedPq<V, Q> {}
unsafe impl<V, Q: SeqPriorityQueue<u64, V> + Send> Send for LockedPq<V, Q> {}

impl<V, Q: SeqPriorityQueue<u64, V>> LockedPq<V, Q> {
    /// Wraps a sequential queue. Any pre-existing entries are reflected
    /// in the hint and count.
    pub fn new(queue: Q) -> Self {
        LockedPq {
            hot: Hot {
                header: AtomicU64::new(header::pack(false, queue.len() as u64)),
                top: AtomicU64::new(hint_of(&queue)),
            },
            inner: UnsafeCell::new(queue),
            _marker: std::marker::PhantomData,
        }
    }

    /// The one acquire loop, test-and-test-and-set on the packed header.
    /// `block` waits out a held lock (else reports [`Attempt::Contended`]
    /// and counts a try-lock failure); `salvage` acquires *despite*
    /// poison (else reports [`Attempt::Poisoned`] without acquiring).
    /// Snoozes while the lock is held and CAS retries lost to a
    /// concurrent release land in `stats`, which the guard keeps for
    /// the release protocol's hint republishes.
    #[inline]
    fn acquire<'g>(
        &'g self,
        block: bool,
        salvage: bool,
        stats: &'g mut ContentionStats,
    ) -> Attempt<Guard<'g, V, Q>> {
        let mut backoff = Backoff::new();
        let mut cur = self.hot.header.load(Ordering::Relaxed);
        loop {
            // Poison outranks the lock state: a locked+poisoned word is
            // a salvage in progress, and waiting for it would just win
            // a lock on a queue we must not touch.
            if header::is_poisoned(cur) && !salvage {
                return Attempt::Poisoned;
            }
            if header::is_locked(cur) {
                if !block {
                    stats.try_lock_failures += 1;
                    return Attempt::Contended;
                }
                stats.note_snooze(backoff.is_yielding());
                backoff.snooze();
                cur = self.hot.header.load(Ordering::Relaxed);
                continue;
            }
            // CAS only on an unlocked snapshot, and retry while the
            // word changes under us but stays unlocked (another
            // thread's release updated the count).
            match self.hot.header.compare_exchange_weak(
                cur,
                cur | header::LOCK_BIT,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Attempt::Ran(Guard {
                        pq: self,
                        stats,
                        count: header::count(cur),
                    })
                }
                Err(now) => {
                    stats.cas_retries += 1;
                    cur = now;
                }
            }
        }
    }

    /// Runs one whole operation on the queue if its lock can be had:
    /// `body` executes inside the critical section and the lock is
    /// released before this returns. `block = true` waits out
    /// contention (snoozes counted in `stats`); `block = false` reports
    /// [`Attempt::Contended`] instead and counts one try-lock failure.
    /// A poisoned queue is reported in both modes, uncounted. When the
    /// result is not [`Attempt::Ran`], `body` was not called.
    #[inline]
    pub fn attempt<R>(
        &self,
        block: bool,
        stats: &mut ContentionStats,
        body: impl FnOnce(&mut Q) -> R,
    ) -> Attempt<R> {
        match self.acquire(block, false, stats) {
            Attempt::Ran(mut guard) => Attempt::Ran(body(guard.queue())),
            Attempt::Contended => Attempt::Contended,
            Attempt::Poisoned => Attempt::Poisoned,
        }
    }

    /// Salvages a poisoned queue: waits out contention, acquires the
    /// lock *despite* the poison and drains every entry the sequential
    /// queue still serves into `out`. The poison flag stays set while
    /// it drains, so concurrent [`attempt`](Self::attempt)s keep seeing
    /// [`Attempt::Poisoned`] rather than blocking on the salvage; the
    /// release then recounts, republishes the real min hint and clears
    /// the poison, returning the queue to service. Draining by
    /// `delete_min` is all it asks of a queue a panicked mutation may
    /// have left inconsistent. Also usable on a healthy queue as a
    /// blocking drain.
    pub fn salvage_into(&self, out: &mut Vec<(u64, V)>) {
        let mut stats = ContentionStats::new();
        let Attempt::Ran(mut guard) = self.acquire(true, true, &mut stats) else {
            unreachable!("a salvage acquisition waits out contention and ignores poison")
        };
        out.extend(std::iter::from_fn(|| guard.queue().delete_min()));
    }

    /// `attempt` that waits out contention and panics on a poisoned
    /// queue — the `Mutex::lock().unwrap()` idiom behind the
    /// [`ConcurrentPq`] impl.
    fn run<R>(&self, body: impl FnOnce(&mut Q) -> R) -> R {
        match self.attempt(true, &mut ContentionStats::new(), body) {
            Attempt::Ran(r) => r,
            _ => panic!("queue poisoned"),
        }
    }

    /// `true` if the lock is currently held. Snapshot only.
    pub fn is_locked(&self) -> bool {
        header::is_locked(self.hot.header.load(Ordering::Relaxed))
    }

    /// `true` if the queue is poisoned: a previous critical section
    /// panicked, so the sequential queue may be inconsistent. Cleared
    /// by a completed [`salvage_into`](Self::salvage_into). Snapshot
    /// only.
    pub fn is_poisoned(&self) -> bool {
        header::is_poisoned(self.hot.header.load(Ordering::Relaxed))
    }

    /// Lock-free read of the published minimum hint (Algorithm 2's
    /// `ReadMin`); [`EMPTY_HINT`] when the queue is believed empty.
    #[inline]
    pub fn min_hint(&self) -> u64 {
        self.hot.top.load(Ordering::Acquire)
    }

    /// The packed entry count from the header word (exact between
    /// critical sections, stale while one is running).
    #[inline]
    pub fn approx_len(&self) -> usize {
        header::count(self.hot.header.load(Ordering::Acquire)) as usize
    }
}

impl<V, Q: SeqPriorityQueue<u64, V>> std::fmt::Debug for LockedPq<V, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = self.hot.header.load(Ordering::Relaxed);
        f.debug_struct("LockedPq")
            .field("locked", &header::is_locked(word))
            .field("poisoned", &header::is_poisoned(word))
            .field("count", &header::count(word))
            .field("top", &self.hot.top.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<V, Q: SeqPriorityQueue<u64, V> + Default> Default for LockedPq<V, Q> {
    fn default() -> Self {
        Self::new(Q::default())
    }
}

impl<V: Send, Q: SeqPriorityQueue<u64, V> + Send> ConcurrentPq<V> for LockedPq<V, Q> {
    /// # Panics
    /// If the queue is poisoned (a previous critical section panicked).
    fn insert(&self, priority: u64, value: V) {
        self.run(|q| q.add(priority, value))
    }

    /// # Panics
    /// If the queue is poisoned (a previous critical section panicked).
    fn remove_min(&self) -> Option<(u64, V)> {
        self.run(|q| q.delete_min())
    }

    #[inline]
    fn min_hint(&self) -> u64 {
        LockedPq::min_hint(self)
    }

    #[inline]
    fn approx_len(&self) -> usize {
        LockedPq::approx_len(self)
    }
}

/// The held lock of a [`LockedPq`], private to `attempt` and
/// `salvage_into`.
///
/// Dropping the guard performs the whole release protocol: refresh the
/// published hint if (and only if) the minimum changed, then store the
/// unlocked header with the new count (or, when unwinding from a panic,
/// the poisoned pre-lock count). While the lock bit is set every
/// competing CAS fails without writing, so the release is a plain
/// `Release` store that never reads the header first.
struct Guard<'a, V, Q: SeqPriorityQueue<u64, V>> {
    pq: &'a LockedPq<V, Q>,
    /// Counter sink for the release protocol (hint republishes).
    stats: &'a mut ContentionStats,
    /// The entry count the acquiring CAS saw: what a poisoned release
    /// stores, since it must not read the queue.
    count: u64,
}

impl<V, Q: SeqPriorityQueue<u64, V>> Guard<'_, V, Q> {
    /// The sequential queue behind the held lock.
    #[inline]
    fn queue(&mut self) -> &mut Q {
        // SAFETY: the guard proves exclusive ownership of the lock bit.
        unsafe { &mut *self.pq.inner.get() }
    }
}

impl<V, Q: SeqPriorityQueue<u64, V>> Drop for Guard<'_, V, Q> {
    #[inline]
    fn drop(&mut self) {
        let hot = &self.pq.hot;
        if std::thread::panicking() {
            // The critical section is unwinding mid-mutation: the
            // sequential queue may be inconsistent, so do NOT touch it
            // (no `read_min`, no `len`). Publish the empty hint so
            // choice policies stop sampling this queue, and release the
            // lock poisoned with the stale pre-lock count preserved as
            // the best estimate of what is stranded.
            hot.top.store(EMPTY_HINT, Ordering::Release);
            hot.header.store(
                header::pack(false, self.count) | header::POISON_BIT,
                Ordering::Release,
            );
            return;
        }
        // SAFETY: the guard proves exclusive ownership of the lock bit.
        // Read through the `pq` reference (not `self.queue()`) so the
        // borrow does not conflict with bumping `self.stats` below.
        let queue: &Q = unsafe { &*self.pq.inner.get() };
        let top = hint_of(queue);
        // Publish only when the minimum moved: the common case (insert
        // of a non-minimal element, or a delete behind the front) costs
        // hint readers nothing.
        if hot.top.load(Ordering::Relaxed) != top {
            // Release pairs with the Acquire load in `min_hint`: a
            // reader that sees the new hint sees a value that was
            // genuinely the minimum inside the critical section.
            hot.top.store(top, Ordering::Release);
            self.stats.hint_republishes += 1;
        }
        hot.header
            .store(header::pack(false, queue.len() as u64), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// An insert as an [`LockedPq::attempt`] body.
    fn add(p: u64, v: u64) -> impl FnOnce(&mut BinaryHeap<u64, u64>) {
        move |q| q.add(p, v)
    }

    /// Panics inside `q`'s critical section (before mutating it),
    /// leaving the queue poisoned with its entries intact.
    fn poison<V, Q: SeqPriorityQueue<u64, V>>(q: &LockedPq<V, Q>) {
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.attempt(true, &mut ContentionStats::new(), |_| -> () {
                panic!("injected fault")
            })
        }));
        assert!(unwound.is_err(), "the injected panic must propagate");
        assert!(q.is_poisoned());
    }

    #[test]
    fn contended_attempts_count_failures_and_successes_leave_counts_alone() {
        let q: LockedPq<u64> = LockedPq::new(BinaryHeap::new());
        let mut stats = ContentionStats::new();
        let held = q.attempt(true, &mut ContentionStats::new(), |_| {
            assert_eq!(q.attempt(false, &mut stats, add(1, 7)), Attempt::Contended);
            assert_eq!(q.attempt(false, &mut stats, add(1, 7)), Attempt::Contended);
        });
        assert_eq!(held, Attempt::Ran(()));
        assert_eq!(stats.try_lock_failures, 2);
        assert_eq!(q.approx_len(), 0, "a contended attempt runs no body");
        // Uncontended acquisition records nothing.
        let before = stats;
        assert_eq!(q.attempt(false, &mut stats, add(1, 7)), Attempt::Ran(()));
        // The first insert into an empty queue moves the hint.
        assert_eq!(stats.try_lock_failures, before.try_lock_failures);
        assert_eq!(stats.cas_retries, before.cas_retries);
        assert_eq!(stats.hint_republishes, before.hint_republishes + 1);
    }

    #[test]
    fn hint_republish_counts_only_when_the_minimum_moves() {
        let q: LockedPq<u64> = LockedPq::new(BinaryHeap::new());
        let mut stats = ContentionStats::new();
        q.attempt(true, &mut stats, add(5, 50)); // empty -> 5: republish
        q.attempt(true, &mut stats, add(9, 90)); // min stays 5: no store
        q.attempt(true, &mut stats, add(2, 20)); // 5 -> 2: republish
        assert_eq!(stats.hint_republishes, 2);
        assert_eq!(q.min_hint(), 2);
    }

    #[test]
    fn attempts_serve_in_priority_order_and_report_an_empty_queue_as_ran() {
        let q: LockedPq<u64> = LockedPq::default();
        let mut stats = ContentionStats::new();
        assert_eq!(q.attempt(true, &mut stats, add(5, 50)), Attempt::Ran(()));
        assert_eq!(q.attempt(false, &mut stats, add(3, 30)), Attempt::Ran(()));
        assert_eq!(q.min_hint(), 3);
        assert_eq!(q.approx_len(), 2);
        let pop = |q: &mut BinaryHeap<u64, u64>| q.delete_min();
        assert_eq!(
            q.attempt(true, &mut stats, pop),
            Attempt::Ran(Some((3, 30)))
        );
        assert_eq!(
            q.attempt(false, &mut stats, pop),
            Attempt::Ran(Some((5, 50)))
        );
        // Acquired but empty is the body's own answer, not a failure to
        // acquire.
        assert_eq!(q.attempt(true, &mut stats, pop), Attempt::Ran(None));
        assert_eq!(q.approx_len(), 0);
    }

    #[test]
    fn a_batch_body_amortizes_one_acquisition_and_one_hint_publish() {
        let q: LockedPq<u64> = LockedPq::default();
        let mut stats = ContentionStats::new();
        let pushed = q.attempt(true, &mut stats, |q| {
            [(4, 40u64), (1, 10), (9, 90)]
                .into_iter()
                .map(|(p, v)| q.add(p, v))
                .count()
        });
        assert_eq!(pushed, Attempt::Ran(3));
        // Published at release, not per add: the lock is free again and
        // the hint and count show the whole batch.
        assert!(!q.is_locked());
        assert_eq!(stats.hint_republishes, 1, "4, then 1, published once as 1");
        assert_eq!(q.min_hint(), 1);
        assert_eq!(q.approx_len(), 3);
        let mut got = Vec::new();
        let popped = q.attempt(true, &mut stats, |q| {
            got.extend((0..2).map_while(|_| q.delete_min()));
        });
        assert_eq!(popped, Attempt::Ran(()));
        assert_eq!(got, vec![(1, 10), (4, 40)]);
        assert_eq!(stats.hint_republishes, 2);
        assert_eq!(q.approx_len(), 1);
    }

    #[test]
    fn stamps_drawn_in_bodies_are_monotone_and_an_insert_precedes_its_dequeue() {
        let q: LockedPq<u64> = LockedPq::default();
        let stamper = AtomicU64::new(1);
        let draw = || stamper.fetch_add(1, Ordering::AcqRel);
        let mut stats = ContentionStats::new();
        let mut stamps = Vec::new();
        let one = q.attempt(true, &mut stats, |q| {
            q.add(7, 70);
            draw()
        });
        let Attempt::Ran(s) = one else {
            panic!("{one:?}")
        };
        stamps.push(s);
        let batch = q.attempt(true, &mut stats, |q| {
            for (p, v) in [(2, 20u64), (8, 80)] {
                q.add(p, v);
                stamps.push(draw());
            }
        });
        assert_eq!(batch, Attempt::Ran(()));
        let served = q.attempt(true, &mut stats, |q| q.delete_min().map(|e| (e, draw())));
        let Attempt::Ran(Some(((2, 20), s))) = served else {
            panic!("{served:?}")
        };
        stamps.push(s);
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "stamps {stamps:?} not strictly increasing"
        );
        // The insert that produced entry (2, 20) must be stamped below
        // the dequeue that served it.
        assert!(stamps[1] < stamps[3], "insert stamped after its dequeue");
    }

    #[test]
    fn non_blocking_attempts_run_no_body_while_the_lock_is_held() {
        let q: LockedPq<u64> = LockedPq::default();
        q.insert(1, 10);
        let mut stats = ContentionStats::new();
        let pop = |q: &mut BinaryHeap<u64, u64>| q.delete_min();
        assert!(!q.is_locked());
        // What a body captured stays with the caller for re-routing.
        let mut entry = Some((6u64, 60u64));
        let mut items = vec![(4u64, 40u64), (2, 20)].into_iter();
        items.next(); // a partially consumed iterator stays as it was
        let mut ran = 0usize;
        let held = q.attempt(true, &mut ContentionStats::new(), |_| {
            assert!(q.is_locked());
            for _ in 0..2 {
                let outcome = q.attempt(false, &mut stats, |q| {
                    ran += 1;
                    let (p, v) = entry.take().unwrap();
                    q.add(p, v);
                    items.by_ref().for_each(|(p, v)| q.add(p, v));
                });
                assert_eq!(outcome, Attempt::Contended);
            }
            // Contended is not "ran and found it empty": a held lock
            // says nothing about what the queue holds (it holds an
            // entry here).
            assert_eq!(q.attempt(false, &mut stats, pop), Attempt::Contended);
        });
        assert_eq!(held, Attempt::Ran(()));
        assert_eq!(ran, 0, "a contended attempt serves nothing");
        assert_eq!(entry, Some((6, 60)));
        assert_eq!(items.collect::<Vec<_>>(), vec![(2, 20)]);
        assert_eq!(stats.try_lock_failures, 3);
        // Released and drained: the same attempts now run, and say empty.
        assert_eq!(
            q.attempt(false, &mut stats, pop),
            Attempt::Ran(Some((1, 10)))
        );
        assert_eq!(q.attempt(false, &mut stats, pop), Attempt::Ran(None));
        assert_eq!(stats.try_lock_failures, 3);
    }

    #[test]
    fn poisoned_attempts_run_no_body_and_salvage_into_recovers_the_entries() {
        let q: LockedPq<u64> = LockedPq::default();
        let mut stats = ContentionStats::new();
        for p in [6u64, 2, 4] {
            assert_eq!(
                q.attempt(true, &mut stats, add(p, p * 10)),
                Attempt::Ran(())
            );
        }
        poison(&q);
        let before = stats;
        for block in [false, true] {
            let mut ran = false;
            let outcome = q.attempt(block, &mut stats, |_| ran = true);
            assert_eq!(outcome, Attempt::Poisoned);
            assert!(!ran, "a poisoned attempt must not touch the queue");
        }
        assert_eq!(stats, before, "poison is not contention");
        let mut out = Vec::new();
        q.salvage_into(&mut out);
        assert!(!q.is_poisoned());
        assert_eq!(out, vec![(2, 20), (4, 40), (6, 60)]);
        assert_eq!(q.approx_len(), 0);
    }

    #[test]
    fn header_pack_unpack_roundtrip() {
        use header::{count, is_locked, is_poisoned, pack, COUNT_MASK, POISON_BIT};
        for locked in [false, true] {
            for poisoned in [false, true] {
                for n in [0u64, 1, 678_910, COUNT_MASK] {
                    let w = pack(locked, n) | if poisoned { POISON_BIT } else { 0 };
                    assert_eq!(is_locked(w), locked);
                    assert_eq!(is_poisoned(w), poisoned);
                    assert_eq!(count(w), n);
                }
            }
        }
    }

    /// A count too wide for its field saturates at `COUNT_MASK` rather
    /// than spill into the bits above it. Those were once a generation
    /// field; now they are the lock and poison flags.
    #[test]
    fn header_count_saturates_without_clobbering_generation() {
        use header::{count, is_locked, is_poisoned, pack, COUNT_MASK, POISON_BIT};
        for locked in [false, true] {
            for poisoned in [false, true] {
                for n in [COUNT_MASK + 1, u64::MAX] {
                    let w = pack(locked, n) | if poisoned { POISON_BIT } else { 0 };
                    assert_eq!(count(w), COUNT_MASK);
                    assert_eq!(is_locked(w), locked);
                    assert_eq!(is_poisoned(w), poisoned);
                }
            }
        }
    }

    #[test]
    fn one_line_holds_the_lock_the_hint_and_the_heap_header() {
        use std::mem::{align_of, offset_of, size_of};
        type Q = LockedPq<u64>;
        assert_eq!(align_of::<Q>(), 128);
        assert_eq!(size_of::<Q>(), 256);
        // End offsets of the header, the hint and the heap's `len`,
        // `Vec` header and `next_seq`: all on the first 64-byte line.
        let hot = offset_of!(Q, hot);
        let ends = [
            hot + offset_of!(Hot, header) + size_of::<AtomicU64>(),
            hot + offset_of!(Hot, top) + size_of::<AtomicU64>(),
            offset_of!(Q, inner) + BinaryHeap::<u64, u64>::header_end(),
        ];
        assert!(ends.iter().all(|&end| end <= 64), "ends {ends:?}");
        // Adjacent queues of an array stay off each other's line pairs.
        let queues: Box<[Q]> = (0..2).map(|_| Q::default()).collect();
        let gap = &queues[1] as *const Q as usize - &queues[0] as *const Q as usize;
        assert!(gap >= 128, "adjacent queues {gap} bytes apart");
    }

    #[test]
    fn hint_tracks_min() {
        let q: LockedPq<u32> = LockedPq::default();
        assert_eq!(q.min_hint(), EMPTY_HINT);
        q.insert(10, 1);
        assert_eq!(q.min_hint(), 10);
        q.insert(3, 2);
        assert_eq!(q.min_hint(), 3);
        // Non-minimal insert: hint unchanged (and unpublished).
        q.insert(7, 3);
        assert_eq!(q.min_hint(), 3);
        q.remove_min();
        assert_eq!(q.min_hint(), 7);
        q.remove_min();
        assert_eq!(q.min_hint(), 10);
        q.remove_min();
        assert_eq!(q.min_hint(), EMPTY_HINT);
    }

    /// A minimum of `u64::MAX` must not read as empty, or no hint
    /// sampler would ever choose the queue that holds it.
    #[test]
    fn a_maximal_priority_publishes_a_hint_below_empty() {
        let q: LockedPq<u32> = LockedPq::default();
        q.insert(u64::MAX, 1);
        assert_eq!(q.min_hint(), EMPTY_HINT - 1);
        q.insert(4, 2);
        assert_eq!(q.min_hint(), 4);
        q.remove_min();
        assert_eq!(q.min_hint(), EMPTY_HINT - 1);
        assert_eq!(q.remove_min(), Some((u64::MAX, 1)));
        assert_eq!(q.min_hint(), EMPTY_HINT);
        let mut h = BinaryHeap::new();
        h.add(u64::MAX, 'a');
        assert_eq!(LockedPq::new(h).min_hint(), EMPTY_HINT - 1);
    }

    #[test]
    fn new_reflects_preexisting_entries() {
        let mut h = BinaryHeap::new();
        h.add(5u64, 'a');
        h.add(2, 'b');
        let q = LockedPq::new(h);
        assert_eq!(q.min_hint(), 2);
        assert_eq!(q.approx_len(), 2);
    }

    #[test]
    fn concurrent_inserts_conserve_entries() {
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        let q: Arc<LockedPq<u64>> = Arc::new(LockedPq::default());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER {
                        q.insert(t * PER + i, i);
                    }
                });
            }
        });
        assert_eq!(q.approx_len(), (THREADS * PER) as usize);
        let mut drained = 0;
        let mut last = 0;
        while let Some((p, _)) = q.remove_min() {
            assert!(p >= last, "priority order violated");
            last = p;
            drained += 1;
        }
        assert_eq!(drained, THREADS * PER);
    }

    #[test]
    fn mixed_non_blocking_attempts_under_contention_conserve() {
        const THREADS: usize = 4;
        const PER: u64 = 3_000;
        let q: Arc<LockedPq<u64>> = Arc::new(LockedPq::default());
        let removed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = Arc::clone(&q);
                let removed = Arc::clone(&removed);
                s.spawn(move || {
                    let mut stats = ContentionStats::new();
                    let mut spins = 0u64;
                    for i in 0..PER {
                        let mut item = Some((t as u64 * PER + i, i));
                        while q.attempt(false, &mut stats, |q| {
                            let (p, v) = item.take().expect("ran once");
                            q.add(p, v);
                        }) == Attempt::Contended
                        {
                            spins += 1;
                            std::hint::spin_loop();
                        }
                        assert_eq!(item, None, "the insert landed exactly once");
                        if i % 2 == 0 {
                            loop {
                                match q.attempt(false, &mut stats, |q| q.delete_min()) {
                                    Attempt::Ran(Some(_)) => {
                                        removed.fetch_add(1, Ordering::Relaxed);
                                        break;
                                    }
                                    Attempt::Ran(None) => break,
                                    Attempt::Contended => {
                                        spins += 1;
                                        std::hint::spin_loop();
                                    }
                                    Attempt::Poisoned => panic!("nothing panicked"),
                                }
                            }
                        }
                    }
                    assert_eq!(stats.try_lock_failures, spins);
                });
            }
        });
        let inserted = THREADS as u64 * PER;
        let left = q.approx_len() as u64;
        assert_eq!(inserted, removed.load(Ordering::Relaxed) + left);
    }

    #[test]
    fn header_pack_never_sets_poison_and_poison_preserves_fields() {
        let w = header::pack(true, 9);
        assert!(!header::is_poisoned(w));
        let p = w | header::POISON_BIT;
        assert!(header::is_poisoned(p));
        assert!(header::is_locked(p));
        assert_eq!(header::count(p), 9);
    }

    #[test]
    fn panic_in_critical_section_poisons_and_salvage_recovers() {
        let q: LockedPq<u32> = LockedPq::default();
        q.insert(3, 30);
        q.insert(1, 10);
        // Panic after a mutation: the queue holds three entries, but a
        // poisoned release must not read it, so the header keeps the
        // pre-lock count the acquiring CAS saw.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.attempt(true, &mut ContentionStats::new(), |q| -> () {
                q.add(5, 50);
                panic!("injected fault")
            })
        }));
        assert!(unwound.is_err());
        assert!(q.is_poisoned());
        assert!(!q.is_locked());
        // Poisoned queues advertise empty, so hint samplers skip them,
        // and the stale pre-panic count survives as the estimate of
        // what is stranded.
        assert_eq!(q.min_hint(), EMPTY_HINT);
        assert_eq!(q.approx_len(), 2);
        // Attempts surface the poison without blocking and without
        // charging contention counters.
        let mut stats = ContentionStats::new();
        assert_eq!(q.attempt(true, &mut stats, |_| ()), Attempt::Poisoned);
        assert_eq!(q.attempt(false, &mut stats, |_| ()), Attempt::Poisoned);
        assert!(stats.is_empty(), "poison is not contention: {stats:?}");
        // Salvage: drain what survived; the release protocol recounts,
        // republishes the real hint and clears the poison.
        let mut salvaged = Vec::new();
        {
            let mut salvage_stats = ContentionStats::new();
            let Attempt::Ran(mut g) = q.acquire(true, true, &mut salvage_stats) else {
                panic!("a salvage acquisition ignores poison")
            };
            // Mid-salvage the queue still reads poisoned to everyone
            // else (locked + poisoned), so nobody camps on its lock.
            assert_eq!(q.attempt(false, &mut stats, |_| ()), Attempt::Poisoned);
            while let Some(item) = g.queue().delete_min() {
                salvaged.push(item);
            }
        }
        assert_eq!(salvaged, vec![(1, 10), (3, 30), (5, 50)]);
        assert!(!q.is_poisoned());
        assert_eq!(q.approx_len(), 0);
        assert_eq!(q.min_hint(), EMPTY_HINT);
        // Back in service.
        q.insert(7, 70);
        assert_eq!(q.min_hint(), 7);
        assert_eq!(q.remove_min(), Some((7, 70)));
    }

    /// The `ConcurrentPq` ops are the infallible acquisitions: on a
    /// poisoned queue they panic, like `Mutex::lock().unwrap()`.
    #[test]
    fn infallible_lock_panics_on_poison_like_mutex_unwrap() {
        let q: LockedPq<u32> = LockedPq::default();
        q.insert(1, 10);
        poison(&q);
        for op in [
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.insert(2, 20))),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = q.remove_min();
            })),
        ] {
            let msg = op.expect_err("an op on a poisoned queue must panic");
            let text = msg
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| msg.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(text.contains("poisoned"), "panic message: {text}");
        }
        // The failed ops touched neither the poison nor the entries.
        assert!(q.is_poisoned());
        assert_eq!(q.approx_len(), 1);
    }

    /// A `Q` that is not [`BinaryHeap`]: an ordered map keyed by
    /// (priority, arrival number), so ties leave in FIFO order.
    #[derive(Default)]
    struct MapQueue<V> {
        map: std::collections::BTreeMap<(u64, u64), V>,
        arrivals: u64,
    }

    impl<V> SeqPriorityQueue<u64, V> for MapQueue<V> {
        fn add(&mut self, priority: u64, value: V) {
            self.map.insert((priority, self.arrivals), value);
            self.arrivals += 1;
        }
        fn delete_min(&mut self) -> Option<(u64, V)> {
            self.map.pop_first().map(|((p, _), v)| (p, v))
        }
        fn read_min(&self) -> Option<(&u64, &V)> {
            self.map.iter().next().map(|((p, _), v)| (p, v))
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn clear(&mut self) {
            self.map.clear();
        }
    }

    #[test]
    fn works_over_a_second_sequential_queue() {
        let q: LockedPq<u64, MapQueue<u64>> = LockedPq::default();
        for i in (0..100u64).rev() {
            q.insert(i, i);
        }
        assert_eq!(q.min_hint(), 0);
        for i in 0..100u64 {
            assert_eq!(q.remove_min(), Some((i, i)));
        }
        assert_eq!(q.min_hint(), EMPTY_HINT);
    }
}
