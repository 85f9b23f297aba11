//! Once a thread's handle has run its largest transaction shape, no
//! attempt — committed, aborted by the body, or aborted by somebody
//! else's lock — touches the allocator: the read set and write set
//! live in the `TxThread`, and commit keeps its bookkeeping in them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use dlz_core::rng::{reseed_thread_rng, Rng64, Xoshiro256};
use dlz_core::{ExactCounter, MultiCounter};
use dlz_stm::{Abort, ClockStrategy, RelaxedClock, Tl2, Tx, TxStats};

thread_local! {
    /// Allocations made by this thread. Per thread, so the libtest
    /// harness and the other tests of this binary stay out of the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note_allocation() {
    // `try_with`: a thread may still free or allocate while its
    // thread-locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The only extra work is bumping a
// const-initialised thread-local `Cell<u64>` with no destructor, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `dealloc`; size and layout are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) the calling thread makes inside `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

fn exact(slots: usize) -> Tl2<ExactCounter> {
    Tl2::new(slots, ExactCounter::new())
}

fn relaxed(slots: usize) -> Tl2<RelaxedClock> {
    Tl2::new(slots, RelaxedClock::new(MultiCounter::new(4), 16))
}

const TXNS: u64 = 10_000;

/// 10,000 transactions on one thread, alternating two handles: the
/// paper's two-slot update, a read-only transaction, and an update
/// whose body calls `tx.abort()` twice before it lets itself commit.
/// Returns the allocations made after the warm-up and the merged stats.
fn steady_state<C: ClockStrategy>(stm: &Tl2<C>) -> (u64, TxStats) {
    reseed_thread_rng(5);
    let slots = stm.array().len() as u64;
    let mut handles = [stm.thread(), stm.thread()];
    for h in &mut handles {
        h.run(|tx| {
            tx.add(0, 1)?;
            tx.add(1, 1)
        });
    }
    let mut rng = Xoshiro256::new(7);
    let allocs = allocations_during(|| {
        for k in 0..TXNS {
            let h = &mut handles[(k % 2) as usize];
            let (i, j) = (rng.bounded(slots) as usize, rng.bounded(slots) as usize);
            match k % 3 {
                0 => h.run(|tx| {
                    tx.add(i, 1)?;
                    tx.add(j, 1)
                }),
                1 => {
                    std::hint::black_box(h.run(|tx| tx.read(i)));
                }
                _ => {
                    let mut attempts = 0;
                    h.run(|tx| {
                        tx.add(i, 1)?;
                        attempts += 1;
                        if attempts < 3 {
                            tx.abort()
                        } else {
                            Ok(())
                        }
                    });
                }
            }
        }
    });
    let mut stats = handles[0].stats();
    stats.merge(&handles[1].stats());
    (allocs, stats)
}

#[test]
fn steady_state_transactions_do_not_allocate() {
    let (allocs, stats) = steady_state(&exact(8));
    assert_eq!(allocs, 0, "exact clock: {stats:?}");
    assert_eq!(stats.commits, TXNS + 2);
    assert_eq!(stats.user, 2 * (TXNS / 3));

    // Eight slots stamped Δ ahead: re-reading a fresh write aborts on
    // its future version, so the on_abort path is in the count too.
    let (allocs, stats) = steady_state(&relaxed(8));
    assert_eq!(allocs, 0, "RelaxedClock: {stats:?}");
    assert_eq!(stats.commits, TXNS + 2);
    assert_eq!(stats.user, 2 * (TXNS / 3));
    assert!(stats.future_version > 0, "{stats:?}");
}

/// Slots the holder thread's transaction writes — and so locks, slot 0
/// first and for the longest, during most of its running time.
const WIDE: usize = 64;

fn write_all_wide(tx: &mut Tx<'_>) -> Result<(), Abort> {
    for i in 0..WIDE {
        tx.write(i, 1);
    }
    Ok(())
}

/// Attempts stopped by a lock somebody else holds. A lock is only ever
/// held inside a commit, so this takes a second thread: it commits
/// `WIDE`-slot transactions back to back while this one reads and
/// updates slot 0, for at least 10,000 transactions and until the
/// statistics show a lock-stopped attempt (bounded, so a host that
/// never overlaps the two fails the test instead of hanging it).
/// Returns both threads' allocations after warm-up and this one's stats.
fn under_a_held_lock<C: ClockStrategy>(stm: &Tl2<C>) -> (u64, u64, TxStats) {
    const GIVE_UP: u64 = 200_000_000;
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let holder = s.spawn(|| {
            let mut h = stm.thread();
            h.run(write_all_wide);
            allocations_during(|| {
                while !done.load(Ordering::Relaxed) {
                    h.run(write_all_wide);
                }
            })
        });
        let mut h = stm.thread();
        h.run(|tx| tx.add(0, 1));
        let lock_stopped = |s: TxStats| s.locked_read + s.lock_busy;
        let allocs = allocations_during(|| {
            let mut txns = 0;
            while txns < TXNS || (lock_stopped(h.stats()) == 0 && txns < GIVE_UP) {
                if txns % 2 == 0 {
                    h.run(|tx| tx.add(0, 1));
                } else {
                    std::hint::black_box(h.run(|tx| tx.read(0)));
                }
                txns += 1;
            }
        });
        // Nothing above may panic: the holder only stops on this store.
        done.store(true, Ordering::Relaxed);
        (allocs, holder.join().expect("holder thread"), h.stats())
    })
}

#[test]
fn attempts_aborted_by_a_held_lock_do_not_allocate() {
    let (allocs, holder_allocs, stats) = under_a_held_lock(&exact(WIDE));
    assert!(stats.locked_read + stats.lock_busy > 0, "{stats:?}");
    assert_eq!((allocs, holder_allocs), (0, 0), "exact clock: {stats:?}");

    let (allocs, holder_allocs, stats) = under_a_held_lock(&relaxed(WIDE));
    assert!(stats.locked_read + stats.lock_busy > 0, "{stats:?}");
    assert_eq!((allocs, holder_allocs), (0, 0), "RelaxedClock: {stats:?}");
}
