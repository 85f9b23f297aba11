//! # dlz-pq — priority-queue substrates
//!
//! Sequential priority queues and the locking machinery used to turn them
//! into the "m linearizable priority queues" assumed by Algorithm 2 of
//! *Distributionally Linearizable Data Structures* (SPAA 2018).
//!
//! The crate provides:
//!
//! * [`SeqPriorityQueue`] — the sequential interface (`add`, `delete_min`,
//!   `read_min`) that the paper's MultiQueue builds on.
//! * [`BinaryHeap`] — the one implementation: an implicit 4-ary array
//!   heap, fronted by a four-entry sorted buffer of its smallest
//!   entries, that breaks priority ties in FIFO order using an internal
//!   sequence number, which is what gives the MultiQueue its queue-like
//!   semantics when priorities are timestamps. A pop's descent picks
//!   each level's smallest child without a branch and prefetches the
//!   grandchildren's lines; the name predates the 4-ary layout. A
//!   pairing heap, a skip list and three other 4-ary descents were
//!   measured against it and removed (README, "Verdicts").
//! * [`Backoff`] — exponential backoff (spin, then yield) for contended
//!   retry loops.
//! * [`CachePadded`] — 128-byte cache-line padding for `dlz-core`'s
//!   counters (`ExactCounter`, `MultiCounter`, `ShardedCounter`).
//! * [`LockedPq`] — a linearizable concurrent priority queue whose lock
//!   flag, poison flag and entry count are packed into a single atomic
//!   header word. The header, the published
//!   minimum hint and the heap's own header words share one cache line,
//!   so readers perform the *ReadMin* step of Algorithm 2 without taking
//!   the lock, and the lock holder's heap-header writes ride on the
//!   line its lock CAS already moved; the struct's 128-byte alignment
//!   keeps adjacent queues from false sharing. [`LockedPq::attempt`] —
//!   one whole operation as a closure, ending in an [`Attempt`] — is
//!   the surface the MultiQueue's operation loop drives, and the only
//!   way to run code under the lock; [`LockedPq::salvage_into`], which drains a
//!   poisoned queue back into service, is the only way to take the
//!   lock despite poison. The packed lock is the only per-queue
//!   concurrency discipline: a lock-free claim/drain queue, a flat
//!   combiner and a `std::sync::Mutex` twin of the packed lock were
//!   measured against it and removed (README, "Verdicts"). One
//!   `LockedPq` over one [`BinaryHeap`] is also the exact (non-relaxed)
//!   baseline: a single global lock whose every `remove_min` returns
//!   the true minimum.
//! * [`ContentionStats`] — plain-`u64`, single-owner hot-path counters
//!   recorded by [`LockedPq::attempt`] and merged like worker metrics.
//!
//! Everything in this crate is deterministic given its seeds: there is no
//! global RNG and no dependence on wall-clock time.

#![warn(missing_docs)]

pub mod binary_heap;
pub mod locked;
pub mod padded;
pub mod spinlock;
pub mod stats;
pub mod traits;

pub use binary_heap::BinaryHeap;
pub use locked::{Attempt, LockedPq};
pub use padded::CachePadded;
pub use spinlock::Backoff;
pub use stats::ContentionStats;
pub use traits::{ConcurrentPq, SeqPriorityQueue};
