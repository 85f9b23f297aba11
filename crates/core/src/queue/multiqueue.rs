//! The MultiQueue — Algorithm 2 of the paper.
//!
//! ```text
//! function Enqueue(e)
//!     p <- Clock.Read(); i <- random(1, m); PQs[i].Add(e, p)
//!
//! function Dequeue()
//!     i <- random(1, m); j <- random(1, m)
//!     (ei, pi) <- PQs[i].ReadMin(); (ej, pj) <- PQs[j].ReadMin()
//!     if pi > pj: i = j
//!     return PQs[i].DeleteMin()
//! ```
//!
//! This module implements the priority-queue core (explicit `u64`
//! priorities). Section 7.1's relaxed FIFO is the same structure with
//! clock-tick priorities: its caller draws each from an
//! [`ExactCounter`] and inserts it as the priority.
//!
//! # Architecture: structure × choice policy × handle, one loop
//!
//! The paper's guarantee is a property of the **choice process** layered
//! over the `m` queues, not of one hard-coded method, so the selection
//! layer is one concrete [`Policy`] — best of `d` hints per dequeue,
//! camps of `s` same-kind ops; two-choice, d-choice and stickiness are
//! its points (see [`policy`](crate::queue::policy)).
//! The shared [`MultiQueue`] holds only the queues and a default
//! [`PolicyCfg`]; all per-thread state — the RNG, the policy instance
//! and the contention counters — lives in an [`MqHandle`], the
//! operational surface:
//!
//! * [`MqHandle::insert`] / [`MqHandle::dequeue`], their batch forms
//!   [`MqHandle::insert_batch`] / [`MqHandle::dequeue_batch`] and the
//!   deadline-bounded [`MqHandle::try_insert_for`] /
//!   [`MqHandle::try_dequeue_for`];
//! * [`MqHandle::stamped`] — the orthogonal history mode: a stamped
//!   [`Stamped::insert`] / [`Stamped::dequeue`], each drawing an
//!   update-point stamp inside its critical section for the Section 5
//!   checker. These single insert / delete-min events are what a
//!   recorded history holds; a batch is never recorded.
//!
//! Best-of-`d` dequeues are a policy like any other:
//! `MqHandle::with_policy(&mq, seed, PolicyCfg::DChoice { d }.build())`.
//!
//! Every operation is the same three steps — choose a queue, run the
//! operation on it under its lock, react to how that ended —
//! so there is **one operation loop**, private to [`MqHandle`]. It
//! runs on the handle's own policy, generator and contention counters
//! and takes the operation kind, an optional deadline and the
//! operation itself as a closure over the chosen sequential queue.
//! There is no other way in: every operation, including
//! [`MultiQueue::salvage`]'s re-homing and the [`ConcurrentPq`] impl,
//! runs on a handle. Choosing, the poisoned-queue fallback,
//! backoff, the policy callbacks, the emptiness proof and the deadline
//! check exist there and nowhere else. Insert, dequeue and their batch
//! forms are short closures over it. There is one acquisition rule: an
//! operation waits for the lock of the queue it chose, as Algorithm 2
//! does. A deadline is the one exception — it forces try-lock
//! acquisition (never wait on a lock a stalled thread may hold) and
//! carries the error to return, so an unbounded operation has none.
//! History stamping is a type parameter of the single insert and
//! dequeue closures, not a second loop: the unstamped form draws `()`,
//! the stamped form draws a `u64` from the caller's counter, in both
//! cases right after the mutation and inside the critical section.
//!
//! Below the choice process there is one per-queue concurrency
//! discipline — the paper's "m linearizable priority queues" are `m`
//! packed-lock [`LockedPq`]s, held directly and driven through
//! [`LockedPq::attempt`], whose [`Attempt`] (ran / contended /
//! poisoned) plus the closure's own "found it empty" are all the loop
//! reacts to.
//!
//! The `ReadMin` step uses the lock-free hint published by
//! [`LockedPq`] — by the time the chosen queue is locked, its minimum
//! may have changed. That is not a bug: the rank analysis (Theorem 7.1)
//! is precisely about surviving such staleness, and the hint-based
//! implementation matches the practical MultiQueues the paper cites
//! (\[27\], \[3\]).
//!
//! # Hot-path engineering
//!
//! * Each [`LockedPq`] packs lock flag, poison flag and entry count
//!   into one atomic header next to the min hint, on a 128-byte-aligned
//!   line, so a `ReadMin` touches one line and adjacent queues never
//!   false-share.
//! * A successful operation touches **no structure-wide word**: only the
//!   hints it sampled and the one queue it acquired, which is the
//!   paper's premise (a shared size counter would be one cache line
//!   written by every operation — the very fetch-and-add bottleneck the
//!   MultiCounter exists to avoid). A dequeue proves emptiness with an
//!   O(m) sweep of the per-queue headers, and runs it only after
//!   *evidence* of emptiness — the policy found no candidate, or the
//!   acquired queue turned out empty — never after mere contention and
//!   never on the successful path.
//! * The loop uses [`Backoff`] instead of spinning hot on stale hints.
//! * Sticky policies skip random draws and hint reads while camped, and
//!   the batch operations amortize one lock acquisition and one hint
//!   publish over a whole batch. Both trade rank quality for throughput
//!   within the policy's documented envelope (O(s·m) for stickiness).

use std::convert::Infallible;
use std::time::{Duration, Instant};

use dlz_pq::locked::EMPTY_HINT;
use dlz_pq::{
    Attempt, Backoff, BinaryHeap, ConcurrentPq, ContentionStats, LockedPq, SeqPriorityQueue,
};

use crate::counter::ExactCounter;
use crate::queue::policy::{ChoiceOp, Policy, PolicyCfg};
use crate::rng::{with_thread_rng, Rng64, Xoshiro256};

/// The acquisition rule, which has one value: an operation locks the
/// queue it chose (Algorithm 2 as written), waiting for it unless a
/// `try_*_for` deadline forbids waiting.
///
/// The type stays only because the `dlz-benchmark` crate passes it to
/// [`MultiQueue::with_config`] and [`MultiQueueBuilder::delete_mode`]
/// (and, in `dlz-workload`, to `MultiQueueBackend::heap` and
/// `heap_policy`); all four ignore it, and a change to the benchmark
/// crate drops those parameters together with this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeleteMode {
    /// Lock the chosen queue (Algorithm 2 as written).
    #[default]
    Strict,
}

/// A relaxed concurrent priority queue over `m` locked sequential queues.
///
/// # Example
/// ```
/// use dlz_core::MultiQueue;
///
/// let mq: MultiQueue<&str> = MultiQueue::<&str>::builder().queues(4).build();
/// let mut h = mq.handle(1);
/// h.insert(30, "c");
/// h.insert(10, "a");
/// h.insert(20, "b");
/// // Dequeues come out in *approximately* ascending priority order;
/// // every element is eventually returned exactly once.
/// let mut got: Vec<_> = (0..3).map(|_| h.dequeue().unwrap()).collect();
/// got.sort();
/// assert_eq!(got, vec![(10, "a"), (20, "b"), (30, "c")]);
/// assert_eq!(h.dequeue(), None);
/// ```
#[derive(Debug)]
pub struct MultiQueue<V, Q = BinaryHeap<u64, V>>
where
    Q: SeqPriorityQueue<u64, V> + Send,
    V: Send,
{
    /// Each [`LockedPq`] keeps its hot words cache padded, so adjacent
    /// queues in this array never false-share.
    queues: Box<[LockedPq<V, Q>]>,
    /// Default choice policy; every [`handle`](Self::handle) builds its
    /// own per-handle instance from this config.
    policy: PolicyCfg,
}

/// What a [`MultiQueue::salvage`] sweep recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageOutcome {
    /// Poisoned queues that were drained and returned to service.
    pub queues_salvaged: usize,
    /// Entries recovered from those queues and reinserted into healthy
    /// ones.
    pub items_recovered: usize,
}

/// A bounded-retry [`MqHandle`] operation gave up: the deadline passed
/// without the operation landing (e.g. every lock it tried was held by
/// stalled threads, or all queues were poisoned).
///
/// This is the escape hatch from the blocking operations' "retry
/// forever" contract — fault-tolerant callers use
/// [`MqHandle::try_insert_for`] / [`MqHandle::try_dequeue_for`] and
/// turn this error into a diagnosis instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MqOpTimeout {
    /// Which operation kind gave up.
    pub op: ChoiceOp,
    /// The bound that elapsed.
    pub timeout: Duration,
}

impl std::fmt::Display for MqOpTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.op {
            ChoiceOp::Insert => "insert",
            ChoiceOp::Dequeue => "dequeue",
        };
        write!(f, "{kind} did not complete within {:?}", self.timeout)
    }
}

impl std::error::Error for MqOpTimeout {}

/// Consecutive poisoned choices an insert tolerates before it stops
/// trusting the policy and linear-scans for a healthy queue.
const POISON_RECHOOSE_LIMIT: u32 = 4;

/// When an operation gives up, and the error it then returns — the
/// operation loop's only failure.
type Deadline<E> = Option<(Instant, E)>;

/// Retry until the operation lands: no error exists, so the callers
/// that pass this have none to handle.
const NO_DEADLINE: Deadline<Infallible> = None;

/// How an operation marks its linearization point. The mark is drawn
/// inside the chosen queue's critical section, right after the
/// mutation it belongs to — the operation's linearization point in the
/// underlying linearizable queue — and there is no other place to draw
/// one from.
trait Stamp: Copy {
    /// What one draw yields.
    type Mark;
    /// Draws the next mark.
    fn draw(self) -> Self::Mark;
}

/// Plain operation: nothing is drawn, nothing is carried.
#[derive(Clone, Copy)]
struct NoStamp;

impl Stamp for NoStamp {
    type Mark = ();
    #[inline]
    fn draw(self) {}
}

/// History mode: update stamps from the caller's shared counter.
impl Stamp for &ExactCounter {
    type Mark = u64;
    #[inline]
    fn draw(self) -> u64 {
        self.fetch_increment()
    }
}

/// Drops the unit mark of an unstamped dequeue.
#[inline]
fn unstamped<V>((priority, value, ()): (u64, V, ())) -> (u64, V) {
    (priority, value)
}

/// Backs off before a retry (see [`Backoff`]), counting the snooze.
#[inline]
fn snooze(backoff: &mut Backoff, stats: &mut ContentionStats) {
    stats.note_snooze(backoff.is_yielding());
    backoff.snooze();
}

impl<V: Send> MultiQueue<V> {
    /// Starts building a `BinaryHeap`-backed MultiQueue.
    pub fn builder() -> MultiQueueBuilder {
        MultiQueueBuilder::default()
    }

    /// Creates a MultiQueue with `m` `BinaryHeap` queues and the
    /// two-choice policy.
    pub fn new(m: usize) -> Self {
        Self::with_config(
            (0..m).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
            PolicyCfg::TwoChoice,
        )
    }
}

impl<V: Send, Q: SeqPriorityQueue<u64, V> + Send> MultiQueue<V, Q> {
    /// Builds from explicit sequential queues (any substrate, entries
    /// already in them included) and a default choice policy. The
    /// [`DeleteMode`] argument has one value and is ignored.
    ///
    /// # Panics
    /// If `queues` is empty.
    pub fn with_config(queues: Vec<Q>, _: DeleteMode, policy: PolicyCfg) -> Self {
        assert!(!queues.is_empty(), "MultiQueue needs at least one queue");
        MultiQueue {
            queues: queues.into_iter().map(LockedPq::new).collect(),
            policy,
        }
    }

    /// Number of internal queues (the paper's `m`).
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// The structure's default choice policy (what [`handle`](Self::handle)
    /// builds instances from).
    pub fn policy(&self) -> PolicyCfg {
        self.policy
    }

    /// A deterministic operating handle: its own generator seeded with
    /// `seed` and an instance of the structure's default policy
    /// ([`MqHandle::with_policy`] takes an explicit one).
    pub fn handle(&self, seed: u64) -> MqHandle<'_, V, Q> {
        MqHandle::with_policy(self, seed, self.policy.build())
    }

    /// Total entries across queues, via an O(m) sweep of the per-queue
    /// headers. Exact when quiescent; transiently off by in-flight
    /// operations under concurrency. No operation consults it: the
    /// structure keeps no global count.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.approx_len()).sum()
    }

    /// `true` if no entries are observed (O(m) sweep; exact when
    /// quiescent, like [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of currently poisoned queues.
    pub fn poisoned_count(&self) -> usize {
        self.queues.iter().filter(|q| q.is_poisoned()).count()
    }

    /// First non-poisoned queue, if any — an insert's fallback when the
    /// policy keeps landing on poisoned queues.
    fn any_healthy_queue(&self) -> Option<usize> {
        (0..self.queues.len()).find(|&i| !self.queues[i].is_poisoned())
    }

    /// A dequeue's emptiness proof: an O(m) sweep of the per-queue
    /// headers that stops at the first queue holding anything. The
    /// operation loop calls it only after *evidence* of emptiness (no
    /// candidate from the policy, or an acquired queue that had
    /// nothing), so a successful dequeue never pays for it. A poisoned
    /// queue's items cannot be served until [`salvage`](Self::salvage)
    /// runs, so they count as absent — counting them would make the
    /// loop spin forever on a stranded remainder. Counts a confirmed
    /// observation in `stats`.
    fn confirmed_empty(&self, stats: &mut ContentionStats) -> bool {
        let empty = self
            .queues
            .iter()
            .all(|q| q.is_poisoned() || q.approx_len() == 0);
        stats.empty_confirms += u64::from(empty);
        empty
    }

    /// Best-effort recovery of poisoned queues: for every poisoned
    /// queue, acquires it past the poison, drains whatever entries the
    /// underlying sequential queue still serves consistently, returns
    /// the queue to service (the normal guard release recounts,
    /// republishes the hint and clears the poison bit), and reinserts
    /// the recovered entries into healthy queues.
    ///
    /// "Still consistent" is the sequential queue's own view: a panic
    /// in the middle of `add`/`delete_min` leaves whatever state that
    /// structure's panic safety left behind, and salvage trusts
    /// `delete_min` until it reports empty. Entries the panicked
    /// critical section had half-removed may be lost — hence
    /// *best-effort* — but everything recovered is re-served exactly
    /// once.
    ///
    /// Safe to call concurrently with operations and with other
    /// salvagers (the sweep is per-queue idempotent). Returns what was
    /// recovered.
    pub fn salvage(&self) -> SalvageOutcome {
        let mut out = SalvageOutcome::default();
        let mut recovered: Vec<(u64, V)> = Vec::new();
        for q in self.queues.iter().filter(|q| q.is_poisoned()) {
            q.salvage_into(&mut recovered);
            out.queues_salvaged += 1;
        }
        out.items_recovered = recovered.len();
        // Re-home the survivors through a handle's insert (which skips
        // any queue poisoned since), under a fixed seed: salvage is a
        // recovery sweep, deterministic given the drained set.
        let mut rehome = MqHandle::with_policy(self, 0x5a17a9e, PolicyCfg::TwoChoice.build());
        for (p, v) in recovered {
            rehome.insert(p, v);
        }
        out
    }

    /// The [`ConcurrentPq`] impl's per-call handle: two-choice, seeded
    /// from the thread-local generator.
    fn throwaway_handle(&self) -> MqHandle<'_, V, Q> {
        let seed = with_thread_rng(|rng| rng.next_u64());
        MqHandle::with_policy(self, seed, PolicyCfg::TwoChoice.build())
    }

    /// Drains everything into a sorted vector (sequential; for tests).
    pub fn drain_sorted(&self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        for q in self.queues.iter() {
            q.salvage_into(&mut out);
        }
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

/// MultiQueues are themselves concurrent priority queues, so they slot
/// into any code written against [`ConcurrentPq`] (e.g. the SSSP
/// example uses one exact [`LockedPq`](dlz_pq::LockedPq) and the
/// MultiQueue interchangeably). Each call runs on a throwaway handle:
/// fresh two-choice sampling, seeded from the thread-local generator.
impl<V: Send, Q: SeqPriorityQueue<u64, V> + Send> ConcurrentPq<V> for MultiQueue<V, Q> {
    fn insert(&self, priority: u64, value: V) {
        self.throwaway_handle().insert(priority, value);
    }

    fn remove_min(&self) -> Option<(u64, V)> {
        self.throwaway_handle().dequeue()
    }

    fn min_hint(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.min_hint())
            .min()
            .unwrap_or(EMPTY_HINT)
    }

    fn approx_len(&self) -> usize {
        self.len()
    }
}

/// Builder for `BinaryHeap`-backed [`MultiQueue`]s.
#[derive(Debug, Clone, Default)]
pub struct MultiQueueBuilder {
    queues: Option<usize>,
    policy: PolicyCfg,
}

impl MultiQueueBuilder {
    /// Sets the number of internal queues `m` explicitly.
    pub fn queues(mut self, m: usize) -> Self {
        self.queues = Some(m);
        self
    }

    /// Accepts the one [`DeleteMode`] and changes nothing.
    pub fn delete_mode(self, _: DeleteMode) -> Self {
        self
    }

    /// Sets the default choice policy (default
    /// [`PolicyCfg::TwoChoice`]); handles built from the structure
    /// inherit it, and [`MqHandle::with_policy`] overrides it per
    /// handle.
    pub fn policy(mut self, policy: PolicyCfg) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the MultiQueue.
    ///
    /// # Panics
    /// If `queues` was not given.
    pub fn build<V: Send>(self) -> MultiQueue<V> {
        let m = self.queues.expect("MultiQueueBuilder: set .queues(m)");
        MultiQueue::with_config(
            (0..m).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
            self.policy,
        )
    }
}

/// The MultiQueue's operational surface: a structure reference plus the
/// per-thread state the choice process needs — a private seeded RNG and
/// a [`Policy`] instance.
///
/// [`MultiQueue::handle`] builds the structure's default policy;
/// [`MqHandle::with_policy`] overrides it with any built [`PolicyCfg`] —
/// per-handle policies by construction, no thread-local machinery.
///
/// # Example
/// ```
/// use dlz_core::queue::{MqHandle, MultiQueue, PolicyCfg};
///
/// let mq: MultiQueue<u64> = MultiQueue::new(8);
/// // This handle camps on its chosen queues for 4 same-kind ops...
/// let mut sticky = MqHandle::with_policy(&mq, 1, PolicyCfg::Sticky { ops: 4 }.build());
/// // ...while this one keeps the structure's fresh two-choice default.
/// let mut fresh = mq.handle(2);
/// sticky.insert(10, 10);
/// assert_eq!(fresh.dequeue(), Some((10, 10)));
/// ```
pub struct MqHandle<'a, V, Q = BinaryHeap<u64, V>>
where
    V: Send,
    Q: SeqPriorityQueue<u64, V> + Send,
{
    mq: &'a MultiQueue<V, Q>,
    rng: Xoshiro256,
    policy: Policy,
    /// Hot-path contention counters, accumulated without atomics (the
    /// handle is single-owner) and drained by
    /// [`take_contention`](Self::take_contention).
    stats: ContentionStats,
}

impl<'a, V: Send, Q: SeqPriorityQueue<u64, V> + Send> MqHandle<'a, V, Q> {
    /// Creates a handle with its own seeded generator and an explicit
    /// per-handle policy (overriding the structure's default).
    pub fn with_policy(mq: &'a MultiQueue<V, Q>, seed: u64, policy: Policy) -> Self {
        MqHandle {
            mq,
            rng: Xoshiro256::new(seed),
            policy,
            stats: ContentionStats::new(),
        }
    }

    /// The contention counters accumulated by this handle's operations
    /// since creation (or the last [`take_contention`]), with the
    /// policy's own counters (camp switches) flushed in.
    ///
    /// [`take_contention`]: Self::take_contention
    pub fn contention(&mut self) -> &ContentionStats {
        self.policy.flush_telemetry(&mut self.stats);
        &self.stats
    }

    /// Drains the handle's contention counters for one telemetry
    /// interval: flushes the policy's counters, returns the totals and
    /// resets them.
    pub fn take_contention(&mut self) -> ContentionStats {
        self.policy.flush_telemetry(&mut self.stats);
        self.stats.take()
    }

    /// The operation loop — the only one. Chooses a queue for `op`
    /// through the handle's policy, runs `body` on it under its lock
    /// (waiting for the lock unless there is a deadline), and reacts to
    /// how that ended until the operation lands, the structure is
    /// confirmed empty (`Ok(None)`, dequeues only) or the deadline
    /// passes (`Err` of the error the deadline carries).
    ///
    /// `body` runs inside the chosen queue's critical section, at most
    /// once per acquisition and never after it returned `Some`: an
    /// insert body moves its entries in and always returns `Some`; a
    /// dequeue body returns `None` when the queue it was given turned
    /// out empty. The lock is released before any policy callback runs.
    #[inline]
    fn run<R, E: Copy>(
        &mut self,
        op: ChoiceOp,
        deadline: Deadline<E>,
        mut body: impl FnMut(&mut Q) -> Option<R>,
    ) -> Result<Option<R>, E> {
        let mq = self.mq;
        let (rng, policy, stats) = (&mut self.rng, &mut self.policy, &mut self.stats);
        // An operation waits for the lock of the queue it chose, as
        // Algorithm 2 does; only one with a deadline redraws instead —
        // the point of one is to never wait on an acquisition a stalled
        // thread may hold.
        let block = deadline.is_none();
        let mut backoff = Backoff::new();
        let mut poisoned_hits = 0u32;
        loop {
            if let Some((_, passed)) = deadline.filter(|(at, _)| Instant::now() >= *at) {
                return Err(passed);
            }
            let chosen = match op {
                // After enough consecutive poisoned choices, stop
                // trusting the policy's draw and take any healthy queue
                // directly — inserts must land somewhere, and a small-m
                // structure with most queues poisoned could otherwise
                // redraw for a long time.
                ChoiceOp::Insert if poisoned_hits >= POISON_RECHOOSE_LIMIT => {
                    mq.any_healthy_queue()
                }
                ChoiceOp::Insert => Some(policy.choose_insert(rng, mq.queues.len())),
                ChoiceOp::Dequeue => {
                    policy.choose_dequeue(rng, mq.queues.len(), |q| mq.queues[q].min_hint())
                }
            };
            let Some(i) = chosen else {
                match op {
                    // Nowhere to land. Without a deadline that is fatal
                    // (nothing here can un-poison a queue); with one,
                    // wait it out in case a salvager gets there first.
                    ChoiceOp::Insert => assert!(
                        deadline.is_some(),
                        "every queue is poisoned; salvage() before inserting"
                    ),
                    // Only *evidence* of emptiness — no candidate here,
                    // or an acquired queue that was empty below — pays
                    // for the sweep.
                    ChoiceOp::Dequeue => {
                        if mq.confirmed_empty(stats) {
                            return Ok(None);
                        }
                    }
                }
                snooze(&mut backoff, stats);
                continue;
            };
            match mq.queues[i].attempt(block, stats, &mut body) {
                Attempt::Ran(Some(done)) => {
                    policy.on_success(op, i);
                    return Ok(Some(done));
                }
                // Poison is not contention: evict any camp on the dead
                // queue and re-choose immediately (the poisoned queue
                // publishes the empty hint, so fresh samples steer
                // clear — no snooze needed and none recorded).
                Attempt::Poisoned => {
                    policy.on_poisoned(i);
                    poisoned_hits += 1;
                    continue;
                }
                // A stale hint or drained camp (ran, found nothing) or
                // a contended acquisition: void any camp — the next
                // choice draws elsewhere — and back off below rather
                // than hammering the hint lines. Only the former says
                // anything about emptiness; a held lock does not.
                Attempt::Ran(None) => {
                    policy.on_contention(op);
                    if mq.confirmed_empty(stats) {
                        return Ok(None);
                    }
                }
                Attempt::Contended => policy.on_contention(op),
            }
            // Near-free at first, escalating to yielding under
            // sustained contention so lock holders get CPU (vital when
            // oversubscribed).
            snooze(&mut backoff, stats);
        }
    }

    /// Enqueue (Algorithm 2's Enqueue under [`PolicyCfg::TwoChoice`]);
    /// returns the insert's mark.
    #[inline]
    fn insert_op<S: Stamp, E: Copy>(
        &mut self,
        deadline: Deadline<E>,
        stamp: S,
        priority: u64,
        value: V,
    ) -> Result<S::Mark, E> {
        let mut entry = Some((priority, value));
        self.run(ChoiceOp::Insert, deadline, |q| {
            let (p, v) = entry.take()?;
            q.add(p, v);
            Some(stamp.draw())
        })
        .map(|mark| mark.expect("an insert lands on the first queue it acquires"))
    }

    /// Dequeue (Algorithm 2's Dequeue under [`PolicyCfg::TwoChoice`]).
    /// `Ok(None)` is the confirmed-empty observation documented on
    /// [`dequeue`](Self::dequeue).
    #[inline]
    fn dequeue_op<S: Stamp, E: Copy>(
        &mut self,
        deadline: Deadline<E>,
        stamp: S,
    ) -> Result<Option<(u64, V, S::Mark)>, E> {
        self.run(ChoiceOp::Dequeue, deadline, |q| {
            q.delete_min().map(|(p, v)| (p, v, stamp.draw()))
        })
    }

    /// Enqueue through the handle's policy.
    pub fn insert(&mut self, priority: u64, value: V) {
        let Ok(()) = self.insert_op(NO_DEADLINE, NoStamp, priority, value);
    }

    /// Dequeue through the handle's policy.
    ///
    /// Returns `None` only after observing a globally empty structure;
    /// with concurrent enqueuers a `None` means "empty at some sample
    /// point", the strongest statement a relaxed queue can make.
    pub fn dequeue(&mut self) -> Option<(u64, V)> {
        let Ok(served) = self.dequeue_op(NO_DEADLINE, NoStamp);
        served.map(unstamped)
    }

    /// Inserts a whole batch into one policy-chosen queue under a
    /// single lock acquisition, with a single hint publish. Returns the
    /// number of items inserted; an empty batch is a no-op.
    ///
    /// The batch counts as *one* operation for camping policies; its
    /// rank effect is like stickiness with `s = batch` (the batch lands
    /// in one queue), degrading within the same O(s·m) envelope.
    pub fn insert_batch(&mut self, items: impl IntoIterator<Item = (u64, V)>) -> usize {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return 0;
        }
        let Ok(n) = self.run(ChoiceOp::Insert, NO_DEADLINE, |q| {
            let mut n = 0usize;
            for (p, v) in items.by_ref() {
                q.add(p, v);
                n += 1;
            }
            Some(n)
        });
        n.expect("a batch lands on the first queue it acquires")
    }

    /// Bounded-retry insert: like [`insert`](Self::insert) but never
    /// blocks on a held lock (it chooses again instead) and gives up
    /// with a structured [`MqOpTimeout`] once `timeout` elapses — e.g.
    /// when stalled threads hold every lock the policy samples, or
    /// every queue is poisoned (where [`insert`](Self::insert) panics).
    /// On `Err` the value is dropped, not inserted.
    pub fn try_insert_for(
        &mut self,
        priority: u64,
        value: V,
        timeout: Duration,
    ) -> Result<(), MqOpTimeout> {
        let timed_out = MqOpTimeout {
            op: ChoiceOp::Insert,
            timeout,
        };
        let deadline = Some((Instant::now() + timeout, timed_out));
        self.insert_op(deadline, NoStamp, priority, value)
    }

    /// Bounded-retry dequeue: like [`dequeue`](Self::dequeue) but never
    /// blocks on a held lock and gives up with a structured
    /// [`MqOpTimeout`] once `timeout` elapses. `Ok(None)` is the same
    /// confirmed-empty observation as the blocking dequeue's `None`;
    /// `Err` means the structure could not be served in time (not that
    /// it is empty).
    pub fn try_dequeue_for(&mut self, timeout: Duration) -> Result<Option<(u64, V)>, MqOpTimeout> {
        let timed_out = MqOpTimeout {
            op: ChoiceOp::Dequeue,
            timeout,
        };
        let deadline = Some((Instant::now() + timeout, timed_out));
        self.dequeue_op(deadline, NoStamp)
            .map(|served| served.map(unstamped))
    }

    /// Removes up to `max` entries from one policy-chosen queue under a
    /// single lock acquisition, appending them to `out` in ascending
    /// (per-queue) priority order. Returns the number taken.
    ///
    /// Returns `0` only after observing a globally empty structure —
    /// the same emptiness contract as [`dequeue`](Self::dequeue).
    pub fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, V)>) -> usize {
        if max == 0 {
            return 0;
        }
        let Ok(n) = self.run(ChoiceOp::Dequeue, NO_DEADLINE, |q| {
            let mut n = 0usize;
            while n < max {
                let Some(entry) = q.delete_min() else { break };
                out.push(entry);
                n += 1;
            }
            (n > 0).then_some(n)
        });
        n.unwrap_or(0)
    }

    /// Switches the handle into **history mode**: a single
    /// [`insert`](Stamped::insert) or [`dequeue`](Stamped::dequeue) over
    /// the same loop, drawing an update-point stamp from `stamper`
    /// inside its critical section — i.e. at the operation's
    /// linearization point in the underlying linearizable queue, right
    /// after the mutation. The distributional-linearizability checker
    /// replays histories in stamp order (Definition 5.2's mapping).
    ///
    /// # Example
    /// ```
    /// use dlz_core::{ExactCounter, MultiQueue};
    ///
    /// let mq: MultiQueue<u64> = MultiQueue::new(4);
    /// let stamper = ExactCounter::new();
    /// let mut h = mq.handle(7);
    /// let s0 = h.stamped(&stamper).insert(10, 10);
    /// let (p, _, s1) = h.stamped(&stamper).dequeue().unwrap();
    /// assert_eq!(p, 10);
    /// assert!(s1 > s0);
    /// ```
    pub fn stamped<'s>(&'s mut self, stamper: &'s ExactCounter) -> Stamped<'s, 'a, V, Q> {
        Stamped {
            handle: self,
            stamper,
        }
    }
}

/// The handle's history mode — see [`MqHandle::stamped`]. Same policy,
/// same RNG, same loop; its [`insert`](Self::insert) and
/// [`dequeue`](Self::dequeue) return the update stamp drawn inside their
/// critical section. These are the events a recorded history holds.
pub struct Stamped<'s, 'a, V, Q = BinaryHeap<u64, V>>
where
    V: Send,
    Q: SeqPriorityQueue<u64, V> + Send,
{
    handle: &'s mut MqHandle<'a, V, Q>,
    stamper: &'s ExactCounter,
}

impl<V: Send, Q: SeqPriorityQueue<u64, V> + Send> Stamped<'_, '_, V, Q> {
    /// Stamped enqueue; returns the update stamp.
    pub fn insert(&mut self, priority: u64, value: V) -> u64 {
        let Ok(stamp) = self
            .handle
            .insert_op(NO_DEADLINE, self.stamper, priority, value);
        stamp
    }

    /// Stamped dequeue; returns `(priority, value, update stamp)`.
    pub fn dequeue(&mut self) -> Option<(u64, V, u64)> {
        let Ok(served) = self.handle.dequeue_op(NO_DEADLINE, self.stamper);
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn handle_contention_counters_drain_and_conserve() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let mut h = MqHandle::with_policy(&mq, 1, PolicyCfg::Sticky { ops: 4 }.build());
        // A dequeue on an empty structure ends in a confirmed-empty sweep.
        assert_eq!(h.dequeue(), None);
        assert_eq!(h.contention().empty_confirms, 1);
        // 100 inserts at s=4 start exactly 25 insert camps.
        for p in 0..100u64 {
            h.insert(p, p);
        }
        let drained = h.take_contention();
        assert_eq!(drained.camp_switches, 25);
        assert_eq!(drained.empty_confirms, 1);
        // The drain reset everything; nothing new happened since.
        assert!(h.contention().is_empty());
    }

    #[test]
    fn single_queue_is_exact() {
        // m = 1: both choices are the same queue, so dequeues are the
        // true minimum — the structure degenerates to an exact PQ.
        let mq: MultiQueue<()> = MultiQueue::new(1);
        let mut h = mq.handle(3);
        for p in [5u64, 2, 9, 1, 7] {
            h.insert(p, ());
        }
        let drained: Vec<u64> = std::iter::from_fn(|| h.dequeue().map(|(p, _)| p)).collect();
        assert_eq!(drained, vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn rank_error_is_bounded_in_practice() {
        // Sequential use: dequeue rank should be O(m); test a generous
        // multiple. (Statistical, deterministic seeds.) Priorities
        // inserted in ascending order are Section 7.1's relaxed FIFO,
        // whose clock ticks are exactly that: the rank is how far from
        // FIFO the dequeue was.
        let m = 8usize;
        for (seed, n) in [(4, 10_000u64), (2, 5_000)] {
            let mq: MultiQueue<()> = MultiQueue::new(m);
            let mut h = mq.handle(seed);
            for p in 0..n {
                h.insert(p, ());
            }
            use std::collections::BTreeSet;
            let mut present: BTreeSet<u64> = (0..n).collect();
            let mut max_rank = 0usize;
            for _ in 0..n {
                let (p, ()) = h.dequeue().unwrap();
                let rank = present.range(..p).count();
                max_rank = max_rank.max(rank);
                present.remove(&p);
            }
            // Theory: expected rank O(m), max over n steps O(m log n)-ish.
            assert!(
                max_rank <= 30 * m,
                "max rank {max_rank} too large, seed {seed}"
            );
        }
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
        let mq: MultiQueue<u64, MapQueue<u64>> = MultiQueue::with_config(
            (0..4).map(|_| MapQueue::default()).collect(),
            DeleteMode::Strict,
            PolicyCfg::TwoChoice,
        );
        let mut h = mq.handle(6);
        for p in 0..200u64 {
            h.insert(p, p);
        }
        let mut n = 0;
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn stamped_ops_produce_unique_ordered_stamps() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let stamper = ExactCounter::new();
        let mut h = mq.handle(7);
        let mut stamps = Vec::new();
        for p in 0..100u64 {
            stamps.push(h.stamped(&stamper).insert(p, p));
        }
        while let Some((_, _, s)) = h.stamped(&stamper).dequeue() {
            stamps.push(s);
        }
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "stamps must be unique");
    }

    #[test]
    fn k_choice_dequeue_conserves_for_all_k() {
        for k in [1usize, 2, 4] {
            let mq: MultiQueue<u64> = MultiQueue::new(8);
            let mut h =
                MqHandle::with_policy(&mq, 40 + k as u64, PolicyCfg::DChoice { d: k }.build());
            for p in 0..500u64 {
                h.insert(p, p);
            }
            let mut n = 0;
            while h.dequeue().is_some() {
                n += 1;
            }
            assert_eq!(n, 500, "k={k}");
        }
    }

    #[test]
    fn more_choices_tighten_rank_distribution() {
        use std::collections::BTreeSet;
        let rank_sum = |k: usize| {
            let m = 16;
            let mq: MultiQueue<u64> = MultiQueue::new(m);
            let mut h = MqHandle::with_policy(&mq, 77, PolicyCfg::DChoice { d: k }.build());
            let n = 4_000u64;
            for p in 0..n {
                h.insert(p, p);
            }
            let mut present: BTreeSet<u64> = (0..n).collect();
            let mut sum = 0usize;
            for _ in 0..n {
                let (p, _) = h.dequeue().unwrap();
                sum += present.range(..p).count();
                present.remove(&p);
            }
            sum
        };
        let one = rank_sum(1);
        let two = rank_sum(2);
        let four = rank_sum(4);
        assert!(one > two, "k=1 total rank {one} should exceed k=2 {two}");
        assert!(two >= four, "k=2 total rank {two} should be >= k=4 {four}");
    }

    #[test]
    fn drain_sorted_collects_everything() {
        let mq: MultiQueue<char> = MultiQueue::new(4);
        let mut h = mq.handle(8);
        h.insert(3, 'c');
        h.insert(1, 'a');
        h.insert(2, 'b');
        assert_eq!(mq.drain_sorted(), vec![(1, 'a'), (2, 'b'), (3, 'c')]);
        assert!(mq.is_empty());
    }

    #[test]
    fn builder_forms() {
        let a: MultiQueue<()> = MultiQueue::<()>::builder().queues(6).build();
        assert_eq!(a.num_queues(), 6);
        assert_eq!(a.policy(), PolicyCfg::TwoChoice);
        let b: MultiQueue<()> = MultiQueue::<()>::builder()
            .queues(6)
            .delete_mode(DeleteMode::Strict)
            .policy(PolicyCfg::Sticky { ops: 8 })
            .build();
        assert_eq!(b.num_queues(), 6);
        assert_eq!(b.policy(), PolicyCfg::Sticky { ops: 8 });
        assert!(!b.policy().is_default());
    }

    #[test]
    fn handle_wraps_rng() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let mut h = mq.handle(9);
        for p in 0..50 {
            h.insert(p, p);
        }
        let mut n = 0;
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
        assert!(mq.is_empty());
    }

    #[test]
    fn sticky_one_and_dchoice_two_equal_two_choice_op_for_op() {
        // Policy equivalence on the real structure: under a fixed seed,
        // `Sticky { ops: 1 }` and `DChoice { d: 2 }` must replay the
        // exact operation sequence of the two-choice path.
        for seed in 0..16u64 {
            let reference: MultiQueue<u64> = MultiQueue::new(8);
            let sticky1: MultiQueue<u64> = MultiQueue::new(8);
            let dchoice2: MultiQueue<u64> = MultiQueue::new(8);
            let mut hr = MqHandle::with_policy(&reference, seed, PolicyCfg::TwoChoice.build());
            let mut hs =
                MqHandle::with_policy(&sticky1, seed, PolicyCfg::Sticky { ops: 1 }.build());
            let mut hd =
                MqHandle::with_policy(&dchoice2, seed, PolicyCfg::DChoice { d: 2 }.build());
            // Interleave inserts and dequeues so choices depend on the
            // evolving hint state, not just the RNG stream.
            for step in 0..600u64 {
                if step % 3 < 2 {
                    hr.insert(step, step);
                    hs.insert(step, step);
                    hd.insert(step, step);
                } else {
                    let a = hr.dequeue();
                    assert_eq!(a, hs.dequeue(), "sticky(1) diverged at {step}, seed {seed}");
                    assert_eq!(
                        a,
                        hd.dequeue(),
                        "dchoice(2) diverged at {step}, seed {seed}"
                    );
                }
            }
            let mut a = reference.drain_sorted();
            a.sort_unstable();
            let mut b = sticky1.drain_sorted();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sticky_camps_per_kind_on_the_structure() {
        // Regression for per-kind sticky state: with interleaved
        // inserts and dequeues on the *real structure*, every s-run of
        // inserts must land on a single queue — dequeue successes (or
        // stale-hint contentions) must not move or reset the insert
        // camp. Each insert's landing queue is read off the per-queue
        // length deltas (one thread, so the only change is the insert's
        // own); the old shared-camp bug broke the run structure because
        // dequeue successes re-camped the shared state.
        let m = 8;
        let s = 6usize;
        let mq: MultiQueue<u64> = MultiQueue::new(m);
        // Prefill through a separate handle so only the measured phase
        // is recorded, and dequeues always succeed.
        let mut prefill = mq.handle(10);
        for p in 0..1_000u64 {
            prefill.insert(p, p);
        }
        let lens = || -> Vec<usize> { mq.queues.iter().map(|q| q.approx_len()).collect() };
        let mut h = MqHandle::with_policy(&mq, 11, PolicyCfg::Sticky { ops: s }.build());
        let mut choices = Vec::new();
        // Strict alternation: insert, dequeue, insert, dequeue, ...
        for p in 1_000..1_000 + 10 * s as u64 {
            let before = lens();
            h.insert(p, p);
            let after = lens();
            choices.extend((0..m).filter(|&q| after[q] == before[q] + 1));
            assert!(h.dequeue().is_some());
        }
        // Exactly s consecutive equal choices per run (one thread never
        // contends: nothing voids an insert camp early).
        assert_eq!(choices.len(), 10 * s);
        for run in choices.chunks(s) {
            assert!(
                run.iter().all(|&q| q == run[0]),
                "insert camp disturbed by interleaved dequeues: {run:?}"
            );
        }
        // Conservation still holds.
        let mut n = mq.len();
        assert_eq!(n, 1_000);
        while h.dequeue().is_some() {
            n -= 1;
        }
        assert_eq!(n, 0);
    }

    #[test]
    fn sticky_handle_conserves_in_both_modes() {
        let mq: MultiQueue<u64> = MultiQueue::with_config(
            (0..8).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
            PolicyCfg::Sticky { ops: 6 },
        );
        let mut h = mq.handle(10);
        for p in 0..2_000u64 {
            h.insert(p, p);
        }
        assert_eq!(mq.len(), 2_000);
        let mut n = 0;
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 2_000);
        assert_eq!(mq.len(), 0);
    }

    #[test]
    fn sticky_stamped_ops_produce_unique_stamps() {
        let mq: MultiQueue<u64> = MultiQueue::with_config(
            (0..4).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
            PolicyCfg::Sticky { ops: 5 },
        );
        let stamper = ExactCounter::new();
        let mut h = mq.handle(11);
        let mut stamps = Vec::new();
        for p in 0..150u64 {
            stamps.push(h.stamped(&stamper).insert(p, p));
        }
        while let Some((_, _, s)) = h.stamped(&stamper).dequeue() {
            stamps.push(s);
        }
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 300, "stamps must be unique");
        assert!(mq.is_empty());
    }

    #[test]
    fn batch_ops_conserve_and_amortize() {
        let mq: MultiQueue<u64> = MultiQueue::new(8);
        let mut h = mq.handle(12);
        let mut inserted = 0usize;
        for chunk in 0..100u64 {
            let items: Vec<(u64, u64)> = (0..7).map(|i| (chunk * 7 + i, chunk * 7 + i)).collect();
            inserted += h.insert_batch(items);
        }
        assert_eq!(inserted, 700);
        assert_eq!(mq.len(), 700);
        let mut out = Vec::new();
        loop {
            let n = h.dequeue_batch(16, &mut out);
            if n == 0 {
                break;
            }
        }
        assert_eq!(out.len(), 700);
        let mut ps: Vec<u64> = out.iter().map(|(p, _)| *p).collect();
        ps.sort_unstable();
        ps.dedup();
        assert_eq!(ps.len(), 700, "batch dequeue duplicated or lost items");
        assert_eq!(mq.len(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let mut h = mq.handle(13);
        assert_eq!(h.insert_batch(std::iter::empty()), 0);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(0, &mut out), 0);
        assert_eq!(h.dequeue_batch(8, &mut out), 0);
        assert!(out.is_empty());
        assert!(mq.is_empty());
    }

    #[test]
    fn sticky_rank_stays_within_s_times_m_envelope() {
        use std::collections::BTreeSet;
        // Sequential statistical check of the documented O(s·m) bound:
        // drain a prefilled queue through a sticky handle and compare
        // mean dequeue rank against C·s·m (generous C, fixed seed).
        let m = 8usize;
        let s = 8usize;
        let mq: MultiQueue<u64> = MultiQueue::with_config(
            (0..m).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
            PolicyCfg::Sticky { ops: s },
        );
        let mut h = mq.handle(14);
        let n = 8_000u64;
        for p in 0..n {
            h.insert(p, p);
        }
        let mut present: BTreeSet<u64> = (0..n).collect();
        let mut sum = 0usize;
        let mut max_rank = 0usize;
        for _ in 0..n {
            let (p, _) = h.dequeue().unwrap();
            let rank = present.range(..p).count();
            sum += rank;
            max_rank = max_rank.max(rank);
            present.remove(&p);
        }
        let mean = sum as f64 / n as f64;
        let bound = 30.0 * (s * m) as f64;
        assert!(
            mean <= bound,
            "mean sticky rank {mean} above O(s·m) {bound}"
        );
        assert!(
            (max_rank as f64) <= 30.0 * (s * m) as f64 * (n as f64).ln(),
            "max sticky rank {max_rank} implausibly large"
        );
    }

    #[test]
    fn len_tracks_operations_when_quiescent() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let mut h = mq.handle(15);
        for p in 0..100u64 {
            h.insert(p, p);
        }
        assert_eq!(mq.len(), 100);
        for _ in 0..40 {
            h.dequeue();
        }
        assert_eq!(mq.len(), 60);
    }

    /// Panics inside queue `i`'s critical section (before mutating it),
    /// leaving the queue poisoned with its entries intact.
    fn poison_queue(mq: &MultiQueue<u64>, i: usize) {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mq.queues[i].attempt(true, &mut ContentionStats::new(), |_| -> () {
                panic!("injected fault")
            })
        }));
        assert!(r.is_err(), "the injected panic must propagate");
        assert!(mq.queues[i].is_poisoned(), "queue {i} should be poisoned");
    }

    #[test]
    fn poisoned_queue_is_routed_around_and_salvage_conserves_under_every_policy() {
        for cfg in [
            PolicyCfg::TwoChoice,
            PolicyCfg::DChoice { d: 3 },
            PolicyCfg::Sticky { ops: 6 },
        ] {
            let mq: MultiQueue<u64> = MultiQueue::with_config(
                (0..4).map(|_| BinaryHeap::new()).collect(),
                DeleteMode::Strict,
                cfg,
            );
            let mut h = mq.handle(31);
            for p in 0..200u64 {
                h.insert(p, p);
            }
            let stranded = mq.queues[0].approx_len();
            assert!(stranded > 0, "seed 31 should land items on queue 0");
            poison_queue(&mq, 0);
            assert_eq!(mq.poisoned_count(), 1);
            // Inserts route around the poisoned queue (the policy's
            // random draw will hit it; `on_poisoned` re-chooses).
            for p in 200..300u64 {
                h.insert(p, p);
            }
            // The blocking dequeue drains every reachable item and then
            // confirms empty — no deadlock, no spin on the stranded
            // remainder.
            let mut got: Vec<u64> = Vec::new();
            while let Some((_, v)) = h.dequeue() {
                got.push(v);
            }
            assert_eq!(got.len(), 300 - stranded, "{cfg:?}");
            // Salvage returns the queue to service with its entries.
            let out = mq.salvage();
            assert_eq!(out.queues_salvaged, 1, "{cfg:?}");
            assert_eq!(out.items_recovered, stranded, "{cfg:?}");
            assert_eq!(mq.poisoned_count(), 0);
            while let Some((_, v)) = h.dequeue() {
                got.push(v);
            }
            got.sort_unstable();
            assert_eq!(got, (0..300u64).collect::<Vec<_>>(), "{cfg:?}");
            assert!(mq.is_empty(), "{cfg:?}");
        }
    }

    #[test]
    fn try_ops_time_out_instead_of_blocking_on_held_locks() {
        let mq: MultiQueue<u64> = MultiQueue::new(2);
        let mut h = mq.handle(33);
        h.insert(5, 5);
        // Emulate stalled lock holders: both locks held while the bounded
        // ops run (a nested attempt on a second queue holds both).
        let short = Duration::from_millis(20);
        let held = mq.queues[0].attempt(true, &mut ContentionStats::new(), |_| {
            mq.queues[1].attempt(true, &mut ContentionStats::new(), |_| {
                assert_eq!(
                    h.try_dequeue_for(short),
                    Err(MqOpTimeout {
                        op: ChoiceOp::Dequeue,
                        timeout: short,
                    })
                );
                let err = h.try_insert_for(7, 7, short).unwrap_err();
                assert_eq!(err.op, ChoiceOp::Insert);
                assert!(err.to_string().contains("did not complete"));
            })
        });
        assert_eq!(held, Attempt::Ran(Attempt::Ran(())));
        // Locks released: the bounded ops serve normally.
        assert_eq!(h.try_insert_for(7, 7, Duration::from_secs(5)), Ok(()));
        let mut seen = Vec::new();
        while let Ok(Some((p, _))) = h.try_dequeue_for(Duration::from_secs(5)) {
            seen.push(p);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![5, 7]);
        // Confirmed empty is Ok(None), not a timeout.
        assert_eq!(h.try_dequeue_for(short), Ok(None));
    }

    #[test]
    fn an_undeadlined_dequeue_waits_for_its_chosen_lock_and_does_not_redraw() {
        // The one acquisition rule: queue 0 holds the minimum, queue 1
        // larger items, and another thread holds queue 0's lock for
        // about 20 ms. A dequeue whose two-choice draw includes queue 0
        // must wait that lock out and serve queue 0's minimum; a
        // redraw would have served queue 1 (hint 10) and counted a
        // try-lock failure.
        const SEED: u64 = 2;
        let mut first = Xoshiro256::new(SEED);
        let draw = [first.bounded(2), first.bounded(2)];
        assert!(draw.contains(&0), "seed {SEED} draws {draw:?}");
        let mut a = BinaryHeap::new();
        a.add(1u64, 1u64);
        let mut b = BinaryHeap::new();
        b.add(10u64, 10u64);
        b.add(11, 11);
        let mq: MultiQueue<u64> =
            MultiQueue::with_config(vec![a, b], DeleteMode::Strict, PolicyCfg::TwoChoice);
        let mut h = mq.handle(SEED);
        let held = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                mq.queues[0].attempt(true, &mut ContentionStats::new(), |_| {
                    held.store(true, std::sync::atomic::Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                })
            });
            while !held.load(std::sync::atomic::Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            assert_eq!(h.dequeue(), Some((1, 1)));
        });
        let c = h.take_contention();
        assert_eq!(c.try_lock_failures, 0, "{c:?}");
        assert!(c.backoff_spins + c.backoff_yields > 0, "it waited: {c:?}");
    }

    #[test]
    fn fully_poisoned_insert_panics_with_salvage_hint_and_recovers() {
        let mq: MultiQueue<u64> = MultiQueue::new(2);
        let mut h = mq.handle(34);
        h.insert(1, 1);
        h.insert(2, 2);
        poison_queue(&mq, 0);
        poison_queue(&mq, 1);
        // A blocking dequeue still terminates: nothing is reachable.
        assert_eq!(h.dequeue(), None);
        // A blocking insert cannot land anywhere — it fails loudly with
        // the recovery hint rather than redrawing forever.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut h2 = mq.handle(35);
            h2.insert(3, 3);
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("salvage() before inserting"), "got: {msg}");
        // The bounded insert reports a timeout instead of panicking.
        assert!(h.try_insert_for(4, 4, Duration::from_millis(20)).is_err());
        // Salvage restores service and recovers both stranded items.
        let out = mq.salvage();
        assert_eq!(out.queues_salvaged, 2);
        assert_eq!(out.items_recovered, 2);
        let mut got = Vec::new();
        while let Some((p, _)) = h.dequeue() {
            got.push(p);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn queue_view_reports_poison() {
        let mq: MultiQueue<u64> = MultiQueue::new(2);
        assert!(!mq.queues[0].is_poisoned());
        poison_queue(&mq, 0);
        assert!(mq.queues[0].is_poisoned());
        assert!(!mq.queues[1].is_poisoned());
        mq.salvage();
        assert!(!mq.queues[0].is_poisoned());
    }

    #[test]
    fn preexisting_entries_are_counted_and_served() {
        let mut a = BinaryHeap::new();
        a.add(1u64, 1u64);
        a.add(2, 2);
        let mut b = BinaryHeap::new();
        b.add(3u64, 3u64);
        let mq: MultiQueue<u64> =
            MultiQueue::with_config(vec![a, b], DeleteMode::Strict, PolicyCfg::TwoChoice);
        assert_eq!(mq.len(), 3);
        let mut h = mq.handle(16);
        let mut got: Vec<u64> = std::iter::from_fn(|| h.dequeue().map(|(p, _)| p)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    /// Fills a fresh structure with `N` entries through `fill` (one call
    /// per chunk of six, returning a mark per entry), drains it through
    /// `drain` until a call serves nothing, and checks conservation:
    /// each entry served exactly once, value intact, structure empty
    /// after. Returns each entry's insert and dequeue marks, keyed by
    /// priority.
    fn fill_and_drain<M>(
        mut fill: impl FnMut(&mut MqHandle<'_, u64>, Vec<(u64, u64)>) -> Vec<M>,
        mut drain: impl FnMut(&mut MqHandle<'_, u64>) -> Vec<(u64, u64, M)>,
    ) -> [Vec<(u64, M)>; 2] {
        const N: u64 = 600;
        let mq: MultiQueue<u64> = MultiQueue::new(8);
        let mut h = mq.handle(90);
        let (mut inserted, mut served) = (Vec::new(), Vec::new());
        for first in (0..N).step_by(6) {
            let marks = fill(&mut h, (first..first + 6).map(|p| (p, p * 10)).collect());
            assert_eq!(marks.len(), 6);
            inserted.extend((first..).zip(marks));
        }
        assert_eq!(mq.len(), N as usize);
        loop {
            let got = drain(&mut h);
            if got.is_empty() {
                break;
            }
            served.extend(got);
        }
        assert!(mq.is_empty());
        assert!(served.iter().all(|(p, v, _)| *v == p * 10));
        let mut priorities: Vec<u64> = served.iter().map(|(p, _, _)| *p).collect();
        priorities.sort_unstable();
        assert_eq!(priorities, (0..N).collect::<Vec<_>>());
        let served = served.into_iter().map(|(p, _, m)| (p, m)).collect();
        [inserted, served]
    }

    /// [`fill_and_drain`] through the single insert and dequeue at the
    /// generic ops every public method is a one-line call into.
    fn single_ops<S: Stamp>(bounded: bool, stamp: S) -> [Vec<(u64, S::Mark)>; 2] {
        let deadline = || bounded.then(|| (Instant::now() + Duration::from_secs(3_600), "late"));
        fill_and_drain(
            |h, items| {
                let marks = items.into_iter().map(|(p, v)| {
                    let mark = h.insert_op(deadline(), stamp, p, v);
                    mark.expect("uncontended")
                });
                marks.collect()
            },
            |h| {
                let served = h.dequeue_op(deadline(), stamp);
                served.expect("uncontended").into_iter().collect()
            },
        )
    }

    #[test]
    fn every_op_form_conserves_under_every_acquisition_and_stamp_mode() {
        // A bounded operation acquires without waiting, an unbounded one
        // waits; only the single forms are stamped.
        for bounded in [false, true] {
            single_ops(bounded, NoStamp);
            let stamper = ExactCounter::new();
            let [inserted, served] = single_ops(bounded, &stamper);
            let what = format!("bounded: {bounded}");
            let mut stamps: Vec<u64> = inserted.iter().chain(&served).map(|e| e.1).collect();
            stamps.sort_unstable();
            stamps.dedup();
            assert_eq!(stamps.len(), 1_200, "stamps must be unique: {what}");
            for (p, s) in served {
                assert!(inserted[p as usize].1 < s, "entry {p} served first: {what}");
            }
        }
        // The batch forms take no deadline and no stamp.
        fill_and_drain(
            |h, items| vec![(); h.insert_batch(items)],
            |h| {
                let mut out = Vec::new();
                h.dequeue_batch(5, &mut out);
                out.into_iter().map(|(p, v)| (p, v, ())).collect()
            },
        );
    }

    #[test]
    fn mixed_ops_conserve_under_concurrency() {
        let mq: Arc<MultiQueue<u64>> = Arc::new(MultiQueue::new(4));
        let threads = 4usize;
        let per = 2_000u64;
        let popped: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let mq = Arc::clone(&mq);
                    s.spawn(move || {
                        let mut h = mq.handle(t as u64 + 1);
                        let mut got = 0u64;
                        for i in 0..per {
                            h.insert(i, i);
                            if i % 3 == 0 && h.dequeue().is_some() {
                                got += 1;
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let left = mq.drain_sorted().len() as u64;
        assert_eq!(
            popped + left,
            threads as u64 * per,
            "lost or duplicated entries"
        );
        assert!(mq.is_empty());
    }

    #[test]
    fn every_policy_drains_what_it_inserted() {
        for policy in [
            PolicyCfg::TwoChoice,
            PolicyCfg::DChoice { d: 4 },
            PolicyCfg::Sticky { ops: 4 },
        ] {
            let mq: MultiQueue<u64> = MultiQueue::with_config(
                (0..4).map(|_| BinaryHeap::new()).collect(),
                DeleteMode::Strict,
                policy,
            );
            let mut h = mq.handle(9);
            for p in 0..500u64 {
                h.insert(p, p);
            }
            let mut n = 0usize;
            while h.dequeue().is_some() {
                n += 1;
            }
            assert_eq!(n, 500, "policy {policy:?} lost entries");
        }
    }

    #[test]
    fn concurrent_stamps_are_unique_and_complete() {
        use std::collections::BTreeSet;
        let mq: Arc<MultiQueue<u64>> = Arc::new(MultiQueue::new(4));
        let stamper = ExactCounter::new();
        let threads = 4usize;
        let per = 500u64;
        let mut all: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let mq = Arc::clone(&mq);
                    let stamper = &stamper;
                    s.spawn(move || {
                        let mut h = mq.handle(t as u64 + 11);
                        let mut st = h.stamped(stamper);
                        let mut out = Vec::new();
                        for i in 0..per {
                            let ins = st.insert(i, i);
                            out.push((ins, 0));
                            if let Some((_, _, deq)) = st.dequeue() {
                                out.push((deq, 1));
                            }
                        }
                        while let Some((_, _, deq)) = st.dequeue() {
                            out.push((deq, 1));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let inserts = all.iter().filter(|(_, k)| *k == 0).count() as u64;
        let dequeues = all.iter().filter(|(_, k)| *k == 1).count() as u64;
        assert_eq!(inserts, threads as u64 * per, "all inserts stamped");
        assert_eq!(dequeues, inserts, "drain served everything");
        all.sort_unstable();
        let stamps: BTreeSet<u64> = all.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps.len(), all.len(), "duplicate stamps issued");
    }

    #[test]
    fn salvage_recovers_several_poisoned_queues() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let mut h = mq.handle(21);
        for p in 0..200u64 {
            h.insert(p, p);
        }
        poison_queue(&mq, 0);
        poison_queue(&mq, 2);
        let outcome = mq.salvage();
        assert_eq!(outcome.queues_salvaged, 2);
        assert!(!mq.queues[0].is_poisoned());
        assert!(!mq.queues[2].is_poisoned());
        // Every entry survives: the panics were injected before any
        // mutation, so salvage re-homes the full contents.
        let mut n = 0usize;
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 200, "entries lost through salvage");
        assert!(mq.is_empty());
    }

    #[test]
    fn salvage_placement_is_pinned() {
        // Salvage re-homes survivors under its fixed seed, so where they
        // land is a function of the drained set alone: a changed vector
        // means a draw or the choice of re-home path moved.
        let mq: MultiQueue<u64> = MultiQueue::new(8);
        let mut h = mq.handle(22);
        for p in 0..400u64 {
            h.insert(p, p);
        }
        poison_queue(&mq, 1);
        poison_queue(&mq, 6);
        let before: Vec<usize> = mq.queues.iter().map(|q| q.approx_len()).collect();
        let outcome = mq.salvage();
        assert_eq!(outcome.items_recovered, before[1] + before[6]);
        let after: Vec<usize> = mq.queues.iter().map(|q| q.approx_len()).collect();
        assert_eq!(before, [54, 47, 56, 57, 48, 47, 45, 46]);
        assert_eq!(after, [65, 11, 64, 67, 63, 57, 17, 56]);
    }

    #[test]
    fn a_lone_item_among_64_queues_is_always_found() {
        // Two samples out of 64 miss a lone item ~97% of the time: a
        // missed sample is a reason to re-choose, never an answer.
        let mq: MultiQueue<u64> = MultiQueue::new(64);
        let mut h = mq.handle(51);
        let mut out = Vec::new();
        for round in 0..60u64 {
            h.insert(round, round);
            let got = match round % 3 {
                0 => h.dequeue(),
                1 => {
                    assert_eq!(h.dequeue_batch(4, &mut out), 1);
                    out.pop()
                }
                _ => h.try_dequeue_for(Duration::from_secs(60)).unwrap(),
            };
            assert_eq!(got, Some((round, round)));
        }
        assert_eq!(h.contention().empty_confirms, 0);
    }

    #[test]
    fn empty_and_fully_poisoned_structures_confirm_once_without_spinning() {
        for poisoned in [false, true] {
            let mq: MultiQueue<u64> = MultiQueue::new(8);
            let mut h = mq.handle(52);
            if poisoned {
                // Stranded items are unreachable, so the structure is
                // empty as far as a dequeue goes.
                for p in 0..40u64 {
                    h.insert(p, p);
                }
                for i in 0..8 {
                    poison_queue(&mq, i);
                }
            }
            h.take_contention();
            let what = format!("poisoned: {poisoned}");
            let mut out = Vec::new();
            assert_eq!(mq.is_empty(), !poisoned, "{what}");
            assert_eq!(h.dequeue(), None, "{what}");
            assert_eq!(h.contention().empty_confirms, 1, "{what}");
            assert_eq!(h.dequeue_batch(4, &mut out), 0, "{what}");
            assert_eq!(h.contention().empty_confirms, 2, "{what}");
            assert_eq!(h.try_dequeue_for(Duration::from_secs(60)), Ok(None));
            let c = h.take_contention();
            assert_eq!(c.empty_confirms, 3, "{what}");
            assert_eq!(c.backoff_spins + c.backoff_yields, 0, "{what}");
        }
    }

    /// A `u64::MAX` priority is an item like any other: its queue's
    /// hint must not read as empty, or no dequeue would choose it and
    /// the emptiness sweep, which counts it, would never confirm.
    #[test]
    fn a_maximal_priority_is_dequeued() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let mut h = mq.handle(54);
        h.insert(u64::MAX, 7);
        let timeout = Duration::from_millis(200);
        assert_eq!(h.try_dequeue_for(timeout), Ok(Some((u64::MAX, 7))));
        // Beside a smaller item, in whichever order the choice serves them.
        h.insert(5, 5);
        h.insert(u64::MAX, 8);
        let mut served: Vec<_> = (0..2)
            .map(|_| h.try_dequeue_for(timeout).expect("served in time"))
            .collect();
        served.sort();
        assert_eq!(served, [Some((5, 5)), Some((u64::MAX, 8))]);
        assert_eq!(h.try_dequeue_for(timeout), Ok(None));
        assert!(mq.is_empty());
    }

    /// Two producers against two consumers (handles on the structure's
    /// default policy) over a prefilled backlog: every item is delivered
    /// exactly once, and no dequeue reports empty while items provably
    /// stand in the structure.
    fn assert_producers_vs_consumers(mq: &MultiQueue<u64>, what: &str) {
        use std::sync::atomic::Ordering::SeqCst;
        const PER: u64 = 4_000;
        const BACKLOG: u64 = 512;
        let total = BACKLOG + 2 * PER;
        let mut h = mq.handle(53);
        for p in 0..BACKLOG {
            h.insert(p, p);
        }
        // `inserted` counts completed inserts, `started` the dequeues
        // begun that may remove an item: at every instant of a call at
        // least `inserted` (read before it) minus `started - 1` (read
        // after it; the call itself removed nothing) items are present,
        // so a `None` with `inserted >= started` was wrong.
        let (inserted, started) = (AtomicU64::new(BACKLOG), AtomicU64::new(0));
        let delivered = AtomicU64::new(0);
        let mut all: Vec<u64> = std::thread::scope(|s| {
            for t in 0..2u64 {
                let inserted = &inserted;
                s.spawn(move || {
                    let mut h = mq.handle(60 + t);
                    for p in (BACKLOG + t * PER..).take(PER as usize) {
                        h.insert(p, p);
                        inserted.fetch_add(1, SeqCst);
                    }
                });
            }
            let consumers: Vec<_> = (0..2u64)
                .map(|t| {
                    let (inserted, started, delivered) = (&inserted, &started, &delivered);
                    s.spawn(move || {
                        let mut h = mq.handle(70 + t);
                        let mut got = Vec::new();
                        while delivered.load(SeqCst) < total {
                            let before = inserted.load(SeqCst);
                            started.fetch_add(1, SeqCst);
                            if let Some((_, v)) = h.dequeue() {
                                delivered.fetch_add(1, SeqCst);
                                got.push(v);
                            } else {
                                let after = started.fetch_sub(1, SeqCst);
                                assert!(
                                    before < after,
                                    "None with {before} inserted, {after} dequeues begun on {what}"
                                );
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>(), "{what}");
        assert!(mq.is_empty(), "{what}");
    }

    #[test]
    fn no_dequeue_reports_empty_over_a_standing_backlog() {
        assert_producers_vs_consumers(&MultiQueue::new(8), "two-choice");
    }

    #[test]
    fn sticky_concurrent_producers_consumers_conserve() {
        let mq = MultiQueue::with_config(
            (0..16).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
            PolicyCfg::Sticky { ops: 8 },
        );
        assert_producers_vs_consumers(&mq, "sticky(8)");
    }
}
