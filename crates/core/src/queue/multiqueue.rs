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
//! priorities); [`RelaxedFifo`](crate::queue::RelaxedFifo) adds the
//! timestamping of the paper's queue semantics on top.
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
//! * [`MqHandle::insert`] / [`MqHandle::dequeue`] /
//!   [`MqHandle::dequeue_k`] / [`MqHandle::insert_batch`] /
//!   [`MqHandle::dequeue_batch`] — the five operations, plus the
//!   deadline-bounded [`MqHandle::try_insert_for`] /
//!   [`MqHandle::try_dequeue_for`];
//! * [`MqHandle::stamped`] — the orthogonal history mode: the same five
//!   operations, each drawing an update-point stamp inside its critical
//!   section for the Section 5 checker.
//!
//! Every one of them is the same three steps — choose a queue, run the
//! operation on it if its lock can be had, react to how that ended —
//! so there is **one operation loop**, private to [`MultiQueue`]. It
//! takes the operation kind, the caller's per-thread context, an
//! optional deadline and the operation itself as a closure over the
//! chosen sequential queue; choosing, the poisoned-queue fallback,
//! backoff, the policy callbacks, the emptiness proof and the deadline
//! check exist there and nowhere else. Insert, dequeue and their batch
//! forms are short closures over it; a deadline only forces try-lock
//! acquisition (never wait on a lock a stalled thread may hold) and
//! carries the error to return, so an unbounded operation has none.
//! History stamping is a type parameter of those closures, not a
//! second set of methods: the unstamped form draws `()`, the stamped
//! form draws a `u64` from the caller's counter, in both cases right
//! after the mutation and inside the critical section.
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
//! * Each [`LockedPq`] packs lock flag, generation and entry count into
//!   one cache-padded atomic header next to the min hint, so a `ReadMin`
//!   touches one line and adjacent queues never false-share.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dlz_pq::locked::EMPTY_HINT;
use dlz_pq::{
    Attempt, Backoff, BinaryHeap, ConcurrentPq, ContentionStats, LockedPq, SeqPriorityQueue,
};

use crate::queue::policy::{ChoiceOp, Policy, PolicyCfg};
use crate::rng::{with_thread_rng, Rng64, Xoshiro256};

/// What a dequeue does when its chosen queue is contended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeleteMode {
    /// Lock the chosen queue unconditionally (Algorithm 2 as written).
    #[default]
    Strict,
    /// If the chosen queue's lock is taken, redraw two fresh queues
    /// instead of waiting (the Rihani-et-al. practical variant).
    TryLock,
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
    mode: DeleteMode,
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

/// The per-thread state one operation runs with. An [`MqHandle`] lends
/// its own; callers without a handle assemble a throwaway (see
/// [`MultiQueue::insert_two_choice`]).
struct OpCtx<'c, G> {
    policy: &'c mut Policy,
    rng: &'c mut G,
    stats: &'c mut ContentionStats,
}

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
impl Stamp for &AtomicU64 {
    type Mark = u64;
    #[inline]
    fn draw(self) -> u64 {
        self.fetch_add(1, Ordering::AcqRel)
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
    /// Starts building a binary-heap-backed MultiQueue.
    pub fn builder() -> MultiQueueBuilder {
        MultiQueueBuilder::default()
    }

    /// Creates a MultiQueue with `m` binary-heap queues, strict deletes,
    /// two-choice policy.
    pub fn new(m: usize) -> Self {
        Self::with_queues(
            (0..m).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
        )
    }
}

impl<V: Send, Q: SeqPriorityQueue<u64, V> + Send> MultiQueue<V, Q> {
    /// Builds from explicit sequential queues (any substrate) and mode.
    ///
    /// # Panics
    /// If `queues` is empty.
    pub fn with_queues(queues: Vec<Q>, mode: DeleteMode) -> Self {
        Self::with_config(queues, mode, PolicyCfg::TwoChoice)
    }

    /// Builds from explicit sequential queues, mode and default choice
    /// policy.
    ///
    /// # Panics
    /// If `queues` is empty.
    pub fn with_config(queues: Vec<Q>, mode: DeleteMode, policy: PolicyCfg) -> Self {
        assert!(!queues.is_empty(), "MultiQueue needs at least one queue");
        MultiQueue {
            queues: queues.into_iter().map(LockedPq::new).collect(),
            mode,
            policy,
        }
    }

    /// Number of internal queues (the paper's `m`).
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// The configured delete mode.
    pub fn mode(&self) -> DeleteMode {
        self.mode
    }

    /// The structure's default choice policy (what [`handle`](Self::handle)
    /// builds instances from).
    pub fn policy(&self) -> PolicyCfg {
        self.policy
    }

    /// A deterministic operating handle using the structure's default
    /// policy. Equivalent to [`MqHandle::new`].
    pub fn handle(&self, seed: u64) -> MqHandle<'_, V, Q> {
        MqHandle::new(self, seed)
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

    /// The operation loop — the only one. Chooses a queue for `op`
    /// through the context's policy, runs `body` on it if its lock can
    /// be had (waiting for it only in strict mode without a deadline),
    /// and reacts to how that ended until the operation lands, the
    /// structure is confirmed empty (`Ok(None)`, dequeues only) or the
    /// deadline passes (`Err` of the error the deadline carries).
    ///
    /// `body` runs inside the chosen queue's critical section, at most
    /// once per acquisition and never after it returned `Some`: an
    /// insert body moves its entries in and always returns `Some`; a
    /// dequeue body returns `None` when the queue it was given turned
    /// out empty. The lock is released before any policy callback runs.
    #[inline]
    fn run<R, E: Copy>(
        &self,
        op: ChoiceOp,
        ctx: OpCtx<'_, impl Rng64>,
        deadline: Deadline<E>,
        mut body: impl FnMut(&mut Q) -> Option<R>,
    ) -> Result<Option<R>, E> {
        let OpCtx { policy, rng, stats } = ctx;
        // Strict mode waits for the chosen queue's lock; try-lock mode
        // redraws instead, and so does any operation with a deadline —
        // the point of one is to never wait on an acquisition a stalled
        // thread may hold.
        let block = self.mode == DeleteMode::Strict && deadline.is_none();
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
                    self.any_healthy_queue()
                }
                ChoiceOp::Insert => Some(policy.choose_insert(rng, self.queues.len())),
                ChoiceOp::Dequeue => {
                    policy.choose_dequeue(rng, self.queues.len(), |q| self.queues[q].min_hint())
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
                        if self.confirmed_empty(stats) {
                            return Ok(None);
                        }
                    }
                }
                snooze(&mut backoff, stats);
                continue;
            };
            match self.queues[i].attempt(block, stats, &mut body) {
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
                    if self.confirmed_empty(stats) {
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
        &self,
        ctx: OpCtx<'_, impl Rng64>,
        deadline: Deadline<E>,
        stamp: S,
        priority: u64,
        value: V,
    ) -> Result<S::Mark, E> {
        let mut entry = Some((priority, value));
        self.run(ChoiceOp::Insert, ctx, deadline, |q| {
            let (p, v) = entry.take()?;
            q.add(p, v);
            Some(stamp.draw())
        })
        .map(|mark| mark.expect("an insert lands on the first queue it acquires"))
    }

    /// Dequeue (Algorithm 2's Dequeue under [`PolicyCfg::TwoChoice`]).
    /// `Ok(None)` is the confirmed-empty observation documented on
    /// [`MqHandle::dequeue`].
    #[inline]
    fn dequeue_op<S: Stamp, E: Copy>(
        &self,
        ctx: OpCtx<'_, impl Rng64>,
        deadline: Deadline<E>,
        stamp: S,
    ) -> Result<Option<(u64, V, S::Mark)>, E> {
        self.run(ChoiceOp::Dequeue, ctx, deadline, |q| {
            q.delete_min().map(|(p, v)| (p, v, stamp.draw()))
        })
    }

    /// Batch enqueue into one chosen queue: one lock acquisition, one
    /// hint publish, one mark per item handed to `marks` in insertion
    /// order. An empty batch chooses and locks nothing.
    fn insert_batch_op<S: Stamp>(
        &self,
        ctx: OpCtx<'_, impl Rng64>,
        stamp: S,
        items: impl IntoIterator<Item = (u64, V)>,
        mut marks: impl FnMut(S::Mark),
    ) -> usize {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return 0;
        }
        let Ok(n) = self.run(ChoiceOp::Insert, ctx, NO_DEADLINE, |q| {
            let mut n = 0usize;
            for (p, v) in items.by_ref() {
                q.add(p, v);
                marks(stamp.draw());
                n += 1;
            }
            Some(n)
        });
        n.expect("a batch lands on the first queue it acquires")
    }

    /// Batch dequeue of up to `max` entries from one chosen queue under
    /// one lock acquisition; `sink` receives `(priority, value, mark)`
    /// per entry. `0` is the confirmed-empty observation.
    fn dequeue_batch_op<S: Stamp>(
        &self,
        ctx: OpCtx<'_, impl Rng64>,
        stamp: S,
        max: usize,
        mut sink: impl FnMut(u64, V, S::Mark),
    ) -> usize {
        if max == 0 {
            return 0;
        }
        let Ok(n) = self.run(ChoiceOp::Dequeue, ctx, NO_DEADLINE, |q| {
            let mut n = 0usize;
            while n < max {
                let Some((p, v)) = q.delete_min() else { break };
                sink(p, v, stamp.draw());
                n += 1;
            }
            (n > 0).then_some(n)
        });
        n.unwrap_or(0)
    }

    /// Insert for callers without a handle ([`RelaxedFifo`], the
    /// [`ConcurrentPq`] impl, [`salvage`](Self::salvage)): fresh
    /// two-choice sampling from the caller's generator, contention
    /// counters discarded.
    ///
    /// [`RelaxedFifo`]: crate::queue::RelaxedFifo
    pub(crate) fn insert_two_choice(&self, rng: &mut impl Rng64, priority: u64, value: V) {
        let ctx = OpCtx {
            policy: &mut PolicyCfg::TwoChoice.build(),
            rng,
            stats: &mut ContentionStats::new(),
        };
        let Ok(()) = self.insert_op(ctx, NO_DEADLINE, NoStamp, priority, value);
    }

    /// Dequeue for callers without a handle; see
    /// [`insert_two_choice`](Self::insert_two_choice).
    pub(crate) fn dequeue_two_choice(&self, rng: &mut impl Rng64) -> Option<(u64, V)> {
        let ctx = OpCtx {
            policy: &mut PolicyCfg::TwoChoice.build(),
            rng,
            stats: &mut ContentionStats::new(),
        };
        let Ok(served) = self.dequeue_op(ctx, NO_DEADLINE, NoStamp);
        served.map(unstamped)
    }

    /// Best-effort recovery of poisoned queues: for every poisoned
    /// queue, acquires it past the poison, drains whatever entries the
    /// underlying sequential queue still serves consistently, returns
    /// the queue to service under a fresh generation (the normal guard
    /// release recounts, republishes the hint and clears the poison
    /// bit), and reinserts the recovered entries into healthy queues.
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
        // Re-home the survivors through the normal insert path (which
        // skips any queue poisoned since), under a fixed seed: salvage
        // is a recovery sweep, deterministic given the drained set.
        let mut rng = Xoshiro256::new(0x5a17a9e);
        for (p, v) in recovered {
            self.insert_two_choice(&mut rng, p, v);
        }
        out
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
/// example uses the exact [`CoarsePq`](dlz_pq::CoarsePq) and the
/// MultiQueue interchangeably). Randomness comes from the thread-local
/// generator; the choice process is fresh two-choice sampling.
impl<V: Send, Q: SeqPriorityQueue<u64, V> + Send> ConcurrentPq<V> for MultiQueue<V, Q> {
    fn insert(&self, priority: u64, value: V) {
        with_thread_rng(|rng| self.insert_two_choice(rng, priority, value));
    }

    fn remove_min(&self) -> Option<(u64, V)> {
        with_thread_rng(|rng| self.dequeue_two_choice(rng))
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

/// Builder for binary-heap-backed [`MultiQueue`]s.
#[derive(Debug, Clone, Default)]
pub struct MultiQueueBuilder {
    queues: Option<usize>,
    mode: DeleteMode,
    policy: PolicyCfg,
}

impl MultiQueueBuilder {
    /// Sets the number of internal queues `m` explicitly.
    pub fn queues(mut self, m: usize) -> Self {
        self.queues = Some(m);
        self
    }

    /// Sets the delete mode (default [`DeleteMode::Strict`]).
    pub fn delete_mode(mut self, mode: DeleteMode) -> Self {
        self.mode = mode;
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
            self.mode,
            self.policy,
        )
    }
}

/// The MultiQueue's operational surface: a structure reference plus the
/// per-thread state the choice process needs — a private seeded RNG and
/// a [`Policy`] instance.
///
/// [`MqHandle::new`] builds the structure's default policy;
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
    /// Creates a handle with its own seeded generator and an instance
    /// of the structure's default policy.
    pub fn new(mq: &'a MultiQueue<V, Q>, seed: u64) -> Self {
        MqHandle::with_policy(mq, seed, mq.policy().build())
    }

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

    /// The underlying structure.
    pub fn multiqueue(&self) -> &'a MultiQueue<V, Q> {
        self.mq
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

    /// Lends the handle's per-thread state to one operation.
    #[inline]
    fn ctx(&mut self) -> OpCtx<'_, Xoshiro256> {
        OpCtx {
            policy: &mut self.policy,
            rng: &mut self.rng,
            stats: &mut self.stats,
        }
    }

    /// Best-of-`k` dequeue: a one-off `DChoice { d: k }` draw on the
    /// handle's generator and counters, whatever the handle's own policy.
    fn dequeue_k_op<S: Stamp>(&mut self, k: usize, stamp: S) -> Option<(u64, V, S::Mark)> {
        assert!(k >= 1, "need at least one choice");
        let ctx = OpCtx {
            policy: &mut PolicyCfg::DChoice { d: k }.build(),
            rng: &mut self.rng,
            stats: &mut self.stats,
        };
        let Ok(served) = self.mq.dequeue_op(ctx, NO_DEADLINE, stamp);
        served
    }

    /// Enqueue through the handle's policy.
    pub fn insert(&mut self, priority: u64, value: V) {
        let Ok(()) = self
            .mq
            .insert_op(self.ctx(), NO_DEADLINE, NoStamp, priority, value);
    }

    /// Dequeue through the handle's policy.
    ///
    /// Returns `None` only after observing a globally empty structure;
    /// with concurrent enqueuers a `None` means "empty at some sample
    /// point", the strongest statement a relaxed queue can make.
    pub fn dequeue(&mut self) -> Option<(u64, V)> {
        let Ok(served) = self.mq.dequeue_op(self.ctx(), NO_DEADLINE, NoStamp);
        served.map(unstamped)
    }

    /// Dequeue sampling the best of `k` queues — a one-off
    /// [`PolicyCfg::DChoice`] draw regardless of the handle's policy. `k = 1`
    /// removes from a single random queue (rank relaxation degrades to
    /// the divergent single-choice regime); `k = 2` is Algorithm 2;
    /// larger `k` tightens the rank distribution at the price of `k`
    /// hint reads per dequeue.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn dequeue_k(&mut self, k: usize) -> Option<(u64, V)> {
        self.dequeue_k_op(k, NoStamp).map(unstamped)
    }

    /// Inserts a whole batch into one policy-chosen queue under a
    /// single lock acquisition, with a single hint publish. Returns the
    /// number of items inserted; an empty batch is a no-op.
    ///
    /// The batch counts as *one* operation for camping policies; its
    /// rank effect is like stickiness with `s = batch` (the batch lands
    /// in one queue), degrading within the same O(s·m) envelope.
    pub fn insert_batch(&mut self, items: impl IntoIterator<Item = (u64, V)>) -> usize {
        self.mq.insert_batch_op(self.ctx(), NoStamp, items, |()| {})
    }

    /// Bounded-retry insert: like [`insert`](Self::insert) but never
    /// blocks on a held lock (try-lock acquisition regardless of the
    /// structure's [`DeleteMode`]) and gives up with a structured
    /// [`MqOpTimeout`] once `timeout` elapses — e.g. when stalled
    /// threads hold every lock the policy samples, or every queue is
    /// poisoned (where [`insert`](Self::insert) panics). On `Err` the
    /// value is dropped, not inserted.
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
        self.mq
            .insert_op(self.ctx(), deadline, NoStamp, priority, value)
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
        self.mq
            .dequeue_op(self.ctx(), deadline, NoStamp)
            .map(|served| served.map(unstamped))
    }

    /// Removes up to `max` entries from one policy-chosen queue under a
    /// single lock acquisition, appending them to `out` in ascending
    /// (per-queue) priority order. Returns the number taken.
    ///
    /// Returns `0` only after observing a globally empty structure —
    /// the same emptiness contract as [`dequeue`](Self::dequeue).
    pub fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, V)>) -> usize {
        self.mq
            .dequeue_batch_op(self.ctx(), NoStamp, max, |p, v, ()| out.push((p, v)))
    }

    /// Switches the handle into **history mode**: the same five
    /// operations over the same loop, each drawing an update-point
    /// stamp from `stamper` inside its critical section — i.e. at the
    /// operation's linearization point in the underlying linearizable
    /// queue, right after the mutation. The
    /// distributional-linearizability checker replays histories in
    /// stamp order (Definition 5.2's mapping).
    ///
    /// # Example
    /// ```
    /// use std::sync::atomic::AtomicU64;
    /// use dlz_core::MultiQueue;
    ///
    /// let mq: MultiQueue<u64> = MultiQueue::new(4);
    /// let stamper = AtomicU64::new(0);
    /// let mut h = mq.handle(7);
    /// let s0 = h.stamped(&stamper).insert(10, 10);
    /// let (p, _, s1) = h.stamped(&stamper).dequeue().unwrap();
    /// assert_eq!(p, 10);
    /// assert!(s1 > s0);
    /// ```
    pub fn stamped<'s>(&'s mut self, stamper: &'s AtomicU64) -> Stamped<'s, 'a, V, Q> {
        Stamped {
            handle: self,
            stamper,
        }
    }
}

/// The handle's history mode — see [`MqHandle::stamped`]. Same policy,
/// same RNG, same five operations over the same loop; every operation
/// returns the update stamp drawn inside its critical section.
pub struct Stamped<'s, 'a, V, Q = BinaryHeap<u64, V>>
where
    V: Send,
    Q: SeqPriorityQueue<u64, V> + Send,
{
    handle: &'s mut MqHandle<'a, V, Q>,
    stamper: &'s AtomicU64,
}

impl<V: Send, Q: SeqPriorityQueue<u64, V> + Send> Stamped<'_, '_, V, Q> {
    /// Stamped enqueue; returns the update stamp.
    pub fn insert(&mut self, priority: u64, value: V) -> u64 {
        let Ok(stamp) = self.handle.mq.insert_op(
            self.handle.ctx(),
            NO_DEADLINE,
            self.stamper,
            priority,
            value,
        );
        stamp
    }

    /// Stamped dequeue; returns `(priority, value, update stamp)`.
    pub fn dequeue(&mut self) -> Option<(u64, V, u64)> {
        let Ok(served) = self
            .handle
            .mq
            .dequeue_op(self.handle.ctx(), NO_DEADLINE, self.stamper);
        served
    }

    /// Stamped best-of-`k` dequeue (see [`MqHandle::dequeue_k`]).
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn dequeue_k(&mut self, k: usize) -> Option<(u64, V, u64)> {
        self.handle.dequeue_k_op(k, self.stamper)
    }

    /// Stamped batch enqueue: one lock acquisition, one stamp per item
    /// (pushed onto `stamps` in insertion order). Returns the count.
    pub fn insert_batch(
        &mut self,
        items: impl IntoIterator<Item = (u64, V)>,
        stamps: &mut Vec<u64>,
    ) -> usize {
        self.handle
            .mq
            .insert_batch_op(self.handle.ctx(), self.stamper, items, |s| stamps.push(s))
    }

    /// Stamped batch dequeue: one lock acquisition, one stamp per
    /// entry, appended to `out` as `(priority, value, stamp)`.
    pub fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, V, u64)>) -> usize {
        self.handle
            .mq
            .dequeue_batch_op(self.handle.ctx(), self.stamper, max, |p, v, s| {
                out.push((p, v, s))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // multiple. (Statistical, deterministic seed.)
        let m = 8usize;
        let mq: MultiQueue<()> = MultiQueue::new(m);
        let mut h = mq.handle(4);
        let n = 10_000u64;
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
        assert!(max_rank <= 30 * m, "max rank {max_rank} too large");
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
        let mq: MultiQueue<u64, MapQueue<u64>> = MultiQueue::with_queues(
            (0..4).map(|_| MapQueue::default()).collect(),
            DeleteMode::Strict,
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
        let stamper = AtomicU64::new(0);
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
            let mut h = mq.handle(40 + k as u64);
            for p in 0..500u64 {
                h.insert(p, p);
            }
            let mut n = 0;
            while h.dequeue_k(k).is_some() {
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
            let mut h = mq.handle(77);
            let n = 4_000u64;
            for p in 0..n {
                h.insert(p, p);
            }
            let mut present: BTreeSet<u64> = (0..n).collect();
            let mut sum = 0usize;
            for _ in 0..n {
                let (p, _) = h.dequeue_k(k).unwrap();
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
    #[should_panic(expected = "at least one choice")]
    fn zero_choice_dequeue_rejected() {
        let mq: MultiQueue<u64> = MultiQueue::new(2);
        let mut h = mq.handle(1);
        let _ = h.dequeue_k(0);
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
            .delete_mode(DeleteMode::TryLock)
            .policy(PolicyCfg::Sticky { ops: 8 })
            .build();
        assert_eq!(b.num_queues(), 6);
        assert_eq!(b.mode(), DeleteMode::TryLock);
        assert_eq!(b.policy(), PolicyCfg::Sticky { ops: 8 });
        assert!(!b.policy().is_default());
    }

    #[test]
    fn handle_wraps_rng() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let mut h = MqHandle::new(&mq, 9);
        for p in 0..50 {
            h.insert(p, p);
        }
        let mut n = 0;
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
        assert_eq!(h.multiqueue().num_queues(), 4);
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
        // Exactly s consecutive equal choices per run (strict mode:
        // nothing voids an insert camp early).
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
        for mode in [DeleteMode::Strict, DeleteMode::TryLock] {
            let mq: MultiQueue<u64> = MultiQueue::with_config(
                (0..8).map(|_| BinaryHeap::new()).collect(),
                mode,
                PolicyCfg::Sticky { ops: 6 },
            );
            let mut h = MqHandle::new(&mq, 10);
            for p in 0..2_000u64 {
                h.insert(p, p);
            }
            assert_eq!(mq.len(), 2_000);
            let mut n = 0;
            while h.dequeue().is_some() {
                n += 1;
            }
            assert_eq!(n, 2_000, "{mode:?}");
            assert_eq!(mq.len(), 0);
        }
    }

    #[test]
    fn sticky_stamped_ops_produce_unique_stamps() {
        let mq: MultiQueue<u64> = MultiQueue::with_config(
            (0..4).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::Strict,
            PolicyCfg::Sticky { ops: 5 },
        );
        let stamper = AtomicU64::new(0);
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
        for mode in [DeleteMode::Strict, DeleteMode::TryLock] {
            let mq: MultiQueue<u64> =
                MultiQueue::with_queues((0..8).map(|_| BinaryHeap::new()).collect(), mode);
            let mut h = mq.handle(12);
            let mut inserted = 0usize;
            for chunk in 0..100u64 {
                let items: Vec<(u64, u64)> =
                    (0..7).map(|i| (chunk * 7 + i, chunk * 7 + i)).collect();
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
            assert_eq!(out.len(), 700, "{mode:?}");
            let mut ps: Vec<u64> = out.iter().map(|(p, _)| *p).collect();
            ps.sort_unstable();
            ps.dedup();
            assert_eq!(ps.len(), 700, "batch dequeue duplicated or lost items");
            assert_eq!(mq.len(), 0);
        }
    }

    #[test]
    fn stamped_batch_ops_stamp_every_item_uniquely() {
        let mq: MultiQueue<u64> = MultiQueue::new(4);
        let stamper = AtomicU64::new(0);
        let mut h = mq.handle(13);
        let mut stamps = Vec::new();
        let items: Vec<(u64, u64)> = (0..50).map(|i| (i, i)).collect();
        assert_eq!(h.stamped(&stamper).insert_batch(items, &mut stamps), 50);
        assert_eq!(stamps.len(), 50);
        let mut out = Vec::new();
        while h.stamped(&stamper).dequeue_batch(8, &mut out) > 0 {}
        assert_eq!(out.len(), 50);
        stamps.extend(out.iter().map(|&(_, _, s)| s));
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 100, "stamps must be unique");
        assert!(mq.is_empty());
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
        let mut h = MqHandle::new(&mq, 14);
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
            mq.queues[i].with_locked(|_| -> () { panic!("injected fault") })
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
    fn trylock_mode_routes_around_poison_too() {
        let mq: MultiQueue<u64> = MultiQueue::with_queues(
            (0..4).map(|_| BinaryHeap::new()).collect(),
            DeleteMode::TryLock,
        );
        let mut h = mq.handle(32);
        for p in 0..200u64 {
            h.insert(p, p);
        }
        let stranded = mq.queues[1].approx_len();
        poison_queue(&mq, 1);
        let mut n = 0usize;
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 200 - stranded);
        assert_eq!(mq.salvage().items_recovered, stranded);
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn try_ops_time_out_instead_of_blocking_on_held_locks() {
        let mq: MultiQueue<u64> = MultiQueue::new(2);
        let mut h = mq.handle(33);
        h.insert(5, 5);
        // Emulate stalled lock holders: both locks held indefinitely.
        let g0 = mq.queues[0].lock();
        let g1 = mq.queues[1].lock();
        let short = Duration::from_millis(20);
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
        drop(g0);
        drop(g1);
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
        let mq: MultiQueue<u64> = MultiQueue::with_queues(vec![a, b], DeleteMode::Strict);
        assert_eq!(mq.len(), 3);
        let mut h = mq.handle(16);
        let mut got: Vec<u64> = std::iter::from_fn(|| h.dequeue().map(|(p, _)| p)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    /// A two-choice binary-heap MultiQueue with `m` queues in `mode`.
    fn mq_on(m: usize, mode: DeleteMode) -> MultiQueue<u64> {
        MultiQueue::with_queues((0..m).map(|_| BinaryHeap::new()).collect(), mode)
    }

    /// Drives one operation form through fill-then-drain at the generic
    /// ops every public method is a one-line call into, checking
    /// conservation (each of `N` entries served exactly once, value
    /// intact, structure empty after). Returns each entry's insert and
    /// dequeue marks, keyed by priority.
    fn fill_and_drain<S: Stamp>(
        mode: DeleteMode,
        bounded: bool,
        batch: bool,
        stamp: S,
    ) -> [Vec<(u64, S::Mark)>; 2] {
        const N: u64 = 600;
        let mq = mq_on(8, mode);
        let mut h = mq.handle(90);
        let deadline = || bounded.then(|| (Instant::now() + Duration::from_secs(3_600), "late"));
        let (mut inserted, mut served) = (Vec::new(), Vec::new());
        if batch {
            for first in (0..N).step_by(6) {
                let items = (first..first + 6).map(|p| (p, p * 10));
                let mut marks = Vec::new();
                let n = mq.insert_batch_op(h.ctx(), stamp, items, |m| marks.push(m));
                assert_eq!((n, marks.len()), (6, 6));
                inserted.extend((first..).zip(marks));
            }
        } else {
            for p in 0..N {
                let mark = mq.insert_op(h.ctx(), deadline(), stamp, p, p * 10);
                inserted.push((p, mark.expect("uncontended")));
            }
        }
        assert_eq!(mq.len(), N as usize);
        loop {
            let before = served.len();
            if batch {
                mq.dequeue_batch_op(h.ctx(), stamp, 5, |p, v, m| served.push((p, v, m)));
            } else {
                let got = mq.dequeue_op(h.ctx(), deadline(), stamp);
                served.extend(got.expect("uncontended"));
            }
            if served.len() == before {
                break;
            }
        }
        assert!(mq.is_empty());
        assert!(served.iter().all(|(p, v, _)| *v == p * 10));
        let mut priorities: Vec<u64> = served.iter().map(|(p, _, _)| *p).collect();
        priorities.sort_unstable();
        assert_eq!(priorities, (0..N).collect::<Vec<_>>());
        let served = served.into_iter().map(|(p, _, m)| (p, m)).collect();
        [inserted, served]
    }

    #[test]
    fn every_op_form_conserves_under_every_acquisition_and_stamp_mode() {
        for mode in MODES {
            // (bounded, batch): the batch forms take no deadline.
            for (bounded, batch) in [(false, false), (true, false), (false, true)] {
                fill_and_drain(mode, bounded, batch, NoStamp);
                let stamper = AtomicU64::new(1);
                let [inserted, served] = fill_and_drain(mode, bounded, batch, &stamper);
                let what = format!("{mode:?} / bounded: {bounded} / batch: {batch}");
                let mut stamps: Vec<u64> = inserted.iter().chain(&served).map(|e| e.1).collect();
                stamps.sort_unstable();
                stamps.dedup();
                assert_eq!(stamps.len(), 1_200, "stamps must be unique: {what}");
                for (p, s) in served {
                    assert!(inserted[p as usize].1 < s, "entry {p} served first: {what}");
                }
            }
        }
    }

    #[test]
    fn mixed_ops_conserve_under_concurrency() {
        for mode in MODES {
            let mq = Arc::new(mq_on(4, mode));
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
                "lost or duplicated entries in {mode:?}"
            );
            assert!(mq.is_empty());
        }
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
        let mq = Arc::new(mq_on(4, DeleteMode::Strict));
        let stamper = AtomicU64::new(0);
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
        let mq = mq_on(4, DeleteMode::Strict);
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

    const MODES: [DeleteMode; 2] = [DeleteMode::Strict, DeleteMode::TryLock];

    #[test]
    fn a_lone_item_among_64_queues_is_always_found() {
        // Two samples out of 64 miss a lone item ~97% of the time: a
        // missed sample is a reason to re-choose, never an answer.
        for mode in MODES {
            let mq = mq_on(64, mode);
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
                assert_eq!(got, Some((round, round)), "{mode:?}");
            }
            assert_eq!(h.contention().empty_confirms, 0, "{mode:?}");
        }
    }

    #[test]
    fn empty_and_fully_poisoned_structures_confirm_once_without_spinning() {
        for mode in MODES {
            for poisoned in [false, true] {
                let mq = mq_on(8, mode);
                let mut h = mq.handle(52);
                if poisoned {
                    // Stranded items are unreachable, so the structure
                    // is empty as far as a dequeue goes.
                    for p in 0..40u64 {
                        h.insert(p, p);
                    }
                    for i in 0..8 {
                        poison_queue(&mq, i);
                    }
                }
                h.take_contention();
                let what = format!("{mode:?} / poisoned: {poisoned}");
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
        for mode in MODES {
            assert_producers_vs_consumers(&mq_on(8, mode), &format!("{mode:?}"));
        }
    }

    #[test]
    fn sticky_concurrent_producers_consumers_conserve() {
        for mode in MODES {
            let mq = MultiQueue::with_config(
                (0..16).map(|_| BinaryHeap::new()).collect(),
                mode,
                PolicyCfg::Sticky { ops: 8 },
            );
            assert_producers_vs_consumers(&mq, &format!("sticky(8) / {mode:?}"));
        }
    }
}
