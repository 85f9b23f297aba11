//! Pluggable choice policies — the MultiQueue's selection layer as a
//! first-class object.
//!
//! The paper's central result is that the MultiQueue is
//! *distributionally* linearizable: the rank-error guarantee is a
//! property of the **choice process** (two-choice sampling, d-choice,
//! stickiness) layered over the `m` sequential queues, not of any one
//! hard-coded method. This module reifies that process as the
//! [`ChoicePolicy`] trait, so every future policy is a small type
//! implementing four methods instead of a new family of `insert_*` /
//! `dequeue_*` clones on the structure itself.
//!
//! Policies are **per-handle by construction**: every method takes
//! `&mut self`, and a policy instance lives inside one
//! [`MqHandle`](crate::queue::MqHandle) (or one worker). The shared
//! [`MultiQueue`](crate::queue::MultiQueue) stays `&self` and carries
//! only a [`PolicyCfg`] — the declarative description from which each
//! handle builds its own state.
//!
//! | policy | dequeue choice | expected-rank envelope |
//! |---|---|---|
//! | [`TwoChoice`] | best of 2 sampled hints (Algorithm 2) | O(m) |
//! | [`DChoice`] | best of `d` sampled hints | O(m) for `d ≥ 2` |
//! | [`Sticky`] | camp on one queue for `s` same-kind ops | O(s·m) |
//!
//! # Example
//!
//! ```
//! use dlz_core::queue::{MqHandle, MultiQueue, PolicyCfg, Sticky};
//!
//! // Structure-level default policy: every `handle()` inherits it.
//! let mq: MultiQueue<u64> = MultiQueue::<u64>::builder()
//!     .queues(8)
//!     .policy(PolicyCfg::Sticky { ops: 4 })
//!     .build();
//! let mut h = mq.handle(1);
//! for p in 0..100 {
//!     h.insert(p, p);
//! }
//! // Per-handle override: this handle samples fresh queues every op
//! // while the one above keeps camping.
//! let mut fresh = MqHandle::with_policy(&mq, 2, Sticky::new(1));
//! let mut drained = 0;
//! while h.dequeue().is_some() || fresh.dequeue().is_some() {
//!     drained += 1;
//! }
//! assert_eq!(drained, 100);
//! ```

use dlz_pq::locked::EMPTY_HINT;
use dlz_pq::ContentionStats;

use crate::rng::Rng64;

/// What a policy can observe about the structure it is choosing over:
/// the queue count `m` and the lock-free per-queue min hints (Algorithm
/// 2's `ReadMin`).
///
/// Implemented by [`MultiQueue`](crate::queue::MultiQueue); policies
/// never see the queues themselves, only this read-only view.
pub trait QueueView {
    /// Number of internal queues (the paper's `m`).
    fn num_queues(&self) -> usize;

    /// Queue `i`'s published min-priority hint (`u64::MAX` when the
    /// queue is believed empty). Lock-free and possibly stale — that
    /// staleness is the relaxation the paper analyzes.
    fn queue_hint(&self, i: usize) -> u64;

    /// `true` if queue `i` is poisoned (a critical section panicked in
    /// it) and should be chosen around. Defaults to `false` for views
    /// that cannot be poisoned. Poisoned queues also publish the empty
    /// hint, so hint-driven dequeue sampling skips them without an
    /// extra check — this predicate exists for callers that need the
    /// distinction (emptiness and salvage sweeps).
    fn queue_poisoned(&self, i: usize) -> bool {
        let _ = i;
        false
    }
}

/// Which kind of operation a policy callback refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceOp {
    /// An enqueue/insert.
    Insert,
    /// A dequeue/delete-min.
    Dequeue,
}

/// The choice process over a MultiQueue's internal queues.
///
/// The structure drives the policy through a small protocol:
///
/// 1. [`choose_insert`](Self::choose_insert) /
///    [`choose_dequeue`](Self::choose_dequeue) pick the queue for the
///    next operation (possibly reusing a camped queue without touching
///    the hint lines). `choose_dequeue` returns `None` when every
///    sampled hint read empty — the caller backs off and retries.
/// 2. After the operation lands, [`on_success`](Self::on_success) fires
///    with the serving queue, letting stateful policies start or
///    continue a camp.
/// 3. If the chosen queue was contended (try-lock failure) or turned
///    out empty (stale hint, drained camp),
///    [`on_contention`](Self::on_contention) fires and the structure
///    asks for a fresh choice.
///
/// Methods take `&mut self` and `impl`-trait parameters (no trait
/// objects): policy state is per-handle by construction and every call
/// monomorphizes down to the same code the hand-written paths compiled
/// to.
pub trait ChoicePolicy {
    /// Chooses the queue for the next insert.
    fn choose_insert(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> usize;

    /// Chooses the queue for the next dequeue, or `None` when every
    /// hint the policy sampled read empty (the caller treats this as
    /// "possibly empty": it backs off, re-checks global emptiness and
    /// retries).
    fn choose_dequeue(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> Option<usize>;

    /// The chosen queue served the operation.
    fn on_success(&mut self, op: ChoiceOp, queue: usize) {
        let _ = (op, queue);
    }

    /// The chosen queue was contended or observed empty; the next
    /// `choose_*` call should pick somewhere else.
    fn on_contention(&mut self, op: ChoiceOp, queue: usize) {
        let _ = (op, queue);
    }

    /// The chosen queue turned out poisoned (a critical section
    /// panicked in it — see [`dlz_pq::Attempt::Poisoned`]). The queue is
    /// quarantined: it will keep refusing locks until salvaged, so a
    /// camping policy must abandon any camp on it and the next
    /// `choose_*` call must pick somewhere else. Poison is **not**
    /// contention — camping policies evict only a camp pinned to the
    /// dead queue and must not treat the event as a congestion signal
    /// (it says nothing about traffic). The default is a no-op for
    /// stateless policies.
    fn on_poisoned(&mut self, op: ChoiceOp, queue: usize) {
        let _ = (op, queue);
    }

    /// Drains the policy's internal telemetry counters (camp switches)
    /// into `stats`. Policies without internal counters need not
    /// implement this. Must not affect choice behaviour or consume
    /// randomness — telemetry reads state, it never perturbs it.
    fn flush_telemetry(&mut self, stats: &mut ContentionStats) {
        let _ = stats;
    }
}

/// One two-choice sample (Algorithm 2's `ReadMin` pair): the chosen
/// queue index, or `None` when both sampled hints read empty.
/// `if pi > pj: i = j` — ties stay with `i`. Draw order (`i` then `j`)
/// is part of the contract: it keeps [`TwoChoice`] bit-for-bit
/// compatible with the pre-policy implementation under a fixed seed.
#[inline]
fn two_choice_sample(rng: &mut impl Rng64, view: &impl QueueView) -> Option<usize> {
    let m = view.num_queues() as u64;
    let i = rng.bounded(m) as usize;
    let j = rng.bounded(m) as usize;
    let hi = view.queue_hint(i);
    let hj = view.queue_hint(j);
    if hi == EMPTY_HINT && hj == EMPTY_HINT {
        return None;
    }
    Some(if hi <= hj { i } else { j })
}

/// Algorithm 2 as written: every insert lands on one uniformly random
/// queue; every dequeue takes the apparently-better of two uniformly
/// random queues. Stateless — the zero-sized default policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoChoice;

impl ChoicePolicy for TwoChoice {
    #[inline]
    fn choose_insert(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> usize {
        rng.bounded(view.num_queues() as u64) as usize
    }

    #[inline]
    fn choose_dequeue(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> Option<usize> {
        two_choice_sample(rng, view)
    }
}

/// The d-choice generalization: dequeues sample the best of `d` hints.
/// `d = 1` removes from a single random queue (the divergent
/// single-choice regime — no rank envelope); `d = 2` is [`TwoChoice`];
/// larger `d` tightens the rank distribution at the price of `d` hint
/// reads per dequeue. Inserts stay single-sample, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DChoice {
    /// Hints sampled per dequeue (≥ 1).
    pub d: usize,
}

impl DChoice {
    /// A policy sampling `d` queues per dequeue; `0` is treated as `1`.
    pub fn new(d: usize) -> Self {
        DChoice { d: d.max(1) }
    }
}

impl ChoicePolicy for DChoice {
    #[inline]
    fn choose_insert(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> usize {
        rng.bounded(view.num_queues() as u64) as usize
    }

    fn choose_dequeue(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> Option<usize> {
        let m = view.num_queues() as u64;
        let mut best = rng.bounded(m) as usize;
        let mut best_hint = view.queue_hint(best);
        for _ in 1..self.d.max(1) {
            let c = rng.bounded(m) as usize;
            let h = view.queue_hint(c);
            // Strict `<`: ties keep the earlier draw, matching the
            // pre-policy `dequeue_k_with` and (at d = 2) `TwoChoice`.
            if h < best_hint {
                best = c;
                best_hint = h;
            }
        }
        if best_hint == EMPTY_HINT {
            None
        } else {
            Some(best)
        }
    }
}

/// One camp: the queue an operation kind is parked on and how many
/// operations of that kind remain there.
#[derive(Debug, Clone, Copy, Default)]
struct Camp {
    queue: usize,
    left: usize,
}

/// Static stickiness: a handle keeps its chosen queue for up to `s`
/// consecutive **same-kind** operations, skipping the random draws and
/// hint reads in between. Inserts and dequeues camp independently —
/// interleaving the two kinds does not disturb either camp.
///
/// Contention or an empty camped queue voids the camp early. The price
/// is rank quality: while a handle camps it may take up to `s` elements
/// in a row from one queue, so the expected dequeue rank degrades from
/// O(m) to **O(s·m)** — the shape of Theorem 7.1 with the relaxation
/// factor scaled by `s`. The workload layer verifies this envelope
/// empirically. With `s = 1` the policy is operation-for-operation
/// identical to [`TwoChoice`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Sticky {
    ops: usize,
    insert: Camp,
    dequeue: Camp,
    /// Whether the last dequeue choice was a fresh sample (a success
    /// then starts a camp) or a camp reuse (a success just continues).
    dequeue_was_fresh: bool,
    /// Fresh camps started since the last telemetry flush.
    camp_switches: u64,
}

impl Sticky {
    /// A policy keeping the chosen queue for `ops` consecutive
    /// same-kind operations; `0` is treated as `1` (no stickiness).
    pub fn new(ops: usize) -> Self {
        Sticky {
            ops: ops.max(1),
            ..Sticky::default()
        }
    }

    /// Consecutive same-kind operations per chosen queue.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// `true` if the policy actually changes behaviour.
    pub fn is_active(&self) -> bool {
        self.ops > 1
    }
}

impl ChoicePolicy for Sticky {
    fn choose_insert(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> usize {
        if self.insert.left > 0 {
            self.insert.left -= 1;
            return self.insert.queue;
        }
        let q = rng.bounded(view.num_queues() as u64) as usize;
        self.insert = Camp {
            queue: q,
            left: self.ops - 1,
        };
        if self.ops > 1 {
            self.camp_switches += 1;
        }
        q
    }

    fn choose_dequeue(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> Option<usize> {
        if self.dequeue.left > 0 {
            self.dequeue.left -= 1;
            self.dequeue_was_fresh = false;
            return Some(self.dequeue.queue);
        }
        self.dequeue_was_fresh = true;
        two_choice_sample(rng, view)
    }

    fn on_success(&mut self, op: ChoiceOp, queue: usize) {
        // Dequeue camps start on a *successful* fresh sample (camping on
        // a queue that just proved empty would waste the whole camp);
        // insert camps were already started in `choose_insert`.
        if op == ChoiceOp::Dequeue && self.dequeue_was_fresh && self.ops > 1 {
            self.dequeue = Camp {
                queue,
                left: self.ops - 1,
            };
            self.camp_switches += 1;
        }
    }

    fn on_contention(&mut self, op: ChoiceOp, _queue: usize) {
        match op {
            ChoiceOp::Insert => self.insert.left = 0,
            ChoiceOp::Dequeue => self.dequeue.left = 0,
        }
    }

    fn on_poisoned(&mut self, _op: ChoiceOp, queue: usize) {
        // A quarantined queue refuses every lock: evict whichever camps
        // are pinned to it (both kinds — the queue is dead for inserts
        // and dequeues alike), but leave camps elsewhere untouched.
        if self.insert.queue == queue {
            self.insert.left = 0;
        }
        if self.dequeue.queue == queue {
            self.dequeue.left = 0;
        }
    }

    fn flush_telemetry(&mut self, stats: &mut ContentionStats) {
        stats.camp_switches += self.camp_switches;
        self.camp_switches = 0;
    }
}

/// Declarative description of a choice policy — what a
/// [`MultiQueue`](crate::queue::MultiQueue) (or a workload scenario)
/// carries so each handle can [`build`](Self::build) its own
/// per-handle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyCfg {
    /// Fresh two-choice sampling every operation (Algorithm 2).
    #[default]
    TwoChoice,
    /// Best-of-`d` dequeue sampling.
    DChoice {
        /// Hints sampled per dequeue (≥ 1).
        d: usize,
    },
    /// Camp on the chosen queue for `ops` consecutive same-kind ops.
    Sticky {
        /// Consecutive same-kind operations per chosen queue (≥ 1).
        ops: usize,
    },
}

impl PolicyCfg {
    /// Builds a fresh per-handle policy instance.
    pub fn build(self) -> AnyPolicy {
        match self {
            PolicyCfg::TwoChoice => AnyPolicy::TwoChoice(TwoChoice),
            PolicyCfg::DChoice { d } => AnyPolicy::DChoice(DChoice::new(d)),
            PolicyCfg::Sticky { ops } => AnyPolicy::Sticky(Sticky::new(ops)),
        }
    }

    /// The policy's rank-envelope factor `f`: expected dequeue rank is
    /// O(`f`·m) in the style of Theorem 7.1 (1 for fresh two-choice
    /// sampling, `s` for stickiness). Non-finite means "no bound"
    /// (single-choice sampling diverges).
    pub fn envelope_factor(self) -> f64 {
        match self {
            PolicyCfg::TwoChoice => 1.0,
            PolicyCfg::DChoice { d } => {
                if d >= 2 {
                    1.0
                } else {
                    f64::INFINITY
                }
            }
            PolicyCfg::Sticky { ops } => ops.max(1) as f64,
        }
    }

    /// `true` if the config does **not** deviate from plain two-choice
    /// sampling (the paper's Algorithm 2 behaviour).
    pub fn is_default(self) -> bool {
        matches!(
            self,
            PolicyCfg::TwoChoice | PolicyCfg::DChoice { d: 2 } | PolicyCfg::Sticky { ops: 1 }
        )
    }

    /// Short human-readable label used in backend names and reports.
    pub fn label(self) -> String {
        match self {
            PolicyCfg::TwoChoice => "two-choice".to_string(),
            PolicyCfg::DChoice { d } => format!("d-choice(d={d})"),
            PolicyCfg::Sticky { ops } => format!("sticky(s={ops})"),
        }
    }

    /// Parses a policy description — the inverse of [`label`](Self::label)
    /// plus the compact CLI forms:
    ///
    /// * `two-choice` (also `twochoice`, `2choice`)
    /// * `d-choice=4` (also `dchoice4`, `d-choice(d=4)`)
    /// * `sticky=16` (also `sticky16`, `sticky(s=16)`)
    pub fn parse(s: &str) -> Result<PolicyCfg, String> {
        // Normalize the label round-trip forms down to `name=N`.
        let t = s
            .trim()
            .to_lowercase()
            .replace("(s=", "=")
            .replace("(d=", "=")
            .replace(['(', ')'], "");
        let (name, num) = match t.find(|c: char| c.is_ascii_digit()) {
            Some(i) if i > 0 => (&t[..i], &t[i..]),
            _ => (t.as_str(), ""),
        };
        let name = name.trim_end_matches(['=', '-', '_']);
        let parse_num = |what: &str| -> Result<usize, String> {
            num.parse::<usize>()
                .map_err(|_| format!("policy '{s}': '{num}' is not a valid {what}"))
        };
        match name {
            "two-choice" | "twochoice" | "two_choice" | "2choice" => {
                if num.is_empty() {
                    Ok(PolicyCfg::TwoChoice)
                } else {
                    // A numeric suffix on a no-parameter policy is most
                    // likely a typo for sticky=N / d-choice=N — reject
                    // rather than silently drop it.
                    Err(format!("policy '{s}': two-choice takes no parameter"))
                }
            }
            "d-choice" | "dchoice" | "d" => Ok(PolicyCfg::DChoice { d: parse_num("d")? }),
            "sticky" | "s" => Ok(PolicyCfg::Sticky {
                ops: parse_num("camp length")?,
            }),
            _ => Err(format!(
                "unknown policy '{s}' (expected two-choice, d-choice=N or sticky=N)"
            )),
        }
    }
}

impl std::str::FromStr for PolicyCfg {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyCfg::parse(s)
    }
}

/// Runtime-dispatched policy: any [`PolicyCfg`] as a live instance.
/// This is what configuration-driven callers (the workload engine, the
/// default [`MultiQueue::handle`](crate::queue::MultiQueue::handle))
/// hold; monomorphizing callers use the concrete types directly and
/// pay no dispatch at all.
#[derive(Debug, Clone, Copy)]
pub enum AnyPolicy {
    /// See [`TwoChoice`].
    TwoChoice(TwoChoice),
    /// See [`DChoice`].
    DChoice(DChoice),
    /// See [`Sticky`].
    Sticky(Sticky),
}

impl ChoicePolicy for AnyPolicy {
    fn choose_insert(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> usize {
        match self {
            AnyPolicy::TwoChoice(p) => p.choose_insert(rng, view),
            AnyPolicy::DChoice(p) => p.choose_insert(rng, view),
            AnyPolicy::Sticky(p) => p.choose_insert(rng, view),
        }
    }

    fn choose_dequeue(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> Option<usize> {
        match self {
            AnyPolicy::TwoChoice(p) => p.choose_dequeue(rng, view),
            AnyPolicy::DChoice(p) => p.choose_dequeue(rng, view),
            AnyPolicy::Sticky(p) => p.choose_dequeue(rng, view),
        }
    }

    fn on_success(&mut self, op: ChoiceOp, queue: usize) {
        match self {
            AnyPolicy::TwoChoice(p) => p.on_success(op, queue),
            AnyPolicy::DChoice(p) => p.on_success(op, queue),
            AnyPolicy::Sticky(p) => p.on_success(op, queue),
        }
    }

    fn on_contention(&mut self, op: ChoiceOp, queue: usize) {
        match self {
            AnyPolicy::TwoChoice(p) => p.on_contention(op, queue),
            AnyPolicy::DChoice(p) => p.on_contention(op, queue),
            AnyPolicy::Sticky(p) => p.on_contention(op, queue),
        }
    }

    fn on_poisoned(&mut self, op: ChoiceOp, queue: usize) {
        match self {
            AnyPolicy::TwoChoice(p) => p.on_poisoned(op, queue),
            AnyPolicy::DChoice(p) => p.on_poisoned(op, queue),
            AnyPolicy::Sticky(p) => p.on_poisoned(op, queue),
        }
    }

    fn flush_telemetry(&mut self, stats: &mut ContentionStats) {
        match self {
            AnyPolicy::TwoChoice(p) => p.flush_telemetry(stats),
            AnyPolicy::DChoice(p) => p.flush_telemetry(stats),
            AnyPolicy::Sticky(p) => p.flush_telemetry(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// A scriptable view: fixed m, programmable hints.
    struct FakeView {
        hints: Vec<u64>,
    }

    impl FakeView {
        fn new(hints: Vec<u64>) -> Self {
            FakeView { hints }
        }
    }

    impl QueueView for FakeView {
        fn num_queues(&self) -> usize {
            self.hints.len()
        }
        fn queue_hint(&self, i: usize) -> u64 {
            self.hints[i]
        }
    }

    #[test]
    fn two_choice_and_dchoice2_draw_identically() {
        let view = FakeView::new(vec![5, 3, 9, 7, EMPTY_HINT, 1, 2, 8]);
        for seed in 0..64 {
            let mut r1 = Xoshiro256::new(seed);
            let mut r2 = Xoshiro256::new(seed);
            let mut tc = TwoChoice;
            let mut dc = DChoice::new(2);
            for _ in 0..200 {
                assert_eq!(
                    tc.choose_dequeue(&mut r1, &view),
                    dc.choose_dequeue(&mut r2, &view)
                );
                assert_eq!(
                    tc.choose_insert(&mut r1, &view),
                    dc.choose_insert(&mut r2, &view)
                );
            }
        }
    }

    #[test]
    fn sticky_one_is_two_choice() {
        let view = FakeView::new(vec![5, 3, 9, EMPTY_HINT]);
        for seed in 0..64 {
            let mut r1 = Xoshiro256::new(seed);
            let mut r2 = Xoshiro256::new(seed);
            let mut tc = TwoChoice;
            let mut st = Sticky::new(1);
            for step in 0..200 {
                let a = tc.choose_dequeue(&mut r1, &view);
                let b = st.choose_dequeue(&mut r2, &view);
                assert_eq!(a, b);
                if let Some(q) = b {
                    // Successes must not start a camp at s = 1.
                    tc.on_success(ChoiceOp::Dequeue, q);
                    st.on_success(ChoiceOp::Dequeue, q);
                }
                if step % 3 == 0 {
                    assert_eq!(
                        tc.choose_insert(&mut r1, &view),
                        st.choose_insert(&mut r2, &view)
                    );
                }
            }
        }
    }

    #[test]
    fn sticky_camps_per_kind_independently() {
        // Interleaved inserts and dequeues: each kind keeps its own
        // camp; the other kind's operations must not disturb it.
        let view = FakeView::new(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mut rng = Xoshiro256::new(9);
        let s = 4;
        let mut p = Sticky::new(s);
        let iq = p.choose_insert(&mut rng, &view);
        let dq = p.choose_dequeue(&mut rng, &view).unwrap();
        p.on_success(ChoiceOp::Dequeue, dq);
        // Strictly alternate kinds; both camps must hold for their
        // remaining s-1 operations despite the interleaving.
        for _ in 0..s - 1 {
            assert_eq!(p.choose_insert(&mut rng, &view), iq);
            assert_eq!(p.choose_dequeue(&mut rng, &view), Some(dq));
            p.on_success(ChoiceOp::Dequeue, dq);
        }
    }

    #[test]
    fn sticky_contention_voids_only_that_kind() {
        let view = FakeView::new(vec![0, 1, 2, 3]);
        let mut rng = Xoshiro256::new(10);
        let mut p = Sticky::new(8);
        let iq = p.choose_insert(&mut rng, &view);
        let dq = p.choose_dequeue(&mut rng, &view).unwrap();
        p.on_success(ChoiceOp::Dequeue, dq);
        p.on_contention(ChoiceOp::Dequeue, dq);
        // Insert camp survives a dequeue contention.
        assert_eq!(p.choose_insert(&mut rng, &view), iq);
        // Dequeue camp is gone: the next choice is a fresh sample
        // (which may or may not land on dq — but the camp counter is
        // zero, so it consults the hints again: observable through the
        // fresh-sample flag by camping anew on success).
        let fresh = p.choose_dequeue(&mut rng, &view).unwrap();
        p.on_success(ChoiceOp::Dequeue, fresh);
        for _ in 0..7 {
            assert_eq!(p.choose_dequeue(&mut rng, &view), Some(fresh));
            p.on_success(ChoiceOp::Dequeue, fresh);
        }
    }

    #[test]
    fn sticky_poison_evicts_only_camps_on_the_dead_queue() {
        let view = FakeView::new(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mut rng = Xoshiro256::new(21);
        let mut p = Sticky::new(8);
        let iq = p.choose_insert(&mut rng, &view);
        let dq = p.choose_dequeue(&mut rng, &view).unwrap();
        p.on_success(ChoiceOp::Dequeue, dq);
        // Poison on an unrelated queue disturbs neither camp.
        let other = (0..8).find(|q| *q != iq && *q != dq).unwrap();
        p.on_poisoned(ChoiceOp::Dequeue, other);
        assert_eq!(p.choose_insert(&mut rng, &view), iq);
        assert_eq!(p.choose_dequeue(&mut rng, &view), Some(dq));
        p.on_success(ChoiceOp::Dequeue, dq);
        // Poison on the camped dequeue queue evicts that camp; a camp
        // restarts on the next fresh success, never on the dead queue
        // implicitly.
        p.on_poisoned(ChoiceOp::Dequeue, dq);
        let fresh = p.choose_dequeue(&mut rng, &view).unwrap();
        p.on_success(ChoiceOp::Dequeue, fresh);
        for _ in 0..7 {
            assert_eq!(p.choose_dequeue(&mut rng, &view), Some(fresh));
            p.on_success(ChoiceOp::Dequeue, fresh);
        }
        // The insert camp (different queue) survived throughout.
        if iq != dq {
            assert_eq!(p.choose_insert(&mut rng, &view), iq);
        }
    }

    #[test]
    fn policy_cfg_roundtrip_and_labels() {
        assert_eq!(PolicyCfg::default(), PolicyCfg::TwoChoice);
        assert!(PolicyCfg::TwoChoice.is_default());
        assert!(PolicyCfg::Sticky { ops: 1 }.is_default());
        assert!(!PolicyCfg::Sticky { ops: 8 }.is_default());
        assert_eq!(PolicyCfg::TwoChoice.label(), "two-choice");
        assert_eq!(PolicyCfg::Sticky { ops: 8 }.label(), "sticky(s=8)");
        assert_eq!(PolicyCfg::DChoice { d: 4 }.label(), "d-choice(d=4)");
        assert_eq!(PolicyCfg::Sticky { ops: 8 }.envelope_factor(), 8.0);
        assert_eq!(PolicyCfg::TwoChoice.envelope_factor(), 1.0);
        assert!(PolicyCfg::DChoice { d: 1 }.envelope_factor().is_infinite());
        match (PolicyCfg::Sticky { ops: 0 }).build() {
            AnyPolicy::Sticky(p) => assert_eq!(p.ops(), 1),
            other => panic!("wrong build: {other:?}"),
        }
    }

    #[test]
    fn policy_parse_accepts_compact_and_label_forms() {
        for (text, want) in [
            ("two-choice", PolicyCfg::TwoChoice),
            ("twochoice", PolicyCfg::TwoChoice),
            ("2choice", PolicyCfg::TwoChoice),
            ("d-choice=4", PolicyCfg::DChoice { d: 4 }),
            ("dchoice4", PolicyCfg::DChoice { d: 4 }),
            ("sticky=16", PolicyCfg::Sticky { ops: 16 }),
            ("sticky16", PolicyCfg::Sticky { ops: 16 }),
            ("Sticky(s=8)", PolicyCfg::Sticky { ops: 8 }),
        ] {
            assert_eq!(PolicyCfg::parse(text), Ok(want), "{text}");
            // FromStr delegates.
            assert_eq!(text.parse::<PolicyCfg>(), Ok(want));
        }
        // Every label round-trips through parse.
        for cfg in [
            PolicyCfg::TwoChoice,
            PolicyCfg::DChoice { d: 3 },
            PolicyCfg::Sticky { ops: 16 },
        ] {
            assert_eq!(PolicyCfg::parse(&cfg.label()), Ok(cfg), "{}", cfg.label());
        }
        for bad in [
            "",
            "sticky",
            "sticky=x",
            "frobnicate",
            "d-choice",
            // A numeric suffix on the parameterless policy is rejected,
            // not silently dropped.
            "two-choice16",
            "twochoice8",
        ] {
            assert!(PolicyCfg::parse(bad).is_err(), "{bad} should not parse");
        }
        // The removed adaptive policy is an unknown name in every form it
        // used to take, and the message lists exactly the accepted ones.
        for gone in ["adaptive=16", "adaptive8", "adaptive(s_max=16)"] {
            let e = PolicyCfg::parse(gone).expect_err(gone);
            assert!(
                e.ends_with("(expected two-choice, d-choice=N or sticky=N)"),
                "{e}"
            );
        }
    }

    #[test]
    fn any_policy_dispatches_like_the_concrete_type() {
        let view = FakeView::new(vec![4, 2, 9, EMPTY_HINT]);
        for cfg in [
            PolicyCfg::TwoChoice,
            PolicyCfg::DChoice { d: 3 },
            PolicyCfg::Sticky { ops: 4 },
        ] {
            let mut r1 = Xoshiro256::new(77);
            let mut r2 = Xoshiro256::new(77);
            let mut any = cfg.build();
            // Concrete twin driven through the same script.
            type Chooser = Box<dyn FnMut(&mut Xoshiro256, &FakeView) -> Option<usize>>;
            let mut concrete: Chooser = match cfg {
                PolicyCfg::TwoChoice => {
                    let mut p = TwoChoice;
                    Box::new(move |r, v| p.choose_dequeue(r, v))
                }
                PolicyCfg::DChoice { d } => {
                    let mut p = DChoice::new(d);
                    Box::new(move |r, v| p.choose_dequeue(r, v))
                }
                PolicyCfg::Sticky { ops } => {
                    let mut p = Sticky::new(ops);
                    Box::new(move |r, v| p.choose_dequeue(r, v))
                }
            };
            for _ in 0..50 {
                assert_eq!(any.choose_dequeue(&mut r1, &view), concrete(&mut r2, &view));
            }
        }
    }
}
