//! The MultiQueue's choice process — which queue each operation
//! touches — as one small concrete type.
//!
//! The paper's central result is that the MultiQueue is
//! *distributionally* linearizable: the rank-error guarantee is a
//! property of the **choice process** layered over the `m` sequential
//! queues. Every process this crate supports is a point of one
//! two-parameter family, so it is one type, [`Policy`]:
//!
//! * `d` — hints sampled per fresh dequeue choice (best of `d`,
//!   Algorithm 2's `ReadMin` generalized; inserts always draw one
//!   queue);
//! * `s` — consecutive same-kind operations a handle camps on a chosen
//!   queue before it draws again (1 = no camping).
//!
//! Policies are **per-handle by construction**: a [`Policy`] lives
//! inside one [`MqHandle`](crate::queue::MqHandle) and every method
//! takes `&mut self`. The shared [`MultiQueue`](crate::queue::MultiQueue)
//! stays `&self` and carries only a [`PolicyCfg`] — the declarative
//! description each handle [`build`](PolicyCfg::build)s its own state
//! from.
//!
//! | [`PolicyCfg`] | `d` | `s` | expected-rank envelope |
//! |---|---|---|---|
//! | `TwoChoice` (Algorithm 2) | 2 | 1 | O(m) |
//! | `DChoice { d }` | `d` | 1 | O(m) for `d ≥ 2`, none for `d = 1` |
//! | `Sticky { ops }` | 2 | `ops` | O(`ops`·m) |
//!
//! # Example
//!
//! ```
//! use dlz_core::queue::{MqHandle, MultiQueue, PolicyCfg};
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
//! let mut fresh = MqHandle::with_policy(&mq, 2, PolicyCfg::TwoChoice.build());
//! let mut drained = 0;
//! while h.dequeue().is_some() || fresh.dequeue().is_some() {
//!     drained += 1;
//! }
//! assert_eq!(drained, 100);
//! ```

use dlz_pq::locked::EMPTY_HINT;
use dlz_pq::ContentionStats;

use crate::rng::Rng64;

/// Which kind of operation a policy callback refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceOp {
    /// An enqueue/insert.
    Insert,
    /// A dequeue/delete-min.
    Dequeue,
}

/// One camp: the queue an operation kind is parked on and how many
/// operations of that kind remain there.
#[derive(Debug, Clone, Copy, Default)]
struct Camp {
    queue: usize,
    left: usize,
}

/// A live choice process: best-of-`d` dequeue sampling with camps of
/// `s` same-kind operations (see the [module docs](self) for the
/// family and its rank envelopes). Built by [`PolicyCfg::build`].
///
/// The structure drives it through a small protocol:
///
/// 1. `choose_insert` / `choose_dequeue` pick the queue for the next
///    operation, reusing a camped queue without touching the hint lines
///    when one is live. `choose_dequeue` returns `None` when every
///    sampled hint read empty — the caller backs off and retries.
/// 2. After the operation lands, `on_success` fires with the serving
///    queue; a fresh dequeue choice that succeeded starts a camp there.
/// 3. A contended or empty chosen queue fires `on_contention`, which
///    voids that kind's camp; a poisoned one fires `on_poisoned`, which
///    evicts only the camps pinned to the dead queue.
///
/// Inserts and dequeues camp independently — interleaving the two kinds
/// disturbs neither camp. While a handle camps it may take up to `s`
/// elements in a row from one queue, so the expected dequeue rank
/// degrades from O(m) to **O(s·m)** — the shape of Theorem 7.1 with the
/// relaxation factor scaled by `s`.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Hints sampled per fresh dequeue choice (≥ 1).
    d: usize,
    /// Same-kind operations per camp (≥ 1; 1 never camps).
    s: usize,
    insert: Camp,
    dequeue: Camp,
    /// Whether the last dequeue choice was a fresh sample (a success
    /// then starts a camp) or a camp reuse (a success just continues).
    dequeue_was_fresh: bool,
    /// Fresh camps started since the last telemetry flush.
    camp_switches: u64,
}

impl Policy {
    /// Chooses the queue for the next insert among `m`: the live insert
    /// camp, else one uniform draw (which starts a camp when `s > 1`).
    #[inline]
    pub(crate) fn choose_insert(&mut self, rng: &mut impl Rng64, m: usize) -> usize {
        if self.insert.left > 0 {
            self.insert.left -= 1;
            return self.insert.queue;
        }
        let q = rng.bounded(m as u64) as usize;
        self.insert = Camp {
            queue: q,
            left: self.s - 1,
        };
        if self.s > 1 {
            self.camp_switches += 1;
        }
        q
    }

    /// Chooses the queue for the next dequeue among `m`, reading queue
    /// `i`'s published min hint as `hint(i)` (Algorithm 2's lock-free
    /// `ReadMin`; `EMPTY_HINT` when the queue is believed empty or is
    /// poisoned). Returns the live dequeue camp, else the best of `d`
    /// fresh draws, or `None` when every sampled hint read empty.
    ///
    /// The draw order is Algorithm 2's and part of the contract: draw an
    /// index, read its hint, draw the next, read its hint; a later draw
    /// wins only on a strictly smaller hint, so ties keep the earlier
    /// one. At `d = 2` this is `i`, `j`, `if pi > pj: i = j` — the same
    /// RNG stream and the same choice as the paper's pseudocode.
    #[inline]
    pub(crate) fn choose_dequeue(
        &mut self,
        rng: &mut impl Rng64,
        m: usize,
        hint: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        if self.dequeue.left > 0 {
            self.dequeue.left -= 1;
            self.dequeue_was_fresh = false;
            return Some(self.dequeue.queue);
        }
        self.dequeue_was_fresh = true;
        let mut best = rng.bounded(m as u64) as usize;
        let mut best_hint = hint(best);
        for _ in 1..self.d {
            let c = rng.bounded(m as u64) as usize;
            let h = hint(c);
            if h < best_hint {
                best = c;
                best_hint = h;
            }
        }
        (best_hint != EMPTY_HINT).then_some(best)
    }

    /// The chosen queue served the operation. Dequeue camps start on a
    /// *successful* fresh sample (camping on a queue that just proved
    /// empty would waste the whole camp); insert camps were already
    /// started in [`choose_insert`](Self::choose_insert).
    #[inline]
    pub(crate) fn on_success(&mut self, op: ChoiceOp, queue: usize) {
        if op == ChoiceOp::Dequeue && self.dequeue_was_fresh && self.s > 1 {
            self.dequeue = Camp {
                queue,
                left: self.s - 1,
            };
            self.camp_switches += 1;
        }
    }

    /// The chosen queue was contended or observed empty: void that
    /// kind's camp so the next choice draws elsewhere.
    #[inline]
    pub(crate) fn on_contention(&mut self, op: ChoiceOp) {
        match op {
            ChoiceOp::Insert => self.insert.left = 0,
            ChoiceOp::Dequeue => self.dequeue.left = 0,
        }
    }

    /// `queue` turned out poisoned (a critical section panicked in it —
    /// see [`dlz_pq::Attempt::Poisoned`]). A quarantined queue refuses
    /// every lock until salvaged, so evict whichever camps are pinned to
    /// it — both kinds, the queue is dead for inserts and dequeues
    /// alike — but leave camps elsewhere untouched: poison is not
    /// contention and says nothing about traffic.
    #[inline]
    pub(crate) fn on_poisoned(&mut self, queue: usize) {
        if self.insert.queue == queue {
            self.insert.left = 0;
        }
        if self.dequeue.queue == queue {
            self.dequeue.left = 0;
        }
    }

    /// Drains the camp-switch counter into `stats`. Reads state, never
    /// perturbs choices or consumes randomness.
    pub(crate) fn flush_telemetry(&mut self, stats: &mut ContentionStats) {
        stats.camp_switches += self.camp_switches;
        self.camp_switches = 0;
    }
}

/// Declarative description of a choice policy — what a
/// [`MultiQueue`](crate::queue::MultiQueue) (or a workload scenario)
/// carries so each handle can [`build`](Self::build) its own
/// per-handle [`Policy`].
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
    /// Builds a fresh per-handle policy: `TwoChoice` is `(d, s) = (2,
    /// 1)`, `DChoice { d }` is `(d, 1)`, `Sticky { ops }` is `(2, ops)`;
    /// a `0` parameter is treated as `1`.
    pub fn build(self) -> Policy {
        let (d, s) = match self {
            PolicyCfg::TwoChoice => (2, 1),
            PolicyCfg::DChoice { d } => (d, 1),
            PolicyCfg::Sticky { ops } => (2, ops),
        };
        Policy {
            d: d.max(1),
            s: s.max(1),
            insert: Camp::default(),
            dequeue: Camp::default(),
            dequeue_was_fresh: false,
            camp_switches: 0,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// A fixed hint array as the `hint` closure a dequeue choice reads.
    fn view(hints: &[u64]) -> (usize, impl Fn(usize) -> u64 + '_) {
        (hints.len(), move |i| hints[i])
    }

    #[test]
    fn two_choice_dequeue_is_algorithm_2() {
        // Queues 1 and 3 tie on a non-empty hint; 2 and 5 are empty.
        let hints = [5, 3, EMPTY_HINT, 3, 9, EMPTY_HINT];
        let (m, hint) = view(&hints);
        for seed in 0..64 {
            let mut p = PolicyCfg::TwoChoice.build();
            let mut rng = Xoshiro256::new(seed);
            let mut oracle = Xoshiro256::new(seed);
            for _ in 0..200 {
                let i = oracle.bounded(m as u64) as usize;
                let j = oracle.bounded(m as u64) as usize;
                let want = (hints[i] != EMPTY_HINT || hints[j] != EMPTY_HINT)
                    .then_some(if hints[i] <= hints[j] { i } else { j });
                assert_eq!(p.choose_dequeue(&mut rng, m, &hint), want, "seed {seed}");
            }
        }
    }

    #[test]
    fn default_process_builds_choose_identically_and_never_camp() {
        let hints = [4, 2, 9, EMPTY_HINT, 2, 7];
        let (m, hint) = view(&hints);
        // One seeded script of choices and callbacks per build.
        let trace = |cfg: PolicyCfg, seed: u64| {
            let mut p = cfg.build();
            let mut rng = Xoshiro256::new(seed);
            let mut choices = Vec::new();
            for step in 0..200 {
                let deq = p.choose_dequeue(&mut rng, m, &hint);
                match deq {
                    Some(_) if step % 5 == 0 => p.on_contention(ChoiceOp::Dequeue),
                    Some(q) => p.on_success(ChoiceOp::Dequeue, q),
                    None => {}
                }
                let ins = p.choose_insert(&mut rng, m);
                p.on_success(ChoiceOp::Insert, ins);
                assert_eq!((p.insert.left, p.dequeue.left), (0, 0), "{cfg:?} camped");
                choices.push((deq, ins));
            }
            let mut stats = ContentionStats::new();
            p.flush_telemetry(&mut stats);
            assert_eq!(stats.camp_switches, 0, "{cfg:?}");
            choices
        };
        for seed in 0..64 {
            let two = trace(PolicyCfg::TwoChoice, seed);
            assert_eq!(trace(PolicyCfg::DChoice { d: 2 }, seed), two, "seed {seed}");
            assert_eq!(
                trace(PolicyCfg::Sticky { ops: 1 }, seed),
                two,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sticky_camps_per_kind_independently() {
        // Interleaved inserts and dequeues: each kind keeps its own
        // camp; the other kind's operations must not disturb it.
        let hints = [0, 1, 2, 3, 4, 5, 6, 7];
        let (m, hint) = view(&hints);
        let mut rng = Xoshiro256::new(9);
        let s = 4;
        let mut p = PolicyCfg::Sticky { ops: s }.build();
        let iq = p.choose_insert(&mut rng, m);
        let dq = p.choose_dequeue(&mut rng, m, &hint).unwrap();
        p.on_success(ChoiceOp::Dequeue, dq);
        // Strictly alternate kinds; both camps must hold for their
        // remaining s-1 operations despite the interleaving.
        for _ in 0..s - 1 {
            assert_eq!(p.choose_insert(&mut rng, m), iq);
            assert_eq!(p.choose_dequeue(&mut rng, m, &hint), Some(dq));
            p.on_success(ChoiceOp::Dequeue, dq);
        }
    }

    #[test]
    fn sticky_contention_voids_only_that_kind() {
        let hints = [0, 1, 2, 3];
        let (m, hint) = view(&hints);
        let mut rng = Xoshiro256::new(10);
        let mut p = PolicyCfg::Sticky { ops: 8 }.build();
        let iq = p.choose_insert(&mut rng, m);
        let dq = p.choose_dequeue(&mut rng, m, &hint).unwrap();
        p.on_success(ChoiceOp::Dequeue, dq);
        p.on_contention(ChoiceOp::Dequeue);
        // Insert camp survives a dequeue contention.
        assert_eq!(p.choose_insert(&mut rng, m), iq);
        // Dequeue camp is gone: the next choice is a fresh sample
        // (which may or may not land on dq — but the camp counter is
        // zero, so it consults the hints again: observable through the
        // fresh-sample flag by camping anew on success).
        let fresh = p.choose_dequeue(&mut rng, m, &hint).unwrap();
        p.on_success(ChoiceOp::Dequeue, fresh);
        for _ in 0..7 {
            assert_eq!(p.choose_dequeue(&mut rng, m, &hint), Some(fresh));
            p.on_success(ChoiceOp::Dequeue, fresh);
        }
    }

    #[test]
    fn sticky_poison_evicts_only_camps_on_the_dead_queue() {
        let hints = [0, 1, 2, 3, 4, 5, 6, 7];
        let (m, hint) = view(&hints);
        let mut rng = Xoshiro256::new(21);
        let mut p = PolicyCfg::Sticky { ops: 8 }.build();
        let iq = p.choose_insert(&mut rng, m);
        let dq = p.choose_dequeue(&mut rng, m, &hint).unwrap();
        p.on_success(ChoiceOp::Dequeue, dq);
        // Poison on an unrelated queue disturbs neither camp.
        let other = (0..8).find(|q| *q != iq && *q != dq).unwrap();
        p.on_poisoned(other);
        assert_eq!(p.choose_insert(&mut rng, m), iq);
        assert_eq!(p.choose_dequeue(&mut rng, m, &hint), Some(dq));
        p.on_success(ChoiceOp::Dequeue, dq);
        // Poison on the camped dequeue queue evicts that camp; a camp
        // restarts on the next fresh success, never on the dead queue
        // implicitly.
        p.on_poisoned(dq);
        let fresh = p.choose_dequeue(&mut rng, m, &hint).unwrap();
        p.on_success(ChoiceOp::Dequeue, fresh);
        for _ in 0..7 {
            assert_eq!(p.choose_dequeue(&mut rng, m, &hint), Some(fresh));
            p.on_success(ChoiceOp::Dequeue, fresh);
        }
        // The insert camp (different queue) survived throughout.
        if iq != dq {
            assert_eq!(p.choose_insert(&mut rng, m), iq);
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
        for (cfg, d, s) in [
            (PolicyCfg::TwoChoice, 2, 1),
            (PolicyCfg::DChoice { d: 3 }, 3, 1),
            (PolicyCfg::DChoice { d: 0 }, 1, 1),
            (PolicyCfg::Sticky { ops: 16 }, 2, 16),
            (PolicyCfg::Sticky { ops: 0 }, 2, 1),
        ] {
            let p = cfg.build();
            assert_eq!((p.d, p.s), (d, s), "{cfg:?}");
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
}
