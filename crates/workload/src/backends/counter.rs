//! Counter-family backends: every relaxed counter in `dlz-core` behind
//! the unified [`Backend`] interface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dlz_core::rng::Xoshiro256;
use dlz_core::spec::{
    check_distributional, CounterOp, CounterSpec, Event, History, HistoryArtifact, StampClock,
    ThreadLog,
};
use dlz_core::{DChoiceCounter, ExactCounter, MultiCounter, RelaxedCounter, ShardedCounter};

use crate::backend::{Backend, QualityReport, QualitySummary, Worker, WorkerCfg};
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

/// Generous constant over the `m·ln m` deviation scale, as the core
/// tests use: the reported read-deviation bound is
/// `DEVIATION_BOUND_C · scale`. Public so offline checkers
/// (`histcheck`) reconstruct the *same* envelope from an artifact's
/// `envelope_factor`.
pub const DEVIATION_BOUND_C: f64 = 4.0;

/// Any counter from `dlz-core`, with explicit-RNG calls where the
/// concrete type offers them (keeping runs deterministic per seed).
#[derive(Debug)]
pub enum AnyCounter {
    /// Algorithm 1.
    Multi(MultiCounter),
    /// The d-choice generalization.
    DChoice(DChoiceCounter),
    /// Per-thread stripes (no bounded single-sample read).
    Sharded(ShardedCounter),
    /// The single fetch-and-add baseline.
    Exact(ExactCounter),
}

/// A counter behind the [`Backend`] interface.
///
/// `Update` applies the op's weight (a weight-w add for the
/// MultiCounter, w unit increments for substrates without a weighted
/// add, so conservation laws stay exact). `Read` draws a sampled
/// relaxed read and, every `quality_every` reads, records its distance
/// to the interval two exact sums taken around it span — the paper's
/// read-error metric (Lemma 6.8) without the error of racing a single
/// exact sum. `Remove` is treated as a read: counters don't consume.
///
/// With `record_history` on, workers record a stamped
/// [`CounterOp`] history (unit increments; reads with their returned
/// values) and [`quality`](Backend::quality) replays it through the
/// relaxed-counter checker: each read's cost is its deviation from the
/// true count *at its linearization point* — the exact Lemma 6.8
/// metric, rather than the bracketed online sample.
#[derive(Debug)]
pub struct CounterBackend {
    inner: AnyCounter,
    label: String,
    /// Sum of weights actually applied (conservation ground truth).
    expected: AtomicU64,
    deviations: Mutex<Vec<f64>>,
    /// Stamp source and per-thread logs for history mode.
    clock: StampClock,
    logs: Mutex<Vec<ThreadLog<CounterOp>>>,
    /// The last run's history, packaged for export (stashed by
    /// `quality()`, drained by `take_history_artifact()`).
    artifact: Mutex<Option<HistoryArtifact>>,
}

impl CounterBackend {
    /// Wraps a MultiCounter with `m` cells.
    pub fn multicounter(m: usize) -> Self {
        Self::new(
            AnyCounter::Multi(MultiCounter::new(m)),
            format!("multicounter(m={m})"),
        )
    }

    /// Wraps a d-choice counter.
    pub fn dchoice(m: usize, d: usize, seed: u64) -> Self {
        Self::new(
            AnyCounter::DChoice(DChoiceCounter::new(m, d, seed)),
            format!("dchoice(m={m},d={d})"),
        )
    }

    /// Wraps a sharded (striped) counter.
    pub fn sharded(stripes: usize) -> Self {
        Self::new(
            AnyCounter::Sharded(ShardedCounter::new(stripes)),
            format!("sharded(s={stripes})"),
        )
    }

    /// Wraps the exact fetch-and-add baseline.
    pub fn exact() -> Self {
        Self::new(AnyCounter::Exact(ExactCounter::new()), "exact-faa".into())
    }

    fn new(inner: AnyCounter, label: String) -> Self {
        CounterBackend {
            inner,
            label,
            expected: AtomicU64::new(0),
            deviations: Mutex::new(Vec::new()),
            clock: StampClock::new(),
            logs: Mutex::new(Vec::new()),
            artifact: Mutex::new(None),
        }
    }

    fn read_exact(&self) -> u64 {
        match &self.inner {
            AnyCounter::Multi(c) => c.read_exact(),
            AnyCounter::DChoice(c) => c.read_exact(),
            AnyCounter::Sharded(c) => c.read_exact(),
            AnyCounter::Exact(c) => c.read_exact(),
        }
    }

    /// The deviation scale the paper's Lemma 6.8 bounds: `m·ln m` for
    /// cell-sampling counters; 0 for the exact baseline.
    fn deviation_scale(&self) -> f64 {
        let m = match &self.inner {
            AnyCounter::Multi(c) => c.num_counters(),
            AnyCounter::DChoice(c) => c.num_counters(),
            AnyCounter::Sharded(c) => c.num_stripes(),
            AnyCounter::Exact(_) => return 0.0,
        } as f64;
        m * m.max(2.0).ln()
    }

    fn max_gap(&self) -> u64 {
        match &self.inner {
            AnyCounter::Multi(c) => c.max_gap(),
            AnyCounter::DChoice(c) => c.max_gap(),
            AnyCounter::Sharded(c) => c.max_gap(),
            AnyCounter::Exact(_) => 0,
        }
    }
}

impl Backend for CounterBackend {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn family(&self) -> Family {
        Family::Counter
    }

    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(CounterWorker {
            backend: self,
            rng: Xoshiro256::new(cfg.seed),
            stripe: cfg.id % cfg.threads.max(1),
            thread: cfg.id,
            quality_every: cfg.quality_every,
            reads_seen: 0,
            added: 0,
            deviations: Vec::new(),
            log: cfg.record_history.then(|| ThreadLog::new(cfg.id)),
        })
    }

    fn residual(&self) -> u64 {
        self.read_exact()
    }

    fn verify(&self, _counts: &OpCounts) -> Result<(), String> {
        let expected = self.expected.load(Ordering::Acquire);
        let actual = self.read_exact();
        if actual == expected {
            Ok(())
        } else {
            Err(format!(
                "counter lost updates: exact sum {actual} != applied weight {expected}"
            ))
        }
    }

    fn quality(&self) -> QualityReport {
        let scale = self.deviation_scale();
        let bound = DEVIATION_BOUND_C * scale;
        // History mode: replay the stamped history through the
        // relaxed-counter checker. Each read's cost is its deviation
        // from the count at its linearization point (Lemma 6.8's
        // metric, exact rather than sampled).
        let logs = std::mem::take(&mut *self.logs.lock().expect("logs"));
        if !logs.is_empty() {
            let history = History::from_logs(logs);
            let outcome = check_distributional(&CounterSpec, &history);
            // Costs align 1:1 with labels in update order: the counter
            // relaxation has no unmappable transitions (every Inc and
            // Read applies), so nothing is skipped.
            let labels = history.labels_in_update_order();
            let read_costs: Vec<f64> = labels
                .iter()
                .zip(outcome.costs.samples())
                .filter(|(l, _)| matches!(l, CounterOp::Read { .. }))
                .map(|(_, c)| *c)
                .collect();
            let summary = QualitySummary::from_samples(&read_costs);
            let within = if scale == 0.0 {
                summary.max == 0.0
            } else {
                summary.max <= bound
            };
            let report = QualityReport::named("read_deviation")
                .with_summary(summary)
                .scalar("scale_m_ln_m", scale)
                .scalar("bound", bound)
                .scalar("within_bound", if within { 1.0 } else { 0.0 })
                .scalar("max_gap", self.max_gap() as f64)
                .scalar(
                    "linearizable",
                    if outcome.is_linearizable() { 1.0 } else { 0.0 },
                )
                .scalar("history_ops", history.len() as f64);
            // Package the checked history for export; the deviation
            // scale travels as the envelope factor (bound = 4·scale).
            *self.artifact.lock().expect("artifact") =
                Some(HistoryArtifact::counter(history, scale));
            return report;
        }
        // Drains the samples so a backend reused across several engine
        // runs (fig1b's checkpoints) reports per-run, not cumulative,
        // statistics.
        let samples = std::mem::take(&mut *self.deviations.lock().expect("deviations"));
        let summary = QualitySummary::from_samples(&samples);
        let within = if samples.is_empty() || scale == 0.0 {
            summary.max == 0.0
        } else {
            summary.max <= bound
        };
        QualityReport::named("read_deviation")
            .with_summary(summary)
            .scalar("scale_m_ln_m", scale)
            .scalar("bound", bound)
            .scalar("within_bound", if within { 1.0 } else { 0.0 })
            .scalar("max_gap", self.max_gap() as f64)
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.artifact.lock().expect("artifact").take()
    }
}

/// How far `read` lies outside `[lo, hi]` (0 anywhere inside it).
fn distance_to_bracket(read: u64, lo: u64, hi: u64) -> u64 {
    lo.saturating_sub(read).max(read.saturating_sub(hi))
}

struct CounterWorker<'a> {
    backend: &'a CounterBackend,
    rng: Xoshiro256,
    stripe: usize,
    thread: usize,
    quality_every: u32,
    reads_seen: u32,
    added: u64,
    deviations: Vec<f64>,
    /// Stamped `CounterOp` events (history mode only).
    log: Option<ThreadLog<CounterOp>>,
}

impl CounterWorker<'_> {
    fn sampled_read(&mut self) -> u64 {
        match &self.backend.inner {
            AnyCounter::Multi(c) => c.read_with(&mut self.rng),
            AnyCounter::DChoice(c) => c.read_with(&mut self.rng),
            AnyCounter::Sharded(c) => c.read_sample_with(&mut self.rng),
            AnyCounter::Exact(c) => c.read(),
        }
    }

    /// One unit increment on whatever substrate.
    fn increment_unit(&mut self) {
        match &self.backend.inner {
            AnyCounter::Multi(c) => c.increment_with(&mut self.rng),
            AnyCounter::DChoice(c) => c.increment_with(&mut self.rng),
            AnyCounter::Sharded(c) => c.increment_stripe(self.stripe),
            AnyCounter::Exact(c) => {
                c.increment();
            }
        }
    }
}

impl Worker for CounterWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let clock = &self.backend.clock;
        match op.kind {
            OpKind::Update => {
                if self.log.is_some() {
                    // History mode: the spec's `Inc` is a unit
                    // increment, so apply (and stamp) the weight as
                    // units. The update stamp is drawn right after the
                    // increment's atomic step — inside the operation's
                    // interval, which is all Definition 5.2 needs.
                    for _ in 0..op.weight {
                        let invoke = clock.stamp();
                        self.increment_unit();
                        let update = clock.stamp();
                        let response = clock.stamp();
                        if let Some(log) = &mut self.log {
                            log.push(Event {
                                thread: self.thread,
                                label: CounterOp::Inc,
                                invoke,
                                update,
                                response,
                            });
                        }
                    }
                } else {
                    match &self.backend.inner {
                        AnyCounter::Multi(c) => {
                            if op.weight == 1 {
                                c.increment_with(&mut self.rng);
                            } else {
                                c.add_with(&mut self.rng, op.weight);
                            }
                        }
                        // No weighted add on these substrates: apply the
                        // weight as unit increments so totals stay exact.
                        AnyCounter::DChoice(c) => {
                            for _ in 0..op.weight {
                                c.increment_with(&mut self.rng);
                            }
                        }
                        AnyCounter::Sharded(c) => {
                            for _ in 0..op.weight {
                                c.increment_stripe(self.stripe);
                            }
                        }
                        AnyCounter::Exact(c) => {
                            for _ in 0..op.weight {
                                c.increment();
                            }
                        }
                    }
                }
                self.added += op.weight;
                true
            }
            OpKind::Remove | OpKind::Read => {
                if self.log.is_some() {
                    let invoke = clock.stamp();
                    let returned = self.sampled_read();
                    let update = clock.stamp();
                    let response = clock.stamp();
                    if let Some(log) = &mut self.log {
                        log.push(Event {
                            thread: self.thread,
                            label: CounterOp::Read { returned },
                            invoke,
                            update,
                            response,
                        });
                    }
                    return true;
                }
                self.reads_seen += 1;
                if self.quality_every > 0 && self.reads_seen.is_multiple_of(self.quality_every) {
                    // Bracket the relaxed read between two exact sums:
                    // the counter is monotone, so the true count at the
                    // read lies in `[lo, hi]` however long this thread
                    // was preempted in between, and only the distance
                    // to that interval is the read's own error.
                    let lo = self.backend.read_exact();
                    let approx = self.sampled_read();
                    let hi = self.backend.read_exact();
                    self.deviations
                        .push(distance_to_bracket(approx, lo, hi) as f64);
                } else {
                    self.sampled_read();
                }
                true
            }
        }
    }

    fn finish(&mut self) {
        self.backend
            .expected
            .fetch_add(self.added, Ordering::AcqRel);
        self.backend
            .deviations
            .lock()
            .expect("deviations")
            .append(&mut self.deviations);
        if let Some(log) = self.log.take() {
            self.backend.logs.lock().expect("logs").push(log);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ops(b: &CounterBackend, n: u64) {
        let cfg = WorkerCfg {
            id: 0,
            threads: 1,
            seed: 42,
            record_history: false,
            quality_every: 8,
        };
        let mut w = b.worker(cfg);
        for k in 0..n {
            let kind = if k % 4 == 3 {
                OpKind::Read
            } else {
                OpKind::Update
            };
            w.execute(&Op {
                kind,
                key: k,
                priority: 0,
                weight: 1 + k % 3,
            });
        }
        w.finish();
    }

    #[test]
    fn a_read_anywhere_inside_the_exact_bracket_scores_zero() {
        for read in 100..=140u64 {
            assert_eq!(distance_to_bracket(read, 100, 140), 0, "read {read}");
        }
        assert_eq!(distance_to_bracket(97, 100, 140), 3);
        assert_eq!(distance_to_bracket(150, 100, 140), 10);
        // A quiescent counter brackets to a point: plain |read - exact|.
        assert_eq!(distance_to_bracket(90, 100, 100), 10);
        assert_eq!(distance_to_bracket(0, u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn all_counter_backends_conserve() {
        for b in [
            CounterBackend::multicounter(16),
            CounterBackend::dchoice(16, 3, 9),
            CounterBackend::sharded(4),
            CounterBackend::exact(),
        ] {
            run_ops(&b, 4_000);
            let counts = OpCounts::default();
            b.verify(&counts).expect("conservation");
            let q = b.quality();
            assert_eq!(q.metric, "read_deviation");
            assert!(q.is_finite(), "{}: {q:?}", b.name());
        }
    }

    #[test]
    fn exact_counter_has_zero_deviation() {
        let b = CounterBackend::exact();
        run_ops(&b, 2_000);
        let q = b.quality();
        assert_eq!(q.summary.expect("sampled").max, 0.0);
        assert_eq!(q.get("within_bound"), Some(1.0));
    }

    #[test]
    fn multicounter_deviation_within_bound() {
        let b = CounterBackend::multicounter(32);
        run_ops(&b, 50_000);
        let q = b.quality();
        assert!(q.summary.expect("sampled").count > 0);
        assert_eq!(q.get("within_bound"), Some(1.0), "{q:?}");
    }
}
