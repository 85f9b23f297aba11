//! Counter-family backends: every relaxed counter in `dlz-core` behind
//! the unified [`Backend`] interface.
//!
//! In history mode the verdict — each read's deviation from the count
//! at its linearization point, against the envelope that
//! [`dlz_core::spec::envelope`] gives for the `m·ln m` scale — comes from
//! [`dlz_core::spec::judge`] over the recorded artifact; the online
//! samples (the bracketed deviations each worker collects) are held
//! against the same envelope. The sharded counter claims none: its
//! scale is infinite, so its reports carry no `bound`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dlz_core::rng::Xoshiro256;
use dlz_core::spec::{envelope, CounterOp, HistoryArtifact, Kind, Recorder, ThreadLog};
use dlz_core::{ExactCounter, MultiCounter, RelaxedCounter, ShardedCounter};

use crate::backend::{Backend, QualityReport, QualitySummary, Worker, WorkerCfg};
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

/// Any counter from `dlz-core`, with explicit-RNG calls where the
/// concrete type offers them (keeping runs deterministic per seed).
#[derive(Debug)]
enum AnyCounter {
    /// Algorithm 1, or its d-choice generalization.
    Multi(MultiCounter),
    /// Per-thread stripes (no bounded single-sample read).
    Sharded(ShardedCounter),
    /// The single fetch-and-add baseline.
    Exact(ExactCounter),
}

impl AnyCounter {
    fn sampled_read(&self, rng: &mut Xoshiro256) -> u64 {
        match self {
            AnyCounter::Multi(c) => c.read_with(rng),
            AnyCounter::Sharded(c) => c.read_sample_with(rng),
            AnyCounter::Exact(c) => c.read(),
        }
    }

    /// One unit increment on whatever substrate.
    fn increment_unit(&self, rng: &mut Xoshiro256, stripe: usize) {
        match self {
            AnyCounter::Multi(c) => c.increment_with(rng),
            AnyCounter::Sharded(c) => c.increment_stripe(stripe),
            AnyCounter::Exact(c) => {
                c.increment();
            }
        }
    }
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
    deviations: SampleSink,
    recorder: Recorder<CounterOp>,
}

impl CounterBackend {
    /// Wraps a MultiCounter with `m` cells.
    pub fn multicounter(m: usize) -> Self {
        Self::new(
            AnyCounter::Multi(MultiCounter::new(m)),
            format!("multicounter(m={m})"),
        )
    }

    /// Wraps a MultiCounter with `m` cells and `d` choices per update.
    pub fn dchoice(m: usize, d: usize) -> Self {
        Self::new(
            AnyCounter::Multi(MultiCounter::with_choices(m, d)),
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
            deviations: SampleSink::default(),
            recorder: Recorder::new(),
        }
    }

    fn read_exact(&self) -> u64 {
        match &self.inner {
            AnyCounter::Multi(c) => c.read_exact(),
            AnyCounter::Sharded(c) => c.read_exact(),
            AnyCounter::Exact(c) => c.read_exact(),
        }
    }

    /// The deviation scale the paper's Lemma 6.8 bounds: `m·ln m` for
    /// the MultiCounter; 0 for the exact baseline, whose reads must not
    /// deviate; infinite for the sharded counter, whose one-stripe read
    /// has no such bound, so its envelope claims none.
    fn deviation_scale(&self) -> f64 {
        let m = match &self.inner {
            AnyCounter::Multi(c) => c.num_counters() as f64,
            AnyCounter::Sharded(_) => return f64::INFINITY,
            AnyCounter::Exact(_) => return 0.0,
        };
        m * m.max(2.0).ln()
    }

    fn max_gap(&self) -> u64 {
        match &self.inner {
            AnyCounter::Multi(c) => c.max_gap(),
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
            added: 0,
            deviations: self.deviations.worker(cfg.quality_every),
            log: cfg.record_history.then(|| self.recorder.log(cfg.id)),
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
        let samples = self.deviations.drain();
        let facts = |report: QualityReport| {
            let report = if scale.is_finite() {
                report.scalar("scale_m_ln_m", scale)
            } else {
                report
            };
            report.scalar("max_gap", self.max_gap() as f64)
        };
        // History mode judges the stamped reads (Lemma 6.8's metric,
        // exact rather than sampled); the deviation scale travels with
        // the history as its envelope factor. Otherwise the bracketed
        // online samples stand in, held against the same envelope.
        match self
            .recorder
            .judge(|history| HistoryArtifact::counter(history, scale))
        {
            Some(v) => facts(QualityReport::judged(&v)).verdict(&v),
            None => {
                let envelope = envelope(Kind::Counter, scale, 0);
                let report = QualityReport::named(envelope.metric)
                    .with_summary(QualitySummary::from_samples(&samples));
                facts(report).within(envelope.bound, envelope.holds(&samples))
            }
        }
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.recorder.take_artifact()
    }
}

/// How far `read` lies outside `[lo, hi]` (0 anywhere inside it).
fn distance_to_bracket(read: u64, lo: u64, hi: u64) -> u64 {
    lo.saturating_sub(read).max(read.saturating_sub(hi))
}

/// A counter backend's online quality samples (bracketed read
/// deviations, Lemma 6.8's metric), collected from its workers.
#[derive(Debug, Default)]
struct SampleSink(Mutex<Vec<f64>>);

impl SampleSink {
    /// One worker's private sampler, taking a sample every `every`
    /// eligible ops (0 = never).
    fn worker(&self, every: u32) -> WorkerSamples<'_> {
        WorkerSamples {
            sink: self,
            every,
            seen: 0,
            samples: Vec::new(),
        }
    }

    /// Drained, not cloned: a backend reused across runs (fig1b's
    /// checkpoints) reports per-run, not cumulative, statistics.
    fn drain(&self) -> Vec<f64> {
        std::mem::take(&mut *self.0.lock().expect("samples"))
    }
}

/// A worker's sampling cadence and its samples so far; handed to the
/// [`SampleSink`] on drop (never from inside an unwind, where a second
/// panic would abort the process).
struct WorkerSamples<'a> {
    sink: &'a SampleSink,
    every: u32,
    seen: u32,
    samples: Vec<f64>,
}

impl WorkerSamples<'_> {
    /// Counts one eligible op; `true` when it is one to sample.
    #[inline]
    fn due(&mut self) -> bool {
        self.seen += 1;
        self.every > 0 && self.seen.is_multiple_of(self.every)
    }

    #[inline]
    fn push(&mut self, sample: f64) {
        self.samples.push(sample);
    }
}

impl Drop for WorkerSamples<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.sink
                .0
                .lock()
                .expect("samples")
                .append(&mut self.samples);
        }
    }
}

struct CounterWorker<'a> {
    backend: &'a CounterBackend,
    rng: Xoshiro256,
    stripe: usize,
    /// Weight applied so far; joins the backend's `expected` on drop.
    added: u64,
    deviations: WorkerSamples<'a>,
    /// Stamped `CounterOp` events (history mode only).
    log: Option<ThreadLog<'a, CounterOp>>,
}

impl Worker for CounterWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let inner = &self.backend.inner;
        let (rng, stripe) = (&mut self.rng, self.stripe);
        match op.kind {
            OpKind::Update => {
                if let Some(log) = &mut self.log {
                    // History mode: the spec's `Inc` is a unit
                    // increment, so apply (and stamp) the weight as
                    // units. The update stamp is drawn right after the
                    // increment's atomic step — inside the operation's
                    // interval, which is all Definition 5.2 needs.
                    for _ in 0..op.weight {
                        log.record(|stamps| {
                            inner.increment_unit(rng, stripe);
                            Some((CounterOp::Inc, stamps.fetch_increment()))
                        });
                    }
                } else {
                    match inner {
                        AnyCounter::Multi(c) => c.add_with(rng, op.weight),
                        // No weighted add on these substrates: apply the
                        // weight as unit increments so totals stay exact.
                        AnyCounter::Sharded(c) => {
                            for _ in 0..op.weight {
                                c.increment_stripe(stripe);
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
                if let Some(log) = &mut self.log {
                    log.record(|stamps| {
                        let returned = inner.sampled_read(rng);
                        Some((CounterOp::Read { returned }, stamps.fetch_increment()))
                    });
                } else if self.deviations.due() {
                    // Bracket the relaxed read between two exact sums:
                    // the counter is monotone, so the true count at the
                    // read lies in `[lo, hi]` however long this thread
                    // was preempted in between, and only the distance
                    // to that interval is the read's own error.
                    let lo = self.backend.read_exact();
                    let approx = inner.sampled_read(rng);
                    let hi = self.backend.read_exact();
                    self.deviations
                        .push(distance_to_bracket(approx, lo, hi) as f64);
                } else {
                    inner.sampled_read(rng);
                }
                true
            }
        }
    }
}

impl Drop for CounterWorker<'_> {
    fn drop(&mut self) {
        // On drop rather than in `finish()`, which a worker that died
        // between two ops never reaches: its increments were applied
        // and must count.
        self.backend
            .expected
            .fetch_add(self.added, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` seeded ops, every fourth a read, updates weighing
    /// `1 + k % max_weight`.
    fn run_ops(b: &CounterBackend, n: u64, max_weight: u64, record_history: bool) {
        let cfg = WorkerCfg {
            id: 0,
            threads: 1,
            seed: 42,
            record_history,
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
                weight: 1 + k % max_weight,
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
            CounterBackend::dchoice(16, 3),
            CounterBackend::sharded(4),
            CounterBackend::exact(),
        ] {
            run_ops(&b, 4_000, 3, false);
            let counts = OpCounts::default();
            b.verify(&counts).expect("conservation");
            let q = b.quality();
            assert_eq!(q.metric, "read_deviation");
            assert!(q.is_finite(), "{}: {q:?}", b.name());
        }
    }

    #[test]
    fn dchoice_unit_updates_are_pinned() {
        // Cells and history-mode reads after 20k seeded unit-weight ops,
        // folded into one word each; recorded from the d-choice type this
        // backend wrapped before it became a `MultiCounter`.
        const FNV: u64 = 0xcbf2_9ce4_8422_2325;
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
        let cells = |b: &CounterBackend| match &b.inner {
            AnyCounter::Multi(c) => c.cell_values().into_iter().fold(FNV, fold),
            _ => unreachable!("dchoice wraps a MultiCounter"),
        };
        let (plain, recorded) = (CounterBackend::dchoice(8, 4), CounterBackend::dchoice(8, 4));
        run_ops(&plain, 20_000, 1, false);
        run_ops(&recorded, 20_000, 1, true);
        let events = recorded.recorder.take_history().events;
        let reads = events.iter().fold(FNV, |h, e| match e.label {
            CounterOp::Read { returned } => fold(h, returned),
            CounterOp::Inc => h,
        });
        assert_eq!(
            (cells(&plain), cells(&recorded), reads),
            (
                0x3b55_b0fc_1578_38ab,
                0x3b55_b0fc_1578_38ab,
                0x7744_76ae_eeb4_a13d
            )
        );
    }

    #[test]
    fn building_a_counter_does_not_reseed_the_thread_rng() {
        use dlz_core::rng::{reseed_thread_rng, with_thread_rng, Rng64};
        let draws = |build: &dyn Fn(usize)| {
            reseed_thread_rng(5);
            let draw = |d| {
                build(d);
                with_thread_rng(|r| r.next_u64())
            };
            (1..=3).map(draw).collect::<Vec<_>>()
        };
        let untouched = draws(&|_| {});
        assert_eq!(
            draws(&|d| drop(MultiCounter::with_choices(8, d))),
            untouched
        );
        assert_eq!(draws(&|d| drop(CounterBackend::dchoice(8, d))), untouched);
    }

    #[test]
    fn exact_counter_has_zero_deviation() {
        let b = CounterBackend::exact();
        run_ops(&b, 2_000, 3, false);
        let q = b.quality();
        assert_eq!(q.summary.expect("sampled").max, 0.0);
        assert_eq!(q.get("within_bound"), Some(1.0));
    }

    #[test]
    fn only_the_multicounter_claims_a_read_deviation_envelope() {
        // A sharded read samples one stripe: Lemma 6.8 bounds nothing
        // there, so neither the online nor the judged report carries a
        // bound, while the MultiCounter's envelope stays in both.
        for record_history in [false, true] {
            let sharded = CounterBackend::sharded(4);
            run_ops(&sharded, 4_000, 1, record_history);
            let q = sharded.quality();
            for key in ["bound", "within_bound", "scale_m_ln_m"] {
                assert_eq!(q.get(key), None, "{key}: {q:?}");
            }
            assert!(q.is_finite(), "{q:?}");
            if record_history {
                let a = sharded.take_history_artifact().expect("history");
                assert!(a.envelope_factor.is_infinite());
            }
            let multi = CounterBackend::multicounter(16);
            run_ops(&multi, 4_000, 1, record_history);
            let q = multi.quality();
            assert_eq!(q.get("within_bound"), Some(1.0), "{q:?}");
        }
    }

    #[test]
    fn multicounter_deviation_within_bound() {
        let b = CounterBackend::multicounter(32);
        run_ops(&b, 50_000, 3, false);
        let q = b.quality();
        assert!(q.summary.expect("sampled").count > 0);
        assert_eq!(q.get("within_bound"), Some(1.0), "{q:?}");
    }
}
