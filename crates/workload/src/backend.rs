//! The unified backend interface every structure in the workspace
//! implements to be drivable by the engine.

use dlz_core::spec::{HistoryArtifact, Verdict};

use crate::metrics::TelemetrySample;
use crate::op::{Op, OpCounts};
use crate::scenario::Family;

/// Per-worker configuration handed to [`Backend::worker`].
#[derive(Debug, Clone, Copy)]
pub struct WorkerCfg {
    /// Worker index in `0..threads` (`threads` itself for the prefill
    /// worker, so its RNG stream is distinct from every measured one).
    pub id: usize,
    /// Total measured workers.
    pub threads: usize,
    /// Seed for this worker's private generator(s).
    pub seed: u64,
    /// Record stamped history events (small budgets only).
    pub record_history: bool,
    /// Counter backends sample the bracketed deviation of every N-th
    /// read (0 = never); no other backend samples online.
    pub quality_every: u32,
}

/// A concurrent structure drivable by the workload engine.
///
/// A backend is shared (`&self`) across workers; all per-thread state —
/// RNGs, STM handles, history logs, quality accumulators — lives in the
/// [`Worker`] sessions it hands out.
pub trait Backend: Sync {
    /// Report label, e.g. `multicounter(m=64)`.
    fn name(&self) -> String;

    /// Which scenario family this backend serves.
    fn family(&self) -> Family;

    /// Creates the per-thread session for one worker.
    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a>;

    /// Items currently held (queue backlog / counter total / STM array
    /// sum). Exact when quiescent; called only outside the run.
    fn residual(&self) -> u64;

    /// Conservation check after the run: given the merged op counts,
    /// verify the backend-specific balance law (no lost items, sums
    /// match). `Err` explains the violation.
    fn verify(&self, counts: &OpCounts) -> Result<(), String>;

    /// Backend-specific quality metrics accumulated during the run
    /// (read deviation, dequeue rank, abort rate, ...). A backend that
    /// recorded a history reports [`dlz_core::spec::judge`]'s verdict
    /// on it (see [`QualityReport`]); online samples are held against
    /// the same [`dlz_core::spec::envelope`].
    fn quality(&self) -> QualityReport;

    /// Drains the last run's recorded stamped history as a serializable
    /// [`HistoryArtifact`] with the backend-known metadata (structure
    /// kind, policy label, envelope factor, queue count) already filled
    /// in; the engine adds run metadata (threads, source, sweep cell).
    ///
    /// History-recording backends keep the artifact
    /// [`quality`](Self::quality) judged, so this must be called
    /// *after* `quality()`. Backends that record no history return
    /// `None` (the default).
    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        None
    }
}

/// One worker's session against a backend.
pub trait Worker {
    /// Executes one abstract operation. Returns `false` only for a
    /// remove that observed an empty structure.
    fn execute(&mut self, op: &Op) -> bool;

    /// Called once after a run the worker completed: flush buffered
    /// operations and per-thread statistics back to the backend. The
    /// engine skips it for a worker whose thread panicked, so whatever
    /// conservation and the history verdict depend on goes back when
    /// the worker is dropped instead (see [`backends`](crate::backends)).
    fn finish(&mut self) {}

    /// Drains backend-internal telemetry accumulated since the last
    /// drain (hot-path contention counters). Called by the engine at
    /// interval boundaries when the scenario enables time-resolved
    /// telemetry; never called otherwise, so counters cost nothing to
    /// backends that skip it.
    /// `None` (the default) means the backend records none.
    fn telemetry_sample(&mut self) -> Option<TelemetrySample> {
        None
    }
}

/// Distribution summary of a quality metric's samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct QualitySummary {
    /// Sample count.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl QualitySummary {
    /// Summarizes a sample vector (sorts a copy).
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return QualitySummary::default();
        }
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = v.len();
        let q = |p: f64| v[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1];
        QualitySummary {
            count: n as u64,
            mean: v.iter().sum::<f64>() / n as f64,
            p50: q(0.50),
            p99: q(0.99),
            max: v[n - 1],
        }
    }
}

/// A named quality metric with an optional sample distribution and
/// free-form named scalars (bounds, flags, rates).
///
/// A judged report (a recorded history replayed by
/// [`dlz_core::spec::judge`]) summarizes exactly the metric's samples
/// — dequeue ranks, dequeue positions or read deviations, never the
/// inserts' zeros — and carries the verdict once, as `bound` and
/// `within_bound` (when an envelope is claimed), `linearizable` and
/// `history_ops`.
#[derive(Debug, Clone, Default)]
pub struct QualityReport {
    /// Metric name: `read_deviation`, `dequeue_rank`, `abort_rate`, ...
    pub metric: String,
    /// Distribution of the metric's samples, when sampled.
    pub summary: Option<QualitySummary>,
    /// Named scalar facts (e.g. `("scale_m_ln_m", 266.0)`,
    /// `("within_bound", 1.0)`, `("linearizable", 1.0)`).
    pub scalars: Vec<(String, f64)>,
}

impl QualityReport {
    /// A report with just a metric name.
    pub fn named(metric: &str) -> Self {
        QualityReport {
            metric: metric.to_string(),
            summary: None,
            scalars: Vec::new(),
        }
    }

    /// The head of every history-mode report: the judged metric and
    /// the distribution of its cost samples.
    pub(crate) fn judged(verdict: &Verdict) -> Self {
        QualityReport::named(verdict.metric)
            .with_summary(QualitySummary::from_samples(&verdict.costs))
    }

    /// Adds the verdict: its envelope (`bound`, `within_bound`) when it
    /// claims one, its `linearizable` flag and its `history_ops` count
    /// (chainable).
    pub(crate) fn verdict(self, verdict: &Verdict) -> Self {
        let linearizable = verdict.outcome.is_linearizable();
        self.within(verdict.bound, verdict.within)
            .scalar("linearizable", f64::from(u8::from(linearizable)))
            .scalar("history_ops", verdict.events as f64)
    }

    /// Adds an envelope's `bound` and whether the samples are
    /// `within_bound`; nothing when the bound is infinite, which claims
    /// none (chainable).
    pub(crate) fn within(self, bound: f64, within: bool) -> Self {
        if !bound.is_finite() {
            return self;
        }
        self.scalar("bound", bound)
            .scalar("within_bound", f64::from(u8::from(within)))
    }

    /// Adds a named scalar (chainable).
    pub fn scalar(mut self, name: &str, value: f64) -> Self {
        self.scalars.push((name.to_string(), value));
        self
    }

    /// Sets the sample summary (chainable).
    pub fn with_summary(mut self, s: QualitySummary) -> Self {
        self.summary = Some(s);
        self
    }

    /// Looks up a scalar by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// `true` if every scalar and summary statistic is finite.
    pub fn is_finite(&self) -> bool {
        let scalars_ok = self.scalars.iter().all(|(_, v)| v.is_finite());
        let summary_ok = self.summary.is_none_or(|s| {
            s.mean.is_finite() && s.p50.is_finite() && s.p99.is_finite() && s.max.is_finite()
        });
        scalars_ok && summary_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_quantiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = QualitySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = QualitySummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn report_scalars_and_finiteness() {
        let r = QualityReport::named("x").scalar("a", 1.0).scalar("b", 2.0);
        assert_eq!(r.get("a"), Some(1.0));
        assert_eq!(r.get("missing"), None);
        assert!(r.is_finite());
        let bad = QualityReport::named("y").scalar("nan", f64::NAN);
        assert!(!bad.is_finite());
    }
}
