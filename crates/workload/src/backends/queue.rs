//! Queue-family backends: the MultiQueue (both delete modes, any choice
//! policy) and every linearizable `dlz-pq` queue.

use std::collections::VecDeque;
use std::sync::Mutex;

use dlz_core::spec::{
    check_distributional, Event, History, HistoryArtifact, PqOp, PqSpec, StampClock, ThreadLog,
};
use dlz_core::{DeleteMode, MqHandle, MultiQueue, PolicyCfg};
use dlz_pq::{BinaryHeap, CoarsePq, ConcurrentPq, LockedPq};

use crate::backend::{Backend, QualityReport, QualitySummary, Worker, WorkerCfg};
use crate::metrics::TelemetrySample;
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

/// Generous constant over the envelope scale, as the core tests use:
/// the reported rank bound is `RANK_BOUND_C · factor · m`. Public so
/// offline checkers (`histcheck`) reconstruct the *same* envelope from
/// an artifact's `envelope_factor` and queue count.
pub const RANK_BOUND_C: f64 = 30.0;

/// Shared quality state of the queue backends.
#[derive(Debug, Default)]
struct QueueQuality {
    /// Stamped logs (history mode), replayed through the checker.
    logs: Mutex<Vec<ThreadLog<PqOp>>>,
    /// Cheap online samples: `removed_priority - min_hint` at dequeue
    /// time — a priority-space proxy for dequeue rank, exact-ish when
    /// priorities are dense and monotone.
    proxies: Mutex<Vec<f64>>,
    /// The last run's history, packaged for export. Stashed by
    /// `quality()` (which replays it), drained by
    /// `take_history_artifact()`.
    artifact: Mutex<Option<HistoryArtifact>>,
}

/// The paper's MultiQueue behind the [`Backend`] interface.
///
/// `Update` enqueues `(priority, priority)`; `Remove` dequeues; `Read`
/// peeks the published min hint. With `record_history` on, operations
/// run through the handle's stamped history mode and the recorded
/// history is replayed through the distributional-linearizability
/// checker (Definition 5.2), yielding the *exact* dequeue-rank cost
/// distribution of Theorem 7.1.
///
/// Every worker operates through its own [`MqHandle`], so the
/// scenario's `choice_policy` dimension (two-choice, d-choice,
/// stickiness) is per-worker state by construction; the
/// `batch` dimension buffers `k` ops per lock acquisition on top.
/// History mode stamps individual operations, so it honours the policy
/// but ignores batching. The quality report carries the policy's rank
/// envelope — `RANK_BOUND_C · factor · m`, where `factor` is the
/// policy's [`envelope_factor`](PolicyCfg::envelope_factor) (`s` for
/// sticky policies).
#[derive(Debug)]
pub struct MultiQueueBackend {
    mq: MultiQueue<u64>,
    batch: usize,
    label: String,
    clock: StampClock,
    quality: QueueQuality,
}

impl MultiQueueBackend {
    /// The default configuration: two-choice, unbatched.
    pub fn heap(m: usize, mode: DeleteMode) -> Self {
        Self::heap_policy(m, mode, PolicyCfg::TwoChoice, 1)
    }

    /// An explicit choice policy and batch size.
    pub fn heap_policy(m: usize, mode: DeleteMode, policy: PolicyCfg, batch: usize) -> Self {
        let batch = batch.max(1);
        let mode_tag = match mode {
            DeleteMode::Strict => "strict",
            DeleteMode::TryLock => "trylock",
        };
        let tuning = if !policy.is_default() || batch > 1 {
            format!(",{},b={batch}", policy.label())
        } else {
            String::new()
        };
        MultiQueueBackend {
            mq: MultiQueue::with_config((0..m).map(|_| BinaryHeap::new()).collect(), mode, policy),
            batch,
            label: format!("multiqueue-heap(m={m},{mode_tag}{tuning})"),
            clock: StampClock::new(),
            quality: QueueQuality::default(),
        }
    }

    /// The wrapped MultiQueue.
    pub fn multiqueue(&self) -> &MultiQueue<u64> {
        &self.mq
    }

    /// The choice policy every worker handle is built from.
    pub fn policy(&self) -> PolicyCfg {
        self.mq.policy()
    }

    /// Operations buffered per lock acquisition (1 = unbatched).
    pub fn batch(&self) -> usize {
        self.batch
    }
}

impl Backend for MultiQueueBackend {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn family(&self) -> Family {
        Family::Queue
    }

    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(MultiQueueWorker {
            backend: self,
            handle: self.mq.handle(cfg.seed),
            thread: cfg.id,
            log: cfg.record_history.then(|| ThreadLog::new(cfg.id)),
            quality_every: cfg.quality_every,
            removes_seen: 0,
            proxies: Vec::new(),
            batch: if cfg.record_history { 1 } else { self.batch },
            pending_inserts: Vec::new(),
            prefetched: VecDeque::new(),
            scratch: Vec::new(),
            refills_seen: 0,
            settled: false,
        })
    }

    fn residual(&self) -> u64 {
        self.mq.len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        let residual = self.residual();
        let inserted = counts.inserted();
        if inserted == counts.removes + residual {
            Ok(())
        } else {
            Err(format!(
                "queue lost items: {inserted} inserted != {} removed + {residual} residual",
                counts.removes
            ))
        }
    }

    fn quality(&self) -> QualityReport {
        let logs = std::mem::take(&mut *self.quality.logs.lock().expect("logs"));
        let m = self.mq.num_queues() as f64;
        let scale = m * m.max(2.0).ln();
        // The policy's envelope: expected rank O(factor·m), with the
        // same generous constant the test suite uses for the
        // two-choice Theorem 7.1 checks.
        let factor = self.mq.policy().envelope_factor();
        let rank_bound = RANK_BOUND_C * factor * m;
        if !logs.is_empty() {
            let history = History::from_logs(logs);
            let outcome = check_distributional(&PqSpec, &history);
            let costs: Vec<f64> = outcome
                .costs
                .samples()
                .iter()
                .copied()
                .filter(|c| c.is_finite())
                .collect();
            let summary = QualitySummary::from_samples(&costs);
            // Vacuous passes are failures: with no rank samples the
            // envelope verified nothing, so report it as not-within.
            let within =
                if summary.count > 0 && rank_bound.is_finite() && summary.mean <= rank_bound {
                    1.0
                } else {
                    0.0
                };
            let mut report = QualityReport::named("dequeue_rank")
                .with_summary(summary)
                .scalar("scale_m_ln_m", scale)
                .scalar("batch", self.batch as f64)
                .scalar(
                    "linearizable",
                    if outcome.is_linearizable() { 1.0 } else { 0.0 },
                )
                .scalar("history_ops", history.len() as f64);
            if factor.is_finite() {
                report = report
                    .scalar("policy_factor", factor)
                    .scalar("rank_bound_policy", rank_bound)
                    .scalar("within_policy_bound", within);
            }
            // Rank-proxy calibration: history workers also sample the
            // cheap priority-space proxy, so the checker-exact mean
            // dequeue rank calibrates it — the ratio lets non-history
            // runs interpret their proxy numbers.
            let proxies = std::mem::take(&mut *self.quality.proxies.lock().expect("proxies"));
            if outcome.is_linearizable() && !proxies.is_empty() {
                let proxy_mean = proxies.iter().sum::<f64>() / proxies.len() as f64;
                report = report.scalar("rank_proxy_mean", proxy_mean);
                // With nothing unmappable, costs align 1:1 with labels
                // in update order; average the dequeues only (inserts
                // always cost 0 and would dilute the rank).
                let (mut sum, mut n) = (0.0f64, 0u64);
                for (l, c) in history
                    .labels_in_update_order()
                    .iter()
                    .zip(outcome.costs.samples())
                {
                    if matches!(l, PqOp::DeleteMin { .. }) {
                        sum += *c;
                        n += 1;
                    }
                }
                if n > 0 && proxy_mean > 0.0 {
                    report = report.scalar("rank_proxy_calibration", (sum / n as f64) / proxy_mean);
                }
            }
            // Package the checked history for export: the policy label
            // and envelope factor travel with the events.
            *self.quality.artifact.lock().expect("artifact") = Some(HistoryArtifact::pq(
                history,
                self.mq.policy().label(),
                factor,
                self.mq.num_queues(),
            ));
            return report;
        }
        // Drained, not cloned: a backend reused across runs must report
        // per-run statistics (the history logs above use mem::take too).
        let proxies = std::mem::take(&mut *self.quality.proxies.lock().expect("proxies"));
        let mut report = QualityReport::named("dequeue_rank_proxy")
            .with_summary(QualitySummary::from_samples(&proxies))
            .scalar("scale_m_ln_m", scale)
            .scalar("batch", self.batch as f64);
        if factor.is_finite() {
            report = report
                .scalar("policy_factor", factor)
                .scalar("rank_bound_policy", rank_bound);
        }
        report
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.quality.artifact.lock().expect("artifact").take()
    }
}

struct MultiQueueWorker<'a> {
    backend: &'a MultiQueueBackend,
    /// The worker's operational surface: private RNG + policy instance.
    handle: MqHandle<'a, u64>,
    thread: usize,
    log: Option<ThreadLog<PqOp>>,
    quality_every: u32,
    removes_seen: u32,
    proxies: Vec<f64>,
    /// Ops buffered per lock acquisition; forced to 1 in history mode,
    /// which stamps individual operations.
    batch: usize,
    /// Updates buffered until a full batch (flushed at `finish`).
    pending_inserts: Vec<(u64, u64)>,
    /// Entries taken by a batch dequeue, handed out one per `Remove`
    /// op; leftovers are re-inserted at `finish` so conservation holds.
    prefetched: VecDeque<(u64, u64)>,
    /// Reusable buffer for batch dequeues (no per-refill allocation).
    scratch: Vec<(u64, u64)>,
    /// Refill count, for the batched proxy-sampling cadence.
    refills_seen: u32,
    /// Guards [`Self::settle`] so the Drop-based salvage of a panicked
    /// worker and a normal `finish()` never run the flush twice.
    settled: bool,
}

impl MultiQueueWorker<'_> {
    fn flush_pending(&mut self) {
        if !self.pending_inserts.is_empty() {
            self.handle.insert_batch(self.pending_inserts.drain(..));
        }
    }

    /// Refills the prefetch buffer with one batch dequeue. Flushes our
    /// own buffered inserts first if the structure looks empty, so a
    /// closed-loop worker cannot starve itself.
    fn refill(&mut self, sample: bool) {
        let hint = if sample {
            self.backend.mq.min_hint()
        } else {
            u64::MAX
        };
        let mut tmp = std::mem::take(&mut self.scratch);
        tmp.clear();
        if self.handle.dequeue_batch(self.batch, &mut tmp) == 0 && !self.pending_inserts.is_empty()
        {
            self.flush_pending();
            self.handle.dequeue_batch(self.batch, &mut tmp);
        }
        if sample && hint != u64::MAX {
            if let Some((p, _)) = tmp.first() {
                self.proxies.push(p.saturating_sub(hint) as f64);
            }
        }
        self.prefetched.extend(tmp.drain(..));
        self.scratch = tmp;
    }
}

impl Worker for MultiQueueWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let clock = &self.backend.clock;
        match op.kind {
            OpKind::Update => {
                if let Some(log) = &mut self.log {
                    let thread = self.thread;
                    let invoke = clock.stamp();
                    let update = self
                        .handle
                        .stamped(clock.as_atomic())
                        .insert(op.priority, op.priority);
                    let response = clock.stamp();
                    log.push(Event {
                        thread,
                        label: PqOp::Insert {
                            priority: op.priority,
                        },
                        invoke,
                        update,
                        response,
                    });
                } else if self.batch > 1 {
                    self.pending_inserts.push((op.priority, op.priority));
                    if self.pending_inserts.len() >= self.batch {
                        self.flush_pending();
                    }
                } else {
                    self.handle.insert(op.priority, op.priority);
                }
                true
            }
            OpKind::Remove => {
                if self.log.is_some() {
                    // History mode also samples the cheap rank proxy so
                    // the checker-exact ranks can calibrate it.
                    self.removes_seen += 1;
                    let sample = self.quality_every > 0
                        && self.removes_seen.is_multiple_of(self.quality_every);
                    let hint = if sample {
                        self.backend.mq.min_hint()
                    } else {
                        u64::MAX
                    };
                    let thread = self.thread;
                    let invoke = clock.stamp();
                    match self.handle.stamped(clock.as_atomic()).dequeue() {
                        Some((p, _, update)) => {
                            let response = clock.stamp();
                            if sample && hint != u64::MAX {
                                self.proxies.push(p.saturating_sub(hint) as f64);
                            }
                            if let Some(log) = &mut self.log {
                                log.push(Event {
                                    thread,
                                    label: PqOp::DeleteMin { removed: p },
                                    invoke,
                                    update,
                                    response,
                                });
                            }
                            true
                        }
                        None => false,
                    }
                } else if self.batch > 1 {
                    self.removes_seen += 1;
                    if self.prefetched.is_empty() {
                        // Sampling cadence is per refill (each refill
                        // covers `batch` removes), so batched runs
                        // still produce proxy observations.
                        self.refills_seen += 1;
                        let cadence = (self.quality_every / self.batch as u32).max(1);
                        let sample =
                            self.quality_every > 0 && self.refills_seen.is_multiple_of(cadence);
                        self.refill(sample);
                    }
                    self.prefetched.pop_front().is_some()
                } else {
                    self.removes_seen += 1;
                    let sample = self.quality_every > 0
                        && self.removes_seen.is_multiple_of(self.quality_every);
                    let hint = if sample {
                        self.backend.mq.min_hint()
                    } else {
                        u64::MAX
                    };
                    match self.handle.dequeue() {
                        Some((p, _)) => {
                            if sample && hint != u64::MAX {
                                self.proxies.push(p.saturating_sub(hint) as f64);
                            }
                            true
                        }
                        None => false,
                    }
                }
            }
            OpKind::Read => {
                std::hint::black_box(self.backend.mq.min_hint());
                true
            }
        }
    }

    fn telemetry_sample(&mut self) -> Option<TelemetrySample> {
        // Drains the handle's plain-u64 counters (which flushes the
        // policy's pending camp events first) — the engine calls this
        // only at interval boundaries, so nothing here touches the op
        // hot path.
        Some(TelemetrySample {
            contention: self.handle.take_contention(),
        })
    }

    fn finish(&mut self) {
        self.settle();
    }
}

impl MultiQueueWorker<'_> {
    /// Flush buffered updates, then return undelivered prefetched
    /// entries (already removed from the MultiQueue but never handed
    /// to an op) so the conservation law sees them as residual, and
    /// hand the history log / quality samples to the backend. Runs at
    /// most once — from `finish()` on clean exits, or from `Drop` when
    /// the engine's panic harness skipped `finish()`, so a panicked
    /// worker's partial history and buffered items are still salvaged.
    fn settle(&mut self) {
        if self.settled {
            return;
        }
        self.settled = true;
        self.flush_pending();
        if !self.prefetched.is_empty() {
            self.handle.insert_batch(self.prefetched.drain(..));
        }
        if let Some(log) = self.log.take() {
            self.backend.quality.logs.lock().expect("logs").push(log);
        }
        self.backend
            .quality
            .proxies
            .lock()
            .expect("proxies")
            .append(&mut self.proxies);
    }
}

impl Drop for MultiQueueWorker<'_> {
    fn drop(&mut self) {
        // The engine catches worker panics *before* dropping the
        // worker, so the salvage path runs outside any unwind. If we
        // are nevertheless dropped mid-unwind, stay passive: a panic
        // out of Drop would abort the process.
        if !std::thread::panicking() {
            self.settle();
        }
    }
}

/// Any linearizable [`ConcurrentPq`] behind the [`Backend`] interface —
/// [`CoarsePq`], [`LockedPq`] (and, via its trait impl, the MultiQueue
/// itself when thread-local randomness is fine).
#[derive(Debug)]
pub struct ConcurrentPqBackend<C: ConcurrentPq<u64>> {
    pq: C,
    label: String,
    exact: bool,
    quality: QueueQuality,
}

impl ConcurrentPqBackend<CoarsePq<u64>> {
    /// The single-global-lock exact baseline.
    pub fn coarse() -> Self {
        Self::new(CoarsePq::new(), "coarse-pq", true)
    }
}

impl ConcurrentPqBackend<LockedPq<u64, BinaryHeap<u64, u64>>> {
    /// One spinlocked binary heap (exact, hint-published).
    pub fn locked_heap() -> Self {
        Self::new(LockedPq::new(BinaryHeap::new()), "locked-heap", true)
    }
}

impl<C: ConcurrentPq<u64>> ConcurrentPqBackend<C> {
    /// Wraps an arbitrary concurrent priority queue.
    pub fn new(pq: C, label: &str, exact: bool) -> Self {
        ConcurrentPqBackend {
            pq,
            label: label.to_string(),
            exact,
            quality: QueueQuality::default(),
        }
    }
}

impl<C: ConcurrentPq<u64>> Backend for ConcurrentPqBackend<C> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn family(&self) -> Family {
        Family::Queue
    }

    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(ConcurrentPqWorker {
            backend: self,
            quality_every: cfg.quality_every,
            removes_seen: 0,
            proxies: Vec::new(),
        })
    }

    fn residual(&self) -> u64 {
        self.pq.approx_len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        let residual = self.residual();
        let inserted = counts.inserted();
        if inserted == counts.removes + residual {
            Ok(())
        } else {
            Err(format!(
                "queue lost items: {inserted} inserted != {} removed + {residual} residual",
                counts.removes
            ))
        }
    }

    fn quality(&self) -> QualityReport {
        let proxies = std::mem::take(&mut *self.quality.proxies.lock().expect("proxies"));
        QualityReport::named("dequeue_rank_proxy")
            .with_summary(QualitySummary::from_samples(&proxies))
            .scalar("exact_structure", if self.exact { 1.0 } else { 0.0 })
    }
}

struct ConcurrentPqWorker<'a, C: ConcurrentPq<u64>> {
    backend: &'a ConcurrentPqBackend<C>,
    quality_every: u32,
    removes_seen: u32,
    proxies: Vec<f64>,
}

impl<C: ConcurrentPq<u64>> Worker for ConcurrentPqWorker<'_, C> {
    fn execute(&mut self, op: &Op) -> bool {
        let pq = &self.backend.pq;
        match op.kind {
            OpKind::Update => {
                pq.insert(op.priority, op.priority);
                true
            }
            OpKind::Remove => {
                self.removes_seen += 1;
                let sample =
                    self.quality_every > 0 && self.removes_seen.is_multiple_of(self.quality_every);
                let hint = if sample { pq.min_hint() } else { u64::MAX };
                match pq.remove_min() {
                    Some((p, _)) => {
                        if sample && hint != u64::MAX {
                            self.proxies.push(p.saturating_sub(hint) as f64);
                        }
                        true
                    }
                    None => false,
                }
            }
            OpKind::Read => {
                std::hint::black_box(pq.min_hint());
                true
            }
        }
    }

    fn finish(&mut self) {
        self.backend
            .quality
            .proxies
            .lock()
            .expect("proxies")
            .append(&mut self.proxies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(backend: &dyn Backend, n: u64, record_history: bool) -> OpCounts {
        let cfg = WorkerCfg {
            id: 0,
            threads: 1,
            seed: 7,
            record_history,
            quality_every: 4,
        };
        let mut counts = OpCounts::default();
        let mut w = backend.worker(cfg);
        for k in 0..n {
            let kind = if k % 2 == 0 {
                OpKind::Update
            } else {
                OpKind::Remove
            };
            let ok = w.execute(&Op {
                kind,
                key: k,
                priority: k,
                weight: 1,
            });
            match (kind, ok) {
                (OpKind::Update, _) => counts.updates += 1,
                (OpKind::Remove, true) => counts.removes += 1,
                (OpKind::Remove, false) => counts.removes_empty += 1,
                _ => {}
            }
        }
        w.finish();
        counts
    }

    #[test]
    fn multiqueue_backend_conserves_and_reports_proxy() {
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        let counts = drive(&b, 2_000, false);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_rank_proxy");
        assert_eq!(q.get("policy_factor"), Some(1.0));
        assert!(q.is_finite());
    }

    #[test]
    fn multiqueue_history_mode_yields_exact_ranks() {
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        let counts = drive(&b, 1_000, true);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_rank");
        assert_eq!(q.get("linearizable"), Some(1.0), "{q:?}");
        assert!(q.summary.expect("costs").count > 0);
        assert!(q.is_finite());
    }

    #[test]
    fn exact_backends_conserve() {
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(ConcurrentPqBackend::coarse()),
            Box::new(ConcurrentPqBackend::locked_heap()),
        ];
        for b in &backends {
            let counts = drive(b.as_ref(), 1_000, false);
            b.verify(&counts)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn policy_backend_conserves_with_sticky_and_batch() {
        for mode in [DeleteMode::Strict, DeleteMode::TryLock] {
            let b = MultiQueueBackend::heap_policy(8, mode, PolicyCfg::Sticky { ops: 8 }, 8);
            assert!(b.name().contains("sticky(s=8),b=8"), "{}", b.name());
            let counts = drive(&b, 3_000, false);
            b.verify(&counts)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            let q = b.quality();
            assert_eq!(q.metric, "dequeue_rank_proxy");
            assert_eq!(q.get("policy_factor"), Some(8.0));
            assert_eq!(q.get("batch"), Some(8.0));
            assert!(q.get("rank_bound_policy").unwrap_or(0.0) > 0.0);
        }
    }

    #[test]
    fn policy_backend_history_mode_stays_within_bound() {
        // History mode stamps individual ops (batching disabled) but
        // honours the policy; the checker-exact ranks must sit inside
        // the reported envelope.
        let b =
            MultiQueueBackend::heap_policy(4, DeleteMode::Strict, PolicyCfg::Sticky { ops: 8 }, 8);
        let counts = drive(&b, 2_000, true);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_rank");
        assert_eq!(q.get("linearizable"), Some(1.0), "{q:?}");
        assert_eq!(q.get("within_policy_bound"), Some(1.0), "{q:?}");
        let s = q.summary.expect("costs");
        assert!(s.count > 0);
        assert!(s.mean <= q.get("rank_bound_policy").expect("bound"));
    }

    #[test]
    fn heap_backends_conserve_in_both_modes_and_labels_carry_no_sub_tag() {
        for mode in [DeleteMode::Strict, DeleteMode::TryLock] {
            let b = MultiQueueBackend::heap_policy(4, mode, PolicyCfg::TwoChoice, 1);
            assert!(!b.name().contains("sub="), "{}", b.name());
            let counts = drive(&b, 2_000, false);
            b.verify(&counts)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn untuned_label_is_unchanged() {
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        assert_eq!(b.name(), "multiqueue-heap(m=4,strict)");
        assert_eq!(b.batch(), 1);
        assert_eq!(b.policy(), PolicyCfg::TwoChoice);
    }

    #[test]
    fn exact_pq_proxy_is_zero_sequentially() {
        let b = ConcurrentPqBackend::coarse();
        let _ = drive(&b, 2_000, false);
        let q = b.quality();
        let s = q.summary.expect("sampled");
        assert_eq!(s.max, 0.0, "exact queue dequeues the true min: {s:?}");
    }
}
