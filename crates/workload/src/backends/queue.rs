//! Queue-family backends: the MultiQueue (any choice policy) and the
//! exact one-lock `dlz-pq` baseline.
//!
//! Only the MultiQueue records histories. Its verdict — the exact ranks
//! of its dequeues against the policy's envelope — comes from
//! [`dlz_core::spec::judge`] over the recorded artifact, and a rank
//! exists nowhere else: without a history both backends report the
//! `dequeue_rank` metric's name and their scalar facts, no samples.

use std::collections::VecDeque;

use dlz_core::spec::{envelope, HistoryArtifact, Kind, PqOp, Recorder, ThreadLog};
use dlz_core::{DeleteMode, MqHandle, MultiQueue, PolicyCfg};
use dlz_pq::{BinaryHeap, ConcurrentPq, LockedPq};

use super::conserved;
use crate::backend::{Backend, QualityReport, Worker, WorkerCfg};
use crate::metrics::TelemetrySample;
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

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
/// envelope as `bound`: [`dlz_core::spec::envelope`] of the policy's
/// [`envelope_factor`](PolicyCfg::envelope_factor) (`s` for sticky
/// policies) and `m`.
#[derive(Debug)]
pub struct MultiQueueBackend {
    mq: MultiQueue<u64>,
    batch: usize,
    label: String,
    recorder: Recorder<PqOp>,
}

impl MultiQueueBackend {
    /// The default configuration: two-choice, unbatched. The
    /// [`DeleteMode`] argument has one value and is ignored.
    pub fn heap(m: usize, mode: DeleteMode) -> Self {
        Self::heap_policy(m, mode, PolicyCfg::TwoChoice, 1)
    }

    /// An explicit choice policy and batch size. The label keeps its
    /// `strict` tag, so report names and export paths do not move.
    pub fn heap_policy(m: usize, mode: DeleteMode, policy: PolicyCfg, batch: usize) -> Self {
        let batch = batch.max(1);
        let tuning = if !policy.is_default() || batch > 1 {
            format!(",{},b={batch}", policy.label())
        } else {
            String::new()
        };
        MultiQueueBackend {
            mq: MultiQueue::with_config((0..m).map(|_| BinaryHeap::new()).collect(), mode, policy),
            batch,
            label: format!("multiqueue-heap(m={m},strict{tuning})"),
            recorder: Recorder::new(),
        }
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
        // History mode stamps individual operations: no batching.
        let batch = if cfg.record_history { 1 } else { self.batch };
        Box::new(MultiQueueWorker {
            backend: self,
            handle: self.mq.handle(cfg.seed),
            log: cfg.record_history.then(|| self.recorder.log(cfg.id)),
            batch,
            pending_inserts: Vec::new(),
            prefetched: VecDeque::new(),
            scratch: Vec::new(),
        })
    }

    fn residual(&self) -> u64 {
        self.mq.len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        conserved("queue", counts, self.residual())
    }

    fn quality(&self) -> QualityReport {
        let queues = self.mq.num_queues();
        let m = queues as f64;
        let scale = m * m.max(2.0).ln();
        // The policy's envelope: expected rank O(factor·m).
        let policy = self.mq.policy();
        let factor = policy.envelope_factor();
        // The policy label and envelope factor travel with the events.
        let verdict = self
            .recorder
            .judge(|history| HistoryArtifact::pq(history, policy.label(), factor, queues));
        let envelope = envelope(Kind::Pq, factor, queues);
        let mut report = match &verdict {
            Some(v) => QualityReport::judged(v),
            None => QualityReport::named(envelope.metric),
        }
        .scalar("scale_m_ln_m", scale)
        .scalar("batch", self.batch as f64);
        if factor.is_finite() {
            report = report.scalar("policy_factor", factor);
        }
        match verdict {
            Some(v) => report.verdict(&v),
            // No ranks without a history: only the bound shows.
            None if factor.is_finite() => report.scalar("bound", envelope.bound),
            None => report,
        }
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.recorder.take_artifact()
    }
}

struct MultiQueueWorker<'a> {
    backend: &'a MultiQueueBackend,
    /// The worker's operational surface: private RNG + policy instance.
    handle: MqHandle<'a, u64>,
    log: Option<ThreadLog<'a, PqOp>>,
    /// Ops buffered per lock acquisition; 1 in history mode.
    batch: usize,
    /// Updates buffered until a full batch (flushed at `finish`).
    pending_inserts: Vec<(u64, u64)>,
    /// Entries taken by a batch dequeue, handed out one per `Remove`
    /// op; leftovers are re-inserted at `finish` so conservation holds.
    prefetched: VecDeque<(u64, u64)>,
    /// Reusable buffer for batch dequeues (no per-refill allocation).
    scratch: Vec<(u64, u64)>,
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
    fn refill(&mut self) {
        let mut tmp = std::mem::take(&mut self.scratch);
        tmp.clear();
        let (handle, pending) = (&mut self.handle, &mut self.pending_inserts);
        if handle.dequeue_batch(self.batch, &mut tmp) == 0 && !pending.is_empty() {
            handle.insert_batch(pending.drain(..));
            handle.dequeue_batch(self.batch, &mut tmp);
        }
        self.prefetched.extend(tmp.drain(..));
        self.scratch = tmp;
    }

    /// Flush buffered updates, then return undelivered prefetched
    /// entries (already removed from the MultiQueue but never handed
    /// to an op) so the conservation law sees them as residual. Runs
    /// from `finish()` on clean exits and again, finding nothing, from
    /// `Drop`; from `Drop` alone when the engine's panic harness
    /// skipped `finish()`.
    fn settle(&mut self) {
        self.flush_pending();
        if !self.prefetched.is_empty() {
            self.handle.insert_batch(self.prefetched.drain(..));
        }
    }
}

impl Worker for MultiQueueWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let mq = &self.backend.mq;
        match op.kind {
            OpKind::Update => {
                if let Some(log) = &mut self.log {
                    let handle = &mut self.handle;
                    log.record(|stamps| {
                        let update = handle.stamped(stamps).insert(op.priority, op.priority);
                        let label = PqOp::Insert {
                            priority: op.priority,
                        };
                        Some((label, update))
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
                let handle = &mut self.handle;
                if let Some(log) = &mut self.log {
                    log.record(|stamps| {
                        let (p, _, update) = handle.stamped(stamps).dequeue()?;
                        Some((PqOp::DeleteMin { removed: p }, update))
                    })
                } else if self.batch > 1 {
                    if self.prefetched.is_empty() {
                        self.refill();
                    }
                    self.prefetched.pop_front().is_some()
                } else {
                    handle.dequeue().is_some()
                }
            }
            OpKind::Read => {
                std::hint::black_box(mq.min_hint());
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

/// The exact baseline behind the [`Backend`] interface: one
/// [`LockedPq`] — a single global lock around one `BinaryHeap` — whose
/// every dequeue returns the true minimum.
#[derive(Debug)]
pub struct ConcurrentPqBackend {
    pq: LockedPq<u64>,
}

impl ConcurrentPqBackend {
    /// The single-global-lock exact baseline, labelled `coarse-pq`.
    pub fn coarse() -> Self {
        ConcurrentPqBackend {
            pq: LockedPq::new(BinaryHeap::new()),
        }
    }
}

impl Backend for ConcurrentPqBackend {
    fn name(&self) -> String {
        "coarse-pq".into()
    }

    fn family(&self) -> Family {
        Family::Queue
    }

    fn worker<'a>(&'a self, _cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(ConcurrentPqWorker { pq: &self.pq })
    }

    fn residual(&self) -> u64 {
        self.pq.approx_len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        conserved("queue", counts, self.residual())
    }

    fn quality(&self) -> QualityReport {
        QualityReport::named(envelope(Kind::Pq, 0.0, 0).metric).scalar("exact_structure", 1.0)
    }
}

struct ConcurrentPqWorker<'a> {
    pq: &'a LockedPq<u64>,
}

impl Worker for ConcurrentPqWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let pq = self.pq;
        match op.kind {
            OpKind::Update => {
                pq.insert(op.priority, op.priority);
                true
            }
            OpKind::Remove => pq.remove_min().is_some(),
            OpKind::Read => {
                std::hint::black_box(pq.min_hint());
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::drive;
    use super::*;

    #[test]
    fn multiqueue_backend_conserves_and_reports_no_ranks_without_a_history() {
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        let counts = drive(&b, 2_000, false);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_rank");
        assert!(
            q.summary.is_none(),
            "ranks come from the judge alone: {q:?}"
        );
        assert_eq!(q.get("policy_factor"), Some(1.0));
        assert_eq!(q.get("within_bound"), None);
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
        // One rank per successful dequeue; inserts are not samples.
        let count = q.summary.expect("costs").count;
        assert!(count > 0 && count == counts.removes, "{q:?}");
        assert!(q.is_finite());
    }

    #[test]
    fn exact_backends_conserve() {
        let b = ConcurrentPqBackend::coarse();
        let counts = drive(&b, 1_000, false);
        b.verify(&counts)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
    }

    #[test]
    fn policy_backend_conserves_with_sticky_and_batch() {
        let b =
            MultiQueueBackend::heap_policy(8, DeleteMode::Strict, PolicyCfg::Sticky { ops: 8 }, 8);
        assert!(b.name().contains("sticky(s=8),b=8"), "{}", b.name());
        let counts = drive(&b, 3_000, false);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_rank");
        assert!(q.summary.is_none(), "{q:?}");
        assert_eq!(q.get("policy_factor"), Some(8.0));
        assert_eq!(q.get("batch"), Some(8.0));
        assert_eq!(q.get("bound"), Some(30.0 * 8.0 * 8.0));
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
        assert_eq!(q.get("within_bound"), Some(1.0), "{q:?}");
        let s = q.summary.expect("costs");
        assert!(s.count > 0);
        assert!(s.mean <= q.get("bound").expect("bound"));
    }

    #[test]
    fn heap_backends_conserve_in_both_modes_and_labels_carry_no_sub_tag() {
        let b = MultiQueueBackend::heap_policy(4, DeleteMode::Strict, PolicyCfg::TwoChoice, 1);
        assert!(!b.name().contains("sub="), "{}", b.name());
        let counts = drive(&b, 2_000, false);
        b.verify(&counts)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
    }

    #[test]
    fn untuned_label_is_unchanged() {
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        // A non-default policy or batch would show as a label suffix.
        assert_eq!(b.name(), "multiqueue-heap(m=4,strict)");
    }
}
