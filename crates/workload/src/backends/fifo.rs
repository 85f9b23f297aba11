//! FIFO-family backends: the paper's relaxed FIFO (Section 7.1's
//! MultiQueue with clock-assigned timestamp priorities) and an exact
//! locked baseline.
//!
//! `Update` enqueues a fresh, globally unique element id; `Remove`
//! dequeues; `Read` peeks the published oldest-timestamp hint. With
//! `record_history` on, every operation is stamped through the
//! backend's [`Recorder`] and [`dlz_core::spec::judge`] replays the
//! history under `FifoSpec`: the step cost is the dequeued element's
//! **position** in the FIFO order (0 = head = exact), the quantity
//! Theorem 7.1 bounds by O(m) in expectation. A position exists only
//! there: without a history both backends report the `dequeue_position`
//! metric's name and their scalar facts, no samples.

use std::collections::VecDeque;
use std::sync::Mutex;

use dlz_core::spec::{envelope, FifoOp, HistoryArtifact, Kind, Recorder, ThreadLog};
use dlz_core::{ExactCounter, MqHandle, MultiQueue};
use dlz_pq::ConcurrentPq;

use super::conserved;
use crate::backend::{Backend, QualityReport, Worker, WorkerCfg};
use crate::metrics::TelemetrySample;
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

/// Element ids pack the worker id above a per-worker sequence number,
/// so ids are globally unique without shared state (the sequential
/// prefill worker has its own id, `threads`).
fn element_id(worker: usize, seq: u64) -> u64 {
    ((worker as u64) << 40) | seq
}

/// The paper's relaxed FIFO behind the [`Backend`] interface: a
/// [`MultiQueue`] whose priorities are timestamps.
///
/// Section 7.1: "to enqueue, a thread reads the wall clock, chooses a
/// random priority queue, and adds the element to that priority queue
/// with priority given by the time." The clock here is an
/// [`ExactCounter`] (Algorithm 2's `Clock.Read()`): every element has a
/// unique, insertion-ordered timestamp, so the FIFO order is total and
/// a dequeue's replay cost is exactly how far from FIFO it was — the
/// quantity Theorem 7.1 bounds by O(m) in expectation.
///
/// Workers operate through their own [`MqHandle`], so the hot path
/// carries the same contention telemetry as the priority-queue
/// backends.
#[derive(Debug)]
pub struct RelaxedFifoBackend {
    mq: MultiQueue<u64>,
    clock: ExactCounter,
    label: String,
    recorder: Recorder<FifoOp>,
}

impl RelaxedFifoBackend {
    /// A relaxed FIFO over `m` internal `BinaryHeap`s.
    pub fn new(m: usize) -> Self {
        RelaxedFifoBackend {
            mq: MultiQueue::new(m),
            clock: ExactCounter::new(),
            label: format!("relaxed-fifo(m={m})"),
            recorder: Recorder::new(),
        }
    }
}

impl Backend for RelaxedFifoBackend {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn family(&self) -> Family {
        Family::Fifo
    }

    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(RelaxedFifoWorker {
            backend: self,
            handle: self.mq.handle(cfg.seed),
            thread: cfg.id,
            seq: 0,
            log: cfg.record_history.then(|| self.recorder.log(cfg.id)),
        })
    }

    fn residual(&self) -> u64 {
        self.mq.len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        conserved("fifo", counts, self.residual())
    }

    fn quality(&self) -> QualityReport {
        let m = self.mq.num_queues() as f64;
        match self.recorder.judge(HistoryArtifact::fifo) {
            Some(v) => QualityReport::judged(&v).scalar("scale_m", m).verdict(&v),
            None => QualityReport::named(envelope(Kind::Fifo, 0.0, 0).metric).scalar("scale_m", m),
        }
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.recorder.take_artifact()
    }
}

struct RelaxedFifoWorker<'a> {
    backend: &'a RelaxedFifoBackend,
    handle: MqHandle<'a, u64>,
    thread: usize,
    /// Per-worker element sequence (packed under the worker id).
    seq: u64,
    log: Option<ThreadLog<'a, FifoOp>>,
}

impl Worker for RelaxedFifoWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let backend = self.backend;
        let (handle, log) = (&mut self.handle, &mut self.log);
        match op.kind {
            OpKind::Update => {
                let id = element_id(self.thread, self.seq);
                self.seq += 1;
                // Algorithm 2: read the clock, insert with the time as
                // the priority. The fetch-and-add clock makes timestamps
                // unique, so FIFO order is total and replay positions exact.
                let ts = backend.clock.fetch_increment();
                match log {
                    Some(log) => {
                        log.record(|stamps| {
                            let update = handle.stamped(stamps).insert(ts, id);
                            Some((FifoOp::Enqueue { id }, update))
                        });
                    }
                    None => handle.insert(ts, id),
                }
                true
            }
            OpKind::Remove => match log {
                Some(log) => log.record(|stamps| {
                    let (_, id, update) = handle.stamped(stamps).dequeue()?;
                    Some((FifoOp::Dequeue { id }, update))
                }),
                None => handle.dequeue().is_some(),
            },
            OpKind::Read => {
                std::hint::black_box(backend.mq.min_hint());
                true
            }
        }
    }

    fn telemetry_sample(&mut self) -> Option<TelemetrySample> {
        Some(TelemetrySample {
            contention: self.handle.take_contention(),
        })
    }
}

/// The exact baseline: one mutex around a `VecDeque`. Every dequeue
/// returns the true head, so checker replay costs are identically zero
/// — the control the relaxed positions are read against.
#[derive(Debug, Default)]
pub struct LockedFifoBackend {
    queue: Mutex<VecDeque<u64>>,
    recorder: Recorder<FifoOp>,
}

impl LockedFifoBackend {
    /// An empty locked FIFO.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for LockedFifoBackend {
    fn name(&self) -> String {
        "locked-fifo".to_string()
    }

    fn family(&self) -> Family {
        Family::Fifo
    }

    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(LockedFifoWorker {
            queue: &self.queue,
            thread: cfg.id,
            seq: 0,
            log: cfg.record_history.then(|| self.recorder.log(cfg.id)),
        })
    }

    fn residual(&self) -> u64 {
        self.queue.lock().expect("queue").len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        conserved("fifo", counts, self.residual())
    }

    fn quality(&self) -> QualityReport {
        match self.recorder.judge(HistoryArtifact::fifo) {
            Some(v) => QualityReport::judged(&v).verdict(&v),
            None => QualityReport::named(envelope(Kind::Fifo, 0.0, 0).metric)
                .scalar("exact_structure", 1.0),
        }
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.recorder.take_artifact()
    }
}

struct LockedFifoWorker<'a> {
    queue: &'a Mutex<VecDeque<u64>>,
    thread: usize,
    seq: u64,
    log: Option<ThreadLog<'a, FifoOp>>,
}

impl Worker for LockedFifoWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let queue = self.queue;
        match op.kind {
            OpKind::Update => {
                let id = element_id(self.thread, self.seq);
                self.seq += 1;
                match &mut self.log {
                    Some(log) => {
                        // The update stamp is taken inside the critical
                        // section: the true linearization point.
                        log.record(|stamps| {
                            let mut q = queue.lock().expect("queue");
                            let update = stamps.fetch_increment();
                            q.push_back(id);
                            Some((FifoOp::Enqueue { id }, update))
                        });
                    }
                    None => queue.lock().expect("queue").push_back(id),
                }
                true
            }
            OpKind::Remove => match &mut self.log {
                Some(log) => log.record(|stamps| {
                    let mut q = queue.lock().expect("queue");
                    let update = stamps.fetch_increment();
                    let id = q.pop_front()?;
                    Some((FifoOp::Dequeue { id }, update))
                }),
                None => queue.lock().expect("queue").pop_front().is_some(),
            },
            OpKind::Read => {
                std::hint::black_box(queue.lock().expect("queue").front().copied());
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
    fn relaxed_fifo_backend_conserves() {
        let b = RelaxedFifoBackend::new(4);
        let counts = drive(&b, 2_000, false);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_position");
        assert!(q.summary.is_none(), "no positions without a history: {q:?}");
        assert_eq!(q.get("scale_m"), Some(4.0));
    }

    #[test]
    fn relaxed_fifo_history_mode_yields_exact_positions() {
        let b = RelaxedFifoBackend::new(4);
        let counts = drive(&b, 1_000, true);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_position");
        assert_eq!(q.get("linearizable"), Some(1.0), "{q:?}");
        assert!(q.summary.expect("positions").count > 0);
        // The checked history is packaged for export as a fifo artifact.
        let a = b.take_history_artifact().expect("artifact");
        let text = a.to_json_lines();
        assert!(text.contains("\"kind\":\"fifo\""), "{}", &text[..200]);
        let round = HistoryArtifact::from_json_lines(&text).expect("parse");
        assert_eq!(round.history.len(), a.history.len());
    }

    #[test]
    fn locked_fifo_history_positions_are_zero() {
        let b = LockedFifoBackend::new();
        let counts = drive(&b, 1_000, true);
        b.verify(&counts).expect("conservation");
        let q = b.quality();
        assert_eq!(q.metric, "dequeue_position");
        assert_eq!(q.get("linearizable"), Some(1.0), "{q:?}");
        let s = q.summary.expect("positions");
        assert_eq!(s.max, 0.0, "exact FIFO dequeues the true head: {s:?}");
    }

    #[test]
    fn element_ids_never_collide_across_workers() {
        assert_ne!(element_id(0, 1), element_id(1, 1));
        assert_ne!(element_id(3, 0), element_id(0, 3));
        // Prefill worker (id == threads) stays disjoint too.
        assert_ne!(element_id(4, 9), element_id(0, 9));
    }

    #[test]
    fn relaxed_fifo_worker_reports_telemetry() {
        let b = RelaxedFifoBackend::new(4);
        let cfg = WorkerCfg {
            id: 0,
            threads: 1,
            seed: 3,
            record_history: false,
            quality_every: 0,
        };
        let mut w = b.worker(cfg);
        for k in 0..100u64 {
            w.execute(&Op {
                kind: OpKind::Update,
                key: k,
                priority: k,
                weight: 1,
            });
        }
        let sample = w.telemetry_sample().expect("fifo workers sample");
        // The first insert into each empty queue moves its hint.
        assert!(sample.contention.hint_republishes >= 1, "{sample:?}");
    }
}
