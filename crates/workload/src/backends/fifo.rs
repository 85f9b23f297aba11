//! FIFO-family backends: the paper's [`RelaxedFifo`] (Section 7.1's
//! MultiQueue with clock-assigned timestamp priorities) and an exact
//! locked baseline.
//!
//! `Update` enqueues a fresh, globally unique element id; `Remove`
//! dequeues; `Read` peeks the published oldest-timestamp hint. With
//! `record_history` on, every operation is stamped through the
//! backend's [`Recorder`] and [`dlz_core::spec::judge`] replays the
//! history under `FifoSpec`: the step cost is the dequeued element's
//! **position** in the FIFO order (0 = head = exact), the quantity
//! Theorem 7.1 bounds by O(m) in expectation.

use std::collections::VecDeque;
use std::sync::Mutex;

use dlz_core::clock::{Clock, FaaClock};
use dlz_core::spec::{FifoOp, HistoryArtifact, Recorder, ThreadLog};
use dlz_core::{MqHandle, RelaxedFifo};
use dlz_pq::ConcurrentPq;

use super::{conserved, SampleSink, WorkerSamples};
use crate::backend::{Backend, QualityReport, QualitySummary, Worker, WorkerCfg};
use crate::metrics::TelemetrySample;
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

/// Element ids pack the worker id above a per-worker sequence number,
/// so ids are globally unique without shared state (the sequential
/// prefill worker has its own id, `threads`).
fn element_id(worker: usize, seq: u64) -> u64 {
    ((worker as u64) << 40) | seq
}

/// The paper's relaxed FIFO behind the [`Backend`] interface.
///
/// Workers operate through their own [`MqHandle`] over the wrapped
/// structure's MultiQueue, so the hot path carries the same contention
/// telemetry as the priority-queue backends; enqueue timestamps come
/// from the structure's shared [`FaaClock`] (Algorithm 2's
/// `Clock.Read()`), which makes the FIFO order total and the replay
/// costs exact positions.
#[derive(Debug)]
pub struct RelaxedFifoBackend {
    fifo: RelaxedFifo<u64, FaaClock>,
    label: String,
    recorder: Recorder<FifoOp>,
    /// `dequeued_ts - oldest_hint`: a timestamp-space staleness proxy
    /// for the dequeue position.
    proxies: SampleSink,
}

impl RelaxedFifoBackend {
    /// A relaxed FIFO over `m` internal binary heaps.
    pub fn new(m: usize) -> Self {
        RelaxedFifoBackend {
            fifo: RelaxedFifo::new(m, FaaClock::new()),
            label: format!("relaxed-fifo(m={m})"),
            recorder: Recorder::new(),
            proxies: SampleSink::default(),
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
            handle: self.fifo.multiqueue().handle(cfg.seed),
            thread: cfg.id,
            seq: 0,
            log: cfg.record_history.then(|| self.recorder.log(cfg.id)),
            proxy: self.proxies.worker(cfg.quality_every),
        })
    }

    fn residual(&self) -> u64 {
        self.fifo.len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        conserved("fifo", counts, self.residual())
    }

    fn quality(&self) -> QualityReport {
        let proxies = self.proxies.drain();
        let m = self.fifo.multiqueue().num_queues() as f64;
        match self.recorder.judge(HistoryArtifact::fifo) {
            Some(v) => QualityReport::judged(&v).scalar("scale_m", m).verdict(&v),
            None => QualityReport::named("dequeue_ts_lag_proxy")
                .with_summary(QualitySummary::from_samples(&proxies))
                .scalar("scale_m", m),
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
    proxy: WorkerSamples<'a>,
}

impl Worker for RelaxedFifoWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let fifo = &self.backend.fifo;
        let (handle, log) = (&mut self.handle, &mut self.log);
        match op.kind {
            OpKind::Update => {
                let id = element_id(self.thread, self.seq);
                self.seq += 1;
                // Algorithm 2: read the clock, insert with the time as
                // the priority. The FAA clock makes timestamps unique,
                // so FIFO order is total and replay positions exact.
                let ts = fifo.clock().tick();
                match log {
                    Some(log) => {
                        log.record(|clock| {
                            let update = handle.stamped(clock.as_atomic()).insert(ts, id);
                            Some((FifoOp::Enqueue { id }, update, ()))
                        });
                    }
                    None => handle.insert(ts, id),
                }
                true
            }
            OpKind::Remove => {
                let remove = || match log {
                    Some(log) => log.record(|clock| {
                        let (ts, id, update) = handle.stamped(clock.as_atomic()).dequeue()?;
                        Some((FifoOp::Dequeue { id }, update, ts))
                    }),
                    None => handle.dequeue().map(|(ts, _)| ts),
                };
                let hint = || fifo.multiqueue().min_hint();
                self.proxy.around_remove(hint, remove).is_some()
            }
            OpKind::Read => {
                std::hint::black_box(fifo.multiqueue().min_hint());
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
            None => QualityReport::named("dequeue_position").scalar("exact_structure", 1.0),
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
                        log.record(|clock| {
                            let mut q = queue.lock().expect("queue");
                            let update = clock.stamp();
                            q.push_back(id);
                            Some((FifoOp::Enqueue { id }, update, ()))
                        });
                    }
                    None => queue.lock().expect("queue").push_back(id),
                }
                true
            }
            OpKind::Remove => match &mut self.log {
                Some(log) => log
                    .record(|clock| {
                        let mut q = queue.lock().expect("queue");
                        let update = clock.stamp();
                        let id = q.pop_front()?;
                        Some((FifoOp::Dequeue { id }, update, ()))
                    })
                    .is_some(),
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
        assert_eq!(q.metric, "dequeue_ts_lag_proxy");
        assert!(q.is_finite());
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
