//! FIFO-family backends: the paper's [`RelaxedFifo`] (Section 7.1's
//! MultiQueue with clock-assigned timestamp priorities) and an exact
//! locked baseline.
//!
//! `Update` enqueues a fresh, globally unique element id; `Remove`
//! dequeues; `Read` peeks the published oldest-timestamp hint. With
//! `record_history` on, every operation is stamped and the recorded
//! history replays through the distributional-linearizability checker
//! under [`FifoSpec`]: the step cost is the dequeued element's
//! **position** in the FIFO order (0 = head = exact), the quantity
//! Theorem 7.1 bounds by O(m) in expectation.

use std::collections::VecDeque;
use std::sync::Mutex;

use dlz_core::clock::{Clock, FaaClock};
use dlz_core::spec::{
    check_distributional, Event, FifoOp, FifoSpec, History, HistoryArtifact, StampClock, ThreadLog,
};
use dlz_core::{AnyPolicy, MqHandle, RelaxedFifo};
use dlz_pq::{BinaryHeap, ConcurrentPq};

use crate::backend::{Backend, QualityReport, QualitySummary, Worker, WorkerCfg};
use crate::metrics::TelemetrySample;
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

/// Shared quality state of the FIFO backends.
#[derive(Debug, Default)]
struct FifoQuality {
    /// Stamped logs (history mode), replayed through the checker.
    logs: Mutex<Vec<ThreadLog<FifoOp>>>,
    /// Cheap online samples: `dequeued_ts - oldest_hint` — a
    /// timestamp-space staleness proxy for the dequeue position.
    proxies: Mutex<Vec<f64>>,
    /// The last run's history, packaged for export.
    artifact: Mutex<Option<HistoryArtifact>>,
}

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
    clock: StampClock,
    quality: FifoQuality,
}

impl RelaxedFifoBackend {
    /// A relaxed FIFO over `m` internal binary heaps.
    pub fn new(m: usize) -> Self {
        RelaxedFifoBackend {
            fifo: RelaxedFifo::new(m, FaaClock::new()),
            label: format!("relaxed-fifo(m={m})"),
            clock: StampClock::new(),
            quality: FifoQuality::default(),
        }
    }

    /// The wrapped relaxed FIFO.
    pub fn fifo(&self) -> &RelaxedFifo<u64, FaaClock> {
        &self.fifo
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
            log: cfg.record_history.then(|| ThreadLog::new(cfg.id)),
            quality_every: cfg.quality_every,
            removes_seen: 0,
            proxies: Vec::new(),
        })
    }

    fn residual(&self) -> u64 {
        self.fifo.len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        let residual = self.residual();
        let inserted = counts.inserted();
        if inserted == counts.removes + residual {
            Ok(())
        } else {
            Err(format!(
                "fifo lost items: {inserted} enqueued != {} dequeued + {residual} residual",
                counts.removes
            ))
        }
    }

    fn quality(&self) -> QualityReport {
        let logs = std::mem::take(&mut *self.quality.logs.lock().expect("logs"));
        let proxies = std::mem::take(&mut *self.quality.proxies.lock().expect("proxies"));
        let m = self.fifo.multiqueue().num_queues() as f64;
        if !logs.is_empty() {
            let history = History::from_logs(logs);
            let outcome = check_distributional(&FifoSpec, &history);
            let costs: Vec<f64> = outcome
                .costs
                .samples()
                .iter()
                .copied()
                .filter(|c| c.is_finite())
                .collect();
            let summary = QualitySummary::from_samples(&costs);
            let report = QualityReport::named("dequeue_position")
                .with_summary(summary)
                .scalar("scale_m", m)
                .scalar(
                    "linearizable",
                    if outcome.is_linearizable() { 1.0 } else { 0.0 },
                )
                .scalar("history_ops", history.len() as f64);
            *self.quality.artifact.lock().expect("artifact") = Some(HistoryArtifact::fifo(history));
            return report;
        }
        QualityReport::named("dequeue_ts_lag_proxy")
            .with_summary(QualitySummary::from_samples(&proxies))
            .scalar("scale_m", m)
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.quality.artifact.lock().expect("artifact").take()
    }
}

struct RelaxedFifoWorker<'a> {
    backend: &'a RelaxedFifoBackend,
    handle: MqHandle<'a, u64, BinaryHeap<u64, u64>, AnyPolicy>,
    thread: usize,
    /// Per-worker element sequence (packed under the worker id).
    seq: u64,
    log: Option<ThreadLog<FifoOp>>,
    quality_every: u32,
    removes_seen: u32,
    proxies: Vec<f64>,
}

impl Worker for RelaxedFifoWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let clock = &self.backend.clock;
        match op.kind {
            OpKind::Update => {
                let id = element_id(self.thread, self.seq);
                self.seq += 1;
                // Algorithm 2: read the clock, insert with the time as
                // the priority. The FAA clock makes timestamps unique,
                // so FIFO order is total and replay positions exact.
                let ts = self.backend.fifo.clock().tick();
                if let Some(log) = &mut self.log {
                    let thread = self.thread;
                    let invoke = clock.stamp();
                    let update = self.handle.stamped(clock.as_atomic()).insert(ts, id);
                    let response = clock.stamp();
                    log.push(Event {
                        thread,
                        label: FifoOp::Enqueue { id },
                        invoke,
                        update,
                        response,
                    });
                } else {
                    self.handle.insert(ts, id);
                }
                true
            }
            OpKind::Remove => {
                self.removes_seen += 1;
                let sample =
                    self.quality_every > 0 && self.removes_seen.is_multiple_of(self.quality_every);
                let hint = if sample {
                    self.backend.fifo.multiqueue().min_hint()
                } else {
                    u64::MAX
                };
                if self.log.is_some() {
                    let thread = self.thread;
                    let invoke = clock.stamp();
                    match self.handle.stamped(clock.as_atomic()).dequeue() {
                        Some((ts, id, update)) => {
                            let response = clock.stamp();
                            if sample && hint != u64::MAX {
                                self.proxies.push(ts.saturating_sub(hint) as f64);
                            }
                            if let Some(log) = &mut self.log {
                                log.push(Event {
                                    thread,
                                    label: FifoOp::Dequeue { id },
                                    invoke,
                                    update,
                                    response,
                                });
                            }
                            true
                        }
                        None => false,
                    }
                } else {
                    match self.handle.dequeue() {
                        Some((ts, _)) => {
                            if sample && hint != u64::MAX {
                                self.proxies.push(ts.saturating_sub(hint) as f64);
                            }
                            true
                        }
                        None => false,
                    }
                }
            }
            OpKind::Read => {
                std::hint::black_box(self.backend.fifo.multiqueue().min_hint());
                true
            }
        }
    }

    fn telemetry_sample(&mut self) -> Option<TelemetrySample> {
        Some(TelemetrySample {
            contention: self.handle.take_contention(),
        })
    }

    fn finish(&mut self) {
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

/// The exact baseline: one mutex around a `VecDeque`. Every dequeue
/// returns the true head, so checker replay costs are identically zero
/// — the control the relaxed positions are read against.
#[derive(Debug, Default)]
pub struct LockedFifoBackend {
    queue: Mutex<VecDeque<u64>>,
    clock: StampClock,
    quality: FifoQuality,
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
            backend: self,
            thread: cfg.id,
            seq: 0,
            log: cfg.record_history.then(|| ThreadLog::new(cfg.id)),
        })
    }

    fn residual(&self) -> u64 {
        self.queue.lock().expect("queue").len() as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        let residual = self.residual();
        let inserted = counts.inserted();
        if inserted == counts.removes + residual {
            Ok(())
        } else {
            Err(format!(
                "fifo lost items: {inserted} enqueued != {} dequeued + {residual} residual",
                counts.removes
            ))
        }
    }

    fn quality(&self) -> QualityReport {
        let logs = std::mem::take(&mut *self.quality.logs.lock().expect("logs"));
        if !logs.is_empty() {
            let history = History::from_logs(logs);
            let outcome = check_distributional(&FifoSpec, &history);
            let costs: Vec<f64> = outcome
                .costs
                .samples()
                .iter()
                .copied()
                .filter(|c| c.is_finite())
                .collect();
            let report = QualityReport::named("dequeue_position")
                .with_summary(QualitySummary::from_samples(&costs))
                .scalar(
                    "linearizable",
                    if outcome.is_linearizable() { 1.0 } else { 0.0 },
                )
                .scalar("history_ops", history.len() as f64);
            *self.quality.artifact.lock().expect("artifact") = Some(HistoryArtifact::fifo(history));
            return report;
        }
        QualityReport::named("dequeue_position").scalar("exact_structure", 1.0)
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.quality.artifact.lock().expect("artifact").take()
    }
}

struct LockedFifoWorker<'a> {
    backend: &'a LockedFifoBackend,
    thread: usize,
    seq: u64,
    log: Option<ThreadLog<FifoOp>>,
}

impl Worker for LockedFifoWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        let clock = &self.backend.clock;
        match op.kind {
            OpKind::Update => {
                let id = element_id(self.thread, self.seq);
                self.seq += 1;
                if self.log.is_some() {
                    let invoke = clock.stamp();
                    // The update stamp is taken inside the critical
                    // section: the true linearization point.
                    let update = {
                        let mut q = self.backend.queue.lock().expect("queue");
                        let u = clock.stamp();
                        q.push_back(id);
                        u
                    };
                    let response = clock.stamp();
                    if let Some(log) = &mut self.log {
                        log.push(Event {
                            thread: self.thread,
                            label: FifoOp::Enqueue { id },
                            invoke,
                            update,
                            response,
                        });
                    }
                } else {
                    self.backend.queue.lock().expect("queue").push_back(id);
                }
                true
            }
            OpKind::Remove => {
                if self.log.is_some() {
                    let invoke = clock.stamp();
                    let (popped, update) = {
                        let mut q = self.backend.queue.lock().expect("queue");
                        let u = clock.stamp();
                        (q.pop_front(), u)
                    };
                    let response = clock.stamp();
                    match popped {
                        Some(id) => {
                            if let Some(log) = &mut self.log {
                                log.push(Event {
                                    thread: self.thread,
                                    label: FifoOp::Dequeue { id },
                                    invoke,
                                    update,
                                    response,
                                });
                            }
                            true
                        }
                        None => false,
                    }
                } else {
                    self.backend
                        .queue
                        .lock()
                        .expect("queue")
                        .pop_front()
                        .is_some()
                }
            }
            OpKind::Read => {
                std::hint::black_box(self.backend.queue.lock().expect("queue").front().copied());
                true
            }
        }
    }

    fn finish(&mut self) {
        if let Some(log) = self.log.take() {
            self.backend.quality.logs.lock().expect("logs").push(log);
        }
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
