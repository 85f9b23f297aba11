//! STM-family backend: the TL2 engine under any clock strategy.

use std::sync::Mutex;

use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_core::{ExactCounter, MultiCounter};
use dlz_stm::{ClockStrategy, RelaxedClock, Tl2, TxStats};

use crate::backend::{Backend, QualityReport, Worker, WorkerCfg};
use crate::op::{Op, OpCounts, OpKind};
use crate::scenario::Family;

/// The TL2 transactional array behind the [`Backend`] interface.
///
/// `Update` (and `Remove`, which STM maps to the same thing) runs the
/// paper's Section-8 transaction — add 1 to two uniformly chosen slots
/// and commit; `Read` runs a read-only transaction over one slot. The
/// conservation law is the paper's own verification: the quiescent
/// array sum must equal exactly 2× the committed update count.
#[derive(Debug)]
pub struct StmBackend<C: ClockStrategy> {
    stm: Tl2<C>,
    label: String,
    slots: u64,
    stats: Mutex<TxStats>,
}

impl StmBackend<ExactCounter> {
    /// Baseline TL2 (single fetch-and-add clock) over `slots` cells.
    pub fn exact(slots: usize) -> Self {
        StmBackend {
            stm: Tl2::new(slots, ExactCounter::new()),
            label: format!("stm-exact(slots={slots})"),
            slots: slots as u64,
            stats: Mutex::new(TxStats::default()),
        }
    }
}

impl StmBackend<RelaxedClock> {
    /// TL2 with the paper's relaxed MultiCounter clock, sized for
    /// `threads` workers with the κ = 3 margin of the fig1cde harness.
    pub fn relaxed(slots: usize, threads: usize) -> Self {
        let m = (2 * threads).max(4);
        let delta = RelaxedClock::suggested_delta(m, 3.0);
        StmBackend {
            stm: Tl2::new(slots, RelaxedClock::new(MultiCounter::new(m), delta)),
            label: format!("stm-relaxed(slots={slots},m={m})"),
            slots: slots as u64,
            stats: Mutex::new(TxStats::default()),
        }
    }
}

impl<C: ClockStrategy> StmBackend<C> {
    /// The wrapped engine.
    pub fn engine(&self) -> &Tl2<C> {
        &self.stm
    }

    /// Merged per-thread statistics so far (post-run).
    pub fn stats(&self) -> TxStats {
        *self.stats.lock().expect("stats")
    }
}

impl<C: ClockStrategy> Backend for StmBackend<C> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn family(&self) -> Family {
        Family::Stm
    }

    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(StmWorker {
            backend: self,
            handle: self.stm.thread(),
            rng: Xoshiro256::new(cfg.seed),
        })
    }

    fn residual(&self) -> u64 {
        self.stm.array().sum_quiescent().min(u64::MAX as u128) as u64
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        if self.stm.array().any_locked() {
            return Err("a slot lock leaked past the run".to_string());
        }
        let update_txs = (counts.updates + counts.removes + counts.prefill) as u128;
        let sum = self.stm.array().sum_quiescent();
        if sum != 2 * update_txs {
            return Err(format!(
                "STM safety violation: array sum {sum} != 2 x {update_txs} committed update txns"
            ));
        }
        let stats = self.stats();
        let committed = update_txs as u64 + counts.reads;
        if stats.commits != committed {
            return Err(format!(
                "commit accounting mismatch: {} commits != {committed} completed txns",
                stats.commits
            ));
        }
        Ok(())
    }

    fn quality(&self) -> QualityReport {
        let stats = self.stats();
        QualityReport::named("abort_rate")
            .scalar("abort_rate", stats.abort_rate())
            .scalar("commits", stats.commits as f64)
            .scalar("aborts", stats.aborts as f64)
            .scalar("future_version_aborts", stats.future_version as f64)
            .scalar("lock_busy_aborts", stats.lock_busy as f64)
            .scalar("read_validation_aborts", stats.read_validation as f64)
    }
}

struct StmWorker<'a, C: ClockStrategy> {
    backend: &'a StmBackend<C>,
    handle: dlz_stm::TxThread<'a, C>,
    rng: Xoshiro256,
}

impl<C: ClockStrategy> Worker for StmWorker<'_, C> {
    fn execute(&mut self, op: &Op) -> bool {
        let slots = self.backend.slots;
        match op.kind {
            OpKind::Update | OpKind::Remove => {
                let i = (op.key % slots) as usize;
                let j = self.rng.bounded(slots) as usize;
                self.handle.run(|tx| {
                    tx.add(i, 1)?;
                    tx.add(j, 1)?;
                    Ok(())
                });
                true
            }
            OpKind::Read => {
                let i = (op.key % slots) as usize;
                let _ = self.handle.run(|tx| tx.read(i));
                true
            }
        }
    }

    fn finish(&mut self) {
        self.backend
            .stats
            .lock()
            .expect("stats")
            .merge(&self.handle.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(backend: &dyn Backend, n: u64) -> OpCounts {
        let cfg = WorkerCfg {
            id: 0,
            threads: 1,
            seed: 11,
            record_history: false,
            quality_every: 0,
        };
        let mut counts = OpCounts::default();
        let mut w = backend.worker(cfg);
        for k in 0..n {
            let kind = if k % 5 == 4 {
                OpKind::Read
            } else {
                OpKind::Update
            };
            w.execute(&Op {
                kind,
                key: k,
                priority: 0,
                weight: 1,
            });
            match kind {
                OpKind::Update => counts.updates += 1,
                OpKind::Read => counts.reads += 1,
                OpKind::Remove => unreachable!(),
            }
        }
        w.finish();
        counts
    }

    #[test]
    fn exact_and_relaxed_stm_verify() {
        let exact = StmBackend::exact(256);
        let counts = drive(&exact, 2_000);
        exact.verify(&counts).expect("exact safety");
        assert!(exact.quality().is_finite());

        let relaxed = StmBackend::relaxed(1024, 2);
        let counts = drive(&relaxed, 2_000);
        relaxed.verify(&counts).expect("relaxed safety");
        let q = relaxed.quality();
        assert_eq!(q.metric, "abort_rate");
        assert!(q.get("commits").unwrap() >= 2_000.0);
    }

    #[test]
    fn verify_catches_missing_commits() {
        let b = StmBackend::exact(16);
        let counts = OpCounts {
            updates: 5, // claimed but never executed
            ..OpCounts::default()
        };
        assert!(b.verify(&counts).is_err());
    }
}
