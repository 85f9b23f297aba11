//! The seven named workloads and the fixed protocol they share.
//!
//! Every workload is one process driving its backend with
//! [`WORKERS`] worker threads (threads ≤ cores on the reference host),
//! `m = 4·workers` queues, strict deletes and uniform priorities. Each
//! sample is a fresh backend and one [`engine::run`] with a fixed-op
//! budget, so op counts repeat exactly for a given seed.

use dlz_core::{DeleteMode, PolicyCfg};
use dlz_workload::backends::{CounterBackend, MultiQueueBackend, StmBackend};
use dlz_workload::{
    ArrivalShape, Backend, Budget, Dist, Family, OpMix, RunReport, Scenario, ScenarioBuilder,
};

/// Worker threads per run. The benchmark refuses end-to-end numbers on
/// a host with fewer cores than this.
pub const WORKERS: usize = 2;
/// Internal queues of every MultiQueue: the repo's `m = 4·workers`.
pub const QUEUES: usize = 4 * WORKERS;
/// Priority space of queue inserts.
pub const PRIORITIES: Dist = Dist::Uniform { n: 1 << 30 };
/// Slots of the transactional array (`stm-relaxed`).
pub const STM_SLOTS: usize = 1 << 17;
/// Cells of the relaxed clock's MultiCounter, as
/// [`StmBackend::relaxed`] sizes it for [`WORKERS`] threads.
pub const CLOCK_CELLS: usize = 4;
/// Ops per worker of one audit (history-recording) run.
pub const AUDIT_OPS: u64 = 125_000;
/// Audit runs per benchmark run, each with a seed of its own (times
/// the workload's `audit_rounds`).
pub const AUDITS: usize = 5;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Closed loop on the MultiQueue.
    Mq {
        /// Insert / dequeue weights.
        mix: (u32, u32),
        /// Choice policy of every worker's handle.
        policy: PolicyCfg,
        /// Ops buffered per lock acquisition.
        batch: usize,
    },
    /// The timer-wheel client driver over a two-choice MultiQueue,
    /// 50/50.
    Clients {
        /// Simulated client population (sharded over the workers).
        clients: usize,
        /// Poisson arrivals per second per client.
        rate: f64,
    },
    /// TL2 over [`STM_SLOTS`] slots under the relaxed clock: 80% 2-slot
    /// add transactions, 20% read-only.
    Stm,
}

/// What the queue rungs of the layer ladder need of a queue workload.
#[derive(Debug, Clone, Copy)]
pub struct QueueShape {
    /// Insert / dequeue mix.
    pub mix: OpMix,
    /// Items in the MultiQueue before the rung starts.
    pub prefill: u64,
    /// Choice policy.
    pub policy: PolicyCfg,
    /// Ops per lock acquisition.
    pub batch: usize,
    /// Ops per worker that take about two seconds.
    pub ops_2s: u64,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (which layer does most of the work).
    pub why: &'static str,
    /// What it drives.
    pub shape: Shape,
    /// Items inserted before each timed sample.
    pub prefill: u64,
    /// Items inserted before an audit run (history memory is
    /// proportional to it).
    pub audit_prefill: u64,
    /// Ops per worker that take about two seconds at the seed state;
    /// the fixed-op budget of a sample is scaled from this.
    pub ops_2s: u64,
    /// What `op_p50_ns` reads on this workload.
    pub p50: P50,
    /// Timed samples each of the protocol's samples is cut into (same
    /// window, shorter samples).
    pub slices: usize,
    /// How many times [`AUDITS`] audits the end-to-end protocol runs.
    pub audit_rounds: usize,
    /// The per-layer `workload.engine.op_p99_ns` is the service-time
    /// p99 (issue → completion), not the arrival-relative one.
    pub p99_service: bool,
}

/// What `op_p50_ns` reads from a sample's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P50 {
    /// Median of `RunReport.latency`.
    Median,
    /// Median service time (issue → completion).
    ServiceMedian,
    /// Mean of `RunReport.latency`.
    Mean,
}

const BALANCED: Shape = Shape::Mq {
    mix: (50, 50),
    policy: PolicyCfg::TwoChoice,
    batch: 1,
};

/// The workload set, in reporting order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "mq-balanced",
        why: "Shallow heaps, 50/50 closed loop: choice, packed lock and hint publish (core.queue, pq.locked) and the engine step do the work; pq.binary_heap does little.",
        shape: BALANCED,
        prefill: 20_000,
        audit_prefill: 20_000,
        ops_2s: 6_000_000,
        p50: P50::Median,
        slices: 1,
        audit_rounds: 1,
        p99_service: false,
    },
    Workload {
        name: "mq-deep-drain",
        why: "30/70 on 4M prefilled items (500k per heap, beyond the LLC): cache-missing BinaryHeap::delete_min dominates, so a heap change shows here and is flat on mq-balanced.",
        shape: Shape::Mq {
            mix: (30, 70),
            policy: PolicyCfg::TwoChoice,
            batch: 1,
        },
        prefill: 4_000_000,
        audit_prefill: 200_000,
        ops_2s: 3_000_000,
        p50: P50::Median,
        slices: 1,
        audit_rounds: 1,
        p99_service: false,
    },
    Workload {
        name: "mq-insert-surge",
        why: "80/20 growing backlog: the insert use of the per-queue layer (sift-up, lock and hint traffic, growing memory); a change that buys inserts with dequeues shows as a loss here or on mq-deep-drain.",
        shape: Shape::Mq {
            mix: (80, 20),
            policy: PolicyCfg::TwoChoice,
            batch: 1,
        },
        prefill: 20_000,
        audit_prefill: 20_000,
        ops_2s: 5_000_000,
        p50: P50::Median,
        slices: 1,
        audit_rounds: 1,
        p99_service: false,
    },
    Workload {
        name: "mq-sticky-batch",
        why: "Sticky(16) with batches of 16: lock acquisitions are amortised 16x, so workload.engine and workload.backends overhead is most of each op; an engine-loop change shows here, a lock change does not.",
        shape: Shape::Mq {
            mix: (50, 50),
            policy: PolicyCfg::Sticky { ops: 16 },
            batch: 16,
        },
        prefill: 20_000,
        audit_prefill: 20_000,
        ops_2s: 14_000_000,
        // 15 of 16 ops only fill the adapter's buffer, so the median is
        // a clock read (31 ns or 40 ns, depending on the host's mood);
        // the mean is the amortised op, flush included.
        p50: P50::Mean,
        slices: 1,
        // Where the workers camp decides an audit's rank (single audits
        // read a p99 of 750 to 1530), so the figure needs more draws.
        audit_rounds: 3,
        p99_service: false,
    },
    Workload {
        name: "clients-overload",
        why: "100k Poisson clients offering about 3x capacity: the saturated timer-wheel driver (workload.clients, sim.wheel) with a 50k-client shard per worker does most of the work.",
        shape: Shape::Clients {
            clients: 100_000,
            rate: 100.0,
        },
        prefill: 20_000,
        audit_prefill: 20_000,
        ops_2s: 3_000_000,
        // Arrival-relative latency under overload grows with run
        // length by construction; the service time is the system's own.
        p50: P50::ServiceMedian,
        slices: 1,
        audit_rounds: 1,
        p99_service: true,
    },
    Workload {
        name: "clients-poisson",
        why: "20k Poisson clients offering 1M ops/s, a third of capacity: the same driver paced, not saturated, each op after an idle spin; deferred or batched arrivals show in workload.clients.total_p50_ns.",
        shape: Shape::Clients {
            clients: 20_000,
            rate: 50.0,
        },
        prefill: 20_000,
        audit_prefill: 20_000,
        ops_2s: 1_000_000,
        // A paced worker spins on the clock two thirds of the time, and
        // the arrival-relative median follows the load of the host (444
        // to 648 ns for minutes at a time); it is reported as
        // workload.clients.total_p50_ns. The service median swings half
        // as far.
        p50: P50::ServiceMedian,
        // Short samples, so that some of them fall into the quiet
        // moments of a busy host.
        slices: 4,
        audit_rounds: 1,
        // The arrival-relative p99 is scheduler wake-ups on a shared
        // host (27 us to 4 ms across identical runs); it is reported
        // as workload.clients.total_p99_ns.
        p99_service: true,
    },
    Workload {
        name: "stm-relaxed",
        why: "TL2 with the relaxed MultiCounter clock (the paper's section 8): core.counter under stm.clock and stm.engine; no queue layer runs, so queue work must leave it flat.",
        shape: Shape::Stm,
        prefill: 0,
        audit_prefill: 0,
        ops_2s: 6_000_000,
        p50: P50::Median,
        slices: 1,
        audit_rounds: 1,
        p99_service: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn mq_backend(policy: PolicyCfg, batch: usize) -> Box<dyn Backend> {
    Box::new(MultiQueueBackend::heap_policy(
        QUEUES,
        DeleteMode::Strict,
        policy,
        batch,
    ))
}

impl Workload {
    /// The queue shape the queue rungs of the layer ladder run at: the
    /// workload's own for `mq-*`, the balanced one otherwise (the client
    /// workloads drive exactly that shape; `stm-relaxed` has no queue,
    /// its queue rungs are a reference reading).
    pub fn queue_shape(&self) -> QueueShape {
        let balanced = &WORKLOADS[0];
        let (of, prefill) = match self.shape {
            Shape::Mq { .. } => (self, self.prefill),
            Shape::Clients { .. } => (balanced, self.prefill),
            Shape::Stm => (balanced, balanced.prefill),
        };
        match of.shape {
            Shape::Mq { mix, policy, batch } => QueueShape {
                mix: OpMix::new(mix.0, mix.1, 0),
                prefill,
                policy,
                batch,
                ops_2s: of.ops_2s,
            },
            _ => unreachable!("the first workload is a queue workload"),
        }
    }

    /// A fresh backend for one sample.
    pub fn backend(&self) -> Box<dyn Backend> {
        match self.shape {
            Shape::Mq { policy, batch, .. } => mq_backend(policy, batch),
            Shape::Clients { .. } => mq_backend(PolicyCfg::TwoChoice, 1),
            Shape::Stm => Box::new(StmBackend::relaxed(STM_SLOTS, WORKERS)),
        }
    }

    /// The scenario of one timed sample, still open for the ladder's
    /// variants.
    pub fn builder(&self, seed: u64, ops_per_worker: u64) -> ScenarioBuilder {
        let b = match self.shape {
            Shape::Mq { mix, policy, batch } => Scenario::builder(self.name, Family::Queue)
                .mix(OpMix::new(mix.0, mix.1, 0))
                .choice_policy(policy)
                .batch(batch)
                // Two clock reads per op cost ~20% of a 300 ns op.
                .latency_every(8),
            Shape::Clients { clients, rate } => Scenario::builder(self.name, Family::Queue)
                .mix(OpMix::new(50, 50, 0))
                .clients(clients)
                .arrival_shape(ArrivalShape::Poisson { rate })
                // With clients, latency_every > 1 paces from a stale
                // clock (see the README's finding); time every op.
                .latency_every(1),
            Shape::Stm => Scenario::builder(self.name, Family::Stm)
                .mix(OpMix::new(80, 0, 20))
                .keys(Dist::Uniform {
                    n: STM_SLOTS as u64,
                })
                .latency_every(8),
        };
        b.threads(WORKERS)
            .prefill(self.prefill)
            .budget(Budget::OpsPerWorker(ops_per_worker))
            .priorities(PRIORITIES)
            .seed(seed)
    }

    /// The scenario of one timed sample.
    pub fn scenario(&self, seed: u64, ops_per_worker: u64) -> Scenario {
        self.builder(seed, ops_per_worker).build()
    }

    /// The audit run: the same mix, policy and driver with a stamped
    /// history, replayed through `dlz_core::spec`. History mode stamps
    /// single operations, so `mq-sticky-batch` audits `Sticky(16)`
    /// unbatched. `stm-relaxed` has no queue: its relaxation is the
    /// clock's MultiCounter, audited as a counter history (read
    /// deviation in increments) under the workload's 80/20 mix.
    pub fn audit(&self, seed: u64, ops_per_worker: u64) -> (Scenario, Box<dyn Backend>) {
        match self.shape {
            Shape::Mq { .. } | Shape::Clients { .. } => (
                self.builder(seed, ops_per_worker)
                    .record_history(true)
                    .prefill(self.audit_prefill)
                    .build(),
                self.backend(),
            ),
            Shape::Stm => (
                Scenario::builder(self.name, Family::Counter)
                    .mix(OpMix::new(80, 0, 20))
                    .threads(WORKERS)
                    .budget(Budget::OpsPerWorker(ops_per_worker))
                    .seed(seed)
                    .record_history(true)
                    .build(),
                Box::new(CounterBackend::multicounter(CLOCK_CELLS)),
            ),
        }
    }

    /// The same workload with prefills capped at 8k items, for smoke
    /// runs (enough that a few thousand ops cannot empty the backlog).
    pub fn shrunk(mut self) -> Workload {
        self.prefill = self.prefill.min(8_000);
        self.audit_prefill = self.audit_prefill.min(8_000);
        self
    }

    /// This workload's `op_p50_ns` and p99 of one run.
    pub fn latencies(&self, r: &RunReport) -> (f64, f64) {
        let service = r.clients.as_ref().map_or(r.latency, |c| c.service_ns);
        let p50 = match self.p50 {
            P50::Median => r.latency.p50_ns as f64,
            P50::ServiceMedian => service.p50_ns as f64,
            P50::Mean => r.latency.mean_ns,
        };
        let p99 = if self.p99_service {
            service.p99_ns
        } else {
            r.latency.p99_ns
        };
        (p50, p99 as f64)
    }

    /// `true` when a dequeue can never find the backlog empty, so an
    /// empty remove is a failed op.
    pub fn never_empty(&self) -> bool {
        !matches!(self.shape, Shape::Stm)
    }
}
