//! The traced pass: one span file per workload and the per-layer table
//! computed from it.
//!
//! Nothing in the libraries is instrumented. Each layer is measured
//! from outside: by the decorators of [`crate::trace`] at the seams
//! that accept one (`Backend`/`Worker`, `SeqPriorityQueue`), and by
//! single-purpose rungs — the benchmark's own loop over a layer's
//! public calls, everything above it absent — for the seams that do
//! not (`pq.locked`, `sim.wheel`, `core.counter`, `stm.clock`,
//! `core.spec`). Rungs that have a workload-dependent shape (heap
//! depth, mix, policy, batch) run at the workload's own; a workload
//! that does not use a layer still reports that layer's rungs at the
//! reference shape, so every run prints the whole ladder.

use std::time::Duration;

use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_core::{DeleteMode, MqHandle, MultiCounter, MultiQueue, PolicyCfg};
use dlz_pq::{BinaryHeap, ConcurrentPq, LockedPq, SeqPriorityQueue};
use dlz_sim::TimerWheel;
use dlz_stm::{ClockStrategy, RelaxedClock, Tl2};
use dlz_workload::backends::{CounterBackend, StmBackend};
use dlz_workload::{
    engine, ArrivalShape, Backend, Budget, Family, LogHistogram, Op, OpCounts, OpKind, OpMix,
    QualityReport, RunReport, Scenario, Worker, WorkerCfg,
};

use crate::measure::{self, attempted, Plan};
use crate::metrics::{Metric, Outcome};
use crate::placement::Gate;
use crate::stats::Summary;
use crate::trace::{take_heap_calls, Recorder, Span, TracedBackend, TracedHeap, Tree};
use crate::workloads::{
    self, QueueShape, Shape, Workload, CLOCK_CELLS, QUEUES, STM_SLOTS, WORKERS,
};

/// Span names of the two phases of a queue-like rung.
struct Phases {
    insert: &'static str,
    remove: &'static str,
}

const HEAP: Phases = Phases {
    insert: "pq.binary_heap.add",
    remove: "pq.binary_heap.delete_min",
};
const LOCKED: Phases = Phases {
    insert: "pq.locked.insert",
    remove: "pq.locked.remove_min",
};
const QUEUE: Phases = Phases {
    insert: "core.queue.insert",
    remove: "core.queue.dequeue",
};

/// Ops per cycle of a phased loop: long enough that the two clock
/// reads around a phase are noise, short enough that depth stays put.
const CYCLE: u64 = 4096;

/// Runs about `ops` operations as cycles of one insert phase and one
/// remove phase, sized by `mix`; `step(kind, n)` performs `n` ops of
/// one kind. Each phase is a span beneath the loop's `bench.loop` top
/// span, so per-kind times are wall-clock over thousands of calls.
fn phased(
    rec: &Recorder,
    trace: &str,
    names: &Phases,
    mix: OpMix,
    ops: u64,
    mut step: impl FnMut(OpKind, u64),
) {
    let inserts = CYCLE * mix.update as u64 / mix.total() as u64;
    let cycles = ops.div_ceil(CYCLE);
    take_heap_calls(); // whatever prefill left behind
    rec.wall(trace, 0, "bench.loop", cycles * CYCLE, |top| {
        for _ in 0..cycles {
            rec.wall(trace, top, names.insert, inserts, |_| {
                step(OpKind::Update, inserts)
            });
            rec.wall(trace, top, names.remove, CYCLE - inserts, |_| {
                step(OpKind::Remove, CYCLE - inserts)
            });
        }
        let heap = take_heap_calls();
        for (name, n) in [
            ("pq.binary_heap.add.calls", heap.add),
            ("pq.binary_heap.delete_min.calls", heap.delete_min),
            ("pq.binary_heap.other.calls", heap.other),
        ] {
            if n > 0 {
                rec.count(trace, top, name, n);
            }
        }
    });
}

fn priorities(seed: u64, stream: u64) -> impl FnMut() -> u64 {
    let mut rng = Xoshiro256::new(seed ^ (stream + 1).wrapping_mul(0x9e3779b97f4a7c15));
    move || rng.bounded(1 << 30)
}

/// Drives a phased loop through a MultiQueue handle, single ops or
/// batches of `batch`, with the queue workloads' uniform priorities.
fn drive_handle<Q: SeqPriorityQueue<u64, u64> + Send>(
    rec: &Recorder,
    trace: &str,
    handle: &mut MqHandle<'_, u64, Q>,
    mut priority: impl FnMut() -> u64,
    mix: OpMix,
    ops: u64,
    batch: u64,
) {
    let mut scratch: Vec<(u64, u64)> = Vec::with_capacity(batch as usize);
    phased(rec, trace, &QUEUE, mix, ops, |kind, n| {
        for chunk in (0..n).step_by(batch as usize).map(|at| batch.min(n - at)) {
            match (kind, batch) {
                (OpKind::Update, 1) => {
                    let p = priority();
                    handle.insert(p, p);
                }
                (OpKind::Update, _) => {
                    handle.insert_batch((0..chunk).map(|_| {
                        let p = priority();
                        (p, p)
                    }));
                }
                (_, 1) => {
                    std::hint::black_box(handle.dequeue());
                }
                _ => {
                    scratch.clear();
                    handle.dequeue_batch(chunk as usize, &mut scratch);
                    std::hint::black_box(&scratch);
                }
            }
        }
    });
}

fn prefill<Q: SeqPriorityQueue<u64, u64> + Send>(mq: &MultiQueue<u64, Q>, seed: u64, n: u64) {
    let mut h = mq.handle(seed ^ 0xf111);
    let mut priority = priorities(seed, 99);
    for _ in 0..n {
        let p = priority();
        h.insert(p, p);
    }
}

/// A backend that does nothing: an engine run over it costs what the
/// engine's own loop costs.
struct NullBackend(Family);

impl Backend for NullBackend {
    fn name(&self) -> String {
        "null".to_string()
    }
    fn family(&self) -> Family {
        self.0
    }
    fn worker<'a>(&'a self, _cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(NullWorker)
    }
    fn residual(&self) -> u64 {
        0
    }
    fn verify(&self, _counts: &OpCounts) -> Result<(), String> {
        Ok(())
    }
    fn quality(&self) -> QualityReport {
        QualityReport::named("none")
    }
}

struct NullWorker;

impl Worker for NullWorker {
    #[inline]
    fn execute(&mut self, op: &Op) -> bool {
        std::hint::black_box(op);
        true
    }
}

/// A top span for one engine run: its measured window, standing for
/// every op it attempted.
fn engine_span(rec: &Recorder, rung: &str, r: &RunReport) {
    let end_ns = rec.now();
    rec.push(Span {
        trace: format!("{rung}/0"),
        id: rec.id(),
        parent: 0,
        name: "workload.engine.run",
        start_ns: end_ns.saturating_sub(r.elapsed.as_nanos() as u64),
        end_ns,
        calls: attempted(&r.counts),
    });
}

/// Worker-nanoseconds per op of the engine runs recorded under `rung`.
fn run_op_ns(tree: &Tree, rung: &str) -> f64 {
    WORKERS as f64 * tree.get(rung, "workload.engine.run").per_call()
}

/// Per-1000-ops rate.
fn pk(n: f64, ops: f64) -> f64 {
    1_000.0 * n / ops.max(1.0)
}

/// The traced pass of one workload.
pub struct Ladder<'a> {
    rec: &'a Recorder,
    seed: u64,
    /// Size of every rung relative to the default protocol.
    scale: f64,
    gate: Gate,
    out: Outcome,
}

impl<'a> Ladder<'a> {
    fn n(&self, at_default: u64) -> u64 {
        ((at_default as f64 * self.scale) as u64).max(2_000)
    }

    /// One engine run, gated like an end-to-end sample.
    fn run(&mut self, scenario: &Scenario, backend: &dyn Backend, w: &Workload) -> RunReport {
        self.gate.wait_distinct();
        let r = engine::run(scenario, backend);
        self.out.attempted += attempted(&r.counts);
        self.out.failed += measure::check(w, &r, &mut self.out.errors);
        r
    }

    /// A short untraced run of `w`, recorded under `rung`.
    fn reference(&mut self, w: &Workload, rung: &str, ops: u64) -> RunReport {
        let r = self.run(&w.scenario(self.seed, ops), w.backend().as_ref(), w);
        engine_span(self.rec, rung, &r);
        r
    }

    fn emit(&mut self, name: &'static str, value: f64) {
        self.out.metrics.push(Metric::single(name, value));
    }

    /// The 2-thread twin: the workload's queue shape on a MultiQueue of
    /// call-counting heaps, driven through `MqHandle` by this loop.
    fn twin2(&self, shape: &QueueShape, ops: u64) {
        let queues = (0..QUEUES).map(|_| TracedHeap(BinaryHeap::new())).collect();
        let mq: MultiQueue<u64, TracedHeap<BinaryHeap<u64, u64>>> =
            MultiQueue::with_config(queues, DeleteMode::Strict, shape.policy);
        prefill(&mq, self.seed, shape.prefill);
        let (rec, seed) = (self.rec, self.seed);
        std::thread::scope(|s| {
            for t in 0..WORKERS as u64 {
                let mq = &mq;
                s.spawn(move || {
                    let trace = format!("twin2/{t}");
                    let mut h = mq.handle(seed ^ (t + 1));
                    let draw = priorities(seed, t);
                    drive_handle(
                        rec,
                        &trace,
                        &mut h,
                        draw,
                        shape.mix,
                        ops,
                        shape.batch as u64,
                    );
                    let c = h.take_contention();
                    for (name, n) in [
                        ("core.queue.try_lock_failures", c.try_lock_failures),
                        ("core.queue.cas_retries", c.cas_retries),
                        ("core.queue.backoff_spins", c.backoff_spins),
                        ("core.queue.empty_confirms", c.empty_confirms),
                        ("core.queue.hint_republishes", c.hint_republishes),
                    ] {
                        rec.count(&trace, 0, name, n);
                    }
                });
            }
        });
    }

    /// The 1-thread rungs beneath the MultiQueue op, each at the
    /// workload's per-queue depth and mix: the bare heap, one
    /// `LockedPq`, then one prefilled MultiQueue driven with single
    /// ops, batches of 16, and single ops under `Sticky(16)`.
    fn queue_rungs(&self, shape: &QueueShape, ops: u64) {
        let (rec, seed, mix) = (self.rec, self.seed, shape.mix);
        let per_queue = shape.prefill / QUEUES as u64;

        let mut heap: BinaryHeap<u64, u64> = BinaryHeap::new();
        let mut priority = priorities(seed, 3);
        for _ in 0..per_queue {
            heap.add(priority(), 0);
        }
        phased(rec, "heap/0", &HEAP, mix, ops, |kind, n| match kind {
            OpKind::Update => (0..n).for_each(|_| heap.add(priority(), 0)),
            _ => (0..n).for_each(|_| {
                std::hint::black_box(heap.delete_min());
            }),
        });

        let pq: LockedPq<u64> = LockedPq::new(BinaryHeap::new());
        for _ in 0..per_queue {
            pq.insert(priority(), 0);
        }
        phased(rec, "locked/0", &LOCKED, mix, ops, |kind, n| match kind {
            OpKind::Update => (0..n).for_each(|_| pq.insert(priority(), 0)),
            _ => (0..n).for_each(|_| {
                std::hint::black_box(pq.remove_min());
            }),
        });

        let mq = MultiQueue::<u64>::builder()
            .queues(QUEUES)
            .delete_mode(DeleteMode::Strict)
            .build::<u64>();
        prefill(&mq, seed, shape.prefill);
        let mut h = mq.handle(seed ^ 1);
        drive_handle(rec, "queue1/0", &mut h, priorities(seed, 0), mix, ops, 1);
        drive_handle(rec, "batch16/0", &mut h, priorities(seed, 1), mix, ops, 16);
        let mut sticky =
            MqHandle::with_policy(&mq, seed ^ 2, PolicyCfg::Sticky { ops: 16 }.build());
        drive_handle(
            rec,
            "sticky16/0",
            &mut sticky,
            priorities(seed, 2),
            mix,
            ops,
            1,
        );
    }

    /// The backend adapter with the engine stubbed out: this loop calls
    /// `Worker::execute` directly, two threads, the workload's mix.
    fn exec2(&self, w: &Workload, ops: u64) {
        let backend = w.backend();
        let scenario = w.scenario(self.seed, ops);
        let cfg = |id| WorkerCfg {
            id,
            threads: WORKERS,
            seed: self.seed ^ (id as u64 + 1),
            record_history: false,
            quality_every: scenario.quality_every,
        };
        let (mix, total) = (scenario.mix, scenario.mix.total() as u64);
        let draw = |rng: &mut Xoshiro256, kind| Op {
            kind,
            key: rng.bounded(STM_SLOTS as u64),
            priority: rng.bounded(1 << 30),
            weight: 1,
        };
        let mut rng = Xoshiro256::new(self.seed ^ 0xe2);
        let mut pre = backend.worker(cfg(WORKERS));
        for _ in 0..scenario.prefill {
            pre.execute(&draw(&mut rng, OpKind::Update));
        }
        pre.finish();
        drop(pre);
        let rec = self.rec;
        std::thread::scope(|s| {
            for t in 0..WORKERS {
                let mut worker = backend.worker(cfg(t));
                s.spawn(move || {
                    let mut rng = Xoshiro256::new(cfg(t).seed);
                    rec.wall(
                        &format!("exec2/{t}"),
                        0,
                        "workload.backends.execute",
                        ops,
                        |_| {
                            for _ in 0..ops {
                                let kind = mix.pick(rng.bounded(total) as u32);
                                std::hint::black_box(worker.execute(&draw(&mut rng, kind)));
                            }
                        },
                    );
                    worker.finish();
                });
            }
        });
    }

    /// Rungs for seams with no decorator: tight loops over public calls.
    fn stubs(&self) {
        let (rec, n) = (self.rec, self.n(2_000_000));
        let mut rng = Xoshiro256::new(self.seed ^ 0x57ab);
        let stub = |name, calls, f: &mut dyn FnMut()| rec.wall("stub/0", 0, name, calls, |_| f());

        let mut hist = LogHistogram::new();
        stub("workload.metrics.record", n, &mut || {
            for _ in 0..n {
                hist.record(rng.bounded(1 << 20));
            }
        });
        std::hint::black_box(hist.quantile(0.5));

        // 50k pending timers, one per client of a clients-overload
        // shard; each pop reschedules, as the driver does.
        let mut wheel: TimerWheel<u32> = TimerWheel::new(65_536);
        for c in 0..50_000u32 {
            wheel.schedule(rng.bounded(10_000_000), c);
        }
        stub("sim.wheel.schedule_pop", n, &mut || {
            for _ in 0..n {
                let (at, c) = wheel.pop().expect("wheel never drains");
                wheel.schedule(at + 1 + rng.bounded(20_000_000), c);
            }
        });

        let counter = MultiCounter::new(CLOCK_CELLS);
        stub("core.counter.increment", n, &mut || {
            for _ in 0..n {
                counter.increment_with(&mut rng);
            }
        });
        stub("core.counter.read", n, &mut || {
            for _ in 0..n {
                std::hint::black_box(counter.read_with(&mut rng));
            }
        });
        let seed = self.seed;
        std::thread::scope(|s| {
            for t in 0..WORKERS as u64 {
                let counter = &counter;
                s.spawn(move || {
                    let mut rng = Xoshiro256::new(seed ^ (t + 7));
                    rec.wall(
                        &format!("stub2/{t}"),
                        0,
                        "core.counter.increment",
                        n,
                        |_| {
                            for _ in 0..n {
                                counter.increment_with(&mut rng);
                            }
                        },
                    );
                });
            }
        });

        let delta = RelaxedClock::suggested_delta(CLOCK_CELLS, 3.0);
        let clock = RelaxedClock::new(MultiCounter::new(CLOCK_CELLS), delta);
        let mut tmax = 0u64;
        stub("stm.clock.read_version", n, &mut || {
            for _ in 0..n {
                tmax = tmax.max(clock.read_version(tmax));
            }
        });
        stub("stm.clock.write_version", n, &mut || {
            for _ in 0..n {
                std::hint::black_box(clock.write_version(tmax, 0));
            }
        });

        // The workload's transaction mix on a bare TxThread.
        let stm = Tl2::new(STM_SLOTS, clock);
        let mut tx = stm.thread();
        let slots = STM_SLOTS as u64;
        let txns = self.n(1_000_000);
        stub("stm.engine.txn", txns, &mut || {
            for _ in 0..txns {
                let (i, j) = (rng.bounded(slots) as usize, rng.bounded(slots) as usize);
                if rng.bounded(100) < 80 {
                    tx.run(|t| {
                        t.add(i, 1)?;
                        t.add(j, 1)
                    });
                } else {
                    std::hint::black_box(tx.run(|t| t.read(i)));
                }
            }
        });
    }

    /// Engine-run variants of the `mq-balanced` scenario: what latency
    /// sampling, telemetry and an armed-but-inert fault plan cost, and
    /// the self-paced client driver against the closed loop. Returns
    /// the two self-paced reports (`latency_every` 1 and 8).
    fn variants(&mut self) -> (RunReport, RunReport) {
        let base = &workloads::WORKLOADS[0];
        let ops = self.n(base.ops_2s * 3 / 20);
        let b = || base.builder(self.seed, ops);
        let self_paced = || b().clients(WORKERS).arrival_shape(ArrivalShape::SelfPaced);
        let cases: [(&str, Scenario); 7] = [
            ("var.base", b().build()),
            ("var.le1", b().latency_every(1).build()),
            ("var.off", b().latency_every(u32::MAX).build()),
            (
                "var.telemetry",
                b().telemetry_interval(Duration::from_millis(100)).build(),
            ),
            // Armed but inert: every fault hook runs, none fires.
            ("var.faults", b().faults_spec("slow:0:0").build()),
            ("var.sp1", self_paced().latency_every(1).build()),
            ("var.sp8", self_paced().build()),
        ];
        let mut self_paced = Vec::new();
        // Two interleaved rounds, so slow drift of the host lands on
        // every case alike.
        for _ in 0..2 {
            for (rung, s) in &cases {
                let r = self.run(s, base.backend().as_ref(), base);
                engine_span(self.rec, rung, &r);
                if rung.starts_with("var.sp") {
                    self_paced.push(r);
                }
            }
        }
        let sp8 = self_paced.pop().expect("two self-paced cases");
        let sp1 = self_paced.pop().expect("two self-paced cases");
        (sp1, sp8)
    }

    /// Runs every rung and derives the per-layer table from the spans.
    pub fn run_all(rec: &'a Recorder, w: &Workload, plan: &Plan) -> (Outcome, Vec<Span>) {
        let mut l = Ladder {
            rec,
            seed: plan.seed,
            scale: plan.rung_seconds / 1.6,
            gate: plan.gate(),
            out: Outcome::default(),
        };
        let ops = Plan::ops_for(w, plan.rung_seconds);
        let _ = measure::sample(w, plan.seed, (ops / 4).max(1_000));

        // The workload itself, untraced and through TracedBackend, as
        // three interleaved pairs: one odd run (now and then the
        // scheduler runs both workers on one core, which is *faster*
        // for a contended queue) must not pose as tracing overhead.
        let pair_ops = (ops / 3).max(1_000);
        let worker_ns = |r: &RunReport| {
            WORKERS as f64 * r.elapsed.as_nanos() as f64 / attempted(&r.counts).max(1) as f64
        };
        let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
        let mut reference = None;
        for _ in 0..3 {
            let plain = l.reference(w, "ref", pair_ops);
            plain_ns.push(worker_ns(&plain));
            reference = Some(plain);
            let backend = w.backend();
            let traced = l.run(
                &w.scenario(plan.seed, pair_ops),
                &TracedBackend::new(backend.as_ref(), rec, "engine"),
                w,
            );
            traced_ns.push(worker_ns(&traced));
        }
        let reference = reference.expect("three pairs ran");

        // The engine alone (null backend) and the backend alone (this
        // loop calling execute). A paced client scenario would spend
        // the null run waiting for arrivals, so client workloads run
        // this pair saturated: same population, arrivals always due.
        let short = l.n(w.ops_2s / 4);
        let saturated = match w.shape {
            Shape::Clients { .. } => w
                .builder(plan.seed, short)
                .arrival_shape(ArrivalShape::Poisson { rate: 1e6 })
                .build(),
            _ => w.scenario(plan.seed, short),
        };
        let real = l.run(&saturated, w.backend().as_ref(), w);
        engine_span(rec, "sat.real", &real);
        let null = l.run(&saturated, &NullBackend(saturated.family), w);
        engine_span(rec, "sat.null", &null);
        l.gate.wait_distinct();
        l.exec2(w, short);

        // A run of each kind the workload is not, for the layers only
        // that kind exercises.
        let [mq, poisson, stm_w] = ["mq-balanced", "clients-poisson", "stm-relaxed"]
            .map(|n| workloads::find(n).expect("reference workload"));
        let queue_ref = match w.shape {
            Shape::Stm => l.reference(mq, "ref.queue", l.n(mq.ops_2s * 3 / 20)),
            _ => reference.clone(),
        };
        let clients_ref = match w.shape {
            Shape::Clients { .. } => reference.clone(),
            _ => l.reference(poisson, "ref.clients", l.n(poisson.ops_2s / 5)),
        };
        let (stm_ops, stm_ref) = match w.shape {
            Shape::Stm => (pair_ops, reference.clone()),
            _ => {
                let n = l.n(stm_w.ops_2s / 4);
                (n, l.reference(stm_w, "ref.stm", n))
            }
        };
        let exact = l.run(
            &stm_w.scenario(plan.seed, stm_ops),
            &StmBackend::exact(STM_SLOTS),
            stm_w,
        );
        let counter_dev = l.run(
            &Scenario::builder("counter-deviation", Family::Counter)
                .threads(WORKERS)
                .mix(OpMix::new(80, 0, 20))
                .budget(Budget::OpsPerWorker(l.n(500_000)))
                .seed(plan.seed)
                .build(),
            &CounterBackend::multicounter(CLOCK_CELLS),
            stm_w,
        );

        let shape = w.queue_shape();
        l.gate.wait_distinct();
        l.twin2(&shape, l.n(shape.ops_2s * 2 / 5));
        l.queue_rungs(&shape, l.n(1_000_000));
        l.gate.wait_distinct();
        l.stubs();
        let (sp1, sp8) = l.variants();
        let audits = measure::audit_phase(w, plan, plan.audits, &mut l.out);
        for a in &audits {
            let end_ns = rec.now();
            rec.push(Span {
                trace: "stub/0".to_string(),
                id: rec.id(),
                parent: 0,
                name: "core.spec.check",
                start_ns: end_ns.saturating_sub((a.check_ns_per_event * a.events as f64) as u64),
                end_ns,
                calls: a.events,
            });
        }

        let spans = rec.spans();
        let t = Tree::build(&spans);
        let per = |rung: &str, name: &str| t.get(rung, name).per_call();
        // Mean ns per op of a phased rung, both kinds together.
        let op_ns = |rung: &str, names: &Phases| {
            let (i, r) = (t.get(rung, names.insert), t.get(rung, names.remove));
            (i.dur_ns + r.dur_ns) as f64 / (i.calls + r.calls).max(1) as f64
        };

        // Sequential heap and per-queue lock, at the workload's depth.
        l.emit("pq.binary_heap.add_ns", per("heap", HEAP.insert));
        l.emit("pq.binary_heap.delete_min_ns", per("heap", HEAP.remove));
        let twin_ops = t.get("twin2", "bench.loop").calls as f64;
        let count = |n: &str| t.get("twin2", n).calls as f64;
        l.emit(
            "pq.binary_heap.calls_per_op",
            (count("pq.binary_heap.add.calls")
                + count("pq.binary_heap.delete_min.calls")
                + count("pq.binary_heap.other.calls"))
                / twin_ops.max(1.0),
        );
        l.emit("pq.locked.insert_ns", per("locked", LOCKED.insert));
        l.emit("pq.locked.remove_min_ns", per("locked", LOCKED.remove));
        l.emit(
            "pq.locked.self_ns",
            op_ns("locked", &LOCKED) - op_ns("heap", &HEAP),
        );

        // The MultiQueue op: one thread, two threads, batched, sticky.
        l.emit("core.queue.insert_ns", per("queue1", QUEUE.insert));
        l.emit("core.queue.dequeue_ns", per("queue1", QUEUE.remove));
        l.emit("core.queue.insert_ns.t2", per("twin2", QUEUE.insert));
        l.emit("core.queue.dequeue_ns.t2", per("twin2", QUEUE.remove));
        l.emit(
            "core.queue.self_ns",
            op_ns("queue1", &QUEUE) - op_ns("locked", &LOCKED),
        );
        l.emit("core.queue.batch16_insert_ns", per("batch16", QUEUE.insert));
        l.emit(
            "core.queue.batch16_dequeue_ns",
            per("batch16", QUEUE.remove),
        );
        l.emit(
            "core.queue.sticky16_dequeue_ns",
            per("sticky16", QUEUE.remove),
        );
        let fails = count("core.queue.try_lock_failures");
        l.emit("core.queue.try_lock_failures_pk", pk(fails, twin_ops));
        l.emit(
            "core.queue.cas_retries_pk",
            pk(count("core.queue.cas_retries"), twin_ops),
        );
        l.emit(
            "core.queue.backoff_spins_pk",
            pk(count("core.queue.backoff_spins"), twin_ops),
        );
        l.emit(
            "core.queue.empty_confirms_pk",
            pk(count("core.queue.empty_confirms"), twin_ops),
        );
        l.emit(
            "core.queue.hint_republishes_pk",
            pk(count("core.queue.hint_republishes"), twin_ops),
        );
        l.emit(
            "core.queue.first_try_ratio",
            twin_ops / (twin_ops + fails).max(1.0),
        );
        l.emit(
            "core.queue.rank_proxy_mean",
            queue_ref.quality.summary.map_or(0.0, |s| s.mean),
        );
        let check = t.get("stub", "core.spec.check");
        l.emit("core.spec.check_ns_per_event", check.per_call());
        l.emit("core.spec.history_events", check.calls as f64);

        // Engine loop and backend adapter. The engine's own cost is the
        // null-backend run; what is left of the saturated run is the
        // adapter's execute; beneath that sits the MultiQueue op at two
        // threads, or the bare transaction.
        let worker = t.get("engine", "workload.engine.worker");
        let (top, engine_self) = (run_op_ns(&t, "sat.real"), run_op_ns(&t, "sat.null"));
        let execute = top - engine_self;
        let below = match w.shape {
            Shape::Stm => per("stub", "stm.engine.txn"),
            _ => op_ns("twin2", &QUEUE),
        };
        l.emit("workload.backends.execute_ns", execute);
        l.emit("workload.backends.self_ns", execute - below);
        l.emit("workload.engine.op_ns", worker.per_call());
        l.emit("workload.engine.self_ns", engine_self);
        l.emit(
            "workload.engine.latency_sampling_ns",
            run_op_ns(&t, "var.le1") - run_op_ns(&t, "var.off"),
        );
        let over = |rung: &str| 100.0 * (run_op_ns(&t, rung) / run_op_ns(&t, "var.base") - 1.0);
        l.emit("workload.engine.telemetry_on_pct", over("var.telemetry"));
        l.emit("workload.engine.faults_armed_pct", over("var.faults"));
        l.emit("workload.engine.op_p99_ns", w.latencies(&reference).1);
        l.emit(
            "workload.engine.op_p999_ns",
            reference.latency.p999_ns as f64,
        );
        l.emit(
            "workload.metrics.record_ns",
            per("stub", "workload.metrics.record"),
        );

        // The client driver.
        let (sp_ns, closed_ns) = (run_op_ns(&t, "var.sp1"), run_op_ns(&t, "var.le1"));
        l.emit("workload.clients.self_paced_op_ns", sp_ns);
        l.emit("workload.clients.self_ns", sp_ns - closed_ns);
        l.emit(
            "workload.clients.overhead_pct",
            100.0 * (sp_ns / closed_ns - 1.0),
        );
        let queueing_p50 = |r: &RunReport| {
            r.clients
                .as_ref()
                .map_or(0.0, |c| c.queueing_ns.p50_ns as f64)
        };
        l.emit(
            "workload.clients.self_paced_queueing_p50_ns",
            queueing_p50(&sp1),
        );
        l.emit(
            "workload.clients.self_paced_queueing_p50_ns.every8",
            queueing_p50(&sp8),
        );
        if let Some(c) = &clients_ref.clients {
            l.emit(
                "workload.clients.queueing_p50_ns",
                c.queueing_ns.p50_ns as f64,
            );
            l.emit(
                "workload.clients.queueing_p99_ns",
                c.queueing_ns.p99_ns as f64,
            );
            l.emit(
                "workload.clients.service_p50_ns",
                c.service_ns.p50_ns as f64,
            );
            l.emit("workload.clients.backlog_max", c.backlog_max as f64);
        }
        l.emit(
            "workload.clients.total_p50_ns",
            clients_ref.latency.p50_ns as f64,
        );
        l.emit(
            "workload.clients.total_p99_ns",
            clients_ref.latency.p99_ns as f64,
        );
        l.emit(
            "workload.clients.total_p999_ns",
            clients_ref.latency.p999_ns as f64,
        );
        l.emit(
            "sim.wheel.schedule_pop_ns",
            per("stub", "sim.wheel.schedule_pop"),
        );

        // MultiCounter, the relaxed clock and the TL2 engine.
        l.emit(
            "core.counter.increment_ns",
            per("stub", "core.counter.increment"),
        );
        l.emit("core.counter.read_ns", per("stub", "core.counter.read"));
        l.emit(
            "core.counter.increment_ns.t2",
            per("stub2", "core.counter.increment"),
        );
        l.emit(
            "core.counter.read_dev_mean",
            counter_dev.quality.summary.map_or(0.0, |s| s.mean),
        );
        l.emit(
            "stm.clock.read_version_ns",
            per("stub", "stm.clock.read_version"),
        );
        l.emit(
            "stm.clock.write_version_ns",
            per("stub", "stm.clock.write_version"),
        );
        l.emit("stm.engine.txn_ns", per("stub", "stm.engine.txn"));
        let txns = stm_ref.total_ops() as f64;
        let q = |n: &str| stm_ref.quality.get(n).unwrap_or(0.0);
        l.emit("stm.engine.aborts_pk", pk(q("aborts"), txns));
        l.emit(
            "stm.engine.future_version_pk",
            pk(q("future_version_aborts"), txns),
        );
        l.emit("stm.engine.lock_busy_pk", pk(q("lock_busy_aborts"), txns));
        l.emit(
            "stm.engine.read_validation_pk",
            pk(q("read_validation_aborts"), txns),
        );
        l.emit("stm.exact.throughput_mops", exact.mops());
        l.emit("stm.relaxed_over_exact", stm_ref.mops() / exact.mops());

        // How far the ladder can be trusted: what the decorator costs,
        // whether the span tree adds up, and how far "engine alone +
        // backend alone" is from the two running together.
        l.emit(
            "trace.overhead_pct",
            100.0 * (Summary::of(&traced_ns).median / Summary::of(&plain_ns).median - 1.0),
        );
        l.emit("trace.residual_pct", t.residual_pct());
        let alone = per("exec2", "workload.backends.execute");
        l.emit(
            "trace.ladder_gap_pct",
            100.0 * (alone - execute).abs() / top,
        );
        l.out.notes.push(l.gate.note());
        (l.out, spans)
    }
}
