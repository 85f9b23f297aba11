//! The concurrent driver: turns a [`Scenario`] plus a [`Backend`] into
//! a [`RunReport`].
//!
//! Discipline: sequential prefill, then barrier-released workers that
//! draw operations from the scenario's mix/distributions, execute them
//! against the backend, and record latencies into private metric
//! shards. Fixed-op budgets are fully deterministic given the seed;
//! timed budgets run against a stop flag.
//!
//! Two drivers share that skeleton. The plain closed loop
//! (`clients == 0`) issues ops back-to-back with no pacing clock.
//! Simulated-client scenarios (`clients > 0`) run through the
//! timer-wheel client driver ([`clients`](crate::clients)): arrivals
//! are scheduled at seeded *intended* times, latency is measured from
//! the intended time (never from op issue, so queueing delay is
//! captured rather than hidden — no coordinated omission), and the
//! queueing/service split is recorded per worker.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use dlz_core::rng::{Rng64, Xoshiro256};

use crate::backend::{Backend, Worker, WorkerCfg};
use crate::clients::{ArrivalShape, ClientReport, ClientSet, ClientStats};
use crate::dist::Sampler;
use crate::faults::WorkerFaults;
use crate::metrics::{IntervalSnapshot, LatencySummary, TelemetrySeries, WorkerMetrics};
use crate::op::{Op, OpCounts, OpKind, OpMix};
use crate::report::{skeleton, FaultReport, RunReport, WorkerOutcome};
use crate::scenario::{Budget, Scenario};
use crate::sweep::{SweepCell, SweepSpec};

/// Distinct, reproducible seed for worker `worker`'s stream `stream`.
fn stream_seed(base: u64, worker: usize, stream: u64) -> u64 {
    base ^ (worker as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
        ^ (stream + 1).wrapping_mul(0xbf58476d1ce4e5b9)
}

/// Per-worker operation drawing state.
struct OpSampler {
    mix: OpMix,
    mix_total: u64,
    keys: Sampler,
    priorities: Sampler,
    weights: Sampler,
    rng: Xoshiro256,
}

impl OpSampler {
    fn new(scenario: &Scenario, worker: usize) -> Self {
        // `threads + 1` streams: the prefill worker (id == threads) gets
        // its own residue class, so `Dist::Monotonic` stays globally
        // unique across prefill and measured workers.
        let streams = scenario.threads + 1;
        OpSampler {
            mix: scenario.mix,
            mix_total: scenario.mix.total() as u64,
            keys: scenario.keys.sampler(worker, streams),
            priorities: scenario.priorities.sampler(worker, streams),
            weights: scenario.weights.sampler(worker, streams),
            rng: Xoshiro256::new(stream_seed(scenario.seed, worker, 1)),
        }
    }

    #[inline]
    fn draw(&mut self) -> Op {
        let kind = self.mix.pick(self.rng.bounded(self.mix_total) as u32);
        self.draw_kind(kind)
    }

    /// Draws an op of a forced kind (prefill uses `Update`).
    #[inline]
    fn draw_kind(&mut self, kind: OpKind) -> Op {
        let key = self.keys.draw(&mut self.rng);
        let (priority, weight) = if kind == OpKind::Update {
            (
                self.priorities.draw(&mut self.rng),
                self.weights.draw(&mut self.rng).max(1),
            )
        } else {
            (0, 1)
        };
        Op {
            kind,
            key,
            priority,
            weight,
        }
    }
}

#[inline]
fn budget_done(budget: &Budget, issued: u64, stop: &AtomicBool) -> bool {
    match budget {
        Budget::OpsPerWorker(n) => issued >= *n,
        Budget::Timed(_) => stop.load(Ordering::Relaxed),
    }
}

/// Nanoseconds since `begin`: the client driver's clock. One
/// conversion per reading; everything downstream is `u64` arithmetic.
#[inline]
fn ns_since(begin: Instant) -> u64 {
    begin.elapsed().as_nanos() as u64
}

/// Waits until `deadline_ns` after `begin`; returns the clock reading
/// that crossed it, or `None` if the stop flag fired first (timed
/// budgets only — fixed-op budgets always complete their ops). A
/// stoppable wait naps in steps of at most 1 ms, so a far-off arrival
/// cannot carry the worker past the end of a timed budget.
fn wait_until(begin: Instant, deadline_ns: u64, stop: &AtomicBool, stoppable: bool) -> Option<u64> {
    const MS: u64 = 1_000_000;
    loop {
        let now = ns_since(begin);
        if now >= deadline_ns {
            return Some(now);
        }
        if stoppable && stop.load(Ordering::Relaxed) {
            return None;
        }
        let remaining = deadline_ns - now;
        if remaining > MS {
            // Wake half a millisecond early and spin the rest.
            let nap = remaining - MS / 2;
            let nap = if stoppable { nap.min(MS) } else { nap };
            std::thread::sleep(Duration::from_nanos(nap));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[inline]
fn step(
    worker: &mut dyn Worker,
    sampler: &mut OpSampler,
    metrics: &mut WorkerMetrics,
    timed: bool,
) {
    let op = sampler.draw();
    if !timed {
        // Latency-sampling mode: count the op, skip the clock reads.
        let completed = worker.execute(&op);
        metrics.record_untimed(op.kind, completed);
        return;
    }
    let t0 = Instant::now();
    let completed = worker.execute(&op);
    let end = Instant::now();
    metrics.record(op.kind, completed, end.saturating_duration_since(t0));
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's chaos state, present only when the scenario arms a
/// [`FaultPlan`](crate::faults::FaultPlan): its compiled faults, the
/// watchdog's abort flag, and its progress counter the watchdog reads.
struct Chaos<'a> {
    faults: WorkerFaults,
    abort: &'a AtomicBool,
    progress: &'a AtomicU64,
}

/// Runs the worker's faults for op `issued` and publishes progress.
/// Returns `false` when the run was aborted and the worker must stop.
/// With no chaos armed this is one untaken branch per op.
#[inline]
fn chaos_gate(chaos: &mut Option<Chaos<'_>>, issued: u64) -> bool {
    match chaos.as_mut() {
        None => true,
        Some(c) => {
            if !c.faults.before_op(issued, c.abort) {
                return false;
            }
            c.progress.fetch_add(1, Ordering::Relaxed);
            true
        }
    }
}

/// How many ops between clock reads when checking for a telemetry
/// interval boundary: the boundary detector costs one countdown
/// decrement per op, and one `Instant::now()` per this many ops.
const TELEMETRY_CHECK_EVERY: u32 = 32;

/// Per-worker telemetry interval tracker: accumulates the current
/// interval's delta in the worker's [`WorkerMetrics`] shard and flushes
/// it (plus the worker's drained contention sample) into a snapshot
/// ring at each boundary.
struct IntervalTracker<'m> {
    interval: Duration,
    start: Instant,
    /// Next interval boundary to flush at.
    next: Instant,
    countdown: u32,
    snaps: Vec<IntervalSnapshot>,
    /// Engine-owned slot mirroring the most recent flushed snapshot, so
    /// the coordinator can still describe a worker whose thread died
    /// before handing its snapshots back. Written only at interval
    /// boundaries — nothing on the op hot path.
    mirror: Option<&'m Mutex<Option<IntervalSnapshot>>>,
}

impl<'m> IntervalTracker<'m> {
    fn new(interval: Duration, mirror: Option<&'m Mutex<Option<IntervalSnapshot>>>) -> Self {
        let start = Instant::now();
        IntervalTracker {
            interval,
            start,
            next: start + interval,
            countdown: TELEMETRY_CHECK_EVERY,
            snaps: Vec::new(),
            mirror,
        }
    }

    /// Called once per completed op. Cheap path: one decrement; every
    /// `TELEMETRY_CHECK_EVERY` ops, one clock read and a boundary test.
    /// Returns `true` when it took the slow path, i.e. measurable time
    /// has passed since the caller's last clock reading.
    #[inline]
    fn tick(&mut self, cur: &mut WorkerMetrics, worker: &mut dyn Worker) -> bool {
        self.countdown -= 1;
        if self.countdown != 0 {
            return false;
        }
        self.countdown = TELEMETRY_CHECK_EVERY;
        let now = Instant::now();
        if now < self.next {
            return true;
        }
        // Catch up to the most recent passed boundary: a stalled worker
        // emits one snapshot covering every interval it slept through,
        // indexed by the last complete interval.
        let mut boundary = self.next;
        while boundary + self.interval <= now {
            boundary += self.interval;
        }
        self.next = boundary + self.interval;
        let end = boundary.duration_since(self.start);
        let index = (end.as_nanos() / self.interval.as_nanos().max(1)) as u64 - 1;
        self.flush(index, end, cur, worker);
        true
    }

    /// Moves the accumulated delta plus the worker's drained telemetry
    /// into the ring as interval `index`.
    fn flush(
        &mut self,
        index: u64,
        end: Duration,
        cur: &mut WorkerMetrics,
        worker: &mut dyn Worker,
    ) {
        let m = std::mem::take(cur);
        let sample = worker.telemetry_sample().unwrap_or_default();
        let snap = IntervalSnapshot {
            index,
            end_ms: end.as_millis() as u64,
            counts: m.counts,
            latency: m.latency,
            contention: sample.contention,
        };
        if let Some(slot) = self.mirror {
            *slot.lock().expect("snapshot mirror") = Some(snap.clone());
        }
        self.snaps.push(snap);
    }

    /// Final flush: the trailing (possibly partial) interval, indexed
    /// past every complete one so it never collides.
    fn finish(mut self, cur: &mut WorkerMetrics, worker: &mut dyn Worker) -> Vec<IntervalSnapshot> {
        let elapsed = Instant::now().duration_since(self.start);
        let index = (elapsed.as_nanos() / self.interval.as_nanos().max(1)) as u64;
        self.flush(index, elapsed, cur, worker);
        // Drop trailing empties (a worker that finished mid-interval
        // leaves one vacuous tail snapshot).
        while self.snaps.last().is_some_and(|s| s.is_empty()) {
            self.snaps.pop();
        }
        self.snaps
    }
}

/// The client-driven op loop, in two alternating phases.
///
/// *Admit* takes every arrival that is already due off the worker's
/// shard of the population — intended at or before the last clock
/// reading; always at least one, so a paced worker admits the arrival
/// it then waits for — and draws its op. Open-loop clients are
/// rescheduled as they are admitted (see [`ClientSet::admit`]), so the
/// arrival schedule and its digest do not depend on the run length.
///
/// *Issue* then runs the admitted ops back to back, each as chaos gate
/// → op → clock read → record → tick: the closed loop's per-op order,
/// so fault arithmetic and watchdog semantics carry over unchanged.
/// Latency is split at three stamps per timed op — intended, issue,
/// completion — with the total (intended → completion) feeding the main
/// histogram. An op's issue stamp is the previous op's completion stamp
/// whenever only histogram recording ran between the two; otherwise it
/// is a fresh reading from the pacing wait. A saturated worker so pays
/// one clock read per timed op; a paced one, whose every arrival is a
/// run of one, pays the wait plus the completion read as before.
#[allow(clippy::too_many_arguments)]
fn drive_clients(
    worker: &mut dyn Worker,
    sampler: &mut OpSampler,
    scenario: &Scenario,
    stop: &AtomicBool,
    chaos: &mut Option<Chaos<'_>>,
    metrics: &mut WorkerMetrics,
    tracker: &mut Option<IntervalTracker<'_>>,
    id: usize,
    begin: Instant,
    cstats: &mut ClientStats,
) {
    /// Most arrivals admitted before any is issued. Bounded so that a
    /// fixed-op budget is met exactly, a stop flag is honoured and a
    /// dying worker strands admitted arrivals all within this many ops;
    /// a longer run would save nothing, the one fresh clock read a run
    /// costs being spread over 32 ops already.
    const RUN: usize = 32;
    // Backlog sampling sweeps the wheel's slot lengths — keep it off
    // the per-op path.
    const BACKLOG_EVERY: u64 = 1024;
    let (total, shape) = (scenario.clients, scenario.arrival_shape);
    let mut set = ClientSet::new(shape, total, id, scenario.threads, scenario.seed, cstats);
    let budget = &scenario.budget;
    let stoppable = matches!(budget, Budget::Timed(_));
    let mix_total = scenario.mix.total() as u64;
    let latency_every = scenario.latency_every.max(1) as u64;
    let self_paced = shape == ArrivalShape::SelfPaced;
    // A completion stamp can stand in for the next issue stamp only if
    // nothing that takes time sits between the two ops: armed faults
    // may sleep in the gate, and a self-paced client is rescheduled
    // there.
    let chains = chaos.is_none() && !self_paced;
    let mut run: Vec<(u64, u32, Op)> = Vec::with_capacity(RUN);
    let mut issued = 0u64;
    // The last clock reading, ns since `begin`: a monotone lower bound
    // on "now", so an arrival intended at or before it is provably due.
    let mut now = 0u64;
    while !budget_done(budget, issued, stop) {
        let room = match budget {
            Budget::OpsPerWorker(n) => (n - issued).min(RUN as u64) as usize,
            Budget::Timed(_) => RUN,
        };
        run.clear();
        while run.len() < room && (run.is_empty() || set.next_is_due(now)) {
            let Some((at_ns, client, kind)) = set.admit(mix_total, cstats) else {
                return; // a worker with an empty client shard has no work
            };
            let op = sampler.draw_kind(scenario.mix.pick(kind));
            run.push((at_ns, client, op));
        }
        // `now` was read before the admit phase ran.
        let mut stamped = false;
        for &(at_ns, client, op) in &run {
            if !chaos_gate(chaos, issued) {
                return;
            }
            let timed = issued.is_multiple_of(latency_every);
            // Exact on timed ops (the previous completion stamp, or a
            // fresh read); on untimed ones possibly a hair early, as in
            // the closed loop's sampling mode, which reads no clock.
            let issue = if at_ns <= now && (stamped || !timed) {
                now
            } else {
                match wait_until(begin, at_ns, stop, stoppable) {
                    Some(t) => t,
                    None => return,
                }
            };
            now = issue;
            set.note_issued(client, cstats);
            let completed = worker.execute(&op);
            // From here on `stamped` says that `now` is this op's
            // completion stamp and nothing slow has run since.
            stamped = timed && chains;
            if timed {
                let end = ns_since(begin);
                now = end;
                // A self-paced client intends its arrival at the
                // instant its op is issued, so its queueing delay is
                // zero by construction. Its wheel timestamp only orders
                // the population: under `latency_every > 1` that is a
                // completion time as of the last timed op, not a moment
                // anyone meant to arrive at.
                let intended = if self_paced { issue } else { at_ns };
                // Total latency from the *intended* arrival — queueing
                // delay is part of the number, not silently omitted.
                metrics.record_ns(op.kind, completed, end - intended);
                cstats.queueing.record(issue - intended);
                cstats.service.record(end - issue);
            } else {
                // Latency-sampling mode (same convention as the closed
                // loop): count the op, skip the completion clock read.
                metrics.record_untimed(op.kind, completed);
            }
            issued += 1;
            if let Some(t) = tracker.as_mut() {
                stamped &= !t.tick(metrics, worker);
            }
            if self_paced {
                set.schedule(client, now, cstats);
            }
            if issued.is_multiple_of(BACKLOG_EVERY) {
                cstats.backlog_max = cstats.backlog_max.max(set.backlog(now));
                stamped = false;
            }
        }
    }
}

/// The worker's op loop. `metrics`, `tracker` and `cstats` are owned by
/// the caller, which runs this inside a panic-tolerant harness: whatever
/// accumulated before an injected (or genuine) panic survives and is
/// salvaged into the report.
#[allow(clippy::too_many_arguments)]
fn drive(
    worker: &mut dyn Worker,
    sampler: &mut OpSampler,
    scenario: &Scenario,
    stop: &AtomicBool,
    chaos: &mut Option<Chaos<'_>>,
    metrics: &mut WorkerMetrics,
    tracker: &mut Option<IntervalTracker<'_>>,
    id: usize,
    begin: Instant,
    cstats: &mut Option<ClientStats>,
) {
    if scenario.clients > 0 {
        let stats = cstats.get_or_insert_with(ClientStats::default);
        drive_clients(
            worker, sampler, scenario, stop, chaos, metrics, tracker, id, begin, stats,
        );
        return;
    }
    // The plain closed loop: self-paced ops, no wheel, and (in
    // latency-sampling mode) no per-op clock reads.
    let mut issued = 0u64;
    let budget = &scenario.budget;
    let latency_every = scenario.latency_every.max(1) as u64;
    while !budget_done(budget, issued, stop) {
        if !chaos_gate(chaos, issued) {
            return;
        }
        let timed = issued.is_multiple_of(latency_every);
        step(worker, sampler, metrics, timed);
        issued += 1;
        if let Some(t) = tracker.as_mut() {
            t.tick(metrics, worker);
        }
    }
}

/// Runs `scenario` against `backend` and returns the full report.
///
/// When the scenario sets an [`export`](Scenario::export) directory and
/// the backend recorded a stamped history, the history is serialized as
/// a policy-tagged [`HistoryArtifact`](dlz_core::spec::HistoryArtifact)
/// under `<export>/<scenario-name>/<backend>.histjsonl` (sweep runs key
/// by cell name instead — see [`run_sweep`]).
///
/// Export failures do not abort the run: they are printed as warnings
/// and recorded in [`RunReport::export_errors`], so a long sweep never
/// loses its measured results to a full disk.
///
/// # Panics
/// If the scenario's family does not match the backend's.
pub fn run(scenario: &Scenario, backend: &dyn Backend) -> RunReport {
    run_cell(scenario, backend, None)
}

/// One run, tagged with its sweep cell (when any) and exported (when
/// asked): the shared tail of [`run`], [`run_sweep`] and
/// [`run_sweep_shared`].
fn run_cell(scenario: &Scenario, backend: &dyn Backend, cell: Option<&SweepCell>) -> RunReport {
    let mut report = run_inner(scenario, backend);
    if let Some(cell) = cell {
        report.cell = Some(cell.name.clone());
        report.grid = cell.coords.clone();
    }
    if let Some(dir) = &scenario.export {
        // Degrade export failures to warnings: the measurements are
        // already in hand, and one bad path must not destroy a sweep.
        if let Err(e) = export_history(dir, scenario, backend, &report) {
            eprintln!("warning: {e}");
            report.export_errors.push(e);
        }
    }
    report
}

/// Serializes the backend's recorded history (if any) as one artifact
/// keyed by the run's cell name (scenario name outside sweeps) and
/// backend label: `<dir>/<cell>/<backend>.histjsonl`. Cell names embed
/// their grid coordinates as path segments, so a whole sweep becomes a
/// grid-indexed directory tree.
fn export_history(
    dir: &Path,
    scenario: &Scenario,
    backend: &dyn Backend,
    report: &RunReport,
) -> Result<(), String> {
    let Some(mut artifact) = backend.take_history_artifact() else {
        return Ok(());
    };
    artifact.threads = scenario.threads;
    artifact.source = Some(report.backend.clone());
    artifact.cell = report.cell.clone();
    artifact.grid = report.grid.clone();
    let key = report.cell.as_deref().unwrap_or(&report.scenario);
    let path = dir.join(key).join(format!("{}.histjsonl", report.backend));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("create history-export dir {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, artifact.to_json_lines())
        .map_err(|e| format!("write history artifact {}: {e}", path.display()))
}

/// The measured run itself (no tagging, no export).
fn run_inner(scenario: &Scenario, backend: &dyn Backend) -> RunReport {
    assert_eq!(
        scenario.family,
        backend.family(),
        "scenario '{}' targets {:?}, backend '{}' is {:?}",
        scenario.name,
        scenario.family,
        backend.name(),
        backend.family()
    );
    let threads = scenario.threads;
    let mut report = skeleton(scenario, backend.name());

    // Sequential prefill (worker id `threads`: a stream distinct from
    // every measured worker; recorded into the stamped history when the
    // scenario uses one, so the checker sees a complete history).
    let mut prefill_counts = OpCounts::default();
    if scenario.prefill > 0 {
        let cfg = WorkerCfg {
            id: threads,
            threads,
            seed: stream_seed(scenario.seed, threads, 0),
            record_history: scenario.record_history,
            quality_every: 0,
        };
        let mut worker = backend.worker(cfg);
        let mut sampler = OpSampler::new(scenario, threads);
        for _ in 0..scenario.prefill {
            worker.execute(&sampler.draw_kind(OpKind::Update));
        }
        worker.finish();
        prefill_counts.prefill = scenario.prefill;
    }

    let chaos_armed = scenario.faults.is_some();
    let stop = AtomicBool::new(false);
    // Chaos runs add the watchdog as a barrier party so its first
    // observation window cannot start before the workers do.
    let barrier = Barrier::new(threads + 1 + usize::from(chaos_armed));
    // Chaos plumbing: watchdog abort flag, per-worker progress counters
    // and done flags (bumped only when faults are armed), the watchdog's
    // per-worker diagnoses, and a mirror of each worker's most recent
    // telemetry snapshot (for naming dead threads).
    let abort = AtomicBool::new(false);
    let progress: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let finished: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
    let stalled: Mutex<BTreeMap<usize, String>> = Mutex::new(BTreeMap::new());
    let last_flush: Vec<Mutex<Option<IntervalSnapshot>>> =
        (0..threads).map(|_| Mutex::new(None)).collect();
    let watchdog_done = AtomicBool::new(false);

    let (mut merged, telemetry, client_stats, elapsed, outcomes) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|id| {
                let cfg = WorkerCfg {
                    id,
                    threads,
                    seed: stream_seed(scenario.seed, id, 0),
                    record_history: scenario.record_history,
                    quality_every: scenario.quality_every,
                };
                let mut worker = backend.worker(cfg);
                let mut sampler = OpSampler::new(scenario, id);
                let mut chaos = scenario.faults.as_ref().map(|plan| Chaos {
                    faults: plan.compile(id, stream_seed(scenario.seed, id, 2)),
                    abort: &abort,
                    progress: &progress[id],
                });
                let stop = &stop;
                let barrier = &barrier;
                let finished = &finished[id];
                let mirror = &last_flush[id];
                s.spawn(move || {
                    barrier.wait();
                    let begin = Instant::now();
                    let mut metrics = WorkerMetrics::default();
                    let mut cstats: Option<ClientStats> = None;
                    let mut tracker = scenario
                        .telemetry_interval
                        .map(|i| IntervalTracker::new(i, Some(mirror)));
                    // The harness: a worker panic (injected or genuine)
                    // ends this worker only; metrics, telemetry and
                    // client stats accumulated so far survive in the
                    // outer locals.
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        drive(
                            worker.as_mut(),
                            &mut sampler,
                            scenario,
                            stop,
                            &mut chaos,
                            &mut metrics,
                            &mut tracker,
                            id,
                            begin,
                            &mut cstats,
                        )
                    }));
                    let end = Instant::now();
                    finished.store(true, Ordering::Release);
                    let outcome = match caught {
                        Ok(()) => WorkerOutcome::Completed,
                        Err(payload) => WorkerOutcome::Panicked(panic_message(payload.as_ref())),
                    };
                    // Flush the trailing (possibly partial) interval and
                    // reconstitute the totals from the snapshots —
                    // conservation by construction, also for workers
                    // that died mid-run.
                    let snaps = match tracker {
                        None => Vec::new(),
                        Some(t) => {
                            let snaps = t.finish(&mut metrics, worker.as_mut());
                            let mut total = WorkerMetrics::default();
                            for s in &snaps {
                                total.counts.merge(&s.counts);
                                total.latency.merge(&s.latency);
                            }
                            metrics = total;
                            snaps
                        }
                    };
                    if matches!(outcome, WorkerOutcome::Completed) {
                        worker.finish();
                    }
                    // Panicked workers skip finish(): every backend hands
                    // what conservation and the verdict depend on
                    // (buffered ops, applied weight, history log,
                    // quality samples) back when its worker is dropped.
                    drop(worker);
                    (outcome, metrics, snaps, cstats, begin, end)
                })
            })
            .collect();
        // The no-progress watchdog: armed only for chaos runs, sampling
        // at the telemetry interval. Two consecutive observations of an
        // unfinished worker with an unchanged op counter convert a hang
        // into a diagnosed abort.
        let watchdog = chaos_armed.then(|| {
            let interval = scenario
                .telemetry_interval
                .unwrap_or(Duration::from_millis(100));
            let (abort, progress, finished) = (&abort, &progress, &finished);
            let (stalled, done, barrier) = (&stalled, &watchdog_done, &barrier);
            s.spawn(move || {
                barrier.wait();
                let mut last = vec![0u64; progress.len()];
                let mut strikes = vec![0u32; progress.len()];
                loop {
                    std::thread::sleep(interval);
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    for (id, p) in progress.iter().enumerate() {
                        if finished[id].load(Ordering::Acquire) {
                            strikes[id] = 0;
                            continue;
                        }
                        let now = p.load(Ordering::Relaxed);
                        if now == last[id] {
                            strikes[id] += 1;
                        } else {
                            strikes[id] = 0;
                            last[id] = now;
                        }
                        if strikes[id] >= 2 {
                            stalled
                                .lock()
                                .expect("stalled diagnoses")
                                .entry(id)
                                .or_insert_with(|| {
                                    format!(
                                        "watchdog: worker {id} made no progress for 2 \
                                         consecutive {interval:?} intervals (stuck after \
                                         {now} ops)"
                                    )
                                });
                            abort.store(true, Ordering::Release);
                        }
                    }
                }
            })
        });
        barrier.wait();
        if let Budget::Timed(d) = scenario.budget {
            std::thread::sleep(d);
            stop.store(true, Ordering::Release);
        }
        // Elapsed is the workers' own span (earliest begin to latest
        // end): the coordinator may be descheduled right after the
        // barrier, so its clock would under-measure short fixed-op runs.
        let mut merged = WorkerMetrics::default();
        let mut telemetry = scenario
            .telemetry_interval
            .map(|i| TelemetrySeries::new(i.as_millis().max(1) as u64));
        let mut client_stats: Option<ClientStats> = None;
        let mut begin: Option<Instant> = None;
        let mut end: Option<Instant> = None;
        let mut outcomes: Vec<WorkerOutcome> = Vec::with_capacity(threads);
        for (id, h) in handles.into_iter().enumerate() {
            let (outcome, metrics, snaps, cstats, b, e) = h.join().unwrap_or_else(|payload| {
                // The in-thread harness catches drive panics, so a dead
                // thread means the worker escaped it in finish()/Drop —
                // an engine invariant breach. Name the worker and its
                // last telemetry snapshot instead of the old opaque
                // `expect("worker thread")`.
                let snap = match last_flush[id].lock().expect("snapshot mirror").take() {
                    Some(s) => format!(
                        "last telemetry snapshot: interval {} ended at {}ms after {} ops",
                        s.index,
                        s.end_ms,
                        s.counts.completed()
                    ),
                    None => "no telemetry snapshot observed".to_string(),
                };
                panic!(
                    "worker {id} thread died outside the panic-tolerant harness: {}; {snap}",
                    panic_message(payload.as_ref())
                );
            });
            merged.merge(&metrics);
            if let Some(series) = telemetry.as_mut() {
                series.merge_worker(&snaps);
            }
            if let Some(cs) = cstats {
                // Workers join in id order, so the folded digest is
                // deterministic.
                client_stats
                    .get_or_insert_with(ClientStats::default)
                    .merge(&cs);
            }
            begin = Some(begin.map_or(b, |x| x.min(b)));
            end = Some(end.map_or(e, |x| x.max(e)));
            outcomes.push(outcome);
        }
        if let Some(h) = watchdog {
            watchdog_done.store(true, Ordering::Release);
            h.join().expect("watchdog thread");
        }
        let elapsed = match (begin, end) {
            (Some(b), Some(e)) => e.saturating_duration_since(b),
            _ => Duration::ZERO,
        };
        (merged, telemetry, client_stats, elapsed, outcomes)
    });
    merged.counts.merge(&prefill_counts);

    report.faults = scenario.faults.as_ref().map(|plan| {
        let mut workers = outcomes;
        // A worker the watchdog diagnosed exits its loop cleanly once
        // the abort flag lands, so its thread-level outcome reads
        // Completed; the diagnosis wins.
        for (id, diag) in stalled.lock().expect("stalled diagnoses").iter() {
            if matches!(workers[*id], WorkerOutcome::Completed) {
                workers[*id] = WorkerOutcome::Stalled(diag.clone());
            }
        }
        FaultReport {
            plan: plan.spec().to_string(),
            aborted: abort.load(Ordering::Acquire),
            workers,
        }
    });
    report.clients = client_stats
        .as_ref()
        .map(|cs| ClientReport::from_stats(scenario.clients as u64, &scenario.arrival_shape, cs));
    report.telemetry = telemetry;
    report.elapsed = elapsed;
    report.counts = merged.counts;
    report.latency = LatencySummary::from(&merged.latency);
    report.residual = backend.residual();
    report.verify_error = backend.verify(&merged.counts).err();
    report.quality = backend.quality();
    report
}

/// Runs every cell of a sweep grid and returns one report per
/// (cell × backend), each tagged with its cell name and grid
/// coordinates (see [`RunReport::cell`] / [`RunReport::grid`]).
///
/// `backends_for` is the backend factory, invoked **once per cell**
/// with the concrete cell (its scenario carries the cell's thread
/// count, policy, skew, …); every backend it returns is run against
/// that cell's scenario, in order. Returning an empty vector skips the
/// cell. Cells execute sequentially in the deterministic
/// [`SweepSpec::cells`] order, so a fixed-seed grid reproduces its
/// per-cell op counts exactly.
pub fn run_sweep(
    spec: &SweepSpec,
    mut backends_for: impl FnMut(&SweepCell) -> Vec<Box<dyn Backend>>,
) -> Vec<RunReport> {
    let mut reports = Vec::new();
    for cell in spec.cells() {
        for backend in backends_for(&cell) {
            reports.push(run_cell(&cell.scenario, backend.as_ref(), Some(&cell)));
        }
    }
    reports
}

/// Runs every cell of a sweep grid against **one shared backend
/// instance**, which accumulates state across cells — the
/// checkpoint-sequence pattern (e.g. Figure 1(b)'s quality-vs-total
/// increments curve uses a `seeds` axis over one MultiCounter).
/// Returns one tagged report per cell, in grid order.
pub fn run_sweep_shared(spec: &SweepSpec, backend: &dyn Backend) -> Vec<RunReport> {
    spec.cells()
        .iter()
        .map(|cell| run_cell(&cell.scenario, backend, Some(cell)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{ConcurrentPqBackend, CounterBackend, MultiQueueBackend, StmBackend};
    use crate::dist::Dist;
    use crate::scenario::Family;
    use dlz_core::DeleteMode;

    fn small(name: &str, family: Family) -> crate::scenario::ScenarioBuilder {
        Scenario::builder(name, family)
            .threads(2)
            .budget(Budget::OpsPerWorker(2_000))
            .seed(0xfeed)
    }

    #[test]
    fn counter_run_balances_and_reports() {
        let s = small("t-counter", Family::Counter)
            .mix(OpMix::new(80, 0, 20))
            .build();
        let b = CounterBackend::multicounter(16);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        assert_eq!(r.total_ops(), 4_000);
        assert_eq!(r.counts.updates + r.counts.reads, 4_000);
        assert!(r.latency.p99_ns >= r.latency.p50_ns);
        assert!(r.mops() > 0.0);
    }

    #[test]
    fn queue_run_conserves_items() {
        let s = small("t-queue", Family::Queue)
            .mix(OpMix::new(50, 50, 0))
            .prefill(500)
            .build();
        let b = MultiQueueBackend::heap(8, DeleteMode::Strict);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        assert_eq!(r.counts.prefill, 500);
        assert_eq!(
            r.counts.inserted(),
            r.counts.removes + r.residual,
            "items lost"
        );
    }

    #[test]
    fn exact_pq_run_conserves() {
        let s = small("t-pq", Family::Queue)
            .mix(OpMix::new(60, 40, 0))
            .prefill(100)
            .build();
        let b = ConcurrentPqBackend::coarse();
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
    }

    #[test]
    fn stm_run_verifies_safety() {
        let s = small("t-stm", Family::Stm)
            .mix(OpMix::new(80, 0, 20))
            .keys(Dist::Uniform { n: 512 })
            .build();
        let b = StmBackend::exact(512);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        assert_eq!(r.quality.metric, "abort_rate");
    }

    #[test]
    fn open_loop_records_scheduled_latency() {
        let s = small("t-open", Family::Counter)
            .mix(OpMix::new(100, 0, 0))
            .budget(Budget::OpsPerWorker(200))
            .clients(2)
            .arrival_shape(ArrivalShape::Poisson { rate: 20_000.0 })
            .build();
        let b = CounterBackend::exact();
        let r = run(&s, &b);
        assert!(r.verified());
        assert_eq!(r.total_ops(), 400);
        // At 20k/s mean gap is 50µs; elapsed must reflect pacing.
        assert!(r.elapsed >= Duration::from_millis(2), "{:?}", r.elapsed);
    }

    #[test]
    fn bursty_arrivals_complete_budget() {
        let s = small("t-burst", Family::Queue)
            .mix(OpMix::new(50, 50, 0))
            .budget(Budget::OpsPerWorker(1_000))
            .clients(2)
            // 64-op bursts, 200 µs apart.
            .arrival_shape(ArrivalShape::Bursty {
                rate: 320_000.0,
                burst: 64,
            })
            .prefill(200)
            .build();
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        let attempts =
            r.counts.updates + r.counts.removes + r.counts.removes_empty + r.counts.reads;
        assert_eq!(attempts, 2_000);
    }

    #[test]
    fn overloaded_open_rate_reports_queueing_delay() {
        // Regression for the coordinated-omission fix: at an absurd
        // open rate every op's *intended* arrival is ~t=0, so op i's
        // latency is ~its completion offset and the mean must be on the
        // order of half the run — not the per-op service time the old
        // issue-time accounting reported.
        let s = small("t-open-overload", Family::Counter)
            .mix(OpMix::new(100, 0, 0))
            .budget(Budget::OpsPerWorker(5_000))
            .clients(2)
            .arrival_shape(ArrivalShape::Poisson { rate: 1e9 })
            .build();
        let r = run(&s, &CounterBackend::exact());
        assert!(r.verified());
        assert_eq!(r.total_ops(), 10_000);
        let elapsed_ns = r.elapsed.as_nanos() as f64;
        assert!(
            r.latency.mean_ns >= elapsed_ns / 8.0,
            "mean {} ns vs elapsed {} ns: queueing delay went missing",
            r.latency.mean_ns,
            elapsed_ns
        );
        // One client per worker; the report names the arrival process.
        assert_eq!(r.clients.as_ref().expect("clients section").active, 2);
        assert!(r
            .to_json()
            .contains("\"arrival\":\"poisson(1000000000/s)\""));
    }

    #[test]
    fn bursty_latency_is_measured_from_burst_start() {
        // One burst covers the whole budget: every op shares the burst's
        // intended instant, so latencies ramp with queue position and
        // the mean lands around half the busy span.
        let s = small("t-burst-intent", Family::Queue)
            .mix(OpMix::new(50, 50, 0))
            .budget(Budget::OpsPerWorker(4_000))
            .clients(2)
            .arrival_shape(ArrivalShape::Bursty {
                rate: 81_920_000.0,
                burst: 4_096,
            })
            .prefill(2_000)
            .build();
        let r = run(&s, &MultiQueueBackend::heap(4, DeleteMode::Strict));
        assert!(r.verified(), "{:?}", r.verify_error);
        let attempts =
            r.counts.updates + r.counts.removes + r.counts.removes_empty + r.counts.reads;
        assert_eq!(attempts, 8_000);
        let elapsed_ns = r.elapsed.as_nanos() as f64;
        assert!(
            r.latency.mean_ns >= elapsed_ns / 8.0,
            "mean {} ns vs elapsed {} ns: burst queueing went missing",
            r.latency.mean_ns,
            elapsed_ns
        );
    }

    #[test]
    fn client_runs_are_deterministic_with_identical_digests() {
        let build = || {
            small("t-clients-det", Family::Queue)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(3_000))
                .clients(10_000)
                .arrival_shape(ArrivalShape::Poisson { rate: 500.0 })
                .prefill(500)
                .build()
        };
        let r1 = run(&build(), &MultiQueueBackend::heap(4, DeleteMode::Strict));
        let r2 = run(&build(), &MultiQueueBackend::heap(4, DeleteMode::Strict));
        for r in [&r1, &r2] {
            assert!(r.verified(), "{:?}", r.verify_error);
            assert_eq!(r.total_ops() + r.counts.removes_empty, 6_000);
        }
        // Same seed + same population → bit-identical arrival schedules
        // and per-run op counts.
        assert_eq!(r1.counts.updates, r2.counts.updates);
        assert_eq!(
            r1.counts.removes + r1.residual,
            r2.counts.removes + r2.residual
        );
        let (c1, c2) = (
            r1.clients.as_ref().expect("clients section"),
            r2.clients.as_ref().expect("clients section"),
        );
        assert_eq!(c1.arrival_digest, c2.arrival_digest);
        assert_eq!(c1.arrivals, c2.arrivals);
        assert_eq!(c1.active, c2.active);
        assert_eq!(c1.arrivals, 6_000, "one arrival per issued op");
        assert!(c1.active > 0 && c1.active <= 10_000);
        assert_eq!(c1.clients, 10_000);
        assert_eq!(c1.shape, "poisson(500/s)");
        // The queueing/service split made it into the JSON.
        let j = r1.to_json();
        assert!(j.contains("\"clients\":{"), "{j}");
        assert!(j.contains("\"queueing_ns\":{"), "{j}");
        assert!(j.contains("\"service_ns\":{"), "{j}");
        assert!(c1.service_ns.max_ns > 0, "service latencies recorded");
    }

    #[test]
    fn self_paced_clients_generalize_the_closed_loop() {
        for latency_every in [1, 8] {
            let s = small("t-clients-selfpaced", Family::Queue)
                .mix(OpMix::new(50, 50, 0))
                .clients(2)
                .arrival_shape(ArrivalShape::SelfPaced)
                .latency_every(latency_every)
                .prefill(200)
                .build();
            let r = run(&s, &MultiQueueBackend::heap(4, DeleteMode::Strict));
            assert!(r.verified(), "{:?}", r.verify_error);
            let attempts =
                r.counts.updates + r.counts.removes + r.counts.removes_empty + r.counts.reads;
            assert_eq!(attempts, 4_000, "full budget through the client driver");
            let c = r.clients.as_ref().expect("clients section");
            assert_eq!(c.active, 2, "one self-paced client per worker");
            // The closed loop has no queue to wait in: every timed op
            // was issued at its intended instant, whatever the cadence
            // of the clock reads (the histogram's max is exact).
            assert_eq!(c.queueing_ns.max_ns, 0, "latency_every = {latency_every}");
            assert!(c.service_ns.max_ns > 0, "timed ops were recorded");
        }
    }

    #[test]
    fn client_driver_conserves_under_faults_and_telemetry() {
        let s = small("t-clients-chaos", Family::Queue)
            .threads(4)
            .mix(OpMix::new(50, 50, 0))
            .budget(Budget::OpsPerWorker(600))
            .clients(8_000)
            .arrival_shape(ArrivalShape::Poisson { rate: 500.0 })
            .prefill(300)
            .telemetry_interval(Duration::from_millis(25))
            .faults_spec("panic:1@200")
            .build();
        let r = run(&s, &MultiQueueBackend::heap(8, DeleteMode::Strict));
        // Conservation closes even though worker 1 (serving ~2k
        // clients) died mid-run.
        assert!(r.verified(), "{:?}", r.verify_error);
        let f = r.faults.as_ref().expect("faults section");
        assert!(
            matches!(&f.workers[1], WorkerOutcome::Panicked(d) if d.contains("injected fault")),
            "worker 1 was {:?}",
            f.workers[1]
        );
        let attempts =
            r.counts.updates + r.counts.removes + r.counts.removes_empty + r.counts.reads;
        assert_eq!(attempts, 3 * 600 + 200);
        // The victim's partial client stats were salvaged: one arrival
        // per issued op across the whole run.
        let c = r.clients.as_ref().expect("clients section");
        assert_eq!(c.arrivals, 3 * 600 + 200);
        // Interval telemetry still conserves exactly under the driver.
        let t = r.telemetry.as_ref().expect("telemetry series");
        let totals = t.totals();
        assert_eq!(totals.updates, r.counts.updates);
        assert_eq!(totals.removes, r.counts.removes);
        assert_eq!(totals.removes_empty, r.counts.removes_empty);
    }

    #[test]
    fn a_panic_inside_a_run_keeps_one_arrival_per_issued_op() {
        // An arrival every 5 ns per worker: every run after the first
        // op is full, so the victim dies at op 200 part-way through a
        // run, holding arrivals it has admitted and will never issue.
        // They must not be counted.
        let s = small("t-clients-chaos-saturated", Family::Queue)
            .threads(4)
            .mix(OpMix::new(50, 50, 0))
            .budget(Budget::OpsPerWorker(600))
            .clients(8_000)
            .arrival_shape(ArrivalShape::Poisson { rate: 100_000.0 })
            .prefill(300)
            .telemetry_interval(Duration::from_millis(25))
            .faults_spec("panic:1@200")
            .build();
        let r = run(&s, &MultiQueueBackend::heap(8, DeleteMode::Strict));
        assert!(r.verified(), "{:?}", r.verify_error);
        let f = r.faults.as_ref().expect("faults section");
        assert_eq!(f.workers[1].label(), "panicked", "{:?}", f.workers[1]);
        let attempts =
            r.counts.updates + r.counts.removes + r.counts.removes_empty + r.counts.reads;
        assert_eq!(attempts, 3 * 600 + 200);
        let c = r.clients.as_ref().expect("clients section");
        assert_eq!(c.arrivals, attempts);
        assert!(c.active > 0 && c.active <= c.arrivals, "{c:?}");
        assert_eq!(
            r.telemetry.as_ref().expect("series").totals().updates,
            r.counts.updates
        );
    }

    /// Runs one worker's client driver bare — no harness, no backend —
    /// and returns the ops executed with the stats it filled.
    fn drive_bare(s: &Scenario) -> (u64, WorkerMetrics, ClientStats) {
        struct Counting(u64);
        impl Worker for Counting {
            fn execute(&mut self, _: &Op) -> bool {
                self.0 += 1;
                true
            }
        }
        let mut worker = Counting(0);
        let (mut metrics, mut cstats) = (WorkerMetrics::default(), ClientStats::default());
        drive_clients(
            &mut worker,
            &mut OpSampler::new(s, 0),
            s,
            &AtomicBool::new(false),
            &mut None,
            &mut metrics,
            &mut None,
            0,
            Instant::now(),
            &mut cstats,
        );
        (worker.0, metrics, cstats)
    }

    #[test]
    fn runs_issue_exactly_the_budget_and_split_every_timed_op_at_three_stamps() {
        // Saturated (full runs, chained stamps) and paced (runs of one,
        // a fresh stamp per op); 1_003 = 31 · 32 + 11 ops.
        let saturated = ArrivalShape::Poisson { rate: 1e6 };
        let paced = ArrivalShape::Periodic { rate: 50_000.0 };
        for (shape, clients, ops) in [(saturated, 500u64, 1_003u64), (paced, 4, 203)] {
            for every in [1u64, 8] {
                let s = small("t-clients-bare", Family::Queue)
                    .threads(1)
                    .budget(Budget::OpsPerWorker(ops))
                    .clients(clients as usize)
                    .arrival_shape(shape)
                    .latency_every(every as u32)
                    .build();
                let (executed, metrics, c) = drive_bare(&s);
                let what = format!("{} every={every}", shape.label());
                assert_eq!(executed, ops, "{what}");
                assert_eq!((c.arrivals, c.scheduled), (ops, clients + ops), "{what}");
                let timed = ops.div_ceil(every);
                assert_eq!(c.queueing.len(), timed, "{what}");
                assert_eq!(c.service.len(), timed, "{what}");
                assert_eq!(metrics.latency.len(), timed, "{what}");
                // queueing + service == total, op by op, so also summed.
                let sum = |h: &crate::metrics::LogHistogram| (h.mean() * timed as f64).round();
                assert_eq!(
                    sum(&c.queueing) + sum(&c.service),
                    sum(&metrics.latency),
                    "{what}"
                );
                assert!(c.service.max() > 0 && c.queueing.max() > 0, "{what}");
            }
        }
    }

    #[test]
    fn a_timed_budget_ends_a_wait_for_a_far_off_arrival() {
        // One 1/s periodic client per worker, both first due more than
        // 600 ms in: a 50 ms budget must not be slept through.
        let shape = ArrivalShape::Periodic { rate: 1.0 };
        let first_ns = |seed, id| shape.next_ns(crate::clients::client_seed(seed, id), 0, 0);
        let seed = (0..)
            .find(|&seed| (0..2).all(|id| first_ns(seed, id) > Some(600_000_000)))
            .expect("some seed starts late");
        let s = small("t-clients-stop", Family::Counter)
            .mix(OpMix::new(100, 0, 0))
            .budget(Budget::Timed(Duration::from_millis(50)))
            .clients(2)
            .arrival_shape(shape)
            .seed(seed)
            .build();
        let t0 = Instant::now();
        let r = run(&s, &CounterBackend::exact());
        let took = t0.elapsed();
        assert!(r.verified() && r.total_ops() == 0, "{}", r.total_ops());
        assert!(took < Duration::from_millis(400), "took {took:?}");
    }

    #[test]
    fn fixed_ops_runs_are_deterministic() {
        let build = || {
            small("t-det", Family::Queue)
                .mix(OpMix::new(50, 50, 0))
                .prefill(300)
                .build()
        };
        let r1 = run(&build(), &MultiQueueBackend::heap(4, DeleteMode::Strict));
        let r2 = run(&build(), &MultiQueueBackend::heap(4, DeleteMode::Strict));
        // Threads interleave nondeterministically, but per-worker op
        // streams are seeded: totals must match exactly.
        assert_eq!(r1.counts.updates, r2.counts.updates);
        assert_eq!(
            r1.counts.removes + r1.residual,
            r2.counts.removes + r2.residual
        );
    }

    #[test]
    fn latency_sampling_keeps_counts_exact() {
        let build = |every: u32| {
            small("t-lat", Family::Counter)
                .mix(OpMix::new(100, 0, 0))
                .latency_every(every)
                .build()
        };
        let full = run(&build(1), &CounterBackend::sharded(2));
        let sampled = run(&build(8), &CounterBackend::sharded(2));
        for r in [&full, &sampled] {
            assert!(r.verified(), "{:?}", r.verify_error);
            // Every op counted regardless of sampling cadence.
            assert_eq!(r.total_ops(), 4_000);
            assert_eq!(r.counts.updates, 4_000);
        }
        // The sampled run still produces a usable latency distribution.
        assert!(sampled.latency.p99_ns >= sampled.latency.p50_ns);
        assert!(sampled.latency.max_ns > 0);
    }

    #[test]
    fn telemetry_intervals_conserve_op_counts_exactly() {
        use dlz_core::PolicyCfg;
        let s = small("t-telemetry", Family::Queue)
            .mix(OpMix::new(50, 50, 0))
            .budget(Budget::OpsPerWorker(20_000))
            .prefill(1_000)
            .telemetry_interval(Duration::from_millis(2))
            .build();
        let b =
            MultiQueueBackend::heap_policy(8, DeleteMode::Strict, PolicyCfg::Sticky { ops: 16 }, 1);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        let t = r.telemetry.as_ref().expect("telemetry series");
        assert_eq!(t.interval_ms, 2);
        assert!(!t.intervals.is_empty());
        // Conservation: per-interval op counts sum exactly to the
        // run's totals (prefill is outside the measured window).
        let totals = t.totals();
        assert_eq!(totals.updates, r.counts.updates);
        assert_eq!(totals.removes, r.counts.removes);
        assert_eq!(totals.removes_empty, r.counts.removes_empty);
        assert_eq!(totals.reads, r.counts.reads);
        assert_eq!(totals.prefill, 0);
        assert_eq!(r.counts.prefill, 1_000);
        // Contention counters flowed through the snapshots.
        let camps: u64 = t.intervals.iter().map(|s| s.contention.camp_switches).sum();
        assert!(camps >= 1, "sticky camps missing");
        // The series renders into the report JSON.
        let j = r.to_json();
        assert!(j.contains("\"telemetry\":{"), "{j}");
        assert!(j.contains("\"interval_ms\":2"), "{j}");
        assert!(j.contains("\"camp_switches\":"), "{j}");
        // Telemetry stays off (and out of the JSON) by default.
        let plain = run(
            &small("t-plain-telemetry", Family::Queue)
                .prefill(100)
                .build(),
            &MultiQueueBackend::heap(4, DeleteMode::Strict),
        );
        assert!(plain.telemetry.is_none());
        assert!(!plain.to_json().contains("\"telemetry\":"));
    }

    #[test]
    fn timed_budget_stops() {
        let s = small("t-timed", Family::Counter)
            .budget(Budget::Timed(Duration::from_millis(50)))
            .mix(OpMix::new(100, 0, 0))
            .build();
        let b = CounterBackend::sharded(2);
        let r = run(&s, &b);
        assert!(r.verified());
        assert!(r.elapsed >= Duration::from_millis(50));
        assert!(r.total_ops() > 0);
    }

    #[test]
    #[should_panic(expected = "targets")]
    fn family_mismatch_panics() {
        let s = small("t-mismatch", Family::Counter).build();
        let b = ConcurrentPqBackend::coarse();
        let _ = run(&s, &b);
    }

    #[test]
    fn sweep_reports_carry_cells_and_reproduce_counts() {
        use dlz_core::PolicyCfg;
        let spec = || {
            let base = small("t-sweep", Family::Queue)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(1_000))
                .prefill(200)
                .build();
            SweepSpec::new(base)
                .threads(&[1, 2])
                .policies(&[PolicyCfg::TwoChoice, PolicyCfg::Sticky { ops: 4 }])
        };
        let go = || {
            run_sweep(&spec(), |cell| {
                vec![Box::new(MultiQueueBackend::heap_policy(
                    8,
                    DeleteMode::Strict,
                    cell.scenario.choice_policy,
                    1,
                )) as Box<dyn Backend>]
            })
        };
        let (a, b) = (go(), go());
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.verified(),
                "{}: {:?}",
                x.cell.as_deref().unwrap(),
                x.verify_error
            );
            // Same seed + same grid → identical per-cell op counts.
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.counts.updates, y.counts.updates);
            assert_eq!(x.counts.removes + x.residual, y.counts.removes + y.residual);
            // Each report is tagged with its coordinates.
            let cell = x.cell.as_deref().expect("sweep tag");
            assert!(cell.starts_with("t-sweep/t="), "{cell}");
            assert_eq!(x.grid.len(), 2);
            assert_eq!(x.grid[0].0, "t");
            assert_eq!(x.grid[1].0, "policy");
            assert_eq!(x.grid[1].1, x.policy);
        }
        // The threads axis really ran different worker counts.
        assert_eq!(a[0].threads, 1);
        assert_eq!(a[1].threads, 2);
        assert_eq!(
            a[0].counts.updates + a[0].counts.removes + a[0].counts.removes_empty,
            1_000
        );
    }

    #[test]
    fn shared_backend_sweep_accumulates_across_cells() {
        let base = small("t-shared", Family::Counter)
            .mix(OpMix::new(100, 0, 0))
            .budget(Budget::OpsPerWorker(500))
            .threads(1)
            .build();
        let spec = SweepSpec::new(base).seeds(&[11, 22, 33]);
        let backend = CounterBackend::multicounter(8);
        let reports = run_sweep_shared(&spec, &backend);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert!(r.verified(), "{:?}", r.verify_error);
            // One shared instance: the residual (exact sum) grows by 500
            // increments per checkpoint cell.
            assert_eq!(r.residual, 500 * (i as u64 + 1));
            assert_eq!(
                r.cell.as_deref(),
                Some(format!("t-shared/seed={}", [11, 22, 33][i]).as_str())
            );
        }
    }

    #[test]
    fn history_run_exports_a_replayable_artifact() {
        use dlz_core::spec::{replay_artifact, HistoryArtifact};
        let dir = std::env::temp_dir().join(format!("dlz-engine-export-{}", std::process::id()));
        let s = small("t-export", Family::Queue)
            .mix(OpMix::new(60, 40, 0))
            .budget(Budget::OpsPerWorker(800))
            .prefill(200)
            .record_history(true)
            .export(dir.clone())
            .build();
        let b = MultiQueueBackend::heap(8, DeleteMode::Strict);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        // Keyed by scenario name (no sweep cell) and backend label.
        let path = dir
            .join("t-export")
            .join(format!("{}.histjsonl", r.backend));
        let text = std::fs::read_to_string(&path).expect("artifact written");
        std::fs::remove_dir_all(&dir).ok();
        let a = HistoryArtifact::from_json_lines(&text).expect("artifact parses");
        assert_eq!(a.threads, s.threads);
        assert_eq!(a.source.as_deref(), Some(r.backend.as_str()));
        assert_eq!(a.policy, r.policy);
        assert!(a.cell.is_none() && a.grid.is_empty());
        assert_eq!(a.len() as f64, r.quality.get("history_ops").expect("ops"));
        let outcome = replay_artifact(&a);
        assert!(outcome.is_linearizable());
        assert_eq!(r.quality.get("linearizable"), Some(1.0));
    }

    #[test]
    fn non_history_run_exports_nothing() {
        let dir = std::env::temp_dir().join(format!("dlz-engine-noexport-{}", std::process::id()));
        let s = small("t-noexport", Family::Queue)
            .mix(OpMix::new(50, 50, 0))
            .prefill(100)
            .telemetry_interval(Duration::from_millis(2))
            .export(dir.clone())
            .build();
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        let r = run(&s, &b);
        assert!(r.verified() && r.telemetry.is_some());
        assert!(
            !dir.join("t-noexport").exists(),
            "no history recorded, so nothing may be written: telemetry lives in the report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dead_worker_is_conserved_and_judged_by_every_recording_backend() {
        use crate::backends::{LockedFifoBackend, RelaxedFifoBackend};
        use dlz_core::PolicyCfg;
        const DIES_AT: u64 = 200;
        const OPS: u64 = 600;
        // Worker 0 panics *before* its op 200: it issued exactly 200 ops,
        // everyone else their full budget, and it never reaches finish().
        let chaos = |family, threads: usize, history, policy, backend: &dyn Backend| {
            let prefill = if family == Family::Counter { 0 } else { 300 };
            let s = small("t-chaos-backends", family)
                .threads(threads)
                .mix(match family {
                    Family::Counter => OpMix::new(70, 0, 30),
                    _ => OpMix::new(50, 50, 0),
                })
                .budget(Budget::OpsPerWorker(OPS))
                .prefill(prefill)
                .quality_every(4)
                .record_history(history)
                .choice_policy(policy)
                .faults_spec("panic:0@200")
                .build();
            let r = run(&s, backend);
            let who = format!("{} history={history}", r.backend);
            // No items or increments lost: what the dead worker applied
            // or still buffered counts, so conservation closes.
            assert!(r.verified(), "{who}: {:?}", r.verify_error);
            let f = r.faults.as_ref().expect("faults section");
            assert!(!f.aborted, "{who}");
            assert_eq!(f.workers.len(), threads);
            assert!(
                matches!(&f.workers[0], WorkerOutcome::Panicked(d) if d.contains("injected fault")),
                "{who}: worker 0 was {:?}",
                f.workers[0]
            );
            for w in &f.workers[1..] {
                assert_eq!(*w, WorkerOutcome::Completed, "{who}");
            }
            let c = &r.counts;
            let attempts = c.updates + c.removes + c.removes_empty + c.reads;
            assert_eq!(attempts, DIES_AT + OPS * (threads as u64 - 1), "{who}");
            if history {
                // Its ops 0..200 are complete operations: all of them
                // are in the judged history, which replays linearizable.
                let recorded = prefill + c.updates + c.removes + c.reads;
                assert_eq!(r.quality.get("history_ops"), Some(recorded as f64), "{who}");
                assert_eq!(r.quality.get("linearizable"), Some(1.0), "{who}");
            }
            assert!(!r.ok(), "a panicked worker is not a clean run");
            let j = r.to_json();
            assert!(j.contains("\"faults\":{"), "{j}");
            assert!(j.contains("\"outcome\":\"panicked\""), "{j}");
            // Ranks and positions come from a judged history alone;
            // counters also sample their reads online.
            let sampled = history || family == Family::Counter;
            assert_eq!(r.quality.summary.is_some(), sampled, "{who}");
            r.quality.summary.unwrap_or_default()
        };
        let two_choice = PolicyCfg::TwoChoice;
        for policy in [
            two_choice,
            PolicyCfg::DChoice { d: 4 },
            PolicyCfg::Sticky { ops: 8 },
        ] {
            let mq = MultiQueueBackend::heap_policy(8, DeleteMode::Strict, policy, 1);
            chaos(Family::Queue, 4, true, policy, &mq);
        }
        let coarse = ConcurrentPqBackend::coarse();
        chaos(Family::Queue, 2, false, two_choice, &coarse);
        for history in [false, true] {
            // The exact counter stamps *after* its fetch_add, so only a
            // sequential history of it is certain to cost nothing: its
            // lone worker is the one that dies.
            let exact = CounterBackend::exact();
            let cost = chaos(Family::Counter, 1, history, two_choice, &exact);
            assert_eq!(cost.max, 0.0, "exact-faa history={history}");
            let multi = CounterBackend::multicounter(8);
            chaos(Family::Counter, 2, history, two_choice, &multi);
        }
        chaos(
            Family::Fifo,
            2,
            true,
            two_choice,
            &RelaxedFifoBackend::new(8),
        );
        // With worker 0's dequeues missing from the replay, the exact
        // FIFO's survivors would appear to dequeue out of order.
        let locked = LockedFifoBackend::new();
        let cost = chaos(Family::Fifo, 2, true, two_choice, &locked);
        assert_eq!(cost.max, 0.0, "locked-fifo dequeues the true head");
    }

    #[test]
    fn watchdog_converts_forever_stall_into_diagnosed_abort() {
        let s = small("t-chaos-stall", Family::Queue)
            .threads(2)
            .mix(OpMix::new(50, 50, 0))
            .budget(Budget::OpsPerWorker(50_000_000))
            .prefill(100)
            .telemetry_interval(Duration::from_millis(25))
            .faults_spec("stall:0@40:forever")
            .build();
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        let t0 = Instant::now();
        let r = run(&s, &b);
        let took = t0.elapsed();
        // An un-watched forever stall would hang the run; the watchdog
        // must diagnose and abort it within a couple of intervals.
        assert!(took < Duration::from_secs(10), "took {took:?}");
        assert!(r.verified(), "{:?}", r.verify_error);
        let f = r.faults.as_ref().expect("faults section");
        assert!(f.aborted);
        assert!(
            matches!(&f.workers[0], WorkerOutcome::Stalled(d)
                if d.contains("no progress") && d.contains("worker 0")),
            "worker 0 was {:?}",
            f.workers[0]
        );
        // The healthy worker stopped cleanly when the abort landed.
        assert_eq!(f.workers[1], WorkerOutcome::Completed);
        assert!(!r.ok());
        assert!(r.to_json().contains("\"outcome\":\"stalled\""));
    }

    #[test]
    fn bounded_stall_and_slow_faults_complete_the_budget() {
        let s = small("t-chaos-benign", Family::Queue)
            .threads(2)
            .mix(OpMix::new(50, 50, 0))
            .budget(Budget::OpsPerWorker(400))
            .prefill(200)
            .telemetry_interval(Duration::from_millis(25))
            .faults_spec("stall:0@100:30;slow:1:1..5")
            .build();
        let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        let f = r.faults.as_ref().expect("faults section");
        assert!(!f.aborted, "bounded faults must not trip the watchdog");
        assert!(f.all_completed(), "{:?}", f.workers);
        let attempts =
            r.counts.updates + r.counts.removes + r.counts.removes_empty + r.counts.reads;
        assert_eq!(attempts, 800);
        assert!(r.ok());
    }

    #[test]
    fn chaos_preset_salvages_history_that_replays_offline() {
        use dlz_core::spec::{replay_artifact, HistoryArtifact};
        let dir = std::env::temp_dir().join(format!("dlz-engine-chaos-{}", std::process::id()));
        let mut s = Scenario::named("chaos-stall-audit").expect("preset");
        s.export = Some(dir.clone());
        let b = MultiQueueBackend::heap(8, DeleteMode::Strict);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        let f = r.faults.as_ref().expect("faults section");
        assert_eq!(f.workers[1].label(), "panicked");
        for id in [0, 2, 3] {
            assert_eq!(f.workers[id].label(), "completed", "worker {id}");
        }
        assert!(!f.aborted);
        assert!(r.export_errors.is_empty(), "{:?}", r.export_errors);
        // The surviving workers' (and the victim's partial) history
        // replays linearizable — online and offline through the
        // exported artifact.
        assert_eq!(r.quality.get("linearizable"), Some(1.0));
        let path = dir
            .join("chaos-stall-audit")
            .join(format!("{}.histjsonl", r.backend));
        let text = std::fs::read_to_string(&path).expect("artifact written");
        std::fs::remove_dir_all(&dir).ok();
        let a = HistoryArtifact::from_json_lines(&text).expect("artifact parses");
        assert!(replay_artifact(&a).is_linearizable());
    }

    #[test]
    fn export_failure_degrades_to_recorded_warning() {
        // Block the export path with a plain file: directory creation
        // fails, but the run's measurements must survive.
        let blocker = std::env::temp_dir().join(format!("dlz-engine-blk-{}", std::process::id()));
        std::fs::write(&blocker, b"not a dir").expect("blocker file");
        let s = small("t-exportfail", Family::Queue)
            .mix(OpMix::new(60, 40, 0))
            .budget(Budget::OpsPerWorker(400))
            .prefill(100)
            .record_history(true)
            .export(blocker.clone())
            .build();
        let r = run(&s, &MultiQueueBackend::heap(4, DeleteMode::Strict));
        std::fs::remove_file(&blocker).ok();
        assert!(r.verified(), "{:?}", r.verify_error);
        // The history artifact fails on the blocked path and degrades
        // to a recorded warning.
        assert_eq!(r.export_errors.len(), 1, "{:?}", r.export_errors);
        assert!(
            r.export_errors[0].contains("history"),
            "{:?}",
            r.export_errors
        );
        assert!(!r.ok());
        assert!(r.to_json().contains("\"export_errors\":["));
    }

    #[test]
    fn history_scenario_produces_checked_ranks() {
        let s = small("t-audit", Family::Queue)
            .mix(OpMix::new(60, 40, 0))
            .budget(Budget::OpsPerWorker(1_500))
            .prefill(400)
            .record_history(true)
            .build();
        let b = MultiQueueBackend::heap(8, DeleteMode::Strict);
        let r = run(&s, &b);
        assert!(r.verified(), "{:?}", r.verify_error);
        assert_eq!(r.quality.metric, "dequeue_rank");
        assert_eq!(r.quality.get("linearizable"), Some(1.0));
        let summary = r.quality.summary.expect("rank costs");
        assert!(summary.count > 0);
        // Theorem 7.1 scale: mean rank O(m), tails within m·ln m — use
        // the generous constants the core tests use.
        let m = 8.0f64;
        assert!(summary.mean <= 30.0 * m, "mean rank {summary:?}");
    }
}
