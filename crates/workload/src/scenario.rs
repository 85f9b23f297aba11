//! Declarative scenario configuration and the named catalog.

use std::path::PathBuf;
use std::time::Duration;

use dlz_core::PolicyCfg;

use crate::clients::ArrivalShape;
use crate::dist::Dist;
use crate::faults::FaultPlan;
use crate::op::OpMix;

/// Which structure family a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Relaxed counters (MultiCounter, d-choice, sharded, exact FAA).
    Counter,
    /// Priority queues — the MultiQueue and every `dlz-pq` substrate.
    Queue,
    /// Relaxed FIFO queues — the MultiQueue behind clock-assigned
    /// timestamp priorities (Section 7.1), plus an exact locked
    /// baseline.
    Fifo,
    /// The TL2 transactional array with exact or relaxed clocks.
    Stm,
}

impl Family {
    /// Lowercase label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Family::Counter => "counter",
            Family::Queue => "queue",
            Family::Fifo => "fifo",
            Family::Stm => "stm",
        }
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Each worker performs exactly this many operations
    /// (deterministic; what tests use).
    OpsPerWorker(u64),
    /// Run for a wall-clock duration against a stop flag.
    Timed(Duration),
}

/// A complete declarative workload description.
///
/// Build one with [`Scenario::builder`], or start from a named preset
/// via [`Scenario::named`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (report key).
    pub name: String,
    /// One-line description (shown by `scenarios --list`).
    pub about: String,
    /// Structure family the scenario drives.
    pub family: Family,
    /// Worker thread count.
    pub threads: usize,
    /// Work budget.
    pub budget: Budget,
    /// Operation mix.
    pub mix: OpMix,
    /// Key distribution (counter weight cells / STM slots).
    pub keys: Dist,
    /// Priority distribution (queue inserts).
    pub priorities: Dist,
    /// Weight distribution (counter adds; `Fixed(1)` = plain increments).
    pub weights: Dist,
    /// Simulated-client population. `0` (the default) is the plain
    /// closed loop: every worker issues its next op as soon as the
    /// previous one completes. Any positive count routes the run
    /// through the timer-wheel client driver
    /// ([`clients`](crate::clients)): the population is sharded across
    /// workers, each client follows its own seeded
    /// [`arrival_shape`](Scenario::arrival_shape) and op-mix stream,
    /// and the report gains a `clients` section with the
    /// queueing/service latency split.
    pub clients: usize,
    /// Per-client arrival process; read only when
    /// [`clients`](Scenario::clients) is positive.
    pub arrival_shape: ArrivalShape,
    /// Items inserted sequentially before the measured run.
    pub prefill: u64,
    /// Base RNG seed; every worker derives its streams from this.
    pub seed: u64,
    /// Record a stamped history and replay it through the
    /// distributional-linearizability checker after the run (queue
    /// family only; memory ∝ op count, so pair with small budgets).
    pub record_history: bool,
    /// Directory to serialize the recorded history into as a
    /// policy-tagged [`HistoryArtifact`](dlz_core::spec::HistoryArtifact)
    /// (`.histjsonl`). Each run writes one artifact keyed by its sweep
    /// cell (or scenario name outside sweeps) and backend label, so a
    /// whole sweep yields a grid-indexed directory offline checkers can
    /// consume. No effect unless the run records a history.
    pub export: Option<PathBuf>,
    /// Sample a quality observation every this many eligible ops
    /// (read deviation / rank proxy). 0 disables sampling.
    pub quality_every: u32,
    /// Choice-policy dimension for queue backends: which
    /// [`Policy`](dlz_core::Policy) each worker's handle builds and
    /// runs (two-choice, d-choice or stickiness).
    /// Rank degrades within the policy's envelope (O(s·m) for
    /// stickiness); the quality report carries the bound.
    pub choice_policy: PolicyCfg,
    /// Batch dimension for queue backends: operations buffered per
    /// lock acquisition (1 = unbatched). Ignored in history mode,
    /// which stamps individual operations.
    pub batch: usize,
    /// Latency-sampling cadence: timestamp every Nth operation
    /// (1 = every op). Counts are always exact; higher values keep the
    /// two clock reads per op off the throughput hot path, which
    /// matters when the structure's own cost is tens of nanoseconds.
    /// Open-loop arrivals always timestamp (the pacing needs the
    /// clock anyway).
    pub latency_every: u32,
    /// Time-resolved telemetry: when set, every worker flushes a delta
    /// snapshot (op counts, latency, contention counters) at each
    /// interval boundary, and the report
    /// carries the merged, index-aligned
    /// [`TelemetrySeries`](crate::metrics::TelemetrySeries). `None`
    /// (the default) disables the boundary checks entirely — one
    /// untaken branch per operation.
    pub telemetry_interval: Option<Duration>,
    /// Fault-injection plan (the chaos dimension): seeded,
    /// deterministic per-worker panics, stalls and slow-downs (see
    /// [`FaultPlan`]). When set, the engine runs each worker inside a
    /// panic-tolerant harness, arms the no-progress watchdog, and the
    /// report carries a per-worker `faults` section. `None` (the
    /// default) disables every fault hook — one untaken branch per
    /// operation.
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// Starts a builder with laptop-scale defaults.
    pub fn builder(name: &str, family: Family) -> ScenarioBuilder {
        ScenarioBuilder {
            s: Scenario {
                name: name.to_string(),
                about: String::new(),
                family,
                threads: 4,
                budget: Budget::Timed(Duration::from_millis(300)),
                mix: OpMix::new(50, 50, 0),
                keys: Dist::Uniform { n: 1 << 16 },
                priorities: Dist::Monotonic,
                weights: Dist::Fixed(1),
                clients: 0,
                arrival_shape: ArrivalShape::SelfPaced,
                prefill: 0,
                seed: 0xd15f1e1d,
                record_history: false,
                export: None,
                quality_every: 64,
                choice_policy: PolicyCfg::TwoChoice,
                batch: 1,
                latency_every: 1,
                telemetry_interval: None,
                faults: None,
            },
        }
    }

    /// Looks up a named scenario from [`Scenario::catalog`].
    pub fn named(name: &str) -> Option<Scenario> {
        Scenario::catalog().into_iter().find(|s| s.name == name)
    }

    /// The built-in scenario catalog.
    ///
    /// Every preset runs in a few hundred milliseconds by default and
    /// scales with `--threads` / `--duration-ms` overrides in the
    /// `scenarios` binary.
    pub fn catalog() -> Vec<Scenario> {
        vec![
            Scenario::builder("counter-update-heavy", Family::Counter)
                .about("90% increments / 10% sampled reads, closed loop — Figure 1(a)'s regime")
                .mix(OpMix::new(90, 0, 10))
                .build(),
            Scenario::builder("counter-read-heavy", Family::Counter)
                .about("20% increments / 80% sampled reads — read-deviation stress")
                .mix(OpMix::new(20, 0, 80))
                .build(),
            Scenario::builder("counter-weighted-zipf", Family::Counter)
                .about("weighted adds with Zipf-skewed weights — relaxed metric-counter regime")
                .mix(OpMix::new(80, 0, 20))
                .weights(Dist::Zipf { n: 64, theta: 0.9 })
                .build(),
            Scenario::builder("counter-history-audit", Family::Counter)
                .about("stamped counter history replayed through the relaxed-counter checker — Lemma 6.8's deviation as measured step costs")
                .mix(OpMix::new(70, 0, 30))
                .budget(Budget::OpsPerWorker(4_000))
                .record_history(true)
                .build(),
            Scenario::builder("queue-balanced", Family::Queue)
                .about("50/50 enqueue/dequeue, monotone priorities, 10k prefill — steady state")
                .mix(OpMix::new(50, 50, 0))
                .prefill(10_000)
                .build(),
            Scenario::builder("queue-producer-surge", Family::Queue)
                .about("2:1 enqueue:dequeue with uniform priorities — growing backlog")
                .mix(OpMix::new(60, 30, 10))
                .priorities(Dist::Uniform { n: 1 << 20 })
                .prefill(1_000)
                .build(),
            Scenario::builder("queue-bursty", Family::Queue)
                .about("stampede arrivals: one client per worker, 256-op bursts every 2ms — adversarial schedule")
                .mix(OpMix::new(50, 50, 0))
                .clients(4)
                .arrival_shape(ArrivalShape::Bursty {
                    rate: 128_000.0,
                    burst: 256,
                })
                .prefill(5_000)
                .build(),
            Scenario::builder("queue-balanced-audit", Family::Queue)
                .about("queue-balanced's 50/50 steady state with stamped history + checker replay — the history-export flagship")
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(4_000))
                .prefill(1_000)
                .record_history(true)
                .build(),
            Scenario::builder("queue-rank-audit", Family::Queue)
                .about("small fixed-op run with stamped history replayed through the checker")
                .mix(OpMix::new(60, 40, 0))
                .budget(Budget::OpsPerWorker(6_000))
                .prefill(2_000)
                .record_history(true)
                .build(),
            Scenario::builder("mq-hotpath-dequeue-heavy", Family::Queue)
                .about("30/70 enqueue:dequeue at 8 threads over a deep backlog — the contended hot path the packed/padded/sticky work targets")
                .threads(8)
                .mix(OpMix::new(30, 70, 0))
                .budget(Budget::OpsPerWorker(40_000))
                .priorities(Dist::Uniform { n: 1 << 20 })
                .prefill(400_000)
                .choice_policy(PolicyCfg::Sticky { ops: 16 })
                .batch(16)
                .latency_every(8)
                .build(),
            Scenario::builder("mq-hotpath-balanced", Family::Queue)
                .about("50/50 mix at 8 threads, steady backlog — hot path without drain pressure")
                .threads(8)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(40_000))
                .prefill(20_000)
                .choice_policy(PolicyCfg::Sticky { ops: 16 })
                .batch(16)
                .latency_every(8)
                .build(),
            Scenario::builder("mq-hotpath-rank-audit", Family::Queue)
                .about("sticky-mode stamped history through the checker — verifies the O(s·m) rank envelope")
                .threads(4)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(6_000))
                .prefill(2_000)
                .record_history(true)
                .choice_policy(PolicyCfg::Sticky { ops: 16 })
                .build(),
            Scenario::builder("fifo-history-audit", Family::Fifo)
                .about("relaxed FIFO vs exact locked baseline, stamped history through the FIFO checker — dequeue positions are Theorem 7.1's rank error")
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(6_000))
                .prefill(2_000)
                .record_history(true)
                .build(),
            Scenario::builder("stm-uniform-mix", Family::Stm)
                .about("80% 2-slot add txns / 20% read-only txns over 64k slots — Figure 1(c)")
                .mix(OpMix::new(80, 0, 20))
                .keys(Dist::Uniform { n: 1 << 16 })
                .build(),
            Scenario::builder("stm-hot-keys", Family::Stm)
                .about("Zipf-skewed slots (theta 0.9) — contention cliff for both clocks")
                .mix(OpMix::new(80, 0, 20))
                .keys(Dist::Zipf {
                    n: 1 << 14,
                    theta: 0.9,
                })
                .build(),
            Scenario::builder("stm-open-loop", Family::Stm)
                .about("one Poisson client per worker at 50k ops/s — latency under offered load")
                .mix(OpMix::new(70, 0, 30))
                .keys(Dist::Uniform { n: 1 << 16 })
                .clients(4)
                .arrival_shape(ArrivalShape::Poisson { rate: 50_000.0 })
                .build(),
            Scenario::builder("clients-poisson-100k", Family::Queue)
                .about("100k Poisson clients over 4 workers at a deliberately overloaded aggregate rate — queueing delay visible in the clients section")
                .threads(4)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(25_000))
                .clients(100_000)
                .arrival_shape(ArrivalShape::Poisson { rate: 50.0 })
                .prefill(10_000)
                .build(),
            Scenario::builder("clients-diurnal", Family::Queue)
                .about("50k clients on a sinusoidal diurnal curve (5 cycles/s) — load swings 0.2×–1.8× of the base rate")
                .threads(4)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(10_000))
                .clients(50_000)
                .arrival_shape(ArrivalShape::Diurnal {
                    rate: 20.0,
                    period_ms: 200,
                })
                .prefill(5_000)
                .build(),
            Scenario::builder("clients-flash-crowd", Family::Queue)
                .about("50k background-rate clients with a 20× flash crowd in the 50–100ms window — backlog spike and recovery")
                .threads(4)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(10_000))
                .clients(50_000)
                .arrival_shape(ArrivalShape::Flash {
                    rate: 5.0,
                    factor: 20.0,
                    at_ms: 50,
                    len_ms: 50,
                })
                .prefill(5_000)
                .build(),
            Scenario::builder("chaos-stall-audit", Family::Queue)
                .about("history-audited run with an injected panic, a bounded stall and a slow straggler — the surviving workers' history must still replay linearizable")
                .threads(4)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(1_200))
                .prefill(2_000)
                .record_history(true)
                .telemetry_interval(Duration::from_millis(25))
                .faults_spec("panic:1@400;stall:2@300:30;slow:3:5..20")
                .build(),
            Scenario::builder("chaos-slow-tail", Family::Queue)
                .about("two seeded slow workers stretch the latency tail; every worker still completes its budget")
                .threads(4)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(2_000))
                .prefill(2_000)
                .telemetry_interval(Duration::from_millis(25))
                .faults_spec("slow:0:10..200;slow:1:10..200")
                .build(),
            Scenario::builder("chaos-stall-forever", Family::Queue)
                .about("one worker wedges permanently; the watchdog diagnoses it and aborts the run instead of hanging")
                .threads(2)
                .mix(OpMix::new(50, 50, 0))
                .budget(Budget::OpsPerWorker(1_000_000))
                .prefill(1_000)
                .telemetry_interval(Duration::from_millis(25))
                .faults_spec("stall:0@100:forever")
                .build(),
        ]
    }
}

/// Builder for [`Scenario`] (all setters are chainable).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    s: Scenario,
}

impl ScenarioBuilder {
    /// One-line description.
    pub fn about(mut self, text: &str) -> Self {
        self.s.about = text.to_string();
        self
    }

    /// Worker count.
    pub fn threads(mut self, n: usize) -> Self {
        self.s.threads = n;
        self
    }

    /// Work budget.
    pub fn budget(mut self, b: Budget) -> Self {
        self.s.budget = b;
        self
    }

    /// Operation mix.
    pub fn mix(mut self, mix: OpMix) -> Self {
        self.s.mix = mix;
        self
    }

    /// Key distribution.
    pub fn keys(mut self, d: Dist) -> Self {
        self.s.keys = d;
        self
    }

    /// Priority distribution.
    pub fn priorities(mut self, d: Dist) -> Self {
        self.s.priorities = d;
        self
    }

    /// Weight distribution.
    pub fn weights(mut self, d: Dist) -> Self {
        self.s.weights = d;
        self
    }

    /// Simulated-client population (0 = plain closed loop; see
    /// [`Scenario::clients`]).
    pub fn clients(mut self, n: usize) -> Self {
        self.s.clients = n;
        self
    }

    /// Per-client arrival shape (used when `clients > 0`).
    pub fn arrival_shape(mut self, shape: ArrivalShape) -> Self {
        self.s.arrival_shape = shape;
        self
    }

    /// Sequential prefill size.
    pub fn prefill(mut self, n: u64) -> Self {
        self.s.prefill = n;
        self
    }

    /// Base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.s.seed = seed;
        self
    }

    /// Enable stamped-history recording (queue family).
    pub fn record_history(mut self, on: bool) -> Self {
        self.s.record_history = on;
        self
    }

    /// Export directory for serialized history artifacts (see
    /// [`Scenario::export`]).
    pub fn export(mut self, dir: impl Into<PathBuf>) -> Self {
        self.s.export = Some(dir.into());
        self
    }

    /// Choice-policy dimension (queue backends; default two-choice).
    pub fn choice_policy(mut self, policy: PolicyCfg) -> Self {
        self.s.choice_policy = policy;
        self
    }

    /// Batch dimension (queue backends; 1 disables).
    pub fn batch(mut self, k: usize) -> Self {
        self.s.batch = k.max(1);
        self
    }

    /// Latency-sampling cadence (1 = timestamp every op).
    pub fn latency_every(mut self, n: u32) -> Self {
        self.s.latency_every = n.max(1);
        self
    }

    /// Quality sampling cadence (0 disables).
    pub fn quality_every(mut self, every: u32) -> Self {
        self.s.quality_every = every;
        self
    }

    /// Enables time-resolved telemetry with the given snapshot interval
    /// (clamped to ≥ 1ms; see [`Scenario::telemetry_interval`]).
    pub fn telemetry_interval(mut self, interval: Duration) -> Self {
        self.s.telemetry_interval = Some(interval.max(Duration::from_millis(1)));
        self
    }

    /// Arms a fault-injection plan (see [`Scenario::faults`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.s.faults = Some(plan);
        self
    }

    /// Parses and arms a fault-plan spec string.
    ///
    /// # Panics
    /// If the spec does not parse — presets and tests hand-write these.
    pub fn faults_spec(self, spec: &str) -> Self {
        self.faults(FaultPlan::parse(spec).expect("fault plan spec"))
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    /// If `threads == 0`, or if the fault plan names a worker the
    /// scenario does not have.
    pub fn build(self) -> Scenario {
        assert!(self.s.threads > 0, "scenario needs at least one worker");
        if let Some(plan) = &self.s.faults {
            assert!(
                plan.max_worker() < self.s.threads,
                "fault plan names worker {} but the scenario has only {} threads",
                plan.max_worker(),
                self.s.threads
            );
        }
        self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_at_least_six_distinct_named_scenarios() {
        let cat = Scenario::catalog();
        assert!(cat.len() >= 6, "catalog too small: {}", cat.len());
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate scenario names");
        for s in &cat {
            assert!(!s.about.is_empty(), "{} lacks a description", s.name);
        }
        // Every family is represented.
        for f in [Family::Counter, Family::Queue, Family::Fifo, Family::Stm] {
            assert!(cat.iter().any(|s| s.family == f), "{f:?} missing");
        }
    }

    #[test]
    fn named_lookup_roundtrip() {
        let s = Scenario::named("queue-balanced").expect("exists");
        assert_eq!(s.family, Family::Queue);
        assert_eq!(s.prefill, 10_000);
        assert!(Scenario::named("no-such-scenario").is_none());
    }

    #[test]
    fn hotpath_scenarios_carry_policy_and_batch_dimensions() {
        let s = Scenario::named("mq-hotpath-dequeue-heavy").expect("exists");
        assert_eq!(s.family, Family::Queue);
        assert!(s.threads >= 8, "contended point needs ≥ 8 threads");
        assert_eq!(s.choice_policy, PolicyCfg::Sticky { ops: 16 });
        assert!(s.batch > 1);
        let audit = Scenario::named("mq-hotpath-rank-audit").expect("exists");
        assert!(audit.record_history && !audit.choice_policy.is_default());
        // Pre-existing scenarios keep the paper's fresh-draw behaviour.
        let plain = Scenario::named("queue-balanced").expect("exists");
        assert_eq!(
            (plain.choice_policy, plain.batch),
            (PolicyCfg::TwoChoice, 1)
        );
    }

    #[test]
    fn balanced_audit_records_and_export_is_a_dimension() {
        let s = Scenario::named("queue-balanced-audit").expect("exists");
        assert_eq!(s.family, Family::Queue);
        assert!(s.record_history);
        assert!(matches!(s.budget, Budget::OpsPerWorker(_)));
        assert!(s.export.is_none(), "presets never hard-code an export path");
        let e = Scenario::builder("x", Family::Queue)
            .export("hist/dir")
            .build();
        assert_eq!(e.export.as_deref(), Some(std::path::Path::new("hist/dir")));
    }

    #[test]
    fn counter_history_audit_records() {
        let s = Scenario::named("counter-history-audit").expect("exists");
        assert_eq!(s.family, Family::Counter);
        assert!(s.record_history);
        assert!(matches!(s.budget, Budget::OpsPerWorker(_)));
    }

    #[test]
    fn client_presets_shard_a_big_population_over_few_workers() {
        let cat = Scenario::catalog();
        let clients: Vec<&Scenario> = cat
            .iter()
            .filter(|s| s.name.starts_with("clients-"))
            .collect();
        assert!(clients.len() >= 3, "client presets missing");
        for s in &clients {
            assert!(s.clients >= 50_000, "{}: population too small", s.name);
            assert!(
                s.threads <= 8,
                "{}: client presets stay laptop-scale",
                s.name
            );
            assert!(
                matches!(s.budget, Budget::OpsPerWorker(_)),
                "{}: fixed-op budgets keep CI deterministic",
                s.name
            );
            assert_ne!(s.arrival_shape, ArrivalShape::SelfPaced, "{}", s.name);
        }
        let big = Scenario::named("clients-poisson-100k").expect("exists");
        assert!(big.clients >= 100_000 && big.threads == 4);
        // Closed-loop presets stay off the client driver.
        let plain = Scenario::named("queue-balanced").expect("exists");
        assert_eq!(plain.clients, 0);
        assert_eq!(plain.arrival_shape, ArrivalShape::SelfPaced);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Scenario::builder("x", Family::Counter).threads(0).build();
    }

    #[test]
    fn chaos_presets_arm_faults_with_matching_thread_counts() {
        let cat = Scenario::catalog();
        let chaos: Vec<&Scenario> = cat
            .iter()
            .filter(|s| s.name.starts_with("chaos-"))
            .collect();
        assert!(chaos.len() >= 3, "chaos presets missing");
        for s in &chaos {
            let plan = s.faults.as_ref().expect("chaos preset without faults");
            assert!(plan.max_worker() < s.threads, "{}", s.name);
            assert!(
                s.telemetry_interval.is_some(),
                "{}: the watchdog feeds on telemetry intervals",
                s.name
            );
            assert!(matches!(s.budget, Budget::OpsPerWorker(_)), "{}", s.name);
        }
        let audit = Scenario::named("chaos-stall-audit").expect("exists");
        assert!(audit.record_history && audit.faults.expect("plan").is_lossy());
        let tail = Scenario::named("chaos-slow-tail").expect("exists");
        assert!(!tail.faults.expect("plan").is_lossy());
        // Non-chaos presets stay fault-free.
        assert!(Scenario::named("queue-balanced")
            .expect("exists")
            .faults
            .is_none());
    }

    #[test]
    #[should_panic(expected = "names worker 7")]
    fn fault_plan_beyond_thread_count_rejected() {
        let _ = Scenario::builder("x", Family::Queue)
            .threads(4)
            .faults_spec("panic:7@10")
            .build();
    }
}
