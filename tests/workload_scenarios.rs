//! Deterministic integration test of the workload subsystem against
//! all four backend families: relaxed counters, the MultiQueue,
//! exact `dlz-pq` queues, and the TL2 STM.
//!
//! Every run uses a small fixed-seed fixed-op scenario, so the drawn
//! operation streams are identical run to run; the assertions are the
//! ISSUE's acceptance criteria in miniature: op counts balance, no
//! items are lost, quality metrics are finite and sit within the
//! paper's tail bounds at small scale.

use std::time::Duration;

use distlin::core::DeleteMode;
use distlin::workload::backends::{
    ConcurrentPqBackend, CounterBackend, MultiQueueBackend, StmBackend,
};
use distlin::workload::{engine, ArrivalShape, Backend, Budget, Dist, Family, OpMix, Scenario};

const SEED: u64 = 0x5eed_cafe;

fn counter_scenario() -> Scenario {
    Scenario::builder("it-counter", Family::Counter)
        .threads(3)
        .budget(Budget::OpsPerWorker(20_000))
        .mix(OpMix::new(85, 0, 15))
        .seed(SEED)
        .quality_every(16)
        .build()
}

fn queue_scenario() -> Scenario {
    Scenario::builder("it-queue", Family::Queue)
        .threads(3)
        .budget(Budget::OpsPerWorker(10_000))
        .mix(OpMix::new(55, 45, 0))
        .priorities(Dist::Monotonic)
        .prefill(2_000)
        .seed(SEED)
        .quality_every(8)
        .build()
}

#[test]
fn counter_family_balances_and_stays_within_tail_bounds() {
    let s = counter_scenario();
    let m = 32;
    let backend = CounterBackend::multicounter(m);
    let report = engine::run(&s, &backend);

    assert!(report.verified(), "{:?}", report.verify_error);
    // Op counts balance: every issued op is accounted for, exactly.
    assert_eq!(report.total_ops(), 3 * 20_000);
    assert_eq!(report.counts.removes_empty, 0);
    // No increment lost: the exact sum equals the applied updates
    // (weight 1 each) — this is what verify() checked; re-derive it.
    assert_eq!(report.residual, report.counts.updates);

    // Quality: finite, and within the paper's m·ln m read-deviation
    // scale (Lemma 6.8) with the generous constant the core tests use.
    let q = &report.quality;
    assert_eq!(q.metric, "read_deviation");
    assert!(q.is_finite(), "{q:?}");
    let summary = q.summary.expect("deviation sampled");
    assert!(summary.count > 0);
    let bound = 4.0 * (m as f64) * (m as f64).ln();
    assert!(
        summary.max <= bound,
        "read deviation {} above m·ln m bound {bound}",
        summary.max
    );
    assert_eq!(q.get("within_bound"), Some(1.0));
}

#[test]
fn multiqueue_family_loses_nothing_and_ranks_stay_bounded() {
    // History mode: the checker computes exact dequeue ranks.
    let mut s = queue_scenario();
    s.record_history = true;
    s.budget = Budget::OpsPerWorker(4_000);
    let m = 8;
    let backend = MultiQueueBackend::heap(m, DeleteMode::Strict);
    let report = engine::run(&s, &backend);

    assert!(report.verified(), "{:?}", report.verify_error);
    // No items lost: inserted (incl. prefill) = removed + residual.
    assert_eq!(
        report.counts.inserted(),
        report.counts.removes + report.residual
    );

    let q = &report.quality;
    assert_eq!(q.metric, "dequeue_rank");
    assert!(q.is_finite(), "{q:?}");
    // Every stamped history must map onto the relaxed PQ process.
    assert_eq!(q.get("linearizable"), Some(1.0));
    let ranks = q.summary.expect("rank costs");
    assert!(ranks.count > 0);
    // Theorem 7.1 scale at small m: mean O(m), max within m·ln m times
    // a generous constant (the same margins the core suite uses).
    assert!(
        ranks.mean <= 30.0 * m as f64,
        "mean rank {} too large",
        ranks.mean
    );
    assert!(
        ranks.max <= 30.0 * (m as f64) * (m as f64).ln(),
        "max rank {} too large",
        ranks.max
    );
}

#[test]
fn exact_pq_family_conserves_and_dequeues_true_minima() {
    let s = queue_scenario();
    let backend = ConcurrentPqBackend::coarse();
    let report = engine::run(&s, &backend);

    assert!(report.verified(), "{:?}", report.verify_error);
    assert_eq!(
        report.counts.inserted(),
        report.counts.removes + report.residual
    );
    let q = &report.quality;
    assert_eq!(q.metric, "dequeue_rank");
    assert!(
        q.summary.is_none(),
        "ranks come from a judged history alone: {q:?}"
    );
    assert!(q.is_finite(), "{q:?}");
    assert_eq!(q.get("exact_structure"), Some(1.0));
}

#[test]
fn stm_family_preserves_the_paper_safety_law() {
    let s = Scenario::builder("it-stm", Family::Stm)
        .threads(3)
        .budget(Budget::OpsPerWorker(5_000))
        .mix(OpMix::new(80, 0, 20))
        .keys(Dist::Uniform { n: 4_096 })
        .seed(SEED)
        .build();
    for backend in [
        Box::new(StmBackend::exact(4_096)) as Box<dyn Backend>,
        Box::new(StmBackend::relaxed(4_096, 3)) as Box<dyn Backend>,
    ] {
        let report = engine::run(&s, backend.as_ref());
        // verify() holds the paper's law: array sum == 2 × update txns,
        // commits == completed txns, no leaked locks.
        assert!(
            report.verified(),
            "{}: {:?}",
            report.backend,
            report.verify_error
        );
        assert_eq!(report.total_ops(), 3 * 5_000);
        assert_eq!(report.residual as u128, 2 * report.counts.updates as u128);
        let q = &report.quality;
        assert_eq!(q.metric, "abort_rate");
        assert!(q.is_finite(), "{q:?}");
        let rate = q.get("abort_rate").expect("rate");
        assert!((0.0..1.0).contains(&rate), "abort rate {rate}");
    }
}

#[test]
fn fixed_seed_runs_reproduce_op_streams_exactly() {
    // The same scenario twice: thread interleaving may differ, but the
    // deterministic per-worker op streams mean the issued-op accounting
    // must be identical.
    let run = || {
        let s = queue_scenario();
        engine::run(&s, &MultiQueueBackend::heap(8, DeleteMode::Strict))
    };
    let (a, b) = (run(), run());
    assert_eq!(a.counts.updates, b.counts.updates);
    assert_eq!(a.counts.prefill, b.counts.prefill);
    assert_eq!(a.counts.removes + a.residual, b.counts.removes + b.residual);
    assert_eq!(
        a.total_ops() + a.counts.removes_empty,
        b.total_ops() + b.counts.removes_empty
    );
}

#[test]
fn arrival_processes_drive_every_family() {
    // Open-loop counters and bursty queues: small smoke runs proving
    // the pacing paths work end to end with conservation intact.
    let open = Scenario::builder("it-open", Family::Counter)
        .threads(2)
        .budget(Budget::OpsPerWorker(300))
        .mix(OpMix::new(100, 0, 0))
        .clients(2)
        .arrival_shape(ArrivalShape::Poisson { rate: 30_000.0 })
        .seed(SEED)
        .build();
    let counter = CounterBackend::sharded(2);
    let r = engine::run(&open, &counter);
    assert!(r.verified(), "{:?}", r.verify_error);
    assert_eq!(r.total_ops(), 600);
    assert!(r.elapsed >= Duration::from_millis(2), "pacing ignored");

    let bursty = Scenario::builder("it-bursty", Family::Queue)
        .threads(2)
        .budget(Budget::OpsPerWorker(600))
        .mix(OpMix::new(50, 50, 0))
        .clients(2)
        // 128-op bursts, 300 µs apart.
        .arrival_shape(ArrivalShape::Bursty {
            rate: 128.0 / 300e-6,
            burst: 128,
        })
        .prefill(200)
        .seed(SEED)
        .build();
    let mq = MultiQueueBackend::heap(4, DeleteMode::Strict);
    let r = engine::run(&bursty, &mq);
    assert!(r.verified(), "{:?}", r.verify_error);
    assert_eq!(r.counts.inserted(), r.counts.removes + r.residual);
}

#[test]
fn tuned_hotpath_backends_conserve_and_stay_within_policy_rank_bound() {
    // Throughput mode: sticky + batched workers under concurrent
    // producers/consumers — conservation must hold exactly even though
    // workers buffer inserts and prefetch dequeues.
    let mut s = Scenario::named("mq-hotpath-balanced").expect("catalog");
    s.threads = 3;
    s.budget = Budget::OpsPerWorker(8_000);
    s.prefill = 1_000;
    s.seed = SEED;
    let tuned = MultiQueueBackend::heap_policy(8, DeleteMode::Strict, s.choice_policy, s.batch);
    let r = engine::run(&s, &tuned);
    assert!(r.verified(), "{:?}", r.verify_error);
    assert_eq!(r.counts.inserted(), r.counts.removes + r.residual);
    assert!(r.backend.contains("sticky(s=16),b=16"), "{}", r.backend);

    // History mode: checker-exact sticky dequeue ranks must sit inside
    // the O(s·m) envelope the backend reports alongside them.
    let mut audit = Scenario::named("mq-hotpath-rank-audit").expect("catalog");
    audit.threads = 2;
    audit.budget = Budget::OpsPerWorker(2_000);
    audit.prefill = 500;
    audit.seed = SEED;
    let backend = MultiQueueBackend::heap_policy(8, DeleteMode::Strict, audit.choice_policy, 1);
    let r = engine::run(&audit, &backend);
    assert!(r.verified(), "{:?}", r.verify_error);
    let q = &r.quality;
    assert_eq!(q.metric, "dequeue_rank");
    assert_eq!(q.get("linearizable"), Some(1.0), "{q:?}");
    assert_eq!(q.get("within_bound"), Some(1.0), "{q:?}");
    let ranks = q.summary.expect("ranks");
    assert!(ranks.count > 0);
    assert!(ranks.mean <= q.get("bound").expect("bound"));
}

#[test]
fn counter_history_audit_replays_through_the_checker() {
    // Satellite of ROADMAP PR 1: counter histories recorded and
    // replayed — read deviations measured at linearization points.
    let mut s = Scenario::named("counter-history-audit").expect("catalog");
    s.threads = 3;
    s.budget = Budget::OpsPerWorker(3_000);
    s.seed = SEED;
    let m = 32;
    let backend = CounterBackend::multicounter(m);
    let r = engine::run(&s, &backend);
    assert!(r.verified(), "{:?}", r.verify_error);
    let q = &r.quality;
    assert_eq!(q.metric, "read_deviation");
    assert_eq!(q.get("linearizable"), Some(1.0), "{q:?}");
    assert!(q.get("history_ops").unwrap_or(0.0) > 0.0);
    let summary = q.summary.expect("read costs");
    assert!(summary.count > 0, "no reads replayed");
    // Lemma 6.8 scale at the checker's exact linearization points.
    assert!(
        summary.max <= 4.0 * (m as f64) * (m as f64).ln(),
        "checked deviation {} out of scale",
        summary.max
    );
    assert_eq!(q.get("within_bound"), Some(1.0), "{q:?}");
}

#[test]
fn every_catalog_scenario_runs_shrunk_against_its_roster() {
    // The whole named catalog, shrunk to test scale, against every
    // backend in its roster — the scenarios binary in miniature.
    for mut s in Scenario::catalog() {
        s.threads = 2;
        s.budget = Budget::OpsPerWorker(400);
        s.prefill = s.prefill.min(500);
        s.seed = SEED;
        for backend in distlin::workload::backends::roster(&s) {
            let report = engine::run(&s, backend.as_ref());
            assert!(
                report.verified(),
                "{} on {}: {:?}",
                s.name,
                report.backend,
                report.verify_error
            );
            assert!(report.quality.is_finite(), "{}", report.backend);
            let json = report.to_json();
            assert!(json.contains("\"mops\":"), "JSON missing throughput");
            assert!(json.contains("\"p99\":"), "JSON missing latency");
            assert!(json.contains("\"metric\":"), "JSON missing quality");
        }
    }
}

#[test]
fn backlogged_client_schedules_are_pinned() {
    // The arrival schedule of a fixed-seed, fixed-op client run is a
    // pure function of the seed: which client arrives when, in what
    // order the wheel delivers them, and which op kind each draws — not
    // of how fast the worker runs or which ops it times. These rows
    // were recorded on the one-arrival-at-a-time driver; a driver that
    // admits arrivals in runs must reproduce them bit for bit.
    //
    // (shape, clients, ops per worker, per thread count 1 and 2:
    //  (arrival digest, active clients, updates, remove attempts))
    type Row = (u64, u64, u64, u64);
    let cases: [(ArrivalShape, usize, u64, [Row; 2]); 3] = [
        // 20M arrivals/s offered: far beyond capacity, always a backlog.
        (
            ArrivalShape::Poisson { rate: 5_000.0 },
            4_000,
            6_000,
            [
                (0x690c_8d1c_a2d4_67f5, 3_139, 3_020, 2_980),
                (0x0883_a929_5059_c2f1, 3_814, 6_000, 6_000),
            ],
        ),
        // Bursts of 16 sharing one instant, every 320 µs per client.
        (
            ArrivalShape::Bursty {
                rate: 50_000.0,
                burst: 16,
            },
            500,
            4_000,
            [
                (0xfae4_2528_5daa_21d5, 312, 2_021, 1_979),
                (0x1a3c_e0fb_bd1f_c141, 500, 4_024, 3_976),
            ],
        ),
        // 2M arrivals/s offered, in phase-shifted lockstep.
        (
            ArrivalShape::Periodic { rate: 2_000.0 },
            1_000,
            3_000,
            [
                (0x80bc_fc68_6e3d_2af7, 1_000, 1_537, 1_463),
                (0x16a6_2f66_4664_62dd, 1_000, 3_032, 2_968),
            ],
        ),
    ];
    for (shape, clients, ops, want) in cases {
        for (threads, want) in [1usize, 2].into_iter().zip(want) {
            for latency_every in [1, 8] {
                let s = Scenario::builder("it-clients-pinned", Family::Queue)
                    .threads(threads)
                    .budget(Budget::OpsPerWorker(ops))
                    .mix(OpMix::new(50, 50, 0))
                    .clients(clients)
                    .arrival_shape(shape)
                    .latency_every(latency_every)
                    .prefill(500)
                    .seed(SEED)
                    .build();
                let r = engine::run(&s, &MultiQueueBackend::heap(4, DeleteMode::Strict));
                let what = format!("{} t={threads} every={latency_every}", shape.label());
                assert!(r.verified(), "{what}: {:?}", r.verify_error);
                let c = r.clients.as_ref().expect("clients section");
                assert_eq!(c.arrivals, threads as u64 * ops, "{what}");
                let got: Row = (
                    c.arrival_digest,
                    c.active,
                    r.counts.updates,
                    r.counts.removes + r.counts.removes_empty,
                );
                assert_eq!(got, want, "{what}");
            }
        }
    }
}
