//! Cross-crate integration: the MultiQueue maps onto the relaxed
//! priority-queue process with bounded rank costs (Theorem 7.1, checked
//! on real concurrent executions through the Section 5 framework).

use distlin::core::spec::{check_distributional, History, PqOp, PqSpec, Recorder};
use distlin::core::{MqHandle, MultiQueue, PolicyCfg};

/// Runs a concurrent stamped workload and returns its history.
fn stamped_workload(
    mq: &MultiQueue<u64>,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> History<PqOp> {
    let recorder = Recorder::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let recorder = &recorder;
            s.spawn(move || {
                // Two-choice keeps the paper's Algorithm 2 behaviour.
                let policy = PolicyCfg::TwoChoice.build();
                let mut h = MqHandle::with_policy(mq, seed ^ ((t as u64) << 20), policy);
                let mut log = recorder.log(t);
                // Unique priorities per thread: k * threads + t.
                let mut k = 0u64;
                for step in 0..ops_per_thread {
                    if step % 3 < 2 {
                        let p = k * threads as u64 + t as u64;
                        k += 1;
                        log.record(|stamps| {
                            let update = h.stamped(stamps).insert(p, p);
                            Some((PqOp::Insert { priority: p }, update))
                        });
                    } else {
                        log.record(|stamps| {
                            let (p, _, update) = h.stamped(stamps).dequeue()?;
                            Some((PqOp::DeleteMin { removed: p }, update))
                        });
                    }
                }
            });
        }
    });
    recorder.take_history()
}

#[test]
fn multiqueue_history_maps_onto_relaxed_pq() {
    let m = 16;
    let mq: MultiQueue<u64> = MultiQueue::new(m);
    let h = stamped_workload(&mq, 4, 6_000, 0xAA);
    assert!(h.well_formed());
    assert!(h.respects_real_time());
    let out = check_distributional(&PqSpec, &h);
    assert!(
        out.is_linearizable(),
        "unmappable ops: {:?}",
        out.unmappable
    );
}

#[test]
fn rank_costs_within_theorem_7_1_scale() {
    let m = 16;
    let mq: MultiQueue<u64> = MultiQueue::new(m);
    let h = stamped_workload(&mq, 4, 10_000, 0xBB);
    let out = check_distributional(&PqSpec, &h);
    assert!(out.is_linearizable());
    // Expected rank O(m); tails O(m log m). Generous constants: the
    // stamps sit *near* (not exactly at) the linearization points, and
    // n=4 threads add the concurrent skew the theorem covers with C·n
    // headroom.
    let mean_bound = 4.0 * m as f64;
    let max_bound = 20.0 * (m as f64) * (m as f64).ln();
    assert!(
        out.costs.mean() <= mean_bound,
        "mean rank {} > {mean_bound}",
        out.costs.mean()
    );
    assert!(
        out.costs.max() <= max_bound,
        "max rank {} > {max_bound}",
        out.costs.max()
    );
}

#[test]
fn single_internal_queue_is_exact() {
    // m = 1 degenerates to an exact queue: every dequeue cost must be 0
    // in a single-threaded execution.
    let mq: MultiQueue<u64> = MultiQueue::new(1);
    let h = stamped_workload(&mq, 1, 2_000, 0xCC);
    let out = check_distributional(&PqSpec, &h);
    assert!(out.is_linearizable());
    assert_eq!(out.costs.max(), 0.0);
}

#[test]
fn more_queues_relax_more_but_stay_bounded() {
    // Rank quality degrades gracefully with m (cost scale is O(m)).
    let run = |m: usize| {
        let mq: MultiQueue<u64> = MultiQueue::new(m);
        let h = stamped_workload(&mq, 2, 8_000, 0xEE ^ m as u64);
        let out = check_distributional(&PqSpec, &h);
        assert!(out.is_linearizable());
        out.costs.mean()
    };
    let small = run(2);
    let large = run(64);
    assert!(
        large >= small,
        "mean rank with m=64 ({large}) should exceed m=2 ({small})"
    );
    assert!(large <= 4.0 * 64.0, "m=64 mean rank {large} out of scale");
}
