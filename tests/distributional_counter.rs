//! Cross-crate integration: the MultiCounter really is distributionally
//! linearizable to the relaxed counter process (Definition 5.2 made
//! executable).
//!
//! We record concurrent executions with update-point stamps, replay
//! them through the completed counter LTS, and check both the mapping
//! (every operation maps, order respected) and the cost distribution
//! (read deviations within the paper's O(m log m) scale).

use distlin::core::spec::{check_distributional, CounterOp, CounterSpec, History, Recorder};
use distlin::core::{ExactCounter, MultiCounter, RelaxedCounter};

/// Records a mixed increment/read workload over any RelaxedCounter.
fn record_workload<C: RelaxedCounter>(
    counter: &C,
    threads: usize,
    ops_per_thread: usize,
    read_every: usize,
) -> History<CounterOp> {
    let recorder = Recorder::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let recorder = &recorder;
            s.spawn(move || {
                let mut log = recorder.log(t);
                for k in 0..ops_per_thread {
                    if k % read_every == read_every - 1 {
                        log.record(|stamps| {
                            let v = counter.read();
                            // Update point of a read: the atomic load
                            // itself. Stamping right after it keeps the
                            // stamp inside the operation interval.
                            Some((CounterOp::Read { returned: v }, stamps.fetch_increment()))
                        });
                    } else {
                        log.record(|stamps| {
                            counter.increment();
                            Some((CounterOp::Inc, stamps.fetch_increment()))
                        });
                    }
                }
            });
        }
    });
    recorder.take_history()
}

#[test]
fn exact_counter_has_zero_read_cost_single_threaded() {
    let c = ExactCounter::new();
    let h = record_workload(&c, 1, 1000, 5);
    let out = check_distributional(&CounterSpec, &h);
    assert!(out.is_linearizable());
    assert_eq!(
        out.costs.max(),
        0.0,
        "single-threaded exact counter must incur no cost"
    );
}

#[test]
fn multicounter_is_distributionally_linearizable_single_threaded() {
    distlin::core::rng::reseed_thread_rng(11);
    let m = 16;
    let c = MultiCounter::new(m);
    let h = record_workload(&c, 1, 4000, 4);
    let out = check_distributional(&CounterSpec, &h);
    assert!(out.is_linearizable());
    // Lemma 6.8 scale with a generous constant.
    let bound = 6.0 * (m as f64) * (m as f64).ln();
    assert!(
        out.costs.max() <= bound,
        "max read deviation {} exceeds O(m log m) scale {bound}",
        out.costs.max()
    );
}

#[test]
fn multicounter_is_distributionally_linearizable_concurrent() {
    let m = 64;
    let c = MultiCounter::new(m);
    let h = record_workload(&c, 4, 10_000, 10);
    assert!(h.well_formed(), "stamp discipline");
    assert!(h.respects_real_time(), "real-time order");
    let out = check_distributional(&CounterSpec, &h);
    assert!(out.is_linearizable());
    // Stamps are taken just after the atomic update rather than inside
    // it, so the replay order can differ slightly from the true
    // fetch-add order; reads may additionally be relaxed by the
    // two-choice skew. Both effects stay within the O(m log m) scale
    // (times a generous constant).
    let bound = 8.0 * (m as f64) * (m as f64).ln() + 8.0 * 4.0;
    assert!(
        out.costs.max() <= bound,
        "max read deviation {} exceeds {bound}",
        out.costs.max()
    );
    // Mean deviation must be far below the max (tails are thin).
    assert!(out.costs.mean() <= bound / 4.0);
}

#[test]
fn dchoice_single_choice_still_maps_but_costs_more() {
    // d = 1 (random placement) is still distributionally linearizable —
    // to a *worse* distribution. The checker quantifies exactly that.
    distlin::core::rng::reseed_thread_rng(13);
    let m = 16;
    let one = MultiCounter::with_choices(m, 1);
    let two = MultiCounter::with_choices(m, 2);
    let h1 = record_workload(&one, 1, 30_000, 3);
    let h2 = record_workload(&two, 1, 30_000, 3);
    let o1 = check_distributional(&CounterSpec, &h1);
    let o2 = check_distributional(&CounterSpec, &h2);
    assert!(o1.is_linearizable());
    assert!(o2.is_linearizable());
    assert!(
        o1.costs.quantile(0.99) >= o2.costs.quantile(0.99),
        "one-choice p99 {} should be at least two-choice p99 {}",
        o1.costs.quantile(0.99),
        o2.costs.quantile(0.99)
    );
}

#[test]
fn cost_tail_decays() {
    // The w.h.p. claim in empirical form: the fraction of reads
    // deviating beyond k·m·log m decays sharply in k.
    let m = 32;
    let c = MultiCounter::new(m);
    let h = record_workload(&c, 2, 30_000, 3);
    let out = check_distributional(&CounterSpec, &h);
    assert!(out.is_linearizable());
    let unit = (m as f64) * (m as f64).ln();
    let t1 = out.costs.tail_mass(unit);
    let t4 = out.costs.tail_mass(4.0 * unit);
    assert!(t4 <= t1, "tail must be monotone");
    assert!(
        t4 < 0.01,
        "mass beyond 4·m·ln m should be negligible, got {t4}"
    );
}
