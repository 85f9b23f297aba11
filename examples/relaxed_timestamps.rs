//! Relaxed timestamps: using a MultiCounter as a scalable clock.
//!
//! The Section 8 idea in isolation: threads draw timestamps from (a) a
//! fetch-and-add clock (exact, contended) and (b) a MultiCounter tick —
//! one increment whose first probe, times `m`, is the timestamp, as
//! `dlz_stm::RelaxedClock` stamps commits (relaxed, scalable). We
//! measure throughput and *skew* — how far timestamp order deviates
//! from real-time order — the quantity the TL2 integration budgets for
//! with its Δ margin.
//!
//! ```text
//! cargo run --release --example relaxed_timestamps
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use distlin::core::rng::with_thread_rng;
use distlin::core::{ExactCounter, MultiCounter};
use distlin::stm::RelaxedClock;

/// Stamps events with `tick` for `dur`, returning (timestamps in issue
/// order per thread, total count).
fn stamp_events(
    tick: impl Fn() -> u64 + Sync,
    threads: usize,
    dur: Duration,
) -> (Vec<Vec<u64>>, u64) {
    let stop = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tick = &tick;
                let stop = &stop;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        mine.push(tick());
                    }
                    mine
                })
            })
            .collect();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let total = out.iter().map(|v| v.len() as u64).sum();
    (out, total)
}

/// Largest backward jump within any single thread's timestamp stream —
/// zero for an exact clock; bounded by the counter skew for a relaxed
/// one.
fn max_per_thread_inversion(streams: &[Vec<u64>]) -> u64 {
    streams
        .iter()
        .flat_map(|ts| ts.windows(2).map(|w| w[0].saturating_sub(w[1])))
        .max()
        .unwrap_or(0)
}

fn main() {
    let threads = 4;
    let dur = Duration::from_millis(500);

    println!("Timestamping with {threads} threads for {dur:?}:\n");

    let faa = ExactCounter::new();
    let t0 = Instant::now();
    let (streams, total) = stamp_events(|| faa.fetch_increment(), threads, dur);
    let faa_rate = total as f64 / t0.elapsed().as_secs_f64() / 1e6;
    let faa_inv = max_per_thread_inversion(&streams);
    println!("  FAA clock        : {faa_rate:.2} M stamps/s, max per-thread inversion {faa_inv}");

    let m = 8 * threads;
    let mc = MultiCounter::new(m);
    let t0 = Instant::now();
    let tick = || with_thread_rng(|rng| mc.increment_sampled(rng));
    let (streams, total) = stamp_events(tick, threads, dur);
    let mc_rate = total as f64 / t0.elapsed().as_secs_f64() / 1e6;
    let mc_inv = max_per_thread_inversion(&streams);
    println!("  MultiCounter (m={m}): {mc_rate:.2} M stamps/s, max per-thread inversion {mc_inv}");

    let delta = RelaxedClock::suggested_delta(m, 4.0);
    println!("\n  speedup: {:.2}x", mc_rate / faa_rate);
    println!(
        "  suggested Δ margin for m={m}: {delta} (4·m·ln m; observed skew should sit well below)"
    );
    println!("  final counter gap: {}", mc.max_gap());
    assert!(
        mc_inv <= delta,
        "observed inversion {mc_inv} exceeded the suggested Δ {delta}"
    );
    println!("\nInterpretation: the relaxed clock gives up perfect ordering (inversion 0)");
    println!("but keeps the inversion within the O(m log m) budget that the TL2");
    println!("integration absorbs with Δ. Whether it also wins on raw throughput depends");
    println!("on the core count: a lone FAA is fast until enough cores fight over its");
    println!("cache line (the paper's 24-thread machine; see fig1a for the trend).");
}
