//! Quickstart: the MultiCounter and MultiQueue in five minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use distlin::core::rng::Xoshiro256;
use distlin::core::{MultiCounter, MultiQueue, RelaxedCounter};

fn main() {
    // ------------------------------------------------------------------
    // 1. A relaxed counter: 64 cells, two-choice increments.
    // ------------------------------------------------------------------
    let counter = MultiCounter::new(64);

    std::thread::scope(|s| {
        for t in 0..4 {
            let counter = &counter;
            s.spawn(move || {
                let mut rng = Xoshiro256::new(100 + t);
                for _ in 0..250_000 {
                    counter.increment_with(&mut rng);
                }
            });
        }
    });

    let exact = counter.read_exact();
    let approx = counter.read();
    println!("MultiCounter after 1M concurrent increments:");
    println!("  exact total     : {exact}");
    println!("  relaxed read    : {approx}");
    println!(
        "  absolute error  : {} (paper bound scale: m·ln m = {:.0})",
        approx.abs_diff(exact),
        64.0 * 64f64.ln()
    );
    println!(
        "  max cell gap    : {} (O(log m) by Theorem 6.1)\n",
        counter.max_gap()
    );
    assert_eq!(exact, 1_000_000, "increments are never lost");

    // ------------------------------------------------------------------
    // 2. A relaxed priority queue: 16 internal queues.
    // ------------------------------------------------------------------
    let mq: MultiQueue<&str> = MultiQueue::<&str>::builder().queues(16).build();
    // A handle packages the per-thread state (RNG + choice policy);
    // the default policy is the paper's fresh two-choice sampling.
    let mut h = mq.handle(7);
    let tasks = [
        (5u64, "write tests"),
        (1, "fix the build"),
        (3, "review PR"),
        (2, "triage bug"),
        (4, "update docs"),
    ];
    for (prio, task) in tasks {
        h.insert(prio, task);
    }
    println!("MultiQueue drain (approximately ascending priority):");
    while let Some((p, task)) = h.dequeue() {
        println!("  [{p}] {task}");
    }
    println!();
    println!("Every element comes out exactly once; the *order* is relaxed,");
    println!("with dequeue rank O(m) in expectation (Theorem 7.1).");
}
