//! Single-source shortest paths with a relaxed priority queue.
//!
//! The paper's introduction motivates relaxed structures with graph
//! processing (\[24\], \[14\]): priority-order relaxation costs some wasted
//! work but removes the scheduler bottleneck. This example runs a
//! label-correcting SSSP (Dijkstra that tolerates out-of-order pops)
//! over a random graph with
//!
//! * an exact coarse-locked priority queue, and
//! * a MultiQueue,
//!
//! verifies both produce identical distances, and reports how much
//! extra (wasted) work the relaxation caused — the application-level
//! price of O(m)-rank relaxation, which is typically tiny.
//!
//! ```text
//! cargo run --release --example graph_sssp
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use distlin::core::rng::{Rng64, Xoshiro256};
use distlin::core::MultiQueue;
use distlin::pq::{BinaryHeap, ConcurrentPq, LockedPq};

/// Compressed sparse row graph with u32 weights.
struct Graph {
    offsets: Vec<usize>,
    edges: Vec<(u32, u32)>, // (target, weight)
}

impl Graph {
    /// Random graph: `n` nodes, ~`deg` out-edges each, weights 1..=100.
    fn random(n: usize, deg: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (u, out) in adj.iter_mut().enumerate() {
            for _ in 0..deg {
                let v = rng.bounded(n as u64) as u32;
                let w = 1 + rng.bounded(100) as u32;
                out.push((v, w));
            }
            // A ring edge keeps the graph connected.
            let next = ((u + 1) % n) as u32;
            out.push((next, 1 + rng.bounded(100) as u32));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for out in adj {
            edges.extend(out);
            offsets.push(edges.len());
        }
        Graph { offsets, edges }
    }

    fn neighbours(&self, u: usize) -> &[(u32, u32)] {
        &self.edges[self.offsets[u]..self.offsets[u + 1]]
    }

    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Label-correcting SSSP: pops may arrive out of priority order; stale
/// entries (dist greater than the current best) are skipped. Correct
/// for any pop order, so it works with exact and relaxed queues alike.
fn sssp<Q>(graph: &Graph, source: usize, queue: &Q, threads: usize) -> (Vec<u64>, u64, f64)
where
    Q: ConcurrentPq<u32> + Sync,
{
    let n = graph.num_nodes();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    dist[source].store(0, Ordering::Relaxed);
    queue.insert(0, source as u32);
    let in_flight = AtomicUsize::new(1);
    let wasted = AtomicU64::new(0);

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let dist = &dist;
            let in_flight = &in_flight;
            let wasted = &wasted;
            s.spawn(move || loop {
                match queue.remove_min() {
                    Some((d, u)) => {
                        let u = u as usize;
                        if d > dist[u].load(Ordering::Relaxed) {
                            // Stale entry: superseded by a better path.
                            wasted.fetch_add(1, Ordering::Relaxed);
                        } else {
                            for &(v, w) in graph.neighbours(u) {
                                let v = v as usize;
                                let nd = d + w as u64;
                                // Relax edge with a CAS loop.
                                let mut cur = dist[v].load(Ordering::Relaxed);
                                while nd < cur {
                                    match dist[v].compare_exchange_weak(
                                        cur,
                                        nd,
                                        Ordering::Relaxed,
                                        Ordering::Relaxed,
                                    ) {
                                        Ok(_) => {
                                            in_flight.fetch_add(1, Ordering::AcqRel);
                                            queue.insert(nd, v as u32);
                                            break;
                                        }
                                        Err(now) => cur = now,
                                    }
                                }
                            }
                        }
                        in_flight.fetch_sub(1, Ordering::AcqRel);
                    }
                    None => {
                        // Queue observed empty: done only if no work in flight.
                        if in_flight.load(Ordering::Acquire) == 0 {
                            return;
                        }
                        std::hint::spin_loop();
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    (
        dist.into_iter().map(|d| d.into_inner()).collect(),
        wasted.into_inner(),
        elapsed,
    )
}

fn main() {
    let n = 100_000;
    let threads = 4;
    let graph = Graph::random(n, 8, 0xBEEF);
    println!(
        "SSSP on a random graph: {n} nodes, ~{} edges, {threads} threads\n",
        graph.edges.len()
    );

    let exact: LockedPq<u32> = LockedPq::new(BinaryHeap::with_capacity(n));
    let (d_exact, wasted_exact, t_exact) = sssp(&graph, 0, &exact, threads);
    println!("  exact coarse PQ : {t_exact:.3}s, {wasted_exact} stale pops");

    let relaxed: MultiQueue<u32> = MultiQueue::new(8 * threads);
    let (d_relaxed, wasted_relaxed, t_relaxed) = sssp(&graph, 0, &relaxed, threads);
    println!("  MultiQueue      : {t_relaxed:.3}s, {wasted_relaxed} stale pops");

    assert_eq!(d_exact, d_relaxed, "relaxation must not change distances");
    let reachable = d_exact.iter().filter(|&&d| d != u64::MAX).count();
    println!("\n  distances identical for all {reachable} reachable nodes ✓");
    println!("  speedup: {:.2}x", t_exact / t_relaxed);
    println!("\nInterpretation: the relaxed queue does slightly more work (stale pops)");
    println!("but removes the single-lock bottleneck; correctness is untouched because");
    println!("label-correcting SSSP tolerates out-of-order processing.");
}
