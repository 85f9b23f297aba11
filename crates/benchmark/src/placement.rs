//! Are the two workers on distinct cores right now?
//!
//! On a 2-vCPU guest the hypervisor decides which physical cores the
//! vCPUs run on, and now and then — for seconds to a minute — it puts
//! both on one core's hyperthreads. Handing a cache line between the
//! workers then costs ~20 ns instead of ~70 ns, and every contended
//! workload runs up to 2.4× *faster* (`mq-balanced`: 11 Mops instead of
//! 4.9). That is a different machine, not a noisy sample of the same
//! one, so samples taken in that state are not comparable. The gate
//! measures the hand-off cost directly and holds a sample back until
//! the cores are distinct; a sample that ends in the shared state is
//! run again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A line hand-off faster than this means the two threads share a
/// core: cross-core hand-offs cost 40–150 ns on current x86 servers,
/// hyperthread siblings 10–30 ns.
pub const SHARED_CORE_HOP_NS: f64 = 40.0;

/// Longest the gate holds samples back over a whole run. A host whose
/// vCPUs always share a core must still be measurable, flagged.
const WAIT_BUDGET: Duration = Duration::from_secs(30);
/// Samples a run may discard for ending in the shared state.
const DISCARD_BUDGET: u32 = 3;

#[repr(align(128))]
struct Line(AtomicU64);

/// Nanoseconds for one cache line to change hands between two threads:
/// they alternate incrementing one word. The minimum of three short
/// bursts, so a descheduled thread cannot inflate it.
pub fn line_hop_ns() -> f64 {
    const HOPS: u64 = 4_000;
    (0..3)
        .map(|_| {
            let line = Line(AtomicU64::new(0));
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for me in 0..2u64 {
                    let word = &line.0;
                    s.spawn(move || {
                        for turn in (me..HOPS).step_by(2) {
                            let mut spins = 0u32;
                            while word.load(Ordering::Acquire) != turn {
                                std::hint::spin_loop();
                                // On one core the partner only runs
                                // when this thread steps aside.
                                spins += 1;
                                if spins.is_multiple_of(4_096) {
                                    std::thread::yield_now();
                                }
                            }
                            word.store(turn + 1, Ordering::Release);
                        }
                    });
                }
            });
            t0.elapsed().as_nanos() as f64 / HOPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Holds samples back while the workers share a core.
#[derive(Debug, Default)]
pub struct Gate {
    /// Time spent waiting for distinct cores.
    pub waited: Duration,
    /// Samples discarded because they ended in the shared state.
    pub discarded: u32,
    /// The wait budget ran out: later samples were taken ungated.
    pub gave_up: bool,
    /// Hand-off cost at the latest probe.
    pub hop_ns: f64,
}

impl Gate {
    /// A gate that never holds anything back (smoke runs).
    pub fn open() -> Gate {
        Gate {
            gave_up: true,
            ..Gate::default()
        }
    }

    fn shared(&mut self) -> bool {
        self.hop_ns = line_hop_ns();
        self.hop_ns < SHARED_CORE_HOP_NS
    }

    /// Returns once the workers' cores are distinct, or the wait budget
    /// is spent.
    pub fn wait_distinct(&mut self) {
        while !self.gave_up && self.shared() {
            if self.waited >= WAIT_BUDGET {
                self.gave_up = true;
                eprintln!(
                    "  placement: workers still share a core after {:?}; measuring anyway",
                    self.waited
                );
                return;
            }
            let nap = Duration::from_millis(200);
            std::thread::sleep(nap);
            self.waited += nap;
        }
    }

    /// After a sample: `true` if it must be run again because the
    /// workers ended up sharing a core while it ran.
    pub fn must_discard(&mut self) -> bool {
        if self.gave_up || self.discarded >= DISCARD_BUDGET || !self.shared() {
            return false;
        }
        self.discarded += 1;
        eprintln!(
            "  placement: hand-off {:.0} ns after the sample, workers share a core; sample discarded",
            self.hop_ns
        );
        true
    }

    /// One line for the result: what the gate saw and did.
    pub fn note(&self) -> String {
        format!(
            "placement: hand-off {:.0} ns, waited {:.1} s, discarded {} samples{}",
            self.hop_ns,
            self.waited.as_secs_f64(),
            self.discarded,
            if self.gave_up { ", ungated" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_changes_hands_in_a_plausible_time() {
        let hop = line_hop_ns();
        assert!(hop.is_finite() && hop > 0.5 && hop < 1e7, "hop {hop} ns");
    }

    #[test]
    fn an_exhausted_gate_stops_gating() {
        let mut g = Gate::open();
        g.wait_distinct();
        assert!(!g.must_discard());
        assert_eq!(g.waited, Duration::ZERO);
        assert!(g.note().contains("ungated"));
    }
}
