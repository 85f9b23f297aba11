//! Simulated-client traffic frontend: open-loop arrival scheduling for
//! 100k–1M logical clients over a small worker pool.
//!
//! The paper's motivating setting is massive fan-in — far more logical
//! clients than hardware threads. A thread-per-worker engine cannot
//! express that: "open loop" degenerates to a handful of pacing
//! threads, and latency sampled at op-issue time hides queueing delay
//! entirely (the classic *coordinated omission* artifact). This module
//! makes clients first-class:
//!
//! * Each worker owns a contiguous shard of the client population and
//!   schedules their arrivals through a hierarchical
//!   [`dlz_sim::TimerWheel`] — O(1) per event, pop order a
//!   pure function of the seeded schedule, so fixed-op client runs are
//!   bit-reproducible.
//! * Each client carries its own session state (event counter), its own
//!   seeded arrival process (an [`ArrivalShape`]: Poisson, periodic,
//!   bursty, diurnal curve, flash crowd — or self-paced, the closed
//!   loop as a degenerate shape), and its own op-mix stream. Per-event
//!   randomness is *stateless* — a SplitMix64 hash of (client seed,
//!   event index) — so a million clients cost no per-client RNG state.
//! * The driver takes arrivals off the wheel in *runs* (see
//!   `drive_clients` in [`engine`](crate::engine)): one admit step pops
//!   an arrival, draws its op kind and — for every open-loop shape —
//!   schedules the client's next arrival on the spot, since that depends
//!   only on this arrival's intended time. The wheel therefore sees the
//!   same `pop, schedule, pop, schedule, …` sequence whether the worker
//!   admits one arrival or thirty-two before it issues any, and the
//!   schedule digest cannot tell. An arrival counts as delivered
//!   (`arrivals`, `active`) when its op is issued, not when admitted.
//! * Latency is measured from the **intended** arrival time and split
//!   into queueing (intended → issue) and service (issue → completion)
//!   components; the total (intended → completion) feeds the run's main
//!   latency histogram. Queueing delay under overload is therefore
//!   *visible* in the percentiles instead of silently omitted.
//!
//! The engine activates this driver for any scenario with
//! [`clients`](crate::Scenario::clients) > 0. One client per worker
//! (`clients == threads`) is the classic open loop: each worker paces
//! itself by one arrival process.

use dlz_core::rng::{Rng64, SplitMix64};
use dlz_sim::TimerWheel;

use crate::metrics::{LatencySummary, LogHistogram};

/// Default level-0 slot width for the arrival wheel: ~65 µs covers
/// 16.7 ms at level 0 and 4.3 s at level 1 — interarrival gaps are
/// capped at 1 s, so cascades from overflow are rare.
const WHEEL_SLOT_NS: u64 = 65_536;

/// A per-client arrival process, seeded and stateless: the intended
/// time of a client's next arrival is a pure function of (client seed,
/// event index, previous intended time).
///
/// Rates are per client, in arrivals per second. Interarrival gaps are
/// capped at 1 s so a mis-set rate cannot hang a fixed-op run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalShape {
    /// Closed loop: a client's next arrival follows the completion of
    /// its previous op and is intended at the instant its op is issued,
    /// so queueing delay is identically zero — by construction, whatever
    /// the driver's clock-read cadence (`latency_every`). This is the
    /// legacy closed-loop engine as a degenerate shape.
    #[default]
    SelfPaced,
    /// Memoryless arrivals at `rate` per second.
    Poisson {
        /// Arrivals per second per client.
        rate: f64,
    },
    /// Fixed-period arrivals at `rate` per second, with a per-client
    /// uniform phase so a million periodic clients do not thunder.
    Periodic {
        /// Arrivals per second per client.
        rate: f64,
    },
    /// Bursts of `burst` arrivals sharing one intended instant, burst
    /// starts spaced drift-free at `burst / rate` seconds (so the
    /// long-run rate is still `rate`), phase per client.
    Bursty {
        /// Long-run arrivals per second per client.
        rate: f64,
        /// Arrivals per burst.
        burst: u32,
    },
    /// A diurnal load curve: Poisson arrivals whose rate is modulated
    /// sinusoidally, `rate · (1 + 0.8·sin(2πt/period))` — peak 1.8×,
    /// trough 0.2× of the base rate.
    Diurnal {
        /// Base arrivals per second per client.
        rate: f64,
        /// Period of one load cycle, in milliseconds of virtual time.
        period_ms: u64,
    },
    /// A flash crowd: Poisson at `rate`, except `factor`× during the
    /// window `[at_ms, at_ms + len_ms)` of virtual time.
    Flash {
        /// Baseline arrivals per second per client.
        rate: f64,
        /// Rate multiplier inside the flash window.
        factor: f64,
        /// Window start, milliseconds of virtual time from run begin.
        at_ms: u64,
        /// Window length in milliseconds.
        len_ms: u64,
    },
}

/// A uniform draw in `[0, 1)` from 64 hash bits.
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stateless per-(client, event) hash: event `e` of a client seeded
/// `cs` draws the `e`-th output of SplitMix64(cs).
#[inline]
fn event_bits(client_seed: u64, event: u64) -> u64 {
    SplitMix64::new(client_seed.wrapping_add(event.wrapping_mul(0x9e3779b97f4a7c15))).next_u64()
}

/// The per-client seed: one hash of (run seed, global client id).
#[inline]
pub(crate) fn client_seed(run_seed: u64, client_id: u64) -> u64 {
    SplitMix64::new(run_seed ^ (client_id + 1).wrapping_mul(0xbf58476d1ce4e5b9)).next_u64()
}

/// Exponential gap at `rate`/s from a unit draw, in ns, capped at 1 s
/// (the same discipline the closed-path op sampler uses).
#[inline]
fn exp_gap_ns(u: f64, rate: f64) -> u64 {
    let secs = (-(1.0 - u).ln()) / rate.max(1e-3);
    (secs.min(1.0) * 1e9) as u64
}

/// A deterministic gap of `1/rate` seconds in ns, capped at 1 s.
#[inline]
fn fixed_gap_ns(rate: f64) -> u64 {
    ((1.0 / rate.max(1e-3)).min(1.0) * 1e9) as u64
}

impl ArrivalShape {
    /// Short label used in sweep-cell names and grid coordinates.
    pub fn label(&self) -> String {
        match *self {
            ArrivalShape::SelfPaced => "self-paced".to_string(),
            ArrivalShape::Poisson { rate } => format!("poisson({rate}/s)"),
            ArrivalShape::Periodic { rate } => format!("periodic({rate}/s)"),
            ArrivalShape::Bursty { rate, burst } => format!("bursty({rate}/s,x{burst})"),
            ArrivalShape::Diurnal { rate, period_ms } => {
                format!("diurnal({rate}/s,{period_ms}ms)")
            }
            ArrivalShape::Flash {
                rate,
                factor,
                at_ms,
                len_ms,
            } => format!("flash({rate}/s,x{factor},@{at_ms}ms+{len_ms}ms)"),
        }
    }

    /// Parses the CLI grammar: `self-paced`, `poisson:RATE`,
    /// `periodic:RATE`, `bursty:RATE:BURST`, `diurnal:RATE:PERIOD_MS`,
    /// `flash:RATE:FACTOR:AT_MS:LEN_MS`. Rates are per client per
    /// second and must be positive.
    pub fn parse(s: &str) -> Result<ArrivalShape, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let bad = |what: &str| format!("arrival shape '{s}': {what}");
        let rate = |field: &str| -> Result<f64, String> {
            let r: f64 = field
                .trim()
                .parse()
                .map_err(|_| bad(&format!("'{field}' is not a rate")))?;
            if !(r.is_finite() && r > 0.0) {
                return Err(bad("rate must be a positive number"));
            }
            Ok(r)
        };
        let int = |field: &str, what: &str| -> Result<u64, String> {
            field
                .trim()
                .parse()
                .map_err(|_| bad(&format!("'{field}' is not {what}")))
        };
        match (parts[0].trim(), parts.len()) {
            ("self-paced", 1) => Ok(ArrivalShape::SelfPaced),
            ("poisson", 2) => Ok(ArrivalShape::Poisson {
                rate: rate(parts[1])?,
            }),
            ("periodic", 2) => Ok(ArrivalShape::Periodic {
                rate: rate(parts[1])?,
            }),
            ("bursty", 3) => {
                let burst = int(parts[2], "a burst size")?;
                if burst == 0 || burst > u32::MAX as u64 {
                    return Err(bad("burst must be in 1..=u32::MAX"));
                }
                Ok(ArrivalShape::Bursty {
                    rate: rate(parts[1])?,
                    burst: burst as u32,
                })
            }
            ("diurnal", 3) => Ok(ArrivalShape::Diurnal {
                rate: rate(parts[1])?,
                period_ms: int(parts[2], "a period in ms")?.max(1),
            }),
            ("flash", 5) => {
                let factor: f64 = parts[2]
                    .trim()
                    .parse()
                    .map_err(|_| bad(&format!("'{}' is not a factor", parts[2])))?;
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(bad("factor must be a number ≥ 1"));
                }
                Ok(ArrivalShape::Flash {
                    rate: rate(parts[1])?,
                    factor,
                    at_ms: int(parts[3], "a window start in ms")?,
                    len_ms: int(parts[4], "a window length in ms")?.max(1),
                })
            }
            _ => Err(bad(
                "expected self-paced | poisson:RATE | periodic:RATE | bursty:RATE:BURST \
                 | diurnal:RATE:PERIOD_MS | flash:RATE:FACTOR:AT_MS:LEN_MS",
            )),
        }
    }

    /// Instantaneous rate at virtual time `t_ns` (1.0 placeholder for
    /// shapes without a rate).
    fn rate_at(&self, t_ns: u64) -> f64 {
        match *self {
            ArrivalShape::SelfPaced => 1.0,
            ArrivalShape::Poisson { rate } | ArrivalShape::Periodic { rate } => rate,
            ArrivalShape::Bursty { rate, .. } => rate,
            ArrivalShape::Diurnal { rate, period_ms } => {
                let period = period_ms.max(1) as f64 * 1e6;
                let phase = (t_ns as f64 / period) * std::f64::consts::TAU;
                rate * (1.0 + 0.8 * phase.sin())
            }
            ArrivalShape::Flash {
                rate,
                factor,
                at_ms,
                len_ms,
            } => {
                let (start, end) = (at_ms * 1_000_000, (at_ms + len_ms) * 1_000_000);
                if (start..end).contains(&t_ns) {
                    rate * factor
                } else {
                    rate
                }
            }
        }
    }

    /// Intended virtual time (ns) of a client's `event`-th arrival,
    /// given the intended time of the previous one (`0` for event 0).
    /// `None` for [`SelfPaced`](ArrivalShape::SelfPaced): the driver
    /// reschedules at completion time instead.
    pub(crate) fn next_ns(&self, client_seed: u64, event: u64, prev_ns: u64) -> Option<u64> {
        match *self {
            ArrivalShape::SelfPaced => None,
            ArrivalShape::Poisson { rate } => {
                Some(prev_ns + exp_gap_ns(unit(event_bits(client_seed, event)), rate))
            }
            ArrivalShape::Periodic { rate } => {
                let period = fixed_gap_ns(rate);
                if event == 0 {
                    Some((unit(event_bits(client_seed, 0)) * period as f64) as u64)
                } else {
                    Some(prev_ns + period)
                }
            }
            ArrivalShape::Bursty { rate, burst } => {
                // Drift-free: burst k is intended at phase + k·gap, and
                // every arrival of a burst shares that instant.
                let b = burst.max(1) as u64;
                let gap = ((b as f64 / rate.max(1e-3)).min(1.0) * 1e9) as u64;
                let phase = (unit(event_bits(client_seed, u64::MAX)) * gap as f64) as u64;
                Some(phase + (event / b) * gap)
            }
            ArrivalShape::Diurnal { .. } | ArrivalShape::Flash { .. } => {
                let u = unit(event_bits(client_seed, event));
                Some(prev_ns + exp_gap_ns(u, self.rate_at(prev_ns)))
            }
        }
    }

    /// The per-client op-kind draw for `event`: a uniform index in
    /// `0..total` from the client's kind stream (independent of the
    /// arrival-time stream by construction).
    #[inline]
    fn kind_draw(client_seed: u64, event: u64, total: u64) -> u32 {
        let bits = event_bits(client_seed ^ 0xa5a5_a5a5_5a5a_5a5a, event);
        (((bits as u128) * (total as u128)) >> 64) as u32
    }
}

/// Caller-owned measurement state for one worker's client shard. Lives
/// *outside* the engine's panic harness (like `WorkerMetrics`), so a
/// fault-killed worker's partial client telemetry survives and merges.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    /// Intended-arrival → op-issue delay distribution.
    pub queueing: LogHistogram,
    /// Op-issue → completion delay distribution.
    pub service: LogHistogram,
    /// Arrivals delivered (ops issued through the wheel).
    pub arrivals: u64,
    /// Arrival events scheduled (delivered or still pending).
    pub scheduled: u64,
    /// Distinct clients that had at least one arrival delivered.
    pub active: u64,
    /// Largest observed arrival backlog (arrivals past their intended
    /// time but not yet issued), sampled at a coarse cadence.
    pub backlog_max: u64,
    /// Order-sensitive digest of the worker's arrival schedule — every
    /// `(client id, intended ns)` pair folded in schedule order. Equal
    /// digests ⇒ bit-identical schedules.
    pub digest: u64,
}

impl ClientStats {
    /// Folds one scheduled arrival into the schedule digest.
    #[inline]
    fn note_scheduled(&mut self, client_id: u64, at_ns: u64) {
        self.scheduled += 1;
        self.digest = SplitMix64::new(
            self.digest
                ^ client_id.wrapping_mul(0x9e3779b97f4a7c15)
                ^ at_ns.wrapping_mul(0xbf58476d1ce4e5b9),
        )
        .next_u64();
    }

    /// Merges another worker's stats (worker order is deterministic, so
    /// the folded digest is too).
    pub fn merge(&mut self, other: &ClientStats) {
        self.queueing.merge(&other.queueing);
        self.service.merge(&other.service);
        self.arrivals += other.arrivals;
        self.scheduled += other.scheduled;
        self.active += other.active;
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.digest = SplitMix64::new(self.digest.rotate_left(17) ^ other.digest).next_u64();
    }
}

/// One worker's shard of the client population: the arrival wheel plus
/// per-client session state. Scheduling state only — all measurement
/// goes through the caller-owned [`ClientStats`].
pub(crate) struct ClientSet {
    shape: ArrivalShape,
    wheel: TimerWheel<u32>,
    /// Per-local-client next event index.
    next_event: Vec<u64>,
    /// Served bitmap (drives `ClientStats::active`).
    served: Vec<u64>,
    /// Global id of local client 0.
    first_id: u64,
    run_seed: u64,
}

impl ClientSet {
    /// Builds worker `worker`'s shard of `total` clients (contiguous,
    /// near-even split across `threads` workers) and schedules every
    /// client's first arrival.
    pub(crate) fn new(
        shape: ArrivalShape,
        total: usize,
        worker: usize,
        threads: usize,
        run_seed: u64,
        stats: &mut ClientStats,
    ) -> Self {
        let lo = (total * worker / threads) as u64;
        let hi = (total * (worker + 1) / threads) as u64;
        let n = (hi - lo) as usize;
        let mut set = ClientSet {
            shape,
            wheel: TimerWheel::new(WHEEL_SLOT_NS),
            next_event: vec![1; n],
            served: vec![0; n.div_ceil(64)],
            first_id: lo,
            run_seed,
        };
        for local in 0..n {
            let id = lo + local as u64;
            let first = shape.next_ns(client_seed(run_seed, id), 0, 0).unwrap_or(0);
            set.wheel.schedule(first, local as u32);
            stats.note_scheduled(id, first);
        }
        set
    }

    /// `true` when the arrival the next [`admit`](Self::admit) will
    /// return was intended at or before `now_ns`.
    #[inline]
    pub(crate) fn next_is_due(&mut self, now_ns: u64) -> bool {
        self.wheel.peek_at().is_some_and(|at| at <= now_ns)
    }

    /// Admits the earliest pending arrival as `(intended_ns, local
    /// client index, op-kind draw in 0..mix_total)` — one hash of the
    /// client's seed serves both its kind stream and its arrival
    /// stream. Unless the shape is self-paced the client's next arrival
    /// is scheduled here too: it depends only on this one's intended
    /// time, so the wheel sees `pop, schedule, pop, schedule, …`
    /// however many arrivals the driver admits before it issues any.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        mix_total: u64,
        stats: &mut ClientStats,
    ) -> Option<(u64, u32, u32)> {
        let (at_ns, local) = self.wheel.pop()?;
        let seed = client_seed(self.run_seed, self.first_id + local as u64);
        let event = self.next_event[local as usize];
        let kind = ArrivalShape::kind_draw(seed, event - 1, mix_total);
        if let Some(next_ns) = self.shape.next_ns(seed, event, at_ns) {
            self.schedule(local, next_ns, stats);
        }
        Some((at_ns, local, kind))
    }

    /// Schedules the client's next arrival at `at_ns`. The driver calls
    /// this itself only for self-paced clients, at completion time.
    #[inline]
    pub(crate) fn schedule(&mut self, local: u32, at_ns: u64, stats: &mut ClientStats) {
        self.next_event[local as usize] += 1;
        self.wheel.schedule(at_ns, local);
        stats.note_scheduled(self.first_id + local as u64, at_ns);
    }

    /// Counts an admitted arrival as delivered. Called when its op is
    /// issued, not when it is admitted, so a worker that dies holding
    /// admitted arrivals still reports one arrival per issued op.
    #[inline]
    pub(crate) fn note_issued(&mut self, local: u32, stats: &mut ClientStats) {
        stats.arrivals += 1;
        let (word, bit) = (local as usize / 64, local as usize % 64);
        if self.served[word] & (1 << bit) == 0 {
            self.served[word] |= 1 << bit;
            stats.active += 1;
        }
    }

    /// Arrivals past their intended time but not yet delivered.
    pub(crate) fn backlog(&self, now_ns: u64) -> u64 {
        self.wheel.due_len(now_ns) as u64
    }

    /// Clients in this shard.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.next_event.len()
    }
}

/// The `clients` section of a [`RunReport`](crate::RunReport):
/// population, arrival accounting, and the queueing/service latency
/// split, merged across workers.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Simulated clients in the scenario.
    pub clients: u64,
    /// Arrival shape label.
    pub shape: String,
    /// Distinct clients that had at least one arrival delivered.
    pub active: u64,
    /// Arrivals delivered (= ops issued through the client driver).
    pub arrivals: u64,
    /// Largest sampled arrival backlog.
    pub backlog_max: u64,
    /// Intended-arrival → issue delay percentiles.
    pub queueing_ns: LatencySummary,
    /// Issue → completion delay percentiles.
    pub service_ns: LatencySummary,
    /// Deterministic digest of the full arrival schedule.
    pub arrival_digest: u64,
}

impl ClientReport {
    /// Builds the report section from merged worker stats.
    pub(crate) fn from_stats(clients: u64, shape: &ArrivalShape, stats: &ClientStats) -> Self {
        ClientReport {
            clients,
            shape: shape.label(),
            active: stats.active,
            arrivals: stats.arrivals,
            backlog_max: stats.backlog_max,
            queueing_ns: LatencySummary::from(&stats.queueing),
            service_ns: LatencySummary::from(&stats.service),
            arrival_digest: stats.digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArrivalShape::SelfPaced.label(), "self-paced");
        assert_eq!(
            ArrivalShape::Poisson { rate: 50.0 }.label(),
            "poisson(50/s)"
        );
        assert_eq!(
            ArrivalShape::Bursty {
                rate: 320.0,
                burst: 64
            }
            .label(),
            "bursty(320/s,x64)"
        );
        assert_eq!(
            ArrivalShape::Diurnal {
                rate: 20.0,
                period_ms: 200
            }
            .label(),
            "diurnal(20/s,200ms)"
        );
        assert_eq!(
            ArrivalShape::Flash {
                rate: 5.0,
                factor: 20.0,
                at_ms: 50,
                len_ms: 50
            }
            .label(),
            "flash(5/s,x20,@50ms+50ms)"
        );
    }

    #[test]
    fn parse_grammar_roundtrips_semantics() {
        assert_eq!(
            ArrivalShape::parse("self-paced"),
            Ok(ArrivalShape::SelfPaced)
        );
        assert_eq!(
            ArrivalShape::parse("poisson:50"),
            Ok(ArrivalShape::Poisson { rate: 50.0 })
        );
        assert_eq!(
            ArrivalShape::parse("periodic:10.5"),
            Ok(ArrivalShape::Periodic { rate: 10.5 })
        );
        assert_eq!(
            ArrivalShape::parse("bursty:320:64"),
            Ok(ArrivalShape::Bursty {
                rate: 320.0,
                burst: 64
            })
        );
        assert_eq!(
            ArrivalShape::parse("diurnal:20:200"),
            Ok(ArrivalShape::Diurnal {
                rate: 20.0,
                period_ms: 200
            })
        );
        assert_eq!(
            ArrivalShape::parse("flash:5:20:50:50"),
            Ok(ArrivalShape::Flash {
                rate: 5.0,
                factor: 20.0,
                at_ms: 50,
                len_ms: 50
            })
        );
        for bad in [
            "",
            "poisson",
            "poisson:0",
            "poisson:-1",
            "poisson:nope",
            "bursty:10:0",
            "flash:5:0.5:0:10",
            "warp:9",
            "periodic:inf",
        ] {
            assert!(ArrivalShape::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let shape = ArrivalShape::Poisson { rate: 100.0 };
        let walk = |seed: u64| -> Vec<u64> {
            let cs = client_seed(seed, 7);
            let mut prev = 0;
            (0..64)
                .map(|e| {
                    prev = shape.next_ns(cs, e, prev).unwrap();
                    prev
                })
                .collect()
        };
        assert_eq!(walk(1), walk(1));
        assert_ne!(walk(1), walk(2));
    }

    #[test]
    fn poisson_gaps_have_the_right_mean() {
        let shape = ArrivalShape::Poisson { rate: 1_000.0 };
        let mut prev = 0u64;
        let cs = client_seed(0xfeed, 0);
        let n = 20_000u64;
        for e in 0..n {
            prev = shape.next_ns(cs, e, prev).unwrap();
        }
        // Mean gap should be ~1ms = 1e6 ns.
        let mean = prev as f64 / n as f64;
        assert!((0.9e6..1.1e6).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn bursty_shares_intended_instants() {
        let shape = ArrivalShape::Bursty {
            rate: 64_000.0,
            burst: 64,
        };
        let cs = client_seed(3, 3);
        let t0 = shape.next_ns(cs, 0, 0).unwrap();
        for e in 1..64 {
            assert_eq!(shape.next_ns(cs, e, t0).unwrap(), t0, "event {e}");
        }
        // Next burst starts exactly one gap (64/64k s = 1ms) later.
        assert_eq!(shape.next_ns(cs, 64, t0).unwrap(), t0 + 1_000_000);
    }

    #[test]
    fn flash_window_multiplies_the_rate() {
        let shape = ArrivalShape::Flash {
            rate: 10.0,
            factor: 100.0,
            at_ms: 10,
            len_ms: 5,
        };
        assert_eq!(shape.rate_at(0), 10.0);
        assert_eq!(shape.rate_at(12_000_000), 1_000.0);
        assert_eq!(shape.rate_at(15_000_000), 10.0);
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let shape = ArrivalShape::Diurnal {
            rate: 100.0,
            period_ms: 100,
        };
        let quarter = shape.rate_at(25_000_000); // sin peak
        let three_quarter = shape.rate_at(75_000_000); // sin trough
        assert!((quarter - 180.0).abs() < 1.0, "{quarter}");
        assert!((three_quarter - 20.0).abs() < 1.0, "{three_quarter}");
    }

    #[test]
    fn client_set_shards_evenly_and_digests_differ_by_seed() {
        let shape = ArrivalShape::Poisson { rate: 50.0 };
        let mut sizes = 0;
        for worker in 0..3 {
            let mut stats = ClientStats::default();
            let set = ClientSet::new(shape, 1_000, worker, 3, 42, &mut stats);
            assert_eq!(stats.scheduled, set.len() as u64);
            sizes += set.len();
        }
        assert_eq!(sizes, 1_000);
        let digest = |seed| {
            let mut stats = ClientStats::default();
            ClientSet::new(shape, 100, 0, 1, seed, &mut stats);
            stats.digest
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn admit_schedules_and_issue_counts() {
        let shape = ArrivalShape::Periodic { rate: 1_000.0 };
        let mut stats = ClientStats::default();
        let mut set = ClientSet::new(shape, 4, 0, 1, 9, &mut stats);
        assert!(set.next_is_due(1_000_000) && !set.next_is_due(0));
        let mut last = 0;
        for i in 0..8 {
            let (at, local, kind) = set.admit(100, &mut stats).expect("arrival");
            assert!(at >= last && kind < 100);
            last = at;
            // Admission schedules the next arrival; only issue counts.
            assert_eq!(stats.scheduled, 4 + i + 1);
            assert_eq!(stats.arrivals, i);
            set.note_issued(local, &mut stats);
        }
        assert_eq!(stats.arrivals, 8);
        assert_eq!(stats.active, 4, "every client served in two rounds");
    }

    #[test]
    fn self_paced_clients_wait_for_the_driver_to_reschedule_them() {
        let mut stats = ClientStats::default();
        let mut set = ClientSet::new(ArrivalShape::SelfPaced, 2, 0, 1, 9, &mut stats);
        let (_, a, _) = set.admit(2, &mut stats).expect("first client");
        let (_, b, _) = set.admit(2, &mut stats).expect("second client");
        assert_eq!((a, b, stats.scheduled), (0, 1, 2));
        assert!(set.admit(2, &mut stats).is_none(), "both are in flight");
        set.schedule(b, 700, &mut stats);
        assert_eq!(set.admit(2, &mut stats).map(|x| (x.0, x.1)), Some((700, b)));
    }

    #[test]
    fn merge_is_deterministic() {
        let mk = |seed| {
            let mut s = ClientStats::default();
            ClientSet::new(ArrivalShape::Poisson { rate: 10.0 }, 50, 0, 1, seed, &mut s);
            s
        };
        let merged = |a: u64, b: u64| {
            let mut m = mk(a);
            m.merge(&mk(b));
            m.digest
        };
        assert_eq!(merged(1, 2), merged(1, 2));
        assert_ne!(merged(1, 2), merged(2, 1), "digest is order-sensitive");
    }
}
