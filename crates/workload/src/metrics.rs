//! Sharded, low-overhead run metrics.
//!
//! Each worker owns a private [`WorkerMetrics`] (no sharing, no atomics
//! on the hot path); the engine merges them after the run. Latencies go
//! into a [`LogHistogram`] — log-bucketed with 32 linear sub-buckets per
//! octave (HdrHistogram's layout in miniature), so recording is two
//! shifts and an add, memory is ~15 KiB per worker, and quantiles are
//! accurate to ~3% across the full nanosecond-to-minutes range.

use std::time::Duration;

use dlz_core::ContentionStats;

use crate::op::{OpCounts, OpKind};

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get exact buckets; above, 32 sub-buckets/octave.
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// A log-bucketed histogram of `u64` samples (latencies in nanoseconds).
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
    max: u64,
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("total", &self.total)
            .field("max", &self.max)
            .finish()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Box::new([0u64; BUCKETS]),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let top = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (top - SUB_BITS)) & (SUB as u64 - 1);
        ((top - SUB_BITS + 1) as usize) * SUB + sub as usize
    }

    /// Representative (midpoint) value of bucket `i` — inverse of
    /// [`Self::index`] up to sub-bucket resolution.
    fn value(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let octave = (i / SUB - 1) as u32 + SUB_BITS;
        let sub = (i % SUB) as u64;
        let base = (1u64 << octave) + (sub << (octave - SUB_BITS));
        base + (1u64 << (octave - SUB_BITS)) / 2
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q ∈ [0, 1]` (bucket-midpoint resolution; the
    /// top quantile is clamped to the exact max).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// One worker's private metrics shard.
#[derive(Debug, Clone, Default)]
pub struct WorkerMetrics {
    /// Completed-operation counts.
    pub counts: OpCounts,
    /// Latency of completed operations, nanoseconds.
    pub latency: LogHistogram,
}

impl WorkerMetrics {
    /// Records one completed (or empty-remove) operation.
    #[inline]
    pub fn record(&mut self, kind: OpKind, completed: bool, latency: Duration) {
        self.record_ns(
            kind,
            completed,
            latency.as_nanos().min(u64::MAX as u128) as u64,
        );
    }

    /// [`record`](Self::record) for a latency already in nanoseconds.
    #[inline]
    pub(crate) fn record_ns(&mut self, kind: OpKind, completed: bool, latency_ns: u64) {
        match (kind, completed) {
            (OpKind::Update, _) => self.counts.updates += 1,
            (OpKind::Remove, true) => self.counts.removes += 1,
            (OpKind::Remove, false) => {
                self.counts.removes_empty += 1;
                return; // empty removes carry no latency signal
            }
            (OpKind::Read, _) => self.counts.reads += 1,
        }
        self.latency.record(latency_ns);
    }

    /// Records a completed operation without a latency sample — the
    /// engine's latency-sampling mode (`Scenario::latency_every > 1`)
    /// counts every op but timestamps only every Nth, keeping the
    /// measurement overhead off the throughput hot path.
    #[inline]
    pub fn record_untimed(&mut self, kind: OpKind, completed: bool) {
        match (kind, completed) {
            (OpKind::Update, _) => self.counts.updates += 1,
            (OpKind::Remove, true) => self.counts.removes += 1,
            (OpKind::Remove, false) => self.counts.removes_empty += 1,
            (OpKind::Read, _) => self.counts.reads += 1,
        }
    }

    /// Merges another shard into this one.
    pub fn merge(&mut self, other: &WorkerMetrics) {
        self.counts.merge(&other.counts);
        self.latency.merge(&other.latency);
    }
}

/// Backend-internal telemetry drained from a worker at an interval
/// boundary: the contention counters accumulated since the last drain.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySample {
    /// Hot-path contention counters since the last drain.
    pub contention: ContentionStats,
}

/// One interval's **delta** snapshot: everything a worker did between
/// two consecutive interval boundaries. Merging every snapshot of a run
/// reconstructs the run's totals exactly — conservation by
/// construction, which the engine relies on when telemetry is enabled.
#[derive(Debug, Clone, Default)]
pub struct IntervalSnapshot {
    /// Zero-based interval index (`floor(elapsed / interval)` of the
    /// boundary that closed it); workers align on this when merged.
    pub index: u64,
    /// Milliseconds from run start to the flush that closed this
    /// snapshot (the last partial interval flushes early).
    pub end_ms: u64,
    /// Operations completed during the interval.
    pub counts: OpCounts,
    /// Latency samples recorded during the interval, nanoseconds.
    pub latency: LogHistogram,
    /// Contention counters accumulated during the interval.
    pub contention: ContentionStats,
}

impl IntervalSnapshot {
    /// Merges another snapshot of the same interval into this one:
    /// counts, latency and contention add; the end offset takes the
    /// max.
    pub fn merge(&mut self, other: &IntervalSnapshot) {
        self.counts.merge(&other.counts);
        self.latency.merge(&other.latency);
        self.contention.merge(&other.contention);
        self.end_ms = self.end_ms.max(other.end_ms);
    }

    /// `true` if the snapshot recorded no operations and no contention
    /// events.
    pub fn is_empty(&self) -> bool {
        self.counts.completed() == 0 && self.counts.removes_empty == 0 && self.contention.is_empty()
    }
}

/// A run's aligned time series: per-interval snapshots merged across
/// workers by interval index.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySeries {
    /// Nominal interval length, milliseconds.
    pub interval_ms: u64,
    /// Dense, index-aligned snapshots (position `i` is interval `i`;
    /// intervals no worker flushed stay empty).
    pub intervals: Vec<IntervalSnapshot>,
}

impl TelemetrySeries {
    /// An empty series with the given nominal interval.
    pub fn new(interval_ms: u64) -> Self {
        TelemetrySeries {
            interval_ms: interval_ms.max(1),
            intervals: Vec::new(),
        }
    }

    /// Merges one worker's snapshots into the aligned series. The
    /// series stays dense: missing indices are padded with empty
    /// snapshots so every worker's interval `i` lands in position `i`.
    pub fn merge_worker(&mut self, snaps: &[IntervalSnapshot]) {
        for s in snaps {
            let i = s.index as usize;
            while self.intervals.len() <= i {
                let index = self.intervals.len() as u64;
                self.intervals.push(IntervalSnapshot {
                    index,
                    end_ms: (index + 1) * self.interval_ms,
                    ..IntervalSnapshot::default()
                });
            }
            self.intervals[i].merge(s);
        }
    }

    /// Sum of every interval's op counts — equals the run's merged
    /// (pre-prefill) totals exactly.
    pub fn totals(&self) -> OpCounts {
        let mut t = OpCounts::default();
        for s in &self.intervals {
            t.merge(&s.counts);
        }
        t
    }
}

/// Latency summary extracted from a merged histogram, for reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a histogram.
    pub fn from(h: &LogHistogram) -> Self {
        LatencySummary {
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.50),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_value_roundtrip_within_resolution() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456, u32::MAX as u64] {
            let idx = LogHistogram::index(v);
            let mid = LogHistogram::value(idx);
            let err = mid.abs_diff(v) as f64 / v.max(1) as f64;
            assert!(err <= 0.05, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.len(), 10_000);
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.05, "p50={p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.05, "p99={p99}");
        assert_eq!(h.quantile(1.0), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 37);
            } else {
                b.record(v * 37);
            }
            c.record(v * 37);
        }
        a.merge(&b);
        assert_eq!(a.len(), c.len());
        assert_eq!(a.max(), c.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    fn snap(index: u64, updates: u64, try_fails: u64) -> IntervalSnapshot {
        let mut s = IntervalSnapshot {
            index,
            end_ms: (index + 1) * 100,
            ..IntervalSnapshot::default()
        };
        s.counts.updates = updates;
        s.contention.try_lock_failures = try_fails;
        s.latency.record(updates.max(1) * 100);
        s
    }

    #[test]
    fn snapshot_merge_is_associative_and_order_independent() {
        let (a, b, c) = (snap(0, 10, 3), snap(0, 20, 5), snap(0, 7, 1));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        // c ⊕ b ⊕ a (reversed order)
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        for m in [&right, &rev] {
            assert_eq!(left.counts.updates, m.counts.updates);
            assert_eq!(
                left.contention.try_lock_failures,
                m.contention.try_lock_failures
            );
            assert_eq!(left.latency.len(), m.latency.len());
            assert_eq!(left.latency.max(), m.latency.max());
            assert_eq!(left.end_ms, m.end_ms);
        }
        assert_eq!(left.counts.updates, 37);
        assert_eq!(left.contention.try_lock_failures, 9);
    }

    #[test]
    fn series_aligns_workers_by_index_and_conserves_totals() {
        let mut series = TelemetrySeries::new(100);
        // Worker A flushed intervals 0 and 2 (stalled through 1);
        // worker B flushed 0 and 1.
        series.merge_worker(&[snap(0, 5, 2), snap(2, 9, 4)]);
        series.merge_worker(&[snap(1, 6, 1), snap(0, 3, 0)]);
        assert_eq!(series.intervals.len(), 3);
        for (i, s) in series.intervals.iter().enumerate() {
            assert_eq!(s.index, i as u64, "dense and aligned");
        }
        assert_eq!(series.intervals[0].counts.updates, 8);
        assert_eq!(series.intervals[1].counts.updates, 6);
        assert_eq!(series.totals().updates, 23);
        let fails: u64 = series
            .intervals
            .iter()
            .map(|s| s.contention.try_lock_failures)
            .sum();
        assert_eq!(fails, 7);
        // Merge order across workers does not change the series.
        let mut other = TelemetrySeries::new(100);
        other.merge_worker(&[snap(1, 6, 1), snap(0, 3, 0)]);
        other.merge_worker(&[snap(0, 5, 2), snap(2, 9, 4)]);
        assert_eq!(other.totals().updates, series.totals().updates);
        for (x, y) in series.intervals.iter().zip(&other.intervals) {
            assert_eq!(x.counts.updates, y.counts.updates);
            assert_eq!(
                x.contention.try_lock_failures,
                y.contention.try_lock_failures
            );
        }
    }

    #[test]
    fn empty_snapshot_detection() {
        let mut s = IntervalSnapshot::default();
        assert!(s.is_empty());
        s.contention.backoff_spins = 1;
        assert!(!s.is_empty());
    }

    #[test]
    fn worker_metrics_classify_ops() {
        let mut m = WorkerMetrics::default();
        let d = Duration::from_nanos(100);
        m.record(OpKind::Update, true, d);
        m.record(OpKind::Remove, true, d);
        m.record(OpKind::Remove, false, d);
        m.record(OpKind::Read, true, d);
        assert_eq!(m.counts.updates, 1);
        assert_eq!(m.counts.removes, 1);
        assert_eq!(m.counts.removes_empty, 1);
        assert_eq!(m.counts.reads, 1);
        // Empty remove recorded no latency sample.
        assert_eq!(m.latency.len(), 3);
    }
}
