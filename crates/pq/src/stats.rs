//! Hot-path contention counters.
//!
//! Every counter here is a plain `u64` owned by exactly one thread (a
//! worker's handle, or a throwaway local where no handle exists) —
//! recording is a non-atomic increment, so the hot path pays one
//! add-to-cache-resident-line per event and nothing when the event does
//! not fire. Aggregation follows the same discipline as worker metrics:
//! each thread accumulates privately and the coordinator [`merge`]s
//! after (or periodically drains with [`take`] for time-resolved
//! snapshots).
//!
//! The lock-level counters (`try_lock_failures`, `cas_retries`,
//! `hint_republishes`) are recorded by
//! [`LockedPq::attempt`](crate::LockedPq::attempt); the backoff and
//! choice-process counters are recorded by the layers that own them
//! (the MultiQueue's operation loop and its choice policies).
//!
//! [`merge`]: ContentionStats::merge
//! [`take`]: ContentionStats::take

/// Per-thread contention counters for the relaxed-queue hot paths.
///
/// All fields are monotone event counts except [`adaptive_s`] (a
/// gauge, merged by maximum and preserved across [`take`]).
///
/// [`adaptive_s`]: ContentionStats::adaptive_s
/// [`take`]: ContentionStats::take
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// `try_lock` attempts that found the lock held by another thread.
    pub try_lock_failures: u64,
    /// Lock-acquire CAS attempts that lost to a concurrent header
    /// update (the queue was *unlocked* but the header moved under us).
    pub cas_retries: u64,
    /// Backoff snoozes taken in the spin regime.
    pub backoff_spins: u64,
    /// Backoff snoozes taken in the yield regime.
    pub backoff_yields: u64,
    /// Unlocks that had to republish a changed min hint.
    pub hint_republishes: u64,
    /// Dequeue attempts that ended with a confirmed-empty sweep.
    pub empty_confirms: u64,
    /// Fresh camps started by a sticky (or adaptive-sticky) policy.
    pub camp_switches: u64,
    /// Adaptive-`s` transitions that grew the camp length.
    pub s_widens: u64,
    /// Adaptive-`s` transitions that shrank the camp length.
    pub s_narrows: u64,
    /// Gauge: the adaptive policy's current camp length `s` (0 when no
    /// adaptive policy is active). Merged by maximum, kept by `take`.
    pub adaptive_s: u64,
}

impl ContentionStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        ContentionStats::default()
    }

    /// Records one backoff snooze, attributed to the spin or yield
    /// regime.
    #[inline]
    pub fn note_snooze(&mut self, yielding: bool) {
        if yielding {
            self.backoff_yields += 1;
        } else {
            self.backoff_spins += 1;
        }
    }

    /// Merges another thread's counters into this one: counts add,
    /// the `adaptive_s` gauge takes the maximum.
    pub fn merge(&mut self, other: &ContentionStats) {
        self.try_lock_failures += other.try_lock_failures;
        self.cas_retries += other.cas_retries;
        self.backoff_spins += other.backoff_spins;
        self.backoff_yields += other.backoff_yields;
        self.hint_republishes += other.hint_republishes;
        self.empty_confirms += other.empty_confirms;
        self.camp_switches += other.camp_switches;
        self.s_widens += other.s_widens;
        self.s_narrows += other.s_narrows;
        self.adaptive_s = self.adaptive_s.max(other.adaptive_s);
    }

    /// Drains the counters for one snapshot interval: returns the
    /// current values and zeroes the counts in place. The `adaptive_s`
    /// gauge is copied out but *kept* (it describes present state, not
    /// an interval's events).
    pub fn take(&mut self) -> ContentionStats {
        let out = *self;
        *self = ContentionStats {
            adaptive_s: self.adaptive_s,
            ..ContentionStats::default()
        };
        out
    }

    /// Sum of all event counts (the gauge excluded) — a cheap "did
    /// anything contend at all" probe.
    pub fn total_events(&self) -> u64 {
        self.try_lock_failures
            + self.cas_retries
            + self.backoff_spins
            + self.backoff_yields
            + self.hint_republishes
            + self.empty_confirms
            + self.camp_switches
            + self.s_widens
            + self.s_narrows
    }

    /// `true` if no event has been recorded (gauge ignored).
    pub fn is_empty(&self) -> bool {
        self.total_events() == 0
    }

    /// The counter names and values in a fixed, export-stable order
    /// (event counts first, then the gauge).
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("try_lock_failures", self.try_lock_failures),
            ("cas_retries", self.cas_retries),
            ("backoff_spins", self.backoff_spins),
            ("backoff_yields", self.backoff_yields),
            ("hint_republishes", self.hint_republishes),
            ("empty_confirms", self.empty_confirms),
            ("camp_switches", self.camp_switches),
            ("s_widens", self.s_widens),
            ("s_narrows", self.s_narrows),
            ("adaptive_s", self.adaptive_s),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> ContentionStats {
        ContentionStats {
            try_lock_failures: seed,
            cas_retries: seed + 1,
            backoff_spins: seed + 2,
            backoff_yields: seed + 3,
            hint_republishes: seed + 4,
            empty_confirms: seed + 5,
            camp_switches: seed + 6,
            s_widens: seed + 7,
            s_narrows: seed + 8,
            adaptive_s: seed % 7,
        }
    }

    #[test]
    fn merge_adds_counts_and_maxes_gauge() {
        let mut a = sample(10);
        let b = sample(3);
        a.merge(&b);
        assert_eq!(a.try_lock_failures, 13);
        assert_eq!(a.s_narrows, 18 + 11);
        assert_eq!(a.adaptive_s, 3); // max(10 % 7, 3 % 7)
    }

    #[test]
    fn merge_is_associative_and_order_independent_on_counts() {
        let (a, b, c) = (sample(1), sample(20), sample(300));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut right = c;
        right.merge(&a);
        right.merge(&b);
        assert_eq!(left, right);
    }

    #[test]
    fn take_zeroes_counts_but_keeps_gauge() {
        let mut s = sample(5);
        let drained = s.take();
        assert_eq!(drained, sample(5));
        assert!(s.is_empty());
        assert_eq!(s.adaptive_s, 5, "gauge survives the drain");
        // A second take returns only the gauge.
        let again = s.take();
        assert!(again.is_empty());
        assert_eq!(again.adaptive_s, 5);
    }

    #[test]
    fn note_snooze_splits_regimes() {
        let mut s = ContentionStats::new();
        s.note_snooze(false);
        s.note_snooze(false);
        s.note_snooze(true);
        assert_eq!(s.backoff_spins, 2);
        assert_eq!(s.backoff_yields, 1);
    }

    #[test]
    fn fields_cover_every_counter() {
        let s = sample(2);
        let f = s.fields();
        assert_eq!(f.len(), 10);
        let total: u64 = f
            .iter()
            .filter(|(n, _)| *n != "adaptive_s")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, s.total_events());
    }
}
