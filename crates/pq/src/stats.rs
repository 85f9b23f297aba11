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
/// All fields are monotone event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Non-waiting lock attempts (`attempt(false, ..)`) that found the
    /// lock held by another thread. A MultiQueue operation waits for
    /// the lock of the queue it chose, so there only a deadline-bounded
    /// one (`try_insert_for` / `try_dequeue_for`) can count here.
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
    /// Fresh camps started by a sticky policy.
    pub camp_switches: u64,
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

    /// Merges another thread's counters into this one.
    pub fn merge(&mut self, other: &ContentionStats) {
        self.try_lock_failures += other.try_lock_failures;
        self.cas_retries += other.cas_retries;
        self.backoff_spins += other.backoff_spins;
        self.backoff_yields += other.backoff_yields;
        self.hint_republishes += other.hint_republishes;
        self.empty_confirms += other.empty_confirms;
        self.camp_switches += other.camp_switches;
    }

    /// Drains the counters for one snapshot interval: returns the
    /// current values and zeroes them in place.
    pub fn take(&mut self) -> ContentionStats {
        std::mem::take(self)
    }

    /// Sum of all event counts — a cheap "did anything contend at all"
    /// probe.
    pub fn total_events(&self) -> u64 {
        self.try_lock_failures
            + self.cas_retries
            + self.backoff_spins
            + self.backoff_yields
            + self.hint_republishes
            + self.empty_confirms
            + self.camp_switches
    }

    /// `true` if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total_events() == 0
    }

    /// The counter names and values in a fixed, export-stable order.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("try_lock_failures", self.try_lock_failures),
            ("cas_retries", self.cas_retries),
            ("backoff_spins", self.backoff_spins),
            ("backoff_yields", self.backoff_yields),
            ("hint_republishes", self.hint_republishes),
            ("empty_confirms", self.empty_confirms),
            ("camp_switches", self.camp_switches),
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
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample(10);
        let b = sample(3);
        a.merge(&b);
        assert_eq!(a.try_lock_failures, 13);
        assert_eq!(a.camp_switches, 16 + 9);
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
    fn take_drains_and_zeroes() {
        let mut s = sample(5);
        assert_eq!(s.take(), sample(5));
        assert_eq!(s.take(), ContentionStats::new());
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
        assert_eq!(f.len(), 7);
        let total: u64 = f.iter().map(|(_, v)| v).sum();
        assert_eq!(total, s.total_events());
    }
}
