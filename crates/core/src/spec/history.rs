//! Recording concurrent histories with update-point stamps.
//!
//! Definition 5.2 asks for a mapping from completed operations of the
//! concurrent structure `D` onto transitions of the relaxed sequential
//! process `R` that preserves outputs and the order of non-overlapping
//! operations. We build that mapping *constructively*:
//!
//! * One [`ExactCounter`] per recorder issues strictly increasing
//!   stamps: its `fetch_increment` values are unique, and their order
//!   extends the real-time order of the draws.
//! * Each operation records an *invoke* stamp, an *update* stamp taken
//!   inside its atomic update step (the `fetch_add`, or inside the
//!   internal queue's critical section), and a *response* stamp.
//! * Because `invoke ≤ update ≤ response`, sorting by update stamp
//!   yields a total order that respects the order of non-overlapping
//!   operations — a legal linearization order. Replaying the labels in
//!   that order through the completed LTS produces the quantitative
//!   path whose costs the definition distributes over.
//!
//! One [`Recorder`] per structure owns all three pieces — the stamp
//! counter, the per-thread [`ThreadLog`]s and the judged artifact — so
//! every history in the workspace (the workload backends', the
//! integration tests') is stamped, salvaged and judged by the same code.

use std::sync::Mutex;

use crate::spec::artifact::HistoryArtifact;
use crate::spec::checker::{judge, Verdict};
use crate::ExactCounter;

/// One completed operation in a recorded history.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<L> {
    /// Recording thread.
    pub thread: usize,
    /// The method label, with its output baked in.
    pub label: L,
    /// Stamp taken at invocation.
    pub invoke: u64,
    /// Stamp taken inside the operation's atomic update step.
    pub update: u64,
    /// Stamp taken at response.
    pub response: u64,
}

/// Records one structure's concurrent history: the [`ExactCounter`]
/// every operation draws its stamps from, the events its [`ThreadLog`]s
/// hand back, and the last judged history packaged for export.
///
/// This is the only way a history comes into being: workers take a
/// [`log`](Self::log), record through it, and drop it; the owner then
/// [`judge`](Self::judge)s what was handed back (or takes the bare
/// [`History`] with [`take_history`](Self::take_history)).
#[derive(Debug)]
pub struct Recorder<L> {
    stamps: ExactCounter,
    events: Mutex<Vec<Event<L>>>,
    artifact: Mutex<Option<HistoryArtifact>>,
}

impl<L> Default for Recorder<L> {
    fn default() -> Self {
        Recorder {
            stamps: ExactCounter::new(),
            events: Mutex::new(Vec::new()),
            artifact: Mutex::new(None),
        }
    }
}

impl<L> Recorder<L> {
    /// An empty recorder whose first stamp is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The private event log of thread `thread`. It hands its events
    /// back to this recorder when dropped.
    pub fn log(&self, thread: usize) -> ThreadLog<'_, L> {
        ThreadLog {
            recorder: self,
            thread,
            events: Vec::new(),
        }
    }

    /// Drains every event handed back so far into one [`History`], in
    /// hand-back order.
    pub fn take_history(&self) -> History<L> {
        History {
            events: std::mem::take(&mut *self.events.lock().expect("recorder events")),
        }
    }

    /// Judges the recorded history: drains it, lets `package` attach
    /// the metadata that selects its envelope (see the
    /// [`HistoryArtifact`] constructors), runs the one [`judge`] over
    /// the artifact and keeps it for
    /// [`take_artifact`](Self::take_artifact).
    /// `None` when nothing was recorded since the last call.
    pub fn judge(&self, package: impl FnOnce(History<L>) -> HistoryArtifact) -> Option<Verdict> {
        let history = self.take_history();
        if history.is_empty() {
            return None;
        }
        let artifact = package(history);
        let verdict = judge(&artifact);
        *self.artifact.lock().expect("recorder artifact") = Some(artifact);
        Some(verdict)
    }

    /// Drains the artifact the last [`judge`](Self::judge) kept.
    pub fn take_artifact(&self) -> Option<HistoryArtifact> {
        self.artifact.lock().expect("recorder artifact").take()
    }
}

/// One thread's private event buffer, obtained from
/// [`Recorder::log`].
///
/// Dropping the log hands its events to the recorder, so a worker that
/// dies between operations loses nothing it completed. A log dropped
/// *during* an unwind stays passive instead — a second panic out of
/// `Drop` would abort the process — and its events are lost with the
/// operation that was in flight.
#[derive(Debug)]
pub struct ThreadLog<'r, L> {
    recorder: &'r Recorder<L>,
    thread: usize,
    events: Vec<Event<L>>,
}

impl<L> ThreadLog<'_, L> {
    /// Records one operation: invoke stamp, the operation body,
    /// response stamp. The body draws its update stamp from the counter
    /// it is handed (`fetch_increment`), inside its atomic update step,
    /// and returns the label (output baked in) and that stamp.
    /// A body returning `None` — a dequeue that found nothing — is no
    /// operation of the history: nothing is logged, no response stamp
    /// is drawn and `record` returns `false`.
    pub fn record(&mut self, op: impl FnOnce(&ExactCounter) -> Option<(L, u64)>) -> bool {
        let stamps = &self.recorder.stamps;
        let invoke = stamps.fetch_increment();
        let Some((label, update)) = op(stamps) else {
            return false;
        };
        let response = stamps.fetch_increment();
        self.events.push(Event {
            thread: self.thread,
            label,
            invoke,
            update,
            response,
        });
        true
    }
}

impl<L> Drop for ThreadLog<'_, L> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.recorder
                .events
                .lock()
                .expect("recorder events")
                .append(&mut self.events);
        }
    }
}

/// A complete concurrent history: all threads' events merged.
#[derive(Debug, Clone, Default)]
pub struct History<L> {
    /// All events, in no particular order: the checker replays them by
    /// update stamp.
    pub events: Vec<Event<L>>,
}

impl<L> History<L> {
    /// Creates an empty history.
    pub fn new() -> Self {
        History { events: Vec::new() }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates the stamping discipline:
    ///
    /// 1. `invoke ≤ update ≤ response` for every event (so update order
    ///    is a legal linearization order), and
    /// 2. update stamps are pairwise distinct (a total order).
    ///
    /// Returns `true` iff both hold.
    pub fn well_formed(&self) -> bool {
        if !self
            .events
            .iter()
            .all(|e| e.invoke <= e.update && e.update <= e.response)
        {
            return false;
        }
        let mut stamps: Vec<u64> = self.events.iter().map(|e| e.update).collect();
        stamps.sort_unstable();
        stamps.windows(2).all(|w| w[0] != w[1])
    }

    /// Checks that update order respects the real-time order of
    /// non-overlapping operations: if `a.response < b.invoke` then
    /// `a.update < b.update`. With stamps from one [`ExactCounter`] this
    /// holds by construction; the checker asserts it anyway.
    pub fn respects_real_time(&self) -> bool {
        // No event may be ordered (by update stamp) before one that
        // responded before it was invoked: scan in reverse update order,
        // keeping the smallest response among the later events.
        let mut by_update: Vec<&Event<L>> = self.events.iter().collect();
        by_update.sort_by_key(|e| e.update);
        let mut later_min_response = u64::MAX;
        by_update.iter().rev().all(|e| {
            let ordered = later_min_response >= e.invoke;
            later_min_response = later_min_response.min(e.response);
            ordered
        })
    }

    /// The labels in update order (consumes sorting internally).
    pub fn labels_in_update_order(&self) -> Vec<L>
    where
        L: Clone,
    {
        let mut by_update: Vec<&Event<L>> = self.events.iter().collect();
        by_update.sort_by_key(|e| e.update);
        by_update.into_iter().map(|e| e.label.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_produces_ordered_stamps() {
        let rec = Recorder::new();
        let mut log = rec.log(0);
        assert!(log.record(|c| Some(("op", c.fetch_increment()))));
        drop(log);
        let h = rec.take_history();
        assert_eq!(h.len(), 1);
        assert!(h.well_formed());
        let e = &h.events[0];
        assert!(e.invoke < e.update && e.update < e.response);
    }

    #[test]
    fn an_operation_that_observed_nothing_draws_its_invoke_stamp_only() {
        let rec = Recorder::new();
        let mut log = rec.log(0);
        assert!(!log.record(|_| None::<(&str, u64)>));
        log.record(|c| Some(("next", c.fetch_increment())));
        drop(log);
        let h = rec.take_history();
        assert_eq!((h.len(), h.events[0].invoke), (1, 1));
    }

    #[test]
    fn a_log_dropped_inside_an_unwind_stays_passive() {
        let rec = std::sync::Arc::new(Recorder::new());
        let inner = rec.clone();
        let died = std::thread::spawn(move || {
            let mut log = inner.log(0);
            log.record(|c| Some(('b', c.fetch_increment())));
            panic!("mid-operation");
        })
        .join();
        assert!(died.is_err());
        assert!(rec.take_history().is_empty());
    }

    #[test]
    fn well_formed_rejects_update_outside_interval() {
        let h = History {
            events: vec![Event {
                thread: 0,
                label: (),
                invoke: 5,
                update: 3,
                response: 7,
            }],
        };
        assert!(!h.well_formed());
    }

    #[test]
    fn well_formed_rejects_duplicate_updates() {
        let mk = |u| Event {
            thread: 0,
            label: (),
            invoke: 0,
            update: u,
            response: 10,
        };
        let h = History {
            events: vec![mk(4), mk(4)],
        };
        assert!(!h.well_formed());
    }

    #[test]
    fn real_time_order_detection() {
        // a finishes (resp 2) before b starts (invoke 5), but b's update
        // (3) precedes... wait, b.update must lie in [5, ...]; craft a
        // *violating* history where update order contradicts real time.
        let a = Event {
            thread: 0,
            label: 'a',
            invoke: 0,
            update: 6,
            response: 7,
        };
        let b = Event {
            thread: 1,
            label: 'b',
            invoke: 1,
            update: 2,
            response: 3,
        };
        // b responded (3) before a invoked? No: a.invoke=0 < 3. Check
        // the pair the other way: in update order b(2) < a(6); a
        // responded at 7 after b invoked at 1 — overlapping, fine.
        let h = History {
            events: vec![a.clone(), b.clone()],
        };
        assert!(h.respects_real_time());

        // Now a genuine violation: x entirely before y in real time,
        // but y's update stamp is smaller.
        let x = Event {
            thread: 0,
            label: 'x',
            invoke: 0,
            update: 9,
            response: 2,
        }; // (ill-formed on purpose: update > response)
        let y = Event {
            thread: 1,
            label: 'y',
            invoke: 5,
            update: 6,
            response: 8,
        };
        let h2 = History { events: vec![x, y] };
        assert!(!h2.respects_real_time());
    }

    #[test]
    fn labels_come_out_in_update_order() {
        let mk = |l, u| Event {
            thread: 0,
            label: l,
            invoke: u,
            update: u,
            response: u,
        };
        let h = History {
            events: vec![mk('c', 30), mk('a', 10), mk('b', 20)],
        };
        assert_eq!(h.labels_in_update_order(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn merge_multiple_thread_logs() {
        let rec = Recorder::new();
        let (mut l0, mut l1) = (rec.log(0), rec.log(1));
        l0.record(|c| Some((0u8, c.fetch_increment())));
        l1.record(|c| Some((1u8, c.fetch_increment())));
        l0.record(|c| Some((2u8, c.fetch_increment())));
        drop((l0, l1));
        let h = rec.take_history();
        assert_eq!(h.len(), 3);
        assert!(h.well_formed());
        assert!(h.respects_real_time());
    }
}
