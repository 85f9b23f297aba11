//! Spans recorded from the benchmark's own side of each layer
//! boundary, and the decorators that record them.
//!
//! Every span is a wall-clock interval around a **block of calls** —
//! a phase of a rung's loop, 4096 `execute` calls, one engine run —
//! never around a single call. Two clock reads cost as much as the
//! operations being timed, and a call timed in isolation does not cost
//! what it costs in a stream: timing every 61st call of a 65 ns
//! `LockedPq` op read 100–135 ns (rdtsc) to 150–200 ns
//! (`Instant::now`), because the fenced clock read stops consecutive
//! ops from overlapping. Blocks have neither problem, so a span's self
//! time — its duration minus what its children cover — is real time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dlz_core::json::JsonObject;
use dlz_core::spec::HistoryArtifact;
use dlz_pq::SeqPriorityQueue;
use dlz_workload::{
    Backend, Family, Op, OpCounts, QualityReport, TelemetrySample, Worker, WorkerCfg,
};

/// Calls per block span of [`TracedBackend`].
pub const BLOCK: u64 = 4096;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The pass and thread the span belongs to, `<rung>/<thread>`
    /// (`engine/0`, `twin2/1`, `stub/0`): spans of one thread's pass
    /// share it.
    pub trace: String,
    /// Unique id (> 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a top span.
    pub parent: u64,
    /// Layer boundary, e.g. `workload.backends.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Calls (or events) the span stands for.
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("trace", &self.trace)
            .u64("span", self.id)
            .u64("parent", self.parent)
            .str("name", self.name)
            .u64("start_ns", self.start_ns)
            .u64("end_ns", self.end_ns)
            .u64("calls", self.calls);
        o.finish()
    }
}

/// Collects spans in memory; written out once, at exit.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent has ended.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Runs `f` inside a wall-clock span standing for `calls` calls;
    /// `f` receives the span's id for its own children.
    pub fn wall<R>(
        &self,
        trace: &str,
        parent: u64,
        name: &'static str,
        calls: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.id();
        let start_ns = self.now();
        let r = f(id);
        self.push(Span {
            trace: trace.to_string(),
            id,
            parent,
            name,
            start_ns,
            end_ns: self.now(),
            calls,
        });
        r
    }

    /// Records a zero-length span carrying a count (a counter read at a
    /// layer boundary).
    pub fn count(&self, trace: &str, parent: u64, name: &'static str, n: u64) {
        self.wall(trace, parent, name, n, |_| ());
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }
}

/// Writes `spans` as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(f, "{}", s.to_json())?;
    }
    f.flush()
}

/// Per-name totals of one rung (the part of `trace` before the `/`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Calls summed over the spans.
    pub calls: u64,
    /// Durations summed.
    pub dur_ns: u64,
    /// Self times summed: duration minus what child spans cover.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per call (0 with no calls).
    pub fn per_call(&self) -> f64 {
        self.dur_ns as f64 / self.calls.max(1) as f64
    }
}

/// The span tree's arithmetic: totals per (rung, name), and how far the
/// self times are from summing to the top spans.
#[derive(Debug, Default)]
pub struct Tree {
    totals: BTreeMap<(String, &'static str), Totals>,
    /// Sum of the top spans' durations.
    pub top_ns: u64,
    /// Sum of every span's self time. Equals `top_ns` unless children
    /// overran their parent (a malformed tree).
    pub self_ns: u64,
}

impl Tree {
    /// Folds `spans` into per-name totals.
    pub fn build(spans: &[Span]) -> Tree {
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *covered.entry(s.parent).or_default() += s.dur();
        }
        let mut tree = Tree::default();
        for s in spans {
            let own = s
                .dur()
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            let rung = s.trace.split('/').next().unwrap_or("").to_string();
            let t = tree.totals.entry((rung, s.name)).or_default();
            t.calls += s.calls;
            t.dur_ns += s.dur();
            t.self_ns += own;
            tree.self_ns += own;
            if s.parent == 0 {
                tree.top_ns += s.dur();
            }
        }
        tree
    }

    /// Totals of `name` within `rung` (zero when absent).
    pub fn get(&self, rung: &str, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|((r, n), _)| r == rung && *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// `|top − Σ self| / top`, in percent.
    pub fn residual_pct(&self) -> f64 {
        if self.top_ns == 0 {
            return 0.0;
        }
        100.0 * self.top_ns.abs_diff(self.self_ns) as f64 / self.top_ns as f64
    }
}

// ---------------------------------------------------------------------
// Backend decorator
// ---------------------------------------------------------------------

/// A [`Backend`] decorator: every worker session it hands out records
/// one `workload.engine.worker` top span (first `execute` to `finish`)
/// with a `workload.backends.execute` child around each [`BLOCK`]
/// calls. The prefill session records `workload.engine.prefill`.
pub struct TracedBackend<'a> {
    inner: &'a dyn Backend,
    rec: &'a Recorder,
    rung: &'static str,
}

impl<'a> TracedBackend<'a> {
    /// Wraps `inner`; spans go to `rec` under trace `<rung>/<worker>`.
    pub fn new(inner: &'a dyn Backend, rec: &'a Recorder, rung: &'static str) -> Self {
        TracedBackend { inner, rec, rung }
    }
}

impl Backend for TracedBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn family(&self) -> Family {
        self.inner.family()
    }
    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        Box::new(TracedWorker {
            inner: self.inner.worker(cfg),
            rec: self.rec,
            trace: format!("{}/{}", self.rung, cfg.id),
            top_name: if cfg.id == cfg.threads {
                "workload.engine.prefill"
            } else {
                "workload.engine.worker"
            },
            top: self.rec.id(),
            top_start: 0,
            calls: 0,
            block_start: 0,
            blocks: Vec::new(),
        })
    }
    fn residual(&self) -> u64 {
        self.inner.residual()
    }
    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        self.inner.verify(counts)
    }
    fn quality(&self) -> QualityReport {
        self.inner.quality()
    }
    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.inner.take_history_artifact()
    }
}

struct TracedWorker<'a> {
    inner: Box<dyn Worker + Send + 'a>,
    rec: &'a Recorder,
    trace: String,
    top_name: &'static str,
    top: u64,
    top_start: u64,
    calls: u64,
    block_start: u64,
    /// Closed blocks as `(start, end, calls)`; pushed under the shared
    /// lock only at `finish`, off the measured path.
    blocks: Vec<(u64, u64, u64)>,
}

impl Worker for TracedWorker<'_> {
    #[inline]
    fn execute(&mut self, op: &Op) -> bool {
        if self.calls.is_multiple_of(BLOCK) {
            self.block_start = self.rec.now();
            if self.calls == 0 {
                self.top_start = self.block_start;
            }
        }
        let r = self.inner.execute(op);
        self.calls += 1;
        if self.calls.is_multiple_of(BLOCK) {
            self.blocks.push((self.block_start, self.rec.now(), BLOCK));
        }
        r
    }

    fn finish(&mut self) {
        let end = self.rec.now();
        if !self.calls.is_multiple_of(BLOCK) {
            self.blocks
                .push((self.block_start, end, self.calls % BLOCK));
        }
        self.inner.finish();
        let span = |id, parent, name, (start_ns, end_ns, calls)| Span {
            trace: self.trace.clone(),
            id,
            parent,
            name,
            start_ns,
            end_ns,
            calls,
        };
        self.rec.push(span(
            self.top,
            0,
            self.top_name,
            (self.top_start, end, self.calls),
        ));
        for block in self.blocks.drain(..) {
            self.rec.push(span(
                self.rec.id(),
                self.top,
                "workload.backends.execute",
                block,
            ));
        }
    }

    fn telemetry_sample(&mut self) -> Option<TelemetrySample> {
        self.inner.telemetry_sample()
    }
}

// ---------------------------------------------------------------------
// Sequential-heap decorator
// ---------------------------------------------------------------------

/// Calls [`TracedHeap`] counted on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapCalls {
    /// `add` calls.
    pub add: u64,
    /// `delete_min` calls.
    pub delete_min: u64,
    /// Every other trait call (`read_min`, `len`, `clear`).
    pub other: u64,
}

thread_local! {
    static HEAP: Cell<HeapCalls> = const {
        Cell::new(HeapCalls { add: 0, delete_min: 0, other: 0 })
    };
}

/// Drains the calling thread's heap call counts.
pub fn take_heap_calls() -> HeapCalls {
    HEAP.with(Cell::take)
}

#[inline]
fn note(f: impl FnOnce(&mut HeapCalls)) {
    HEAP.with(|c| {
        let mut calls = c.get();
        f(&mut calls);
        c.set(calls);
    });
}

/// A [`SeqPriorityQueue`] decorator that counts calls exactly. A heap
/// inside a MultiQueue is called by whichever thread holds its lock, so
/// the counts live with the calling thread (which knows the phase it is
/// in), not with the heap.
#[derive(Debug, Default)]
pub struct TracedHeap<Q>(pub Q);

impl<V, Q: SeqPriorityQueue<u64, V>> SeqPriorityQueue<u64, V> for TracedHeap<Q> {
    #[inline]
    fn add(&mut self, priority: u64, value: V) {
        note(|c| c.add += 1);
        self.0.add(priority, value);
    }
    #[inline]
    fn delete_min(&mut self) -> Option<(u64, V)> {
        note(|c| c.delete_min += 1);
        self.0.delete_min()
    }
    #[inline]
    fn read_min(&self) -> Option<(&u64, &V)> {
        note(|c| c.other += 1);
        self.0.read_min()
    }
    #[inline]
    fn len(&self) -> usize {
        note(|c| c.other += 1);
        self.0.len()
    }
    fn clear(&mut self) {
        note(|c| c.other += 1);
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlz_core::DeleteMode;
    use dlz_pq::BinaryHeap;
    use dlz_workload::backends::MultiQueueBackend;
    use dlz_workload::{engine, Budget, Dist, OpMix, Scenario};

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: "rung/0".to_string(),
            id,
            parent,
            name,
            start_ns,
            end_ns,
            calls: 10,
        }
    }

    #[test]
    fn self_times_sum_to_the_top_span() {
        let spans = [
            span(1, 0, "top", 0, 1_000),
            span(2, 1, "mid", 100, 500),
            span(3, 1, "mid", 500, 800),
            span(4, 2, "leaf", 150, 250),
            span(5, 3, "leaf", 600, 650),
        ];
        let t = Tree::build(&spans);
        // top: 1000 - (400 + 300); mid: 700 - (100 + 50); leaf: 150.
        assert_eq!(t.get("rung", "top").self_ns, 300);
        assert_eq!(t.get("rung", "mid").self_ns, 550);
        assert_eq!(t.get("rung", "leaf").self_ns, 150);
        assert_eq!((t.top_ns, t.self_ns), (1_000, 1_000));
        assert_eq!(t.residual_pct(), 0.0);
        let mid = t.get("rung", "mid");
        assert_eq!((mid.calls, mid.dur_ns), (20, 700));
        assert_eq!(mid.per_call(), 35.0);
        assert_eq!(t.get("other", "mid"), Totals::default());
    }

    #[test]
    fn a_child_that_overruns_its_parent_shows_as_residual() {
        let t = Tree::build(&[span(1, 0, "top", 0, 100), span(2, 1, "kid", 0, 150)]);
        assert_eq!((t.top_ns, t.self_ns), (100, 150));
        assert_eq!(t.residual_pct(), 50.0);
    }

    #[test]
    fn recorder_nests_wall_spans_and_round_trips_as_json_lines() {
        let rec = Recorder::new();
        rec.wall("r/0", 0, "outer", 2, |outer| {
            rec.wall("r/0", outer, "inner", 1, |_| ());
            rec.count("r/0", outer, "events", 7);
        });
        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        for s in spans.iter().filter(|s| s.name != "outer") {
            assert_eq!(s.parent, outer.id);
            assert!(s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns);
        }
        let path = std::env::temp_dir().join(format!("dlz-trace-{}.jsonl", std::process::id()));
        write_jsonl(&path, &spans).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 3);
        for (line, s) in text.lines().zip(&spans) {
            let v = dlz_core::json::parse(line).expect("well-formed line");
            assert_eq!(v.get("span").and_then(|x| x.as_u64()), Some(s.id));
            assert_eq!(v.get("name").and_then(|x| x.as_str()), Some(s.name));
            assert_eq!(v.get("calls").and_then(|x| x.as_u64()), Some(s.calls));
        }
    }

    #[test]
    fn traced_heap_keeps_the_dequeue_order_and_counts_every_call() {
        let mut plain: BinaryHeap<u64, u64> = BinaryHeap::new();
        let mut traced = TracedHeap(BinaryHeap::<u64, u64>::new());
        take_heap_calls();
        for (i, p) in [5u64, 1, 9, 1, 7, 3].into_iter().enumerate() {
            plain.add(p, i as u64);
            traced.add(p, i as u64);
        }
        assert_eq!(traced.len(), plain.len());
        assert_eq!(traced.read_min(), plain.read_min());
        let mut order = Vec::new();
        while let Some(x) = traced.delete_min() {
            assert_eq!(Some(x), plain.delete_min());
            order.push(x);
        }
        // Equal priorities come out in insertion order.
        assert_eq!(order[..2], [(1, 1), (1, 3)]);
        assert_eq!(
            take_heap_calls(),
            HeapCalls {
                add: 6,
                delete_min: 7,
                other: 2
            }
        );
        assert_eq!(take_heap_calls(), HeapCalls::default());
    }

    #[test]
    fn traced_backend_reports_what_the_plain_backend_reports() {
        let scenario = Scenario::builder("t", Family::Queue)
            .threads(2)
            .mix(OpMix::new(50, 50, 0))
            .prefill(500)
            .budget(Budget::OpsPerWorker(5_000))
            .priorities(Dist::Uniform { n: 1 << 30 })
            .seed(9)
            .build();
        let backend = || MultiQueueBackend::heap(8, DeleteMode::Strict);
        let plain = engine::run(&scenario, &backend());
        let rec = Recorder::new();
        let inner = backend();
        let traced = engine::run(&scenario, &TracedBackend::new(&inner, &rec, "engine"));
        assert!(plain.verified() && traced.verified());
        assert_eq!(plain.backend, traced.backend);
        assert_eq!(
            (
                plain.counts.updates,
                plain.counts.removes + plain.counts.removes_empty
            ),
            (
                traced.counts.updates,
                traced.counts.removes + traced.counts.removes_empty
            )
        );
        assert_eq!(plain.counts.prefill, traced.counts.prefill);
        assert_eq!(
            plain.residual + plain.counts.removes,
            traced.residual + traced.counts.removes
        );

        let t = Tree::build(&rec.spans());
        let (worker, blocks) = (
            t.get("engine", "workload.engine.worker"),
            t.get("engine", "workload.backends.execute"),
        );
        assert_eq!(worker.calls, 10_000);
        // Blocks cover the workers' calls and the prefill session's.
        assert_eq!(blocks.calls, 10_000 + 500);
        assert_eq!(t.get("engine", "workload.engine.prefill").calls, 500);
        assert!(blocks.dur_ns <= t.top_ns);
        assert!(t.residual_pct() < 1e-9);
    }
}
