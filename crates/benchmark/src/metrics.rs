//! The metric catalogue: every name the benchmark may print, with its
//! unit, direction and (end-to-end only) regression bound. A unit test
//! holds this table and `BENCHMARK.json` equal.

use dlz_core::json::JsonObject;

use crate::stats::Summary;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// A metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median the metric may worsen by before it
    /// is a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by an untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_mops", "Mops", Higher, 0.25),
    e2e("op_p50_ns", "ns", Lower, 0.20),
    e2e("rank_mean", "items", Lower, 0.20),
    e2e("rank_p99", "items", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// The layer ladder; printed by a traced run. `pk` = per 1000 ops.
pub const PER_LAYER: [MetricDef; 62] = [
    layer("pq.binary_heap.add_ns", "ns", Lower),
    layer("pq.binary_heap.delete_min_ns", "ns", Lower),
    layer("pq.binary_heap.calls_per_op", "calls/op", Lower),
    layer("pq.locked.insert_ns", "ns", Lower),
    layer("pq.locked.remove_min_ns", "ns", Lower),
    layer("pq.locked.self_ns", "ns", Lower),
    layer("core.queue.insert_ns", "ns", Lower),
    layer("core.queue.dequeue_ns", "ns", Lower),
    layer("core.queue.insert_ns.t2", "ns", Lower),
    layer("core.queue.dequeue_ns.t2", "ns", Lower),
    layer("core.queue.self_ns", "ns", Lower),
    layer("core.queue.batch16_insert_ns", "ns", Lower),
    layer("core.queue.batch16_dequeue_ns", "ns", Lower),
    layer("core.queue.sticky16_dequeue_ns", "ns", Lower),
    layer("core.queue.try_lock_failures_pk", "1/kop", Lower),
    layer("core.queue.cas_retries_pk", "1/kop", Lower),
    layer("core.queue.backoff_spins_pk", "1/kop", Lower),
    layer("core.queue.empty_confirms_pk", "1/kop", Lower),
    layer("core.queue.hint_republishes_pk", "1/kop", Lower),
    layer("core.queue.first_try_ratio", "ratio", Higher),
    layer("core.queue.rank_proxy_mean", "priority", Lower),
    layer("core.spec.check_ns_per_event", "ns", Lower),
    layer("core.spec.history_events", "count", Lower),
    layer("workload.backends.execute_ns", "ns", Lower),
    layer("workload.backends.self_ns", "ns", Lower),
    layer("workload.engine.op_ns", "ns", Lower),
    layer("workload.engine.self_ns", "ns", Lower),
    layer("workload.engine.latency_sampling_ns", "ns", Lower),
    layer("workload.engine.telemetry_on_pct", "%", Lower),
    layer("workload.engine.faults_armed_pct", "%", Lower),
    layer("workload.engine.op_p99_ns", "ns", Lower),
    layer("workload.engine.op_p999_ns", "ns", Lower),
    layer("workload.metrics.record_ns", "ns", Lower),
    layer("workload.clients.self_paced_op_ns", "ns", Lower),
    layer("workload.clients.self_ns", "ns", Lower),
    layer("workload.clients.overhead_pct", "%", Lower),
    layer("workload.clients.self_paced_queueing_p50_ns", "ns", Lower),
    layer(
        "workload.clients.self_paced_queueing_p50_ns.every8",
        "ns",
        Lower,
    ),
    layer("workload.clients.queueing_p50_ns", "ns", Lower),
    layer("workload.clients.queueing_p99_ns", "ns", Lower),
    layer("workload.clients.service_p50_ns", "ns", Lower),
    layer("workload.clients.backlog_max", "count", Lower),
    layer("workload.clients.total_p50_ns", "ns", Lower),
    layer("workload.clients.total_p99_ns", "ns", Lower),
    layer("workload.clients.total_p999_ns", "ns", Lower),
    layer("sim.wheel.schedule_pop_ns", "ns", Lower),
    layer("core.counter.increment_ns", "ns", Lower),
    layer("core.counter.read_ns", "ns", Lower),
    layer("core.counter.increment_ns.t2", "ns", Lower),
    layer("core.counter.read_dev_mean", "count", Lower),
    layer("stm.clock.read_version_ns", "ns", Lower),
    layer("stm.clock.write_version_ns", "ns", Lower),
    layer("stm.engine.txn_ns", "ns", Lower),
    layer("stm.engine.aborts_pk", "1/kop", Lower),
    layer("stm.engine.future_version_pk", "1/kop", Lower),
    layer("stm.engine.lock_busy_pk", "1/kop", Lower),
    layer("stm.engine.read_validation_pk", "1/kop", Lower),
    layer("stm.exact.throughput_mops", "Mops", Higher),
    layer("stm.relaxed_over_exact", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.residual_pct", "%", Lower),
    layer("trace.ladder_gap_pct", "%", Lower),
];

/// One measured value, ready to print.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the catalogue.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Dispersion of the samples behind it (absent for single
    /// readings).
    pub summary: Option<Summary>,
}

impl Metric {
    /// A value reported from several samples.
    pub fn summarised(name: &'static str, value: f64, summary: Summary) -> Metric {
        Metric {
            name,
            value,
            summary: Some(summary),
        }
    }

    /// A single reading.
    pub fn single(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            summary: None,
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Ops attempted across the measured samples and the audit.
    pub attempted: u64,
    /// Ops that failed: empty dequeues on a never-empty backlog, plus
    /// every op of a sample or audit whose verification failed.
    pub failed: u64,
    /// What went wrong, one line each (empty when correct).
    pub errors: Vec<String>,
    /// What the run did besides measuring (the placement gate).
    pub notes: Vec<String>,
}

impl Outcome {
    /// `true` when every gate held.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Failed ops as a percentage of attempted ops.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Looks a metric's value up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and `metrics` (name → value and
    /// unit).
    pub fn contract_json(&self, defs: &[MetricDef]) -> String {
        let mut o = JsonObject::new();
        o.bool("correct", self.correct())
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed);
        o.obj("metrics", |mo| {
            for m in &self.metrics {
                mo.obj(m.name, |v| {
                    v.f64("value", m.value).str("unit", unit_of(defs, m.name));
                });
            }
        });
        o.finish()
    }

    /// The detailed object: whatever `header` writes, then the contract
    /// fields with each metric's dispersion, then the errors.
    pub fn detail_json(&self, defs: &[MetricDef], header: impl FnOnce(&mut JsonObject)) -> String {
        let mut o = JsonObject::new();
        header(&mut o);
        o.bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .f64("failed_pct", self.failed_pct());
        o.obj("metrics", |mo| {
            for m in &self.metrics {
                mo.obj(m.name, |v| {
                    v.f64("value", m.value).str("unit", unit_of(defs, m.name));
                    match &m.summary {
                        Some(s) => {
                            v.u64("n", s.n as u64)
                                .f64("median", s.median)
                                .f64("q1", s.q1)
                                .f64("q3", s.q3)
                                .f64("min", s.min)
                                .f64("max", s.max);
                        }
                        None => {
                            v.u64("n", 1);
                        }
                    }
                });
            }
        });
        let strings = |list: &[String]| {
            let quoted: Vec<String> = list
                .iter()
                .map(|e| {
                    let mut s = String::new();
                    dlz_core::json::escape_into(&mut s, e);
                    s
                })
                .collect();
            dlz_core::json::array(&quoted)
        };
        o.raw("notes", &strings(&self.notes))
            .raw("errors", &strings(&self.errors));
        o.finish()
    }

    /// Prints the human-readable table to stderr.
    pub fn print_table(&self, defs: &[MetricDef]) {
        for m in &self.metrics {
            let unit = unit_of(defs, m.name);
            match &m.summary {
                Some(s) => eprintln!(
                    "  {:<52} {:>14.4} {:<8} n={} q1={:.4} q3={:.4} min={:.4} max={:.4} iqr={:.1}%",
                    m.name,
                    m.value,
                    unit,
                    s.n,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    100.0 * s.spread()
                ),
                None => eprintln!("  {:<52} {:>14.4} {:<8} n=1", m.name, m.value, unit),
            }
        }
        eprintln!(
            "  {:<52} {:>14.4} {:<8} ({} of {} ops)",
            "failed_pct",
            self.failed_pct(),
            "%",
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            eprintln!("  {n}");
        }
        for e in &self.errors {
            eprintln!("  FAILED: {e}");
        }
    }
}

fn unit_of(defs: &[MetricDef], name: &str) -> &'static str {
    defs.iter().find(|d| d.name == name).map_or("?", |d| d.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use dlz_core::json::{self, JsonValue};

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(well_formed(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok));
        }
        assert!(well_formed("a.b-c_9") && !well_formed(".a") && !well_formed("a b"));
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn declared(list: &JsonValue) -> Vec<(String, String, String, Option<f64>)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let s = |k: &str| field(m, k).as_str().expect("a string").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                    .to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(declared(field(&v, "end_to_end")), catalogue(&END_TO_END));
        assert_eq!(declared(field(&v, "per_layer")), catalogue(&PER_LAYER));
        let workloads: Vec<(String, String)> = field(&v, "workloads")
            .as_array()
            .expect("a list")
            .iter()
            .map(|w| {
                let s = |k: &str| field(w, k).as_str().expect("a string").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (_, why) in &ours {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        // setup_s carries the largest bound; no bound exceeds a quarter.
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.expect("bound"));
        }
        assert_eq!(
            field(&v, "paths").as_array().map(|p| p.len()),
            Some(1),
            "the benchmark lives in one directory"
        );
        assert!(field(&v, "run_seconds")
            .as_u64()
            .is_some_and(|s| (1..=60).contains(&s)));
    }

    #[test]
    fn contract_json_has_exactly_the_four_keys() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.metrics.push(Metric::single("setup_s", 0.5));
        let v = json::parse(&out.contract_json(&END_TO_END)).expect("parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        out.failed = 1;
        assert!(!out.correct());
        assert_eq!(out.failed_pct(), 10.0);
    }
}
