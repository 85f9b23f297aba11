//! The result of one engine run, and its machine-readable form.

use std::time::Duration;

use crate::backend::QualityReport;
use crate::clients::ClientReport;
use crate::metrics::{LatencySummary, TelemetrySeries};
use crate::op::OpCounts;
use crate::scenario::{Budget, Scenario};
use dlz_core::json::{self, JsonObject};

/// How one worker thread ended its run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The worker ran its full budget (or the stop flag) to the end.
    Completed,
    /// The worker panicked; the payload message is attached. Its
    /// metrics and telemetry up to the panic were salvaged.
    Panicked(String),
    /// The watchdog diagnosed the worker as making no progress and
    /// aborted the run; the diagnosis is attached.
    Stalled(String),
}

impl WorkerOutcome {
    /// Lowercase label used in reports (`completed` / `panicked` /
    /// `stalled`).
    pub fn label(&self) -> &'static str {
        match self {
            WorkerOutcome::Completed => "completed",
            WorkerOutcome::Panicked(_) => "panicked",
            WorkerOutcome::Stalled(_) => "stalled",
        }
    }

    /// The attached panic message or watchdog diagnosis, if any.
    pub fn detail(&self) -> Option<&str> {
        match self {
            WorkerOutcome::Completed => None,
            WorkerOutcome::Panicked(d) | WorkerOutcome::Stalled(d) => Some(d),
        }
    }
}

/// The fault section of a report: what the chaos layer injected and how
/// each worker fared. Present whenever the scenario armed a
/// [`FaultPlan`](crate::faults::FaultPlan).
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The fault-plan spec the run armed.
    pub plan: String,
    /// `true` if the watchdog aborted the run.
    pub aborted: bool,
    /// Per-worker outcomes, indexed by worker id.
    pub workers: Vec<WorkerOutcome>,
}

impl FaultReport {
    /// `true` if every worker completed its budget.
    pub fn all_completed(&self) -> bool {
        self.workers
            .iter()
            .all(|w| matches!(w, WorkerOutcome::Completed))
    }
}

/// Everything one scenario run against one backend produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario family label.
    pub family: &'static str,
    /// Backend label.
    pub backend: String,
    /// Worker count.
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
    /// Prefill size.
    pub prefill: u64,
    /// Measured wall-clock time.
    pub elapsed: Duration,
    /// Merged operation counts.
    pub counts: OpCounts,
    /// Merged latency summary (completed ops, nanoseconds).
    pub latency: LatencySummary,
    /// Backend quality metrics.
    pub quality: QualityReport,
    /// Items left in the structure after the run.
    pub residual: u64,
    /// `None` when the backend's conservation law held, else the
    /// violation message.
    pub verify_error: Option<String>,
    /// Budget the run used (echoed into the JSON).
    pub budget: Budget,
    /// Choice-policy label the scenario carried (queue backends act on
    /// it; other families echo the default).
    pub policy: String,
    /// Sweep-cell name when the run came from
    /// [`engine::run_sweep`](crate::engine::run_sweep)
    /// (e.g. `queue-balanced/t=8/policy=sticky(s=16)`); `None` for a
    /// plain [`engine::run`](crate::engine::run).
    pub cell: Option<String>,
    /// Swept grid coordinates as `(axis, value-label)` pairs; empty
    /// outside sweeps and for 1×1 grids with no explicit axes.
    pub grid: Vec<(String, String)>,
    /// Simulated-client accounting when the scenario set
    /// [`clients`](crate::Scenario::clients) > 0: active clients,
    /// arrival backlog, and the queueing/service latency split (see
    /// [`ClientReport`]). `None` on closed-loop runs.
    pub clients: Option<ClientReport>,
    /// Time-resolved telemetry: the merged, index-aligned per-interval
    /// series when the scenario set
    /// [`telemetry_interval`](crate::Scenario::telemetry_interval);
    /// `None` otherwise. Per-interval op counts sum exactly to the
    /// run's (pre-prefill) totals.
    pub telemetry: Option<TelemetrySeries>,
    /// Fault-injection outcome when the scenario armed a fault plan;
    /// `None` for healthy runs.
    pub faults: Option<FaultReport>,
    /// History-artifact export failures. The run itself is unaffected —
    /// the engine degrades export errors to warnings — but they are
    /// recorded here so callers can fail loudly.
    pub export_errors: Vec<String>,
}

impl RunReport {
    /// Completed operations during the measured window.
    pub fn total_ops(&self) -> u64 {
        self.counts.completed()
    }

    /// Million completed operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// `true` if the backend's conservation law held.
    pub fn verified(&self) -> bool {
        self.verify_error.is_none()
    }

    /// `true` if the run is clean end to end: conservation held, every
    /// worker completed, and every requested artifact was exported.
    pub fn ok(&self) -> bool {
        self.verified()
            && self.export_errors.is_empty()
            && self.faults.as_ref().is_none_or(FaultReport::all_completed)
    }

    /// Renders the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("scenario", &self.scenario)
            .str("family", self.family)
            .str("backend", &self.backend)
            .u64("threads", self.threads as u64)
            .str("policy", &self.policy)
            .u64("seed", self.seed)
            .u64("prefill", self.prefill);
        if let Some(cell) = &self.cell {
            o.str("cell", cell);
            o.obj("grid", |g| {
                for (k, v) in &self.grid {
                    g.str(k, v);
                }
            });
        }
        match self.budget {
            Budget::OpsPerWorker(n) => {
                o.obj("budget", |b| {
                    b.str("type", "ops").u64("ops_per_worker", n);
                });
            }
            Budget::Timed(d) => {
                o.obj("budget", |b| {
                    b.str("type", "timed")
                        .f64("duration_ms", d.as_secs_f64() * 1e3);
                });
            }
        }
        // `closed`, or the label of the clients' arrival shape.
        o.str(
            "arrival",
            self.clients.as_ref().map_or("closed", |c| c.shape.as_str()),
        );
        o.f64("elapsed_s", self.elapsed.as_secs_f64());
        o.obj("throughput", |t| {
            t.u64("total_ops", self.total_ops())
                .f64("mops", self.mops())
                .u64("updates", self.counts.updates)
                .u64("removes", self.counts.removes)
                .u64("removes_empty", self.counts.removes_empty)
                .u64("reads", self.counts.reads);
        });
        o.obj("latency_ns", |l| {
            l.f64("mean", self.latency.mean_ns)
                .u64("p50", self.latency.p50_ns)
                .u64("p99", self.latency.p99_ns)
                .u64("p999", self.latency.p999_ns)
                .u64("max", self.latency.max_ns);
        });
        let q = &self.quality;
        o.obj("quality", |qo| {
            qo.str("metric", &q.metric);
            if let Some(s) = q.summary {
                qo.u64("count", s.count)
                    .f64("mean", s.mean)
                    .f64("p50", s.p50)
                    .f64("p99", s.p99)
                    .f64("max", s.max);
            }
            for (name, value) in &q.scalars {
                qo.f64(name, *value);
            }
        });
        if let Some(c) = &self.clients {
            o.obj("clients", |co| {
                co.u64("count", c.clients)
                    .str("shape", &c.shape)
                    .u64("active", c.active)
                    .u64("arrivals", c.arrivals)
                    .u64("backlog_max", c.backlog_max)
                    .str("arrival_digest", &format!("{:016x}", c.arrival_digest));
                for (name, l) in [
                    ("queueing_ns", &c.queueing_ns),
                    ("service_ns", &c.service_ns),
                ] {
                    co.obj(name, |lo| {
                        lo.f64("mean", l.mean_ns)
                            .u64("p50", l.p50_ns)
                            .u64("p99", l.p99_ns)
                            .u64("p999", l.p999_ns)
                            .u64("max", l.max_ns);
                    });
                }
            });
        }
        if let Some(t) = &self.telemetry {
            let rows: Vec<String> = t
                .intervals
                .iter()
                .map(|s| {
                    let lat = LatencySummary::from(&s.latency);
                    let mut io = JsonObject::new();
                    io.u64("index", s.index)
                        .u64("end_ms", s.end_ms)
                        .u64("updates", s.counts.updates)
                        .u64("removes", s.counts.removes)
                        .u64("removes_empty", s.counts.removes_empty)
                        .u64("reads", s.counts.reads)
                        .f64("latency_mean_ns", lat.mean_ns)
                        .u64("latency_p99_ns", lat.p99_ns);
                    io.obj("contention", |c| {
                        for (name, value) in s.contention.fields() {
                            c.u64(name, value);
                        }
                    });
                    io.finish()
                })
                .collect();
            o.obj("telemetry", |to| {
                to.u64("interval_ms", t.interval_ms)
                    .u64("intervals", t.intervals.len() as u64)
                    .raw("series", &json::array(&rows));
            });
        }
        if let Some(f) = &self.faults {
            let rows: Vec<String> = f
                .workers
                .iter()
                .enumerate()
                .map(|(id, w)| {
                    let mut wo = JsonObject::new();
                    wo.u64("id", id as u64).str("outcome", w.label());
                    if let Some(d) = w.detail() {
                        wo.str("detail", d);
                    }
                    wo.finish()
                })
                .collect();
            o.obj("faults", |fo| {
                fo.str("plan", &f.plan)
                    .bool("aborted", f.aborted)
                    .raw("workers", &json::array(&rows));
            });
        }
        if !self.export_errors.is_empty() {
            let rows: Vec<String> = self
                .export_errors
                .iter()
                .map(|e| {
                    let mut s = String::new();
                    json::escape_into(&mut s, e);
                    s
                })
                .collect();
            o.raw("export_errors", &json::array(&rows));
        }
        o.u64("residual", self.residual);
        o.bool("verified", self.verified());
        match &self.verify_error {
            Some(e) => o.str("verify_error", e),
            None => o.null("verify_error"),
        };
        o.finish()
    }
}

/// Builds the static part of a report from a scenario (the engine fills
/// in the measured fields).
pub(crate) fn skeleton(scenario: &Scenario, backend_name: String) -> RunReport {
    RunReport {
        scenario: scenario.name.clone(),
        family: scenario.family.label(),
        backend: backend_name,
        threads: scenario.threads,
        seed: scenario.seed,
        prefill: scenario.prefill,
        elapsed: Duration::ZERO,
        counts: OpCounts::default(),
        latency: LatencySummary::default(),
        quality: QualityReport::default(),
        residual: 0,
        verify_error: None,
        budget: scenario.budget,
        policy: scenario.choice_policy.label(),
        cell: None,
        grid: Vec::new(),
        clients: None,
        telemetry: None,
        faults: None,
        export_errors: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Family;

    #[test]
    fn json_contains_required_fields() {
        let s = Scenario::builder("t", Family::Counter).build();
        let mut r = skeleton(&s, "backend-x".into());
        r.elapsed = Duration::from_millis(100);
        r.counts.updates = 1000;
        r.latency.p50_ns = 120;
        r.latency.p99_ns = 900;
        r.quality = QualityReport::named("read_deviation").scalar("bound", 4.0);
        let j = r.to_json();
        for needle in [
            "\"scenario\":\"t\"",
            "\"backend\":\"backend-x\"",
            "\"mops\":",
            "\"p50\":120",
            "\"p99\":900",
            "\"metric\":\"read_deviation\"",
            "\"bound\":4",
            "\"verified\":true",
            "\"policy\":\"two-choice\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        // Not a sweep run: no cell/grid keys.
        assert!(!j.contains("\"cell\":"));
        assert!(!j.contains("\"grid\":"));
        // Not a client-driven run: no clients section.
        assert!(!j.contains("\"clients\":"));
    }

    #[test]
    fn clients_section_renders_with_latency_split() {
        let s = Scenario::builder("t", Family::Queue).build();
        let mut r = skeleton(&s, "b".into());
        let mut queueing = crate::metrics::LogHistogram::new();
        let mut service = crate::metrics::LogHistogram::new();
        queueing.record(5_000);
        service.record(150);
        r.clients = Some(ClientReport {
            clients: 100_000,
            shape: "poisson(50/s)".into(),
            active: 12_345,
            arrivals: 40_000,
            backlog_max: 777,
            queueing_ns: crate::metrics::LatencySummary::from(&queueing),
            service_ns: crate::metrics::LatencySummary::from(&service),
            arrival_digest: 0xdead_beef_cafe_f00d,
        });
        let j = r.to_json();
        for needle in [
            "\"clients\":{\"count\":100000",
            "\"shape\":\"poisson(50/s)\"",
            "\"active\":12345",
            "\"arrivals\":40000",
            "\"backlog_max\":777",
            "\"arrival_digest\":\"deadbeefcafef00d\"",
            "\"queueing_ns\":{",
            "\"service_ns\":{",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    #[test]
    fn sweep_cell_and_grid_render() {
        let s = Scenario::builder("t", Family::Queue).build();
        let mut r = skeleton(&s, "b".into());
        r.cell = Some("t/t=8/policy=sticky(s=16)".into());
        r.grid = vec![
            ("t".into(), "8".into()),
            ("policy".into(), "sticky(s=16)".into()),
        ];
        let j = r.to_json();
        assert!(j.contains("\"cell\":\"t/t=8/policy=sticky(s=16)\""), "{j}");
        assert!(
            j.contains("\"grid\":{\"t\":\"8\",\"policy\":\"sticky(s=16)\"}"),
            "{j}"
        );
    }

    #[test]
    fn fault_section_and_export_errors_render() {
        let s = Scenario::builder("t", Family::Queue).build();
        let mut r = skeleton(&s, "b".into());
        assert!(r.ok(), "skeleton is clean");
        r.faults = Some(FaultReport {
            plan: "panic:1@400".into(),
            aborted: false,
            workers: vec![
                WorkerOutcome::Completed,
                WorkerOutcome::Panicked("injected fault: panic before op 400".into()),
            ],
        });
        r.export_errors.push("write hist: disk full".into());
        assert!(!r.ok());
        let j = r.to_json();
        for needle in [
            "\"faults\":{\"plan\":\"panic:1@400\",\"aborted\":false",
            "\"outcome\":\"completed\"",
            "\"outcome\":\"panicked\"",
            "\"detail\":\"injected fault: panic before op 400\"",
            "\"export_errors\":[\"write hist: disk full\"]",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        // A fault section with only completed workers is still ok.
        r.export_errors.clear();
        r.faults.as_mut().expect("faults").workers[1] = WorkerOutcome::Completed;
        assert!(r.ok());
        // A stalled worker (watchdog abort) is not.
        r.faults.as_mut().expect("faults").workers[0] =
            WorkerOutcome::Stalled("no progress for 2 intervals".into());
        assert!(!r.ok());
    }

    #[test]
    fn verify_error_round_trips() {
        let s = Scenario::builder("t", Family::Queue).build();
        let mut r = skeleton(&s, "b".into());
        r.verify_error = Some("lost 3 items".into());
        assert!(!r.verified());
        assert!(r.to_json().contains("\"verify_error\":\"lost 3 items\""));
    }
}
