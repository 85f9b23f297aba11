//! The end-to-end protocol: warm-up, timed fixed-op samples with their
//! correctness gates, and the audit phase that prices the relaxation.

use std::time::Instant;

use dlz_core::spec::{replay_artifact, ArtifactHistory, PqOp};
use dlz_workload::{engine, OpCounts, RunReport};

use crate::host;
use crate::metrics::{Metric, Outcome};
use crate::placement::Gate;
use crate::stats::{good_mean, Summary};
use crate::workloads::{Workload, AUDITS, AUDIT_OPS, WORKERS};

/// How much work one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of every scenario (the library only sees generated ops).
    pub seed: u64,
    /// Timed samples per workload.
    pub samples: usize,
    /// Seconds one sample should take at the seed state.
    pub sample_seconds: f64,
    /// Seconds the traced pass gives its two full-size runs; every
    /// other rung is sized relative to it.
    pub rung_seconds: f64,
    /// Audit runs, each with a seed of its own (times the workload's
    /// `audit_rounds` in the end-to-end protocol).
    pub audits: usize,
    /// Ops per worker of one audit run.
    pub audit_ops: u64,
    /// Hold samples back while the workers share a core (see
    /// [`crate::placement`]).
    pub gated: bool,
}

impl Plan {
    /// The protocol for a measuring window of `seconds`, split into
    /// `samples` samples.
    pub fn new(seed: u64, seconds: f64, samples: usize) -> Plan {
        Plan {
            seed,
            samples,
            sample_seconds: seconds / samples as f64,
            rung_seconds: seconds / 5.0,
            audits: AUDITS,
            audit_ops: AUDIT_OPS,
            gated: true,
        }
    }

    /// A smoke-test plan: the same phases at a few milliseconds each.
    pub fn quick(seed: u64) -> Plan {
        Plan {
            seed,
            samples: 2,
            sample_seconds: 0.002,
            rung_seconds: 0.002,
            audits: 2,
            audit_ops: 1_000,
            gated: false,
        }
    }

    /// The placement gate this plan measures behind.
    pub fn gate(&self) -> Gate {
        if self.gated {
            Gate::default()
        } else {
            Gate::open()
        }
    }

    /// The fixed-op budget of a run of `w` meant to take `seconds`.
    pub fn ops_for(w: &Workload, seconds: f64) -> u64 {
        ((w.ops_2s as f64 * seconds / 2.0) as u64).max(1_000)
    }

    /// The fixed-op budget of one sample of `w`.
    pub fn ops_per_worker(&self, w: &Workload) -> u64 {
        Plan::ops_for(w, self.sample_seconds)
    }
}

/// One timed sample: a fresh backend and one engine run. Returns the
/// report and the set-up time (wall time outside the measured window:
/// backend construction, prefill, thread start and the post-run
/// verification).
pub fn sample(w: &Workload, seed: u64, ops_per_worker: u64) -> (RunReport, f64) {
    let t0 = Instant::now();
    let backend = w.backend();
    let scenario = w.scenario(seed, ops_per_worker);
    let report = engine::run(&scenario, backend.as_ref());
    let wall = t0.elapsed();
    let setup = wall.saturating_sub(report.elapsed).as_secs_f64();
    (report, setup)
}

/// Ops a run attempted: completed ones plus dequeues that came back
/// empty.
pub fn attempted(c: &OpCounts) -> u64 {
    c.completed() + c.removes_empty
}

/// Checks one sample's gates; returns the failed-op count (0 when
/// clean) and appends a description of every miss to `errors`.
pub fn check(w: &Workload, report: &RunReport, errors: &mut Vec<String>) -> u64 {
    if let Some(e) = &report.verify_error {
        errors.push(format!("{}: {e}", w.name));
        return attempted(&report.counts);
    }
    if w.never_empty() && report.counts.removes_empty > 0 {
        errors.push(format!(
            "{}: {} dequeues found a never-empty backlog empty",
            w.name, report.counts.removes_empty
        ));
        return report.counts.removes_empty;
    }
    0
}

/// What the audit phase found.
#[derive(Debug, Clone, Copy)]
pub struct Audit {
    /// Mean relaxation cost: dequeue rank (queue workloads) or read
    /// deviation (`stm-relaxed`'s clock counter).
    pub rank_mean: f64,
    /// 99th percentile of the same distribution.
    pub rank_p99: f64,
    /// The checker mapped every operation with sound stamps.
    pub linearizable: bool,
    /// Events in the replayed history.
    pub events: u64,
    /// Ops the audit run attempted (prefill excluded).
    pub attempted: u64,
    /// Wall time of the checker replay, per event.
    pub check_ns_per_event: f64,
}

/// Runs the audit: a stamped-history run of the workload's mix and
/// policy, replayed through `dlz_core::spec` from its artifact.
pub fn audit(w: &Workload, seed: u64, ops_per_worker: u64) -> Result<Audit, String> {
    let (scenario, backend) = w.audit(seed, ops_per_worker);
    let report = engine::run(&scenario, backend.as_ref());
    if let Some(e) = &report.verify_error {
        return Err(format!("{} audit: {e}", w.name));
    }
    let artifact = backend
        .take_history_artifact()
        .ok_or_else(|| format!("{} audit: backend recorded no history", w.name))?;
    let t0 = Instant::now();
    let outcome = replay_artifact(&artifact);
    let check = t0.elapsed();
    // Inserts always cost 0 and would dilute the dequeue rank; costs
    // align with labels only when nothing was unmappable, and an
    // unmappable history fails the verdict anyway.
    let mut costs: Vec<f64> = match &artifact.history {
        ArtifactHistory::Pq(h) if outcome.unmappable.is_empty() => h
            .labels_in_update_order()
            .iter()
            .zip(outcome.costs.samples())
            .filter(|(l, _)| matches!(l, PqOp::DeleteMin { .. }))
            .map(|(_, c)| *c)
            .collect(),
        _ => artifact.metric_costs(&outcome),
    };
    if costs.is_empty() {
        return Err(format!("{} audit: no cost samples", w.name));
    }
    costs.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
    let n = costs.len();
    let events = artifact.len() as u64;
    Ok(Audit {
        rank_mean: costs.iter().sum::<f64>() / n as f64,
        rank_p99: costs[((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1],
        linearizable: outcome.is_linearizable(),
        events,
        attempted: attempted(&report.counts),
        check_ns_per_event: check.as_nanos() as f64 / events.max(1) as f64,
    })
}

/// The audit phase: `count` audits with seeds of their own. A sticky
/// policy's rank depends heavily on where the workers happened to camp,
/// so one audit is a draw, not a measurement; the reported rank figures
/// are means over the audits. Returns the per-audit results and books
/// ops, verdicts and failures into `out`.
pub fn audit_phase(w: &Workload, plan: &Plan, count: usize, out: &mut Outcome) -> Vec<Audit> {
    let mut audits = Vec::new();
    for k in 0..count as u64 {
        match audit(
            w,
            plan.seed.wrapping_add(k.wrapping_mul(0x9e37_79b9)),
            plan.audit_ops,
        ) {
            Ok(a) => {
                out.attempted += a.attempted;
                if !a.linearizable {
                    out.errors
                        .push(format!("{}: audit {k} history is not linearizable", w.name));
                    out.failed += a.attempted;
                }
                audits.push(a);
            }
            Err(e) => {
                out.errors.push(e);
                out.attempted += WORKERS as u64 * plan.audit_ops;
                out.failed += WORKERS as u64 * plan.audit_ops;
            }
        }
    }
    audits
}

/// Runs the whole end-to-end protocol for `w` and returns every
/// end-to-end metric with its dispersion.
pub fn end_to_end(w: &Workload, plan: &Plan) -> Outcome {
    // The same window, cut into `w.slices` times as many samples.
    let samples = plan.samples * w.slices;
    let ops = (plan.ops_per_worker(w) / w.slices as u64).max(1_000);
    let mut out = Outcome::default();
    eprintln!("  {samples} samples of {ops} ops/worker");
    // Discarded warm-up: pages the binary in, grows the allocator.
    let _ = sample(w, plan.seed, (plan.ops_per_worker(w) / 4).max(1_000));

    let mut first: Option<OpCounts> = None;
    let (mut setup, mut mops, mut p50) = (vec![], vec![], vec![]);
    let mut gate = plan.gate();
    for i in 0..samples {
        let (r, setup_s) = loop {
            gate.wait_distinct();
            let s = sample(w, plan.seed, ops);
            if !gate.must_discard() {
                break s;
            }
        };
        out.attempted += attempted(&r.counts);
        out.failed += check(w, &r, &mut out.errors);
        // Fixed ops and a fixed seed make the counts deterministic; a
        // drift means the library saw different inputs.
        let c = *first.get_or_insert(r.counts);
        if (c.updates, c.removes + c.removes_empty, c.reads)
            != (
                r.counts.updates,
                r.counts.removes + r.counts.removes_empty,
                r.counts.reads,
            )
        {
            out.errors.push(format!(
                "{}: sample {i} op counts {:?} differ from sample 0 {:?}",
                w.name, r.counts, c
            ));
            out.failed += attempted(&r.counts);
        }
        let (sample_p50, sample_p99) = w.latencies(&r);
        setup.push(setup_s);
        mops.push(r.mops());
        p50.push(sample_p50);
        eprintln!(
            "  sample {i}: {:.3} Mops, p50 {sample_p50:.0} ns (p99 {sample_p99:.0} ns), setup {:.1} ms, {} ops",
            r.mops(),
            setup_s * 1e3,
            r.total_ops()
        );
    }
    // Read before the audits, whose histories would otherwise be the
    // peak.
    let rss = host::peak_rss_mb();
    out.notes.push(gate.note());

    // Timed metrics report the mean of their second to fifth best
    // samples.
    for (name, values, lower_is_better) in [
        ("setup_s", &setup, true),
        ("throughput_mops", &mops, false),
        ("op_p50_ns", &p50, true),
    ] {
        let value = good_mean(values, lower_is_better);
        out.metrics
            .push(Metric::summarised(name, value, Summary::of(values)));
    }

    let audits = audit_phase(w, plan, plan.audits * w.audit_rounds, &mut out);
    if !audits.is_empty() {
        for (name, of) in [
            ("rank_mean", (|a| a.rank_mean) as fn(&Audit) -> f64),
            ("rank_p99", |a| a.rank_p99),
        ] {
            let values: Vec<f64> = audits.iter().map(of).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            out.metrics
                .push(Metric::summarised(name, mean, Summary::of(&values)));
        }
        eprintln!(
            "  audits: {} histories of {} events",
            audits.len(),
            audits[0].events
        );
    }
    match rss {
        Some(mb) => out.metrics.push(Metric::single("peak_rss_mb", mb)),
        None => out.errors.push("VmHWM unavailable: no peak_rss_mb".into()),
    }
    out
}
