//! **MultiQueue hot-path benchmark** — the recurring before/after
//! snapshot for the contention work, recorded as a *trajectory* in
//! `BENCH_mq_hotpath.json` (one JSON array element per snapshot, so
//! regressions across PRs stay visible; the file is appended to, not
//! overwritten).
//!
//! For each `mq-hotpath-*` throughput scenario the binary runs the
//! *same* workload at ≥ 8 threads in three configurations:
//!
//! * **baseline** — the plain MultiQueue (fresh two-choice draws every
//!   op, one op per lock acquisition),
//! * **optimized** — the tuned configuration the scenario declares via
//!   its `choice_policy`/`batch` dimensions (sticky camping for `s`
//!   consecutive ops, `k` ops batched per lock acquisition), and
//! * **adaptive** (dequeue-heavy shape only) — `AdaptiveSticky` with
//!   `s_max` equal to the static policy's `s`, to check the online
//!   adaptation stays within noise of the best static stickiness,
//!
//! then reports the throughput improvements. The rank guardrails run
//! the `mq-hotpath-rank-audit` (static sticky) and
//! `mq-hotpath-adaptive-audit` (adaptive) scenarios with history
//! recording on: the checker-exact dequeue ranks must stay within the
//! policy envelope each backend reports (`O(s·m)`, observed-s for
//! adaptive), and the resulting metrics are embedded in the JSON.
//!
//! ```text
//! cargo run --release -p dlz-bench --bin mq_hotpath
//! cargo run --release -p dlz-bench --bin mq_hotpath -- --quick --json /tmp/out.json
//! ```

use std::io::Write as _;

use dlz_bench::{Config, Table};
use dlz_core::json::JsonObject;
use dlz_core::{DeleteMode, PolicyCfg};
use dlz_workload::backends::MultiQueueBackend;
use dlz_workload::{engine, ArrivalShape, Backend, Budget, RunReport, Scenario};

const DEFAULT_OUT: &str = "BENCH_mq_hotpath.json";
/// Acceptance target on the contended dequeue-heavy point.
const TARGET_PCT: f64 = 15.0;
/// Noise band for adaptive-vs-static stickiness throughput.
const NOISE_PCT: f64 = 5.0;

/// Applies thread/duration overrides and quick-mode shrinking.
fn customize(mut s: Scenario, cfg: &Config, threads: usize) -> Scenario {
    s.threads = threads;
    if cfg.was_set("seed") {
        s.seed = cfg.seed;
    }
    if let (Budget::Timed(_), true) = (s.budget, cfg.was_set("duration-ms")) {
        s.budget = Budget::Timed(cfg.duration);
    }
    if cfg.quick {
        s.budget = match s.budget {
            Budget::Timed(d) => Budget::Timed(d.min(std::time::Duration::from_millis(50))),
            Budget::OpsPerWorker(n) => Budget::OpsPerWorker((n / 20).max(100)),
        };
        s.prefill = s.prefill.min(5_000);
    }
    s
}

/// One verified engine run against a *fresh* backend (reusing one
/// would carry residual items between rounds and break the
/// conservation check).
fn run_once<B: Backend>(scenario: &Scenario, make: &impl Fn() -> B) -> RunReport {
    let backend = make();
    let r = engine::run(scenario, &backend);
    assert!(
        r.verified(),
        "{} on {} failed verify: {:?}",
        scenario.name,
        r.backend,
        r.verify_error
    );
    r
}

/// The run with median throughput — symmetric against scheduler noise,
/// unlike best-of.
fn median(mut runs: Vec<RunReport>) -> RunReport {
    runs.sort_by(|a, b| a.mops().partial_cmp(&b.mops()).expect("finite mops"));
    runs.swap_remove(runs.len() / 2)
}

/// Runs a history-recording audit scenario and asserts the checker's
/// samples are non-vacuous; returns (report, within_bound, linearizable).
fn run_audit(name: &str, cfg: &Config) -> (RunReport, bool, bool) {
    let mut s = Scenario::named(name).expect("catalog scenario");
    if cfg.quick {
        s.budget = Budget::OpsPerWorker(1_000);
        s.prefill = 500;
    }
    if cfg.was_set("seed") {
        s.seed = cfg.seed;
    }
    let backend =
        MultiQueueBackend::heap_policy(4 * s.threads, DeleteMode::Strict, s.choice_policy, 1);
    eprintln!("running {} ({}) ...", s.name, backend.name());
    let r = engine::run(&s, &backend);
    assert!(r.verified(), "audit verify: {:?}", r.verify_error);
    let samples = r.quality.summary.map(|s| s.count).unwrap_or(0);
    assert!(
        samples > 0,
        "{name} produced no rank samples — the envelope would pass vacuously"
    );
    let within = r.quality.get("within_policy_bound") == Some(1.0);
    let linearizable = r.quality.get("linearizable") == Some(1.0);
    (r, within, linearizable)
}

/// Appends `snapshot` to the JSON-array trajectory at `path` (wrapping
/// a pre-trajectory single-object file into an array first).
fn append_snapshot(path: &str, snapshot: &str) -> String {
    let rendered = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim();
            if let Some(body) = trimmed.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
                let body = body.trim();
                if body.is_empty() {
                    format!("[{snapshot}]")
                } else {
                    format!("[{body},{snapshot}]")
                }
            } else if trimmed.starts_with('{') {
                // Legacy single-snapshot file: wrap into a trajectory.
                format!("[{trimmed},{snapshot}]")
            } else {
                format!("[{snapshot}]")
            }
        }
        Err(_) => format!("[{snapshot}]"),
    };
    let mut f = std::fs::File::create(path).expect("create output file");
    f.write_all(rendered.as_bytes()).expect("write output file");
    f.write_all(b"\n").expect("write output file");
    rendered
}

fn main() {
    let cfg = Config::from_args();
    // The contended point: at least 8 workers even on small boxes —
    // oversubscription is part of what the sticky/batched path fixes.
    let threads = if cfg.was_set("threads") {
        *cfg.threads.last().expect("non-empty sweep")
    } else {
        8
    }
    .max(8);
    let rounds = if cfg.quick { 1 } else { 5 };

    let mut table = Table::new(&[
        "scenario",
        "threads",
        "baseline",
        "optimized",
        "mops_base",
        "mops_opt",
        "gain_%",
    ]);
    let mut points: Vec<String> = Vec::new();
    let mut worst_gain = f64::INFINITY;
    // The acceptance target applies to the contended dequeue-heavy point.
    let mut target_gain = f64::NAN;
    // Adaptive-vs-static comparison on the dequeue-heavy shape.
    let mut adaptive_cmp: Option<String> = None;
    let mut adaptive_delta = f64::NAN;
    // The balanced scenario + its optimized median, kept for the
    // telemetry-overhead point below.
    let mut balanced_opt: Option<(Scenario, f64)> = None;

    for name in ["mq-hotpath-dequeue-heavy", "mq-hotpath-balanced"] {
        let scenario = customize(
            Scenario::named(name).expect("catalog scenario"),
            &cfg,
            threads,
        );
        // Ratio C = m/n = 8: plenty of queues per thread, so the
        // baseline's per-op cost is dominated by exactly what the
        // sticky/batched path removes (fresh draws, hint-line reads,
        // per-op lock and publish traffic). Lower ratios shift cost
        // into lock waiting, which batching's longer critical sections
        // do not help.
        let m = 8 * threads;
        let make_base = || MultiQueueBackend::heap(m, DeleteMode::Strict);
        let make_opt = || {
            MultiQueueBackend::heap_policy(
                m,
                DeleteMode::Strict,
                scenario.choice_policy,
                scenario.batch,
            )
        };
        // s_max = the static policy's s, so adaptive can at best match
        // the static camp length and at worst narrows under contention.
        let s_max = match scenario.choice_policy {
            PolicyCfg::Sticky { ops } => ops,
            PolicyCfg::AdaptiveSticky { s_max } => s_max,
            _ => 16,
        };
        let make_adaptive = || {
            MultiQueueBackend::heap_policy(
                m,
                DeleteMode::Strict,
                PolicyCfg::AdaptiveSticky { s_max },
                scenario.batch,
            )
        };
        let compare_adaptive = name == "mq-hotpath-dequeue-heavy";
        // Interleave rounds so slow drifts in machine load hit every
        // configuration equally.
        let mut base_runs = Vec::new();
        let mut opt_runs = Vec::new();
        let mut adaptive_runs = Vec::new();
        for round in 0..rounds {
            eprintln!("running {name} round {}/{rounds} ...", round + 1);
            base_runs.push(run_once(&scenario, &make_base));
            opt_runs.push(run_once(&scenario, &make_opt));
            if compare_adaptive {
                adaptive_runs.push(run_once(&scenario, &make_adaptive));
            }
        }
        let base = median(base_runs);
        let opt = median(opt_runs);

        let gain = (opt.mops() - base.mops()) / base.mops() * 100.0;
        worst_gain = worst_gain.min(gain);
        if name == "mq-hotpath-dequeue-heavy" {
            target_gain = gain;
        }
        if name == "mq-hotpath-balanced" {
            balanced_opt = Some((scenario.clone(), opt.mops()));
        }
        table.row(vec![
            name.to_string(),
            threads.to_string(),
            base.backend.clone(),
            opt.backend.clone(),
            format!("{:.3}", base.mops()),
            format!("{:.3}", opt.mops()),
            format!("{gain:+.1}"),
        ]);

        let mut o = JsonObject::new();
        o.str("scenario", name)
            .u64("threads", threads as u64)
            .str("choice_policy", &scenario.choice_policy.label())
            .u64("batch", scenario.batch as u64)
            .f64("mops_baseline", base.mops())
            .f64("mops_optimized", opt.mops())
            .f64("improvement_pct", gain)
            .bool("meets_target", gain >= TARGET_PCT)
            .raw("baseline", &base.to_json())
            .raw("optimized", &opt.to_json());
        points.push(o.finish());

        if compare_adaptive {
            let adaptive = median(adaptive_runs);
            adaptive_delta = (adaptive.mops() - opt.mops()) / opt.mops() * 100.0;
            table.row(vec![
                format!("{name} (adaptive)"),
                threads.to_string(),
                opt.backend.clone(),
                adaptive.backend.clone(),
                format!("{:.3}", opt.mops()),
                format!("{:.3}", adaptive.mops()),
                format!("{adaptive_delta:+.1}"),
            ]);
            let mut a = JsonObject::new();
            a.str("scenario", name)
                .str("static_policy", &scenario.choice_policy.label())
                .str(
                    "adaptive_policy",
                    &PolicyCfg::AdaptiveSticky { s_max }.label(),
                )
                .f64("mops_static", opt.mops())
                .f64("mops_adaptive", adaptive.mops())
                .f64("adaptive_vs_static_pct", adaptive_delta)
                .bool("within_noise", adaptive_delta.abs() <= NOISE_PCT)
                .raw("adaptive", &adaptive.to_json());
            adaptive_cmp = Some(a.finish());
        }
    }

    // Telemetry-overhead point: the optimized balanced configuration
    // with interval snapshots off vs on. "Off" must match the optimized
    // median above within noise (the interval tracker is one untaken
    // branch per op when disabled); snapshots at the configured
    // interval (default 100 ms) must cost at most a few percent.
    let (telemetry_scenario, opt_mops) = balanced_opt.expect("balanced scenario ran");
    let interval = cfg.telemetry_interval;
    let mut on_scenario = telemetry_scenario.clone();
    on_scenario.telemetry_interval = Some(interval);
    let telemetry_m = 8 * threads;
    let make_telem = || {
        MultiQueueBackend::heap_policy(
            telemetry_m,
            DeleteMode::Strict,
            telemetry_scenario.choice_policy,
            telemetry_scenario.batch,
        )
    };
    let mut off_runs = Vec::new();
    let mut on_runs = Vec::new();
    for round in 0..rounds {
        eprintln!(
            "running telemetry overhead round {}/{rounds} ...",
            round + 1
        );
        off_runs.push(run_once(&telemetry_scenario, &make_telem));
        on_runs.push(run_once(&on_scenario, &make_telem));
    }
    let off = median(off_runs);
    let on = median(on_runs);
    let off_delta = (off.mops() - opt_mops) / opt_mops * 100.0;
    let snapshot_overhead = (off.mops() - on.mops()) / off.mops() * 100.0;
    let intervals_recorded = on
        .telemetry
        .as_ref()
        .map(|t| t.intervals.len())
        .unwrap_or(0);
    table.row(vec![
        format!("{} (telemetry)", telemetry_scenario.name),
        threads.to_string(),
        "telemetry off".to_string(),
        format!("{}ms snapshots", interval.as_millis()),
        format!("{:.3}", off.mops()),
        format!("{:.3}", on.mops()),
        format!("{:+.1}", -snapshot_overhead),
    ]);
    let telemetry_point = {
        let mut t = JsonObject::new();
        t.str("scenario", &telemetry_scenario.name)
            .u64("threads", threads as u64)
            .u64("interval_ms", interval.as_millis() as u64)
            .f64("mops_telemetry_off", off.mops())
            .f64("mops_telemetry_on", on.mops())
            .f64("off_vs_optimized_pct", off_delta)
            .f64("snapshot_overhead_pct", snapshot_overhead)
            .u64("intervals_recorded", intervals_recorded as u64)
            .bool("off_within_noise", off_delta.abs() <= 1.0)
            .bool("on_within_budget", snapshot_overhead <= 5.0);
        t.finish()
    };

    // Faults-off overhead point: the optimized balanced configuration
    // runs through the chaos gate in every engine loop — one untaken
    // branch per op when no fault plan is armed. "Off" must match the
    // optimized median above within 1% (the ≤1%-when-disabled budget
    // the fault hooks were designed to); an armed-but-inert plan
    // (`slow:0:0` — zero-microsecond delays) additionally prices the
    // per-op fault check + progress counter + watchdog when chaos IS
    // requested.
    let faults_off_scenario = telemetry_scenario.clone();
    let mut armed_scenario = telemetry_scenario.clone();
    armed_scenario.faults = Some("slow:0:0".parse().expect("inert fault plan"));
    let mut faults_off_runs = Vec::new();
    let mut armed_runs = Vec::new();
    for round in 0..rounds {
        eprintln!("running faults overhead round {}/{rounds} ...", round + 1);
        faults_off_runs.push(run_once(&faults_off_scenario, &make_telem));
        armed_runs.push(run_once(&armed_scenario, &make_telem));
    }
    let faults_off = median(faults_off_runs);
    let armed = median(armed_runs);
    let faults_off_delta = (faults_off.mops() - opt_mops) / opt_mops * 100.0;
    let armed_overhead = (faults_off.mops() - armed.mops()) / faults_off.mops() * 100.0;
    table.row(vec![
        format!("{} (faults)", faults_off_scenario.name),
        threads.to_string(),
        "faults off".to_string(),
        "armed inert plan".to_string(),
        format!("{:.3}", faults_off.mops()),
        format!("{:.3}", armed.mops()),
        format!("{:+.1}", -armed_overhead),
    ]);
    let faults_point = {
        let mut fo = JsonObject::new();
        fo.str("scenario", &faults_off_scenario.name)
            .u64("threads", threads as u64)
            .f64("mops_faults_off", faults_off.mops())
            .f64("mops_faults_armed_inert", armed.mops())
            .f64("off_vs_optimized_pct", faults_off_delta)
            .f64("armed_overhead_pct", armed_overhead)
            .bool("off_within_budget", faults_off_delta.abs() <= 1.0);
        fo.finish()
    };

    // Client-driver overhead point: the optimized balanced
    // configuration under the plain closed loop vs the simulated-client
    // frontend with one self-paced client per worker. Self-paced
    // clients reschedule at completion, so the workload is the closed
    // loop plus the timer wheel, per-client RNG streams and the
    // queueing/service latency split — the point prices exactly that
    // frontend machinery.
    let closed_scenario = telemetry_scenario.clone();
    let mut driven_scenario = telemetry_scenario.clone();
    driven_scenario.clients = threads;
    driven_scenario.arrival_shape = ArrivalShape::SelfPaced;
    let mut closed_runs = Vec::new();
    let mut driven_runs = Vec::new();
    for round in 0..rounds {
        eprintln!(
            "running client-driver overhead round {}/{rounds} ...",
            round + 1
        );
        closed_runs.push(run_once(&closed_scenario, &make_telem));
        driven_runs.push(run_once(&driven_scenario, &make_telem));
    }
    let closed = median(closed_runs);
    let driven = median(driven_runs);
    let client_overhead = (closed.mops() - driven.mops()) / closed.mops() * 100.0;
    table.row(vec![
        format!("{} (clients)", closed_scenario.name),
        threads.to_string(),
        "closed loop".to_string(),
        format!("{} self-paced clients", driven_scenario.clients),
        format!("{:.3}", closed.mops()),
        format!("{:.3}", driven.mops()),
        format!("{:+.1}", -client_overhead),
    ]);
    let clients_point = {
        let mut c = JsonObject::new();
        c.str("scenario", &closed_scenario.name)
            .u64("threads", threads as u64)
            .u64("clients", driven_scenario.clients as u64)
            .str("arrival_shape", &driven_scenario.arrival_shape.label())
            .f64("mops_closed_loop", closed.mops())
            .f64("mops_client_driver", driven.mops())
            .f64("client_driver_overhead_pct", client_overhead)
            .bool("within_budget", client_overhead <= 20.0);
        c.finish()
    };

    // Rank guardrails: checker-exact dequeue ranks must sit inside the
    // envelope each policy reports (O(s·m) static, observed-s adaptive).
    let (audit, within, linearizable) = run_audit("mq-hotpath-rank-audit", &cfg);
    let (adaptive_audit, adaptive_within, adaptive_linearizable) =
        run_audit("mq-hotpath-adaptive-audit", &cfg);
    let mut root = JsonObject::new();
    root.str("bench", "mq_hotpath")
        .str(
            "change",
            "one per-queue substrate: lock-free and combining queues removed",
        )
        .u64("threads", threads as u64)
        .f64("target_improvement_pct", TARGET_PCT)
        .f64("dequeue_heavy_improvement_pct", target_gain)
        .bool("meets_target", target_gain >= TARGET_PCT)
        .f64("worst_improvement_pct", worst_gain)
        .f64("adaptive_vs_static_pct", adaptive_delta)
        .raw("points", &dlz_core::json::array(&points))
        .raw("telemetry_overhead", &telemetry_point)
        .raw("faults_overhead", &faults_point)
        .raw("client_driver_overhead", &clients_point);
    if let Some(a) = &adaptive_cmp {
        root.raw("adaptive_vs_static", a);
    }
    root.raw("rank_audit", &audit.to_json())
        .bool("rank_within_policy_bound", within)
        .bool("rank_audit_linearizable", linearizable)
        .raw("adaptive_rank_audit", &adaptive_audit.to_json())
        .bool("adaptive_rank_within_bound", adaptive_within)
        .bool("adaptive_rank_audit_linearizable", adaptive_linearizable);
    let snapshot = root.finish();

    let path = cfg.json.clone().unwrap_or_else(|| DEFAULT_OUT.to_string());
    append_snapshot(&path, &snapshot);
    eprintln!("appended snapshot to {path}");

    eprintln!();
    eprint!("{}", table.render());
    for (label, r, w, l) in [
        ("static", &audit, within, linearizable),
        (
            "adaptive",
            &adaptive_audit,
            adaptive_within,
            adaptive_linearizable,
        ),
    ] {
        let mean = r.quality.summary.map(|s| s.mean).unwrap_or(0.0);
        let bound = r.quality.get("rank_bound_policy").unwrap_or(0.0);
        eprintln!(
            "{label} rank audit: mean={mean:.1} bound={bound:.1} within={w} linearizable={l}"
        );
    }
    if !within || !linearizable || !adaptive_within || !adaptive_linearizable {
        eprintln!("RANK GUARDRAIL VIOLATED");
        std::process::exit(1);
    }
    if target_gain < TARGET_PCT {
        eprintln!(
            "note: dequeue-heavy improvement {target_gain:.1}% below the {TARGET_PCT}% target on this machine"
        );
    }
    if adaptive_delta.abs() > NOISE_PCT {
        eprintln!(
            "note: adaptive stickiness {adaptive_delta:+.1}% vs static (outside the ±{NOISE_PCT}% noise band on this machine)"
        );
    }
    eprintln!(
        "telemetry: off {:.3} mops ({off_delta:+.1}% vs optimized), {} ms snapshots {:.3} mops ({snapshot_overhead:.1}% overhead, {intervals_recorded} intervals)",
        off.mops(),
        interval.as_millis(),
        on.mops(),
    );
    if snapshot_overhead > 5.0 {
        eprintln!(
            "note: {} ms snapshots cost {snapshot_overhead:.1}% on this machine (above the 5% budget)",
            interval.as_millis()
        );
    }
    eprintln!(
        "faults: off {:.3} mops ({faults_off_delta:+.1}% vs optimized), armed inert {:.3} mops ({armed_overhead:.1}% overhead)",
        faults_off.mops(),
        armed.mops(),
    );
    if faults_off_delta.abs() > 1.0 {
        eprintln!(
            "note: faults-off point {faults_off_delta:+.1}% vs optimized (outside the ±1% disabled-hook budget on this machine)"
        );
    }
    eprintln!(
        "clients: closed loop {:.3} mops, {} self-paced clients {:.3} mops ({client_overhead:.1}% overhead)",
        closed.mops(),
        driven_scenario.clients,
        driven.mops(),
    );
    if client_overhead > 20.0 {
        eprintln!(
            "note: client driver costs {client_overhead:.1}% on this machine (above the 20% budget)"
        );
    }
}
