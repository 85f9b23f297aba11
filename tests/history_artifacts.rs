//! Integration tests for the history-artifact subsystem, end to end:
//! what the engine reported for a run is what the judge finds in the
//! run's artifact — in memory, and again after serialize → parse —
//! across choice policies; a sweep with an export directory yields one
//! grid-indexed, policy-tagged artifact per (cell × backend).

use distlin::core::spec::{judge, replay_artifact, ArtifactHistory, FifoOp, HistoryArtifact};
use distlin::core::{DeleteMode, PolicyCfg};
use distlin::workload::backends::{
    policy_roster, CounterBackend, MultiQueueBackend, RelaxedFifoBackend,
};
use distlin::workload::{
    engine, Backend, Budget, Family, OpMix, QualitySummary, Scenario, SweepSpec,
};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dlz-artifacts-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Asserts that judging `artifact` reproduces the numbers the engine
/// reported (`report.quality`) exactly — same f64s, not approximately.
/// Both come from the one judge; what this checks is that the artifact
/// carries everything the verdict depends on, through export and back.
fn assert_judged_as_reported(
    artifact: &HistoryArtifact,
    quality: &distlin::workload::QualityReport,
) {
    let verdict = judge(artifact);
    assert_eq!(verdict.metric, quality.metric);
    let summary = QualitySummary::from_samples(&verdict.costs);
    let expected = quality.summary.expect("history metric has samples");
    assert_eq!(summary.count, expected.count);
    assert_eq!(summary.mean, expected.mean, "mean must match bit for bit");
    assert_eq!(summary.p50, expected.p50);
    assert_eq!(summary.p99, expected.p99);
    assert_eq!(summary.max, expected.max);
    let linearizable = quality.get("linearizable") == Some(1.0);
    assert_eq!(verdict.outcome.is_linearizable(), linearizable);
    let within = quality.get("within_bound");
    assert_eq!(within, Some(f64::from(u8::from(verdict.within))));
}

#[test]
fn pq_round_trip_is_verdict_identical_across_policies_and_modes() {
    let policies = [
        PolicyCfg::TwoChoice,
        PolicyCfg::DChoice { d: 3 },
        PolicyCfg::Sticky { ops: 8 },
    ];
    for policy in policies {
        let s = Scenario::builder("rt", Family::Queue)
            .threads(2)
            .budget(Budget::OpsPerWorker(1_200))
            .mix(OpMix::new(55, 45, 0))
            .prefill(300)
            .record_history(true)
            .choice_policy(policy)
            .seed(0xab5e_11ed)
            .build();
        let b = MultiQueueBackend::heap_policy(8, DeleteMode::Strict, policy, 1);
        let r = engine::run(&s, &b);
        assert!(r.verified(), "{policy:?}: {:?}", r.verify_error);
        let artifact = b.take_history_artifact().expect("history was recorded");
        assert_eq!(artifact.policy, policy.label());
        assert_eq!(artifact.queues, Some(8));
        assert!(artifact.envelope_factor >= 1.0);

        // In-process numbers reproduce from the in-memory artifact...
        assert_judged_as_reported(&artifact, &r.quality);

        // ...and from its serialized round trip, byte-identically.
        let text = artifact.to_json_lines();
        let parsed =
            HistoryArtifact::from_json_lines(&text).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(parsed.to_json_lines(), text, "serialize∘parse ≠ identity");
        assert_judged_as_reported(&parsed, &r.quality);

        let a = replay_artifact(&artifact);
        let p = replay_artifact(&parsed);
        assert_eq!(a.costs.samples(), p.costs.samples());
        assert_eq!(a.unmappable, p.unmappable);
        assert_eq!(a.well_formed, p.well_formed);
        assert_eq!(a.real_time_ok, p.real_time_ok);
    }
}

#[test]
fn counter_round_trip_is_verdict_identical() {
    let s = Scenario::builder("rt-counter", Family::Counter)
        .threads(2)
        .budget(Budget::OpsPerWorker(1_500))
        .mix(OpMix::new(70, 0, 30))
        .record_history(true)
        .seed(0xfeed_beef)
        .build();
    let b = CounterBackend::multicounter(16);
    let r = engine::run(&s, &b);
    assert!(r.verified(), "{:?}", r.verify_error);
    assert_eq!(r.quality.metric, "read_deviation");
    let artifact = b.take_history_artifact().expect("history recorded");
    assert_eq!(artifact.kind(), "counter");
    assert_eq!(artifact.policy, "none");
    assert!(artifact.envelope_factor > 0.0, "m·ln m scale travels along");
    assert_judged_as_reported(&artifact, &r.quality);
    let parsed = HistoryArtifact::from_json_lines(&artifact.to_json_lines()).expect("parses");
    assert_judged_as_reported(&parsed, &r.quality);
}

/// The PR's acceptance criterion: a 2-threads × 2-policies sweep with an
/// export directory yields one artifact per (cell × backend), each
/// embedding policy label + envelope factor + grid coordinates, and
/// judging the file `histcheck` would load reproduces every cell's
/// reported verdict and per-rank distribution bit for bit.
#[test]
fn exported_sweep_grid_replays_bit_for_bit() {
    let dir = scratch("sweep");
    let mut base = Scenario::named("queue-balanced-audit").expect("catalog");
    base.budget = Budget::OpsPerWorker(600);
    base.prefill = 200;
    base.export = Some(dir.clone());
    let spec = SweepSpec::new(base)
        .threads(&[1, 2])
        .policies(&[PolicyCfg::TwoChoice, PolicyCfg::Sticky { ops: 4 }]);
    let reports = engine::run_sweep(&spec, |cell| policy_roster(&cell.scenario));
    assert_eq!(reports.len(), 4, "4 cells × 1 backend");

    for r in &reports {
        assert!(r.verified(), "{:?}: {:?}", r.cell, r.verify_error);
        let cell = r.cell.as_deref().expect("sweep runs are cell-tagged");
        let path = dir.join(cell).join(format!("{}.histjsonl", r.backend));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()));
        let artifact = HistoryArtifact::from_json_lines(&text).expect("artifact parses");

        // Schema embeds the full provenance.
        assert_eq!(artifact.policy, r.policy, "policy label travels");
        assert!(artifact.envelope_factor.is_finite());
        assert_eq!(artifact.threads, r.threads);
        assert_eq!(artifact.cell.as_deref(), Some(cell));
        assert_eq!(artifact.grid, r.grid, "grid coordinates travel");
        assert_eq!(artifact.source.as_deref(), Some(r.backend.as_str()));

        // Offline replay == in-process verdict + distribution.
        assert_judged_as_reported(&artifact, &r.quality);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_truncated_artifacts_error_with_line_numbers() {
    let s = Scenario::builder("rt-corrupt", Family::Queue)
        .threads(1)
        .budget(Budget::OpsPerWorker(200))
        .mix(OpMix::new(60, 40, 0))
        .prefill(50)
        .record_history(true)
        .build();
    let b = MultiQueueBackend::heap(4, DeleteMode::Strict);
    let _ = engine::run(&s, &b);
    let text = b
        .take_history_artifact()
        .expect("history recorded")
        .to_json_lines();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10);

    // Mid-file garbage names its line.
    let mut garbled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    garbled[7] = "not json at all".into();
    let e = HistoryArtifact::from_json_lines(&garbled.join("\n")).unwrap_err();
    assert_eq!(e.line, 8, "{e}");

    // Truncation names the first missing line.
    let cut = lines[..5].join("\n");
    let e = HistoryArtifact::from_json_lines(&cut).unwrap_err();
    assert_eq!(e.line, 6, "{e}");
    assert!(e.msg.contains("truncated"), "{e}");

    // A half-written final line (torn write) is malformed, not a panic.
    let torn = &text[..text.len() - 20];
    let e = HistoryArtifact::from_json_lines(torn).unwrap_err();
    assert_eq!(e.line, lines.len(), "{e}");
}

/// Folds one `(kind, priority, stamp)` observation into an FNV-1a
/// style 64-bit digest.
fn fold(digest: &mut u64, kind: u64, priority: u64, stamp: u64) {
    for word in [kind, priority, stamp] {
        *digest = (*digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One thread, one seeded handle, every operation form (single, batch,
/// bounded; stamped and unstamped interleaved on the same RNG and policy
/// state): the exact `(kind, priority, stamp)` sequence is a
/// function of the seed alone, so its digest pins the choice process —
/// one extra RNG draw, a stamp drawn away from its mutation, or a policy
/// callback that observes a still-held lock changes it.
fn pinned_op_sequence_digest(policy: PolicyCfg) -> u64 {
    use distlin::core::rng::{Rng64, Xoshiro256};
    use distlin::core::{ExactCounter, MultiQueue};
    use std::time::Duration;

    const INSERT: u64 = 1;
    const DEQUEUE: u64 = 2;
    const EMPTY: u64 = 3;
    let mq: MultiQueue<u64> = MultiQueue::<u64>::builder()
        .queues(8)
        .policy(policy)
        .build();
    // The pinned stamps start at 1: draw stamp 0 away first.
    let stamper = ExactCounter::new();
    stamper.fetch_increment();
    let mut h = mq.handle(0xd16e_57ed);
    let mut script = Xoshiro256::new(0x5c21_97ed);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut next_priority = 0u64;
    let mut out = Vec::new();
    let long = Duration::from_secs(3_600);
    for _ in 0..4_000 {
        let op = script.bounded(12);
        let mut fresh = || {
            next_priority += 1 + script.bounded(3);
            (next_priority, next_priority)
        };
        match op {
            0..=3 => {
                let (p, v) = fresh();
                let s = h.stamped(&stamper).insert(p, v);
                fold(&mut digest, INSERT, p, s);
            }
            // Unstamped forms share the handle's RNG and policy state:
            // they must consume exactly the draws their stamped twins do.
            4 => {
                let items: Vec<(u64, u64)> = (0..5).map(|_| fresh()).collect();
                assert_eq!(h.insert_batch(items.clone()), 5);
                for (p, _) in items {
                    fold(&mut digest, INSERT, p, 0);
                }
            }
            5 => {
                let (p, v) = fresh();
                h.insert(p, v);
                fold(&mut digest, INSERT, p, 0);
            }
            6 => {
                let (p, v) = fresh();
                h.try_insert_for(p, v, long).expect("uncontended");
                fold(&mut digest, INSERT, p, 0);
            }
            7..=9 => match h.stamped(&stamper).dequeue() {
                Some((p, _, s)) => fold(&mut digest, DEQUEUE, p, s),
                None => fold(&mut digest, EMPTY, 0, 0),
            },
            10 => {
                out.clear();
                let n = h.dequeue_batch(4, &mut out);
                assert_eq!(n, out.len());
                if n == 0 {
                    fold(&mut digest, EMPTY, 0, 0);
                }
                for &(p, _) in &out {
                    fold(&mut digest, DEQUEUE, p, 0);
                }
            }
            _ => match h.try_dequeue_for(long).expect("uncontended") {
                Some((p, _)) => fold(&mut digest, DEQUEUE, p, 0),
                None => fold(&mut digest, EMPTY, 0, 0),
            },
        }
    }
    // Drain: conservation closes the sequence, and the tail is pinned too.
    while let Some((p, _, s)) = h.stamped(&stamper).dequeue() {
        fold(&mut digest, DEQUEUE, p, s);
    }
    assert!(mq.is_empty());
    digest
}

#[test]
fn single_thread_op_sequences_are_pinned_per_policy_and_mode() {
    // Recorded before the per-call best-of-k dequeue and the stamped
    // batch forms were deleted, with their arms already replaced by a
    // stamped dequeue and the unstamped batch forms (stamp 0); the
    // deletion had to reproduce them exactly.
    let pinned = [
        (PolicyCfg::TwoChoice, 0x21a3_b6f9_9f81_a1eeu64),
        (PolicyCfg::Sticky { ops: 4 }, 0x3dee_1c26_5ca5_97c9),
        (PolicyCfg::DChoice { d: 3 }, 0xf9f8_5207_5e4f_96b5),
    ];
    for (policy, expected) in pinned {
        let got = pinned_op_sequence_digest(policy);
        assert_eq!(
            got, expected,
            "{policy:?}: digest {got:#018x} != pinned {expected:#018x}"
        );
    }
}

#[test]
fn single_thread_relaxed_fifo_history_is_pinned() {
    // The FIFO is the one history whose update stamps and enqueue
    // timestamps both come from fetch-and-add words, so this digest pins
    // both: every event's kind, element id, invoke / update / response
    // stamps and thread, the prefill worker's included.
    let s = Scenario::builder("pinned-fifo", Family::Fifo)
        .threads(1)
        .budget(Budget::OpsPerWorker(2_000))
        .mix(OpMix::new(50, 45, 5))
        .prefill(200)
        .record_history(true)
        .seed(0x5eed_f1f0)
        .build();
    let b = RelaxedFifoBackend::new(8);
    let r = engine::run(&s, &b);
    assert!(r.verified(), "{:?}", r.verify_error);
    let artifact = b.take_history_artifact().expect("history recorded");
    let ArtifactHistory::Fifo(history) = artifact.history else {
        panic!("a FIFO backend records a FIFO history");
    };
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for e in &history.events {
        // The op-sequence digest's kind codes: 1 = insert, 2 = dequeue.
        let (kind, id) = match e.label {
            FifoOp::Enqueue { id } => (1, id),
            FifoOp::Dequeue { id } => (2, id),
        };
        fold(&mut digest, kind, id, e.invoke);
        fold(&mut digest, e.update, e.response, e.thread as u64);
    }
    assert!(history.len() > 2_000, "prefill and run both recorded");
    let expected = 0x73b6_4539_d9b3_e737u64;
    assert_eq!(
        digest, expected,
        "digest {digest:#018x} != pinned {expected:#018x}"
    );
}
