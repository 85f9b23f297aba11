//! Seeded property tests for dlz-stm (std only): version-lock word
//! algebra, per-object monotonicity of relaxed write versions, and
//! sequential equivalence of random transaction programs against a
//! plain-array model. A failing case prints its seed.

use dlz_core::rng::{reseed_thread_rng, Rng64, Xoshiro256};
use dlz_core::{ExactCounter, MultiCounter};
use dlz_stm::vlock::{is_locked, pack, version_of, MAX_VERSION};
use dlz_stm::{ClockStrategy, RelaxedClock, Tl2};

/// Runs `case` once per seed in `0..cases`, each on its own generator
/// and with the thread generator (the relaxed clock's) reseeded alike.
/// If a case panics, its seed goes to stderr before the panic travels on.
fn for_each_seed(cases: u64, case: impl Fn(&mut Xoshiro256)) {
    struct NameSeedOnPanic(u64);
    impl Drop for NameSeedOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing seed: {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _guard = NameSeedOnPanic(seed);
        reseed_thread_rng(seed);
        case(&mut Xoshiro256::new(seed));
    }
}

#[test]
fn vlock_word_algebra() {
    for_each_seed(32, |rng| {
        for version in [
            0,
            MAX_VERSION,
            rng.bounded(MAX_VERSION),
            rng.bounded(1 << 20),
        ] {
            assert_eq!(version_of(pack(version, true)), version);
            assert_eq!(version_of(pack(version, false)), version);
            assert!(is_locked(pack(version, true)));
            assert!(!is_locked(pack(version, false)));
        }
    });
}

#[test]
fn write_version_monotone_per_object() {
    for_each_seed(64, |rng| {
        let (tmax, old) = (rng.bounded(1_000_000), rng.bounded(1_000_000));
        let m = 1 + rng.bounded(15) as usize;
        let delta = 1 + rng.bounded(999);
        let clock = RelaxedClock::new(MultiCounter::new(m), delta);
        // Several commits deep, so the sample is not always zero.
        for _ in 0..4 * m {
            let wv = clock.write_version(tmax, old);
            assert!(wv >= old + delta, "new version must exceed old by >= delta");
            assert!(
                wv >= tmax + delta,
                "new version must exceed tmax by >= delta"
            );
        }
    });
}

/// A step of a generated transaction program.
#[derive(Debug, Clone, Copy)]
enum Step {
    Read(usize),
    Write(usize, u64),
    Add(usize, u64),
}

/// One generated transaction: the steps that commit, and the writes of
/// a first attempt that ends in `tx.abort()` (often none) — which no
/// later attempt and no later transaction may ever see.
#[derive(Debug)]
struct Program {
    doomed_writes: Vec<(usize, u64)>,
    steps: Vec<Step>,
}

const SLOTS: usize = 16;

/// 1–19 transactions of 1–11 steps over `SLOTS` cells.
fn random_programs(rng: &mut Xoshiro256) -> Vec<Program> {
    let slot = |rng: &mut Xoshiro256| rng.bounded(SLOTS as u64) as usize;
    (0..1 + rng.bounded(19))
        .map(|_| Program {
            doomed_writes: (0..rng.bounded(4))
                .map(|_| (slot(rng), rng.next_u64()))
                .collect(),
            steps: (0..1 + rng.bounded(11))
                .map(|_| {
                    let i = slot(rng);
                    match rng.bounded(3) {
                        0 => Step::Read(i),
                        1 => Step::Write(i, rng.next_u64()),
                        _ => Step::Add(i, rng.bounded(1000)),
                    }
                })
                .collect(),
        })
        .collect()
}

/// Runs the programs, one transaction each, single-threadedly against
/// both the STM and a plain vector model; every step's output and every
/// post-commit state must match exactly.
///
/// Two `TxThread`s take turns at random, and each keeps its read and
/// write set from attempt to attempt. An entry that survived an abort
/// would surface as a doomed value; one that survived a commit, as a
/// read served from the handle's own last write after the *other*
/// handle has overwritten the cell.
fn check_sequential_equivalence<C: ClockStrategy>(
    stm: &Tl2<C>,
    programs: &[Program],
    rng: &mut Xoshiro256,
) {
    let mut model: Vec<u64> = stm.array().snapshot();
    let mut handles = [stm.thread(), stm.thread()];
    for program in programs {
        let outputs_model: Vec<u64> = program
            .steps
            .iter()
            .map(|step| match *step {
                Step::Read(i) => model[i],
                Step::Write(i, v) => {
                    model[i] = v;
                    v
                }
                Step::Add(i, d) => {
                    model[i] = model[i].wrapping_add(d);
                    model[i]
                }
            })
            .collect();
        // Single-threaded, a transaction cannot abort for contention;
        // a relaxed clock may abort it on its own future stamps, and
        // `run` must retry that to success transparently.
        let mut doomed = !program.doomed_writes.is_empty();
        let outputs_stm: Vec<u64> = handles[rng.bounded(2) as usize].run(|tx| {
            if std::mem::take(&mut doomed) {
                for &(i, garbage) in &program.doomed_writes {
                    tx.write(i, garbage);
                }
                return tx.abort();
            }
            let mut outs = Vec::with_capacity(program.steps.len());
            for step in &program.steps {
                match *step {
                    Step::Read(i) => outs.push(tx.read(i)?),
                    Step::Write(i, v) => {
                        tx.write(i, v);
                        outs.push(v);
                    }
                    Step::Add(i, d) => {
                        tx.add(i, d)?;
                        outs.push(tx.read(i)?);
                    }
                }
            }
            Ok(outs)
        });
        assert_eq!(outputs_stm, outputs_model, "{program:?}");
        assert_eq!(stm.array().snapshot(), model, "post-commit state diverged");
    }
    let commits: u64 = handles.iter().map(|h| h.stats().commits).sum();
    assert_eq!(commits, programs.len() as u64);
}

#[test]
fn sequential_equivalence_exact_clock() {
    for_each_seed(64, |rng| {
        let stm = Tl2::new(SLOTS, ExactCounter::new());
        check_sequential_equivalence(&stm, &random_programs(rng), rng);
    });
}

#[test]
fn sequential_equivalence_relaxed_clock() {
    // The relaxed clock must preserve *sequential* semantics exactly
    // for any (m, Δ) — relaxation only ever shows up as aborts and
    // retries, never as wrong values.
    for_each_seed(64, |rng| {
        let m = 1 + rng.bounded(7) as usize;
        let delta = 1 + rng.bounded(63);
        let stm = Tl2::new(SLOTS, RelaxedClock::new(MultiCounter::new(m), delta));
        check_sequential_equivalence(&stm, &random_programs(rng), rng);
    });
}
