//! Parity suite of exact batched evaluation on the interned trajectory
//! templates.
//!
//! `LoweredSet::expectation_batch` builds one gate table per valuation and
//! sweeps each branching program's template in place; a batched gradient
//! shares one table across every parameter's multiset. The retained
//! oracles resolve every program per valuation: `ResolvedProgram::
//! expectation_batch` (the fused straight-line path, or `to_trajectory`
//! plus `ShotEngine::expectation_sweep`). The new path must equal them
//! **bit for bit** on:
//!
//! * randomized programs with `case`, `while`, `q := |0⟩` and `abort`,
//!   multi-occurrence parameters and gadget offsets, and straight-line
//!   ones, over every parameter's derivative multiset and the forward
//!   program;
//! * batches of 1, 8, 9, 16 and 20 rows (crossing `EXACT_TILE`) under
//!   forced 1-, 2- and 8-thread configurations;
//! * a sweep tile that panics once and heals;
//! * `HealthPolicy::DegradeToOracle` recovering a poisoned row.
//!
//! A warm exact gradient and a warm exact value compute no fingerprint,
//! convert no trajectory and lower nothing.

use qdp_ad::{lower_invocations, trajectory_conversions, GradientEngine, LoweredSet, Mode, Query};
use qdp_lang::ast::{Angle, Gate, Params, Stmt, Var};
use qdp_lang::fingerprint_invocations;
use qdp_linalg::{Pauli, C64};
use qdp_sim::fault::{fired_count, inject, FaultKind, FaultSite};
use qdp_sim::{
    BatchedStates, GateTable, HealthConfig, HealthPolicy, Observable, ShotEngine, StateVector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes every test here: `set_max_threads` needs a quiesced process
/// and armed faults are process-global.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const THREADS: [usize; 3] = [1, 2, 8];
const BATCH_SIZES: [usize; 5] = [1, 8, 9, 16, 20];

fn var(i: usize) -> Var {
    Var::new(format!("q{}", i + 1))
}

/// A random program over `n ≥ 2` qubits from a small parameter pool, so
/// most parameters occur several times. With `branching`, measurement
/// `case`s (one arm sometimes aborting), resets and bounded `while` loops
/// join the gates, and a leading `case` guarantees a branch point.
fn random_program(rng: &mut StdRng, n: usize, len: usize, branching: bool) -> Stmt {
    let params = ["ta", "tb", "tc"];
    let axes = [Pauli::X, Pauli::Y, Pauli::Z];
    let mut stmts: Vec<Stmt> = (0..n).map(|q| Stmt::unitary(Gate::H, [var(q)])).collect();
    if branching {
        stmts.push(Stmt::Case {
            qs: vec![var(0)],
            arms: vec![
                Stmt::rot(Pauli::Y, "ta", var(n - 1)),
                Stmt::rot(Pauli::Z, "tc", var(0)),
            ],
        });
    }
    for _ in 0..len {
        let param = params[rng.gen_range(0..params.len())];
        let axis = axes[rng.gen_range(0..3usize)];
        let q = rng.gen_range(0..n);
        let q2 = (q + rng.gen_range(1..n)) % n;
        let stmt = match rng.gen_range(0..if branching { 11usize } else { 6usize }) {
            0..=2 => Stmt::rot(axis, param, var(q)),
            3 => Stmt::unitary(
                Gate::Rot {
                    axis,
                    angle: Angle {
                        param: Some(param.to_string()),
                        offset: std::f64::consts::FRAC_PI_2,
                    },
                },
                [var(q)],
            ),
            4 => Stmt::unitary(
                Gate::Coupling {
                    axis,
                    angle: Angle::param(param),
                },
                [var(q), var(q2)],
            ),
            5 => Stmt::unitary(Gate::Cnot, [var(q), var(q2)]),
            6 => Stmt::init(var(q)),
            7 => Stmt::Case {
                qs: vec![var(q)],
                arms: vec![Stmt::rot(axis, param, var(q2)), Stmt::abort([var(q)])],
            },
            8 | 9 => Stmt::Case {
                qs: vec![var(q)],
                arms: vec![
                    Stmt::rot(axis, param, var(q2)),
                    Stmt::rot(axes[rng.gen_range(0..3usize)], params[0], var(q)),
                ],
            },
            _ => Stmt::while_bounded(var(q), 2, Stmt::rot(axis, param, var(q))),
        };
        stmts.push(stmt);
    }
    Stmt::seq(stmts)
}

/// A random normalised pure state on `n` qubits.
fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
    let amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    StateVector::from_amplitudes(n, amps.into_iter().map(|a| a.scale(1.0 / norm)).collect())
}

fn random_batch(rng: &mut StdRng, n: usize, rows: usize) -> BatchedStates {
    let states: Vec<StateVector> = (0..rows).map(|_| random_state(rng, n)).collect();
    BatchedStates::from_states(&states)
}

fn random_params(rng: &mut StdRng) -> Params {
    Params::from_pairs(["ta", "tb", "tc"].map(|p| (p, rng.gen::<f64>() * std::f64::consts::TAU)))
}

/// One evaluation problem: a multiset lowered against a register, with
/// the observable and batch width it runs on.
struct Problem {
    set: LoweredSet,
    obs: Observable,
    width: usize,
}

/// Every parameter's derivative multiset of `program` plus its forward
/// program.
fn problems(program: &Stmt) -> Vec<Problem> {
    let engine = GradientEngine::new(program).unwrap();
    let width = engine.register().len();
    let obs = Observable::pauli_z(width, width - 1);
    let mut out: Vec<Problem> = engine
        .parameters()
        .map(|p| {
            let diff = engine.differentiated(p).unwrap();
            Problem {
                set: LoweredSet::lower(diff.compiled(), diff.ext_register()),
                obs: obs.with_ancilla_z(),
                width: width + 1,
            }
        })
        .collect();
    out.push(Problem {
        set: LoweredSet::lower(std::slice::from_ref(program), engine.register()),
        obs,
        width,
    });
    out
}

/// Today's per-program oracle: every program resolved and run through
/// `ResolvedProgram::expectation_batch`, summed per row in multiset order.
fn resolved_oracle(
    set: &LoweredSet,
    values: &[f64],
    batch: &BatchedStates,
    obs: &Observable,
) -> Vec<f64> {
    let per_program: Vec<Vec<f64>> = set
        .programs()
        .iter()
        .map(|p| p.resolve(values).expectation_batch(batch, obs))
        .collect();
    (0..batch.len())
        .map(|r| per_program.iter().map(|v| v[r]).sum())
        .collect()
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (r, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} row {r}: {a} vs {b}");
    }
}

fn programs(rng: &mut StdRng) -> Vec<Stmt> {
    (0..6)
        .map(|k| random_program(rng, 2 + k % 3, 5 + k, k % 3 != 2))
        .collect()
}

#[test]
fn template_sweeps_match_resolved_trajectories_bitwise() {
    let _g = serialized();
    let mut rng = StdRng::seed_from_u64(0x7E3A);
    for (k, program) in programs(&mut rng).iter().enumerate() {
        let params = random_params(&mut rng);
        for (j, problem) in problems(program).iter().enumerate() {
            let set = &problem.set;
            let values = set.slot_values(&params);
            let table = set.gate_table(&values);
            for rows in BATCH_SIZES {
                let batch = random_batch(&mut rng, problem.width, rows);
                let want = resolved_oracle(set, &values, &batch, &problem.obs);
                for threads in THREADS {
                    qdp_par::set_max_threads(threads);
                    let what = format!("program {k} set {j}, {rows} rows, {threads} threads");
                    assert_bits(
                        &set.expectation_batch(&values, &batch, &problem.obs),
                        &want,
                        &what,
                    );
                    // Each branching program's template, swept in place,
                    // against its freshly converted trajectory.
                    for (i, (p, skeleton)) in
                        set.programs().iter().zip(set.trajectories()).enumerate()
                    {
                        let fresh = ShotEngine::new(p.resolve(&values).to_trajectory())
                            .expectation_sweep(batch.clone(), &problem.obs);
                        let bound = ShotEngine::new(skeleton.at(&values))
                            .expectation_sweep(batch.clone(), &problem.obs);
                        let template = ShotEngine::new(skeleton.template().clone())
                            .try_expectation_sweep_with(
                                GateTable::new(&table),
                                &batch,
                                &problem.obs,
                            )
                            .unwrap();
                        assert_bits(&bound, &fresh, &format!("{what} program {i} at()"));
                        assert_bits(&template, &fresh, &format!("{what} program {i} template"));
                    }
                }
            }
        }
    }
    qdp_par::set_max_threads(0);
}

#[test]
fn exact_engine_answers_match_the_per_multiset_oracle_bitwise() {
    let _g = serialized();
    let mut rng = StdRng::seed_from_u64(0x51DE);
    for (k, program) in programs(&mut rng).iter().enumerate() {
        let engine = GradientEngine::new(program).unwrap();
        let n = engine.register().len();
        let obs = Observable::pauli_z(n, n - 1);
        let params = random_params(&mut rng);
        let gradient = Query::gradient(params.clone(), obs.clone(), Mode::Exact);
        let value = Query::value(params.clone(), obs.clone(), Mode::Exact);
        for rows in BATCH_SIZES {
            let batch = random_batch(&mut rng, n, rows);
            let ext_batch = batch.prepend_zero_ancilla();
            let forward = LoweredSet::lower(std::slice::from_ref(program), engine.register());
            let want_value = resolved_oracle(&forward, &forward.slot_values(&params), &batch, &obs);
            let want_gradient: Vec<(String, Vec<f64>)> = engine
                .parameters()
                .map(|p| {
                    let diff = engine.differentiated(p).unwrap();
                    let set = LoweredSet::lower(diff.compiled(), diff.ext_register());
                    let values = set.slot_values(&params);
                    (
                        p.to_string(),
                        resolved_oracle(&set, &values, &ext_batch, &obs.with_ancilla_z()),
                    )
                })
                .collect();
            for threads in THREADS {
                qdp_par::set_max_threads(threads);
                let what = format!("program {k}, {rows} rows, {threads} threads");
                let values: Vec<f64> = engine
                    .evaluate(&value, &batch, &[])
                    .unwrap()
                    .into_iter()
                    .map(|a| a.into_value())
                    .collect();
                assert_bits(&values, &want_value, &format!("{what} value"));
                let grads = engine.evaluate(&gradient, &batch, &[]).unwrap();
                for (name, want) in &want_gradient {
                    let got: Vec<f64> = grads
                        .iter()
                        .map(|a| match a {
                            qdp_ad::Answer::Gradient(g) => g[name],
                            qdp_ad::Answer::Value(_) => panic!("gradient query"),
                        })
                        .collect();
                    assert_bits(&got, want, &format!("{what} ∂/∂{name}"));
                }
            }
        }
    }
    qdp_par::set_max_threads(0);
}

#[test]
fn a_sweep_tile_that_panics_once_heals_bit_identically() {
    let _g = serialized();
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let program = random_program(&mut rng, 3, 8, true);
    let engine = GradientEngine::new(&program).unwrap();
    let obs = Observable::pauli_z(3, 0);
    let query = Query::gradient(random_params(&mut rng), obs, Mode::Exact);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Only batches past EXACT_TILE rows on two or more threads fan out
    // into sweep tiles.
    for threads in [2, 8] {
        qdp_par::set_max_threads(threads);
        for rows in [9, 16, 20] {
            let batch = random_batch(&mut rng, 3, rows);
            let clean = engine.evaluate(&query, &batch, &[]).unwrap();
            let fault = inject(FaultSite::Tile {
                index: 1,
                panics: 1,
            });
            let healed = engine.evaluate(&query, &batch, &[]).unwrap();
            assert_eq!(
                fired_count(),
                1,
                "{threads} threads, {rows} rows: the fault fired"
            );
            drop(fault);
            for (r, (a, b)) in healed.iter().zip(&clean).enumerate() {
                let (a, b) = (a.clone().into_gradient(), b.clone().into_gradient());
                for (name, v) in &b {
                    assert_eq!(
                        a[name].to_bits(),
                        v.to_bits(),
                        "{threads} threads row {r} ∂/∂{name}"
                    );
                }
            }
        }
    }
    std::panic::set_hook(hook);
    qdp_par::set_max_threads(0);
}

#[test]
fn degrade_to_oracle_on_a_template_keeps_the_resolved_trajectory_bits() {
    let _g = serialized();
    // Kernel calls count in order only when they run serially: one
    // thread, one tile.
    qdp_par::set_max_threads(1);
    let degrade = HealthConfig::with_policy(HealthPolicy::DegradeToOracle);
    let mut rng = StdRng::seed_from_u64(0xDE6A);
    let mut degraded = 0;
    for k in 0..4 {
        let program = random_program(&mut rng, 2 + k % 2, 6, true);
        let params = random_params(&mut rng);
        for problem in problems(&program) {
            let set = &problem.set;
            let values = set.slot_values(&params);
            let table = set.gate_table(&values);
            let batch = random_batch(&mut rng, problem.width, 6);
            for (i, (p, skeleton)) in set.programs().iter().zip(set.trajectories()).enumerate() {
                let fresh =
                    ShotEngine::new(p.resolve(&values).to_trajectory()).with_health(degrade);
                let template = ShotEngine::new(skeleton.template().clone()).with_health(degrade);
                let what = format!("program {k} multiset program {i}");
                let clean = fresh
                    .try_expectation_sweep(batch.clone(), &problem.obs)
                    .unwrap();
                let fault = inject(FaultSite::Kernel {
                    call: 0,
                    row: 2,
                    kind: FaultKind::Nan,
                });
                let want = fresh
                    .try_expectation_sweep(batch.clone(), &problem.obs)
                    .unwrap();
                let fired = fired_count();
                drop(fault);
                let fault = inject(FaultSite::Kernel {
                    call: 0,
                    row: 2,
                    kind: FaultKind::Nan,
                });
                let got = template
                    .try_expectation_sweep_with(GateTable::new(&table), &batch, &problem.obs)
                    .unwrap();
                assert_eq!(fired_count(), fired, "{what}: the fault fired alike");
                drop(fault);
                assert_bits(&got, &want, &what);
                if fired == 1 {
                    degraded += 1;
                    // The poisoned row was re-run on the oracle; the others
                    // kept their batched bits.
                    for r in [0, 1, 3, 4, 5] {
                        assert_eq!(got[r].to_bits(), clean[r].to_bits(), "{what} row {r}");
                    }
                }
            }
        }
    }
    assert!(degraded > 0, "no sweep reached a kernel call to poison");
    qdp_par::set_max_threads(0);
}

/// `Q(Γ)` over `q1..q4` with parameters `"{prefix}0..11"`.
fn rot_block(prefix: &str) -> Stmt {
    let mut stmts = Vec::with_capacity(12);
    for (stage, axis) in [Pauli::X, Pauli::Y, Pauli::Z].into_iter().enumerate() {
        for q in 0..4 {
            stmts.push(Stmt::rot(
                axis,
                format!("{prefix}{}", stage * 4 + q),
                var(q),
            ));
        }
    }
    Stmt::seq(stmts)
}

#[test]
fn warm_exact_calls_compute_no_fingerprint_and_convert_no_trajectory() {
    let _g = serialized();
    // The probes count the calling thread: one thread keeps every tile on
    // it.
    qdp_par::set_max_threads(1);
    // P2-shaped: `Q(Θ); case M[q1] = 0 → Q(Φ), 1 → Q(Ψ) end`, 36 params.
    let program = Stmt::seq([
        rot_block("wT"),
        Stmt::Case {
            qs: vec![Var::new("q1")],
            arms: vec![rot_block("wF"), rot_block("wS")],
        },
    ]);
    let engine = GradientEngine::new(&program).unwrap();
    let params = Params::from_pairs(
        engine
            .parameters()
            .enumerate()
            .map(|(i, name)| (name.to_string(), 0.2 + 0.31 * i as f64)),
    );
    let obs = Observable::pauli_z(4, 0);
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let batch = random_batch(&mut rng, 4, 16);
    let gradient = Query::gradient(params.clone(), obs.clone(), Mode::Exact);
    let value = Query::value(params, obs, Mode::Exact);
    let cold_gradient = engine.evaluate(&gradient, &batch, &[]).unwrap();
    let cold_value = engine.evaluate(&value, &batch, &[]).unwrap();

    let probes = || {
        (
            fingerprint_invocations(),
            trajectory_conversions(),
            lower_invocations(),
        )
    };
    let before = probes();
    let warm_gradient = engine.evaluate(&gradient, &batch, &[]).unwrap();
    assert_eq!(
        probes(),
        before,
        "a warm exact gradient: (fingerprints, conversions, lowerings)"
    );
    let warm_value = engine.evaluate(&value, &batch, &[]).unwrap();
    assert_eq!(
        probes(),
        before,
        "a warm exact value: (fingerprints, conversions, lowerings)"
    );

    for (cold, warm) in cold_gradient.into_iter().zip(warm_gradient) {
        let (cold, warm) = (cold.into_gradient(), warm.into_gradient());
        for (name, v) in &cold {
            assert_eq!(v.to_bits(), warm[name].to_bits(), "∂/∂{name}");
        }
    }
    for (cold, warm) in cold_value.into_iter().zip(warm_value) {
        assert_eq!(cold.into_value().to_bits(), warm.into_value().to_bits());
    }
    qdp_par::set_max_threads(0);
}
