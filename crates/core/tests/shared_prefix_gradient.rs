//! Differential suite of the shared-prefix gradient executor against the
//! per-program oracle.
//!
//! `GradientEngine::gradient_pure` and `Differentiated::derivative_pure`
//! walk the derivative programs' common gate prefix once and run only each
//! program's suffix. The oracle runs every program from the input state
//! through `LoweredProgram::expectation_pure` and sums each parameter's
//! multiset in multiset order. The two must agree **bit for bit** on:
//!
//! * randomized straight-line programs with multi-occurrence parameters,
//!   coupling gates and controlled gates,
//! * randomized programs with `case`, `while` and `q := |0⟩`, where sharing
//!   stops at the first branch point,
//! * a 15-extended-qubit ansatz, wide enough that gates split across
//!   kernel workers and programs run in several waves,
//!
//! under forced 1-, 2- and 8-thread configurations. A wave tile that
//! panics once heals bit-identically; one that keeps panicking surfaces
//! the typed worker-panic message.

use qdp_ad::GradientEngine;
use qdp_lang::ast::{Angle, Gate, Params, Stmt, Var};
use qdp_linalg::{Pauli, C64};
use qdp_sim::fault::{fired_count, inject, FaultSite};
use qdp_sim::{Observable, QdpError, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
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

fn var(i: usize) -> Var {
    Var::new(format!("q{}", i + 1))
}

/// A random program over `n ≥ 2` qubits. Parameters come from a small
/// pool, so most occur several times. With `branching`, measurement
/// `case`s, resets and bounded `while` loops join the gates.
fn random_program(rng: &mut StdRng, n: usize, len: usize, branching: bool) -> Stmt {
    let params = ["a", "b", "c", "d"];
    let axes = [Pauli::X, Pauli::Y, Pauli::Z];
    let mut stmts: Vec<Stmt> = (0..n).map(|q| Stmt::unitary(Gate::H, [var(q)])).collect();
    for _ in 0..len {
        let param = params[rng.gen_range(0..params.len())];
        let axis = axes[rng.gen_range(0..3usize)];
        let q = rng.gen_range(0..n);
        let q2 = (q + rng.gen_range(1..n)) % n;
        let stmt = match rng.gen_range(0..if branching { 11usize } else { 8usize }) {
            0..=2 => Stmt::rot(axis, param, var(q)),
            3 => Stmt::unitary(
                Gate::Coupling {
                    axis,
                    angle: Angle::param(param),
                },
                [var(q), var(q2)],
            ),
            4 => Stmt::unitary(
                Gate::CRot {
                    controls: 1,
                    axis,
                    angle: Angle {
                        param: Some(param.to_string()),
                        offset: 0.25,
                    },
                },
                [var(q), var(q2)],
            ),
            5 => Stmt::unitary(Gate::Cnot, [var(q), var(q2)]),
            6 => Stmt::unitary(Gate::H, [var(q)]),
            7 => Stmt::unitary(Gate::X, [var(q)]),
            8 => Stmt::init(var(q)),
            9 => Stmt::Case {
                qs: vec![var(q)],
                arms: vec![
                    Stmt::rot(axis, param, var(q2)),
                    Stmt::rot(axes[rng.gen_range(0..3usize)], "b", var(q)),
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
    let mut amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = a.scale(1.0 / norm);
    }
    StateVector::from_amplitudes(n, amps)
}

fn random_valuation(rng: &mut StdRng, engine: &GradientEngine) -> Params {
    Params::from_pairs(
        engine
            .parameters()
            .map(|name| (name.to_string(), rng.gen::<f64>() * std::f64::consts::TAU)),
    )
}

/// The hardware-efficient ansatz: per layer `RY`, `RZ` on every qubit and
/// a `CNOT` chain, then a final `RY` layer — one parameter per rotation.
fn ansatz(n: usize, layers: usize) -> Stmt {
    let mut next = 0;
    let mut fresh = || {
        next += 1;
        format!("v{}", next - 1)
    };
    let mut stmts = Vec::new();
    for _ in 0..layers {
        for q in 0..n {
            stmts.push(Stmt::rot(Pauli::Y, fresh(), var(q)));
            stmts.push(Stmt::rot(Pauli::Z, fresh(), var(q)));
        }
        for q in 0..n - 1 {
            stmts.push(Stmt::unitary(Gate::Cnot, [var(q), var(q + 1)]));
        }
    }
    for q in 0..n {
        stmts.push(Stmt::rot(Pauli::Y, fresh(), var(q)));
    }
    Stmt::seq(stmts)
}

/// Per parameter, every program of its multiset run from the input state
/// through the per-program executor, summed in multiset order.
fn oracle(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    psi: &StateVector,
) -> BTreeMap<String, f64> {
    let ext_psi = StateVector::zero_state(1).tensor(psi);
    let ext_obs = obs.with_ancilla_z();
    engine
        .parameters()
        .map(|name| {
            let skeleton = engine.differentiated(name).unwrap().skeleton();
            let lowered = skeleton.lowered();
            let values = lowered.slot_values(params);
            let sum = lowered
                .programs()
                .iter()
                .map(|p| p.expectation_pure(&values, &ext_psi, &ext_obs))
                .sum();
            (name.to_string(), sum)
        })
        .collect()
}

fn bits(grad: &BTreeMap<String, f64>) -> Vec<(String, u64)> {
    grad.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
}

/// `gradient_pure` and every `derivative_pure` carry the oracle's bits
/// under every forced thread count.
fn assert_matches_oracle(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    psi: &StateVector,
    what: &str,
) {
    let want = oracle(engine, params, obs, psi);
    for threads in THREADS {
        qdp_par::set_max_threads(threads);
        let got = engine.gradient_pure(params, obs, psi);
        assert_eq!(
            bits(&got),
            bits(&want),
            "{what}: gradient at {threads} threads"
        );
        for (name, d) in &want {
            let single = engine
                .differentiated(name)
                .unwrap()
                .derivative_pure(params, obs, psi);
            assert_eq!(
                single.to_bits(),
                d.to_bits(),
                "{what}: ∂/∂{name} at {threads} threads"
            );
        }
    }
    qdp_par::set_max_threads(0);
}

fn check_random_programs(seed: u64, branching: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..12 {
        let n = rng.gen_range(2..6usize);
        let len = rng.gen_range(4..14usize);
        let program = random_program(&mut rng, n, len, branching);
        let engine = GradientEngine::new(&program).unwrap();
        let params = random_valuation(&mut rng, &engine);
        let obs = Observable::pauli_z(n, rng.gen_range(0..n));
        let psi = random_state(&mut rng, n);
        assert_matches_oracle(
            &engine,
            &params,
            &obs,
            &psi,
            &format!("case {case}: {program}"),
        );
    }
}

#[test]
fn straight_line_gradients_carry_the_oracle_bits() {
    let _guard = serialized();
    check_random_programs(0x5eed_0001, false);
}

#[test]
fn branching_gradients_carry_the_oracle_bits() {
    let _guard = serialized();
    check_random_programs(0x5eed_0002, true);
}

#[test]
fn wide_ansatz_gradient_carries_the_oracle_bits() {
    // 14 qubits plus the ancilla: 2¹⁵ amplitudes, past the kernels'
    // parallel threshold, and 42 programs, so 2 and 8 threads run many
    // multi-tile waves.
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    let program = ansatz(14, 1);
    let engine = GradientEngine::new(&program).unwrap();
    let params = random_valuation(&mut rng, &engine);
    let obs = Observable::pauli_z(14, 3);
    let psi = random_state(&mut rng, 14);
    assert_eq!(engine.total_programs(), 42);
    // The 54 forward gates before the last rotation run once; the program
    // whose gadget replaces the gate at position k runs its 57 − k gates
    // from there.
    let positions = (0..28).chain(41..55);
    assert_eq!(
        engine.gate_passes(),
        54 + positions.map(|k| 57 - k).sum::<usize>()
    );
    let want = oracle(&engine, &params, &obs, &psi);
    for threads in THREADS {
        qdp_par::set_max_threads(threads);
        let got = engine.gradient_pure(&params, &obs, &psi);
        assert_eq!(bits(&got), bits(&want), "{threads} threads");
    }
    qdp_par::set_max_threads(0);
}

#[test]
fn aborting_programs_give_empty_multisets_that_read_like_the_oracle() {
    // Every derivative program aborts, so each multiset is empty and the
    // plan has no spine and no branches.
    let _guard = serialized();
    let program = qdp_lang::parse_program("q1 *= RX(a); q2 *= RY(b); abort[q1]").unwrap();
    let engine = GradientEngine::new(&program).unwrap();
    assert_eq!(engine.total_programs(), 0);
    assert_eq!(engine.gate_passes(), 0);
    let params = Params::from_pairs([("a", 0.3), ("b", 1.1)]);
    let obs = Observable::pauli_z(2, 1);
    let psi = StateVector::zero_state(2);
    assert_matches_oracle(&engine, &params, &obs, &psi, "all programs abort");
}

fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

#[test]
fn panicked_wave_tiles_heal_bit_identically_or_panic_typed() {
    let _guard = serialized();
    let program = ansatz(3, 1);
    let engine = GradientEngine::new(&program).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    let params = random_valuation(&mut rng, &engine);
    let obs = Observable::pauli_z(3, 0);
    let psi = random_state(&mut rng, 3);
    let want = oracle(&engine, &params, &obs, &psi);
    for threads in THREADS {
        qdp_par::set_max_threads(threads);
        with_quiet_panics(|| {
            // One panic fits the retry budget: the tile reruns from the
            // read-only spine state and returns the same bits.
            let fault = inject(FaultSite::Tile {
                index: 1,
                panics: 1,
            });
            let healed = engine.gradient_pure(&params, &obs, &psi);
            assert_eq!(fired_count(), 1, "{threads} threads: the fault fired");
            drop(fault);
            assert_eq!(bits(&healed), bits(&want), "{threads} threads: healed");

            // Three panics exhaust the first try and both retries.
            let fault = inject(FaultSite::Tile {
                index: 1,
                panics: 3,
            });
            let payload = std::panic::catch_unwind(|| engine.gradient_pure(&params, &obs, &psi))
                .expect_err("exhausted retries must panic");
            assert_eq!(fired_count(), 3, "{threads} threads");
            drop(fault);
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let typed = QdpError::WorkerPanic {
                tile: 1,
                message: "injected fault: tile 1 panicked".to_string(),
            };
            assert_eq!(message, typed.to_string(), "{threads} threads");
        });
    }
    qdp_par::set_max_threads(0);
}
