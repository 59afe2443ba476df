//! Regression tests for the parallel gradient engine: whatever the thread
//! count, `GradientEngine::gradient` must return *bit-identical* results,
//! and the fast kernels must agree with the reference kernels end-to-end.

use qdp_ad::GradientEngine;
use qdp_lang::ast::Params;
use qdp_lang::parse_program;
use qdp_sim::kernels::set_reference_kernels;
use qdp_sim::{DensityMatrix, Observable, StateVector};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Every test here toggles process-global state (the kernel reference mode
/// or the qdp-par thread override), and cargo runs tests on parallel
/// threads — serialize them so each observes only its own configuration.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn setup() -> (GradientEngine, Params, Observable) {
    let p = parse_program(
        "q1 *= RX(a); q2 *= RY(b); q1, q2 *= RZZ(c); \
         case M[q1] = 0 -> q2 *= RY(a), 1 -> q2 *= RZ(b) end; \
         while[2] M[q2] = 1 do q1 *= RX(c) done",
    )
    .unwrap();
    let engine = GradientEngine::new(&p).unwrap();
    let params = Params::from_pairs([("a", 0.31), ("b", -0.87), ("c", 1.41)]);
    let obs = Observable::pauli_z(2, 0);
    (engine, params, obs)
}

fn bits(grad: &BTreeMap<String, f64>) -> Vec<(String, u64)> {
    grad.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
}

/// The same evaluation repeated must agree to the last bit (no dependence on
/// scheduling, accumulation order, or thread count).
#[test]
fn gradient_is_bitwise_deterministic_across_thread_counts() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    let (engine, params, obs) = setup();
    let rho = DensityMatrix::pure_zero(2);
    let psi = StateVector::zero_state(2);

    qdp_par::set_max_threads(1);
    let dense_serial = engine.gradient(&params, &obs, &rho);
    let pure_serial = engine.gradient_pure(&params, &obs, &psi);

    qdp_par::set_max_threads(8);
    let dense_parallel = engine.gradient(&params, &obs, &rho);
    let pure_parallel = engine.gradient_pure(&params, &obs, &psi);
    let dense_repeat = engine.gradient(&params, &obs, &rho);
    qdp_par::set_max_threads(0); // restore auto-detection

    assert_eq!(bits(&dense_serial), bits(&dense_parallel));
    assert_eq!(bits(&pure_serial), bits(&pure_parallel));
    assert_eq!(bits(&dense_parallel), bits(&dense_repeat));
}

/// The same check at a width where the parallel leg really runs in
/// parallel: the 2-qubit program above has 8 extended amplitudes, far below
/// the kernels' split threshold, and too few programs for several waves. A
/// one-layer 14-qubit hardware-efficient ansatz runs its 42 derivative
/// programs on 2¹⁵ amplitudes, so gates split across kernel workers and
/// programs run in multi-tile waves.
#[test]
fn wide_gradient_is_bitwise_deterministic_across_thread_counts() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    let n = 14;
    let mut src: Vec<String> = Vec::new();
    for q in 1..=n {
        src.push(format!("q{q} *= RY(y{q}); q{q} *= RZ(z{q})"));
    }
    for q in 1..n {
        src.push(format!("q{q}, q{} *= CNOT", q + 1));
    }
    for q in 1..=n {
        src.push(format!("q{q} *= RY(f{q})"));
    }
    let engine = GradientEngine::new(&parse_program(&src.join("; ")).unwrap()).unwrap();
    assert_eq!(engine.total_programs(), 42);
    let params = Params::from_pairs(
        engine
            .parameters()
            .enumerate()
            .map(|(i, p)| (p.to_string(), 0.1 + 0.37 * i as f64)),
    );
    let obs = Observable::pauli_z(n, 0);
    let psi = StateVector::zero_state(n);

    qdp_par::set_max_threads(1);
    let serial = engine.gradient_pure(&params, &obs, &psi);
    qdp_par::set_max_threads(8);
    let parallel = engine.gradient_pure(&params, &obs, &psi);
    qdp_par::set_max_threads(0);

    assert_eq!(bits(&serial), bits(&parallel));
}

/// End-to-end validation of every fast path the gradient exercises: the same
/// gradient computed with the reference kernels agrees to 1e-12.
#[test]
fn gradient_matches_reference_kernels() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    let (engine, params, obs) = setup();
    let rho = DensityMatrix::pure_zero(2);

    let fast = engine.gradient(&params, &obs, &rho);
    set_reference_kernels(true);
    let slow = engine.gradient(&params, &obs, &rho);
    set_reference_kernels(false);

    assert_eq!(fast.len(), slow.len());
    for (name, v) in &fast {
        assert!(
            (v - slow[name]).abs() < 1e-12,
            "∂/∂{name}: fast {v} vs reference {}",
            slow[name]
        );
    }
}

/// The forward value must also be invariant under the kernel switch.
#[test]
fn forward_value_matches_reference_kernels() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    let (engine, params, obs) = setup();
    let rho = DensityMatrix::pure_zero(2);
    let fast = engine.value(&params, &obs, &rho);
    set_reference_kernels(true);
    let slow = engine.value(&params, &obs, &rho);
    set_reference_kernels(false);
    assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
}
