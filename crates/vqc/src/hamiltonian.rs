//! Many-body Hamiltonians and ansatz circuits for VQE-style experiments.
//!
//! The paper's VQE benchmark (Section 8.2, after Peruzzo et al.) minimises
//! the energy `⟨H⟩` of a quantum-chemistry or spin Hamiltonian over a
//! parameterized circuit. This module supplies the canonical NISQ test
//! case — the transverse-field Ising chain — plus a hardware-efficient
//! ansatz expressed in the paper's `q-while` language, so the paper's
//! differentiation scheme drives a *real* VQE optimisation end to end
//! (see `examples/vqe_ising.rs`).

use qdp_lang::ast::{Stmt, Var};
use qdp_linalg::{Pauli, PauliString};
use qdp_sim::Observable;

/// The transverse-field Ising Hamiltonian on an open chain:
///
/// `H = −J·Σᵢ Zᵢ Zᵢ₊₁ − h·Σᵢ Xᵢ`.
///
/// # Panics
///
/// Panics for fewer than 2 sites.
pub fn transverse_field_ising(n_sites: usize, coupling_j: f64, field_h: f64) -> Observable {
    assert!(n_sites >= 2, "an Ising chain needs at least two sites");
    let mut terms = Vec::new();
    for i in 0..n_sites - 1 {
        let mut factors = vec![Pauli::I; n_sites];
        factors[i] = Pauli::Z;
        factors[i + 1] = Pauli::Z;
        terms.push((-coupling_j, PauliString::new(factors)));
    }
    for i in 0..n_sites {
        terms.push((-field_h, PauliString::single(n_sites, i, Pauli::X)));
    }
    Observable::from_pauli_sum(&terms).expect("all terms span the full chain")
}

/// The Heisenberg XXZ chain `H = Σᵢ (XᵢXᵢ₊₁ + YᵢYᵢ₊₁ + Δ·ZᵢZᵢ₊₁)`.
///
/// # Panics
///
/// Panics for fewer than 2 sites.
pub fn heisenberg_xxz(n_sites: usize, delta: f64) -> Observable {
    assert!(n_sites >= 2, "a Heisenberg chain needs at least two sites");
    let mut terms = Vec::new();
    for i in 0..n_sites - 1 {
        for (axis, weight) in [(Pauli::X, 1.0), (Pauli::Y, 1.0), (Pauli::Z, delta)] {
            let mut factors = vec![Pauli::I; n_sites];
            factors[i] = axis;
            factors[i + 1] = axis;
            terms.push((weight, PauliString::new(factors)));
        }
    }
    Observable::from_pauli_sum(&terms).expect("all terms span the full chain")
}

/// A hardware-efficient VQE ansatz in the `q-while` language: `layers`
/// repetitions of per-qubit `RY`/`RZ` rotations followed by a CNOT chain,
/// with a final rotation layer. Every gate carries a distinct parameter
/// `v{index}`, so each has `|#∂| = 1`.
///
/// # Panics
///
/// Panics for zero qubits or zero layers.
pub fn hardware_efficient_ansatz(n_qubits: usize, layers: usize) -> Stmt {
    assert!(n_qubits >= 1 && layers >= 1, "ansatz needs qubits and layers");
    let q = |i: usize| Var::new(format!("q{}", i + 1));
    let mut next = 0usize;
    let mut fresh = || {
        let name = format!("v{next}");
        next += 1;
        name
    };
    let mut stmts = Vec::new();
    for _ in 0..layers {
        for i in 0..n_qubits {
            stmts.push(Stmt::rot(Pauli::Y, fresh(), q(i)));
            stmts.push(Stmt::rot(Pauli::Z, fresh(), q(i)));
        }
        for i in 0..n_qubits.saturating_sub(1) {
            stmts.push(Stmt::unitary(qdp_lang::Gate::Cnot, [q(i), q(i + 1)]));
        }
    }
    for i in 0..n_qubits {
        stmts.push(Stmt::rot(Pauli::Y, fresh(), q(i)));
    }
    Stmt::seq(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_ad::GradientEngine;
    use qdp_lang::ast::Params;
    use qdp_lang::wf;
    use qdp_sim::StateVector;

    #[test]
    fn ising_is_hermitian_with_known_small_spectrum() {
        // Two sites, J=1, h=0: H = −Z⊗Z with eigenvalues {−1, −1, 1, 1}.
        let h = transverse_field_ising(2, 1.0, 0.0);
        assert!((h.min_eigenvalue() + 1.0).abs() < 1e-10);
        // Pure field (J=0, h=1): ground energy −n·h = −2.
        let h = transverse_field_ising(2, 0.0, 1.0);
        assert!((h.min_eigenvalue() + 2.0).abs() < 1e-9);
    }

    #[test]
    fn ising_ground_energy_matches_exact_diagonalization_structure() {
        // J=h=1 on 3 sites: check against independently computed value
        // E0 = -2·sqrt(1+1+... ) — here simply verify monotonicity in h and
        // the classical limits.
        let e_classical = transverse_field_ising(3, 1.0, 0.0).min_eigenvalue();
        assert!((e_classical + 2.0).abs() < 1e-9, "two ZZ bonds at J=1");
        let e_field = transverse_field_ising(3, 0.0, 1.0).min_eigenvalue();
        assert!((e_field + 3.0).abs() < 1e-9, "three X terms at h=1");
        let e_mixed = transverse_field_ising(3, 1.0, 1.0).min_eigenvalue();
        assert!(e_mixed < e_classical && e_mixed < e_field);
    }

    #[test]
    fn heisenberg_two_site_ground_state_is_singlet() {
        // XX+YY+ZZ on two sites has ground energy −3 (singlet).
        let h = heisenberg_xxz(2, 1.0);
        assert!((h.min_eigenvalue() + 3.0).abs() < 1e-9);
    }

    #[test]
    fn ansatz_is_well_formed_and_fully_parameterized() {
        let a = hardware_efficient_ansatz(3, 2);
        wf::check(&a).unwrap();
        // 2 layers × 3 qubits × 2 rotations + 3 final = 15 parameters.
        assert_eq!(a.parameters().len(), 15);
        assert_eq!(a.qvar().len(), 3);
    }

    #[test]
    fn ansatz_energy_gradient_matches_finite_difference() {
        let ansatz = hardware_efficient_ansatz(2, 1);
        let h = transverse_field_ising(2, 1.0, 0.5);
        let engine = GradientEngine::new(&ansatz).unwrap();
        let params = Params::from_pairs(
            ansatz
                .parameters()
                .into_iter()
                .enumerate()
                .map(|(i, name)| (name, 0.3 + 0.41 * i as f64)),
        );
        let psi = StateVector::zero_state(2);
        let grad = engine.gradient_pure(&params, &h, &psi);
        let reg = qdp_lang::Register::from_program(&ansatz);
        for (name, value) in &grad {
            let numeric = qdp_ad::semantics::numeric_derivative(
                &ansatz,
                &reg,
                &params,
                name,
                &h,
                &qdp_sim::DensityMatrix::from_pure(&psi),
                1e-5,
            );
            assert!((value - numeric).abs() < 1e-7, "∂E/∂{name}");
        }
    }

    #[test]
    fn ansatz_gradient_runs_its_shared_forward_prefix_once() {
        // 18 qubits, one layer: 71 forward gates, 54 parameters at gate
        // positions 0..36 and 53..71. Each of the 54 derivative programs
        // swaps one rotation for its 3-gate gadget (73 gates), so unshared
        // they take 54 × 73 = 3942 passes. Shared, the 70 forward gates
        // before the last rotation run once, and the program whose gadget
        // replaces the gate at position k runs its 73 − k gates from there:
        // 70 + Σ_k (73 − k) = 70 + 3942 − 1737 = 2275.
        let engine = GradientEngine::new(&hardware_efficient_ansatz(18, 1)).unwrap();
        assert_eq!(engine.total_programs(), 54);
        assert_eq!(engine.gate_passes(), 2275);
    }

    #[test]
    fn ansatz_can_reach_the_classical_ising_ground_state() {
        // With J=1, h=0 the ground states are |00⟩/|11⟩; RY(0)=identity
        // already gives ⟨H⟩ = −1 = E0 from |00⟩.
        let h = transverse_field_ising(2, 1.0, 0.0);
        let ansatz = hardware_efficient_ansatz(2, 1);
        let engine = GradientEngine::new(&ansatz).unwrap();
        let zeros = Params::from_pairs(
            ansatz.parameters().into_iter().map(|name| (name, 0.0)),
        );
        let e = engine.value_pure(&zeros, &h, &StateVector::zero_state(2));
        assert!((e - h.min_eigenvalue()).abs() < 1e-9);
    }
}
