//! Structural fingerprints of programs — the cache key of the
//! compile-once pipeline.
//!
//! `qdp_ad`'s `ProgramCache` memoizes lowering per *unique program*, where
//! "unique" means structural identity of the triple the lowering actually
//! depends on: the compiled AST (gates, axes, angle parameters and offsets,
//! control flow), the register layout (variable names **and order** — the
//! lowered qubit indices), and therefore implicitly the ancilla extension
//! (an extended register hashes differently from its base). This module
//! computes a deterministic 64-bit fingerprint over exactly that triple.
//!
//! The fingerprint is a *hash*, not an identity: two different programs can
//! in principle collide, so the cache always verifies full structural
//! equality ([`Stmt: PartialEq`] / [`Register: PartialEq`]) before sharing
//! a compiled skeleton. The hash only routes the lookup; collisions cost a
//! bucket scan, never an aliased skeleton.
//!
//! Determinism matters more than speed here: the hash is FNV-1a over an
//! explicit pre-order serialization (variant tags, lengths, name bytes,
//! `f64::to_bits` for angles), with no dependence on pointer values,
//! `HashMap` iteration order, or the process' ASLR — the same program
//! fingerprints identically in every run on every platform.

use crate::ast::{Angle, Gate, Stmt, Var};
use crate::register::Register;
use qdp_linalg::Pauli;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher over the explicit serialization
/// this module defines. Exposed so callers (e.g. the gradient service) can
/// fold extra context — observable matrices, valuations — into the same
/// deterministic stream.
#[derive(Clone, Debug)]
pub struct StructuralHasher {
    state: u64,
}

impl Default for StructuralHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StructuralHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StructuralHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the stream.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte (used for variant tags).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by its exact IEEE-754 bit pattern — `0.0` and `-0.0`
    /// hash differently, as do any two angles that would produce different
    /// gate matrices.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string as length + bytes (length-prefixing keeps `"ab","c"`
    /// distinct from `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

fn write_pauli(h: &mut StructuralHasher, p: Pauli) {
    h.write_u8(match p {
        Pauli::I => 0,
        Pauli::X => 1,
        Pauli::Y => 2,
        Pauli::Z => 3,
    });
}

fn write_angle(h: &mut StructuralHasher, a: &Angle) {
    match &a.param {
        None => h.write_u8(0),
        Some(name) => {
            h.write_u8(1);
            h.write_str(name);
        }
    }
    h.write_f64(a.offset);
}

fn write_var(h: &mut StructuralHasher, v: &Var) {
    h.write_str(v.name());
}

fn write_vars(h: &mut StructuralHasher, qs: &[Var]) {
    h.write_u64(qs.len() as u64);
    for q in qs {
        write_var(h, q);
    }
}

/// Folds a gate: variant tag, axis, control count, and angle (parameter
/// name plus exact offset bits).
pub fn write_gate(h: &mut StructuralHasher, g: &Gate) {
    match g {
        Gate::Rot { axis, angle } => {
            h.write_u8(1);
            write_pauli(h, *axis);
            write_angle(h, angle);
        }
        Gate::Coupling { axis, angle } => {
            h.write_u8(2);
            write_pauli(h, *axis);
            write_angle(h, angle);
        }
        Gate::CRot { controls, axis, angle } => {
            h.write_u8(3);
            h.write_u64(*controls as u64);
            write_pauli(h, *axis);
            write_angle(h, angle);
        }
        Gate::CCoupling { controls, axis, angle } => {
            h.write_u8(4);
            h.write_u64(*controls as u64);
            write_pauli(h, *axis);
            write_angle(h, angle);
        }
        Gate::H => h.write_u8(5),
        Gate::X => h.write_u8(6),
        Gate::Y => h.write_u8(7),
        Gate::Z => h.write_u8(8),
        Gate::Cnot => h.write_u8(9),
    }
}

/// Folds a statement tree in pre-order: variant tags, operand variables,
/// gates, arm counts, loop bounds.
pub fn write_stmt(h: &mut StructuralHasher, s: &Stmt) {
    match s {
        Stmt::Abort { qs } => {
            h.write_u8(1);
            write_vars(h, qs);
        }
        Stmt::Skip { qs } => {
            h.write_u8(2);
            write_vars(h, qs);
        }
        Stmt::Init { q } => {
            h.write_u8(3);
            write_var(h, q);
        }
        Stmt::Unitary { gate, qs } => {
            h.write_u8(4);
            write_gate(h, gate);
            write_vars(h, qs);
        }
        Stmt::Seq(a, b) => {
            h.write_u8(5);
            write_stmt(h, a);
            write_stmt(h, b);
        }
        Stmt::Case { qs, arms } => {
            h.write_u8(6);
            write_vars(h, qs);
            h.write_u64(arms.len() as u64);
            for arm in arms {
                write_stmt(h, arm);
            }
        }
        Stmt::While { q, bound, body } => {
            h.write_u8(7);
            write_var(h, q);
            h.write_u64(u64::from(*bound));
            write_stmt(h, body);
        }
        Stmt::Sum(a, b) => {
            h.write_u8(8);
            write_stmt(h, a);
            write_stmt(h, b);
        }
    }
}

/// Folds a register: qubit count plus every variable name **in index
/// order**, so registers differing in width, naming, or ordering (and in
/// particular base vs ancilla-extended registers) fingerprint differently.
pub fn write_register(h: &mut StructuralHasher, reg: &Register) {
    h.write_u64(reg.len() as u64);
    for v in reg.vars() {
        write_var(h, v);
    }
}

thread_local! {
    static FINGERPRINTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many fingerprints [`program_fingerprint`] and
/// [`multiset_fingerprint`] have computed **on this thread** — the probe
/// behind "a warm cache lookup hashes nothing". A test thread's delta
/// across a region counts the fingerprints that region computed on it.
pub fn fingerprint_invocations() -> usize {
    FINGERPRINTS.with(std::cell::Cell::get)
}

fn count_fingerprint() {
    FINGERPRINTS.with(|c| c.set(c.get() + 1));
}

/// The structural fingerprint of one program over a register.
pub fn program_fingerprint(stmt: &Stmt, reg: &Register) -> u64 {
    count_fingerprint();
    let mut h = StructuralHasher::new();
    write_register(&mut h, reg);
    write_stmt(&mut h, stmt);
    h.finish()
}

/// The structural fingerprint of a compiled multiset (an ordered program
/// list) over a register — the cache key of `qdp_ad`'s `ProgramCache`.
pub fn multiset_fingerprint(programs: &[Stmt], reg: &Register) -> u64 {
    count_fingerprint();
    let mut h = StructuralHasher::new();
    write_register(&mut h, reg);
    h.write_u64(programs.len() as u64);
    for p in programs {
        write_stmt(&mut h, p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn fp(src: &str) -> u64 {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        program_fingerprint(&p, &reg)
    }

    #[test]
    fn fingerprint_is_deterministic_across_calls() {
        let src = "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 := |0> end";
        assert_eq!(fp(src), fp(src));
    }

    #[test]
    fn distinct_structures_fingerprint_differently() {
        // Param name, axis, offset, register naming, control flow — every
        // component the lowering depends on must separate keys.
        let base = fp("q1 *= RX(a)");
        for other in [
            "q1 *= RX(b)",            // param name
            "q1 *= RY(a)",            // axis
            "q1 *= RX(a + pi/2)",     // offset
            "q2 *= RX(a)",            // register naming
            "q1 *= RX(a); q1 *= H",   // structure
        ] {
            assert_ne!(base, fp(other), "{other} must not alias q1 *= RX(a)");
        }
    }

    #[test]
    fn register_width_and_order_separate_fingerprints() {
        let p = parse_program("q1 *= RX(a)").unwrap();
        let narrow = Register::from_vars([Var::new("q1")]);
        let wide = Register::from_vars([Var::new("q1"), Var::new("q2")]);
        let reordered = Register::from_vars([Var::new("q2"), Var::new("q1")]);
        let ancilla = narrow.with_ancilla_front(Var::new("A"));
        let fps = [
            program_fingerprint(&p, &narrow),
            program_fingerprint(&p, &wide),
            program_fingerprint(&p, &reordered),
            program_fingerprint(&p, &ancilla),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "register variants {i} and {j} alias");
            }
        }
    }

    #[test]
    fn multiset_fingerprint_depends_on_length_and_order() {
        let a = parse_program("q1 *= RX(t)").unwrap();
        let b = parse_program("q1 *= RY(t)").unwrap();
        let reg = Register::from_vars([Var::new("q1")]);
        let ab = multiset_fingerprint(&[a.clone(), b.clone()], &reg);
        let ba = multiset_fingerprint(&[b.clone(), a.clone()], &reg);
        let aa = multiset_fingerprint(&[a.clone(), a.clone()], &reg);
        let single = multiset_fingerprint(std::slice::from_ref(&a), &reg);
        assert_ne!(ab, ba);
        assert_ne!(ab, aa);
        assert_ne!(aa, single);
    }

    #[test]
    fn angle_sign_of_zero_is_distinguished() {
        // to_bits separates 0.0 from -0.0; the matrices agree but keying on
        // exact bits keeps the contract simple (never alias unless equal).
        let mut h0 = StructuralHasher::new();
        h0.write_f64(0.0);
        let mut h1 = StructuralHasher::new();
        h1.write_f64(-0.0);
        assert_ne!(h0.finish(), h1.finish());
    }
}
