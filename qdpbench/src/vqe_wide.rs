//! `vqe_wide`: VQE steps on an 18-qubit hardware-efficient ansatz. One op
//! is one step: the forward value, the gadget-multiset gradient (the
//! paper's transformation, run on 19 qubits), then a gradient-descent
//! update.

use std::collections::BTreeMap;
use std::f64::consts::TAU;
use std::time::Instant;

use qdp_ad::GradientEngine;
use qdp_lang::ast::Params;
use qdp_lang::Stmt;
use qdp_sim::{BatchedStates, Observable, StateVector};
use qdp_vqc::hamiltonian::hardware_efficient_ansatz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Probed};
use crate::stats::{median, tail, windowed_rate};
use crate::trace::Tracer;
use crate::{cold_setups, Args, EndToEnd, Outcome, RATE_WINDOW_MS};

const QUBITS: usize = 18;
const LAYERS: usize = 1;
const LEARNING_RATE: f64 = 0.2;
/// Cold set-ups per run; `setup_s` is their median. Each includes a
/// warm step of over a second.
const SETUP_REPS: usize = 7;

struct Vqe {
    program: Stmt,
    engine: GradientEngine,
    obs: Observable,
    psi: StateVector,
    angles: BTreeMap<String, f64>,
}

impl Vqe {
    fn build(seed: u64) -> Self {
        let program = hardware_efficient_ansatz(QUBITS, LAYERS);
        let engine = GradientEngine::new(&program).expect("the ansatz is differentiable");
        let mut rng = StdRng::seed_from_u64(seed);
        let angles = engine
            .parameters()
            .map(|p| (p.to_string(), rng.gen_range(0.0..TAU)))
            .collect();
        Vqe {
            program,
            engine,
            obs: Observable::pauli_z(QUBITS, 0),
            psi: StateVector::zero_state(QUBITS),
            angles,
        }
    }

    fn params(&self) -> Params {
        Params::from_pairs(self.angles.iter().map(|(k, &v)| (k.clone(), v)))
    }

    /// One VQE step; returns the pre-step energy.
    fn step(&mut self) -> f64 {
        let params = self.params();
        let energy = self.engine.value_pure(&params, &self.obs, &self.psi);
        let grad = self.engine.gradient_pure(&params, &self.obs, &self.psi);
        self.update(&grad);
        energy
    }

    fn update(&mut self, grad: &BTreeMap<String, f64>) {
        for (name, g) in grad {
            *self
                .angles
                .get_mut(name)
                .expect("gradient keys are parameters") -= LEARNING_RATE * g;
        }
    }
}

/// A cold set-up: build plus one untimed warm step.
fn setup(seed: u64) -> Vqe {
    let mut vqe = Vqe::build(seed);
    vqe.step();
    vqe
}

/// Proposition 7.2 on the ansatz, and the gadget gradient against the
/// `±π/2` shift rule at step 0.
fn check(vqe: &Vqe, out: &mut Outcome) {
    let r = layers::resources(&vqe.program, &vqe.engine);
    out.check(r.bound_holds, "Proposition 7.2 (|#d| <= OC) on the ansatz");
    let params = vqe.params();
    let gadget = vqe.engine.gradient_pure(&params, &vqe.obs, &vqe.psi);
    let shift = vqe.engine.gradient_pure_shift(&params, &vqe.obs, &vqe.psi);
    let worst = gadget
        .iter()
        .map(|(k, v)| (v - shift[k]).abs())
        .fold(0.0, f64::max);
    out.check(
        worst <= 1e-9,
        &format!("gadget vs shift-rule gradient: {worst:e} > 1e-9"),
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    check(&Vqe::build(args.seed), &mut out);
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    // Unlike the other workloads, the set-ups run only before and after
    // the measured phase, with the measured workload dropped in between:
    // a set-up beside the live workload would add its 19-qubit buffers to
    // `peak_rss_mib`.
    let (mut setup_s, mut vqe) = cold_setups(SETUP_REPS.div_ceil(2), || setup(args.seed));
    let mut op_ms = Vec::new();
    let mut energies = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let t0 = Instant::now();
        energies.push(vqe.step());
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.attempted += op_ms.len() as u64;
    let finite = energies
        .iter()
        .all(|e| e.is_finite() && e.abs() <= 1.0 + 1e-9);
    out.check(
        finite,
        "every energy is a finite expectation of Z in [-1, 1]",
    );
    drop(vqe);
    setup_s.extend(cold_setups(SETUP_REPS / 2, || setup(args.seed)).0);
    let throughput = windowed_rate(&op_ms, RATE_WINDOW_MS);
    out.metrics = EndToEnd {
        setup_s,
        op_ms,
        throughput,
        ok_frac: 1.0 - out.failed as f64 / out.attempted as f64,
        // The host-speed unit does not track this bandwidth-bound
        // workload: scaled by it, the runs' spread widened (IQR/median of
        // the p50 0.05 -> 0.12).
        slowdown: None,
    }
    .metrics();
    out
}

fn traced(args: &Args, out: &mut Outcome) {
    let budget = args.seconds / 4;
    layers::traced(
        "vqe_wide",
        out,
        || setup(args.seed),
        |vqe, _, lv| {
            let r = layers::resources(&vqe.program, &vqe.engine);
            lv.once("core.programs_per_gradient", r.programs as f64);
            lv.once("core.oc", r.oc as f64);
            let mut programs = vec![&vqe.program];
            programs.extend(layers::derivative_programs(&vqe.engine));
            let (gates, _) = layers::static_counts(&programs);
            lv.once("sim.kernel.passes_per_op", gates as f64);
        },
        |vqe, at, out, lv| {
            let skeletons = layers::skeletons(&vqe.engine);
            let ext_psi = StateVector::zero_state(1).tensor(&vqe.psi);
            let ext_obs = vqe.obs.with_ancilla_z();
            let mut tr = Tracer::default();
            let mut ops = 0;
            let start = Instant::now();
            while ops < 4 || start.elapsed() < budget {
                let params = vqe.params();
                let sets = layers::valued(&skeletons, &params);
                tr.span("core.engine.value", None, || {
                    vqe.engine.value_pure(&params, &vqe.obs, &vqe.psi)
                });
                // The replay alternates between before and after the
                // engine's call, so drift over a pair cancels out.
                let fanout = || layers::pure_fanout(&sets, &ext_psi, &ext_obs);
                let early = (ops % 2 == 1).then(|| tr.span("core.lowered.fanout", None, fanout));
                let (grad, g) = tr.span("core.engine.gradient", None, || {
                    vqe.engine.gradient_pure(&params, &vqe.obs, &vqe.psi)
                });
                let (replayed, child) =
                    early.unwrap_or_else(|| tr.span("core.lowered.fanout", None, fanout));
                tr.attribute(child, g);
                out.check(
                    replayed.len() == grad.len()
                        && grad
                            .values()
                            .zip(&replayed)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "the replayed gradient fan-out differs from the engine's",
                );
                vqe.update(&grad);
                ops += 1;
            }
            let ms = |name: &str| median(&mut tr.self_times(name)) / 1e6;
            lv.at("core.engine.value_ms", at, ms("core.engine.value"));
            lv.at("core.engine.gradient_ms", at, ms("core.engine.gradient"));
            let mut step_ns: Vec<f64> = tr
                .durations("core.engine.value")
                .iter()
                .zip(tr.durations("core.engine.gradient"))
                .map(|(v, g)| v + g)
                .collect();
            lv.at("op_tail_ms", at, tail(&mut step_ns).value / 1e6);
            let batch = BatchedStates::from_states(std::slice::from_ref(&vqe.psi));
            let kernel_pass_ns =
                layers::kernel_layers(&vqe.engine, &vqe.params(), &batch, 3, at, lv);
            Probed {
                kernel_pass_ns,
                // Straight-line programs run through the per-row
                // enumerator, never a branch-weighted sweep.
                sweep_ns: None,
                gradient_ns: median(&mut tr.durations("core.engine.gradient")),
                spans_per_op: tr.len() as f64 / ops as f64,
                op_ns: median(&mut step_ns),
            }
        },
    );
}
