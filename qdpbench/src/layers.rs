//! The per-layer metrics, the end-to-end metric each should move, and the
//! probes that replay a workload's own inputs through each layer's public
//! entry points.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use qdp_ad::{
    analyze, occurrence_count, CompiledSkeleton, Differentiated, GradientEngine, ProgramCache,
};
use qdp_lang::ast::Params;
use qdp_lang::{Register, Stmt};
use qdp_linalg::Matrix;
use qdp_sim::{BatchedStates, Measurement, Observable, ShotEngine, StateVector};

use crate::stats::median;
use crate::trace::span_cost_ns;
use crate::{cold_setups, host, with_threads, Outcome};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One per-layer metric. `threaded` metrics are recorded at 1 thread
/// (`<name>.t1`) and at nproc threads (`<name>.tn`); the rest are counts
/// or ratios recorded once.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub threaded: bool,
    pub better: Better,
    /// The end-to-end metric this layer should move, and on which
    /// workload — the prediction map later changes are stated against.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    threaded: bool,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        threaded,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in report order.
#[rustfmt::skip]
pub const LAYERS: &[LayerDef] = &[
    def("op_tail_ms", "ms", true, Lower, "the workload's own op tail, recorded here ungated"),
    def("vqc.epoch.self_ms", "ms", true, Lower, "throughput_ops_s on train_p2"),
    def("core.engine.value_ms", "ms", true, Lower, "throughput_ops_s on train_p2 and vqe_wide"),
    def("core.engine.gradient_ms", "ms", true, Lower, "throughput_ops_s on train_p2 and vqe_wide"),
    def("core.lowered.materialise_us", "us", true, Lower, "throughput_ops_s on train_p2, op_p50_ms on serve_mix"),
    def("core.lowered.materialised_per_op", "count", false, Lower, "throughput_ops_s on train_p2, op_p50_ms on serve_mix"),
    def("core.skeleton.patch_us", "us", true, Lower, "op_p50_ms on serve_mix (P2 shot gradient)"),
    def("core.skeleton.patches_per_op", "count", false, Lower, "op_p50_ms on serve_mix (P2 shot gradient)"),
    def("core.cache.hit_ratio", "ratio", false, Higher, "setup_s on every workload"),
    def("core.cache.lowers", "count", false, Lower, "setup_s on every workload"),
    def("core.programs_per_gradient", "count", false, Lower, "exact count |#d| (paper Section 7)"),
    def("core.oc", "count", false, Lower, "exact count OC (paper Section 7)"),
    def("sim.sweep.ms", "ms", true, Lower, "throughput_ops_s on train_p2, op_p50_ms on serve_mix"),
    def("sim.kernel.dense1q.ns_per_amp", "ns/amp", true, Lower, "throughput_ops_s on vqe_wide; flat on train_p2"),
    def("sim.kernel.diag1q.ns_per_amp", "ns/amp", true, Lower, "throughput_ops_s on vqe_wide; flat on train_p2"),
    def("sim.kernel.cnot.ns_per_amp", "ns/amp", true, Lower, "throughput_ops_s on vqe_wide; flat on train_p2"),
    def("sim.kernel.passes_per_op", "count", false, Lower, "throughput_ops_s on vqe_wide; flat on train_p2"),
    def("sim.kernel.gbs_computed", "GB/s", true, Higher, "throughput_ops_s on vqe_wide; flat on train_p2"),
    def("sim.measure.probs_us", "us", true, Lower, "throughput_ops_s on train_p2 and op_p50_ms on serve_mix"),
    def("sim.measure.collapse_us", "us", true, Lower, "throughput_ops_s on train_p2 and op_p50_ms on serve_mix"),
    def("sim.measure.forks_per_op", "count", false, Lower, "throughput_ops_s on train_p2 and op_p50_ms on serve_mix"),
    def("sim.sampling.shots_per_s", "1/s", true, Higher, "op_p50_ms on serve_mix"),
    def("sim.sampling.shots_per_op", "count", false, Lower, "op_p50_ms on serve_mix"),
    def("par.speedup_x.kernel", "x", false, Higher, "throughput_ops_s on vqe_wide; train_p2 end-to-end runs at 1 thread"),
    def("par.speedup_x.sweep", "x", false, Higher, "op_p50_ms on serve_mix; train_p2 end-to-end runs at 1 thread"),
    def("par.speedup_x.gradient", "x", false, Higher, "throughput_ops_s on vqe_wide, op_p50_ms on serve_mix; not train_p2 (1 thread)"),
    def("max_ok_rps", "1/s", false, Higher, "serve_mix capacity at the 10 ms limit; 0 when no rate meets it"),
    def("service.queue_wait_ms.p50", "ms", true, Lower, "op_tail_ms, ok_frac and max_ok_rps on serve_mix only"),
    def("service.queue_wait_ms.p99", "ms", true, Lower, "op_tail_ms, ok_frac and max_ok_rps on serve_mix only"),
    def("service.group_size", "count", true, Higher, "op_tail_ms, ok_frac and max_ok_rps on serve_mix only"),
    def("service.shed", "count", true, Lower, "failed_frac on serve_mix"),
    def("service.expired", "count", true, Lower, "failed_frac on serve_mix"),
    def("service.leader_failures", "count", true, Lower, "failed_frac on serve_mix"),
    def("bench.gen_lag_ms.p99", "ms", true, Lower, "validity of the serve_mix measurement"),
    def("bench.trace_overhead_frac", "frac", false, Lower, "validity of the traced run"),
    def("failed_frac", "frac", false, Lower, "failed, shed or wrong ops over attempted ops"),
];

/// Thread setting of a recorded value.
#[derive(Clone, Copy)]
pub enum At {
    One,
    N,
}

/// Per-layer values a traced run collected; layers a workload does not
/// exercise stay absent and are reported as 0.
#[derive(Default)]
pub struct LayerValues {
    values: HashMap<&'static str, [Option<f64>; 2]>,
}

impl LayerValues {
    /// Records a threaded layer's value at one thread setting.
    pub fn at(&mut self, name: &'static str, at: At, v: f64) {
        self.values.entry(name).or_default()[at as usize] = Some(v);
    }

    /// Records a once-only layer's value.
    pub fn once(&mut self, name: &'static str, v: f64) {
        self.at(name, At::One, v);
    }

    fn get(&self, name: &str, at: At) -> Option<f64> {
        self.values.get(name).and_then(|v| v[at as usize])
    }

    /// Prints the layer table and returns the flat metric list, in
    /// [`LAYERS`] order.
    pub fn report(&self, workload: &str, nproc: usize) -> Vec<(String, f64, &'static str)> {
        println!(
            "layer table: {workload} (t1 = 1 thread, tn = {nproc} threads; n/a = not exercised)"
        );
        println!(
            "{:<34} {:>8} {:>14} {:>14}  flag  moves",
            "layer", "unit", "t1", "tn"
        );
        let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.4}"));
        let mut out = Vec::new();
        for d in LAYERS {
            let t1 = self.get(d.name, At::One);
            if d.threaded {
                let tn = self.get(d.name, At::N);
                // A path that gets slower with more threads is a bug; 5%
                // absorbs run-to-run noise.
                let slower = match (t1, tn, d.better) {
                    (Some(a), Some(b), Lower) => b > a * 1.05,
                    (Some(a), Some(b), Higher) => b < a / 1.05,
                    _ => false,
                };
                let flag = if slower && d.unit != "count" {
                    "SLOWER"
                } else {
                    ""
                };
                println!(
                    "{:<34} {:>8} {:>14} {:>14}  {:<6}{}",
                    d.name,
                    d.unit,
                    fmt(t1),
                    fmt(tn),
                    flag,
                    d.moves
                );
                out.push((format!("{}.t1", d.name), t1.unwrap_or(0.0), d.unit));
                out.push((format!("{}.tn", d.name), tn.unwrap_or(0.0), d.unit));
            } else {
                println!(
                    "{:<34} {:>8} {:>14} {:>14}        {}",
                    d.name,
                    d.unit,
                    fmt(t1),
                    "",
                    d.moves
                );
                out.push((d.name.to_string(), t1.unwrap_or(0.0), d.unit));
            }
        }
        out
    }
}

/// Wall time of `f` in nanoseconds.
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

/// The paper's resource counts for one program: `Σj |#∂/∂θj|`, `Σj OCj`,
/// and whether Proposition 7.2 (`|#∂/∂θj| ≤ OCj`) holds for every `j`.
pub struct Resources {
    pub programs: usize,
    pub oc: usize,
    pub bound_holds: bool,
}

/// See [`Resources`].
pub fn resources(program: &Stmt, engine: &GradientEngine) -> Resources {
    let reports = analyze(program).expect("workload programs are differentiable");
    let oc = program
        .parameters()
        .iter()
        .map(|p| occurrence_count(program, p))
        .sum();
    Resources {
        programs: engine.total_programs(),
        oc,
        bound_holds: reports.iter().all(|r| r.satisfies_bound())
            && reports.iter().map(|r| r.derivative_programs).sum::<usize>()
                == engine.total_programs(),
    }
}

/// Static per-op counts over the programs one op runs: gate applications
/// (before fusion) and measurement cases.
pub fn static_counts(programs: &[&Stmt]) -> (usize, usize) {
    let mut cases = 0;
    for p in programs {
        p.visit(&mut |s| {
            if matches!(s, Stmt::Case { .. }) {
                cases += 1;
            }
        });
    }
    (programs.iter().map(|p| p.gate_count()).sum(), cases)
}

/// Every compiled derivative program of an engine, in parameter order.
pub fn derivative_programs(engine: &GradientEngine) -> Vec<&Stmt> {
    engine
        .parameters()
        .flat_map(|p| {
            engine
                .differentiated(p)
                .expect("engine parameter")
                .compiled()
        })
        .collect()
}

/// A gate of a program, resolved against a register and a valuation,
/// with its kernel dispatch class.
pub struct Gate {
    class: &'static str,
    matrix: Matrix,
    targets: Vec<usize>,
}

/// The unitaries of `program` in program order (all `case` arms
/// included), classed as the simulator dispatches them: `dense1q`,
/// `diag1q`, or `cnot` for the block-diagonal controlled two-qubit class
/// (CNOT and the derivative gadget's controlled rotations).
pub fn gate_list(program: &Stmt, reg: &Register, params: &Params) -> Vec<Gate> {
    let mut gates = Vec::new();
    program.visit(&mut |s| {
        if let Stmt::Unitary { gate, qs } = s {
            let matrix = gate.matrix(params);
            let targets = reg.indices_of(qs);
            let d = matrix.rows();
            let off_diag_zero =
                (0..d).all(|i| (0..d).all(|j| i == j || matrix.get(i, j).norm_sqr() == 0.0));
            let block_diag = d == 4
                && (0..2).all(|i| {
                    (2..4).all(|j| {
                        matrix.get(i, j).norm_sqr() == 0.0 && matrix.get(j, i).norm_sqr() == 0.0
                    })
                });
            let class = match (targets.len(), off_diag_zero, block_diag) {
                (1, true, _) => "diag1q",
                (1, false, _) => "dense1q",
                (2, _, true) => "cnot",
                _ => "other",
            };
            gates.push(Gate {
                class,
                matrix,
                targets,
            });
        }
    });
    gates
}

/// Kernel replay of a gate list through `BatchedStates::apply_gate`.
pub struct KernelStats {
    /// Median ns per amplitude, per dispatch class.
    pub ns_per_amp: HashMap<&'static str, f64>,
    /// Median computed bytes moved per second (each pass reads and writes
    /// both f64 planes), in GB/s.
    pub gbs: f64,
    /// Total replay time of one pass over the list, ns.
    pub pass_ns: f64,
}

/// Replays `gates` over a `rows × n`-qubit block `reps` times.
pub fn kernel_replay(gates: &[Gate], rows: usize, n: usize, reps: usize) -> KernelStats {
    let mut batch = BatchedStates::repeat(&qdp_sim::StateVector::zero_state(n), rows);
    let amps = (rows << n) as f64;
    // Small blocks repeat each gate so one sample spans ~50 µs of work.
    let inner = (50_000.0 / amps).ceil().max(1.0) as usize;
    let mut per_gate: Vec<Vec<f64>> = vec![Vec::new(); gates.len()];
    let mut pass = Vec::new();
    for _ in 0..reps {
        let t_pass = Instant::now();
        for (g, samples) in gates.iter().zip(&mut per_gate) {
            let (_, ns) = time_ns(|| {
                for _ in 0..inner {
                    batch.apply_gate(&g.matrix, &g.targets);
                }
            });
            samples.push(ns / inner as f64);
        }
        pass.push(t_pass.elapsed().as_nanos() as f64);
    }
    let mut by_class: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut gbs = Vec::new();
    for (g, samples) in gates.iter().zip(&mut per_gate) {
        let ns = median(samples);
        by_class.entry(g.class).or_default().push(ns / amps);
        gbs.push(amps * 32.0 / ns);
    }
    KernelStats {
        ns_per_amp: by_class
            .into_iter()
            .map(|(k, mut v)| (k, median(&mut v)))
            .collect(),
        gbs: median(&mut gbs),
        pass_ns: median(&mut pass),
    }
}

/// Block measurement replay: one probability table and one collapse of
/// outcome 0 over the whole block, median µs of `reps` each.
pub fn measure_replay(meas: &Measurement, batch: &BatchedStates, reps: usize) -> (f64, f64) {
    let n = batch.num_qubits();
    let (re, im) = batch.planes();
    let rows: Vec<usize> = (0..batch.len()).collect();
    let mut table = Vec::new();
    let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
    let mut probs = Vec::new();
    let mut collapse = Vec::new();
    for _ in 0..reps {
        probs.push(time_ns(|| meas.branch_probabilities_block(n, re, im, &mut table)).1 / 1e3);
        out_re.clear();
        out_im.clear();
        collapse.push(
            time_ns(|| meas.collapse_block_into(n, re, im, &rows, 0, &mut out_re, &mut out_im)).1
                / 1e3,
        );
    }
    (median(&mut probs), median(&mut collapse))
}

/// One compiled multiset per engine parameter, in parameter order (one
/// cache lookup each).
pub fn skeletons(engine: &GradientEngine) -> Vec<Arc<CompiledSkeleton>> {
    engine
        .parameters()
        .map(|p| {
            engine
                .differentiated(p)
                .expect("engine parameter")
                .skeleton()
        })
        .collect()
}

/// Each multiset with its slot values under `params`: the inputs of one
/// gradient's fan-out.
pub fn valued<'a>(
    skeletons: &'a [Arc<CompiledSkeleton>],
    params: &Params,
) -> Vec<(&'a CompiledSkeleton, Vec<f64>)> {
    skeletons
        .iter()
        .map(|s| (&**s, s.lowered().slot_values(params)))
        .collect()
}

/// The fan-out of an exact batched gradient as the engine runs it: one
/// `LoweredSet::expectation_batch` per parameter inside `qdp_par::par_map`,
/// over the ancilla-extended batch and observable.
pub fn batch_fanout(
    sets: &[(&CompiledSkeleton, Vec<f64>)],
    ext_batch: &BatchedStates,
    ext_obs: &Observable,
) -> Vec<Vec<f64>> {
    qdp_par::par_map(sets, |(skeleton, values)| {
        skeleton
            .lowered()
            .expectation_batch(values, ext_batch, ext_obs)
    })
}

/// The fan-out of an exact single-state gradient as the engine runs it:
/// per parameter inside `qdp_par::par_map`, the multiset's programs
/// through `LoweredProgram::expectation_pure` inside a nested one.
pub fn pure_fanout(
    sets: &[(&CompiledSkeleton, Vec<f64>)],
    ext_psi: &StateVector,
    ext_obs: &Observable,
) -> Vec<f64> {
    qdp_par::par_map(sets, |(skeleton, values)| {
        qdp_par::par_map(skeleton.lowered().programs(), |p| {
            p.expectation_pure(values, ext_psi, ext_obs)
        })
        .into_iter()
        .sum()
    })
}

/// Whether a replayed fan-out (per parameter, per row) carries the bits of
/// the engine's gradient (per row, per parameter): the replay did the
/// engine's work.
pub fn replay_matches(replayed: &[Vec<f64>], engine: &[BTreeMap<String, f64>]) -> bool {
    engine.iter().enumerate().all(|(r, row)| {
        row.len() == replayed.len()
            && row
                .values()
                .zip(replayed)
                .all(|(v, per_row)| v.to_bits() == per_row[r].to_bits())
    })
}

/// Kernel replay of the first derivative program's gate list over the
/// ancilla-extended `batch`, `reps` passes; records the per-class
/// ns/amp and computed GB/s at `at` and returns the ns of one pass.
pub fn kernel_layers(
    engine: &GradientEngine,
    params: &Params,
    batch: &BatchedStates,
    reps: usize,
    at: At,
    lv: &mut LayerValues,
) -> f64 {
    let first = first_derivative(engine);
    let gates = gate_list(&first.compiled()[0], first.ext_register(), params);
    let k = kernel_replay(&gates, batch.len(), batch.num_qubits() + 1, reps);
    for class in ["dense1q", "diag1q", "cnot"] {
        if let Some(&v) = k.ns_per_amp.get(class) {
            lv.at(kernel_metric(class), at, v);
        }
    }
    lv.at("sim.kernel.gbs_computed", at, k.gbs);
    k.pass_ns
}

/// Block measurement replay of the first measurement of the first
/// derivative program, over the ancilla-extended `batch`.
pub fn measure_layers(
    engine: &GradientEngine,
    batch: &BatchedStates,
    reps: usize,
    at: At,
    lv: &mut LayerValues,
) {
    let first = first_derivative(engine);
    let meas = first_measurement(&first.compiled()[0], first.ext_register())
        .expect("the workload program measures");
    let (probs, collapse) = measure_replay(&meas, &batch.prepend_zero_ancilla(), reps);
    lv.at("sim.measure.probs_us", at, probs);
    lv.at("sim.measure.collapse_us", at, collapse);
}

/// What `LoweredSet::expectation_batch` runs for every branching program
/// of every derivative multiset: `resolve` and `to_trajectory` (recorded
/// as the median µs per program), then the branch-weighted
/// `ShotEngine::expectation_sweep` over the ancilla-extended `batch`
/// (recorded as the median ms per program). Returns the summed sweep ns.
pub fn sweep_layers(
    skeletons: &[Arc<CompiledSkeleton>],
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
    at: At,
    lv: &mut LayerValues,
) -> f64 {
    let ext_batch = batch.prepend_zero_ancilla();
    let ext_obs = obs.with_ancilla_z();
    let mut materialise_us = Vec::new();
    let mut sweep_ns = Vec::new();
    for (skeleton, values) in valued(skeletons, params) {
        for program in skeleton.lowered().programs() {
            let (traj, ns) = time_ns(|| program.resolve(&values).to_trajectory());
            materialise_us.push(ns / 1e3);
            let sweep = ShotEngine::new(traj);
            let input = ext_batch.clone();
            sweep_ns.push(time_ns(|| sweep.expectation_sweep(input, &ext_obs)).1);
        }
    }
    let total = sweep_ns.iter().sum();
    lv.at(
        "core.lowered.materialise_us",
        at,
        median(&mut materialise_us),
    );
    lv.at("sim.sweep.ms", at, median(&mut sweep_ns) / 1e6);
    total
}

/// Skeleton patch replay: `CompiledSkeleton::trajectory_at` over every
/// trajectory of every derivative multiset, as a shot gradient prepares
/// them; records the median µs per patch.
pub fn patch_layer(
    skeletons: &[Arc<CompiledSkeleton>],
    params: &Params,
    at: At,
    lv: &mut LayerValues,
) {
    let mut patch_us = Vec::new();
    for (skeleton, values) in valued(skeletons, params) {
        for i in 0..skeleton.trajectories().len() {
            patch_us.push(time_ns(|| skeleton.trajectory_at(i, &values)).1 / 1e3);
        }
    }
    lv.at("core.skeleton.patch_us", at, median(&mut patch_us));
}

/// Trajectory skeletons a shot gradient patches: one per program of every
/// derivative multiset.
pub fn trajectories_per_gradient(skeletons: &[Arc<CompiledSkeleton>]) -> usize {
    skeletons.iter().map(|s| s.trajectories().len()).sum()
}

fn first_derivative(engine: &GradientEngine) -> &Differentiated {
    engine
        .parameters()
        .next()
        .and_then(|p| engine.differentiated(p))
        .expect("the workload program has parameters")
}

/// The first measurement a program makes, as the simulator builds it.
fn first_measurement(program: &Stmt, reg: &Register) -> Option<Measurement> {
    let mut found = None;
    program.visit(&mut |s| {
        if let (None, Stmt::Case { qs, .. }) = (&found, s) {
            found = Some(Measurement::computational(reg.indices_of(qs)));
        }
    });
    found
}

/// The metric name of a kernel dispatch class.
fn kernel_metric(class: &str) -> &'static str {
    match class {
        "dense1q" => "sim.kernel.dense1q.ns_per_amp",
        "diag1q" => "sim.kernel.diag1q.ns_per_amp",
        _ => "sim.kernel.cnot.ns_per_amp",
    }
}

/// What a workload's probe measured at one thread setting, for the
/// ratios every traced run reports.
pub struct Probed {
    /// One pass of the kernel replay, ns.
    pub kernel_pass_ns: f64,
    /// The summed sweep replay, ns; `None` where the workload runs no
    /// branch-weighted sweep.
    pub sweep_ns: Option<f64>,
    /// Median wall time of the engine's gradient call, ns.
    pub gradient_ns: f64,
    /// Spans the benchmark records per op.
    pub spans_per_op: f64,
    /// Median wall time of one op, ns.
    pub op_ns: f64,
}

/// A traced run: one cold set-up (its cache misses are
/// `core.cache.lowers`), the workload's exact counts from `statics`, its
/// `probe` at 1 thread and at nproc threads, then the ratios, cache hit
/// ratio and failure share every workload reports, and the layer table.
pub fn traced<W>(
    workload: &str,
    out: &mut Outcome,
    setup: impl FnMut() -> W,
    statics: impl FnOnce(&W, &mut Outcome, &mut LayerValues),
    mut probe: impl FnMut(&mut W, At, &mut Outcome, &mut LayerValues) -> Probed,
) {
    let nproc = host::nproc();
    let mut lv = LayerValues::default();
    let before = ProgramCache::global().counters();
    let mut w = cold_setups(1, setup).1;
    let after_setup = ProgramCache::global().counters();
    lv.once(
        "core.cache.lowers",
        (after_setup.misses - before.misses) as f64,
    );
    statics(&w, out, &mut lv);
    let [one, many] = [(At::One, 1), (At::N, nproc)]
        .map(|(at, threads)| with_threads(threads, || probe(&mut w, at, out, &mut lv)));
    lv.once(
        "par.speedup_x.kernel",
        one.kernel_pass_ns / many.kernel_pass_ns,
    );
    if let (Some(a), Some(b)) = (one.sweep_ns, many.sweep_ns) {
        lv.once("par.speedup_x.sweep", a / b);
    }
    lv.once("par.speedup_x.gradient", one.gradient_ns / many.gradient_ns);
    lv.once(
        "bench.trace_overhead_frac",
        span_cost_ns() * many.spans_per_op / many.op_ns,
    );
    let end = ProgramCache::global().counters();
    let (hits, misses) = (end.hits - before.hits, end.misses - before.misses);
    lv.once(
        "core.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    lv.once("failed_frac", out.failed as f64 / out.attempted as f64);
    out.metrics = lv.report(workload, nproc);
}
