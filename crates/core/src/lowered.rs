//! Lowered (pre-resolved) execution of compiled derivative programs.
//!
//! [`crate::Differentiated`] evaluates the same compiled multiset `{P′i}` at
//! every gradient step; interpreting the AST each time re-resolves variable
//! names against the register, re-allocates measurement operators, and
//! re-unfolds bounded loops — all parameter-independent work. This module
//! hoists it: each program is lowered **once** into a flat op list with
//!
//! * qubit indices resolved (no per-gate register lookups or `Vec` allocs),
//! * parameter names interned into **slots** (one valuation lookup per
//!   parameter per run instead of one per gate),
//! * measurement operators and the `q := |0⟩` Kraus pair pre-built,
//! * bounded `while` loops statically unfolded into nested cases.
//!
//! The executor mirrors `qdp_lang::denot::run_pure_branches` exactly —
//! branch order, pruning threshold, and per-gate arithmetic are identical,
//! so results agree bit-for-bit with the AST interpreter.
//!
//! # Batched evaluation
//!
//! Evaluating the same multiset against **many** input states (a training
//! dataset, parallel shot batches) repeats yet more parameter-independent
//! work: every gate matrix `Rσ(θ)` depends only on the valuation, not the
//! state. Lowering therefore also builds, once per set, a **gate table**
//! recipe — one entry per distinct (gate, parameter, offset) — and one
//! [`qdp_sim::TrajProgram`] **template** per program ([`TrajSkeleton`]):
//! constant matrices and measurements final, every parameterised gate a
//! table gate naming its entry. [`LoweredSet::expectation_batch`] builds
//! the valuation's table once (each distinct matrix a single time) and
//! fans the `batch × programs` tile grid out through `qdp_par`.
//! Straight-line programs fuse commuting rotations and stream the whole
//! batch per operator; branching programs run the **branch-weighted exact
//! sweep** ([`qdp_sim::ShotEngine::try_expectation_sweep_with`]) over
//! their interned template in place — all rows measured at once, the
//! block forked into outcome-homogeneous sub-batches carrying branch
//! weights, leaf read-outs summed per row. Nothing is resolved, converted
//! or cloned per program per batch; a batched gradient shares one table
//! across the multisets of all its parameters. Tiles are reduced per row
//! in multiset order, so results are bit-for-bit independent of the
//! thread count and equal to the retained per-valuation path
//! ([`LoweredProgram::resolve`], then [`ResolvedProgram::expectation_batch`]
//! — which converts branching programs with
//! [`ResolvedProgram::to_trajectory`]); against the per-row oracle
//! ([`ResolvedProgram::expectation_pure`]) they agree to numerical
//! precision (≪ 1e-12 — fusion and leaf-summation order move rounding,
//! nothing else).
//!
//! # Shared-prefix evaluation
//!
//! A single-state exact gradient evaluates the multisets of **every**
//! parameter on one input. Their programs are the forward program with one
//! gate swapped for a gadget, so [`SharedPrefix`] walks their common gate
//! prefix once and runs only each program's suffix — bit for bit the
//! per-program oracle's results ([`LoweredProgram::expectation_pure`]),
//! with far fewer gate passes.

use qdp_lang::ast::{Gate, Params, Stmt};
use qdp_lang::Register;
use qdp_linalg::Matrix;
use qdp_sim::{
    BatchedStates, GateTable, Measurement, Observable, ShotEngine, StateVector, TrajProgram,
};
use std::sync::{Arc, Mutex, PoisonError};

use crate::exec::TILE_RETRIES;

/// Branches below this squared norm are pruned (matches `denot` and the
/// branch-weighted batched executor).
const PRUNE: f64 = qdp_sim::BRANCH_PRUNE;

thread_local! {
    static LOWER_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static TRAJECTORY_CONVERSIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times [`LoweredSet::lower`] has run **on this thread** — the
/// probe behind the compile-once contract. `qdp_ad::ProgramCache` interning
/// lowers on the calling thread (inside its `OnceLock` initializer), so a
/// test thread's delta across a region counts exactly the compilations that
/// region triggered, race-free under the parallel test harness.
pub fn lower_invocations() -> usize {
    LOWER_CALLS.with(std::cell::Cell::get)
}

/// How many [`qdp_sim::TrajProgram`]s [`ResolvedProgram::to_trajectory`]
/// and [`TrajSkeleton::at`] have built **on this thread** — the probe
/// behind "exact sweeps run the interned templates in place". Like
/// [`lower_invocations`], it counts the calling thread only: run under one
/// `qdp_par` thread to count a whole call.
pub fn trajectory_conversions() -> usize {
    TRAJECTORY_CONVERSIONS.with(std::cell::Cell::get)
}

fn count_conversion() {
    TRAJECTORY_CONVERSIONS.with(|c| c.set(c.get() + 1));
}

/// Where a lowered gate's matrix comes from.
#[derive(Clone, Debug)]
enum Source {
    /// The matrix, pre-built at lowering time, of a gate whose angle
    /// carries no parameter: constant rotations, the Hadamards and
    /// controlled shifts of the differentiation gadget, every Clifford.
    Fixed(Matrix),
    /// A parameterised gate: its angle is the value of slot `slot` plus
    /// `offset` (the gadget's `θ + π` shifts), and its matrix is entry
    /// `entry` of the set's gate table, built once per valuation.
    Param {
        slot: usize,
        offset: f64,
        entry: usize,
    },
}

/// One distinct parameterised gate of a [`LoweredSet`]: the recipe of one
/// gate-table entry. Gates equal in kind, parameter and offset bits share
/// an entry.
#[derive(Clone, Debug)]
pub(crate) struct GateRecipe {
    pub(crate) gate: Gate,
    pub(crate) slot: usize,
    pub(crate) offset: f64,
}

impl GateRecipe {
    /// Whether an occurrence of `gate` at angle offset `offset` reads this
    /// entry: the same gate (which names the parameter) and offset bits.
    pub(crate) fn is(&self, gate: &Gate, offset: f64) -> bool {
        self.gate == *gate && self.offset.to_bits() == offset.to_bits()
    }
}

/// One lowered operation.
#[derive(Clone, Debug)]
enum Op {
    /// `abort`: drop the branch.
    Abort,
    /// A unitary application with pre-resolved targets.
    Gate {
        gate: Gate,
        targets: Vec<usize>,
        source: Source,
    },
    /// `q := |0⟩` with the Kraus pair pre-built.
    Init {
        k0: Matrix,
        k1: Matrix,
        target: usize,
    },
    /// A measurement case over pre-built operators.
    Case {
        meas: Measurement,
        arms: Vec<LoweredProgram>,
    },
}

/// A lowered normal program: a flat sequence of [`Op`]s.
#[derive(Clone, Debug, Default)]
pub struct LoweredProgram {
    ops: Vec<Op>,
}

/// A compiled multiset lowered against one register, with a shared
/// parameter-slot table, a shared gate table and one trajectory template
/// per program.
#[derive(Clone, Debug, Default)]
pub struct LoweredSet {
    programs: Vec<LoweredProgram>,
    /// Interned parameter names; slot `i` of a run valuation holds the value
    /// of `param_names[i]`.
    param_names: Vec<String>,
    /// The distinct parameterised gates of every program, in first-use
    /// order: entry `e` of a valuation's gate table is `recipes[e]`'s
    /// matrix.
    recipes: Arc<[GateRecipe]>,
    /// One template per program, in multiset order.
    templates: Vec<TrajSkeleton>,
    /// Size of the register the set was lowered against — input states
    /// must match it.
    n_qubits: usize,
}

impl LoweredSet {
    /// Lowers every program of a compiled multiset.
    ///
    /// # Panics
    ///
    /// Panics when a program is additive or uses a variable outside `reg`.
    pub fn lower(compiled: &[Stmt], reg: &Register) -> Self {
        LOWER_CALLS.with(|c| c.set(c.get() + 1));
        let mut lowering = Lowering {
            reg,
            names: Vec::new(),
            recipes: Vec::new(),
        };
        let programs: Vec<LoweredProgram> = compiled
            .iter()
            .map(|p| {
                let mut prog = LoweredProgram::default();
                lowering.lower(p, &mut prog.ops);
                prog
            })
            .collect();
        let recipes: Arc<[GateRecipe]> = lowering.recipes.into();
        let templates = programs
            .iter()
            .map(|p| TrajSkeleton::new(p, &recipes))
            .collect();
        LoweredSet {
            programs,
            param_names: lowering.names,
            recipes,
            templates,
            n_qubits: reg.len(),
        }
    }

    /// The interned parameter names, in slot order.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Resolves a valuation into slot values.
    ///
    /// # Panics
    ///
    /// Panics when a used parameter has no value (same message as
    /// `Angle::eval`).
    pub fn slot_values(&self, params: &Params) -> Vec<f64> {
        self.param_names
            .iter()
            .map(|name| {
                params
                    .get(name)
                    .unwrap_or_else(|| panic!("parameter '{name}' has no value"))
            })
            .collect()
    }

    /// The lowered programs, for per-program parallel evaluation.
    pub fn programs(&self) -> &[LoweredProgram] {
        &self.programs
    }

    /// One trajectory template per program, in multiset order.
    pub fn trajectories(&self) -> &[TrajSkeleton] {
        &self.templates
    }

    /// The distinct parameterised gates, in gate-table order.
    pub(crate) fn recipes(&self) -> &[GateRecipe] {
        &self.recipes
    }

    /// The gate table of a valuation: each distinct parameterised gate's
    /// matrix, built once, in entry order — what the templates and the
    /// straight-line path read.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the slot table.
    pub fn gate_table(&self, values: &[f64]) -> Vec<Matrix> {
        gate_table(&self.recipes, values)
    }

    /// Evaluates the whole multiset against **every** row of a batch in one
    /// pass: returns `out[r] = Σᵢ ⟨ψ·|O|ψ·⟩` over the branches of program
    /// `i` run on input row `r`.
    ///
    /// The valuation's gate table ([`gate_table`](Self::gate_table)) is
    /// built **once** — each distinct parameterised matrix a single time,
    /// shared by every program, row and branch — and the work is split
    /// across `qdp_par` workers one program at a time: straight-line
    /// programs stream every fused operator over the whole batch block in
    /// one kernel call each, and branching programs run the
    /// branch-weighted exact sweep over their interned trajectory template
    /// in place, reading constant matrices from the template and
    /// parameterised ones from the table. Nothing is resolved, converted
    /// or cloned per program. Per-row sums run in multiset order over the
    /// order-preserving fan-out, so the result is bit-for-bit
    /// deterministic under any thread count, and equals summing
    /// [`ResolvedProgram::expectation_batch`] over the programs bit for
    /// bit; it agrees with the per-sample serial loop to numerical
    /// precision (≪ 1e-12 — fusion and branch-weighted leaf summation
    /// reorder rounding, nothing else).
    ///
    /// # Panics
    ///
    /// Panics when the batch register does not match the register the set
    /// was lowered against, or when `values` is shorter than the slot table.
    pub fn expectation_batch(
        &self,
        values: &[f64],
        states: &BatchedStates,
        obs: &Observable,
    ) -> Vec<f64> {
        let table = self.gate_table(values);
        self.expectation_batch_with(GateTable::new(&table), states, obs)
    }

    /// [`expectation_batch`](Self::expectation_batch) with the gate table
    /// already built — how a gradient shares one table across the
    /// multisets of all its parameters (a remapped [`GateTable`]).
    pub(crate) fn expectation_batch_with(
        &self,
        table: GateTable<'_>,
        states: &BatchedStates,
        obs: &Observable,
    ) -> Vec<f64> {
        let rows = states.len();
        if rows == 0 || self.programs.is_empty() {
            // An empty multiset denotes the zero map: every row reads 0.
            return vec![0.0; rows];
        }
        assert_eq!(
            states.num_qubits(),
            self.n_qubits,
            "batch register size must match the register the set was lowered against"
        );
        let programs: Vec<(&LoweredProgram, &TrajSkeleton)> =
            self.programs.iter().zip(&self.templates).collect();
        // Pure per program, so a panicked worker tile retries
        // bit-identically before the failure is surfaced.
        let per_program: Vec<Vec<f64>> = qdp_par::try_par_map_retry(
            &programs,
            |(program, template)| {
                if program.straight_line() {
                    fused_expectations(program.gates(table), states, obs)
                } else {
                    template
                        .engine
                        .try_expectation_sweep_with(table, states, obs)
                        .unwrap_or_else(|e| panic!("{e}"))
                }
            },
            TILE_RETRIES,
        )
        .unwrap_or_else(|e| panic!("{}", qdp_sim::QdpError::from(e)));
        (0..rows)
            .map(|r| per_program.iter().map(|per_row| per_row[r]).sum())
            .collect()
    }
}

/// Each recipe's matrix under `values` (indexed by the recipes' slots), in
/// entry order — the arithmetic [`LoweredProgram::resolve`] performs for
/// every occurrence.
pub(crate) fn gate_table(recipes: &[GateRecipe], values: &[f64]) -> Vec<Matrix> {
    recipes
        .iter()
        .map(|r| r.gate.matrix_at(values[r.slot] + r.offset))
        .collect()
}

/// The lowering state of one set: the register, and the slot and gate
/// tables every program of the set shares.
struct Lowering<'r> {
    reg: &'r Register,
    names: Vec<String>,
    recipes: Vec<GateRecipe>,
}

fn intern(names: &mut Vec<String>, name: &str) -> usize {
    match names.iter().position(|n| n == name) {
        Some(i) => i,
        None => {
            names.push(name.to_string());
            names.len() - 1
        }
    }
}

impl Lowering<'_> {
    /// The gate-table entry of a parameterised gate, added on first use.
    fn entry(&mut self, gate: &Gate, slot: usize, offset: f64) -> usize {
        match self.recipes.iter().position(|r| r.is(gate, offset)) {
            Some(e) => e,
            None => {
                self.recipes.push(GateRecipe {
                    gate: gate.clone(),
                    slot,
                    offset,
                });
                self.recipes.len() - 1
            }
        }
    }

    fn lower(&mut self, stmt: &Stmt, out: &mut Vec<Op>) {
        let reg = self.reg;
        match stmt {
            Stmt::Skip { .. } => {}
            Stmt::Abort { .. } => out.push(Op::Abort),
            Stmt::Init { q } => out.push(Op::Init {
                k0: Matrix::from_real_rows(&[&[1.0, 0.0], &[0.0, 0.0]]),
                k1: Matrix::from_real_rows(&[&[0.0, 1.0], &[0.0, 0.0]]),
                target: reg.indices_of(std::slice::from_ref(q))[0],
            }),
            Stmt::Unitary { gate, qs } => {
                let (param, offset) = match gate.angle() {
                    Some(angle) => (angle.param.as_deref(), angle.offset),
                    None => (None, 0.0),
                };
                // Parameter-independent matrices are built here, once per
                // lowering, and shared by every subsequent valuation.
                let source = match param {
                    None => Source::Fixed(gate.matrix_at(offset)),
                    Some(p) => {
                        let slot = intern(&mut self.names, p);
                        Source::Param {
                            slot,
                            offset,
                            entry: self.entry(gate, slot, offset),
                        }
                    }
                };
                out.push(Op::Gate {
                    gate: gate.clone(),
                    targets: reg.indices_of(qs),
                    source,
                });
            }
            Stmt::Seq(a, b) => {
                self.lower(a, out);
                self.lower(b, out);
            }
            Stmt::Case { qs, arms } => {
                let meas = Measurement::computational(reg.indices_of(qs));
                let arms = arms
                    .iter()
                    .map(|arm| {
                        let mut prog = LoweredProgram::default();
                        self.lower(arm, &mut prog.ops);
                        prog
                    })
                    .collect();
                out.push(Op::Case { meas, arms });
            }
            Stmt::While { .. } => {
                // Bounded loops terminate statically: each unfold decrements
                // the bound, so full unrolling at lowering time is finite.
                self.lower(&stmt.unfold_while_once(), out);
            }
            Stmt::Sum(..) => panic!("lowering is defined on normal programs; compile first"),
        }
    }
}

impl LoweredProgram {
    /// Total lowered operations, counting nested measurement arms — the
    /// cost weight `qdp_ad::ProgramCache` charges for keeping this
    /// program's share of a skeleton resident.
    pub fn op_weight(&self) -> usize {
        fn count(ops: &[Op]) -> usize {
            ops.iter()
                .map(|op| match op {
                    Op::Case { arms, .. } => {
                        1 + arms.iter().map(|a| count(&a.ops)).sum::<usize>()
                    }
                    _ => 1,
                })
                .sum()
        }
        count(&self.ops)
    }

    /// `Σ_branches ⟨ψb|O|ψb⟩` — the expectation of the program's output.
    ///
    /// Substitutes the valuation and delegates to the **single** per-row
    /// branch enumerator, [`ResolvedProgram::expectation_pure`] (the
    /// resolved matrices carry the identical bits `Gate::matrix_at`
    /// produces, so this equals the pre-resolution executor bit for bit —
    /// there is no second enumeration copy to drift from it).
    pub fn expectation_pure(&self, values: &[f64], psi: &StateVector, obs: &Observable) -> f64 {
        self.resolve(values).expectation_pure(psi, obs)
    }

    /// Substitutes the slot values into the op list: every gate matrix is
    /// built exactly once, so a [`ResolvedProgram`] can be replayed against
    /// arbitrarily many input states with zero trigonometry and zero matrix
    /// allocation per run.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the program's slot table.
    pub fn resolve(&self, values: &[f64]) -> ResolvedProgram<'_> {
        ResolvedProgram {
            ops: self
                .ops
                .iter()
                .map(|op| match op {
                    Op::Abort => ResolvedOp::Abort,
                    Op::Gate {
                        gate,
                        targets,
                        source,
                    } => match source {
                        // Constant-angle gates borrow the matrix built at
                        // lowering time — zero trigonometry, zero allocation
                        // per valuation.
                        Source::Fixed(matrix) => ResolvedOp::FixedGate { matrix, targets },
                        Source::Param { slot, offset, .. } => ResolvedOp::Gate {
                            matrix: gate.matrix_at(values[*slot] + offset),
                            targets,
                        },
                    },
                    Op::Init { k0, k1, target } => ResolvedOp::Init {
                        k0,
                        k1,
                        target: *target,
                    },
                    Op::Case { meas, arms } => ResolvedOp::Case {
                        meas,
                        arms: arms.iter().map(|arm| arm.resolve(values)).collect(),
                    },
                })
                .collect(),
        }
    }
}

impl LoweredProgram {
    /// Whether the program is gates only — one branch per input row.
    fn straight_line(&self) -> bool {
        self.ops.iter().all(|op| matches!(op, Op::Gate { .. }))
    }

    /// The matrix and targets of every op of a straight-line program,
    /// parameterised gates reading `table`.
    fn gates<'a>(
        &'a self,
        table: GateTable<'a>,
    ) -> impl Iterator<Item = (&'a Matrix, &'a [usize])> {
        self.ops.iter().map(move |op| match op {
            Op::Gate {
                targets, source, ..
            } => {
                let matrix = match source {
                    Source::Fixed(m) => m,
                    Source::Param { entry, .. } => table.get(*entry),
                };
                (matrix, &targets[..])
            }
            _ => unreachable!("straight-line programs contain only gates"),
        })
    }
}

/// A program's [`qdp_sim::TrajProgram`] **template** — the per-program
/// artifact of the compile-once pipeline. Every constant matrix,
/// measurement and arm structure is final; each parameterised gate is a
/// table gate naming its entry of the set's gate table
/// ([`LoweredSet::gate_table`]).
///
/// The exact batched path sweeps the template in place
/// ([`ShotEngine::try_expectation_sweep_with`]) with the valuation's
/// table: nothing is cloned or converted per valuation. [`at`](Self::at)
/// materialises a standalone program for the sampled executors.
///
/// `skeleton.at(&values)` is bit-identical to
/// `program.resolve(&values).to_trajectory()`: both routes build every
/// matrix through the same `Gate::matrix_at` at the same angle, and the op
/// order is the same tree walk.
#[derive(Clone, Debug)]
pub struct TrajSkeleton {
    /// The template, wrapped once for sweeping.
    engine: ShotEngine,
    /// The set's gate-table recipes, for [`at`](Self::at).
    recipes: Arc<[GateRecipe]>,
    /// Parameterised gate ops in the template.
    patches: usize,
}

impl TrajSkeleton {
    fn new(program: &LoweredProgram, recipes: &Arc<[GateRecipe]>) -> Self {
        let mut patches = 0;
        let template = template_of(&program.ops, &mut patches);
        TrajSkeleton {
            engine: ShotEngine::new(template),
            recipes: Arc::clone(recipes),
            patches,
        }
    }

    /// Substitutes a valuation: the template with every table gate bound
    /// to its matrix under `values`.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the program's slot table.
    pub fn at(&self, values: &[f64]) -> TrajProgram {
        count_conversion();
        let table = gate_table(&self.recipes, values);
        self.template().bound(GateTable::new(&table))
    }

    /// The template: constant matrices built, parameterised gates reading
    /// the set's gate table.
    pub fn template(&self) -> &TrajProgram {
        self.engine.program()
    }

    /// How many parameterised gate ops the template holds — the matrices
    /// a valuation substitutes.
    pub fn patch_count(&self) -> usize {
        self.patches
    }
}

/// The template of a lowered op list, counting its parameterised gates.
fn template_of(ops: &[Op], patches: &mut usize) -> TrajProgram {
    let mut out = TrajProgram::new();
    // Ops map 1:1 onto trajectory ops (`Skip` vanished at lowering time).
    for op in ops {
        match op {
            Op::Abort => out.push_abort(),
            Op::Gate {
                targets, source, ..
            } => match source {
                Source::Fixed(m) => out.push_gate(m.clone(), targets.clone()),
                Source::Param { entry, .. } => {
                    *patches += 1;
                    out.push_table_gate(*entry, targets.clone());
                }
            },
            Op::Init { target, .. } => out.push_init(*target),
            Op::Case { meas, arms } => {
                let arms = arms
                    .iter()
                    .map(|arm| template_of(&arm.ops, patches))
                    .collect();
                out.push_case(meas.clone(), arms);
            }
        }
    }
    out
}

/// One op of a [`ResolvedProgram`]: like [`Op`] but with the gate matrix
/// already built for a fixed valuation.
#[derive(Clone, Debug)]
enum ResolvedOp<'p> {
    /// `abort`: drop the branch.
    Abort,
    /// A parameterized unitary with its matrix built for this valuation.
    Gate {
        matrix: Matrix,
        targets: &'p [usize],
    },
    /// A constant unitary borrowing the matrix hoisted at lowering time.
    FixedGate {
        matrix: &'p Matrix,
        targets: &'p [usize],
    },
    /// `q := |0⟩`, borrowing the pre-built Kraus pair.
    Init {
        k0: &'p Matrix,
        k1: &'p Matrix,
        target: usize,
    },
    /// A measurement case over pre-built operators and resolved arms.
    Case {
        meas: &'p Measurement,
        arms: Vec<ResolvedProgram<'p>>,
    },
}

/// A [`LoweredProgram`] with a valuation substituted in (see
/// [`LoweredProgram::resolve`]) — the replay artifact of batched
/// evaluation. The executor mirrors [`LoweredProgram::run_from`] op for op:
/// gate matrices carry the identical bits `Gate::matrix_at` produces, so
/// replayed results equal the unresolved executor's bit-for-bit.
#[derive(Clone, Debug)]
pub struct ResolvedProgram<'p> {
    ops: Vec<ResolvedOp<'p>>,
}

impl ResolvedProgram<'_> {
    /// Runs the program from op `start`, appending surviving unnormalised
    /// branches to `out` in the same depth-first order as
    /// `denot::run_pure_branches`.
    ///
    /// This is the **retained per-row branch-enumeration oracle**: the
    /// production batched path runs the branch-weighted sweep on the
    /// trajectory templates instead, and the randomized differential suite
    /// (`crates/core/tests/branch_weighted_differential.rs`) pins the two
    /// against each other at 1e-12.
    fn run_from(&self, start: usize, mut psi: StateVector, out: &mut Vec<StateVector>) {
        for (i, op) in self.ops.iter().enumerate().skip(start) {
            match op {
                ResolvedOp::Abort => return,
                ResolvedOp::Gate { matrix, targets } => {
                    psi.apply_gate(matrix, targets);
                }
                ResolvedOp::FixedGate { matrix, targets } => {
                    psi.apply_gate(matrix, targets);
                }
                ResolvedOp::Init { k0, k1, target } => {
                    let b1 = psi.with_gate(k1, &[*target]);
                    psi.apply_gate(k0, &[*target]);
                    if psi.norm_sqr() > PRUNE {
                        self.run_from(i + 1, psi, out);
                    }
                    if b1.norm_sqr() > PRUNE {
                        self.run_from(i + 1, b1, out);
                    }
                    return;
                }
                ResolvedOp::Case { meas, arms } => {
                    for b in meas.branches_pure(&psi) {
                        if b.probability > PRUNE {
                            let mut mids = Vec::new();
                            arms[b.outcome].run_from(0, b.state, &mut mids);
                            for mid in mids {
                                self.run_from(i + 1, mid, out);
                            }
                        }
                    }
                    return;
                }
            }
        }
        out.push(psi);
    }

    /// `Σ_branches ⟨ψb|O|ψb⟩` — the expectation of the program's output on
    /// one input state, by per-row branch enumeration (the retained
    /// oracle; see [`run_from`](Self::run_from)).
    pub fn expectation_pure(&self, psi: &StateVector, obs: &Observable) -> f64 {
        self.expectation_from(0, psi.clone(), obs)
    }

    /// [`expectation_pure`](Self::expectation_pure) of the program's ops
    /// from `start` on, with `psi` the state before op `start`.
    fn expectation_from(&self, start: usize, psi: StateVector, obs: &Observable) -> f64 {
        let mut branches = Vec::new();
        self.run_from(start, psi, &mut branches);
        branches.iter().map(|b| obs.expectation_pure(b)).sum()
    }

    /// Converts into an owned [`qdp_sim::TrajProgram`] — the **single
    /// lowered branching IR** both execution modes run: sampled trajectory
    /// sweeps ([`ShotEngine::run`]/[`ShotEngine::sample_sweep`]) and the
    /// branch-weighted exact sweep ([`ShotEngine::expectation_sweep`]).
    /// Every gate matrix and measurement is carried over as-is. Production
    /// sweeps run the interned templates in place ([`TrajSkeleton`]); this
    /// conversion is their bitwise oracle, counted by
    /// [`trajectory_conversions`].
    ///
    /// The only representational change is `q := |0⟩`: the per-row oracle
    /// enumerates both Kraus branches, while the trajectory form measures
    /// the qubit and flips on outcome 1 (`TrajProgram::push_init`) —
    /// exactly what `qdp_ad::estimator::sample_trajectory` does, so engine
    /// trajectories driven by the same streams match it bit for bit (and
    /// the exact sweep's branches agree with the Kraus pair to numerical
    /// precision).
    pub fn to_trajectory(&self) -> TrajProgram {
        count_conversion();
        self.trajectory()
    }

    /// [`to_trajectory`](Self::to_trajectory) without the probe count.
    fn trajectory(&self) -> TrajProgram {
        let mut out = TrajProgram::new();
        for op in &self.ops {
            match op {
                ResolvedOp::Abort => out.push_abort(),
                ResolvedOp::Gate { matrix, targets } => {
                    out.push_gate(matrix.clone(), targets.to_vec());
                }
                ResolvedOp::FixedGate { matrix, targets } => {
                    out.push_gate((*matrix).clone(), targets.to_vec());
                }
                ResolvedOp::Init { target, .. } => out.push_init(*target),
                ResolvedOp::Case { meas, arms } => out.push_case(
                    (*meas).clone(),
                    arms.iter().map(ResolvedProgram::trajectory).collect(),
                ),
            }
        }
        out
    }

    /// The expectation of the program's output on **every** row of a batch,
    /// in row order.
    ///
    /// Straight-line programs (gates only — every compiled derivative of a
    /// control-free circuit, and the hot path of training) have exactly one
    /// branch per row, so the whole batch is evolved together, with two
    /// amortisations on top of the shared gate matrices:
    ///
    /// * **fusion** — single-qubit gates on *distinct* qubits commute, so
    ///   each qubit accumulates the 2×2 product of its pending rotations
    ///   and is flushed only when a multi-qubit gate touches it (or at the
    ///   end). A 25-gate derivative program collapses to a handful of
    ///   kernel sweeps;
    /// * **streaming** — each surviving operator goes through **one**
    ///   [`BatchedStates::apply_gate`] call that evolves all rows at once.
    ///
    /// Programs with `Init`/`Case`/`Abort` branch points — the
    /// measurement-controlled programs the code transformation produces —
    /// convert to the trajectory IR ([`to_trajectory`](Self::to_trajectory))
    /// and run the **branch-weighted exact sweep**
    /// ([`ShotEngine::expectation_sweep`]): all rows measured at once,
    /// the block forked into outcome-homogeneous weighted sub-batches that
    /// keep streaming batched (fused) kernel calls, leaf read-outs summed
    /// per row. Both paths share one IR with sampled execution; neither
    /// decays to per-row evaluation. This is the retained per-valuation
    /// oracle of [`LoweredSet::expectation_batch`], which runs the same
    /// arithmetic on the interned templates.
    ///
    /// Fusion and leaf-summation order reorder rounding, so batched
    /// results agree with the per-row oracle
    /// ([`expectation_pure`](Self::expectation_pure)) to numerical
    /// precision (≪ 1e-12) rather than bit-for-bit; the batched path
    /// itself is fully deterministic — identical bits for any thread
    /// count and any batch decomposition.
    pub fn expectation_batch(&self, states: &BatchedStates, obs: &Observable) -> Vec<f64> {
        let straight_line = self
            .ops
            .iter()
            .all(|op| matches!(op, ResolvedOp::Gate { .. } | ResolvedOp::FixedGate { .. }));
        if !straight_line {
            return ShotEngine::new(self.to_trajectory()).expectation_sweep(states.clone(), obs);
        }
        let gates = self.ops.iter().map(|op| match op {
            ResolvedOp::Gate { matrix, targets } => (matrix, *targets),
            ResolvedOp::FixedGate { matrix, targets } => (*matrix, *targets),
            _ => unreachable!("straight-line programs contain only gates"),
        });
        fused_expectations(gates, states, obs)
    }
}

/// The expectation on every row of a batch of a straight-line program
/// given as its gates in program order: single-qubit gates fuse per qubit,
/// and each surviving operator streams over the whole batch in one kernel
/// call (see [`ResolvedProgram::expectation_batch`]).
fn fused_expectations<'m>(
    gates: impl Iterator<Item = (&'m Matrix, &'m [usize])>,
    states: &BatchedStates,
    obs: &Observable,
) -> Vec<f64> {
    let n = states.num_qubits();
    let mut work = states.clone();
    // Per-qubit pending product of not-yet-applied single-qubit gates;
    // `pending[q] = g_k · … · g_1` in program order.
    let mut pending: Vec<Option<Matrix>> = vec![None; n];
    for (matrix, targets) in gates {
        if let [t] = targets[..] {
            pending[t] = Some(match pending[t].take() {
                None => matrix.clone(),
                Some(prev) => matrix.mul(&prev),
            });
        } else {
            // A multi-qubit gate orders against the pending rotations of
            // its own targets: flush those (ascending qubit order,
            // deterministically), then apply the gate itself. Keeping the
            // flushes as separate 1q passes preserves the gate's own
            // kernel fast path (the gadget's controlled rotations are
            // block-diagonal; absorbing the flushed products into the 4×4
            // would densify it and cost more than it saves).
            let mut ts: Vec<usize> = targets.to_vec();
            ts.sort_unstable();
            for t in ts {
                if let Some(m) = pending[t].take() {
                    work.apply_gate(&m, &[t]);
                }
            }
            work.apply_gate(matrix, targets);
        }
    }
    for (t, slot) in pending.iter_mut().enumerate() {
        if let Some(m) = slot.take() {
            work.apply_gate(&m, &[t]);
        }
    }
    work.expectations(obs)
}

/// Applies a unitary op of a resolved gate prefix.
fn apply_unitary(op: &ResolvedOp<'_>, psi: &mut StateVector) {
    match op {
        ResolvedOp::Gate { matrix, targets } => psi.apply_gate(matrix, targets),
        ResolvedOp::FixedGate { matrix, targets } => psi.apply_gate(matrix, targets),
        _ => unreachable!("gate prefixes hold only unitaries"),
    }
}

/// Whether two lowered ops are the same unitary under any valuation: the
/// same gate (kind, axis, parameter name and offset, which also fixes the
/// canonical parameter) with bit-identical offsets, or bit-identical fixed
/// matrices, on the same targets. Same ops apply the same bits.
fn same_unitary(a: &Op, b: &Op) -> bool {
    let (
        Op::Gate {
            gate: ga,
            targets: ta,
            source: sa,
        },
        Op::Gate {
            gate: gb,
            targets: tb,
            source: sb,
        },
    ) = (a, b)
    else {
        return false;
    };
    ta == tb
        && match (sa, sb) {
            (Source::Fixed(ma), Source::Fixed(mb)) => same_bits(ma, mb),
            (Source::Param { offset: oa, .. }, Source::Param { offset: ob, .. }) => {
                ga == gb && oa.to_bits() == ob.to_bits()
            }
            _ => false,
        }
}

/// Whether two matrices hold the same entries, bit for bit.
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    let (a, b) = (a.as_slice(), b.as_slice());
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// One program of a [`SharedPrefix`] plan and where it leaves the spine.
#[derive(Clone, Copy, Debug)]
struct Branch {
    /// The program's multiset: an index into the plan's sets.
    set: usize,
    /// The program's index in its multiset.
    program: usize,
    /// Spine depth at which the program leaves the spine: its ops
    /// `0..at` are spine ops `0..at`.
    at: usize,
    /// End of the program's gate prefix — the index of its first
    /// `Init`/`Case`/`Abort`, or its op count.
    end: usize,
}

/// Shared-prefix execution of several lowered multisets on one input
/// state — the single-state exact gradient.
///
/// By the Sequence rule `∂(S1;S2) = (S1; ∂S2) + (∂S1; S2)` every compiled
/// derivative program is the forward program with one gate swapped for its
/// gadget, so the programs of all parameters share long gate prefixes.
/// The plan is a trie over those prefixes whose one shared path, the
/// **spine**, runs once; each program hangs off the spine at its branch
/// point and runs only its suffix. Two programs share an op only when it is
/// the same lowered op ([`same_unitary`]), and sharing stops at a
/// program's first `Init`/`Case`/`Abort`, where the per-row branch
/// enumerator ([`ResolvedProgram::run_from`]) takes over at that op index.
/// Every program's state at every op is therefore the state the per-program
/// oracle ([`LoweredProgram::expectation_pure`]) reaches, bit for bit.
#[derive(Clone, Debug, Default)]
pub(crate) struct SharedPrefix {
    /// A program (set, index) whose first `spine_len` ops are the spine.
    spine: (usize, usize),
    spine_len: usize,
    /// Every program of every set, in branch-point order.
    branches: Vec<Branch>,
}

impl SharedPrefix {
    /// Builds the plan of `sets`.
    ///
    /// The spine follows, depth by depth, the largest group of programs
    /// that agree on the next op (the earliest group on ties) while two or
    /// more do; every other program branches off where it leaves.
    pub(crate) fn build(sets: &[&LoweredSet]) -> Self {
        let op = |b: &Branch, depth: usize| &sets[b.set].programs[b.program].ops[depth];
        let mut on: Vec<Branch> = sets
            .iter()
            .enumerate()
            .flat_map(|(set, s)| {
                s.programs
                    .iter()
                    .enumerate()
                    .map(move |(program, p)| Branch {
                        set,
                        program,
                        at: 0,
                        end: p
                            .ops
                            .iter()
                            .position(|op| !matches!(op, Op::Gate { .. }))
                            .unwrap_or(p.ops.len()),
                    })
            })
            .collect();
        let mut plan = SharedPrefix::default();
        let mut depth = 0;
        loop {
            let (ended, going): (Vec<Branch>, Vec<Branch>) =
                on.into_iter().partition(|b| b.end == depth);
            let mut groups: Vec<Vec<Branch>> = Vec::new();
            for b in going {
                match groups
                    .iter_mut()
                    .find(|g| same_unitary(op(&g[0], depth), op(&b, depth)))
                {
                    Some(g) => g.push(b),
                    None => groups.push(vec![b]),
                }
            }
            let stay = groups
                .iter()
                .enumerate()
                .rev()
                .max_by_key(|(_, g)| g.len())
                .filter(|(_, g)| g.len() >= 2)
                .map(|(i, _)| i);
            let next = stay.map(|i| groups.remove(i));
            plan.branches.extend(
                ended
                    .into_iter()
                    .chain(groups.into_iter().flatten())
                    .map(|b| Branch { at: depth, ..b }),
            );
            match next {
                Some(g) => {
                    plan.spine = (g[0].set, g[0].program);
                    on = g;
                    depth += 1;
                }
                None => break,
            }
        }
        plan.spine_len = depth;
        plan
    }

    /// Gate applications per evaluation on one thread: the spine once plus
    /// every program's gate suffix past its branch point — the trie's edge
    /// count. Gates past a program's first `Init`/`Case`/`Abort` run per
    /// measurement branch and are not counted.
    pub(crate) fn gate_passes(&self) -> usize {
        self.spine_len + self.branches.iter().map(|b| b.end - b.at).sum::<usize>()
    }

    /// Per set, `Σᵢ Σ_branches ⟨ψb|O|ψb⟩` over its programs run on `psi`,
    /// summed in multiset order — the bits of summing
    /// [`LoweredProgram::expectation_pure`] over the set. `values[k]` holds
    /// the slot values of `sets[k]`, which must be the sets the plan was
    /// built from.
    ///
    /// The calling thread walks the spine on `psi` itself. Programs run in
    /// waves of `qdp_par::max_threads()` tiles through
    /// `try_par_map_retry`: a tile copies the read-only spine state at the
    /// wave's first branch point into a reused branch buffer, replays the
    /// spine gates up to its own branch point, then runs its suffix.
    /// Tiles write only their buffer, so a retried tile is bit-identical.
    /// Live state is the spine plus one buffer per concurrently running
    /// tile; only a suffix that reaches an `Init`/`Case`/`Abort` hands a
    /// copy of its buffer to the branch enumerator.
    ///
    /// # Panics
    ///
    /// Panics with the [`qdp_sim::QdpError::WorkerPanic`] message, naming
    /// the program's position in branch-point order, when a tile still
    /// panics after the bounded retries.
    pub(crate) fn expectations(
        &self,
        sets: &[&LoweredSet],
        values: &[Vec<f64>],
        mut psi: StateVector,
        obs: &Observable,
    ) -> Vec<f64> {
        let (set, program) = self.spine;
        let spine = (self.spine_len > 0).then(|| sets[set].programs[program].resolve(&values[set]));
        let spine_ops = spine.as_ref().map_or(&[][..], |p| &p.ops[..self.spine_len]);
        // Idle branch buffers. The lock is held only for one `pop` or
        // `push`, which leave the pool valid, so a poisoned lock is safe
        // to recover.
        let buffers: Mutex<Vec<StateVector>> = Mutex::new(Vec::new());
        let mut per_program: Vec<Vec<f64>> =
            sets.iter().map(|s| vec![0.0; s.programs.len()]).collect();
        let wave = qdp_par::max_threads();
        let mut walked = 0;
        for (w, tiles) in self.branches.chunks(wave).enumerate() {
            let from = tiles[0].at;
            for op in &spine_ops[walked..from] {
                apply_unitary(op, &mut psi);
            }
            walked = from;
            let snapshot = &psi;
            let tiles: Vec<(usize, &Branch)> = tiles
                .iter()
                .enumerate()
                .map(|(k, b)| (w * wave + k, b))
                .collect();
            let got = qdp_par::try_par_map_retry(
                &tiles,
                |&(tile, b)| {
                    qdp_sim::fault::tile_checkpoint(tile);
                    let program = sets[b.set].programs[b.program].resolve(&values[b.set]);
                    let reused = buffers.lock().unwrap_or_else(PoisonError::into_inner).pop();
                    let mut buf = match reused {
                        Some(mut buf) => {
                            let (re, im) = snapshot.planes();
                            let (buf_re, buf_im) = buf.planes_mut();
                            buf_re.copy_from_slice(re);
                            buf_im.copy_from_slice(im);
                            buf
                        }
                        None => snapshot.clone(),
                    };
                    for op in spine_ops[from..b.at]
                        .iter()
                        .chain(&program.ops[b.at..b.end])
                    {
                        apply_unitary(op, &mut buf);
                    }
                    let value = if b.end == program.ops.len() {
                        // The one branch the enumerator would return.
                        std::iter::once(obs.expectation_pure(&buf)).sum()
                    } else {
                        program.expectation_from(b.end, buf.clone(), obs)
                    };
                    buffers
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(buf);
                    value
                },
                TILE_RETRIES,
            )
            .unwrap_or_else(|e| {
                let e = qdp_par::TileError {
                    index: w * wave + e.index,
                    ..e
                };
                panic!("{}", qdp_sim::QdpError::from(e))
            });
            for (&(_, b), v) in tiles.iter().zip(got) {
                per_program[b.set][b.program] = v;
            }
        }
        per_program
            .into_iter()
            .map(|v| v.into_iter().sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::{denot, parse_program};

    fn check_agreement(src: &str, values: &[(&str, f64)]) {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let params = Params::from_pairs(values.iter().map(|&(k, v)| (k, v)));
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let slots = set.slot_values(&params);
        let psi = StateVector::zero_state(reg.len());
        let obs = Observable::pauli_z(reg.len(), 0);

        let lowered = set.programs()[0].expectation_pure(&slots, &psi, &obs);
        let interpreted = denot::expectation_pure(&p, &reg, &params, &psi, &obs);
        assert_eq!(
            lowered.to_bits(),
            interpreted.to_bits(),
            "{src}: lowered {lowered} vs interpreted {interpreted}"
        );
    }

    #[test]
    fn straight_line_program_agrees_with_interpreter() {
        check_agreement("q1 *= RX(a); q1 *= RY(b); q1 *= RZ(a + pi/2); q1 *= H", &[
            ("a", 0.4),
            ("b", -1.2),
        ]);
    }

    #[test]
    fn branching_programs_agree_with_interpreter() {
        check_agreement(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 := |0>; q1, q2 *= RZZ(a) end",
            &[("a", 0.8), ("b", 0.3)],
        );
        check_agreement(
            "q1 *= RY(a); while[2] M[q1] = 1 do q1 *= RY(b) done",
            &[("a", 1.9), ("b", 0.7)],
        );
        check_agreement("q1 *= H; abort[q1]", &[]);
    }

    #[test]
    fn resolved_executor_matches_unresolved_bitwise() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 := |0> end; q1, q2 *= RZZ(a)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.9), ("b", -0.4)]));
        let psi = StateVector::basis_state(reg.len(), 1);
        let obs = Observable::pauli_z(reg.len(), 1);
        let unresolved = set.programs()[0].expectation_pure(&values, &psi, &obs);
        let resolved = set.programs()[0].resolve(&values).expectation_pure(&psi, &obs);
        assert_eq!(unresolved.to_bits(), resolved.to_bits());
    }

    #[test]
    fn branching_expectation_batch_matches_per_row_oracle() {
        // Branching programs (the `while` forces branch points) run the
        // branch-weighted sweep; the retained per-row oracle pins it at
        // 1e-12 (leaf-summation order and the measure+flip form of `init`
        // move rounding; the randomized suite in
        // `branch_weighted_differential.rs` covers the full space).
        let p = parse_program(
            "q1 *= RY(a); while[2] M[q1] = 1 do q1 *= RY(b) done; q2 *= RX(a)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 1.2), ("b", 0.5)]));
        let obs = Observable::pauli_z(reg.len(), 0);
        let rows: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(reg.len(), k)).collect();
        let batch = qdp_sim::BatchedStates::from_states(&rows);
        let batched = set.expectation_batch(&values, &batch, &obs);
        for (r, psi) in rows.iter().enumerate() {
            let serial: f64 = set
                .programs()
                .iter()
                .map(|prog| prog.expectation_pure(&values, psi, &obs))
                .sum();
            assert!(
                (batched[r] - serial).abs() < 1e-12,
                "row {r}: batched {} vs per-row {serial}",
                batched[r]
            );
        }
    }

    #[test]
    fn branching_expectation_batch_is_invariant_under_batch_composition() {
        // Per-row results of the branch-weighted sweep carry identical
        // bits whether a row runs alone or inside any batch.
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 := |0> end; q1, q2 *= RZZ(a)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.9), ("b", -0.4)]));
        let obs = Observable::pauli_z(reg.len(), 1);
        let rows: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(reg.len(), k)).collect();
        let batch = qdp_sim::BatchedStates::from_states(&rows);
        let together = set.expectation_batch(&values, &batch, &obs);
        for (r, psi) in rows.iter().enumerate() {
            let alone = set.expectation_batch(
                &values,
                &qdp_sim::BatchedStates::from_states(std::slice::from_ref(psi)),
                &obs,
            )[0];
            assert_eq!(together[r].to_bits(), alone.to_bits(), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "lowered against")]
    fn mismatched_batch_register_panics() {
        let p = parse_program("q1 *= RX(a)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.1)]));
        // 3-qubit rows against a 1-qubit lowering must be rejected loudly.
        let batch = qdp_sim::BatchedStates::zero(2, 3);
        let _ = set.expectation_batch(&values, &batch, &Observable::pauli_z(3, 0));
    }

    #[test]
    fn expectation_batch_of_empty_batch_and_empty_set() {
        let p = parse_program("q1 *= RX(a)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.1)]));
        let obs = Observable::pauli_z(1, 0);
        let empty = qdp_sim::BatchedStates::from_states(&[]);
        assert!(set.expectation_batch(&values, &empty, &obs).is_empty());

        let none = LoweredSet::default();
        let batch = qdp_sim::BatchedStates::zero(3, 1);
        assert_eq!(none.expectation_batch(&[], &batch, &obs), vec![0.0; 3]);
    }

    #[test]
    fn shared_prefix_shares_only_identical_ops() {
        // The first two programs share a fixed and a parameterized op.
        // Every other one leaves them at one of those two ops, differing in
        // exactly one part of the sharing key: fixed matrix, axis, offset,
        // parameter, or targets.
        let srcs = [
            "q1 *= H; q1 *= RX(a); q1, q2 *= RZZ(a)",
            "q1 *= H; q1 *= RX(a); q1, q2 *= RXX(a)",
            "q1 *= X; q1 *= RX(a); q1, q2 *= RZZ(a)",
            "q1 *= H; q1 *= RY(a); q1, q2 *= RZZ(a)",
            "q1 *= H; q1 *= RX(a + pi/2); q1, q2 *= RZZ(a)",
            "q1 *= H; q1 *= RX(b); q1, q2 *= RZZ(a)",
            "q1 *= H; q2 *= RX(a); q1, q2 *= RZZ(a)",
        ];
        let programs: Vec<Stmt> = srcs.iter().map(|s| parse_program(s).unwrap()).collect();
        let reg = Register::from_program(&programs[0]);
        let set = LoweredSet::lower(&programs, &reg);
        let plan = SharedPrefix::build(&[&set]);
        // The 2-op spine, then 3 ops for the program leaving at op 0, 2 for
        // each of the four leaving at op 1, and 1 for each of the first two.
        assert_eq!(plan.gate_passes(), 2 + 3 + 4 * 2 + 2);

        let values = set.slot_values(&Params::from_pairs([("a", 0.7), ("b", -1.3)]));
        let psi = StateVector::basis_state(reg.len(), 2);
        let obs = Observable::pauli_z(reg.len(), 0);
        let oracle: f64 = set
            .programs()
            .iter()
            .map(|p| p.expectation_pure(&values, &psi, &obs))
            .sum();
        let shared = plan.expectations(&[&set], &[values], psi, &obs)[0];
        assert_eq!(shared.to_bits(), oracle.to_bits());
    }

    #[test]
    fn slots_are_shared_and_deduplicated() {
        let p = parse_program("q1 *= RX(a); q1 *= RY(a); q1 *= RZ(b)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        assert_eq!(set.param_names.len(), 2);
    }

    #[test]
    #[should_panic(expected = "has no value")]
    fn missing_parameter_panics_like_the_interpreter() {
        let p = parse_program("q1 *= RX(a)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let _ = set.slot_values(&Params::new());
    }
}
