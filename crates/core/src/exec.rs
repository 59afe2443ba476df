//! The end-to-end differentiation pipeline (Section 7, “Execution”).
//!
//! For a program `P(θ)` and one parameter `θj`:
//!
//! 1. apply the code transformation to get the additive `∂/∂θj(P(θ))`
//!    ([`crate::transform`]),
//! 2. compile it into the multiset `{|P′i(θ)|}` of normal, non-aborting
//!    programs ([`qdp_lang::compile`]) — both steps happen at *compile time*,
//! 3. at run time, evaluate `Σi tr((ZA⊗O)·[[P′i]](|0⟩A⟨0| ⊗ ρ))` (Eq. 7.1).
//!
//! [`Differentiated`] packages steps 1–2; [`GradientEngine`] caches one
//! `Differentiated` per parameter and evaluates whole gradients. A
//! [`Query`] names one pure-state request — value, gadget gradient or
//! shift gradient, exact or under a shot budget — and
//! [`GradientEngine::evaluate`] answers it for a batch of inputs.

use crate::cache::{CompiledSkeleton, ProgramCache, SkeletonMemo};
use crate::estimator::PreparedDerivativeEstimator;
use crate::lowered::{gate_table, GateRecipe, LoweredSet, SharedPrefix};
use crate::semantics::observable_semantics;
use crate::transform::{fresh_ancilla, transform, TransformError};
use qdp_lang::ast::{Params, Stmt, Var};
use qdp_lang::{compile, denot, Register};
use qdp_sim::{
    derive_seed, BatchedStates, DensityMatrix, GateTable, Observable, ProjectiveObservable,
    QdpError, ShotEngine, StateVector,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bounded retry budget for panicked worker tiles in this module's
/// parallel fan-outs. Every fanned-out closure here is pure per call, so
/// a retry is bit-identical to a first-try success.
pub(crate) const TILE_RETRIES: usize = 2;

/// Extracts the human-readable message from a panic payload (the two
/// payload shapes `panic!` produces, with a fallback for exotic ones).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs a batched evaluation whose only failure mode is a panic (e.g.
/// worker-panic exhaustion deep inside `expectation_batch` re-panics with
/// the typed message) and converts the unwind into a typed error — how the
/// exact arms of [`GradientEngine::evaluate`], which cannot thread a
/// `Result` through their fan-out, stay fallible.
fn contain<R>(f: impl FnOnce() -> R) -> Result<R, QdpError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        QdpError::ServicePanic {
            message: panic_message(payload.as_ref()),
        }
    })
}

/// The compile-time artifact of differentiating one program with respect to
/// one parameter.
///
/// # Examples
///
/// ```
/// use qdp_ad::differentiate;
/// use qdp_lang::ast::Params;
/// use qdp_lang::parse_program;
/// use qdp_sim::{DensityMatrix, Observable};
///
/// let p = parse_program("q1 *= RY(t)")?;
/// let diff = differentiate(&p, "t")?;
/// let obs = Observable::pauli_z(1, 0);
/// let rho = DensityMatrix::pure_zero(1);
/// let params = Params::from_pairs([("t", 0.5)]);
/// // d/dθ cos θ = −sin θ.
/// let d = diff.derivative(&params, &obs, &rho);
/// assert!((d + 0.5f64.sin()).abs() < 1e-10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Differentiated {
    param: String,
    ancilla: Var,
    additive: Stmt,
    compiled: Vec<Stmt>,
    base_register: Register,
    ext_register: Register,
    /// The route back to the interned skeleton (see [`Self::skeleton`]).
    memo: SkeletonMemo,
}

/// Differentiates `program` with respect to `param`: transformation plus
/// compilation (the paper's compile-time phase).
///
/// # Errors
///
/// Returns [`TransformError`] on an ancilla-name collision (never happens
/// with the automatically chosen ancilla).
pub fn differentiate(program: &Stmt, param: &str) -> Result<Differentiated, TransformError> {
    differentiate_in(program, param, &Register::from_program(program))
}

/// Like [`differentiate`], but over a caller-supplied base register (which
/// must contain every program variable). This is what higher-order
/// differentiation uses: the base register of the second pass is the
/// ancilla-extended register of the first, so observables keep lining up.
///
/// # Errors
///
/// Returns [`TransformError`] on an ancilla-name collision.
///
/// # Panics
///
/// Panics when the program uses a variable outside `base_register`.
pub fn differentiate_in(
    program: &Stmt,
    param: &str,
    base_register: &Register,
) -> Result<Differentiated, TransformError> {
    for v in program.qvar() {
        assert!(
            base_register.contains(&v),
            "program variable '{v}' missing from the supplied register"
        );
    }
    let mut ancilla = fresh_ancilla(program, param);
    while base_register.contains(&ancilla) {
        ancilla = Var::new(format!("{}'", ancilla.name()));
    }
    let additive = transform(program, param, &ancilla)?;
    let compiled: Vec<Stmt> = compile::compile(&additive)
        .into_iter()
        .filter(|p| !p.essentially_aborts())
        .collect();
    let ext_register = base_register.with_ancilla_front(ancilla.clone());
    Ok(Differentiated {
        param: param.to_string(),
        ancilla,
        additive,
        compiled,
        base_register: base_register.clone(),
        ext_register,
        memo: SkeletonMemo::default(),
    })
}

/// The second-order derivative
/// `∂²/∂θp2 ∂θp1 · tr(O·[[P(θ*)]]ρ)`, computed by differentiating each
/// compiled first-derivative program again (the nesting of the paper's
/// footnote 7: the old ancilla joins the register, a fresh one is added,
/// and the observable picks up another `Z` factor).
///
/// # Errors
///
/// Returns [`TransformError`] on ancilla collisions.
pub fn second_derivative(
    program: &Stmt,
    param1: &str,
    param2: &str,
    params: &Params,
    obs: &Observable,
    rho: &DensityMatrix,
) -> Result<f64, TransformError> {
    let first = differentiate(program, param1)?;
    let obs_ext = obs.with_ancilla_z();
    let rho_ext = rho.prepend_zero_ancilla();
    // Each first-derivative program is differentiated and evaluated
    // independently; summation stays in multiset order for determinism.
    let partials = qdp_par::par_map(first.compiled(), |inner| {
        let second = differentiate_in(inner, param2, first.ext_register())?;
        Ok(second.derivative(params, &obs_ext, &rho_ext))
    });
    let mut total = 0.0;
    for partial in partials {
        total += partial?;
    }
    Ok(total)
}

/// The full Hessian over a set of parameters, keyed by `(row, column)`.
/// Symmetric up to numerical error; both triangles are computed
/// independently, which doubles as a smoothness check.
///
/// # Errors
///
/// Returns [`TransformError`] on ancilla collisions.
pub fn hessian(
    program: &Stmt,
    params: &Params,
    obs: &Observable,
    rho: &DensityMatrix,
) -> Result<BTreeMap<(String, String), f64>, TransformError> {
    let names: Vec<String> = program.parameters().into_iter().collect();
    let mut out = BTreeMap::new();
    for p1 in &names {
        for p2 in &names {
            let value = second_derivative(program, p1, p2, params, obs, rho)?;
            out.insert((p1.clone(), p2.clone()), value);
        }
    }
    Ok(out)
}

impl Differentiated {
    /// The differentiated parameter name.
    pub fn param(&self) -> &str {
        &self.param
    }

    /// The ancilla variable `A` introduced by the transformation.
    pub fn ancilla(&self) -> &Var {
        &self.ancilla
    }

    /// The additive program `∂/∂θj(P(θ))` before compilation.
    pub fn additive(&self) -> &Stmt {
        &self.additive
    }

    /// The compiled multiset of non-aborting normal programs — its length is
    /// `|#∂/∂θj(P(θ))|` (Definition 4.3), the number of initial-state copies
    /// per evaluation (Section 7).
    pub fn compiled(&self) -> &[Stmt] {
        &self.compiled
    }

    /// The register of the original program.
    pub fn base_register(&self) -> &Register {
        &self.base_register
    }

    /// The extended register (`ancilla` at qubit 0).
    pub fn ext_register(&self) -> &Register {
        &self.ext_register
    }

    /// Evaluates the derivative
    /// `Σi tr((ZA⊗O) · [[P′i(θ*)]]((|0⟩A⟨0|) ⊗ ρ))` (Eq. 7.1) exactly.
    ///
    /// By Theorem 6.2 this equals `∂/∂θj tr(O · [[P(θ*)]]ρ)` for **every**
    /// observable `O` and input `ρ` — the strongest differential-semantics
    /// guarantee (Definition 5.3).
    ///
    /// The compiled programs `{P′i}` are independent simulations; they are
    /// evaluated in parallel and summed in multiset order, so the result is
    /// identical (bit-for-bit) no matter how many threads run. The ancilla
    /// extension of `O` and `ρ` is built once and shared across the multiset
    /// instead of once per program.
    pub fn derivative(&self, params: &Params, obs: &Observable, rho: &DensityMatrix) -> f64 {
        assert_eq!(
            self.ext_register.len(),
            rho.num_qubits() + 1,
            "extended register must have exactly one more qubit than the input state"
        );
        let ext_obs = obs.with_ancilla_z();
        let ext_rho = rho.prepend_zero_ancilla();
        self.derivative_prepared(params, &ext_obs, &ext_rho)
    }

    /// [`derivative`](Self::derivative) with the ancilla extension already
    /// applied — what [`GradientEngine::gradient`] calls so the
    /// `O(4^(n+1))` extended buffers are built once per gradient instead of
    /// once per parameter.
    pub(crate) fn derivative_prepared(
        &self,
        params: &Params,
        ext_obs: &Observable,
        ext_rho: &DensityMatrix,
    ) -> f64 {
        // Pure per program, so a panicked worker tile retries
        // bit-identically before the failure is surfaced.
        qdp_par::try_par_map_retry(
            &self.compiled,
            |p| observable_semantics(p, &self.ext_register, params, ext_obs, ext_rho),
            TILE_RETRIES,
        )
        .unwrap_or_else(|e| panic!("{}", QdpError::from(e)))
        .into_iter()
        .sum()
    }

    /// Pure-input fast path of [`derivative`](Self::derivative): evaluates
    /// the *lowered* multiset (resolved indices, interned parameter slots)
    /// by shared-prefix execution, as
    /// [`GradientEngine::gradient_pure`] does for one parameter: the
    /// programs' common gate prefix runs once on the ancilla-extended
    /// state and each program runs only its suffix, in parallel waves.
    ///
    /// The result carries the bits of summing
    /// [`LoweredProgram::expectation_pure`](crate::lowered::LoweredProgram::expectation_pure)
    /// over the multiset in multiset order, under any thread count; it
    /// agrees with the dense path to numerical precision and with the AST
    /// interpreter bit-for-bit. Live state is one extended state plus one
    /// reused branch buffer per worker.
    ///
    /// # Panics
    ///
    /// Panics with the [`QdpError::WorkerPanic`] message when a program's
    /// tile still panics after the bounded bit-identical retries.
    pub fn derivative_pure(&self, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
        let ext_obs = obs.with_ancilla_z();
        let ext_psi = StateVector::zero_state(1).tensor(psi);
        let skeleton = self.skeleton();
        let lowered = skeleton.lowered();
        let values = lowered.slot_values(params);
        SharedPrefix::build(&[lowered]).expectations(&[lowered], &[values], ext_psi, &ext_obs)[0]
    }

    /// Batched pure-input evaluation of [`derivative_pure`](Self::derivative_pure):
    /// one derivative value per batch row, computed in a single pass over
    /// the lowered multiset. The ancilla extension of the batch and the
    /// observable are built once; parameter slots are resolved once; the
    /// `batch × programs` tiles are split across `qdp_par` workers. Each
    /// entry agrees with `derivative_pure` on that row to numerical
    /// precision (≪ 1e-12 — the straight-line fast path fuses commuting
    /// rotations, which reorders rounding), and the batch result itself is
    /// bit-for-bit deterministic under any thread count.
    pub fn derivative_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<f64> {
        let ext_obs = obs.with_ancilla_z();
        let ext_states = states.prepend_zero_ancilla();
        let skeleton = self.skeleton();
        let values = skeleton.lowered().slot_values(params);
        skeleton
            .lowered()
            .expectation_batch(&values, &ext_states, &ext_obs)
    }

    /// The compiled skeleton (lowered multiset with resolved qubit indices,
    /// interned parameter slots, pre-built measurements and constant
    /// matrices, plus the programs' trajectory templates), interned through
    /// the process-wide [`ProgramCache`]: the first `Differentiated` of a
    /// given (multiset, register) pair anywhere in the process compiles it,
    /// every later one — including clones and re-differentiations of the
    /// same program — shares that one skeleton. Public so batch evaluators
    /// and future backends can drive [`LoweredSet::expectation_batch`]
    /// directly.
    ///
    /// A warm call costs O(1): the `Differentiated` memoizes a weak handle
    /// on its cache entry, so while the entry is resident the call upgrades
    /// it and marks it referenced for the cache's eviction clock — no
    /// fingerprint, no cache lock, no deep compare. The memo never keeps
    /// the skeleton alive: once the cache evicts or flushes the entry and
    /// no caller holds its `Arc`, the skeleton is freed, and the next call
    /// interns again (the fingerprint is computed once per
    /// `Differentiated`).
    pub fn skeleton(&self) -> Arc<CompiledSkeleton> {
        ProgramCache::global().intern_memo(&self.memo, &self.compiled, &self.ext_register)
    }
}

/// How a [`Query`] is evaluated (Section 7, “Execution”).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Read the quantity off the simulator exactly.
    Exact,
    /// Estimate it from sampled trajectories, as hardware would: this many
    /// shots for a value, this many per parameter for a gradient (pass
    /// `chernoff_shots(m, δ)` for the Chernoff guarantee).
    Shots(usize),
}

/// What a [`Query`] asks for. The shift rule is exact by construction, so
/// a shot-mode shift gradient cannot be expressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The forward value `⟨O⟩`.
    Value(Mode),
    /// The gradient via the per-parameter gadget multisets (Eq. 7.1).
    Gradient(Mode),
    /// The exact gradient via the `±π/2` shift rule on the forward program.
    ShiftGradient,
}

/// One pure-state request against a [`GradientEngine`]: the kind (value,
/// gadget gradient or shift gradient), the [`Mode`], the valuation and
/// the observable. [`GradientEngine::evaluate`] answers it for a batch of
/// inputs; [`crate::GradientService::submit`] coalesces equal queries from
/// many clients into one such call.
///
/// Equality compares every field by value (parameters and observable
/// entries by `f64 ==`) — it is the service's coalescing key.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    kind: Kind,
    params: Params,
    obs: Observable,
}

impl Query {
    /// The forward value `tr(O·[[P(θ*)]]ρ)`.
    ///
    /// # Panics
    ///
    /// Panics on `Mode::Shots(0)`.
    pub fn value(params: Params, obs: Observable, mode: Mode) -> Self {
        assert!(mode != Mode::Shots(0), "need at least one shot");
        Query {
            kind: Kind::Value(mode),
            params,
            obs,
        }
    }

    /// The gradient via the per-parameter gadget multisets, keyed by
    /// parameter name.
    ///
    /// # Panics
    ///
    /// Panics on `Mode::Shots(0)`.
    pub fn gradient(params: Params, obs: Observable, mode: Mode) -> Self {
        assert!(
            mode != Mode::Shots(0),
            "need at least one shot per parameter"
        );
        Query {
            kind: Kind::Gradient(mode),
            params,
            obs,
        }
    }

    /// The exact gradient via the `±π/2` shift rule (see
    /// [`GradientEngine::shift_rule_eligible`]).
    pub fn shift_gradient(params: Params, obs: Observable) -> Self {
        Query {
            kind: Kind::ShiftGradient,
            params,
            obs,
        }
    }
}

/// The answer to a [`Query`] for one input row.
#[derive(Clone, Debug)]
pub enum Answer {
    /// A forward value.
    Value(f64),
    /// A gradient keyed by parameter name.
    Gradient(BTreeMap<String, f64>),
}

impl Answer {
    /// The scalar of a value answer.
    ///
    /// # Panics
    ///
    /// Panics on a gradient answer.
    pub fn into_value(self) -> f64 {
        match self {
            Answer::Value(v) => v,
            Answer::Gradient(_) => panic!("a gradient query has no scalar answer"),
        }
    }

    /// The map of a gradient answer.
    ///
    /// # Panics
    ///
    /// Panics on a value answer.
    pub fn into_gradient(self) -> BTreeMap<String, f64> {
        match self {
            Answer::Gradient(g) => g,
            Answer::Value(_) => panic!("a value query has no gradient answer"),
        }
    }
}

/// Gradient evaluation over all parameters of a program, with the per-
/// parameter transformations cached.
#[derive(Clone, Debug)]
pub struct GradientEngine {
    program: Stmt,
    register: Register,
    diffs: BTreeMap<String, Differentiated>,
    /// Per parameter, the remap from its `Differentiated`'s interned slots
    /// into the engine's canonical parameter order (`diffs` key order) —
    /// resolves every string lookup once. Built lazily on the first pure
    /// gradient so density-path-only engines never pay for lowering. This
    /// is cheap derived indexing, not a compilation: the lowerings it
    /// indexes into live in the process-wide [`ProgramCache`].
    slot_remaps: std::sync::OnceLock<BTreeMap<String, Vec<usize>>>,
    /// The shared-prefix plan of every parameter's multiset (in `diffs`
    /// key order), built lazily on the first pure gradient like
    /// `slot_remaps`, against the same interned lowerings.
    shared_prefix: std::sync::OnceLock<SharedPrefix>,
    /// The gate table one batched gradient shares across every
    /// parameter's multiset, built lazily like `slot_remaps`.
    gate_plan: std::sync::OnceLock<GatePlan>,
    /// The route back to the interned forward skeleton (see
    /// [`Self::forward_skeleton`]).
    forward_memo: SkeletonMemo,
}

/// The distinct parameterised gates of all parameters' multisets: a
/// batched gradient builds each one's matrix once per call and every
/// multiset reads it through a remapped [`GateTable`].
#[derive(Clone, Debug)]
struct GatePlan {
    /// Per distinct gate its recipe, the slot being the canonical
    /// parameter index (`diffs` key order).
    gates: Vec<GateRecipe>,
    /// Per parameter (`diffs` key order): its set's gate-table entry →
    /// index into `gates`.
    remaps: Vec<Vec<usize>>,
}

impl GradientEngine {
    /// Differentiates `program` with respect to every parameter it uses.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransformError`] encountered.
    pub fn new(program: &Stmt) -> Result<Self, TransformError> {
        let register = Register::from_program(program);
        let mut diffs = BTreeMap::new();
        for param in program.parameters() {
            diffs.insert(param.clone(), differentiate(program, &param)?);
        }
        Ok(GradientEngine {
            program: program.clone(),
            register,
            diffs,
            slot_remaps: std::sync::OnceLock::new(),
            shared_prefix: std::sync::OnceLock::new(),
            gate_plan: std::sync::OnceLock::new(),
            forward_memo: SkeletonMemo::default(),
        })
    }

    /// The forward program as an interned one-element skeleton — the fast
    /// path of batched forward evaluation and the shift-rule gradient.
    /// Compiled once per process via the shared [`ProgramCache`]; a warm
    /// call is O(1), memoized like [`Differentiated::skeleton`].
    pub fn forward_skeleton(&self) -> Arc<CompiledSkeleton> {
        ProgramCache::global().intern_memo(
            &self.forward_memo,
            std::slice::from_ref(&self.program),
            &self.register,
        )
    }

    /// The per-parameter slot remaps, built (against the interned
    /// lowerings they index into) on first use.
    fn slot_remaps(&self) -> &BTreeMap<String, Vec<usize>> {
        self.slot_remaps.get_or_init(|| {
            let canonical: Vec<&String> = self.diffs.keys().collect();
            self.diffs
                .iter()
                .map(|(name, diff)| {
                    let remap = diff
                        .skeleton()
                        .lowered()
                        .param_names()
                        .iter()
                        .map(|p| {
                            // Infallible: every gadget parameter is a
                            // parameter of the program it was derived from.
                            #[allow(clippy::expect_used)]
                            canonical
                                .iter()
                                .position(|c| *c == p)
                                .expect("gadget parameters are program parameters")
                        })
                        .collect();
                    (name.clone(), remap)
                })
                .collect()
        })
    }

    /// The shared gate plan of all parameters' multisets, built (against
    /// the interned lowerings and the slot remaps) on first use.
    fn gate_plan(&self) -> &GatePlan {
        self.gate_plan.get_or_init(|| {
            let slot_remaps = self.slot_remaps();
            let mut plan = GatePlan {
                gates: Vec::new(),
                remaps: Vec::new(),
            };
            for (name, diff) in &self.diffs {
                let skeleton = diff.skeleton();
                let remap = skeleton
                    .lowered()
                    .recipes()
                    .iter()
                    .map(|r| {
                        let same = plan.gates.iter().position(|g| g.is(&r.gate, r.offset));
                        same.unwrap_or_else(|| {
                            plan.gates.push(GateRecipe {
                                slot: slot_remaps[name][r.slot],
                                ..r.clone()
                            });
                            plan.gates.len() - 1
                        })
                    })
                    .collect();
                plan.remaps.push(remap);
            }
            plan
        })
    }

    /// The interned lowering of every parameter's multiset, in `diffs` key
    /// order, fetched serially so the cache lookups stay off the workers.
    fn skeletons(&self) -> Vec<Arc<CompiledSkeleton>> {
        self.diffs.values().map(Differentiated::skeleton).collect()
    }

    /// The shared-prefix plan of all parameters' multisets, built on first
    /// use.
    fn shared_prefix(&self) -> &SharedPrefix {
        self.shared_prefix.get_or_init(|| {
            let skeletons = self.skeletons();
            let sets: Vec<&LoweredSet> = skeletons.iter().map(|s| s.lowered()).collect();
            SharedPrefix::build(&sets)
        })
    }

    /// The program under differentiation.
    pub fn program(&self) -> &Stmt {
        &self.program
    }

    /// The program's register.
    pub fn register(&self) -> &Register {
        &self.register
    }

    /// Parameter names in lexicographic order.
    pub fn parameters(&self) -> impl Iterator<Item = &str> {
        self.diffs.keys().map(String::as_str)
    }

    /// The cached differentiation artifact for one parameter.
    pub fn differentiated(&self, param: &str) -> Option<&Differentiated> {
        self.diffs.get(param)
    }

    /// Forward value `tr(O · [[P(θ*)]]ρ)`.
    pub fn value(&self, params: &Params, obs: &Observable, rho: &DensityMatrix) -> f64 {
        observable_semantics(&self.program, &self.register, params, obs, rho)
    }

    /// Forward value on a pure input.
    pub fn value_pure(&self, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
        denot::expectation_pure(&self.program, &self.register, params, psi, obs)
    }

    /// The full gradient, keyed by parameter name.
    ///
    /// The per-parameter evaluations are independent and run in parallel;
    /// each entry's value is computed exactly as by
    /// [`Differentiated::derivative`], so the map is deterministic under any
    /// thread count.
    pub fn gradient(
        &self,
        params: &Params,
        obs: &Observable,
        rho: &DensityMatrix,
    ) -> BTreeMap<String, f64> {
        // The ancilla extension is identical for every parameter: build the
        // O(4^(n+1)) extended buffers once and share them.
        let ext_obs = obs.with_ancilla_z();
        let ext_rho = rho.prepend_zero_ancilla();
        let entries: Vec<(&String, &Differentiated)> = self.diffs.iter().collect();
        qdp_par::par_map(&entries, |(name, diff)| {
            (
                (*name).clone(),
                diff.derivative_prepared(params, &ext_obs, &ext_rho),
            )
        })
        .into_iter()
        .collect()
    }

    /// The full gradient on a pure input (fast path), by **shared-prefix
    /// execution** of all parameters' multisets at once.
    ///
    /// By the Sequence rule every compiled program is the forward program
    /// with one gate swapped for its gadget, so the programs of all
    /// parameters share long gate prefixes. They form one trie, built once
    /// per engine: two programs share an op only when it is the same
    /// lowered op (same gate, canonical parameter, offset and targets, or
    /// a bit-identical fixed matrix), and sharing stops at a program's first
    /// `Init`/`Case`/`Abort`, where the per-row branch enumerator takes
    /// over. The calling thread walks the trie's spine once on the
    /// ancilla-extended state; programs run only their suffixes, in waves of
    /// `qdp_par::max_threads()` retried tiles, each copying the read-only
    /// spine state into a reused branch buffer.
    ///
    /// **Bits.** Every entry equals summing
    /// [`LoweredProgram::expectation_pure`](crate::lowered::LoweredProgram::expectation_pure)
    /// over the parameter's multiset in multiset order, bit for bit, under
    /// any thread count. **Memory.** Live state is one extended spine plus
    /// one reused buffer per worker; no state is allocated per program
    /// except where a suffix hands off to the branch enumerator.
    /// [`gate_passes`](Self::gate_passes) counts the gate applications.
    ///
    /// # Panics
    ///
    /// Panics when a parameter has no value, or with the
    /// [`QdpError::WorkerPanic`] message when a tile still panics after the
    /// bounded bit-identical retries.
    pub fn gradient_pure(
        &self,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
    ) -> BTreeMap<String, f64> {
        let ext_obs = obs.with_ancilla_z();
        let ext_psi = StateVector::zero_state(1).tensor(psi);
        let canonical: Vec<f64> = self
            .diffs
            .keys()
            .map(|name| {
                params
                    .get(name)
                    .unwrap_or_else(|| panic!("parameter '{name}' has no value"))
            })
            .collect();
        let values: Vec<Vec<f64>> = self
            .slot_remaps()
            .values()
            .map(|remap| remap.iter().map(|&i| canonical[i]).collect())
            .collect();
        let skeletons = self.skeletons();
        let sets: Vec<&LoweredSet> = skeletons.iter().map(|s| s.lowered()).collect();
        let derivatives = self
            .shared_prefix()
            .expectations(&sets, &values, ext_psi, &ext_obs);
        self.diffs.keys().cloned().zip(derivatives).collect()
    }

    /// Total number of circuit programs per full gradient evaluation —
    /// `Σj |#∂/∂θj(P)|`, the paper's resource-count headline (Section 7).
    pub fn total_programs(&self) -> usize {
        self.diffs.values().map(|d| d.compiled().len()).sum()
    }

    /// Gate applications per exact single-state gradient
    /// ([`gradient_pure`](Self::gradient_pure)) after prefix sharing: the
    /// shared spine once plus each program's gate suffix past its branch
    /// point — the edge count of the engine's shared-prefix trie. Without
    /// sharing it would be the programs' total gate count. Counts one
    /// thread: with more, each wave tile also replays the few spine gates
    /// between the wave's first branch point and its own. Gates past a
    /// program's first `Init`/`Case`/`Abort` run per measurement branch
    /// and are not counted.
    pub fn gate_passes(&self) -> usize {
        self.shared_prefix().gate_passes()
    }

    /// Shot-based estimate of the full gradient on one pure input:
    /// [`evaluate`](Self::evaluate) of a shot-mode gradient [`Query`] on
    /// the one-row batch `psi` with row seed `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed query (see [`evaluate`](Self::evaluate)),
    /// when `shots_per_param` is zero, or when the estimate fails.
    pub fn gradient_pure_shots(
        &self,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
        shots_per_param: usize,
        seed: u64,
    ) -> BTreeMap<String, f64> {
        let query = Query::gradient(params.clone(), obs.clone(), Mode::Shots(shots_per_param));
        self.evaluate(&query, &BatchedStates::gather(&[psi]), &[seed])
            .unwrap_or_else(|e| panic!("{e}"))
            .remove(0)
            .into_gradient()
    }

    /// Forward values `tr(O·[[P(θ*)]]|ψr⟩⟨ψr|)` for every row of a batch —
    /// the exact-value arm of [`evaluate`](Self::evaluate).
    ///
    /// Runs on the **lowered** forward program (resolved indices, interned
    /// slots, gate matrices built once per batch) instead of the AST
    /// interpreter [`value_pure`](Self::value_pure) uses — this is where
    /// most of the batched training speedup comes from. Agrees with
    /// `value_pure` to numerical precision on every row.
    pub fn value_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<f64> {
        let fwd = self.forward_skeleton();
        let values = fwd.lowered().slot_values(params);
        fwd.lowered().expectation_batch(&values, states, obs)
    }

    /// The full gradient for **every** row of a batch, keyed by parameter
    /// name, in one pass over all `parameters × programs × rows` tiles —
    /// the exact-gradient arm of [`evaluate`](Self::evaluate).
    ///
    /// Shared setup happens once per call: the ancilla-extended
    /// observable and batch, the canonical valuation, and **one gate
    /// table** for all parameters' multisets — each distinct
    /// (gate, parameter, offset) matrix built a single time, read by every
    /// multiset through a remapped [`GateTable`]. Per-parameter batch
    /// evaluations then run in parallel, each sweeping its interned
    /// templates over its own `batch × programs` grid. Every entry
    /// carries the bits of [`LoweredSet::expectation_batch`] on that
    /// parameter's multiset, and agrees with
    /// [`gradient_pure`](Self::gradient_pure) on that row to
    /// numerical precision (≪ 1e-12; straight-line fusion reorders
    /// rounding), and the batch result is bit-for-bit deterministic under
    /// any thread count — `crates/core/tests/batch_equivalence.rs` is the
    /// randomized oracle for both properties.
    pub fn gradient_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<BTreeMap<String, f64>> {
        let ext_obs = obs.with_ancilla_z();
        let ext_states = states.prepend_zero_ancilla();
        let canonical: Vec<f64> = self
            .diffs
            .keys()
            .map(|name| {
                params
                    .get(name)
                    .unwrap_or_else(|| panic!("parameter '{name}' has no value"))
            })
            .collect();
        let plan = self.gate_plan();
        // Each distinct gate's matrix, once for every multiset: the bits
        // each set's own table holds, since a set's slot value is the
        // canonical value of the same parameter.
        let table = gate_table(&plan.gates, &canonical);
        let entries: Vec<(Arc<CompiledSkeleton>, &Vec<usize>)> = self
            .diffs
            .values()
            .map(Differentiated::skeleton)
            .zip(&plan.remaps)
            .collect();
        let per_param: Vec<Vec<f64>> = qdp_par::par_map(&entries, |(skeleton, remap)| {
            skeleton.lowered().expectation_batch_with(
                GateTable::remapped(&table, remap),
                &ext_states,
                &ext_obs,
            )
        });
        (0..states.len())
            .map(|r| {
                self.diffs
                    .keys()
                    .zip(&per_param)
                    .map(|(name, derivs)| (name.clone(), derivs[r]))
                    .collect()
            })
            .collect()
    }

    /// Whether the phase-shift rule applies: every parameter occurs exactly
    /// once along any execution path ([`crate::resource::occurrence_count`]
    /// counts `while` bodies `bound` times and takes the per-path maximum
    /// over `case` arms). Each parameterized gate is `exp(−iθG/2)·C` with
    /// `G² = I`, so each surviving branch's read-out — and hence the
    /// multiset expectation — is `a + b·cos θ + c·sin θ` in a
    /// once-occurring θ, which the `±π/2` shift rule differentiates
    /// exactly.
    pub fn shift_rule_eligible(&self) -> bool {
        self.diffs
            .keys()
            .all(|p| crate::resource::occurrence_count(&self.program, p) == 1)
    }

    /// The full gradient on one pure input via the `±π/2` shift rule:
    /// [`evaluate`](Self::evaluate) of [`Query::shift_gradient`] on the
    /// one-row batch `psi`. Agrees with [`gradient_pure`](Self::gradient_pure)
    /// to numerical precision.
    ///
    /// # Panics
    ///
    /// Panics when the program is not shift-eligible, on another malformed
    /// query (see [`evaluate`](Self::evaluate)), or when the sweep fails.
    pub fn gradient_pure_shift(
        &self,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
    ) -> BTreeMap<String, f64> {
        let query = Query::shift_gradient(params.clone(), obs.clone());
        self.evaluate(&query, &BatchedStates::gather(&[psi]), &[])
            .unwrap_or_else(|e| panic!("{e}"))
            .remove(0)
            .into_gradient()
    }

    /// Answers `query` for every row of `states` — the one pure-state
    /// entry point the trainer and the gradient service run on. Each
    /// answer is the Section 7 quantity for its row: the forward value, or
    /// per parameter the sum (Eq. 7.1) over the compiled multiset, read
    /// off exactly or estimated under the query's shot budget.
    ///
    /// * **Exact value / gradient** run the batched lowered sweeps of
    ///   [`value_pure_batch`](Self::value_pure_batch) and
    ///   [`gradient_pure_batch`](Self::gradient_pure_batch).
    /// * **Shift gradient** evaluates the single interned forward skeleton
    ///   at `2P` shifted valuations, `∂f/∂θj = (f(θj + π/2) − f(θj − π/2)) / 2`
    ///   (see [`shift_rule_eligible`](Self::shift_rule_eligible)): one
    ///   skeleton lowered per process where the gadget path lowers one
    ///   multiset per parameter. Agrees with the gadget gradient to
    ///   numerical precision.
    /// * **Shot modes** estimate row `r` on stream `row_seeds[r]`: the
    ///   value from `shots` sampled trajectories of the forward program,
    ///   the gradient with one
    ///   [`crate::estimator::PreparedDerivativeEstimator`] per parameter,
    ///   parameter `j` (lexicographic order) on the derived stream
    ///   `qdp_sim::derive_seed(row_seeds[r], j)` with `shots` trajectories.
    ///   For the Chernoff guarantee pass `chernoff_shots(mj, δ)`.
    ///
    /// Setup (forward skeleton, slot values, estimators, read-out
    /// decomposition) happens once per call and is shared by every row.
    /// Row `r`'s answer does not depend on the other rows — it carries the
    /// bits of a one-row call with the same seed — and every answer is
    /// bit-for-bit deterministic under any thread count. Exact modes
    /// ignore `row_seeds`.
    ///
    /// # Errors
    ///
    /// [`QdpError::ServicePanic`] when an exact value or gradient sweep
    /// panicked (worker-panic exhaustion inside the lowered sweep);
    /// [`QdpError::WorkerPanic`] when a shift or shot tile panicked and the
    /// bounded bit-identical retries did not heal it.
    ///
    /// # Panics
    ///
    /// Panics on malformed queries: a used parameter without a value, a
    /// batch register that does not match the program's, a shift gradient
    /// on a shift-ineligible program, or a shot query without one seed
    /// per row. The gradient service checks the same conditions on the
    /// caller's thread before enqueueing.
    pub fn evaluate(
        &self,
        query: &Query,
        states: &BatchedStates,
        row_seeds: &[u64],
    ) -> Result<Vec<Answer>, QdpError> {
        self.check(query, states.num_qubits());
        let (params, obs) = (&query.params, &query.obs);
        let seeded_rows = || -> Vec<(usize, u64)> {
            assert_eq!(
                row_seeds.len(),
                states.len(),
                "one seed stream per input row"
            );
            row_seeds.iter().copied().enumerate().collect()
        };
        match query.kind {
            Kind::Value(Mode::Exact) => Ok(contain(|| self.value_pure_batch(params, obs, states))?
                .into_iter()
                .map(Answer::Value)
                .collect()),
            Kind::Gradient(Mode::Exact) => {
                Ok(contain(|| self.gradient_pure_batch(params, obs, states))?
                    .into_iter()
                    .map(Answer::Gradient)
                    .collect())
            }
            Kind::ShiftGradient => {
                let fwd = self.forward_skeleton();
                let lowered = fwd.lowered();
                let base = lowered.slot_values(params);
                let names: Vec<&String> = self.diffs.keys().collect();
                // Two shifted valuations per parameter, in canonical order.
                let jobs: Vec<(usize, f64)> = names
                    .iter()
                    .flat_map(|name| {
                        // Infallible: the forward lowering interns every
                        // parameter the program uses.
                        #[allow(clippy::expect_used)]
                        let slot = lowered
                            .param_names()
                            .iter()
                            .position(|p| p == *name)
                            .expect("engine parameters are forward-program parameters");
                        let half = std::f64::consts::FRAC_PI_2;
                        [(slot, half), (slot, -half)]
                    })
                    .collect();
                // Pure per valuation, so a panicked worker tile retries
                // bit-identically before the failure is surfaced. Inner
                // batch evaluations run inline while the pool is busy.
                let evals: Vec<Vec<f64>> = qdp_par::try_par_map_retry(
                    &jobs,
                    |&(slot, shift)| {
                        let mut values = base.clone();
                        values[slot] += shift;
                        lowered.expectation_batch(&values, states, obs)
                    },
                    TILE_RETRIES,
                )?;
                Ok((0..states.len())
                    .map(|r| {
                        Answer::Gradient(
                            names
                                .iter()
                                .enumerate()
                                .map(|(j, name)| {
                                    let d = (evals[2 * j][r] - evals[2 * j + 1][r]) / 2.0;
                                    ((*name).clone(), d)
                                })
                                .collect(),
                        )
                    })
                    .collect())
            }
            Kind::Value(Mode::Shots(shots)) => {
                let fwd = self.forward_skeleton();
                let values = fwd.lowered().slot_values(params);
                // The bound template carries the identical bits a fresh
                // resolve-and-convert would: shot streams stay bit-stable
                // across cold and warm cache states.
                let engine = ShotEngine::new(fwd.trajectory_at(0, &values));
                let readout = ProjectiveObservable::new(obs);
                // Each row is pure (fresh derived streams per call), so a
                // panicked worker tile retries bit-identically.
                qdp_par::try_par_map_retry(
                    &seeded_rows(),
                    |&(r, seed)| {
                        let psi = states.row_state(r);
                        engine
                            .try_estimate_expectation_prepared(&psi, &readout, shots, seed)
                            .map(Answer::Value)
                    },
                    TILE_RETRIES,
                )?
                .into_iter()
                .collect()
            }
            Kind::Gradient(Mode::Shots(shots)) => {
                let prepared: Vec<(&String, PreparedDerivativeEstimator)> = self
                    .diffs
                    .iter()
                    .map(|(name, diff)| (name, PreparedDerivativeEstimator::new(diff, params, obs)))
                    .collect();
                qdp_par::try_par_map_retry(
                    &seeded_rows(),
                    |&(r, seed)| {
                        let psi = states.row_state(r);
                        let mut grad = BTreeMap::new();
                        for (j, (name, estimator)) in prepared.iter().enumerate() {
                            let stream = derive_seed(seed, j as u64);
                            grad.insert((*name).clone(), estimator.estimate(&psi, shots, stream)?);
                        }
                        Ok(Answer::Gradient(grad))
                    },
                    TILE_RETRIES,
                )?
                .into_iter()
                .collect()
            }
        }
    }

    /// Panics unless `query` is well-formed against a `width`-qubit input
    /// (the conditions [`evaluate`](Self::evaluate) documents) — checked up
    /// front so the gradient service can fail a malformed request on its
    /// caller's thread instead of failing its whole coalesced group.
    pub(crate) fn check(&self, query: &Query, width: usize) {
        assert_eq!(
            width,
            self.register.len(),
            "input state width must match the program register"
        );
        for name in self.diffs.keys() {
            assert!(
                query.params.get(name).is_some(),
                "parameter '{name}' has no value"
            );
        }
        assert!(
            query.kind != Kind::ShiftGradient || self.shift_rule_eligible(),
            "shift-rule gradient requires every parameter to occur exactly once \
             per execution path; use gradient_pure_batch for general programs"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::numeric_derivative;
    use qdp_lang::parse_program;

    fn check_against_finite_difference(src: &str, values: &[(&str, f64)], obs: &Observable) {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let params = Params::from_pairs(values.iter().map(|&(k, v)| (k, v)));
        let rho = DensityMatrix::pure_zero(reg.len());
        for (name, _) in values {
            let diff = differentiate(&p, name).unwrap();
            let analytic = diff.derivative(&params, obs, &rho);
            let numeric = numeric_derivative(&p, &reg, &params, name, obs, &rho, 1e-5);
            assert!(
                (analytic - numeric).abs() < 1e-7,
                "{src} ∂/∂{name}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn single_rotation_derivative() {
        check_against_finite_difference(
            "q1 *= RY(t)",
            &[("t", 0.8)],
            &Observable::pauli_z(1, 0),
        );
    }

    #[test]
    fn all_axes_and_offsets() {
        for src in [
            "q1 *= RX(t)",
            "q1 *= RZ(t + pi/2)",
            "q1 *= H; q1 *= RZ(t)",
        ] {
            check_against_finite_difference(src, &[("t", 1.3)], &Observable::pauli_z(1, 0));
        }
    }

    #[test]
    fn sequence_derivative_via_product_rule() {
        check_against_finite_difference(
            "q1 *= RX(t); q1 *= RY(t)",
            &[("t", 0.4)],
            &Observable::pauli_z(1, 0),
        );
    }

    #[test]
    fn coupling_gate_derivative() {
        check_against_finite_difference(
            "q1 *= H; q1, q2 *= RXX(t)",
            &[("t", 0.9)],
            &Observable::pauli_z(2, 1),
        );
    }

    #[test]
    fn case_statement_derivative() {
        check_against_finite_difference(
            "q1 *= RX(t); case M[q1] = 0 -> q2 *= RY(t), 1 -> q2 *= RZ(t); q2 *= RX(t) end",
            &[("t", 0.65)],
            &Observable::pauli_z(2, 1),
        );
    }

    #[test]
    fn bounded_while_derivative() {
        check_against_finite_difference(
            "q1 *= RY(t); while[2] M[q1] = 1 do q1 *= RY(t) done",
            &[("t", 1.1)],
            &Observable::pauli_z(1, 0),
        );
    }

    #[test]
    fn multi_parameter_gradient_matches_finite_differences() {
        let src = "q1 *= RX(a); q2 *= RY(b); q1, q2 *= RZZ(c); q1 *= RY(a)";
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let engine = GradientEngine::new(&p).unwrap();
        let params = Params::from_pairs([("a", 0.3), ("b", -0.7), ("c", 1.9)]);
        let obs = Observable::pauli_z(2, 0);
        let rho = DensityMatrix::pure_zero(2);
        let grad = engine.gradient(&params, &obs, &rho);
        assert_eq!(grad.len(), 3);
        for (name, value) in &grad {
            let numeric = numeric_derivative(&p, &reg, &params, name, &obs, &rho, 1e-5);
            assert!((value - numeric).abs() < 1e-7, "∂/∂{name}");
        }
    }

    #[test]
    fn gradient_pure_matches_dense() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
        )
        .unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        let params = Params::from_pairs([("a", 0.5), ("b", 1.4)]);
        let obs = Observable::projector_one(2, 1);
        let psi = StateVector::zero_state(2);
        let rho = DensityMatrix::from_pure(&psi);
        let dense = engine.gradient(&params, &obs, &rho);
        let pure = engine.gradient_pure(&params, &obs, &psi);
        for (name, v) in &dense {
            assert!((v - pure[name]).abs() < 1e-10, "∂/∂{name}");
        }
        // Forward values agree too.
        assert!((engine.value(&params, &obs, &rho) - engine.value_pure(&params, &obs, &psi))
            .abs()
            < 1e-10);
    }

    #[test]
    fn derivative_works_for_any_observable_and_state() {
        // Definition 5.3's strong quantifier order: one transformed program
        // serves every (O, ρ) pair.
        let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
        let reg = Register::from_program(&p);
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 0.35)]);
        let observables = [
            Observable::pauli_z(1, 0),
            Observable::projector_one(1, 0),
            Observable::new(1, vec![0], qdp_linalg::Matrix::pauli_x()),
        ];
        let mut plus = StateVector::zero_state(1);
        plus.apply_gate(&qdp_linalg::Matrix::hadamard(), &[0]);
        let states = [
            DensityMatrix::pure_zero(1),
            DensityMatrix::from_pure(&plus),
            DensityMatrix::maximally_mixed(1),
        ];
        for obs in &observables {
            for rho in &states {
                let analytic = diff.derivative(&params, obs, rho);
                let numeric = numeric_derivative(&p, &reg, &params, "t", obs, rho, 1e-5);
                assert!((analytic - numeric).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn batched_engine_apis_match_per_row_paths() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
        )
        .unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        let params = Params::from_pairs([("a", 0.5), ("b", 1.4)]);
        let obs = Observable::projector_one(2, 1);
        let rows: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(2, k)).collect();
        let batch = BatchedStates::from_states(&rows);

        let values = engine.value_pure_batch(&params, &obs, &batch);
        let grads = engine.gradient_pure_batch(&params, &obs, &batch);
        assert_eq!(values.len(), 4);
        assert_eq!(grads.len(), 4);
        for (r, psi) in rows.iter().enumerate() {
            assert!(
                (values[r] - engine.value_pure(&params, &obs, psi)).abs() < 1e-12,
                "row {r} forward"
            );
            let serial = engine.gradient_pure(&params, &obs, psi);
            assert_eq!(grads[r].len(), serial.len());
            for (name, v) in &serial {
                // 1e-12 tolerance, not bit equality: the batched
                // straight-line path fuses commuting rotations, which
                // reorders rounding.
                assert!(
                    (grads[r][name] - v).abs() < 1e-12,
                    "row {r} ∂/∂{name}: batched {} vs serial {v}",
                    grads[r][name]
                );
            }
        }
    }

    #[test]
    fn batched_derivative_matches_per_row_derivative() {
        // Three adjacent rotations on one qubit force genuine 2×2 fusion
        // products in the batched path, so agreement is numerical (1e-12),
        // not bitwise.
        let p = parse_program("q1 *= RX(t); q1 *= RY(u); q1 *= RZ(t)").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 0.35), ("u", 1.21)]);
        let obs = Observable::pauli_z(1, 0);
        let rows = vec![StateVector::zero_state(1), StateVector::basis_state(1, 1)];
        let batch = BatchedStates::from_states(&rows);
        let batched = diff.derivative_pure_batch(&params, &obs, &batch);
        for (r, psi) in rows.iter().enumerate() {
            let serial = diff.derivative_pure(&params, &obs, psi);
            assert!(
                (batched[r] - serial).abs() < 1e-12,
                "row {r}: batched {} vs serial {serial}",
                batched[r]
            );
        }
    }

    #[test]
    fn shot_based_value_and_gradient_track_exact_ones() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
        )
        .unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        let params = Params::from_pairs([("a", 0.5), ("b", 1.4)]);
        let obs = Observable::pauli_z(2, 1);
        let psi = StateVector::zero_state(2);

        let query = Query::value(params.clone(), obs.clone(), Mode::Shots(40_000));
        let value = engine
            .evaluate(&query, &BatchedStates::gather(&[&psi]), &[3])
            .unwrap()
            .remove(0)
            .into_value();
        assert!(
            (value - engine.value_pure(&params, &obs, &psi)).abs() < 0.02,
            "shot value {value}"
        );

        let grad = engine.gradient_pure_shots(&params, &obs, &psi, 60_000, 9);
        let exact = engine.gradient_pure(&params, &obs, &psi);
        assert_eq!(grad.len(), exact.len());
        for (name, v) in &exact {
            assert!(
                (grad[name] - v).abs() < 0.06,
                "∂/∂{name}: shots {} vs exact {v}",
                grad[name]
            );
        }

        // Fixed seed ⇒ bitwise reproducible.
        let again = engine.gradient_pure_shots(&params, &obs, &psi, 60_000, 9);
        for (name, v) in &grad {
            assert_eq!(v.to_bits(), again[name].to_bits(), "∂/∂{name}");
        }
    }

    #[test]
    fn unparameterized_program_has_empty_gradient() {
        let p = parse_program("q1 *= H; q1 *= X").unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        assert_eq!(engine.parameters().count(), 0);
        assert_eq!(engine.total_programs(), 0);
    }

    #[test]
    fn compiled_count_matches_occurrences_for_straightline() {
        // t occurs 3 times in a straight-line program → exactly 3 programs.
        let p = parse_program("q1 *= RX(t); q1 *= RY(t); q1 *= RZ(t)").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        assert_eq!(diff.compiled().len(), 3);
    }

    #[test]
    fn second_derivative_of_single_rotation() {
        // ⟨Z⟩ = cos t ⇒ second derivative is −cos t.
        let p = parse_program("q1 *= RY(t)").unwrap();
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);
        for theta in [0.0, 0.5, 1.9] {
            let params = Params::from_pairs([("t", theta)]);
            let d2 = second_derivative(&p, "t", "t", &params, &obs, &rho).unwrap();
            assert!(
                (d2 + theta.cos()).abs() < 1e-9,
                "θ={theta}: {d2} vs {}",
                -theta.cos()
            );
        }
    }

    #[test]
    fn second_derivative_matches_finite_difference_of_first() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
        )
        .unwrap();
        let obs = Observable::pauli_z(2, 1);
        let rho = DensityMatrix::pure_zero(2);
        let base = Params::from_pairs([("a", 0.7), ("b", -0.3)]);
        for (p1, p2) in [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")] {
            let analytic = second_derivative(&p, p1, p2, &base, &obs, &rho).unwrap();
            // Finite difference of the (exact) first derivative in p1.
            let h = 1e-5;
            let first = differentiate(&p, p1).unwrap();
            let eval = |x: f64| {
                let mut shifted = base.clone();
                shifted.set(p2, x);
                first.derivative(&shifted, &obs, &rho)
            };
            let x0 = base.get(p2).unwrap();
            let numeric = (eval(x0 + h) - eval(x0 - h)) / (2.0 * h);
            assert!(
                (analytic - numeric).abs() < 1e-6,
                "∂²/∂{p2}∂{p1}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        let p = parse_program("q1 *= RX(a); q1 *= RY(b); q1 *= RZ(a)").unwrap();
        let params = Params::from_pairs([("a", 0.4), ("b", 1.2)]);
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);
        let h = hessian(&p, &params, &obs, &rho).unwrap();
        assert_eq!(h.len(), 4);
        let ab = h[&("a".to_string(), "b".to_string())];
        let ba = h[&("b".to_string(), "a".to_string())];
        assert!((ab - ba).abs() < 1e-9, "mixed partials {ab} vs {ba}");
    }

    #[test]
    fn third_derivative_via_manual_nesting() {
        // sanity-check that the iterated controlled gates keep working one
        // level deeper: f = cos t ⇒ f''' = sin t.
        let p = parse_program("q1 *= RY(t)").unwrap();
        let theta = 0.8;
        let params = Params::from_pairs([("t", theta)]);
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);

        let d1 = differentiate(&p, "t").unwrap();
        let mut third = 0.0;
        for p1 in d1.compiled() {
            let d2 = differentiate_in(p1, "t", d1.ext_register()).unwrap();
            let obs1 = obs.with_ancilla_z();
            let rho1 = rho.prepend_zero_ancilla();
            for p2 in d2.compiled() {
                let d3 = differentiate_in(p2, "t", d2.ext_register()).unwrap();
                third += d3.derivative(&params, &obs1.with_ancilla_z(), &rho1.prepend_zero_ancilla());
            }
        }
        assert!((third - theta.sin()).abs() < 1e-9, "{third} vs {}", theta.sin());
    }
}
