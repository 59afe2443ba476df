//! Timing of the Section 7 shot-noise execution paths: one derivative
//! estimate of a P1 parameter at a fixed shot budget, serial per-shot AST
//! loop vs the batched `ShotEngine` sweeps, plus the shot-based forward
//! value.

use criterion::{criterion_group, criterion_main, Criterion};
use qdp_ad::estimator::{estimate_derivative, estimate_derivative_batched};
use qdp_ad::{GradientEngine, Mode, Query};
use qdp_lang::ast::Params;
use qdp_sim::{BatchedStates, ShotSampler, StateVector};
use qdp_vqc::circuits::p1;
use qdp_vqc::task;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator_shots");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));

    let program = p1();
    let engine = GradientEngine::new(&program).expect("P1 differentiable");
    let param_values: BTreeMap<String, f64> = program
        .parameters()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, 0.2 + 0.31 * i as f64))
        .collect();
    let params = Params::from_pairs(param_values.iter().map(|(k, &v)| (k.clone(), v)));
    let obs = task::readout_observable();
    let psi = StateVector::from_bits(&[true, false, true, false]);
    let name = engine.parameters().next().expect("P1 has parameters").to_string();
    let diff = engine.differentiated(&name).expect("cached artifact");
    let shots = 4096usize;

    group.bench_function("serial per-shot loop (4096 shots, 1 param)", |b| {
        b.iter(|| {
            let mut sampler = ShotSampler::seeded(7);
            black_box(estimate_derivative(
                diff, &params, &obs, &psi, shots, &mut sampler,
            ))
        })
    });
    group.bench_function("batched ShotEngine (4096 shots, 1 param)", |b| {
        b.iter(|| {
            black_box(estimate_derivative_batched(
                diff, &params, &obs, &psi, shots, 7,
            ))
        })
    });
    let forward = Query::value(params.clone(), obs.clone(), Mode::Shots(shots));
    let row = BatchedStates::gather(&[&psi]);
    group.bench_function("shot-based forward value (4096 shots)", |b| {
        b.iter(|| black_box(engine.evaluate(&forward, &row, &[7])))
    });
    group.finish();
}

criterion_group!(benches, bench_estimator);
criterion_main!(benches);
