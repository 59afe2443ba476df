//! `serve_mix`: open-loop `GradientService` traffic at a fixed rate. Each
//! request is timed from its due time; one that fails, is shed, or takes
//! longer than [`LIMIT_MS`] misses.
//!
//! Requests come in bursts of [`BURST`] consecutive requests that share
//! one kind and one valuation, so requests in flight together can
//! coalesce; the valuation advances every burst. The mix is 50% `P2` exact
//! gradient, 10% `P2` shot gradient at [`SHOTS_PER_PARAM`] shots per
//! parameter, 20% `P1` shift-rule gradient and 20% `P1` value, over two
//! tenants with the default `ServiceConfig`.

use std::collections::BTreeMap;
use std::f64::consts::TAU;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qdp_ad::{GradientService, ProgramHandle, RequestOptions};
use qdp_lang::ast::Params;
use qdp_sim::{BatchedStates, Observable, QdpError, StateVector};
use qdp_vqc::circuits::{p1, p2};
use qdp_vqc::task;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::layers::{self, At, Probed};
use crate::stats::{median, quantile, tail};
use crate::trace::Tracer;
use crate::{around_segments, Args, EndToEnd, Outcome, SEGMENTS};

/// Offered load of the measured phase.
const RATE: f64 = 500.0;
/// Latency limit of a request, from its due time.
const LIMIT_MS: f64 = 10.0;
const BURST: usize = 8;
const SHOTS_PER_PARAM: usize = 64;
/// Cold set-ups per group; `setup_s` is the median of all groups.
const SETUPS_PER_GROUP: usize = 7;
/// Untimed requests before the measured phase (2 s at [`RATE`]).
const WARM_UP_REQUESTS: usize = 1000;
/// Client threads issuing requests: the cap on requests in flight.
const CLIENTS: usize = 32;
/// Rates per octave of the `max_ok_rps` ladder `RATE·2^(k/16)`.
const LADDER_STEPS_PER_OCTAVE: f64 = 16.0;
/// How long the ladder holds each rate.
const RUNG: Duration = Duration::from_secs(2);
/// The ladder spans `RATE·2^(±MAX_RUNG/16)`, searched `STEP` rungs at a
/// time.
const MAX_RUNG: i32 = 48;
const STEP: i32 = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    P2Exact,
    P2Shots,
    P1Shift,
    P1Value,
}

const KINDS: [Kind; 4] = [Kind::P2Exact, Kind::P2Shots, Kind::P1Shift, Kind::P1Value];

/// Burst kinds are dealt from decks of ten, so every 80 requests hold the
/// mix exactly: 5 `P2Exact`, 2 `P1Shift` and 2 `P1Value` in seed-shuffled
/// order, then 1 `P2Shots`.
const MIX: [Kind; 10] = [
    Kind::P2Exact,
    Kind::P2Exact,
    Kind::P2Exact,
    Kind::P2Exact,
    Kind::P2Exact,
    Kind::P1Shift,
    Kind::P1Shift,
    Kind::P1Value,
    Kind::P1Value,
    Kind::P2Shots,
];

struct Request {
    kind: Kind,
    burst: usize,
    input: usize,
    seed: u64,
    /// Checked against a solo engine call after the run.
    sampled: bool,
}

/// The seed's traffic: requests in order, and one valuation per burst.
struct Plan {
    requests: Vec<Request>,
    valuations: Vec<Params>,
}

impl Plan {
    fn new(seed: u64, count: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let p1_names = p1().parameters();
        let p2_names = p2().parameters();
        let mut requests = Vec::with_capacity(count);
        let mut valuations = Vec::new();
        let mut deck = Vec::new();
        for i in 0..count {
            if i % BURST == 0 {
                if deck.is_empty() {
                    deck = MIX.to_vec();
                }
                // The shot burst closes each deck, so shot bursts are evenly
                // spaced whatever the seed.
                let last = deck.len() - 1;
                let kind = deck.remove(if last == 0 { 0 } else { rng.gen_range(0..last) });
                let names = if matches!(kind, Kind::P2Exact | Kind::P2Shots) {
                    &p2_names
                } else {
                    &p1_names
                };
                valuations.push((
                    kind,
                    Params::from_pairs(names.iter().map(|n| (n.clone(), rng.gen_range(0.0..TAU)))),
                ));
            }
            let burst = valuations.len() - 1;
            requests.push(Request {
                kind: valuations[burst].0,
                burst,
                input: rng.gen_range(0..16usize),
                seed: rng.next_u64(),
                sampled: rng.gen_range(0..16usize) == 0,
            });
        }
        Plan {
            requests,
            valuations: valuations.into_iter().map(|(_, p)| p).collect(),
        }
    }
}

/// A request's result.
#[derive(Debug)]
enum Answer {
    Value(f64),
    Gradient(BTreeMap<String, f64>),
}

impl Answer {
    fn bits_equal(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Value(a), Answer::Value(b)) => a.to_bits() == b.to_bits(),
            (Answer::Gradient(a), Answer::Gradient(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .all(|(k, v)| b.get(k).is_some_and(|w| w.to_bits() == v.to_bits()))
            }
            _ => false,
        }
    }
}

/// The service with its two tenants.
struct Served {
    service: GradientService,
    p1: ProgramHandle,
    p2: ProgramHandle,
    obs: Observable,
    inputs: Vec<StateVector>,
}

impl Served {
    fn handle(&self, kind: Kind) -> &ProgramHandle {
        match kind {
            Kind::P2Exact | Kind::P2Shots => &self.p2,
            Kind::P1Shift | Kind::P1Value => &self.p1,
        }
    }

    fn serve(&self, req: &Request, params: &Params) -> Result<Answer, QdpError> {
        let (svc, obs, psi) = (&self.service, &self.obs, &self.inputs[req.input]);
        let opts = RequestOptions::default();
        let h = self.handle(req.kind);
        Ok(match req.kind {
            Kind::P2Exact => Answer::Gradient(svc.gradient_with(h, params, obs, psi, &opts)?),
            Kind::P2Shots => Answer::Gradient(svc.gradient_shots_with(
                h,
                params,
                obs,
                psi,
                SHOTS_PER_PARAM,
                req.seed,
                &opts,
            )?),
            Kind::P1Shift => Answer::Gradient(svc.gradient_shift_with(h, params, obs, psi, &opts)?),
            Kind::P1Value => Answer::Value(svc.expectation_with(h, params, obs, psi, &opts)?),
        })
    }

    /// The same request on the tenant's engine directly, uncoalesced.
    fn solo(&self, req: &Request, params: &Params) -> Answer {
        let engine = self.service.engine(self.handle(req.kind));
        let (obs, psi) = (&self.obs, &self.inputs[req.input]);
        let one = || BatchedStates::gather(&[psi]);
        match req.kind {
            Kind::P2Exact => {
                Answer::Gradient(engine.gradient_pure_batch(params, obs, &one()).remove(0))
            }
            Kind::P2Shots => Answer::Gradient(engine.gradient_pure_shots(
                params,
                obs,
                psi,
                SHOTS_PER_PARAM,
                req.seed,
            )),
            Kind::P1Shift => Answer::Gradient(engine.gradient_pure_shift(params, obs, psi)),
            Kind::P1Value => Answer::Value(engine.value_pure_batch(params, obs, &one())[0]),
        }
    }

    /// Served, swept, shed, expired and failed-leader totals over both
    /// tenants.
    fn counters(&self) -> [usize; 5] {
        let s = &self.service;
        let mut c = [0; 5];
        for h in [&self.p1, &self.p2] {
            c[0] += s.served(h);
            c[1] += s.sweeps(h);
            c[2] += s.shed(h);
            c[3] += s.expired(h);
            c[4] += s.leader_failures(h);
        }
        c
    }
}

/// A cold set-up: service, two registrations, and one warm request of
/// each kind.
fn setup(plan: &Plan) -> Served {
    let service = GradientService::new();
    let p2 = service.register(&p2()).expect("P2 is differentiable");
    let p1 = service.register(&p1()).expect("P1 is differentiable");
    let served = Served {
        service,
        p1,
        p2,
        obs: task::readout_observable(),
        inputs: task::dataset()
            .iter()
            .map(task::Sample::input_state)
            .collect(),
    };
    for kind in KINDS {
        let req = plan
            .requests
            .iter()
            .find(|r| r.kind == kind)
            .expect("every deck deals every kind");
        served
            .serve(req, &plan.valuations[req.burst])
            .expect("an idle service serves the warm request");
    }
    served
}

/// One request as the generator saw it; times in ms from the phase start.
struct Record {
    index: usize,
    due: f64,
    sent: f64,
    done: f64,
    answer: Result<Answer, QdpError>,
}

impl Record {
    /// Latency from the due time, or `None` for a failed request.
    fn latency(&self) -> Option<f64> {
        self.answer.is_ok().then_some(self.done - self.due)
    }
}

/// Sends the `count` requests from index `first` at `rate`, each at its due
/// time, from a pool of [`CLIENTS`] client threads, and waits for all of
/// them. Each client takes the next request in order, so a slow request
/// holds back no other; the generator lags only when every client is busy.
fn traffic(s: &Served, plan: &Plan, rate: f64, first: usize, count: usize) -> Vec<Record> {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let ms = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= first + count {
                            return mine;
                        }
                        let due = start + Duration::from_secs_f64((index - first) as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let req = &plan.requests[index % plan.requests.len()];
                        let answer = s.serve(req, &plan.valuations[req.burst]);
                        let done = Instant::now();
                        mine.push(Record {
                            index,
                            due: ms(due),
                            sent: ms(sent),
                            done: ms(done),
                            answer,
                        });
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

/// A phase's summary: p99 latency with failures as misses, completed rate,
/// and whether the generator's lag grew from the first to the last
/// quarter of the phase.
struct Phase {
    p99_ms: f64,
    ok_rate: f64,
    lag_grew: bool,
}

fn summarize(records: &[Record]) -> Phase {
    let mut lat: Vec<f64> = records
        .iter()
        .map(|r| r.latency().unwrap_or(f64::INFINITY))
        .collect();
    let ok = records.iter().filter(|r| r.answer.is_ok()).count();
    let end = records.iter().map(|r| r.done).fold(0.0, f64::max);
    let quarter = records.len() / 4;
    let lag = |rs: &[Record]| median(&mut rs.iter().map(|r| r.sent - r.due).collect::<Vec<_>>());
    let first = lag(&records[..quarter]);
    let last = lag(&records[records.len() - quarter..]);
    Phase {
        p99_ms: quantile(&mut lat, 0.99),
        ok_rate: ok as f64 / (end / 1e3),
        lag_grew: last - first > 1.0,
    }
}

/// The highest completed rate on the ladder `RATE·2^(k/16)` that meets the
/// latency limit at p99 without a growing generator lag, or 0 when no
/// rate down to `RATE/8` does. Steps half an octave at a time from `RATE`
/// (up while it passes, down while it misses), then bisects the last
/// bracket down to one rung.
fn max_ok_rps(s: &Served, plan: &Plan) -> f64 {
    let rung = |k: i32| {
        let rate = RATE * 2f64.powf(f64::from(k) / LADDER_STEPS_PER_OCTAVE);
        let phase = summarize(&traffic(
            s,
            plan,
            rate,
            0,
            (rate * RUNG.as_secs_f64()) as usize,
        ));
        println!(
            "ladder {rate:>9.2} req/s: p99 {:>8.3} ms, completed {:>9.2} req/s, lag {}",
            phase.p99_ms,
            phase.ok_rate,
            if phase.lag_grew { "grew" } else { "steady" }
        );
        let ok = phase.p99_ms <= LIMIT_MS && !phase.lag_grew;
        ok.then_some(phase.ok_rate)
    };
    // Rung `good` passes with completed rate `best`; rung `bad` misses.
    let (mut good, mut bad, mut best);
    if let Some(rate) = rung(0) {
        (good, best) = (0, rate);
        loop {
            let k = good + STEP;
            match rung(k) {
                Some(rate) if k >= MAX_RUNG => return rate,
                Some(rate) => (good, best) = (k, rate),
                None => {
                    bad = k;
                    break;
                }
            }
        }
    } else {
        bad = 0;
        loop {
            let k = bad - STEP;
            if let Some(rate) = rung(k) {
                (good, best) = (k, rate);
                break;
            }
            if k <= -MAX_RUNG {
                return 0.0;
            }
            bad = k;
        }
    }
    while bad - good > 1 {
        let k = (good + bad) / 2;
        match rung(k) {
            Some(rate) => (good, best) = (k, rate),
            None => bad = k,
        }
    }
    best
}

/// Checks every sampled served result against a solo engine call, bit
/// for bit, and counts requests that failed.
fn check_records(s: &Served, plan: &Plan, records: &[Record], out: &mut Outcome) {
    for r in records {
        let req = &plan.requests[r.index % plan.requests.len()];
        match &r.answer {
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                println!("request {} failed: {e}", r.index);
            }
            Ok(answer) if req.sampled => {
                let solo = s.solo(req, &plan.valuations[req.burst]);
                out.check(
                    answer.bits_equal(&solo),
                    &format!(
                        "request {} ({:?}) differs from its solo run",
                        r.index, req.kind
                    ),
                );
            }
            Ok(_) => out.attempted += 1,
        }
    }
}

fn check_resources(s: &Served, out: &mut Outcome) {
    for (name, program, handle) in [("P1", p1(), &s.p1), ("P2", p2(), &s.p2)] {
        let r = layers::resources(&program, &s.service.engine(handle));
        out.check(
            r.bound_holds,
            &format!("Proposition 7.2 (|#d| <= OC) on {name}"),
        );
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let count = (RATE * args.seconds.as_secs_f64()) as usize;
    // The warm-up requests follow the measured ones in the plan.
    let plan = Plan::new(args.seed, count + WARM_UP_REQUESTS);
    if args.trace {
        traced(args, &plan, &mut out);
        return out;
    }
    // Each segment starts its schedule afresh once the set-ups between
    // segments are done.
    let per_segment = count / SEGMENTS as usize;
    let mut records = Vec::new();
    let mut traffic_s = 0.0;
    let (setup_s, served) = around_segments(
        SETUPS_PER_GROUP,
        || setup(&plan),
        |served, k| {
            if k == 0 {
                traffic(served, &plan, RATE, count, WARM_UP_REQUESTS);
            }
            let segment = traffic(served, &plan, RATE, k as usize * per_segment, per_segment);
            traffic_s += segment.iter().map(|r| r.done).fold(0.0, f64::max) / 1e3;
            records.extend(segment);
        },
    );
    check_resources(&served, &mut out);
    check_records(&served, &plan, &records, &mut out);
    let op_ms: Vec<f64> = records.iter().filter_map(Record::latency).collect();
    let ok = op_ms.iter().filter(|&&l| l <= LIMIT_MS).count();
    let throughput = op_ms.len() as f64 / traffic_s;
    println!(
        "phase {RATE} req/s: sent {}, within {LIMIT_MS} ms {ok}, p99 {:.3} ms",
        records.len(),
        summarize(&records).p99_ms
    );
    // An open loop completes what it offers until the service falls far
    // behind, so the throughput reads the offered rate; `op_p50_ms` and
    // `ok_frac` are the metrics that see a slower service.
    out.metrics = EndToEnd {
        setup_s,
        op_ms,
        throughput,
        ok_frac: ok as f64 / records.len() as f64,
        // Latency from the due time is not the work of the one thread the
        // host-speed unit can be timed on; scaled by it, the runs' spread
        // widened (IQR/median of the p50 0.07 -> 0.40).
        slowdown: None,
    }
    .metrics();
    out
}

fn traced(args: &Args, plan: &Plan, out: &mut Outcome) {
    let count = (RATE * (args.seconds / 3).as_secs_f64()) as usize;
    let shots_per_p2 = (SHOTS_PER_PARAM * p2().parameters().len()) as f64;
    // The engine and simulator layers are probed on one P2 exact request
    // and one P1 value request.
    let probe_of = |kind: Kind| {
        plan.requests
            .iter()
            .find(|r| r.kind == kind)
            .expect("every deck deals every kind")
    };
    let probe = probe_of(Kind::P2Exact);
    let probe_params = &plan.valuations[probe.burst];
    let p1_params = &plan.valuations[probe_of(Kind::P1Value).burst];
    layers::traced(
        "serve_mix",
        out,
        || setup(plan),
        |served, out, lv| {
            check_resources(served, out);
            let p2_engine = served.service.engine(&served.p2);
            let p1_engine = served.service.engine(&served.p1);
            let rp1 = layers::resources(&p1(), &p1_engine);
            let rp2 = layers::resources(&p2(), &p2_engine);
            lv.once("core.programs_per_gradient", rp2.programs as f64);
            lv.once("core.oc", (rp1.oc + rp2.oc) as f64);
            // Per request of the mix: the static counts of the programs
            // each kind runs, weighted by the kind's share.
            let p2_derivs = layers::derivative_programs(&p2_engine);
            let (p2_gates, p2_cases) = layers::static_counts(&p2_derivs);
            let (p1_gates, _) = layers::static_counts(&[p1_engine.program()]);
            let p1_param_count = p1_engine.parameters().count() as f64;
            lv.once(
                "sim.kernel.passes_per_op",
                0.6 * p2_gates as f64
                    + 0.2 * 2.0 * p1_param_count * p1_gates as f64
                    + 0.2 * p1_gates as f64,
            );
            lv.once("sim.measure.forks_per_op", 0.6 * p2_cases as f64);
            // Exact P2 gradients resolve every derivative program; shot
            // gradients patch every trajectory skeleton. P1 is straight-line.
            lv.once(
                "core.lowered.materialised_per_op",
                0.5 * p2_derivs.len() as f64,
            );
            let skeletons = layers::skeletons(&p2_engine);
            lv.once(
                "core.skeleton.patches_per_op",
                0.1 * layers::trajectories_per_gradient(&skeletons) as f64,
            );
            lv.once("sim.sampling.shots_per_op", 0.1 * shots_per_p2);
        },
        |served, at, out, lv| {
            let threads = qdp_par::max_threads();
            let c0 = served.counters();
            let records = traffic(served, plan, RATE, 0, count);
            let c1 = served.counters();
            check_records(served, plan, &records, out);
            // Solo engine time per kind, from the same requests replayed.
            let mut solo_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for r in records.iter().take(400) {
                let req = &plan.requests[r.index % plan.requests.len()];
                let kind = req.kind as usize;
                if solo_ms.get(&kind).map_or(0, Vec::len) < 12 {
                    let (_, ns) = layers::time_ns(|| served.solo(req, &plan.valuations[req.burst]));
                    solo_ms.entry(kind).or_default().push(ns / 1e6);
                }
            }
            let solo: BTreeMap<usize, f64> = solo_ms
                .into_iter()
                .map(|(k, mut v)| (k, median(&mut v)))
                .collect();
            for (k, ms) in &solo {
                println!(
                    "solo engine time, {threads} thread(s), {:?}: {ms:.3} ms",
                    KINDS[*k]
                );
            }
            let mut wait: Vec<f64> = records
                .iter()
                .filter(|r| r.answer.is_ok())
                .map(|r| {
                    let kind = plan.requests[r.index % plan.requests.len()].kind as usize;
                    (r.done - r.sent) - solo.get(&kind).copied().unwrap_or(0.0)
                })
                .collect();
            lv.at("service.queue_wait_ms.p50", at, quantile(&mut wait, 0.5));
            lv.at("service.queue_wait_ms.p99", at, quantile(&mut wait, 0.99));
            lv.at(
                "service.group_size",
                at,
                (c1[0] - c0[0]) as f64 / (c1[1] - c0[1]).max(1) as f64,
            );
            lv.at("service.shed", at, (c1[2] - c0[2]) as f64);
            lv.at("service.expired", at, (c1[3] - c0[3]) as f64);
            lv.at("service.leader_failures", at, (c1[4] - c0[4]) as f64);
            let mut latency: Vec<f64> = records.iter().filter_map(Record::latency).collect();
            lv.at("op_tail_ms", at, tail(&mut latency).value);
            let mut lag: Vec<f64> = records.iter().map(|r| r.sent - r.due).collect();
            lv.at("bench.gen_lag_ms.p99", at, quantile(&mut lag, 0.99));
            let mut service_ms: Vec<f64> = records.iter().map(|r| r.done - r.sent).collect();

            let p2_engine = served.service.engine(&served.p2);
            let p1_engine = served.service.engine(&served.p1);
            let skeletons = layers::skeletons(&p2_engine);
            let probe_psi = &served.inputs[probe.input];
            let probe_batch = BatchedStates::gather(&[probe_psi]);
            let ext_batch = probe_batch.prepend_zero_ancilla();
            let ext_obs = served.obs.with_ancilla_z();
            let p1_batch = BatchedStates::gather(&[&served.inputs[0]]);
            let sets = layers::valued(&skeletons, probe_params);
            let mut tr = Tracer::default();
            for i in 0..20 {
                let (grad, g) = tr.span("core.engine.gradient", None, || {
                    p2_engine.gradient_pure_batch(probe_params, &served.obs, &probe_batch)
                });
                let (replayed, _) = tr.span("core.lowered.fanout", Some(g), || {
                    layers::batch_fanout(&sets, &ext_batch, &ext_obs)
                });
                if i == 0 {
                    out.check(
                        layers::replay_matches(&replayed, &grad),
                        "the replayed gradient fan-out differs from the engine's",
                    );
                }
                tr.span("core.engine.value", None, || {
                    p1_engine.value_pure_batch(p1_params, &served.obs, &p1_batch)
                });
            }
            let ms = |name: &str| median(&mut tr.self_times(name)) / 1e6;
            lv.at("core.engine.gradient_ms", at, ms("core.engine.gradient"));
            lv.at("core.engine.value_ms", at, ms("core.engine.value"));
            let mut shots_ns: Vec<f64> = (0..5)
                .map(|seed| {
                    layers::time_ns(|| {
                        p2_engine.gradient_pure_shots(
                            probe_params,
                            &served.obs,
                            probe_psi,
                            SHOTS_PER_PARAM,
                            seed,
                        )
                    })
                    .1
                })
                .collect();
            lv.at(
                "sim.sampling.shots_per_s",
                at,
                shots_per_p2 / (median(&mut shots_ns) / 1e9),
            );
            let kernel_pass_ns =
                layers::kernel_layers(&p2_engine, probe_params, &probe_batch, 15, at, lv);
            layers::measure_layers(&p2_engine, &probe_batch, 300, at, lv);
            let sweep_ns =
                layers::sweep_layers(&skeletons, probe_params, &served.obs, &probe_batch, at, lv);
            layers::patch_layer(&skeletons, probe_params, at, lv);
            if matches!(at, At::N) {
                lv.once("max_ok_rps", max_ok_rps(served, plan));
            }
            Probed {
                kernel_pass_ns,
                sweep_ns: Some(sweep_ns),
                gradient_ns: median(&mut tr.durations("core.engine.gradient")),
                // One span per request around the service call.
                spans_per_op: 1.0,
                op_ns: median(&mut service_ms) * 1e6,
            }
        },
    );
}
