//! The workspace benchmark: three workloads, end-to-end metrics, and a
//! traced run that reports each layer at 1 thread and at nproc threads.
//!
//! ```text
//! cargo run --release --offline --manifest-path qdpbench/Cargo.toml -- \
//!     --workload <train_p2|vqe_wide|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures every end-to-end metric; with
//! `--trace 1` it records the per-layer table instead. Both runs check the
//! workload's outputs. The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod host;
mod layers;
mod serve_mix;
mod stats;
mod trace;
mod train_p2;
mod vqe_wide;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use qdp_ad::ProgramCache;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted, checks included.
    pub attempted: u64,
    /// Ops that failed, were shed, or returned a wrong result.
    pub failed: u64,
    /// Ops whose output failed a check.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one checked op.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            println!("CHECK FAILED: {what}");
        }
    }
}

/// Window of a closed loop's `throughput_ops_s` (see
/// [`stats::windowed_rate`]).
pub const RATE_WINDOW_MS: f64 = 1000.0;

/// Timings of an end-to-end run.
pub struct EndToEnd {
    /// Seconds per cold set-up, one entry per repetition.
    pub setup_s: Vec<f64>,
    /// Milliseconds per op (for `serve_mix`, per request from its due
    /// time).
    pub op_ms: Vec<f64>,
    /// Completed ops per second (closed loops: the median 1 s window).
    pub throughput: f64,
    /// Share of ops that succeeded (within the latency limit, if any).
    pub ok_frac: f64,
    /// The run's [`HostSpeed::slowdown`] when the workload's figures are
    /// reported at the reference host speed; `None` reports them as
    /// measured.
    pub slowdown: Option<f64>,
}

impl EndToEnd {
    /// Prints the end-to-end lines and returns the metrics. With a
    /// `slowdown`, times are divided by it and the throughput multiplied;
    /// the lines print both figures. The tail is printed but not returned:
    /// its run-to-run spread on a shared 2-core host is wider than any
    /// bound a metric may carry, so the traced run records it as the
    /// ungated per-layer `op_tail_ms`.
    pub fn metrics(mut self) -> Vec<Metric> {
        let slow = self.slowdown.unwrap_or(1.0);
        let reps = self.setup_s.len();
        let setup = stats::median(&mut self.setup_s);
        let (lo, hi) = (self.setup_s[0], self.setup_s[reps - 1]);
        let n = self.op_ms.len();
        let p50 = stats::median(&mut self.op_ms);
        let tail = stats::tail(&mut self.op_ms);
        let throughput = self.throughput * slow;
        // "measured -> at reference speed" when scaled.
        let fig = |measured: f64, reported: f64| match self.slowdown {
            Some(_) => format!("{measured:.6} -> {reported:.6}"),
            None => format!("{measured:.6}"),
        };
        if self.slowdown.is_some() {
            println!("host slowdown    {slow:.4}x");
        }
        println!(
            "setup_s          {} s (median of {reps} cold set-ups, {lo:.6}..{hi:.6})",
            fig(setup, setup / slow)
        );
        println!(
            "throughput_ops_s {} ops/s",
            fig(self.throughput, throughput)
        );
        println!("op_p50_ms        {} ms (p50, n={n})", fig(p50, p50 / slow));
        println!(
            "op_tail_ms       {:.6} ms ({}, n={}, {} samples beyond)",
            tail.value, tail.label, tail.n, tail.beyond
        );
        println!("ok_frac          {:.6}", self.ok_frac);
        let rss = host::peak_rss_mib();
        println!("peak_rss_mib     {rss:.3} MiB");
        vec![
            ("setup_s".into(), setup / slow, "s"),
            ("throughput_ops_s".into(), throughput, "1/s"),
            ("op_p50_ms".into(), p50 / slow, "ms"),
            ("peak_rss_mib".into(), rss, "MiB"),
            ("ok_frac".into(), self.ok_frac, "frac"),
        ]
    }
}

/// Runs `setup` `reps` times, each from an empty program cache so every
/// repetition pays the cold lowering a fresh process pays; returns the
/// seconds per repetition and the last result.
pub fn cold_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        flush_program_cache();
        drop(last.take());
        let (value, ns) = layers::time_ns(&mut setup);
        times.push(ns / 1e9);
        last = Some(value);
    }
    (times, last.expect("at least one set-up repetition"))
}

/// Segments an end-to-end run's measured phase is cut into. The host's
/// speed shifts over seconds, so a group of cold set-ups runs before the
/// first segment and after each one: `setup_s` samples the whole run, not
/// one moment of it.
pub const SEGMENTS: u32 = 5;

/// Runs `SEGMENTS + 1` groups of `per_group` cold set-ups around the
/// segments of a measured phase; `segment(w, k)` runs segment `k` on the
/// workload the first group built. Returns the seconds per set-up and the
/// workload.
pub fn around_segments<T>(
    per_group: usize,
    mut setup: impl FnMut() -> T,
    mut segment: impl FnMut(&mut T, u32),
) -> (Vec<f64>, T) {
    let (mut setup_s, mut w) = cold_setups(per_group, &mut setup);
    for k in 0..SEGMENTS {
        segment(&mut w, k);
        setup_s.extend(cold_setups(per_group, &mut setup).0);
    }
    (setup_s, w)
}

/// Evicts every interned program, keeping the configured bound.
pub fn flush_program_cache() {
    let cache = ProgramCache::global();
    let capacity = cache.counters().capacity;
    cache.set_capacity(Some(0));
    cache.set_capacity(capacity);
}

/// Runs `f` with the `qdp_par` thread budget forced to `threads`, then
/// restores the detected budget.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    qdp_par::set_max_threads(threads);
    let out = f();
    qdp_par::set_max_threads(0);
    out
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 || seconds > 60 {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs(seconds),
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qdp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::fingerprint());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    let outcome = match args.workload.as_str() {
        "train_p2" => train_p2::run(&args),
        "vqe_wide" => vqe_wide::run(&args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("qdp-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut json = String::new();
    for (name, value, unit) in &outcome.metrics {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if json.is_empty() { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
