//! Host fingerprint, host speed and peak resident memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What a record was measured on: CPU model, active SIMD tier, thread
/// budget, per-core L2 size and the `QDP_PAR_THREADS` override.
pub fn fingerprint() -> String {
    format!(
        "host: cpu=\"{}\" simd={:?} nproc={} l2_per_core_kib={} QDP_PAR_THREADS={}",
        cpu_model(),
        qdp_sim::simd::active_tier(),
        nproc(),
        l2_kib().map_or_else(|| "unknown".to_string(), |k| k.to_string()),
        std::env::var("QDP_PAR_THREADS").unwrap_or_else(|_| "unset".to_string()),
    )
}

/// The hardware thread budget the workloads run at: the `qdp_par`
/// detection, which honours `QDP_PAR_THREADS`.
pub fn nproc() -> usize {
    qdp_par::max_threads()
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

#[cfg(target_arch = "x86_64")]
fn l2_kib() -> Option<u32> {
    use std::arch::x86_64::__cpuid;
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0006 {
        return None;
    }
    let kib = __cpuid(0x8000_0006).ecx >> 16;
    (kib > 0).then_some(kib)
}

#[cfg(not(target_arch = "x86_64"))]
fn l2_kib() -> Option<u32> {
    None
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}

/// Median nanoseconds of [`reference_unit`] on the host the benchmark was
/// defined on (a shared 2-vCPU Intel Xeon AVX-512 VM, typical load).
const REFERENCE_UNIT_NS: f64 = 180_000.0;

/// A fixed unit of work that stands for the host's speed: the parameter-map
/// and buffer churn of an engine call, written here so that no change to
/// the workspace crates changes it. The speed of a shared host drifts by a
/// third between runs minutes apart, and this unit, timed on the thread
/// that runs the ops, drifts with it: over ten `train_p2` runs at 1 thread
/// the IQR/median of the throughput fell from 0.147 measured to 0.047
/// scaled, of the p50 from 0.079 to 0.030.
fn reference_unit() -> f64 {
    let mut acc = 0.0;
    for round in 0..20 {
        let params: BTreeMap<String, f64> = (0..36)
            .map(|i| (format!("theta_{i}"), f64::from(i + round)))
            .collect();
        let buffers: Vec<Vec<f64>> = params.values().map(|&x| vec![x; 64]).collect();
        acc += buffers.iter().map(|b| b[3]).sum::<f64>();
    }
    acc
}

/// Timings of [`reference_unit`] taken between a run's ops, on the thread
/// that runs them.
#[derive(Default)]
pub struct HostSpeed {
    ns: Vec<f64>,
}

impl HostSpeed {
    /// Times one reference unit.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(reference_unit());
        self.ns.push(start.elapsed().as_nanos() as f64);
    }

    /// How many times slower than the reference host this run's host
    /// was: the median reference unit over [`REFERENCE_UNIT_NS`].
    pub fn slowdown(&self) -> f64 {
        median(&mut self.ns.clone()) / REFERENCE_UNIT_NS
    }
}
