//! # qdp-par
//!
//! Minimal deterministic fork-join parallelism built on [`std::thread::scope`].
//!
//! The build environment for this workspace is fully offline, so `rayon` is
//! not available; this crate provides the small subset the simulator and the
//! gradient engine need:
//!
//! * [`par_map`] — order-preserving parallel map over a slice,
//! * [`par_chunks_mut`] — parallel iteration over disjoint contiguous chunks
//!   of a mutable slice (each callback also receives the chunk's offset),
//! * [`max_threads`] / [`set_max_threads`] — the global worker budget.
//!
//! **Determinism.** Results are always assembled in input order and any
//! reductions are performed by the caller over that ordered output, so a
//! computation produces bit-identical results regardless of how many threads
//! actually ran — including the degenerate single-thread case. The test suite
//! of `qdp-ad` relies on this.
//!
//! **Nesting.** A global token budget caps the number of *extra* worker
//! threads alive at any instant. Nested calls (e.g. a parallel gradient whose
//! per-parameter work parallelises gate application) degrade gracefully to
//! sequential execution instead of oversubscribing the machine.
//!
//! **Environment override.** The `QDP_PAR_THREADS` environment variable,
//! when set to a positive integer, fixes the detected parallelism for the
//! whole process (it is read once, on first use). CI uses it to run the
//! entire test suite under forced 1- and 8-thread configurations so that
//! any result depending on the thread count fails loudly. A runtime
//! [`set_max_threads`] call still takes precedence; `set_max_threads(0)`
//! falls back to the environment value (or hardware detection when the
//! variable is unset or invalid).
//!
//! **Panic isolation.** Every item of a parallel map runs under
//! [`std::panic::catch_unwind`], so a panicking tile never tears down the
//! process by itself. [`try_par_map_retry`] surfaces the failure as a
//! typed [`TileError`] naming the lowest failing item index (deterministic
//! under any thread interleaving) after re-running failed items a bounded
//! number of times — valid because tiles are pure and order-invariant by
//! contract, so a retry is bit-identical to a first-try success. [`par_map`]
//! keeps its infallible signature by re-raising the original panic message
//! on the calling thread, which also makes panic propagation identical
//! between the sequential fallback and the threaded path.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global budget of extra worker threads (beyond the calling thread).
static TOKENS: OnceLock<AtomicUsize> = OnceLock::new();
/// Optional override of the detected parallelism (0 = auto-detect).
static MAX_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Cached effective parallelism — the `QDP_PAR_THREADS` environment
/// variable when set to a positive integer, hardware detection otherwise.
/// Cached because `available_parallelism()` is a syscall and this is
/// queried on every kernel invocation.
static DETECTED: OnceLock<usize> = OnceLock::new();

fn tokens() -> &'static AtomicUsize {
    TOKENS.get_or_init(|| AtomicUsize::new(detected_parallelism().saturating_sub(1)))
}

fn detected_parallelism() -> usize {
    let over = MAX_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    *DETECTED.get_or_init(|| {
        std::env::var("QDP_PAR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The number of threads a top-level parallel call may use (including the
/// calling thread itself).
pub fn max_threads() -> usize {
    detected_parallelism()
}

/// Overrides the detected hardware parallelism (useful in tests; pass 1 to
/// force sequential execution globally, 0 to restore auto-detection).
///
/// Resets the worker budget to the new effective parallelism; callers must
/// be quiesced (no parallel call in flight) when switching.
pub fn set_max_threads(n: usize) {
    MAX_OVERRIDE.store(n, Ordering::Relaxed);
    let effective = detected_parallelism();
    if let Some(t) = TOKENS.get() {
        t.store(effective.saturating_sub(1), Ordering::Relaxed);
    }
}

/// Tries to reserve up to `want` extra worker threads from the global budget;
/// returns how many were actually granted (possibly zero).
fn acquire(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let t = tokens();
    let mut cur = t.load(Ordering::Relaxed);
    loop {
        let grant = want.min(cur);
        if grant == 0 {
            return 0;
        }
        match t.compare_exchange_weak(cur, cur - grant, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return grant,
            Err(now) => cur = now,
        }
    }
}

fn release(n: usize) {
    if n > 0 {
        tokens().fetch_add(n, Ordering::AcqRel);
    }
}

/// Returns acquired tokens even if the parallel region unwinds (a panicking
/// worker must not permanently drain the global budget).
struct TokenGuard(usize);

impl Drop for TokenGuard {
    fn drop(&mut self) {
        release(self.0);
    }
}

/// A tile (one item of a parallel map) that panicked instead of returning.
///
/// `index` is the item's position in the input slice — by the determinism
/// contract it identifies the same work under any thread count — and
/// `message` carries the original panic payload when it was a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileError {
    /// Index of the failing item in the input slice. When several tiles
    /// fail, the lowest index is reported (deterministic under any
    /// interleaving).
    pub index: usize,
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker tile {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TileError {}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The shared fan-out core: order-preserving map with every item call
/// isolated under `catch_unwind`. Worker threads can therefore never
/// panic through `f`; a `join` error is re-raised verbatim (it can only
/// mean a panic outside the guarded call, e.g. allocator failure).
fn map_isolated<T, R, F>(items: &[T], f: &F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let call = |x: &T| catch_unwind(AssertUnwindSafe(|| f(x))).map_err(panic_message);
    let n = items.len();
    let extra = if n < 2 { 0 } else { acquire((n - 1).min(max_threads().saturating_sub(1))) };
    if extra == 0 {
        return items.iter().map(call).collect();
    }
    let _guard = TokenGuard(extra);
    let workers = extra + 1;
    let chunk = n.div_ceil(workers);
    let call = &call;
    let parts: Vec<&[T]> = items.chunks(chunk).collect();
    let mut results: Vec<Vec<Result<R, String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = parts[1..]
            .iter()
            .map(|&part| s.spawn(move || part.iter().map(call).collect::<Vec<_>>()))
            .collect();
        let first: Vec<Result<R, String>> = parts[0].iter().map(call).collect();
        let mut all = vec![first];
        for h in handles {
            all.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        all
    });
    let mut out = Vec::with_capacity(n);
    for part in &mut results {
        out.append(part);
    }
    out
}

/// Flattens per-item results into the first (lowest-index) failure, if any.
fn collect_tiles<R>(results: Vec<Result<R, String>>) -> Result<Vec<R>, TileError> {
    let mut out = Vec::with_capacity(results.len());
    let mut first_err: Option<TileError> = None;
    for (index, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => out.push(v),
            Err(message) => {
                if first_err.is_none() {
                    first_err = Some(TileError { index, message });
                }
            }
        }
    }
    match first_err {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Splits `items` into contiguous runs, maps each run on its own scoped
/// thread, and concatenates the per-run outputs in order. Falls back to a
/// plain sequential map when `items` is small or the thread budget is
/// exhausted.
///
/// # Panics
///
/// A panicking item re-raises its original panic message on the calling
/// thread after every other item has completed — identical behaviour to
/// the sequential fallback modulo the completion of later items. Use
/// [`try_par_map_retry`] to receive a [`TileError`] instead.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match collect_tiles(map_isolated(items, &f)) {
        Ok(out) => out,
        Err(e) => panic!("{}", e.message),
    }
}

/// Fallible order-preserving parallel map: like [`par_map`], but a
/// panicking item surfaces as `Err(TileError)` — naming the lowest failing
/// item index — instead of tearing down the calling thread. All items run
/// to completion before the error is reported, so the global thread budget
/// is fully restored on return.
///
/// Items that panicked are re-run sequentially on the calling thread, in
/// index order, up to `max_retries` additional attempts each
/// (`max_retries = 0` reports the first failure as is).
///
/// Retrying is sound because map items are pure functions of their input
/// by the crate's determinism contract — a successful retry returns the
/// same bits a first-try success would have, so transient faults (a
/// poisoned scratch buffer, an injected test fault) heal without
/// observable effect. Items that still fail after the budget surface as
/// the lowest-index [`TileError`].
pub fn try_par_map_retry<T, R, F>(items: &[T], f: F, max_retries: usize) -> Result<Vec<R>, TileError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = map_isolated(items, &f);
    for _ in 0..max_retries {
        if results.iter().all(Result::is_ok) {
            break;
        }
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_err() {
                *slot = catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(panic_message);
            }
        }
    }
    collect_tiles(results)
}

/// Parallel iteration over disjoint contiguous chunks of `data`.
///
/// `f(offset, chunk)` is invoked once per chunk, where `offset` is the index
/// of the chunk's first element in `data`. Chunk boundaries are aligned to
/// multiples of `align` elements (pass 1 for no constraint) so kernels can
/// guarantee that index orbits never cross a boundary. Runs sequentially when
/// the slice is short or no worker threads are available.
pub fn par_chunks_mut<T, F>(data: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let align = align.max(1);
    let max_chunks = n / align;
    let extra = if max_chunks < 2 {
        0
    } else {
        acquire((max_chunks - 1).min(max_threads().saturating_sub(1)))
    };
    if extra == 0 {
        f(0, data);
        return;
    }
    let _guard = TokenGuard(extra);
    let workers = extra + 1;
    // Round the chunk length up to a multiple of `align`.
    let chunk = n.div_ceil(workers).div_ceil(align) * align;
    let f = &f;
    let first_err = std::thread::scope(|s| {
        let mut offset = 0usize;
        let mut rest = data;
        let mut handles = Vec::with_capacity(workers);
        while rest.len() > chunk {
            let (head, tail) = rest.split_at_mut(chunk);
            let off = offset;
            handles.push(s.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| f(off, head))).map_err(panic_message)
            }));
            offset += chunk;
            rest = tail;
        }
        let own = if rest.is_empty() {
            Ok(())
        } else {
            catch_unwind(AssertUnwindSafe(|| f(offset, rest))).map_err(panic_message)
        };
        // Join every worker before deciding the outcome so a panic never
        // leaves chunks half-processed behind the caller's back; report
        // the lowest-offset failure (spawn order) deterministically.
        let mut first_err: Option<String> = None;
        for h in handles {
            if let Err(msg) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                if first_err.is_none() {
                    first_err = Some(msg);
                }
            }
        }
        first_err.or(own.err())
    });
    if let Some(msg) = first_err {
        panic!("{msg}");
    }
}

/// Parallel iteration over two equal-length mutable slices split at the same
/// points: `f(a_chunk, b_chunk)` sees corresponding chunks. Used by kernels
/// whose index orbits pair element `i` of one half with element `i` of the
/// other (e.g. a gate on the top bit).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn par_zip_chunks_mut<T, F>(a: &mut [T], b: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut [T], &mut [T]) + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped slices must have equal lengths");
    let n = a.len();
    let extra = if n < 2 {
        0
    } else {
        acquire((n - 1).min(max_threads().saturating_sub(1)))
    };
    if extra == 0 {
        f(a, b);
        return;
    }
    let _guard = TokenGuard(extra);
    let workers = extra + 1;
    let chunk = n.div_ceil(workers);
    let f = &f;
    let first_err = std::thread::scope(|s| {
        let mut rest_a = a;
        let mut rest_b = b;
        let mut handles = Vec::with_capacity(workers);
        while rest_a.len() > chunk {
            let (head_a, tail_a) = rest_a.split_at_mut(chunk);
            let (head_b, tail_b) = rest_b.split_at_mut(chunk);
            handles.push(s.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| f(head_a, head_b))).map_err(panic_message)
            }));
            rest_a = tail_a;
            rest_b = tail_b;
        }
        let own = if rest_a.is_empty() {
            Ok(())
        } else {
            catch_unwind(AssertUnwindSafe(|| f(rest_a, rest_b))).map_err(panic_message)
        };
        let mut first_err: Option<String> = None;
        for h in handles {
            if let Err(msg) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                if first_err.is_none() {
                    first_err = Some(msg);
                }
            }
        }
        first_err.or(own.err())
    });
    if let Some(msg) = first_err {
        panic!("{msg}");
    }
}

/// Parallel iteration over two equal-length mutable slices split at the
/// same aligned points: `f(offset, a_chunk, b_chunk)` sees corresponding
/// chunks of both slices, with `offset` the index of the chunks' first
/// element. The split-plane kernels use this to walk the `re` and `im`
/// planes of a state in lockstep; `align` keeps index orbits inside one
/// chunk exactly as in [`par_chunks_mut`].
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn par_chunks2_mut<T, F>(a: &mut [T], b: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T]) + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped slices must have equal lengths");
    let n = a.len();
    let align = align.max(1);
    let max_chunks = n / align;
    let extra = if max_chunks < 2 {
        0
    } else {
        acquire((max_chunks - 1).min(max_threads().saturating_sub(1)))
    };
    if extra == 0 {
        f(0, a, b);
        return;
    }
    let _guard = TokenGuard(extra);
    let workers = extra + 1;
    let chunk = n.div_ceil(workers).div_ceil(align) * align;
    let f = &f;
    let first_err = std::thread::scope(|s| {
        let mut offset = 0usize;
        let mut rest_a = a;
        let mut rest_b = b;
        let mut handles = Vec::with_capacity(workers);
        while rest_a.len() > chunk {
            let (head_a, tail_a) = rest_a.split_at_mut(chunk);
            let (head_b, tail_b) = rest_b.split_at_mut(chunk);
            let off = offset;
            handles.push(s.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| f(off, head_a, head_b))).map_err(panic_message)
            }));
            offset += chunk;
            rest_a = tail_a;
            rest_b = tail_b;
        }
        let own = if rest_a.is_empty() {
            Ok(())
        } else {
            catch_unwind(AssertUnwindSafe(|| f(offset, rest_a, rest_b))).map_err(panic_message)
        };
        let mut first_err: Option<String> = None;
        for h in handles {
            if let Err(msg) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                if first_err.is_none() {
                    first_err = Some(msg);
                }
            }
        }
        first_err.or(own.err())
    });
    if let Some(msg) = first_err {
        panic!("{msg}");
    }
}

/// Parallel iteration over four equal-length mutable slices split at the
/// same points: `f(a_chunk, b_chunk, c_chunk, d_chunk)` sees corresponding
/// chunks. The split-plane single-qubit kernel uses this when the target is
/// the top bit, pairing the contiguous lo/hi orbit halves of the `re` plane
/// with the matching halves of the `im` plane.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn par_zip4_chunks_mut<T, F>(a: &mut [T], b: &mut [T], c: &mut [T], d: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut [T], &mut [T], &mut [T], &mut [T]) + Sync,
{
    let n = a.len();
    assert!(
        b.len() == n && c.len() == n && d.len() == n,
        "zipped slices must have equal lengths"
    );
    let extra = if n < 2 {
        0
    } else {
        acquire((n - 1).min(max_threads().saturating_sub(1)))
    };
    if extra == 0 {
        f(a, b, c, d);
        return;
    }
    let _guard = TokenGuard(extra);
    let workers = extra + 1;
    let chunk = n.div_ceil(workers);
    let f = &f;
    let first_err = std::thread::scope(|s| {
        let mut rest_a = a;
        let mut rest_b = b;
        let mut rest_c = c;
        let mut rest_d = d;
        let mut handles = Vec::with_capacity(workers);
        while rest_a.len() > chunk {
            let (ha, ta) = rest_a.split_at_mut(chunk);
            let (hb, tb) = rest_b.split_at_mut(chunk);
            let (hc, tc) = rest_c.split_at_mut(chunk);
            let (hd, td) = rest_d.split_at_mut(chunk);
            handles.push(s.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| f(ha, hb, hc, hd))).map_err(panic_message)
            }));
            rest_a = ta;
            rest_b = tb;
            rest_c = tc;
            rest_d = td;
        }
        let own = if rest_a.is_empty() {
            Ok(())
        } else {
            catch_unwind(AssertUnwindSafe(|| f(rest_a, rest_b, rest_c, rest_d)))
                .map_err(panic_message)
        };
        let mut first_err: Option<String> = None;
        for h in handles {
            if let Err(msg) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                if first_err.is_none() {
                    first_err = Some(msg);
                }
            }
        }
        first_err.or(own.err())
    });
    if let Some(msg) = first_err {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[usize], |&x| x), Vec::<usize>::new());
        assert_eq!(par_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_chunks_mut_covers_every_element_once() {
        let mut data = vec![0u32; 4096];
        par_chunks_mut(&mut data, 8, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot += (offset + i) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn par_chunks_mut_respects_alignment() {
        let mut data = vec![0u8; 1000];
        par_chunks_mut(&mut data, 64, |offset, chunk| {
            assert_eq!(offset % 64, 0, "chunk offset must be aligned");
            chunk.fill(1);
        });
        assert!(data.iter().all(|&b| b == 1));
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let outer: Vec<usize> = (0..16).collect();
        let sums = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..64).map(|j| i * 64 + j).collect();
            par_map(&inner, |&x| x).into_iter().sum::<usize>()
        });
        let total: usize = sums.iter().sum();
        assert_eq!(total, (0..1024).sum::<usize>());
    }

    #[test]
    fn par_chunks2_mut_pairs_aligned_chunks() {
        let mut a: Vec<usize> = (0..4096).collect();
        let mut b: Vec<usize> = (0..4096).map(|x| x + 7).collect();
        par_chunks2_mut(&mut a, &mut b, 16, |offset, ca, cb| {
            assert_eq!(offset % 16, 0, "chunk offset must be aligned");
            assert_eq!(ca.len(), cb.len());
            for (i, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                assert_eq!(*y, *x + 7, "planes desynced at {}", offset + i);
                *x += offset;
                *y += offset;
            }
        });
        for i in 0..4096 {
            // offset is the largest multiple of the chunk size ≤ i only in
            // the sequential case; either way both slices saw the same one.
            assert_eq!(b[i], a[i] + 7);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn par_chunks2_mut_rejects_length_mismatch() {
        let mut a = vec![0u8; 8];
        let mut b = vec![0u8; 9];
        par_chunks2_mut(&mut a, &mut b, 1, |_, _, _| {});
    }

    #[test]
    fn par_zip4_chunks_mut_splits_all_four_in_lockstep() {
        let n = 5000usize;
        let mut a: Vec<usize> = (0..n).collect();
        let mut b: Vec<usize> = (0..n).map(|x| x * 2).collect();
        let mut c: Vec<usize> = (0..n).map(|x| x * 3).collect();
        let mut d: Vec<usize> = (0..n).map(|x| x * 4).collect();
        par_zip4_chunks_mut(&mut a, &mut b, &mut c, &mut d, |ca, cb, cc, cd| {
            for i in 0..ca.len() {
                assert_eq!(cb[i], ca[i] * 2);
                assert_eq!(cc[i], ca[i] * 3);
                assert_eq!(cd[i], ca[i] * 4);
                cd[i] += cb[i] + cc[i];
            }
        });
        for (i, &v) in d.iter().enumerate() {
            assert_eq!(v, i * 9);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn par_zip4_chunks_mut_rejects_length_mismatch() {
        let mut a = vec![0u8; 4];
        let mut b = vec![0u8; 4];
        let mut c = vec![0u8; 3];
        let mut d = vec![0u8; 4];
        par_zip4_chunks_mut(&mut a, &mut b, &mut c, &mut d, |_, _, _, _| {});
    }

    #[test]
    fn par_zip_chunks_mut_pairs_corresponding_elements() {
        let mut a: Vec<usize> = (0..5000).collect();
        let mut b: Vec<usize> = (0..5000).map(|x| x * 10).collect();
        par_zip_chunks_mut(&mut a, &mut b, |ca, cb| {
            for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
                let (nx, ny) = (*y, *x);
                *x = nx;
                *y = ny;
            }
        });
        for i in 0..5000 {
            assert_eq!(a[i], i * 10);
            assert_eq!(b[i], i);
        }
    }

    #[test]
    fn set_max_threads_zero_restores_detected_budget() {
        // Exact token counts race with sibling tests acquiring workers, so
        // assert the reported parallelism and that work still completes.
        // `QDP_PAR_THREADS` (the CI matrix) takes precedence over hardware
        // detection, so the restored value must honour it too.
        let detected = std::env::var("QDP_PAR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        set_max_threads(4);
        assert_eq!(max_threads(), 4);
        set_max_threads(0);
        assert_eq!(max_threads(), detected);
        let out = par_map(&[1usize, 2, 3, 4], |&x| x * x);
        assert_eq!(out, vec![1, 4, 9, 16]);
    }

    #[test]
    fn deterministic_across_repeats() {
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let a: f64 = par_map(&items, |&x| x * x).iter().sum();
        let b: f64 = par_map(&items, |&x| x * x).iter().sum();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Panic-isolation tests inject real panics; silence the default hook's
    /// stderr spew for the duration of one closure (hook is global, so these
    /// tests serialize on a lock).
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn try_par_map_matches_par_map_on_healthy_input() {
        let items: Vec<f64> = (0..4096).map(|i| (i as f64).cos()).collect();
        let ok = try_par_map_retry(&items, |&x| x * x, 0).unwrap();
        let plain = par_map(&items, |&x| x * x);
        assert_eq!(ok.len(), plain.len());
        for (a, b) in ok.iter().zip(plain.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn try_par_map_reports_lowest_failing_index() {
        with_quiet_panics(|| {
            let items: Vec<usize> = (0..64).collect();
            let err = try_par_map_retry(
                &items,
                |&x| {
                    assert!(x != 13 && x != 40, "tile {x} exploded");
                    x * 2
                },
                0,
            )
            .unwrap_err();
            assert_eq!(err.index, 13);
            assert!(err.message.contains("tile 13 exploded"), "{}", err.message);
        });
    }

    #[test]
    fn try_par_map_retry_heals_transient_faults() {
        with_quiet_panics(|| {
            // Item 7 panics on its first attempt only; the bounded retry
            // must heal it and return the same bits as a clean run.
            let fired = AtomicUsize::new(0);
            let items: Vec<usize> = (0..32).collect();
            let out = try_par_map_retry(
                &items,
                |&x| {
                    if x == 7 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("transient");
                    }
                    x + 1
                },
                2,
            )
            .unwrap();
            assert_eq!(out, (1..=32).collect::<Vec<_>>());
            assert_eq!(fired.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn try_par_map_retry_exhausts_budget_into_tile_error() {
        with_quiet_panics(|| {
            let attempts = AtomicUsize::new(0);
            let items: Vec<usize> = (0..8).collect();
            let err = try_par_map_retry(
                &items,
                |&x| {
                    if x == 3 {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        panic!("permanent fault");
                    }
                    x
                },
                2,
            )
            .unwrap_err();
            assert_eq!(err.index, 3);
            assert!(err.message.contains("permanent fault"));
            // First pass + two retries.
            assert_eq!(attempts.load(Ordering::SeqCst), 3);
        });
    }

    #[test]
    fn par_map_repanics_with_original_message() {
        with_quiet_panics(|| {
            let items: Vec<usize> = (0..128).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map(&items, |&x| {
                    assert!(x != 100, "original payload {x}");
                    x
                })
            }))
            .unwrap_err();
            assert!(panic_message(caught).contains("original payload 100"));
        });
    }

    #[test]
    fn worker_panic_does_not_drain_token_budget() {
        with_quiet_panics(|| {
            let items: Vec<usize> = (0..256).collect();
            for _ in 0..4 {
                let _ = try_par_map_retry(
                    &items,
                    |&x| {
                        assert!(x % 97 != 96, "boom");
                        x
                    },
                    0,
                );
            }
            // Budget must be fully restored: a healthy run still parallelises
            // and produces the right answer.
            let out = par_map(&items, |&x| x * 3);
            assert_eq!(out, (0..256).map(|x| x * 3).collect::<Vec<_>>());
        });
    }

    #[test]
    fn par_chunks_mut_propagates_worker_panic_message() {
        with_quiet_panics(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let mut data = vec![0u32; 4096];
                par_chunks_mut(&mut data, 1, |offset, chunk| {
                    // Exactly one chunk holds the final element, whether the
                    // run is threaded or degraded to sequential.
                    assert!(offset + chunk.len() < 4096, "chunk fault at {offset}");
                    chunk.fill(1);
                });
            }))
            .unwrap_err();
            assert!(panic_message(caught).contains("chunk fault"));
        });
    }
}
