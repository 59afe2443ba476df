//! # qdp-par
//!
//! Minimal deterministic fork-join parallelism on a persistent worker pool.
//!
//! The build environment for this workspace is fully offline, so `rayon` is
//! not available; this crate provides the small subset the simulator and the
//! gradient engine need:
//!
//! * [`par_map`] / [`try_par_map_retry`] — order-preserving parallel map
//!   over a slice,
//! * [`par_split`] — parallel iteration over `N` equal-length mutable
//!   slices split in lockstep into aligned chunks (each callback also
//!   receives the chunks' offset),
//! * [`max_threads`] / [`set_max_threads`] — the thread budget.
//!
//! **Pool.** The first call that fans out starts `max_threads() − 1` worker
//! threads (more start if the budget later grows). Idle workers park on a
//! condition variable and never spin. A call publishes its job, works on
//! it itself, and returns only once every worker that joined has left, so
//! borrowed data never outlives the call; while it waits for a joined
//! worker's last item it yields before it parks. Workers and caller claim
//! items (or chunks) from one atomic index and store results by index, so
//! a worker that wakes late takes what is left and a job whose items are
//! all claimed costs the caller only the wake-up call. Warm workers keep
//! their thread-local scratch between calls. Measured hand-off figures are
//! in the README's performance notes.
//!
//! **Determinism.** Results are always assembled in input order and any
//! reductions are performed by the caller over that ordered output, so a
//! computation produces bit-identical results regardless of how many threads
//! actually ran — including the degenerate single-thread case. Split chunk
//! boundaries depend only on the data length and alignment. The test suite
//! of `qdp-ad` relies on this.
//!
//! **Nesting.** The pool runs one job at a time. A call made while a job is
//! running — nested inside one of its items, or from another thread (e.g.
//! concurrent service leaders) — runs inline on its calling thread instead
//! of oversubscribing the machine.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Optional override of the detected parallelism (0 = auto-detect).
static MAX_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Cached effective parallelism — the `QDP_PAR_THREADS` environment
/// variable when set to a positive integer, hardware detection otherwise.
/// Cached because `available_parallelism()` is a syscall and this is
/// queried on every kernel invocation.
static DETECTED: OnceLock<usize> = OnceLock::new();

/// Serial work, in picoseconds (elements × per-element cost), below which
/// [`par_split`] runs inline: about three pool hand-offs (a parked worker
/// joins 20–25 µs after the hand-off on a 2-core AVX-512 VM), so a two-way
/// split of work at the threshold still saves about the hand-off it pays.
pub const FANOUT_MIN_WORK: usize = 64_000_000;

/// How many chunks [`par_split`] cuts its slices into (fewer when the
/// alignment is coarse): enough for the atomic claim to balance uneven
/// chunks, e.g. the identity runs a diagonal kernel skips.
const SPLIT_CHUNKS: usize = 16;

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
/// Safe to call at any time, also while parallel calls are in flight: each
/// call reads the budget once, when it publishes its job.
pub fn set_max_threads(n: usize) {
    MAX_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The running job's claim loop with its lifetime erased. The call that
/// published it does not return before every worker that joined has left
/// (see [`run_shared`]).
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, and `run_shared` keeps it alive for as
// long as any worker may hold the pointer.
unsafe impl Send for JobRef {}

/// The pool's shared state, guarded by [`Pool::state`].
struct State {
    /// The job open for joining, if any.
    job: Option<JobRef>,
    /// Bumped on every publish, so a worker joins each job at most once.
    epoch: u64,
    /// Workers with an index below this may join the open job.
    helpers: usize,
    /// Workers started so far.
    workers: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between jobs.
    wake: Condvar,
    /// The publishing call parks here, if it must, for joined workers to
    /// leave.
    done: Condvar,
    /// Workers inside the job; raised only under the lock, while the job
    /// is open.
    active: AtomicUsize,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        job: None,
        epoch: 0,
        helpers: 0,
        workers: 0,
    }),
    wake: Condvar::new(),
    done: Condvar::new(),
    active: AtomicUsize::new(0),
};

/// How often a publishing call yields, waiting for joined workers to
/// finish their last item, before it parks: a parked caller pays a second
/// wake-up on its critical path.
const DRAIN_YIELDS: usize = 200;

/// Set while a job runs: the pool is taken, and every other call runs
/// inline. Checked without the lock so nested calls stay cheap; the job
/// itself is guarded by [`Pool::state`], so the flag publishes no data.
static BUSY: AtomicBool = AtomicBool::new(false);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker(index: usize) {
    let mut seen = 0u64;
    let mut st = lock(&POOL.state);
    loop {
        match st.job {
            Some(job) if st.epoch != seen && index < st.helpers => {
                seen = st.epoch;
                // Raised under the lock that closes the job, which orders it
                // before the publisher's check.
                POOL.active.fetch_add(1, Ordering::Relaxed);
                drop(st);
                // SAFETY: `run_shared` keeps the job alive until `active`
                // is back to zero. A panic here (outside the per-item
                // guards) leaves its item unfilled, which the publishing
                // call reports as a failed tile.
                let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
                // Release: pairs with the publisher's Acquire load, so the
                // job's writes are visible once it reads zero.
                let last = POOL.active.fetch_sub(1, Ordering::Release) == 1;
                // Under the lock, so the wake cannot fall between the
                // publisher's check and its wait.
                st = lock(&POOL.state);
                if last {
                    POOL.done.notify_one();
                }
            }
            _ => st = POOL.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Closes the published job when the publishing call leaves `run_shared`,
/// normally or by unwinding: no worker joins after this, and the call
/// waits for those inside to leave before the job's borrows end.
struct Drain;

impl Drop for Drain {
    fn drop(&mut self) {
        lock(&POOL.state).job = None;
        for _ in 0..DRAIN_YIELDS {
            if POOL.active.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
        }
        let mut st = lock(&POOL.state);
        while POOL.active.load(Ordering::Acquire) > 0 {
            st = POOL.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        BUSY.store(false, Ordering::Release);
    }
}

/// Runs `work` on the calling thread and, when the pool is free, lends it
/// to up to `want` parked workers as well. `work` must be a claim loop
/// that returns once no work is left to claim.
fn run_shared(want: usize, work: &(dyn Fn() + Sync)) {
    let helpers = want.min(max_threads().saturating_sub(1));
    if helpers == 0 || BUSY.swap(true, Ordering::Acquire) {
        return work();
    }
    let drain = Drain;
    {
        let mut st = lock(&POOL.state);
        while st.workers < helpers {
            let index = st.workers;
            // Workers live as long as the process and their loop cannot
            // unwind (a job's panics are caught), so no handle is kept.
            let spawned = std::thread::Builder::new()
                .name(format!("qdp-par-{index}"))
                .spawn(move || worker(index));
            if spawned.is_err() {
                break; // run with the workers there are
            }
            st.workers += 1;
        }
        // SAFETY: only the lifetime is erased; `drain` outlives every use.
        let job = unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync)>(work)
        };
        st.job = Some(JobRef(job));
        st.epoch += 1;
        st.helpers = helpers;
    }
    POOL.wake.notify_all();
    work();
    drop(drain);
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
/// isolated under `catch_unwind`, so no thread ever panics through `f`.
fn map_isolated<T, R, F>(items: &[T], f: &F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let call = |x: &T| catch_unwind(AssertUnwindSafe(|| f(x))).map_err(panic_message);
    let n = items.len();
    if n < 2 || max_threads() < 2 || BUSY.load(Ordering::Relaxed) {
        return items.iter().map(call).collect();
    }
    let slots: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    run_shared(n - 1, &|| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(x) = items.get(i) else { break };
        let r = call(x);
        *lock(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| Err("tile abandoned by its worker".to_string()))
        })
        .collect()
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
/// The calling thread and the pool's workers claim items one at a time;
/// results are stored by index. Falls back to a plain sequential map when
/// `items` has fewer than two entries, the budget is one thread, or the
/// pool is already running a job.
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
/// to completion before the error is reported, so the pool is free again
/// on return.
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
pub fn try_par_map_retry<T, R, F>(
    items: &[T],
    f: F,
    max_retries: usize,
) -> Result<Vec<R>, TileError>
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

/// Parallel iteration over `N` equal-length mutable slices split at the
/// same points: `f(offset, chunks)` sees corresponding chunks of every
/// slice, `offset` being the index of their first element.
///
/// Chunk boundaries fall on multiples of `align` elements (pass 1 for no
/// constraint), so kernels can keep every index orbit inside one chunk,
/// and depend only on the length and `align`, never on the thread count.
/// `cost` is the serial cost of one element in picoseconds: the split is
/// one inline `f(0, slices)` call when `len × cost` is below
/// [`FANOUT_MIN_WORK`] or fewer than two aligned chunks exist. Otherwise
/// the chunks are claimed by the caller and any free workers (all by the
/// caller at a budget of one thread, or when the pool is taken). The
/// split-plane kernels pass `[re, im]`, or the lo/hi orbit halves of both
/// planes when the target is the top bit.
///
/// # Panics
///
/// Panics when the slices have different lengths, and re-raises the
/// message of the lowest-offset chunk whose `f` panicked, after every
/// other chunk has completed.
#[inline(always)]
pub fn par_split<T, const N: usize, F>(slices: [&mut [T]; N], align: usize, cost: usize, f: F)
where
    T: Send,
    F: Fn(usize, [&mut [T]; N]) + Sync,
{
    let len = slices.first().map_or(0, |s| s.len());
    assert!(
        slices.iter().all(|s| s.len() == len),
        "split slices must have equal lengths"
    );
    let align = align.max(1);
    if len.saturating_mul(cost) < FANOUT_MIN_WORK || len / align < 2 {
        return f(0, slices);
    }
    split_chunks(slices, align, &f);
}

/// The chunked arm of [`par_split`], kept out of line so the inline arm
/// stays a direct call at every kernel site.
#[inline(never)]
fn split_chunks<T, const N: usize, F>(slices: [&mut [T]; N], align: usize, f: &F)
where
    T: Send,
    F: Fn(usize, [&mut [T]; N]) + Sync,
{
    let len = slices.first().map_or(0, |s| s.len());
    let chunk = len.div_ceil(SPLIT_CHUNKS).next_multiple_of(align);
    let mut rest = slices;
    let mut chunks = Vec::with_capacity(len.div_ceil(chunk));
    let mut offset = 0;
    while offset < len {
        let take = chunk.min(len - offset);
        let head = rest.each_mut().map(|s| {
            let (head, tail) = std::mem::take(s).split_at_mut(take);
            *s = tail;
            head
        });
        chunks.push(Mutex::new(Some((offset, head))));
        offset += take;
    }
    par_map(&chunks, |c| {
        if let Some((offset, parts)) = lock(c).take() {
            f(offset, parts);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Tests that change the thread budget (or assert on it) serialize on
    /// this lock; the rest run under whatever budget is current.
    fn budget_lock() -> MutexGuard<'static, ()> {
        static BUDGET: Mutex<()> = Mutex::new(());
        lock(&BUDGET)
    }

    /// A `cost` large enough that any split of two or more aligned chunks
    /// is cut into chunks.
    const SPLIT: usize = FANOUT_MIN_WORK;

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
    fn par_split_covers_every_element_once() {
        let mut data = vec![0u32; 4096];
        par_split([&mut data[..]], 8, SPLIT, |offset, [chunk]| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot += (offset + i) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn par_split_respects_alignment() {
        let mut data = vec![0u8; 1000];
        par_split([&mut data[..]], 64, SPLIT, |offset, [chunk]| {
            assert_eq!(offset % 64, 0, "chunk offset must be aligned");
            chunk.fill(1);
        });
        assert!(data.iter().all(|&b| b == 1));
    }

    #[test]
    fn par_split_below_the_work_threshold_runs_inline() {
        let mut data = vec![0u8; 4096];
        let calls = AtomicUsize::new(0);
        par_split([&mut data[..]], 1, 1, |offset, [chunk]| {
            assert_eq!((offset, chunk.len()), (0, 4096));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_split_chunks_do_not_depend_on_thread_count() {
        let _budget = budget_lock();
        let chunks_at = |threads: usize| {
            set_max_threads(threads);
            let seen = Mutex::new(Vec::new());
            let mut data = vec![0u8; 3000];
            par_split([&mut data[..]], 8, SPLIT, |offset, [chunk]| {
                lock(&seen).push((offset, chunk.len()));
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            seen
        };
        let one = chunks_at(1);
        assert!(one.len() > 1, "work above the threshold is chunked");
        assert_eq!(chunks_at(2), one);
        assert_eq!(chunks_at(8), one);
        set_max_threads(0);
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
    fn par_split_pairs_aligned_chunks() {
        let mut a: Vec<usize> = (0..4096).collect();
        let mut b: Vec<usize> = (0..4096).map(|x| x + 7).collect();
        par_split([&mut a[..], &mut b[..]], 16, SPLIT, |offset, [ca, cb]| {
            assert_eq!(offset % 16, 0, "chunk offset must be aligned");
            assert_eq!(ca.len(), cb.len());
            for (i, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                assert_eq!(*y, *x + 7, "slices desynced at {}", offset + i);
                *x += offset;
                *y += offset;
            }
        });
        for i in 0..4096 {
            assert_eq!(b[i], a[i] + 7);
        }
    }

    #[test]
    fn par_split_four_slices_in_lockstep() {
        let n = 5000usize;
        let mut a: Vec<usize> = (0..n).collect();
        let mut b: Vec<usize> = (0..n).map(|x| x * 2).collect();
        let mut c: Vec<usize> = (0..n).map(|x| x * 3).collect();
        let mut d: Vec<usize> = (0..n).map(|x| x * 4).collect();
        let slices = [&mut a[..], &mut b[..], &mut c[..], &mut d[..]];
        par_split(slices, 1, SPLIT, |_, [ca, cb, cc, cd]| {
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
    fn par_split_rejects_length_mismatch() {
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut c = [0u8; 3];
        par_split([&mut a[..], &mut b[..], &mut c[..]], 1, SPLIT, |_, _| {});
    }

    #[test]
    fn set_max_threads_zero_restores_detected_budget() {
        let _budget = budget_lock();
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

    /// Maps `items` (each sleeping `pause`) and returns the threads that
    /// ran them.
    fn threads_of(items: &[usize], pause: Duration) -> HashSet<ThreadId> {
        let ids = Mutex::new(HashSet::new());
        let out = par_map(items, |&x| {
            std::thread::sleep(pause);
            lock(&ids).insert(std::thread::current().id());
            x
        });
        assert_eq!(out, items);
        ids.into_inner().unwrap()
    }

    #[test]
    fn workers_are_reused_across_calls() {
        let _budget = budget_lock();
        set_max_threads(4);
        let items: Vec<usize> = (0..16).collect();
        let mut ids = HashSet::new();
        for _ in 0..100 {
            ids.extend(threads_of(&items, Duration::from_micros(50)));
        }
        set_max_threads(0);
        assert!(
            ids.len() <= 4,
            "{} distinct threads ran 100 calls at a budget of 4",
            ids.len()
        );
    }

    #[test]
    fn concurrent_nested_calls_from_many_threads() {
        let rounds = if cfg!(miri) { 2 } else { 20 };
        std::thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    for round in 0..rounds {
                        let outer: Vec<usize> =
                            (0..12).map(|i| t * 1000 + round * 12 + i).collect();
                        let got = par_map(&outer, |&i| {
                            let inner: Vec<usize> = (0..32).map(|j| i * 32 + j).collect();
                            par_map(&inner, |&x| x * 2)
                        });
                        for (i, row) in outer.iter().zip(&got) {
                            assert_eq!(*row, (0..32).map(|j| (i * 32 + j) * 2).collect::<Vec<_>>());
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn budget_switches_between_and_during_calls() {
        let _budget = budget_lock();
        let items: Vec<usize> = (0..64).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        let check = || {
            assert_eq!(par_map(&items, |&x| x * 3), expect);
            let mut a = vec![1u64; 4096];
            let mut b = vec![2u64; 4096];
            par_split([&mut a[..], &mut b[..]], 4, SPLIT, |_, [ca, cb]| {
                for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
                    *x += *y;
                }
            });
            assert!(a.iter().all(|&x| x == 3));
        };
        for n in [1, 8, 2, 0] {
            set_max_threads(n);
            check();
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let switches = if cfg!(miri) { 8 } else { 400 };
                for n in [1, 8, 2, 0].into_iter().cycle().take(switches) {
                    set_max_threads(n);
                    std::thread::sleep(Duration::from_micros(100));
                }
                stop.store(true, Ordering::Relaxed);
            });
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        check();
                    }
                });
            }
        });
        set_max_threads(0);
        check();
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
    fn pool_fans_out_after_panicking_items() {
        let _budget = budget_lock();
        set_max_threads(2);
        with_quiet_panics(|| {
            let items: Vec<usize> = (0..256).collect();
            for _ in 0..4 {
                let attempts = AtomicUsize::new(0);
                let err = try_par_map_retry(
                    &items,
                    |&x| {
                        if x % 97 == 96 {
                            attempts.fetch_add(1, Ordering::SeqCst);
                            panic!("boom {x}");
                        }
                        x
                    },
                    1,
                )
                .unwrap_err();
                assert_eq!((err.index, err.message.as_str()), (96, "boom 96"));
                // Items 96 and 193, each on the first pass and one retry.
                assert_eq!(attempts.load(Ordering::SeqCst), 4);
            }
        });
        // The pool is free again: a healthy call still reaches a worker.
        // Its two items meet at a rendezvous, which only two threads can
        // pass; retried because a concurrent test may hold the pool.
        let fanned = (0..20).any(|_| {
            let arrived = AtomicUsize::new(0);
            let met = par_map(&[0usize, 1], |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let start = std::time::Instant::now();
                while arrived.load(Ordering::SeqCst) < 2
                    && start.elapsed() < Duration::from_millis(200)
                {
                    std::thread::yield_now();
                }
                arrived.load(Ordering::SeqCst) == 2
            });
            met.iter().all(|&m| m)
        });
        set_max_threads(0);
        assert!(fanned, "no call reached a worker after the panics");
    }

    #[test]
    fn par_split_propagates_chunk_panic_message() {
        with_quiet_panics(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let mut data = vec![0u32; 4096];
                par_split([&mut data[..]], 1, SPLIT, |offset, [chunk]| {
                    // Exactly one chunk holds the final element.
                    assert!(offset + chunk.len() < 4096, "chunk fault at {offset}");
                    chunk.fill(1);
                });
            }))
            .unwrap_err();
            assert!(panic_message(caught).contains("chunk fault"));
        });
    }
}
