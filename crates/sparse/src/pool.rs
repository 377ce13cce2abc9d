//! A persistent worker pool with work-stealing for repeated data-parallel
//! kernels.
//!
//! The randomization solvers are SpMV-bound: a single `UR(10⁵ h)` run
//! performs millions of products over the same matrix. Spawning scoped
//! threads *per product* (the original `mul_vec_parallel_into` strategy)
//! pays thread-creation cost on every step. The
//! [`WorkerPool`] here parks its workers between products instead, so a warm
//! pool serves a step for the cost of a condvar wake.
//!
//! ## Job slots and the epoch-validated claim protocol
//!
//! The pool owns a small fixed array of **job slots**, recycled across runs
//! — publishing a job allocates nothing (the original design allocated an
//! `Arc<JobState>` per run). A run pops a free slot, writes the job's erased
//! closure pointer, trampoline, and chunk count into it under a seqlock
//! (`seq` odd while writing, even = `2·epoch` when stable), and finally
//! publishes the slot's **claim word** — `epoch ≪ 24 | next-chunk-index` —
//! which workers `fetch_add` to claim chunk indices.
//!
//! A claim's epoch bits tell the claimer which job it claimed from. After
//! claiming, the worker re-reads the slot fields and validates them against
//! the claimed epoch through the seqlock; the two cases are:
//!
//! * **valid claim** (`index < n_chunks` of the claimed epoch): the slot
//!   cannot be republished while this claim is unexecuted — completion
//!   requires every real chunk's `remaining` decrement, and a claimed index
//!   is decremented only by its unique claimer — so the validation is
//!   guaranteed to succeed and the worker executes the chunk;
//! * **overshoot claim** (`index ≥ n_chunks`, including claims that raced a
//!   republish): validation fails or the index check fails, and the worker
//!   walks away — overshoot indices are never part of the completion count.
//!
//! Completion is a single atomic countdown whose last decrement wakes the
//! submitter; the submitter always participates in claiming its own job, so
//! progress never depends on a worker being free.
//!
//! ## Work stealing (no all-or-nothing nesting budget)
//!
//! Multiple jobs can be in flight at once: each occupies its own slot, and
//! idle workers scan **all** slots for claimable chunks. When an engine
//! sweep runs its jobs on the pool and a sweep job performs its own pooled
//! SpMVs, those inner products publish into free slots and any idle worker
//! steals their chunks — the submitting job always drains its own slot, so
//! the worst case (every worker busy) degrades to the old inline execution,
//! and the former cliff between "sweep owns the pool, every inner SpMV is
//! serial" and "pool free, one SpMV at a time parallelizes" is gone.
//! [`WorkerPoolStats::stolen_chunks`] counts worker-executed chunks of runs
//! that overlapped another run — the new concurrency this buys.
//!
//! Results are bitwise identical no matter which thread claims which chunk
//! (each output row is reduced serially by exactly one claimer).

use std::any::Any;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Poison-tolerant lock: a panic on another thread must not wedge the
/// protected state for the rest of the process. Shared by the pool, the
/// chunk-plan memo in `regenr-ctmc`, and the engine's artifact cache —
/// one copy, one poison policy.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Claim-word layout: low bits index chunks, high bits tag the epoch.
const IDX_BITS: u32 = 24;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
/// Half the index range is headroom for overshoot claims (bounded by the
/// number of threads that can race one exhausted job).
const MAX_CHUNKS: usize = (IDX_MASK as usize) / 2;
const EPOCH_MASK: u64 = u64::MAX >> IDX_BITS;

#[inline]
fn unpack(claim: u64) -> (u64, usize) {
    (claim >> IDX_BITS, (claim & IDX_MASK) as usize)
}

/// One recyclable job slot. Field validity is governed by the seqlock
/// protocol described in the module docs; all fields are atomics so stale
/// readers racing a republish read *stale values*, never tear.
struct JobSlot {
    /// Seqlock word: odd while a publish is writing fields, `2·epoch` when
    /// the fields describe that epoch's job.
    seq: AtomicU64,
    /// `epoch ≪ IDX_BITS | next chunk index` — `fetch_add(1)` claims.
    claim: AtomicU64,
    /// Chunk count of the current epoch (`0` once retired — the cheap
    /// "nothing to claim" hint).
    n_chunks: AtomicUsize,
    /// Erased pointer to the submitter's closure (`&F`), valid while the
    /// epoch's run is in flight (`run` does not return before `remaining`
    /// hits zero).
    data: AtomicPtr<()>,
    /// Monomorphized trampoline casting `data` back to `&F`.
    call: AtomicPtr<()>,
    /// Real (index `< n_chunks`) chunks not yet completed; the last
    /// decrement wakes the submitter.
    remaining: AtomicUsize,
    /// Whether another run was already in flight when this one published —
    /// worker-executed chunks of such runs are the "stolen" ones.
    overlapped: AtomicBool,
    /// First panic payload raised by a worker-executed chunk; the submitter
    /// re-raises it after the run drains (a worker must survive a panicking
    /// chunk — dying mid-job would starve every later run — but the
    /// original payload must not be lost on the way).
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl JobSlot {
    fn new() -> JobSlot {
        JobSlot {
            seq: AtomicU64::new(0),
            claim: AtomicU64::new(0),
            n_chunks: AtomicUsize::new(0),
            data: AtomicPtr::new(std::ptr::null_mut()),
            call: AtomicPtr::new(std::ptr::null_mut()),
            remaining: AtomicUsize::new(0),
            overlapped: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        }
    }
}

struct Control {
    /// Bumped once per published job; sleeping workers wait for a change.
    generation: u64,
    /// Indices of slots with no job in flight (capacity never grows, so
    /// push/pop never allocate).
    free_slots: Vec<usize>,
    /// Jobs currently in flight (for the `overlapped` tag).
    active_jobs: usize,
    shutdown: bool,
}

struct Inner {
    control: Mutex<Control>,
    /// Workers park here waiting for a new generation.
    work: Condvar,
    /// Submitters park here waiting for `remaining == 0`.
    done: Condvar,
    slots: Box<[JobSlot]>,
    // Cumulative counters (see `WorkerPoolStats`).
    pooled_runs: AtomicU64,
    inline_runs: AtomicU64,
    chunks: AtomicU64,
    stolen_chunks: AtomicU64,
    overlapped_runs: AtomicU64,
}

/// Cumulative pool counters (process lifetime for the global pool). Snapshot
/// with [`WorkerPool::stats`]; report deltas across a region of interest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerPoolStats {
    /// Runs published to a job slot (the submitter still participates).
    pub pooled_runs: u64,
    /// Runs that executed entirely inline on the calling thread (single
    /// chunk, single-thread pool, or no free slot).
    pub inline_runs: u64,
    /// Chunks executed across all pooled runs (including the submitter's).
    pub chunks: u64,
    /// Chunks of overlapped runs executed by pool workers — SpMV chunks
    /// idle workers stole while a sweep (or another product) was in flight.
    pub stolen_chunks: u64,
    /// Runs published while at least one other run was already in flight
    /// (nested submissions from inside pool jobs, or concurrent
    /// submitters) — the runs whose chunks count as stealable.
    pub overlapped_runs: u64,
}

impl WorkerPoolStats {
    /// Counter-wise difference (`self - earlier`), for reporting the cost of
    /// one region against a shared pool.
    pub fn since(&self, earlier: &WorkerPoolStats) -> WorkerPoolStats {
        WorkerPoolStats {
            pooled_runs: self.pooled_runs - earlier.pooled_runs,
            inline_runs: self.inline_runs - earlier.inline_runs,
            chunks: self.chunks - earlier.chunks,
            stolen_chunks: self.stolen_chunks - earlier.stolen_chunks,
            overlapped_runs: self.overlapped_runs - earlier.overlapped_runs,
        }
    }
}

/// A persistent pool of parked worker threads executing indexed chunks,
/// with multi-job work stealing (see the module docs).
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// A pool executing on `threads` threads total: `threads - 1` parked
    /// workers plus the submitting thread, which always participates.
    pub fn new(threads: usize) -> Arc<WorkerPool> {
        let threads = threads.max(1);
        // Enough slots for a sweep plus one nested SpMV per executing
        // thread, with headroom; a full table falls back to inline runs.
        let n_slots = 2 * threads + 2;
        let inner = Arc::new(Inner {
            control: Mutex::new(Control {
                generation: 0,
                free_slots: (0..n_slots).rev().collect(),
                active_jobs: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            slots: (0..n_slots).map(|_| JobSlot::new()).collect(),
            pooled_runs: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            stolen_chunks: AtomicU64::new(0),
            overlapped_runs: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("regenr-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            inner,
            workers,
            threads,
        })
    }

    /// The process-wide shared pool, sized to the machine's available
    /// parallelism on first use. This is the pool the pooled SpMV kernels
    /// and the engine's sweep executor share (see the module docs).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(crate::parallel::effective_threads(0)))
    }

    /// Total threads the pool executes on (workers + submitter).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WorkerPoolStats {
        WorkerPoolStats {
            pooled_runs: self.inner.pooled_runs.load(Ordering::Relaxed),
            inline_runs: self.inner.inline_runs.load(Ordering::Relaxed),
            chunks: self.inner.chunks.load(Ordering::Relaxed),
            stolen_chunks: self.inner.stolen_chunks.load(Ordering::Relaxed),
            overlapped_runs: self.inner.overlapped_runs.load(Ordering::Relaxed),
        }
    }

    /// Executes `f(0), …, f(n_chunks - 1)` across the pool and the calling
    /// thread; returns when every chunk has completed. The return value is
    /// `true` when the chunks were published for the pool's workers and
    /// `false` when they all ran inline on the caller — callers reporting
    /// achieved concurrency (the engine's `ExecStats`) need the
    /// distinction; kernels can ignore it.
    ///
    /// Chunk *assignment* is first-come-first-served (non-deterministic),
    /// so `f` must produce results independent of which thread runs which
    /// chunk — the pooled SpMV writes disjoint output slices, for example.
    /// Nested submission (a pool job performing its own `run`) is fine and
    /// never deadlocks: the nested job occupies its own slot, idle workers
    /// steal its chunks, and the nested submitter drains whatever nobody
    /// steals. Single-chunk jobs, single-thread pools, and a full slot
    /// table run inline on the caller — same results, no parallelism.
    pub fn run<F: Fn(usize) + Sync>(&self, n_chunks: usize, f: F) -> bool {
        regenr_failpoint::failpoint!("pool-publish");
        if n_chunks == 0 {
            return false;
        }
        if n_chunks == 1 || self.threads == 1 || n_chunks > MAX_CHUNKS {
            self.inner.inline_runs.fetch_add(1, Ordering::Relaxed);
            for i in 0..n_chunks {
                // Armed on the inline path too: a chunk "panic" here unwinds
                // straight to the supervisor, so single-core machines can
                // still exercise the chunk-death recovery story.
                regenr_failpoint::failpoint!("pool-chunk");
                f(i);
            }
            return false;
        }

        unsafe fn trampoline<F: Fn(usize)>(data: *const (), chunk: usize) {
            // SAFETY: `data` is the `&F` published by `run`, which blocks
            // until every real chunk completed; see the module docs.
            unsafe { (*data.cast::<F>())(chunk) }
        }

        // Acquire a slot and publish the job under the control lock (the
        // lock also orders the generation bump against sleeping workers).
        let (slot_idx, epoch, overlapped) = {
            let mut control = lock(&self.inner.control);
            let Some(slot_idx) = control.free_slots.pop() else {
                drop(control);
                self.inner.inline_runs.fetch_add(1, Ordering::Relaxed);
                for i in 0..n_chunks {
                    f(i);
                }
                return false;
            };
            let overlapped = control.active_jobs > 0;
            control.active_jobs += 1;
            let slot = &self.inner.slots[slot_idx];
            // Seqlock write: odd marks the fields unstable, the final even
            // store (2·epoch, Release) republishes them.
            let seq = slot.seq.load(Ordering::Relaxed);
            debug_assert_eq!(seq & 1, 0, "slot republished while in flight");
            slot.seq.store(seq + 1, Ordering::Relaxed);
            fence(Ordering::Release);
            slot.n_chunks.store(n_chunks, Ordering::Relaxed);
            slot.data
                .store((&raw const f).cast::<()>().cast_mut(), Ordering::Relaxed);
            slot.call.store(
                trampoline::<F> as unsafe fn(*const (), usize) as *mut (),
                Ordering::Relaxed,
            );
            slot.remaining.store(n_chunks, Ordering::Relaxed);
            slot.overlapped.store(overlapped, Ordering::Relaxed);
            let epoch = (seq + 2) >> 1;
            slot.seq.store(seq + 2, Ordering::Release);
            // The claim word goes live last: a worker that wins a claim is
            // guaranteed (via this Release / its Acquire fetch_add) to see
            // the epoch's fields.
            slot.claim
                .store((epoch & EPOCH_MASK) << IDX_BITS, Ordering::Release);
            control.generation += 1;
            self.inner.work.notify_all();
            (slot_idx, epoch & EPOCH_MASK, overlapped)
        };
        let slot = &self.inner.slots[slot_idx];

        // Even if a submitter-side chunk panics, the closure must stay
        // alive until no worker can still be executing a chunk: the guard
        // skips every unclaimed chunk and waits out the in-flight ones
        // before `f` is dropped by the unwind. The guard also extracts any
        // worker panic payload *before* the slot returns to the free list —
        // after that instant the slot (and its payload mutex) belongs to
        // the next run.
        let mut payload = None;
        let mut drain = DrainGuard {
            inner: &self.inner,
            slot_idx,
            n_chunks,
            mid_chunk: false,
            payload: &mut payload,
        };
        loop {
            let (e, idx) = unpack(slot.claim.fetch_add(1, Ordering::AcqRel));
            // Only this thread can republish this slot, so its epoch is
            // stable for the whole run.
            debug_assert_eq!(e, epoch);
            if idx >= n_chunks {
                break;
            }
            drain.mid_chunk = true;
            regenr_failpoint::failpoint!("pool-chunk");
            f(idx);
            drain.mid_chunk = false;
            slot.remaining.fetch_sub(1, Ordering::AcqRel);
        }
        drop(drain);
        self.inner.pooled_runs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .chunks
            .fetch_add(n_chunks as u64, Ordering::Relaxed);
        if overlapped {
            self.inner.overlapped_runs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(payload) = payload {
            // Re-raise the original payload so callers (and their
            // catch_unwind error reporting) see the real panic message.
            std::panic::resume_unwind(payload);
        }
        true
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut control = lock(&self.inner.control);
            control.shutdown = true;
            self.inner.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Completion barrier for one run, robust to unwinding: on drop (normal
/// exit *or* a panic in a submitter-side chunk) it claims-and-skips every
/// not-yet-claimed chunk, accounts a chunk the submitter panicked inside,
/// waits until no worker is still executing, and only then retires the slot
/// — only after that may the closure be dropped.
struct DrainGuard<'a> {
    inner: &'a Inner,
    slot_idx: usize,
    n_chunks: usize,
    /// True while the submitter is inside `f(i)`: a panic there leaves that
    /// chunk's `remaining` decrement to the guard.
    mid_chunk: bool,
    /// Receives any worker panic payload, extracted before the slot is
    /// handed back (after that it belongs to the next run).
    payload: &'a mut Option<Box<dyn Any + Send>>,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let slot = &self.inner.slots[self.slot_idx];
        if self.mid_chunk {
            slot.remaining.fetch_sub(1, Ordering::AcqRel);
        }
        // Skip chunks nobody claimed yet (relevant only when unwinding).
        loop {
            let (_, idx) = unpack(slot.claim.fetch_add(1, Ordering::AcqRel));
            if idx >= self.n_chunks {
                break;
            }
            slot.remaining.fetch_sub(1, Ordering::AcqRel);
        }
        // Wait for straggler chunks claimed by workers. `remaining` is
        // re-checked under the control mutex, so the last worker's notify
        // (taken under the same mutex) cannot be lost.
        let mut control = lock(&self.inner.control);
        while slot.remaining.load(Ordering::Acquire) > 0 {
            control = self
                .inner
                .done
                .wait(control)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        // Retire the slot: zero the claimable hint, extract this run's
        // panic payload (all payload writes happened before the last
        // `remaining` decrement), and hand the slot back. The seqlock stays
        // at this epoch's even value until the next publish, so a
        // straggling overshoot claimer still validates (and skips).
        slot.n_chunks.store(0, Ordering::Relaxed);
        *self.payload = lock(&slot.panic_payload).take();
        control.active_jobs -= 1;
        control.free_slots.push(self.slot_idx);
    }
}

/// Attempts to claim and execute one chunk from `slot`. Returns `true` when
/// a chunk was executed (more may remain), `false` when the slot has
/// nothing claimable for this worker.
fn try_execute_one(inner: &Inner, slot: &JobSlot) -> bool {
    // Cheap peek before committing a fetch_add: a retired or exhausted
    // slot is skipped without an RMW. Racy by design — a stale positive
    // costs one overshoot claim, which the validation below absorbs.
    let (_, idx_hint) = unpack(slot.claim.load(Ordering::Relaxed));
    if idx_hint >= slot.n_chunks.load(Ordering::Relaxed) {
        return false;
    }
    let (epoch, idx) = unpack(slot.claim.fetch_add(1, Ordering::AcqRel));
    // Seqlock read: fields belong to the claimed epoch iff the lock is
    // stable at `2·epoch` around the reads. For a valid claim this cannot
    // fail (the slot cannot be republished while a real chunk is claimed
    // but unexecuted — see the module docs); for overshoot claims any
    // failure path is a safe skip.
    let s1 = slot.seq.load(Ordering::Acquire);
    if s1 & 1 != 0 || (s1 >> 1) & EPOCH_MASK != epoch {
        return false;
    }
    let n_chunks = slot.n_chunks.load(Ordering::Relaxed);
    let data = slot.data.load(Ordering::Relaxed);
    let call = slot.call.load(Ordering::Relaxed);
    let overlapped = slot.overlapped.load(Ordering::Relaxed);
    fence(Ordering::Acquire);
    if slot.seq.load(Ordering::Relaxed) != s1 {
        return false;
    }
    if idx >= n_chunks {
        return false;
    }
    // SAFETY: the seqlock validated (data, call) as the claimed epoch's
    // fields, and a valid claim keeps the closure alive until this chunk's
    // `remaining` decrement (the submitter cannot return before it).
    let call: unsafe fn(*const (), usize) = unsafe { std::mem::transmute(call) };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        regenr_failpoint::failpoint!("pool-chunk");
        unsafe { call(data, idx) }
    }));
    if let Err(payload) = outcome {
        // A panicking chunk must not kill the worker (later runs would be
        // starved): keep the payload for the submitter to re-raise.
        let mut first = lock(&slot.panic_payload);
        if first.is_none() {
            *first = Some(payload);
        }
    }
    if overlapped {
        inner.stolen_chunks.fetch_add(1, Ordering::Relaxed);
    }
    if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last chunk: wake the submitter. Taking the control mutex orders
        // this notify against the submitter's wait.
        let _control = lock(&inner.control);
        inner.done.notify_all();
    }
    true
}

fn worker_loop(inner: &Inner) {
    let mut generation_seen = 0u64;
    loop {
        {
            let mut control = lock(&inner.control);
            loop {
                if control.shutdown {
                    return;
                }
                if control.generation != generation_seen {
                    generation_seen = control.generation;
                    break;
                }
                control = inner
                    .work
                    .wait(control)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        // Scan every slot until a full pass finds nothing claimable, then
        // go back to sleep (re-checking the generation first, so a publish
        // during the scan is never missed).
        loop {
            let mut executed = false;
            for slot in inner.slots.iter() {
                while try_execute_one(inner, slot) {
                    executed = true;
                }
            }
            if !executed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = WorkerPool::new(4);
        for n in [1usize, 2, 3, 7, 64, 1000] {
            let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            pool.run(n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n={n}"
            );
        }
    }

    #[test]
    fn repeated_runs_reuse_the_same_pool() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..500 {
            pool.run(8, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 500 * (0..8).sum::<u64>());
        let stats = pool.stats();
        assert_eq!(stats.pooled_runs + stats.inline_runs, 500);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let sum = AtomicU64::new(0);
        pool.run(16, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=16).sum::<u64>());
        assert_eq!(pool.stats().inline_runs, 1);
        assert_eq!(pool.stats().pooled_runs, 0);
    }

    /// Nested submission used to force inline execution (the all-or-nothing
    /// budget); now the nested jobs get their own slots and complete — with
    /// idle workers free to steal their chunks — and never deadlock.
    #[test]
    fn nested_runs_complete_without_deadlock() {
        let pool = WorkerPool::new(4);
        let outer = AtomicU32::new(0);
        let inner_total = AtomicU64::new(0);
        pool.run(4, |_| {
            outer.fetch_add(1, Ordering::Relaxed);
            pool.run(8, |j| {
                inner_total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 4);
        assert_eq!(inner_total.load(Ordering::Relaxed), 4 * (0..8).sum::<u64>());
        let stats = pool.stats();
        assert_eq!(stats.pooled_runs + stats.inline_runs, 5);
        assert!(
            stats.overlapped_runs >= 1,
            "nested submissions must be tagged overlapped: {stats:?}"
        );
    }

    /// Forces a steal deterministically: an inner job's chunk 0 spins until
    /// its chunk 1 completes, and the inner submitter can only execute one
    /// of them — so completion *requires* another thread to claim the other
    /// chunk from the published slot.
    #[test]
    fn idle_workers_steal_nested_chunks() {
        let pool = WorkerPool::new(3);
        let before = pool.stats();
        let released = AtomicBool::new(false);
        pool.run(2, |outer_chunk| {
            if outer_chunk == 0 {
                pool.run(2, |inner_chunk| {
                    if inner_chunk == 0 {
                        let t0 = std::time::Instant::now();
                        while !released.load(Ordering::Acquire) {
                            assert!(
                                t0.elapsed() < std::time::Duration::from_secs(30),
                                "no worker stole the releasing chunk"
                            );
                            std::thread::yield_now();
                        }
                    } else {
                        released.store(true, Ordering::Release);
                    }
                });
            }
        });
        let delta = pool.stats().since(&before);
        assert!(released.load(Ordering::Acquire));
        assert!(
            delta.stolen_chunks >= 1,
            "the inner job's second chunk must have been stolen: {delta:?}"
        );
        assert!(delta.overlapped_runs >= 1);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let pool = &pool;
                let total = &total;
                scope.spawn(move || {
                    for _ in 0..50 {
                        pool.run(5, |i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 50 * (1..=5).sum::<u64>());
    }

    #[test]
    fn panicking_chunk_neither_deadlocks_nor_kills_the_pool() {
        let pool = WorkerPool::new(4);
        for round in 0..3 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(8, |i| {
                    if i == 3 {
                        panic!("chunk bomb");
                    }
                });
            }));
            let payload = result.expect_err("round {round}: panic must propagate");
            // The original payload survives whether the chunk ran on the
            // submitter or on a worker.
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"chunk bomb"),
                "round {round}: payload must be preserved"
            );
            // The pool stays fully functional afterwards.
            let sum = AtomicU64::new(0);
            pool.run(8, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), (0..8).sum::<u64>());
        }
    }

    /// Slots are recycled across epochs: far more runs than slots, with
    /// stale workers around, must neither mix jobs up nor lose chunks.
    #[test]
    fn slot_recycling_survives_many_epochs() {
        let pool = WorkerPool::new(4);
        for round in 0..2_000u64 {
            let sum = AtomicU64::new(0);
            pool.run(3, |i| {
                sum.fetch_add(round * 100 + i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 3 * round * 100 + 3);
        }
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn stats_delta() {
        let pool = WorkerPool::new(2);
        let before = pool.stats();
        pool.run(4, |_| {});
        pool.run(4, |_| {});
        let delta = pool.stats().since(&before);
        assert_eq!(delta.pooled_runs + delta.inline_runs, 2);
    }
}
