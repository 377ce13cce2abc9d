//! Parallel sparse matrix–vector products.
//!
//! The randomization solvers are SpMV-bound: a single `UR(10⁵ h)` standard-
//! randomization run performs millions of products over the same matrix. The
//! parallel kernels here split the *output* rows into nnz-balanced chunks
//! ([`ChunkPlan`]) and let threads write disjoint slices — no synchronization
//! inside the product, deterministic results (each row is reduced serially,
//! so every parallel product is **bitwise identical** to the serial one).
//!
//! A [`ChunkPlan`] is more than the row ranges: at construction it analyzes
//! the matrix once and resolves a structure-adaptive [`Kernel`] (see
//! [`crate::kernel`]) — generic CSR, unchecked short-row, or a sliced
//! SELL-like layout — plus the execution [`Backend`] it runs on (scalar, or
//! an explicit-SIMD variant of the sliced kernel under the `simd` feature;
//! see [`crate::simd`]) — that every chunk then executes. Steppers compute
//! the plan **once per matrix** and reuse it across millions of products
//! (`Uniformized::stepper` in `regenr-ctmc` caches plans per
//! `(chunk count, kernel choice, backend choice)`, one plan for every
//! blocked-RHS width).
//!
//! There is one execution strategy: [`CsrMatrix::mul_vec_pooled_into`] (and
//! its blocked sibling [`CsrMatrix::mul_mat_pooled_into`]) runs the chunks
//! on a persistent [`WorkerPool`] of parked threads, so repeated products
//! pay only a condvar wake instead of per-product thread creation.
//! [`CsrMatrix::mul_vec_parallel_into`] is the per-call convenience over
//! the shared global pool; small matrices fall back to the serial path
//! under [`ParallelConfig::min_nnz`] (a pool wake ≫ product cost there).

use crate::csr::CsrMatrix;
use crate::kernel::{Kernel, KernelChoice, KernelKind, MAX_RHS_BLOCK};
use crate::pool::WorkerPool;
use crate::simd::{Backend, BackendChoice};

/// Tuning for the parallel SpMV kernels. The layout a plan builds (index
/// width, SELL-σ sorting) and the blocked-RHS width are not tuning: they
/// follow from the matrix and the resolved kernel (see [`crate::kernel`]
/// and [`KernelKind::block_width`]).
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Below this nnz the serial kernel is used (dispatch overhead ≫ product
    /// cost).
    pub min_nnz: usize,
    /// Chunk count / maximum SpMV concurrency; `0` means "use available
    /// parallelism".
    pub threads: usize,
    /// Which SpMV kernel plan-driven products run (steppers and explicit
    /// [`ChunkPlan`]s) — [`KernelChoice::Auto`] analyzes the matrix once
    /// per plan and picks; a forced value skips the analysis. The per-call
    /// convenience [`CsrMatrix::mul_vec_parallel_into`] ignores this field
    /// and always runs the generic kernel: it re-plans every call, where
    /// even the layout-free kernels' one-time column validation would rival
    /// the product it serves. Every kernel is bitwise identical to the
    /// serial product, so this knob affects speed only.
    pub kernel: KernelChoice,
    /// Which execution backend the resolved kernel runs
    /// ([`BackendChoice::Auto`] probes the CPU once per process and takes
    /// the widest supported; forced values are clamped to the hardware —
    /// see [`crate::simd`]). Only the sliced kernel has SIMD variants;
    /// generic and shortrow always run scalar. Like the kernel knob this
    /// affects speed only: every backend is bitwise identical to the serial
    /// product.
    pub backend: BackendChoice,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            // ~50k nnz ≈ the point where a few microseconds of dispatch
            // overhead stops mattering relative to memory-bound SpMV work.
            min_nnz: 50_000,
            threads: 0,
            kernel: KernelChoice::Auto,
            backend: BackendChoice::Auto,
        }
    }
}

/// Resolves `threads = 0` to the machine's available parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// An nnz-balanced decomposition of a matrix's rows into contiguous chunks —
/// the unit of work the parallel kernels distribute — plus the resolved
/// structure-adaptive [`Kernel`] every chunk executes. Computing the plan is
/// `O(nrows + nnz)` (one analysis pass, plus layout construction for the
/// layout-backed kernels); steppers compute it **once per matrix** and reuse
/// it across millions of products.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    ranges: Vec<std::ops::Range<usize>>,
    kernel: Kernel,
    nrows: usize,
    nnz: usize,
    /// Content signature of the build matrix (see
    /// [`CsrMatrix::content_sig`]), recorded only for layout-backed
    /// kernels: those embed a copy of the matrix's values, so such a plan
    /// must never be used with a different matrix — not even one of
    /// identical sparsity. Layout-free plans skip the signature entirely
    /// (they read every value from the matrix they are handed, and the
    /// `O(nnz)` hash would dominate a one-shot product).
    sig: Option<u64>,
}

impl ChunkPlan {
    /// Plans `matrix`'s rows into at most `chunks` nnz-balanced pieces,
    /// auto-selecting the kernel from the matrix's structure (and the
    /// backend from the CPU).
    pub fn new(matrix: &CsrMatrix, chunks: usize) -> ChunkPlan {
        Self::with_kernel(matrix, chunks, KernelChoice::Auto)
    }

    /// Like [`ChunkPlan::new`] with an explicit kernel choice (forced
    /// choices skip the structure analysis).
    pub fn with_kernel(matrix: &CsrMatrix, chunks: usize, choice: KernelChoice) -> ChunkPlan {
        Self::with_kernel_backend(matrix, chunks, choice, BackendChoice::Auto)
    }

    /// Like [`ChunkPlan::with_kernel`] with an explicit execution backend
    /// (clamped to what the CPU supports — see [`crate::simd::resolve`]).
    /// The layout is a function of the matrix alone: compact `u16` column
    /// indices when the matrix is narrow enough, SELL-σ row sorting when it
    /// shrinks the sliced padding (see [`crate::kernel`]).
    pub fn with_kernel_backend(
        matrix: &CsrMatrix,
        chunks: usize,
        choice: KernelChoice,
        backend: BackendChoice,
    ) -> ChunkPlan {
        let kernel = Kernel::build(matrix, choice, backend);
        let sig = kernel.embeds_values().then(|| matrix.content_sig());
        ChunkPlan {
            ranges: matrix.balanced_row_chunks(chunks),
            kernel,
            nrows: matrix.nrows(),
            nnz: matrix.nnz(),
            sig,
        }
    }

    /// Rebinds this plan to `matrix`: a matrix with the **identical
    /// sparsity structure** as `donor` (the matrix this plan was built
    /// from) but new values. The nnz-balanced chunk ranges, the resolved
    /// kernel kind/backend, the compact-index decision, and the SELL-σ
    /// sort/permutation all carry over unchanged — each is a deterministic
    /// function of the structure alone — and only the value-embedding
    /// layouts are refilled from `matrix` (an `O(nnz)` copy instead of the
    /// full profile-analyze + layout-build pass). The returned plan records
    /// `matrix`'s content signature, so it guards its new matrix exactly
    /// like a freshly built plan.
    ///
    /// # Panics
    /// If this plan was not built from `donor`, or `donor` and `matrix`
    /// differ in shape, row pointers, or column indices — rebinding across
    /// structures would silently compute garbage, so the structure match is
    /// asserted, not assumed.
    pub fn rebind(&self, donor: &CsrMatrix, matrix: &CsrMatrix) -> ChunkPlan {
        self.check_matrix(donor);
        assert!(
            donor.nrows() == matrix.nrows()
                && donor.ncols() == matrix.ncols()
                && donor.row_ptr() == matrix.row_ptr()
                && donor.col_idx() == matrix.col_idx(),
            "plan rebind requires identical sparsity structure"
        );
        let kernel = self.kernel.rebind(matrix);
        let sig = kernel.embeds_values().then(|| matrix.content_sig());
        ChunkPlan {
            ranges: self.ranges.clone(),
            kernel,
            nrows: self.nrows,
            nnz: self.nnz,
            sig,
        }
    }

    /// The planned row ranges (contiguous, covering all rows in order).
    pub fn ranges(&self) -> &[std::ops::Range<usize>] {
        &self.ranges
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the plan has no chunks (zero-row matrix).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The kernel this plan resolved (selection is deterministic: a function
    /// of the matrix alone, never of the chunk count).
    pub fn kernel_kind(&self) -> KernelKind {
        self.kernel.kind()
    }

    /// The execution backend the resolved kernel runs on (scalar unless the
    /// `simd` feature is active, the target is `x86_64`, and the kernel is
    /// sliced — the only one with vector variants).
    pub fn backend(&self) -> Backend {
        self.kernel.backend()
    }

    /// The resolved column-index storage width in bits (16 when the layout
    /// stores compact `u16` indices, else 32 — the CSR native width).
    pub fn index_width(&self) -> u8 {
        self.kernel.index_width()
    }

    /// Whether the resolved layout is SELL-σ row-sorted.
    pub fn sorted(&self) -> bool {
        self.kernel.sorted()
    }

    /// The resolved kernel.
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Heap bytes held by the kernel's auxiliary layout (zero for the
    /// layout-free kernels). Callers accounting a cached matrix's footprint
    /// add this on top of the matrix's own bytes.
    pub fn kernel_bytes(&self) -> usize {
        self.kernel.layout_bytes()
    }

    /// Panics unless this plan may be used with `matrix`. Shape and nnz
    /// are always checked; for layout-backed kernels content equality is
    /// additionally checked via the memoized [`CsrMatrix::content_sig`]
    /// (`O(1)` after the matrix's first product), because those kernels
    /// would answer with the *build* matrix's values — a silently wrong
    /// product — if a same-sparsity different-values matrix were accepted.
    /// Layout-free kernels are value-correct for any compatible matrix.
    fn check_matrix(&self, matrix: &CsrMatrix) {
        assert!(
            self.nrows == matrix.nrows() && self.nnz == matrix.nnz(),
            "chunk plan does not cover this matrix's rows"
        );
        if let Some(sig) = self.sig {
            assert!(
                sig == matrix.content_sig(),
                "chunk plan was built from a different matrix (equal shape, different content)"
            );
        }
    }
}

/// A raw mutable pointer that may cross threads: the pooled kernel hands
/// each chunk a disjoint slice of the output vector.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl CsrMatrix {
    /// `y = A·x` over a precomputed [`ChunkPlan`] on a persistent
    /// [`WorkerPool`], through the plan's resolved kernel. Bitwise identical
    /// to [`CsrMatrix::mul_vec_into`] regardless of the kernel, the pool
    /// size, or how chunks get claimed; single-chunk plans skip the pool
    /// entirely and run the kernel on the calling thread.
    ///
    /// # Panics
    /// If `x`/`y` lengths mismatch the matrix, or the plan was built from a
    /// different matrix (shape/nnz mismatch).
    pub fn mul_vec_pooled_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        plan: &ChunkPlan,
        pool: &WorkerPool,
    ) {
        assert_eq!(x.len(), self.ncols(), "x length mismatch");
        assert_eq!(y.len(), self.nrows(), "y length mismatch");
        plan.check_matrix(self);
        if plan.len() <= 1 {
            if let Some(range) = plan.ranges.first() {
                // Same fault name as the pooled path: single-chunk plans
                // (1-core machines) must still be able to inject a chunk
                // death for the supervisor's recovery story.
                regenr_failpoint::failpoint!("pool-chunk");
                plan.kernel().mul_rows(self, x, y, range.clone());
            }
            return;
        }
        let out = SendPtr(y.as_mut_ptr());
        pool.run(plan.len(), move |c| {
            let out = out;
            let range = plan.ranges[c].clone();
            // SAFETY: plan ranges are disjoint and within nrows == y.len(),
            // so each chunk writes a private slice of `y`.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(out.0.add(range.start), range.len()) };
            plan.kernel().mul_rows(self, x, slice, range);
        });
    }

    /// Blocked `Y = A·X` for `k` interleaved right-hand sides over a
    /// precomputed [`ChunkPlan`] on a persistent [`WorkerPool`]: `x` holds
    /// `ncols` rows of `k` columns (`x[c*k + j]`), `y` receives `nrows`
    /// rows of `k` columns. One streaming pass of the matrix moves all `k`
    /// vectors, which is what breaks the bandwidth wall for multi-horizon
    /// sweeps. Every column is bitwise identical to the serial
    /// [`CsrMatrix::mul_vec_into`] on that column alone, regardless of the
    /// kernel, backend, block width, pool size, or chunking.
    ///
    /// # Panics
    /// If `k` is 0 or exceeds [`MAX_RHS_BLOCK`], `x`/`y` lengths mismatch
    /// `ncols*k`/`nrows*k`, or the plan was built from a different matrix.
    pub fn mul_mat_pooled_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        plan: &ChunkPlan,
        pool: &WorkerPool,
        k: usize,
    ) {
        assert!(
            (1..=MAX_RHS_BLOCK).contains(&k),
            "rhs block {k} out of range"
        );
        if k == 1 {
            return self.mul_vec_pooled_into(x, y, plan, pool);
        }
        assert_eq!(x.len(), self.ncols() * k, "x length mismatch");
        assert_eq!(y.len(), self.nrows() * k, "y length mismatch");
        plan.check_matrix(self);
        if plan.len() <= 1 {
            if let Some(range) = plan.ranges.first() {
                regenr_failpoint::failpoint!("pool-chunk");
                plan.kernel().mul_rows_block(self, x, y, range.clone(), k);
            }
            return;
        }
        let out = SendPtr(y.as_mut_ptr());
        pool.run(plan.len(), move |c| {
            let out = out;
            let range = plan.ranges[c].clone();
            // SAFETY: plan ranges are disjoint and within nrows, so each
            // chunk writes a private `k`-column slice of `y`.
            let slice = unsafe {
                std::slice::from_raw_parts_mut(out.0.add(range.start * k), range.len() * k)
            };
            plan.kernel().mul_rows_block(self, x, slice, range, k);
        });
    }

    /// `y = A·x` through the shared global [`WorkerPool`], planning chunks
    /// per call. Falls back to [`CsrMatrix::mul_vec_into`] when the matrix
    /// is small or only one thread is requested. Results are bitwise
    /// identical to the serial product.
    ///
    /// Callers issuing *repeated* products over one matrix should prefer a
    /// cached plan (`Uniformized::stepper` in `regenr-ctmc`) — this entry
    /// point re-plans every call, so it always uses the generic kernel (a
    /// per-call layout build would dwarf the product it serves).
    pub fn mul_vec_parallel_into(&self, x: &[f64], y: &mut [f64], cfg: &ParallelConfig) {
        assert_eq!(x.len(), self.ncols(), "x length mismatch");
        assert_eq!(y.len(), self.nrows(), "y length mismatch");
        let threads = effective_threads(cfg.threads);
        if self.nnz() < cfg.min_nnz || threads <= 1 {
            self.mul_vec_into(x, y);
            return;
        }
        let plan = ChunkPlan::with_kernel(self, threads, KernelChoice::Generic);
        self.mul_vec_pooled_into(x, y, &plan, WorkerPool::global());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CooBuilder;

    fn band_matrix(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0 + i as f64 * 1e-3);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -0.5);
            }
        }
        b.build()
    }

    /// Rows of 1–7 entries cycling: every 8-row slice pads to the longest,
    /// so from 4 σ-windows (256 rows) up the sliced layout is σ-sorted.
    fn ragged_matrix(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0 + i as f64 * 1e-3);
            for d in 1..=i % 7 {
                b.push(i, (i + d * 3) % n, -0.5 / d as f64);
            }
        }
        b.build()
    }

    #[test]
    fn parallel_equals_serial_various_thread_counts() {
        let n = 997;
        let m = band_matrix(n);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let mut want = vec![0.0; n];
        m.mul_vec_into(&x, &mut want);
        for threads in [1, 2, 3, 8, 64] {
            let cfg = ParallelConfig {
                min_nnz: 0,
                threads,
                kernel: KernelChoice::Auto,
                ..Default::default()
            };
            let mut got = vec![0.0; n];
            m.mul_vec_parallel_into(&x, &mut got, &cfg);
            assert_eq!(got, want, "pooled threads={threads}");
        }
    }

    #[test]
    fn pooled_with_explicit_plan_and_pool() {
        let n = 503;
        let m = band_matrix(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.0; n];
        m.mul_vec_into(&x, &mut want);
        for pool_threads in [1, 2, 5] {
            let pool = WorkerPool::new(pool_threads);
            for chunks in [1, 2, 7, 32] {
                for choice in [
                    KernelChoice::Auto,
                    KernelChoice::Generic,
                    KernelChoice::ShortRow,
                    KernelChoice::Sliced,
                ] {
                    let plan = ChunkPlan::with_kernel(&m, chunks, choice);
                    let mut got = vec![0.0; n];
                    // Repeated products on the same warm pool and plan.
                    for _ in 0..3 {
                        m.mul_vec_pooled_into(&x, &mut got, &plan, &pool);
                    }
                    assert_eq!(got, want, "pool={pool_threads} chunks={chunks} {choice:?}");
                }
            }
        }
    }

    /// Pooled blocked products: every column bitwise identical to serial,
    /// across kernels, sorted and unsorted layouts, pool sizes, chunk
    /// counts, and block widths.
    #[test]
    fn pooled_blocked_product_is_bitwise_serial_per_column() {
        let pool = WorkerPool::new(3);
        for (m, sorted) in [(band_matrix(337), false), (ragged_matrix(337), true)] {
            let n = m.nrows();
            let mut want = vec![0.0; n];
            let x: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64 - 14.0).collect();
            m.mul_vec_into(&x, &mut want);
            for k in [1usize, 2, 4, 8] {
                let xk: Vec<f64> = (0..n * k).map(|i| x[i / k]).collect();
                for chunks in [1, 2, 7] {
                    for choice in [
                        KernelChoice::Auto,
                        KernelChoice::Sliced,
                        KernelChoice::ShortRow,
                    ] {
                        let plan = ChunkPlan::with_kernel(&m, chunks, choice);
                        if choice == KernelChoice::Sliced {
                            assert_eq!(plan.sorted(), sorted);
                        }
                        let mut got = vec![0.0; n * k];
                        m.mul_mat_pooled_into(&xk, &mut got, &plan, &pool, k);
                        for r in 0..n {
                            for j in 0..k {
                                assert_eq!(
                                    got[r * k + j].to_bits(),
                                    want[r].to_bits(),
                                    "k={k} chunks={chunks} {choice:?} sorted={sorted} row {r}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Rebinding a plan to a same-structure different-values matrix must
    /// (a) keep the resolved kernel/backend/layout decisions, (b) produce
    /// products bitwise identical to a plan built fresh on the new matrix,
    /// and (c) re-guard with the new matrix's content signature.
    #[test]
    fn plan_rebind_matches_fresh_build_for_every_kernel() {
        let n = 256;
        let a = ragged_matrix(n);
        let mut bld = CooBuilder::new(n, n);
        for (i, j, v) in a.iter() {
            bld.push(i, j, v * 1.75 + 0.125); // same pattern, new values
        }
        let b = bld.build();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        let mut want = vec![0.0; n];
        b.mul_vec_into(&x, &mut want);
        let pool = WorkerPool::new(2);
        for choice in [
            KernelChoice::Auto,
            KernelChoice::Generic,
            KernelChoice::ShortRow,
            KernelChoice::Sliced,
        ] {
            let donor_plan = ChunkPlan::with_kernel(&a, 3, choice);
            if choice == KernelChoice::Sliced {
                assert!(donor_plan.sorted(), "the σ-sorted layout must rebind too");
            }
            let rebound = donor_plan.rebind(&a, &b);
            assert_eq!(rebound.kernel_kind(), donor_plan.kernel_kind());
            assert_eq!(rebound.backend(), donor_plan.backend());
            assert_eq!(rebound.index_width(), donor_plan.index_width());
            assert_eq!(rebound.sorted(), donor_plan.sorted());
            assert_eq!(rebound.ranges(), donor_plan.ranges());
            let mut got = vec![0.0; n];
            b.mul_vec_pooled_into(&x, &mut got, &rebound, &pool);
            for r in 0..n {
                assert_eq!(
                    got[r].to_bits(),
                    want[r].to_bits(),
                    "{choice:?} row {r} after rebind"
                );
            }
            // Blocked path too: the refilled layouts serve SpMM unchanged.
            let k = 4;
            let xk: Vec<f64> = (0..n * k).map(|i| x[i / k]).collect();
            let mut gotk = vec![0.0; n * k];
            b.mul_mat_pooled_into(&xk, &mut gotk, &rebound, &pool, k);
            for r in 0..n {
                for j in 0..k {
                    assert_eq!(gotk[r * k + j].to_bits(), want[r].to_bits());
                }
            }
        }
    }

    /// A rebound value-embedding plan guards against the *donor* matrix —
    /// the signature now describes the rebind target.
    #[test]
    #[should_panic(expected = "different matrix")]
    fn rebound_plan_rejects_the_donor_matrix() {
        let n = 64;
        let a = band_matrix(n);
        let mut bld = CooBuilder::new(n, n);
        for (i, j, v) in a.iter() {
            // Shift by 0.25 (not 1.0): no band entry is -0.25, so every
            // entry stays nonzero and the COO builder keeps the pattern.
            bld.push(i, j, v + 0.25);
        }
        let b = bld.build();
        let plan = ChunkPlan::with_kernel(&a, 2, KernelChoice::Sliced);
        let rebound = plan.rebind(&a, &b);
        let mut y = vec![0.0; n];
        a.mul_vec_pooled_into(&vec![1.0; n], &mut y, &rebound, WorkerPool::global());
    }

    /// Rebinding across different structures must be rejected loudly.
    #[test]
    #[should_panic(expected = "identical sparsity structure")]
    fn rebind_across_structures_is_rejected() {
        let a = band_matrix(64);
        let mut bld = CooBuilder::new(64, 64);
        for i in 0..64 {
            bld.push(i, i, 1.0); // diagonal-only: different pattern
        }
        let b = bld.build();
        let plan = ChunkPlan::new(&a, 2);
        let _ = plan.rebind(&a, &b);
    }

    #[test]
    #[should_panic(expected = "chunk plan does not cover")]
    fn plan_from_wrong_matrix_is_rejected() {
        let a = band_matrix(10);
        let b = band_matrix(20);
        let plan = ChunkPlan::new(&a, 2);
        let mut y = vec![0.0; 20];
        b.mul_vec_pooled_into(&[1.0; 20], &mut y, &plan, WorkerPool::global());
    }

    /// Layout-backed kernels embed the build matrix's values, so even a
    /// matrix with *identical sparsity* but different values must be
    /// rejected — accepting it would silently return the wrong product.
    #[test]
    #[should_panic(expected = "different matrix")]
    fn plan_from_same_shape_different_values_is_rejected() {
        let n = 64;
        let a = band_matrix(n);
        let mut bld = CooBuilder::new(n, n);
        for (i, j, v) in a.iter() {
            bld.push(i, j, v + 0.25); // same pattern, different (nonzero) values
        }
        let b = bld.build();
        let plan = ChunkPlan::with_kernel(&a, 2, KernelChoice::Sliced);
        let mut y = vec![0.0; n];
        b.mul_vec_pooled_into(&vec![1.0; n], &mut y, &plan, WorkerPool::global());
    }

    /// A clone (bitwise-identical content, different allocation) is a valid
    /// plan target — the content signature, not the allocation, decides.
    #[test]
    fn plan_accepts_an_identical_clone() {
        let n = 64;
        let a = band_matrix(n);
        let b = a.clone();
        let plan = ChunkPlan::with_kernel(&a, 2, KernelChoice::Sliced);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        let mut got = vec![0.0; n];
        b.mul_vec_pooled_into(&x, &mut got, &plan, WorkerPool::global());
        assert_eq!(want, got);
    }

    #[test]
    fn small_matrix_uses_serial_path() {
        let m = band_matrix(4);
        let cfg = ParallelConfig::default(); // min_nnz = 50k > nnz
        let mut y = vec![0.0; 4];
        m.mul_vec_parallel_into(&[1.0; 4], &mut y, &cfg);
        let mut want = vec![0.0; 4];
        m.mul_vec_into(&[1.0; 4], &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn more_threads_than_rows() {
        let m = band_matrix(3);
        let cfg = ParallelConfig {
            min_nnz: 0,
            threads: 16,
            kernel: KernelChoice::Auto,
            ..Default::default()
        };
        let mut y = vec![0.0; 3];
        m.mul_vec_parallel_into(&[1.0, 2.0, 3.0], &mut y, &cfg);
        let mut want = vec![0.0; 3];
        m.mul_vec_into(&[1.0, 2.0, 3.0], &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn plan_ranges_are_the_balanced_row_chunks() {
        let m = band_matrix(200);
        for chunks in [1, 3, 8] {
            let plan = ChunkPlan::new(&m, chunks);
            let direct = m.balanced_row_chunks(chunks);
            assert_eq!(plan.ranges(), &direct[..], "chunks={chunks}");
        }
    }
}
