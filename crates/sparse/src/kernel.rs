//! Structure-adaptive SpMV kernels.
//!
//! The randomization solvers spend nearly all their time in `y = A·x` over
//! one fixed matrix, and the models the paper evaluates produce highly
//! structured generators: short rows (a handful of transitions per state)
//! and near-uniform row lengths. A single generic CSR loop leaves
//! measurable factors on the table there, so the execution layer analyzes
//! each matrix **once** (at [`ChunkPlan`](crate::ChunkPlan) construction)
//! and picks a kernel:
//!
//! * **generic** — the textbook bounds-checked CSR gather; the ground truth
//!   every other kernel must match bitwise, and the choice for matrices too
//!   small to amortize a layout.
//! * **shortrow** — the same loop with one-time-validated unchecked indexing;
//!   wins on short-row matrices where per-element bounds checks and loop
//!   overhead rival the arithmetic.
//! * **sliced** — a SELL-C-σ layout (Kreutzer et al., SIAM J. Sci. Comput.
//!   2014): groups of [`LANES`] consecutive rows store their entries
//!   lane-interleaved and padded to the slice width, so the inner loop
//!   advances all lanes in lock-step with independent accumulators
//!   (breaking the single-accumulator latency chain). Rows far longer than
//!   average are excluded from slices (they would explode the padding) and
//!   handled row-wise.
//!
//! ## Layout
//!
//! The layout a kernel builds is a function of the matrix alone, never a
//! setting: shortrow and sliced store compact `u16` column indices whenever
//! `ncols ≤ 65 535` (`u32` otherwise), and sliced sorts rows by length
//! within [`SIGMA`]-row windows (SELL-σ) when the matrix has at least four
//! full windows and sorting strictly shrinks the padding. How many
//! right-hand sides one blocked pass moves is a function of the kernel
//! ([`KernelKind::block_width`]).
//!
//! ## Backends
//!
//! The sliced kernel additionally comes in explicit-SIMD *backends* (x86_64
//! SSE2/AVX2 intrinsics behind the `simd` cargo feature and runtime CPUID
//! dispatch — see [`crate::simd`]): its lanes are whole independent rows,
//! so the vector variant is the SELL strategy executed for real (vector
//! gathers for `x`, lane-parallel multiply/add, blend-predicated ragged
//! spans) and every row still accumulates in CSR order. The scalar loops
//! remain the mandatory fallback. Generic and shortrow always run scalar:
//! a vectorized shortrow must fold each row's products back in index order,
//! which is add-latency bound, and measured slower than the scalar loop on
//! every ablated matrix (`repro kernels`).
//!
//! ## Bitwise identity
//!
//! Every kernel accumulates each output row's products **in the row's CSR
//! order with a single accumulator** — only *which rows* a loop iteration
//! advances differs. Padded slice positions are never accumulated: a padded
//! cell's `0.0 × x[pad_col]` is only a no-op for finite `x`, and becomes
//! `NaN` the moment the input vector carries `±inf`/`NaN` (which transient
//! iterates can, transiently, on degenerate models) — so per-lane lengths
//! gate the tail iterations instead of relying on zero padding. The
//! proptests pin every kernel to the serial [`CsrMatrix::mul_vec_into`]
//! result bit for bit.
//!
//! ## Safety
//!
//! The non-generic kernels use unchecked indexing. Soundness rests on the
//! CSR construction invariant `col < ncols` (enforced by
//! [`CooBuilder`](crate::CooBuilder) and preserved by every transform);
//! `Kernel::build` re-validates it with one `O(nnz)` scan before an
//! unchecked kernel is ever selected, and `mul_rows` asserts the matrix it
//! is handed matches the one the kernel was built from (`nrows`/`nnz`).

use crate::csr::CsrMatrix;
use crate::simd::{self, Backend, BackendChoice};

/// Lanes per slice of the sliced layout (rows advanced in lock-step).
pub const LANES: usize = 8;

/// Sorting-window size for SELL-σ row sorting: rows are reordered by length
/// only **within** σ-row windows, so a window's rows stay inside a
/// σ-aligned row band and chunked execution can scatter results without
/// ever writing outside its chunk. Must be a multiple of [`LANES`].
pub const SIGMA: usize = 64;

/// Slices per σ-window.
const WINDOW_SLICES: usize = SIGMA / LANES;

/// Largest supported right-hand-side block for the blocked (multi-vector)
/// SpMM entry points. Bounds the per-row accumulator arrays.
pub const MAX_RHS_BLOCK: usize = 8;

/// Row length above which a row counts as "short" for selection purposes.
const SHORT_ROW_LEN: usize = 16;

/// Below this nnz no layout is built: setup would dwarf the products a
/// matrix this small ever receives, and the generic loop is already fast.
const MIN_KERNEL_NNZ: usize = 4_096;

/// A user-facing kernel selection: automatic, or one forced kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Analyze the matrix and pick (the default).
    #[default]
    Auto,
    /// Force the generic bounds-checked CSR loop.
    Generic,
    /// Force the unrolled short-row kernel.
    ShortRow,
    /// Force the sliced (SELL-like) layout.
    Sliced,
}

impl KernelChoice {
    /// The forced kind, or `None` for `Auto`.
    pub fn forced(self) -> Option<KernelKind> {
        match self {
            KernelChoice::Auto => None,
            KernelChoice::Generic => Some(KernelKind::Generic),
            KernelChoice::ShortRow => Some(KernelKind::ShortRow),
            KernelChoice::Sliced => Some(KernelKind::Sliced),
        }
    }

    /// Parses the CLI/spec spelling (`auto`, `generic`, `shortrow`,
    /// `sliced`).
    pub fn parse(s: &str) -> Result<KernelChoice, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelChoice::Auto),
            "generic" => Ok(KernelChoice::Generic),
            "shortrow" => Ok(KernelChoice::ShortRow),
            "sliced" => Ok(KernelChoice::Sliced),
            other => Err(format!(
                "unknown kernel {other:?} (expected auto/generic/shortrow/sliced)"
            )),
        }
    }
}

/// A resolved kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Bounds-checked CSR loop.
    Generic,
    /// Unchecked-indexing CSR loop.
    ShortRow,
    /// Lane-interleaved sliced layout.
    Sliced,
}

impl KernelKind {
    /// Stable name used in reports, CSVs and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Generic => "generic",
            KernelKind::ShortRow => "shortrow",
            KernelKind::Sliced => "sliced",
        }
    }

    /// How many right-hand sides one blocked pass over this kernel should
    /// move when a caller has compatible computations to group (the
    /// blocked-RHS ablation in `repro kernels` / `results/kernels.csv`):
    /// shortrow's per-cell speedup keeps growing through `k = 8` (2.19× at
    /// G=40, 2.83× at G=20 over `k = 1`, vs 1.99×/2.43× at `k = 4`) because
    /// its bitwise in-order reduction is latency-bound and wider blocks hide
    /// more of it; generic and sliced stay at the all-round `k = 4` — their
    /// measured blocked rows plateau there and wider interleaving starts
    /// thrashing the per-row accumulator registers. Speed only: every
    /// blocked column is bitwise identical to the serial product.
    pub fn block_width(self) -> usize {
        match self {
            KernelKind::ShortRow => MAX_RHS_BLOCK,
            KernelKind::Generic | KernelKind::Sliced => 4,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One-pass structural summary of a matrix, the input to kernel selection.
/// Deterministic: a function of the matrix entries alone (never of thread
/// counts, chunk counts, or timing), so selection is reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatrixProfile {
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Longest row (diagnostic; selection keys on the short-row fraction).
    pub max_row_len: usize,
    /// Mean row length (diagnostic).
    pub mean_row_len: f64,
    /// Fraction of rows with at most 16 entries.
    pub short_row_frac: f64,
    /// Stored entries of sliceable (non-tail) rows divided by the padded
    /// slice cells they would occupy — 1.0 means a perfectly uniform layout
    /// (diagnostic, reported by the ablation tooling).
    pub sliced_fill: f64,
}

impl MatrixProfile {
    /// Analyzes `m` in one `O(nrows)` pass over its row pointers.
    pub fn analyze(m: &CsrMatrix) -> MatrixProfile {
        let n = m.nrows();
        let row_ptr = m.row_ptr();
        let nnz = m.nnz();
        let mut max_row_len = 0usize;
        let mut short_rows = 0usize;
        for i in 0..n {
            let len = row_ptr[i + 1] - row_ptr[i];
            max_row_len = max_row_len.max(len);
            if len <= SHORT_ROW_LEN {
                short_rows += 1;
            }
        }
        // Simulated sliced layout: padded cells if consecutive LANES-rows
        // shared a slice, tail rows excluded.
        let tail = tail_threshold(nnz, n);
        let mut padded_cells = 0usize;
        let mut sliceable_nnz = 0usize;
        for s in 0..n / LANES {
            let mut width = 0usize;
            for l in 0..LANES {
                let i = s * LANES + l;
                let len = row_ptr[i + 1] - row_ptr[i];
                if len <= tail {
                    width = width.max(len);
                    sliceable_nnz += len;
                }
            }
            padded_cells += width * LANES;
        }
        MatrixProfile {
            nrows: n,
            ncols: m.ncols(),
            nnz,
            max_row_len,
            mean_row_len: nnz as f64 / n.max(1) as f64,
            short_row_frac: short_rows as f64 / n.max(1) as f64,
            sliced_fill: sliceable_nnz as f64 / padded_cells.max(1) as f64,
        }
    }

    /// The kernel [`KernelChoice::Auto`] resolves to for this profile.
    ///
    /// The order encodes the measured wins on this workspace's models
    /// (`repro kernels`): mostly-short rows — the shape every RAID-style
    /// generator produces — take the validated unchecked loop (≈ 1.9× over
    /// generic on the paper's G=20/40 grid); everything else takes the
    /// sliced layout, whose fill guard demotes badly padded slices to the
    /// unchecked row loop (2.4× over generic on the long-ragged `diagdense`
    /// matrix, the fastest kernel there).
    /// Generic is the slowest kernel on every ablated matrix and is kept
    /// only for matrices too small to amortize a layout.
    pub fn select(&self) -> KernelKind {
        if self.nnz < MIN_KERNEL_NNZ || self.nrows < LANES {
            KernelKind::Generic
        } else if self.short_row_frac >= 0.85 {
            KernelKind::ShortRow
        } else {
            KernelKind::Sliced
        }
    }
}

/// Rows longer than this are excluded from slices (padding would explode)
/// and from the short-row census' notion of "uniform".
fn tail_threshold(nnz: usize, nrows: usize) -> usize {
    32usize.max(4 * (nnz / nrows.max(1)))
}

/// Compact column-index storage for the layout-backed kernels: `u16` when
/// the matrix's column count fits (halving index traffic), `u32` otherwise.
/// Indices are exact integers either way, so the stored width never affects
/// results — only bytes streamed.
#[derive(Clone, Debug)]
enum PackedIdx {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl PackedIdx {
    /// Heap bytes by allocation capacity (for plan-bytes accounting).
    fn heap_bytes(&self) -> usize {
        match self {
            PackedIdx::U16(v) => v.capacity() * std::mem::size_of::<u16>(),
            PackedIdx::U32(v) => v.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// The resolved width in bits (16 or 32).
    fn width(&self) -> u8 {
        match self {
            PackedIdx::U16(_) => 16,
            PackedIdx::U32(_) => 32,
        }
    }
}

/// Scalar access to a column index of either width. The scalar and SSE2
/// loops monomorphize over this; the AVX2 loops (which cannot be generic
/// under `#[target_feature]`) are stamped out per width by macro instead.
trait IdxVal: Copy {
    fn idx(self) -> usize;
}

impl IdxVal for u32 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl IdxVal for u16 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Sentinel length marking a tail row (excluded from its slice).
const TAIL_SENTINEL: u32 = u32::MAX;

/// SELL-like sliced layout over the full `LANES`-row slices of the matrix;
/// the ragged tail (last partial slice) and overlong rows fall back to the
/// row-wise kernel.
///
/// With SELL-σ sorting enabled (`row_map` present), rows are reordered by
/// length **within σ-row windows** before slicing; the stored stable
/// permutation scatters each lane's result back to its original row, so
/// sorted layouts stay bitwise identical to serial. Because sorting never
/// crosses a window boundary, a σ-window's original rows are exactly the
/// rows `w·σ .. (w+1)·σ` — whole windows inside a chunk can execute sliced
/// and scatter safely, while partially covered windows fall back to
/// row-wise execution on the original matrix.
#[derive(Clone, Debug)]
struct SlicedData {
    /// Start of each full slice in `vals`/`cols` (`full_slices + 1` ends).
    slice_ptr: Vec<usize>,
    /// Per-slice minimum sliceable row length (the unpredicated span).
    min_len: Vec<u32>,
    /// Per-**position** entry counts (position = sorted position under
    /// SELL-σ, original row otherwise); `TAIL_SENTINEL` marks rows handled
    /// row-wise.
    lens: Vec<u32>,
    /// Lane-interleaved values, padded with zeros (never accumulated).
    vals: Vec<f64>,
    /// Lane-interleaved columns, `u16`-compacted when the matrix fits
    /// (padding repeats column 0 — never read).
    cols: PackedIdx,
    /// Tail-row **original** indices (ascending), handled row-wise.
    tail_rows: Vec<u32>,
    /// SELL-σ permutation: sorted position → original row. `None` for
    /// unsorted layouts.
    row_map: Option<Vec<u32>>,
}

impl SlicedData {
    fn build(m: &CsrMatrix, compact: bool) -> SlicedData {
        let n = m.nrows();
        let rp = m.row_ptr();
        let mvals = m.values();
        let mcols = m.col_idx();
        let tail = tail_threshold(m.nnz(), n);
        let windows = n / SIGMA;
        let row_len = |i: usize| rp[i + 1] - rp[i];
        // SELL-σ decision. The padding estimate mirrors the layout (tail
        // rows excluded from widths); rows are sorted only when the matrix
        // has enough full windows for the forfeited window-boundary slices
        // not to matter and sorting strictly shrinks the padded layout — a
        // deterministic function of the structure alone.
        let perm: Option<Vec<u32>> = if windows >= 4 {
            let mut order: Vec<u32> = (0..(windows * SIGMA) as u32).collect();
            for w in 0..windows {
                order[w * SIGMA..(w + 1) * SIGMA].sort_by_key(|&r| (row_len(r as usize), r));
            }
            let padded = |pos_row: &dyn Fn(usize) -> usize| -> usize {
                let mut cells = 0usize;
                for s in 0..windows * WINDOW_SLICES {
                    let mut w = 0usize;
                    for l in 0..LANES {
                        let len = row_len(pos_row(s * LANES + l));
                        if len <= tail {
                            w = w.max(len);
                        }
                    }
                    cells += w * LANES;
                }
                cells
            };
            (padded(&|p| order[p] as usize) < padded(&|p| p)).then_some(order)
        } else {
            None
        };
        let full = match &perm {
            Some(_) => windows * WINDOW_SLICES,
            None => n / LANES,
        };
        let pos_row = |p: usize| -> usize {
            match &perm {
                Some(o) => o[p] as usize,
                None => p,
            }
        };
        let mut slice_ptr = Vec::with_capacity(full + 1);
        let mut min_len = Vec::with_capacity(full);
        let mut lens = vec![0u32; full * LANES];
        let mut tail_rows = Vec::new();
        slice_ptr.push(0);
        let mut off = 0usize;
        for s in 0..full {
            let mut width = 0usize;
            let mut lo = u32::MAX;
            let mut slice_nnz = 0usize;
            for l in 0..LANES {
                let p = s * LANES + l;
                let len = row_len(pos_row(p));
                if len > tail {
                    lens[p] = TAIL_SENTINEL;
                    lo = 0;
                } else {
                    lens[p] = len as u32;
                    width = width.max(len);
                    lo = lo.min(len as u32);
                    slice_nnz += len;
                }
            }
            // Fill guard: a slice whose padding would more than double its
            // stored entries (one long row among short ones) is demoted to
            // row-wise execution wholesale — this bounds the whole layout
            // at ≤ 2× the matrix's entries, keeps ragged slices off the
            // predicated slow path, and keeps cached-layout bytes
            // accountable.
            if width * LANES > 2 * slice_nnz.max(1) {
                for l in 0..LANES {
                    lens[s * LANES + l] = TAIL_SENTINEL;
                }
                width = 0;
                lo = 0;
            }
            for l in 0..LANES {
                let p = s * LANES + l;
                if lens[p] == TAIL_SENTINEL {
                    tail_rows.push(pos_row(p) as u32);
                }
            }
            off += width * LANES;
            min_len.push(lo);
            slice_ptr.push(off);
        }
        // The row-wise fallback walks tail rows by original index.
        tail_rows.sort_unstable();
        let mut vals = vec![0.0f64; off];
        let mut cols32 = vec![0u32; off];
        // Index-based on purpose: `s` addresses slice_ptr, lens, and the
        // position space in lock-step.
        #[allow(clippy::needless_range_loop)]
        for s in 0..full {
            let base = slice_ptr[s];
            for l in 0..LANES {
                let p = s * LANES + l;
                if lens[p] == TAIL_SENTINEL {
                    continue;
                }
                let i = pos_row(p);
                for (j, k) in (rp[i]..rp[i + 1]).enumerate() {
                    vals[base + j * LANES + l] = mvals[k];
                    cols32[base + j * LANES + l] = mcols[k];
                }
            }
        }
        let cols = if compact {
            PackedIdx::U16(cols32.iter().map(|&c| c as u16).collect())
        } else {
            PackedIdx::U32(cols32)
        };
        SlicedData {
            slice_ptr,
            min_len,
            lens,
            vals,
            cols,
            tail_rows,
            row_map: perm,
        }
    }

    /// Refills the lane-interleaved values from `m` — a matrix with the
    /// identical sparsity structure — reusing the slice geometry, compacted
    /// columns, tail list, and SELL-σ permutation untouched (padding cells
    /// keep their zeros). Replays `build`'s fill loop position-for-position.
    fn rebind(&self, m: &CsrMatrix) -> SlicedData {
        let mut out = self.clone();
        let rp = m.row_ptr();
        let mvals = m.values();
        let full = self.slice_ptr.len() - 1;
        #[allow(clippy::needless_range_loop)]
        for s in 0..full {
            let base = self.slice_ptr[s];
            for l in 0..LANES {
                let p = s * LANES + l;
                if self.lens[p] == TAIL_SENTINEL {
                    continue;
                }
                let i = match &self.row_map {
                    Some(o) => o[p] as usize,
                    None => p,
                };
                for (j, k) in (rp[i]..rp[i + 1]).enumerate() {
                    out.vals[base + j * LANES + l] = mvals[k];
                }
            }
        }
        out
    }

    /// The execution granule: `(rows per granule, number of full granules)`.
    /// Unsorted layouts execute whole `LANES`-row slices; σ-sorted layouts
    /// must execute whole σ-windows so the scatter stays inside the chunk.
    #[inline]
    fn granule(&self) -> (usize, usize) {
        let full = self.slice_ptr.len() - 1;
        match &self.row_map {
            Some(_) => (SIGMA, full / WINDOW_SLICES),
            None => (LANES, full),
        }
    }

    /// Output index for a slice lane: the scatter target under SELL-σ, the
    /// lane's own row otherwise.
    ///
    /// # Safety
    /// `row0 + l` must be a valid layout position whose output row lies at
    /// or after `out_base` (guaranteed by granule-aligned execution).
    #[inline(always)]
    unsafe fn lane_out(&self, row0: usize, l: usize, out_base: usize) -> usize {
        match &self.row_map {
            Some(rm) => unsafe { *rm.get_unchecked(row0 + l) as usize - out_base },
            None => row0 + l - out_base,
        }
    }

    /// # Safety
    /// Requires `col < x.len()` for every stored entry and `range.end <=
    /// nrows`, `out.len() == range.len()` (validated by [`Kernel::build`]
    /// and `mul_rows`' asserts); additionally `m` must be the matrix this
    /// layout was built from, and `backend` must be resolved
    /// ([`crate::simd::resolve`]) so a SIMD variant only runs on hardware
    /// that supports it.
    unsafe fn mul_rows(
        &self,
        m: &CsrMatrix,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
        backend: Backend,
    ) {
        let (g, full_g) = self.granule();
        let first_g = range.start.div_ceil(g);
        let last_g = (range.end / g).min(full_g);
        if first_g >= last_g {
            // No whole granule inside the chunk: row-wise covers everything.
            unsafe { mul_rows_unchecked(m, x, out, range) };
            return;
        }
        unsafe {
            // Head rows before the first whole granule.
            let head = range.start..first_g * g;
            if !head.is_empty() {
                mul_rows_unchecked(m, x, &mut out[..head.len()], head.clone());
            }
            let sl = g / LANES;
            self.slices_dispatch(x, out, range.start, first_g * sl, last_g * sl, backend);
            // Tail rows inside the sliced span, row-wise (original indices).
            let lo_row = (first_g * g) as u32;
            let hi_row = (last_g * g) as u32;
            let a = self.tail_rows.partition_point(|&r| r < lo_row);
            let b = self.tail_rows.partition_point(|&r| r < hi_row);
            for &i in &self.tail_rows[a..b] {
                let i = i as usize;
                let local = i - range.start;
                mul_rows_unchecked(m, x, &mut out[local..local + 1], i..i + 1);
            }
            // Rows after the last whole granule (including the matrix's own
            // ragged final slice).
            let rest = last_g * g..range.end;
            if !rest.is_empty() {
                let local = rest.start - range.start;
                mul_rows_unchecked(m, x, &mut out[local..], rest);
            }
        }
    }

    /// Backend × index-width dispatch for whole slices `first..last`.
    ///
    /// # Safety
    /// Contract of [`SlicedData::mul_rows`] (which delegates here).
    unsafe fn slices_dispatch(
        &self,
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
        backend: Backend,
    ) {
        unsafe {
            match (backend, &self.cols) {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Sse2, PackedIdx::U32(c)) => {
                    self.slices_sse2(c, x, out, out_base, first, last)
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Sse2, PackedIdx::U16(c)) => {
                    self.slices_sse2(c, x, out, out_base, first, last)
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Avx2, PackedIdx::U32(c)) => {
                    self.slices_avx2_u32(c, x, out, out_base, first, last)
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Avx2, PackedIdx::U16(c)) => {
                    self.slices_avx2_u16(c, x, out, out_base, first, last)
                }
                // Scalar — and, in a non-SIMD build, whatever resolve()
                // could not honor (unreachable in practice; scalar is still
                // a correct answer).
                (_, PackedIdx::U32(c)) => self.slices_scalar(c, x, out, out_base, first, last),
                (_, PackedIdx::U16(c)) => self.slices_scalar(c, x, out, out_base, first, last),
            }
        }
    }

    /// Scalar slice loop over whole slices `first..last`. `out_base` is the
    /// chunk's first row (out is chunk-local).
    ///
    /// # Safety
    /// Same contract as `mul_rows` (which delegates here); `cols` must be
    /// this layout's own index array.
    // The lane loops are index-based on purpose: `l` addresses the
    // accumulator array and the interleaved layout arrays in lock-step —
    // the shape the compiler autovectorizes.
    #[allow(clippy::needless_range_loop)]
    unsafe fn slices_scalar<I: IdxVal>(
        &self,
        cols: &[I],
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
    ) {
        unsafe {
            for s in first..last {
                let base = *self.slice_ptr.get_unchecked(s);
                let width = (*self.slice_ptr.get_unchecked(s + 1) - base) / LANES;
                let row0 = s * LANES;
                let mut acc = [0.0f64; LANES];
                // Lock-step span: all lanes active, no predication.
                let lo = *self.min_len.get_unchecked(s) as usize;
                for j in 0..lo {
                    let o = base + j * LANES;
                    for l in 0..LANES {
                        acc[l] += self.vals.get_unchecked(o + l)
                            * x.get_unchecked(cols.get_unchecked(o + l).idx());
                    }
                }
                // Ragged span: per-lane length gates each accumulation, so
                // padded cells are never added (bitwise identity).
                for j in lo..width {
                    let o = base + j * LANES;
                    for l in 0..LANES {
                        let len = *self.lens.get_unchecked(row0 + l);
                        if len != TAIL_SENTINEL && j < len as usize {
                            acc[l] += self.vals.get_unchecked(o + l)
                                * x.get_unchecked(cols.get_unchecked(o + l).idx());
                        }
                    }
                }
                for l in 0..LANES {
                    if *self.lens.get_unchecked(row0 + l) != TAIL_SENTINEL {
                        *out.get_unchecked_mut(self.lane_out(row0, l, out_base)) = acc[l];
                    }
                }
            }
        }
    }

    /// Blocked counterpart of [`SlicedData::mul_rows`]: `k` interleaved
    /// right-hand sides per pass of the layout.
    ///
    /// # Safety
    /// Contract of [`SlicedData::mul_rows`], with `x`/`out` holding `k`
    /// interleaved columns.
    unsafe fn mul_rows_block(
        &self,
        m: &CsrMatrix,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
        k: usize,
        backend: Backend,
    ) {
        let (g, full_g) = self.granule();
        let first_g = range.start.div_ceil(g);
        let last_g = (range.end / g).min(full_g);
        if first_g >= last_g {
            unsafe { block_rowwise_mat(m, x, out, range, k) };
            return;
        }
        unsafe {
            let head = range.start..first_g * g;
            if !head.is_empty() {
                block_rowwise_mat(m, x, &mut out[..head.len() * k], head.clone(), k);
            }
            let sl = g / LANES;
            self.slices_block_dispatch(x, out, range.start, first_g * sl, last_g * sl, k, backend);
            let lo_row = (first_g * g) as u32;
            let hi_row = (last_g * g) as u32;
            let a = self.tail_rows.partition_point(|&r| r < lo_row);
            let b = self.tail_rows.partition_point(|&r| r < hi_row);
            for &i in &self.tail_rows[a..b] {
                let i = i as usize;
                let local = (i - range.start) * k;
                block_rowwise_mat(m, x, &mut out[local..local + k], i..i + 1, k);
            }
            let rest = last_g * g..range.end;
            if !rest.is_empty() {
                let local = (rest.start - range.start) * k;
                block_rowwise_mat(m, x, &mut out[local..], rest, k);
            }
        }
    }

    /// Backend × index-width dispatch for blocked whole slices. SIMD
    /// variants need `k` divisible by their lane count; anything else runs
    /// the scalar loop (bitwise identical either way).
    ///
    /// # Safety
    /// Contract of [`SlicedData::mul_rows_block`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn slices_block_dispatch(
        &self,
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
        k: usize,
        backend: Backend,
    ) {
        unsafe {
            match (backend, &self.cols) {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Avx2, PackedIdx::U32(c)) if k.is_multiple_of(4) => {
                    self.slices_block_avx2_u32(c, x, out, out_base, first, last, k)
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Avx2, PackedIdx::U16(c)) if k.is_multiple_of(4) => {
                    self.slices_block_avx2_u16(c, x, out, out_base, first, last, k)
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Avx2 | Backend::Sse2, PackedIdx::U32(c)) if k.is_multiple_of(2) => {
                    self.slices_block_sse2(c, x, out, out_base, first, last, k)
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                (Backend::Avx2 | Backend::Sse2, PackedIdx::U16(c)) if k.is_multiple_of(2) => {
                    self.slices_block_sse2(c, x, out, out_base, first, last, k)
                }
                (_, PackedIdx::U32(c)) => {
                    self.slices_block_scalar(c, x, out, out_base, first, last, k)
                }
                (_, PackedIdx::U16(c)) => {
                    self.slices_block_scalar(c, x, out, out_base, first, last, k)
                }
            }
        }
    }

    /// Scalar blocked slice loop, lane-major: each lane (one row) streams
    /// its entries once and advances all `k` columns with independent
    /// accumulators in CSR entry order — per-column bitwise identity by
    /// construction, no predication needed (each lane uses its own length).
    ///
    /// # Safety
    /// Contract of [`SlicedData::mul_rows_block`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn slices_block_scalar<I: IdxVal>(
        &self,
        cols: &[I],
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
        k: usize,
    ) {
        // Monomorphized per width: the const-size accumulator avoids a
        // per-lane memset/memcpy pair that otherwise dominates short rows.
        unsafe {
            match k {
                1 => self.slices_block_scalar_k::<I, 1>(cols, x, out, out_base, first, last),
                2 => self.slices_block_scalar_k::<I, 2>(cols, x, out, out_base, first, last),
                3 => self.slices_block_scalar_k::<I, 3>(cols, x, out, out_base, first, last),
                4 => self.slices_block_scalar_k::<I, 4>(cols, x, out, out_base, first, last),
                5 => self.slices_block_scalar_k::<I, 5>(cols, x, out, out_base, first, last),
                6 => self.slices_block_scalar_k::<I, 6>(cols, x, out, out_base, first, last),
                7 => self.slices_block_scalar_k::<I, 7>(cols, x, out, out_base, first, last),
                8 => self.slices_block_scalar_k::<I, 8>(cols, x, out, out_base, first, last),
                _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
            }
        }
    }

    /// Const-width body of [`SlicedData::slices_block_scalar`].
    ///
    /// # Safety
    /// Contract of [`SlicedData::mul_rows_block`] with `k = K`.
    unsafe fn slices_block_scalar_k<I: IdxVal, const K: usize>(
        &self,
        cols: &[I],
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
    ) {
        unsafe {
            for s in first..last {
                let base = *self.slice_ptr.get_unchecked(s);
                let row0 = s * LANES;
                for l in 0..LANES {
                    let len = *self.lens.get_unchecked(row0 + l);
                    if len == TAIL_SENTINEL {
                        continue;
                    }
                    let mut acc = [0.0f64; K];
                    for j in 0..len as usize {
                        let o = base + j * LANES + l;
                        let v = *self.vals.get_unchecked(o);
                        let c = cols.get_unchecked(o).idx() * K;
                        for (jj, a) in acc.iter_mut().enumerate() {
                            *a += v * x.get_unchecked(c + jj);
                        }
                    }
                    let dst = self.lane_out(row0, l, out_base) * K;
                    for (jj, a) in acc.iter().enumerate() {
                        *out.get_unchecked_mut(dst + jj) = *a;
                    }
                }
            }
        }
    }

    /// SSE2 blocked slice loop (`k` even): per lane, each entry's value is
    /// broadcast and multiplied against contiguous 2-wide blocks of the
    /// interleaved `x` — no gathers at all, the payoff of the blocked
    /// layout. Accumulation per column stays in CSR entry order.
    ///
    /// # Safety
    /// Contract of [`SlicedData::mul_rows_block`]; SSE2 is x86_64 baseline.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[allow(clippy::too_many_arguments)]
    unsafe fn slices_block_sse2<I: IdxVal>(
        &self,
        cols: &[I],
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
        k: usize,
    ) {
        // Monomorphized per 2-wide block count (`[T; K / 2]` needs unstable
        // const generics, so KB is passed as its own parameter).
        unsafe {
            match k / 2 {
                1 => self.slices_block_sse2_k::<I, 1>(cols, x, out, out_base, first, last),
                2 => self.slices_block_sse2_k::<I, 2>(cols, x, out, out_base, first, last),
                3 => self.slices_block_sse2_k::<I, 3>(cols, x, out, out_base, first, last),
                4 => self.slices_block_sse2_k::<I, 4>(cols, x, out, out_base, first, last),
                _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
            }
        }
    }

    /// Const-width body of [`SlicedData::slices_block_sse2`]; `KB = k / 2`.
    ///
    /// # Safety
    /// Contract of [`SlicedData::mul_rows_block`] with `k = 2 * KB`; SSE2 is
    /// x86_64 baseline.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn slices_block_sse2_k<I: IdxVal, const KB: usize>(
        &self,
        cols: &[I],
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
    ) {
        use core::arch::x86_64::*;
        unsafe {
            let xp = x.as_ptr();
            for s in first..last {
                let base = *self.slice_ptr.get_unchecked(s);
                let row0 = s * LANES;
                for l in 0..LANES {
                    let len = *self.lens.get_unchecked(row0 + l);
                    if len == TAIL_SENTINEL {
                        continue;
                    }
                    let mut acc = [_mm_setzero_pd(); MAX_RHS_BLOCK / 2];
                    for j in 0..len as usize {
                        let o = base + j * LANES + l;
                        let v = _mm_set1_pd(*self.vals.get_unchecked(o));
                        let c = cols.get_unchecked(o).idx() * (2 * KB);
                        for b in 0..KB {
                            let xv = _mm_loadu_pd(xp.add(c + 2 * b));
                            let a = acc.get_unchecked_mut(b);
                            *a = _mm_add_pd(*a, _mm_mul_pd(v, xv));
                        }
                    }
                    let dst = self.lane_out(row0, l, out_base) * (2 * KB);
                    for b in 0..KB {
                        _mm_storeu_pd(out.as_mut_ptr().add(dst + 2 * b), *acc.get_unchecked(b));
                    }
                }
            }
        }
    }
}

/// Composes a 2-lane `x` vector from two gathered columns. Plain loads +
/// one shuffle — measurably faster than `vgatherqpd` on the Xeon
/// generations this workspace targets (hardware gathers there cost more
/// than their lane count in uops). Generic over the index width.
///
/// # Safety
/// `cp[0..2]` must be readable and index into `xp`'s allocation.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
unsafe fn gather2<I: IdxVal>(xp: *const f64, cp: *const I) -> core::arch::x86_64::__m128d {
    use core::arch::x86_64::*;
    unsafe { _mm_set_pd(*xp.add((*cp.add(1)).idx()), *xp.add((*cp.add(0)).idx())) }
}

/// Loads 8 consecutive `u32` lane indices as two i32×4 gather-index
/// vectors.
///
/// # Safety
/// `cp[o..o+8]` must be readable; AVX2 must be available.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_idx8_u32(
    cp: *const u32,
    o: usize,
) -> (core::arch::x86_64::__m128i, core::arch::x86_64::__m128i) {
    use core::arch::x86_64::*;
    unsafe {
        (
            _mm_loadu_si128(cp.add(o) as *const __m128i),
            _mm_loadu_si128(cp.add(o + 4) as *const __m128i),
        )
    }
}

/// Loads 8 consecutive `u16` lane indices (one 128-bit load) and
/// zero-extends them to two i32×4 gather-index vectors — the compact-index
/// fast path: half the index bytes per slice column.
///
/// # Safety
/// `cp[o..o+8]` must be readable; AVX2 must be available.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_idx8_u16(
    cp: *const u16,
    o: usize,
) -> (core::arch::x86_64::__m128i, core::arch::x86_64::__m128i) {
    use core::arch::x86_64::*;
    unsafe {
        let c8 = _mm_loadu_si128(cp.add(o) as *const __m128i);
        (
            _mm_cvtepu16_epi32(c8),
            _mm_cvtepu16_epi32(_mm_srli_si128::<8>(c8)),
        )
    }
}

/// Stamps out the AVX2 slice loop per index width: `#[target_feature]`
/// functions cannot be generic, so the `u16`/`u32` variants are macro
/// duplicates differing only in the index-vector load.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
macro_rules! gen_slices_avx2 {
    ($name:ident, $ity:ty, $load8:path) => {
        /// AVX2 slice loop: 8 rows as two 4-lane vectors and a
        /// blend-predicated ragged span: inactive lanes keep their
        /// accumulator bits exactly — `0.0·x[pad]` products are computed
        /// but discarded before they can touch a result, which is what
        /// keeps non-finite inputs bitwise identical to serial.
        ///
        /// # Safety
        /// Caller contract of [`SlicedData::mul_rows`], plus AVX2 must be
        /// available (guaranteed by `resolve()`), and `cols` must be this
        /// layout's own index array.
        #[target_feature(enable = "avx2")]
        unsafe fn $name(
            &self,
            cols: &[$ity],
            x: &[f64],
            out: &mut [f64],
            out_base: usize,
            first: usize,
            last: usize,
        ) {
            use core::arch::x86_64::*;
            unsafe {
                let xp = x.as_ptr();
                let vp = self.vals.as_ptr();
                let cp = cols.as_ptr();
                for s in first..last {
                    let base = *self.slice_ptr.get_unchecked(s);
                    let width = (*self.slice_ptr.get_unchecked(s + 1) - base) / LANES;
                    let row0 = s * LANES;
                    let lo = *self.min_len.get_unchecked(s) as usize;
                    let mut acc0 = _mm256_setzero_pd();
                    let mut acc1 = _mm256_setzero_pd();
                    // Lock-step span: every lane has a real entry at column
                    // offset j, so load + gather + multiply + add
                    // unpredicated. The mul/add stay separate instructions
                    // (no FMA contraction), matching the scalar loop's two
                    // roundings per product.
                    for j in 0..lo {
                        let o = base + j * LANES;
                        let (c0, c1) = $load8(cp, o);
                        let x0 = _mm256_i32gather_pd::<8>(xp, c0);
                        let x1 = _mm256_i32gather_pd::<8>(xp, c1);
                        let v0 = _mm256_loadu_pd(vp.add(o));
                        let v1 = _mm256_loadu_pd(vp.add(o + 4));
                        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, x0));
                        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, x1));
                    }
                    if lo < width {
                        // Ragged span: per-lane lengths (tail rows count as
                        // 0) gate each add via a blend — a padded cell's
                        // product never reaches an accumulator. Padding
                        // repeats column 0, so even inactive lanes read `x`
                        // in bounds.
                        let eff = |l: usize| -> i64 {
                            let len = *self.lens.get_unchecked(row0 + l);
                            if len == TAIL_SENTINEL {
                                0
                            } else {
                                len as i64
                            }
                        };
                        let len0 = _mm256_set_epi64x(eff(3), eff(2), eff(1), eff(0));
                        let len1 = _mm256_set_epi64x(eff(7), eff(6), eff(5), eff(4));
                        for j in lo..width {
                            let jv = _mm256_set1_epi64x(j as i64);
                            let m0 = _mm256_castsi256_pd(_mm256_cmpgt_epi64(len0, jv));
                            let m1 = _mm256_castsi256_pd(_mm256_cmpgt_epi64(len1, jv));
                            let o = base + j * LANES;
                            let (c0, c1) = $load8(cp, o);
                            let x0 = _mm256_i32gather_pd::<8>(xp, c0);
                            let x1 = _mm256_i32gather_pd::<8>(xp, c1);
                            let v0 = _mm256_loadu_pd(vp.add(o));
                            let v1 = _mm256_loadu_pd(vp.add(o + 4));
                            let s0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, x0));
                            let s1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, x1));
                            acc0 = _mm256_blendv_pd(acc0, s0, m0);
                            acc1 = _mm256_blendv_pd(acc1, s1, m1);
                        }
                    }
                    let mut accs = [0.0f64; LANES];
                    _mm256_storeu_pd(accs.as_mut_ptr(), acc0);
                    _mm256_storeu_pd(accs.as_mut_ptr().add(4), acc1);
                    for (l, &a) in accs.iter().enumerate() {
                        if *self.lens.get_unchecked(row0 + l) != TAIL_SENTINEL {
                            *out.get_unchecked_mut(self.lane_out(row0, l, out_base)) = a;
                        }
                    }
                }
            }
        }
    };
}

/// Stamps out the AVX2 **blocked** slice loop per index width: lane-major —
/// each lane streams its entries once, broadcasting the value against
/// contiguous 4-wide blocks of the interleaved `x`. No gathers and no
/// predication (each lane uses its own length); per-column accumulation
/// stays in CSR entry order.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
macro_rules! gen_slices_block_avx2 {
    ($name:ident, $body:ident, $ity:ty) => {
        /// # Safety
        /// Contract of [`SlicedData::mul_rows_block`]; `k % 4 == 0`, AVX2
        /// available, `cols` this layout's own index array.
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx2")]
        unsafe fn $name(
            &self,
            cols: &[$ity],
            x: &[f64],
            out: &mut [f64],
            out_base: usize,
            first: usize,
            last: usize,
            k: usize,
        ) {
            // Monomorphized per 4-wide block count (`[T; K / 4]` needs
            // unstable const generics, so KB is its own parameter).
            unsafe {
                match k / 4 {
                    1 => self.$body::<1>(cols, x, out, out_base, first, last),
                    2 => self.$body::<2>(cols, x, out, out_base, first, last),
                    _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
                }
            }
        }

        /// Const-width body; `KB = k / 4`.
        ///
        /// # Safety
        /// Contract of [`SlicedData::mul_rows_block`] with `k = 4 * KB`;
        /// AVX2 available, `cols` this layout's own index array.
        #[target_feature(enable = "avx2")]
        unsafe fn $body<const KB: usize>(
            &self,
            cols: &[$ity],
            x: &[f64],
            out: &mut [f64],
            out_base: usize,
            first: usize,
            last: usize,
        ) {
            use core::arch::x86_64::*;
            unsafe {
                let xp = x.as_ptr();
                for s in first..last {
                    let base = *self.slice_ptr.get_unchecked(s);
                    let row0 = s * LANES;
                    for l in 0..LANES {
                        let len = *self.lens.get_unchecked(row0 + l);
                        if len == TAIL_SENTINEL {
                            continue;
                        }
                        let mut acc = [_mm256_setzero_pd(); MAX_RHS_BLOCK / 4];
                        for j in 0..len as usize {
                            let o = base + j * LANES + l;
                            let v = _mm256_set1_pd(*self.vals.get_unchecked(o));
                            let c = cols.get_unchecked(o).idx() * (4 * KB);
                            for b in 0..KB {
                                let xv = _mm256_loadu_pd(xp.add(c + 4 * b));
                                let a = acc.get_unchecked_mut(b);
                                *a = _mm256_add_pd(*a, _mm256_mul_pd(v, xv));
                            }
                        }
                        let dst = self.lane_out(row0, l, out_base) * (4 * KB);
                        for b in 0..KB {
                            _mm256_storeu_pd(
                                out.as_mut_ptr().add(dst + 4 * b),
                                *acc.get_unchecked(b),
                            );
                        }
                    }
                }
            }
        }
    };
}

/// AVX2/SSE2 slice loops. Each lane is a whole row, so the vector variants
/// keep every row's accumulation in CSR index order by construction — only
/// the gathers and multiplies go wide. Separate `impl` block so the
/// intrinsics (and their `#[target_feature]` functions) vanish entirely
/// from non-SIMD builds.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl SlicedData {
    gen_slices_avx2!(slices_avx2_u32, u32, load_idx8_u32);
    gen_slices_avx2!(slices_avx2_u16, u16, load_idx8_u16);
    gen_slices_block_avx2!(slices_block_avx2_u32, slices_block_avx2_u32_k, u32);
    gen_slices_block_avx2!(slices_block_avx2_u16, slices_block_avx2_u16_k, u16);

    /// SSE2 slice loop: 8 rows as four 2-lane vectors, `x` composed from
    /// scalar loads, and the ragged span predicated with an `f64`-compare
    /// select (SSE2 lacks 64-bit integer compares, but row lengths are
    /// exactly representable as doubles, and `cmplt_pd` + and/andnot is a
    /// bit-exact select). Per-row accumulation order is unchanged.
    ///
    /// # Safety
    /// Caller contract of [`SlicedData::mul_rows`]. SSE2 is x86_64
    /// baseline, so no runtime requirement beyond the cfg; `cols` must be
    /// this layout's own index array.
    unsafe fn slices_sse2<I: IdxVal>(
        &self,
        cols: &[I],
        x: &[f64],
        out: &mut [f64],
        out_base: usize,
        first: usize,
        last: usize,
    ) {
        use core::arch::x86_64::*;
        unsafe {
            let xp = x.as_ptr();
            let vp = self.vals.as_ptr();
            let cp = cols.as_ptr();
            for s in first..last {
                let base = *self.slice_ptr.get_unchecked(s);
                let width = (*self.slice_ptr.get_unchecked(s + 1) - base) / LANES;
                let row0 = s * LANES;
                let lo = *self.min_len.get_unchecked(s) as usize;
                let mut acc = [_mm_setzero_pd(); LANES / 2];
                for j in 0..lo {
                    let o = base + j * LANES;
                    for (h, a) in acc.iter_mut().enumerate() {
                        let xv = gather2(xp, cp.add(o + 2 * h));
                        let v = _mm_loadu_pd(vp.add(o + 2 * h));
                        *a = _mm_add_pd(*a, _mm_mul_pd(v, xv));
                    }
                }
                if lo < width {
                    // Ragged span, predicated: lane active iff j < len
                    // (tail rows count as 0 and stay inactive throughout).
                    let eff = |l: usize| -> f64 {
                        let len = *self.lens.get_unchecked(row0 + l);
                        if len == TAIL_SENTINEL {
                            0.0
                        } else {
                            len as f64
                        }
                    };
                    let lens = [
                        _mm_set_pd(eff(1), eff(0)),
                        _mm_set_pd(eff(3), eff(2)),
                        _mm_set_pd(eff(5), eff(4)),
                        _mm_set_pd(eff(7), eff(6)),
                    ];
                    for j in lo..width {
                        let jv = _mm_set1_pd(j as f64);
                        let o = base + j * LANES;
                        for (h, a) in acc.iter_mut().enumerate() {
                            let m = _mm_cmplt_pd(jv, *lens.get_unchecked(h));
                            let xv = gather2(xp, cp.add(o + 2 * h));
                            let v = _mm_loadu_pd(vp.add(o + 2 * h));
                            let sum = _mm_add_pd(*a, _mm_mul_pd(v, xv));
                            *a = _mm_or_pd(_mm_and_pd(m, sum), _mm_andnot_pd(m, *a));
                        }
                    }
                }
                let mut accs = [0.0f64; LANES];
                for (h, a) in acc.iter().enumerate() {
                    _mm_storeu_pd(accs.as_mut_ptr().add(2 * h), *a);
                }
                for (l, &a) in accs.iter().enumerate() {
                    if *self.lens.get_unchecked(row0 + l) != TAIL_SENTINEL {
                        *out.get_unchecked_mut(self.lane_out(row0, l, out_base)) = a;
                    }
                }
            }
        }
    }
}

/// Safe generic CSR loop — the reference semantics every other kernel must
/// match bitwise.
fn mul_rows_generic(m: &CsrMatrix, x: &[f64], out: &mut [f64], range: std::ops::Range<usize>) {
    let row_ptr = m.row_ptr();
    let col_idx = m.col_idx();
    let values = m.values();
    for (local, i) in range.enumerate() {
        let mut acc = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            acc += values[k] * x[col_idx[k] as usize];
        }
        out[local] = acc;
    }
}

/// Row-wise CSR loop with unchecked indexing — the shortrow kernel, and the
/// fallback the sliced kernel uses for boundary and tail rows.
///
/// # Safety
/// Requires `col_idx[k] < x.len()` for every stored entry (validated once by
/// [`Kernel::build`]) and `range.end <= nrows`, `out.len() == range.len()`.
unsafe fn mul_rows_unchecked(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
) {
    unsafe { mul_rows_rowwise_idx(m.row_ptr(), m.col_idx(), m.values(), x, out, range) }
}

/// The unchecked row-wise loop body, generic over the index array — the
/// matrix's `u32` columns or the compact shortrow `u16` copy.
///
/// # Safety
/// Contract of [`mul_rows_unchecked`]; `cols` must describe the same
/// sparsity as `row_ptr`/`values`.
unsafe fn mul_rows_rowwise_idx<I: IdxVal>(
    row_ptr: &[usize],
    cols: &[I],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
) {
    unsafe {
        for (local, i) in range.enumerate() {
            let s = *row_ptr.get_unchecked(i);
            let e = *row_ptr.get_unchecked(i + 1);
            let mut acc = 0.0;
            for k in s..e {
                acc += values.get_unchecked(k) * x.get_unchecked(cols.get_unchecked(k).idx());
            }
            *out.get_unchecked_mut(local) = acc;
        }
    }
}

/// Safe blocked generic CSR loop — the blocked reference semantics: `k`
/// interleaved right-hand sides, each output column accumulated with its
/// own accumulator in the row's CSR entry order (column `j` is bitwise
/// equal to [`mul_rows_generic`] on column `j` alone).
fn mul_rows_block_generic(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
    k: usize,
) {
    // Monomorphized per width like the unchecked loops (see
    // `mul_rows_block_rowwise`): the const-size accumulator is what keeps
    // the bounds-checked ground truth within sight of them.
    match k {
        1 => mul_rows_block_generic_k::<1>(m, x, out, range),
        2 => mul_rows_block_generic_k::<2>(m, x, out, range),
        3 => mul_rows_block_generic_k::<3>(m, x, out, range),
        4 => mul_rows_block_generic_k::<4>(m, x, out, range),
        5 => mul_rows_block_generic_k::<5>(m, x, out, range),
        6 => mul_rows_block_generic_k::<6>(m, x, out, range),
        7 => mul_rows_block_generic_k::<7>(m, x, out, range),
        8 => mul_rows_block_generic_k::<8>(m, x, out, range),
        _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
    }
}

/// Const-width body of [`mul_rows_block_generic`] (fully bounds-checked).
fn mul_rows_block_generic_k<const K: usize>(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
) {
    let row_ptr = m.row_ptr();
    let col_idx = m.col_idx();
    let values = m.values();
    for (local, i) in range.enumerate() {
        let mut acc = [0.0f64; K];
        for e in row_ptr[i]..row_ptr[i + 1] {
            let v = values[e];
            let c = col_idx[e] as usize * K;
            for (j, a) in acc.iter_mut().enumerate() {
                *a += v * x[c + j];
            }
        }
        out[local * K..(local + 1) * K].copy_from_slice(&acc);
    }
}

/// Unchecked blocked row-wise loop, generic over the index array. One
/// streaming pass of the row's entries advances all `k` columns.
///
/// Dispatches the runtime width to a const-generic monomorphization:
/// a `[f64; K]` accumulator compiles to straight-line register code, where
/// a runtime-length `&mut acc[..k]` costs a `memset`/`memcpy` call pair
/// per row — on short-row matrices those calls dominate the products
/// themselves. Bits are unchanged: each column's accumulation order is
/// identical at every width.
///
/// # Safety
/// Contract of [`mul_rows_rowwise_idx`], with `x`/`out` holding `k`
/// interleaved columns (`out.len() == range.len()·k`).
unsafe fn mul_rows_block_rowwise<I: IdxVal>(
    row_ptr: &[usize],
    cols: &[I],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
    k: usize,
) {
    unsafe {
        match k {
            1 => mul_rows_block_rowwise_k::<I, 1>(row_ptr, cols, values, x, out, range),
            2 => mul_rows_block_rowwise_k::<I, 2>(row_ptr, cols, values, x, out, range),
            3 => mul_rows_block_rowwise_k::<I, 3>(row_ptr, cols, values, x, out, range),
            4 => mul_rows_block_rowwise_k::<I, 4>(row_ptr, cols, values, x, out, range),
            5 => mul_rows_block_rowwise_k::<I, 5>(row_ptr, cols, values, x, out, range),
            6 => mul_rows_block_rowwise_k::<I, 6>(row_ptr, cols, values, x, out, range),
            7 => mul_rows_block_rowwise_k::<I, 7>(row_ptr, cols, values, x, out, range),
            8 => mul_rows_block_rowwise_k::<I, 8>(row_ptr, cols, values, x, out, range),
            _ => unreachable!("rhs block validated against MAX_RHS_BLOCK"),
        }
    }
}

/// Const-width body of [`mul_rows_block_rowwise`].
///
/// # Safety
/// Contract of [`mul_rows_block_rowwise`] with `k = K`.
unsafe fn mul_rows_block_rowwise_k<I: IdxVal, const K: usize>(
    row_ptr: &[usize],
    cols: &[I],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
) {
    unsafe {
        for (local, i) in range.enumerate() {
            let s = *row_ptr.get_unchecked(i);
            let e = *row_ptr.get_unchecked(i + 1);
            let mut acc = [0.0f64; K];
            for kk in s..e {
                let v = *values.get_unchecked(kk);
                let c = cols.get_unchecked(kk).idx() * K;
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += v * x.get_unchecked(c + j);
                }
            }
            for (j, a) in acc.iter().enumerate() {
                *out.get_unchecked_mut(local * K + j) = *a;
            }
        }
    }
}

/// [`mul_rows_block_rowwise`] over a matrix's own CSR arrays.
///
/// # Safety
/// Contract of [`mul_rows_block_rowwise`].
unsafe fn block_rowwise_mat(
    m: &CsrMatrix,
    x: &[f64],
    out: &mut [f64],
    range: std::ops::Range<usize>,
    k: usize,
) {
    unsafe { mul_rows_block_rowwise(m.row_ptr(), m.col_idx(), m.values(), x, out, range, k) }
}

#[derive(Clone, Debug)]
enum KernelData {
    Plain,
    /// Compact `u16` copy of the matrix's column indices (shortrow kernel
    /// on a matrix narrow enough to address). Embeds structure, so plans
    /// holding it record a content signature like the value-embedding
    /// layouts.
    ShortIdx(Vec<u16>),
    Sliced(SlicedData),
}

/// A resolved kernel bound to one matrix's structure: the selected kind plus
/// whatever auxiliary layout it needs, and the execution backend its
/// products run on. Built once per [`ChunkPlan`](crate::ChunkPlan) and
/// reused across millions of products.
#[derive(Clone, Debug)]
pub struct Kernel {
    kind: KernelKind,
    data: KernelData,
    /// Resolved execution backend. Always [`Backend::Scalar`] for generic
    /// (the bitwise ground truth stays intrinsics-free) and shortrow (its
    /// vector variant measured slower); sliced honors the request up to
    /// what the CPU supports.
    backend: Backend,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Resolved column-index width in bits (16 or 32) of the layout's index
    /// arrays; 32 for layout-free kernels (they read the CSR's own `u32`).
    index_width: u8,
    /// Whether the layout is SELL-σ row-sorted.
    sorted: bool,
}

impl Kernel {
    /// Resolves `choice` for `m` (analyzing the matrix for `Auto`) and
    /// builds the kernel's layout; `backend` is clamped to the hardware
    /// (see [`crate::simd::resolve`]). The layout itself is a function of
    /// the matrix: compact `u16` column indices whenever `ncols` fits the
    /// type, and SELL-σ row sorting whenever it shrinks the sliced padding.
    /// Unchecked kernels validate the CSR column invariant once here.
    /// Crate-internal: the only safe way to use a kernel is through a
    /// [`ChunkPlan`](crate::ChunkPlan), whose content-signature check
    /// rejects a same-sparsity different-values matrix (this type's own
    /// guard checks shape/nnz only).
    pub(crate) fn build(m: &CsrMatrix, choice: KernelChoice, backend: BackendChoice) -> Kernel {
        let kind = match choice.forced() {
            Some(kind) => kind,
            None => MatrixProfile::analyze(m).select(),
        };
        let kind = if kind != KernelKind::Generic && !columns_in_range(m) {
            // A matrix violating its own construction invariant never gets
            // an unchecked kernel (defense in depth; unreachable through
            // CooBuilder).
            KernelKind::Generic
        } else {
            kind
        };
        let compact = m.ncols() <= u16::MAX as usize;
        let data = match kind {
            KernelKind::Generic => KernelData::Plain,
            KernelKind::ShortRow if compact => {
                KernelData::ShortIdx(m.col_idx().iter().map(|&c| c as u16).collect())
            }
            KernelKind::ShortRow => KernelData::Plain,
            KernelKind::Sliced => KernelData::Sliced(SlicedData::build(m, compact)),
        };
        let backend = match kind {
            KernelKind::Sliced => simd::resolve(backend),
            KernelKind::Generic | KernelKind::ShortRow => Backend::Scalar,
        };
        // The AVX2 gathers consume column indices as *signed* 32-bit lanes
        // (`_mm256_i32gather_pd` sign-extends), so a column index ≥ 2³¹
        // would turn into a negative offset. Unreachable for any matrix
        // this workspace can hold, but the unsafe contract must not depend
        // on that — cap such matrices at SSE2 (whose composed gathers
        // zero-extend through `as usize`).
        let backend = if backend == Backend::Avx2 && m.ncols() > i32::MAX as usize {
            Backend::Sse2
        } else {
            backend
        };
        let (index_width, sorted) = match &data {
            KernelData::Sliced(s) => (s.cols.width(), s.row_map.is_some()),
            KernelData::ShortIdx(_) => (16, false),
            _ => (32, false),
        };
        Kernel {
            kind,
            data,
            backend,
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
            index_width,
            sorted,
        }
    }

    /// Rebinds this kernel to `m` — a matrix with the **identical sparsity
    /// structure** but new values. Structure-only layouts (the shortrow
    /// `u16` index copy) are shared unchanged; the value-embedding sliced
    /// layout is refilled in place of a rebuild — no profile
    /// re-analysis, no SELL-σ re-sort decision, no index re-compaction. The
    /// donor's resolved kind/backend/width/sort carry over verbatim, which
    /// is exactly right: every one of those decisions is a deterministic
    /// function of the structure (plus the build-time choices), which the
    /// rebind matrix shares by contract.
    ///
    /// # Panics
    /// If `m`'s shape or nnz differ from the build matrix's. Full pattern
    /// equality is the *caller's* contract ([`crate::ChunkPlan::rebind`]
    /// asserts it against the donor matrix).
    pub(crate) fn rebind(&self, m: &CsrMatrix) -> Kernel {
        assert!(
            m.nrows() == self.nrows && m.ncols() == self.ncols && m.nnz() == self.nnz,
            "kernel rebind requires matching structure (shape/nnz differ)"
        );
        let data = match &self.data {
            KernelData::Plain => KernelData::Plain,
            KernelData::ShortIdx(idx) => KernelData::ShortIdx(idx.clone()),
            KernelData::Sliced(s) => KernelData::Sliced(s.rebind(m)),
        };
        Kernel {
            kind: self.kind,
            data,
            backend: self.backend,
            nrows: self.nrows,
            ncols: self.ncols,
            nnz: self.nnz,
            index_width: self.index_width,
            sorted: self.sorted,
        }
    }

    /// The resolved kind.
    pub(crate) fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The resolved execution backend.
    pub(crate) fn backend(&self) -> Backend {
        self.backend
    }

    /// Resolved column-index width in bits (16 or 32).
    pub(crate) fn index_width(&self) -> u8 {
        self.index_width
    }

    /// Whether the layout is SELL-σ row-sorted.
    pub(crate) fn sorted(&self) -> bool {
        self.sorted
    }

    /// Whether this kernel embeds a copy of the build matrix's values
    /// (the layout-backed kinds). Layout-free kernels read every value
    /// from the matrix they are handed, so they are correct for *any*
    /// matrix of compatible shape — no content check needed.
    pub(crate) fn embeds_values(&self) -> bool {
        !matches!(self.data, KernelData::Plain)
    }

    /// Heap bytes of the auxiliary layout (zero for the layout-free
    /// kernels), by allocation capacity — what byte-bounded caches holding
    /// a plan should charge on top of the matrix itself.
    pub(crate) fn layout_bytes(&self) -> usize {
        const F: usize = std::mem::size_of::<f64>();
        const U: usize = std::mem::size_of::<u32>();
        const W: usize = std::mem::size_of::<usize>();
        match &self.data {
            KernelData::Plain => 0,
            KernelData::ShortIdx(idx) => idx.capacity() * std::mem::size_of::<u16>(),
            KernelData::Sliced(s) => {
                s.slice_ptr.capacity() * W
                    + s.min_len.capacity() * U
                    + s.lens.capacity() * U
                    + s.vals.capacity() * F
                    + s.cols.heap_bytes()
                    + s.tail_rows.capacity() * U
                    + s.row_map.as_ref().map_or(0, |rm| rm.capacity() * U)
            }
        }
    }

    /// Computes rows `range` of `y = m·x` into `out` (chunk-local slice).
    ///
    /// # Panics
    /// If `m` does not match the matrix this kernel was built from
    /// (shape/nnz), or the slice lengths disagree with `range`.
    pub(crate) fn mul_rows(
        &self,
        m: &CsrMatrix,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
    ) {
        assert!(
            m.nrows() == self.nrows && m.ncols() == self.ncols && m.nnz() == self.nnz,
            "kernel was built for a different matrix"
        );
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert!(range.end <= self.nrows, "row range out of bounds");
        assert_eq!(out.len(), range.len(), "output slice mismatch");
        match &self.data {
            KernelData::Plain => match self.kind {
                KernelKind::Generic => mul_rows_generic(m, x, out, range),
                // SAFETY: columns validated in `build`, bounds asserted above.
                _ => unsafe { mul_rows_unchecked(m, x, out, range) },
            },
            // Compact shortrow streams the `u16` copy (half the index
            // bytes); indices are exact, so the bits are unchanged.
            // SAFETY: columns validated in `build`, bounds asserted above.
            KernelData::ShortIdx(c) => unsafe {
                mul_rows_rowwise_idx(m.row_ptr(), c, m.values(), x, out, range)
            },
            // SAFETY: columns validated in `build`, bounds asserted above;
            // `self.backend` was resolved against the CPU.
            KernelData::Sliced(s) => unsafe { s.mul_rows(m, x, out, range, self.backend) },
        }
    }

    /// Blocked (multi-vector) product: computes rows `range` of `Y = m·X`
    /// over `k` **interleaved** right-hand sides (`x[col·k + j]`,
    /// `out[(row − range.start)·k + j]`) in one streaming pass of the
    /// matrix. Each output column is bitwise identical to a single-vector
    /// [`Kernel::mul_rows`] call on that column — the blocked layer never
    /// trades identity for speed.
    ///
    /// # Panics
    /// As [`Kernel::mul_rows`], plus if `k` is 0 or above
    /// [`MAX_RHS_BLOCK`], or the slice lengths disagree with `range`/`k`.
    pub(crate) fn mul_rows_block(
        &self,
        m: &CsrMatrix,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
        k: usize,
    ) {
        assert!((1..=MAX_RHS_BLOCK).contains(&k), "rhs block out of range");
        if k == 1 {
            // Identical bits, better-tuned single-vector loops.
            self.mul_rows(m, x, out, range);
            return;
        }
        assert!(
            m.nrows() == self.nrows && m.ncols() == self.ncols && m.nnz() == self.nnz,
            "kernel was built for a different matrix"
        );
        assert_eq!(x.len(), self.ncols * k, "x length mismatch");
        assert!(range.end <= self.nrows, "row range out of bounds");
        assert_eq!(out.len(), range.len() * k, "output slice mismatch");
        match &self.data {
            KernelData::Plain => match self.kind {
                KernelKind::Generic => mul_rows_block_generic(m, x, out, range, k),
                // SAFETY: columns validated in `build`, bounds asserted above.
                _ => unsafe { block_rowwise_mat(m, x, out, range, k) },
            },
            // SAFETY: columns validated in `build`, bounds asserted above.
            KernelData::ShortIdx(c) => unsafe {
                mul_rows_block_rowwise(m.row_ptr(), c, m.values(), x, out, range, k)
            },
            // SAFETY: columns validated in `build`, bounds asserted above;
            // `self.backend` was resolved against the CPU.
            KernelData::Sliced(s) => unsafe { s.mul_rows_block(m, x, out, range, k, self.backend) },
        }
    }
}

/// Verifies the CSR construction invariant the unchecked kernels rely on.
fn columns_in_range(m: &CsrMatrix) -> bool {
    let n = m.ncols();
    m.col_idx().iter().all(|&c| (c as usize) < n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CooBuilder;

    fn dense_to_csr(rows: &[Vec<f64>]) -> CsrMatrix {
        let mut b = CooBuilder::new(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    fn pseudo_random(n: usize, m: usize, seed: u64, fill: f64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        let v = next();
                        if v.abs() < 0.5 * (1.0 - fill) {
                            0.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    const ALL_FORCED: [KernelChoice; 3] = [
        KernelChoice::Generic,
        KernelChoice::ShortRow,
        KernelChoice::Sliced,
    ];

    /// Forced backend choices; forcing an unavailable one resolves to the
    /// widest supported backend below it, so this list is always safe.
    const ALL_BACKENDS: [BackendChoice; 4] = [
        BackendChoice::Auto,
        BackendChoice::Scalar,
        BackendChoice::Sse2,
        BackendChoice::Avx2,
    ];

    #[test]
    fn every_kernel_is_bitwise_identical_to_serial() {
        for (n, m, seed) in [
            (67usize, 67usize, 1u64),
            (123, 51, 2),
            (51, 123, 3),
            (9, 9, 4),
        ] {
            let a = dense_to_csr(&pseudo_random(n, m, seed, 0.4));
            let x: Vec<f64> = (0..m).map(|j| ((j * 37 + 11) % 23) as f64 - 11.0).collect();
            let mut want = vec![0.0; n];
            a.mul_vec_into(&x, &mut want);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            for choice in ALL_FORCED {
                for backend in ALL_BACKENDS {
                    let kernel = Kernel::build(&a, choice, backend);
                    // Whole matrix in one chunk, and split into odd chunks.
                    let mut got = vec![1.0; n];
                    kernel.mul_rows(&a, &x, &mut got, 0..n);
                    assert_eq!(bits(&want), bits(&got), "{choice:?}/{backend:?} full");
                    let mut got = vec![1.0; n];
                    let mut start = 0;
                    while start < n {
                        let end = (start + 7).min(n);
                        kernel.mul_rows(&a, &x, &mut got[start..end], start..end);
                        start = end;
                    }
                    assert_eq!(bits(&want), bits(&got), "{choice:?}/{backend:?} chunked");
                }
            }
        }
    }

    /// Padded slice cells must never be accumulated: their `0.0 × x[pad]`
    /// is only harmless for finite `x` — with `x[0] = ∞` (padding repeats
    /// column 0) an ungated pad would turn finite rows into `NaN`. Rows
    /// that legitimately read the infinite entry must still match serial
    /// bit for bit.
    #[test]
    fn non_finite_inputs_stay_bitwise_identical() {
        // Ragged rows around a slice boundary so the sliced layout pads.
        let n = 4 * LANES;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            for d in 1..=(i % 5) {
                b.push(i, (i + d) % n, -0.5 / d as f64);
            }
        }
        let a = b.build();
        let mut x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.3).sin()).collect();
        x[0] = f64::INFINITY;
        x[5] = f64::NAN;
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        assert!(
            want.iter().any(|v| v.is_finite()),
            "test needs rows untouched by the non-finite entries"
        );
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for choice in ALL_FORCED {
            for backend in ALL_BACKENDS {
                let kernel = Kernel::build(&a, choice, backend);
                let mut got = vec![0.0; n];
                kernel.mul_rows(&a, &x, &mut got, 0..n);
                assert_eq!(bits(&want), bits(&got), "{choice:?}/{backend:?}");
            }
        }
    }

    /// Adversarial shapes for the SIMD variants: empty rows, overlong tail
    /// rows (excluded from slices), a row count that is not a multiple of
    /// the lane width, and non-finite input entries — all at once. Every
    /// (kernel, backend) pair must still match serial bit for bit.
    #[test]
    fn adversarial_shapes_stay_bitwise_identical_across_backends() {
        let n = 5 * LANES + 3; // not a multiple of the lane width
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            match i % 7 {
                // Empty rows (no entries at all).
                0 => {}
                // Overlong rows: far above the tail threshold, demoted to
                // row-wise execution inside their slice.
                3 => {
                    for d in 0..n / 2 {
                        b.push(i, (i + d) % n, 0.25 + d as f64 * 1e-3);
                    }
                }
                // Short ragged rows.
                r => {
                    b.push(i, i, 2.0);
                    for d in 1..r {
                        b.push(i, (i + d * 5) % n, -0.125 / d as f64);
                    }
                }
            }
        }
        let a = b.build();
        let mut x: Vec<f64> = (0..n).map(|j| ((j * 29 + 7) % 13) as f64 - 6.0).collect();
        x[0] = f64::NEG_INFINITY;
        x[1] = f64::NAN;
        x[n - 1] = -0.0;
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for choice in ALL_FORCED {
            for backend in ALL_BACKENDS {
                let kernel = Kernel::build(&a, choice, backend);
                let mut got = vec![0.0; n];
                kernel.mul_rows(&a, &x, &mut got, 0..n);
                assert_eq!(bits(&want), bits(&got), "{choice:?}/{backend:?} full");
                // Chunk boundaries that slice through slices.
                let mut got = vec![0.0; n];
                for (lo, hi) in [(0usize, 5usize), (5, LANES + 1), (LANES + 1, n)] {
                    kernel.mul_rows(&a, &x, &mut got[lo..hi], lo..hi);
                }
                assert_eq!(bits(&want), bits(&got), "{choice:?}/{backend:?} chunked");
            }
        }
    }

    /// Every (kernel, backend, k) blocked product must be bitwise identical
    /// per column to the serial single-vector product — including odd k
    /// (no SIMD fit), chunk boundaries through slices, and non-finite
    /// inputs.
    #[test]
    fn blocked_products_are_bitwise_identical_to_serial_columns() {
        for (n, m, seed) in [(67usize, 67usize, 1u64), (123, 51, 2), (9, 9, 4)] {
            let a = dense_to_csr(&pseudo_random(n, m, seed, 0.4));
            for k in [1usize, 2, 3, 4, 5, 8] {
                let mut x: Vec<f64> = (0..m * k)
                    .map(|j| ((j * 37 + 11) % 23) as f64 - 11.0)
                    .collect();
                x[0] = f64::INFINITY;
                if m * k > 5 {
                    x[5] = f64::NAN;
                }
                let mut want = vec![0.0; n * k];
                // Column-wise serial ground truth.
                for j in 0..k {
                    let xj: Vec<f64> = (0..m).map(|c| x[c * k + j]).collect();
                    let mut yj = vec![0.0; n];
                    a.mul_vec_into(&xj, &mut yj);
                    for r in 0..n {
                        want[r * k + j] = yj[r];
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                // The serial blocked reference itself.
                let mut got = vec![1.0; n * k];
                a.mul_mat_into(&x, &mut got, k);
                assert_eq!(bits(&want), bits(&got), "mul_mat_into k={k}");
                for choice in ALL_FORCED {
                    for backend in ALL_BACKENDS {
                        let kernel = Kernel::build(&a, choice, backend);
                        let mut got = vec![1.0; n * k];
                        kernel.mul_rows_block(&a, &x, &mut got, 0..n, k);
                        assert_eq!(bits(&want), bits(&got), "{choice:?}/{backend:?} k={k}");
                        let mut got = vec![1.0; n * k];
                        let mut start = 0;
                        while start < n {
                            let end = (start + 7).min(n);
                            kernel.mul_rows_block(
                                &a,
                                &x,
                                &mut got[start * k..end * k],
                                start..end,
                                k,
                            );
                            start = end;
                        }
                        assert_eq!(
                            bits(&want),
                            bits(&got),
                            "{choice:?}/{backend:?} k={k} chunked"
                        );
                    }
                }
            }
        }
    }

    /// Matrix families that reach each layout branch by structure alone,
    /// as `(name, matrix, sorted, index width)`: ragged rows over ≥ 4
    /// σ-windows (sorting shrinks the padding), uniform rows (it cannot),
    /// and a thin matrix wider than `u16` can address. Each carries empty
    /// and overlong rows or a row count off the lane grid, so the tail
    /// paths run too.
    fn layout_families() -> Vec<(&'static str, CsrMatrix, bool, u8)> {
        let n = 4 * SIGMA + 13; // ragged beyond the last full window
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            match i % 9 {
                0 => {}
                4 => {
                    for d in 0..n / 2 {
                        b.push(i, (i + d) % n, 0.25 + d as f64 * 1e-3);
                    }
                }
                r => {
                    b.push(i, i, 2.0);
                    for d in 1..=r {
                        b.push(i, (i + d * 5) % n, -0.125 / d as f64);
                    }
                }
            }
        }
        let ragged = b.build();
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            b.push(i, (i + 7) % n, -0.5);
            b.push(i, (i + 13) % n, -0.25 - i as f64 * 1e-3);
        }
        let uniform = b.build();
        let (rows, cols) = (SIGMA + 19, u16::MAX as usize + 10);
        let mut b = CooBuilder::new(rows, cols);
        for i in 0..rows {
            b.push(i, i, 1.0);
            for d in 0..i % 4 {
                b.push(i, cols - 1 - i * 5 - d, 2.0 + d as f64);
            }
        }
        let wide = b.build();
        vec![
            ("ragged", ragged, true, 16),
            ("uniform", uniform, false, 16),
            ("wide", wide, false, 32),
        ]
    }

    /// SELL-σ sorted and compact-index layouts must stay bitwise identical
    /// to serial for both single-vector and blocked products, across
    /// backends, chunk boundaries that slice through σ-windows, and
    /// adversarial rows (empty, overlong, non-finite inputs). The matrix
    /// families prove each layout branch is actually taken.
    #[test]
    fn sorted_and_compact_layouts_stay_bitwise_identical() {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (name, a, sorted, width) in layout_families() {
            let (n, m) = (a.nrows(), a.ncols());
            let mut x: Vec<f64> = (0..m).map(|j| ((j * 29 + 7) % 13) as f64 - 6.0).collect();
            x[0] = f64::NEG_INFINITY;
            x[1] = f64::NAN;
            let mut want = vec![0.0; n];
            a.mul_vec_into(&x, &mut want);
            for backend in ALL_BACKENDS {
                let kernel = Kernel::build(&a, KernelChoice::Sliced, backend);
                assert_eq!(kernel.sorted(), sorted, "{name}");
                assert_eq!(kernel.index_width(), width, "{name}");
                let mut got = vec![0.0; n];
                kernel.mul_rows(&a, &x, &mut got, 0..n);
                assert_eq!(bits(&want), bits(&got), "{name}/{backend:?}");
                // Chunk boundaries through a σ-window.
                let mut got = vec![0.0; n];
                for (lo, hi) in [(0usize, 5usize), (5, SIGMA + 9), (SIGMA + 9, n)] {
                    kernel.mul_rows(&a, &x, &mut got[lo..hi], lo..hi);
                }
                assert_eq!(bits(&want), bits(&got), "{name}/{backend:?} chunked");
                // Blocked, k=4, chunked through the window too.
                let k = 4;
                let xk: Vec<f64> = (0..m * k).map(|i| x[i / k]).collect();
                let mut got = vec![0.0; n * k];
                for (lo, hi) in [(0usize, SIGMA - 3), (SIGMA - 3, n)] {
                    kernel.mul_rows_block(&a, &xk, &mut got[lo * k..hi * k], lo..hi, k);
                }
                for r in 0..n {
                    for j in 0..k {
                        assert_eq!(
                            got[r * k + j].to_bits(),
                            want[r].to_bits(),
                            "{name}/{backend:?} blocked row {r}"
                        );
                    }
                }
            }
        }
    }

    /// Index-width resolution: `u16` exactly when the matrix's columns fit,
    /// `u32` otherwise; shortrow gains a compact index copy on narrow
    /// matrices and stays layout-free on wide ones.
    #[test]
    fn index_widths_resolve_and_widen_transparently() {
        let narrow = dense_to_csr(&pseudo_random(48, 48, 11, 0.4));
        let wide = layout_families().pop().unwrap().1;
        assert!(wide.ncols() > u16::MAX as usize);
        let sliced = |m: &CsrMatrix| Kernel::build(m, KernelChoice::Sliced, BackendChoice::Auto);
        assert_eq!(sliced(&narrow).index_width(), 16);
        let kw = sliced(&wide);
        assert_eq!(kw.index_width(), 32, "u16 cannot address the columns");
        let x = vec![1.0; wide.ncols()];
        let mut want = vec![0.0; wide.nrows()];
        wide.mul_vec_into(&x, &mut want);
        let mut got = vec![0.0; wide.nrows()];
        kw.mul_rows(&wide, &x, &mut got, 0..wide.nrows());
        assert_eq!(want, got);
        // Shortrow: compact copy on narrow matrices only.
        let sr16 = Kernel::build(&narrow, KernelChoice::ShortRow, BackendChoice::Scalar);
        assert_eq!(sr16.index_width(), 16);
        assert!(sr16.embeds_values(), "compact copy must trigger sig checks");
        let sr32 = Kernel::build(&wide, KernelChoice::ShortRow, BackendChoice::Scalar);
        assert_eq!(sr32.index_width(), 32);
        assert!(!sr32.embeds_values());
    }

    /// The blocked-RHS width table: one width per resolved kernel, never
    /// above the blocked entry points' limit.
    #[test]
    fn block_width_is_per_kernel() {
        assert_eq!(KernelKind::ShortRow.block_width(), 8);
        assert_eq!(KernelKind::Generic.block_width(), 4);
        assert_eq!(KernelKind::Sliced.block_width(), 4);
        for kind in [
            KernelKind::Generic,
            KernelKind::ShortRow,
            KernelKind::Sliced,
        ] {
            assert!(
                (1..=MAX_RHS_BLOCK).contains(&kind.block_width()),
                "{kind:?}"
            );
        }
    }

    /// Backend resolution policy: generic and shortrow always run scalar,
    /// even when a SIMD backend is forced; sliced honors the request up to
    /// the hardware ceiling.
    #[test]
    fn backend_resolution_respects_kind_and_hardware() {
        let m = dense_to_csr(&pseudo_random(48, 48, 11, 0.4));
        for backend in ALL_BACKENDS {
            for choice in [KernelChoice::Generic, KernelChoice::ShortRow] {
                assert_eq!(
                    Kernel::build(&m, choice, backend).backend(),
                    Backend::Scalar,
                    "{choice:?} has no vector variant"
                );
            }
        }
        assert_eq!(
            Kernel::build(&m, KernelChoice::Sliced, BackendChoice::Scalar).backend(),
            Backend::Scalar
        );
        assert!(
            Kernel::build(&m, KernelChoice::Sliced, BackendChoice::Avx2).backend()
                <= simd::detected(),
            "forced backends must be clamped to the hardware"
        );
        assert_eq!(
            Kernel::build(&m, KernelChoice::Sliced, BackendChoice::Auto).backend(),
            simd::detected()
        );
    }

    #[test]
    fn profile_reports_structure() {
        // Tridiagonal: uniform short rows, two shorter boundary rows.
        let n = 64;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        let p = MatrixProfile::analyze(&b.build());
        assert_eq!((p.nrows, p.ncols, p.nnz), (n, n, 3 * n - 2));
        assert_eq!(p.max_row_len, 3);
        assert!((p.mean_row_len - (3 * n - 2) as f64 / n as f64).abs() < 1e-12);
        assert_eq!(p.short_row_frac, 1.0);
        assert!(p.sliced_fill > 0.8, "{}", p.sliced_fill);
    }

    #[test]
    fn selection_is_deterministic_and_structure_driven() {
        // Too small => generic regardless of shape.
        let small = dense_to_csr(&pseudo_random(20, 20, 5, 0.5));
        assert_eq!(MatrixProfile::analyze(&small).select(), KernelKind::Generic);
        assert_eq!(
            Kernel::build(&small, KernelChoice::Auto, BackendChoice::Auto).kind(),
            KernelKind::Generic
        );
        // Large with uniformly short rows => shortrow, stable across
        // rebuilds (the RAID-generator shape).
        let n = 1200;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 1.0);
            for d in 1..4 {
                b.push(i, (i + d * 7) % n, 0.1);
            }
        }
        let m = b.build();
        let first = Kernel::build(&m, KernelChoice::Auto, BackendChoice::Auto).kind();
        assert_eq!(first, KernelKind::ShortRow);
        for _ in 0..3 {
            assert_eq!(
                Kernel::build(&m, KernelChoice::Auto, BackendChoice::Auto).kind(),
                first
            );
        }
        // Long ragged rows with a dense diagonal => sliced: row lengths
        // alternate far beyond the short-row bound, and the sliced layout
        // beats every other kernel there (`repro kernels`, `diagdense`).
        let n = 512;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 1.0);
            let len = if i % 2 == 0 { 20 } else { 90 };
            for d in 1..len {
                b.push(i, (i + d) % n, 0.1);
            }
        }
        let m = b.build();
        let p = MatrixProfile::analyze(&m);
        assert!(p.sliced_fill < 0.9, "{p:?}");
        assert_eq!(p.select(), KernelKind::Sliced, "{p:?}");
        // Long uniform rows (no padding waste) => sliced.
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            for d in 0..40 {
                b.push(i, (i + d * 3 + 1) % n, 0.1);
            }
        }
        let m = b.build();
        let p = MatrixProfile::analyze(&m);
        assert_eq!(p.select(), KernelKind::Sliced, "{p:?}");
    }

    #[test]
    fn forced_kernels_resolve_as_requested() {
        let m = dense_to_csr(&pseudo_random(40, 40, 9, 0.4));
        for choice in ALL_FORCED {
            assert_eq!(
                Kernel::build(&m, choice, BackendChoice::Auto).kind(),
                choice.forced().unwrap()
            );
        }
        assert!(KernelChoice::parse("ShortRow").is_ok());
        assert!(KernelChoice::parse("warp").is_err());
        let err = KernelChoice::parse("diagsplit").unwrap_err();
        assert!(err.contains("auto/generic/shortrow/sliced"), "{err}");
    }

    #[test]
    #[should_panic(expected = "different matrix")]
    fn kernel_rejects_a_different_matrix() {
        let a = dense_to_csr(&pseudo_random(30, 30, 6, 0.4));
        let b = dense_to_csr(&pseudo_random(31, 31, 7, 0.4));
        let kernel = Kernel::build(&a, KernelChoice::ShortRow, BackendChoice::Auto);
        let mut out = vec![0.0; 31];
        kernel.mul_rows(&b, &vec![1.0; 31], &mut out, 0..31);
    }
}
