//! Allocator-truth audit of the artifact cache's byte accounting: the
//! `approx_bytes` estimates the bounded cache charges for `Uniformized` and
//! `RegenParams` artifacts are cross-checked against a counting global
//! allocator (live bytes = allocated − freed across the construction).
//! A dedicated integration-test binary because the counting allocator is
//! necessarily process-global; the tests here also serialize on one lock
//! so a sibling's allocations never land in a measurement window.

use regenr_core::{RegenOptions, RegenParams};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_engine::fingerprint::unif_fingerprint;
use regenr_engine::{ArtifactCache, CacheConfig, Engine, Method, MethodChoice, SolveRequest};
use regenr_models::{RaidModel, RaidParams};
use regenr_sparse::{ChunkPlan, KernelChoice, ParallelConfig};
use regenr_transient::MeasureKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Held by every test for its whole body: the live-byte counter is
/// process-global, so tests on sibling libtest threads must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A birth–death chain large enough that the artifacts dominate fixed
/// overheads (struct headers, the plan-cache mutex, …).
fn birth_chain(n: usize) -> Ctmc {
    let mut rates = Vec::new();
    for i in 0..n - 1 {
        rates.push((i, i + 1, 1.0));
        rates.push((i + 1, i, 0.5));
    }
    let mut init = vec![0.0; n];
    init[0] = 1.0;
    let rewards: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    Ctmc::from_rates(n, &rates, init, rewards).unwrap()
}

/// A chain whose `Pᵀ` rows are ragged: state `j` receives transitions
/// from `j % 7` other states, so every 8-row slice of the sliced layout
/// pads to the longest and σ-sorting (from 4 windows, 256 states, up)
/// strictly shrinks it.
fn ragged_chain(n: usize) -> Ctmc {
    let mut rates = Vec::new();
    for j in 0..n {
        for d in 1..=j % 7 {
            rates.push(((j + d * 3) % n, j, 0.25 * d as f64));
        }
    }
    let mut init = vec![0.0; n];
    init[0] = 1.0;
    Ctmc::from_rates(n, &rates, init, vec![1.0; n]).unwrap()
}

/// Asserts `estimate` is within `tol` (relative) of the measured live-byte
/// delta.
fn assert_close(what: &str, measured: i64, estimate: usize, tol: f64) {
    assert!(measured > 0, "{what}: measurement window saw no allocation");
    let ratio = estimate as f64 / measured as f64;
    assert!(
        (ratio - 1.0).abs() <= tol,
        "{what}: approx_bytes {estimate} vs allocator truth {measured} (ratio {ratio:.3}, \
         tolerance ±{tol})"
    );
}

/// The artifacts are audited sequentially under the [`serial`] lock: a
/// sibling test allocating on another libtest thread would pollute the
/// measurement windows (same constraint `analysis_once.rs` documents for
/// its process-global counter).
#[test]
fn approx_bytes_matches_allocator_truth() {
    let _serial = serial();
    // Uniformized: both CSR matrices, capacity-accounted.
    let chain = birth_chain(4_000);
    // Dry run so lazy one-time allocations don't pollute the window.
    drop(Uniformized::new(&chain, 0.0));
    let before = live_bytes();
    let unif = Uniformized::new(&chain, 0.0);
    let measured = live_bytes() - before;
    assert_close("Uniformized", measured, unif.approx_bytes(), 0.10);
    drop(unif);
    assert!(
        live_bytes() <= before,
        "dropping the artifact must release its bytes"
    );

    // RegenParams: push-grown killed-chain sequences, capacity-accounted
    // (length-based math under-reported these by up to 2×).
    let chain = birth_chain(1_500);
    let opts = RegenOptions {
        epsilon: 1e-10,
        ..Default::default()
    };
    let t = 200.0;
    drop(RegenParams::compute(&chain, 0, t, &opts).unwrap());
    let before = live_bytes();
    let params = RegenParams::compute(&chain, 0, t, &opts).unwrap();
    let measured = live_bytes() - before;
    assert_close("RegenParams", measured, params.approx_bytes(), 0.15);
    drop(params);
    assert!(
        live_bytes() <= before,
        "dropping the parameters must release their bytes"
    );

    // Kernel layouts, allocator truth: the lazily built compact-index and
    // σ-sorted layouts report honest bytes through `plan_bytes()` — the
    // number the byte-bounded cache charges via the plan-bytes hook.
    let narrow = birth_chain(4_000);
    let ragged = ragged_chain(4_000);
    let compact = ParallelConfig {
        min_nnz: 0,
        threads: 1,
        kernel: KernelChoice::ShortRow,
        ..Default::default()
    };
    let sorted = ParallelConfig {
        kernel: KernelChoice::Sliced,
        ..compact
    };
    // Dry runs on twin artifacts so pool/one-time allocations don't
    // pollute the measurement windows.
    for (chain, cfg) in [(&narrow, &compact), (&ragged, &sorted)] {
        let _ = Uniformized::new(chain, 0.0).stepper(cfg);
    }
    for (what, chain, cfg, tol) in [
        ("compact-index layout", &narrow, &compact, 0.10),
        ("σ-sorted sliced layout", &ragged, &sorted, 0.15),
    ] {
        let unif = Uniformized::new(chain, 0.0);
        let plan = ChunkPlan::with_kernel(&unif.p_t, 1, cfg.kernel);
        assert_eq!(plan.index_width(), 16, "{what}: 4000 columns fit u16");
        assert_eq!(plan.sorted(), cfg.kernel == KernelChoice::Sliced, "{what}");
        drop(plan);
        let before = live_bytes();
        let hold = unif.stepper(cfg);
        let measured = live_bytes() - before;
        assert_close(what, measured, unif.plan_bytes(), tol);
        drop(hold);

        // Byte-cap honesty end to end: a cache capped at the matrices
        // alone must evict the entry the moment the layout materializes
        // on the cached artifact.
        let fp = unif_fingerprint(chain);
        let cache = ArtifactCache::with_config(CacheConfig {
            max_entries: None,
            max_bytes: Some(unif.matrix_bytes()),
        });
        let (cached, hit) = cache.uniformized(fp, chain, 0.0);
        assert!(!hit);
        assert_eq!(cache.stats().uniformized.entries, 1);
        let _stepper = cached.stepper(cfg);
        assert!(cached.plan_bytes() > 0, "{what}: layout must carry bytes");
        let stats = cache.stats().uniformized;
        assert_eq!(
            stats.evictions, 1,
            "{what}: lazy layout bytes must push the entry over cap"
        );
        assert_eq!(stats.bytes, 0, "{what}: eviction releases the charge");
    }
}

/// One layout per uniformization: a TRR+MRR SR sweep over RAID G = 20
/// probes the kernel with a serial stepper and then steps both measures
/// as one block, and both share a single plan. The uniformized pool
/// charges that layout once, on top of the matrices.
#[test]
fn blocked_sweep_charges_one_layout_per_uniformization() {
    let _serial = serial();
    let chain = Arc::new(RaidModel::new(RaidParams::paper(20)).build().unwrap().ctmc);
    let reqs: Vec<SolveRequest> = [MeasureKind::Trr, MeasureKind::Mrr]
        .into_iter()
        .map(|m| {
            SolveRequest::new("raid_g20", chain.clone(), vec![10.0])
                .measure(m)
                .method(MethodChoice::Fixed(Method::Sr))
        })
        .collect();
    let engine = Engine::new();
    let report = engine.sweep(&reqs);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.exec.blocked_cells, 2, "both measures ride one block");
    let (unif, hit) = engine
        .cache()
        .uniformized(unif_fingerprint(&chain), &chain, 0.0);
    assert!(hit, "the sweep's uniformization is cached");
    assert_eq!(
        unif.plan_bytes(),
        53_156,
        "one shortrow layout, not one per width"
    );
    assert_eq!(
        engine.cache().stats().uniformized.bytes,
        unif.matrix_bytes() + unif.plan_bytes(),
        "the pool charges the layout once"
    );
}
