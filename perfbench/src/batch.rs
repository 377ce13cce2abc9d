//! Untraced measurement of the batch workloads (`paper_grid`,
//! `sensitivity_grid`, `corpus`): each spec handled the way `regenr sweep`
//! handles it — parse, fresh engine, sweep, report — pass after pass.

use crate::calib::Calibration;
use crate::check::Reference;
use crate::workloads::SpecText;
use regenr_ctmc::Uniformized;
use regenr_engine::{report_to_json, Engine, SweepReport, SweepSpec};
use std::time::Instant;

#[derive(Default)]
pub struct BatchOutcome {
    /// Per pass and per extra set-up: `SweepSpec::parse` plus `Engine`
    /// construction, summed over the pass's specs.
    pub setup_s: Vec<f64>,
    /// Per pass: `Engine::sweep` wall, summed over the pass's specs.
    pub solve_s: Vec<f64>,
    /// Per spec: parse to serialized report, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Measured passes' wall time, calibration excluded.
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub simd_backend: &'static str,
}

/// One spec through the CLI path; returns (setup, solve, total) seconds and
/// the report.
pub fn run_spec(
    text: &str,
    threads: Option<usize>,
) -> Result<(f64, f64, f64, SweepSpec, SweepReport), String> {
    let t0 = Instant::now();
    let spec = SweepSpec::parse(text)?;
    let mut options = spec.options;
    if let Some(n) = threads {
        options.threads = n;
        options.parallel.threads = n;
    }
    let engine = Engine::with_cache_config(options, spec.cache);
    let t1 = Instant::now();
    let report = engine.sweep(&spec.requests);
    let t2 = Instant::now();
    let json = report_to_json(&report).to_string();
    std::hint::black_box(json);
    let t3 = Instant::now();
    Ok((
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t0).as_secs_f64(),
        spec,
        report,
    ))
}

/// `SweepSpec::parse` plus `Engine` construction alone, in seconds.
fn setup_only(text: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let spec = SweepSpec::parse(text)?;
    let engine = Engine::with_cache_config(spec.options, spec.cache);
    let setup = t0.elapsed().as_secs_f64();
    drop((engine, spec));
    Ok(setup)
}

/// One warm-up pass, then measured passes while the next one is expected
/// to end within `seconds` of the start (at least three), every cell of
/// every pass checked against the reference. Each pass also repeats the
/// set-up alone `extra_setups` times, so a workload with few passes still
/// yields enough `setup_s` samples, and is followed by host calibration
/// for a twentieth of its time.
pub fn measure(
    specs: &[SpecText],
    seconds: f64,
    extra_setups: usize,
    reference: &Reference,
    cal: &mut Calibration,
) -> Result<BatchOutcome, String> {
    let mut out = BatchOutcome::default();
    let pass = |record: bool, out: &mut BatchOutcome| -> Result<(), String> {
        let (mut setup, mut solve) = (0.0, 0.0);
        for s in specs {
            let (su, so, total, spec, report) = run_spec(&s.text, None)?;
            let (attempted, failed) = reference.check_cells(&spec.requests, &report.reports);
            out.attempted += attempted;
            out.failed += failed;
            out.simd_backend = report.exec.simd_backend;
            if record {
                out.latency_ms.push(total * 1e3);
            }
            setup += su;
            solve += so;
        }
        if record {
            out.setup_s.push(setup);
            out.solve_s.push(solve);
            for _ in 0..extra_setups {
                let mut setup = 0.0;
                for s in specs {
                    setup += setup_only(&s.text)?;
                }
                out.setup_s.push(setup);
            }
        }
        Ok(())
    };
    let start = Instant::now();
    pass(false, &mut out)?;
    cal.sample_for(start.elapsed().as_secs_f64() / 20.0);
    let mut last = start.elapsed().as_secs_f64();
    let mut elapsed = 0.0;
    while start.elapsed().as_secs_f64() + last <= seconds || out.solve_s.len() < 3 {
        let p0 = Instant::now();
        pass(true, &mut out)?;
        let work = p0.elapsed().as_secs_f64();
        elapsed += work;
        cal.sample_for(work / 20.0);
        last = p0.elapsed().as_secs_f64();
    }
    out.elapsed_s = elapsed;
    Ok(out)
}

/// Matrix bytes (`P` and `Pᵀ`) of the largest model the specs build.
pub fn largest_matrix_bytes(specs: &[SpecText]) -> Result<usize, String> {
    let mut best = 0;
    for s in specs {
        let spec = SweepSpec::parse(&s.text)?;
        if let Some(req) = spec
            .requests
            .iter()
            .max_by_key(|r| r.model.generator().nnz())
        {
            best = best.max(Uniformized::new(&req.model, spec.options.theta).matrix_bytes());
        }
    }
    Ok(best)
}
