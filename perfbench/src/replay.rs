//! The traced replay: each request of a workload, on one thread, through the
//! same public calls the engine makes —
//! `model_fps` → `ArtifactCache::facts_for` → `Engine::auto_method` →
//! `ArtifactCache::uniformized_delta` → `Uniformized::stepper` →
//! `build_solver` + `Solver::solve_many_ws` (RRL: `RrlSolver::parameters_with`
//! under the engine's parameter cache, then `invert_params`) →
//! `report_to_json` — each wrapped in a span.
//!
//! SpMV stepping happens inside the solvers, where no public call reaches
//! it. Its share is estimated from outside: every uniformization a job
//! stepped is calibrated afterwards by timing `Stepper::step` on it, and the
//! job's step count times that per-step cost becomes an estimated
//! `sparse.step` child of the solver span.

use crate::trace::Tracer;
use regenr_ctmc::{analysis_runs, Ctmc, Uniformized};
use regenr_engine::{
    build_solver, model_fps, report_to_json, Engine, EngineSolution, Method, MethodChoice,
    SolveConfig, SolveReport, Solver, SweepReport, SweepSpec,
};
use regenr_engine::{DispatchReason, Json};
use regenr_sparse::{ParallelConfig, Workspace};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A solver call that stepped a uniformized matrix.
struct SteppedJob {
    span: usize,
    steps: usize,
    structure: u64,
    transient: bool,
}

/// A uniformization kept for calibration, one per generator structure.
struct Calibrand {
    unif: Arc<Uniformized>,
    parallel: ParallelConfig,
}

/// Per-structure stepping cost, measured after the replay.
#[derive(Clone, Copy, Default)]
pub struct StepCost {
    pub seconds: f64,
    pub nnz: usize,
    /// Bytes one step streams, computed from the sizes: `Pᵀ` in CSR
    /// (8-byte values, 4-byte column indices, 8-byte row pointers) plus the
    /// input and output vectors.
    pub bytes: f64,
}

#[derive(Default)]
pub struct ReplayOut {
    /// Replay wall time (calibration excluded).
    pub wall: f64,
    pub tracer: Option<Tracer>,
    pub cells: Vec<SolveReport>,
    pub states: usize,
    pub nnz: usize,
    pub analysis_runs: u64,
    pub report_bytes: usize,
    pub abscissae: usize,
    pub transient_steps: usize,
    pub params_steps: usize,
    /// Steps of full-matrix SpMV (SR, RSD, RR/RRL parameter construction).
    pub sparse_steps: usize,
    pub sparse_step_s: f64,
    pub sparse_bytes: f64,
    pub sparse_nnz_steps: f64,
}

fn transient_span(m: Method) -> &'static str {
    match m {
        Method::Sr => "transient.sr",
        Method::Rsd => "transient.rsd",
        Method::Adaptive => "transient.adaptive",
        _ => "transient.ode",
    }
}

/// Replays `specs` in order. With `shared`, every request runs on that one
/// engine (the serve workload's long-lived cache); otherwise each spec gets
/// a fresh engine, as `regenr sweep` does.
pub fn replay(specs: &[String], shared: Option<&Engine>, on: bool) -> Result<ReplayOut, String> {
    let mut tr = Tracer::new(on);
    let mut ws = Workspace::new();
    let mut out = ReplayOut::default();
    let mut jobs: Vec<SteppedJob> = Vec::new();
    let mut calibrands: HashMap<u64, Calibrand> = HashMap::new();
    let runs0 = analysis_runs();
    let t0 = Instant::now();
    for (rid, text) in specs.iter().enumerate() {
        tr.set_request(rid);
        let root = tr.open("request");
        let s = tr.open("spec.parse");
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        tr.close(s);
        let build = tr.open("models.build");
        let spec = SweepSpec::from_json(&doc)?;
        tr.close(build);
        let owned;
        let engine: &Engine = match shared {
            Some(e) => e,
            None => {
                let s = tr.open("engine.new");
                owned = Engine::with_cache_config(spec.options, spec.cache);
                tr.close(s);
                &owned
            }
        };
        let opts = engine.options();
        let cache = engine.cache();
        let mut reports: Vec<SolveReport> = Vec::new();
        let mut seen: Vec<*const Ctmc> = Vec::new();
        for req in &spec.requests {
            let s = tr.open("fingerprint.model_fps");
            let fps = model_fps(&req.model);
            tr.close(s);
            let model_ptr = Arc::as_ptr(&req.model);
            if !seen.contains(&model_ptr) {
                // `SweepSpec::from_json` fingerprinted this model once
                // while building it: the same call on the same model.
                seen.push(model_ptr);
                tr.add_estimated(build, "fingerprint.in_parse", tr.duration(s));
                out.states += req.model.n_states();
                out.nnz += req.model.generator().nnz();
            }
            let s = tr.open("ctmc.analyze");
            let facts = cache
                .facts_for(&fps, &req.model)
                .map_err(|e| e.to_string())?;
            tr.close(s);

            // Plan: consecutive horizons sharing a method form one job.
            let s = tr.open("engine.plan");
            let mut planned: Vec<(Method, DispatchReason, Vec<f64>)> = Vec::new();
            for &t in &req.horizons {
                let (m, reason) = match req.method {
                    MethodChoice::Fixed(m) => (m, DispatchReason::FixedByRequest),
                    MethodChoice::Auto => engine.auto_method(&facts, t),
                };
                match planned.last_mut() {
                    Some((pm, _, ts)) if *pm == m => ts.push(t),
                    _ => planned.push((m, reason, vec![t])),
                }
            }
            tr.close(s);
            let cfg = SolveConfig {
                epsilon: req.epsilon,
                theta: opts.theta,
                regen_state: req.regen_state,
                inverter: opts.inverter,
                // One thread, as `regenr sweep` runs at `"threads": 1`: the
                // replay times each call alone, never on the worker pool.
                parallel: ParallelConfig {
                    threads: 1,
                    ..opts.parallel
                },
                dense_limit: opts.dense_oracle_max_states,
            };
            let lambda = if facts.max_rate == 0.0 {
                1.0
            } else {
                facts.max_rate * (1.0 + opts.theta)
            };

            for (method, reason, ts) in planned {
                let mut kernel = ("none", "none");
                let mut unif_hit = false;
                let unif = if method == Method::Ode {
                    None
                } else {
                    let rebinds = cache.stats().rebinds;
                    let s = tr.open("ctmc.uniformize");
                    let (u, hit) = cache.uniformized_delta(
                        fps.unif,
                        fps.unif_structure,
                        &req.model,
                        cfg.theta,
                    );
                    tr.close(s);
                    unif_hit = hit;
                    if hit {
                        tr.rename(s, "cache.unif_hit");
                    } else if cache.stats().rebinds > rebinds {
                        tr.rename(s, "ctmc.rebind");
                    }
                    Some(u)
                };
                if let Some(u) = unif.as_ref().filter(|_| method != Method::Adaptive) {
                    let s = tr.open("ctmc.plan");
                    let stepper = u.stepper(&cfg.parallel);
                    kernel = (stepper.kernel_kind().name(), stepper.backend().name());
                    drop(stepper);
                    tr.close(s);
                    calibrands.entry(fps.unif_structure).or_insert(Calibrand {
                        unif: u.clone(),
                        parallel: cfg.parallel,
                    });
                }
                let s = tr.open("engine.build_solver");
                let solver = build_solver(method, &req.model, &facts, unif, &cfg)
                    .map_err(|e| e.to_string())?;
                tr.close(s);

                let t_solve = Instant::now();
                let mut params_hit = false;
                let t_max = ts.iter().copied().fold(0.0f64, f64::max);
                let sols: Vec<EngineSolution> =
                    if let Some(rrl) = solver.as_rrl().filter(|_| t_max > 0.0) {
                        let s = tr.open("cache.params");
                        let (params, hit) = cache
                            .regen_params_linked(
                                fps.full,
                                fps.unif,
                                &rrl.options().regen,
                                rrl.regenerative_state(),
                                t_max,
                                |h| {
                                    let s = tr.open("core.params");
                                    let p = rrl.parameters_with(h, &mut ws);
                                    tr.close(s);
                                    if let Ok(p) = &p {
                                        jobs.push(SteppedJob {
                                            span: s,
                                            steps: p.construction_steps(),
                                            structure: fps.unif_structure,
                                            transient: false,
                                        });
                                    }
                                    p
                                },
                            )
                            .map_err(|e| e.to_string())?;
                        tr.close(s);
                        params_hit = hit;
                        let mut sols = Vec::with_capacity(ts.len());
                        for &t in &ts {
                            let s = tr.open("core.slice");
                            let sliced = match params.depth_for_horizon(t, cfg.epsilon) {
                                Some((k, l)) if t > 0.0 => Some(params.truncated(k, l)),
                                _ => None,
                            };
                            tr.close(s);
                            let s = tr.open("laplace.invert");
                            let sol: EngineSolution = match &sliced {
                                Some(p) => rrl.invert_params(p, req.measure, t).into(),
                                None => {
                                    Solver::solve(rrl, req.measure, t).map_err(|e| e.to_string())?
                                }
                            };
                            tr.close(s);
                            out.abscissae += sol.abscissae;
                            sols.push(sol);
                        }
                        sols
                    } else {
                        let name = match method {
                            Method::Rr | Method::Rrl => "core.regen_solve",
                            m => transient_span(m),
                        };
                        let s = tr.open(name);
                        let sols = solver
                            .solve_many_ws(req.measure, &ts, &mut ws)
                            .map_err(|e| e.to_string())?;
                        tr.close(s);
                        let steps = sols.iter().map(|x| x.steps).max().unwrap_or(0);
                        if matches!(method, Method::Sr | Method::Rsd | Method::Adaptive) {
                            out.transient_steps += steps;
                        }
                        // Adaptive steps touch only the active set, not the
                        // whole matrix: no full-SpMV estimate for them.
                        if matches!(method, Method::Sr | Method::Rsd) {
                            jobs.push(SteppedJob {
                                span: s,
                                steps,
                                structure: fps.unif_structure,
                                transient: true,
                            });
                        }
                        sols
                    };
                let per_cell = t_solve.elapsed() / ts.len().max(1) as u32;
                for (&t, sol) in ts.iter().zip(&sols) {
                    reports.push(SolveReport {
                        model: req.name.clone(),
                        fingerprint: fps.full,
                        measure: req.measure,
                        t,
                        method,
                        reason,
                        value: sol.value,
                        steps: sol.steps,
                        error_bound: sol.error_bound,
                        abscissae: sol.abscissae,
                        converged: sol.converged,
                        lambda_t: lambda * t,
                        kernel: kernel.0,
                        backend: kernel.1,
                        unif_cache_hit: unif_hit,
                        params_cache_hit: params_hit,
                        wall: per_cell,
                        attempts: 1,
                        recovered_via: None,
                    });
                }
            }
        }
        let s = tr.open("json.report");
        let report = SweepReport {
            reports,
            ..SweepReport::default()
        };
        let bytes = report_to_json(&report).to_string().len();
        tr.close(s);
        out.report_bytes += bytes;
        out.cells.extend(report.reports);
        tr.close(root);
    }
    out.wall = t0.elapsed().as_secs_f64();
    out.analysis_runs = analysis_runs() - runs0;

    // Calibrate stepping outside the timed replay, then attach the
    // estimated stepping time under each solver span.
    let costs: HashMap<u64, StepCost> = calibrands
        .iter()
        .map(|(k, c)| (*k, step_cost(&c.unif, &c.parallel)))
        .collect();
    for job in &jobs {
        let cost = costs.get(&job.structure).copied().unwrap_or_default();
        let est = job.steps as f64 * cost.seconds;
        tr.add_estimated(job.span, "sparse.step", est);
        out.sparse_steps += job.steps;
        out.sparse_step_s += est;
        out.sparse_bytes += job.steps as f64 * cost.bytes;
        out.sparse_nnz_steps += job.steps as f64 * cost.nnz as f64;
        if !job.transient {
            out.params_steps += job.steps;
        }
    }
    out.tracer = on.then_some(tr);
    Ok(out)
}

/// Median wall time of one `Stepper::step` on `u`, over five batches of at
/// least 2 ms each.
fn step_cost(u: &Uniformized, parallel: &ParallelConfig) -> StepCost {
    let stepper = u.stepper(parallel);
    let n = u.n_states();
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    stepper.step(&x, &mut y);
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut k = 0u32;
        while k < 8 || t0.elapsed() < Duration::from_millis(2) {
            stepper.step(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
            k += 1;
        }
        samples.push(t0.elapsed().as_secs_f64() / f64::from(k));
    }
    let nnz = u.p_t.nnz();
    StepCost {
        seconds: crate::util::median(&samples),
        nnz,
        bytes: (nnz * 12 + (n + 1) * 8 + 2 * n * 8) as f64,
    }
}
