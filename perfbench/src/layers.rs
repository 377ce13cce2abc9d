//! The two kinds of run: untraced end-to-end measurement, and the traced
//! per-layer run (untraced reference sweep, serial sweep, replay with spans
//! off and on).

use crate::batch;
use crate::calib::{Calibration, REFERENCE_S};
use crate::check::{cell_key, measure_name, Reference};
use crate::replay::{replay, ReplayOut};
use crate::serve::{self, Outcome};
use crate::util::{median, nproc, peak_rss_mib, percentile, tail};
use crate::workloads::{batch_specs, hot_plan, serve_schedule, SpecText, Workload};
use crate::{
    Metrics, RunResult, SERVE_LADDER_RPS, SERVE_LATENCY_LIMIT_MS, SERVE_LATENCY_SHARE,
    SERVE_RATE_RPS, SERVE_RUNG_SHARE,
};
use regenr_engine::{CacheStats, Engine, EngineOptions, RobustnessStats, ServeStats, SweepSpec};
use regenr_sparse::{WorkerPool, WorkerPoolStats};
use std::collections::{BTreeMap, HashMap};

/// Server set-ups per `serve_mix` run; `setup_s` is their median.
const SERVE_SETUPS: usize = 100;
/// Share of a ladder rung's time spent calibrating the host before it.
const SERVE_RUNG_CAL_SHARE: f64 = 1.0 / 20.0;

/// `setup_s` and `solve_s` time the same work over and over, and report
/// this percentile of the repeats. A busy stretch on a shared host
/// lengthens some repeats but cannot shorten any, so a low quantile follows
/// the program rather than its neighbours, without resting on the single
/// fastest repeat.
const PASS_PERCENTILE: f64 = 10.0;

/// Minimum trace coverage: per-layer self times over replay wall time.
const MIN_COVERAGE: f64 = 0.95;

// ------------------------------------------------------------------ untraced

pub fn untraced(
    w: Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Result<RunResult, String> {
    if w == Workload::ServeMix {
        return serve_untraced(seed, seconds, reference);
    }
    let specs = batch_specs(w, seed)?;
    // paper_grid makes few passes (its sweep takes seconds, its set-up tens
    // of milliseconds): repeat the set-up alone to get a steady quantile.
    let extra_setups = if w == Workload::PaperGrid { 4 } else { 0 };
    let mut cal = Calibration::new();
    let o = batch::measure(&specs, seconds, extra_setups, reference, &mut cal)?;
    let rss = peak_rss_mib();
    let mut m = Metrics::default();
    m.put("setup_s", percentile(&o.setup_s, PASS_PERCENTILE), "s");
    m.put("solve_s", percentile(&o.solve_s, PASS_PERCENTILE), "s");
    m.put("peak_rss_mb", rss, "MiB");
    let (lat_tail, lat_pct, lat_n) = tail(&o.latency_ms);
    m.put("latency_p50_ms", median(&o.latency_ms), "ms");
    m.put("latency_tail_ms", lat_tail, "ms");
    m.put(
        "max_rate_rps",
        o.latency_ms.len() as f64 / o.elapsed_s,
        "1/s",
    );
    let (solve_tail, solve_pct, passes) = tail(&o.solve_s);
    let largest = batch::largest_matrix_bytes(&specs)?;
    let slowdown = cal.slowdown(PASS_PERCENTILE);
    let (m, cal_note) = calibrated(m, &cal, |_| slowdown);
    Ok(RunResult {
        notes: vec![
            cal_note,
            format!(
                "solve_s is p{PASS_PERCENTILE:.0} over {passes} passes; p50 = {:.6} s, p{solve_pct:.0} = {solve_tail:.6} s",
                median(&o.solve_s)
            ),
            format!(
                "solve_s per pass (ms): {:?}",
                o.solve_s.iter().map(|x| (x * 1e3).round()).collect::<Vec<_>>()
            ),
            format!(
                "setup_s is p{PASS_PERCENTILE:.0} of {} set-ups; p50 = {:.6} s",
                o.setup_s.len(),
                median(&o.setup_s)
            ),
            format!("latency_tail_ms is p{lat_pct:.0} of {lat_n} requests (parse -> report, closed loop)"),
            format!("max_rate_rps: closed-loop requests per second, one request at a time"),
            fail_note(o.attempted, o.failed),
            matrix_note(largest),
        ],
        metrics: m,
        attempted: o.attempted,
        failed: o.failed,
        checks_ok: true,
        simd_backend: o.simd_backend,
        largest_matrix_bytes: largest,
    })
}

/// Removes the host's speed from the figures (see [`crate::calib`]): each
/// time is divided, and each rate multiplied, by the slowdown `slowdown`
/// gives for its name; memory stays as measured. Returns the calibrated
/// metrics and a note with the figures as measured.
fn calibrated(
    raw: Metrics,
    cal: &Calibration,
    slowdown: impl Fn(&str) -> f64,
) -> (Metrics, String) {
    let mut m = Metrics::default();
    let mut measured = Vec::new();
    for (name, value, unit) in raw.0 {
        let scaled = match unit {
            "s" | "ms" => value / slowdown(&name),
            "1/s" => value * slowdown(&name),
            _ => value,
        };
        if unit != "MiB" {
            measured.push(format!("{name} {value:.6} {unit}"));
        }
        m.put(&name, scaled, unit);
    }
    let note = format!(
        "host slowdown p{PASS_PERCENTILE:.0} {:.4}, mean {:.4} ({} calibration samples against the reference {:.4} ms); as measured: {}",
        cal.slowdown(PASS_PERCENTILE),
        cal.mean_slowdown(),
        cal.samples(),
        REFERENCE_S * 1e3,
        measured.join(", ")
    );
    (m, note)
}

fn fail_note(attempted: u64, failed: u64) -> String {
    format!(
        "fail_ratio = {} ({failed} of {attempted} cells failed, were refused, or missed the reference)",
        failed as f64 / attempted.max(1) as f64
    )
}

fn matrix_note(bytes: usize) -> String {
    format!(
        "largest model matrix = {:.2} MiB (P and P^T) against a {:.0} MiB LLC",
        bytes as f64 / 1048576.0,
        crate::util::llc_bytes() as f64 / 1048576.0
    )
}

fn ms(outs: &[Outcome], f: impl Fn(&Outcome) -> f64) -> Vec<f64> {
    outs.iter()
        .map(|o| if o.ok { f(o) * 1e3 } else { f64::INFINITY })
        .collect()
}

fn tally(outs: &[Outcome]) -> (u64, u64) {
    outs.iter()
        .fold((0, 0), |(a, f), o| (a + o.cells, f + o.cells_failed))
}

fn serve_simd() -> &'static str {
    regenr_sparse::simd::resolve(EngineOptions::default().parallel.backend).name()
}

fn serve_untraced(seed: u64, seconds: f64, reference: &Reference) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut running = None;
    for i in 0..SERVE_SETUPS {
        let (run, s) = serve::start_timed()?;
        setups.push(s);
        if i + 1 < SERVE_SETUPS {
            run.stop()?;
        } else {
            running = Some(run);
        }
    }
    let run = running.expect("at least one set-up");
    let addr = run.addr();
    let conns = nproc();
    let mut outs = serve::drive(addr, &hot_plan(), 1, reference, None);

    // Latency at one fixed offered rate, with the host calibrated between
    // the requests.
    let plan = serve_schedule(seed, SERVE_RATE_RPS, seconds * SERVE_LATENCY_SHARE);
    let mut cal = Calibration::new();
    let fixed = serve::drive(addr, &plan, conns, reference, Some(&mut cal));
    let lat = ms(&fixed, |o| o.last_record);
    let walls: Vec<f64> = fixed
        .iter()
        .filter(|o| o.ok && !o.coalesced)
        .map(|o| o.sweep_wall)
        .collect();
    let (lat_tail, lat_pct, lat_n) = tail(&lat);
    let late = ms(&fixed, |o| o.late);

    // Capacity: climb the ladder until a rung misses the latency limit,
    // fails a request, or leaves a growing backlog twice in a row, so that
    // one stall of the shared host does not end the climb. The host is
    // calibrated before every rung.
    let rung_s = seconds * SERVE_RUNG_SHARE;
    let mut max_rate = None;
    let mut ladder_notes = Vec::new();
    let mut rate_cal = Calibration::new();
    outs.extend(fixed);
    'ladder: for (k, &rate) in SERVE_LADDER_RPS.iter().enumerate() {
        let plan = serve_schedule(seed.wrapping_add(k as u64 + 1), rate, rung_s);
        let mut achieved = 0.0;
        for attempt in ["", " (retry)"] {
            rate_cal.sample_for(rung_s * SERVE_RUNG_CAL_SHARE);
            let rung = serve::drive(addr, &plan, conns, reference, None);
            let (t, _, _) = tail(&ms(&rung, |o| o.last_record));
            let backlog = rung[rung.len() * 3 / 4..]
                .iter()
                .map(|o| o.late * 1e3)
                .fold(0.0, f64::max);
            let span = plan
                .iter()
                .zip(&rung)
                .map(|(p, o)| p.due_s + o.last_record)
                .fold(0.0, f64::max);
            achieved = rung.len() as f64 / span.max(1e-9);
            let pass = rung.iter().all(|o| o.ok)
                && t < SERVE_LATENCY_LIMIT_MS
                && backlog < SERVE_LATENCY_LIMIT_MS;
            ladder_notes.push(format!(
                "ladder {rate} req/s{attempt}: tail {t:.2} ms, backlog lateness {backlog:.2} ms, achieved {achieved:.2} req/s -> {}",
                if pass { "pass" } else { "fail" }
            ));
            outs.extend(rung);
            if pass {
                max_rate = Some(achieved);
                continue 'ladder;
            }
        }
        // The rung failed twice; if it was the first, report its achieved
        // rate.
        max_rate.get_or_insert(achieved);
        break;
    }
    run.stop()?;
    let rss = peak_rss_mib();
    let (attempted, failed) = tally(&outs);

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("solve_s", median(&walls), "s");
    m.put("peak_rss_mb", rss, "MiB");
    m.put("latency_p50_ms", median(&lat), "ms");
    m.put("latency_tail_ms", lat_tail, "ms");
    m.put("max_rate_rps", max_rate.unwrap_or(0.0), "1/s");
    // The times are set against the mean wall time of the samples taken
    // between the latency phase's requests: a served request's latency
    // keeps every preemption of the process, which a best-of-three kernel
    // time removes. The rate is set against the mean of the samples taken
    // between rungs: a saturated server runs both cores without pause, so
    // its rate follows the share of slow stretches, which the mean tracks
    // and a low quantile ignores.
    let time_slowdown = cal.mean_wall_slowdown();
    let rate_slowdown = rate_cal.mean_slowdown();
    let (m, cal_note) = calibrated(m, &cal, |name| match name {
        "max_rate_rps" => rate_slowdown,
        _ => time_slowdown,
    });
    let mut notes = vec![
        cal_note,
        format!(
            "serve_mix times are divided by the mean wall-time slowdown {time_slowdown:.4} of the samples between requests; max_rate_rps is multiplied by the mean slowdown {rate_slowdown:.4} of {} samples taken before the ladder rungs",
            rate_cal.samples()
        ),
        format!(
            "setup_s: median of bind -> first /healthz answer over {SERVE_SETUPS} servers; p10 = {:.6} s, p90 = {:.6} s",
            percentile(&setups, 10.0),
            percentile(&setups, 90.0)
        ),
        format!(
            "solve_s: median server-side Engine::sweep wall over {} computed (non-coalesced) requests",
            walls.len()
        ),
        format!(
            "latency at {SERVE_RATE_RPS} req/s offered: p50 {:.3} ms, p{lat_pct:.0} {lat_tail:.3} ms over {lat_n} requests (due time -> summary record)",
            median(&lat)
        ),
        format!("loadgen lateness p50 {:.3} ms, max {:.3} ms", median(&late), percentile(&late, 100.0)),
    ];
    notes.extend(ladder_notes);
    notes.push(fail_note(attempted, failed));
    Ok(RunResult {
        metrics: m,
        attempted,
        failed,
        checks_ok: true,
        notes,
        simd_backend: serve_simd(),
        largest_matrix_bytes: serve_largest_bytes()?,
    })
}

fn serve_largest_bytes() -> Result<usize, String> {
    let specs: Vec<_> = hot_plan()
        .into_iter()
        .map(|p| SpecText {
            label: String::new(),
            text: p.spec,
        })
        .collect();
    batch::largest_matrix_bytes(&specs)
}

// -------------------------------------------------------------------- traced

/// Everything the per-layer metrics are computed from.
#[derive(Default)]
struct LayerInputs {
    on: ReplayOut,
    off_wall: f64,
    cache: CacheStats,
    cells_by_method: BTreeMap<String, u64>,
    robust: RobustnessStats,
    blocked_cells: u64,
    serial_solve_s: f64,
    pool: WorkerPoolStats,
    fresh_allocs: u64,
    serve: Option<ServeLayer>,
    attempted: u64,
    failed: u64,
}

struct ServeLayer {
    outs: Vec<Outcome>,
    stats: ServeStats,
}

fn add_cache(total: &mut CacheStats, s: &CacheStats) {
    for (t, x) in [
        (&mut total.structure, &s.structure),
        (&mut total.uniformized, &s.uniformized),
        (&mut total.regen_params, &s.regen_params),
    ] {
        t.hits += x.hits;
        t.misses += x.misses;
        t.evictions += x.evictions;
    }
    total.derived_hits += s.derived_hits;
    total.rebinds += s.rebinds;
    total.orphaned += s.orphaned;
}

fn add_pool(total: &mut WorkerPoolStats, p: &WorkerPoolStats) {
    total.pooled_runs += p.pooled_runs;
    total.inline_runs += p.inline_runs;
    total.chunks += p.chunks;
    total.stolen_chunks += p.stolen_chunks;
}

pub fn traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Result<RunResult, String> {
    let mut inp = LayerInputs::default();
    let mut untraced_cells: HashMap<String, f64> = HashMap::new();
    let texts: Vec<String>;
    // An engine with the server's cache; `threads = 1` also keeps SpMV off
    // the worker pool, as `batch::run_spec` does for the serial pass.
    let shared_engine = |threads: usize| {
        let cfg = serve::serve_config();
        let mut options = EngineOptions {
            threads,
            ..EngineOptions::default()
        };
        options.parallel.threads = threads;
        Engine::with_cache_config(options, cfg.cache)
    };
    let simd;
    let largest;
    if w == Workload::ServeMix {
        let (run, _) = serve::start_timed()?;
        let addr = run.addr();
        let before = WorkerPool::global().stats();
        let mut outs = serve::drive(addr, &hot_plan(), 1, reference, None);
        let plan = serve_schedule(seed, SERVE_RATE_RPS, seconds * SERVE_LATENCY_SHARE);
        let fixed = serve::drive(addr, &plan, nproc(), reference, None);
        inp.pool = WorkerPool::global().stats().since(&before);
        let stats = run.server.stats();
        inp.cache = run.server.engine().cache().stats();
        inp.robust = run.server.robustness();
        run.stop()?;
        outs.extend(fixed);
        for o in &outs {
            for m in &o.methods {
                *inp.cells_by_method.entry(m.clone()).or_default() += 1;
            }
            untraced_cells.extend(o.values.iter().cloned());
        }
        (inp.attempted, inp.failed) = tally(&outs);
        texts = hot_plan().into_iter().chain(plan).map(|p| p.spec).collect();
        // The same requests on one thread-limited engine with the server's
        // cache: the serial baseline and the engine's own accounting.
        let serial = shared_engine(1);
        for t in &texts {
            let spec = SweepSpec::parse(t)?;
            let report = serial.sweep(&spec.requests);
            inp.serial_solve_s += report.wall.as_secs_f64();
            inp.blocked_cells += report.exec.blocked_cells as u64;
            inp.fresh_allocs += report.exec.workspace.fresh_allocs;
        }
        inp.serve = Some(ServeLayer { outs, stats });
        simd = serve_simd();
        largest = serve_largest_bytes()?;
    } else {
        let specs = batch_specs(w, seed)?;
        let mut simd_seen = "scalar";
        for s in &specs {
            let (_, _, _, spec, report) = batch::run_spec(&s.text, None)?;
            let (a, f) = reference.check_cells(&spec.requests, &report.reports);
            inp.attempted += a;
            inp.failed += f;
            add_cache(&mut inp.cache, &report.cache);
            add_pool(&mut inp.pool, &report.exec.pool);
            inp.robust.merge(&report.robustness);
            inp.blocked_cells += report.exec.blocked_cells as u64;
            inp.fresh_allocs += report.exec.workspace.fresh_allocs;
            simd_seen = report.exec.simd_backend;
            for r in &report.reports {
                *inp.cells_by_method
                    .entry(r.method.name().into())
                    .or_default() += 1;
                untraced_cells.insert(cell_key(&r.model, measure_name(r.measure), r.t), r.value);
            }
            let (_, serial_solve, _, _, _) = batch::run_spec(&s.text, Some(1))?;
            inp.serial_solve_s += serial_solve;
        }
        texts = specs.iter().map(|s| s.text.clone()).collect();
        simd = simd_seen;
        largest = batch::largest_matrix_bytes(&specs)?;
    }

    // Replay with spans off, then on (fresh engines both times).
    let (off, on) = if w == Workload::ServeMix {
        let e_off = shared_engine(0);
        let off = replay(&texts, Some(&e_off), false)?;
        drop(e_off);
        let e_on = shared_engine(0);
        (off, replay(&texts, Some(&e_on), true)?)
    } else {
        (replay(&texts, None, false)?, replay(&texts, None, true)?)
    };
    inp.off_wall = off.wall;
    inp.on = on;

    // The replay must agree bitwise with what the engine computed untraced
    // (for serve_mix: the cells the server streamed).
    let mismatches = inp
        .on
        .cells
        .iter()
        .filter(|r| {
            let key = cell_key(&r.model, measure_name(r.measure), r.t);
            untraced_cells
                .get(&key)
                .is_none_or(|v| v.to_bits() != r.value.to_bits())
        })
        .count() as u64;

    let mut m = Metrics::default();
    let coverage = per_layer(&mut m, &inp);
    let trace_path = format!(".bench_out/trace_{}.json", w.name());
    let _ = std::fs::create_dir_all(".bench_out");
    if let Some(tr) = &inp.on.tracer {
        std::fs::write(&trace_path, tr.to_json().to_string())
            .map_err(|e| format!("{trace_path}: {e}"))?;
    }
    let mut notes = vec![
        format!("spans written to {trace_path}"),
        format!(
            "replay cells disagreeing with the engine: {mismatches} of {}",
            inp.on.cells.len()
        ),
        format!("trace coverage {coverage:.4} (minimum {MIN_COVERAGE})"),
        fail_note(inp.attempted, inp.failed),
        matrix_note(largest),
    ];
    let steps_share = inp.on.sparse_step_s / inp.on.wall;
    notes.push(format!(
        "open question 1: SpMV stepping is {:.1}% of the replay",
        steps_share * 100.0
    ));
    notes.push(format!(
        "open question 2: RR/RRL parameter construction is {:.1}% of the replay",
        params_share(&inp.on) * 100.0
    ));
    notes.push(format!(
        "open question 3: donor rebinds {} on this workload ({} rebinds)",
        if inp.cache.rebinds > 0 {
            "hit"
        } else {
            "never hit"
        },
        inp.cache.rebinds
    ));
    Ok(RunResult {
        metrics: m,
        attempted: inp.attempted + inp.on.cells.len() as u64,
        failed: inp.failed + mismatches,
        checks_ok: coverage >= MIN_COVERAGE && mismatches == 0,
        notes,
        simd_backend: simd,
        largest_matrix_bytes: largest,
    })
}

/// Inclusive RR/RRL parameter-construction time over the replay wall.
fn params_share(on: &ReplayOut) -> f64 {
    on.tracer.as_ref().map_or(0.0, |tr| {
        tr.spans
            .iter()
            .filter(|s| s.name == "core.params")
            .map(|s| s.duration())
            .fold(0.0, |a, b| a + b)
    }) / on.wall
}

/// Emits every per-layer metric; returns the trace coverage.
fn per_layer(m: &mut Metrics, inp: &LayerInputs) -> f64 {
    let on = &inp.on;
    let st = on
        .tracer
        .as_ref()
        .map(|t| t.self_times())
        .unwrap_or_default();
    let s = |names: &[&str]| {
        names
            .iter()
            .map(|n| st.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &inp.cache;
    let covered: f64 = st
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, v)| v)
        .sum();
    let coverage = ratio(covered, on.wall);

    m.put("spec.parse_s", s(&["spec.parse"]), "s");
    m.put("models.build_s", s(&["models.build"]), "s");
    m.put("models.states", on.states as f64, "count");
    m.put("models.nnz", on.nnz as f64, "count");
    m.put(
        "fingerprint.model_fps_s",
        s(&["fingerprint.model_fps", "fingerprint.in_parse"]),
        "s",
    );
    m.put("ctmc.analyze_s", s(&["ctmc.analyze"]), "s");
    m.put("ctmc.analysis_runs", on.analysis_runs as f64, "count");
    m.put("ctmc.uniformize_s", s(&["ctmc.uniformize"]), "s");
    m.put("ctmc.rebind_s", s(&["ctmc.rebind"]), "s");
    m.put("ctmc.plan_s", s(&["ctmc.plan"]), "s");
    m.put(
        "cache.lookup_s",
        s(&["cache.unif_hit", "cache.params"]),
        "s",
    );
    m.put("cache.unif_hits", c.uniformized.hits as f64, "count");
    m.put("cache.unif_misses", c.uniformized.misses as f64, "count");
    m.put("cache.rebinds", c.rebinds as f64, "count");
    m.put("cache.derived_hits", c.derived_hits as f64, "count");
    m.put("cache.params_hits", c.regen_params.hits as f64, "count");
    m.put("cache.params_misses", c.regen_params.misses as f64, "count");
    m.put(
        "cache.evictions",
        (c.structure.evictions + c.uniformized.evictions + c.regen_params.evictions) as f64,
        "count",
    );
    let hits = c.structure.hits + c.uniformized.hits + c.regen_params.hits;
    let lookups = hits + c.structure.misses + c.uniformized.misses + c.regen_params.misses;
    m.put(
        "cache.hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
    );
    m.put(
        "engine.dispatch_s",
        s(&["engine.new", "engine.plan", "engine.build_solver"]),
        "s",
    );
    for method in ["sr", "rsd", "adaptive", "rr", "rrl"] {
        let n = inp.cells_by_method.get(method).copied().unwrap_or(0);
        m.put(&format!("engine.cells.{method}"), n as f64, "count");
    }
    m.put("engine.retries", inp.robust.retries as f64, "count");
    m.put("engine.fallbacks", inp.robust.fallbacks as f64, "count");
    m.put(
        "engine.health_failures",
        inp.robust.health_failures as f64,
        "count",
    );
    m.put("engine.blocked_cells", inp.blocked_cells as f64, "count");
    m.put("engine.serial_solve_s", inp.serial_solve_s, "s");
    m.put("sparse.step_s", s(&["sparse.step"]), "s");
    m.put(
        "sparse.step_share",
        ratio(s(&["sparse.step"]), on.wall),
        "ratio",
    );
    m.put("sparse.steps", on.sparse_steps as f64, "count");
    m.put(
        "sparse.ns_per_nnz",
        ratio(on.sparse_step_s * 1e9, on.sparse_nnz_steps),
        "ns",
    );
    m.put(
        "sparse.gbps_computed",
        ratio(on.sparse_bytes / 1e9, on.sparse_step_s),
        "GB/s",
    );
    m.put(
        "sparse.stolen_ratio",
        ratio(inp.pool.stolen_chunks as f64, inp.pool.chunks as f64),
        "ratio",
    );
    m.put("sparse.inline_runs", inp.pool.inline_runs as f64, "count");
    m.put("sparse.fresh_allocs", inp.fresh_allocs as f64, "count");
    m.put("transient.sr_s", s(&["transient.sr"]), "s");
    m.put("transient.rsd_s", s(&["transient.rsd"]), "s");
    m.put("transient.adaptive_s", s(&["transient.adaptive"]), "s");
    m.put("transient.steps", on.transient_steps as f64, "count");
    m.put("core.params_s", s(&["core.params"]), "s");
    m.put("core.params_share", params_share(on), "ratio");
    m.put("core.params_steps", on.params_steps as f64, "count");
    m.put("laplace.invert_s", s(&["laplace.invert"]), "s");
    m.put("laplace.abscissae", on.abscissae as f64, "count");
    m.put("json.report_s", s(&["json.report"]), "s");
    m.put("json.report_bytes", on.report_bytes as f64, "bytes");

    let (outs, stats) = match &inp.serve {
        Some(sl) => (sl.outs.as_slice(), sl.stats),
        None => (&[][..], ServeStats::default()),
    };
    let med = |f: fn(&Outcome) -> f64| {
        if outs.is_empty() {
            0.0
        } else {
            median(&ms(outs, f))
        }
    };
    m.put("serve.connect_ms", med(|o| o.connect), "ms");
    m.put("serve.head_ms", med(|o| o.head), "ms");
    m.put("serve.ttfb_ms", med(|o| o.first_record), "ms");
    m.put("serve.last_record_ms", med(|o| o.last_record), "ms");
    m.put("serve.sweeps", stats.sweeps as f64, "count");
    m.put("serve.coalesced", stats.coalesced as f64, "count");
    m.put("serve.rejected", stats.rejected as f64, "count");
    m.put(
        "serve.inflight_highwater",
        stats.inflight_highwater as f64,
        "count",
    );
    m.put("serve.bad_requests", stats.bad_requests as f64, "count");
    m.put("serve.handler_panics", stats.handler_panics as f64, "count");
    let late = if outs.is_empty() {
        0.0
    } else {
        tail(&ms(outs, |o| o.late)).0
    };
    m.put("loadgen.late_ms", late, "ms");
    m.put("trace.coverage", coverage, "ratio");
    m.put(
        "trace.overhead",
        ratio(on.wall, inp.off_wall) - 1.0,
        "ratio",
    );
    m.put("trace.replay_s", on.wall, "s");
    m.put(
        "fail_ratio",
        ratio(inp.failed as f64, inp.attempted as f64),
        "ratio",
    );
    coverage
}
