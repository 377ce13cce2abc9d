//! `perfbench` — the seeded end-to-end and per-layer benchmark of regenr.
//!
//! ```text
//! perfbench --workload <paper_grid|sensitivity_grid|corpus|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --make-reference <workload>...
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` runs the traced per-layer replay. Either
//! way every cell is checked against `perfbench/reference/<workload>.json`,
//! and the last line of standard output is the JSON result. See
//! `perfbench/README.md`.

mod batch;
mod calib;
mod check;
mod layers;
mod replay;
mod serve;
mod trace;
mod util;
mod workloads;

use regenr_engine::Json;
use workloads::Workload;

/// Offered rate of the `serve_mix` latency phase, requests/s: a light,
/// fixed load (an assumption, like the mix itself), under which a 2-core
/// machine mostly has one request in flight, so `latency_p50_ms` measures
/// service time more than queueing.
pub const SERVE_RATE_RPS: f64 = 20.0;
/// The `serve_mix` capacity ladder, requests/s, climbed until a rung fails:
/// fixed rungs from twice the latency phase's rate upwards, never derived
/// from the commit under test.
pub const SERVE_LADDER_RPS: [f64; 14] = [
    40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 115.0, 130.0, 150.0, 175.0, 200.0, 250.0, 300.0,
];
/// A ladder rung passes while its tail latency stays under this limit.
pub const SERVE_LATENCY_LIMIT_MS: f64 = 250.0;
/// Share of `--seconds` the `serve_mix` latency phase runs.
pub const SERVE_LATENCY_SHARE: f64 = 0.5;
/// Share of `--seconds` each ladder rung runs.
pub const SERVE_RUNG_SHARE: f64 = 0.04;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// What a run produced: metrics, the cell tally, and facts for the stamp.
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Checks beyond the cell tally (trace coverage, replay agreement).
    pub checks_ok: bool,
    pub notes: Vec<String>,
    pub simd_backend: &'static str,
    pub largest_matrix_bytes: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("--make-reference") {
        for name in &args[1..] {
            let w = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
            let n = check::make_reference(w)?;
            eprintln!("{name}: wrote {n} reference cells");
        }
        return Ok(());
    }
    let a = parse_args(args)?;
    let reference = check::Reference::load(a.workload)?;
    let r = if a.trace {
        layers::traced(a.workload, a.seed, a.seconds, &reference)?
    } else {
        layers::untraced(a.workload, a.seed, a.seconds, &reference)?
    };

    for note in &r.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &r.metrics.0 {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let stamp = Json::Obj(vec![
        ("workload".into(), Json::Str(a.workload.name().into())),
        ("seed".into(), Json::Num(a.seed as f64)),
        ("trace".into(), Json::Bool(a.trace)),
        ("git_sha".into(), Json::Str(util::git_sha())),
        ("nproc".into(), Json::Num(util::nproc() as f64)),
        ("simd_backend".into(), Json::Str(r.simd_backend.into())),
        ("llc_bytes".into(), Json::Num(util::llc_bytes() as f64)),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
        (
            "largest_model_matrix_bytes".into(),
            Json::Num(r.largest_matrix_bytes as f64),
        ),
    ]);
    println!("stamp {stamp}");
    let finite = r.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = r.failed == 0 && r.checks_ok && finite;
    let metrics = Json::Obj(
        r.metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        // A metric that could not be measured is null, never
                        // a number that would read as a result.
                        (
                            "value".into(),
                            if value.is_finite() {
                                Json::Num(*value)
                            } else {
                                Json::Null
                            },
                        ),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(r.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(r.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{result}");
    Ok(())
}
