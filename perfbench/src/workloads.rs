//! The four workloads, generated from the seed. The program under test sees
//! only the spec texts produced here.
//!
//! Every spec draws its cells from a fixed, finite universe (see
//! [`universe`]) so that one reference file per workload covers every cell
//! any seed can produce.

use crate::util::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    SensitivityGrid,
    Corpus,
    ServeMix,
}

pub const ALL: [Workload; 4] = [
    Workload::PaperGrid,
    Workload::SensitivityGrid,
    Workload::Corpus,
    Workload::ServeMix,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::SensitivityGrid => "sensitivity_grid",
            Workload::Corpus => "corpus",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// One spec document, labelled for reports.
#[derive(Clone, Debug)]
pub struct SpecText {
    pub label: String,
    pub text: String,
}

/// The paper's evaluation grid: G ∈ {20, 40}, UA and UR, t = 1 … 1e5 h,
/// ε = 1e-12, Auto dispatch. The grid is fixed by the paper, and so is its
/// model order (sweep workers claim jobs in order, so reordering the models
/// moves the sweep's makespan); the seed only permutes the spec's top-level
/// keys, which the engine must not care about.
fn paper_grid(rng: &mut Rng) -> Vec<SpecText> {
    let mut fields = vec![
        r#""epsilon": 1e-12"#,
        r#""method": "auto""#,
        r#""horizons": [1, 10, 100, 1000, 10000, 100000]"#,
        r#""measures": ["trr"]"#,
        r#""models": [{"kind": "raid", "g": 20}, {"kind": "raid", "g": 20, "absorbing": true},
    {"kind": "raid", "g": 40}, {"kind": "raid", "g": 40, "absorbing": true}]"#,
    ];
    rng.shuffle(&mut fields);
    vec![SpecText {
        label: "paper_grid".into(),
        text: format!("{{\n  {}\n}}", fields.join(",\n  ")),
    }]
}

/// `lambda_d` factors a sensitivity grid may draw: k / 20 for k in 5..=84,
/// i.e. 0.25 … 4.2 in steps of 0.05 (spelled exactly, so instance names
/// are stable).
fn sensitivity_factors() -> Vec<String> {
    (5..=84).map(|k| format!("{}", k as f64 / 20.0)).collect()
}

fn sensitivity_spec(factors: &[String]) -> String {
    format!(
        r#"{{"epsilon": 1e-12, "horizons": [0.01, 0.1],
  "cache": {{"max_entries": 8}},
  "models": [{{"kind": "raid", "g": 40, "absorbing": true,
    "sensitivity": {{"param": "lambda_d", "grid": [{}]}}}}]}}"#,
        factors.join(", ")
    )
}

/// Absorbing G = 40 RAID under a seeded 40-factor `lambda_d` grid, with the
/// cache cap `repro sensitivity` uses.
fn sensitivity_grid(rng: &mut Rng) -> Vec<SpecText> {
    let mut factors = sensitivity_factors();
    rng.shuffle(&mut factors);
    factors.truncate(40);
    vec![SpecText {
        label: "sensitivity_grid".into(),
        text: sensitivity_spec(&factors),
    }]
}

/// The corpus snapshot kept beside the benchmark (a copy of `specs/`).
pub const CORPUS: [&str; 8] = [
    "cluster_repairable",
    "dependency_chain",
    "duplex_mission",
    "kofn_coverage",
    "large_cluster",
    "multiproc_reboot",
    "sensitivity_raid",
    "spares_warm",
];

fn corpus_specs() -> Result<Vec<SpecText>, String> {
    CORPUS
        .iter()
        .map(|name| {
            let path = format!("perfbench/corpus/{name}.json");
            std::fs::read_to_string(&path)
                .map(|text| SpecText {
                    label: (*name).into(),
                    text,
                })
                .map_err(|e| format!("cannot read {path}: {e}"))
        })
        .collect()
}

/// The eight corpus specs in a seeded order.
fn corpus(rng: &mut Rng) -> Result<Vec<SpecText>, String> {
    let mut specs = corpus_specs()?;
    rng.shuffle(&mut specs);
    Ok(specs)
}

/// The specs one pass of a batch workload submits, in order.
pub fn batch_specs(w: Workload, seed: u64) -> Result<Vec<SpecText>, String> {
    let mut rng = Rng::new(seed);
    match w {
        Workload::PaperGrid => Ok(paper_grid(&mut rng)),
        Workload::SensitivityGrid => Ok(sensitivity_grid(&mut rng)),
        Workload::Corpus => corpus(&mut rng),
        Workload::ServeMix => Err("serve_mix is not a batch workload".into()),
    }
}

// ---------------------------------------------------------------- serve_mix
//
// The repo records no production traffic, so the mix below is an
// assumption, not a measurement. Each constant says why it has its value
// and which metrics it moves; a change to any of them changes the
// benchmark, not the program.

/// Error budget of every `serve_mix` request: the ε of every spec
/// `repro serve` sends.
pub const SERVE_EPSILON: f64 = 1e-10;

/// RAID group sizes a distinct request draws from: small chains (about
/// 10² to 10³ states) so that a distinct request costs milliseconds and the
/// serve layer's own overhead shows in the latency.
const SERVE_G: [u32; 6] = [3, 4, 5, 6, 7, 8];
/// `lambda_d` factors a distinct request draws from. Eight rate variants of
/// each structure let the cache serve later variants by donor rebind
/// (`cache.rebinds`); 6 sizes × 2 flavours × 8 factors = 96 models exceed
/// the server's 64-entry cache, so eviction is part of the run
/// (`cache.evictions`).
const SERVE_FACTORS: [&str; 8] = ["0.5", "0.75", "1", "1.25", "1.5", "2", "3", "4"];
/// Horizons of every distinct request: the decades where Auto dispatch
/// moves from Adaptive through SR to RSD/RRL on small chains. Every
/// distinct request asks for all four, so requests differ only in model.
const SERVE_HORIZONS: &str = "1, 10, 100, 1000";

/// One arrival in `HOT_EVERY` is a hot spec (assumed). This share sets
/// `serve.coalesced`, the cache hit counters and `cache.hit_ratio`, and
/// weighs the latency figures, since hot specs are the largest requests.
const HOT_EVERY: usize = 5;
/// Every `PAIR_EVERY`-th hot arrival is two requests due at the same
/// instant, so that the server coalesces them (assumed; sets
/// `serve.coalesced`).
const PAIR_EVERY: usize = 2;

/// The hot specs, re-sent in a fixed rotation, with their cell counts:
/// the irreducible and absorbing G = 12 RAID, and a two-model G = 10
/// request — one hot spec of each shape a client may repeat.
const HOT_SPECS: [(&str, u64); 3] = [
    (
        r#"{"epsilon": 1e-10, "horizons": [1, 10, 100, 1000], "models": [{"kind": "raid", "g": 12}]}"#,
        4,
    ),
    (
        r#"{"epsilon": 1e-10, "horizons": [1, 10, 100, 1000], "models": [{"kind": "raid", "g": 12, "absorbing": true}]}"#,
        4,
    ),
    (
        r#"{"epsilon": 1e-10, "horizons": [10, 1000], "models": [{"kind": "raid", "g": 10}, {"kind": "raid", "g": 10, "absorbing": true}]}"#,
        4,
    ),
];

fn small_raid_spec(g: u32, absorbing: bool, factor: &str) -> String {
    format!(
        r#"{{"epsilon": {SERVE_EPSILON:e}, "horizons": [{SERVE_HORIZONS}], "models": [{{"kind": "raid", "g": {g}, "absorbing": {absorbing}, "sensitivity": {{"param": "lambda_d", "grid": [{factor}]}}}}]}}"#
    )
}

/// One request of the open-loop schedule.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    pub spec: String,
    /// Cells the spec asks for.
    pub cells: u64,
}

/// A seeded open-loop schedule: requests due every `1 / rate` seconds for
/// `duration_s`. Every [`HOT_EVERY`]-th arrival is a hot spec, the three
/// in rotation, every [`PAIR_EVERY`]-th of them sent as a concurrent pair;
/// the rest are distinct small RAID specs drawn from the seed. The hot
/// rotation is fixed, and the distinct specs deal every (G, flavour) pair
/// once per round in a seeded order, so that each seed sends the same mix
/// of request sizes and the seed moves only which requests are sent, not
/// the latency distribution they make.
pub fn serve_schedule(seed: u64, rate: f64, duration_s: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let mut deck: Vec<(u32, bool)> = Vec::new();
    let mut out = Vec::new();
    for i in 1usize.. {
        let t = i as f64 / rate;
        if t >= duration_s {
            break;
        }
        if i.is_multiple_of(HOT_EVERY) {
            let k = i / HOT_EVERY;
            let (spec, cells) = HOT_SPECS[k % HOT_SPECS.len()];
            let copies = if k.is_multiple_of(PAIR_EVERY) { 2 } else { 1 };
            for _ in 0..copies {
                out.push(Planned {
                    due_s: t,
                    spec: spec.to_string(),
                    cells,
                });
            }
        } else {
            if deck.is_empty() {
                deck = SERVE_G
                    .iter()
                    .flat_map(|&g| [(g, false), (g, true)])
                    .collect();
                rng.shuffle(&mut deck);
            }
            let (g, absorbing) = deck.pop().expect("dealt a full round");
            let factor = SERVE_FACTORS[rng.below(SERVE_FACTORS.len())];
            out.push(Planned {
                due_s: t,
                spec: small_raid_spec(g, absorbing, factor),
                cells: SERVE_HORIZONS.split(',').count() as u64,
            });
        }
    }
    out
}

/// Each hot spec once, all due at once: warms the server before a measured
/// phase.
pub fn hot_plan() -> Vec<Planned> {
    HOT_SPECS
        .iter()
        .map(|&(spec, cells)| Planned {
            due_s: 0.0,
            spec: spec.to_string(),
            cells,
        })
        .collect()
}

// ----------------------------------------------------------------- universe

/// Spec documents that together contain every cell the workload can
/// produce under any seed — what the reference file is computed from.
pub fn universe(w: Workload) -> Result<Vec<SpecText>, String> {
    Ok(match w {
        Workload::PaperGrid => paper_grid(&mut Rng::new(0)),
        Workload::SensitivityGrid => vec![SpecText {
            label: "sensitivity_universe".into(),
            text: sensitivity_spec(&sensitivity_factors()),
        }],
        Workload::Corpus => corpus_specs()?,
        Workload::ServeMix => {
            let mut specs: Vec<SpecText> = HOT_SPECS
                .iter()
                .enumerate()
                .map(|(i, (s, _))| SpecText {
                    label: format!("hot{i}"),
                    text: s.to_string(),
                })
                .collect();
            for g in SERVE_G {
                for absorbing in [false, true] {
                    for factor in SERVE_FACTORS {
                        specs.push(SpecText {
                            label: format!("g{g}_{absorbing}_{factor}"),
                            text: small_raid_spec(g, absorbing, factor),
                        });
                    }
                }
            }
            specs
        }
    })
}
