//! Output checks: every cell against a reference computed once by a second
//! method, plus the paper's UR(1e5 h) anchors.

use crate::workloads::{universe, Workload};
use regenr_engine::{
    model_fps, Engine, Json, Method, MethodChoice, SolveReport, SolveRequest, SweepSpec,
};
use regenr_transient::MeasureKind;
use std::collections::{BTreeMap, HashMap};

/// Accepted deviation from the reference relative to the reference value.
/// The widest relative gap at this commit is 1.5e-8: RRL against RR for
/// UR(1e5 h) at G = 40, where RR's inner SR accumulates roundoff.
pub const REL_TOLERANCE: f64 = 1e-7;

/// Absolute floor of the accepted deviation, in units of the request's
/// error budget ε. Each method's value lies within ε of the exact one, so
/// two methods may differ by 2ε; the floor keeps cells far below 1 (the
/// sensitivity grid's 1e-11 … 1e-8) from passing on the relative term's
/// rounding alone. With ε ≤ 1e-8 the whole tolerance stays inside the
/// `1e-6 · max(|ref|, 1)` that `repro compose` accepts.
pub const EPSILON_FLOOR: f64 = 4.0;

/// The largest accepted `|value − reference|` for a cell solved at error
/// budget `epsilon`.
pub fn tolerance(want: f64, epsilon: f64) -> f64 {
    REL_TOLERANCE * want.abs() + EPSILON_FLOOR * epsilon
}

/// The paper's anchors: UR(1e5 h) to five digits at G = 20 and G = 40.
const PAPER_ANCHORS: [(&str, &str); 2] = [("raid_g20_ur", "0.50480"), ("raid_g40_ur", "0.74750")];

pub fn measure_name(m: MeasureKind) -> &'static str {
    match m {
        MeasureKind::Trr => "trr",
        MeasureKind::Mrr => "mrr",
    }
}

pub fn cell_key(model: &str, measure: &str, t: f64) -> String {
    format!("{model}|{measure}|{t}")
}

fn reference_path(w: Workload) -> String {
    format!("perfbench/reference/{}.json", w.name())
}

/// Reference values of one workload, keyed by [`cell_key`].
pub struct Reference {
    cells: HashMap<String, f64>,
}

impl Reference {
    pub fn load(w: Workload) -> Result<Reference, String> {
        Self::load_from(&reference_path(w))
    }

    pub fn load_from(path: &str) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let Some(Json::Obj(cells)) = doc.get("cells") else {
            return Err(format!("{path}: no \"cells\" object"));
        };
        let cells = cells
            .iter()
            .map(|(k, v)| {
                let value = v
                    .as_arr()
                    .and_then(|a| a.first())
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: bad cell {k}"))?;
                Ok((k.clone(), value))
            })
            .collect::<Result<HashMap<_, _>, String>>()?;
        Ok(Reference { cells })
    }

    /// Whether one cell, solved at error budget `epsilon`, matches its
    /// reference (and, for the paper's UR cells at 1e5 h, the published
    /// five digits).
    pub fn cell_ok(&self, model: &str, measure: &str, t: f64, value: f64, epsilon: f64) -> bool {
        let Some(&want) = self.cells.get(&cell_key(model, measure, t)) else {
            return false;
        };
        let anchored = PAPER_ANCHORS
            .iter()
            .filter(|(name, _)| *name == model && measure == "trr" && t == 1e5)
            .all(|(_, digits)| format!("{value:.5}") == *digits);
        anchored && value.is_finite() && (value - want).abs() <= tolerance(want, epsilon)
    }

    /// Checks a sweep's cells against the cells its requests asked for:
    /// returns `(attempted, failed)`, where a cell that is missing (the
    /// request failed) or wrong counts as failed.
    pub fn check_cells(&self, requests: &[SolveRequest], reports: &[SolveReport]) -> (u64, u64) {
        let attempted: u64 = requests.iter().map(|r| r.horizons.len() as u64).sum();
        let mut passed = 0u64;
        for r in reports {
            let measure = measure_name(r.measure);
            // A report without its request has no error budget: it fails.
            let epsilon = requests
                .iter()
                .find(|q| q.name == r.model)
                .map_or(f64::NAN, |q| q.epsilon);
            if self.cell_ok(&r.model, measure, r.t, r.value, epsilon) {
                passed += 1;
            } else {
                let want = self.cells.get(&cell_key(&r.model, measure, r.t));
                eprintln!(
                    "check failed: {} {measure}({}) = {:e}, reference {want:?}",
                    r.model, r.t, r.value
                );
            }
        }
        (attempted, attempted.saturating_sub(passed))
    }
}

/// The second method a reference cell is computed with: RR (or SR where
/// Auto already picked RR) for absorbing chains, RSD (or SR where Auto
/// already picked RSD) for irreducible ones.
fn second_method(auto: Method, absorbing: bool) -> Method {
    match (absorbing, auto) {
        (true, Method::Rr) => Method::Sr,
        (true, _) => Method::Rr,
        (false, Method::Rsd) => Method::Sr,
        (false, _) => Method::Rsd,
    }
}

/// Computes and writes a workload's reference file from its universe specs,
/// forcing every cell onto [`second_method`] of its Auto choice.
pub fn make_reference(w: Workload) -> Result<usize, String> {
    let mut cells: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    for spec_text in universe(w)? {
        let spec = SweepSpec::parse(&spec_text.text)?;
        let engine = Engine::with_cache_config(spec.options, spec.cache);
        let mut forced: Vec<SolveRequest> = Vec::new();
        for req in &spec.requests {
            let fps = model_fps(&req.model);
            let facts = engine
                .cache()
                .facts_for(&fps, &req.model)
                .map_err(|e| e.to_string())?;
            let mut groups: BTreeMap<&'static str, (Method, Vec<f64>)> = BTreeMap::new();
            for &t in &req.horizons {
                let (auto, _) = engine.auto_method(&facts, t);
                let m = second_method(auto, !facts.absorbing.is_empty());
                groups.entry(m.name()).or_insert((m, Vec::new())).1.push(t);
            }
            for (_, (m, ts)) in groups {
                let mut r = req.clone();
                r.horizons = ts;
                r.method = MethodChoice::Fixed(m);
                forced.push(r);
            }
        }
        let report = engine.sweep(&forced);
        if let Some(f) = report.failures.first() {
            return Err(format!(
                "{}: {} failed: {}",
                spec_text.label, f.model, f.error
            ));
        }
        for r in &report.reports {
            cells.insert(
                cell_key(&r.model, measure_name(r.measure), r.t),
                (r.value, r.method.name()),
            );
        }
        eprintln!(
            "  {}: {} reference cells so far",
            spec_text.label,
            cells.len()
        );
    }
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(w.name().into())),
        (
            "how".into(),
            Json::Str(
                "each cell forced onto a second method: RR (SR where Auto picks RR) for \
                 absorbing chains, RSD (SR where Auto picks RSD) for irreducible ones"
                    .into(),
            ),
        ),
        (
            "cells".into(),
            Json::Obj(
                cells
                    .iter()
                    .map(|(k, (v, m))| {
                        (
                            k.clone(),
                            Json::Arr(vec![Json::Num(*v), Json::Str((*m).into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = reference_path(w);
    std::fs::write(&path, doc.pretty() + "\n").map_err(|e| format!("{path}: {e}"))?;
    Ok(cells.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;
    /// A sensitivity-grid-sized cell: UR(0.01 h) of the absorbing G = 40
    /// RAID is of order 1e-9.
    const SMALL: f64 = 1.234_567e-9;
    /// The smallest sensitivity-grid cells are of order 1e-11.
    const TINY: f64 = 1.1e-11;

    fn reference() -> Reference {
        let mut cells = HashMap::new();
        cells.insert(cell_key("raid_g20_ur", "trr", 1e5), 0.504_797_123_4);
        cells.insert(cell_key("unit", "trr", 1.0), 9.99e-4);
        cells.insert(cell_key("small", "trr", 0.01), SMALL);
        cells.insert(cell_key("tiny", "trr", 0.01), TINY);
        Reference { cells }
    }

    #[test]
    fn exact_values_pass() {
        let r = reference();
        assert!(r.cell_ok("raid_g20_ur", "trr", 1e5, 0.504_797_123_4, EPS));
        assert!(r.cell_ok("unit", "trr", 1.0, 9.99e-4 + 1e-12, EPS));
        // Two methods may disagree by their two error budgets.
        assert!(r.cell_ok("small", "trr", 0.01, SMALL + 2.0 * EPS, EPS));
        assert!(r.cell_ok("tiny", "trr", 0.01, TINY - 2.0 * EPS, EPS));
    }

    #[test]
    fn perturbed_values_are_caught() {
        let r = reference();
        // A perturbation just past the tolerance fails, as do a missing
        // cell, a non-finite value, and a value off the paper's digits.
        let unit_tol = tolerance(9.99e-4, EPS);
        assert!(!r.cell_ok("unit", "trr", 1.0, 9.99e-4 + 2.0 * unit_tol, EPS));
        assert!(!r.cell_ok(
            "raid_g20_ur",
            "trr",
            1e5,
            0.504_797_123_4 * (1.0 + 1e-6),
            EPS
        ));
        assert!(!r.cell_ok("unit", "trr", 10.0, 9.99e-4, EPS));
        assert!(!r.cell_ok("unit", "trr", 1.0, f64::NAN, EPS));
        let mut off = reference();
        off.cells
            .insert(cell_key("raid_g20_ur", "trr", 1e5), 0.50470);
        assert!(!off.cell_ok("raid_g20_ur", "trr", 1e5, 0.50470, EPS));
        // Cells far below 1 are held to their own scale: zeroed, doubled,
        // halved or 1% off, a sensitivity-grid-sized cell fails.
        for cell in [SMALL, TINY] {
            let model = if cell == SMALL { "small" } else { "tiny" };
            for wrong in [0.0, 2.0 * cell, 0.5 * cell, -cell] {
                assert!(
                    !r.cell_ok(model, "trr", 0.01, wrong, EPS),
                    "{model}: {wrong:e}"
                );
            }
        }
        assert!(!r.cell_ok("small", "trr", 0.01, SMALL * 1.01, EPS));
        // A cell whose error budget is unknown fails.
        assert!(!r.cell_ok("small", "trr", 0.01, SMALL, f64::NAN));
    }

    #[test]
    fn the_tolerance_is_never_looser_than_repro_compose() {
        for want in [0.0, 1e-11, 1e-9, 1e-3, 0.5, 1.0, 3.0] {
            for eps in [1e-12, 1e-10, 1e-8] {
                assert!(tolerance(want, eps) <= 1e-6 * f64::max(want.abs(), 1.0));
            }
        }
    }

    #[test]
    fn a_perturbed_sweep_cell_is_caught_against_the_reference_file() {
        let reference = Reference::load_from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/reference/corpus.json"
        ))
        .unwrap();
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/corpus/duplex_mission.json"
        ))
        .unwrap();
        let spec = SweepSpec::parse(&text).unwrap();
        let engine = Engine::with_cache_config(spec.options, spec.cache);
        let mut report = engine.sweep(&spec.requests);
        let cells = report.reports.len() as u64;
        assert!(cells > 0);
        assert_eq!(
            reference.check_cells(&spec.requests, &report.reports),
            (cells, 0)
        );
        let i = cells as usize / 2;
        let eps = spec.requests[0].epsilon;
        report.reports[i].value += 10.0 * tolerance(report.reports[i].value, eps);
        assert_eq!(
            reference.check_cells(&spec.requests, &report.reports),
            (cells, 1)
        );
        // A request that produced no cells fails all of its cells.
        report.reports.truncate(1);
        assert_eq!(
            reference.check_cells(&spec.requests, &report.reports),
            (cells, cells - 1)
        );
    }
}
