//! Standard randomization (SR / uniformization), the paper's baseline.
//!
//! With `P = I + Q/Λ` and `π_n = α P^n`,
//!
//! * `TRR(t) = Σ_n Po_{Λt}(n) · r·π_n`,
//! * `MRR(t) = (1/(Λt)) Σ_n P[N(t) ≥ n+1] · r·π_n`
//!   (from `∫₀ᵗ Po_{Λτ}(n) dτ = P[N(t) ≥ n+1]/Λ`),
//!
//! truncated at the Fox–Glynn window `[L, R]` of `Poisson(Λt)` with discarded
//! mass `≤ ε/r_max`, so the absolute error is `≤ ε`. The step count — `R`, the
//! right truncation point — is what Table 2 of the paper reports for SR.
//!
//! Numerical safety: all terms are non-negative (this is randomization's
//! selling point), sums are compensated, and distributions are propagated by
//! gather-style products on `Pᵀ` (parallelized above a size threshold).
//!
//! There is one propagation loop, [`solve_block_with`]: it steps `k`
//! interleaved cells per pass of `Pᵀ`, and every single-chain solve
//! ([`SrSolver::solve_with`], [`SrSolver::solve_many_with`]) is a one-cell
//! block.

use crate::{MeasureKind, Solution};
use regenr_ctmc::{Ctmc, Uniformized};
use regenr_numeric::{KahanSum, PoissonWeights};
use regenr_sparse::{ParallelConfig, Workspace, MAX_RHS_BLOCK};
use std::sync::Arc;

/// Options for [`SrSolver`].
#[derive(Clone, Copy, Debug)]
pub struct SrOptions {
    /// Total absolute error budget `ε` (the paper uses `10⁻¹²`).
    pub epsilon: f64,
    /// Uniformization safety factor `θ` (`Λ = (1+θ)·max rate`); `0` matches
    /// the paper.
    pub theta: f64,
    /// Parallel SpMV configuration.
    pub parallel: ParallelConfig,
}

impl Default for SrOptions {
    fn default() -> Self {
        SrOptions {
            epsilon: 1e-12,
            theta: 0.0,
            parallel: ParallelConfig::default(),
        }
    }
}

/// Standard-randomization solver bound to one chain.
#[derive(Clone, Debug)]
pub struct SrSolver<'a> {
    ctmc: &'a Ctmc,
    unif: Arc<Uniformized>,
    opts: SrOptions,
}

impl<'a> SrSolver<'a> {
    /// Uniformizes the chain and prepares the solver.
    pub fn new(ctmc: &'a Ctmc, opts: SrOptions) -> Self {
        let unif = Arc::new(Uniformized::new(ctmc, opts.theta));
        Self::with_uniformized(ctmc, unif, opts)
    }

    /// Reuses a prebuilt uniformization (the engine's artifact-cache path).
    /// `unif` must have been built from `ctmc` at `opts.theta`.
    pub fn with_uniformized(ctmc: &'a Ctmc, unif: Arc<Uniformized>, opts: SrOptions) -> Self {
        assert!(opts.epsilon > 0.0, "epsilon must be positive");
        unif.assert_built_from(ctmc);
        SrSolver { ctmc, unif, opts }
    }

    /// The randomization rate in use.
    pub fn lambda(&self) -> f64 {
        self.unif.lambda
    }

    /// Computes `TRR(t)` or `MRR(t)` with absolute error `≤ ε`.
    pub fn solve(&self, measure: MeasureKind, t: f64) -> Solution {
        self.solve_with(measure, t, &mut Workspace::new())
    }

    /// Like [`SrSolver::solve`] with caller-owned scratch: repeated solves
    /// through one [`Workspace`] perform no steady-state vector allocations.
    pub fn solve_with(&self, measure: MeasureKind, t: f64, ws: &mut Workspace) -> Solution {
        self.solve_many_with(measure, &[t], ws)[0]
    }

    /// Computes the measure at *many* horizons in a single propagation sweep.
    ///
    /// SR propagates the same DTMC sequence `π_0, π_1, …` regardless of `t`;
    /// only the Poisson weights differ. This method steps once up to the
    /// largest right truncation point and accumulates every horizon's
    /// weighted sum on the way — `max(Λtᵢ)` products instead of `Σ Λtᵢ`.
    /// Each value is bitwise identical to the per-`t` [`SrSolver::solve`].
    pub fn solve_many(&self, measure: MeasureKind, ts: &[f64]) -> Vec<Solution> {
        self.solve_many_with(measure, ts, &mut Workspace::new())
    }

    /// Like [`SrSolver::solve_many`] with caller-owned scratch: the
    /// propagation loop performs zero steady-state heap allocations. A
    /// one-cell [`solve_block_with`].
    pub fn solve_many_with(
        &self,
        measure: MeasureKind,
        ts: &[f64],
        ws: &mut Workspace,
    ) -> Vec<Solution> {
        let cell = SrBlockCell {
            ctmc: self.ctmc,
            measure,
            ts,
        };
        let mut out = solve_block_with(&self.unif, &self.opts, &[cell], ws);
        out.pop().expect("one cell in, one cell out")
    }

    /// The transient state distribution `π(t)` (used by tests and examples).
    pub fn transient_distribution(&self, t: f64) -> Vec<f64> {
        self.transient_distribution_with(t, &mut Workspace::new())
    }

    /// Like [`SrSolver::transient_distribution`] with caller-owned scratch.
    pub fn transient_distribution_with(&self, t: f64, ws: &mut Workspace) -> Vec<f64> {
        assert!(t >= 0.0);
        let n_states = self.ctmc.n_states();
        if t == 0.0 {
            return self.ctmc.initial().to_vec();
        }
        let lambda_t = self.unif.lambda * t;
        let w = PoissonWeights::new(lambda_t, self.opts.epsilon.min(1e-10));
        let mut out = vec![KahanSum::new(); n_states];
        let initial = [self.ctmc.initial()];
        propagate(&self.unif, &self.opts, &initial, w.right, ws, |n, pi| {
            let wn = w.pmf(n);
            if wn > 0.0 {
                for (o, p) in out.iter_mut().zip(pi) {
                    o.add(wn * p);
                }
            }
        });
        out.into_iter().map(|k| k.value()).collect()
    }
}

/// One member of a blocked standard-randomization solve (see
/// [`solve_block_with`]): a chain built over the *same generator* as the
/// group's shared uniformization — initial distribution, rewards, measure,
/// and horizon grid are the cell's own.
#[derive(Clone, Copy, Debug)]
pub struct SrBlockCell<'a> {
    /// The cell's chain. Its generator must match the shared
    /// uniformization (checked via [`Uniformized::assert_built_from`]).
    pub ctmc: &'a Ctmc,
    /// Which reward measure this cell computes.
    pub measure: MeasureKind,
    /// The cell's horizon grid (what [`SrSolver::solve_many_with`] would
    /// receive).
    pub ts: &'a [f64],
}

/// Per-cell propagation state for [`solve_block_with`].
struct BlockCellRun {
    weights: Vec<Option<PoissonWeights>>,
    accs: Vec<KahanSum>,
    /// The cell's own largest right truncation point — accumulation stops
    /// here even though the shared propagation may continue for other
    /// cells.
    right: u64,
}

/// The reward dot of column `j` of a `k`-interleaved blocked state, in
/// [`Ctmc::reward_dot`]'s exact operation order: `Σ_s pi[s*k + j] · r_s`
/// summed left to right. Same adds in the same order ⇒ bitwise identical
/// to `reward_dot` on the extracted column (and *is* `reward_dot` at
/// `k = 1`).
fn reward_dot_strided(rewards: &[f64], pi: &[f64], k: usize, j: usize) -> f64 {
    pi[j..]
        .iter()
        .step_by(k)
        .zip(rewards)
        .map(|(p, r)| p * r)
        .sum()
}

/// Solves every cell's horizon grid in **one blocked propagation** — the
/// only SR propagation loop ([`SrSolver::solve_with`] and
/// [`SrSolver::solve_many_with`] are one-cell calls into it). The cells'
/// state distributions are interleaved into a `k`-column block and every
/// DTMC step is a single streaming pass of `Pᵀ` moving all `k` (see
/// [`regenr_ctmc::Stepper::step`]) — this is what breaks the
/// memory-bandwidth wall when an engine sweep holds many cells over one
/// uniformization (different initial distributions, rewards, measures, or
/// horizon grids).
///
/// Every cell's solutions are **bitwise identical** to solving that cell
/// alone: blocked stepping is bitwise per column, the strided reward dot
/// replicates the serial operation order, and each cell's accumulators see
/// exactly the same terms in the same order (cells stop accumulating at
/// their own right truncation point while the shared propagation
/// continues).
///
/// Degenerate cells (no horizons, zero rewards, all-zero horizons) never
/// propagate: each horizon reports the initial reward with zero steps.
///
/// # Panics
/// If `cells` is empty or longer than [`MAX_RHS_BLOCK`], `opts.epsilon`
/// is not positive, a cell's chain does not match `unif`, or a horizon is
/// negative.
pub fn solve_block_with(
    unif: &Uniformized,
    opts: &SrOptions,
    cells: &[SrBlockCell<'_>],
    ws: &mut Workspace,
) -> Vec<Vec<Solution>> {
    assert!(
        (1..=MAX_RHS_BLOCK).contains(&cells.len()),
        "block of {} cells out of range",
        cells.len()
    );
    assert!(opts.epsilon > 0.0, "epsilon must be positive");
    // Per-cell Poisson windows; degenerate cells get no run and never
    // occupy a block column.
    let mut runs: Vec<Option<BlockCellRun>> = cells
        .iter()
        .map(|cell| {
            unif.assert_built_from(cell.ctmc);
            assert!(
                cell.ts.iter().all(|&t| t >= 0.0),
                "time must be non-negative"
            );
            let r_max = cell.ctmc.max_reward();
            if r_max == 0.0 || cell.ts.iter().all(|&t| t == 0.0) {
                return None;
            }
            // Discarded Poisson mass δ contributes ≤ δ·r_max to either
            // measure.
            let delta = (opts.epsilon / r_max).min(0.5);
            let weights: Vec<Option<PoissonWeights>> = cell
                .ts
                .iter()
                .map(|&t| (t > 0.0).then(|| PoissonWeights::new(unif.lambda * t, delta)))
                .collect();
            let right = weights.iter().flatten().map(|w| w.right).max()?;
            Some(BlockCellRun {
                accs: vec![KahanSum::new(); weights.len()],
                weights,
                right,
            })
        })
        .collect();
    let mut active: Vec<(&SrBlockCell<'_>, &mut BlockCellRun)> = cells
        .iter()
        .zip(&mut runs)
        .filter_map(|(cell, run)| Some((cell, run.as_mut()?)))
        .collect();
    if let Some(right) = active.iter().map(|(_, run)| run.right).max() {
        let k = active.len();
        let initials: Vec<&[f64]> = active.iter().map(|(cell, _)| cell.ctmc.initial()).collect();
        propagate(unif, opts, &initials, right, ws, |step, pi| {
            for (j, (cell, run)) in active.iter_mut().enumerate() {
                if step > run.right {
                    continue;
                }
                let rr = reward_dot_strided(cell.ctmc.rewards(), pi, k, j);
                for (acc, w) in run.accs.iter_mut().zip(&run.weights) {
                    let Some(w) = w else { continue };
                    if step > w.right {
                        continue;
                    }
                    match cell.measure {
                        MeasureKind::Trr => {
                            let wn = w.pmf(step);
                            if wn > 0.0 {
                                acc.add(wn * rr);
                            }
                        }
                        MeasureKind::Mrr => acc.add(w.survival(step + 1) * rr),
                    }
                }
            }
        });
    }

    cells
        .iter()
        .zip(runs)
        .map(|(cell, run)| {
            let initial = || Solution {
                value: cell.ctmc.reward_dot(cell.ctmc.initial()),
                steps: 0,
                error_bound: 0.0,
            };
            let Some(run) = run else {
                return cell.ts.iter().map(|_| initial()).collect();
            };
            run.accs
                .iter()
                .zip(&run.weights)
                .zip(cell.ts)
                .map(|((acc, w), &t)| match w {
                    None => initial(),
                    Some(w) => Solution {
                        value: match cell.measure {
                            MeasureKind::Trr => acc.value(),
                            MeasureKind::Mrr => acc.value() / (unif.lambda * t),
                        },
                        steps: w.right as usize,
                        error_bound: opts.epsilon,
                    },
                })
                .collect()
        })
        .collect()
}

/// The SR propagation loop — the only one in this module: interleaves the
/// `k = initials.len()` distributions into a block and visits
/// `π_0, π_1, …, π_right` (each `k`-interleaved, `pi[s*k + j]`), one
/// streaming pass of `Pᵀ` per step.
fn propagate(
    unif: &Uniformized,
    opts: &SrOptions,
    initials: &[&[f64]],
    right: u64,
    ws: &mut Workspace,
    mut visit: impl FnMut(u64, &[f64]),
) {
    let k = initials.len();
    let n = unif.n_states();
    let stepper = unif.stepper_block(&opts.parallel, k);
    let mut pi = ws.take_zeroed_block(n, k);
    for (j, initial) in initials.iter().enumerate() {
        for (s, &v) in initial.iter().enumerate() {
            pi[s * k + j] = v;
        }
    }
    regenr_failpoint::failpoint!("sr-nan", |_fired| {
        if let Some(slot) = pi.first_mut() {
            *slot = f64::NAN;
        }
    });
    let mut next = ws.take_zeroed_block(n, k);
    for step in 0..=right {
        regenr_failpoint::failpoint!("sr-step");
        visit(step, &pi);
        if step < right {
            stepper.step(&pi, &mut next);
            std::mem::swap(&mut pi, &mut next);
        }
    }
    ws.give(pi);
    ws.give(next);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-state repairable unit with closed-form unavailability
    /// `UA(t) = λ/(λ+μ) · (1 − e^{−(λ+μ)t})`.
    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        Ctmc::from_rates(
            2,
            &[(0, 1, lambda), (1, 0, mu)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap()
    }

    fn ua_exact(lambda: f64, mu: f64, t: f64) -> f64 {
        lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp())
    }

    #[test]
    fn trr_matches_closed_form() {
        let (l, m) = (1e-3, 1.0);
        let c = two_state(l, m);
        let s = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.01, 0.1, 1.0, 10.0, 100.0, 1000.0] {
            let got = s.solve(MeasureKind::Trr, t);
            let want = ua_exact(l, m, t);
            assert!(
                (got.value - want).abs() < 1e-11,
                "t={t}: {} vs {want}",
                got.value
            );
        }
    }

    #[test]
    fn mrr_matches_closed_form_integral() {
        // ∫₀ᵗ UA = λ/(λ+μ)·(t − (1−e^{−(λ+μ)t})/(λ+μ)); MRR = that / t.
        let (l, m) = (0.5, 2.0);
        let c = two_state(l, m);
        let s = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.1, 1.0, 5.0, 50.0] {
            let got = s.solve(MeasureKind::Mrr, t);
            let lm = l + m;
            let want = l / lm * (t - (1.0 - (-lm * t).exp()) / lm) / t;
            assert!(
                (got.value - want).abs() < 1e-11,
                "t={t}: {} vs {want}",
                got.value
            );
        }
    }

    #[test]
    fn t_zero_returns_initial_reward() {
        let c = two_state(1.0, 1.0);
        let s = SrSolver::new(&c, SrOptions::default());
        let got = s.solve(MeasureKind::Trr, 0.0);
        assert_eq!(got.value, 0.0);
        assert_eq!(got.steps, 0);
    }

    #[test]
    fn absorbing_chain_unreliability() {
        // 0 -> 1 (absorbing) at rate λ: UR(t) = 1 − e^{−λt}.
        let l = 0.37;
        let c = Ctmc::from_rates(2, &[(0, 1, l)], vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        let s = SrSolver::new(&c, SrOptions::default());
        for &t in &[0.1, 1.0, 3.0, 10.0] {
            let got = s.solve(MeasureKind::Trr, t).value;
            let want = 1.0 - (-l * t).exp();
            assert!((got - want).abs() < 1e-12, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn steps_grow_linearly_with_t() {
        let c = two_state(1.0, 1.0);
        let s = SrSolver::new(&c, SrOptions::default());
        let s10 = s.solve(MeasureKind::Trr, 10.0).steps;
        let s1000 = s.solve(MeasureKind::Trr, 1000.0).steps;
        assert!(s1000 > 50 * s10 / 10, "SR steps must scale ~linearly in t");
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let c = two_state(0.3, 1.1);
        let s = SrSolver::new(&c, SrOptions::default());
        let ts = [5.0, 0.0, 0.5, 50.0];
        for m in [MeasureKind::Trr, MeasureKind::Mrr] {
            let many = s.solve_many(m, &ts);
            assert_eq!(many.len(), ts.len());
            for (sol, &t) in many.iter().zip(&ts) {
                let single = s.solve(m, t);
                assert!(
                    (sol.value - single.value).abs() < 1e-12,
                    "t={t} {m:?}: {} vs {}",
                    sol.value,
                    single.value
                );
                assert_eq!(sol.steps, single.steps);
            }
        }
    }

    #[test]
    fn solve_many_empty_and_degenerate() {
        let c = two_state(1.0, 1.0);
        let s = SrSolver::new(&c, SrOptions::default());
        assert!(s.solve_many(MeasureKind::Trr, &[]).is_empty());
        let zeros = s.solve_many(MeasureKind::Trr, &[0.0, 0.0]);
        assert_eq!(zeros[0].value, 0.0);
        assert_eq!(zeros[1].steps, 0);
    }

    #[test]
    fn workspace_reuse_is_allocation_free() {
        let c = two_state(0.3, 1.1);
        let s = SrSolver::new(&c, SrOptions::default());
        let mut ws = Workspace::new();
        let ts = [5.0, 0.5, 50.0];
        let warm = s.solve_many_with(MeasureKind::Trr, &ts, &mut ws);
        let after_warmup = ws.stats().fresh_allocs;
        for _ in 0..5 {
            let again = s.solve_many_with(MeasureKind::Trr, &ts, &mut ws);
            for (a, b) in warm.iter().zip(&again) {
                assert_eq!(a.value, b.value, "reuse must not change values");
            }
        }
        assert_eq!(
            ws.stats().fresh_allocs,
            after_warmup,
            "warmed-up solve_many must not allocate scratch vectors"
        );
    }

    /// The single-vector SR loop, written out independently of the blocked
    /// propagation: `reward_dot` on the plain distribution and one serial
    /// `Pᵀ·π` product per step. The reference the blocked solve must match
    /// bit for bit.
    fn serial_reference(unif: &Uniformized, opts: &SrOptions, cell: &SrBlockCell) -> Vec<Solution> {
        let ctmc = cell.ctmc;
        let r_max = ctmc.max_reward();
        let initial = Solution {
            value: ctmc.reward_dot(ctmc.initial()),
            steps: 0,
            error_bound: 0.0,
        };
        cell.ts
            .iter()
            .map(|&t| {
                if t == 0.0 || r_max == 0.0 {
                    return initial;
                }
                let lambda_t = unif.lambda * t;
                let w = PoissonWeights::new(lambda_t, (opts.epsilon / r_max).min(0.5));
                let mut pi = ctmc.initial().to_vec();
                let mut next = vec![0.0; pi.len()];
                let mut acc = KahanSum::new();
                for n in 0..=w.right {
                    let rr = ctmc.reward_dot(&pi);
                    match cell.measure {
                        MeasureKind::Trr => {
                            let wn = w.pmf(n);
                            if wn > 0.0 {
                                acc.add(wn * rr);
                            }
                        }
                        MeasureKind::Mrr => acc.add(w.survival(n + 1) * rr),
                    }
                    unif.p_t.mul_vec_into(&pi, &mut next);
                    std::mem::swap(&mut pi, &mut next);
                }
                Solution {
                    value: match cell.measure {
                        MeasureKind::Trr => acc.value(),
                        MeasureKind::Mrr => acc.value() / lambda_t,
                    },
                    steps: w.right as usize,
                    error_bound: opts.epsilon,
                }
            })
            .collect()
    }

    /// Blocked multi-cell solves must be bitwise identical per cell to the
    /// serial single-vector loop — different initials, rewards, measures,
    /// horizon grids, and degenerate members (zero rewards; `t = 0` only)
    /// riding inside k ≥ 2 blocks included.
    #[test]
    fn blocked_solve_is_bitwise_identical_to_serial_per_cell() {
        let n = 40;
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0 + i as f64 * 0.01));
            rates.push((i + 1, i, 0.5));
        }
        let mut init_a = vec![0.0; n];
        init_a[0] = 1.0;
        let base = Ctmc::from_rates(n, &rates, init_a, vec![1.0; n]).unwrap();
        let mut init_b = vec![0.0; n];
        init_b[n - 1] = 0.25;
        init_b[n / 2] = 0.75;
        let cell_b = base
            .with_initial(init_b)
            .unwrap()
            .with_rewards((0..n).map(|i| (i % 3) as f64).collect())
            .unwrap();
        let cell_c = base.with_rewards(vec![0.0; n]).unwrap(); // degenerate
        let opts = SrOptions::default();
        let unif = Arc::new(Uniformized::new(&base, opts.theta));
        let grids: [&[f64]; 5] = [
            &[0.5, 3.0, 10.0],
            &[7.0, 0.0],
            &[1.0],
            &[0.0, 0.0], // degenerate: t = 0 only
            &[2.5, 40.0],
        ];
        let cells = [
            SrBlockCell {
                ctmc: &base,
                measure: MeasureKind::Trr,
                ts: grids[0],
            },
            SrBlockCell {
                ctmc: &cell_b,
                measure: MeasureKind::Mrr,
                ts: grids[1],
            },
            SrBlockCell {
                ctmc: &cell_c,
                measure: MeasureKind::Trr,
                ts: grids[2],
            },
            SrBlockCell {
                ctmc: &cell_b,
                measure: MeasureKind::Trr,
                ts: grids[3],
            },
            SrBlockCell {
                ctmc: &base,
                measure: MeasureKind::Mrr,
                ts: grids[4],
            },
        ];
        for take in 1..=cells.len() {
            let mut ws = Workspace::new();
            let got = solve_block_with(&unif, &opts, &cells[..take], &mut ws);
            assert_eq!(got.len(), take);
            for (cell, sols) in cells[..take].iter().zip(&got) {
                let want = serial_reference(&unif, &opts, cell);
                let solver = SrSolver::with_uniformized(cell.ctmc, unif.clone(), opts);
                let alone = solver.solve_many_with(cell.measure, cell.ts, &mut Workspace::new());
                assert_eq!(want.len(), sols.len());
                for ((w, g), a) in want.iter().zip(sols).zip(&alone) {
                    for got in [g, a] {
                        assert_eq!(
                            w.value.to_bits(),
                            got.value.to_bits(),
                            "take={take} {:?} ts={:?}",
                            cell.measure,
                            cell.ts
                        );
                        assert_eq!(w.steps, got.steps);
                        assert_eq!(w.error_bound, got.error_bound);
                    }
                }
            }
        }
    }

    #[test]
    fn distribution_sums_to_one_and_matches_trr() {
        let c = two_state(0.2, 0.9);
        let s = SrSolver::new(&c, SrOptions::default());
        let t = 3.5;
        let d = s.transient_distribution(t);
        let mass: f64 = d.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
        let trr = s.solve(MeasureKind::Trr, t).value;
        assert!((c.reward_dot(&d) - trr).abs() < 1e-10);
    }
}
