#![warn(missing_docs)]

//! # tf-lowerbound — certified lower bounds on `OPT`'s ℓk flow
//!
//! Competitive ratios compare an algorithm to the *optimal clairvoyant
//! offline schedule*, which is intractable to compute exactly for ℓk flow
//! on multiple machines. The paper sidesteps OPT the same way we do: its
//! analysis (Section 3.1) lower-bounds OPT by a time-indexed LP relaxation
//! and proves
//!
//! ```text
//!   LP  ≤  2 · Σ_j F_j^k(OPT)        (with the γ factor stripped)
//! ```
//!
//! because for any feasible schedule, `Σ_t x_jt (t−r_j)^k / p_j ≤ F_j^k`
//! and `Σ_t x_jt p_j^k / p_j = p_j^k ≤ F_j^k`.
//!
//! We compute that LP **exactly** for integral traces by casting it as a
//! min-cost transportation problem (jobs supply `p_j` units; unit time
//! slots have capacity `m`; the per-job per-slot rate cap of a feasible
//! schedule adds edge capacity 1) and solving it with our own
//! successive-shortest-paths min-cost-flow solver ([`mcmf`]).
//!
//! Two cheaper bounds complement it:
//! * [`bounds::size_bound`] — `Σ_j p_j^k`, since `F_j ≥ p_j` at speed 1;
//! * [`bounds::srpt_super_machine_bound`] — for ℓ1: SRPT on a single
//!   speed-`m` machine with relaxed per-job cap is optimal for the
//!   relaxation, hence a lower bound; *exact* OPT when `m = 1, k = 1`.
//!
//! [`lk_lower_bound`] combines them and reports which bound won.
//!
//! ## Audited continuously
//!
//! Two `tf-audit` checks gate this crate (see `docs/VALIDATION.md`):
//! `X1-LB-DOMINANCE` fuzzes the dominance `lk_lower_bound ≤ Σ_j F_j^k`
//! against every registered policy's measured speed-1 schedule (each one
//! is feasible, so a violation indicts the bound), and `X3-SOLVER-EQUIV`
//! pins the optimized solver to [`lk_lower_bound_reference`] — the PR-1
//! unit-augmenting implementation retained as an executable oracle — on
//! both the combined bound and the raw LP value.

pub mod agg;
pub mod bounds;
pub mod budget;
pub mod exact;
pub mod lp;
pub mod mcmf;

pub use agg::{lk_lower_bound_aggregated, AggConfig, AggregatedBound};
pub use bounds::{size_bound, srpt_super_machine_bound};
pub use budget::SolveBudget;
pub use exact::{exact_slotted_opt, exact_slotted_opt_reference, ExactLimits, ExactResult};
pub use lp::{
    last_solve_stats, lp_relaxation_solution, lp_relaxation_value, lp_relaxation_value_at_horizon,
    lp_relaxation_value_budgeted, lp_relaxation_value_certified,
    lp_relaxation_value_colgen_budgeted, lp_relaxation_value_reference,
    lp_relaxation_value_warm_budgeted, lp_relaxation_value_weighted, LpSchedule, LpSolution,
    LpSolver, LpWarmStart, SSP_CROSSOVER_JOBS,
};
pub use mcmf::{FlowResult, McmfGraph, McmfStats, MinCostFlow, WarmStart};

use serde::{Deserialize, Serialize};
use tf_simcore::Trace;

/// Which component produced the winning lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BoundKind {
    /// `Σ p_j^k`.
    Size,
    /// Time-indexed LP relaxation / 2.
    Lp,
    /// SRPT on the speed-`m` super machine (ℓ1 only).
    SrptSuperMachine,
    /// Interval-aggregated LP relaxation / 2, with a certified
    /// aggregation gap (see [`agg`]). Still a rigorous lower bound —
    /// the gap only measures distance to the *exact* LP value.
    LpAgg,
}

impl BoundKind {
    /// Short provenance label for tables and bench records.
    pub fn label(self) -> &'static str {
        match self {
            BoundKind::Size => "size",
            BoundKind::Lp => "lp/2",
            BoundKind::SrptSuperMachine => "srpt-m",
            BoundKind::LpAgg => "lp-agg",
        }
    }
}

/// A certified lower bound on `Σ_j F_j^k` of the optimal speed-1 schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LowerBound {
    /// The bound value (on the k-th *power sum*, not the norm).
    pub value: f64,
    /// Which component bound was largest.
    pub kind: BoundKind,
    /// The LP relaxation value before halving (0 if LP was skipped).
    pub lp_raw: f64,
}

impl LowerBound {
    /// The implied lower bound on the ℓk *norm*: `value^{1/k}`.
    pub fn norm(&self, k: f64) -> f64 {
        self.value.powf(1.0 / k)
    }
}

/// Best available lower bound on `Σ_j F_j^k` for the optimal schedule on
/// `m` unit-speed machines.
///
/// The trace must be integral (integer arrivals and sizes) for the exact
/// LP component; call [`Trace::to_integral`] first otherwise — note the
/// rounded instance's bound certifies the rounded instance, so experiments
/// generate integral traces directly.
///
/// `k` must be a positive integer value (the paper's setting; the LP cost
/// uses exact integer powers).
pub fn lk_lower_bound(trace: &Trace, m: usize, k: u32) -> LowerBound {
    let mut obs_span = tf_obs::span!("lb", "lk_lower_bound");
    obs_span.arg("n", trace.len() as f64);
    obs_span.arg("m", m as f64);
    obs_span.arg("k", f64::from(k));
    let kf = f64::from(k);
    let size = size_bound(trace, kf);
    let mut best = LowerBound {
        value: size,
        kind: BoundKind::Size,
        lp_raw: 0.0,
    };

    if trace.is_integral(1e-9) && !trace.is_empty() {
        let lp = lp_relaxation_value(trace, m, k);
        best.lp_raw = lp.objective;
        let half = lp.objective / 2.0;
        if half > best.value {
            best.value = half;
            best.kind = BoundKind::Lp;
        }
    }

    if k == 1 {
        let srpt = srpt_super_machine_bound(trace, m);
        if srpt > best.value {
            best.value = srpt;
            best.kind = BoundKind::SrptSuperMachine;
        }
    }
    best
}

/// A lower bound plus the record of whether its LP component was
/// abandoned for budget reasons (see [`lk_lower_bound_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetedBound {
    /// The best bound obtained within the budget. Always a *valid*
    /// lower bound — degradation only weakens it, never corrupts it.
    pub bound: LowerBound,
    /// `true` if the LP solve was abandoned and the bound fell back to
    /// the closed-form components. Degraded bounds must not be cached
    /// as if they were the full bound.
    pub degraded: bool,
}

/// [`lk_lower_bound`] under a cooperative [`SolveBudget`]: if the LP
/// relaxation (the only super-linear component) exceeds the budget, the
/// solve is abandoned cleanly and the result degrades to the best
/// closed-form bound ([`size_bound`], and for `k = 1` the SRPT
/// super-machine bound) with `degraded = true`. The campaign layer in
/// `tf-harness` records that provenance in the output row instead of
/// failing the run.
pub fn lk_lower_bound_budgeted(
    trace: &Trace,
    m: usize,
    k: u32,
    budget: &SolveBudget,
) -> BudgetedBound {
    if budget.is_unlimited() {
        return BudgetedBound {
            bound: lk_lower_bound(trace, m, k),
            degraded: false,
        };
    }
    let mut obs_span = tf_obs::span!("lb", "lk_lower_bound");
    obs_span.arg("n", trace.len() as f64);
    obs_span.arg("m", m as f64);
    obs_span.arg("k", f64::from(k));
    let kf = f64::from(k);
    let size = size_bound(trace, kf);
    let mut best = LowerBound {
        value: size,
        kind: BoundKind::Size,
        lp_raw: 0.0,
    };
    let mut degraded = false;

    if trace.is_integral(1e-9) && !trace.is_empty() {
        match lp::lp_relaxation_value_budgeted(trace, m, k, budget) {
            Some(lp) => {
                best.lp_raw = lp.objective;
                let half = lp.objective / 2.0;
                if half > best.value {
                    best.value = half;
                    best.kind = BoundKind::Lp;
                }
            }
            None => {
                degraded = true;
                tf_obs::instant!("lb", "budget_degraded");
            }
        }
    }

    if k == 1 {
        let srpt = srpt_super_machine_bound(trace, m);
        if srpt > best.value {
            best.value = srpt;
            best.kind = BoundKind::SrptSuperMachine;
        }
    }
    BudgetedBound {
        bound: best,
        degraded,
    }
}

/// [`lk_lower_bound_budgeted`] with the LP component solved by delayed
/// column generation ([`LpSolver::value_colgen_budgeted`]) — the same
/// exact LP optimum (certified by full-column dual pricing), reached by
/// building only each job's active slots. This is the scale path: at
/// `n = 5000` the full network has tens of millions of arcs, the
/// column-generated one a few hundred thousand.
///
/// Takes and returns an [`LpWarmStart`] handle so sweep/hunt neighbours
/// chain their duals; pass `None` for a standalone solve. Returns `None`
/// iff `budget` tripped — the caller degrades to closed-form bounds
/// (and must not cache), exactly like [`lk_lower_bound_budgeted`].
pub fn lk_lower_bound_colgen_budgeted(
    trace: &Trace,
    m: usize,
    k: u32,
    budget: &SolveBudget,
    warm: Option<&LpWarmStart>,
) -> Option<(LowerBound, LpWarmStart, bool)> {
    let mut obs_span = tf_obs::span!("lb", "lk_lower_bound_colgen");
    obs_span.arg("n", trace.len() as f64);
    obs_span.arg("m", m as f64);
    obs_span.arg("k", f64::from(k));
    let kf = f64::from(k);
    let size = size_bound(trace, kf);
    let mut best = LowerBound {
        value: size,
        kind: BoundKind::Size,
        lp_raw: 0.0,
    };
    let mut handle = LpWarmStart::default();
    let mut accepted = false;

    if trace.is_integral(1e-9) && !trace.is_empty() {
        let (lp, h, acc) = lp::lp_relaxation_value_colgen_budgeted(trace, m, k, budget, warm)?;
        handle = h;
        accepted = acc;
        best.lp_raw = lp.objective;
        let half = lp.objective / 2.0;
        if half > best.value {
            best.value = half;
            best.kind = BoundKind::Lp;
        }
    }

    if k == 1 {
        let srpt = srpt_super_machine_bound(trace, m);
        if srpt > best.value {
            best.value = srpt;
            best.kind = BoundKind::SrptSuperMachine;
        }
    }
    Some((best, handle, accepted))
}

/// [`lk_lower_bound`] computed through the PR-1 reference LP solver
/// ([`lp_relaxation_value_reference`]). A test oracle: slower, but its
/// solve path is the one the optimized solver is property-tested
/// against, so disagreements localize to the solver rewrite.
pub fn lk_lower_bound_reference(trace: &Trace, m: usize, k: u32) -> LowerBound {
    let kf = f64::from(k);
    let size = size_bound(trace, kf);
    let mut best = LowerBound {
        value: size,
        kind: BoundKind::Size,
        lp_raw: 0.0,
    };

    if trace.is_integral(1e-9) && !trace.is_empty() {
        let lp = lp_relaxation_value_reference(trace, m, k, false);
        best.lp_raw = lp.objective;
        let half = lp.objective / 2.0;
        if half > best.value {
            best.value = half;
            best.kind = BoundKind::Lp;
        }
    }

    if k == 1 {
        let srpt = srpt_super_machine_bound(trace, m);
        if srpt > best.value {
            best.value = srpt;
            best.kind = BoundKind::SrptSuperMachine;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_policies::Policy;
    use tf_simcore::{simulate, MachineConfig, SimOptions};

    #[test]
    fn lower_bound_never_exceeds_any_policy() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0), (4.0, 1.0)]).unwrap();
        for m in [1usize, 2] {
            for k in [1u32, 2, 3] {
                let lb = lk_lower_bound(&t, m, k);
                for p in Policy::all() {
                    let mut alloc = p.make();
                    let s = simulate(
                        &t,
                        alloc.as_mut(),
                        MachineConfig::new(m),
                        SimOptions::default(),
                    )
                    .unwrap();
                    let obj = s.flow_power_sum(f64::from(k));
                    assert!(
                        lb.value <= obj * (1.0 + 1e-9) + 1e-9,
                        "m={m} k={k} {p}: LB {} > objective {obj}",
                        lb.value
                    );
                }
            }
        }
    }

    #[test]
    fn exact_for_single_job() {
        // One job (0, 3): OPT flow = 3. k=1: Σ F = 3.
        let t = Trace::from_pairs([(0.0, 3.0)]).unwrap();
        let lb = lk_lower_bound(&t, 1, 1);
        assert!((lb.value - 3.0).abs() < 1e-9, "{lb:?}");
        // Size bound and the SRPT super-machine bound tie at 3.0 here;
        // either may be reported.
        assert!(matches!(
            lb.kind,
            BoundKind::Size | BoundKind::SrptSuperMachine
        ));
    }

    #[test]
    fn l1_single_machine_bound_is_tight_srpt() {
        // SRPT is optimal on one machine for l1: the bound must equal it.
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0), (2.0, 2.0)]).unwrap();
        let mut srpt = Policy::Srpt.make();
        let opt = simulate(
            &t,
            srpt.as_mut(),
            MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap()
        .total_flow();
        let lb = lk_lower_bound(&t, 1, 1);
        assert!(
            (lb.value - opt).abs() < 1e-9,
            "LB {} vs OPT {opt}",
            lb.value
        );
    }

    #[test]
    fn norm_takes_kth_root() {
        let lb = LowerBound {
            value: 27.0,
            kind: BoundKind::Size,
            lp_raw: 0.0,
        };
        assert!((lb.norm(3.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_gives_zero() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        let lb = lk_lower_bound(&t, 1, 2);
        assert_eq!(lb.value, 0.0);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0), (4.0, 1.0)]).unwrap();
        for (m, k) in [(1usize, 1u32), (2, 2), (1, 3)] {
            let full = lk_lower_bound(&t, m, k);
            let b = lk_lower_bound_budgeted(&t, m, k, &SolveBudget::unlimited());
            assert!(!b.degraded);
            assert_eq!(b.bound, full);
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_closed_form_and_stays_valid() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0), (4.0, 1.0)]).unwrap();
        let spent = SolveBudget::with_timeout(std::time::Duration::ZERO);
        for (m, k) in [(1usize, 1u32), (2, 2)] {
            let b = lk_lower_bound_budgeted(&t, m, k, &spent);
            assert!(b.degraded, "zero budget must skip the LP (m={m} k={k})");
            assert_eq!(b.bound.lp_raw, 0.0);
            assert!(!matches!(b.bound.kind, BoundKind::Lp));
            // Degraded is weaker, never invalid: it lower-bounds the
            // full bound, which lower-bounds every feasible schedule.
            let full = lk_lower_bound(&t, m, k);
            assert!(b.bound.value <= full.value * (1.0 + 1e-12));
            assert!(b.bound.value > 0.0);
        }
    }

    #[test]
    fn cancel_flag_aborts_budgeted_solve() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (2.0, 3.0)]).unwrap();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let b = lk_lower_bound_budgeted(
            &t,
            1,
            2,
            &SolveBudget::with_timeout(std::time::Duration::from_secs(3600)).cancelled_by(flag),
        );
        assert!(b.degraded);
    }
}
