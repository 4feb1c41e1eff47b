//! The rate-allocation interface between policies and the engine.

use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// The machine environment: `m` identical machines, each of speed `speed`.
///
/// `speed > 1` models resource augmentation: an `s`-speed algorithm
/// processes jobs `s` times faster than the optimal scheduler it is
/// compared against (which runs at speed 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of identical machines, `m ≥ 1`.
    pub m: usize,
    /// Speed of every machine, `s > 0`.
    pub speed: f64,
}

impl MachineConfig {
    /// `m` machines of unit speed.
    pub fn new(m: usize) -> Self {
        MachineConfig { m, speed: 1.0 }
    }

    /// `m` machines of speed `speed`.
    pub fn with_speed(m: usize, speed: f64) -> Self {
        MachineConfig { m, speed }
    }

    /// Per-job rate cap: one machine of speed `s` (a job occupies at most
    /// one machine at a time — Section 2 of the paper).
    #[inline]
    pub fn job_cap(&self) -> f64 {
        self.speed
    }

    /// Aggregate rate cap `m·s`.
    #[inline]
    pub fn total_cap(&self) -> f64 {
        self.m as f64 * self.speed
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.m == 0 {
            return Err(SimError::NoMachines);
        }
        if !self.speed.is_finite() || self.speed <= 0.0 {
            return Err(SimError::BadSpeed(self.speed));
        }
        Ok(())
    }
}

/// Snapshot of an alive (released, uncompleted) job handed to allocators.
///
/// Non-clairvoyant policies (RR, SETF, FCFS, LAPS) must ignore
/// [`AliveJob::size`] and [`AliveJob::remaining`]; the engine exposes them
/// uniformly so clairvoyant baselines (SRPT, SJF) share the same interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliveJob {
    /// Trace id of the job.
    pub id: crate::JobId,
    /// Arrival time `r_j`.
    pub arrival: f64,
    /// Total size `p_j` (clairvoyant information).
    pub size: f64,
    /// Weight (1.0 in the unweighted setting).
    pub weight: f64,
    /// Remaining work `p_j −` attained (clairvoyant information).
    pub remaining: f64,
    /// Work received so far (elapsed service; observable on-line).
    pub attained: f64,
    /// Arrival rank among all jobs in the trace (0-based; earlier arrivals
    /// have smaller rank, ties by trace order). Observable on-line.
    pub seq: u32,
}

impl AliveJob {
    /// Age `t − r_j` of the job at time `t ≥ r_j`.
    #[inline]
    pub fn age_at(&self, t: f64) -> f64 {
        (t - self.arrival).max(0.0)
    }
}

/// A scheduling policy, expressed as an instantaneous rate allocator.
///
/// At any time the engine asks the policy to distribute processing rates
/// over the alive jobs subject to the feasibility constraints of Section 2
/// of the paper (scaled by the speed `s`):
///
/// * `0 ≤ rates[i] ≤ cfg.job_cap()` for every job, and
/// * `Σ_i rates[i] ≤ cfg.total_cap()`.
///
/// The engine assumes the allocation stays constant until the next *event*:
/// an arrival, a completion, or the policy-declared review point
/// ([`RateAllocator::review_in`]). Policies whose allocation varies
/// continuously between events (e.g. rates proportional to job age) must
/// return `true` from [`RateAllocator::continuous`]; the engine then bounds
/// step length and re-invokes `allocate` on a fine adaptive grid.
pub trait RateAllocator {
    /// Short stable name for tables and logs (e.g. `"RR"`, `"SRPT"`).
    fn name(&self) -> &'static str;

    /// Fill `rates[i]` with the processing rate for `alive[i]` at time
    /// `now`. `rates` arrives zeroed and has `alive.len()` entries; `alive`
    /// is sorted by `(arrival, seq)`.
    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]);

    /// The one rate every alive job gets, if the policy gives all of them
    /// the same rate whatever else they carry (RR's `s·min(1, m/n)`).
    ///
    /// Contract: when this returns `Some(r)` for `n_alive` jobs, `allocate`
    /// on any `n_alive` alive jobs under `cfg` would write exactly `r` (to
    /// the bit) into every slot. The engine then skips `allocate` and the
    /// rate vector and works from `r` alone, so the schedule is the same
    /// either way. `None` (the default) keeps the per-job path. A wrapper
    /// that delegates `allocate` to another allocator must forward this
    /// method too, or it silently drops the inner policy onto the per-job
    /// path.
    fn uniform_rate(&self, _n_alive: usize, _cfg: &MachineConfig) -> Option<f64> {
        None
    }

    /// If the allocation just returned may change at a known future time
    /// even without arrivals/completions (e.g. SETF's age-equalization
    /// points), return the duration until that time. `None` means the
    /// allocation is valid until the next external event.
    fn review_in(&self, _now: f64, _alive: &[AliveJob], _cfg: &MachineConfig) -> Option<f64> {
        None
    }

    /// True if rates vary continuously with time between events. The engine
    /// then integrates with bounded adaptive steps instead of trusting
    /// piecewise-constant extrapolation.
    fn continuous(&self) -> bool {
        false
    }

    /// Reset internal state before a fresh simulation run. Stateless
    /// policies need not override this.
    fn reset(&mut self) {}
}

/// Check an allocation against the feasibility constraints with relative
/// tolerance `rel_eps`; returns the first violation found.
pub fn check_rates(
    alive: &[AliveJob],
    cfg: &MachineConfig,
    rates: &[f64],
    rel_eps: f64,
) -> Result<(), SimError> {
    debug_assert_eq!(alive.len(), rates.len());
    let mut total = 0.0;
    for (a, &r) in alive.iter().zip(rates) {
        check_job_rate(a.id, r, cfg, rel_eps)?;
        total += r;
    }
    check_total_rate(total, cfg, rel_eps)
}

/// [`check_rates`] for an allocation that gives every alive job the same
/// `rate` (see [`RateAllocator::uniform_rate`]): the same checks, tolerance
/// and [`SimError`] variants, with the total taken as `rate · n`. A bad
/// rate is reported against the first alive job, as [`check_rates`] would.
pub(crate) fn check_uniform_rate(
    alive: &[AliveJob],
    cfg: &MachineConfig,
    rate: f64,
    rel_eps: f64,
) -> Result<(), SimError> {
    let Some(first) = alive.first() else {
        return Ok(());
    };
    check_job_rate(first.id, rate, cfg, rel_eps)?;
    check_total_rate(rate * alive.len() as f64, cfg, rel_eps)
}

/// One job's rate: finite, non-negative and at most one machine, each up
/// to the tolerance.
fn check_job_rate(
    job: crate::JobId,
    rate: f64,
    cfg: &MachineConfig,
    rel_eps: f64,
) -> Result<(), SimError> {
    let cap = cfg.job_cap();
    let tol = cap * rel_eps + crate::ABS_EPS;
    if !rate.is_finite() || rate < -tol {
        return Err(SimError::BadRate { job, rate });
    }
    if rate > cap + tol {
        return Err(SimError::RateCapViolated { job, rate, cap });
    }
    Ok(())
}

/// The summed rate: at most `m·s` up to the tolerance.
fn check_total_rate(total: f64, cfg: &MachineConfig, rel_eps: f64) -> Result<(), SimError> {
    let total_cap = cfg.total_cap();
    if total > total_cap * (1.0 + rel_eps) + crate::ABS_EPS {
        return Err(SimError::TotalRateViolated {
            total,
            cap: total_cap,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive(n: usize) -> Vec<AliveJob> {
        (0..n)
            .map(|i| AliveJob {
                id: i as u32,
                arrival: 0.0,
                size: 1.0,
                weight: 1.0,
                remaining: 1.0,
                attained: 0.0,
                seq: i as u32,
            })
            .collect()
    }

    #[test]
    fn config_caps() {
        let cfg = MachineConfig::with_speed(4, 2.5);
        assert_eq!(cfg.job_cap(), 2.5);
        assert_eq!(cfg.total_cap(), 10.0);
        assert!(cfg.validate().is_ok());
        assert!(MachineConfig::new(0).validate().is_err());
        assert!(MachineConfig::with_speed(1, 0.0).validate().is_err());
        assert!(MachineConfig::with_speed(1, f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn check_rates_accepts_feasible() {
        let cfg = MachineConfig::with_speed(2, 1.0);
        let a = alive(3);
        assert!(check_rates(&a, &cfg, &[1.0, 0.5, 0.5], 1e-9).is_ok());
        assert!(check_rates(&a, &cfg, &[0.0, 0.0, 0.0], 1e-9).is_ok());
    }

    #[test]
    fn check_rates_rejects_violations() {
        let cfg = MachineConfig::with_speed(2, 1.0);
        let a = alive(3);
        assert!(matches!(
            check_rates(&a, &cfg, &[1.5, 0.0, 0.0], 1e-9),
            Err(SimError::RateCapViolated { .. })
        ));
        assert!(matches!(
            check_rates(&a, &cfg, &[1.0, 1.0, 1.0], 1e-9),
            Err(SimError::TotalRateViolated { .. })
        ));
        assert!(matches!(
            check_rates(&a, &cfg, &[-0.5, 0.0, 0.0], 1e-9),
            Err(SimError::BadRate { .. })
        ));
        assert!(matches!(
            check_rates(&a, &cfg, &[f64::NAN, 0.0, 0.0], 1e-9),
            Err(SimError::BadRate { .. })
        ));
    }

    #[test]
    fn check_uniform_rate_agrees_with_check_rates() {
        let cfg = MachineConfig::with_speed(2, 1.0);
        let a = alive(3);
        let variant = |r: Result<(), SimError>| r.map_err(|e| std::mem::discriminant(&e));
        for rate in [0.0, 0.5, 2.0 / 3.0, 0.7, 1.5, -0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                variant(check_uniform_rate(&a, &cfg, rate, 1e-9)),
                variant(check_rates(&a, &cfg, &[rate; 3], 1e-9)),
                "rate {rate}"
            );
        }
        assert!(check_uniform_rate(&[], &cfg, f64::NAN, 1e-9).is_ok());
    }

    #[test]
    fn check_rates_tolerates_rounding() {
        let cfg = MachineConfig::with_speed(3, 1.0);
        let a = alive(3);
        // Sum is 3.0 + 3 ulps-ish of noise: fine.
        let r = [1.0 + 1e-12, 1.0, 1.0];
        assert!(check_rates(&a, &cfg, &r, 1e-9).is_ok());
    }
}
