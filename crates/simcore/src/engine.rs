//! The exact event-driven simulation engine over a materialised trace.
//!
//! Between *events* — job arrivals, job completions, policy review points,
//! and (for continuously-varying policies) adaptive step boundaries — every
//! alive job is processed at a constant rate, so the engine advances time
//! analytically to the earliest next event. For piecewise-constant policies
//! (RR, SRPT, SJF, FCFS, LAPS) the produced schedule is exact up to
//! floating-point rounding; there is no time-quantization error.
//!
//! The event loop itself lives in [`crate::stream`] and is shared with
//! [`crate::simulate_stream`]. What a whole trace adds is what a stream
//! cannot know: a default adaptive step from the mean job size, an event
//! budget from the instance size, dense per-job results, and the full
//! [`Profile`].

use crate::alloc::{MachineConfig, RateAllocator};
use crate::error::SimError;
use crate::profile::Profile;
use crate::schedule::Schedule;
use crate::stream::{self, StreamOptions, TraceSource};
use crate::trace::Trace;
use crate::ABS_EPS;

/// Engine knobs. `SimOptions::default()` is right for almost all uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Record the full piecewise-constant [`Profile`] (needed by the
    /// dual-fitting analysis and the validators; costs memory ∝ events·n).
    pub record_profile: bool,
    /// Maximum step length for policies with continuously-varying rates.
    /// `None` picks `mean_size / (64·speed)` automatically. When set it
    /// must be finite and positive ([`SimError::BadMaxStep`] otherwise).
    pub max_step: Option<f64>,
    /// Hard cap on engine events as runaway protection. `None` picks a
    /// generous bound from the instance size.
    pub max_events: Option<u64>,
    /// Measure wall-clock time spent in the policy's `allocate` into
    /// [`crate::SimStats::alloc_ns`]. Off by default: the two clock reads
    /// per event cost more than a whole event on small alive sets, so only
    /// diagnostic paths (harness tables, certificates) opt in.
    pub time_alloc: bool,
}

impl SimOptions {
    /// Options with profile recording enabled.
    pub fn with_profile() -> Self {
        SimOptions {
            record_profile: true,
            ..Default::default()
        }
    }

    /// Enable allocator wall-clock timing (see [`SimOptions::time_alloc`]).
    pub fn timed(mut self) -> Self {
        self.time_alloc = true;
        self
    }
}

/// Simulate `policy` on `trace` under `cfg`.
///
/// # Errors
/// Propagates validation failures ([`MachineConfig::validate`],
/// [`SimError::BadMaxStep`]), infeasible allocations from the policy,
/// stalls (positive remaining work but no progress possible), and
/// event-budget exhaustion.
pub fn simulate(
    trace: &Trace,
    policy: &mut dyn RateAllocator,
    cfg: MachineConfig,
    opts: SimOptions,
) -> Result<Schedule, SimError> {
    let mut obs_span = tf_obs::span!("sim", "simulate");
    let n = trace.len();

    let continuous = policy.continuous();
    let max_step = match opts.max_step {
        None if continuous => {
            let mean = if n > 0 {
                trace.total_size() / n as f64
            } else {
                1.0
            };
            Some((mean / cfg.speed / 64.0).max(ABS_EPS))
        }
        step => step,
    };
    let max_events = opts.max_events.unwrap_or_else(|| {
        let n64 = n as u64;
        let base = 4096 + 64 * n64 * n64.max(1);
        match max_step {
            Some(step) if continuous => {
                let steps = (trace.makespan_upper_bound(cfg.speed) / step).ceil();
                base + 8 * steps.min(1e15) as u64
            }
            _ => base,
        }
    });

    let mut completion = vec![f64::NAN; n];
    let mut flow = vec![f64::NAN; n];
    let mut profile = opts.record_profile.then(|| Profile::new(cfg.m, cfg.speed));
    let report = stream::run(
        &mut TraceSource::new(trace),
        policy,
        cfg,
        StreamOptions {
            max_step,
            max_events: Some(max_events),
        },
        // Tracing subsumes the opt-in allocator timing: with a sink
        // installed the run is diagnostic anyway, so fold the clock in.
        opts.time_alloc || tf_obs::enabled(),
        profile.as_mut(),
        // Job ids equal trace indices.
        &mut |job| {
            completion[job.id as usize] = job.completion;
            flow[job.id as usize] = job.flow;
        },
    )?;

    if let Some(p) = profile.as_mut() {
        let _coalesce_span = tf_obs::span!("sim", "coalesce");
        p.coalesce(ABS_EPS);
    }

    let stats = report.stats;
    if tf_obs::enabled() {
        obs_span.arg("n", n as f64);
        obs_span.arg("m", cfg.m as f64);
        obs_span.arg("speed", cfg.speed);
        obs_span.arg("events", report.events as f64);
        tf_obs::counter!("sim", "events", report.events as f64);
        tf_obs::counter!("sim", "steps", stats.steps() as f64);
        tf_obs::counter!("sim", "peak_alive", stats.peak_alive as f64);
        tf_obs::counter!("sim", "alloc_ns", stats.alloc_ns as f64);
        if stats.segments_recorded > 0 {
            tf_obs::counter!("sim", "segments_recorded", stats.segments_recorded as f64);
        }
    }

    Ok(Schedule {
        policy: report.policy,
        cfg,
        completion,
        flow,
        profile,
        events: report.events,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AliveJob;

    /// Round Robin defined inline so engine tests do not depend on the
    /// policies crate (which depends on us).
    struct Rr;
    impl RateAllocator for Rr {
        fn name(&self) -> &'static str {
            "RR"
        }
        fn allocate(
            &mut self,
            _now: f64,
            alive: &[AliveJob],
            cfg: &MachineConfig,
            rates: &mut [f64],
        ) {
            let share = cfg.speed * (cfg.m as f64 / alive.len() as f64).min(1.0);
            rates.fill(share);
        }
    }

    /// Run-one-job-at-a-time in arrival order (FCFS), also inline.
    struct Fcfs;
    impl RateAllocator for Fcfs {
        fn name(&self) -> &'static str {
            "FCFS"
        }
        fn allocate(
            &mut self,
            _now: f64,
            _alive: &[AliveJob],
            cfg: &MachineConfig,
            rates: &mut [f64],
        ) {
            for r in rates.iter_mut().take(cfg.m) {
                *r = cfg.speed;
            }
        }
    }

    fn trace(pairs: &[(f64, f64)]) -> Trace {
        Trace::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn single_job_single_machine() {
        let t = trace(&[(2.0, 3.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 5.0).abs() < 1e-12);
        assert!((s.flow[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn speed_augmentation_scales_processing() {
        let t = trace(&[(0.0, 3.0)]);
        let s = simulate(
            &t,
            &mut Rr,
            MachineConfig::with_speed(1, 3.0),
            SimOptions::default(),
        )
        .unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rr_two_equal_jobs_share_machine() {
        // Two unit jobs at t=0 on one machine under RR: both complete at 2.
        let t = trace(&[(0.0, 1.0), (0.0, 1.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 2.0).abs() < 1e-12);
        assert!((s.completion[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rr_known_closed_form() {
        // Jobs (r=0, p=1) and (r=0, p=2) under RR on 1 machine:
        // both run at 1/2 until job0 finishes at t=2; job1 then has 1 left,
        // finishing at t=3.
        let t = trace(&[(0.0, 1.0), (0.0, 2.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 2.0).abs() < 1e-12);
        assert!((s.completion[1] - 3.0).abs() < 1e-12);
        assert!((s.total_flow() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rr_mid_run_arrival() {
        // Job0 (r=0, p=2), job1 (r=1, p=1) on 1 machine.
        // t∈[0,1): job0 alone at rate 1 → remaining 1 at t=1.
        // t≥1: both at 1/2. Job1 needs 2 time → but job0 finishes first:
        // both have remaining 1 at t=1 → both complete at t=3.
        let t = trace(&[(0.0, 2.0), (1.0, 1.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 3.0).abs() < 1e-12);
        assert!((s.completion[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rr_multiple_machines_dedicated_when_underloaded() {
        // 2 machines, 2 jobs: each gets a full machine (min(1, m/n) = 1).
        let t = trace(&[(0.0, 4.0), (0.0, 4.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(2), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 4.0).abs() < 1e-12);
        assert!((s.completion[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rr_multiple_machines_overloaded_split() {
        // 2 machines, 4 unit jobs: each runs at 2/4 = 1/2 → all done at 2.
        let t = trace(&[(0.0, 1.0); 4]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(2), SimOptions::default()).unwrap();
        for j in 0..4 {
            assert!((s.completion[j] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let t = trace(&[(0.0, 2.0), (0.5, 1.0)]);
        let s = simulate(&t, &mut Fcfs, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 2.0).abs() < 1e-12);
        assert!((s.completion[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_between_jobs() {
        let t = trace(&[(0.0, 1.0), (10.0, 1.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-12);
        assert!((s.completion[1] - 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn profile_records_exact_segments() {
        let t = trace(&[(0.0, 1.0), (0.0, 2.0)]);
        let s = simulate(
            &t,
            &mut Rr,
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let p = s.profile.as_ref().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.segment(0).rates, [(0, 0.5), (1, 0.5)]);
        assert_eq!(p.segment(1).rates, [(1, 1.0)]);
        assert!((p.total_work() - 3.0).abs() < 1e-9);
        assert!((p.work_of(0) - 1.0).abs() < 1e-9);
        assert!((p.work_of(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stalling_policy_is_detected() {
        struct Lazy;
        impl RateAllocator for Lazy {
            fn name(&self) -> &'static str {
                "lazy"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], _: &MachineConfig, rates: &mut [f64]) {
                rates.fill(0.0);
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let e = simulate(&t, &mut Lazy, MachineConfig::new(1), SimOptions::default());
        assert!(matches!(e, Err(SimError::Stalled { .. })));
    }

    #[test]
    fn infeasible_policy_is_rejected() {
        struct Greedy;
        impl RateAllocator for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
                rates.fill(2.0 * cfg.speed);
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let e = simulate(
            &t,
            &mut Greedy,
            MachineConfig::new(1),
            SimOptions::default(),
        );
        assert!(matches!(e, Err(SimError::RateCapViolated { .. })));
    }

    #[test]
    fn review_hints_fire() {
        // A policy that serves only the oldest job but asks for review every
        // 0.25 time units; engine must not miss the hint (observable via
        // event count exceeding the 3 events of plain FCFS).
        struct Hinty;
        impl RateAllocator for Hinty {
            fn name(&self) -> &'static str {
                "hinty"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
                rates[0] = cfg.speed;
            }
            fn review_in(&self, _: f64, _: &[AliveJob], _: &MachineConfig) -> Option<f64> {
                Some(0.25)
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let s = simulate(&t, &mut Hinty, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-9);
        assert!(s.events >= 4);
    }

    #[test]
    fn simultaneous_arrivals_and_completions() {
        // Three identical jobs arriving together complete together.
        let t = trace(&[(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        for j in 0..3 {
            assert!((s.completion[j] - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn event_budget_guard() {
        let t = trace(&[(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let opts = SimOptions {
            max_events: Some(1),
            ..Default::default()
        };
        let e = simulate(&t, &mut Rr, MachineConfig::new(1), opts);
        assert!(matches!(e, Err(SimError::EventBudgetExhausted { .. })));
    }

    #[test]
    fn work_conservation_on_random_like_instance() {
        let t = trace(&[
            (0.0, 3.0),
            (0.5, 1.0),
            (0.5, 2.0),
            (2.0, 0.25),
            (7.0, 5.0),
            (7.0, 1.0),
        ]);
        let s = simulate(
            &t,
            &mut Rr,
            MachineConfig::with_speed(2, 1.5),
            SimOptions::with_profile(),
        )
        .unwrap();
        let p = s.profile.as_ref().unwrap();
        assert!((p.total_work() - t.total_size()).abs() < 1e-6);
        for j in t.jobs() {
            assert!((p.work_of(j.id) - j.size).abs() < 1e-6, "job {}", j.id);
            assert!(s.flow[j.id as usize] >= j.size / 1.5 - 1e-9);
        }
    }
}
