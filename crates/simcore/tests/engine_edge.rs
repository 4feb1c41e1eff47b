//! Engine edge cases: degenerate job sizes, exact event ties, abusive
//! review hints, event-budget accounting, and the arrival-snap profile
//! stretch, and invalid step bounds. These pin behaviours the unit tests
//! exercise only implicitly.

use tf_simcore::{
    simulate, simulate_stream, AliveJob, MachineConfig, RateAllocator, SimError, SimOptions,
    StreamOptions, Trace, TraceSource, ABS_EPS,
};

/// Processor sharing (ideal RR): the paper's policy, reimplemented locally
/// so these tests don't depend on the policies crate.
struct Rr;

impl RateAllocator for Rr {
    fn name(&self) -> &'static str {
        "RR"
    }
    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let share = (cfg.total_cap() / alive.len() as f64).min(cfg.job_cap());
        rates.fill(share);
    }
}

/// A policy that always asks to be reviewed "now" — the degenerate hint
/// the engine must clamp to a minimal positive advance.
struct ZeroReview;

impl RateAllocator for ZeroReview {
    fn name(&self) -> &'static str {
        "ZeroReview"
    }
    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let share = (cfg.total_cap() / alive.len() as f64).min(cfg.job_cap());
        rates.fill(share);
    }
    fn review_in(&self, _now: f64, _alive: &[AliveJob], _cfg: &MachineConfig) -> Option<f64> {
        Some(0.0)
    }
}

/// Like [`ZeroReview`] but only for the first call — afterwards it behaves
/// event-driven, so the run must succeed after one clamped micro-step.
struct ZeroReviewOnce {
    fired: std::cell::Cell<bool>,
}

impl RateAllocator for ZeroReviewOnce {
    fn name(&self) -> &'static str {
        "ZeroReviewOnce"
    }
    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let share = (cfg.total_cap() / alive.len() as f64).min(cfg.job_cap());
        rates.fill(share);
    }
    fn review_in(&self, _now: f64, _alive: &[AliveJob], _cfg: &MachineConfig) -> Option<f64> {
        if self.fired.replace(true) {
            None
        } else {
            Some(0.0)
        }
    }
    fn reset(&mut self) {
        self.fired.set(false);
    }
}

#[test]
fn zero_size_jobs_are_rejected_at_trace_construction() {
    assert!(matches!(
        Trace::from_pairs([(0.0, 0.0)]),
        Err(SimError::BadJobSize { .. })
    ));
    assert!(matches!(
        Trace::from_pairs([(0.0, 1.0), (1.0, -2.0)]),
        Err(SimError::BadJobSize { .. })
    ));
}

#[test]
fn tiny_jobs_complete_without_event_blowup() {
    // Sizes near ABS_EPS stress the completion threshold
    // `remaining ≤ size·REL_EPS + ABS_EPS`: each job must finish in O(1)
    // events, not spin the zero-step guard.
    let t = Trace::from_pairs([(0.0, 1e-9), (0.0, 1.0), (0.5, 1e-12)]).unwrap();
    let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
    assert!(s.completion.iter().all(|c| c.is_finite()));
    assert!(s.flow.iter().all(|&f| f >= 0.0));
    assert!(s.events < 64, "tiny jobs caused {} events", s.events);
}

#[test]
fn exact_completion_arrival_tie_is_one_step() {
    // Job 0 completes at t=2.0 exactly when job 1 arrives: the engine
    // takes the tied event in one step, admits the arrival at the snapped
    // instant, and never runs both jobs concurrently.
    let t = Trace::from_pairs([(0.0, 2.0), (2.0, 1.0)]).unwrap();
    let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
    assert_eq!(s.completion[0], 2.0);
    assert_eq!(s.completion[1], 3.0);
    assert_eq!(s.flow, vec![2.0, 1.0]);
    assert_eq!(s.stats.peak_alive, 1, "jobs overlapped on an exact tie");
}

#[test]
fn simultaneous_completions_resolve_in_one_compaction() {
    // Four identical jobs under RR all hit zero remaining at once.
    let t = Trace::from_pairs([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
    for c in &s.completion {
        assert!((c - 4.0).abs() < 1e-9, "{:?}", s.completion);
    }
    // 4 admissions + 1 shared completion step.
    assert_eq!(s.stats.jobs_admitted, 4);
    assert_eq!(s.stats.completion_steps, 1);
}

#[test]
fn zero_review_hint_is_clamped_not_spun() {
    // A policy demanding review "now" forever cannot make the engine hang:
    // each step is clamped to a positive advance and the event budget
    // eventually trips deterministically.
    let t = Trace::from_pairs([(0.0, 1.0)]).unwrap();
    let r = simulate(
        &t,
        &mut ZeroReview,
        MachineConfig::new(1),
        SimOptions {
            max_events: Some(500),
            ..Default::default()
        },
    );
    assert!(
        matches!(r, Err(SimError::EventBudgetExhausted { .. })),
        "{r:?}"
    );
}

#[test]
fn one_zero_review_hint_costs_one_micro_step() {
    let t = Trace::from_pairs([(0.0, 1.0)]).unwrap();
    let mut p = ZeroReviewOnce {
        fired: std::cell::Cell::new(false),
    };
    let s = simulate(&t, &mut p, MachineConfig::new(1), SimOptions::default()).unwrap();
    assert!((s.completion[0] - 1.0).abs() < 1e-9);
    assert_eq!(s.stats.review_steps, 1);
    assert_eq!(s.stats.completion_steps, 1);
}

#[test]
fn events_equal_admissions_plus_steps() {
    // `Schedule::events` must reconcile exactly with the SimStats
    // breakdown: every event is either an admission or a step.
    let t = Trace::from_pairs([(0.0, 2.0), (0.5, 1.0), (1.0, 3.0), (4.0, 0.5)]).unwrap();
    let s = simulate(&t, &mut Rr, MachineConfig::new(2), SimOptions::default()).unwrap();
    assert_eq!(s.events, s.stats.jobs_admitted + s.stats.steps());
    assert_eq!(s.stats.jobs_admitted, 4);
    assert_eq!(s.stats.peak_alive, 3);
    assert_eq!(s.stats.adaptive_steps, 0);
    assert_eq!(s.stats.review_steps, 0);
}

#[test]
fn event_budget_counts_admissions() {
    // A budget smaller than the job count trips during admission, not
    // after: the returned count must exceed the budget by at most the
    // admissions of the current batch plus the tripping step.
    let t = Trace::from_pairs([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let r = simulate(
        &t,
        &mut Rr,
        MachineConfig::new(1),
        SimOptions {
            max_events: Some(2),
            ..Default::default()
        },
    );
    match r {
        Err(SimError::EventBudgetExhausted { events }) => assert_eq!(events, 4),
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
}

/// Satellite (c): the arrival-snap path. Arrivals at instants that are
/// floating-point near-ties with completion times force `time = at`
/// snapping with a non-zero (but noise-sized) stretch of the last profile
/// segment. Total recorded work must still equal the trace's total size —
/// the stretch may only ever absorb rounding noise, not real work.
#[test]
fn arrival_snap_profile_accounts_all_work() {
    // 0.1 is not representable: accumulated completions drift by ulps
    // from the arrivals at k·0.1, creating adversarial near-ties.
    let mut jobs = Vec::new();
    for i in 0..50 {
        jobs.push((0.1 * i as f64, 0.1));
        if i % 3 == 0 {
            jobs.push((0.1 * i as f64 + 1e-13, 0.05));
        }
    }
    let t = Trace::from_pairs(jobs).unwrap();
    let s = simulate(
        &t,
        &mut Rr,
        MachineConfig::new(1),
        SimOptions::with_profile(),
    )
    .unwrap();
    let p = s.profile.as_ref().unwrap();
    let recorded = p.total_work();
    let expected = t.total_size();
    assert!(
        (recorded - expected).abs() <= 1e-9 * expected,
        "profile work {recorded} vs trace size {expected}"
    );
    // Contiguity survives the snapping (within noise).
    for (a, b) in p.segments().zip(p.segments().skip(1)) {
        assert!(b.t0 >= a.t1 - ABS_EPS, "gap: {} -> {}", a.t1, b.t0);
        assert!(b.t0 <= a.t1 + 1e-9, "overlap: {} -> {}", a.t1, b.t0);
    }
    assert!((p.end() - s.makespan()).abs() <= 1e-9);
}

/// RR declared continuous, so the engine integrates it with adaptive steps
/// bounded by `max_step`.
struct ContinuousRr;

impl RateAllocator for ContinuousRr {
    fn name(&self) -> &'static str {
        "ContinuousRR"
    }
    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let share = (cfg.total_cap() / alive.len() as f64).min(cfg.job_cap());
        rates.fill(share);
    }
    fn continuous(&self) -> bool {
        true
    }
}

/// Regression: an explicit `max_step` was never checked. NaN made every
/// `max_step < dt` comparison false, silently switching the adaptive step
/// off (a wrong schedule returned as `Ok`), and a negative step ran time
/// backwards into a `Stalled` error at t < 0. Both entry points now
/// reject a non-finite or non-positive step up front.
#[test]
fn bad_max_step_is_rejected_by_both_entry_points() {
    let t = Trace::from_pairs([(0.0, 2.0), (0.0, 1.0), (0.5, 3.0), (1.0, 1.0)]).unwrap();
    let cfg = MachineConfig::new(1);
    for step in [f64::NAN, -1.0, 0.0, f64::INFINITY, f64::NEG_INFINITY] {
        let policies: [&mut dyn RateAllocator; 2] = [&mut ContinuousRr, &mut Rr];
        for policy in policies {
            let opts = SimOptions {
                max_step: Some(step),
                ..SimOptions::default()
            };
            let e = simulate(&t, policy, cfg, opts).map(|s| s.events);
            assert!(
                matches!(e, Err(SimError::BadMaxStep(s)) if s.to_bits() == step.to_bits()),
                "simulate, max_step {step}: {e:?}"
            );

            let opts = StreamOptions {
                max_step: Some(step),
                ..StreamOptions::default()
            };
            let e = simulate_stream(&mut TraceSource::new(&t), policy, cfg, opts, &mut |_| {})
                .map(|r| r.events);
            assert!(
                matches!(e, Err(SimError::BadMaxStep(s)) if s.to_bits() == step.to_bits()),
                "simulate_stream, max_step {step}: {e:?}"
            );
        }
    }

    // A finite positive step still runs.
    let opts = SimOptions {
        max_step: Some(0.25),
        ..SimOptions::default()
    };
    let s = simulate(&t, &mut ContinuousRr, cfg, opts).unwrap();
    assert!(s.stats.adaptive_steps > 0);
}

/// A rate as a function of the machines and the alive count.
type RateRule = fn(&MachineConfig, usize) -> f64;

/// A rate rule over the alive count: the allocator gives every alive job
/// `rate(cfg, n)`, and reports that number through
/// [`RateAllocator::uniform_rate`] when `uniform` is set. The two variants
/// are twins: the same rates, down the shared-rate and the per-job path of
/// the engine respectively.
struct Shared {
    rate: RateRule,
    uniform: bool,
}

impl RateAllocator for Shared {
    fn name(&self) -> &'static str {
        "Shared"
    }
    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        rates.fill((self.rate)(cfg, alive.len()));
    }
    fn uniform_rate(&self, n_alive: usize, cfg: &MachineConfig) -> Option<f64> {
        self.uniform.then(|| (self.rate)(cfg, n_alive))
    }
}

/// The twins of `rate`: (shared-rate path, per-job path).
fn twins(rate: RateRule) -> [Shared; 2] {
    [true, false].map(|uniform| Shared { rate, uniform })
}

/// An infeasible shared rate fails with the same typed error down both
/// paths: NaN is a `BadRate`, more than one machine per job a
/// `RateCapViolated`, and `n·r > m·s` a `TotalRateViolated`.
#[test]
fn infeasible_uniform_rates_fail_like_their_per_job_twins() {
    let t = Trace::from_pairs([(0.0, 1.0), (0.0, 2.0), (0.5, 1.0)]).unwrap();
    let cfg = MachineConfig::with_speed(2, 1.5);
    let cases: [(RateRule, &str); 3] = [
        (|_, _| f64::NAN, "BadRate"),
        (|cfg, _| 2.0 * cfg.job_cap(), "RateCapViolated"),
        (|cfg, _| cfg.job_cap(), "TotalRateViolated"),
    ];
    for (rate, want) in cases {
        let errs = twins(rate).map(|mut p| {
            let e = simulate(&t, &mut p, cfg, SimOptions::default()).map(|s| s.events);
            let variant = match e {
                Err(SimError::BadRate { job, .. }) => ("BadRate", Some(job)),
                Err(SimError::RateCapViolated { job, .. }) => ("RateCapViolated", Some(job)),
                Err(SimError::TotalRateViolated { .. }) => ("TotalRateViolated", None),
                other => panic!("{want}: expected a rate error, got {other:?}"),
            };
            let streamed = simulate_stream(
                &mut TraceSource::new(&t),
                &mut p,
                cfg,
                StreamOptions::default(),
                &mut |_| {},
            );
            assert!(streamed.is_err(), "{want}: the streamed run succeeded");
            variant
        });
        assert_eq!(errs[0].0, want);
        assert_eq!(errs[0], errs[1], "{want}: the twins disagree");
    }
}

/// The shared-rate path records the per-job path's profile bit for bit
/// (segments, job ids and rates), with the same completions and counters,
/// on overloaded and underloaded stretches alike.
#[test]
fn uniform_rate_profile_matches_per_job_twin_bitwise() {
    let t = Trace::from_pairs([
        (0.0, 3.0),
        (0.0, 1.0),
        (0.3, 2.0),
        (0.3, 0.7),
        (1.1, 0.25),
        (4.0, 5.0),
        (9.0, 1.0),
    ])
    .unwrap();
    for cfg in [MachineConfig::new(1), MachineConfig::with_speed(2, 1.5)] {
        let [u, p] = twins(|cfg, n| cfg.speed * (cfg.m as f64 / n as f64).min(1.0))
            .map(|mut a| simulate(&t, &mut a, cfg, SimOptions::with_profile()).unwrap());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&u.completion), bits(&p.completion));
        assert_eq!(bits(&u.flow), bits(&p.flow));
        assert_eq!(u.events, p.events);
        assert_eq!(u.stats, p.stats);
        let segments = |s: &tf_simcore::Schedule| {
            s.profile
                .as_ref()
                .unwrap()
                .segments()
                .map(|seg| {
                    let rates: Vec<(u32, u64)> =
                        seg.rates.iter().map(|&(id, r)| (id, r.to_bits())).collect();
                    (seg.t0.to_bits(), seg.t1.to_bits(), rates)
                })
                .collect::<Vec<_>>()
        };
        let (su, sp) = (segments(&u), segments(&p));
        assert!(su.len() > 1);
        assert_eq!(su, sp);
    }
}
