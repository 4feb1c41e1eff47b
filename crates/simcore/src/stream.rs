//! Streaming simulation: open workloads in bounded memory, and the one
//! event loop behind both engine entry points.
//!
//! [`crate::simulate`] materialises the whole instance up front — a
//! [`crate::Trace`] plus dense completion/flow vectors plus (optionally) a
//! full [`crate::Profile`]. That caps experiments at the memory of the
//! trace, far below the "millions of jobs" regime heavy-traffic questions
//! live in. This module provides the unbounded-`n` path:
//!
//! * [`JobSource`] — a pull-based generator of jobs in arrival order; the
//!   engine materialises at most **one** not-yet-arrived job at a time.
//! * [`simulate_stream`] — runs the event loop over a source and *retires*
//!   completed jobs: their completion is handed to a caller-supplied sink
//!   and their state is dropped. Memory is `O(peak alive set)`,
//!   independent of the number of jobs streamed.
//!
//! Both entry points run the same crate-private loop: `simulate` streams
//! its trace through [`TraceSource`] with a sink that fills the dense
//! completion and flow vectors, and records the full profile when asked.
//! A closed trace therefore replays **bit-identically** through either
//! entry point by construction.
//!
//! Flow-time statistics over the full stream are computed by feeding the
//! sink into the mergeable streaming accumulators of `tf-metrics`
//! (`StreamingFlowStats`, `StreamingNorm`), which never need the
//! completion vector either.

use crate::alloc::{check_rates, check_uniform_rate, AliveJob, MachineConfig, RateAllocator};
use crate::error::SimError;
use crate::job::JobId;
use crate::profile::Profile;
use crate::stats::SimStats;
use crate::trace::Trace;
use crate::{ABS_EPS, REL_EPS};
use std::time::Instant;

/// One job emitted by a [`JobSource`]: everything a [`crate::Job`] carries
/// except the id, which the streaming engine assigns densely in emission
/// order (so ids equal arrival ranks, exactly as in a [`Trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcedJob {
    /// Arrival time `r_j`; must be non-decreasing across the stream.
    pub arrival: f64,
    /// Size `p_j`; finite and positive.
    pub size: f64,
    /// Weight; finite and positive (1.0 in the unweighted setting).
    pub weight: f64,
}

impl SourcedJob {
    /// An unweighted job.
    pub fn new(arrival: f64, size: f64) -> Self {
        SourcedJob {
            arrival,
            size,
            weight: 1.0,
        }
    }
}

/// A pull-based source of jobs in non-decreasing arrival order.
///
/// The engine validates every emitted job (finite positive size/weight,
/// finite non-decreasing arrival) and fails the run with the same typed
/// [`SimError`]s the [`crate::TraceBuilder`] would raise, so a buggy
/// generator cannot silently poison a long stream.
pub trait JobSource {
    /// The next job, or `None` when the stream is exhausted. Arrivals
    /// must be non-decreasing.
    fn next_job(&mut self) -> Option<SourcedJob>;
}

/// Adapter presenting a materialised [`Trace`] as a [`JobSource`] — the
/// bridge the golden equivalence tests use to replay closed traces
/// through the streaming engine.
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> TraceSource<'a> {
    /// Stream `trace`'s jobs in id (= arrival) order.
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, next: 0 }
    }
}

impl JobSource for TraceSource<'_> {
    fn next_job(&mut self) -> Option<SourcedJob> {
        let j = self.trace.jobs().get(self.next)?;
        self.next += 1;
        Some(SourcedJob {
            arrival: j.arrival,
            size: j.size,
            weight: j.weight,
        })
    }
}

/// A retired job delivered to the completion sink of [`simulate_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedJob {
    /// Dense id in emission order (= arrival rank).
    pub id: JobId,
    /// Arrival time `r_j`.
    pub arrival: f64,
    /// Size `p_j`.
    pub size: f64,
    /// Weight.
    pub weight: f64,
    /// Completion time `C_j`.
    pub completion: f64,
    /// Flow time `F_j = C_j − r_j`.
    pub flow: f64,
}

/// Knobs for [`simulate_stream`]. Unlike [`crate::SimOptions`] there is no
/// profile switch — streaming keeps no execution profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Maximum step length for continuously-varying policies. **Required**
    /// for policies with [`RateAllocator::continuous`] `== true` (the
    /// materialised engine defaults this from the whole-trace mean size,
    /// which a stream cannot know); ignored otherwise unless set. When
    /// set it must be finite and positive.
    pub max_step: Option<f64>,
    /// Hard cap on engine events. `None` = unlimited (the stream's own
    /// bound is expected to terminate the run).
    pub max_events: Option<u64>,
}

/// Summary of one [`simulate_stream`] run. There is deliberately no
/// per-job data here — that went to the completion sink as the run
/// progressed.
#[derive(Debug)]
pub struct StreamReport {
    /// Name of the policy that ran.
    pub policy: String,
    /// Machine environment of the run.
    pub cfg: MachineConfig,
    /// Jobs admitted and completed (every admitted job completes when the
    /// run returns `Ok`).
    pub completed: u64,
    /// Engine events processed.
    pub events: u64,
    /// Simulation time when the last job completed (the stream makespan).
    pub end_time: f64,
    /// The usual engine counters ([`SimStats`]); `peak_alive` is the
    /// memory high-water mark of the run.
    pub stats: SimStats,
}

/// Simulate `policy` over the jobs pulled from `source`, delivering every
/// completed job to `on_complete` and retiring it.
///
/// This is the event loop of [`crate::simulate`] — the same admission
/// rule, step selection, arrival snapping, and completion threshold — so
/// a closed trace streamed through [`TraceSource`] reproduces the
/// materialised completions **bit for bit**. The difference is purely
/// about retention: per-job state lives only while the job is alive, and
/// no profile is kept.
///
/// # Errors
/// Those of [`crate::simulate`], plus [`SimError::MissingMaxStep`] for
/// continuous policies without an explicit step, and per-job validation
/// errors ([`SimError::BadJobSize`] / [`SimError::BadArrival`] /
/// [`SimError::BadWeight`]) if the source emits an invalid or
/// out-of-order job.
pub fn simulate_stream(
    source: &mut dyn JobSource,
    policy: &mut dyn RateAllocator,
    cfg: MachineConfig,
    opts: StreamOptions,
    on_complete: &mut dyn FnMut(CompletedJob),
) -> Result<StreamReport, SimError> {
    let mut obs_span = tf_obs::span!("sim", "stream");
    let report = run(
        source,
        policy,
        cfg,
        opts,
        tf_obs::enabled(),
        None,
        on_complete,
    )?;

    if tf_obs::enabled() {
        obs_span.arg("n", report.completed as f64);
        obs_span.arg("m", cfg.m as f64);
        obs_span.arg("speed", cfg.speed);
        obs_span.arg("events", report.events as f64);
        tf_obs::counter!("sim", "stream_events", report.events as f64);
        tf_obs::counter!("sim", "stream_completed", report.completed as f64);
        tf_obs::counter!("sim", "peak_alive", report.stats.peak_alive as f64);
    }
    Ok(report)
}

/// The event loop behind [`crate::simulate`] and [`simulate_stream`].
///
/// Between events every alive job runs at a constant rate, so time
/// advances analytically to the earliest next event: an arrival, a
/// completion, a policy review point, or (for continuous policies) the
/// adaptive step bound. Each finished job goes to `on_complete`; each
/// positive-length step is appended to `profile` when one is given.
/// `time_alloc` adds the policy's `allocate` wall time to
/// [`SimStats::alloc_ns`]. The loop opens no span: each entry point opens
/// its own, so engine time is never counted twice.
///
/// When the policy reports one shared rate
/// ([`RateAllocator::uniform_rate`]), a step skips `allocate` and the rate
/// vector and reads that one number wherever a per-job rate would be read:
/// the feasibility check, the earliest completion (`min remaining / r`,
/// equal to the per-job minimum because division by a positive rate is
/// monotone), the profile and the advance. Everything else is shared, and
/// the floating-point operations per job are the same, so both paths give
/// the same schedule to the bit.
pub(crate) fn run(
    source: &mut dyn JobSource,
    policy: &mut dyn RateAllocator,
    cfg: MachineConfig,
    opts: StreamOptions,
    time_alloc: bool,
    mut profile: Option<&mut Profile>,
    on_complete: &mut dyn FnMut(CompletedJob),
) -> Result<StreamReport, SimError> {
    cfg.validate()?;
    if let Some(step) = opts.max_step {
        if !(step.is_finite() && step > 0.0) {
            return Err(SimError::BadMaxStep(step));
        }
    }
    policy.reset();

    let continuous = policy.continuous();
    if continuous && opts.max_step.is_none() {
        return Err(SimError::MissingMaxStep);
    }
    let max_step = opts.max_step.unwrap_or(f64::INFINITY);
    let event_budget = opts.max_events.unwrap_or(u64::MAX);

    let mut stats = SimStats::default();
    // The alive set doubles as the policy's view: arrivals append, steps
    // update `remaining`/`attained` in place, and completions compact it
    // with a single order-preserving `retain` pass.
    let mut alive: Vec<AliveJob> = Vec::new();
    let mut next_id: u64 = 0;
    let mut last_arrival = 0.0_f64;
    let mut completed: u64 = 0;
    let mut time = 0.0_f64;
    let mut events: u64 = 0;
    let mut zero_steps_in_a_row = 0u32;

    // The single look-ahead job: pulled, validated, not yet arrived.
    let mut pending = pull(source, &mut next_id, &mut last_arrival)?;

    // Reusable scratch, sized once per high-water mark.
    let mut rates: Vec<f64> = Vec::new();

    loop {
        // Admit all jobs that have arrived by `time`.
        while pending.as_ref().is_some_and(|p| p.arrival <= time) {
            alive.push(pending.take().expect("checked above"));
            pending = pull(source, &mut next_id, &mut last_arrival)?;
            events += 1;
            stats.jobs_admitted += 1;
        }
        if alive.len() > stats.peak_alive {
            stats.peak_alive = alive.len(); // alive only grows on admission
        }

        if alive.is_empty() {
            match &pending {
                None => break, // source exhausted, all work done
                Some(p) => {
                    time = p.arrival;
                    continue;
                }
            }
        }

        if events > event_budget {
            return Err(SimError::EventBudgetExhausted { events });
        }

        let alloc_started = time_alloc.then(Instant::now);
        let uniform = policy.uniform_rate(alive.len(), &cfg);
        if uniform.is_none() {
            rates.clear();
            rates.resize(alive.len(), 0.0);
            policy.allocate(time, &alive, &cfg, &mut rates);
        }
        if let Some(t0) = alloc_started {
            stats.alloc_ns += t0.elapsed().as_nanos() as u64;
        }
        // Clamp tolerated overshoot so downstream stays exactly feasible.
        let uniform = match uniform {
            Some(r) => {
                check_uniform_rate(&alive, &cfg, r, REL_EPS)?;
                Some(r.clamp(0.0, cfg.job_cap()))
            }
            None => {
                check_rates(&alive, &cfg, &rates, REL_EPS)?;
                for r in rates.iter_mut() {
                    *r = r.clamp(0.0, cfg.job_cap());
                }
                None
            }
        };

        // Earliest next event.
        let mut dt = f64::INFINITY;
        let mut reason = StepReason::AdaptiveStep;
        if let Some(p) = &pending {
            let d = p.arrival - time;
            if d < dt {
                dt = d;
                reason = StepReason::Arrival(p.arrival);
            }
        }
        let mut completes_in = |d: f64| {
            if d < dt {
                dt = d;
                reason = StepReason::Completion;
            }
        };
        match uniform {
            Some(r) if r > ABS_EPS => {
                let least = alive.iter().fold(f64::INFINITY, |m, a| m.min(a.remaining));
                completes_in(least / r);
            }
            Some(_) => {}
            None => {
                for (a, &r) in alive.iter().zip(&rates) {
                    if r > ABS_EPS {
                        completes_in(a.remaining / r);
                    }
                }
            }
        }
        if let Some(rev) = policy.review_in(time, &alive, &cfg) {
            // A review in the past or at `now` would spin; insist on a
            // minimal positive advance.
            let rev = rev.max(ABS_EPS);
            if rev < dt {
                dt = rev;
                reason = StepReason::Review;
            }
        }
        if continuous && max_step < dt {
            dt = max_step;
            reason = StepReason::AdaptiveStep;
        }

        if !dt.is_finite() {
            // Work remains, nothing is running, and no arrival will change
            // that: the policy has stalled the system.
            return Err(SimError::Stalled {
                time,
                alive: alive.len(),
            });
        }

        if dt <= 0.0 {
            zero_steps_in_a_row += 1;
            if zero_steps_in_a_row > 2 {
                return Err(SimError::Stalled {
                    time,
                    alive: alive.len(),
                });
            }
        } else {
            zero_steps_in_a_row = 0;
        }

        // Advance: record the segment (arena append, no per-segment
        // allocation), deliver work, and detect completions in one pass.
        if dt > 0.0 {
            if let Some(p) = profile.as_deref_mut() {
                match uniform {
                    Some(r) => p.push(time, time + dt, alive.iter().map(|a| (a.id, r))),
                    None => p.push(
                        time,
                        time + dt,
                        alive.iter().zip(&rates).map(|(a, &r)| (a.id, r)),
                    ),
                }
                stats.segments_recorded += 1;
            }
        }
        let mut any_done = false;
        match uniform {
            Some(r) => {
                let w = r * dt;
                for a in alive.iter_mut() {
                    any_done |= advance(a, w);
                }
            }
            None => {
                for (a, &r) in alive.iter_mut().zip(&rates) {
                    any_done |= advance(a, r * dt);
                }
            }
        }
        let step_end = time + dt;
        time = match reason {
            StepReason::Arrival(at) => at, // snap exactly onto the arrival
            _ => step_end,
        };
        if let Some(p) = profile.as_deref_mut() {
            // Snapping moves `time` off `t0 + dt` by at most one rounding
            // step of the arrival instant (dt was computed as `at − t0`):
            // stretching the last segment to cover it is floating-point
            // noise, never unaccounted work.
            debug_assert!(
                time - step_end <= ABS_EPS + REL_EPS * time.abs(),
                "arrival snap stretched the profile by {} at t={time}",
                time - step_end
            );
            p.stretch_last_end(time); // keep profile contiguous after snapping
        }
        events += 1;
        match reason {
            StepReason::Arrival(_) => stats.arrival_steps += 1,
            StepReason::Completion => stats.completion_steps += 1,
            StepReason::Review => stats.review_steps += 1,
            StepReason::AdaptiveStep => stats.adaptive_steps += 1,
        }

        // Retire jobs whose remaining work has (numerically) vanished:
        // one order-preserving compaction, however many finish at once.
        if any_done {
            alive.retain(|a| {
                if a.remaining <= a.size * REL_EPS + ABS_EPS {
                    on_complete(CompletedJob {
                        id: a.id,
                        arrival: a.arrival,
                        size: a.size,
                        weight: a.weight,
                        completion: time,
                        flow: time - a.arrival,
                    });
                    completed += 1;
                    false
                } else {
                    true
                }
            });
        }
    }

    Ok(StreamReport {
        policy: policy.name().to_string(),
        cfg,
        completed,
        events,
        end_time: time,
        stats,
    })
}

/// Deliver `w` units of work to `a`; true if it has (numerically) finished.
#[inline]
fn advance(a: &mut AliveJob, w: f64) -> bool {
    a.attained += w;
    a.remaining -= w;
    a.remaining <= a.size * REL_EPS + ABS_EPS
}

/// Pull and validate the next job from the source, assigning the next
/// dense id. `last_arrival` enforces stream monotonicity.
fn pull(
    source: &mut dyn JobSource,
    next_id: &mut u64,
    last_arrival: &mut f64,
) -> Result<Option<AliveJob>, SimError> {
    let Some(j) = source.next_job() else {
        return Ok(None);
    };
    if *next_id > JobId::MAX as u64 {
        return Err(SimError::JobLimitExceeded {
            limit: JobId::MAX as u64,
        });
    }
    let id = *next_id as JobId;
    if !j.size.is_finite() || j.size <= 0.0 {
        return Err(SimError::BadJobSize {
            job: id,
            size: j.size,
        });
    }
    if !j.arrival.is_finite() || j.arrival < 0.0 || j.arrival < *last_arrival {
        return Err(SimError::BadArrival {
            job: id,
            arrival: j.arrival,
        });
    }
    if !j.weight.is_finite() || j.weight <= 0.0 {
        return Err(SimError::BadWeight {
            job: id,
            weight: j.weight,
        });
    }
    *next_id += 1;
    *last_arrival = j.arrival;
    Ok(Some(AliveJob {
        id,
        arrival: j.arrival,
        size: j.size,
        weight: j.weight,
        remaining: j.size,
        attained: 0.0,
        seq: id,
    }))
}

/// Why the engine chose a particular step length; used to snap time exactly
/// onto arrival instants and to attribute events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StepReason {
    Arrival(f64),
    Completion,
    Review,
    AdaptiveStep,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimOptions};

    /// Inline RR so these tests do not depend on the policies crate.
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

    fn trace(pairs: &[(f64, f64)]) -> Trace {
        Trace::from_pairs(pairs.iter().copied()).unwrap()
    }

    fn stream_completions(t: &Trace, opts: StreamOptions) -> (Vec<f64>, StreamReport) {
        let mut got: Vec<(JobId, f64)> = Vec::new();
        let mut src = TraceSource::new(t);
        let report = simulate_stream(&mut src, &mut Rr, MachineConfig::new(1), opts, &mut |c| {
            got.push((c.id, c.completion))
        })
        .unwrap();
        let mut completion = vec![f64::NAN; t.len()];
        for (id, c) in got {
            completion[id as usize] = c;
        }
        (completion, report)
    }

    #[test]
    fn matches_materialised_engine_bitwise() {
        let t = trace(&[
            (0.0, 3.0),
            (0.5, 1.0),
            (0.5, 2.0),
            (2.0, 0.25),
            (7.0, 5.0),
            (7.0, 1.0),
        ]);
        let direct = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        let (streamed, report) = stream_completions(&t, StreamOptions::default());
        for (a, b) in direct.completion.iter().zip(&streamed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(report.completed, t.len() as u64);
        assert_eq!(report.events, direct.events);
        assert_eq!(report.stats, direct.stats);
    }

    #[test]
    fn empty_stream_is_fine() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        let (c, report) = stream_completions(&t, StreamOptions::default());
        assert!(c.is_empty());
        assert_eq!(report.completed, 0);
        assert_eq!(report.end_time, 0.0);
    }

    #[test]
    fn rejects_non_monotone_arrivals() {
        struct Backwards(u32);
        impl JobSource for Backwards {
            fn next_job(&mut self) -> Option<SourcedJob> {
                self.0 += 1;
                match self.0 {
                    1 => Some(SourcedJob::new(5.0, 1.0)),
                    2 => Some(SourcedJob::new(1.0, 1.0)),
                    _ => None,
                }
            }
        }
        let e = simulate_stream(
            &mut Backwards(0),
            &mut Rr,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |_| {},
        );
        assert!(matches!(e, Err(SimError::BadArrival { job: 1, .. })));
    }

    #[test]
    fn rejects_invalid_sourced_jobs() {
        struct Bad;
        impl JobSource for Bad {
            fn next_job(&mut self) -> Option<SourcedJob> {
                Some(SourcedJob::new(0.0, f64::NAN))
            }
        }
        let e = simulate_stream(
            &mut Bad,
            &mut Rr,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |_| {},
        );
        assert!(matches!(e, Err(SimError::BadJobSize { .. })));
    }

    #[test]
    fn continuous_policy_without_max_step_is_rejected() {
        struct Cont;
        impl RateAllocator for Cont {
            fn name(&self) -> &'static str {
                "cont"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], cfg: &MachineConfig, r: &mut [f64]) {
                r[0] = cfg.speed;
            }
            fn continuous(&self) -> bool {
                true
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let e = simulate_stream(
            &mut TraceSource::new(&t),
            &mut Cont,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |_| {},
        );
        assert!(matches!(e, Err(SimError::MissingMaxStep)));
    }

    #[test]
    fn event_budget_guard() {
        let t = trace(&[(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let opts = StreamOptions {
            max_events: Some(1),
            ..Default::default()
        };
        let mut src = TraceSource::new(&t);
        let e = simulate_stream(&mut src, &mut Rr, MachineConfig::new(1), opts, &mut |_| {});
        assert!(matches!(e, Err(SimError::EventBudgetExhausted { .. })));
    }

    #[test]
    fn flow_and_sink_order() {
        // Completions arrive in completion-time order with exact flows.
        let t = trace(&[(0.0, 1.0), (10.0, 1.0)]);
        let mut got = Vec::new();
        simulate_stream(
            &mut TraceSource::new(&t),
            &mut Rr,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |c| got.push(c),
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert!((got[0].completion - 1.0).abs() < 1e-12);
        assert!((got[0].flow - 1.0).abs() < 1e-12);
        assert!((got[1].completion - 11.0).abs() < 1e-12);
        assert!((got[1].flow - 1.0).abs() < 1e-12);
    }
}
