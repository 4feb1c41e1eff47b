//! Delegating timers around the engine's two plug-in interfaces, used only
//! in the traced run. Each forwards every trait method unchanged, so a
//! traced schedule is the untraced one; the benchmark checks that by
//! comparing their checksums.

use std::time::Instant;

use tf_simcore::{AliveJob, JobSource, MachineConfig, RateAllocator, SourcedJob};

use crate::spans::ns_since;

/// A [`JobSource`] that times each `next_job` call.
pub struct TimedSource<'a> {
    inner: &'a mut dyn JobSource,
    pub calls: u64,
    pub ns: u64,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn JobSource) -> Self {
        TimedSource {
            inner,
            calls: 0,
            ns: 0,
        }
    }
}

impl JobSource for TimedSource<'_> {
    fn next_job(&mut self) -> Option<SourcedJob> {
        let t = Instant::now();
        let job = self.inner.next_job();
        self.ns += ns_since(t);
        self.calls += 1;
        job
    }
}

/// A [`RateAllocator`] that times each `allocate` call and sums the alive
/// set it was handed.
pub struct TimedAllocator<'a> {
    inner: &'a mut dyn RateAllocator,
    pub calls: u64,
    pub ns: u64,
    pub alive_sum: u64,
}

impl<'a> TimedAllocator<'a> {
    pub fn new(inner: &'a mut dyn RateAllocator) -> Self {
        TimedAllocator {
            inner,
            calls: 0,
            ns: 0,
            alive_sum: 0,
        }
    }
}

impl RateAllocator for TimedAllocator<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let t = Instant::now();
        self.inner.allocate(now, alive, cfg, rates);
        self.ns += ns_since(t);
        self.calls += 1;
        self.alive_sum += alive.len() as u64;
    }

    fn review_in(&self, now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Option<f64> {
        self.inner.review_in(now, alive, cfg)
    }

    fn continuous(&self) -> bool {
        self.inner.continuous()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_policies::Policy;
    use tf_simcore::{simulate_stream, StreamOptions, Trace, TraceSource};

    /// Every policy in the registry, wrapped, yields the same completions
    /// as unwrapped: the wrappers forward `name`, `continuous`,
    /// `review_in` and `reset` as well as `allocate`.
    #[test]
    fn wrapped_runs_match_plain_runs_for_every_policy() {
        let trace = Trace::from_pairs([
            (0.0, 3.0),
            (0.0, 1.0),
            (0.5, 2.0),
            (1.0, 0.25),
            (4.0, 5.0),
            (4.5, 1.5),
        ])
        .unwrap();
        for policy in Policy::all() {
            let run = |wrap: bool| {
                let mut alloc = policy.make();
                let opts = StreamOptions {
                    max_step: alloc.continuous().then_some(1.0 / 64.0),
                    ..StreamOptions::default()
                };
                let mut done = Vec::new();
                let mut plain = TraceSource::new(&trace);
                let mut timed_src = TimedSource::new(&mut plain);
                let mut timed_alloc;
                let (src, alloc): (&mut dyn JobSource, &mut dyn RateAllocator) = if wrap {
                    timed_alloc = TimedAllocator::new(alloc.as_mut());
                    (&mut timed_src, &mut timed_alloc)
                } else {
                    (timed_src.inner, alloc.as_mut())
                };
                let report = simulate_stream(src, alloc, MachineConfig::new(2), opts, &mut |j| {
                    done.push((j.id, j.completion.to_bits()))
                })
                .expect("valid trace");
                (report.policy, report.events, done)
            };
            assert_eq!(run(true), run(false), "{policy}");
        }
    }
}
