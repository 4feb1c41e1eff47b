//! Engine outputs pinned to a fixed hash.
//!
//! `stream_equiv.rs` checks that the streamed and materialised entry
//! points agree with each other. Both now run on the same event loop, so
//! that comparison alone can no longer catch a change that moves both of
//! them at once. This suite pins the absolute outputs instead: an FNV-1a
//! hash over the `to_bits` of every completion, flow, event count,
//! `SimStats` counter (except the wall-clock `alloc_ns`), coalesced
//! profile segment, and streamed `CompletedJob`, across the four golden
//! instance families × every registered policy × {default, profile}
//! options. The constant was generated from the two-loop engine that
//! preceded the shared loop; any drift in a single bit fails the test.
//!
//! Those families all have unit weights, so a second hash pins the same
//! outputs on weighted instances (skewed `{1, 2, 4}` weights, including a
//! trace whose alive set is equal-weight for a stretch and mixed later):
//! the paths of WRR, HDF and the other weight-aware policies that unit
//! weights never reach. Its constant was generated from the engine and
//! policies as they were before RR reported a single shared rate and
//! SRPT/SJF/HDF/HYB selected their `m` jobs instead of sorting.

use tf_policies::Policy;
use tf_simcore::{
    simulate, simulate_stream, MachineConfig, Schedule, SimOptions, SimStats, StreamOptions, Trace,
    TraceBuilder, TraceSource, ABS_EPS,
};
use tf_workload::{PoissonWorkload, SizeDist};

/// Hash of every pinned output, generated from the pre-refactor engine.
const PINNED: u64 = 0x3dfd_2cc8_8da0_2be8;

/// Hash of every pinned output on the weighted instances, generated from
/// the engine with per-job rates everywhere and sort-based selection.
const PINNED_WEIGHTED: u64 = 0x199c_855f_5a5e_4c86;

/// 64-bit FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn stats(&mut self, s: &SimStats) {
        for w in [
            s.arrival_steps,
            s.completion_steps,
            s.review_steps,
            s.adaptive_steps,
            s.jobs_admitted,
            s.peak_alive as u64,
            s.segments_recorded,
        ] {
            self.word(w);
        }
    }

    fn schedule(&mut self, s: &Schedule) {
        self.word(s.len() as u64);
        for (&c, &f) in s.completion.iter().zip(&s.flow) {
            self.f(c);
            self.f(f);
        }
        self.word(s.events);
        self.stats(&s.stats);
        match &s.profile {
            None => self.word(0),
            Some(p) => {
                self.word(1 + p.len() as u64);
                for seg in p.segments() {
                    self.f(seg.t0);
                    self.f(seg.t1);
                    self.word(seg.rates.len() as u64);
                    for &(id, r) in seg.rates {
                        self.word(u64::from(id));
                        self.f(r);
                    }
                }
            }
        }
    }
}

/// The closed golden instances of `stream_equiv.rs`.
fn golden_instances() -> Vec<(Trace, MachineConfig)> {
    vec![
        (
            PoissonWorkload::new(400, 0.8, 1, SizeDist::Exponential { mean: 1.0 }, 11).generate(),
            MachineConfig::new(1),
        ),
        (
            PoissonWorkload::new(
                250,
                1.3,
                2,
                SizeDist::Pareto {
                    alpha: 1.8,
                    min: 0.5,
                },
                12,
            )
            .generate(),
            MachineConfig::new(2),
        ),
        (
            Trace::from_pairs((0..300).map(|i| ((i / 10) as f64, 1.0 + (i % 4) as f64))).unwrap(),
            MachineConfig::new(1),
        ),
        (
            PoissonWorkload::new(200, 0.9, 1, SizeDist::Uniform { lo: 0.1, hi: 3.0 }, 13)
                .generate(),
            MachineConfig::with_speed(1, 1.5),
        ),
    ]
}

/// The materialised engine's default adaptive step, which a stream has to
/// be given explicitly.
fn default_max_step(trace: &Trace, cfg: &MachineConfig) -> f64 {
    let n = trace.len();
    let mean = if n > 0 {
        trace.total_size() / n as f64
    } else {
        1.0
    };
    (mean / cfg.speed / 64.0).max(ABS_EPS)
}

/// A skewed `{1, 2, 4}` weight for job `i`: mostly 1, some 2, few 4.
fn skewed_weight(i: usize) -> f64 {
    match i.wrapping_mul(2_654_435_761) % 7 {
        0..=3 => 1.0,
        4 | 5 => 2.0,
        _ => 4.0,
    }
}

/// `trace` with job `i` re-weighted to `weight(i)`.
fn reweighted(trace: &Trace, weight: impl Fn(usize) -> f64) -> Trace {
    let mut b = TraceBuilder::new();
    for (i, j) in trace.jobs().iter().enumerate() {
        b.push_weighted(j.arrival, j.size, weight(i));
    }
    b.build().unwrap()
}

/// Weighted instances: the unit families' shapes with skewed weights, plus
/// a batch trace whose first 120 jobs all weigh 2 (an equal-weight alive
/// set for a stretch) and whose later jobs mix 1, 2 and 4.
fn weighted_instances() -> Vec<(Trace, MachineConfig)> {
    let equal_then_mixed =
        Trace::from_pairs((0..240).map(|i| ((i / 4) as f64 * 1.5, 0.5 + (i % 5) as f64 * 0.5)))
            .unwrap();
    vec![
        (
            reweighted(
                &PoissonWorkload::new(300, 0.85, 1, SizeDist::Exponential { mean: 1.0 }, 21)
                    .generate(),
                skewed_weight,
            ),
            MachineConfig::new(1),
        ),
        (
            reweighted(
                &PoissonWorkload::new(
                    220,
                    1.2,
                    3,
                    SizeDist::Pareto {
                        alpha: 1.8,
                        min: 0.5,
                    },
                    22,
                )
                .generate(),
                skewed_weight,
            ),
            MachineConfig::with_speed(3, 1.5),
        ),
        (
            reweighted(&equal_then_mixed, |i| {
                if i < 120 {
                    2.0
                } else {
                    skewed_weight(i)
                }
            }),
            MachineConfig::new(2),
        ),
    ]
}

/// Hash every policy's outputs on `instances`: default and profile
/// options through `simulate`, plus the streamed run.
fn hash_runs(instances: Vec<(Trace, MachineConfig)>) -> u64 {
    let mut h = Fnv::new();
    for (trace, cfg) in instances {
        for policy in Policy::all() {
            for opts in [SimOptions::default(), SimOptions::with_profile()] {
                let s = simulate(&trace, policy.make().as_mut(), cfg, opts)
                    .unwrap_or_else(|e| panic!("{policy}: {e}"));
                h.schedule(&s);
            }

            let mut alloc = policy.make();
            let max_step = alloc.continuous().then(|| default_max_step(&trace, &cfg));
            let report = simulate_stream(
                &mut TraceSource::new(&trace),
                alloc.as_mut(),
                cfg,
                StreamOptions {
                    max_step,
                    ..StreamOptions::default()
                },
                &mut |c| {
                    h.word(u64::from(c.id));
                    for x in [c.arrival, c.size, c.weight, c.completion, c.flow] {
                        h.f(x);
                    }
                },
            )
            .unwrap_or_else(|e| panic!("{policy} (streamed): {e}"));
            h.word(report.completed);
            h.word(report.events);
            h.f(report.end_time);
            h.stats(&report.stats);
        }
    }
    h.0
}

#[test]
fn engine_outputs_match_the_pinned_hash() {
    let got = hash_runs(golden_instances());
    assert_eq!(
        got, PINNED,
        "engine outputs drifted from the pinned hash: got {got:#018x}"
    );
}

#[test]
fn weighted_engine_outputs_match_the_pinned_hash() {
    let got = hash_runs(weighted_instances());
    assert_eq!(
        got, PINNED_WEIGHTED,
        "weighted engine outputs drifted from the pinned hash: got {got:#018x}"
    );
}
