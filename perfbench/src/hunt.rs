//! `hunt`: the adversary hunts of E19/E21 at their quick settings — RR on
//! one machine at speeds 1 and 1.5, HYB at its default threshold on one
//! machine, and ML on two machines — with the hunt's evaluation fan-out
//! as wide as the machine's cores.
//!
//! Each candidate evaluation solves exact slotted OPT, the measured hot
//! spot of the quick suite; only the m = 2 hunt exercises the ≤m-subset
//! enumeration. No LP or serve work runs here. The traced run adds a
//! replay of a seeded corpus of hunt-shaped instances through
//! `exact_slotted_opt` and `simulate`, timed call by call.
//!
//! The hunts run at the search seed E19 and E21 use, so they are the
//! quick suite's own hunts. A hunt's cost depends on where its climb
//! goes: over `--seed` values 1 to 6 the three m = 1 hunts took 3.0 to
//! 7.4 s and the m = 2 hunt 0.9 to 4.1 s, a spread no affordable run
//! length averages away. `--seed` seeds the traced replay corpus.
//!
//! The shared host runs the same code at speeds up to 1.6× apart, for
//! seconds to minutes at a time, even in CPU time. So a short gauge, exact
//! slotted OPT on a fixed corpus of hunt-shaped instances, is timed before
//! every hunt and set-up repetition and after the last, and each of those
//! times is scaled by the ratio of the run's fastest gauge time to the
//! gauge times around it. The gauge runs the hunt's hot spot, so a change
//! to the program moves it too and cancels in the ratio, while the hunt's
//! own time carries the change.

use std::time::Instant;

use tf_harness::hunt::{hunt, true_ratio, HuntConfig, HuntResult};
use tf_lowerbound::{exact_slotted_opt, ExactLimits};
use tf_policies::{Policy, DEFAULT_STARVATION_THRESHOLD};
use tf_simcore::{simulate, MachineConfig, SimOptions, Trace, TraceBuilder};

use crate::report::{cpu_ns, median, peak_rss_mb, splitmix64, Outcome, SETUP_REPS};
use crate::spans::{ns_since, SpanTree};
use crate::{pins, Args};

/// (policy, machines, speed) of each hunt, in run order. The first three
/// are the m = 1 half, the last the m = 2 half.
const HUNTS: [(Policy, usize, f64); 4] = [
    (Policy::Rr, 1, 1.0),
    (Policy::Rr, 1, 1.5),
    (Policy::Hybrid(DEFAULT_STARVATION_THRESHOLD), 1, 1.0),
    (Policy::MultiList, 2, 1.0),
];
/// The state budget `hunt` gives each exact solve.
const MAX_STATES: usize = 150_000;
/// Instances per machine count in the traced replay corpus.
const CORPUS: usize = 300;

/// The E19/E21 quick search settings.
fn config(m: usize, speed: f64, seed: u64) -> HuntConfig {
    HuntConfig {
        m,
        speed,
        k: 2,
        max_jobs: 6,
        max_size: 4,
        max_arrival: 8,
        steps: 100,
        restarts: 2,
        seed,
        ..HuntConfig::default()
    }
}

/// The search seed of the measured hunts: E19's and E21's.
fn hunt_seed() -> u64 {
    HuntConfig::default().seed
}

fn fingerprint(r: &HuntResult) -> String {
    let jobs: Vec<String> = r
        .trace
        .jobs()
        .iter()
        .map(|j| format!("{}:{}", j.arrival, j.size))
        .collect();
    format!("{:016x}/{}", r.ratio.to_bits(), jobs.join(","))
}

/// Checks that hold for any seed: the mined ratio is the certified ratio
/// of the mined instance, recomputed independently, and every generation
/// evaluated its full batch.
fn invariants(r: &HuntResult, cfg: &HuntConfig, policy: Policy) -> Result<(), String> {
    let recheck = true_ratio(&r.trace, policy, cfg);
    if recheck.map(f64::to_bits) != Some(r.ratio.to_bits()) {
        return Err(format!(
            "{policy} m={} speed={}: mined ratio {} but the instance certifies {recheck:?}",
            cfg.m, cfg.speed, r.ratio
        ));
    }
    let floor = cfg.restarts * (1 + cfg.steps * cfg.batch);
    if r.evaluated < floor {
        return Err(format!(
            "{policy}: {} evaluations, below {floor}",
            r.evaluated
        ));
    }
    Ok(())
}

/// Reference runs timed before each timed step (and once after the last).
const GAUGE_REPS: usize = 3;
/// Instances in the reference corpus.
const GAUGE_INSTANCES: usize = 16;
/// Seed of the reference corpus, the same for every `--seed`.
const GAUGE_SEED: u64 = 0x0047_4155_4745;

/// A fixed reference, the same for every `--seed`, that gauges the
/// machine's speed between hunts: exact slotted OPT, the hunt's hot spot,
/// on a small corpus of hunt-shaped instances, on one and two machines,
/// in the calling thread's CPU time.
struct Gauge {
    corpus: Vec<Trace>,
    ms: Vec<f64>,
}

impl Gauge {
    fn new() -> Self {
        let mut state = GAUGE_SEED;
        Gauge {
            corpus: (0..GAUGE_INSTANCES)
                .map(|_| corpus_instance(&mut state))
                .collect(),
            ms: Vec::new(),
        }
    }

    /// Run the reference once untimed, to warm the caches a hunt has just
    /// flushed, then time it [`GAUGE_REPS`] times. Returns the index of the
    /// first of these times, which names the step timed next.
    fn measure(&mut self) -> usize {
        let first = self.ms.len();
        self.solve();
        for _ in 0..GAUGE_REPS {
            let c0 = cpu_ns(true);
            self.solve();
            self.ms.push((cpu_ns(true) - c0) as f64 / 1e6);
        }
        first
    }

    fn solve(&self) {
        for (i, trace) in self.corpus.iter().enumerate() {
            let limits = ExactLimits {
                max_states: MAX_STATES,
            };
            std::hint::black_box(exact_slotted_opt(trace, 1 + i % 2, 2, limits));
        }
    }

    /// The run's fastest reference time.
    fn fastest(&self) -> f64 {
        self.ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The median reference time around the step that [`Gauge::measure`]
    /// named `first`: the runs just before it and just after it.
    fn around(&self, first: usize) -> f64 {
        median(&self.ms[first..first + 2 * GAUGE_REPS])
    }

    /// `ms`, measured around the step named `first`, scaled to the run's
    /// fastest machine speed.
    fn at_fastest(&self, ms: f64, first: usize) -> f64 {
        ms * self.fastest() / self.around(first)
    }
}

/// One block: the four hunts in order, each after a gauge run, with the
/// process CPU time it took (all its evaluation threads together) and the
/// gauge's name for it.
fn block(gauge: &mut Gauge) -> Vec<(HuntResult, u64, usize)> {
    HUNTS
        .iter()
        .map(|&(policy, m, speed)| {
            let g = gauge.measure();
            let c0 = cpu_ns(false);
            let r = hunt(policy, &config(m, speed, hunt_seed()));
            (r, cpu_ns(false) - c0, g)
        })
        .collect()
}

/// The pin line of the measured hunts (the same for every `--seed`).
pub fn pin_lines() -> Result<Vec<String>, String> {
    let fps: Vec<String> = block(&mut Gauge::new())
        .iter()
        .map(|(r, _, _)| fingerprint(r))
        .collect();
    Ok(vec![format!("hunt {} {}", hunt_seed(), fps.join(" "))])
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;

    // Set-up: the first ten generations of each measured hunt warm the
    // evaluation fan-out and the solver's allocations. Each repetition is
    // timed in wall time after a gauge run.
    let mut gauge = Gauge::new();
    let mut setup: Vec<(f64, usize)> = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let g = gauge.measure();
        let t = Instant::now();
        for &(policy, m, speed) in &HUNTS {
            let cfg = HuntConfig {
                steps: 10,
                restarts: 1,
                ..config(m, speed, hunt_seed())
            };
            std::hint::black_box(hunt(policy, &cfg));
        }
        setup.push((t.elapsed().as_secs_f64(), g));
    }

    let mut reference: Option<String> = None;
    // CPU time of every hunt in run order, with the gauge's name for it.
    let mut cpu_ms: Vec<(f64, usize)> = Vec::new();
    let mut evals: Option<usize> = None;
    let t0 = Instant::now();
    for i in 0.. {
        let runs = block(&mut gauge);
        let fps: Vec<String> = runs.iter().map(|(r, _, _)| fingerprint(r)).collect();
        let fp = fps.join(" ");
        let pinned = pins::pinned("hunt", hunt_seed()) == Some(fp.as_str());
        for (j, (r, _, _)) in runs.iter().enumerate() {
            let (policy, m, speed) = HUNTS[j];
            let why = invariants(r, &config(m, speed, hunt_seed()), policy)
                .err()
                .or_else(|| (!pinned).then(|| format!("outputs {fp} differ from the pin")))
                .or_else(|| match &reference {
                    Some(r) if *r != fp => Some(format!("block {i} gave {fp}, block 0 gave {r}")),
                    _ => None,
                });
            out.op(why.is_none(), || why.unwrap_or_default());
        }
        reference.get_or_insert(fp);
        cpu_ms.extend(runs.iter().map(|(_, ns, g)| (*ns as f64 / 1e6, *g)));
        let evaluated: usize = runs.iter().map(|(r, _, _)| r.evaluated).sum();
        let first = *evals.get_or_insert(evaluated);
        out.check(first == evaluated, || {
            format!("{evaluated} hunt evaluations, the first block had {first}")
        });
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // The gauge runs after the last hunt close the last window.
    gauge.measure();

    // Each hunt's CPU time at the run's fastest speed, and its mean over
    // the blocks; the set-up's median at that speed.
    let setup_s: Vec<f64> = setup.iter().map(|&(s, g)| gauge.at_fastest(s, g)).collect();
    out.set("setup_s", median(&setup_s));
    let blocks = (cpu_ms.len() / HUNTS.len()).max(1) as f64;
    let (mut mean, mut raw) = ([0.0f64; 4], [0.0f64; 4]);
    for (k, &(ms, g)) in cpu_ms.iter().enumerate() {
        mean[k % HUNTS.len()] += gauge.at_fastest(ms, g) / blocks;
        raw[k % HUNTS.len()] += ms / blocks;
    }
    eprintln!(
        "perfbench: gauge fastest {:.3} ms, median {:.3} ms; \
         raw mean m=1 {:.1} ms, m=2 {:.1} ms",
        gauge.fastest(),
        median(&gauge.ms),
        raw[..3].iter().sum::<f64>(),
        raw[3]
    );
    let m1: f64 = mean[..3].iter().sum();
    out.set("part1_ms", m1);
    out.set("part2_ms", mean[3]);
    out.set(
        "ops_per_s",
        evals.unwrap_or(0) as f64 / ((m1 + mean[3]) / 1e3),
    );
    out.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        // The hunts cannot be opened from outside, so they run the same in
        // both modes: the layer numbers come from the replay below, and the
        // hunts carry no tracing overhead.
        out.set("bench.trace_overhead_pct", 0.0);
        out.set("harness.hunt_evals", evals.unwrap_or(0) as f64);
        replay_corpus(seed, &mut out);
    }
    out
}

/// A seeded instance of the hunt's shape: 2 to 6 jobs, integral arrivals
/// in 0..=8 and sizes in 1..=4.
fn corpus_instance(state: &mut u64) -> Trace {
    let mut draw = |hi: u64| {
        *state = splitmix64(*state);
        *state % hi
    };
    let n = 2 + draw(5);
    let mut b = TraceBuilder::new();
    let mut jobs: Vec<(u64, u64)> = (0..n).map(|_| (draw(9), 1 + draw(4))).collect();
    jobs.sort_unstable();
    for (a, p) in jobs {
        b.push(a as f64, p as f64);
    }
    b.build().expect("integral jobs are valid")
}

/// Time `exact_slotted_opt` and the hunted policy's `simulate` call by
/// call on the seeded corpus, for one and two machines.
fn replay_corpus(seed: u64, out: &mut Outcome) {
    let mut tree = SpanTree::default();
    let exact = tree.node("lowerbound.exact_slotted_opt", None);
    let sim = tree.node("simcore.simulate", None);
    let (mut states, mut over) = (0u64, 0u64);
    let mut state = splitmix64(seed ^ 0x434f_5250);
    for (policy, m) in [(Policy::Rr, 1usize), (Policy::MultiList, 2)] {
        for _ in 0..CORPUS {
            let trace = corpus_instance(&mut state);
            let t = Instant::now();
            let r = exact_slotted_opt(
                &trace,
                m,
                2,
                ExactLimits {
                    max_states: MAX_STATES,
                },
            );
            tree.add(exact, 1, ns_since(t));
            match r {
                Some(r) => states += r.states as u64,
                None => over += 1,
            }
            let mut alloc = policy.make();
            let t = Instant::now();
            let s = simulate(
                &trace,
                alloc.as_mut(),
                MachineConfig::new(m),
                SimOptions::default(),
            );
            tree.add(sim, 1, ns_since(t));
            out.check(s.is_ok(), || {
                format!("{policy} failed on a corpus instance")
            });
        }
    }
    out.set("lowerbound.exact_ns", tree.mean_ns(exact));
    out.set("lowerbound.exact_states", states as f64);
    out.set("lowerbound.exact_over_budget", over as f64);
    out.set("simcore.simulate_ns", tree.mean_ns(sim));
}
