//! `stream`: RR, then SRPT, over the same seeded open Poisson stream at
//! ρ = 0.99 on one unit-speed machine with Exp(1) sizes, through the
//! bounded-memory engine, with the sink of `experiments stream`
//! (`StreamingFlowStats` + `StreamingNorm(2)`, folded per chunk).
//!
//! RR's allocate cost is O(alive) and RR keeps several times more jobs
//! alive than SRPT at the same load and the same events, so an allocator
//! change shows in the RR half and not in the SRPT half. No LP, exact-OPT
//! or serve work runs here.
//!
//! At ρ = 0.99 the alive count wanders slowly, so the cost of one stream
//! depends strongly on its seed. The run's input is therefore many short,
//! independent sub-streams, each seeded from `--seed` and its index, and
//! it reports medians over them, which settle on the cost of a typical
//! stream whatever the seed. The first [`PINNED`] sub-streams are checked
//! against the pins.
//!
//! The shared host runs the same code at two speeds, for seconds at a
//! time, about 1.6× apart even in CPU time. So a short reference stream,
//! the same for every seed, runs under RR and under SRPT before each
//! sub-stream, and each policy's CPU time on the sub-stream is scaled by
//! the ratio of the run's fastest reference time under that policy to the
//! reference time next to it: the time the sub-stream takes at the
//! fastest speed the machine showed in the run. The reference runs the
//! same engine and allocator, so a change to the program moves both and
//! cancels in the ratio, while the sub-stream's own time carries the
//! change.

use std::time::Instant;

use tf_metrics::{StreamingFlowStats, StreamingNorm};
use tf_policies::Policy;
use tf_simcore::{simulate_stream, JobSource, MachineConfig, RateAllocator, StreamOptions};
use tf_workload::{OpenWorkload, SizeDist, StreamBound};

use crate::report::{cpu_ns, median, overhead_pct, peak_rss_mb, splitmix64, Outcome, SETUP_REPS};
use crate::spans::{ns_since, SpanTree};
use crate::wrap::{TimedAllocator, TimedSource};
use crate::{pins, Args};

/// Utilization of the open stream.
const RHO: f64 = 0.99;
/// Jobs per sub-stream.
const JOBS: u64 = 50_000;
/// Sub-streams in the input set per second of `--seconds`, so a run takes
/// about that long on the 2-vCPU box the benchmark was built on.
const STREAMS_PER_SECOND: f64 = 8.0;
/// Leading sub-streams checked against the pins.
const PINNED: u64 = 4;
/// Jobs per policy in each set-up warm-up.
const WARMUP_JOBS: u64 = 50_000;
/// Jobs in the reference stream that gauges the machine's speed.
const REFERENCE_JOBS: u64 = 10_000;
/// Seed of the reference stream, the same for every `--seed`.
const REFERENCE_SEED: u64 = 0x5245_4645_5245_4e43;
/// Completions per accumulator chunk, as in `experiments stream`.
const CHUNK: u64 = 65_536;
const POLICIES: [Policy; 2] = [Policy::Rr, Policy::Srpt];

/// The checked outputs of one stream, compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Checksum {
    completed: u64,
    flow_sum: f64,
    l2: f64,
    end_time: f64,
}

impl Checksum {
    fn fingerprint(&self, policy: Policy) -> String {
        format!(
            "{policy}:n={}:flow={:016x}:l2={:016x}:end={:016x}",
            self.completed,
            self.flow_sum.to_bits(),
            self.l2.to_bits(),
            self.end_time.to_bits()
        )
    }
}

/// Per-layer counters of one traced stream.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    simulate_ns: u64,
    source_calls: u64,
    source_ns: u64,
    alloc_calls: u64,
    alloc_ns: u64,
    alive_sum: u64,
    sink_calls: u64,
    sink_ns: u64,
}

#[derive(Debug)]
struct StreamRun {
    sum: Checksum,
    /// CPU time of the `simulate_stream` call: what the end-to-end metrics
    /// report.
    cpu_ns: u64,
    events: u64,
    peak_alive: usize,
    layers: Option<Layers>,
}

/// The flow sink of `experiments stream`: per-chunk sketches folded into
/// the run totals every [`CHUNK`] completions.
struct FlowSink {
    total: StreamingFlowStats,
    l2: StreamingNorm,
    chunk_stats: StreamingFlowStats,
    chunk_l2: StreamingNorm,
}

impl FlowSink {
    fn new() -> Self {
        FlowSink {
            total: StreamingFlowStats::new(128),
            l2: StreamingNorm::new(2.0),
            chunk_stats: StreamingFlowStats::new(128),
            chunk_l2: StreamingNorm::new(2.0),
        }
    }

    fn push(&mut self, flow: f64) {
        self.chunk_stats.push(flow);
        self.chunk_l2.push(flow);
        if self.chunk_stats.n() >= CHUNK {
            self.total.merge(&self.chunk_stats);
            self.l2.merge(&self.chunk_l2);
            self.chunk_stats = StreamingFlowStats::new(128);
            self.chunk_l2 = StreamingNorm::new(2.0);
        }
    }

    fn finish(mut self, end_time: f64) -> Checksum {
        self.total.merge(&self.chunk_stats);
        self.l2.merge(&self.chunk_l2);
        Checksum {
            completed: self.total.n(),
            flow_sum: self.total.finish().total,
            l2: self.l2.value(),
            end_time,
        }
    }
}

/// Stream `n` jobs of the seeded workload through `policy`; `traced` wraps
/// the source, the allocator and the sink in timers.
fn run_one(policy: Policy, seed: u64, n: u64, traced: bool) -> Result<StreamRun, String> {
    let workload = OpenWorkload::poisson(
        RHO,
        1,
        SizeDist::Exponential { mean: 1.0 },
        StreamBound::Count(n),
        seed,
    );
    let mut source = workload.stream().map_err(|e| e.to_string())?;
    let mut alloc = policy.make();
    let opts = StreamOptions {
        max_step: alloc.continuous().then_some(1.0 / 64.0),
        ..StreamOptions::default()
    };
    let mut sink = FlowSink::new();
    let mut layers = Layers::default();

    let t = Instant::now();
    let c0 = cpu_ns(true);
    let report = if traced {
        let mut src = TimedSource::new(&mut source);
        let mut alc = TimedAllocator::new(alloc.as_mut());
        let report = simulate_stream(
            &mut src,
            &mut alc,
            MachineConfig::new(1),
            opts,
            &mut |job| {
                let t = Instant::now();
                sink.push(job.flow);
                layers.sink_ns += ns_since(t);
                layers.sink_calls += 1;
            },
        );
        layers.source_calls = src.calls;
        layers.source_ns = src.ns;
        layers.alloc_calls = alc.calls;
        layers.alloc_ns = alc.ns;
        layers.alive_sum = alc.alive_sum;
        report
    } else {
        run_plain(&mut source, alloc.as_mut(), opts, &mut sink)
    }
    .map_err(|e| format!("{policy} stream failed: {e}"))?;
    // The span tree is in wall time, like the spans inside it.
    layers.simulate_ns = ns_since(t);
    let cpu_ns = cpu_ns(true) - c0;
    Ok(StreamRun {
        sum: sink.finish(report.end_time),
        cpu_ns,
        events: report.events,
        peak_alive: report.stats.peak_alive,
        layers: traced.then_some(layers),
    })
}

fn run_plain(
    source: &mut dyn JobSource,
    alloc: &mut dyn RateAllocator,
    opts: StreamOptions,
    sink: &mut FlowSink,
) -> Result<tf_simcore::StreamReport, tf_simcore::SimError> {
    simulate_stream(source, alloc, MachineConfig::new(1), opts, &mut |job| {
        sink.push(job.flow)
    })
}

/// RR, then SRPT, over sub-stream `index` of the run seeded `seed`.
fn pair(seed: u64, index: u64, n: u64, traced: bool) -> Result<[StreamRun; 2], String> {
    let sub = splitmix64(seed ^ 0x5354_5245_414d ^ (index << 32));
    Ok([
        run_one(POLICIES[0], sub, n, traced)?,
        run_one(POLICIES[1], sub, n, traced)?,
    ])
}

/// Output checks that hold for any seed: every job completes; both
/// policies are work-conserving on one machine, so the stream ends at the
/// same instant under both; SRPT minimizes total flow on one machine.
fn invariants(runs: &[StreamRun; 2], n: u64) -> Result<(), String> {
    let [rr, srpt] = runs;
    for (p, r) in POLICIES.iter().zip(runs) {
        if r.sum.completed != n {
            return Err(format!("{p} completed {} of {n} jobs", r.sum.completed));
        }
    }
    if (rr.sum.end_time - srpt.sum.end_time).abs() > 1e-9 * rr.sum.end_time {
        return Err(format!(
            "RR ends at {} but SRPT at {}",
            rr.sum.end_time, srpt.sum.end_time
        ));
    }
    if srpt.sum.flow_sum > rr.sum.flow_sum * (1.0 + 1e-12) {
        return Err(format!(
            "SRPT total flow {} exceeds RR's {}",
            srpt.sum.flow_sum, rr.sum.flow_sum
        ));
    }
    Ok(())
}

fn fingerprint(runs: &[StreamRun; 2]) -> String {
    format!(
        "{}/{}",
        runs[0].sum.fingerprint(POLICIES[0]),
        runs[1].sum.fingerprint(POLICIES[1])
    )
}

/// The pin line of `seed`: the fingerprints of its first [`PINNED`]
/// sub-streams.
pub fn pin_lines(seed: u64) -> Result<Vec<String>, String> {
    let fps = (0..PINNED)
        .map(|i| {
            let runs = pair(seed, i, JOBS, false)?;
            invariants(&runs, JOBS)?;
            Ok(fingerprint(&runs))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(vec![format!("stream {seed} {}", fps.join(" "))])
}

/// Counts over the traced input set, which must repeat exactly: events,
/// alive jobs summed over allocate calls, allocate calls, peak alive.
type Counts = (u64, u64, u64, usize);

/// The reference stream's CPU times under RR and SRPT over the run, and
/// its checked outputs.
#[derive(Default)]
struct Reference {
    ms: Vec<[f64; 2]>,
    sums: [Option<Checksum>; 2],
}

impl Reference {
    /// Run the reference stream once under each policy; its outputs must
    /// repeat exactly.
    fn measure(&mut self, out: &mut Outcome) -> Result<[f64; 2], String> {
        let mut ms = [0.0; 2];
        for (j, policy) in POLICIES.into_iter().enumerate() {
            let r = run_one(policy, REFERENCE_SEED, REFERENCE_JOBS, false)?;
            let first = *self.sums[j].get_or_insert(r.sum);
            out.check(r.sum == first && r.sum.completed == REFERENCE_JOBS, || {
                format!(
                    "{policy} reference stream gave {:?}, first {first:?}",
                    r.sum
                )
            });
            ms[j] = r.cpu_ns as f64 / 1e6;
        }
        self.ms.push(ms);
        Ok(ms)
    }

    /// The run's fastest reference time under each policy.
    fn fastest(&self) -> [f64; 2] {
        [0, 1].map(|j| self.ms.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;

    // Set-up: warm the engine, allocators and sink on a short stream of
    // the same shape. Its seed is fixed, so set-up costs the same for every
    // `--seed`. Each of the repetitions is timed in wall time next to a
    // reference run, and scaled to the run's fastest speed like the
    // sub-streams below.
    let mut reference = Reference::default();
    let mut setup: Vec<(f64, [f64; 2])> = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let warm = reference.measure(&mut out).and_then(|ref_ms| {
            let t = Instant::now();
            pair(0, u64::MAX, WARMUP_JOBS, false)?;
            setup.push((t.elapsed().as_secs_f64(), ref_ms));
            Ok(())
        });
        if let Err(e) = warm {
            out.op(false, || format!("warm-up: {e}"));
            return out;
        }
    }
    if pins::pinned("stream", seed).is_none() {
        eprintln!("perfbench: seed {seed} is not pinned; checking invariants only");
    }

    // The input set is fixed by the seed and by `--seconds`; each
    // sub-stream is streamed once.
    let streams = (args.seconds * STREAMS_PER_SECOND)
        .ceil()
        .max(PINNED as f64) as u64;
    let mut fps: Vec<String> = Vec::new();
    // CPU times of RR and SRPT on each sub-stream, with the reference times
    // taken just before them.
    let mut cpu_ms: Vec<([f64; 2], [f64; 2])> = Vec::new();
    let mut overhead: Vec<f64> = Vec::new();
    let mut tree = SpanTree::default();
    let mut counts: Counts = (0, 0, 0, 0);
    for i in 0..streams {
        let ref_ms = match reference.measure(&mut out) {
            Ok(ms) => ms,
            Err(e) => {
                out.op(false, || e);
                break;
            }
        };
        let runs = match pair(seed, i, JOBS, false) {
            Ok(r) => r,
            Err(e) => {
                out.op(false, || e);
                break;
            }
        };
        let fp = fingerprint(&runs);
        let mut why = invariants(&runs, JOBS).err();
        let ms = runs.each_ref().map(|r| r.cpu_ns as f64 / 1e6);
        cpu_ms.push((ms, ref_ms));
        if args.trace {
            // The same sub-stream again, traced: same outputs, and the time
            // ratio is the tracing overhead on identical input.
            match pair(seed, i, JOBS, true) {
                Ok(t) => {
                    let tfp = fingerprint(&t);
                    if tfp != fp {
                        why = why.or(Some(format!(
                            "traced sub-stream {i} gave {tfp}, untraced {fp}"
                        )));
                    }
                    let traced_ms: f64 = t.iter().map(|r| r.cpu_ns as f64 / 1e6).sum();
                    overhead.push(overhead_pct(traced_ms, ms[0] + ms[1]));
                    record(&mut tree, &t, &mut counts);
                }
                Err(e) => why = why.or(Some(e)),
            }
        }
        for _ in POLICIES {
            out.op(why.is_none(), || why.clone().unwrap_or_default());
        }
        fps.push(fp);
    }
    let fps = fps[..fps.len().min(PINNED as usize)].join(" ");
    out.check(pins::matches("stream", seed, &fps), || {
        format!("outputs {fps} differ from the pin")
    });

    // Medians over the input set of the CPU times at the run's fastest
    // machine speed.
    let fastest = reference.fastest();
    let at_fastest = |j: usize| {
        let ms: Vec<f64> = cpu_ms
            .iter()
            .map(|(ms, r)| ms[j] * fastest[j] / r[j])
            .collect();
        median(&ms)
    };
    let (rr_ms, srpt_ms) = (at_fastest(0), at_fastest(1));
    // A set-up runs both policies: scale it by both references together.
    let setup_s: Vec<f64> = setup
        .iter()
        .map(|(s, r)| s * (fastest[0] + fastest[1]) / (r[0] + r[1]))
        .collect();
    out.set("setup_s", median(&setup_s));
    let raw = |j: usize| median(&cpu_ms.iter().map(|(ms, _)| ms[j]).collect::<Vec<_>>());
    let reference_median =
        |j: usize| median(&reference.ms.iter().map(|r| r[j]).collect::<Vec<_>>());
    eprintln!(
        "perfbench: reference stream RR fastest {:.3} ms, median {:.3} ms; \
         SRPT fastest {:.3} ms, median {:.3} ms; raw median RR {:.3} ms, SRPT {:.3} ms",
        fastest[0],
        reference_median(0),
        fastest[1],
        reference_median(1),
        raw(0),
        raw(1),
    );
    out.set("ops_per_s", 2.0 * JOBS as f64 / ((rr_ms + srpt_ms) / 1e3));
    out.set("part1_ms", rr_ms);
    out.set("part2_ms", srpt_ms);
    out.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        out.set("bench.trace_overhead_pct", median(&overhead));
        let (sim, src, alc, snk) = span_ids(&mut tree);
        let (events, alive_sum, alloc_calls, peak) = counts;
        out.set("workload.next_job_ns", tree.mean_ns(src));
        out.set("policies.allocate_ns", tree.mean_ns(alc));
        out.set("policies.allocate_calls", alloc_calls as f64);
        out.set(
            "policies.alive_per_call",
            alive_sum as f64 / alloc_calls.max(1) as f64,
        );
        out.set("metrics.push_ns", tree.mean_ns(snk));
        out.set("simcore.events", events as f64);
        out.set("simcore.peak_alive", peak as f64);
        out.set("simcore.simulate_ns", tree.mean_ns(sim));
        out.set(
            "simcore.self_ns_per_event",
            tree.self_ns(sim) as f64 / events.max(1) as f64,
        );
    }
    out
}

/// The stream spans: `simulate_stream` and, under it, the source, the
/// allocator and the sink.
fn span_ids(tree: &mut SpanTree) -> (usize, usize, usize, usize) {
    let sim = tree.node("simcore.simulate_stream", None);
    (
        sim,
        tree.node("workload.next_job", Some(sim)),
        tree.node("policies.allocate", Some(sim)),
        tree.node("metrics.push", Some(sim)),
    )
}

/// Fold one traced sub-stream into the span tree and its counts into
/// `counts`.
fn record(tree: &mut SpanTree, runs: &[StreamRun; 2], counts: &mut Counts) {
    let (sim, src, alc, snk) = span_ids(tree);
    for r in runs {
        let l = r.layers.expect("a traced run has layer counters");
        tree.add(sim, 1, l.simulate_ns);
        tree.add(src, l.source_calls, l.source_ns);
        tree.add(alc, l.alloc_calls, l.alloc_ns);
        tree.add(snk, l.sink_calls, l.sink_ns);
        counts.0 += r.events;
        counts.1 += l.alive_sum;
        counts.2 += l.alloc_calls;
        counts.3 = counts.3.max(r.peak_alive);
    }
}
