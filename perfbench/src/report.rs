//! The run's outcome: operation counts, check failures, metric values, and
//! the one-line JSON result. Also the small statistics helpers the
//! workloads share.

use std::collections::BTreeMap;
use std::time::Instant;

/// `BENCHMARK.json`, the single declaration of metric names and units.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (streams, hunts or requests).
    attempted: u64,
    /// Operations that failed or returned a wrong result.
    failed: u64,
    /// Check failures that are not tied to one operation (outputs that
    /// differ from the pin, a count that did not repeat, a cache hit with
    /// the cache off).
    broken: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one operation, failed unless `ok`; `why` describes a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", why());
        }
    }

    /// Record a check that is not one operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            let why = why();
            eprintln!("perfbench: CHECK FAILED: {why}");
            self.broken.push(why);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// The result line: every metric `BENCHMARK.json` declares for this
    /// mode (`end_to_end` untraced, `per_layer` traced), in declaration
    /// order. Per-layer metrics of a layer the workload never reaches are
    /// 0. Errors if a declared end-to-end metric was not measured or a
    /// value is not finite.
    pub fn render(&mut self, traced: bool) -> Result<String, String> {
        if !traced {
            let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
            self.set("ok_frac", ok);
        }
        let declared = declared(if traced { "per_layer" } else { "end_to_end" })?;
        let mut fields = Vec::new();
        for (name, unit) in &declared {
            let value = match self.metrics.get(name.as_str()) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            eprintln!("  {name:<30} {value:>16.4} {unit}");
            fields.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            ));
        }
        for name in self.metrics.keys() {
            if !is_declared(name)? {
                return Err(format!("metric {name} is not declared in BENCHMARK.json"));
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// `(name, unit)` of every metric in the `section` list of BENCHMARK.json.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let doc: serde::Value = serde_json::from_str(DECLARATION).map_err(|e| e.to_string())?;
    let list = doc
        .get(section)
        .and_then(serde::Value::as_seq)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(serde::Value::as_str)
                    .map(String::from)
                    .ok_or_else(|| format!("a {section} entry has no {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Whether either list of BENCHMARK.json declares `name`.
fn is_declared(name: &str) -> Result<bool, String> {
    for section in ["end_to_end", "per_layer"] {
        if declared(section)?.iter().any(|(n, _)| n == name) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` with linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Run `setup` [`SETUP_REPS`] times and return the median duration in
/// seconds together with the last result (earlier results are dropped, so
/// each repetition pays the whole set-up).
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one set-up ran"))
}

/// Process peak resident set (`VmHWM`) in MiB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed so far, in nanoseconds, by the calling thread
/// (`thread`) or by the whole process, exited threads included. Unlike
/// wall time it leaves out time this machine's CPUs spent elsewhere,
/// including time the hypervisor took them away (steal), which on shared
/// hosts comes in episodes long enough to swamp a whole run.
pub fn cpu_ns(thread: bool) -> u64 {
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("cpu_ns declares the 64-bit Linux `struct timespec`");
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let clock = if thread {
        CLOCK_THREAD_CPUTIME_ID
    } else {
        CLOCK_PROCESS_CPUTIME_ID
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers, as
    // `Timespec` declares, and `clock_gettime` writes exactly one of them
    // through the valid, exclusive pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Percent by which `traced` exceeds `untraced` (the tracing overhead).
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn every_declared_metric_has_a_unit_and_a_unique_name() {
        let mut names = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(section).unwrap() {
                assert!(!unit.is_empty(), "{name}");
                names.push(name);
            }
        }
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
    }

    #[test]
    fn untraced_render_needs_every_end_to_end_metric() {
        let mut out = Outcome::default();
        out.op(true, String::new);
        assert!(out.render(false).is_err(), "nothing measured yet");
        for (name, _) in declared("end_to_end").unwrap() {
            let name: &'static str = Box::leak(name.into_boxed_str());
            out.set(name, 1.5);
        }
        let line = out.render(false).unwrap();
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&serde::Value::Bool(true)));
        assert!(v.get("metrics").and_then(|m| m.get("ok_frac")).is_some());
    }
}
