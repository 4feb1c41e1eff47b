//! Exact optimum over *slot-structured* schedules for tiny instances.
//!
//! A slot-structured schedule processes, in every unit time slot, at most
//! `m` distinct jobs for one unit each (respecting release dates). Every
//! such schedule is feasible in the paper's model, so the minimum
//! `Σ_j F_j^k` over them is a genuine **upper bound on OPTᵏ** — usually
//! far tighter than the best-policy upper bound the ratio brackets
//! otherwise use. On a single machine the unit-serialization exchange
//! argument makes it exactly OPTᵏ for integral instances.
//!
//! The search is exhaustive (DFS over per-slot job subsets) with
//! memoization on `(slot, remaining-work vector)`; intended for
//! `n ≲ 8` and short horizons — exactly the regime where closing the
//! bracket matters (experiment E11c). The state space is kept small and
//! cheap (see `docs/SOLVER.md`, "Exact slotted OPT"):
//!
//! - a state is one packed `u128` key, updated in place as jobs are
//!   served, memoized behind a multiply-rotate hasher;
//! - the ≤m-subsets of a slot are enumerated as ascending bit picks from
//!   the available-job mask, with no allocation per state or branch;
//! - jobs with equal arrival and equal remaining work are interchangeable,
//!   so only one representative of each such class of states is explored.
//!
//! [`exact_slotted_opt_reference`] keeps the plain search as a test oracle.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tf_simcore::Trace;

/// Result of the exact search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactResult {
    /// Minimum `Σ F^k` over slot-structured schedules.
    pub power_sum: f64,
    /// Number of memoized states explored. [`exact_slotted_opt`] counts
    /// canonical states (one per class of interchangeable-job states, idle
    /// slots skipped), never more than the reference search counts.
    pub states: usize,
}

/// Search limits to keep the exponential tool polite.
#[derive(Debug, Clone, Copy)]
pub struct ExactLimits {
    /// Give up beyond this many memo states (returns `None`);
    /// [`exact_slotted_opt`] counts canonical states.
    pub max_states: usize,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits {
            max_states: 2_000_000,
        }
    }
}

/// Width of the slot field at the bottom of a packed state key.
const SLOT_BITS: u32 = 16;
/// Most jobs one search holds: job sets are `u64` masks.
const MAX_JOBS: usize = 64;

/// An integral trace in the range a packed state key holds.
struct Slotted {
    /// `(arrival, size)` per job, in trace order.
    jobs: Vec<(u16, u16)>,
    /// First slot by which every schedule worth exploring has finished.
    horizon: u16,
}

/// Bits of a remaining-work field that starts at `size` (at least one,
/// so every field starts below bit 128).
fn field_bits(size: u16) -> u32 {
    (u16::BITS - size.leading_zeros()).max(1)
}

/// Validate the preconditions and convert the trace to slots, or `None`
/// when a packed key cannot hold the instance: more than [`MAX_JOBS`]
/// jobs, a horizon (last arrival + total work + 1) above `u16::MAX`, or
/// remaining-work fields wider than the key's 112 bits above the slot.
fn slotted(trace: &Trace, m: usize, k: u32) -> Option<Slotted> {
    assert!(
        trace.is_integral(1e-9),
        "exact search needs integral traces"
    );
    assert!(m >= 1 && k >= 1);
    let horizon = trace.makespan_upper_bound(1.0).ceil() + 1.0;
    if trace.len() > MAX_JOBS || horizon > f64::from(u16::MAX) {
        return None;
    }
    // Every arrival and size is below the horizon, so each fits a u16.
    let jobs: Vec<(u16, u16)> = trace
        .jobs()
        .iter()
        .map(|j| (j.arrival.round() as u16, j.size.round() as u16))
        .collect();
    let bits: u32 = jobs.iter().map(|&(_, p)| field_bits(p)).sum();
    (SLOT_BITS + bits <= u128::BITS).then_some(Slotted {
        jobs,
        horizon: horizon as u16,
    })
}

/// Multiply-rotate hasher for packed state keys: one multiply per 64-bit
/// word, with a rotate so the well-mixed high product bits also reach the
/// low bits a hash table indexes by.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u128(&mut self, key: u128) {
        self.write_u64(key as u64);
        self.write_u64((key >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The slot field of a packed key.
#[inline]
fn slot(key: u128) -> u16 {
    key as u16
}

/// A successor state under construction: the jobs picked so far in one
/// slot, already served.
#[derive(Clone, Copy)]
struct Step {
    /// Packed key of the next slot.
    key: u128,
    /// Unfinished jobs.
    live: u64,
    /// Completion cost of the jobs this slot finishes.
    cost: f64,
}

/// The canonical search. Jobs are sorted by `(arrival, size)`, and the
/// remaining work within each arrival group stays non-decreasing: a slot
/// serves a prefix of each run of equal `(arrival, remaining)` jobs, so
/// every class of states that differ only by a permutation of
/// interchangeable jobs is explored once.
struct Search {
    /// Release slot per job.
    arrival: Vec<u16>,
    /// Bit offset per job of its remaining-work field in the key (plus
    /// the end of the last field).
    shift: Vec<u32>,
    /// Jobs released by each slot before the horizon.
    released: Vec<u64>,
    /// Jobs with the same arrival as the job before them.
    same_arrival: u64,
    /// `pow[f] = f^k`, the completion cost at flow time `f`.
    pow: Vec<f64>,
    m: usize,
    horizon: u16,
    memo: HashMap<u128, f64, BuildHasherDefault<KeyHasher>>,
    max_states: usize,
    exceeded: bool,
}

impl Search {
    /// A search over `jobs`, sorted by `(arrival, size)`.
    fn new(jobs: &[(u16, u16)], horizon: u16, m: usize, k: u32, limits: ExactLimits) -> Self {
        let arrival: Vec<u16> = jobs.iter().map(|&(a, _)| a).collect();
        let mut shift = vec![SLOT_BITS];
        for &(_, p) in jobs {
            shift.push(shift[shift.len() - 1] + field_bits(p));
        }
        let mut released = Vec::with_capacity(usize::from(horizon));
        let (mut mask, mut next) = (0u64, 0);
        for t in 0..horizon {
            while next < arrival.len() && arrival[next] <= t {
                mask |= 1 << next;
                next += 1;
            }
            released.push(mask);
        }
        let same_arrival = (1..arrival.len())
            .filter(|&j| arrival[j] == arrival[j - 1])
            .fold(0u64, |acc, j| acc | 1 << j);
        Search {
            arrival,
            shift,
            released,
            same_arrival,
            pow: (0..=horizon).map(|f| f64::from(f).powi(k as i32)).collect(),
            m,
            horizon,
            memo: HashMap::default(),
            max_states: limits.max_states,
            exceeded: false,
        }
    }

    /// Remaining work of job `j` in `key`.
    #[inline]
    fn rem(&self, key: u128, j: usize) -> u64 {
        let width = self.shift[j + 1] - self.shift[j];
        (key >> self.shift[j]) as u64 & ((1 << width) - 1)
    }

    /// Minimum total remaining cost from state `key`, whose unfinished
    /// jobs are `live`. Completion of job `j` in slot `t` costs
    /// `(t + 1 − r_j)^k`.
    fn solve(&mut self, mut key: u128, live: u64) -> f64 {
        if live == 0 {
            return 0.0;
        }
        let mut t = slot(key);
        if t >= self.horizon {
            return f64::INFINITY; // ran out of time (horizon is generous)
        }
        if live & self.released[usize::from(t)] == 0 {
            // Idle until the next release: every unfinished job is still
            // unreleased, and the lowest one in (arrival, size) order
            // arrives first.
            let next = self.arrival[live.trailing_zeros() as usize];
            key += u128::from(next - t);
            t = next;
        }
        if self.exceeded {
            return f64::NAN;
        }
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        if self.memo.len() >= self.max_states {
            self.exceeded = true;
            return f64::NAN;
        }

        // Released, unfinished jobs; a job *follows* when it continues the
        // run of equal (arrival, remaining) jobs before it.
        let avail = live & self.released[usize::from(t)];
        let mut follow = 0u64;
        let mut pairs = avail & (avail << 1) & self.same_arrival;
        while pairs != 0 {
            let j = pairs.trailing_zeros() as usize;
            pairs &= pairs - 1;
            if self.rem(key, j) == self.rem(key, j - 1) {
                follow |= 1 << j;
            }
        }
        let mut best = f64::INFINITY;
        let next = Step {
            key: key + 1,
            live,
            cost: 0.0,
        };
        self.pick(next, avail & !follow, follow, self.m, &mut best);
        self.memo.insert(key, best);
        best
    }

    /// Extend the slot's job set `from` by one job of `cand`, for each in
    /// ascending order, and then by up to `slots − 1` more above it. A run
    /// is served from its front: the job after `j` becomes a candidate
    /// only once `j` is picked, and a later run's first job always is.
    fn pick(&mut self, from: Step, mut cand: u64, follow: u64, slots: usize, best: &mut f64) {
        while cand != 0 {
            let j = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let mut step = from;
            if self.rem(step.key, j) == 1 {
                step.live &= !(1 << j);
                step.cost += self.pow[usize::from(slot(step.key) - self.arrival[j])];
            }
            step.key -= 1 << self.shift[j];
            let total = step.cost + self.solve(step.key, step.live);
            if total < *best {
                *best = total;
            }
            if slots > 1 {
                let more = (cand & !follow) | (follow & (2 << j));
                self.pick(step, more, follow, slots - 1, best);
            }
        }
    }
}

/// Exact minimum `Σ F^k` over slot-structured schedules on `m` unit-speed
/// machines, or `None` if the instance is too large for the state budget
/// or for a packed state key: more than 64 jobs, a horizon (last
/// arrival + total work + 1) above 65 535 slots, or remaining-work fields
/// wider than 112 bits in all.
///
/// The search recurses once per busy slot, so its stack depth grows with
/// the total work.
///
/// # Panics
/// If the trace is not integral, or `m` or `k` is zero.
pub fn exact_slotted_opt(
    trace: &Trace,
    m: usize,
    k: u32,
    limits: ExactLimits,
) -> Option<ExactResult> {
    let mut obs_span = tf_obs::span!("lb", "exact_opt");
    if trace.is_empty() {
        return Some(ExactResult {
            power_sum: 0.0,
            states: 0,
        });
    }
    let inst = slotted(trace, m, k)?;
    let mut jobs = inst.jobs;
    jobs.sort_unstable();
    let mut s = Search::new(&jobs, inst.horizon, m, k, limits);
    let (mut key, mut live) = (0u128, 0u64);
    for (j, &(_, p)) in jobs.iter().enumerate() {
        key |= u128::from(p) << s.shift[j];
        if p > 0 {
            live |= 1 << j;
        }
    }
    let v = s.solve(key, live);
    if tf_obs::enabled() {
        obs_span.arg("n", trace.len() as f64);
        obs_span.arg("m", m as f64);
        obs_span.arg("k", f64::from(k));
        obs_span.arg("states", s.memo.len() as f64);
    }
    (!s.exceeded && v.is_finite()).then_some(ExactResult {
        power_sum: v,
        states: s.memo.len(),
    })
}

/// The plain search: memoized on `(slot, remaining-work vector)` with
/// every job distinct, every idle slot a state, and every ≤m-subset of
/// the available jobs built as a vector.
struct ReferenceSearch {
    arrivals: Vec<u16>,
    k: u32,
    m: usize,
    horizon: u16,
    memo: HashMap<(u16, Vec<u16>), f64>,
    limits: ExactLimits,
    exceeded: bool,
}

impl ReferenceSearch {
    /// Minimum total remaining cost from slot `t` with remaining work
    /// `rem` (0 = done). Completion of job `j` in slot `t` costs
    /// `(t + 1 − r_j)^k`.
    fn solve(&mut self, t: u16, rem: &[u16]) -> f64 {
        if rem.iter().all(|&r| r == 0) {
            return 0.0;
        }
        if t >= self.horizon {
            return f64::INFINITY; // ran out of time (horizon is generous)
        }
        if self.exceeded {
            return f64::NAN;
        }
        let key = (t, rem.to_vec());
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        if self.memo.len() >= self.limits.max_states {
            self.exceeded = true;
            return f64::NAN;
        }

        // Candidates: released, unfinished jobs.
        let avail: Vec<usize> = (0..rem.len())
            .filter(|&j| rem[j] > 0 && self.arrivals[j] <= t)
            .collect();
        let mut best = f64::INFINITY;
        // Enumerate subsets of size ≤ m. Idling inside a busy state is
        // never optimal with monotone costs, but subsets *smaller* than m
        // matter when fewer jobs are available; we enumerate all subsets
        // up to size m (including the empty one only when forced).
        let subsets = enumerate_subsets(&avail, self.m);
        for subset in &subsets {
            let mut next = rem.to_vec();
            let mut completion_cost = 0.0;
            for &j in subset {
                next[j] -= 1;
                if next[j] == 0 {
                    let flow = f64::from(t + 1 - self.arrivals[j]);
                    completion_cost += flow.powi(self.k as i32);
                }
            }
            let sub = self.solve(t + 1, &next);
            let total = completion_cost + sub;
            if total < best {
                best = total;
            }
        }
        if subsets.is_empty() {
            // Nothing released yet: idle one slot.
            best = self.solve(t + 1, rem);
        }
        self.memo.insert(key, best);
        best
    }
}

/// All non-empty subsets of `avail` with size ≤ m (plus nothing if
/// `avail` is empty — handled by the caller).
fn enumerate_subsets(avail: &[usize], m: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let n = avail.len();
    if n == 0 {
        return out;
    }
    // Bitmask enumeration; n is tiny here.
    for mask in 1u32..(1 << n) {
        if (mask.count_ones() as usize) <= m {
            out.push(
                (0..n)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| avail[i])
                    .collect(),
            );
        }
    }
    out
}

/// [`exact_slotted_opt`] computed by the plain search it replaced: every
/// job distinct, one heap-allocated key per state, one vector per subset.
/// A test oracle: much slower, and only for instances with fewer than 32
/// available jobs and short horizons (it recurses once per slot), but the
/// search the canonical one is property-tested against. Its `states`
/// count every (slot, remaining-work vector) explored.
pub fn exact_slotted_opt_reference(
    trace: &Trace,
    m: usize,
    k: u32,
    limits: ExactLimits,
) -> Option<ExactResult> {
    if trace.is_empty() {
        return Some(ExactResult {
            power_sum: 0.0,
            states: 0,
        });
    }
    let inst = slotted(trace, m, k)?;
    let (arrivals, sizes): (Vec<u16>, Vec<u16>) = inst.jobs.into_iter().unzip();
    let mut s = ReferenceSearch {
        arrivals,
        k,
        m,
        horizon: inst.horizon,
        memo: HashMap::new(),
        limits,
        exceeded: false,
    };
    let v = s.solve(0, &sizes);
    (!s.exceeded && v.is_finite()).then_some(ExactResult {
        power_sum: v,
        states: s.memo.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_policies::Policy;
    use tf_simcore::{simulate, MachineConfig, SimOptions};

    fn exact(t: &Trace, m: usize, k: u32) -> f64 {
        exact_slotted_opt(t, m, k, ExactLimits::default())
            .unwrap()
            .power_sum
    }

    #[test]
    fn single_job() {
        let t = Trace::from_pairs([(0.0, 3.0)]).unwrap();
        assert_eq!(exact(&t, 1, 1), 3.0);
        assert_eq!(exact(&t, 1, 2), 9.0);
    }

    #[test]
    fn matches_srpt_for_l1_single_machine() {
        // SRPT is exactly optimal for l1 on one machine; the slotted
        // search must reproduce it on integral instances.
        for pairs in [
            vec![(0.0, 4.0), (1.0, 1.0)],
            vec![(0.0, 2.0), (0.0, 3.0), (2.0, 1.0)],
            vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (3.0, 2.0)],
        ] {
            let t = Trace::from_pairs(pairs).unwrap();
            let mut srpt = Policy::Srpt.make();
            let opt = simulate(
                &t,
                srpt.as_mut(),
                MachineConfig::new(1),
                SimOptions::default(),
            )
            .unwrap()
            .total_flow();
            assert!((exact(&t, 1, 1) - opt).abs() < 1e-9);
        }
    }

    #[test]
    fn never_worse_than_any_policy_and_never_below_lp() {
        let t = Trace::from_pairs([(0.0, 2.0), (0.0, 1.0), (1.0, 2.0), (3.0, 1.0)]).unwrap();
        for m in [1usize, 2] {
            for k in [1u32, 2, 3] {
                let ex = exact(&t, m, k);
                // Upper-bound property: no worse than simulated policies...
                // policies are fractional, so they can only be matched or
                // beaten by the slotted optimum on one machine; on m≥2
                // fractional sharing can beat slotted schedules in
                // principle, so only check the LP side there.
                let lp = crate::lp::lp_relaxation_value(&t, m, k);
                assert!(ex >= lp.objective / 2.0 - 1e-9, "m={m} k={k}");
                if m == 1 {
                    for p in [Policy::Srpt, Policy::Sjf, Policy::Rr] {
                        let mut a = p.make();
                        let v =
                            simulate(&t, a.as_mut(), MachineConfig::new(m), SimOptions::default())
                                .unwrap()
                                .flow_power_sum(f64::from(k));
                        assert!(ex <= v + 1e-9, "m={m} k={k} {p}: exact {ex} > {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallelism_helps() {
        let t = Trace::from_pairs([(0.0, 2.0), (0.0, 2.0)]).unwrap();
        let one = exact(&t, 1, 2);
        let two = exact(&t, 2, 2);
        assert!(two < one);
        assert_eq!(two, 8.0); // both finish at 2: 4 + 4
    }

    #[test]
    fn respects_release_dates() {
        let t = Trace::from_pairs([(5.0, 1.0)]).unwrap();
        assert_eq!(exact(&t, 1, 1), 1.0);
    }

    #[test]
    fn state_budget_gives_none() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 6.0)).collect();
        let t = Trace::from_pairs(pairs).unwrap();
        let r = exact_slotted_opt(&t, 2, 2, ExactLimits { max_states: 10 });
        assert!(r.is_none());
    }

    #[test]
    fn k2_prefers_balanced_tails() {
        // Two jobs (0,1) and (0,3), one machine.
        // Orders: short first: F = 1, 4 → 1+16 = 17 (k=2).
        //         long first:  F = 3, 4 → 9+16 = 25. Interleavings worse.
        let t = Trace::from_pairs([(0.0, 1.0), (0.0, 3.0)]).unwrap();
        assert_eq!(exact(&t, 1, 2), 17.0);
    }

    #[test]
    fn traces_beyond_the_packed_key_give_none() {
        // Horizon 65 536 and a size above u16::MAX: both used to overflow
        // the u16 slot arithmetic.
        for pairs in [vec![(65534.0, 1.0)], vec![(0.0, 70000.0)]] {
            let t = Trace::from_pairs(pairs).unwrap();
            assert_eq!(exact_slotted_opt(&t, 1, 2, ExactLimits::default()), None);
            assert_eq!(
                exact_slotted_opt_reference(&t, 1, 2, ExactLimits::default()),
                None
            );
        }
        // 65 jobs do not fit the job masks.
        let t = Trace::from_pairs((0..65).map(|_| (0.0, 1.0))).unwrap();
        assert_eq!(exact_slotted_opt(&t, 1, 1, ExactLimits::default()), None);
        // The last horizon that fits still solves (idle slots are skipped,
        // not recursed through).
        let t = Trace::from_pairs([(65533.0, 1.0)]).unwrap();
        assert_eq!(exact(&t, 1, 2), 1.0);
    }

    #[test]
    fn interchangeable_jobs_collapse_states() {
        // Four identical jobs: the reference tells all 4! orders apart,
        // the canonical search explores one.
        let t = Trace::from_pairs([(0.0, 2.0); 4]).unwrap();
        for m in [1usize, 2, 3] {
            let fast = exact_slotted_opt(&t, m, 2, ExactLimits::default()).unwrap();
            let slow = exact_slotted_opt_reference(&t, m, 2, ExactLimits::default()).unwrap();
            assert_eq!(fast.power_sum.to_bits(), slow.power_sum.to_bits(), "m={m}");
            assert!(
                fast.states * 4 <= slow.states,
                "m={m}: {} canonical vs {} reference states",
                fast.states,
                slow.states
            );
        }
    }
}
