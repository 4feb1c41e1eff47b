//! Cross-policy property tests: feasibility and known dominance relations
//! on arbitrary traces, plus the allocator contracts the engine relies on
//! (`uniform_rate` agrees with `allocate`; the selecting policies pick the
//! same jobs as sorting the whole alive set would).

use proptest::prelude::*;
use std::cmp::Ordering;
use tf_policies::Policy;
use tf_simcore::validate::validate_schedule;
use tf_simcore::{simulate, AliveJob, MachineConfig, SimOptions, Trace};

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0.0f64..30.0, 0.05f64..10.0), 1..25)
        .prop_map(|pairs| Trace::from_pairs(pairs).expect("valid jobs"))
}

/// An alive set of `1..64` jobs (often `≤ 4`, so `n ≤ m` is covered),
/// sorted by `(arrival, seq)` as the engine hands it over, with values on
/// coarse grids so remaining works, sizes, densities and ages tie often.
/// Paired with an evaluation time no earlier than the last arrival.
fn arb_alive() -> impl Strategy<Value = (Vec<AliveJob>, f64)> {
    let n = prop_oneof![1usize..5, 1usize..64];
    (n, 0u32..12)
        .prop_flat_map(|(n, wait)| {
            let job = (0u32..8, 1u32..8, 0u32..4, 0u32..3);
            prop::collection::vec(job, n).prop_map(move |specs| (specs, wait))
        })
        .prop_map(|(mut specs, wait)| {
            specs.sort_by_key(|s| s.0);
            let alive: Vec<AliveJob> = specs
                .iter()
                .enumerate()
                .map(|(i, &(arrival, size, done, weight))| {
                    let size = 0.5 * f64::from(size);
                    let attained = size * f64::from(done) / 4.0;
                    AliveJob {
                        id: i as u32,
                        arrival: f64::from(arrival),
                        size,
                        weight: [1.0, 2.0, 4.0][weight as usize],
                        remaining: size - attained,
                        attained,
                        seq: i as u32,
                    }
                })
                .collect();
            let now = alive.last().map_or(0.0, |a| a.arrival) + f64::from(wait);
            (alive, now)
        })
}

/// `m ∈ 1..=4` machines of speed 1 or 1.5.
fn arb_cfg() -> impl Strategy<Value = MachineConfig> {
    (1usize..5, prop_oneof![Just(1.0), Just(1.5)])
        .prop_map(|(m, s)| MachineConfig::with_speed(m, s))
}

/// The selection rule SRPT, SJF, HDF and HYB used before they selected:
/// sort every index by `cmp` and run the first `m` at full speed. Kept as
/// the oracle for their selection.
fn sort_then_take_m(
    alive: &[AliveJob],
    cfg: &MachineConfig,
    cmp: impl FnMut(&usize, &usize) -> Ordering,
) -> Vec<f64> {
    let mut order: Vec<usize> = (0..alive.len()).collect();
    order.sort_by(cmp);
    let mut rates = vec![0.0; alive.len()];
    for &i in order.iter().take(cfg.m) {
        rates[i] = cfg.speed;
    }
    rates
}

/// The pre-selection rates of `policy` (one of SRPT, SJF, HDF, HYB).
fn oracle_rates(policy: Policy, now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Vec<f64> {
    let srpt = |a: &AliveJob, b: &AliveJob| {
        a.remaining
            .partial_cmp(&b.remaining)
            .unwrap()
            .then_with(|| a.seq.cmp(&b.seq))
    };
    match policy {
        Policy::Srpt => sort_then_take_m(alive, cfg, |&a, &b| srpt(&alive[a], &alive[b])),
        Policy::Sjf => sort_then_take_m(alive, cfg, |&a, &b| {
            alive[a]
                .size
                .partial_cmp(&alive[b].size)
                .unwrap()
                .then_with(|| alive[a].seq.cmp(&alive[b].seq))
        }),
        Policy::Hdf => sort_then_take_m(alive, cfg, |&a, &b| {
            let da = alive[a].weight / alive[a].size;
            let db = alive[b].weight / alive[b].size;
            db.partial_cmp(&da)
                .unwrap()
                .then_with(|| alive[a].seq.cmp(&alive[b].seq))
        }),
        Policy::Hybrid(theta) => sort_then_take_m(alive, cfg, |&a, &b| {
            let sa = alive[a].age_at(now) >= theta;
            let sb = alive[b].age_at(now) >= theta;
            sb.cmp(&sa).then_with(|| {
                if sa && sb {
                    alive[a].seq.cmp(&alive[b].seq)
                } else {
                    srpt(&alive[a], &alive[b])
                }
            })
        }),
        other => unreachable!("no sort oracle for {other}"),
    }
}

fn allocated(policy: Policy, now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Vec<f64> {
    let mut rates = vec![0.0; alive.len()];
    policy.make().allocate(now, alive, cfg, &mut rates);
    rates
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whenever a policy reports one shared rate `r`, its `allocate`
    /// writes exactly `r` into every slot — the engine's licence to skip
    /// `allocate`. RR must report one, so the property is never vacuous.
    #[test]
    fn uniform_rate_matches_allocate((alive, now) in arb_alive(), cfg in arb_cfg()) {
        for p in Policy::all() {
            let Some(r) = p.make().uniform_rate(alive.len(), &cfg) else {
                prop_assert!(p != Policy::Rr, "RR reports no uniform rate");
                continue;
            };
            let rates = allocated(p, now, &alive, &cfg);
            prop_assert_eq!(bits(&rates), vec![r.to_bits(); alive.len()], "{}", p);
        }
    }

    /// SRPT, SJF, HDF and HYB (at θ = 0, 2, 8 and ∞) select exactly the
    /// jobs that sorting the whole alive set and taking `m` selects.
    #[test]
    fn selection_matches_sort_then_take_m((alive, now) in arb_alive(), cfg in arb_cfg()) {
        let policies = [
            Policy::Srpt,
            Policy::Sjf,
            Policy::Hdf,
            Policy::Hybrid(0.0),
            Policy::Hybrid(2.0),
            Policy::Hybrid(8.0),
            Policy::Hybrid(f64::INFINITY),
        ];
        for p in policies {
            let want = oracle_rates(p, now, &alive, &cfg);
            let got = allocated(p, now, &alive, &cfg);
            prop_assert_eq!(bits(&got), bits(&want), "{} with n = {}, m = {}", p, alive.len(), cfg.m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy produces a feasible, work-conserving-enough schedule
    /// that completes all jobs, on every trace and machine setup.
    #[test]
    fn all_policies_produce_valid_schedules(t in arb_trace(), m in 1usize..4, s in 0.5f64..3.0) {
        let cfg = MachineConfig::with_speed(m, s);
        for p in Policy::all() {
            let mut alloc = p.make();
            let sched = simulate(&t, alloc.as_mut(), cfg, SimOptions::with_profile()).unwrap();
            // The adaptive stepper (AgedRR) carries bounded integration
            // error; allow a looser tolerance for it.
            let tol = if p == Policy::AgedRr { 2e-2 } else { 1e-6 };
            let rep = validate_schedule(&t, &sched, tol);
            prop_assert!(rep.ok(), "{p}: {:?}", rep.issues);
        }
    }

    /// SRPT is optimal for total (ℓ1) flow time on a single machine: no
    /// other policy in the registry beats it there.
    #[test]
    fn srpt_minimizes_total_flow_on_one_machine(t in arb_trace()) {
        let cfg = MachineConfig::new(1);
        let mut srpt = Policy::Srpt.make();
        let best = simulate(&t, srpt.as_mut(), cfg, SimOptions::default()).unwrap().total_flow();
        for p in Policy::all() {
            let mut alloc = p.make();
            let f = simulate(&t, alloc.as_mut(), cfg, SimOptions::default()).unwrap().total_flow();
            prop_assert!(best <= f + 1e-6 * f.max(1.0), "{p} beat SRPT: {f} < {best}");
        }
    }

    /// On a single machine every non-idling policy has the same makespan
    /// (work conservation): the last completion equals the busy-period end.
    #[test]
    fn single_machine_makespan_is_policy_independent(t in arb_trace()) {
        let cfg = MachineConfig::new(1);
        // LAPS with β<1 and FCFS/SJF/SRPT/SETF/RR are all non-idling on one
        // machine (some job always runs at full rate... except shared-rate
        // policies still saturate the machine when n≥1).
        let mut reference = None;
        for p in [Policy::Rr, Policy::Srpt, Policy::Sjf, Policy::Setf, Policy::Fcfs, Policy::Laps(0.5)] {
            let mut alloc = p.make();
            let mk = simulate(&t, alloc.as_mut(), cfg, SimOptions::default()).unwrap().makespan();
            match reference {
                None => reference = Some(mk),
                Some(r) => prop_assert!((mk - r).abs() < 1e-6, "{p}: makespan {mk} vs {r}"),
            }
        }
    }

    /// The SRPT+FCFS hybrid with θ → ∞ never promotes anyone: its
    /// schedule is bitwise identical to SRPT on every trace and machine
    /// setup.
    #[test]
    fn hybrid_infinite_threshold_is_bitwise_srpt(t in arb_trace(), m in 1usize..4, s in 0.5f64..3.0) {
        let cfg = MachineConfig::with_speed(m, s);
        let mut srpt = Policy::Srpt.make();
        let a = simulate(&t, srpt.as_mut(), cfg, SimOptions::default()).unwrap();
        let mut hyb = Policy::Hybrid(f64::INFINITY).make();
        let b = simulate(&t, hyb.as_mut(), cfg, SimOptions::default()).unwrap();
        for j in 0..t.len() {
            prop_assert_eq!(
                a.completion[j].to_bits(), b.completion[j].to_bits(),
                "job {} diverged: SRPT {} vs HYB(inf) {}", j, a.completion[j], b.completion[j]
            );
        }
    }

    /// The hybrid with θ = 0 promotes everyone instantly: the starving
    /// class is all of the alive set, served in FCFS order — bitwise FCFS.
    #[test]
    fn hybrid_zero_threshold_is_bitwise_fcfs(t in arb_trace(), m in 1usize..4, s in 0.5f64..3.0) {
        let cfg = MachineConfig::with_speed(m, s);
        let mut fcfs = Policy::Fcfs.make();
        let a = simulate(&t, fcfs.as_mut(), cfg, SimOptions::default()).unwrap();
        let mut hyb = Policy::Hybrid(0.0).make();
        let b = simulate(&t, hyb.as_mut(), cfg, SimOptions::default()).unwrap();
        for j in 0..t.len() {
            prop_assert_eq!(
                a.completion[j].to_bits(), b.completion[j].to_bits(),
                "job {} diverged: FCFS {} vs HYB(0) {}", j, a.completion[j], b.completion[j]
            );
        }
    }

    /// RR's max flow never exceeds FCFS's max flow by more than the largest
    /// job's processing time... is false in general; instead test a true
    /// invariant: under RR, flow times are monotone in job size among jobs
    /// with equal arrivals (larger twins finish no earlier).
    #[test]
    fn rr_larger_same_arrival_jobs_finish_later(arr in 0.0f64..10.0,
                                                s1 in 0.1f64..5.0, delta in 0.1f64..5.0,
                                                extra in prop::collection::vec((0.0f64..20.0, 0.1f64..5.0), 0..10)) {
        let mut pairs = vec![(arr, s1), (arr, s1 + delta)];
        pairs.extend(extra);
        let t = Trace::from_pairs(pairs).unwrap();
        // Locate the two jobs by (arrival,size).
        let small = t.jobs().iter().find(|j| j.arrival == arr && j.size == s1).unwrap().id;
        let large = t.jobs().iter().find(|j| j.arrival == arr && j.size == s1 + delta).unwrap().id;
        let mut rr = Policy::Rr.make();
        let s = simulate(&t, rr.as_mut(), MachineConfig::new(2), SimOptions::default()).unwrap();
        prop_assert!(s.completion[small as usize] <= s.completion[large as usize] + 1e-9);
    }
}
