//! The canonical exact search (`exact_slotted_opt`) against the plain
//! search it replaced (`exact_slotted_opt_reference`).
//!
//! The two must agree **bitwise**, not just within a tolerance. Both take
//! the minimum over the same set of schedule costs; they differ only in
//! the order in which a slot adds its completion costs (job order after
//! the `(arrival, size)` sort vs trace order) and in which of several
//! interchangeable states computes a value. On these instances every
//! completion cost `F^k`, and every partial sum of them, is an integer
//! below 2⁵³, so each floating-point addition is exact and the order
//! cannot change a bit of the result.

use proptest::prelude::*;
use tf_lowerbound::{exact_slotted_opt, exact_slotted_opt_reference, ExactLimits};
use tf_simcore::Trace;

/// A budget neither search reaches on these instances.
const AMPLE: ExactLimits = ExactLimits {
    max_states: usize::MAX,
};

fn assert_equivalent(t: &Trace, m: usize, k: u32) {
    let fast = exact_slotted_opt(t, m, k, AMPLE);
    let slow = exact_slotted_opt_reference(t, m, k, AMPLE);
    match (fast, slow) {
        (Some(f), Some(s)) => {
            assert_eq!(
                f.power_sum.to_bits(),
                s.power_sum.to_bits(),
                "m={m} k={k} {t:?}: canonical {} vs reference {}",
                f.power_sum,
                s.power_sum
            );
            assert!(
                f.states <= s.states,
                "m={m} k={k} {t:?}: {} canonical states > {} reference states",
                f.states,
                s.states
            );
        }
        (None, None) => {}
        (f, s) => panic!("m={m} k={k} {t:?}: canonical {f:?} vs reference {s:?}"),
    }
}

fn trace(pairs: &[(u16, u16)]) -> Trace {
    Trace::from_pairs(pairs.iter().map(|&(a, p)| (f64::from(a), f64::from(p)))).unwrap()
}

/// Instances the experiments and the benchmark solve: E11's tiny
/// instances, the instances the four benchmarked hunts mine (RR at speeds
/// 1 and 1.5, HYB, ML on two machines), and the E19/E21 quick-effort
/// mined rows. Checked on one to three machines.
const CORPUS: &[&[(u16, u16)]] = &[
    // E11c
    &[(0, 1), (0, 4), (1, 1), (2, 2)],
    &[(0, 2), (0, 2), (0, 2)],
    &[(0, 3), (1, 1), (2, 3), (4, 1), (4, 1)],
    &[(0, 4), (0, 1), (3, 1), (3, 1), (6, 2)],
    // hunt pins
    &[(0, 3), (0, 3), (2, 2), (2, 2), (2, 2), (7, 1)],
    &[(0, 3), (0, 3), (0, 3), (2, 2), (2, 2), (5, 1)],
    &[(1, 2), (2, 4), (3, 2), (5, 1), (6, 3), (7, 2)],
    &[(3, 4), (3, 1), (3, 1), (3, 1), (3, 4), (3, 1)],
    // E19 quick mined rows (the remaining ones are hunt pins above)
    &[(0, 3), (0, 3), (0, 3), (2, 2), (2, 2), (2, 2)],
    &[(2, 4), (2, 4), (2, 4), (3, 3), (3, 3), (3, 3)],
    &[(2, 3), (2, 3), (2, 3), (2, 3), (2, 3), (2, 3)],
];

/// The E19 and E21 (HYB) full-effort mined rows: seven jobs, checked on
/// the one machine they were mined for (the reference is slow beyond
/// that).
const FULL_EFFORT_ROWS: &[&[(u16, u16)]] = &[
    &[(1, 4), (3, 2), (3, 2), (6, 1), (6, 1), (6, 1), (6, 1)],
    &[(3, 4), (3, 4), (3, 4), (3, 4), (6, 3), (6, 3), (6, 3)],
    &[(0, 4), (0, 4), (0, 4), (2, 3), (2, 3), (2, 3), (6, 2)],
    &[(6, 3), (6, 3), (6, 3), (6, 3), (6, 3), (6, 3), (6, 3)],
    &[(9, 4), (9, 4), (9, 4), (9, 4), (9, 4), (9, 4), (9, 4)],
    &[(1, 4), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1)],
];

#[test]
fn canonical_search_matches_reference_on_the_corpus() {
    for pairs in CORPUS {
        let t = trace(pairs);
        for m in 1..=3 {
            for k in 1..=3 {
                assert_equivalent(&t, m, k);
            }
        }
    }
    for pairs in FULL_EFFORT_ROWS {
        for k in 1..=3 {
            assert_equivalent(&trace(pairs), 1, k);
        }
    }
}

/// Hunt-shaped instances: up to 7 jobs, arrivals 0–9, sizes 1–4.
fn arb_hunt_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u16..=9, 1u16..=4), 1..=7).prop_map(|pairs| trace(&pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bitwise-equal optimum, never more states, and `None` exactly when
    /// the reference gives `None`.
    #[test]
    fn canonical_search_matches_reference(t in arb_hunt_trace(), m in 1usize..=3, k in 1u32..=3) {
        assert_equivalent(&t, m, k);
    }
}
