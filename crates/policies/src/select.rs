//! Run the `m` jobs that come first in a policy's priority order.

use std::cmp::Ordering;
use tf_simcore::MachineConfig;

/// Give one machine of speed `s` to each of the `cfg.m` alive jobs that
/// come first under `cmp`, an order on indices into the alive set (and
/// into `rates`, which has one slot per alive job).
///
/// `cmp` must be a strict total order — the policies tie-break on `seq`,
/// which is unique among alive jobs — so the selected set is unique and
/// the rates equal those of sorting every index and taking the first `m`.
/// Selecting costs a linear scan for `m = 1` and an `O(n)`
/// `select_nth_unstable_by` otherwise, where the sort cost `O(n log n)`.
/// `order` is scratch.
pub(crate) fn run_first_m(
    cfg: &MachineConfig,
    rates: &mut [f64],
    order: &mut Vec<usize>,
    mut cmp: impl FnMut(&usize, &usize) -> Ordering,
) {
    let (n, m) = (rates.len(), cfg.m);
    if n <= m {
        rates.fill(cfg.speed);
    } else if m == 1 {
        let mut best = 0;
        for i in 1..n {
            if cmp(&i, &best) == Ordering::Less {
                best = i;
            }
        }
        rates[best] = cfg.speed;
    } else {
        order.clear();
        order.extend(0..n);
        order.select_nth_unstable_by(m - 1, cmp);
        for &i in &order[..m] {
            rates[i] = cfg.speed;
        }
    }
}
