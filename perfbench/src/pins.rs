//! Pinned outputs. `pins.txt` holds one line per (workload, seed):
//! `<workload> <seed> <fingerprint>`, where the fingerprint spells out the
//! checked outputs bit for bit. Regenerate a line with
//! `... -- --workload <w> --seed <n> --pin` and review the diff: a changed
//! pin means the program's output changed.

const PINS: &str = include_str!("pins.txt");

/// The pinned fingerprint of `workload` at `seed`, if that seed is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<&'static str> {
    PINS.lines().find_map(|line| {
        let rest = line.strip_prefix(workload)?.strip_prefix(' ')?;
        let (s, fingerprint) = rest.split_once(' ')?;
        (s.parse::<u64>().ok()? == seed).then_some(fingerprint)
    })
}

/// Check `fingerprint` against the pin for `seed`. Unpinned seeds pass
/// with a note: the workload's own invariant checks still apply.
pub fn matches(workload: &str, seed: u64, fingerprint: &str) -> bool {
    match pinned(workload, seed) {
        Some(pin) => pin == fingerprint,
        None => true,
    }
}
