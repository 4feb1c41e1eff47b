//! A benchmark run leaves the checkout as it found it: every workload, in
//! both modes, must not change `git status --porcelain --ignored` (which
//! also lists ignored paths such as `results/cache/`). Run with
//! `cargo test --release`: the hunt workload is slow unoptimized.

use std::path::Path;
use std::process::Command;

fn status(root: &Path) -> Option<String> {
    let out = Command::new("git")
        .args(["status", "--porcelain", "--ignored"])
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn a_run_leaves_the_checkout_unchanged() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let Some(before) = status(&root) else {
        eprintln!("not a git checkout; nothing to compare");
        return;
    };
    for workload in ["stream", "hunt", "serve"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_tf-perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
                .args(["--trace", trace])
                .env("TF_TRACE", "jsonl")
                .env("TF_LB_CACHE", "1")
                .current_dir(&root)
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().unwrap_or_default();
            assert!(last.starts_with("{\"correct\": true"), "{last}");
            assert_eq!(
                status(&root).as_deref(),
                Some(before.as_str()),
                "{workload} --trace {trace} changed the checkout"
            );
        }
    }
}
