//! Pins the complete stdout of `exp_all --scale quick` byte for byte
//! against `tests/golden/exp_all_quick.txt`.
//!
//! The output is a pure function of the experiments' seeds: identical at
//! any thread or shard count and in debug and release builds. Any change
//! to a simulated number, a table layout or the experiment list fails
//! here. Regenerate after an intentional change with
//! `scripts/ci.sh --bless` (sets `ECOSCALE_BLESS=1`).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn exp_all_quick_stdout_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_all"))
        .args(["--scale", "quick"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "exp_all failed: {out:?}");
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "exp_all_quick.txt",
    ]
    .iter()
    .collect();
    if std::env::var("ECOSCALE_BLESS").is_ok_and(|v| v == "1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run scripts/ci.sh --bless",
            path.display()
        )
    });
    if let Some((n, (a, e))) = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, e))| a != e)
    {
        panic!(
            "exp_all output drifted from {} at line {}:\n  expected: {e}\n  actual:   {a}\n\
             if intentional, run scripts/ci.sh --bless",
            path.display(),
            n + 1
        );
    }
    assert_eq!(
        actual,
        expected,
        "exp_all output drifted from {}; if intentional, run scripts/ci.sh --bless",
        path.display()
    );
}
