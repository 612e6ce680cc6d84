//! The paper's figures as the `mvc_eval` binary prints them, byte for byte.
//!
//! `tests/golden/` holds the stdout of `mvc_eval all --trials 1` and of
//! `mvc_eval trajectory`, written by the binary of the commit that made
//! `RandomGraphBuilder` skip geometrically instead of drawing one Bernoulli
//! per pair, which gave every seed a new graph.  A change that moves which
//! maximum matching is found, or any other change that should not move a
//! figure, must leave both outputs as they are.  The files are not
//! regenerated by this test: a deliberate change to a figure writes them
//! again from the changed binary and says why in CHANGES.md.

use std::path::Path;
use std::process::Command;

/// Runs `mvc_eval` with `args` and compares its stdout with the file
/// `golden` under `tests/golden/`, naming the first differing line.
fn assert_prints_golden(args: &[&str], golden: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let output = Command::new(env!("CARGO_BIN_EXE_mvc_eval"))
        .args(args)
        .output()
        .expect("mvc_eval runs");
    assert!(output.status.success(), "mvc_eval {args:?}: {output:?}");
    let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    if actual == expected {
        return;
    }
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "mvc_eval {args:?} differs from {} at line {}:\n  got:      {:?}\n  expected: {:?}",
        path.display(),
        line + 1,
        actual.lines().nth(line),
        expected.lines().nth(line),
    );
}

#[test]
fn all_figures_at_one_trial_are_golden() {
    assert_prints_golden(&["all", "--trials", "1"], "all_trials_1.txt");
}

#[test]
fn trajectory_is_golden() {
    assert_prints_golden(&["trajectory"], "trajectory.txt");
}
