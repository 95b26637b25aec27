//! The skip gate, end to end: an explicitly requested stack/collective
//! combination the stack does not implement must fail the `hansim`
//! invocation with the gate's exit code, while the `--stack all`
//! comparison (where skips are informational) stays green. Unknown flags
//! and bad flag values exit with the usage code instead.

use han_bench::gate::{GATE_EXIT_CODE, USAGE_EXIT_CODE};
use std::process::Command;

fn hansim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hansim"))
        .args(args)
        .args(["--nodes", "2", "--ppn", "2", "--bytes", "4096"])
        .output()
        .expect("run hansim")
}

#[test]
fn explicitly_requested_unsupported_stack_exits_nonzero() {
    let out = hansim(&["--stack", "cray", "--coll", "gather"]);
    assert_eq!(out.status.code(), Some(GATE_EXIT_CODE), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unsupported"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("UNEXPECTED"), "stderr: {stderr}");
}

#[test]
fn all_stack_comparison_tolerates_unsupported() {
    // The same combination is an expected skip inside the `all` sweep.
    let out = hansim(&["--stack", "all", "--coll", "gather"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("unsupported"));
}

#[test]
fn supported_combination_exits_zero() {
    let out = hansim(&["--stack", "cray", "--coll", "bcast"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// Unknown flags and bad command-line values exit with code 2 and name the
/// accepted flags or values instead of being silently ignored.
fn assert_usage_error(out: std::process::Output, accepted: &str) {
    assert_eq!(out.status.code(), Some(USAGE_EXIT_CODE), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(accepted), "stderr: {stderr}");
}

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn repro_rejects_bad_flag_values() {
    for (args, accepted) in [
        (&["fig8", "--scale", "huge"][..], "paper|mini"),
        (
            &["fig8", "--cache", "mem"],
            "unknown flag --cache; accepted flags: --scale",
        ),
        (
            &["fig2", "--scale", "mini", "--no-prun"],
            "unknown flag --no-prun;",
        ),
        (
            &["fig8", "--no-prune"],
            "unknown flag --no-prune; accepted flags: --scale --levels",
        ),
        (&["fig8", "--levels", "4"], "2|3"),
        (&["fig8", "--scale"], "missing value for --scale"),
        (
            &["fig2", "--allow-clamped"],
            "unknown flag --allow-clamped; accepted flags: --scale",
        ),
        (
            &["fig99", "--scale", "mini"],
            "unknown target 'fig99'; expected fig2|fig3|",
        ),
    ] {
        assert_usage_error(repro(args), accepted);
    }
}

#[test]
fn hansim_rejects_bad_flag_values() {
    for (args, accepted) in [
        (&["--machine", "summit"][..], "mini|shaheen2|stampede2"),
        (&["--smod", "shm"], "sm|solo"),
        (&["--imod", "tuned"], "adapt|libnbc"),
        (&["--alg", "ring"], "chain|binary|binomial"),
        (&["--fs", "64k"], "--fs expects"),
        (&["--coll", "alltoall"], "bcast|allreduce"),
        (
            &["--mode", "full"],
            "unknown flag --mode; accepted flags: --nodes",
        ),
        (&["--nodez", "2"], "unknown flag --nodez;"),
        (&["--verify"], "unknown flag --verify;"),
        (&["--stack", "mpich"], "han|tuned"),
    ] {
        assert_usage_error(hansim(args), accepted);
    }
}
