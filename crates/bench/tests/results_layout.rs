//! Where `repro` writes, end to end: paper-scale two-level runs own the
//! committed `results/<name>.json` files, mini runs write under
//! `results/mini/` and three-level runs under a further `d3/`. A write
//! that fails, or a tuned table that exists but does not load, fails the
//! run with the gate's exit code instead of leaving a stale file behind.

use han_bench::gate::GATE_EXIT_CODE;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty directory of this test's own to run `repro` in.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("han-repro-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run repro")
}

fn write(dir: &Path, rel: &str, body: &str) {
    let path = dir.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, body).unwrap();
}

fn read(dir: &Path, rel: &str) -> String {
    std::fs::read_to_string(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn mini_and_three_level_runs_leave_the_paper_files_alone() {
    let dir = scratch("layout");
    let sentinel = "sentinel, not a paper-scale result";
    write(&dir, "results/fig12.json", sentinel);
    write(&dir, "results/table_stampede.json", sentinel);

    let out = repro_in(&dir, &["fig12", "--scale", "mini"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(read(&dir, "results/fig12.json"), sentinel);
    assert_eq!(read(&dir, "results/table_stampede.json"), sentinel);
    assert!(read(&dir, "results/mini/fig12.json").starts_with('['));
    assert!(read(&dir, "results/mini/table_stampede.json").contains("entries"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("results/fig12"), "stdout: {stdout}");

    let out = repro_in(&dir, &["fig6", "--scale", "mini", "--levels", "3"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(dir.join("results/mini/d3/fig6.json").is_file());
    assert!(!dir.join("results/mini/fig6.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_write_fails_the_run() {
    let dir = scratch("unwritable");
    // `results` is a regular file, so no directory can be made under it.
    write(&dir, "results", "not a directory");
    let out = repro_in(&dir, &["fig6", "--scale", "mini"]);
    assert_eq!(out.status.code(), Some(GATE_EXIT_CODE), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("results/mini/fig6.json"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_table_that_does_not_load_fails_the_run_and_is_kept() {
    let dir = scratch("bad-table");
    let garbage = "{ this is not a lookup table";
    write(&dir, "results/mini/table_stampede.json", garbage);
    let out = repro_in(&dir, &["fig12", "--scale", "mini"]);
    assert_eq!(out.status.code(), Some(GATE_EXIT_CODE), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot load results/mini/table_stampede.json"),
        "stderr: {stderr}"
    );
    assert_eq!(read(&dir, "results/mini/table_stampede.json"), garbage);
    let _ = std::fs::remove_dir_all(&dir);
}
