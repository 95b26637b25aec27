//! Where `repro` writes, end to end: paper-scale two-level runs own the
//! committed `results/<name>.json` files, mini runs write under
//! `results/mini/` and three-level runs under a further `d3/`. A write
//! that fails fails the run with the gate's exit code instead of leaving
//! a stale file behind, and a saved table is an output, never an input.

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
fn a_saved_table_is_retuned_not_reused() {
    let fresh = scratch("fresh-table");
    let out = repro_in(&fresh, &["fig12", "--scale", "mini"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let table = read(&fresh, "results/mini/table_stampede.json");
    let fig = read(&fresh, "results/mini/fig12.json");

    // A complete table for the right machine, with every entry's
    // intra-node module swapped: only a retune undoes it.
    let planted = scratch("planted-table");
    let tampered = table.replace("\"smod\": \"Sm\"", "\"smod\": \"Solo\"");
    assert_ne!(tampered, table, "the fresh table has no SM entry to tamper");
    write(&planted, "results/mini/table_stampede.json", &tampered);
    let out = repro_in(&planted, &["fig12", "--scale", "mini"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let kept = read(&planted, "results/mini/table_stampede.json");
    assert!(kept == table, "the planted table was reused, not retuned");
    assert!(
        read(&planted, "results/mini/fig12.json") == fig,
        "fig12 differs"
    );
    let _ = std::fs::remove_dir_all(&fresh);
    let _ = std::fs::remove_dir_all(&planted);
}
