//! Golden-file regression for the Fig. 8 tuning sweep: the winner table
//! of a reduced-scale exhaustive (bound-pruned) sweep on the mini tuning
//! machine is pinned in `tests/golden/fig8_winners.json`. Any change to
//! the simulator, the builders, or the tuner that shifts a winner — or
//! its cost by more than a float-tolerance — fails here with a diff.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! HAN_BLESS=1 cargo test --test golden_fig8
//! ```

use han::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One pinned winner row. The config is pinned by its display form —
/// stable, diff-friendly, and exactly as reports print it.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenRow {
    coll: String,
    m: u64,
    cfg: String,
    cost_ps: u64,
}

/// Cost drift tolerance: winners must match exactly, costs within 0.01%.
/// The simulator is deterministic, so today this is equality — the slack
/// only forgives representation-level churn (e.g. rounding inside a
/// refactored cost path), never a different winner.
const COST_RTOL: f64 = 1e-4;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig8_winners.json")
}

/// The reduced-scale Fig. 8 sweep: the mini tuning machine (as
/// `repro --scale mini` uses) over a trimmed message/segment grid with
/// the full algorithm space.
fn sweep_winners() -> Vec<GoldenRow> {
    let preset = shaheen2_ppn(8, 4);
    let mut space = SearchSpace::standard();
    space.msg_sizes = vec![4 * 1024, 64 * 1024, 1 << 20];
    space.seg_sizes = vec![16 * 1024, 128 * 1024, 512 * 1024];
    let r = tune(
        &preset,
        &space,
        &[Coll::Bcast, Coll::Allreduce],
        Strategy::Exhaustive,
    );
    assert!(r.skipped.is_empty(), "unexpected skips: {:?}", r.skipped);
    r.table
        .entries
        .iter()
        .map(|e| GoldenRow {
            coll: e.coll.clone(),
            m: e.m,
            cfg: e.cfg.to_string(),
            cost_ps: e.cost_ps,
        })
        .collect()
}

#[test]
fn fig8_winner_table_matches_golden() {
    let got = sweep_winners();
    let path = golden_path();
    if std::env::var("HAN_BLESS").is_ok() {
        let json = serde_json::to_string_pretty(&got).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        println!("blessed {} rows into {}", got.len(), path.display());
        return;
    }
    let golden: Vec<GoldenRow> =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run HAN_BLESS=1",
                path.display()
            )
        }))
        .expect("golden file parses");

    assert_eq!(
        got.len(),
        golden.len(),
        "winner table size changed (got {}, golden {})",
        got.len(),
        golden.len()
    );
    for (g, want) in got.iter().zip(&golden) {
        assert_eq!(
            (g.coll.as_str(), g.m),
            (want.coll.as_str(), want.m),
            "table rows reordered"
        );
        assert_eq!(
            g.cfg, want.cfg,
            "winner changed for {} m={}: got [{}], golden [{}]",
            g.coll, g.m, g.cfg, want.cfg
        );
        let rel = (g.cost_ps as f64 - want.cost_ps as f64).abs() / (want.cost_ps.max(1) as f64);
        assert!(
            rel <= COST_RTOL,
            "cost drifted for {} m={}: got {} ps, golden {} ps (rel {rel:.2e})",
            g.coll,
            g.m,
            g.cost_ps,
            want.cost_ps
        );
    }
}
