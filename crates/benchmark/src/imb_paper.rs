//! `imb-paper`: the HAN columns of Figs. 10 and 13 at paper scale.
//!
//! Bcast and Allreduce over 4 B – 128 MiB on 4096 simulated ranks
//! (Shaheen II, 128 × 32), root 0, HAN configured from the committed
//! `results/table_shaheen.json` — loaded, never re-tuned. Each size is
//! one cold `build_coll` and one timing-only `execute`: big single
//! programs with no tuner, cache, template or delta re-simulation in the
//! way, so this workload isolates program build and the executor.
//!
//! Every makespan must equal the HAN column committed in
//! `results/fig10.json` (Bcast) and `results/fig13.json` (Allreduce).

use crate::child::{Child, Rep};
use crate::stats::geomean;
use han_colls::stack::build_coll;
use han_colls::{Coll, MpiStack};
use han_core::Han;
use han_machine::{shaheen2_ppn, Machine};
use han_mpi::{engine_totals, execute, ExecOpts};
use han_tuner::space::pow2_range;
use han_tuner::LookupTable;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAX_MSG: u64 = 128 << 20;

/// The committed figure data each collective's makespans must match.
const GOLDEN: [(Coll, &str); 2] = [(Coll::Bcast, "fig10.json"), (Coll::Allreduce, "fig13.json")];

fn results_dir() -> PathBuf {
    Path::new(crate::REPO_ROOT).join("results")
}

/// The `"HAN"` column of a committed IMB figure file (`[[bytes,
/// [[stack, ps], ...]], ...]`), keyed by message size.
pub fn han_column(text: &str) -> Result<BTreeMap<u64, u64>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let rows = doc.as_array().ok_or("figure file is not a list")?;
    let mut out = BTreeMap::new();
    for row in rows {
        let bytes = row[0].as_u64().ok_or("row without a size")?;
        let stacks = row[1].as_array().ok_or("row without stacks")?;
        let han = stacks
            .iter()
            .find(|s| s[0].as_str() == Some("HAN"))
            .and_then(|s| s[1].as_u64())
            .ok_or_else(|| format!("no HAN value at {bytes} B"))?;
        out.insert(bytes, han);
    }
    Ok(out)
}

/// Compare one simulated makespan against the golden column: `None` when
/// it matches, else what is wrong.
pub fn makespan_mismatch(
    coll: Coll,
    golden: &BTreeMap<u64, u64>,
    m: u64,
    ps: u64,
) -> Option<String> {
    match golden.get(&m) {
        Some(&want) if want == ps => None,
        Some(&want) => Some(format!(
            "{} m={m}: makespan {ps} ps, committed {want} ps",
            coll.name()
        )),
        None => Some(format!("{} m={m}: no committed makespan", coll.name())),
    }
}

pub fn run(cx: &mut Child) -> Option<Rep> {
    let preset = shaheen2_ppn(128, 32);
    let dir = results_dir();
    let table =
        LookupTable::load(&dir.join("table_shaheen.json")).expect("results/table_shaheen.json");
    let golden: Vec<(Coll, BTreeMap<u64, u64>)> = GOLDEN
        .iter()
        .map(|&(coll, file)| {
            let text = std::fs::read_to_string(dir.join(file)).expect("committed figure file");
            (coll, han_column(&text).expect("figure file parses"))
        })
        .collect();
    let han = Han::tuned(Arc::new(table));
    let mut machine = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(han.flavor().p2p());
    let sizes = pow2_range(4, MAX_MSG);

    let t0 = cx.setup_done()?;
    let before = engine_totals();
    let root = cx.tracer.open("imb-paper");
    let (mut ops, mut events) = (0u64, 0u64);
    let mut makespans: Vec<(Coll, Vec<(u64, u64)>)> = Vec::new();
    for &(coll, _) in &GOLDEN {
        let mut column = Vec::new();
        for &m in &sizes {
            let prog = cx
                .tracer
                .span("build_coll", || build_coll(&han, &preset, coll, m, 0))
                .expect("HAN implements Bcast and Allreduce");
            let report = cx
                .tracer
                .span("execute", || execute(&mut machine, &prog, &opts));
            ops += prog.ops.len() as u64;
            events += report.events;
            column.push((m, report.makespan.as_ps()));
        }
        makespans.push((coll, column));
    }
    cx.tracer.close(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let after = engine_totals();

    for ((coll, want), (_, got)) in golden.iter().zip(&makespans) {
        for &(m, ps) in got {
            let bad = makespan_mismatch(*coll, want, m, ps);
            cx.check(bad.is_none(), || bad.unwrap_or_default());
        }
    }
    let us: Vec<f64> = makespans
        .iter()
        .flat_map(|(_, c)| c.iter().map(|&(_, ps)| ps as f64 / 1e6))
        .collect();

    cx.engine(&before, &after);
    if cx.tracer.enabled() {
        let build_s = cx.tracer.total_s("build_coll");
        let exec_s = cx.tracer.total_s("execute");
        cx.layer("colls.build_s", build_s);
        cx.layer("colls.build_ns_per_op", 1e9 * build_s / ops.max(1) as f64);
        cx.layer("mpi.exec_s", exec_s);
        cx.layer("mpi.exec_events_per_s", events as f64 / exec_s.max(1e-9));
        cx.layer("mpi.ops", ops as f64);
    }
    Some(Rep {
        wall_s,
        sim_latency_us: geomean(&us).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(file: &str) -> BTreeMap<u64, u64> {
        let text = std::fs::read_to_string(results_dir().join(file)).unwrap();
        han_column(&text).unwrap()
    }

    #[test]
    fn committed_figures_cover_the_sweep() {
        for (_, file) in GOLDEN {
            let col = committed(file);
            let sizes: Vec<u64> = col.keys().copied().collect();
            assert_eq!(sizes, pow2_range(4, MAX_MSG), "{file}");
        }
    }

    #[test]
    fn check_catches_a_tampered_makespan() {
        for (coll, file) in GOLDEN {
            let golden = committed(file);
            let mut got: Vec<(u64, u64)> = golden.iter().map(|(&m, &ps)| (m, ps)).collect();
            got[7].1 += 1;
            got.push((3, 1));
            let bad: Vec<String> = got
                .iter()
                .filter_map(|&(m, ps)| makespan_mismatch(coll, &golden, m, ps))
                .collect();
            assert_eq!(bad.len(), 2, "{bad:?}");
            assert!(bad[0].contains(&format!("m={}", got[7].0)), "{}", bad[0]);
            assert!(bad[1].contains("no committed makespan"), "{}", bad[1]);
        }
    }

    #[test]
    fn figure_parse_errors_are_reported() {
        assert!(han_column("{}").is_err());
        assert!(han_column("[[4, [[\"Cray MPI\", 7]]]]").is_err());
        let col = han_column("[[4, [[\"Cray MPI\", 7], [\"HAN\", 9]]]]").unwrap();
        assert_eq!(col[&4], 9);
    }
}
