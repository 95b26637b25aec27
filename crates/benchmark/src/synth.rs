//! `synth`: schedule synthesis beyond the Table-II menu, as `repro synth`
//! runs it at paper scale.
//!
//! `han_synth::synthesize` over the paper-scale space on `mini(4,4)`,
//! `mini3(2,2,2)` and `dgx_like(2,4)` with the default options, then the
//! full-payload oracle on every Pareto-front point. This exercises the
//! executor unlike the other workloads: thousands of 8–16-rank programs,
//! full-payload mode in the oracle, beam search, and the only three-level
//! and multi-rail machines in the benchmark.

use crate::child::{Child, Rep};
use crate::stats::geomean;
use han_colls::{Coll, IntraModule};
use han_machine::{dgx_like, mini, mini3};
use han_mpi::engine_totals;
use han_synth::{synthesize, verify_schedule, Front, SynthOpts};
use han_tuner::SearchSpace;

const COLLS: [Coll; 3] = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];

/// Points ascend in latency and strictly descend in bandwidth cost.
pub fn front_is_sorted(f: &Front) -> bool {
    f.points
        .windows(2)
        .all(|w| w[0].lat_ps < w[1].lat_ps && w[0].bw_ps > w[1].bw_ps)
}

pub fn run(cx: &mut Child) -> Option<Rep> {
    let presets = [mini(4, 4), mini3(2, 2, 2), dgx_like(2, 4)];
    let space = SearchSpace {
        msg_sizes: vec![16 * 1024, 256 * 1024, 2 << 20, 8 << 20],
        seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
        inter: SearchSpace::standard().inter,
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    };
    let opts = SynthOpts::default();

    let t0 = cx.setup_done()?;
    let before = engine_totals();
    let root = cx.tracer.open("synth");
    let mut results = Vec::new();
    let mut oracle = Vec::new();
    for preset in &presets {
        let r = cx
            .tracer
            .span("synthesize", || synthesize(preset, &space, &COLLS, opts));
        for f in &r.fronts {
            for p in &f.points {
                let v = cx.tracer.span("verify_schedule", || {
                    verify_schedule(preset, &p.cfg, f.coll, f.m, 0)
                });
                oracle.push(v.map_err(|e| format!("{}: {e}", preset.name)));
            }
        }
        results.push((preset.name, r));
    }
    cx.tracer.close(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let after = engine_totals();

    for v in oracle {
        let ok = v.is_ok();
        cx.check(ok, || v.err().unwrap_or_default());
    }
    let mut winners = Vec::new();
    let mut wins = 0;
    for (name, r) in &results {
        cx.check(r.skipped.is_empty(), || {
            format!("{name}: skipped {:?}", r.skipped)
        });
        for f in &r.fronts {
            cx.check(!f.points.is_empty() && front_is_sorted(f), || {
                format!("{name} {} m={}: front not sorted", f.coll.name(), f.m)
            });
            winners.extend(f.winner().map(|w| w.bw_ps as f64 / 1e6));
        }
        wins += r.strict_wins();
    }
    cx.check(wins > 0, || "no strict beyond-menu win".to_string());

    cx.engine(&before, &after);
    if cx.tracer.enabled() {
        let sum = |f: fn(&han_synth::SynthResult) -> u64| -> f64 {
            results.iter().map(|(_, r)| f(r)).sum::<u64>() as f64
        };
        let (candidates, simulated) = (sum(|r| r.candidates), sum(|r| r.simulated));
        let (pruned, beamed) = (sum(|r| r.pruned), sum(|r| r.beamed));
        let points = sum(|r| r.fronts.iter().map(|f| f.points.len() as u64).sum());
        let search_s = cx.tracer.total_s("synthesize");
        let oracle_s = cx.tracer.total_s("verify_schedule");
        cx.layer("synth.search_s", search_s);
        cx.layer("synth.oracle_s", oracle_s);
        cx.layer("synth.candidates", candidates);
        cx.layer("synth.simulated", simulated);
        cx.layer("synth.pruned", pruned);
        cx.layer("synth.beamed", beamed);
        cx.layer("synth.front_points", points);
        cx.layer("synth.strict_wins", wins as f64);
    }
    Some(Rep {
        wall_s,
        sim_latency_us: geomean(&winners).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_core::HanConfig;
    use han_synth::FrontPoint;

    fn front(pairs: &[(u64, u64)]) -> Front {
        Front {
            coll: Coll::Bcast,
            m: 1024,
            points: pairs
                .iter()
                .map(|&(lat_ps, bw_ps)| FrontPoint {
                    cfg: HanConfig::default(),
                    menu: true,
                    lat_ps,
                    bw_ps,
                })
                .collect(),
            menu_best_ps: None,
        }
    }

    #[test]
    fn sorted_fronts_ascend_in_latency_and_descend_in_bandwidth() {
        assert!(front_is_sorted(&front(&[(1, 9), (2, 5), (4, 3)])));
        assert!(!front_is_sorted(&front(&[(1, 9), (2, 9)])));
        assert!(!front_is_sorted(&front(&[(2, 5), (1, 9)])));
    }
}
