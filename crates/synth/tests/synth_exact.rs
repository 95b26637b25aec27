//! Differential wall: the pruned search emits exactly the fronts of a
//! reference that costs every candidate in both objectives, with no
//! prune. Points, their order and menu flags, `menu_best_ps` and winners
//! must all be identical, and `runs` must count exactly the distinct
//! programs the search needed. Real bounds are rarely tight, so the scan is
//! also driven on synthetic groups full of tight bounds and exact ties,
//! where a non-strict skip would first show.

use han_colls::{Coll, IntraModule};
use han_core::HanConfig;
use han_machine::{mini, mini3, MachinePreset};
use han_sim::Time;
use han_synth::search::LAT_PROBE;
use han_synth::{
    candidates, default_space, pareto_front, synthesize, Front, FrontPoint, SynthOpts,
};
use han_tuner::{cost_each, lower_bound, run_group, CostCache, GroupCand, Outcome, SearchSpace};
use std::collections::HashSet;

const COLLS: [Coll; 3] = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];

/// Cost every candidate of every group at `m` and at the latency probe,
/// and build each group's front from all of them, fed in the order the
/// search feeds its samples: the menu in enumeration order, then the
/// extras by `(bound at m, index)`.
fn brute_force(preset: &MachinePreset, space: &SearchSpace, colls: &[Coll]) -> Vec<Front> {
    let mut fronts = Vec::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            let cands = candidates(space, preset, coll, m);
            let mut jobs: Vec<(Coll, u64, HanConfig)> = Vec::new();
            for c in &cands {
                jobs.push((coll, m, c.cfg));
                jobs.push((coll, m.clamp(1, LAT_PROBE), c.cfg));
            }
            let costs = cost_each(&CostCache::new(preset), &jobs, None);
            let mut order: Vec<usize> = (0..cands.len()).collect();
            order.sort_by_key(|&i| {
                let c = &cands[i];
                let bound = lower_bound(preset, &c.cfg, coll, m).unwrap_or(Time::ZERO);
                (!c.menu, if c.menu { Time::ZERO } else { bound }, i)
            });
            let points: Vec<FrontPoint> = order
                .iter()
                .map(|&i| FrontPoint {
                    cfg: cands[i].cfg,
                    menu: cands[i].menu,
                    lat_ps: costs[2 * i + 1].clone().unwrap().as_ps(),
                    bw_ps: costs[2 * i].clone().unwrap().as_ps(),
                })
                .collect();
            let menu_best_ps = points.iter().filter(|p| p.menu).map(|p| p.bw_ps).min();
            fronts.push(Front {
                coll,
                m,
                points: pareto_front(points),
                menu_best_ps,
            });
        }
    }
    fronts
}

fn assert_exact(preset: &MachinePreset, space: &SearchSpace, colls: &[Coll]) -> u64 {
    let got = synthesize(preset, space, colls, SynthOpts::default());
    let want = brute_force(preset, space, colls);
    assert!(got.skipped.is_empty(), "{}: {:?}", preset.name, got.skipped);
    assert_eq!(got.fronts.len(), want.len(), "{}", preset.name);
    for (g, w) in got.fronts.iter().zip(&want) {
        let what = format!("{} {:?} m={}", preset.name, w.coll, w.m);
        assert_eq!((g.coll, g.m), (w.coll, w.m), "{what}");
        assert_eq!(g.menu_best_ps, w.menu_best_ps, "{what}: menu best");
        assert_eq!(g.winner(), w.winner(), "{what}: winner");
        assert_eq!(g.points, w.points, "{what}: front");
    }
    assert_eq!(
        got.simulated + got.pruned,
        got.candidates,
        "{}",
        preset.name
    );
    // Distinct programs: every candidate's latency probe, plus the
    // bandwidth program of each costed candidate above the probe size.
    let topo = &preset.topology;
    let mut programs = HashSet::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            let lat_m = m.clamp(1, LAT_PROBE);
            for c in candidates(space, preset, coll, m) {
                programs.insert((coll, lat_m, c.cfg.effective(topo, coll, lat_m)));
            }
        }
    }
    for s in got.samples.iter().filter(|s| s.m > LAT_PROBE) {
        programs.insert((s.coll, s.m, s.cfg.effective(topo, s.coll, s.m)));
    }
    assert_eq!(got.runs, programs.len() as u64, "{}: runs", preset.name);
    got.pruned
}

#[test]
fn pruned_search_equals_brute_force_on_the_default_space() {
    for preset in [mini(2, 2), mini3(2, 2, 2)] {
        let pruned = assert_exact(&preset, &default_space(), &COLLS);
        assert!(pruned > 0, "{}: the scan pruned nothing", preset.name);
    }
}

#[test]
fn pruned_search_equals_brute_force_where_the_beam_lost_a_point() {
    // The paper-scale group whose interior front point the old beam
    // dropped: `iralg=binomial` beats the menu's `iralg=binary` at the
    // same latency.
    let space = SearchSpace {
        msg_sizes: vec![2 << 20],
        seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
        inter: SearchSpace::standard().inter,
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    };
    let pruned = assert_exact(&mini(4, 4), &space, &[Coll::Allreduce]);
    assert!(pruned > 0);
}

#[test]
fn scan_equals_brute_force_on_tight_bounds_and_ties() {
    // A synthetic group: few distinct latencies and costs, so exact ties
    // abound, and bounds that equal the cost half the time.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for round in 0..4000 {
        let n = 2 + next(12) as usize;
        let cands: Vec<(GroupCand, Time)> = (0..n)
            .map(|_| {
                let cost = 10 + next(4);
                let slack = [0, 0, 1, 3][next(4) as usize];
                let scan = GroupCand {
                    bound: (next(8) != 0).then(|| Time::from_ps(cost - slack)),
                    lat: Time::from_ps(1 + next(3)),
                    menu: next(3) == 0,
                };
                (scan, Time::from_ps(cost))
            })
            .collect();
        let scan: Vec<GroupCand> = cands.iter().map(|c| c.0).collect();
        let outcomes = run_group(&scan, |i| Ok(cands[i].1));
        let front = |keep: &dyn Fn(usize) -> bool| {
            let mut order: Vec<usize> = (0..n).filter(|&i| keep(i)).collect();
            order.sort_by_key(|&i| {
                let c = &scan[i];
                let bound = if c.menu {
                    Time::ZERO
                } else {
                    c.bound.unwrap_or(Time::ZERO)
                };
                (!c.menu, bound, i)
            });
            let points: Vec<FrontPoint> = order
                .iter()
                .map(|&i| FrontPoint {
                    // The index tells the candidates apart.
                    cfg: HanConfig::default().with_fs(i as u64 + 1),
                    menu: scan[i].menu,
                    lat_ps: scan[i].lat.as_ps(),
                    bw_ps: cands[i].1.as_ps(),
                })
                .collect();
            let menu_best = points.iter().filter(|p| p.menu).map(|p| p.bw_ps).min();
            (pareto_front(points), menu_best)
        };
        let costed = |i: usize| outcomes[i] == Outcome::Cost(Ok(cands[i].1));
        assert!((0..n).all(|i| costed(i) || outcomes[i] == Outcome::Pruned));
        assert_eq!(front(&costed), front(&|_| true), "round {round}: {cands:?}");
    }
}
