//! Exact schedule search: every candidate's latency is costed, and its
//! bandwidth cost unless a costed sample provably beats it.
//!
//! **Phase 1** costs the latency probe (`min(m, LAT_PROBE)` bytes) of
//! every candidate of every `(coll, m)` group through the tuner's
//! full-space sweep ([`cost_each`]). It is cheap: the probes of the
//! 5,568 paper-scale candidates collapse to 132 distinct programs.
//!
//! **Phase 2** runs each group through the tuner's bound-ordered scan
//! ([`run_group`]) with the exact latencies as the second objective:
//! every candidate, menu and extra alike, in ascending `(lower bound at
//! m, enumeration index)` order, skipping one whose bandwidth bound a
//! costed sample with no higher latency strictly beats (a menu candidate
//! also needs a costed menu sample below its bound). [`run_group`]
//! proves the rule leaves the Pareto front and the best menu cost
//! exactly as costing every candidate would; the bounds are admissible
//! (`bound ≤ cost`, pinned by the `synth-bound-soundness` guideline).
//! Groups are `sweep_groups` jobs, largest message first, each a
//! deterministic sequential scan.
//!
//! Both phases cost through one [`CostCache`], so one simulation serves
//! every candidate that builds the same program ([`CostCache::key`]:
//! collective, size and [`HanConfig::effective`] config), and a
//! bandwidth program identical to its latency probe (`m ≤ LAT_PROBE`)
//! is the probe's entry. [`SynthResult::runs`] counts the cache's
//! collective entries: the distinct programs. Phase 1 simulates each key
//! once ([`cost_each`] plans one job per key); a phase-2 key carries its
//! group's `(coll, m)`, so no two groups share one, and a group scans
//! sequentially. Each key is therefore simulated once, and the count is
//! the same for every worker count.

use crate::pareto::{pareto_front, Front, FrontPoint};
use crate::space::{candidates, Candidate};
use han_colls::stack::Unsupported;
use han_colls::Coll;
use han_core::HanConfig;
use han_decide::LookupTable;
use han_machine::{Machine, MachinePreset};
use han_sim::Time;
use han_tuner::{
    cost_each, largest_first, lower_bound, run_group, sweep_groups, CostCache, GroupCand, Outcome,
    SearchSpace,
};

/// Knobs for [`synthesize`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthOpts {
    /// Worker threads (`None` = available parallelism). The emitted
    /// fronts are bit-identical for every worker count.
    pub workers: Option<usize>,
}

/// The latency objective probes each schedule at `min(m, LAT_PROBE)`
/// bytes.
pub const LAT_PROBE: u64 = 4096;

/// One costed schedule (kept for the verify guidelines and reports).
#[derive(Debug, Clone)]
pub struct SynthSample {
    pub coll: Coll,
    pub m: u64,
    pub cfg: HanConfig,
    pub menu: bool,
    /// Simulated cost at the latency probe size.
    pub lat: Time,
    /// Simulated cost at the full message size.
    pub bw: Time,
    /// Analytic lower bounds at the two sizes (when the model covers the
    /// collective) — `synth-bound-soundness` checks `bound ≤ cost`.
    pub bound_lat: Option<Time>,
    pub bound_bw: Option<Time>,
}

/// A candidate the scan pruned: its latency is costed, its bandwidth
/// cost is not. The guidelines simulate it to check both the bound and
/// the skip.
#[derive(Debug, Clone)]
pub struct PrunedCandidate {
    pub coll: Coll,
    pub m: u64,
    pub cfg: HanConfig,
    pub menu: bool,
    /// Simulated cost at the latency probe size.
    pub lat: Time,
    pub bound_lat: Option<Time>,
    /// The bandwidth bound a costed sample beat (a candidate without one
    /// is never pruned).
    pub bound_bw: Time,
}

/// The synthesis outcome across every `(coll, m)` group.
#[derive(Debug)]
pub struct SynthResult {
    pub fronts: Vec<Front>,
    pub samples: Vec<SynthSample>,
    /// Every pruned candidate, group by group in scan-output order.
    pub pruned_candidates: Vec<PrunedCandidate>,
    /// Candidates enumerated.
    pub candidates: u64,
    /// Candidates costed in both objectives whose collective the stack
    /// supports, one sample each.
    pub simulated: u64,
    /// Distinct programs simulated ([`CostCache::key`]s costed): every
    /// latency probe, plus each bandwidth program a probe did not
    /// already cost.
    pub runs: u64,
    /// Candidates whose bandwidth cost the scan skipped.
    pub pruned: u64,
    /// Always 0: the search has no beam. Kept because the benchmark
    /// reports it as `synth.beamed`.
    pub beamed: u64,
    pub skipped: Vec<Unsupported>,
}

impl SynthResult {
    pub fn front(&self, coll: Coll, m: u64) -> Option<&Front> {
        self.fronts.iter().find(|f| f.coll == coll && f.m == m)
    }

    /// Groups whose synthesized winner strictly beats the menu winner.
    pub fn strict_wins(&self) -> usize {
        self.fronts.iter().filter(|f| f.strict_win()).count()
    }

    /// Merge every front winner into a lookup table via
    /// [`LookupTable::upsert`] (never regressing an entry). Returns how
    /// many entries changed.
    pub fn apply_to(&self, table: &mut LookupTable) -> usize {
        let mut changed = 0;
        for f in &self.fronts {
            if let Some(w) = f.winner() {
                if table.upsert(f.coll, f.m, w.cfg, Time::from_ps(w.bw_ps)) {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// A fresh lookup table holding only the synthesized winners.
    pub fn table_for(&self, preset: &MachinePreset) -> LookupTable {
        let mut t = LookupTable::for_topology(&preset.topology);
        self.apply_to(&mut t);
        t
    }
}

/// One `(coll, m)` group and its candidates' latency probe costs.
struct Group {
    coll: Coll,
    m: u64,
    cands: Vec<Candidate>,
    lat: Vec<Result<Time, Unsupported>>,
}

/// One group's phase-2 output, per candidate in enumeration order: its
/// bounds at the two sizes and its scan outcome (the probe's error when
/// its latency probe was unsupported).
struct Scanned {
    bound_bw: Vec<Option<Time>>,
    bound_lat: Vec<Option<Time>>,
    outcome: Vec<Outcome>,
}

fn scan(machine: &mut Machine, cache: &CostCache, g: &Group) -> Scanned {
    let (preset, coll, m) = (cache.preset(), g.coll, g.m);
    let lat_m = m.clamp(1, LAT_PROBE);
    let bound = |size| -> Vec<Option<Time>> {
        g.cands
            .iter()
            .map(|c| lower_bound(preset, &c.cfg, coll, size))
            .collect()
    };
    let (bound_bw, bound_lat) = (bound(m), bound(lat_m));
    // Only candidates whose probe ran take part in the scan.
    let live: Vec<(usize, Time)> = (g.lat.iter().enumerate())
        .filter_map(|(i, lat)| Some((i, *lat.as_ref().ok()?)))
        .collect();
    let scan_cands: Vec<GroupCand> = live
        .iter()
        .map(|&(i, lat)| GroupCand {
            bound: bound_bw[i],
            lat,
            menu: g.cands[i].menu,
        })
        .collect();
    let outcomes = run_group(&scan_cands, |k| {
        cache.coll_cost(machine, coll, m, g.cands[live[k].0].cfg)
    });
    let mut outcome: Vec<Outcome> = g.lat.iter().cloned().map(Outcome::Cost).collect();
    for (&(i, _), o) in live.iter().zip(outcomes) {
        outcome[i] = o;
    }
    Scanned {
        bound_bw,
        bound_lat,
        outcome,
    }
}

/// Synthesize schedules for every `(coll, m)` group of `space`,
/// returning the per-group Pareto fronts plus every costed sample.
///
/// Phase 1 costs every candidate's latency probe; phase 2 scans each
/// group for bandwidth costs (see the module docs). Samples feed the
/// front in a fixed order — the menu in enumeration order, then the
/// extras by `(bound, index)` — so ties break as they always have, and
/// the result is bit-identical for any worker count.
pub fn synthesize(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    opts: SynthOpts,
) -> SynthResult {
    let mut groups: Vec<Group> = Vec::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            let cands = candidates(space, preset, coll, m);
            groups.push(Group {
                coll,
                m,
                cands,
                lat: Vec::new(),
            });
        }
    }

    // Phase 1: every latency probe.
    let jobs: Vec<(Coll, u64, HanConfig)> = groups
        .iter()
        .flat_map(|g| {
            let lat_m = g.m.clamp(1, LAT_PROBE);
            g.cands.iter().map(move |c| (g.coll, lat_m, c.cfg))
        })
        .collect();
    let cache = CostCache::new(preset);
    let mut lats = cost_each(&cache, &jobs, opts.workers).into_iter();
    for g in &mut groups {
        g.lat = lats.by_ref().take(g.cands.len()).collect();
    }

    // Phase 2: one bound-ordered scan per group.
    let scanned = sweep_groups(
        &groups,
        &largest_first(groups.iter().map(|g| g.m)),
        opts.workers,
        || Machine::from_preset(preset),
        |machine, g| scan(machine, &cache, g),
    );

    let mut result = SynthResult {
        fronts: Vec::new(),
        samples: Vec::new(),
        pruned_candidates: Vec::new(),
        candidates: groups.iter().map(|g| g.cands.len() as u64).sum(),
        simulated: 0,
        runs: cache.stats().coll_entries as u64,
        pruned: 0,
        beamed: 0,
        skipped: Vec::new(),
    };
    for (g, sc) in groups.iter().zip(scanned) {
        let (coll, m) = (g.coll, g.m);
        let mut order: Vec<usize> = (0..g.cands.len()).collect();
        order.sort_by_key(|&i| {
            let extra = !g.cands[i].menu;
            let key = if extra {
                sc.bound_bw[i].unwrap_or(Time::ZERO)
            } else {
                Time::ZERO
            };
            (extra, key, i)
        });
        let mut samples = Vec::new();
        for i in order {
            let Candidate { cfg, menu } = g.cands[i];
            let (bound_bw, bound_lat) = (sc.bound_bw[i], sc.bound_lat[i]);
            match (&g.lat[i], &sc.outcome[i]) {
                (Err(e), _) | (_, Outcome::Cost(Err(e))) => e.clone().note_in(&mut result.skipped),
                (Ok(lat), Outcome::Cost(Ok(bw))) => samples.push(SynthSample {
                    coll,
                    m,
                    cfg,
                    menu,
                    lat: *lat,
                    bw: *bw,
                    bound_lat,
                    bound_bw,
                }),
                (Ok(lat), Outcome::Pruned) => result.pruned_candidates.push(PrunedCandidate {
                    coll,
                    m,
                    cfg,
                    menu,
                    lat: *lat,
                    bound_lat,
                    bound_bw: bound_bw.expect("only bounded candidates are pruned"),
                }),
            }
        }
        result.simulated += samples.len() as u64;
        if samples.is_empty() {
            continue;
        }
        let menu_best_ps = samples
            .iter()
            .filter(|s| s.menu)
            .map(|s| s.bw.as_ps())
            .min();
        let points: Vec<FrontPoint> = samples
            .iter()
            .map(|s| FrontPoint {
                cfg: s.cfg,
                menu: s.menu,
                lat_ps: s.lat.as_ps(),
                bw_ps: s.bw.as_ps(),
            })
            .collect();
        result.fronts.push(Front {
            coll,
            m,
            points: pareto_front(points),
            menu_best_ps,
        });
        result.samples.extend(samples);
    }
    result.pruned = result.pruned_candidates.len() as u64;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::default_space;
    use han_colls::{InterAlg, InterModule, IntraModule};
    use han_machine::{mini, mini3};

    #[test]
    fn fronts_cover_groups_and_dominate_menu() {
        let preset = mini(2, 2);
        let space = default_space();
        let colls = [Coll::Bcast, Coll::Allreduce];
        let r = synthesize(&preset, &space, &colls, SynthOpts::default());
        assert_eq!(r.fronts.len(), colls.len() * space.msg_sizes.len());
        for f in &r.fronts {
            assert!(!f.points.is_empty());
            let w = f.winner().unwrap();
            let mb = f.menu_best_ps.expect("menu simulated");
            assert!(w.bw_ps <= mb, "front winner lost to the menu at {}", f.m);
            // Front is sorted and strictly improving in bw.
            for pair in f.points.windows(2) {
                assert!(pair[0].lat_ps <= pair[1].lat_ps);
                assert!(pair[0].bw_ps > pair[1].bw_ps);
            }
        }
        assert!(r.simulated > 0);
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn winners_feed_lookup_tables() {
        let preset = mini(2, 2);
        let space = default_space();
        let r = synthesize(&preset, &space, &[Coll::Bcast], SynthOpts::default());
        let t = r.table_for(&preset);
        assert_eq!(t.entries.len(), r.fronts.len());
        for f in &r.fronts {
            let e = t.get(Coll::Bcast, f.m).unwrap();
            assert_eq!(e.cfg, f.winner().unwrap().cfg);
            assert_eq!(e.cost_ps, f.winner().unwrap().bw_ps);
        }
        // Re-applying is a fixpoint (upsert never regresses).
        let mut t2 = t.clone();
        assert_eq!(r.apply_to(&mut t2), 0);
    }

    #[test]
    fn paper_space_prunes_extras_and_menu() {
        // The paper-scale space on `mini(4, 4)`: the scan must skip
        // bandwidth runs of menu candidates and extras alike, and every
        // candidate is either costed or pruned.
        let preset = mini(4, 4);
        let space = SearchSpace {
            msg_sizes: vec![8 << 20],
            seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
            inter: SearchSpace::standard().inter,
            intra: vec![IntraModule::Sm, IntraModule::Solo],
        };
        let r = synthesize(&preset, &space, &[Coll::Allreduce], SynthOpts::default());
        assert!(r.pruned > 0, "the scan pruned nothing");
        assert_eq!(r.beamed, 0);
        assert_eq!(r.pruned, r.pruned_candidates.len() as u64);
        assert_eq!(r.simulated + r.pruned, r.candidates);
        assert!(r.pruned_candidates.iter().any(|p| p.menu));
        assert!(r.pruned_candidates.iter().any(|p| !p.menu));
    }

    #[test]
    fn equal_trees_cost_one_run() {
        // One 1 KiB segment: the only candidates are the menu's three
        // ADAPT trees, plus (for Allreduce) every decoupled reduce tree.
        let space = SearchSpace {
            msg_sizes: vec![1024],
            seg_sizes: vec![1024],
            inter: InterAlg::ALL
                .iter()
                .map(|&alg| (InterModule::Adapt, alg))
                .collect(),
            intra: vec![IntraModule::Sm],
        };
        let colls = [Coll::Bcast, Coll::Allreduce];
        let counts = |preset| {
            let r = synthesize(&preset, &space, &colls, SynthOpts::default());
            (r.simulated + r.pruned, r.runs)
        };
        // The probe size is `m`, so every bandwidth cost is its probe's
        // and the runs are the distinct probes. Two nodes: every tree is
        // the same single edge, so Chain, Binary and Binomial cost one run
        // per collective.
        assert_eq!(counts(mini3(2, 2, 2)), (3 + 9, 2));
        // Four nodes: the trees differ, and every candidate is its own run.
        assert_eq!(counts(mini(4, 4)), (3 + 9, 3 + 9));
    }
}
