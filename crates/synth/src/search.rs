//! Bound-guided schedule search with an exact simulator oracle.
//!
//! Each `(coll, m)` group simulates every Table-II menu candidate, then
//! the beyond-menu extras in ascending order of their analytic lower
//! bound at `m` (ties broken by enumeration index). When a group has more
//! extras than [`BEAM`], only the `BEAM` cheapest-bounded ones are
//! simulated. The bounds are admissible (`bound ≤ cost`, pinned by
//! the `synth-bound-soundness` guideline), so the beam drops the extras
//! least likely to reach the front; it is a heuristic, not exact.
//!
//! Menu candidates are never beamed: the emitted front always contains
//! the full Table-II sweep, which is what makes the `synth-dominance`
//! guideline (front winner never loses to the menu winner) hold
//! unconditionally.
//!
//! Every visited candidate is costed at `m` and at the latency probe
//! through the tuner's full-space sweep ([`cost_each`]), where one
//! simulation serves every candidate that builds the same program: costs
//! are keyed by `(coll, size, effective config)`
//! ([`HanConfig::effective`]), so a tree choice on a two-node machine,
//! a sub-segment past the message or a route that routes nothing costs
//! no extra run. [`SynthResult::runs`] counts the distinct programs.

use crate::pareto::{pareto_front, Front, FrontPoint};
use crate::space::{candidates, Candidate};
use han_colls::stack::Unsupported;
use han_colls::Coll;
use han_core::HanConfig;
use han_decide::LookupTable;
use han_machine::MachinePreset;
use han_sim::Time;
use han_tuner::{cost_each, lower_bound, SearchSpace};

/// Knobs for [`synthesize`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthOpts {
    /// Worker threads (`None` = available parallelism). The emitted
    /// fronts are bit-identical for every worker count.
    pub workers: Option<usize>,
}

/// Beam width over the beyond-menu extras: when a group enumerates more
/// extras than this, only the `BEAM` cheapest-bounded survive (menu
/// candidates are exempt).
pub const BEAM: usize = 96;

/// The latency objective probes each schedule at `min(m, LAT_PROBE)`
/// bytes.
pub const LAT_PROBE: u64 = 4096;

/// One simulated schedule (kept for the verify guidelines and reports).
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

/// The synthesis outcome across every `(coll, m)` group.
#[derive(Debug)]
pub struct SynthResult {
    pub fronts: Vec<Front>,
    pub samples: Vec<SynthSample>,
    /// Candidates enumerated.
    pub candidates: u64,
    /// Candidates costed: each visited candidate whose collective the
    /// stack supports, one sample each.
    pub simulated: u64,
    /// Distinct programs simulated: each visited candidate needs two
    /// costs (at `m` and at the latency probe), and candidates whose
    /// effective configs agree share them.
    pub runs: u64,
    /// Always 0: the search has no bound prune. Kept because the
    /// benchmark reports it as `synth.pruned`.
    pub pruned: u64,
    /// Candidates the beam dropped.
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

/// One group's visit list: the menu candidates in enumeration order, then
/// the extras that survive the beam, cheapest bound first — each with its
/// lower bound at the full message size.
struct Beam {
    visit: Vec<(usize, Option<Time>)>,
    beamed: u64,
}

fn beam(preset: &MachinePreset, coll: Coll, m: u64, cands: &[Candidate]) -> Beam {
    // Ties are broken by index, so the beamed set — and therefore the
    // whole scan — is deterministic.
    let bound = |i: usize| (i, lower_bound(preset, &cands[i].cfg, coll, m));
    let mut visit: Vec<(usize, Option<Time>)> = (0..cands.len())
        .filter(|&i| cands[i].menu)
        .map(bound)
        .collect();
    let mut extras: Vec<(usize, Option<Time>)> = (0..cands.len())
        .filter(|&i| !cands[i].menu)
        .map(bound)
        .collect();
    extras.sort_by_key(|&(i, b)| (b.unwrap_or(Time::ZERO), i));
    let beamed = extras.len().saturating_sub(BEAM) as u64;
    extras.truncate(BEAM);
    visit.extend(extras);
    Beam { visit, beamed }
}

/// Synthesize schedules for every `(coll, m)` group of `space`,
/// returning the per-group Pareto fronts plus every simulated sample.
///
/// The beam is fixed from the bounds first. Each visited candidate then
/// needs two costs, at `m` and at the latency probe, and [`cost_each`]
/// simulates every distinct program among them once. The samples are
/// assembled from its results in visit order, so the result is
/// bit-identical for any worker count.
pub fn synthesize(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
    opts: SynthOpts,
) -> SynthResult {
    let mut groups: Vec<(Coll, u64, Vec<Candidate>)> = Vec::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            groups.push((coll, m, candidates(space, preset, coll, m)));
        }
    }
    let beams: Vec<Beam> = groups
        .iter()
        .map(|(coll, m, cands)| beam(preset, *coll, *m, cands))
        .collect();

    // Each visited candidate's pair of jobs, in visit order: full size,
    // then latency probe.
    let mut jobs: Vec<(Coll, u64, HanConfig)> = Vec::new();
    for (&(coll, m, ref cands), b) in groups.iter().zip(&beams) {
        for &(i, _) in &b.visit {
            jobs.push((coll, m, cands[i].cfg));
            jobs.push((coll, m.clamp(1, LAT_PROBE), cands[i].cfg));
        }
    }
    let (costs, runs) = cost_each(preset, &jobs, None, opts.workers);
    let mut pairs = costs.chunks_exact(2);

    let candidates_total = groups.iter().map(|(_, _, c)| c.len() as u64).sum();
    let mut result = SynthResult {
        fronts: Vec::new(),
        samples: Vec::new(),
        candidates: candidates_total,
        simulated: 0,
        runs,
        pruned: 0,
        beamed: 0,
        skipped: Vec::new(),
    };
    for (&(coll, m, ref cands), b) in groups.iter().zip(&beams) {
        result.beamed += b.beamed;
        let lat_m = m.clamp(1, LAT_PROBE);
        let mut samples = Vec::new();
        for (&(i, bound_bw), pair) in b.visit.iter().zip(pairs.by_ref()) {
            match (&pair[0], &pair[1]) {
                (Ok(bw), Ok(lat)) => {
                    let Candidate { cfg, menu } = cands[i];
                    samples.push(SynthSample {
                        coll,
                        m,
                        cfg,
                        menu,
                        lat: *lat,
                        bw: *bw,
                        bound_lat: lower_bound(preset, &cfg, coll, lat_m),
                        bound_bw,
                    });
                }
                (Err(e), _) | (_, Err(e)) => e.clone().note_in(&mut result.skipped),
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
    fn beam_drops_extras_never_menu() {
        // The paper-scale space on `mini(4, 4)` enumerates more extras
        // than the beam keeps; building the beam computes bounds only.
        let preset = mini(4, 4);
        let space = SearchSpace {
            msg_sizes: vec![8 << 20],
            seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
            inter: SearchSpace::standard().inter,
            intra: vec![IntraModule::Sm, IntraModule::Solo],
        };
        let coll = Coll::Allreduce;
        let m = space.msg_sizes[0];
        let cands = candidates(&space, &preset, coll, m);
        let menu = cands.iter().filter(|c| c.menu).count();
        let extras = cands.len() - menu;
        assert!(extras > BEAM, "{extras} extras must exceed the beam");
        let b = beam(&preset, coll, m, &cands);
        assert_eq!(b.beamed, (extras - BEAM) as u64);
        assert_eq!(b.visit.len(), menu + BEAM);
        let visited: Vec<usize> = b.visit.iter().map(|&(i, _)| i).collect();
        for (i, c) in cands.iter().enumerate() {
            if c.menu {
                assert!(visited.contains(&i), "menu candidate {i} was beamed");
            }
        }
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
            (r.simulated, r.runs)
        };
        // Two nodes: every tree is the same single edge, so Chain, Binary
        // and Binomial cost one run per collective (the probe size is `m`).
        assert_eq!(counts(mini3(2, 2, 2)), (3 + 9, 2));
        // Four nodes: the trees differ, and every candidate is its own run.
        assert_eq!(counts(mini(4, 4)), (3 + 9, 3 + 9));
    }
}
