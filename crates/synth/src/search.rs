//! Bound-guided schedule search with an exact simulator oracle.
//!
//! Each `(coll, m)` group simulates every Table-II menu candidate, then
//! the beyond-menu extras in ascending order of their analytic lower
//! bound at `m` (ties broken by enumeration index). When a group has more
//! extras than [`SynthOpts::beam`], only the `beam` cheapest-bounded ones
//! are simulated. The bounds are admissible (`bound ≤ cost`, pinned by
//! the `synth-bound-soundness` guideline), so the beam drops the extras
//! least likely to reach the front; it is a heuristic, not exact.
//!
//! Menu candidates are never beamed: the emitted front always contains
//! the full Table-II sweep, which is what makes the `synth-dominance`
//! guideline (front winner never loses to the menu winner) hold
//! unconditionally.

use crate::pareto::{pareto_front, Front, FrontPoint};
use crate::space::{candidates, Candidate};
use han_colls::stack::{time_coll_on, Unsupported};
use han_colls::Coll;
use han_core::{Han, HanConfig};
use han_decide::LookupTable;
use han_machine::{Machine, MachinePreset};
use han_sim::Time;
use han_tuner::{largest_first, lower_bound, sweep_groups, SearchSpace};

/// Knobs for [`synthesize`].
#[derive(Debug, Clone, Copy)]
pub struct SynthOpts {
    /// Worker threads (`None` = available parallelism). The emitted
    /// fronts are bit-identical for every worker count.
    pub workers: Option<usize>,
    /// Beam width over the beyond-menu extras: when a group enumerates
    /// more extras than this, only the `beam` cheapest-bounded survive
    /// (menu candidates are exempt).
    pub beam: usize,
}

/// The latency objective probes each schedule at `min(m, LAT_PROBE)`
/// bytes.
pub const LAT_PROBE: u64 = 4096;

impl Default for SynthOpts {
    fn default() -> Self {
        SynthOpts {
            workers: None,
            beam: 96,
        }
    }
}

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
    /// Candidates enumerated / simulated / beam-dropped.
    pub candidates: u64,
    pub simulated: u64,
    /// Always 0: the search has no bound prune. Kept because the
    /// benchmark reports it as `synth.pruned`.
    pub pruned: u64,
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

fn beam(preset: &MachinePreset, coll: Coll, m: u64, cands: &[Candidate], width: usize) -> Beam {
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
    let beamed = extras.len().saturating_sub(width) as u64;
    extras.truncate(width);
    visit.extend(extras);
    Beam { visit, beamed }
}

/// Simulate one candidate at the full message size and at the latency
/// probe size.
fn simulate(
    machine: &mut Machine,
    preset: &MachinePreset,
    coll: Coll,
    m: u64,
    cand: Candidate,
    bound_bw: Option<Time>,
) -> Result<SynthSample, Unsupported> {
    let lat_m = m.clamp(1, LAT_PROBE);
    let Candidate { cfg, menu } = cand;
    let han = Han::with_config(cfg);
    let mut cost = |m| time_coll_on(&han, machine, preset, coll, m, 0);
    let bw = cost(m)?;
    let lat = if lat_m == m { bw } else { cost(lat_m)? };
    Ok(SynthSample {
        coll,
        m,
        cfg,
        menu,
        lat,
        bw,
        bound_lat: lower_bound(preset, &cfg, coll, lat_m),
        bound_bw,
    })
}

fn note_skip(skipped: &mut Vec<Unsupported>, e: Unsupported) {
    if !skipped.contains(&e) {
        skipped.push(e);
    }
}

/// Synthesize schedules for every `(coll, m)` group of `space`,
/// returning the per-group Pareto fronts plus every simulated sample.
///
/// The beam is fixed from the bounds first; then every surviving
/// candidate is one [`sweep_groups`] job, claimed largest message first
/// and merged back in visit order, so the result is bit-identical for
/// any worker count.
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
        .map(|(coll, m, cands)| beam(preset, *coll, *m, cands, opts.beam))
        .collect();
    let jobs: Vec<(usize, usize, Option<Time>)> = beams
        .iter()
        .enumerate()
        .flat_map(|(g, b)| b.visit.iter().map(move |&(i, bound)| (g, i, bound)))
        .collect();
    let mut sims = sweep_groups(
        &jobs,
        &largest_first(jobs.iter().map(|&(g, _, _)| groups[g].1)),
        opts.workers,
        || Machine::from_preset(preset),
        |machine, &(g, i, bound_bw)| {
            let (coll, m, cands) = &groups[g];
            simulate(machine, preset, *coll, *m, cands[i], bound_bw)
        },
    )
    .into_iter();

    let candidates_total = groups.iter().map(|(_, _, c)| c.len() as u64).sum();
    let mut result = SynthResult {
        fronts: Vec::new(),
        samples: Vec::new(),
        candidates: candidates_total,
        simulated: 0,
        pruned: 0,
        beamed: 0,
        skipped: Vec::new(),
    };
    for ((coll, m, _), b) in groups.iter().zip(&beams) {
        result.beamed += b.beamed;
        let mut samples = Vec::new();
        for r in sims.by_ref().take(b.visit.len()) {
            match r {
                Ok(s) => samples.push(s),
                Err(e) => note_skip(&mut result.skipped, e),
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
            coll: *coll,
            m: *m,
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
    use han_machine::mini;

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
        let preset = mini(2, 2);
        let space = default_space();
        let tight = SynthOpts {
            beam: 2,
            ..SynthOpts::default()
        };
        let r = synthesize(&preset, &space, &[Coll::Allreduce], tight);
        assert!(r.beamed > 0, "tight beam must drop extras");
        for f in &r.fronts {
            assert!(f.menu_best_ps.is_some(), "menu always simulated");
        }
    }
}
