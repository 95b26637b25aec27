//! Bound-guided schedule search with an exact simulator oracle.
//!
//! # Soundness of the front-preserving prune
//!
//! A candidate `c` is skipped only when some *already simulated* point
//! `P` strictly dominates `c`'s analytic lower-bound pair in both
//! objectives: `P.lat < bound_lat(c)` **and** `P.bw < bound_bw(c)`. The
//! bounds are admissible (`bound ≤ cost`, pinned by the
//! `synth-bound-soundness` guideline), so `c`'s true costs satisfy
//! `cost_lat(c) ≥ bound_lat(c) > P.lat` and `cost_bw(c) ≥ bound_bw(c) >
//! P.bw` — `P` strictly dominates `c`, hence `c` cannot sit on the
//! Pareto front. The front of the pruned search therefore equals the
//! front of the unpruned search exactly (the determinism test pins
//! `prune` on/off to bit-identical fronts).
//!
//! Menu candidates are never pruned or beamed: the emitted front always
//! contains the full Table-II sweep, which is what makes the
//! `synth-dominance` guideline (front winner never loses to the menu
//! winner) hold unconditionally.

use crate::pareto::{pareto_front, Front, FrontPoint};
use crate::space::{candidates, Candidate};
use han_colls::stack::Unsupported;
use han_colls::{time_coll_templated, Coll, TemplateStore};
use han_core::{Han, HanConfig};
use han_machine::{Machine, MachinePreset};
use han_mpi::Program;
use han_sim::Time;
use han_tuner::{lower_bound, LookupTable, SearchSpace};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Knobs for [`synthesize`].
#[derive(Debug, Clone, Copy)]
pub struct SynthOpts {
    /// Skip extras whose bound pair is strictly dominated by a simulated
    /// point (front-preserving; see the module docs).
    pub prune: bool,
    /// Worker threads (`None` = available parallelism). The emitted
    /// fronts are bit-identical for every worker count.
    pub workers: Option<usize>,
    /// Beam width over the beyond-menu extras: when a group enumerates
    /// more extras than this, only the `beam` cheapest-bounded survive
    /// (menu candidates are exempt).
    pub beam: usize,
    /// The latency objective probes each schedule at
    /// `min(m, lat_probe)` bytes.
    pub lat_probe: u64,
}

impl Default for SynthOpts {
    fn default() -> Self {
        SynthOpts {
            prune: true,
            workers: None,
            beam: 96,
            lat_probe: 4096,
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
    /// Candidates enumerated / simulated / bound-pruned / beam-dropped.
    pub candidates: u64,
    pub simulated: u64,
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

struct GroupOut {
    samples: Vec<SynthSample>,
    pruned: u64,
    beamed: u64,
    skipped: Vec<Unsupported>,
}

#[allow(clippy::too_many_arguments)]
fn run_group(
    machine: &mut Machine,
    scratch: &mut Program,
    preset: &MachinePreset,
    coll: Coll,
    m: u64,
    cands: &[Candidate],
    templates: &TemplateStore,
    opts: &SynthOpts,
) -> GroupOut {
    let lat_m = m.min(opts.lat_probe).max(1);
    let mut out = GroupOut {
        samples: Vec::new(),
        pruned: 0,
        beamed: 0,
        skipped: Vec::new(),
    };
    // Menu candidates in enumeration order, then extras cheapest-bound
    // first (ties broken by index) — the fixed visit order keeps the
    // pruned set, and therefore the whole scan, deterministic.
    let menu_idx: Vec<usize> = cands
        .iter()
        .enumerate()
        .filter(|(_, c)| c.menu)
        .map(|(i, _)| i)
        .collect();
    let mut extras: Vec<(Option<Time>, usize)> = cands
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.menu)
        .map(|(i, c)| (lower_bound(preset, &c.cfg, coll, m), i))
        .collect();
    extras.sort_by_key(|&(b, i)| (b.unwrap_or(Time::ZERO), i));
    if extras.len() > opts.beam {
        out.beamed = (extras.len() - opts.beam) as u64;
        extras.truncate(opts.beam);
    }

    // Simulated (lat, bw) points — the dominance incumbents.
    let mut points: Vec<(Time, Time)> = Vec::new();
    let simulate = |i: usize,
                    bound_bw: Option<Time>,
                    machine: &mut Machine,
                    scratch: &mut Program,
                    out: &mut GroupOut,
                    points: &mut Vec<(Time, Time)>| {
        let Candidate { cfg, menu } = cands[i];
        let han = Han::with_config(cfg);
        let mut cost =
            |m| time_coll_templated(&han, templates, machine, preset, coll, m, 0, scratch);
        let bw = match cost(m) {
            Ok(t) => t,
            Err(e) => {
                note_skip(&mut out.skipped, e);
                return;
            }
        };
        let lat = if lat_m == m {
            bw
        } else {
            match cost(lat_m) {
                Ok(t) => t,
                Err(e) => {
                    note_skip(&mut out.skipped, e);
                    return;
                }
            }
        };
        points.push((lat, bw));
        out.samples.push(SynthSample {
            coll,
            m,
            cfg,
            menu,
            lat,
            bw,
            bound_lat: lower_bound(preset, &cfg, coll, lat_m),
            bound_bw,
        });
    };

    for &i in &menu_idx {
        let b = lower_bound(preset, &cands[i].cfg, coll, m);
        simulate(i, b, machine, scratch, &mut out, &mut points);
    }
    for &(bound_bw, i) in &extras {
        if opts.prune {
            let bound_lat = lower_bound(preset, &cands[i].cfg, coll, lat_m);
            if let (Some(bl), Some(bb)) = (bound_lat, bound_bw) {
                if points.iter().any(|&(pl, pb)| pl < bl && pb < bb) {
                    out.pruned += 1;
                    continue;
                }
            }
        }
        simulate(i, bound_bw, machine, scratch, &mut out, &mut points);
    }
    out
}

fn note_skip(skipped: &mut Vec<Unsupported>, e: Unsupported) {
    if !skipped.contains(&e) {
        skipped.push(e);
    }
}

/// Synthesize schedules for every `(coll, m)` group of `space`,
/// returning the per-group Pareto fronts plus every simulated sample.
///
/// Parallelism is work-stealing over groups with per-worker simulator
/// state and an index-keyed merge (the [`han_tuner`] sweep pattern), so
/// the result is bit-identical for any worker count and with pruning on
/// or off.
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
    let workers = opts
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .min(groups.len().max(1))
        .max(1);

    let templates = TemplateStore::new();
    let next = AtomicUsize::new(0);
    let mut outcomes: Vec<GroupOut> = Vec::with_capacity(groups.len());
    std::thread::scope(|s| {
        let groups = &groups;
        let next = &next;
        let templates = &templates;
        let opts = &opts;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut machine = Machine::from_preset(preset);
                    let mut scratch = Program::default();
                    let mut out: Vec<(usize, GroupOut)> = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        if g >= groups.len() {
                            break;
                        }
                        let (coll, m, cands) = &groups[g];
                        out.push((
                            g,
                            run_group(
                                &mut machine,
                                &mut scratch,
                                preset,
                                *coll,
                                *m,
                                cands,
                                templates,
                                opts,
                            ),
                        ));
                    }
                    out
                })
            })
            .collect();
        let mut merged: Vec<Option<GroupOut>> = (0..groups.len()).map(|_| None).collect();
        for h in handles {
            for (g, r) in h.join().unwrap() {
                merged[g] = Some(r);
            }
        }
        outcomes.extend(merged.into_iter().map(|r| r.expect("every group ran")));
    });

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
    for ((coll, m, _), group) in groups.iter().zip(outcomes) {
        result.pruned += group.pruned;
        result.beamed += group.beamed;
        result.simulated += group.samples.len() as u64;
        for e in group.skipped {
            note_skip(&mut result.skipped, e);
        }
        if group.samples.is_empty() {
            continue;
        }
        let menu_best_ps = group
            .samples
            .iter()
            .filter(|s| s.menu)
            .map(|s| s.bw.as_ps())
            .min();
        let points: Vec<FrontPoint> = group
            .samples
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
        result.samples.extend(group.samples);
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
