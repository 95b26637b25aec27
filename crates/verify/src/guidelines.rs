//! The executable performance-guideline catalog.
//!
//! Each function checks one machine-verifiable self-consistency property
//! of the simulated collectives (in the spirit of Hunold & Träff's
//! performance guidelines and PICO) and returns a [`GuidelineReport`]
//! with one [`Violation`] per broken inequality. Guidelines come in three
//! flavors:
//!
//! * **monotonicity** — cost must not shrink when the problem grows
//!   (message size, rank count), within a small relative tolerance;
//! * **composition / dominance bounds** — a specialized implementation
//!   must not lose to a composition of primitives it also ships
//!   (Allreduce vs Reduce+Bcast, Bcast vs Scatter+Allgather), a tuned
//!   table winner must not lose to any candidate of its own search
//!   space, and analytic lower bounds must stay below simulated cost;
//! * **differential oracles** — independent implementations of the same
//!   semantics must agree (daemon answers vs direct table lookups,
//!   exactly; cost models vs simulation, within an error band).
//!
//! Functions take `&dyn MpiStack` where it makes sense so tests can feed
//! deliberately broken stacks and watch the guideline catch them.

use crate::report::{GuidelineReport, Violation};
use han_colls::stack::{build_coll, time_coll, Coll, Unsupported};
use han_colls::MpiStack;
use han_core::composed::time_composed;
use han_core::{Han, HanConfig};
use han_decide::LookupTable;
use han_machine::{MachinePreset, Topology};
use han_mpi::check_races;
use han_sim::Time;
use han_synth::SynthResult;
use han_tuner::model::predict;
use han_tuner::{candidate_costs, cost_each, lower_bound, CostCache, SearchSpace, TaskBench};

/// Simulated candidate costs for every `(coll, m)` group of a search
/// space, shared by the dominance and bound-soundness guidelines so the
/// expensive unpruned enumeration runs once.
pub type CandidateSet = Vec<(Coll, u64, Vec<(HanConfig, Result<Time, Unsupported>)>)>;

/// Enumerate and simulate every candidate of `space` for each collective.
pub fn enumerate_candidates(
    preset: &MachinePreset,
    space: &SearchSpace,
    colls: &[Coll],
) -> CandidateSet {
    let cache = CostCache::new(preset);
    let mut out = Vec::new();
    for &coll in colls {
        for &m in &space.msg_sizes {
            out.push((coll, m, candidate_costs(&cache, space, coll, m, false)));
        }
    }
    out
}

/// `msg-monotonicity`: for a fixed stack and collective, the simulated
/// cost must not decrease as the message size grows (within `tol`
/// relative slack). Collectives the stack does not support are skipped.
pub fn msg_monotonicity(
    preset: &MachinePreset,
    stack: &dyn MpiStack,
    label: &str,
    colls: &[Coll],
    sizes: &[u64],
    tol: f64,
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "msg-monotonicity",
        "collective cost is non-decreasing in message size",
    );
    for &coll in colls {
        let costs: Vec<(u64, Time)> = sizes
            .iter()
            .filter_map(|&m| time_coll(stack, preset, coll, m, 0).ok().map(|t| (m, t)))
            .collect();
        for w in costs.windows(2) {
            let ((m1, t1), (m2, t2)) = (w[0], w[1]);
            g.check();
            if (t2.as_ps() as f64) < t1.as_ps() as f64 * (1.0 - tol) {
                g.violate(Violation::new(
                    &g.id.clone(),
                    preset.name,
                    coll.name(),
                    label,
                    m2,
                    t2.as_ps(),
                    t1.as_ps(),
                    format!("cost({m2}B) = {t2} < cost({m1}B) = {t1}"),
                ));
            }
        }
    }
    g
}

/// Clone `preset` with the outermost hierarchy extent replaced — the
/// machine family the rank-monotonicity guideline scales over.
pub fn with_nodes(preset: &MachinePreset, nodes: usize) -> MachinePreset {
    let mut levels = preset.topology.levels().to_vec();
    levels[0] = nodes;
    MachinePreset {
        name: preset.name,
        topology: Topology::from_levels(&levels),
        node: preset.node,
        net: preset.net,
        level_overrides: preset.level_overrides,
    }
}

/// `rank-monotonicity`: with the per-rank payload fixed, adding nodes to
/// the machine must not make the collective cheaper (within `tol`).
pub fn rank_monotonicity(
    preset: &MachinePreset,
    cfg: &HanConfig,
    colls: &[Coll],
    sizes: &[u64],
    tol: f64,
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "rank-monotonicity",
        "collective cost is non-decreasing in node count",
    );
    let base = preset.topology.levels()[0];
    let chain: Vec<usize> = [1, 2, base]
        .into_iter()
        .filter(|&n| n <= base)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let presets: Vec<MachinePreset> = chain.iter().map(|&n| with_nodes(preset, n)).collect();
    let stack = Han::with_config(*cfg);
    for &coll in colls {
        for &m in sizes {
            let costs: Vec<(usize, Time)> = presets
                .iter()
                .zip(&chain)
                .filter_map(|(p, &n)| time_coll(&stack, p, coll, m, 0).ok().map(|t| (n, t)))
                .collect();
            for w in costs.windows(2) {
                let ((n1, t1), (n2, t2)) = (w[0], w[1]);
                g.check();
                if (t2.as_ps() as f64) < t1.as_ps() as f64 * (1.0 - tol) {
                    g.violate(Violation::new(
                        &g.id.clone(),
                        preset.name,
                        coll.name(),
                        format!("{cfg}"),
                        m,
                        t2.as_ps(),
                        t1.as_ps(),
                        format!("cost on {n2} nodes = {t2} < cost on {n1} nodes = {t1}"),
                    ));
                }
            }
        }
    }
    g
}

/// Shared body of the two composition guidelines. The inequality holds
/// for the *library*, not for every fixed configuration: a deliberately
/// bad corner (e.g. 16 KiB fragments on a 4 MiB payload) can legitimately
/// lose to a composition that does not fragment the same way, and an
/// autotuned library would never ship that corner. So both sides take
/// their best over the configuration corners — the tuned specialized
/// collective must not lose to the best composed mock-up (within `tol`).
fn composition(
    id: &str,
    description: &str,
    preset: &MachinePreset,
    cfgs: &[HanConfig],
    coll: Coll,
    sizes: &[u64],
    tol: f64,
) -> GuidelineReport {
    let mut g = GuidelineReport::new(id, description);
    for &m in sizes {
        let spec = cfgs
            .iter()
            .filter_map(|cfg| {
                let stack = Han::with_config(*cfg);
                time_coll(&stack, preset, coll, m, 0).ok().map(|t| (cfg, t))
            })
            .min_by_key(|&(_, t)| t);
        let composed = cfgs
            .iter()
            .filter_map(|cfg| time_composed(preset, cfg, coll, m).map(|t| (cfg, t)))
            .min_by_key(|&(_, t)| t);
        let (Some((cfg, t)), Some((ccfg, tc))) = (spec, composed) else {
            continue;
        };
        g.check();
        if t.as_ps() as f64 > tc.as_ps() as f64 * (1.0 + tol) {
            g.violate(Violation::new(
                id,
                preset.name,
                coll.name(),
                format!("{cfg}"),
                m,
                t.as_ps(),
                tc.as_ps(),
                format!(
                    "best specialized {} = {t} > best composed mock-up = {tc} (at {ccfg})",
                    coll.name()
                ),
            ));
        }
    }
    g
}

/// `allreduce-composition`: `Allreduce ≤ Reduce + Bcast` (the pipelined
/// builder must beat — or match — the serial composition).
pub fn allreduce_composition(
    preset: &MachinePreset,
    cfgs: &[HanConfig],
    sizes: &[u64],
    tol: f64,
) -> GuidelineReport {
    composition(
        "allreduce-composition",
        "Allreduce never loses to Reduce followed by Bcast",
        preset,
        cfgs,
        Coll::Allreduce,
        sizes,
        tol,
    )
}

/// `bcast-composition`: `Bcast ≤ Scatter + Allgather`.
pub fn bcast_composition(
    preset: &MachinePreset,
    cfgs: &[HanConfig],
    sizes: &[u64],
    tol: f64,
) -> GuidelineReport {
    composition(
        "bcast-composition",
        "Bcast never loses to Scatter followed by Allgather",
        preset,
        cfgs,
        Coll::Bcast,
        sizes,
        tol,
    )
}

/// `reduce-vs-allreduce`: `Reduce ≤ Allreduce` — an allreduce does
/// strictly more work (the same reduction plus a broadcast), so the
/// rooted reduction must not cost more (within `tol`).
pub fn reduce_vs_allreduce(
    preset: &MachinePreset,
    cfgs: &[HanConfig],
    sizes: &[u64],
    tol: f64,
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "reduce-vs-allreduce",
        "Reduce never costs more than Allreduce of the same payload",
    );
    for cfg in cfgs {
        let stack = Han::with_config(*cfg);
        for &m in sizes {
            let (Ok(tr), Ok(ta)) = (
                time_coll(&stack, preset, Coll::Reduce, m, 0),
                time_coll(&stack, preset, Coll::Allreduce, m, 0),
            ) else {
                continue;
            };
            g.check();
            if tr.as_ps() as f64 > ta.as_ps() as f64 * (1.0 + tol) {
                g.violate(Violation::new(
                    &g.id.clone(),
                    preset.name,
                    "reduce",
                    format!("{cfg}"),
                    m,
                    tr.as_ps(),
                    ta.as_ps(),
                    format!("Reduce = {tr} > Allreduce = {ta}"),
                ));
            }
        }
    }
    g
}

/// `table-dominance`: for every `(coll, m)` the table tuned, its recorded
/// winner must (a) cost exactly what re-simulating the winning config
/// costs, and (b) beat or tie every candidate of the search space it was
/// tuned over. This pins bound-pruning soundness end-to-end: a pruned
/// sweep that wrongly discarded the optimum shows up here.
pub fn table_dominance(
    preset: &MachinePreset,
    table: &LookupTable,
    candidates: &CandidateSet,
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "table-dominance",
        "a tuned table winner beats or ties every candidate in its own search space",
    );
    for (coll, m, cands) in candidates {
        let Some(entry) = table.get(*coll, *m) else {
            continue;
        };
        let mut winner_resimulated = false;
        for (cfg, r) in cands {
            let Ok(t) = r else { continue };
            g.check();
            if t.as_ps() < entry.cost_ps {
                g.violate(Violation::new(
                    &g.id.clone(),
                    preset.name,
                    coll.name(),
                    format!("{cfg}"),
                    *m,
                    entry.cost_ps,
                    t.as_ps(),
                    format!(
                        "table winner {} ({} ps) loses to candidate {cfg} ({} ps)",
                        entry.cfg,
                        entry.cost_ps,
                        t.as_ps()
                    ),
                ));
            }
            if *cfg == entry.cfg {
                winner_resimulated = true;
                g.check();
                if t.as_ps() != entry.cost_ps {
                    g.violate(Violation::new(
                        &g.id.clone(),
                        preset.name,
                        coll.name(),
                        format!("{cfg}"),
                        *m,
                        entry.cost_ps,
                        t.as_ps(),
                        format!(
                            "table records {} ps for {cfg} but re-simulation gives {} ps",
                            entry.cost_ps,
                            t.as_ps()
                        ),
                    ));
                }
            }
        }
        g.check();
        if !winner_resimulated {
            g.violate(Violation::new(
                &g.id.clone(),
                preset.name,
                coll.name(),
                format!("{}", entry.cfg),
                *m,
                entry.cost_ps,
                entry.cost_ps,
                "table winner config is not in the search space it was tuned over".to_string(),
            ));
        }
    }
    g
}

/// `bound-soundness`: the analytic lower bound of `han_tuner::bound` must
/// never exceed the simulated cost of the same candidate — exactly, with
/// zero tolerance, since pruning correctness depends on it.
pub fn bound_soundness(preset: &MachinePreset, candidates: &CandidateSet) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "bound-soundness",
        "the pruning lower bound never exceeds the simulated cost",
    );
    for (coll, m, cands) in candidates {
        for (cfg, r) in cands {
            let Ok(t) = r else { continue };
            let Some(lb) = lower_bound(preset, cfg, *coll, *m) else {
                continue;
            };
            g.check();
            if lb > *t {
                g.violate(Violation::new(
                    &g.id.clone(),
                    preset.name,
                    coll.name(),
                    format!("{cfg}"),
                    *m,
                    lb.as_ps(),
                    t.as_ps(),
                    format!("lower bound {lb} > simulated cost {t}"),
                ));
            }
        }
    }
    g
}

/// `synth-dominance`: the schedule-synthesis Pareto fronts must dominate
/// the Table-II menu — the front's bandwidth-optimal winner never costs
/// more than the best menu schedule of the same `(coll, m)` group, and
/// no simulated sample may strictly dominate a point the front kept.
/// Zero tolerance: the front and the menu best are exact over every
/// candidate, so a losing winner means the search dropped a schedule it
/// had in hand.
pub fn synth_dominance(preset: &MachinePreset, synth: &SynthResult) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "synth-dominance",
        "synthesized front winners beat or tie the Table-II menu winner",
    );
    for f in &synth.fronts {
        let Some(w) = f.winner() else { continue };
        if let Some(mb) = f.menu_best_ps {
            g.check();
            if w.bw_ps > mb {
                g.violate(Violation::new(
                    &g.id.clone(),
                    preset.name,
                    f.coll.name(),
                    format!("{}", w.cfg),
                    f.m,
                    w.bw_ps,
                    mb,
                    format!(
                        "synthesized winner {} ({} ps) loses to menu best ({mb} ps)",
                        w.cfg, w.bw_ps
                    ),
                ));
            }
        }
        for p in &f.points {
            g.check();
            let dominated = synth.samples.iter().find(|s| {
                s.coll == f.coll
                    && s.m == f.m
                    && s.lat.as_ps() <= p.lat_ps
                    && s.bw.as_ps() <= p.bw_ps
                    && (s.lat.as_ps() < p.lat_ps || s.bw.as_ps() < p.bw_ps)
            });
            if let Some(s) = dominated {
                g.violate(Violation::new(
                    &g.id.clone(),
                    preset.name,
                    f.coll.name(),
                    format!("{}", p.cfg),
                    f.m,
                    p.bw_ps,
                    s.bw.as_ps(),
                    format!(
                        "front point {} (lat {}, bw {}) is dominated by sample {} (lat {}, bw {})",
                        p.cfg,
                        p.lat_ps,
                        p.bw_ps,
                        s.cfg,
                        s.lat.as_ps(),
                        s.bw.as_ps()
                    ),
                ));
            }
        }
    }
    g
}

/// Simulated bandwidth cost of every candidate the synthesis scan pruned,
/// in `synth.pruned_candidates` order: the ground truth
/// [`synth_bound_soundness`] and [`synth_prune_exact`] hold the prune to.
pub fn pruned_costs(preset: &MachinePreset, synth: &SynthResult) -> Vec<Result<Time, Unsupported>> {
    let jobs: Vec<(Coll, u64, HanConfig)> = synth
        .pruned_candidates
        .iter()
        .map(|p| (p.coll, p.m, p.cfg))
        .collect();
    cost_each(&CostCache::new(preset), &jobs, None)
}

/// `synth-bound-soundness`: the analytic lower bound that orders and
/// prunes the synthesis scan must stay below the simulated cost of every
/// enumerated candidate — at the bandwidth size *and* at the latency
/// probe size, with zero tolerance: the scan skips a candidate on its
/// bandwidth bound, which is only exact when the bound is admissible.
/// Pruned candidates are checked against `pruned` (from
/// [`pruned_costs`]).
pub fn synth_bound_soundness(
    preset: &MachinePreset,
    synth: &SynthResult,
    pruned: &[Result<Time, Unsupported>],
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "synth-bound-soundness",
        "the synthesis lower bound never exceeds simulated cost in either objective",
    );
    let costed = synth.samples.iter().map(|s| {
        let objectives = [
            ("bw", s.bound_bw, Some(s.bw)),
            ("lat", s.bound_lat, Some(s.lat)),
        ];
        (s.coll, s.m, s.cfg, objectives)
    });
    let skipped = synth.pruned_candidates.iter().zip(pruned).map(|(p, bw)| {
        let objectives = [
            ("bw", Some(p.bound_bw), bw.as_ref().ok().copied()),
            ("lat", p.bound_lat, Some(p.lat)),
        ];
        (p.coll, p.m, p.cfg, objectives)
    });
    for (coll, m, cfg, objectives) in costed.chain(skipped) {
        for (what, bound, cost) in objectives {
            let (Some(lb), Some(cost)) = (bound, cost) else {
                continue;
            };
            g.check();
            if lb > cost {
                g.violate(Violation::new(
                    &g.id.clone(),
                    preset.name,
                    coll.name(),
                    format!("{cfg}"),
                    m,
                    lb.as_ps(),
                    cost.as_ps(),
                    format!("{what} bound {lb} > simulated cost {cost}"),
                ));
            }
        }
    }
    g
}

/// `synth-prune-exact`: every candidate the synthesis scan pruned, once
/// simulated (`pruned`, from [`pruned_costs`]), is strictly beaten as the
/// skip rule states — some emitted sample of its group has no higher
/// latency and a strictly lower bandwidth cost, and, for a menu
/// candidate, some menu sample has a strictly lower bandwidth cost. So
/// it could neither join its group's front nor set its best menu cost.
pub fn synth_prune_exact(
    preset: &MachinePreset,
    synth: &SynthResult,
    pruned: &[Result<Time, Unsupported>],
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "synth-prune-exact",
        "every pruned synthesis candidate is strictly beaten by an emitted sample",
    );
    for (p, bw) in synth.pruned_candidates.iter().zip(pruned) {
        let Ok(bw) = *bw else { continue };
        g.check();
        let group = || {
            synth
                .samples
                .iter()
                .filter(|s| s.coll == p.coll && s.m == p.m)
        };
        let beaten = group().any(|s| s.lat <= p.lat && s.bw < bw);
        let menu_beaten = !p.menu || group().any(|s| s.menu && s.bw < bw);
        if !(beaten && menu_beaten) {
            let best = group().filter(|s| s.lat <= p.lat).map(|s| s.bw).min();
            g.violate(Violation::new(
                &g.id.clone(),
                preset.name,
                p.coll.name(),
                format!("{}", p.cfg),
                p.m,
                bw.as_ps(),
                best.map_or(0, |t| t.as_ps()),
                format!(
                    "pruned candidate (lat {}, bw {bw}, menu {}) is not strictly beaten",
                    p.lat, p.menu
                ),
            ));
        }
    }
    g
}

/// `schedule-race-free`: every schedule `(stack, coll, m)` must be free
/// of happens-before races ([`check_races`]). A race is two ops touching
/// the same bytes of one rank, one writing, with no chain of dependency
/// or message edges between them: the simulator runs them in one order,
/// but a real machine may run them in the other. Collectives the stack
/// does not support are skipped.
pub fn schedule_race_free(
    preset: &MachinePreset,
    schedules: &[(&dyn MpiStack, Coll, u64)],
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "schedule-race-free",
        "every conflicting pair of memory accesses in a schedule is ordered by happens-before",
    );
    for &(stack, coll, m) in schedules {
        let Ok(prog) = build_coll(stack, preset, coll, m, 0) else {
            continue;
        };
        g.check();
        if let Err(e) = check_races(&prog) {
            g.violate(Violation::new(
                &g.id.clone(),
                preset.name,
                coll.name(),
                stack.name(),
                m,
                0,
                0,
                e,
            ));
        }
    }
    g
}

/// Sizes below this are latency-dominated single-fragment transfers where
/// the task model's pipeline assumptions do not apply; the band is only
/// claimed from here up.
pub const MODEL_BAND_MIN_BYTES: u64 = 16 * 1024;

/// `task-model-band`: the task-based cost model (paper eqs. 3/4) must
/// predict the simulated collective within `band` relative error — the
/// accuracy claim that justifies tuning from task benchmarks. Applies to
/// sizes ≥ [`MODEL_BAND_MIN_BYTES`]; the model is a fragment-pipeline
/// model and makes no claim for latency-dominated tiny messages.
pub fn task_model_accuracy(
    preset: &MachinePreset,
    cfgs: &[HanConfig],
    sizes: &[u64],
    band: f64,
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "task-model-band",
        "the task-based cost model tracks simulation within the error band",
    );
    let mut tb = TaskBench::new(preset);
    for cfg in cfgs {
        let stack = Han::with_config(*cfg);
        for &coll in &[Coll::Bcast, Coll::Allreduce] {
            for &m in sizes.iter().filter(|&&m| m >= MODEL_BAND_MIN_BYTES) {
                let Ok(pred) = predict(&mut tb, cfg, coll, m) else {
                    continue;
                };
                let Ok(sim) = time_coll(&stack, preset, coll, m, 0) else {
                    continue;
                };
                g.check();
                let err =
                    (pred.as_ps() as f64 - sim.as_ps() as f64).abs() / (sim.as_ps().max(1) as f64);
                if err > band {
                    g.violate(Violation::new(
                        &g.id.clone(),
                        preset.name,
                        coll.name(),
                        format!("{cfg}"),
                        m,
                        pred.as_ps(),
                        sim.as_ps(),
                        format!(
                            "task model predicts {pred}, simulation gives {sim} \
                             ({:.1}% > {:.1}% band)",
                            err * 100.0,
                            band * 100.0
                        ),
                    ));
                }
            }
        }
    }
    g
}

/// `analytic-envelope`: the conventional analytic models (Hockney, LogP,
/// LogGP, PLogP, perfect-overlap) are *knowingly* inaccurate on
/// hierarchical machines — the paper's motivation — but they must stay
/// positive, finite, and within a factor-`envelope` band of simulation.
/// A model drifting outside the envelope means the closed-form parameters
/// and the simulated machine no longer describe the same hardware.
pub fn analytic_envelope(
    preset: &MachinePreset,
    cfgs: &[HanConfig],
    sizes: &[u64],
    envelope: f64,
) -> GuidelineReport {
    use han_tuner::analytic::{predict_bcast, AnalyticModel};
    let mut g = GuidelineReport::new(
        "analytic-envelope",
        "analytic model predictions stay within a bounded factor of simulation",
    );
    for cfg in cfgs {
        let stack = Han::with_config(*cfg);
        for &m in sizes {
            let Ok(sim) = time_coll(&stack, preset, Coll::Bcast, m, 0) else {
                continue;
            };
            for model in AnalyticModel::ALL {
                let pred = predict_bcast(model, preset, cfg, m);
                g.check();
                let ratio = pred.as_ps() as f64 / sim.as_ps().max(1) as f64;
                if pred.as_ps() == 0 || ratio > envelope || ratio < 1.0 / envelope {
                    g.violate(Violation::new(
                        &g.id.clone(),
                        preset.name,
                        Coll::Bcast.name(),
                        format!("{} / {cfg}", model.name()),
                        m,
                        pred.as_ps(),
                        sim.as_ps(),
                        format!(
                            "{} predicts {pred} vs simulated {sim} \
                             (ratio {ratio:.2} outside ±{envelope}×)",
                            model.name()
                        ),
                    ));
                }
            }
        }
    }
    g
}

/// `serve-agreement`: answers served by a live `han-serve` daemon (over
/// real loopback TCP) must be bit-identical to direct
/// [`LookupTable::resolve`] lookups on the same table, bucket included —
/// no tolerance. The whole probe set runs twice: once against the first
/// published generation, then again after a second generation hot-swaps
/// in while the client is connected, so the store's swap is on the hook
/// for exactness too.
pub fn serve_agreement(
    preset: &MachinePreset,
    table: &LookupTable,
    colls: &[Coll],
) -> GuidelineReport {
    serve_agreement_against(preset, table, table, colls)
}

/// [`serve_agreement`] with the served table decoupled from the direct
/// one — the test hook that lets `guideline_catches.rs` prove a daemon
/// serving a tampered table is flagged.
pub fn serve_agreement_against(
    preset: &MachinePreset,
    table: &LookupTable,
    served: &LookupTable,
    colls: &[Coll],
) -> GuidelineReport {
    let mut g = GuidelineReport::new(
        "serve-agreement",
        "han-serve daemon answers are bit-identical to direct table lookups, across hot-swaps",
    );
    let fp = han_decide::preset_fingerprint(preset);
    let store = std::sync::Arc::new(han_serve::TableStore::new());
    store.publish(fp, served.clone());
    let daemon = han_serve::serve("127.0.0.1:0", std::sync::Arc::clone(&store))
        .map_err(|e| format!("cannot bind loopback daemon: {e}"))
        .and_then(|server| {
            let client = han_serve::Client::connect(server.addr())
                .map_err(|e| format!("cannot connect to daemon: {e}"))?;
            Ok((server, client))
        });
    let (mut server, mut client) = match daemon {
        Ok(pair) => pair,
        Err(why) => {
            g.check();
            let v = Violation::new(&g.id.clone(), preset.name, "-", "han-serve", 0, 0, 0, why);
            g.violate(v);
            return g;
        }
    };
    for generation in 1..=2u64 {
        if generation == 2 {
            // Hot-swap a second generation in while the client is live.
            store.publish(fp, served.clone());
        }
        for &coll in colls {
            // Probe each sample and its neighbours, both sides of every
            // bucket edge where the winner flips, and the extremes.
            let mut probes: Vec<u64> = vec![1, 3, (1 << 30) + 7];
            for s in table.sampled_sizes(coll) {
                probes.extend([s.saturating_sub(1), s, s + 1]);
            }
            if let Some((_, inner)) = table.buckets(coll).split_last() {
                for b in inner {
                    probes.extend([b.hi - 1, b.hi, b.hi + 1]);
                }
            }
            for m in probes {
                let Some(e) = table.resolve(coll, m) else {
                    continue;
                };
                g.check();
                match client.resolve(han_serve::Query {
                    fingerprint: fp,
                    coll,
                    m,
                }) {
                    Ok(a) => {
                        if a.cfg != e.cfg
                            || a.sample != e.m
                            || a.cost_ps != e.cost_ps
                            || (a.lo, a.hi) != (e.lo, e.hi)
                            || a.generation != generation
                        {
                            g.violate(Violation::new(
                                &g.id.clone(),
                                preset.name,
                                coll.name(),
                                format!("{}", e.cfg),
                                m,
                                a.cost_ps,
                                e.cost_ps,
                                format!(
                                    "served answer {a:?} disagrees with direct lookup {e:?} \
                                     (generation {generation})"
                                ),
                            ));
                        }
                    }
                    Err(err) => {
                        g.violate(Violation::new(
                            &g.id.clone(),
                            preset.name,
                            coll.name(),
                            format!("{}", e.cfg),
                            m,
                            0,
                            e.cost_ps,
                            format!("daemon failed to resolve: {err}"),
                        ));
                    }
                }
            }
        }
    }
    server.shutdown();
    g
}
