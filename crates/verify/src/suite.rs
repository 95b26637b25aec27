//! The full guideline suite: which guidelines run, over which
//! configurations and sizes, and how per-preset reports merge into the
//! `results/verify.json` artifact.

use crate::guidelines::{
    allreduce_composition, analytic_envelope, bcast_composition, bound_soundness,
    enumerate_candidates, msg_monotonicity, rank_monotonicity, reduce_vs_allreduce,
    schedule_race_free, serve_agreement, synth_bound_soundness, synth_dominance, table_dominance,
    task_model_accuracy,
};
use crate::report::{GuidelineReport, VerifyReport};
use han_colls::stack::Coll;
use han_colls::{InterAlg, InterModule, IntraModule, MpiStack, TunedOpenMpi};
use han_core::{Han, HanConfig};
use han_machine::{dgx_like, gpu_hier, mini, mini3, socketize, MachinePreset};
use han_tuner::{tune, SearchSpace, Strategy};

/// Relative tolerance for the inequality guidelines.
const TOL: f64 = 0.02;
/// Relative error band for the task-based cost model.
const MODEL_BAND: f64 = 0.25;
/// Multiplicative envelope for the analytic models.
const ENVELOPE: f64 = 64.0;

/// Suite knobs: sizes and the dominance search space. The defaults are
/// what `repro verify` and CI run; tests shrink them. The monotonicity
/// and race-freedom guidelines cover every collective.
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    /// Message sizes for the monotonicity / composition / model checks.
    pub sizes: Vec<u64>,
    /// Search space for the table-dominance and bound-soundness checks
    /// (every candidate in it gets simulated — keep it small).
    pub space: SearchSpace,
    /// Collectives tuned and dominated over `space`.
    pub dominance_colls: Vec<Coll>,
}

impl Default for SuiteOpts {
    fn default() -> Self {
        SuiteOpts {
            sizes: vec![4 * 1024, 32 * 1024, 256 * 1024, 1 << 20, 4 << 20],
            space: SearchSpace {
                msg_sizes: vec![16 * 1024, 256 * 1024, 2 << 20],
                seg_sizes: vec![32 * 1024, 256 * 1024],
                inter: vec![
                    (InterModule::Libnbc, InterAlg::Binomial),
                    (InterModule::Adapt, InterAlg::Chain),
                ],
                intra: vec![IntraModule::Sm, IntraModule::Solo],
            },
            dominance_colls: vec![Coll::Bcast, Coll::Allreduce, Coll::Reduce],
        }
    }
}

/// The configuration corners every guideline sweeps.
pub fn corner_configs() -> Vec<HanConfig> {
    let mut adapt = HanConfig::default()
        .with_fs(256 * 1024)
        .with_intra(IntraModule::Solo);
    adapt.imod = InterModule::Adapt;
    adapt.ibalg = InterAlg::Chain;
    adapt.iralg = InterAlg::Chain;
    adapt.ibs = Some(64 * 1024);
    adapt.irs = Some(32 * 1024);
    let mut libnbc = HanConfig::default().with_fs(16 * 1024);
    libnbc.imod = InterModule::Libnbc;
    vec![HanConfig::default(), libnbc, adapt]
}

/// The preset set `repro verify` and `hansim --verify` run by default:
/// a two-level mini machine, a three-level mini machine, a socketized
/// (NUMA-split) variant, and two heterogeneous GPU-era machines (per-level
/// link overrides and multi-rail striped NICs).
pub fn standard_presets() -> Vec<MachinePreset> {
    vec![
        mini(4, 4),
        mini3(2, 2, 2),
        socketize(mini(2, 4), 2, 1.5),
        dgx_like(2, 4),
        gpu_hier(&[2, 2, 2]),
    ]
}

/// Run the whole guideline catalog on one preset.
pub fn run_preset(preset: &MachinePreset, opts: &SuiteOpts) -> Vec<GuidelineReport> {
    let cfgs = corner_configs();
    let mut out: Vec<GuidelineReport> = Vec::new();
    let mut add = |r: GuidelineReport| match out.iter_mut().find(|g| g.id == r.id) {
        Some(g) => g.merge(r),
        None => out.push(r),
    };

    // Monotonicity, over the HAN corners and the fixed reference stack.
    for cfg in &cfgs {
        let stack = Han::with_config(*cfg);
        add(msg_monotonicity(
            preset,
            &stack,
            &format!("HAN {cfg}"),
            &Coll::ALL,
            &opts.sizes,
            TOL,
        ));
    }
    let tuned = TunedOpenMpi;
    add(msg_monotonicity(
        preset,
        &tuned,
        &tuned.name(),
        &Coll::ALL,
        &opts.sizes,
        TOL,
    ));
    add(rank_monotonicity(
        preset,
        &cfgs[0],
        &Coll::ALL,
        &opts.sizes,
        TOL,
    ));

    // Composition bounds.
    add(allreduce_composition(preset, &cfgs, &opts.sizes, TOL));
    add(bcast_composition(preset, &cfgs, &opts.sizes, TOL));
    add(reduce_vs_allreduce(preset, &cfgs, &opts.sizes, TOL));

    // Tuned-table dominance + bound soundness, sharing one candidate
    // enumeration. The table comes from a *pruned* exhaustive sweep so a
    // pruning bug that discards the optimum surfaces as a dominance
    // violation here.
    let tuned = tune(
        preset,
        &opts.space,
        &opts.dominance_colls,
        Strategy::Exhaustive,
    );
    let cands = enumerate_candidates(preset, &opts.space, &opts.dominance_colls);
    add(table_dominance(preset, &tuned.table, &cands));
    add(bound_soundness(preset, &cands));

    // Schedule synthesis over the same space: front winners must
    // dominate the menu, and the bound steering the search must be
    // admissible in both objectives.
    let synth = han_synth::synthesize(
        preset,
        &opts.space,
        &opts.dominance_colls,
        han_synth::SynthOpts::default(),
    );
    add(synth_dominance(preset, &synth));
    add(synth_bound_soundness(preset, &synth));

    // Every corner schedule and every synthesized front point must be
    // race-free: correct in every order its dependencies allow, not just
    // the one the simulator picks.
    let han = |cfg: &HanConfig| Han::with_config(*cfg).labeled(format!("HAN {cfg}"));
    let corners: Vec<Han> = cfgs.iter().map(han).collect();
    let fronts: Vec<(Han, Coll, u64)> = synth
        .fronts
        .iter()
        .flat_map(|f| f.points.iter().map(move |p| (han(&p.cfg), f.coll, f.m)))
        .collect();
    let mut schedules: Vec<(&dyn MpiStack, Coll, u64)> = Vec::new();
    for stack in &corners {
        for coll in Coll::ALL {
            schedules.extend(
                opts.sizes
                    .iter()
                    .map(|&m| (stack as &dyn MpiStack, coll, m)),
            );
        }
    }
    schedules.extend(fronts.iter().map(|(s, c, m)| (s as &dyn MpiStack, *c, *m)));
    add(schedule_race_free(preset, &schedules));

    // The same tuned table, served over loopback TCP by a live daemon:
    // answers must be bit-identical to direct lookups, before and after
    // an in-flight generation hot-swap.
    add(serve_agreement(preset, &tuned.table, &opts.dominance_colls));

    // Model-vs-simulation error bands.
    add(task_model_accuracy(preset, &cfgs, &opts.sizes, MODEL_BAND));
    add(analytic_envelope(preset, &cfgs, &opts.sizes, ENVELOPE));

    out
}

/// Run the suite over several presets and merge per-guideline.
pub fn run_suite_with(presets: &[MachinePreset], opts: &SuiteOpts) -> VerifyReport {
    let mut merged: Vec<GuidelineReport> = Vec::new();
    for preset in presets {
        for r in run_preset(preset, opts) {
            match merged.iter_mut().find(|g| g.id == r.id) {
                Some(g) => g.merge(r),
                None => merged.push(r),
            }
        }
    }
    VerifyReport::new(presets.iter().map(|p| p.name.to_string()).collect(), merged)
}

/// [`run_suite_with`] with default options — what `repro verify` runs.
pub fn run_suite(presets: &[MachinePreset]) -> VerifyReport {
    run_suite_with(presets, &SuiteOpts::default())
}
