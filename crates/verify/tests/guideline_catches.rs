//! The acceptance property of the verification harness itself: a healthy
//! system passes the whole catalog, and deliberately broken inputs — a
//! stack whose cost shrinks with message size, a tampered lookup table,
//! a stack whose broadcast races — are caught as structured violations.

use han_colls::stack::{BuildCtx, Coll};
use han_colls::{Frontier, MpiStack};
use han_core::{Han, HanConfig};
use han_machine::{mini, Flavor};
use han_mpi::{BufRange, Comm};
use han_tuner::{tune, SearchSpace, Strategy};
use han_verify::guidelines::{
    enumerate_candidates, msg_monotonicity, pruned_costs, schedule_race_free, serve_agreement,
    serve_agreement_against, synth_bound_soundness, synth_dominance, synth_prune_exact,
    table_dominance,
};
use han_verify::{run_suite_with, SuiteOpts};

/// A deliberately broken stack: beyond 1 MB it silently broadcasts only
/// the first KiB, so its cost *drops* as the message grows — exactly the
/// truncation bug msg-monotonicity exists to catch.
struct ShrinkingBcast(Han);

impl MpiStack for ShrinkingBcast {
    fn name(&self) -> String {
        "broken-shrinking-bcast".into()
    }

    fn flavor(&self) -> Flavor {
        Flavor::OpenMpi
    }

    fn bcast(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let sliced: Vec<BufRange> = bufs
            .iter()
            .map(|b| {
                if b.len >= 1 << 20 {
                    b.slice(0, 1024)
                } else {
                    *b
                }
            })
            .collect();
        self.0.bcast(cx, comm, root, &sliced, deps)
    }

    fn allreduce(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        bufs: &[BufRange],
        op: han_mpi::ReduceOp,
        dtype: han_mpi::DataType,
        deps: &Frontier,
    ) -> Frontier {
        self.0.allreduce(cx, comm, bufs, op, dtype, deps)
    }
}

/// A deliberately broken stack: after the HAN broadcast it has the root
/// zero its user buffer with no edge from the ops that read it — a write
/// racing with every send and copy of the payload.
struct RacyBcast(Han);

impl MpiStack for RacyBcast {
    fn name(&self) -> String {
        "broken-racy-bcast".into()
    }

    fn flavor(&self) -> Flavor {
        Flavor::OpenMpi
    }

    fn bcast(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let out = self.0.bcast(cx, comm, root, bufs, deps);
        let wroot = comm.world_rank(root);
        let scratch = cx.b.alloc(wroot, bufs[root].len);
        let clobber = han_mpi::OpKind::Copy {
            src: scratch,
            dst: bufs[root],
        };
        cx.b.op(wroot, clobber, &[]);
        out
    }

    fn allreduce(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        bufs: &[BufRange],
        op: han_mpi::ReduceOp,
        dtype: han_mpi::DataType,
        deps: &Frontier,
    ) -> Frontier {
        self.0.allreduce(cx, comm, bufs, op, dtype, deps)
    }
}

#[test]
fn racy_stack_is_caught_as_schedule_race() {
    let preset = mini(2, 2);
    let honest = Han::with_config(HanConfig::default());
    let racy = RacyBcast(Han::with_config(HanConfig::default()));
    let schedules: [(&dyn MpiStack, Coll, u64); 3] = [
        (&honest, Coll::Bcast, 64 * 1024),
        (&racy, Coll::Allreduce, 64 * 1024),
        (&racy, Coll::Bcast, 64 * 1024),
    ];
    let g = schedule_race_free(&preset, &schedules);
    assert_eq!(g.checks, 3);
    assert_eq!(g.violations.len(), 1, "{:?}", g.violations);
    let v = &g.violations[0];
    assert_eq!(v.guideline, "schedule-race-free");
    assert_eq!(
        (v.coll.as_str(), v.config.as_str()),
        ("bcast", "broken-racy-bcast")
    );
    assert!(v.detail.starts_with("race on rank 0"), "{}", v.detail);
}

#[test]
fn broken_stack_is_caught_as_monotonicity_violation() {
    let preset = mini(2, 2);
    let sizes = [16 * 1024u64, 256 * 1024, 4 << 20];
    let honest = Han::with_config(HanConfig::default());
    let ok = msg_monotonicity(&preset, &honest, "HAN", &[Coll::Bcast], &sizes, 0.02);
    assert!(ok.passed(), "honest stack must pass: {:?}", ok.violations);
    assert_eq!(ok.checks, 2);

    let broken = ShrinkingBcast(Han::with_config(HanConfig::default()));
    let bad = msg_monotonicity(&preset, &broken, "broken", &[Coll::Bcast], &sizes, 0.02);
    assert!(!bad.passed(), "the shrinking bcast must be caught");
    let v = &bad.violations[0];
    assert_eq!(v.guideline, "msg-monotonicity");
    assert_eq!(v.coll, "bcast");
    assert_eq!(v.m, 4 << 20);
    assert!(v.observed_ps < v.bound_ps);
    assert!(v.rel_slack < 0.0, "cost dropped: negative slack");
}

fn tiny_space() -> SearchSpace {
    SearchSpace {
        msg_sizes: vec![64 * 1024, 1 << 20],
        seg_sizes: vec![64 * 1024, 256 * 1024],
        inter: vec![
            (
                han_colls::InterModule::Libnbc,
                han_colls::InterAlg::Binomial,
            ),
            (han_colls::InterModule::Adapt, han_colls::InterAlg::Chain),
        ],
        intra: vec![han_colls::IntraModule::Sm],
    }
}

#[test]
fn tampered_table_is_caught_as_dominance_violation() {
    let preset = mini(2, 2);
    let space = tiny_space();
    let colls = [Coll::Bcast];
    let tuned = tune(&preset, &space, &colls, Strategy::Exhaustive);
    let cands = enumerate_candidates(&preset, &space, &colls);

    // The honest (pruned) table dominates its own search space.
    let ok = table_dominance(&preset, &tuned.table, &cands);
    assert!(ok.passed(), "honest table must pass: {:?}", ok.violations);
    assert!(ok.checks > 0);

    // Tamper 1: claim an impossibly low cost for the winner. No candidate
    // beats it, but re-simulating the winning config exposes the lie.
    let mut cheat = tuned.table.clone();
    cheat.entries[0].cost_ps = 1;
    let bad = table_dominance(&preset, &cheat, &cands);
    assert!(!bad.passed());
    assert!(bad.violations[0].detail.contains("re-simulation"));

    // Tamper 2: swap the winner for the most expensive candidate while
    // keeping its (cheap) recorded cost — a candidate now beats the
    // recorded config's true cost.
    let mut swapped = tuned.table.clone();
    let (coll, m) = (swapped.entries[0].coll.clone(), swapped.entries[0].m);
    let (_, _, group) = cands
        .iter()
        .find(|(c, mm, _)| c.name() == coll && *mm == m)
        .unwrap();
    let (worst_cfg, worst_t) = group
        .iter()
        .filter_map(|(cfg, r)| r.as_ref().ok().map(|t| (*cfg, *t)))
        .max_by_key(|&(_, t)| t)
        .unwrap();
    swapped.entries[0].cfg = worst_cfg;
    swapped.entries[0].cost_ps = worst_t.as_ps();
    let bad = table_dominance(&preset, &swapped, &cands);
    assert!(
        !bad.passed(),
        "a swapped-in losing config must lose to some candidate"
    );
    assert!(bad.violations.iter().any(|v| v.detail.contains("loses to")));
}

#[test]
fn tampered_served_table_is_caught_as_serve_disagreement() {
    let preset = mini(2, 2);
    let colls = [Coll::Bcast];
    let tuned = tune(&preset, &tiny_space(), &colls, Strategy::Exhaustive).table;

    // A daemon serving the honest table agrees bit-for-bit.
    let ok = serve_agreement(&preset, &tuned, &colls);
    assert!(ok.passed(), "honest daemon must pass: {:?}", ok.violations);
    assert!(ok.checks > 0);

    // A daemon serving a table with one corrupted cost is flagged.
    let mut tampered = tuned.clone();
    tampered.entries[0].cost_ps += 12_345;
    let bad = serve_agreement_against(&preset, &tuned, &tampered, &colls);
    assert!(!bad.passed(), "tampered served table must be caught");
    let v = &bad.violations[0];
    assert_eq!(v.guideline, "serve-agreement");
    assert_eq!(v.coll, "bcast");
    assert!(v.detail.contains("disagrees"));
}

#[test]
fn tampered_synth_front_is_caught() {
    let preset = mini(2, 2);
    let mut synth = han_synth::synthesize(
        &preset,
        &tiny_space(),
        &[Coll::Bcast],
        han_synth::SynthOpts::default(),
    );
    let pruned = pruned_costs(&preset, &synth);
    assert!(synth_dominance(&preset, &synth).passed());
    assert!(synth_bound_soundness(&preset, &synth, &pruned).passed());
    assert!(synth_prune_exact(&preset, &synth, &pruned).passed());

    // Inflate a front winner past the menu best: dominance must flag it.
    let mut tampered = han_synth::synthesize(
        &preset,
        &tiny_space(),
        &[Coll::Bcast],
        han_synth::SynthOpts::default(),
    );
    let f = &mut tampered.fronts[0];
    let mb = f.menu_best_ps.unwrap();
    f.points.last_mut().unwrap().bw_ps = mb + 1_000_000;
    let bad = synth_dominance(&preset, &tampered);
    assert!(!bad.passed(), "inflated winner must be caught");
    assert_eq!(bad.violations[0].guideline, "synth-dominance");

    // Deflate a sample below its own lower bound: bound-soundness must
    // flag it.
    let s = synth
        .samples
        .iter_mut()
        .find(|s| s.bound_bw.is_some())
        .expect("bounded sample");
    s.bw = han_sim::Time::from_ps(s.bound_bw.unwrap().as_ps() / 2);
    let bad = synth_bound_soundness(&preset, &synth, &pruned);
    assert!(!bad.passed(), "sub-bound cost must be caught");
    assert_eq!(bad.violations[0].guideline, "synth-bound-soundness");

    // Give a pruned candidate a latency below every sample of its group:
    // nothing beats it any more, so prune-exactness must flag it.
    let p = synth
        .pruned_candidates
        .first_mut()
        .expect("the scan prunes on this space");
    p.lat = han_sim::Time::ZERO;
    let bad = synth_prune_exact(&preset, &synth, &pruned);
    assert!(!bad.passed(), "an unbeaten pruned candidate must be caught");
    assert_eq!(bad.violations[0].guideline, "synth-prune-exact");
}

#[test]
fn tiny_suite_runs_green() {
    // A shrunken end-to-end suite run: every guideline present, every
    // check green. (`repro verify` runs the full-size version.)
    let opts = SuiteOpts {
        sizes: vec![4 * 1024, 64 * 1024, 512 * 1024],
        space: tiny_space(),
        dominance_colls: vec![Coll::Bcast, Coll::Allreduce],
    };
    let report = run_suite_with(&[mini(2, 2)], &opts);
    assert!(
        report.passed(),
        "violations: {:#?}",
        report.violations().collect::<Vec<_>>()
    );
    assert!(report.total_checks > 50, "got {}", report.total_checks);
    assert!(
        report.guidelines.len() >= 8,
        "catalog too small: {}",
        report.guidelines.len()
    );
}
