//! Invariants of the N-level hierarchy that the golden program digests
//! cannot express on their own.
//!
//! On two-level machines the reference is `tests/golden_programs.rs`,
//! which pins every corner configuration op for op. Here the exhaustive
//! tuner must pick the simulated argmin at its recorded cost, a
//! three-level machine must actually pipeline (segments of adjacent
//! hierarchy levels overlap in virtual time), and a heterogeneous twin
//! that restates the uniform level parameters must be indistinguishable
//! from its uniform original.

use han::mpi::{trace_execution, OpId, OpKind, Program};
use han::prelude::*;
use han::tuner::{tune, SearchSpace, Strategy};

mod common;
use common::corner_configs;

fn tiny_space() -> SearchSpace {
    SearchSpace {
        msg_sizes: vec![64 * 1024, 1 << 20, 8 << 20],
        seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
        inter: vec![
            (InterModule::Libnbc, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Chain),
        ],
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    }
}

#[test]
fn exhaustive_winners_are_the_simulated_argmin() {
    // The winner the exhaustive tuner records for every (coll, size) must
    // cost exactly what simulating it through the HAN stack says, and no
    // candidate of the space may simulate faster.
    let preset = mini(4, 4);
    let space = tiny_space();
    let colls = [Coll::Bcast, Coll::Allreduce];
    let result = tune(&preset, &space, &colls, Strategy::Exhaustive);
    assert!(result.skipped.is_empty(), "nothing should be skipped");
    let time = |c: &HanConfig, coll, m| {
        time_coll(&Han::with_config(*c), &preset, coll, m, 0).expect("supported")
    };
    for coll in colls {
        for m in space.msg_sizes.clone() {
            let entry = result.table.get(coll, m).expect("tuned entry");
            let winner_t = time(&entry.cfg, coll, m);
            assert_eq!(
                winner_t.as_ps(),
                entry.cost_ps,
                "{coll:?}@{m}: recorded cost must match the simulated cost"
            );
            let best = space
                .configs_for(m, &preset.topology, false)
                .iter()
                .map(|c| time(c, coll, m))
                .min()
                .expect("non-empty space");
            assert_eq!(
                winner_t, best,
                "{coll:?}@{m}: tuned winner must achieve the simulated optimum"
            );
        }
    }
}

/// Highest level at which two world ranks are co-located: `None` for an
/// inter-node edge, `Some(k)` when they share the level-`k` group but not
/// the level-`k+1` one.
fn edge_level(topo: &Topology, a: usize, b: usize) -> usize {
    let mut level = 0;
    for k in 0..topo.depth() - 1 {
        if topo.same_group(a, b, k) {
            level = k + 1;
        } else {
            break;
        }
    }
    level
}

/// Classify every data-moving span by the hierarchy level its edge crosses
/// (0 = inter-node, `depth-1` = innermost shared-memory domain).
fn spans_by_level(
    topo: &Topology,
    prog: &Program,
    spans: &[han::mpi::Span],
) -> Vec<Vec<(Time, Time)>> {
    let mut by_level = vec![Vec::new(); topo.depth()];
    for (i, op) in prog.ops.iter().enumerate() {
        let edge = match prog.kind(OpId(i as u32)) {
            OpKind::CrossCopy { from, .. } | OpKind::ReduceFrom { from, .. } => {
                Some((op.rank as usize, from as usize))
            }
            OpKind::Send { msg } | OpKind::Recv { msg } => {
                let meta = &prog.msgs[msg.0 as usize];
                Some((meta.src as usize, meta.dst as usize))
            }
            _ => None,
        };
        if let Some((a, b)) = edge {
            let span = &spans[i];
            if span.end > span.start {
                by_level[edge_level(topo, a, b)].push((span.start, span.end));
            }
        }
    }
    by_level
}

fn overlaps(xs: &[(Time, Time)], ys: &[(Time, Time)]) -> bool {
    xs.iter()
        .any(|&(s1, e1)| ys.iter().any(|&(s2, e2)| s1 < e2 && s2 < e1))
}

#[test]
fn three_level_segments_overlap_on_adjacent_level_pairs() {
    // A 2-node × 2-socket × 4-core machine, 8 segments: the recursive
    // pipeline must keep traffic in flight at *every* adjacent level pair
    // simultaneously — inter-node with cross-socket, and cross-socket with
    // intra-socket.
    let preset = mini3(2, 2, 4);
    let topo = preset.topology;
    assert_eq!(topo.depth(), 3);
    let n = topo.world_size();
    let han = Han::with_config(HanConfig::default().with_fs(128 * 1024));
    for coll in [Coll::Bcast, Coll::Allreduce] {
        let prog = build_coll(&han, &preset, coll, 1 << 20, 0).expect("supported");
        let mut m = Machine::from_preset(&preset);
        let (_, trace) = trace_execution(&mut m, &prog, &ExecOpts::timing(Flavor::OpenMpi.p2p()));
        let by_level = spans_by_level(&topo, &prog, &trace.spans);
        for k in 0..topo.depth() - 1 {
            assert!(
                !by_level[k].is_empty(),
                "{coll:?}: no traffic crossed level {k} on {n} ranks"
            );
            assert!(
                overlaps(&by_level[k], &by_level[k + 1]),
                "{coll:?}: levels {k} and {} never overlap — the pipeline \
                 serialized across that boundary",
                k + 1
            );
        }
    }
}

/// A heterogeneous twin of `preset`: every level's parameters pinned via
/// `level_overrides`, with values restating the uniform derivation
/// *exactly* (same f64s, launch zero). The twin takes the heterogeneous
/// code paths everywhere — `is_heterogeneous()` is true and its serde form
/// carries `level_overrides` — yet must be indistinguishable in cost.
fn self_override(preset: &MachinePreset) -> MachinePreset {
    let lv = preset.level_params();
    let mut twin = *preset;
    for k in 0..preset.topology.depth() {
        twin = twin.with_level_override(k, *lv.get(k));
    }
    assert!(twin.is_heterogeneous());
    twin
}

#[test]
fn self_override_hetero_machine_is_bit_identical() {
    // Same programs, same makespans, same event counts, and the same
    // per-op finish times — the heterogeneous model with all-identical
    // level params is the uniform model, bit for bit.
    for preset in [mini(4, 4), mini(1, 6), mini3(2, 2, 4)] {
        let twin = self_override(&preset);
        for cfg in corner_configs() {
            let stack = Han::with_config(cfg);
            for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
                for bytes in [64 * 1024u64, 2 << 20] {
                    let pa = build_coll(&stack, &preset, coll, bytes, 0).expect("supported");
                    let pb = build_coll(&stack, &twin, coll, bytes, 0).expect("supported");
                    assert_eq!(
                        pa.ops.len(),
                        pb.ops.len(),
                        "{} {coll:?} {bytes}B {cfg}: op counts diverged",
                        preset.name
                    );
                    let opts = ExecOpts::timing(Flavor::OpenMpi.p2p());
                    let mut ma = Machine::from_preset(&preset);
                    let (ra, ta) = trace_execution(&mut ma, &pa, &opts);
                    let mut mb = Machine::from_preset(&twin);
                    let (rb, tb) = trace_execution(&mut mb, &pb, &opts);
                    assert_eq!(
                        (ra.makespan, ra.events),
                        (rb.makespan, rb.events),
                        "{} {coll:?} {bytes}B {cfg}: (makespan, events) diverged",
                        preset.name
                    );
                    for (i, (a, b)) in ta.spans.iter().zip(&tb.spans).enumerate() {
                        assert_eq!(
                            (a.start, a.end),
                            (b.start, b.end),
                            "{} {coll:?} {bytes}B {cfg}: op {i} ({}) finish diverged",
                            preset.name,
                            a.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn self_override_hetero_machine_tunes_identically() {
    // The whole tuner pipeline — candidate enumeration, analytic bounds,
    // pruning, cost measurement — must pick the same winners at the same
    // recorded costs on the self-override twin.
    let space = tiny_space();
    let colls = [Coll::Bcast, Coll::Allreduce];
    for preset in [mini(4, 4), mini3(2, 2, 2)] {
        let twin = self_override(&preset);
        for strategy in [Strategy::Exhaustive, Strategy::TaskBasedHeuristic] {
            let a = tune(&preset, &space, &colls, strategy);
            let b = tune(&twin, &space, &colls, strategy);
            for coll in colls {
                for &m in &space.msg_sizes {
                    let ea = a.table.get(coll, m).expect("tuned entry");
                    let eb = b.table.get(coll, m).expect("tuned entry");
                    assert_eq!(
                        (ea.cfg, ea.cost_ps),
                        (eb.cfg, eb.cost_ps),
                        "{} {strategy:?} {coll:?}@{m}: tuned winner diverged",
                        preset.name
                    );
                }
            }
        }
    }
}

#[test]
fn three_level_tunes_end_to_end_with_per_level_configs() {
    let preset = mini3(2, 2, 2);
    let topo = preset.topology;
    let space = tiny_space();

    // The generalized space must actually offer per-level overrides on a
    // three-level machine.
    let deep_cfgs = space.configs_for(1 << 20, &topo, false);
    let flat_cfgs = space.configs(1 << 20, topo.nodes(), false);
    assert!(
        deep_cfgs.len() > flat_cfgs.len(),
        "deep space ({}) must extend the flat space ({})",
        deep_cfgs.len(),
        flat_cfgs.len()
    );
    assert!(
        deep_cfgs.iter().any(|c| c.deep.iter().any(Option::is_some)),
        "some candidates must override the socket-level module"
    );

    let colls = [Coll::Bcast, Coll::Allreduce];
    for strategy in [Strategy::Exhaustive, Strategy::TaskBasedHeuristic] {
        let result = tune(&preset, &space, &colls, strategy);
        assert!(result.skipped.is_empty(), "{strategy:?} skipped work");
        assert_eq!(result.table.levels, topo.levels(), "{strategy:?} levels");
        for coll in colls {
            for &m in &space.msg_sizes {
                let entry = result.table.get(coll, m).expect("tuned entry");
                // Every level below the leaders answers a module query.
                for level in 1..topo.depth() {
                    let _ = entry.cfg.smod_at(level);
                }
                assert!(entry.cost_ps > 0, "{strategy:?} {coll:?}@{m}");
            }
        }
    }

    // Decisions served through the HAN facade still execute end-to-end.
    let result = tune(&preset, &space, &colls, Strategy::Exhaustive);
    let han = Han::tuned(std::sync::Arc::new(result.table));
    for coll in colls {
        let t = time_coll(&han, &preset, coll, 2 << 20, 0).expect("supported");
        assert!(t > Time::ZERO);
    }
}
