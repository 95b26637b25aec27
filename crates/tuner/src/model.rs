//! The task-based cost model (paper equations 1–4).
//!
//! The cost of a collective is the maximum over node leaders of the sum of
//! its task costs. The task sequences mirror the pipelines built by
//! `han-core`:
//!
//! * Bcast: `ib(0), sbib(1), …, sbib(u-1), sb(u-1)` — eq. (3):
//!   `max_i( T_i(ib(0)) + (u-1)·T_i(sbib(s)) + T_i(sb(u-1)) )`.
//! * Allreduce: `sr, irsr, ibirsr, sbibirsr × (u-3), sbibir, sbib, sb` —
//!   eq. (4) — generalized to short pipelines (`u < 4`) by deriving each
//!   pipeline step's component set directly.
//!
//! Each task's cost is [`TaskBench::task_cost`]: benchmarked once per
//! `(config, segment size)` in a context fixed by the task alone, so
//! [`predict`] is a pure function of its arguments, and predicting a new
//! message size after the tasks are measured costs *zero* additional
//! benchmarking — the heart of the paper's tuning-time reduction.

use crate::taskbench::TaskBench;
use han_colls::stack::Unsupported;
use han_colls::Coll;
use han_core::task::TaskSpec;
use han_core::HanConfig;
use han_mpi::DataType;
use han_sim::Time;

/// The pipeline step sequence for a broadcast of `u` segments.
pub fn bcast_sequence(u: usize) -> Vec<TaskSpec> {
    (0..u + 1)
        .map(|t| TaskSpec {
            ib: t < u,
            sb: t >= 1,
            ir: false,
            sr: false,
        })
        .collect()
}

/// The pipeline step sequence for an allreduce of `u` segments.
pub fn allreduce_sequence(u: usize) -> Vec<TaskSpec> {
    (0..u + 3)
        .map(|t| TaskSpec {
            sr: t < u,
            ir: t >= 1 && t - 1 < u,
            ib: t >= 2 && t - 2 < u,
            sb: t >= 3 && t - 3 < u,
        })
        .collect()
}

/// Predict the cost of `coll` on message size `m` under `cfg`,
/// benchmarking on `tb` any task it has not measured yet. The paper
/// derives task sequences only for Bcast (eq. 3) and Allreduce (eq. 4);
/// any other collective is reported as [`Unsupported`] so sweeps skip it
/// rather than panic.
pub fn predict(
    tb: &mut TaskBench,
    cfg: &HanConfig,
    coll: Coll,
    m: u64,
) -> Result<Time, Unsupported> {
    let (sequence, dtype): (fn(usize) -> Vec<TaskSpec>, _) = match coll {
        Coll::Bcast => (bcast_sequence, DataType::Uint8),
        Coll::Allreduce => (allreduce_sequence, DataType::Float32),
        other => {
            return Err(Unsupported {
                stack: "HAN task-based cost model".to_string(),
                coll: other,
            })
        }
    };
    // The model counts the segments the builders actually emit.
    let preset = *tb.preset();
    let (fs, u) = cfg.segmentation(dtype, m, &preset.node, &preset.level_params());
    let seg = fs.min(m.max(1));
    // Eqs. (3)/(4): per leader, each task's cost times its number of
    // (consecutive) occurrences.
    let seq = sequence(u);
    let mut acc = vec![Time::ZERO; tb.leaders()];
    let mut i = 0;
    while i < seq.len() {
        let n = seq[i..].iter().take_while(|&&s| s == seq[i]).count();
        for (a, c) in acc.iter_mut().zip(tb.task_cost(cfg, seq[i], seg)) {
            *a += c * n as u64;
        }
        i += n;
    }
    Ok(acc.into_iter().max().unwrap_or(Time::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::stack::{time_coll, Coll};
    use han_core::Han;
    use han_machine::mini;

    #[test]
    fn bcast_sequence_matches_paper_tasks() {
        let seq = bcast_sequence(4);
        let names: Vec<_> = seq.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["ib", "sbib", "sbib", "sbib", "sb"]);
        // u=1: ib then sb, no sbib.
        let names: Vec<_> = bcast_sequence(1).iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["ib", "sb"]);
    }

    #[test]
    fn allreduce_sequence_matches_paper_tasks() {
        let names: Vec<_> = allreduce_sequence(6).iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "sr", "irsr", "ibirsr", "sbibirsr", "sbibirsr", "sbibirsr", "sbibir", "sbib", "sb"
            ]
        );
        let names: Vec<_> = allreduce_sequence(1).iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["sr", "ir", "ib", "sb"]);
        let names: Vec<_> = allreduce_sequence(2).iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["sr", "irsr", "ibir", "sbib", "sb"]);
    }

    #[test]
    fn distinct_specs_per_collective_match_paper_counts() {
        // "3 for MPI_Bcast and 8 for MPI_Allreduce" (section III-C) — the
        // allreduce leader path has 7 distinct specs; sbsr (the non-leader
        // task) is the 8th.
        let mut set = std::collections::HashSet::new();
        for s in bcast_sequence(10) {
            set.insert(s);
        }
        assert_eq!(set.len(), 3);
        let mut set = std::collections::HashSet::new();
        for s in allreduce_sequence(10) {
            set.insert(s);
        }
        set.insert(TaskSpec::SBSR);
        assert_eq!(set.len(), 8);
    }

    /// Model accuracy: prediction within a reasonable band of the actual
    /// simulated collective, and — more importantly (paper Fig. 4) — the
    /// *ranking* of configurations is preserved well enough to find a
    /// near-optimal configuration.
    #[test]
    fn prediction_tracks_actual() {
        let preset = mini(4, 4);
        let mut tb = TaskBench::new(&preset);
        let m = 2 << 20;
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for fs in [128 * 1024u64, 512 * 1024, 2 << 20] {
            let cfg = HanConfig::default().with_fs(fs);
            let pred = predict(&mut tb, &cfg, Coll::Bcast, m).unwrap();
            let act = time_coll(&Han::with_config(cfg), &preset, Coll::Bcast, m, 0).unwrap();
            let ratio = pred.as_ps() as f64 / act.as_ps() as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "fs={fs}: pred {pred} vs actual {act} (ratio {ratio:.2})"
            );
            preds.push(pred);
            actuals.push(act);
        }
        // Best-predicted config should be the best (or nearly best) actual.
        let best_pred = preds.iter().enumerate().min_by_key(|(_, t)| **t).unwrap().0;
        let best_act = actuals
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .unwrap()
            .0;
        let chosen = actuals[best_pred];
        let optimal = actuals[best_act];
        assert!(
            chosen.as_ps() as f64 <= optimal.as_ps() as f64 * 1.15,
            "model pick {chosen} must be within 15% of optimal {optimal}"
        );
    }

    #[test]
    fn prediction_reuses_tasks_across_message_sizes() {
        let preset = mini(4, 4);
        let mut tb = TaskBench::new(&preset);
        let cfg = HanConfig::default().with_fs(256 * 1024);
        predict(&mut tb, &cfg, Coll::Bcast, 1 << 20).unwrap();
        let runs = tb.runs;
        // Larger message, same segment size: only cache hits.
        predict(&mut tb, &cfg, Coll::Bcast, 16 << 20).unwrap();
        assert_eq!(tb.runs, runs, "no new benchmarks for a new message size");
    }

    #[test]
    fn unmodelled_collective_is_reported_not_panicked() {
        let preset = mini(2, 2);
        let mut tb = TaskBench::new(&preset);
        let err = predict(&mut tb, &HanConfig::default(), Coll::Gather, 1024).unwrap_err();
        assert_eq!(err.coll, Coll::Gather);
        assert!(err.to_string().contains("not implemented"), "{err}");
    }

    #[test]
    fn off_grid_fs_is_priced_at_the_built_segments() {
        // A reduction segments at whole elements, so `fs = 4097` builds
        // the `fs = 4096` program and must be priced like it.
        let preset = mini(4, 4);
        let mut tb = TaskBench::new(&preset);
        let mut at = |fs| {
            let cfg = HanConfig::default().with_fs(fs);
            predict(&mut tb, &cfg, Coll::Allreduce, 64 * 1024).unwrap()
        };
        assert_eq!(at(4097), at(4096));
    }

    #[test]
    fn allreduce_prediction_reasonable() {
        let preset = mini(4, 4);
        let mut tb = TaskBench::new(&preset);
        let m = 4 << 20;
        let cfg = HanConfig::default()
            .with_fs(512 * 1024)
            .with_intra(han_colls::IntraModule::Solo);
        let pred = predict(&mut tb, &cfg, Coll::Allreduce, m).unwrap();
        let act = time_coll(&Han::with_config(cfg), &preset, Coll::Allreduce, m, 0).unwrap();
        let ratio = pred.as_ps() as f64 / act.as_ps() as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "pred {pred} vs actual {act} (ratio {ratio:.2})"
        );
    }
}
