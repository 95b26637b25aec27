//! ASP: parallel Floyd–Warshall all-pairs shortest paths (paper ref \[40\]).
//!
//! "Processes take turns to act as the root, and broadcast a row of the
//! weight matrix to others, followed by computations, which causes
//! MPI_Bcast to be the most time-consuming part of ASP."
//!
//! The distance matrix is row-block distributed. Iteration `k` broadcasts
//! pivot row `k` from its owner, then every rank relaxes its rows:
//! `d[i][j] = min(d[i][j], d[i][k] + d[k][j])`. Table III times the first
//! `P` iterations (each process roots once) on 1536 processes.
//!
//! Communication runs through the full simulated stack; the relaxation
//! compute is modelled as `rows_per_rank × n / flops` virtual seconds per
//! iteration (every rank does identical work, so the bulk-synchronous step
//! time is `bcast + compute`).

use han_colls::stack::{build_coll, Coll, MpiStack};
use han_machine::{Machine, MachinePreset};
use han_mpi::{execute, ExecOpts};
use han_sim::Time;

/// ASP problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct AspConfig {
    /// Number of vertices `n` (distance values are `i32`).
    pub vertices: usize,
    /// Modelled relaxation throughput, updates/second per rank.
    pub flops: f64,
    /// How many iterations to time (`None` = one full pass: `world_size`
    /// iterations, the paper's Table III choice).
    pub iterations: Option<usize>,
}

impl Default for AspConfig {
    fn default() -> Self {
        AspConfig {
            vertices: 4096,
            flops: 2e9,
            iterations: None,
        }
    }
}

/// Timing breakdown of an ASP run.
#[derive(Debug, Clone, Copy)]
pub struct AspReport {
    pub iterations: usize,
    pub total: Time,
    pub comm: Time,
    pub compute: Time,
}

impl AspReport {
    /// Fraction of the runtime spent communicating (Table III's
    /// "comm ratio").
    pub fn comm_ratio(&self) -> f64 {
        if self.total == Time::ZERO {
            0.0
        } else {
            self.comm.as_ps() as f64 / self.total.as_ps() as f64
        }
    }
}

/// Run (the first iterations of) ASP under `stack` on `preset`.
pub fn run_asp(stack: &dyn MpiStack, preset: &MachinePreset, cfg: &AspConfig) -> AspReport {
    let world = preset.topology.world_size();
    let iters = cfg.iterations.unwrap_or(world).min(cfg.vertices);
    let row_bytes = (cfg.vertices * 4) as u64;
    let rows_per_rank = cfg.vertices.div_ceil(world);
    let per_iter_compute =
        Time::from_secs_f64(rows_per_rank as f64 * cfg.vertices as f64 / cfg.flops);

    let mut machine = Machine::from_preset(preset);
    let opts = ExecOpts::timing(stack.flavor().p2p());
    let mut comm = Time::ZERO;

    // Pivot rows 0..iters: row k is owned by rank k / rows_per_rank; the
    // first `world` iterations make each rank the root at least once when
    // vertices >= world (block ownership with n >= P covers fewer roots per
    // pass, so cycle roots explicitly like the paper's "each process acts
    // as the root process once").
    for k in 0..iters {
        let root = k % world;
        let prog = build_coll(stack, preset, Coll::Bcast, row_bytes, root).expect("bcast");
        comm += execute(&mut machine, &prog, &opts).makespan;
    }
    let compute = per_iter_compute * iters as u64;
    AspReport {
        iterations: iters,
        total: comm + compute,
        comm,
        compute,
    }
}

/// Reference sequential Floyd–Warshall (for verification).
pub fn floyd_warshall(n: usize, w: &[i32]) -> Vec<i32> {
    assert_eq!(w.len(), n * n);
    let mut d = w.to_vec();
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik == i32::MAX {
                continue;
            }
            for j in 0..n {
                let dkj = d[k * n + j];
                if dkj == i32::MAX {
                    continue;
                }
                let cand = dik.saturating_add(dkj);
                if cand < d[i * n + j] {
                    d[i * n + j] = cand;
                }
            }
        }
    }
    d
}

/// Functional parallel ASP: actually runs the row broadcasts through the
/// simulated stack with real payloads and performs the relaxations, returning
/// the full distance matrix. Used by tests to prove the collective layer
/// computes correct shortest paths end to end.
pub fn asp_verify(
    stack: &dyn MpiStack,
    preset: &MachinePreset,
    n: usize,
    weights: &[i32],
) -> Vec<i32> {
    let world = preset.topology.world_size();
    assert_eq!(weights.len(), n * n);
    assert!(n % world == 0, "verification requires world | n");
    let rows_per_rank = n / world;
    // Row-block distribution.
    let mut local: Vec<Vec<i32>> = (0..world)
        .map(|r| weights[r * rows_per_rank * n..(r + 1) * rows_per_rank * n].to_vec())
        .collect();

    let mut machine = Machine::from_preset(preset);
    let row_bytes = (n * 4) as u64;
    for k in 0..n {
        let owner = k / rows_per_rank;
        let prog = build_coll(stack, preset, Coll::Bcast, row_bytes, owner).expect("bcast");
        let opts = ExecOpts::timing(stack.flavor().p2p());
        // The collective's buffers start at offset 0 on every rank.
        let buf = han_mpi::BufRange::new(0, row_bytes);
        let local_ref = &local;
        let (_, mem) = han_mpi::execute_seeded(&mut machine, &prog, &opts, |mm| {
            let row_in_owner = k - owner * rows_per_rank;
            let row = &local_ref[owner][row_in_owner * n..(row_in_owner + 1) * n];
            let bytes: Vec<u8> = row.iter().flat_map(|x| x.to_le_bytes()).collect();
            mm.write(owner, buf, &bytes);
        });
        // Every rank reads the pivot row and relaxes its block.
        for (r, block) in local.iter_mut().enumerate() {
            let got = mem.read(r, buf);
            let pivot: Vec<i32> = got
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for i in 0..rows_per_rank {
                let dik = block[i * n + k];
                if dik == i32::MAX {
                    continue;
                }
                for j in 0..n {
                    if pivot[j] == i32::MAX {
                        continue;
                    }
                    let cand = dik.saturating_add(pivot[j]);
                    if cand < block[i * n + j] {
                        block[i * n + j] = cand;
                    }
                }
            }
        }
    }
    local.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::TunedOpenMpi;
    use han_core::{Han, HanConfig};
    use han_machine::mini;
    use han_sim::SimRng;

    fn random_weights(n: usize, seed: u64) -> Vec<i32> {
        let mut rng = SimRng::seeded(seed);
        let mut w = vec![0i32; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    w[i * n + j] = 0;
                } else {
                    // Sparse-ish graph: 1/3 of edges missing.
                    w[i * n + j] = if rng.u64(3) == 0 {
                        i32::MAX
                    } else {
                        1 + rng.u64(100) as i32
                    };
                }
            }
        }
        w
    }

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)]
    fn sequential_fw_small_graph() {
        // 0 -> 1 (1), 1 -> 2 (2), 0 -> 2 (10): shortest 0->2 is 3.
        let inf = i32::MAX;
        let w = vec![0, 1, 10, inf, 0, 2, inf, inf, 0];
        let d = floyd_warshall(3, &w);
        assert_eq!(d[0 * 3 + 2], 3);
        assert_eq!(d[1 * 3 + 2], 2);
        assert_eq!(d[2 * 3 + 0], inf);
    }

    #[test]
    fn parallel_asp_matches_sequential_with_han() {
        let preset = mini(2, 2);
        let n = 8;
        let w = random_weights(n, 42);
        let expect = floyd_warshall(n, &w);
        let han = Han::with_config(HanConfig::default().with_fs(16));
        let got = asp_verify(&han, &preset, n, &w);
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_asp_matches_sequential_with_tuned() {
        let preset = mini(2, 2);
        let n = 8;
        let w = random_weights(n, 7);
        let expect = floyd_warshall(n, &w);
        let got = asp_verify(&TunedOpenMpi, &preset, n, &w);
        assert_eq!(got, expect);
    }

    #[test]
    fn timing_report_consistency() {
        let preset = mini(2, 4);
        let cfg = AspConfig {
            vertices: 512,
            flops: 1e9,
            iterations: Some(8),
        };
        let rep = run_asp(&TunedOpenMpi, &preset, &cfg);
        assert_eq!(rep.iterations, 8);
        assert_eq!(rep.total, rep.comm + rep.compute);
        assert!(rep.comm > Time::ZERO);
        assert!(rep.comm_ratio() > 0.0 && rep.comm_ratio() < 1.0);
    }

    #[test]
    fn han_reduces_comm_ratio_vs_tuned() {
        let preset = mini(4, 4);
        let cfg = AspConfig {
            vertices: 2048,
            flops: 2e9,
            iterations: Some(16),
        };
        let tuned = run_asp(&TunedOpenMpi, &preset, &cfg);
        let han = run_asp(
            &Han::with_config(HanConfig::default().with_fs(8 * 1024)),
            &preset,
            &cfg,
        );
        assert!(
            han.comm < tuned.comm,
            "HAN comm {} should beat tuned {}",
            han.comm,
            tuned.comm
        );
        assert!(han.comm_ratio() < tuned.comm_ratio());
        // Same compute model on both stacks.
        assert_eq!(han.compute, tuned.compute);
    }
}
