//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p han-bench --release --bin repro -- <what> [--scale mini|paper]
//! ```
//!
//! `<what>` ∈ `fig2 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 fig15 table3 ablation-pipeline ablation-irib ablation-models
//! verify synth hetero all`.
//!
//! `synth` runs schedule synthesis beyond the Table-II menu (han-synth)
//! on the small presets, checks every emitted Pareto-front point with the
//! symbolic correctness oracle (race-free, and correct in every execution
//! order its dependencies allow), and writes `results/synth.json`; any
//! oracle failure, unexpected skip, or a run with zero strict
//! synth-beats-menu wins exits with code 3.
//!
//! `verify` runs the `han-verify` performance-guideline catalog over the
//! mini / mini3 / socketized presets plus the heterogeneous multi-rail
//! `dgx_like` / `gpu_hier` machines and writes `results/verify.json`;
//! any guideline violation (or any unexpected `Unsupported` skip in a
//! sweep) makes the process exit with code 3, which CI gates on.
//!
//! `--scale paper` (default) uses the paper's machine shapes (Shaheen II:
//! 128×32 = 4096 ranks; Stampede2: 32×48 = 1536; tuning: 64×12 = 768).
//! `--scale mini` shrinks every experiment for quick smoke runs.
//!
//! Output layout: a paper-scale two-level run writes
//! `results/<name>.json`, the committed set that paper-scale `all`
//! reproduces byte for byte. `--scale mini` writes under `results/mini/`
//! and `--levels 3` under a further `d3/` (`results/d3/`,
//! `results/mini/d3/`), so no smoke run touches a committed file. A write
//! that fails, or a tuned table that exists but does not load, exits
//! with code 3.
//!
//! Fig. 8 and Fig. 9 each run one sweep whose strategies and collectives
//! share one in-memory [`han_tuner::CostCache`]. Virtual times are
//! identical with or without it — only wall-clock changes.
//!
//! An unknown target or flag, or an unknown `--scale` or `--levels`
//! value, exits with code 2 and lists the accepted targets, flags or
//! values.
//!
//! Each target's wall time and event-engine counters go to stderr as it
//! finishes; `all` ends with their sum.
//!
//! The exhaustive strategies always bound-prune: pruning never changes
//! the winner table, only how many candidates are simulated. Fig. 9 runs
//! the same pruned sweep as Fig. 8 for its winners, then measures every
//! candidate through [`han_tuner::candidate_costs`] (sharing the sweep's
//! cache) for the best/median/average distribution, and prints the
//! unpruned Fig. 8 totals from those costs; it leaves `results/fig8.json`
//! alone.
//!
//! `--levels 3` runs every experiment on the three-level (socketized)
//! forms of the machines — `[nodes, sockets, cores]` with a cross-socket
//! bus derating — instead of the paper's flat two-level shapes. The
//! hierarchy actually in use is reported up front via
//! [`han_machine::MachinePreset::level_params`].
//!
//! `hetero` runs the heterogeneous depth-scaling experiment (HiCCL-style
//! growing GPU hierarchies plus a multi-rail striping probe) and writes
//! `results/hetero.json`; non-monotone speedups or a striping speedup
//! ≤ 1 exit with code 3.
//!
//! All timings are **virtual (simulated) seconds**; the goal is shape
//! fidelity (who wins, by what factor, where the crossovers are), not the
//! testbeds' absolute microseconds. See `EXPERIMENTS.md`.

use han_bench::report::{save_json, us, Table};
use han_bench::{gate, imb_sweep, netpipe_sweep};
use han_colls::stack::{time_coll, time_coll_on, Coll, MpiStack};
use han_colls::{InterAlg, InterModule, IntraModule, TunedOpenMpi, VendorMpi};
use han_core::config::human_size;
use han_core::task::TaskSpec;
use han_core::{Han, HanConfig};
use han_machine::{shaheen2_ppn, socketize, stampede2_ppn, Flavor, Machine, MachinePreset};
use han_sim::{EngineStats, Summary, Time};
use han_tuner::space::pow2_range;
use han_tuner::taskbench::BENCH_ITERS;
use han_tuner::{
    candidate_costs, tune, tune_with_opts, CostCache, LookupTable, SearchSpace, Strategy,
    TaskBench, TuneOpts, TuneResult,
};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Paper,
    Mini,
}

struct Cfg {
    scale: Scale,
    /// Hierarchy depth: 2 = the paper's flat node/rank machines, 3 = the
    /// socketized `[nodes, sockets, cores]` forms.
    levels: usize,
}

impl Cfg {
    /// Expose a preset at the requested hierarchy depth: depth 2 returns
    /// it untouched; depth 3 splits each node into two shared-memory
    /// domains with a QPI-like cross-socket derating.
    fn deepen(&self, m: MachinePreset) -> MachinePreset {
        match self.levels {
            3 => socketize(m, 2, 1.6),
            _ => m,
        }
    }

    fn shaheen(&self) -> MachinePreset {
        self.deepen(match self.scale {
            Scale::Paper => shaheen2_ppn(128, 32), // 4096 procs (Figs. 10/13)
            Scale::Mini => shaheen2_ppn(8, 8),
        })
    }

    fn stampede(&self) -> MachinePreset {
        self.deepen(match self.scale {
            Scale::Paper => stampede2_ppn(32, 48), // 1536 procs (Figs. 12/14)
            Scale::Mini => stampede2_ppn(4, 8),
        })
    }

    fn tuning(&self) -> MachinePreset {
        self.deepen(match self.scale {
            Scale::Paper => shaheen2_ppn(64, 12), // Figs. 4/8/9
            Scale::Mini => shaheen2_ppn(8, 4),
        })
    }

    fn max_msg(&self) -> u64 {
        match self.scale {
            Scale::Paper => 128 << 20,
            Scale::Mini => 4 << 20,
        }
    }

    fn validation_msg(&self) -> u64 {
        match self.scale {
            Scale::Paper => 4 << 20, // Figs. 4/7 use 4 MB
            Scale::Mini => 1 << 20,
        }
    }

    /// Where output `name` goes: `results/<name>.json` for paper-scale
    /// two-level runs (the committed set), under `results/mini/` at mini
    /// scale and under a further `d3/` on three-level machines, so no
    /// smoke run touches a committed file.
    fn out(&self, name: &str) -> PathBuf {
        let mut dir = PathBuf::from("results");
        if self.scale == Scale::Mini {
            dir.push("mini");
        }
        if self.levels > 2 {
            dir.push(format!("d{}", self.levels));
        }
        dir.join(format!("{name}.json"))
    }

    /// Write `value` to [`Cfg::out`]`(name)` and return the path; a failed
    /// write fails the run.
    fn save<T: Serialize>(&self, name: &str, value: &T) -> PathBuf {
        let path = self.out(name);
        if let Err(e) = save_json(&path, value) {
            gate::fail(format!("cannot write {}: {e}", path.display()));
        }
        path
    }
}

/// The (imod, algorithm) combinations the paper's task figures sweep.
fn inter_combos() -> Vec<(InterModule, InterAlg, &'static str)> {
    vec![
        (InterModule::Libnbc, InterAlg::Binomial, "libnbc"),
        (InterModule::Adapt, InterAlg::Chain, "adapt/chain"),
        (InterModule::Adapt, InterAlg::Binary, "adapt/binary"),
        (InterModule::Adapt, InterAlg::Binomial, "adapt/binomial"),
    ]
}

fn combo_cfg(imod: InterModule, alg: InterAlg, smod: IntraModule, fs: u64) -> HanConfig {
    HanConfig {
        fs,
        imod,
        smod,
        ibalg: alg,
        iralg: alg,
        ibs: None,
        irs: None,
        deep: [None; han_core::MAX_DEEP],
        route: None,
    }
}

/// Tune a lookup table for a preset via the task-based strategy — how
/// HAN is configured in every end-to-end figure — and save it. Tables
/// cover both collectives over the full 4 B – 128 MB range. The saved
/// file is an output only: every call tunes afresh, so a table always
/// belongs to the preset as it is now.
fn tuned_table(cfg: &Cfg, preset: &MachinePreset, label: &str) -> LookupTable {
    let mut space = SearchSpace::standard();
    space.msg_sizes = pow2_range(4, 128 << 20);
    let colls = [Coll::Bcast, Coll::Allreduce];
    let table = tune(preset, &space, &colls, Strategy::TaskBasedHeuristic).table;
    cfg.save(&format!("table_{label}"), &table);
    table
}

fn han_for(cfg: &Cfg, preset: &MachinePreset, label: &str) -> Han {
    Han::tuned(Arc::new(tuned_table(cfg, preset, label)))
}

// ---------------------------------------------------------------- figures

/// Fig. 2: cost of tasks ib, sb, ib∥sb and sbib (with ib(0) start skew)
/// on each node leader, 64 KB segments, 6 nodes, rank 0 as root.
fn fig2(cfg: &Cfg) {
    println!("## Fig. 2 — cost of tasks ib, sb, ib||sb, sbib per node leader");
    println!("   (64KB segments, 6 nodes x 12 ranks, root 0; times in us)\n");
    let preset = shaheen2_ppn(6, 12);
    let seg = 64 * 1024;
    let mut out = Vec::new();
    for smod in [IntraModule::Sm] {
        for (imod, alg, name) in inter_combos() {
            let hc = combo_cfg(imod, alg, smod, seg);
            let mut tb = TaskBench::new(&preset);
            let ib = tb.first_cost(&hc, TaskSpec::IB, seg);
            let sb = tb.first_cost(&hc, TaskSpec::SB, seg);
            let concurrent = tb.first_cost(&hc, TaskSpec::SBIB, seg);
            // sbib with delayed participation = occurrence 1 after ib(0).
            let trace = tb.occurrence_trace(&hc, &[TaskSpec::IB], TaskSpec::SBIB, seg, 1);
            let sbib = &trace[0];
            let mut t = Table::new(&["leader", "ib(0)", "sb(0)", "ib||sb", "sbib(1)"]);
            for l in 0..preset.topology.nodes() {
                t.row(vec![
                    l.to_string(),
                    us(ib[l]),
                    us(sb[l]),
                    us(concurrent[l]),
                    us(sbib[l]),
                ]);
            }
            println!("### {name} + {smod}\n{}", t.render());
            out.push((
                name.to_string(),
                ib.iter().map(|t| t.as_ps()).collect::<Vec<_>>(),
                sbib.iter().map(|t| t.as_ps()).collect::<Vec<_>>(),
            ));
        }
    }
    cfg.save("fig2", &out);
}

/// Fig. 3: cost of sbib(i), i = 1..8, on one node leader — the
/// stabilization trend that justifies using sbib(s).
fn fig3(cfg: &Cfg) {
    println!("## Fig. 3 — cost of sbib(i) on node leader 2 (stabilization)\n");
    let preset = cfg.tuning();
    let leader = 2.min(preset.topology.nodes() - 1);
    let mut out = Vec::new();
    for (imod, alg, name) in inter_combos() {
        for seg in [64 * 1024u64, 512 * 1024] {
            let hc = combo_cfg(imod, alg, IntraModule::Sm, seg);
            let mut tb = TaskBench::new(&preset);
            let trace = tb.occurrence_trace(&hc, &[TaskSpec::IB], TaskSpec::SBIB, seg, 8);
            let series: Vec<Time> = trace.iter().map(|occ| occ[leader]).collect();
            let cells: Vec<String> = series.iter().map(|t| us(*t)).collect();
            println!(
                "{name:>16} seg={:>5}:  {}",
                human_size(seg),
                cells.join("  ")
            );
            out.push((
                name.to_string(),
                seg,
                series.iter().map(|t| t.as_ps()).collect::<Vec<_>>(),
            ));
        }
    }
    println!("\n(columns are sbib(1) .. sbib(8); values stabilize after the first few)\n");
    cfg.save("fig3", &out);
}

/// Figs. 4/7 shared: model-estimated vs actual time across segment sizes
/// for every submodule combination; checks that the best-estimated and
/// best-actual configurations agree.
fn model_validation(cfg: &Cfg, coll: Coll, fig: &str) {
    let preset = cfg.tuning();
    let m = cfg.validation_msg();
    println!(
        "## {fig} — {} cost model validation ({} message, {} nodes x {} ppn)\n",
        coll.name(),
        human_size(m),
        preset.topology.nodes(),
        preset.topology.ppn()
    );
    let seg_sizes = pow2_range(16 * 1024, m.min(4 << 20));
    let mut best_est: Option<(Time, HanConfig)> = None;
    let mut best_act: Option<(Time, HanConfig)> = None;
    let mut tb = TaskBench::new(&preset);
    let mut machine = Machine::from_preset(&preset);
    let mut out = Vec::new();
    for smod in [IntraModule::Sm, IntraModule::Solo] {
        for (imod, alg, name) in inter_combos() {
            let mut t = Table::new(&["fs", "estimated", "actual", "err%"]);
            for &fs in &seg_sizes {
                let hc = combo_cfg(imod, alg, smod, fs);
                let est = han_tuner::model::predict(&mut tb, &hc, coll, m).expect("modelled coll");
                let han = Han::with_config(hc);
                let act = time_coll_on(&han, &mut machine, &preset, coll, m, 0).expect("supported");
                let err = 100.0 * (est.as_ps() as f64 - act.as_ps() as f64) / act.as_ps() as f64;
                t.row(vec![human_size(fs), us(est), us(act), format!("{err:+.1}")]);
                if best_est.map(|(b, _)| est < b).unwrap_or(true) {
                    best_est = Some((est, hc));
                }
                if best_act.map(|(b, _)| act < b).unwrap_or(true) {
                    best_act = Some((act, hc));
                }
                out.push((
                    name.to_string(),
                    smod.to_string(),
                    fs,
                    est.as_ps(),
                    act.as_ps(),
                ));
            }
            println!("### {name} + {smod}\n{}", t.render());
        }
    }
    let (_, ce) = best_est.unwrap();
    let (ta, ca) = best_act.unwrap();
    println!("best estimated config: {ce}");
    println!("best actual    config: {ca}  ({})", us(ta));
    let han_est = Han::with_config(ce);
    let achieved = time_coll_on(&han_est, &mut machine, &preset, coll, m, 0).expect("supported");
    println!(
        "model-picked config achieves {} = {:.1}% of true optimum\n",
        us(achieved),
        100.0 * ta.as_ps() as f64 / achieved.as_ps() as f64
    );
    cfg.save(fig, &out);
}

fn fig4(cfg: &Cfg) {
    model_validation(cfg, Coll::Bcast, "fig4");
}

fn fig7(cfg: &Cfg) {
    model_validation(cfg, Coll::Allreduce, "fig7");
}

/// Fig. 6: overlap between ib and ir (opposite network directions).
fn fig6(cfg: &Cfg) {
    println!("## Fig. 6 — overlap between ib and ir (root 0; times in us)\n");
    let preset = shaheen2_ppn(6, 12);
    let seg = 512 * 1024;
    let mut out = Vec::new();
    for (imod, alg, name) in inter_combos() {
        let hc = combo_cfg(imod, alg, IntraModule::Sm, seg);
        let mut tb = TaskBench::new(&preset);
        let ib = tb.first_cost(&hc, TaskSpec::IB, seg);
        let ir = tb.first_cost(&hc, TaskSpec::IR, seg);
        let both = tb.first_cost(&hc, TaskSpec::IBIR, seg);
        let mut t = Table::new(&["leader", "ib", "ir", "ib||ir", "saved (us)"]);
        for l in 0..preset.topology.nodes() {
            // Time saved by overlap vs running the two tasks serially
            // (negative = interference outweighed overlap on this leader).
            let saved = (ib[l] + ir[l]).as_ps() as i128 - both[l].as_ps() as i128;
            t.row(vec![
                l.to_string(),
                us(ib[l]),
                us(ir[l]),
                us(both[l]),
                format!("{:+.1}", saved as f64 / 1e6),
            ]);
        }
        println!("### {name}\n{}", t.render());
        out.push((name.to_string(), ib.len()));
    }
    cfg.save("fig6", &out);
}

/// The collectives Figs. 8 and 9 tune.
const TUNED_COLLS: [Coll; 2] = [Coll::Bcast, Coll::Allreduce];

/// The search space Figs. 8 and 9 tune over.
fn tuning_space(cfg: &Cfg) -> SearchSpace {
    let mut space = SearchSpace::standard();
    if cfg.scale == Scale::Mini {
        space.msg_sizes = pow2_range(4, 1 << 20);
        space.seg_sizes = pow2_range(16 * 1024, 512 * 1024);
    }
    space
}

/// Tune Bcast+Allreduce on the tuning machine with each of the four
/// strategies, sharing one cost cache; returns the results and each
/// strategy's wall time. The exhaustive sweeps bound-prune, which never
/// changes a winner table.
fn tune_strategies(cfg: &Cfg) -> ([TuneResult; 4], Vec<f64>, Arc<CostCache>) {
    let preset = cfg.tuning();
    let space = tuning_space(cfg);
    let cache = Arc::new(CostCache::new(&preset));
    let mut walls = Vec::new();
    let results: Vec<TuneResult> = Strategy::ALL
        .iter()
        .map(|&s| {
            let t0 = std::time::Instant::now();
            let r = tune_with_opts(
                &preset,
                &space,
                &TUNED_COLLS,
                s,
                Some(cache.clone()),
                TuneOpts::default(),
            );
            walls.push(t0.elapsed().as_secs_f64());
            r
        })
        .collect();
    for r in &results {
        for s in &r.skipped {
            println!("[skipped] {} ({})", s, r.strategy.name());
            // Bcast and Allreduce are mandatory on every stack, so any
            // skip in this sweep is a regression — fail the run.
            gate::note(s);
        }
    }
    let results = results
        .try_into()
        .unwrap_or_else(|_| unreachable!("four strategies"));
    (results, walls, cache)
}

/// Fig. 8: total tuning time of the four strategies, with bound-pruned
/// exhaustive sweeps.
fn fig8(cfg: &Cfg) {
    let preset = cfg.tuning();
    println!(
        "## Fig. 8 — total search time, Bcast+Allreduce, {} nodes x {} ppn (bound-pruned)\n",
        preset.topology.nodes(),
        preset.topology.ppn(),
    );
    let (results, walls, cache) = tune_strategies(cfg);
    let base = results[0].tuning_time.as_secs_f64();
    let mut t = Table::new(&[
        "strategy",
        "searches",
        "pruned",
        "virtual time",
        "% of exhaustive",
        "wall (s)",
    ]);
    let mut out = Vec::new();
    for (r, wall) in results.iter().zip(&walls) {
        t.row(vec![
            r.strategy.name().to_string(),
            r.searches.to_string(),
            r.pruned.to_string(),
            format!("{:.2}s", r.tuning_time.as_secs_f64()),
            format!("{:.1}%", 100.0 * r.tuning_time.as_secs_f64() / base),
            format!("{wall:.2}"),
        ]);
        out.push((
            r.strategy.name().to_string(),
            r.searches,
            r.tuning_time.as_ps(),
        ));
    }
    println!("{}", t.render());
    let s = cache.stats();
    println!(
        "cost cache: {} hits / {} misses ({} coll + {} task entries)\n",
        s.hits, s.misses, s.coll_entries, s.task_entries
    );
    cfg.save("fig8", &out);
}

/// Fig. 9: achieved collective latency per tuning method, against the
/// exhaustive best/median/average of every candidate.
fn fig9(cfg: &Cfg) {
    let (results, _, cache) = tune_strategies(cfg);
    let preset = cfg.tuning();
    let space = tuning_space(cfg);
    // Every candidate's cost at every `(coll, m)`, duplicates included,
    // for both exhaustive strategies; the sweep's cache serves the
    // candidates it simulated.
    let full = |heuristic| -> Vec<(Coll, u64, Vec<Time>)> {
        let mut out = Vec::new();
        for coll in TUNED_COLLS {
            for &m in &space.msg_sizes {
                let costs = candidate_costs(&preset, &space, coll, m, heuristic, Some(&cache));
                let costs = costs.into_iter().filter_map(|(_, r)| r.ok()).collect();
                out.push((coll, m, costs));
            }
        }
        out
    };
    let exhaustive = full(false);

    println!("## Fig. 8 without bound pruning — every candidate simulated\n");
    let mut t = Table::new(&["strategy", "searches", "virtual time"]);
    for (r, costs) in results.iter().zip([&exhaustive, &full(true)]) {
        let runs: usize = costs.iter().map(|(_, _, c)| c.len()).sum();
        let spent = costs
            .iter()
            .flat_map(|(_, _, c)| c)
            .fold(Time::ZERO, |acc, &c| acc + c * BENCH_ITERS);
        t.row(vec![
            r.strategy.name().to_string(),
            runs.to_string(),
            format!("{:.2}s", spent.as_secs_f64()),
        ]);
    }
    println!("{}", t.render());

    println!("## Fig. 9 — achieved latency by tuning method (us)\n");
    let probe_sizes: Vec<u64> = results[0]
        .table
        .sampled_sizes(Coll::Bcast)
        .into_iter()
        .filter(|&m| m >= 64 * 1024)
        .collect();
    let mut out = Vec::new();
    for coll in TUNED_COLLS {
        let mut t = Table::new(&[
            "size", "best", "median", "average", "HAN", "exh+heur", "HAN+heur",
        ]);
        for &m in &probe_sizes {
            let dist = Summary::from_iter(
                exhaustive
                    .iter()
                    .filter(|(c, mm, _)| *c == coll && *mm == m)
                    .flat_map(|(_, _, costs)| costs.iter().copied()),
            );
            let achieved = |r: &TuneResult| {
                han_tuner::achieved_latency(&preset, &r.table, coll, m, Some(&cache))
                    .expect("tuned collectives are supported")
            };
            t.row(vec![
                human_size(m),
                us(dist.best()),
                us(dist.median()),
                us(dist.average()),
                us(achieved(&results[2])),
                us(achieved(&results[1])),
                us(achieved(&results[3])),
            ]);
            out.push((
                coll.name(),
                m,
                dist.best().as_ps(),
                dist.median().as_ps(),
                achieved(&results[2]).as_ps(),
            ));
        }
        println!("### {}\n{}", coll.name(), t.render());
    }
    cfg.save("fig9", &out);
}

/// Shared driver for the four IMB comparison figures: tuned HAN against
/// default Open MPI and Cray MPI on Shaheen II (Figs. 10, 13), or against
/// Intel MPI, MVAPICH2 and default Open MPI on Stampede2 (Figs. 12, 14).
fn imb_figure(cfg: &Cfg, fig: &str, machine: &str, coll: Coll) {
    let shaheen = machine == "shaheen";
    let preset = if shaheen {
        cfg.shaheen()
    } else {
        cfg.stampede()
    };
    let han: Box<dyn MpiStack> = Box::new(han_for(cfg, &preset, machine));
    let stacks: Vec<Box<dyn MpiStack>> = if shaheen {
        vec![han, Box::new(TunedOpenMpi), Box::new(VendorMpi::cray())]
    } else {
        vec![
            han,
            Box::new(VendorMpi::intel()),
            Box::new(VendorMpi::mvapich2()),
            Box::new(TunedOpenMpi),
        ]
    };
    println!(
        "## {fig} — {} on {} ({} procs); latency in us\n",
        coll.name(),
        preset.name,
        preset.topology.world_size()
    );
    let refs: Vec<&dyn MpiStack> = stacks.iter().map(|b| b.as_ref()).collect();
    let rows = imb_sweep(&refs, &preset, coll, &pow2_range(4, cfg.max_msg()));
    let mut header = vec!["size".to_string()];
    header.extend(stacks.iter().map(|s| s.name()));
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for row in &rows {
        let mut cells = vec![human_size(row.bytes)];
        cells.extend(
            row.results
                .iter()
                .map(|(_, time)| time.map(us).unwrap_or_else(|| "n/a".to_string())),
        );
        t.row(cells);
    }
    println!("{}", t.render());
    // Speedup summary vs each competitor (the paper's headline numbers).
    let han = stacks[0].name();
    for other in stacks.iter().skip(1) {
        let mut small_best = 0f64;
        let mut large_best = 0f64;
        for row in &rows {
            let s = row.speedup(&han, &other.name()).unwrap_or(1.0);
            if row.bytes <= 128 * 1024 {
                small_best = small_best.max(s);
            } else {
                large_best = large_best.max(s);
            }
        }
        println!(
            "max speedup of {han} vs {}: {small_best:.2}x (small), {large_best:.2}x (large)",
            other.name()
        );
    }
    println!();
    let json: Vec<(u64, Vec<(String, u64)>)> = rows
        .iter()
        .map(|r| {
            (
                r.bytes,
                r.results
                    .iter()
                    .filter_map(|(n, t)| t.map(|t| (n.clone(), t.as_ps())))
                    .collect(),
            )
        })
        .collect();
    cfg.save(fig, &json);
}

fn fig10(cfg: &Cfg) {
    imb_figure(cfg, "fig10", "shaheen", Coll::Bcast);
}

fn fig11(cfg: &Cfg) {
    println!("## Fig. 11 — Netpipe P2P bandwidth on Shaheen II (GB/s)\n");
    let preset = shaheen2_ppn(2, 32);
    let szs = pow2_range(1, 64 << 20);
    let ompi = netpipe_sweep(&preset, Flavor::OpenMpi, &szs);
    let cray = netpipe_sweep(&preset, Flavor::CrayMpi, &szs);
    let mut t = Table::new(&["size", "Open MPI", "Cray MPI", "ratio"]);
    let mut out = Vec::new();
    for (o, c) in ompi.iter().zip(&cray) {
        t.row(vec![
            human_size(o.bytes),
            format!("{:.3}", o.bandwidth / 1e9),
            format!("{:.3}", c.bandwidth / 1e9),
            format!("{:.2}", c.bandwidth / o.bandwidth),
        ]);
        out.push((o.bytes, o.bandwidth, c.bandwidth));
    }
    println!("{}", t.render());
    cfg.save("fig11", &out);
}

fn fig12(cfg: &Cfg) {
    imb_figure(cfg, "fig12", "stampede", Coll::Bcast);
}

fn fig13(cfg: &Cfg) {
    imb_figure(cfg, "fig13", "shaheen", Coll::Allreduce);
}

fn fig14(cfg: &Cfg) {
    imb_figure(cfg, "fig14", "stampede", Coll::Allreduce);
}

/// Fig. 15: Horovod/AlexNet throughput scaling.
fn fig15(cfg: &Cfg) {
    println!("## Fig. 15 — Horovod (AlexNet-like) images/s on Stampede2\n");
    let node_counts: Vec<usize> = match cfg.scale {
        Scale::Paper => vec![1, 2, 4, 8, 16, 32],
        Scale::Mini => vec![1, 2, 4],
    };
    let ppn = match cfg.scale {
        Scale::Paper => 48,
        Scale::Mini => 8,
    };
    let hv = han_apps::HorovodConfig::default();
    let mut t = Table::new(&["procs", "HAN", "Intel MPI", "default Open MPI"]);
    let mut out = Vec::new();
    for &nodes in &node_counts {
        let preset = stampede2_ppn(nodes, ppn);
        // The Figs. 12/14 machine shares their table.
        let label = format!("stampede_{nodes}x{ppn}");
        let same = preset.topology.levels() == cfg.stampede().topology.levels();
        let han = han_for(cfg, &preset, if same { "stampede" } else { &label });
        let h = han_apps::run_horovod(&han, &preset, &hv);
        let i = han_apps::run_horovod(&VendorMpi::intel(), &preset, &hv);
        let o = han_apps::run_horovod(&TunedOpenMpi, &preset, &hv);
        t.row(vec![
            h.procs.to_string(),
            format!("{:.1}", h.images_per_sec),
            format!("{:.1}", i.images_per_sec),
            format!("{:.1}", o.images_per_sec),
        ]);
        out.push((
            h.procs,
            h.images_per_sec,
            i.images_per_sec,
            o.images_per_sec,
        ));
    }
    println!("{}", t.render());
    if let Some((p, h, i, o)) = out.last() {
        println!(
            "at {p} procs: HAN is {:+.1}% vs Intel MPI, {:+.1}% vs default Open MPI\n",
            100.0 * (h / i - 1.0),
            100.0 * (h / o - 1.0)
        );
    }
    cfg.save("fig15", &out);
}

/// Table III: ASP on 1536 processes.
fn table3(cfg: &Cfg) {
    println!("## Table III — ASP (Floyd-Warshall), first P iterations\n");
    let preset = cfg.stampede();
    let world = preset.topology.world_size();
    let asp = han_apps::AspConfig {
        vertices: match cfg.scale {
            Scale::Paper => 16 * 1024,
            Scale::Mini => 2048,
        },
        flops: 1.2e9,
        iterations: Some(world),
    };
    let han = han_for(cfg, &preset, "stampede");
    let stacks: Vec<(&str, Box<dyn MpiStack>)> = vec![
        ("HAN", Box::new(han)),
        ("Intel MPI", Box::new(VendorMpi::intel())),
        ("MVAPICH2", Box::new(VendorMpi::mvapich2())),
        ("default Open MPI", Box::new(TunedOpenMpi)),
    ];
    let mut t = Table::new(&[
        "stack",
        "total (s)",
        "comm (s)",
        "comm %",
        "speedup vs self",
    ]);
    let mut reports = Vec::new();
    for (name, stack) in &stacks {
        let rep = han_apps::run_asp(stack.as_ref(), &preset, &asp);
        reports.push((name.to_string(), rep));
    }
    let han_total = reports[0].1.total;
    for (name, rep) in &reports {
        t.row(vec![
            name.clone(),
            format!("{:.3}", rep.total.as_secs_f64()),
            format!("{:.3}", rep.comm.as_secs_f64()),
            format!("{:.2}%", 100.0 * rep.comm_ratio()),
            format!(
                "{:.2}x",
                rep.total.as_ps() as f64 / han_total.as_ps() as f64
            ),
        ]);
    }
    println!("{}", t.render());
    let json: Vec<(String, u64, u64, f64)> = reports
        .iter()
        .map(|(n, r)| (n.clone(), r.total.as_ps(), r.comm.as_ps(), r.comm_ratio()))
        .collect();
    cfg.save("table3", &json);
}

/// Ablation: HAN's cross-level pipelining (fs sweep up to "one segment").
fn ablation_pipeline(cfg: &Cfg) {
    println!("## Ablation — pipelining (segment size sweep incl. no pipeline)\n");
    let preset = cfg.tuning();
    let m = cfg.validation_msg().max(4 << 20);
    let mut t = Table::new(&["fs", "bcast", "allreduce"]);
    let mut fss = pow2_range(64 * 1024, m);
    if *fss.last().unwrap() != m {
        fss.push(m); // the no-pipeline point
    }
    for fs in fss {
        let hc = HanConfig::default()
            .with_fs(fs)
            .with_intra(if fs >= 512 * 1024 {
                IntraModule::Solo
            } else {
                IntraModule::Sm
            });
        let han = Han::with_config(hc);
        t.row(vec![
            human_size(fs),
            us(time_coll(&han, &preset, Coll::Bcast, m, 0).expect("supported")),
            us(time_coll(&han, &preset, Coll::Allreduce, m, 0).expect("supported")),
        ]);
    }
    println!("{}", t.render());
    println!("(fs = message size disables the pipeline; mid-range fs wins)\n");
}

/// Ablation: breaking inter-node allreduce into ir+ib with the same
/// algorithm/root (HAN) vs mismatched algorithms (no aligned overlap).
fn ablation_irib(cfg: &Cfg) {
    println!("## Ablation — ir+ib same algorithm/root vs mismatched\n");
    let preset = cfg.tuning();
    let m = cfg.validation_msg();
    let mut t = Table::new(&["config", "allreduce"]);
    let same = HanConfig {
        ibalg: InterAlg::Binary,
        iralg: InterAlg::Binary,
        ..HanConfig::default().with_fs(256 * 1024)
    };
    let mixed = HanConfig {
        ibalg: InterAlg::Binary,
        iralg: InterAlg::Binomial,
        ..HanConfig::default().with_fs(256 * 1024)
    };
    for (name, hc) in [
        ("same (binary/binary)", same),
        ("mixed (binomial ir, binary ib)", mixed),
    ] {
        let han = Han::with_config(hc);
        t.row(vec![
            name.to_string(),
            us(time_coll(&han, &preset, Coll::Allreduce, m, 0).expect("supported")),
        ]);
    }
    println!("{}", t.render());
}

/// Ablation: task-based model accuracy vs conventional analytic models.
fn ablation_models(cfg: &Cfg) {
    println!("## Ablation — prediction error: task-based model vs analytic models\n");
    let preset = cfg.tuning();
    let mut tb = TaskBench::new(&preset);
    let mut machine = Machine::from_preset(&preset);
    let mut rows: Vec<(String, Vec<(Time, Time)>)> = han_tuner::analytic::AnalyticModel::ALL
        .iter()
        .map(|m| (m.name().to_string(), Vec::new()))
        .collect();
    rows.push(("task-based (HAN)".into(), Vec::new()));
    for &m in &pow2_range(256 * 1024, cfg.validation_msg()) {
        for fs in [128 * 1024u64, 512 * 1024] {
            let hc = HanConfig::default()
                .with_fs(fs)
                .with_intra(if fs >= 512 * 1024 {
                    IntraModule::Solo
                } else {
                    IntraModule::Sm
                });
            let han = Han::with_config(hc);
            let actual =
                time_coll_on(&han, &mut machine, &preset, Coll::Bcast, m, 0).expect("supported");
            for (i, model) in han_tuner::analytic::AnalyticModel::ALL.iter().enumerate() {
                let p = han_tuner::analytic::predict_bcast(*model, &preset, &hc, m);
                rows[i].1.push((p, actual));
            }
            let p = han_tuner::model::predict(&mut tb, &hc, Coll::Bcast, m).expect("modelled");
            rows.last_mut().unwrap().1.push((p, actual));
        }
    }
    let mut t = Table::new(&["model", "mean |rel err|"]);
    for (name, pairs) in &rows {
        t.row(vec![
            name.clone(),
            format!(
                "{:.1}%",
                100.0 * han_tuner::analytic::mean_relative_error(pairs)
            ),
        ]);
    }
    println!("{}", t.render());
}

/// `repro verify`: run the performance-guideline catalog (han-verify)
/// over the standard mini / mini3 / socketized presets and persist the
/// structured report. Violations are recorded on the exit-code gate so
/// the process ends nonzero — this is what the CI smoke job runs.
fn verify(cfg: &Cfg) {
    println!("## verify — performance-guideline catalog (han-verify)\n");
    let presets = han_verify::standard_presets();
    let report = han_verify::run_suite(&presets);

    let mut t = Table::new(&["guideline", "checks", "violations"]);
    for g in &report.guidelines {
        t.row(vec![
            g.id.clone(),
            g.checks.to_string(),
            g.violations.len().to_string(),
        ]);
    }
    println!("{}", t.render());
    for v in report.violations() {
        println!(
            "[violation] {} on {} / {} ({}, m={}): {} (observed {} ps, bound {} ps, \
             slack {:+.3})",
            v.guideline,
            v.preset,
            v.coll,
            v.config,
            v.m,
            v.detail,
            v.observed_ps,
            v.bound_ps,
            v.rel_slack
        );
    }
    let path = cfg.save("verify", &report);
    println!(
        "verify: {} presets, {} guidelines, {} checks, {} violation(s) -> {}",
        report.presets.len(),
        report.guidelines.len(),
        report.total_checks,
        report.total_violations,
        path.display()
    );
    if !report.passed() {
        gate::fail(format!(
            "{} guideline violation(s)",
            report.total_violations
        ));
    }
}

/// One persisted front point: `(cfg display, menu?, lat_ps, bw_ps)`.
type SynthPointRow = (String, bool, u64, u64);
/// One persisted front: `(coll, m, points, menu_best_ps)`.
type SynthFrontRow = (String, u64, Vec<SynthPointRow>, Option<u64>);

/// `repro synth`: schedule synthesis beyond the Table-II menu
/// (han-synth) on the standard small presets. Emits the per-group
/// latency/bandwidth Pareto fronts, checks **every** front point with
/// the symbolic correctness oracle ([`han_synth::verify_schedule`]:
/// race-free, and correct in every legal execution order), and persists
/// `results/synth.json`. The exit-code gate requires zero correctness
/// failures, zero unexpected skips, and at least one group where the
/// synthesized winner strictly beats the best Table-II menu schedule —
/// the claim that makes synthesis worth shipping.
fn synth(cfg: &Cfg) {
    use han_machine::{dgx_like, mini, mini3};
    use han_synth::{synthesize, verify_schedule, SynthOpts};
    println!("## synth — schedule synthesis beyond the Table-II menu (han-synth)\n");
    let presets = vec![mini(4, 4), mini3(2, 2, 2), dgx_like(2, 4)];
    let space = if cfg.scale == Scale::Mini {
        han_synth::default_space()
    } else {
        SearchSpace {
            msg_sizes: vec![16 * 1024, 256 * 1024, 2 << 20, 8 << 20],
            seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
            inter: SearchSpace::standard().inter,
            intra: vec![IntraModule::Sm, IntraModule::Solo],
        }
    };
    let opts = SynthOpts::default();
    let colls = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];

    let mut t = Table::new(&[
        "preset",
        "groups",
        "candidates",
        "simulated",
        "runs",
        "beamed",
        "pareto pts",
        "strict wins",
        "oracle",
    ]);
    let mut json: Vec<(String, Vec<SynthFrontRow>)> = Vec::new();
    let mut total_wins = 0usize;
    let mut total_points = 0usize;
    let mut oracle_failures = 0usize;
    for preset in &presets {
        let r = synthesize(preset, &space, &colls, opts);
        if !r.skipped.is_empty() {
            gate::fail(format!(
                "synth on {}: unexpected skips: {:?}",
                preset.name, r.skipped
            ));
        }
        let mut checked = 0usize;
        let mut failed = 0usize;
        for f in &r.fronts {
            for p in &f.points {
                checked += 1;
                if let Err(e) = verify_schedule(preset, &p.cfg, f.coll, f.m, 0) {
                    failed += 1;
                    println!("[oracle failure] {}: {e}", preset.name);
                }
            }
        }
        oracle_failures += failed;
        let wins = r.strict_wins();
        total_wins += wins;
        let points: usize = r.fronts.iter().map(|f| f.points.len()).sum();
        total_points += points;
        t.row(vec![
            preset.name.to_string(),
            r.fronts.len().to_string(),
            r.candidates.to_string(),
            r.simulated.to_string(),
            r.runs.to_string(),
            r.beamed.to_string(),
            points.to_string(),
            wins.to_string(),
            format!("{}/{checked}", checked - failed),
        ]);
        json.push((
            preset.name.to_string(),
            r.fronts
                .iter()
                .map(|f| {
                    (
                        f.coll.name().to_string(),
                        f.m,
                        f.points
                            .iter()
                            .map(|p| (p.cfg.to_string(), p.menu, p.lat_ps, p.bw_ps))
                            .collect(),
                        f.menu_best_ps,
                    )
                })
                .collect(),
        ));
    }
    println!("{}", t.render());
    let path = cfg.save("synth", &json);
    println!(
        "synth: {} presets, {total_points} pareto points, {total_wins} strict \
         synth-beats-menu win(s) -> {}",
        presets.len(),
        path.display()
    );
    if oracle_failures > 0 {
        gate::fail(format!(
            "{oracle_failures} synthesized schedule(s) failed the correctness oracle"
        ));
    }
    if total_wins == 0 {
        gate::fail("synthesis never strictly beat the Table-II menu".to_string());
    }
}

/// `repro hetero`: the HiCCL-style depth-scaling experiment on
/// heterogeneous GPU-era machines, plus the multi-rail striping win,
/// persisted to `results/hetero.json`.
///
/// The machine grows as it deepens, HiCCL's hardware shape (node → board
/// → device → tile): `[4,4]` (16 ranks) → `[4,4,4]` (64) → `[4,4,4,4]`
/// (256), every added inner level faster than the one containing it (see
/// [`han_machine::gpu_hier`]). HAN is tuned per machine over a small
/// exhaustive space; the baseline is the topology-oblivious single-level
/// reference stack, which sees none of the hierarchy. The hierarchical
/// margin must grow with depth — a non-monotone depth column trips the
/// exit-code gate, so CI can run this target the way it runs `verify`.
fn hetero(cfg: &Cfg) {
    use han_machine::{dgx_like, gpu_hier, RailPolicy};
    println!("## hetero — depth scaling on heterogeneous machines + NIC striping\n");
    let shapes: [&[usize]; 3] = [&[4, 4], &[4, 4, 4], &[4, 4, 4, 4]];
    let m: u64 = 4 << 20;
    let mut space = SearchSpace::standard();
    space.msg_sizes = vec![m];
    let colls = [Coll::Bcast, Coll::Allreduce];
    let flat = TunedOpenMpi;

    let mut rows: Vec<(String, usize, String, u64, u64, f64)> = Vec::new();
    let mut t = Table::new(&["extents", "coll", "HAN", "flat", "speedup"]);
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); colls.len()];
    for shape in shapes {
        let preset = gpu_hier(shape);
        let tuned = tune(&preset, &space, &colls, Strategy::Exhaustive);
        let han = Han::tuned(Arc::new(tuned.table));
        for (ci, &coll) in colls.iter().enumerate() {
            let th = time_coll(&han, &preset, coll, m, 0).expect("HAN");
            let tf = time_coll(&flat, &preset, coll, m, 0).expect("flat");
            let speedup = tf.as_ps() as f64 / th.as_ps().max(1) as f64;
            t.row(vec![
                format!("{shape:?}"),
                coll.name().to_string(),
                us(th),
                us(tf),
                format!("{speedup:.2}x"),
            ]);
            speedups[ci].push(speedup);
            rows.push((
                format!("{shape:?}"),
                shape.len(),
                coll.name().to_string(),
                th.as_ps(),
                tf.as_ps(),
                speedup,
            ));
        }
    }
    println!("{}", t.render());

    // Multi-rail NICs: the same DGX-like machine with its 4 striped rails
    // collapsed to one. Striping multiplies injection bandwidth, so the
    // bandwidth-bound broadcast must speed up.
    let dgx = dgx_like(2, 4);
    let dgx1 = dgx.with_rails(1, RailPolicy::Stripe);
    let hc = Han::with_config(HanConfig::default().with_fs(256 * 1024));
    let t4 = time_coll(&hc, &dgx, Coll::Bcast, m, 0).expect("striped");
    let t1 = time_coll(&hc, &dgx1, Coll::Bcast, m, 0).expect("single rail");
    let rail_speedup = t1.as_ps() as f64 / t4.as_ps().max(1) as f64;
    println!(
        "rail striping: bcast {} on 1 rail -> {} on {} striped rails ({:.2}x)\n",
        us(t1),
        us(t4),
        dgx.net.rails,
        rail_speedup
    );

    let path = cfg.save("hetero", &(&rows, rail_speedup));
    println!("hetero: {} rows -> {}", rows.len(), path.display());

    for (ci, coll) in colls.iter().enumerate() {
        let s = &speedups[ci];
        if !s.windows(2).all(|w| w[0] < w[1]) {
            gate::fail(format!(
                "{} hierarchical speedup not increasing with depth: {s:?}",
                coll.name()
            ));
        }
    }
    if rail_speedup <= 1.0 {
        gate::fail(format!("rail striping speedup {rail_speedup:.2} <= 1"));
    }
}

/// The next argument, which must be present: the value of `--flag`.
fn flag_value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> &'a str {
    match it.next() {
        Some(v) => v,
        None => gate::usage_error(format!("missing value for --{flag}")),
    }
}

/// A target's name and the function that runs it.
type Target = (&'static str, fn(&Cfg));

/// Every target, in the order `all` runs them.
const TARGETS: [Target; 20] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("table3", table3),
    ("ablation-pipeline", ablation_pipeline),
    ("ablation-irib", ablation_irib),
    ("ablation-models", ablation_models),
    ("verify", verify),
    ("synth", synth),
    ("hetero", hetero),
];

/// Print `what`'s wall time, event-engine counters and, when known, peak
/// resident set to stderr.
fn report_engine(what: &str, wall: f64, eng: &EngineStats, peak_mb: Option<f64>) {
    let peak = peak_mb.map_or(String::new(), |mb| format!(", peak RSS {mb:.1} MB"));
    eprintln!(
        "[repro] {what} done in {wall:.1}s wall; event engine: {} pushes, {} pops \
         ({:.2}M events/s), {} batched pops (max burst {}), max queue depth {}{peak}",
        eng.pushes,
        eng.pops,
        eng.pops as f64 / wall.max(1e-9) / 1e6,
        eng.batched_pops,
        eng.max_batch,
        eng.max_depth
    );
}

/// Reset this process's peak resident set (`VmHWM`) to its current one;
/// false where the kernel offers no reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set (`VmHWM`) in MiB, the unit of the
/// benchmark's `peak_rss_mb`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut levels = 2usize;
    let mut what = "all".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            let scales = [("paper", Scale::Paper), ("mini", Scale::Mini)];
            scale = gate::choose("scale", flag_value(&mut it, "scale"), &scales);
        } else if a == "--levels" {
            let depths = [("2", 2), ("3", 3)];
            levels = gate::choose("levels", flag_value(&mut it, "levels"), &depths);
        } else if a.starts_with("--") {
            gate::usage_error(format!(
                "unknown flag {a}; accepted flags: --scale --levels"
            ));
        } else {
            what = a.clone();
        }
    }
    let targets = match TARGETS.iter().find(|&&(name, _)| name == what) {
        Some(&target) => vec![target],
        None if what == "all" => TARGETS.to_vec(),
        None => {
            let names: Vec<&str> = TARGETS.iter().map(|&(name, _)| name).collect();
            gate::usage_error(format!(
                "unknown target '{what}'; expected {}|all",
                names.join("|")
            ))
        }
    };
    let cfg = Cfg { scale, levels };

    // Report the hierarchy actually in use (the tuning machine is
    // representative; all presets share the same depth).
    let probe = cfg.tuning();
    println!(
        "machine hierarchy ({} levels, extents {:?}):",
        probe.topology.depth(),
        probe.topology.levels()
    );
    let lv = probe.level_params();
    for (k, lp) in lv.iter().enumerate() {
        println!(
            "  level {}: {:<13} {:>7.1} GB/s, {} latency",
            k,
            han_machine::level_label(lv.depth(), k),
            lp.bandwidth / 1e9,
            lp.latency
        );
    }
    println!();

    // Each target runs on freshly reset engine counters and peak resident
    // set; `all` also reports their sum (the depth, burst and peak columns
    // are maxima).
    let start = std::time::Instant::now();
    let mut total = EngineStats::default();
    let mut total_peak = None;
    for (name, run) in targets {
        han_mpi::reset_engine_totals();
        let reset = reset_peak_rss();
        let t0 = std::time::Instant::now();
        run(&cfg);
        let eng = han_mpi::engine_totals();
        let peak = peak_rss_mb().filter(|_| reset);
        if let Some(p) = peak {
            total_peak = Some(total_peak.map_or(p, |t: f64| t.max(p)));
        }
        report_engine(name, t0.elapsed().as_secs_f64(), &eng, peak);
        if eng.clamped > 0 {
            eprintln!(
                "[repro] WARNING: {} event(s) were scheduled in the past and clamped \
                 to the current virtual time — simulation results may be suspect",
                eng.clamped
            );
            gate::note_clamped(&format!("repro {name} event engine"), eng.clamped);
        }
        total = EngineStats {
            pushes: total.pushes + eng.pushes,
            pops: total.pops + eng.pops,
            clamped: total.clamped + eng.clamped,
            max_depth: total.max_depth.max(eng.max_depth),
            batched_pops: total.batched_pops + eng.batched_pops,
            max_batch: total.max_batch.max(eng.max_batch),
        };
    }
    if what == "all" {
        report_engine("all", start.elapsed().as_secs_f64(), &total, total_peak);
    }
    let code = gate::finish("repro");
    if code != 0 {
        std::process::exit(code);
    }
}
