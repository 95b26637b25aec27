//! Golden-file regression for program construction and execution: an
//! FNV-1a digest of every field the executor reads (`ops`, `dep_off`,
//! the decoded `deps` of each op, `msgs`) for HAN and the baseline stacks
//! on two-level, three-level, multi-rail and deep GPU presets, plus the
//! makespan and event count of executing each program on its own preset,
//! pinned in `tests/golden/program_digests.json`.
//!
//! The two-level reference grid (every corner configuration on six
//! two-level shapes, the extended collectives, and the verify suite's
//! corners at its sizes) is pinned one rolled-up entry per (preset,
//! config); these digests are the reference the N-level builders answer
//! to on two-level machines.
//!
//! A builder refactor must leave every program identical op for op, and an
//! executor refactor must leave every run identical to the picosecond and
//! the event, so any change here is a behaviour change, not noise.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! HAN_BLESS=1 cargo test --test golden_programs
//! ```

use han::machine::{dgx_like, gpu_hier};
use han::mpi::{execute, BufRange, OpId, OpKind, Program};
use han::prelude::*;
use han::verify::SuiteOpts;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

mod common;

/// One pinned program.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenProgram {
    case: String,
    ops: usize,
    digest: String,
    /// Makespan of one timing run on a fresh machine of the program's
    /// preset, with the stack's point-to-point parameters.
    makespan_ps: u64,
    /// Simulator events that run processed.
    events: u64,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/program_digests.json")
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn buf(&mut self, r: Option<BufRange>) {
        match r {
            None => self.u64(u64::MAX),
            Some(r) => {
                self.u64(r.off);
                self.u64(r.len);
            }
        }
    }

    fn kind(&mut self, k: &OpKind) {
        match *k {
            OpKind::Nop => self.u64(0),
            OpKind::Delay { dur } => {
                self.u64(1);
                self.u64(dur.as_ps());
            }
            OpKind::Sleep { dur } => {
                self.u64(2);
                self.u64(dur.as_ps());
            }
            OpKind::Copy { src, dst } => {
                self.u64(3);
                self.u64(src.len);
                self.buf(Some(src));
                self.buf(Some(dst));
            }
            OpKind::CrossCopy { from, src, dst } => {
                self.u64(4);
                self.u64(u64::from(from));
                self.u64(src.len);
                self.buf(Some(src));
                self.buf(Some(dst));
            }
            OpKind::Reduce {
                vectorized,
                op,
                dtype,
                src,
                dst,
            } => {
                self.u64(5);
                self.u64(src.len);
                self.bytes(format!("{vectorized}{op:?}{dtype:?}").as_bytes());
                self.buf(Some(src));
                self.buf(Some(dst));
            }
            OpKind::ReduceFrom {
                from,
                vectorized,
                op,
                dtype,
                src,
                dst,
            } => {
                self.u64(6);
                self.u64(u64::from(from));
                self.u64(src.len);
                self.bytes(format!("{vectorized}{op:?}{dtype:?}").as_bytes());
                self.buf(Some(src));
                self.buf(Some(dst));
            }
            OpKind::Send { msg } => {
                self.u64(7);
                self.u64(u64::from(msg.0));
            }
            OpKind::Recv { msg } => {
                self.u64(8);
                self.u64(u64::from(msg.0));
            }
        }
    }
}

/// Digest of the op DAG and its message table.
fn digest(p: &Program) -> String {
    let mut h = Fnv::new();
    h.u64(p.nranks as u64);
    h.u64(p.ops.len() as u64);
    for (i, op) in p.ops.iter().enumerate() {
        h.u64(u64::from(op.rank));
        h.kind(&p.kind(OpId(i as u32)));
    }
    for &o in &p.dep_off {
        h.u64(u64::from(o));
    }
    // The ids each op depends on, decoded from the program's edge width.
    for i in 0..p.ops.len() as u32 {
        for d in p.deps(OpId(i)) {
            h.u64(u64::from(d.0));
        }
    }
    h.u64(p.msgs.len() as u64);
    for m in &p.msgs {
        h.u64(u64::from(m.src));
        h.u64(u64::from(m.dst));
        h.u64(m.bytes);
        h.buf(m.payload.map(|(s, _)| s));
        h.buf(m.payload.map(|(_, d)| d));
    }
    format!("{:016x}", h.0)
}

/// Fixed HAN configurations covering every submodule, tree shape,
/// internal segmentation, segment routing and per-level override.
fn han_configs() -> Vec<(&'static str, HanConfig)> {
    vec![
        ("default", HanConfig::default().with_fs(64 * 1024)),
        (
            "libnbc-solo",
            HanConfig::default()
                .with_fs(256 * 1024)
                .with_inter(InterModule::Libnbc, InterAlg::Binomial)
                .with_intra(IntraModule::Solo),
        ),
        (
            "chain-sm-seg",
            HanConfig {
                ibs: Some(16 * 1024),
                irs: Some(32 * 1024),
                ..HanConfig::default()
                    .with_fs(128 * 1024)
                    .with_inter(InterModule::Adapt, InterAlg::Chain)
            },
        ),
        (
            "binary-routed-deep",
            HanConfig::default()
                .with_fs(32 * 1024)
                .with_inter(InterModule::Adapt, InterAlg::Binary)
                .with_route(3, InterAlg::Chain)
                .with_deep(2, IntraModule::Solo),
        ),
    ]
}

const HAN_COLLS: [Coll; 3] = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];

/// Build one program and pin it; a collective the stack does not
/// implement is skipped.
fn push(
    out: &mut Vec<GoldenProgram>,
    case: String,
    stack: &dyn MpiStack,
    preset: &MachinePreset,
    coll: Coll,
    m: u64,
    root: usize,
) {
    if let Ok(p) = build_coll(stack, preset, coll, m, root) {
        let report = execute(
            &mut Machine::from_preset(preset),
            &p,
            &ExecOpts::timing(stack.flavor().p2p()),
        );
        out.push(GoldenProgram {
            case,
            ops: p.ops.len(),
            digest: digest(&p),
            makespan_ps: report.makespan.as_ps(),
            events: report.events,
        });
    }
}

/// Pin one grid cell, `cfg` on `preset` over `runs` of `(coll, m, root)`,
/// as a single entry: its digest folds every program's digest, makespan
/// and event count in order; ops, makespan and events are the totals.
fn push_cell(
    out: &mut Vec<GoldenProgram>,
    grid: &str,
    preset: &MachinePreset,
    cfg: HanConfig,
    runs: impl IntoIterator<Item = (Coll, u64, usize)>,
) {
    let han = Han::with_config(cfg);
    let mut cell = Vec::new();
    for (coll, m, root) in runs {
        push(&mut cell, String::new(), &han, preset, coll, m, root);
    }
    let mut h = Fnv::new();
    for p in &cell {
        h.bytes(p.digest.as_bytes());
        h.u64(p.makespan_ps);
        h.u64(p.events);
    }
    out.push(GoldenProgram {
        case: format!("{grid}/{}{:?}/{cfg}", preset.name, preset.topology.levels()),
        ops: cell.iter().map(|p| p.ops).sum(),
        digest: format!("{:016x}", h.0),
        makespan_ps: cell.iter().map(|p| p.makespan_ps).sum(),
        events: cell.iter().map(|p| p.events).sum(),
    });
}

fn programs() -> Vec<GoldenProgram> {
    let mut out = Vec::new();
    let presets = [
        mini(2, 4),
        shaheen2_ppn(16, 12),
        mini3(2, 2, 2),
        dgx_like(2, 4),
        gpu_hier(&[2, 2, 2, 2]),
    ];
    let sizes = [4u64, 48 * 1024, 1 << 20];
    for preset in &presets {
        let n = preset.topology.world_size();
        for (label, cfg) in han_configs() {
            let han = Han::with_config(cfg);
            for coll in HAN_COLLS {
                for m in sizes {
                    // A root that is neither rank 0 nor a node leader.
                    let root = if coll == Coll::Allreduce { 0 } else { n - 1 };
                    let case =
                        format!("{}/han-{label}/{}/{m}/root{root}", preset.name, coll.name());
                    push(&mut out, case, &han, preset, coll, m, root);
                }
            }
        }
        // The block-redistribution and barrier collectives, once each.
        let han = Han::with_config(HanConfig::default());
        for coll in [Coll::Gather, Coll::Scatter, Coll::Allgather, Coll::Barrier] {
            let case = format!("{}/han-default/{}/1024/root1", preset.name, coll.name());
            push(&mut out, case, &han, preset, coll, 1024, 1);
        }
    }

    // Paper scale, configured from the committed Shaheen table exactly as
    // the Fig. 10/13 reproduction does.
    let table = LookupTable::load(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/table_shaheen.json"),
    )
    .expect("results/table_shaheen.json loads");
    let han = Han::tuned(Arc::new(table));
    let paper = shaheen2_ppn(128, 32);
    for coll in [Coll::Bcast, Coll::Allreduce] {
        for m in [4u64, 1 << 20] {
            let case = format!("{}-128x32/han-table/{}/{m}/root0", paper.name, coll.name());
            push(&mut out, case, &han, &paper, coll, m, 0);
        }
    }
    // Reduce from rank 0 and from the last rank, which leads no node.
    for root in [0, paper.topology.world_size() - 1] {
        for m in [4u64, 1 << 20] {
            let case = format!("{}-128x32/han-table/reduce/{m}/root{root}", paper.name);
            push(&mut out, case, &han, &paper, Coll::Reduce, m, root);
        }
    }

    // The other stacks of the Fig. 10/12 lineups, on every collective.
    let preset = shaheen2_ppn(16, 12);
    let stacks: Vec<(&str, Box<dyn MpiStack>)> = vec![
        ("tuned", Box::new(TunedOpenMpi)),
        ("cray", Box::new(VendorMpi::cray())),
        ("intel", Box::new(VendorMpi::intel())),
        ("mvapich2", Box::new(VendorMpi::mvapich2())),
    ];
    for (label, stack) in &stacks {
        for coll in Coll::ALL {
            for m in [1024u64, 8 << 20] {
                let case = format!("{}/{label}/{}/{m}/root5", preset.name, coll.name());
                push(&mut out, case, stack.as_ref(), &preset, coll, m, 5);
            }
        }
    }

    // The two-level reference grid. Every corner configuration on six
    // two-level shapes: Bcast from rank 0 and from a middle rank, and
    // Allreduce, at 64 KiB and 2 MiB.
    let two_level = [
        mini(4, 4),
        mini(3, 5),
        mini(1, 6),
        mini(6, 1),
        shaheen2_ppn(4, 8),
        stampede2_ppn(3, 4),
    ];
    for preset in &two_level {
        let mid = (preset.topology.world_size() - 1) / 2;
        for cfg in common::corner_configs() {
            let runs = [64 * 1024u64, 2 << 20].into_iter().flat_map(|m| {
                [
                    (Coll::Bcast, m, 0),
                    (Coll::Bcast, m, mid),
                    (Coll::Allreduce, m, 0),
                ]
            });
            push_cell(&mut out, "corner", preset, cfg, runs);
        }
    }
    // The extended collectives on two more shapes.
    for preset in [mini(3, 4), shaheen2_ppn(2, 6)] {
        let runs = [
            (Coll::Reduce, 256 * 1024, 1),
            (Coll::Allgather, 4 * 1024, 0),
            (Coll::Barrier, 64, 0),
        ];
        let cfg = HanConfig::default().with_fs(64 * 1024);
        push_cell(&mut out, "extended", &preset, cfg, runs);
    }
    // The verify suite's corners at its sizes on its two-level presets.
    for preset in [mini(4, 4), dgx_like(2, 4)] {
        for cfg in han::verify::corner_configs() {
            let runs = SuiteOpts::default().sizes.into_iter().flat_map(|m| {
                [Coll::Bcast, Coll::Allreduce, Coll::Reduce].map(|coll| (coll, m, 0))
            });
            push_cell(&mut out, "verify", &preset, cfg, runs);
        }
    }
    // Gather and Scatter from a root that leads no node.
    for preset in [mini(3, 4), shaheen2_ppn(2, 6)] {
        let runs = [(Coll::Gather, 4 * 1024, 1), (Coll::Scatter, 4 * 1024, 1)];
        push_cell(&mut out, "rooted", &preset, HanConfig::default(), runs);
    }
    out
}

#[test]
fn built_programs_match_golden_digests() {
    let got = programs();
    let path = golden_path();
    if std::env::var("HAN_BLESS").is_ok() {
        let json = serde_json::to_string_pretty(&got).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        println!("blessed {} programs into {}", got.len(), path.display());
        return;
    }
    let golden: Vec<GoldenProgram> =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run HAN_BLESS=1",
                path.display()
            )
        }))
        .expect("golden file parses");
    assert_eq!(got.len(), golden.len(), "program count changed");
    let changed: Vec<(&GoldenProgram, &GoldenProgram)> =
        got.iter().zip(&golden).filter(|(g, w)| g != w).collect();
    // A re-bless that moves only dependency edges changes digests alone;
    // these counts tell it apart from one that changes what runs.
    let runs = |p: &GoldenProgram| (p.ops, p.makespan_ps, p.events);
    let moved = changed.iter().filter(|(g, w)| runs(g) != runs(w)).count();
    if !changed.is_empty() {
        let digest_only = changed
            .iter()
            .filter(|(g, w)| g.case == w.case && runs(g) == runs(w))
            .count();
        eprintln!("golden diff: {digest_only} entries changed only their digest");
        eprintln!("golden diff: {moved} entries changed ops, makespan_ps or events");
    }
    let diffs: Vec<String> = changed
        .iter()
        .map(|(g, w)| {
            format!(
                "{}: got {} ops {} {} ps {} events, golden {} {} ops {} {} ps {} events",
                g.case,
                g.ops,
                g.digest,
                g.makespan_ps,
                g.events,
                w.case,
                w.ops,
                w.digest,
                w.makespan_ps,
                w.events
            )
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "{} programs changed, {moved} of them in op count, makespan or event count:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
