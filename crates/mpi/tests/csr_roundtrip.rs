//! Property tests for the flat program layout: for random DAGs built
//! through `ProgramBuilder`, every op's CSR dependency slice is exactly the
//! slice handed to the builder and its decoded kind is exactly the
//! `OpKind` handed to it, and a cloned program — including one cloned
//! into a scratch that previously held a larger, different program —
//! executes identically to the original. Kinds also round-trip through
//! the 16-byte record at the extremes of every field, and through an
//! operands table that stores recurring ranges once. Every op becomes
//! ready when the latest of its dependencies' releases
//! (`Ranks::release`, through `trace_execution`) says it does, whether
//! the program stores its edges as two-byte distances or four-byte ids.

use han_machine::{mini, Flavor, Machine};
use han_mpi::program::MsgId;
use han_mpi::{
    execute, trace_execution, BufRange, DataType, ExecOpts, OpId, OpKind, Program, ProgramBuilder,
    ReduceOp, Report,
};
use han_sim::Time;
use proptest::prelude::*;

/// 2 nodes x 2 ranks: cross-rank dependencies must stay within a node.
const NODES: usize = 2;
const PPN: usize = 2;

/// One sampled op: (kind selector, rank, peer rank, dependency picks,
/// bytes or duration, reduction tags).
type OpSpec = (u32, usize, usize, Vec<usize>, u64, Red);

/// A reduction's `vectorized` flag and indices into `ReduceOp::ALL` and
/// `DataType::ALL`.
type Red = (bool, usize, usize);

fn arb_red() -> impl Strategy<Value = Red> {
    (
        any::<bool>(),
        0..ReduceOp::ALL.len(),
        0..DataType::ALL.len(),
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        (
            0u32..8,
            0..NODES * PPN,
            0..NODES * PPN,
            proptest::collection::vec(any::<usize>(), 0..4),
            1u64..200_000,
            arb_red(),
        ),
        1..60,
    )
}

/// Up to `picks.len()` distinct earlier ops on `rank`'s node, in pick order.
fn pick_deps(ranks: &[usize], rank: usize, picks: &[usize]) -> Vec<OpId> {
    let mut deps = Vec::new();
    if ranks.is_empty() {
        return deps;
    }
    for &p in picks {
        let d = p % ranks.len();
        let id = OpId(d as u32);
        if ranks[d] / PPN == rank / PPN && !deps.contains(&id) {
            deps.push(id);
        }
    }
    deps
}

/// What the builder was handed for one op.
struct Given {
    deps: Vec<OpId>,
    kind: OpKind,
}

/// Build a random DAG over all nine kinds; returns the program and what
/// each op was given. One-sided reads pull from a rank on the same node.
fn build(specs: &[OpSpec]) -> (Program, Vec<Given>) {
    let mut b = ProgramBuilder::new(NODES * PPN);
    let mut ranks: Vec<usize> = Vec::new();
    let mut given: Vec<Given> = Vec::new();
    let mut msgs = 0;
    for (sel, rank, peer, picks, x, (vectorized, op, dtype)) in specs {
        let (rank, peer) = (*rank, *peer);
        let deps = pick_deps(&ranks, rank, picks);
        let from = (rank / PPN * PPN + peer % PPN) as u32;
        let (vectorized, op, dtype) = (*vectorized, ReduceOp::ALL[*op], DataType::ALL[*dtype]);
        let kind = match sel {
            0 => OpKind::Nop,
            1 => OpKind::Delay {
                dur: Time::from_ps(*x),
            },
            2 => OpKind::Sleep {
                dur: Time::from_ps(*x),
            },
            3 => OpKind::Copy {
                src: b.alloc(rank, *x),
                dst: b.alloc(rank, *x),
            },
            4 => OpKind::CrossCopy {
                from,
                src: b.alloc(from as usize, *x),
                dst: b.alloc(rank, *x),
            },
            5 => OpKind::Reduce {
                vectorized,
                op,
                dtype,
                src: b.alloc(rank, *x),
                dst: b.alloc(rank, *x),
            },
            6 => OpKind::ReduceFrom {
                from,
                vectorized,
                op,
                dtype,
                src: b.alloc(from as usize, *x),
                dst: b.alloc(rank, *x),
            },
            _ if peer != rank => {
                let rdeps = pick_deps(&ranks, peer, picks);
                let (sbuf, dbuf) = (b.alloc(rank, *x), b.alloc(peer, *x));
                b.send_recv(rank, peer, sbuf, dbuf, &deps, &rdeps);
                let msg = MsgId(msgs);
                msgs += 1;
                ranks.push(rank);
                given.push(Given {
                    deps,
                    kind: OpKind::Send { msg },
                });
                ranks.push(peer);
                given.push(Given {
                    deps: rdeps,
                    kind: OpKind::Recv { msg },
                });
                continue;
            }
            _ => OpKind::Nop,
        };
        b.op(rank, kind, &deps);
        ranks.push(rank);
        given.push(Given { deps, kind });
    }
    (b.build(), given)
}

/// A range at or near the ends of `u64`, or anywhere; half the time one
/// of three fixed ranges, so that equal operands recur close together, as
/// they do in HAN's programs.
fn arb_range() -> impl Strategy<Value = BufRange> {
    let edge = || {
        prop_oneof![
            Just(0),
            Just(1),
            Just(u64::MAX - 1),
            Just(u64::MAX),
            any::<u64>()
        ]
    };
    prop_oneof![
        (edge(), edge()).prop_map(|(off, len)| BufRange::new(off, len)),
        prop_oneof![
            Just(BufRange::new(0, 8)),
            Just(BufRange::new(8, 8)),
            Just(BufRange::new(u64::MAX, 8)),
        ],
    ]
}

/// A rank at or near the ends of `u32`, or anywhere.
fn arb_rank() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX - 1), Just(u32::MAX), any::<u32>()]
}

/// Any op kind, with every field free: nothing here has to validate.
fn arb_kind() -> impl Strategy<Value = OpKind> {
    let dur = || prop_oneof![Just(0), Just(u64::MAX), any::<u64>()].prop_map(Time::from_ps);
    let msg = || prop_oneof![Just(u32::MAX), any::<u32>()].prop_map(MsgId);
    let red = || arb_red().prop_map(|(v, op, dt)| (v, ReduceOp::ALL[op], DataType::ALL[dt]));
    prop_oneof![
        Just(OpKind::Nop),
        dur().prop_map(|dur| OpKind::Delay { dur }),
        dur().prop_map(|dur| OpKind::Sleep { dur }),
        (arb_range(), arb_range()).prop_map(|(src, dst)| OpKind::Copy { src, dst }),
        (arb_rank(), arb_range(), arb_range()).prop_map(|(from, src, dst)| OpKind::CrossCopy {
            from,
            src,
            dst
        }),
        (red(), arb_range(), arb_range()).prop_map(|((vectorized, op, dtype), src, dst)| {
            OpKind::Reduce {
                vectorized,
                op,
                dtype,
                src,
                dst,
            }
        }),
        (arb_rank(), red(), arb_range(), arb_range()).prop_map(
            |(from, (vectorized, op, dtype), src, dst)| OpKind::ReduceFrom {
                from,
                vectorized,
                op,
                dtype,
                src,
                dst,
            }
        ),
        msg().prop_map(|msg| OpKind::Send { msg }),
        msg().prop_map(|msg| OpKind::Recv { msg }),
    ]
}

/// Every reduction kind: both ops, every operator and element type,
/// vectorized or not, pulling from the largest rank.
fn every_reduction() -> Vec<OpKind> {
    let (src, dst) = (BufRange::new(u64::MAX, 0), BufRange::new(0, u64::MAX));
    let mut kinds = Vec::new();
    for op in ReduceOp::ALL {
        for dtype in DataType::ALL {
            for vectorized in [false, true] {
                kinds.push(OpKind::Reduce {
                    vectorized,
                    op,
                    dtype,
                    src,
                    dst,
                });
                kinds.push(OpKind::ReduceFrom {
                    from: u32::MAX,
                    vectorized,
                    op,
                    dtype,
                    src,
                    dst,
                });
            }
        }
    }
    kinds
}

/// The `src` and `dst` ranges of a data op.
fn ranges(kind: &OpKind) -> Option<(BufRange, BufRange)> {
    match *kind {
        OpKind::Copy { src, dst }
        | OpKind::CrossCopy { src, dst, .. }
        | OpKind::Reduce { src, dst, .. }
        | OpKind::ReduceFrom { src, dst, .. } => Some((src, dst)),
        _ => None,
    }
}

/// Append `(rank, kind)` ops to an empty program, as the builder does,
/// and check each decodes to exactly what it was given, that two such
/// builds are equal, and that no data op of one range length added more
/// than one operands entry.
fn assert_round_trip(ops: &[(u32, OpKind)]) {
    let push_all = || {
        let mut p = Program::default();
        for (i, &(rank, kind)) in ops.iter().enumerate() {
            assert_eq!(p.push_op(rank, kind, &[]), OpId(i as u32));
        }
        p
    };
    let p = push_all();
    for (i, &(rank, kind)) in ops.iter().enumerate() {
        let id = OpId(i as u32);
        assert_eq!((p.op(id).rank, p.kind(id)), (rank, kind), "op {i}");
    }
    assert_eq!(push_all(), p);
    // Ranges of two lengths take two entries each.
    let (mut data, mut split) = (0, 0);
    for (src, dst) in ops.iter().filter_map(|(_, k)| ranges(k)) {
        data += 1;
        split += usize::from(src.len != dst.len);
    }
    assert!(
        p.operands.len() <= data + split,
        "{} operands entries for {data} data ops, {split} with two lengths",
        p.operands.len()
    );
}

#[test]
fn every_reduction_tag_round_trips() {
    let kinds = every_reduction();
    assert_eq!(kinds.len(), 2 * 4 * 5 * 2);
    let ops: Vec<(u32, OpKind)> = kinds.into_iter().map(|k| (u32::MAX, k)).collect();
    assert_round_trip(&ops);
}

/// How far back a dependency reaches: a short distance, the longest a
/// narrow program stores, the shortest it does not, or longer.
fn arb_back() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..8, Just(65_535), Just(65_536), 65_537u32..70_000]
}

/// Ops before the ones under test, so that every `arb_back` distance
/// reaches an op.
const LEAD: u32 = 70_000;

fn run(p: &Program) -> Report {
    let mut m = Machine::from_preset(&mini(NODES, PPN));
    execute(&mut m, p, &ExecOpts::timing(Flavor::OpenMpi.p2p()))
}

fn assert_same_run(a: &Report, b: &Report) {
    assert_eq!(a.makespan, b.makespan);
    assert!(a.op_finishes().eq(b.op_finishes()));
    assert_eq!(a.rank_finish, b.rank_finish);
    assert_eq!(a.events, b.events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_deps_equal_the_builder_slices(specs in arb_ops()) {
        let (p, given) = build(&specs);
        prop_assert_eq!(p.validate(), Ok(()));
        prop_assert_eq!(p.len(), given.len());
        prop_assert_eq!(p.dep_off.len(), p.len() + 1);
        for (i, g) in given.iter().enumerate() {
            let id = OpId(i as u32);
            prop_assert_eq!(p.deps(id).collect::<Vec<_>>(), g.deps.clone());
            prop_assert_eq!(p.kind(id), g.kind);
        }
    }

    #[test]
    fn kinds_round_trip_at_the_extremes(
        ops in proptest::collection::vec((arb_rank(), arb_kind()), 1..80),
    ) {
        assert_round_trip(&ops);
    }

    #[test]
    fn up_to_four_recurring_ranges_are_stored_once_each(
        ops in proptest::collection::vec((0u32..4, 0usize..4, arb_red()), 1..80),
    ) {
        // Four equal-length range pairs, used by every data kind in any
        // order: each pair is one operands entry however the ops interleave.
        let pairs = [(0, 64), (8, 64), (16, 72), (64, 0)].map(|(s, d)| {
            (BufRange::new(s, 8), BufRange::new(d, 8))
        });
        let ops: Vec<(u32, OpKind)> = ops
            .into_iter()
            .map(|(sel, pair, (vectorized, op, dtype))| {
                let (src, dst) = pairs[pair];
                let (op, dtype) = (ReduceOp::ALL[op], DataType::ALL[dtype]);
                let kind = match sel {
                    0 => OpKind::Copy { src, dst },
                    1 => OpKind::CrossCopy { from: 1, src, dst },
                    2 => OpKind::Reduce { vectorized, op, dtype, src, dst },
                    _ => OpKind::ReduceFrom { from: 1, vectorized, op, dtype, src, dst },
                };
                (0, kind)
            })
            .collect();
        assert_round_trip(&ops);
        let mut p = Program::default();
        let mut distinct = Vec::new();
        for &(rank, kind) in &ops {
            p.push_op(rank, kind, &[]);
            let r = ranges(&kind).unwrap();
            if !distinct.contains(&r) {
                distinct.push(r);
            }
        }
        prop_assert_eq!(p.operands.len(), distinct.len());
    }

    #[test]
    fn ops_become_ready_at_their_latest_release(
        specs in arb_ops(),
        skew in proptest::collection::vec(0u64..50_000, NODES * PPN),
    ) {
        let (p, _) = build(&specs);
        let mut m = Machine::from_preset(&mini(NODES, PPN));
        let skew = skew.into_iter().map(Time::from_ps).collect();
        let opts = ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(skew);
        // A span starts at the latest release of the op's dependencies,
        // floored at its rank's start time. A Nop finishes when it
        // becomes ready, a Sleep its duration later, and no op earlier.
        let (r, trace) = trace_execution(&mut m, &p, &opts);
        for (i, span) in trace.spans.iter().enumerate() {
            let id = OpId(i as u32);
            match p.kind(id) {
                OpKind::Nop => prop_assert_eq!(r.finish(id), span.start),
                OpKind::Sleep { dur } => prop_assert_eq!(r.finish(id), span.start + dur),
                _ => prop_assert!(r.finish(id) >= span.start),
            }
        }
    }

    #[test]
    fn clones_execute_like_the_original(
        specs in arb_ops(),
        bigger in arb_ops(),
    ) {
        let (p, _) = build(&specs);
        let want = run(&p);
        assert_same_run(&run(&p.clone()), &want);
        // A scratch that held a larger, different program: no stale CSR
        // tail, op or message may survive the copy.
        let mut all = bigger.clone();
        all.extend(specs.iter().cloned());
        all.extend(bigger);
        let (mut scratch, _) = build(&all);
        prop_assert!(scratch.len() > p.len());
        // Running it first also leaves the executor's cached structure on
        // the larger shape.
        run(&scratch);
        scratch.clone_from(&p);
        prop_assert_eq!(&scratch, &p);
        assert_same_run(&run(&scratch), &want);
    }

    #[test]
    fn deps_round_trip_and_release_at_either_width(
        tail in proptest::collection::vec(
            (0..PPN, proptest::collection::vec(arb_back(), 0..4), 0u64..5_000),
            1..20,
        ),
    ) {
        // `LEAD` Nops on rank 0, then Sleeps on one node reaching back by
        // `tail`'s distances: the program is wide iff one is past 65,535.
        let mut b = ProgramBuilder::new(NODES * PPN);
        for _ in 0..LEAD {
            b.nop(0, &[]);
        }
        let mut given = Vec::new();
        for (rank, backs, ps) in &tail {
            let id = b.num_ops() as u32;
            let deps: Vec<OpId> = backs.iter().map(|&d| OpId(id - d)).collect();
            b.sleep(*rank, Time::from_ps(*ps), &deps);
            given.push(deps);
        }
        let p = b.build();
        let wide = tail.iter().flat_map(|(_, backs, _)| backs).any(|&d| d > 65_535);
        prop_assert_eq!(p.dep.is_narrow(), !wide);
        prop_assert_eq!(p.validate(), Ok(()));
        for (k, deps) in given.iter().enumerate() {
            let id = OpId(LEAD + k as u32);
            prop_assert_eq!(p.deps(id).collect::<Vec<_>>(), deps.clone());
        }
        // The executor's child lists release each Sleep when the
        // program's dependency lists say they do.
        let mut m = Machine::from_preset(&mini(NODES, PPN));
        let (r, trace) = trace_execution(&mut m, &p, &ExecOpts::timing(Flavor::OpenMpi.p2p()));
        for (k, (_, _, ps)) in tail.iter().enumerate() {
            let id = OpId(LEAD + k as u32);
            let span = &trace.spans[id.0 as usize];
            prop_assert_eq!(r.finish(id), span.start + Time::from_ps(*ps));
        }
    }
}
