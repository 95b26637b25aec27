//! Full-payload correctness oracle for synthesized schedules.
//!
//! Every schedule synthesis emits must move *bytes*, not just events: the
//! oracle executes the schedule in data mode ([`ExecOpts::with_data`]) on
//! deterministic payloads and compares every rank's buffer byte-for-byte
//! against a naive reference (the root's buffer for broadcast, the
//! elementwise sum for reductions).
//!
//! Reduction payloads are small-integer-valued `f32`s (every value and
//! every partial sum well under 2^24), so floating-point addition is
//! exact and order-independent — a byte-identical comparison is valid
//! for any reduction tree shape.
//!
//! Both payloads are periodic: 29 elements for reductions, 251 bytes for
//! broadcast. The oracle computes one cache-sized tile of each payload and
//! of the reference, then fills and compares whole buffers tile by tile.
//! The bytes are the closed forms' at every offset.

use han_colls::{BuildCtx, Coll, Frontier, MpiStack};
use han_core::{Han, HanConfig};
use han_machine::{Machine, MachinePreset};
use han_mpi::{
    execute_seeded, BufRange, Comm, DataType, ExecOpts, Program, ProgramBuilder, ReduceOp,
};

/// Element `j` of rank `rank`'s reduction payload, a small integer as
/// `f32`. It repeats every 29 elements.
fn reduce_elem(rank: usize, j: usize) -> f32 {
    ((rank * 13 + j * 7) % 29) as f32
}

/// Byte `i` of the broadcast payload. It repeats every 251 bytes.
fn bcast_byte(i: usize) -> u8 {
    (i.wrapping_mul(131).wrapping_add(17) % 251) as u8
}

/// Payloads and references are built from tiles of this many periods:
/// long enough that filling and comparing a buffer is a few large
/// `memcpy`/`memcmp` calls, short enough to stay in cache.
const TILE_PERIODS: usize = 64;

/// One tile of rank `rank`'s reduction payload.
fn reduce_tile(rank: usize) -> Vec<u8> {
    (0..29 * TILE_PERIODS)
        .flat_map(|j| reduce_elem(rank, j).to_le_bytes())
        .collect()
}

/// One tile of the elementwise sum of `n` ranks' reduction payloads,
/// summed in rank order.
fn sum_tile(n: usize) -> Vec<u8> {
    (0..29 * TILE_PERIODS)
        .flat_map(|j| (0..n).map(|r| reduce_elem(r, j)).sum::<f32>().to_le_bytes())
        .collect()
}

/// One tile of the broadcast payload.
fn bcast_tile() -> Vec<u8> {
    (0..251 * TILE_PERIODS).map(bcast_byte).collect()
}

/// Fill `dst` with `tile` repeated, the last copy cut short. Because the
/// tile is a whole number of periods, this is the closed form at every
/// offset.
fn fill(dst: &mut [u8], tile: &[u8]) {
    for c in dst.chunks_mut(tile.len()) {
        c.copy_from_slice(&tile[..c.len()]);
    }
}

/// Whether `buf` equals `tile` repeated, the last copy cut short.
fn is_filled(buf: &[u8], tile: &[u8]) -> bool {
    buf.chunks(tile.len()).all(|c| c == &tile[..c.len()])
}

/// A schedule compiled for the oracle: its program, every rank's user
/// buffer and the execution options of the stack that built it.
struct Built {
    prog: Program,
    bufs: Vec<BufRange>,
    opts: ExecOpts,
}

/// Compile `cfg`'s schedule for `coll` at `m` bytes from `root`.
fn build(
    preset: &MachinePreset,
    cfg: &HanConfig,
    coll: Coll,
    m: u64,
    root: usize,
) -> Result<Built, String> {
    let han = Han::with_config(*cfg);
    let n = preset.topology.world_size();
    let comm = Comm::world(n);
    let mut b = ProgramBuilder::new(n);
    let deps = Frontier::empty(n);
    let mut cx = BuildCtx::new(&mut b, preset);
    let bufs = cx.b.alloc_all(m);
    match coll {
        Coll::Bcast => {
            han.bcast(&mut cx, &comm, root, &bufs, &deps);
        }
        Coll::Allreduce => {
            han.allreduce(
                &mut cx,
                &comm,
                &bufs,
                ReduceOp::Sum,
                DataType::Float32,
                &deps,
            );
        }
        Coll::Reduce => {
            han.reduce(
                &mut cx,
                &comm,
                root,
                &bufs,
                ReduceOp::Sum,
                DataType::Float32,
                &deps,
            )
            .map_err(|e| format!("{cfg}: reduce unsupported: {e:?}"))?;
        }
        other => return Err(format!("oracle does not model {}", other.name())),
    }
    Ok(Built {
        prog: b.build(),
        bufs,
        opts: ExecOpts::with_data(han.flavor().p2p()),
    })
}

/// Execute `built` with real data and compare every delivered buffer with
/// the naive reference.
fn check(
    preset: &MachinePreset,
    built: &Built,
    coll: Coll,
    m: u64,
    root: usize,
) -> Result<(), String> {
    let Built { prog, bufs, opts } = built;
    let mut machine = Machine::from_preset(preset);
    match coll {
        Coll::Bcast => {
            let tile = bcast_tile();
            let (_, mem) = execute_seeded(&mut machine, prog, opts, |mm| {
                fill(mm.range_mut(root, bufs[root]), &tile)
            });
            for (r, buf) in bufs.iter().enumerate() {
                if !is_filled(mem.read(r, *buf), &tile) {
                    return Err(format!(
                        "bcast m={m} root={root}: rank {r} buffer differs from root payload"
                    ));
                }
            }
        }
        _ => {
            if m % 4 != 0 {
                return Err(format!(
                    "reduction payload must be 4-byte aligned, got m={m}"
                ));
            }
            let (_, mem) = execute_seeded(&mut machine, prog, opts, |mm| {
                for (r, buf) in bufs.iter().enumerate() {
                    fill(mm.range_mut(r, *buf), &reduce_tile(r));
                }
            });
            let expect = sum_tile(bufs.len());
            let ranks: Vec<usize> = if coll == Coll::Allreduce {
                (0..bufs.len()).collect()
            } else {
                vec![root]
            };
            for r in ranks {
                if !is_filled(mem.read(r, bufs[r]), &expect) {
                    return Err(format!(
                        "{} m={m}: rank {r} buffer differs from elementwise sum",
                        coll.name()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Execute `cfg`'s schedule for `coll` at `m` bytes with real data and
/// check every delivered buffer against the naive reference. `Ok(())`
/// means byte-identical delivery on every rank.
pub fn verify_schedule(
    preset: &MachinePreset,
    cfg: &HanConfig,
    coll: Coll,
    m: u64,
    root: usize,
) -> Result<(), String> {
    let built = build(preset, cfg, coll, m, root)?;
    check(preset, &built, coll, m, root).map_err(|e| format!("{cfg}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::{mini, mini3};
    use han_mpi::OpKind;

    #[test]
    fn accepts_known_good_schedules() {
        let preset = mini(3, 2);
        for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
            verify_schedule(
                &preset,
                &HanConfig::default().with_fs(4096),
                coll,
                16 * 1024,
                0,
            )
            .unwrap();
        }
        // Routed + sub-segmented broadcast.
        let routed = HanConfig::default()
            .with_fs(2048)
            .with_route(4, han_colls::InterAlg::Chain);
        verify_schedule(&preset, &routed, Coll::Bcast, 16 * 1024, 3).unwrap();
    }

    #[test]
    fn rejects_unmodeled_collectives_and_misaligned_payloads() {
        let preset = mini(2, 2);
        let cfg = HanConfig::default();
        assert!(verify_schedule(&preset, &cfg, Coll::Barrier, 1024, 0).is_err());
        assert!(verify_schedule(&preset, &cfg, Coll::Allreduce, 1022, 0).is_err());
    }

    #[test]
    fn tiles_equal_the_per_element_closed_forms() {
        let n = 16;
        for len in [4, 116, 1000, 16 * 1024 + 4] {
            let tiled = |tile: &[u8]| {
                let mut buf = vec![0u8; len];
                fill(&mut buf, tile);
                assert!(is_filled(&buf, tile));
                buf
            };
            let nelem = len / 4;
            for rank in [0, 1, 5, n - 1] {
                let want: Vec<u8> = (0..nelem)
                    .flat_map(|j| (((rank * 13 + j * 7) % 29) as f32).to_le_bytes())
                    .collect();
                assert_eq!(tiled(&reduce_tile(rank)), want, "rank {rank} len {len}");
            }
            let want: Vec<u8> = (0..nelem)
                .flat_map(|j| {
                    let s: f32 = (0..n).map(|r| ((r * 13 + j * 7) % 29) as f32).sum();
                    s.to_le_bytes()
                })
                .collect();
            assert_eq!(tiled(&sum_tile(n)), want, "sum len {len}");
            let want: Vec<u8> = (0..len as u64)
                .map(|i| (i.wrapping_mul(131).wrapping_add(17) % 251) as u8)
                .collect();
            assert_eq!(tiled(&bcast_tile()), want, "bcast len {len}");
            let mut bad = want.clone();
            bad[len - 1] ^= 1;
            assert!(!is_filled(&bad, &bcast_tile()));
        }
    }

    /// Move the first receive with a payload by one segment (its own
    /// length) within the receiving rank's memory.
    fn shift_recv(prog: &mut Program) {
        let meta = prog
            .msgs
            .iter_mut()
            .find(|m| m.dbuf.is_some_and(|d| d.len > 0))
            .expect("a message with a receive buffer");
        let d = meta.dbuf.unwrap();
        let shifted = if d.end() + d.len <= prog.mem_size[meta.dst as usize] {
            d.off + d.len
        } else {
            d.off - d.len
        };
        meta.dbuf = Some(BufRange::new(shifted, d.len));
    }

    /// Drop the source operand of the first reduction.
    fn drop_reduce_src(prog: &mut Program) {
        let src = prog
            .ops
            .iter_mut()
            .find_map(|o| match &mut o.kind {
                OpKind::Reduce { src, .. } | OpKind::ReduceFrom { src, .. } if src.is_some() => {
                    Some(src)
                }
                _ => None,
            })
            .expect("a reduction with a source");
        *src = None;
    }

    fn assert_tamper_rejected(
        preset: &MachinePreset,
        coll: Coll,
        tamper: fn(&mut Program),
        what: &str,
    ) {
        let cfg = HanConfig::default().with_fs(4096);
        let (m, root) = (16 * 1024, 1);
        let mut built = build(preset, &cfg, coll, m, root).unwrap();
        check(preset, &built, coll, m, root).unwrap();
        tamper(&mut built.prog);
        assert!(
            check(preset, &built, coll, m, root).is_err(),
            "{}: {what} on {} went unnoticed",
            preset.name,
            coll.name()
        );
    }

    #[test]
    fn rejects_tampered_programs() {
        for preset in [mini(3, 2), mini3(2, 2, 2)] {
            for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
                assert_tamper_rejected(&preset, coll, shift_recv, "shifted recv");
            }
            for coll in [Coll::Allreduce, Coll::Reduce] {
                assert_tamper_rejected(&preset, coll, drop_reduce_src, "dropped reduce src");
            }
        }
    }
}
