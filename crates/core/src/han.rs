//! The HAN facade: an [`MpiStack`] backed by either a fixed configuration
//! or an autotuned decision source (the lookup table from `han-tuner`).

use crate::allreduce::{build_allreduce, build_reduce};
use crate::bcast::build_bcast;
use crate::config::HanConfig;
use crate::extend::{build_allgather, build_barrier, build_gather, build_scatter};
use han_colls::stack::{BuildCtx, Coll, MpiStack, Unsupported};
use han_colls::Frontier;
use han_machine::Flavor;
use han_mpi::{BufRange, Comm, DataType, ReduceOp};
use std::sync::Arc;

/// Where HAN gets its configuration for a given collective invocation —
/// the second autotuning step of section III-C: "use the lookup table …
/// to generate decisions for any inputs (n, p, m and t)". A source
/// serves one machine, so it is keyed by collective and size only.
pub trait ConfigSource: Send + Sync {
    fn config(&self, coll: Coll, bytes: u64) -> HanConfig;
}

/// A fixed configuration is itself a (degenerate) source.
impl ConfigSource for HanConfig {
    fn config(&self, _coll: Coll, _bytes: u64) -> HanConfig {
        *self
    }
}

/// The HAN collective framework.
#[derive(Clone)]
pub struct Han {
    source: Arc<dyn ConfigSource>,
    label: String,
}

impl Han {
    /// The MPI stack HAN rides: it is built inside Open MPI and uses its
    /// P2P protocol constants.
    pub const FLAVOR: Flavor = Flavor::OpenMpi;

    /// HAN with one fixed configuration (used while tuning).
    pub fn with_config(cfg: HanConfig) -> Self {
        Han {
            source: Arc::new(cfg),
            label: "HAN".into(),
        }
    }

    /// HAN with an autotuned decision source.
    pub fn tuned(source: Arc<dyn ConfigSource>) -> Self {
        Han {
            source,
            label: "HAN".into(),
        }
    }

    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    fn cfg(&self, coll: Coll, bytes: u64) -> HanConfig {
        self.source.config(coll, bytes)
    }
}

impl std::fmt::Debug for Han {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Han({})", self.label)
    }
}

impl MpiStack for Han {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn flavor(&self) -> Flavor {
        Self::FLAVOR
    }

    fn bcast(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        deps: &Frontier,
    ) -> Frontier {
        let cfg = self.cfg(Coll::Bcast, bufs[0].len);
        build_bcast(cx, &cfg, comm, root, bufs, deps)
    }

    fn allreduce(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        bufs: &[BufRange],
        op: ReduceOp,
        dtype: DataType,
        deps: &Frontier,
    ) -> Frontier {
        let cfg = self.cfg(Coll::Allreduce, bufs[0].len);
        build_allreduce(cx, &cfg, comm, bufs, op, dtype, deps)
    }

    fn reduce(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        bufs: &[BufRange],
        op: ReduceOp,
        dtype: DataType,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        let cfg = self.cfg(Coll::Reduce, bufs[0].len);
        Ok(build_reduce(cx, &cfg, comm, root, bufs, op, dtype, deps))
    }

    fn gather(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        src: &[BufRange],
        dst_root: BufRange,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        let cfg = self.cfg(Coll::Gather, src[0].len);
        Ok(build_gather(cx, &cfg, comm, root, src, dst_root, deps))
    }

    fn scatter(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        root: usize,
        src_root: BufRange,
        dst: &[BufRange],
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        let cfg = self.cfg(Coll::Scatter, dst[0].len);
        Ok(build_scatter(cx, &cfg, comm, root, src_root, dst, deps))
    }

    fn allgather(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        bufs: &[BufRange],
        block: u64,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        let cfg = self.cfg(Coll::Allgather, block);
        Ok(build_allgather(cx, &cfg, comm, bufs, block, deps))
    }

    fn barrier(
        &self,
        cx: &mut BuildCtx,
        comm: &Comm,
        deps: &Frontier,
    ) -> Result<Frontier, Unsupported> {
        Ok(build_barrier(cx, comm, deps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::stack::{build_coll, time_coll};
    use han_colls::TunedOpenMpi;
    use han_machine::{mini, Machine};
    use han_mpi::{execute_seeded, ExecOpts};

    #[test]
    fn han_bcast_via_stack_trait_delivers() {
        let preset = mini(3, 3);
        let han = Han::with_config(HanConfig::default().with_fs(64));
        let prog = build_coll(&han, &preset, Coll::Bcast, 200, 0).unwrap();
        let mut m = Machine::from_preset(&preset);
        let buf = BufRange::new(0, 200);
        let (_, mem) = execute_seeded(&mut m, &prog, &ExecOpts::timing(han.flavor().p2p()), |mm| {
            mm.write(0, buf, &[13u8; 200])
        });
        for r in 0..9 {
            assert_eq!(mem.read(r, buf), vec![13u8; 200].as_slice(), "rank {r}");
        }
    }

    #[test]
    fn zero_fs_bcast_builds_the_one_byte_program() {
        let preset = mini(2, 2);
        let build = |fs| {
            let han = Han::with_config(HanConfig::default().with_fs(fs));
            build_coll(&han, &preset, Coll::Bcast, 8, 0).unwrap()
        };
        assert_eq!(build(0), build(1));
    }

    #[test]
    fn han_beats_tuned_on_fat_nodes() {
        // The headline claim at mini scale: a topology-aware pipelined HAN
        // beats the flat tuned decision for both small and large messages.
        let preset = mini(4, 8);
        for (bytes, cfg) in [
            (8 * 1024, HanConfig::default().with_fs(8 * 1024)),
            (
                4 << 20,
                HanConfig::default()
                    .with_fs(512 * 1024)
                    .with_intra(han_colls::IntraModule::Solo),
            ),
        ] {
            let t_han = time_coll(&Han::with_config(cfg), &preset, Coll::Bcast, bytes, 0).unwrap();
            let t_tuned = time_coll(&TunedOpenMpi, &preset, Coll::Bcast, bytes, 0).unwrap();
            assert!(
                t_han < t_tuned,
                "HAN ({t_han}) should beat tuned ({t_tuned}) at {bytes}B"
            );
        }
    }

    #[test]
    fn dynamic_source_is_consulted() {
        struct BySize;
        impl ConfigSource for BySize {
            fn config(&self, _c: Coll, bytes: u64) -> HanConfig {
                if bytes > 1024 {
                    HanConfig::default().with_fs(512)
                } else {
                    HanConfig::default().with_fs(64)
                }
            }
        }
        let han = Han::tuned(Arc::new(BySize));
        let preset = mini(2, 2);
        // Both sizes must run correctly through the dynamic source.
        for bytes in [256u64, 4096] {
            let prog = build_coll(&han, &preset, Coll::Bcast, bytes, 0).unwrap();
            assert!(!prog.is_empty());
        }
    }

    #[test]
    fn label_override() {
        let han = Han::with_config(HanConfig::default()).labeled("HAN (tuned)");
        assert_eq!(han.name(), "HAN (tuned)");
    }
}
