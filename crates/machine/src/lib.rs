//! # han-machine — simulated cluster model
//!
//! The paper evaluates HAN on Shaheen II (Cray XC40, Aries/Dragonfly,
//! 2×16-core Haswell nodes) and Stampede2 (Skylake, Omni-Path, 48-core
//! nodes). Neither machine — nor the closed-source MPI stacks compared
//! against — is available to this reproduction, so this crate models the
//! relevant hardware as a set of FIFO-shared resources per the substitution
//! plan in `DESIGN.md`:
//!
//! * one **CPU** resource per rank — the single-threaded MPI progression
//!   engine; every posted operation, memcpy and local reduction occupies it;
//! * one **memory bus** per node — every byte that crosses sockets (shared
//!   memory copies, one-sided reads, NIC DMA on both send and receive
//!   sides) occupies it;
//! * one **NIC** per node and *direction* (full duplex) — which is what
//!   lets an inter-node reduce and an inter-node broadcast of the same
//!   pipeline overlap (paper Fig. 6) while same-direction transfers
//!   serialize (endpoint congestion);
//! * an optional **network core** capacity, shared by all nodes, for
//!   congestion at scale.
//!
//! Point-to-point *protocol* behaviour (eager vs rendezvous thresholds,
//! per-message overheads) varies by MPI implementation, not by hardware, so
//! it lives in a separate parameter set ([`flavor::P2pParams`]) with presets
//! for the four libraries the paper compares (Open MPI, Cray MPI, Intel
//! MPI, MVAPICH2). The Netpipe experiment (Fig. 11) is exactly a sweep of
//! those parameter sets over the same machine.

pub mod flavor;
pub mod machine;
pub mod params;
pub mod presets;
pub mod topology;

pub use flavor::{Flavor, P2pParams};
pub use machine::Machine;
pub use params::{coarsen_fs, LevelParams, LevelVec, NetParams, NodeParams, RailPolicy};
pub use presets::{
    dgx_like, gpu_hier, level_label, mini, mini3, shaheen2, shaheen2_ppn, shaheen2_sockets,
    socketize, stampede2, stampede2_ppn, uniform_level_params, MachinePreset, NO_OVERRIDES,
};
pub use topology::{Topology, MAX_LEVELS};
