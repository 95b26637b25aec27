//! Netpipe-style point-to-point bandwidth measurement (Fig. 11).
//!
//! "We measure the P2P performances of both Open MPI and Cray MPI using
//! Netpipe." A ping-pong between two ranks on different nodes: the one-way
//! time is half the round trip, and bandwidth is `bytes / one-way`.

use han_machine::{Flavor, Machine, MachinePreset};
use han_mpi::{execute, Comm, ExecOpts, ProgramBuilder};
use han_sim::Time;

/// One measurement point.
#[derive(Debug, Clone, Copy)]
pub struct NetpipeRow {
    pub bytes: u64,
    pub one_way: Time,
    /// Achieved bandwidth in bytes/second.
    pub bandwidth: f64,
}

/// Ping-pong `bytes` between rank 0 and the first rank of node 1 under the
/// given MPI flavour's P2P parameters.
pub fn ping_pong(preset: &MachinePreset, flavor: Flavor, bytes: u64) -> NetpipeRow {
    let n = preset.topology.world_size();
    let comm = Comm::world(n);
    let peer = comm.world_rank(preset.topology.ppn()); // node 1, local 0
    let mut b = ProgramBuilder::new(n);
    let (_, r1) = b.signal(0, peer, bytes, &[], &[]);
    b.signal(peer, 0, bytes, &[r1], &[]);
    let prog = b.build();
    let mut machine = Machine::from_preset(preset);
    let rep = execute(&mut machine, &prog, &ExecOpts::timing(flavor.p2p()));
    let one_way = rep.makespan / 2;
    NetpipeRow {
        bytes,
        one_way,
        bandwidth: bytes as f64 / one_way.as_secs_f64().max(1e-12),
    }
}

/// Sweep the Netpipe curve over `sizes`.
pub fn netpipe_sweep(preset: &MachinePreset, flavor: Flavor, sizes: &[u64]) -> Vec<NetpipeRow> {
    sizes
        .iter()
        .map(|&bytes| ping_pong(preset, flavor, bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::shaheen2;

    #[test]
    fn bandwidth_increases_then_saturates() {
        let preset = shaheen2(2);
        let rows = netpipe_sweep(
            &preset,
            Flavor::OpenMpi,
            &[512, 8 * 1024, 256 * 1024, 8 << 20, 64 << 20],
        );
        // Monotone non-decreasing bandwidth with size (no mid-size cliff
        // bigger than the protocol switch allows).
        assert!(rows[0].bandwidth < rows.last().unwrap().bandwidth);
        // Peak approaches (but cannot exceed) the NIC rate.
        let peak = rows.last().unwrap().bandwidth;
        assert!(peak <= preset.net.nic_bw * 1.01);
        assert!(peak > preset.net.nic_bw * 0.8, "peak {peak:.3e}");
    }

    #[test]
    fn cray_beats_openmpi_in_the_midrange_same_peak() {
        // The Fig. 11 shape: Cray MPI wins 512B–2MB (especially
        // 16KB–512KB); both reach the same peak.
        let preset = shaheen2(2);
        for bytes in [16 * 1024u64, 64 * 1024, 128 * 1024] {
            let ompi = ping_pong(&preset, Flavor::OpenMpi, bytes);
            let cray = ping_pong(&preset, Flavor::CrayMpi, bytes);
            assert!(
                cray.bandwidth > ompi.bandwidth * 1.1,
                "{bytes}B: cray {:.2e} vs ompi {:.2e}",
                cray.bandwidth,
                ompi.bandwidth
            );
        }
        // The gap narrows but persists through 512 KB.
        for bytes in [256 * 1024u64, 512 * 1024] {
            let ompi = ping_pong(&preset, Flavor::OpenMpi, bytes);
            let cray = ping_pong(&preset, Flavor::CrayMpi, bytes);
            assert!(cray.bandwidth > ompi.bandwidth, "{bytes}B");
        }
        let ompi = ping_pong(&preset, Flavor::OpenMpi, 64 << 20);
        let cray = ping_pong(&preset, Flavor::CrayMpi, 64 << 20);
        let ratio = cray.bandwidth / ompi.bandwidth;
        assert!(
            (0.97..1.03).contains(&ratio),
            "peaks must match: ratio {ratio:.3}"
        );
    }

    #[test]
    fn latency_floor_for_tiny_messages() {
        let preset = shaheen2(2);
        let row = ping_pong(&preset, Flavor::OpenMpi, 1);
        // One-way must be at least the wire latency.
        assert!(row.one_way >= preset.net.latency);
    }
}
