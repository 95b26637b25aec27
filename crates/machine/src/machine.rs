//! The instantiated machine: topology + parameters + live resources.
//!
//! A [`Machine`] owns one [`han_sim::ResourcePool`] laid out as:
//! CPU per rank, memory bus per node, NIC-tx and NIC-rx per node, and an
//! optional shared network-core resource. The executor in `han-mpi`
//! addresses resources through the id accessors here, and `reset()` returns
//! the machine to idle between benchmark repetitions.

use crate::params::{LevelVec, NetParams, NodeParams};
use crate::presets::MachinePreset;
use crate::topology::Topology;
use han_sim::{ResourcePool, Time};

/// A simulated cluster ready to execute programs.
#[derive(Debug)]
pub struct Machine {
    pub topo: Topology,
    pub node: NodeParams,
    pub net: NetParams,
    /// Per-level link parameters, outermost first. Uniform machines carry
    /// exactly the values derived from `node`/`net`; heterogeneous presets
    /// override individual levels.
    pub levels: LevelVec,
    pool: ResourcePool,
    cpu_base: usize,
    bus_base: usize,
    nic_tx_base: usize,
    nic_rx_base: usize,
    core_id: Option<usize>,
}

impl Machine {
    /// Build a machine with explicit per-level link parameters.
    pub fn with_levels(topo: Topology, node: NodeParams, net: NetParams, levels: LevelVec) -> Self {
        assert_eq!(
            levels.depth(),
            topo.depth(),
            "level params must match topology depth"
        );
        assert!(net.rails >= 1, "need at least one NIC rail");
        let mut pool = ResourcePool::new();
        let cpu_base = pool.len();
        for r in 0..topo.world_size() {
            pool.add(format!("cpu[{r}]"));
        }
        let bus_base = pool.len();
        for n in 0..topo.nodes() {
            pool.add(format!("bus[{n}]"));
        }
        // Single-rail nodes keep the historical `nic_tx[n]` names and pool
        // layout byte-for-byte; multi-rail nodes get one resource per
        // direction and rail.
        let nic_tx_base = pool.len();
        for n in 0..topo.nodes() {
            for r in 0..net.rails {
                if net.rails == 1 {
                    pool.add(format!("nic_tx[{n}]"));
                } else {
                    pool.add(format!("nic_tx[{n}.{r}]"));
                }
            }
        }
        let nic_rx_base = pool.len();
        for n in 0..topo.nodes() {
            for r in 0..net.rails {
                if net.rails == 1 {
                    pool.add(format!("nic_rx[{n}]"));
                } else {
                    pool.add(format!("nic_rx[{n}.{r}]"));
                }
            }
        }
        let core_id = net.core_bw.map(|_| pool.add("net_core"));
        Machine {
            topo,
            node,
            net,
            levels,
            pool,
            cpu_base,
            bus_base,
            nic_tx_base,
            nic_rx_base,
            core_id,
        }
    }

    pub fn from_preset(p: &MachinePreset) -> Self {
        Machine::with_levels(p.topology, p.node, p.net, p.level_params())
    }

    /// Resource id of a rank's CPU (MPI progression engine).
    #[inline]
    pub fn cpu(&self, rank: usize) -> usize {
        debug_assert!(rank < self.topo.world_size());
        self.cpu_base + rank
    }

    /// Resource id of a node's memory bus.
    #[inline]
    pub fn bus(&self, node: usize) -> usize {
        debug_assert!(node < self.topo.nodes());
        self.bus_base + node
    }

    /// Resource id of a node's NIC transmit direction (rail 0).
    #[inline]
    pub fn nic_tx(&self, node: usize) -> usize {
        self.nic_tx_base + node * self.net.rails
    }

    /// Resource id of a node's NIC receive direction (rail 0).
    #[inline]
    pub fn nic_rx(&self, node: usize) -> usize {
        self.nic_rx_base + node * self.net.rails
    }

    /// Resource id of one rail of a node's NIC transmit direction.
    #[inline]
    pub fn nic_tx_rail(&self, node: usize, rail: usize) -> usize {
        debug_assert!(rail < self.net.rails);
        self.nic_tx_base + node * self.net.rails + rail
    }

    /// Resource id of one rail of a node's NIC receive direction.
    #[inline]
    pub fn nic_rx_rail(&self, node: usize, rail: usize) -> usize {
        debug_assert!(rail < self.net.rails);
        self.nic_rx_base + node * self.net.rails + rail
    }

    /// Shared network-core resource, if the fabric is modeled as blocking.
    #[inline]
    pub fn net_core(&self) -> Option<usize> {
        self.core_id
    }

    /// Acquire a resource: FIFO start no earlier than `at`, for `dur`.
    #[inline]
    pub fn acquire(&mut self, id: usize, at: Time, dur: Time) -> (Time, Time) {
        self.pool.acquire(id, at, dur)
    }

    /// Reset all resources to idle (between independent runs).
    pub fn reset(&mut self) {
        self.pool.reset();
    }

    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::mini;

    #[test]
    fn resource_layout_is_disjoint() {
        let m = Machine::from_preset(&mini(3, 4));
        let mut ids = vec![];
        for r in 0..12 {
            ids.push(m.cpu(r));
        }
        for n in 0..3 {
            ids.push(m.bus(n));
            ids.push(m.nic_tx(n));
            ids.push(m.nic_rx(n));
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "resource ids must be unique");
        assert_eq!(m.pool().len(), 12 + 3 * 3);
        assert_eq!(m.net_core(), None);
    }

    #[test]
    fn core_resource_when_blocking_fabric() {
        let mut p = mini(2, 2);
        p.net.core_bw = Some(50e9);
        let m = Machine::from_preset(&p);
        assert!(m.net_core().is_some());
    }

    #[test]
    fn acquire_and_reset() {
        let mut m = Machine::from_preset(&mini(2, 2));
        let cpu0 = m.cpu(0);
        let (s, e) = m.acquire(cpu0, Time::ZERO, Time::from_ns(100));
        assert_eq!(s, Time::ZERO);
        assert_eq!(e, Time::from_ns(100));
        let (s2, _) = m.acquire(cpu0, Time::ZERO, Time::from_ns(50));
        assert_eq!(s2, Time::from_ns(100), "CPU serializes");
        m.reset();
        let (s3, _) = m.acquire(cpu0, Time::ZERO, Time::from_ns(10));
        assert_eq!(s3, Time::ZERO);
    }

    #[test]
    fn names_are_descriptive() {
        let m = Machine::from_preset(&mini(2, 2));
        assert_eq!(m.pool().name(m.cpu(3)), "cpu[3]");
        assert_eq!(m.pool().name(m.bus(1)), "bus[1]");
        assert_eq!(m.pool().name(m.nic_tx(0)), "nic_tx[0]");
        assert_eq!(m.pool().name(m.nic_rx(1)), "nic_rx[1]");
    }

    #[test]
    fn machine_carries_level_params() {
        let p = mini(2, 4);
        let m = Machine::from_preset(&p);
        assert_eq!(m.levels.depth(), 2);
        assert_eq!(m.levels.get(0).bandwidth, p.net.nic_bw);
        assert_eq!(m.levels.get(1).bandwidth, p.node.bus_bw);
    }

    #[test]
    fn multi_rail_pool_layout() {
        use crate::params::RailPolicy;
        let p = mini(3, 2).with_rails(4, RailPolicy::Stripe);
        let m = Machine::from_preset(&p);
        // 6 cpus + 3 buses + 3 * 4 tx + 3 * 4 rx.
        assert_eq!(m.pool().len(), 6 + 3 + 24);
        let mut ids = vec![];
        for n in 0..3 {
            for r in 0..4 {
                ids.push(m.nic_tx_rail(n, r));
                ids.push(m.nic_rx_rail(n, r));
            }
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "rail ids must be unique");
        assert_eq!(m.pool().name(m.nic_tx_rail(1, 2)), "nic_tx[1.2]");
        assert_eq!(m.nic_tx(1), m.nic_tx_rail(1, 0));
    }
}
