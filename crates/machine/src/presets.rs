//! Machine presets mirroring the paper's testbeds.
//!
//! Absolute values are calibrated (see `EXPERIMENTS.md`) to reproduce the
//! *shapes* of the paper's curves — protocol crossover points, the relative
//! cost of intra- vs inter-node movement, and the AVX/scalar reduction gap
//! — not the testbeds' absolute microseconds.

use crate::params::{LevelParams, LevelVec, NetParams, NodeParams, RailPolicy};
use crate::topology::{Topology, MAX_LEVELS};
use han_sim::Time;
use serde::{Deserialize, Error, Serialize, Value};

/// A complete machine description: topology + node + network parameters,
/// plus optional per-level link overrides for heterogeneous machines.
#[derive(Debug, Clone, Copy)]
pub struct MachinePreset {
    pub name: &'static str,
    pub topology: Topology,
    pub node: NodeParams,
    pub net: NetParams,
    /// Per-level link-parameter overrides, outermost first. `None` derives
    /// the level's parameters from `node`/`net` exactly as the uniform
    /// model always has; `Some` replaces them wholesale (heterogeneous
    /// machines: NVLink-ish inner levels, GPU launch overheads, ...).
    pub level_overrides: [Option<LevelParams>; MAX_LEVELS],
}

/// The neutral override set: every level derived from `node`/`net`.
pub const NO_OVERRIDES: [Option<LevelParams>; MAX_LEVELS] = [None; MAX_LEVELS];

// Hand-written serde keeps the historical 4-field JSON form whenever no
// level is overridden, so uniform preset fingerprints — and the tuned
// tables keyed by them — survive the heterogeneous refactor. Overridden levels append a `level_overrides` list of
// `{level, params}` pairs, which also guarantees heterogeneous presets
// can never alias a uniform fingerprint.
impl Serialize for MachinePreset {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("name".to_string(), self.name.to_value()),
            ("topology".to_string(), self.topology.to_value()),
            ("node".to_string(), self.node.to_value()),
            ("net".to_string(), self.net.to_value()),
        ];
        if self.level_overrides.iter().any(Option::is_some) {
            let seq = self
                .level_overrides
                .iter()
                .enumerate()
                .filter_map(|(k, o)| {
                    o.as_ref().map(|p| {
                        Value::Map(vec![
                            ("level".to_string(), Value::UInt(k as u64)),
                            ("params".to_string(), p.to_value()),
                        ])
                    })
                })
                .collect();
            map.push(("level_overrides".to_string(), Value::Seq(seq)));
        }
        Value::Map(map)
    }
}

impl Deserialize for MachinePreset {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::custom(format!("missing field {key}")))
        };
        let mut level_overrides = NO_OVERRIDES;
        if let Some(seq) = v.get("level_overrides") {
            let entries = seq
                .as_array()
                .ok_or_else(|| Error::custom("level_overrides must be a list"))?;
            for e in entries {
                let k = e
                    .get("level")
                    .and_then(|x| x.as_u64())
                    .ok_or_else(|| Error::custom("override needs a level index"))?
                    as usize;
                if k >= MAX_LEVELS {
                    return Err(Error::custom(format!("override level {k} out of range")));
                }
                let params = e
                    .get("params")
                    .ok_or_else(|| Error::custom("override needs params"))?;
                level_overrides[k] = Some(LevelParams::from_value(params)?);
            }
        }
        Ok(MachinePreset {
            name: <&'static str>::from_value(field("name")?)?,
            topology: Topology::from_value(field("topology")?)?,
            node: NodeParams::from_value(field("node")?)?,
            net: NetParams::from_value(field("net")?)?,
            level_overrides,
        })
    }
}

/// Shaheen II-like: Cray XC40, dual-socket 16-core Haswell (32 ranks/node),
/// Cray Aries dragonfly interconnect.
pub fn shaheen2(nodes: usize) -> MachinePreset {
    MachinePreset {
        name: "shaheen2",
        topology: Topology::new(nodes, 32),
        node: NodeParams {
            cores: 32,
            copy_rate: 14e9,
            bus_bw: 90e9,
            reduce_rate: 2.5e9,
            reduce_rate_avx: 11e9,
            flag_latency: Time::from_ns(180),
            sm_chunk: 8 * 1024,
            solo_setup: Time::from_us(2),
            xsocket_bus_factor: 1.0,
        },
        net: NetParams {
            // Aries: ~10 GB/s injection per direction, ~1.3 us latency.
            nic_bw: 10e9,
            latency: Time::from_ns(1_300),
            dma_bus_factor: 1.0,
            core_bw: None,
            rails: 1,
            rail_policy: RailPolicy::RoundRobin,
        },
        level_overrides: NO_OVERRIDES,
    }
}

/// Shaheen II at a custom ppn (the paper's 64-node tuning experiments use
/// 12 processes per node).
pub fn shaheen2_ppn(nodes: usize, ppn: usize) -> MachinePreset {
    let mut m = shaheen2(nodes);
    m.topology = Topology::new(nodes, ppn);
    m
}

/// Stampede2-like: 48-core Skylake nodes, Intel Omni-Path (100 Gb/s).
pub fn stampede2(nodes: usize) -> MachinePreset {
    MachinePreset {
        name: "stampede2",
        topology: Topology::new(nodes, 48),
        node: NodeParams {
            cores: 48,
            copy_rate: 16e9,
            bus_bw: 110e9,
            reduce_rate: 2.8e9,
            reduce_rate_avx: 13e9,
            flag_latency: Time::from_ns(160),
            sm_chunk: 8 * 1024,
            solo_setup: Time::from_us(2),
            xsocket_bus_factor: 1.0,
        },
        net: NetParams {
            // Omni-Path 100 Gb/s ≈ 12.3 GB/s, ~1.1 us latency.
            nic_bw: 12.3e9,
            latency: Time::from_ns(1_100),
            dma_bus_factor: 1.0,
            core_bw: None,
            rails: 1,
            rail_policy: RailPolicy::RoundRobin,
        },
        level_overrides: NO_OVERRIDES,
    }
}

/// Stampede2 at a custom ppn.
pub fn stampede2_ppn(nodes: usize, ppn: usize) -> MachinePreset {
    let mut m = stampede2(nodes);
    m.topology = Topology::new(nodes, ppn);
    m
}

/// A small, fast machine for unit tests and examples: low rank counts keep
/// programs tiny while preserving every qualitative behaviour (eager vs
/// rendezvous, bus contention, AVX gap).
pub fn mini(nodes: usize, ppn: usize) -> MachinePreset {
    MachinePreset {
        name: "mini",
        topology: Topology::new(nodes, ppn),
        node: NodeParams {
            cores: ppn,
            copy_rate: 16e9,
            bus_bw: 60e9,
            reduce_rate: 3e9,
            reduce_rate_avx: 12e9,
            flag_latency: Time::from_ns(150),
            sm_chunk: 8 * 1024,
            solo_setup: Time::from_us(2),
            xsocket_bus_factor: 1.0,
        },
        net: NetParams {
            nic_bw: 10e9,
            latency: Time::from_us(1),
            dma_bus_factor: 1.0,
            core_bw: None,
            rails: 1,
            rail_policy: RailPolicy::RoundRobin,
        },
        level_overrides: NO_OVERRIDES,
    }
}

/// Per-level parameters a uniform machine implies, outermost first: level
/// 0 is the network, deeper levels the (possibly socket-derated) node
/// memory system. This is exactly the costing the executor has always
/// applied, written down per level; [`MachinePreset::level_params`] starts
/// from it and applies overrides.
pub fn uniform_level_params(topo: &Topology, node: &NodeParams, net: &NetParams) -> LevelVec {
    let depth = topo.depth();
    let mut levels = Vec::with_capacity(depth);
    levels.push(LevelParams {
        bandwidth: net.nic_bw,
        latency: net.latency,
        reduce_rate: node.reduce_rate,
        reduce_rate_avx: node.reduce_rate_avx,
        launch: Time::ZERO,
    });
    for k in 1..depth {
        // Every level but the innermost crosses the SM-domain boundary.
        let crosses = k + 1 < depth;
        levels.push(LevelParams {
            bandwidth: if crosses {
                node.bus_bw / node.xsocket_bus_factor
            } else {
                node.bus_bw
            },
            latency: node.flag_latency,
            reduce_rate: node.reduce_rate,
            reduce_rate_avx: node.reduce_rate_avx,
            launch: Time::ZERO,
        });
    }
    LevelVec::from_slice(&levels)
}

/// Reporting label for level `k` of a depth-`depth` hierarchy.
pub fn level_label(depth: usize, k: usize) -> &'static str {
    if k == 0 {
        "inter-node"
    } else if k + 1 < depth {
        "cross-domain"
    } else {
        "intra-domain"
    }
}

impl MachinePreset {
    /// The machine's per-level link parameters, outermost first: the
    /// uniform derivation from `node`/`net` with any `level_overrides`
    /// applied on top. With no overrides this carries exactly the values
    /// the pre-heterogeneous model used, so costing is bit-identical.
    pub fn level_params(&self) -> LevelVec {
        let mut lv = uniform_level_params(&self.topology, &self.node, &self.net);
        for k in 0..self.topology.depth() {
            if let Some(p) = self.level_overrides[k] {
                *lv.get_mut(k) = p;
            }
        }
        lv
    }

    /// Is any level's link physics overridden (heterogeneous machine)?
    pub fn is_heterogeneous(&self) -> bool {
        self.level_overrides[..self.topology.depth()]
            .iter()
            .any(Option::is_some)
    }

    /// Override level `k`'s link parameters (builder style).
    pub fn with_level_override(mut self, k: usize, params: LevelParams) -> Self {
        assert!(k < self.topology.depth(), "level {k} out of range");
        self.level_overrides[k] = Some(params);
        self
    }

    /// Use `rails` NIC rails per node under `policy` (builder style).
    pub fn with_rails(mut self, rails: usize, policy: RailPolicy) -> Self {
        assert!(rails >= 1, "need at least one rail");
        self.net.rails = rails;
        self.net.rail_policy = policy;
        self
    }
}

/// Split a preset's nodes into `sockets` shared-memory domains, turning a
/// two-level machine into a three-level one (`[nodes, sockets, ppn /
/// sockets]`). Intra-node transfers that cross the socket boundary pay
/// `xsocket_bus_factor` extra bus time. Panics unless ppn divides evenly.
pub fn socketize(base: MachinePreset, sockets: usize, xsocket_bus_factor: f64) -> MachinePreset {
    assert!(sockets > 0, "need at least one socket");
    let nodes = base.topology.nodes();
    let ppn = base.topology.ppn();
    assert_eq!(
        ppn % sockets,
        0,
        "{} ranks per node cannot split into {sockets} sockets",
        ppn
    );
    let mut m = base;
    m.topology = Topology::from_levels(&[nodes, sockets, ppn / sockets]);
    m.node.xsocket_bus_factor = xsocket_bus_factor;
    m
}

/// Shaheen II with its physical socket structure exposed: the XC40 node is
/// a dual-socket 16-core Haswell, so the three-level form is
/// `[nodes, 2, 16]` with a QPI-like cross-socket bus derating.
pub fn shaheen2_sockets(nodes: usize) -> MachinePreset {
    let mut m = socketize(shaheen2(nodes), 2, 1.6);
    m.name = "shaheen2s";
    m
}

/// A small three-level machine for tests: `nodes × sockets × cores`.
pub fn mini3(nodes: usize, sockets: usize, cores: usize) -> MachinePreset {
    let mut m = socketize(mini(nodes, sockets * cores), sockets, 1.5);
    m.name = "mini3";
    m
}

/// A DGX-like GPU node cluster: `nodes × gpus`, an NVLink-ish intra level
/// (very high bandwidth, fast vectorized reduction, but a high fixed
/// launch overhead per operation) over a striped multi-rail inter-node
/// fabric — the HiCCL hardware shape (hierarchy of `{nodes, devices}` with
/// a different transport per level and NIC striping).
pub fn dgx_like(nodes: usize, gpus: usize) -> MachinePreset {
    let mut m = MachinePreset {
        name: "dgx",
        topology: Topology::new(nodes, gpus),
        node: NodeParams {
            cores: gpus,
            copy_rate: 40e9,
            bus_bw: 200e9,
            reduce_rate: 20e9,
            reduce_rate_avx: 120e9,
            flag_latency: Time::from_ns(400),
            sm_chunk: 512 * 1024,
            solo_setup: Time::from_us(4),
            xsocket_bus_factor: 1.0,
        },
        net: NetParams {
            // 4 × 200 Gb/s-class rails, striped.
            nic_bw: 25e9,
            latency: Time::from_ns(1_500),
            dma_bus_factor: 0.5,
            core_bw: None,
            rails: 4,
            rail_policy: RailPolicy::Stripe,
        },
        level_overrides: NO_OVERRIDES,
    };
    // NVLink-ish device level: ~12x the network's per-rail bandwidth,
    // low-latency sync, fast on-device reductions, but every operation
    // pays a kernel-launch cost.
    m.level_overrides[1] = Some(LevelParams {
        bandwidth: 300e9,
        latency: Time::from_ns(700),
        reduce_rate: 30e9,
        reduce_rate_avx: 150e9,
        launch: Time::from_us(3),
    });
    m
}

/// A HiCCL-style heterogeneous hierarchy (`{nodes, boards, devices,
/// tiles}`-like): `extents` outermost first, each inner level a
/// progressively faster link. Level 0 keeps the network parameters; level
/// `k >= 1` gets `2^k` times the base bus bandwidth, halved latency per
/// level, and a launch overhead that shrinks toward the innermost level
/// (outer GPU levels batch bigger launches). Used by `repro hetero` for
/// the depth-scaling experiment.
pub fn gpu_hier(extents: &[usize]) -> MachinePreset {
    assert!(extents.len() >= 2, "gpu_hier needs at least two levels");
    let depth = extents.len();
    let mut m = MachinePreset {
        name: "gpu_hier",
        topology: Topology::from_levels(extents),
        node: NodeParams {
            cores: extents[1..].iter().product(),
            copy_rate: 40e9,
            bus_bw: 100e9,
            reduce_rate: 20e9,
            reduce_rate_avx: 80e9,
            flag_latency: Time::from_ns(500),
            sm_chunk: 512 * 1024,
            solo_setup: Time::from_us(4),
            xsocket_bus_factor: 1.0,
        },
        net: NetParams {
            nic_bw: 25e9,
            latency: Time::from_ns(1_500),
            dma_bus_factor: 0.5,
            core_bw: None,
            rails: 2,
            rail_policy: RailPolicy::Stripe,
        },
        level_overrides: NO_OVERRIDES,
    };
    for k in 1..depth {
        let speedup = (1u64 << k) as f64;
        m.level_overrides[k] = Some(LevelParams {
            bandwidth: 100e9 * speedup,
            latency: Time::from_ns((1000u64 >> k).max(50)),
            reduce_rate: 20e9 * speedup,
            reduce_rate_avx: 80e9 * speedup,
            launch: Time::from_ns(4_000u64 >> (k - 1)),
        });
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shaheen_layout_matches_paper() {
        // Fig. 10/13 use 4096 processes = 128 nodes x 32 ranks.
        let m = shaheen2(128);
        assert_eq!(m.topology.world_size(), 4096);
        assert_eq!(m.topology.ppn(), 32);
    }

    #[test]
    fn stampede_layout_matches_paper() {
        // Fig. 12/14 use 1536 processes = 32 nodes x 48 ranks.
        let m = stampede2(32);
        assert_eq!(m.topology.world_size(), 1536);
    }

    #[test]
    fn tuning_setup_matches_paper() {
        // Figs. 4/8/9 use 64 nodes x 12 processes per node.
        let m = shaheen2_ppn(64, 12);
        assert_eq!(m.topology.world_size(), 768);
    }

    #[test]
    fn avx_gap_present_on_all_presets() {
        for m in [shaheen2(2), stampede2(2), mini(2, 2)] {
            assert!(
                m.node.reduce_rate_avx > 2.0 * m.node.reduce_rate,
                "{}: AVX reductions must be much faster than scalar",
                m.name
            );
        }
    }

    #[test]
    fn intra_node_faster_than_inter_node() {
        for m in [shaheen2(2), stampede2(2)] {
            assert!(m.node.flag_latency < m.net.latency, "{}", m.name);
            assert!(m.node.bus_bw > m.net.nic_bw, "{}", m.name);
        }
    }

    #[test]
    fn socketized_presets_keep_world_size() {
        let flat = shaheen2(4);
        let deep = shaheen2_sockets(4);
        assert_eq!(deep.topology.world_size(), flat.topology.world_size());
        assert_eq!(deep.topology.levels(), &[4, 2, 16]);
        assert!(deep.node.xsocket_bus_factor > 1.0);
        let m3 = mini3(3, 2, 2);
        assert_eq!(m3.topology.levels(), &[3, 2, 2]);
        assert_eq!(m3.topology.ppn(), 4);
    }

    #[test]
    fn level_params_are_ordered_fastest_innermost() {
        let deep = shaheen2_sockets(4);
        let lv = deep.level_params();
        assert_eq!(lv.depth(), 3);
        assert!(lv.get(0).bandwidth < lv.get(1).bandwidth);
        assert!(lv.get(1).bandwidth < lv.get(2).bandwidth);
        assert!(lv.get(0).latency > lv.get(2).latency);
        // Two-level presets report the classic pair.
        let flat = mini(2, 4).level_params();
        assert_eq!(flat.depth(), 2);
        assert_eq!(flat.get(0).bandwidth, 10e9);
        assert_eq!(flat.get(1).bandwidth, 60e9);
        assert_eq!(level_label(2, 1), "intra-domain");
        assert_eq!(level_label(3, 1), "cross-domain");
        assert_eq!(level_label(3, 0), "inter-node");
    }

    #[test]
    fn uniform_derivation_matches_node_and_net_exactly() {
        // The derived per-level params must carry the *identical* f64s the
        // uniform cost model reads, so per-level costing is bit-identical.
        let m = mini3(2, 2, 2);
        let lv = m.level_params();
        assert!(!m.is_heterogeneous());
        assert_eq!(lv.get(0).bandwidth, m.net.nic_bw);
        assert_eq!(lv.get(0).latency, m.net.latency);
        assert_eq!(
            lv.get(1).bandwidth,
            m.node.bus_bw / m.node.xsocket_bus_factor
        );
        assert_eq!(lv.get(2).bandwidth, m.node.bus_bw);
        for k in 1..3 {
            assert_eq!(lv.get(k).latency, m.node.flag_latency);
            assert_eq!(lv.get(k).reduce_rate, m.node.reduce_rate);
            assert_eq!(lv.get(k).reduce_rate_avx, m.node.reduce_rate_avx);
            assert_eq!(lv.get(k).launch, Time::ZERO);
        }
    }

    #[test]
    fn uniform_preset_serde_is_byte_stable() {
        // Golden JSON captured before the heterogeneous refactor: the
        // uniform presets must keep these exact bytes so their
        // fingerprints and the tuned tables keyed by them stay valid.
        let json = serde_json::to_string(&mini(4, 4)).expect("serialize");
        assert_eq!(
            json,
            r#"{"name":"mini","topology":{"nodes":4,"ppn":4},"node":{"cores":4,"copy_rate":16000000000.0,"bus_bw":60000000000.0,"reduce_rate":3000000000.0,"reduce_rate_avx":12000000000.0,"flag_latency":150000,"sm_chunk":8192,"solo_setup":2000000},"net":{"nic_bw":10000000000.0,"latency":1000000,"dma_bus_factor":1.0,"core_bw":null}}"#
        );
        let json3 = serde_json::to_string(&mini3(2, 2, 2)).expect("serialize");
        assert_eq!(
            json3,
            r#"{"name":"mini3","topology":{"levels":[2,2,2]},"node":{"cores":4,"copy_rate":16000000000.0,"bus_bw":60000000000.0,"reduce_rate":3000000000.0,"reduce_rate_avx":12000000000.0,"flag_latency":150000,"sm_chunk":8192,"solo_setup":2000000,"xsocket_bus_factor":1.5},"net":{"nic_bw":10000000000.0,"latency":1000000,"dma_bus_factor":1.0,"core_bw":null}}"#
        );
    }

    #[test]
    fn preset_serde_roundtrips_with_overrides_and_rails() {
        for p in [dgx_like(2, 4), gpu_hier(&[2, 2, 2]), mini(2, 2)] {
            let json = serde_json::to_string(&p).expect("serialize");
            let back: MachinePreset = serde_json::from_str(&json).expect("parse");
            assert_eq!(back.name, p.name);
            assert_eq!(back.topology, p.topology);
            assert_eq!(back.net.rails, p.net.rails);
            assert_eq!(back.net.rail_policy, p.net.rail_policy);
            assert_eq!(back.level_overrides, p.level_overrides);
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                json,
                "re-serialization of {} must be stable",
                p.name
            );
        }
        // Heterogeneous JSON must be distinguishable from uniform.
        let hetero = serde_json::to_string(&dgx_like(2, 4)).unwrap();
        assert!(hetero.contains("level_overrides"), "{hetero}");
        assert!(hetero.contains("\"rails\":4"), "{hetero}");
    }

    #[test]
    fn gpu_presets_are_heterogeneous_and_fast_inside() {
        let d = dgx_like(2, 4);
        assert!(d.is_heterogeneous());
        let lv = d.level_params();
        assert!(lv.get(1).bandwidth > 10.0 * lv.get(0).bandwidth);
        assert!(lv.get(1).launch > Time::ZERO, "GPU level has launch cost");
        let h = gpu_hier(&[2, 2, 2, 2]);
        let lv = h.level_params();
        assert_eq!(lv.depth(), 4);
        for k in 1..4 {
            assert!(
                lv.get(k).bandwidth > lv.get(k - 1).bandwidth,
                "inner levels must be faster"
            );
            assert!(lv.get(k).latency < lv.get(0).latency);
        }
    }

    #[test]
    fn with_helpers_compose() {
        let p = mini(2, 2)
            .with_rails(2, RailPolicy::RoundRobin)
            .with_level_override(
                1,
                LevelParams {
                    bandwidth: 123e9,
                    latency: Time::from_ns(10),
                    reduce_rate: 1e9,
                    reduce_rate_avx: 2e9,
                    launch: Time::ZERO,
                },
            );
        assert_eq!(p.net.rails, 2);
        assert!(p.is_heterogeneous());
        assert_eq!(p.level_params().get(1).bandwidth, 123e9);
    }

    #[test]
    #[should_panic]
    fn socketize_requires_even_split() {
        socketize(mini(2, 5), 2, 1.5);
    }
}
