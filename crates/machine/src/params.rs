//! Hardware parameter sets for nodes and network.
//!
//! These are the *physical* knobs; per-MPI-library protocol knobs live in
//! [`crate::flavor`]. Values are chosen so the simulated machines reproduce
//! the qualitative curves of the paper's testbeds (see `EXPERIMENTS.md` for
//! the calibration notes); nothing downstream depends on their absolute
//! magnitudes.

use crate::topology::MAX_LEVELS;
use han_sim::Time;
use serde::{Deserialize, Error, Serialize, Value};

/// Per-node hardware parameters.
#[derive(Debug, Clone, Copy)]
pub struct NodeParams {
    /// Cores per node (capacity; informational — ppn comes from topology).
    pub cores: usize,
    /// Single-core memcpy rate, bytes/s. Shared-memory collectives move
    /// data at this rate on the copying rank's CPU.
    pub copy_rate: f64,
    /// Aggregate per-node memory bandwidth, bytes/s, shared by all ranks on
    /// the node *and* by NIC DMA. Contention on this resource is one of the
    /// two causes of imperfect `ib`/`sb` overlap (paper section III-A2).
    pub bus_bw: f64,
    /// Scalar (non-vectorized) local reduction rate, bytes/s. Used by the
    /// SM and Libnbc submodules, which the paper notes do not use AVX.
    pub reduce_rate: f64,
    /// Vectorized (AVX) local reduction rate, bytes/s. Used by ADAPT and
    /// SOLO (paper section IV-A2).
    pub reduce_rate_avx: f64,
    /// Latency for an intra-node synchronization flag to become visible to
    /// another rank (cache-coherence round trip).
    pub flag_latency: Time,
    /// Size of one SM bounce-buffer fragment; the SM submodule pays one
    /// flag round per fragment, which is why it loses to SOLO on large
    /// segments (paper section III: "SM has better performance for small
    /// messages while SOLO performs significantly better as the
    /// communication size increases").
    pub sm_chunk: u64,
    /// Fixed setup cost of a SOLO (one-sided) operation: window
    /// synchronization/exposure epochs.
    pub solo_setup: Time,
    /// Memory-bus time multiplier for intra-node transfers that cross a
    /// shared-memory-domain boundary (socket/NUMA interconnect hop on a
    /// 3-level topology). 1.0 models a socket-uniform node and is the
    /// value for every two-level preset; only deeper topologies ever
    /// observe other values, so two-level virtual times are unchanged.
    pub xsocket_bus_factor: f64,
}

// Hand-written serde keeps the historical 8-field JSON form whenever the
// cross-socket factor is neutral, so two-level preset fingerprints (and
// the persisted cost caches keyed by them) survive the N-level refactor.
impl Serialize for NodeParams {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("cores".to_string(), self.cores.to_value()),
            ("copy_rate".to_string(), self.copy_rate.to_value()),
            ("bus_bw".to_string(), self.bus_bw.to_value()),
            ("reduce_rate".to_string(), self.reduce_rate.to_value()),
            (
                "reduce_rate_avx".to_string(),
                self.reduce_rate_avx.to_value(),
            ),
            ("flag_latency".to_string(), self.flag_latency.to_value()),
            ("sm_chunk".to_string(), self.sm_chunk.to_value()),
            ("solo_setup".to_string(), self.solo_setup.to_value()),
        ];
        if self.xsocket_bus_factor != 1.0 {
            map.push((
                "xsocket_bus_factor".to_string(),
                self.xsocket_bus_factor.to_value(),
            ));
        }
        Value::Map(map)
    }
}

impl Deserialize for NodeParams {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::custom(format!("missing field {key}")))
        };
        Ok(NodeParams {
            cores: usize::from_value(field("cores")?)?,
            copy_rate: f64::from_value(field("copy_rate")?)?,
            bus_bw: f64::from_value(field("bus_bw")?)?,
            reduce_rate: f64::from_value(field("reduce_rate")?)?,
            reduce_rate_avx: f64::from_value(field("reduce_rate_avx")?)?,
            flag_latency: Time::from_value(field("flag_latency")?)?,
            sm_chunk: u64::from_value(field("sm_chunk")?)?,
            solo_setup: Time::from_value(field("solo_setup")?)?,
            xsocket_bus_factor: match v.get("xsocket_bus_factor") {
                Some(x) => f64::from_value(x)?,
                None => 1.0,
            },
        })
    }
}

/// How a multi-rail NIC assigns messages to its rails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RailPolicy {
    /// Each message rides one rail, chosen round-robin by message id.
    /// Distinct concurrent messages use distinct rails; a single message
    /// never exceeds one rail's bandwidth.
    #[default]
    RoundRobin,
    /// Each message is split evenly across all rails (HiCCL-style
    /// striping), so even a single large transfer sees the aggregate
    /// bandwidth.
    Stripe,
}

/// Network parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Injection bandwidth *per rail*, bytes/s, *per direction* (full
    /// duplex). A node's aggregate injection bandwidth is `nic_bw * rails`.
    pub nic_bw: f64,
    /// One-way wire latency between any two nodes.
    pub latency: Time,
    /// Fraction of each inter-node byte additionally charged to the
    /// endpoint memory bus (NIC DMA traffic). 1.0 = every byte crosses the
    /// bus once per endpoint.
    pub dma_bus_factor: f64,
    /// Optional aggregate network-core bandwidth, bytes/s, shared by all
    /// concurrent inter-node transfers. `None` = non-blocking fabric.
    pub core_bw: Option<f64>,
    /// Independent NIC rails per node (tx/rx resource pairs). 1 models the
    /// classic single-NIC node and is free: resource layout, names and
    /// virtual times are unchanged from the pre-multi-rail model.
    pub rails: usize,
    /// How messages map onto rails; irrelevant when `rails == 1`.
    pub rail_policy: RailPolicy,
}

// Hand-written serde keeps the historical 4-field JSON form for
// single-rail networks, so every existing preset fingerprint (and the
// persisted cost caches and tuned tables keyed by them) survives the
// multi-rail extension.
impl Serialize for NetParams {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("nic_bw".to_string(), self.nic_bw.to_value()),
            ("latency".to_string(), self.latency.to_value()),
            ("dma_bus_factor".to_string(), self.dma_bus_factor.to_value()),
            ("core_bw".to_string(), self.core_bw.to_value()),
        ];
        if self.rails != 1 {
            map.push(("rails".to_string(), self.rails.to_value()));
            map.push(("rail_policy".to_string(), self.rail_policy.to_value()));
        }
        Value::Map(map)
    }
}

impl Deserialize for NetParams {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::custom(format!("missing field {key}")))
        };
        Ok(NetParams {
            nic_bw: f64::from_value(field("nic_bw")?)?,
            latency: Time::from_value(field("latency")?)?,
            dma_bus_factor: f64::from_value(field("dma_bus_factor")?)?,
            core_bw: match v.get("core_bw") {
                Some(x) => Option::<f64>::from_value(x)?,
                None => None,
            },
            rails: match v.get("rails") {
                Some(x) => usize::from_value(x)?,
                None => 1,
            },
            rail_policy: match v.get("rail_policy") {
                Some(x) => RailPolicy::from_value(x)?,
                None => RailPolicy::RoundRobin,
            },
        })
    }
}

/// Link parameters of one hierarchy level: the physics of moving (and
/// combining) bytes between peer groups of that level. Level 0 is the
/// network; deeper levels are intra-node interconnects (memory bus, QPI,
/// NVLink, ...).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelParams {
    /// Bytes/s between two endpoints of this level.
    pub bandwidth: f64,
    /// Latency for a synchronization/flag round (or wire hop) at this
    /// level.
    pub latency: Time,
    /// Scalar (non-vectorized) reduction rate for combines performed at
    /// this level, bytes/s.
    pub reduce_rate: f64,
    /// Vectorized reduction rate for combines at this level, bytes/s.
    /// GPU-like levels set this much higher than `reduce_rate`.
    pub reduce_rate_avx: f64,
    /// Fixed launch/injection overhead charged once per data-movement or
    /// reduction operation at this level (kernel-launch cost on GPU-like
    /// levels). Zero for classic CPU levels.
    pub launch: Time,
}

impl LevelParams {
    /// Link occupancy for moving `bytes` at this level's bandwidth.
    #[inline]
    pub fn xfer_time(&self, bytes: u64) -> Time {
        Time::for_bytes(bytes, self.bandwidth)
    }

    /// Reduction compute time over `bytes` at this level's rates.
    #[inline]
    pub fn reduce_time(&self, bytes: u64, vectorized: bool) -> Time {
        let rate = if vectorized {
            self.reduce_rate_avx
        } else {
            self.reduce_rate
        };
        Time::for_bytes(bytes, rate)
    }
}

/// Per-level link parameters for a whole machine, outermost first.
/// `Copy` and fixed-size so presets and build contexts can pass it by
/// value exactly like [`NodeParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelVec {
    params: [LevelParams; MAX_LEVELS],
    depth: usize,
}

impl LevelVec {
    /// Build from an ordered slice (outermost first). Panics on an empty
    /// slice or one deeper than [`MAX_LEVELS`].
    pub fn from_slice(levels: &[LevelParams]) -> Self {
        assert!(
            !levels.is_empty() && levels.len() <= MAX_LEVELS,
            "level params need 1..={MAX_LEVELS} entries, got {}",
            levels.len()
        );
        let mut params = [levels[0]; MAX_LEVELS];
        params[..levels.len()].copy_from_slice(levels);
        LevelVec {
            params,
            depth: levels.len(),
        }
    }

    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Parameters of level `k` (0 = outermost).
    #[inline]
    pub fn get(&self, k: usize) -> &LevelParams {
        debug_assert!(k < self.depth, "level {k} out of range");
        &self.params[k]
    }

    /// Mutable parameters of level `k` (0 = outermost).
    #[inline]
    pub fn get_mut(&mut self, k: usize) -> &mut LevelParams {
        debug_assert!(k < self.depth, "level {k} out of range");
        &mut self.params[k]
    }

    /// The innermost (fastest, shared-memory) level.
    #[inline]
    pub fn innermost(&self) -> &LevelParams {
        &self.params[self.depth - 1]
    }

    pub fn iter(&self) -> impl Iterator<Item = &LevelParams> {
        self.params[..self.depth].iter()
    }
}

/// Launch-aware segment coarsening: the effective HAN segment width on a
/// machine whose inner levels charge a per-op launch overhead.
///
/// Fine segmentation is what makes the task pipeline overlap, but every
/// extra segment costs one `launch` on each consumer that copies or
/// reduces it — on GPU-like levels (kernel launches of microseconds) a
/// finely-segmented broadcast pays more in launches than it gains in
/// overlap, and loses to coarse-grained compositions. The builders
/// therefore widen the configured `fs` to the smallest power-of-two
/// multiple whose per-segment copy time amortizes the worst inner-level
/// launch to at most 1/8 of the segment, trading pipeline depth for
/// launch amortization.
///
/// Level 0 is excluded: wire transfers never pay a launch (only compute
/// ops do, and those always join ranks within one node). On uniform
/// machines every launch is zero and `fs` is returned unchanged, so
/// historical programs stay bit-identical.
///
/// The doubling is clamped at the message size `m`: any `fs ≥ m` yields
/// exactly one segment of `m` bytes (segmentation caps the last segment
/// at the remaining length), so widening past `m` cannot change a built
/// program or a simulated time. The clamp keeps the returned width the
/// one the builders actually use and ends the doubling loop early for
/// small messages.
pub fn coarsen_fs(fs: u64, m: u64, node: &NodeParams, levels: &LevelVec) -> u64 {
    const AMORTIZE: u64 = 8;
    let launch = levels
        .iter()
        .skip(1)
        .map(|lp| lp.launch)
        .max()
        .unwrap_or(Time::ZERO);
    if launch == Time::ZERO {
        return fs;
    }
    let target = launch * AMORTIZE;
    let cap = m.max(1);
    let mut f = fs.max(1);
    while node.copy_time(f) < target && f < (1 << 40) && f < cap {
        f *= 2;
    }
    f.min(cap.max(fs.max(1)))
}

impl NodeParams {
    /// Time for one rank to memcpy `bytes` (CPU side).
    #[inline]
    pub fn copy_time(&self, bytes: u64) -> Time {
        Time::for_bytes(bytes, self.copy_rate)
    }

    /// Local reduction compute time over `bytes`.
    #[inline]
    pub fn reduce_time(&self, bytes: u64, vectorized: bool) -> Time {
        let rate = if vectorized {
            self.reduce_rate_avx
        } else {
            self.reduce_rate
        };
        Time::for_bytes(bytes, rate)
    }

    /// Number of SM bounce fragments needed for `bytes`.
    #[inline]
    pub fn sm_fragments(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.sm_chunk).max(1)
    }

    /// View of these node parameters as seen by a builder recursing at one
    /// hierarchy level: the synchronization latency becomes that level's
    /// latency (everything else — copy rate, SM fragmenting, SOLO setup —
    /// is a property of the rank's CPU, not of the link). On a uniform
    /// machine every inner level carries `flag_latency`, so this view is
    /// bitwise-identical to `self` and generated programs do not change.
    #[inline]
    pub fn at_level(&self, lvl: &LevelParams) -> NodeParams {
        NodeParams {
            flag_latency: lvl.latency,
            ..*self
        }
    }
}

impl NetParams {
    /// NIC occupancy (one direction) for `bytes`.
    #[inline]
    pub fn wire_time(&self, bytes: u64) -> Time {
        Time::for_bytes(bytes, self.nic_bw)
    }

    /// Endpoint bus occupancy caused by NIC DMA for `bytes`.
    #[inline]
    pub fn dma_bus_time(&self, bytes: u64, node: &NodeParams) -> Time {
        Time::for_bytes((bytes as f64 * self.dma_bus_factor) as u64, node.bus_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeParams {
        NodeParams {
            cores: 4,
            copy_rate: 8e9,
            bus_bw: 80e9,
            reduce_rate: 3e9,
            reduce_rate_avx: 12e9,
            flag_latency: Time::from_ns(150),
            sm_chunk: 8 * 1024,
            solo_setup: Time::from_us(2),
            xsocket_bus_factor: 1.0,
        }
    }

    #[test]
    fn derived_times() {
        let n = node();
        assert_eq!(n.copy_time(8_000_000_000), Time::from_secs_f64(1.0));
        assert!(n.reduce_time(1 << 20, true) < n.reduce_time(1 << 20, false));
    }

    #[test]
    fn sm_fragment_count() {
        let n = node();
        assert_eq!(n.sm_fragments(1), 1);
        assert_eq!(n.sm_fragments(8 * 1024), 1);
        assert_eq!(n.sm_fragments(8 * 1024 + 1), 2);
        assert_eq!(n.sm_fragments(64 * 1024), 8);
        assert_eq!(n.sm_fragments(0), 1); // zero-byte ops still sync once
    }

    #[test]
    fn net_times() {
        let net = NetParams {
            nic_bw: 10e9,
            latency: Time::from_us(1),
            dma_bus_factor: 1.0,
            core_bw: None,
            rails: 1,
            rail_policy: RailPolicy::RoundRobin,
        };
        let n = node();
        assert_eq!(net.wire_time(10_000_000_000), Time::from_secs_f64(1.0));
        // DMA charge is bytes/bus_bw when factor is 1.
        assert_eq!(net.dma_bus_time(80_000, &n), Time::from_us(1));
    }

    #[test]
    fn neutral_xsocket_factor_is_free_and_unserialized() {
        let n = node();
        let json = serde_json::to_string(&n).expect("serialize");
        assert!(
            !json.contains("xsocket_bus_factor"),
            "neutral factor must keep the historical JSON form: {json}"
        );
        let back: NodeParams = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.xsocket_bus_factor, 1.0);
    }

    #[test]
    fn single_rail_net_keeps_historical_json_form() {
        let net = NetParams {
            nic_bw: 10e9,
            latency: Time::from_us(1),
            dma_bus_factor: 1.0,
            core_bw: None,
            rails: 1,
            rail_policy: RailPolicy::RoundRobin,
        };
        let json = serde_json::to_string(&net).expect("serialize");
        assert_eq!(
            json,
            r#"{"nic_bw":10000000000.0,"latency":1000000,"dma_bus_factor":1.0,"core_bw":null}"#
        );
        let back: NetParams = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.rails, 1);
        assert_eq!(back.rail_policy, RailPolicy::RoundRobin);
    }

    #[test]
    fn multi_rail_net_roundtrips() {
        let mut net = NetParams {
            nic_bw: 25e9,
            latency: Time::from_ns(1_500),
            dma_bus_factor: 1.0,
            core_bw: None,
            rails: 4,
            rail_policy: RailPolicy::Stripe,
        };
        let json = serde_json::to_string(&net).expect("serialize");
        assert!(json.contains("\"rails\":4"), "{json}");
        let back: NetParams = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.rails, 4);
        assert_eq!(back.rail_policy, RailPolicy::Stripe);
        net.rail_policy = RailPolicy::RoundRobin;
        let back: NetParams = serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
        assert_eq!(back.rail_policy, RailPolicy::RoundRobin);
    }

    #[test]
    fn level_params_times() {
        let lvl = LevelParams {
            bandwidth: 300e9,
            latency: Time::from_ns(700),
            reduce_rate: 50e9,
            reduce_rate_avx: 150e9,
            launch: Time::from_us(5),
        };
        assert_eq!(lvl.xfer_time(300_000_000_000), Time::from_secs_f64(1.0));
        assert!(lvl.reduce_time(1 << 20, true) < lvl.reduce_time(1 << 20, false));
    }

    #[test]
    fn level_vec_indexing() {
        let a = LevelParams {
            bandwidth: 10e9,
            latency: Time::from_us(1),
            reduce_rate: 3e9,
            reduce_rate_avx: 12e9,
            launch: Time::ZERO,
        };
        let mut b = a;
        b.bandwidth = 60e9;
        let lv = LevelVec::from_slice(&[a, b]);
        assert_eq!(lv.depth(), 2);
        assert_eq!(lv.get(0).bandwidth, 10e9);
        assert_eq!(lv.get(1).bandwidth, 60e9);
        assert_eq!(lv.innermost().bandwidth, 60e9);
        assert_eq!(lv.iter().count(), 2);
    }

    fn launch_levels(launch: Time) -> LevelVec {
        let wire = LevelParams {
            bandwidth: 10e9,
            latency: Time::from_us(1),
            reduce_rate: 3e9,
            reduce_rate_avx: 12e9,
            launch: Time::ZERO,
        };
        let mut inner = wire;
        inner.launch = launch;
        LevelVec::from_slice(&[wire, inner])
    }

    #[test]
    fn coarsen_fs_uniform_is_identity() {
        let n = node();
        let lv = launch_levels(Time::ZERO);
        // Zero launch: unchanged, even past the message size.
        assert_eq!(coarsen_fs(4096, 1024, &n, &lv), 4096);
        assert_eq!(coarsen_fs(1 << 20, 1 << 30, &n, &lv), 1 << 20);
    }

    #[test]
    fn coarsen_fs_clamps_at_message_size() {
        let n = node();
        let lv = launch_levels(Time::from_us(5));
        // target = 40 us => amortized width 320 KB, rounded up to 512 KB.
        assert_eq!(coarsen_fs(4096, 16 << 20, &n, &lv), 512 * 1024);
        // A 64 KB message must not coarsen to a fragment wider than
        // itself: any fs >= m is one m-byte segment anyway.
        assert_eq!(coarsen_fs(4096, 64 * 1024, &n, &lv), 64 * 1024);
        // Non-power-of-two messages clamp exactly at m.
        assert_eq!(coarsen_fs(4096, 100_000, &n, &lv), 100_000);
        // A configured fs already past the message size is left alone.
        assert_eq!(coarsen_fs(1 << 20, 64 * 1024, &n, &lv), 1 << 20);
        // Tiny messages never widen at all.
        assert_eq!(coarsen_fs(4096, 1, &n, &lv), 4096);
    }

    #[test]
    fn coarsen_fs_guard_boundary() {
        let n = node();
        // launch * 8 = 160 s, amortized width ~ 1.28e12 bytes > 1 << 40:
        // the doubling must stop exactly at the 1 TiB guard, not wrap or
        // overshoot, and still respect a smaller message clamp.
        let lv = launch_levels(Time::from_secs_f64(20.0));
        assert_eq!(coarsen_fs(1, u64::MAX, &n, &lv), 1 << 40);
        assert_eq!(coarsen_fs(1, (1 << 40) + 1, &n, &lv), 1 << 40);
        assert_eq!(coarsen_fs(1, 1 << 20, &n, &lv), 1 << 20);
    }

    #[test]
    fn at_level_changes_only_flag_latency() {
        let n = node();
        let lvl = LevelParams {
            bandwidth: 60e9,
            latency: Time::from_ns(999),
            reduce_rate: 1e9,
            reduce_rate_avx: 2e9,
            launch: Time::from_us(9),
        };
        let v = n.at_level(&lvl);
        assert_eq!(v.flag_latency, Time::from_ns(999));
        assert_eq!(v.copy_rate, n.copy_rate);
        assert_eq!(v.sm_chunk, n.sm_chunk);
        assert_eq!(v.solo_setup, n.solo_setup);
        // A level carrying the node's own flag latency is a no-op view.
        let mut same = lvl;
        same.latency = n.flag_latency;
        let json_a = serde_json::to_string(&n.at_level(&same)).unwrap();
        let json_b = serde_json::to_string(&n).unwrap();
        assert_eq!(json_a, json_b);
    }

    #[test]
    fn xsocket_factor_roundtrips() {
        let mut n = node();
        n.xsocket_bus_factor = 1.6;
        let json = serde_json::to_string(&n).expect("serialize");
        let back: NodeParams = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.xsocket_bus_factor, 1.6);
    }
}
