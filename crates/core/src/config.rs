//! HAN's tuned parameter set — the *output* of autotuning (paper Table II).

use han_colls::{Adapt, Coll, InterAlg, InterModule, IntraModule};
use han_machine::{LevelVec, NodeParams, Topology};
use han_mpi::DataType;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

/// Maximum number of hierarchy levels below the first shared-memory level
/// (levels 2.. of a [`han_machine::Topology`]) a config can address.
pub const MAX_DEEP: usize = han_machine::MAX_LEVELS - 2;

/// Period of the segment-routing pattern: of every [`ROUTE_PERIOD`]
/// consecutive HAN segments, the first `pri` ride the primary `ibalg`
/// tree and the rest ride the alternate tree.
pub const ROUTE_PERIOD: u64 = 8;

/// SCCL-style multi-tree segment routing for the inter-node broadcast
/// phase — a schedule the Table-II menu cannot express. Striping the
/// segment stream across two trees splits the root's send load: segments
/// routed to the alternate tree leave through different first hops, so
/// the trees' wire occupancies overlap instead of serializing on one
/// root NIC schedule.
///
/// Only meaningful with `imod == Adapt` (Libnbc ignores it). The pattern
/// is periodic with period [`ROUTE_PERIOD`]: segment `i` rides the
/// primary `ibalg` tree iff `i % ROUTE_PERIOD < pri`, otherwise the
/// `alt` tree. `pri` is meaningful in `1..ROUTE_PERIOD`; the reduce
/// phase always keeps `iralg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegRoute {
    /// Segments per [`ROUTE_PERIOD`]-window on the primary tree.
    pub pri: u8,
    /// The tree carrying the remaining segments.
    pub alt: InterAlg,
}

impl Serialize for SegRoute {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("pri".to_string(), (self.pri as u64).to_value()),
            ("alt".to_string(), self.alt.to_value()),
        ])
    }
}

impl Deserialize for SegRoute {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::custom(format!("missing field {key}")))
        };
        Ok(SegRoute {
            pri: u64::from_value(field("pri")?)? as u8,
            alt: InterAlg::from_value(field("alt")?)?,
        })
    }
}

impl fmt::Display for SegRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pri, self.alt)
    }
}

/// One complete HAN configuration (Table II):
///
/// | symbol  | meaning                                       |
/// |---------|-----------------------------------------------|
/// | `fs`    | segment size in the HAN module                |
/// | `imod`  | submodule used for inter-node                 |
/// | `smod`  | submodule used for intra-node                 |
/// | `ibalg` | inter-node bcast algorithm (ADAPT only)       |
/// | `iralg` | inter-node reduce algorithm (ADAPT only)      |
/// | `ibs`   | inter-node bcast segment size (ADAPT only)    |
/// | `irs`   | inter-node reduce segment size (ADAPT only)   |
///
/// On topologies deeper than two levels the intra-node phase is itself a
/// recursive hierarchy; `deep[k]` selects the submodule for absolute level
/// `k + 2` (level 1 stays `smod`). The all-`None` value — every two-level
/// configuration — falls back to `smod` at every depth and serializes in
/// the exact seven-field Table-II form above, so persisted tables and
/// cache fingerprints from the two-level era remain valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HanConfig {
    pub fs: u64,
    pub imod: InterModule,
    pub smod: IntraModule,
    pub ibalg: InterAlg,
    pub iralg: InterAlg,
    pub ibs: Option<u64>,
    pub irs: Option<u64>,
    /// Submodule overrides for levels deeper than the first shared-memory
    /// level: `deep[k]` configures level `k + 2` of the topology.
    pub deep: [Option<IntraModule>; MAX_DEEP],
    /// Multi-tree segment routing for the inter broadcast phase (synth
    /// output; `None` — every Table-II configuration — keeps the single
    /// `ibalg` tree and serializes exactly as before).
    pub route: Option<SegRoute>,
}

// Hand-written serde: the historical seven-field Table-II map, with a
// trailing "deep" list only when some deep level is configured. This is
// the lossless compatibility view — two-level configs are byte-identical
// to their pre-N-level serialization.
impl Serialize for HanConfig {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("fs".to_string(), self.fs.to_value()),
            ("imod".to_string(), self.imod.to_value()),
            ("smod".to_string(), self.smod.to_value()),
            ("ibalg".to_string(), self.ibalg.to_value()),
            ("iralg".to_string(), self.iralg.to_value()),
            ("ibs".to_string(), self.ibs.to_value()),
            ("irs".to_string(), self.irs.to_value()),
        ];
        if let Some(last) = self.deep.iter().rposition(|d| d.is_some()) {
            map.push((
                "deep".to_string(),
                Value::Seq(self.deep[..=last].iter().map(|d| d.to_value()).collect()),
            ));
        }
        if let Some(route) = &self.route {
            map.push(("route".to_string(), route.to_value()));
        }
        Value::Map(map)
    }
}

impl Deserialize for HanConfig {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::custom(format!("missing field {key}")))
        };
        let mut deep = [None; MAX_DEEP];
        if let Some(Value::Seq(items)) = v.get("deep") {
            if items.len() > MAX_DEEP {
                return Err(Error::custom("too many deep levels"));
            }
            for (k, item) in items.iter().enumerate() {
                deep[k] = Option::<IntraModule>::from_value(item)?;
            }
        }
        let route = match v.get("route") {
            Some(r) => Some(SegRoute::from_value(r)?),
            None => None,
        };
        Ok(HanConfig {
            fs: u64::from_value(field("fs")?)?,
            imod: InterModule::from_value(field("imod")?)?,
            smod: IntraModule::from_value(field("smod")?)?,
            ibalg: InterAlg::from_value(field("ibalg")?)?,
            iralg: InterAlg::from_value(field("iralg")?)?,
            ibs: Option::<u64>::from_value(field("ibs")?)?,
            irs: Option::<u64>::from_value(field("irs")?)?,
            deep,
            route,
        })
    }
}

impl Default for HanConfig {
    /// A reasonable untuned starting point: 128 KB segments, ADAPT
    /// binomial inter-node, SM intra-node.
    fn default() -> Self {
        HanConfig {
            fs: 128 * 1024,
            imod: InterModule::Adapt,
            smod: IntraModule::Sm,
            ibalg: InterAlg::Binomial,
            iralg: InterAlg::Binomial,
            ibs: None,
            irs: None,
            deep: [None; MAX_DEEP],
            route: None,
        }
    }
}

impl HanConfig {
    /// The ADAPT submodule instance this configuration selects (only
    /// meaningful when `imod == Adapt`).
    pub fn adapt(&self) -> Adapt {
        Adapt {
            balg: self.ibalg,
            ralg: self.iralg,
            ibs: self.ibs,
            irs: self.irs,
        }
    }

    /// Whether HAN segment `seg` rides the alternate routed tree in the
    /// inter broadcast phase (always `false` without a route).
    pub fn routed(&self, seg: u64) -> bool {
        match self.route {
            Some(r) => seg % ROUTE_PERIOD >= r.pri as u64,
            None => false,
        }
    }

    /// The ADAPT instance broadcasting HAN segment `seg`: the primary
    /// [`HanConfig::adapt`] tree, or — for routed segments — the same
    /// sub-segmentation over the alternate tree. The reduce direction is
    /// unaffected by routing.
    pub fn adapt_for_segment(&self, seg: u64) -> Adapt {
        let mut a = self.adapt();
        if let Some(r) = self.route {
            if self.routed(seg) {
                a.balg = r.alt;
            }
        }
        a
    }

    /// Number of HAN segments for a message of `bytes`.
    pub fn segments(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.fs.max(1))
        }
    }

    /// `fs` floored at one `dtype` element: a segment holds a whole,
    /// nonzero number of elements.
    fn element_fs(&self, dtype: DataType) -> u64 {
        let el = dtype.size() as u64;
        (self.fs / el).max(1) * el
    }

    /// HAN's segmentation rule: the segment width and count `u` for an
    /// `m`-byte payload of `dtype` elements. The builders emit these
    /// segments, the task model prices them and the lower bound assumes
    /// them. `fs` is floored at one element (`element_fs`), then
    /// widened by [`han_machine::coarsen_fs`] on machines whose
    /// inner levels charge a launch overhead.
    pub fn segmentation(
        &self,
        dtype: DataType,
        m: u64,
        node: &NodeParams,
        levels: &LevelVec,
    ) -> (u64, usize) {
        let fs = han_machine::coarsen_fs(self.element_fs(dtype), m, node, levels);
        (fs, m.div_ceil(fs).max(1) as usize)
    }

    pub fn with_fs(mut self, fs: u64) -> Self {
        self.fs = fs;
        self
    }

    pub fn with_inter(mut self, imod: InterModule, alg: InterAlg) -> Self {
        self.imod = imod;
        self.ibalg = alg;
        self.iralg = alg;
        self
    }

    pub fn with_intra(mut self, smod: IntraModule) -> Self {
        self.smod = smod;
        self
    }

    /// The intra submodule for hierarchy level `level` (≥ 1): level 1 is
    /// `smod`, deeper levels use their `deep` entry, falling back to
    /// `smod` when unset — so a two-level config is valid at any depth.
    pub fn smod_at(&self, level: usize) -> IntraModule {
        debug_assert!(level >= 1, "level 0 is inter-node");
        if level <= 1 {
            self.smod
        } else {
            self.deep
                .get(level - 2)
                .copied()
                .flatten()
                .unwrap_or(self.smod)
        }
    }

    /// Set the submodule for a deep level (`level` ≥ 2).
    pub fn with_deep(mut self, level: usize, smod: IntraModule) -> Self {
        self.deep[level - 2] = Some(smod);
        self
    }

    /// This configuration with every field that cannot change the program
    /// [`han_colls::stack::build_coll`] emits for `coll` at `m` bytes on
    /// `topo` reset to one canonical value (the [`HanConfig::default`]
    /// field, or `None`). Two configs with equal effective configs build
    /// equal programs for any root on `topo`, so a sweep that keys its
    /// simulations by the effective config runs each distinct program
    /// once. The rules:
    ///
    /// * an `fs` past the message is one segment, so it is clamped to `m`
    ///   (rounded up to whole `Float32` elements for reductions, which
    ///   segment at element granularity);
    /// * Libnbc reads no ADAPT field (`ibalg`, `iralg`, `ibs`, `irs`,
    ///   `route`); a collective without an inter broadcast phase (all but
    ///   Bcast and Allreduce) reads no `ibalg`/`ibs`/`route`, and one
    ///   without an inter reduce phase (all but Reduce and Allreduce) no
    ///   `iralg`/`irs`;
    /// * with at most two nodes every ADAPT tree is the same single edge,
    ///   so the algorithms and the route do not matter;
    /// * an `ibs`/`irs` at least `m` long means no sub-segmentation. The
    ///   test is against `m`, not `fs`: on a machine with launch costs
    ///   [`han_machine::coarsen_fs`] widens segments past `fs`, never
    ///   past `m`;
    /// * a route whose `alt` is `ibalg` routes nothing, and neither does
    ///   one whose `pri` no segment index reaches within a period
    ///   (coarsening only lowers the segment count);
    /// * a `deep` entry equal to `smod`, or for a level `topo` lacks, is
    ///   the fallback.
    pub fn effective(&self, topo: &Topology, coll: Coll, m: u64) -> HanConfig {
        let canon = HanConfig::default();
        let mut c = *self;
        let ib = matches!(coll, Coll::Bcast | Coll::Allreduce);
        let ir = matches!(coll, Coll::Reduce | Coll::Allreduce);
        let dtype = if ir {
            DataType::Float32
        } else {
            DataType::Uint8
        };
        c.fs = c.fs.min(m.max(1).next_multiple_of(dtype.size() as u64));
        let adapt = c.imod == InterModule::Adapt;
        let trees = adapt && topo.nodes() > 2;
        if !(ib && trees) {
            c.ibalg = canon.ibalg;
        }
        if !(ir && trees) {
            c.iralg = canon.iralg;
        }
        if !(ib && adapt) || c.ibs.is_some_and(|s| s >= m) {
            c.ibs = None;
        }
        if !(ir && adapt) || c.irs.is_some_and(|s| s >= m) {
            c.irs = None;
        }
        let segments = m.div_ceil(c.element_fs(dtype)).max(1);
        if let Some(r) = c.route {
            if !(ib && trees) || r.alt == c.ibalg || r.pri as u64 >= segments.min(ROUTE_PERIOD) {
                c.route = None;
            }
        }
        for (k, d) in c.deep.iter_mut().enumerate() {
            if *d == Some(c.smod) || k + 2 >= topo.depth() {
                *d = None;
            }
        }
        c
    }

    /// Stripe the inter broadcast segment stream across two trees:
    /// `pri` of every [`ROUTE_PERIOD`] segments on `ibalg`, the rest on
    /// `alt`.
    pub fn with_route(mut self, pri: u8, alt: InterAlg) -> Self {
        self.route = Some(SegRoute { pri, alt });
        self
    }
}

impl fmt::Display for HanConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fs={} imod={} smod={} ibalg={} iralg={}",
            human_size(self.fs),
            self.imod,
            self.smod,
            self.ibalg,
            self.iralg
        )?;
        if let Some(ibs) = self.ibs {
            write!(f, " ibs={}", human_size(ibs))?;
        }
        if let Some(irs) = self.irs {
            write!(f, " irs={}", human_size(irs))?;
        }
        if let Some(last) = self.deep.iter().rposition(|d| d.is_some()) {
            write!(f, " deep=")?;
            for (k, d) in self.deep[..=last].iter().enumerate() {
                if k > 0 {
                    write!(f, ",")?;
                }
                match d {
                    Some(m) => write!(f, "{m}")?,
                    None => write!(f, "-")?,
                }
            }
        }
        if let Some(route) = &self.route {
            write!(f, " route={route}")?;
        }
        Ok(())
    }
}

/// Render a byte count compactly (4K, 2M, ...).
pub fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes % (1 << 20) == 0 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes % (1 << 10) == 0 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_count() {
        let c = HanConfig::default().with_fs(64 * 1024);
        assert_eq!(c.segments(0), 1);
        assert_eq!(c.segments(64 * 1024), 1);
        assert_eq!(c.segments(64 * 1024 + 1), 2);
        assert_eq!(c.segments(4 << 20), 64);
    }

    #[test]
    fn segmentation_rule() {
        let seg = |p: &han_machine::MachinePreset, fs, dtype, m| {
            HanConfig::default()
                .with_fs(fs)
                .segmentation(dtype, m, &p.node, &p.level_params())
        };
        let (f32, u8) = (DataType::Float32, DataType::Uint8);
        // Uniform levels charge no launch: `fs` is only floored at one
        // element, a whole number of them.
        let mini = han_machine::mini(4, 4);
        assert_eq!(seg(&mini, 0, f32, 1 << 20), (4, 1 << 18));
        assert_eq!(seg(&mini, 5, f32, 10), (4, 3));
        assert_eq!(seg(&mini, 4097, f32, 1 << 20), (4096, 256));
        assert_eq!(seg(&mini, 0, u8, 10), (1, 10));
        assert_eq!(seg(&mini, 48 * 1024, f32, 1 << 20), (48 * 1024, 22));
        // One segment once `fs` covers the message, and for an empty one.
        assert_eq!(seg(&mini, 64 * 1024, f32, 1000), (64 * 1024, 1));
        assert_eq!(seg(&mini, 64 * 1024, f32, 0), (64 * 1024, 1));
        // dgx_like's device level charges a 3 us launch, so a segment
        // doubles until copying it at 40 GB/s takes 8 launches (24 us,
        // 960,000 B): 64 KiB and 4 B both widen to 1 MiB.
        let dgx = han_machine::dgx_like(2, 4);
        assert_eq!(seg(&dgx, 64 * 1024, f32, 4 << 20), (1 << 20, 4));
        assert_eq!(seg(&dgx, 5, f32, 4 << 20), (1 << 20, 4));
        // A width that already amortizes the launch stays.
        assert_eq!(seg(&dgx, 2 << 20, f32, 8 << 20), (2 << 20, 4));
        // Widening stops at the message: 512 KiB is clamped to m.
        assert_eq!(seg(&dgx, 64 * 1024, f32, 300_000), (300_000, 1));
    }

    #[test]
    fn builder_helpers() {
        let c = HanConfig::default()
            .with_fs(1 << 20)
            .with_inter(InterModule::Libnbc, InterAlg::Chain)
            .with_intra(IntraModule::Solo);
        assert_eq!(c.fs, 1 << 20);
        assert_eq!(c.imod, InterModule::Libnbc);
        assert_eq!(c.ibalg, InterAlg::Chain);
        assert_eq!(c.smod, IntraModule::Solo);
    }

    #[test]
    fn display_is_compact() {
        let c = HanConfig::default();
        let s = c.to_string();
        assert!(s.contains("fs=128K"), "{s}");
        assert!(s.contains("imod=adapt"), "{s}");
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(4096), "4K");
        assert_eq!(human_size(2 << 20), "2M");
        assert_eq!(human_size(1000), "1000");
    }

    #[test]
    fn serde_roundtrip() {
        let c = HanConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: HanConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn two_level_serde_keeps_table_two_form() {
        // The compatibility view: no "deep" key, the seven Table-II fields
        // in declaration order — byte-identical to the pre-N-level form.
        let c = HanConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        assert!(!json.contains("deep"), "{json}");
        assert!(json.starts_with("{\"fs\":"), "{json}");
    }

    #[test]
    fn route_roundtrip_and_segment_dispatch() {
        let c = HanConfig::default().with_route(5, InterAlg::Chain);
        // Segments 0..4 of each 8-window ride ibalg, 5..7 ride the alt.
        assert!(!c.routed(0));
        assert!(!c.routed(4));
        assert!(c.routed(5));
        assert!(c.routed(7));
        assert!(!c.routed(8), "pattern is periodic");
        assert_eq!(c.adapt_for_segment(0).balg, InterAlg::Binomial);
        assert_eq!(c.adapt_for_segment(6).balg, InterAlg::Chain);
        assert_eq!(
            c.adapt_for_segment(6).ralg,
            c.iralg,
            "reduce tree unaffected"
        );
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("route"), "{json}");
        let back: HanConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        assert!(c.to_string().contains("route=5/chain"), "{c}");
        // Route-less configs keep the byte-stable Table-II serialization.
        let plain = HanConfig::default();
        assert!(!serde_json::to_string(&plain).unwrap().contains("route"));
        assert!(!plain.routed(3));
    }

    #[test]
    fn deep_levels_roundtrip_and_fall_back() {
        let c = HanConfig::default()
            .with_intra(IntraModule::Sm)
            .with_deep(2, IntraModule::Solo);
        assert_eq!(c.smod_at(1), IntraModule::Sm);
        assert_eq!(c.smod_at(2), IntraModule::Solo);
        assert_eq!(c.smod_at(3), IntraModule::Sm, "unset deep falls back");
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("deep"), "{json}");
        let back: HanConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        assert!(c.to_string().contains("deep=solo"), "{c}");
    }
}
