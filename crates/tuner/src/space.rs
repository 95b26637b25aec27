//! Search spaces: the inputs of autotuning (Table I) and the enumeration
//! of candidate configurations (Table II).

use crate::heuristics;
use han_colls::{InterAlg, InterModule, IntraModule};
use han_core::{HanConfig, MAX_DEEP};
use han_machine::Topology;
use serde::{Deserialize, Serialize};

/// The discrete search space over which autotuning runs. The continuous
/// message-size axis is sampled at powers of two ("most approaches use
/// discrete message sizes such as 4B, 8B, 16B, 32B, …, to sample the
/// continuous value").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Message sizes `M`.
    pub msg_sizes: Vec<u64>,
    /// HAN segment sizes `S` (candidate `fs` values).
    pub seg_sizes: Vec<u64>,
    /// Inter-node (submodule, algorithm) pairs `A`. Libnbc ignores the
    /// algorithm (always binomial), so it contributes one entry.
    pub inter: Vec<(InterModule, InterAlg)>,
    /// Intra-node submodules.
    pub intra: Vec<IntraModule>,
}

/// Powers of two from `lo` to `hi` inclusive.
pub fn pow2_range(lo: u64, hi: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut x = lo;
    while x <= hi {
        v.push(x);
        x *= 2;
    }
    v
}

impl SearchSpace {
    /// The space used by the tuning experiments (Figs. 4, 8, 9): messages
    /// 4 B – 16 MB, segments 4 KB – 4 MB.
    pub fn standard() -> Self {
        SearchSpace {
            msg_sizes: pow2_range(4, 16 << 20),
            seg_sizes: pow2_range(4 * 1024, 4 << 20),
            inter: Self::inter_full(),
            intra: vec![IntraModule::Sm, IntraModule::Solo],
        }
    }

    /// A reduced space for tests and examples.
    pub fn small() -> Self {
        SearchSpace {
            msg_sizes: pow2_range(1024, 1 << 20),
            seg_sizes: pow2_range(16 * 1024, 512 * 1024),
            inter: Self::inter_full(),
            intra: vec![IntraModule::Sm, IntraModule::Solo],
        }
    }

    fn inter_full() -> Vec<(InterModule, InterAlg)> {
        let mut v = vec![(InterModule::Libnbc, InterAlg::Binomial)];
        for alg in InterAlg::ALL {
            v.push((InterModule::Adapt, alg));
        }
        v
    }

    /// Number of algorithm combinations `A` (submodules × algorithms).
    pub fn algo_count(&self) -> usize {
        self.inter.len() * self.intra.len()
    }

    /// Enumerate candidate configurations for message size `m`, optionally
    /// pruned by the section III-C heuristics. Segment sizes larger than
    /// the message collapse to a single whole-message segment (deduped).
    pub fn configs(&self, m: u64, nodes: usize, heuristic: bool) -> Vec<HanConfig> {
        let mut out = Vec::new();
        let mut seen_fs = Vec::new();
        for &fs_raw in &self.seg_sizes {
            let fs = fs_raw.min(m.max(1));
            if seen_fs.contains(&fs) {
                continue;
            }
            seen_fs.push(fs);
            for &(imod, alg) in &self.inter {
                for &smod in &self.intra {
                    let cfg = HanConfig {
                        fs,
                        imod,
                        smod,
                        ibalg: alg,
                        iralg: alg,
                        ibs: None,
                        irs: None,
                        deep: [None; MAX_DEEP],
                        route: None,
                    };
                    if heuristic && !heuristics::admit(&cfg, m, nodes) {
                        continue;
                    }
                    out.push(cfg);
                }
            }
        }
        out
    }

    /// [`SearchSpace::configs`], generalized to an N-level topology: on a
    /// two-level machine this is byte-identical to `configs`; deeper
    /// machines additionally cross in per-level `deep` submodule overrides
    /// for levels `2..depth`. A `deep` entry equal to the base `smod` is
    /// redundant (the fallback already selects it), so only genuinely
    /// distinct overrides are enumerated — the space grows by the number
    /// of *observably different* per-level assignments, not `|intra|^d`.
    pub fn configs_for(&self, m: u64, topo: &Topology, heuristic: bool) -> Vec<HanConfig> {
        self.deepen(self.configs(m, topo.nodes(), heuristic), topo, heuristic)
    }

    /// Cross a two-level candidate list with per-level `deep` overrides for
    /// the topology's levels below the node leader level.
    fn deepen(&self, base: Vec<HanConfig>, topo: &Topology, heuristic: bool) -> Vec<HanConfig> {
        let deep_levels = topo.depth().saturating_sub(2);
        if deep_levels == 0 {
            return base;
        }
        let mut out = Vec::new();
        for cfg in base {
            // Per deep level: keep the fallback (None) or override with a
            // distinct submodule that the heuristics admit at this segment
            // size.
            let choices: Vec<Vec<Option<IntraModule>>> = (0..deep_levels)
                .map(|_| {
                    let mut c = vec![None];
                    for &sm in &self.intra {
                        if sm != cfg.smod && (!heuristic || heuristics::admit_module(sm, cfg.fs)) {
                            c.push(Some(sm));
                        }
                    }
                    c
                })
                .collect();
            let mut assign = vec![0usize; deep_levels];
            loop {
                let mut c = cfg;
                for (d, &i) in assign.iter().enumerate() {
                    c.deep[d] = choices[d][i];
                }
                out.push(c);
                // Odometer increment over the per-level choice lists.
                let mut d = 0;
                loop {
                    if d == deep_levels {
                        break;
                    }
                    assign[d] += 1;
                    if assign[d] < choices[d].len() {
                        break;
                    }
                    assign[d] = 0;
                    d += 1;
                }
                if d == deep_levels {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_ranges() {
        assert_eq!(pow2_range(4, 32), vec![4, 8, 16, 32]);
        assert_eq!(pow2_range(8, 8), vec![8]);
        assert!(pow2_range(16, 8).is_empty());
    }

    #[test]
    fn standard_space_dimensions() {
        let s = SearchSpace::standard();
        // 4B..16MB = 23 sizes; 4KB..4MB = 11 segment sizes.
        assert_eq!(s.msg_sizes.len(), 23);
        assert_eq!(s.seg_sizes.len(), 11);
        // A = (libnbc + adapt×3) × (sm, solo) = 8.
        assert_eq!(s.algo_count(), 8);
    }

    #[test]
    fn configs_dedupe_oversized_segments() {
        let s = SearchSpace::small();
        // m smaller than every segment size: all fs collapse to m.
        let configs = s.configs(1024, 8, false);
        assert!(configs.iter().all(|c| c.fs == 1024));
        assert_eq!(configs.len(), s.algo_count());
    }

    #[test]
    fn heuristics_prune() {
        let s = SearchSpace::standard();
        let all = s.configs(16 << 20, 8, false);
        let pruned = s.configs(16 << 20, 8, true);
        assert!(pruned.len() < all.len());
        // SOLO never below 512K segments, SM never at/above.
        for c in &pruned {
            if c.fs < 512 * 1024 {
                assert_eq!(c.smod, han_colls::IntraModule::Sm, "{c}");
            } else {
                assert_eq!(c.smod, han_colls::IntraModule::Solo, "{c}");
            }
        }
    }

    #[test]
    fn full_space_size_matches_formula() {
        // |configs(m)| = S × A when m ≥ max segment.
        let s = SearchSpace::standard();
        let configs = s.configs(16 << 20, 8, false);
        assert_eq!(configs.len(), s.seg_sizes.len() * s.algo_count());
    }
}
