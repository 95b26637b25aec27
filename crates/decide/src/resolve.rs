//! Size-bucket resolution: one answer per *interval*, not per byte count.
//!
//! The decision function is "nearest sample in log space, ties to the
//! smaller sample", computed exactly in integers. Take a collective's
//! distinct samples `s_0 < … < s_k`, with `0` and `1` collapsed onto the
//! smaller one and a duplicated sample keeping its first entry (as
//! [`LookupTable::get`] does), and write `s' = max(s, 1)`. A query `x`
//! lies nearer `s_i` than `s_{i+1}`, or exactly between them, iff
//! `max(x, 1)² ≤ s_i'·s_{i+1}'`. So bucket `i` is `[lo_i, hi_i]` with
//! `lo_0 = 0`, `hi_i = ⌊√(s_i'·s_{i+1}')⌋` (in `u128`),
//! `lo_{i+1} = hi_i + 1` and `hi_k = u64::MAX`: the buckets tile the
//! axis, and each holds its own sample.
//!
//! [`LookupTable::buckets`] is the one construction, and nothing stores
//! its output. [`LookupTable::resolve`] reads it, and the table's
//! `ConfigSource` impl and `han-serve`'s daemon answer through `resolve`.
//! Every answer carries its bucket, so a client that learns a bucket once
//! may answer every later query inside it bit-identically.

use crate::table::LookupTable;
use han_colls::Coll;
use han_core::HanConfig;

/// The answer to one decision query, widened to the maximal interval of
/// message sizes on which it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The tuned configuration to use.
    pub cfg: HanConfig,
    /// The sampled message size the query resolved to.
    pub m: u64,
    /// Smallest query size (inclusive) resolving to this entry.
    pub lo: u64,
    /// Largest query size (inclusive) resolving to this entry.
    pub hi: u64,
    /// The cost the tuner attributed to the sample, in picoseconds.
    pub cost_ps: u64,
}

impl Resolution {
    /// Does `m` fall inside this resolution's bucket?
    pub fn contains(&self, m: u64) -> bool {
        self.lo <= m && m <= self.hi
    }
}

/// `⌊√n⌋`: an f64 estimate, then one integer Newton step, which lands on
/// or just above the root, then an exact correction down (`u128::isqrt`
/// is newer than the crate's MSRV).
fn floor_sqrt(n: u128) -> u64 {
    let r = ((n as f64).sqrt() as u128).max(1);
    let mut r = ((r + n / r) / 2).min(u128::from(u64::MAX)) as u64;
    while u128::from(r) * u128::from(r) > n {
        r -= 1;
    }
    r
}

impl LookupTable {
    /// Every bucket of `coll`, ascending: they tile `[0, u64::MAX]` (see
    /// module docs). Empty when the table has no entry for `coll`.
    pub fn buckets(&self, coll: Coll) -> Vec<Resolution> {
        let mut buckets: Vec<Resolution> = self
            .entries
            .iter()
            .filter(|e| e.coll == coll.name())
            .map(|e| Resolution {
                cfg: e.cfg,
                m: e.m,
                lo: 0,
                hi: u64::MAX,
                cost_ps: e.cost_ps,
            })
            .collect();
        // Stable, so equal samples keep entry order and the first wins.
        buckets.sort_by_key(|r| (r.m.max(1), r.m));
        buckets.dedup_by_key(|r| r.m.max(1));
        for i in 1..buckets.len() {
            let (a, b) = (buckets[i - 1].m.max(1), buckets[i].m.max(1));
            let hi = floor_sqrt(u128::from(a) * u128::from(b));
            buckets[i - 1].hi = hi;
            buckets[i].lo = hi + 1;
        }
        buckets
    }

    /// Resolve a query to its entry *and* the maximal interval
    /// `[lo, hi]` of sizes that resolve identically (see module docs).
    pub fn resolve(&self, coll: Coll, m: u64) -> Option<Resolution> {
        let buckets = self.buckets(coll);
        let i = buckets.partition_point(|r| r.lo <= m);
        i.checked_sub(1).map(|i| buckets[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_sim::Time;
    use proptest::prelude::*;

    /// Bcast entries at `sizes`, each with its own config.
    fn table(sizes: &[u64]) -> LookupTable {
        let mut t = LookupTable::new(4, 8);
        for (i, &m) in sizes.iter().enumerate() {
            let cfg = HanConfig::default().with_fs(1 + i as u64);
            t.insert(Coll::Bcast, m, cfg, Time::from_us(1));
        }
        t
    }

    /// A table with uneven, non-power-of-two samples over three
    /// collectives, including the corner cases of the decision rule: 0
    /// and 1 (the same log position, so 0 wins), two samples one apart
    /// near 2^60 (only integer arithmetic separates them), one within 2
    /// of `u64::MAX`, and a duplicated sample (the first entry wins).
    fn uneven_table() -> LookupTable {
        let mut t = LookupTable::new(3, 5);
        let sizes = [
            0u64,
            1,
            3,
            100,
            1000,
            1500,
            77_777,
            (1 << 20) + 5,
            123_456_789,
            1 << 60,
            (1 << 60) + 1,
            u64::MAX - 1,
        ];
        for (i, &m) in sizes.iter().enumerate() {
            let coll = [Coll::Bcast, Coll::Gather][i % 2];
            for c in [Coll::Allreduce, coll] {
                let cfg = HanConfig::default().with_fs(1 + i as u64);
                t.insert(c, m, cfg, Time::from_ps(1000 + i as u64));
            }
        }
        let cfg = HanConfig::default().with_fs(999);
        t.insert(Coll::Allreduce, 1500, cfg, Time::from_ps(1));
        t
    }

    /// Brute force: a linear scan over every `coll` entry with the exact
    /// pairwise rule. For samples `a' < b'` (`s' = max(s, 1)`), `x` goes
    /// to `a` iff `max(x, 1)² ≤ a'·b'`; equal `s'` keep the smaller
    /// sample, then the first entry.
    fn reference(t: &LookupTable, coll: Coll, x: u64) -> Option<(u64, HanConfig)> {
        let (x, s) = (u128::from(x.max(1)), |m: u64| u128::from(m.max(1)));
        let entries = t.entries.iter().filter(|e| e.coll == coll.name());
        entries
            .reduce(|best, e| {
                let mut pair = [best, e];
                pair.sort_by_key(|e| (s(e.m), e.m));
                let [a, b] = pair;
                if s(a.m) == s(b.m) || x * x <= s(a.m) * s(b.m) {
                    a
                } else {
                    b
                }
            })
            .map(|e| (e.m, e.cfg))
    }

    fn agrees_on(t: &LookupTable, coll: Coll, x: u64) -> bool {
        t.resolve(coll, x).map(|r| (r.m, r.cfg)) == reference(t, coll, x)
    }

    fn agrees(t: &LookupTable, x: u64) -> bool {
        agrees_on(t, Coll::Bcast, x)
    }

    #[test]
    fn buckets_tile_the_axis() {
        let t = table(&[1024, 1 << 20, 16 << 20]);
        let [r0, r1, r2] = [4, 64 * 1024, 1 << 30].map(|m| t.resolve(Coll::Bcast, m).unwrap());
        assert_eq!((r0.m, r0.lo), (1024, 0));
        assert_eq!((r2.m, r2.hi), (16 << 20, u64::MAX));
        // Adjacent buckets share a boundary with no gap and no overlap.
        assert_eq!((r0.hi + 1, r1.hi + 1), (r1.lo, r2.lo));
        assert_eq!(t.buckets(Coll::Bcast), vec![r0, r1, r2]);
    }

    #[test]
    fn boundary_is_the_geometric_midpoint() {
        let t = table(&[1024, 1 << 20]);
        let r = t.resolve(Coll::Bcast, 2048).unwrap();
        // Geometric midpoint of 1K and 1M is 32K; ties go to the smaller
        // sample, so 32K itself still resolves small.
        assert_eq!((r.m, r.hi), (1024, 32 * 1024));
        assert_eq!(t.resolve(Coll::Bcast, r.hi + 1).unwrap().m, 1 << 20);
        assert!(agrees(&t, r.hi) && agrees(&t, r.hi + 1));
    }

    #[test]
    fn every_query_in_bucket_agrees_with_the_reference() {
        let t = table(&[4, 4096, 65536, 1 << 24]);
        for q in [0u64, 1, 3, 4, 5, 511, 513, 4096, 60000, 70000, 1 << 30] {
            let r = t.resolve(Coll::Bcast, q).unwrap();
            assert!(r.contains(q), "bucket must contain its own query ({q})");
            let mid = r.lo + (r.hi - r.lo) / 2;
            for x in [r.lo, r.lo + 1, mid, r.hi.saturating_sub(1), r.hi] {
                assert_eq!(t.resolve(Coll::Bcast, x), Some(r), "{x} vs {q}");
                assert!(agrees(&t, x), "query {x} must resolve like {q}");
            }
        }
    }

    #[test]
    fn single_sample_covers_everything() {
        let t = table(&[8192]);
        let r = t.resolve(Coll::Bcast, 1).unwrap();
        assert_eq!((r.lo, r.hi), (0, u64::MAX));
        assert!(t.resolve(Coll::Allreduce, 1).is_none());
    }

    #[test]
    fn zero_and_one_byte_queries() {
        // 0 and 1 sit at the same log position (`max(m, 1)`); both land
        // in the smallest bucket.
        let t = table(&[0, 16]);
        let r = t.resolve(Coll::Bcast, 1).unwrap();
        assert_eq!((r.m, r.lo, r.hi), (0, 0, 4));
        assert_eq!(t.resolve(Coll::Bcast, r.hi + 1).unwrap().m, 16);
    }

    #[test]
    fn samples_one_apart_at_the_top_of_the_axis_get_their_own_buckets() {
        let sizes = [1 << 60, (1 << 60) + 1, u64::MAX - 1, u64::MAX];
        let t = table(&sizes);
        for s in sizes {
            assert_eq!(t.resolve(Coll::Bcast, s).unwrap().m, s);
        }
    }

    /// `t`'s buckets for `coll` against the brute-force reference: they
    /// tile [0, u64::MAX] with no gap and no overlap, every sample
    /// resolves to its first entry (1 next to 0 is 0), and the extremes,
    /// both sides of every edge, the samples and `queries` match brute
    /// force inside a bucket that holds them. A collective the table
    /// lacks resolves to `None`.
    fn check_against_reference(t: &LookupTable, coll: Coll, queries: &[u64]) {
        let buckets = t.buckets(coll);
        let samples = t.sampled_sizes(coll);
        if let (Some(first), Some(last)) = (buckets.first(), buckets.last()) {
            assert_eq!((first.lo, last.hi), (0, u64::MAX));
        }
        for w in buckets.windows(2) {
            assert!(w[0].lo <= w[0].hi && w[0].hi + 1 == w[1].lo);
        }
        for &s in &samples {
            let own = if s == 1 && samples.contains(&0) { 0 } else { s };
            let r = t.resolve(coll, s).unwrap();
            assert_eq!((r.m, r.cfg), (own, t.get(coll, own).unwrap().cfg));
        }
        let mut probes = vec![0, 1, u64::MAX];
        for r in &buckets {
            probes.extend([r.lo.wrapping_sub(1), r.lo, r.hi, r.hi.wrapping_add(1)]);
        }
        for x in probes
            .into_iter()
            .chain(samples)
            .chain(queries.iter().copied())
        {
            if let Some(r) = t.resolve(coll, x) {
                assert!(r.contains(x), "{:?} {}", coll, x);
            }
            assert!(agrees_on(t, coll, x), "{:?} {}", coll, x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sample sets with 0, 1, repeats and values within 2 of
        /// `u64::MAX`, and the uneven table, against the brute-force
        /// reference.
        #[test]
        fn buckets_match_the_brute_force_reference(
            mut sizes in proptest::collection::vec(prop_oneof![
                Just(0u64),
                Just(1),
                (u64::MAX - 2)..=u64::MAX,
                2u64..40,
                (any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s),
            ], 1..10),
            repeats in 0usize..4,
            queries in proptest::collection::vec(
                (any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s),
                16,
            ),
        ) {
            // Repeat some samples under new configs: the first entry wins.
            sizes.extend(sizes[..repeats.min(sizes.len())].to_vec());
            check_against_reference(&table(&sizes), Coll::Bcast, &queries);
            // The uneven table, every collective, at the same queries.
            let t = uneven_table();
            for coll in Coll::ALL {
                check_against_reference(&t, coll, &queries);
            }
        }
    }
}
