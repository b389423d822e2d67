//! Property tests: the set-associative LRU cache must agree with a naive
//! reference model (per-set `Vec` ordered by recency), the event-driven
//! hierarchy with the reference walk, and the hierarchy's distinct-page
//! counts with a naive per-plane page set.

use std::collections::HashSet;

use hardbound_cache::{
    AccessClass, Cache, HierFastStats, HierPath, Hierarchy, HierarchyConfig, PageCounts,
};
use proptest::prelude::*;

/// Naive reference: each set is a recency-ordered vector of block tags.
struct RefCache {
    block_bits: u32,
    num_sets: u64,
    ways: usize,
    sets: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(num_sets: u64, ways: usize, block_bytes: u64) -> RefCache {
        RefCache {
            block_bits: block_bytes.trailing_zeros(),
            num_sets,
            ways,
            sets: vec![Vec::new(); num_sets as usize],
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.block_bits;
        let set = &mut self.sets[(block % self.num_sets) as usize];
        if let Some(pos) = set.iter().position(|&b| b == block) {
            set.remove(pos);
            set.insert(0, block);
            true
        } else {
            set.insert(0, block);
            set.truncate(self.ways);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_reference_lru(
        sets_log in 0u32..4,
        ways in 1usize..5,
        addrs in prop::collection::vec(0u64..0x4000, 1..400),
    ) {
        let num_sets = 1u64 << sets_log;
        let mut real = Cache::with_sets(num_sets, ways, 32);
        let mut reference = RefCache::new(num_sets, ways, 32);
        for (i, &a) in addrs.iter().enumerate() {
            let got = real.access(a);
            let want = reference.access(a);
            prop_assert_eq!(got, want, "divergence at access {} addr {:#x}", i, a);
        }
        prop_assert_eq!(
            real.stats().accesses(),
            addrs.len() as u64
        );
    }

    #[test]
    fn probe_agrees_with_access_history(
        addrs in prop::collection::vec(0u64..0x800, 1..200),
    ) {
        let mut c = Cache::with_sets(4, 2, 32);
        let mut reference = RefCache::new(4, 2, 32);
        for &a in &addrs {
            // probe must predict exactly what a subsequent access reports.
            let predicted = c.probe(a);
            let hit = c.access(a);
            prop_assert_eq!(predicted, hit);
            reference.access(a);
        }
    }

    /// Twin hierarchies on the two exact paths, driven by the same
    /// pseudo-random mixed Data/Tag/Shadow stream: the event-driven path
    /// (residency filters + branchless scans) must be observation-identical
    /// to the reference walk — per-access returned stalls, `HierarchyStats`,
    /// and every per-structure `CacheStats`.
    #[test]
    fn event_hierarchy_matches_walk_hierarchy(
        big_tag_cache in any::<bool>(),
        stream in prop::collection::vec((0u64..3, 0u64..0x10_0000), 1..1500),
    ) {
        let kb = if big_tag_cache { 8 } else { 2 };
        let cfg = HierarchyConfig::default().with_tag_cache_bytes(kb * 1024);
        let mut event = Hierarchy::with_path(cfg, HierPath::Event);
        let mut walk = Hierarchy::with_path(cfg, HierPath::Walk);
        for (i, &(kind, addr)) in stream.iter().enumerate() {
            let (class, addr) = match kind {
                0 => (AccessClass::Data, addr),
                1 => (AccessClass::Tag, 0x3_0000_0000 + (addr >> 5)),
                _ => (AccessClass::Shadow, 0x1_0000_0000 + addr),
            };
            let a = event.access(class, addr);
            let b = walk.access(class, addr);
            prop_assert_eq!(a, b, "stall divergence at access {} addr {:#x}", i, addr);
        }
        prop_assert_eq!(event.stats(), walk.stats());
        prop_assert_eq!(event.l1_stats(), walk.l1_stats());
        prop_assert_eq!(event.tag_cache_stats(), walk.tag_cache_stats());
        prop_assert_eq!(event.l2_stats(), walk.l2_stats());
        prop_assert_eq!(event.dtlb_stats(), walk.dtlb_stats());
        prop_assert_eq!(walk.fast_stats(), HierFastStats::default());
    }

    /// `Hierarchy::pages` counts pages at TLB fills; it must equal a naive
    /// set of every access's `addr / 4096`, per class, on any geometry
    /// (down to a 4-entry or direct-mapped TLB, where fills are frequent
    /// and a page is refilled many times) and on both exact paths.
    #[test]
    fn page_counts_match_naive_page_sets(
        tlb_entries_log in 2u32..9,
        tlb_ways_log in 0u32..3,
        l1_kb_log in 0u32..6,
        tag_kb_log in 0u32..4,
        walk in any::<bool>(),
        stream in prop::collection::vec((0u64..3, 0u64..0x40_0000), 1..1500),
    ) {
        let cfg = HierarchyConfig {
            l1_bytes: 1024 << l1_kb_log,
            l2_bytes: 64 * 1024,
            tlb_entries: 1 << tlb_entries_log,
            tlb_ways: 1 << tlb_ways_log,
            tag_cache_bytes: 1024 << tag_kb_log,
            ..HierarchyConfig::default()
        };
        prop_assert!(cfg.validate().is_ok(), "{:?}", cfg.validate());
        let path = if walk { HierPath::Walk } else { HierPath::Event };
        let mut h = Hierarchy::with_path(cfg, path);
        let mut naive: [HashSet<u64>; 3] = Default::default();
        for &(kind, addr) in &stream {
            let (class, addr) = match kind {
                0 => (AccessClass::Data, addr),
                1 => (AccessClass::Tag, 0x3_0000_0000 + (addr >> 3)),
                _ => (AccessClass::Shadow, 0x1_0000_0000 + addr * 2),
            };
            h.access(class, addr);
            naive[kind as usize].insert(addr / 4096);
        }
        let want = PageCounts {
            data: naive[0].len(),
            tag: naive[1].len(),
            shadow: naive[2].len(),
        };
        prop_assert_eq!(h.pages(), want);
    }
}
