//! The associative memory: a translation cache for the descriptor walk.
//!
//! The real Honeywell 6180 hid the cost of the two-level descriptor walk
//! behind small SDW/PTW *associative memories*; without them every
//! reference would pay two extra core cycles for the descriptor fetches.
//! This module models that hardware as a set-associative cache keyed by
//! process identity (the descriptor-segment base in force), segment
//! number, and page number, holding the resolved core frame plus the
//! access bits needed to re-check a hit.
//!
//! Only *successful* translations are cached, so a resident entry by
//! construction describes a present, unlocked, non-quota-trapped page;
//! any supervisor mutation that could change that — eviction, descriptor
//! cut, lock- or quota-trap-bit set, page-table-slot reuse — must flush
//! the affected entries (Multics' "setfaults" discipline). The
//! invalidation entry points here are addressed by the *descriptor's*
//! core address, which is what supervisor software knows when it rewrites
//! a table word.
//!
//! Those flushes are far more frequent than the entries they find: the
//! 1974 supervisor rewrites a PTW on every word it reads. So each
//! processor's cache keeps a reverse index of the descriptor words its
//! resident entries were made from — a counting filter over PTW and SDW
//! addresses — and a flush whose word has no count returns without
//! looking at a way. A count that is shared by another address (a filter
//! collision) falls back to the full scan, so the entries dropped, the
//! tallies and every later hit or miss are exactly the scan's.
//!
//! A hit costs zero descriptor fetches. To keep caching invisible to
//! software (byte-identical core images with the feature on or off), a
//! write hit whose entry has not yet observed the modified bit performs
//! the same read-modify-write of the PTW that the walk would have done,
//! charged as a [`crate::clock::CostModel::ptw_update`].

use crate::cpu::AccessMode;
use crate::mem::{AbsAddr, FrameNo};
use crate::meter::CounterSet;

/// Number of sets in the associative memory.
pub const TLB_SETS: usize = 64;
/// Associativity (entries per set).
pub const TLB_WAYS: usize = 4;
/// Buckets in each reverse-index counting filter (a power of two).
const INDEX_BUCKETS: usize = 1024;

/// One resident translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Address-space identity: the descriptor-segment base the
    /// translation was made under.
    pub asid: AbsAddr,
    /// Segment number within that address space.
    pub segno: u32,
    /// Page number within the segment.
    pub pageno: u32,
    /// Core address of the SDW the walk read.
    pub sdw_addr: AbsAddr,
    /// Core address of the PTW the walk read.
    pub ptw_addr: AbsAddr,
    /// Resolved core frame.
    pub frame: FrameNo,
    /// SDW read permission at fill time.
    pub read: bool,
    /// SDW write permission at fill time.
    pub write: bool,
    /// SDW execute permission at fill time.
    pub execute: bool,
    /// Whether the cached PTW has the modified bit set; a write hit with
    /// this clear must still set the bit in core.
    pub modified: bool,
    /// LRU stamp (monotone fill/touch tick); [`Tlb::fill`] overwrites it.
    pub(crate) lru: u64,
}

impl TlbEntry {
    /// True if the cached access bits permit `mode`.
    pub fn permits(&self, mode: AccessMode) -> bool {
        match mode {
            AccessMode::Read => self.read,
            AccessMode::Write => self.write,
            AccessMode::Execute => self.execute,
        }
    }
}

/// Hit/miss/flush tallies, for the meter and the ablation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups attempted (hits + misses).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the descriptor walk.
    pub misses: u64,
    /// Entries installed after a successful walk.
    pub fills: u64,
    /// Entries removed by selective invalidation or a full clear.
    pub invalidations: u64,
}

impl TlbStats {
    /// Component-wise sum (for aggregating across processors).
    pub fn merge(&self, other: &TlbStats) -> TlbStats {
        TlbStats {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            fills: self.fills + other.fills,
            invalidations: self.invalidations + other.invalidations,
        }
    }

    /// The tallies as a named counter set (threaded into trace reports).
    pub fn counters(&self) -> CounterSet {
        let mut c = CounterSet::new();
        c.set("tlb_lookups", self.lookups);
        c.set("tlb_hits", self.hits);
        c.set("tlb_misses", self.misses);
        c.set("tlb_fills", self.fills);
        c.set("tlb_invalidations", self.invalidations);
        c
    }
}

/// A per-processor set-associative translation cache.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
    tick: u64,
    stats: TlbStats,
    /// Resident entries.
    live: usize,
    /// Resident entries per [`Tlb::bucket`] of their PTW address.
    ptw_index: Vec<u16>,
    /// Resident entries per [`Tlb::bucket`] of their SDW address.
    sdw_index: Vec<u16>,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tlb {
    /// An empty associative memory.
    pub fn new() -> Self {
        Self {
            sets: vec![[None; TLB_WAYS]; TLB_SETS],
            tick: 0,
            stats: TlbStats::default(),
            live: 0,
            ptw_index: vec![0; INDEX_BUCKETS],
            sdw_index: vec![0; INDEX_BUCKETS],
        }
    }

    /// Reverse-index bucket of a descriptor address (Fibonacci hashing,
    /// which spreads the consecutive words of one table across buckets).
    fn bucket(addr: AbsAddr) -> usize {
        (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - INDEX_BUCKETS.trailing_zeros()))
            as usize
    }

    /// True if some resident entry may have been made from a descriptor
    /// word in `[base, base + len)` of `index`; false only when none was.
    fn may_cache(&self, index: &[u16], base: AbsAddr, len: u64) -> bool {
        self.live > 0
            && (len > INDEX_BUCKETS as u64
                || (base.0..base.0.saturating_add(len))
                    .any(|a| index[Self::bucket(AbsAddr(a))] > 0))
    }

    fn index(&mut self, e: &TlbEntry) {
        self.live += 1;
        self.ptw_index[Self::bucket(e.ptw_addr)] += 1;
        self.sdw_index[Self::bucket(e.sdw_addr)] += 1;
    }

    fn unindex(&mut self, e: &TlbEntry) {
        self.live -= 1;
        self.ptw_index[Self::bucket(e.ptw_addr)] -= 1;
        self.sdw_index[Self::bucket(e.sdw_addr)] -= 1;
    }

    /// Deterministic set index for a translation key.
    fn set_index(asid: AbsAddr, segno: u32, pageno: u32) -> usize {
        // A small multiplicative mix; only determinism and spread matter.
        let h = asid
            .0
            .wrapping_mul(0o777_777)
            .wrapping_add(u64::from(segno).wrapping_mul(131))
            .wrapping_add(u64::from(pageno).wrapping_mul(31));
        (h % TLB_SETS as u64) as usize
    }

    /// Looks up a translation, updating the LRU stamp and the hit/miss
    /// tallies. Returns a mutable reference so a write hit can record
    /// the modified bit.
    pub fn lookup(&mut self, asid: AbsAddr, segno: u32, pageno: u32) -> Option<&mut TlbEntry> {
        self.stats.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let set = &mut self.sets[Self::set_index(asid, segno, pageno)];
        let hit = set
            .iter_mut()
            .flatten()
            .find(|e| e.asid == asid && e.segno == segno && e.pageno == pageno);
        match hit {
            Some(entry) => {
                self.stats.hits += 1;
                entry.lru = tick;
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs a translation after a successful walk, replacing the
    /// least recently used way of its set (or an existing entry for the
    /// same key).
    pub fn fill(&mut self, mut entry: TlbEntry) {
        self.tick += 1;
        entry.lru = self.tick;
        self.stats.fills += 1;
        let set = &mut self.sets[Self::set_index(entry.asid, entry.segno, entry.pageno)];
        // Replace an existing mapping for the key, then an empty way,
        // then the LRU way.
        let way = set
            .iter()
            .position(|s| {
                s.is_some_and(|e| {
                    e.asid == entry.asid && e.segno == entry.segno && e.pageno == entry.pageno
                })
            })
            .or_else(|| set.iter().position(Option::is_none))
            .unwrap_or_else(|| {
                (0..TLB_WAYS)
                    .min_by_key(|&w| set[w].map_or(0, |e| e.lru))
                    .expect("TLB_WAYS > 0")
            });
        if let Some(old) = set[way].replace(entry) {
            self.unindex(&old);
        }
        self.index(&entry);
    }

    /// Drops every entry cached from the PTW at `addr`.
    pub fn invalidate_ptw(&mut self, addr: AbsAddr) {
        if self.ptw_index[Self::bucket(addr)] > 0 {
            self.retain(|e| e.ptw_addr != addr);
        }
    }

    /// Drops every entry cached from the SDW at `addr`.
    pub fn invalidate_sdw(&mut self, addr: AbsAddr) {
        if self.sdw_index[Self::bucket(addr)] > 0 {
            self.retain(|e| e.sdw_addr != addr);
        }
    }

    /// Drops every entry whose PTW lies in `[base, base + len)` — the
    /// page-table-slot-reuse flush.
    pub fn invalidate_ptw_range(&mut self, base: AbsAddr, len: u64) {
        if self.may_cache(&self.ptw_index, base, len) {
            self.retain(|e| e.ptw_addr.0 < base.0 || e.ptw_addr.0 >= base.0 + len);
        }
    }

    /// Drops every entry whose SDW lies in `[base, base + len)` — the
    /// flush a rebuilt or reused descriptor segment requires.
    pub fn invalidate_sdw_range(&mut self, base: AbsAddr, len: u64) {
        if self.may_cache(&self.sdw_index, base, len) {
            self.retain(|e| e.sdw_addr.0 < base.0 || e.sdw_addr.0 >= base.0 + len);
        }
    }

    /// Drops everything (the 6180's "clear associative memory").
    pub fn clear(&mut self) {
        if self.live > 0 {
            self.retain(|_| false);
        }
    }

    /// The linear scan behind every flush: drops each way `keep` rejects
    /// and takes it out of the reverse index.
    fn retain(&mut self, keep: impl Fn(&TlbEntry) -> bool) {
        for s in 0..TLB_SETS {
            for w in 0..TLB_WAYS {
                if let Some(e) = self.sets[s][w].take_if(|e| !keep(e)) {
                    self.unindex(&e);
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    /// The tallies so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn resident(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asid: u64, segno: u32, pageno: u32) -> TlbEntry {
        TlbEntry {
            asid: AbsAddr(asid),
            segno,
            pageno,
            sdw_addr: AbsAddr(asid + u64::from(segno)),
            ptw_addr: AbsAddr(1000 + u64::from(segno) * 256 + u64::from(pageno)),
            frame: FrameNo(7),
            read: true,
            write: true,
            execute: false,
            modified: false,
            lru: 0,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(AbsAddr(5), 1, 2).is_none());
        tlb.fill(entry(5, 1, 2));
        let hit = tlb.lookup(AbsAddr(5), 1, 2).expect("hit");
        assert_eq!(hit.frame, FrameNo(7));
        let s = tlb.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.fills), (2, 1, 1, 1));
    }

    #[test]
    fn distinct_asids_do_not_collide() {
        let mut tlb = Tlb::new();
        tlb.fill(entry(5, 1, 2));
        assert!(tlb.lookup(AbsAddr(6), 1, 2).is_none());
        assert!(tlb.lookup(AbsAddr(5), 1, 2).is_some());
    }

    #[test]
    fn invalidate_by_ptw_sdw_and_range() {
        let mut tlb = Tlb::new();
        tlb.fill(entry(5, 1, 2));
        tlb.fill(entry(5, 1, 3));
        tlb.fill(entry(5, 2, 0));
        tlb.invalidate_ptw(entry(5, 1, 2).ptw_addr);
        assert!(tlb.lookup(AbsAddr(5), 1, 2).is_none());
        assert!(tlb.lookup(AbsAddr(5), 1, 3).is_some());
        tlb.invalidate_sdw(entry(5, 2, 0).sdw_addr);
        assert!(tlb.lookup(AbsAddr(5), 2, 0).is_none());
        // Range flush covering segment 1's whole page table.
        tlb.invalidate_ptw_range(AbsAddr(1000 + 256), 256);
        assert!(tlb.lookup(AbsAddr(5), 1, 3).is_none());
        assert_eq!(tlb.resident(), 0);
        assert_eq!(tlb.stats().invalidations, 3);
    }

    #[test]
    fn clear_empties_everything() {
        let mut tlb = Tlb::new();
        for p in 0..100 {
            tlb.fill(entry(5, 1, p));
        }
        assert!(tlb.resident() > 0);
        tlb.clear();
        assert_eq!(tlb.resident(), 0);
    }

    #[test]
    fn lru_way_is_replaced_within_a_full_set() {
        let mut tlb = Tlb::new();
        // Same (asid, segno) with panos spaced exactly TLB_SETS apart
        // land in the same set.
        let step = TLB_SETS as u32;
        let pages: Vec<u32> = (0..=TLB_WAYS as u32).map(|i| i * step).collect();
        for &p in pages.iter().take(TLB_WAYS) {
            tlb.fill(entry(5, 1, p));
        }
        // Touch page 0 so it is the most recently used.
        assert!(tlb.lookup(AbsAddr(5), 1, 0).is_some());
        // One more fill in the same set evicts the LRU way (step).
        tlb.fill(entry(5, 1, pages[TLB_WAYS]));
        assert!(tlb.lookup(AbsAddr(5), 1, 0).is_some(), "MRU survived");
        assert!(tlb.lookup(AbsAddr(5), 1, step).is_none(), "LRU evicted");
    }

    #[test]
    fn counters_round_trip_through_counter_set() {
        let mut tlb = Tlb::new();
        tlb.fill(entry(5, 1, 2));
        tlb.lookup(AbsAddr(5), 1, 2);
        let c = tlb.stats().counters();
        assert_eq!(c.get("tlb_hits"), Some(1));
        assert_eq!(c.get("tlb_fills"), Some(1));
        assert_eq!(
            c.get("tlb_lookups").unwrap(),
            c.get("tlb_hits").unwrap() + c.get("tlb_misses").unwrap()
        );
    }

    /// The associative memory as it was before the reverse index: every
    /// flush walks every way. Same key mapping and replacement policy.
    #[derive(Default)]
    struct LinearScan {
        sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
        tick: u64,
        stats: TlbStats,
    }

    impl LinearScan {
        fn new() -> Self {
            Self {
                sets: vec![[None; TLB_WAYS]; TLB_SETS],
                ..Self::default()
            }
        }

        fn lookup(&mut self, asid: AbsAddr, segno: u32, pageno: u32) -> Option<&mut TlbEntry> {
            self.stats.lookups += 1;
            self.tick += 1;
            let tick = self.tick;
            let hit = self.sets[Tlb::set_index(asid, segno, pageno)]
                .iter_mut()
                .flatten()
                .find(|e| e.asid == asid && e.segno == segno && e.pageno == pageno);
            match hit {
                Some(e) => {
                    self.stats.hits += 1;
                    e.lru = tick;
                    Some(e)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn fill(&mut self, mut entry: TlbEntry) {
            self.tick += 1;
            entry.lru = self.tick;
            self.stats.fills += 1;
            let set = &mut self.sets[Tlb::set_index(entry.asid, entry.segno, entry.pageno)];
            if let Some(slot) = set.iter_mut().find(|s| {
                s.is_some_and(|e| {
                    e.asid == entry.asid && e.segno == entry.segno && e.pageno == entry.pageno
                })
            }) {
                *slot = Some(entry);
            } else if let Some(slot) = set.iter_mut().find(|s| s.is_none()) {
                *slot = Some(entry);
            } else {
                *set.iter_mut()
                    .min_by_key(|s| s.map_or(0, |e| e.lru))
                    .unwrap() = Some(entry);
            }
        }

        fn retain(&mut self, keep: impl Fn(&TlbEntry) -> bool) {
            for slot in self.sets.iter_mut().flatten() {
                if slot.as_ref().is_some_and(|e| !keep(e)) {
                    *slot = None;
                    self.stats.invalidations += 1;
                }
            }
        }

        fn resident(&self) -> usize {
            self.sets.iter().flatten().flatten().count()
        }

        fn resident_from(&self, from: impl Fn(&TlbEntry) -> bool) -> bool {
            self.sets.iter().flatten().flatten().any(from)
        }
    }

    /// `addr`, or one time in four the next address that shares its
    /// reverse-index bucket.
    fn or_collider(rng: &mut crate::rng::SplitMix64, addr: u64) -> u64 {
        if !rng.chance(1, 4) {
            return addr;
        }
        (addr + 1..)
            .find(|&a| Tlb::bucket(AbsAddr(a)) == Tlb::bucket(AbsAddr(addr)))
            .unwrap()
    }

    #[test]
    fn the_indexed_flush_matches_a_linear_scan_step_for_step() {
        use crate::rng::SplitMix64;
        // Descriptor words: four page tables and four descriptor
        // segments, plus for each a word elsewhere that shares its
        // index bucket, so filter collisions are routine.
        let pt_bases: Vec<u64> = (0..4).map(|i| 0o40_000 + i * 256).collect();
        let dsegs: Vec<u64> = (0..4).map(|i| 0o100_000 + i * 1024).collect();
        let (mut skipped, mut collided) = (0u64, 0u64);
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0x71B ^ seed);
            let mut tlb = Tlb::new();
            let mut reference = LinearScan::new();
            let ptw_word = |rng: &mut SplitMix64| {
                let a = pt_bases[rng.range_usize(0, 4)] + rng.below(300);
                or_collider(rng, a)
            };
            let sdw_word = |rng: &mut SplitMix64, asid: u64, segno: u32| {
                or_collider(rng, asid + 2 * u64::from(segno))
            };
            for step in 0..4_000 {
                let asid = dsegs[rng.range_usize(0, 4)];
                let (segno, pageno) = (rng.range_u32(0, 8), rng.range_u32(0, 300));
                match rng.below(100) {
                    0..=39 => {
                        let e = TlbEntry {
                            asid: AbsAddr(asid),
                            segno,
                            pageno,
                            sdw_addr: AbsAddr(sdw_word(&mut rng, asid, segno)),
                            ptw_addr: AbsAddr(ptw_word(&mut rng)),
                            frame: FrameNo(rng.range_u32(0, 64)),
                            read: rng.chance(1, 2),
                            write: rng.chance(1, 2),
                            execute: rng.chance(1, 2),
                            modified: rng.chance(1, 2),
                            lru: 0,
                        };
                        tlb.fill(e);
                        reference.fill(e);
                    }
                    40..=69 => {
                        let asid = AbsAddr(asid);
                        let set_modified = rng.chance(1, 2);
                        let got = tlb.lookup(asid, segno, pageno).map(|e| {
                            e.modified |= set_modified;
                            *e
                        });
                        let want = reference.lookup(asid, segno, pageno).map(|e| {
                            e.modified |= set_modified;
                            *e
                        });
                        assert_eq!(got, want, "seed {seed} step {step}: lookup");
                    }
                    70..=79 => {
                        let addr = AbsAddr(ptw_word(&mut rng));
                        match tlb.ptw_index[Tlb::bucket(addr)] {
                            0 => skipped += 1,
                            _ if !reference.resident_from(|e| e.ptw_addr == addr) => collided += 1,
                            _ => {}
                        }
                        tlb.invalidate_ptw(addr);
                        reference.retain(|e| e.ptw_addr != addr);
                    }
                    80..=87 => {
                        let addr = AbsAddr(sdw_word(&mut rng, asid, segno));
                        tlb.invalidate_sdw(addr);
                        reference.retain(|e| e.sdw_addr != addr);
                    }
                    88..=93 => {
                        // A window that may straddle a table's edge, or
                        // (rarely) wider than the index.
                        let base = ptw_word(&mut rng).saturating_sub(rng.below(200));
                        let len = if rng.chance(1, 8) {
                            2 * INDEX_BUCKETS as u64
                        } else {
                            rng.range_u64(1, 400)
                        };
                        tlb.invalidate_ptw_range(AbsAddr(base), len);
                        reference.retain(|e| e.ptw_addr.0 < base || e.ptw_addr.0 >= base + len);
                    }
                    94..=98 => {
                        let base = asid + rng.below(16);
                        let len = rng.range_u64(1, 1200);
                        tlb.invalidate_sdw_range(AbsAddr(base), len);
                        reference.retain(|e| e.sdw_addr.0 < base || e.sdw_addr.0 >= base + len);
                    }
                    _ => {
                        tlb.clear();
                        reference.retain(|_| false);
                    }
                }
                assert_eq!(tlb.sets, reference.sets, "seed {seed} step {step}: ways");
                assert_eq!(
                    tlb.resident(),
                    reference.resident(),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    tlb.stats(),
                    reference.stats,
                    "seed {seed} step {step}: stats"
                );
                let mut ptw_index = vec![0; INDEX_BUCKETS];
                let mut sdw_index = vec![0; INDEX_BUCKETS];
                for e in reference.sets.iter().flatten().flatten() {
                    ptw_index[Tlb::bucket(e.ptw_addr)] += 1;
                    sdw_index[Tlb::bucket(e.sdw_addr)] += 1;
                }
                assert!(
                    tlb.ptw_index == ptw_index && tlb.sdw_index == sdw_index,
                    "seed {seed} step {step}: the index counts exactly the resident ways"
                );
            }
        }
        assert!(skipped > 0, "some flushes were answered by the index alone");
        assert!(
            collided > 0,
            "some flushes fell back to the scan on a collision"
        );
    }
}
