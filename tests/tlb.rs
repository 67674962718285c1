//! The associative memory must be semantically invisible.
//!
//! The descriptor-walk translation cache (`mx_hw::tlb`) only changes
//! *cycle counts*, never core contents or fault behaviour. These tests
//! pin that claim two ways: parity runs (the same workload with the
//! cache on and off must end with byte-identical core and identical
//! fault tallies) and adversarial runs (bypassing a wired flush point
//! must produce observable staleness — proving each "setfaults" call in
//! the supervisors is load-bearing, not decorative).

use multics::aim::Label;
use multics::bench_harness::RefString;
use multics::hw::cpu::Ptw;
use multics::hw::{AbsAddr, Machine, Word, PAGE_WORDS};
use multics::kernel::{Kernel, KernelConfig, KernelError};
use multics::legacy::{Supervisor, SupervisorConfig};

fn tlb_off(machine: &mut Machine) {
    for cpu in &mut machine.cpus {
        cpu.features.associative_memory = false;
    }
    machine.tlb_clear();
}

fn core_image(machine: &Machine) -> Vec<Word> {
    (0..machine.mem.size_words() as u64)
        .map(|w| machine.mem.read(AbsAddr(w)))
        .collect()
}

fn cramped_legacy() -> (Supervisor, multics::legacy::ProcessId) {
    // 8 pageable frames: the reference string below must evict.
    let mut sup = Supervisor::boot(SupervisorConfig {
        frames: 8 + 9,
        ast_slots: 16,
        max_processes: 4,
        records_per_pack: 2048,
        toc_slots_per_pack: 64,
        root_quota_pages: 1200,
        ..SupervisorConfig::default()
    });
    let pid = sup
        .create_process(multics::legacy::UserId(1), Label::BOTTOM)
        .unwrap();
    (sup, pid)
}

fn cramped_kernel() -> (Kernel, multics::kernel::ProcessId) {
    let mut k = Kernel::boot(KernelConfig {
        frames: 8 + 13,
        pt_slots: 16,
        max_processes: 4,
        records_per_pack: 2048,
        toc_slots_per_pack: 64,
        root_quota: 1200,
        ..KernelConfig::default()
    });
    k.register_account("u", multics::kernel::UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    (k, pid)
}

fn legacy_data_segment(sup: &mut Supervisor, pid: multics::legacy::ProcessId) -> u32 {
    sup.create_segment_in(
        sup.root(),
        "data",
        multics::legacy::Acl::owner(multics::legacy::UserId(1)),
        Label::BOTTOM,
    )
    .unwrap();
    sup.initiate(pid, "data").unwrap()
}

fn kernel_data_segment(k: &mut Kernel, pid: multics::kernel::ProcessId, name: &str) -> u32 {
    let root = k.root_token();
    let tok = k
        .create_entry(
            pid,
            root,
            name,
            multics::kernel::Acl::owner(multics::kernel::UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    k.initiate(pid, tok).unwrap()
}

// ------------------------------------------------------------- parity --

/// Runs an eviction-pressure reference string on the old supervisor and
/// returns (core image, page faults, segment faults, read values).
fn legacy_run(tlb_on: bool) -> (Vec<Word>, u64, u64, Vec<Word>) {
    let (mut sup, pid) = cramped_legacy();
    let segno = legacy_data_segment(&mut sup, pid);
    if !tlb_on {
        tlb_off(&mut sup.machine);
    }
    let string = RefString::generate(7, 20, 400, 6);
    let mut reads = Vec::new();
    for (page, write) in &string.refs {
        let wordno = page * PAGE_WORDS as u32 + (page % 50);
        if *write {
            sup.user_write(pid, segno, wordno, Word::new(u64::from(*page) + 1))
                .unwrap();
        } else {
            reads.push(sup.user_read(pid, segno, wordno).unwrap());
        }
    }
    (
        core_image(&sup.machine),
        sup.stats.page_faults,
        sup.stats.segment_faults,
        reads,
    )
}

/// The kernel counterpart of [`legacy_run`].
fn kernel_run(tlb_on: bool) -> (Vec<Word>, u64, u64, Vec<Word>) {
    let (mut k, pid) = cramped_kernel();
    let segno = kernel_data_segment(&mut k, pid, "data");
    if !tlb_on {
        tlb_off(&mut k.machine);
    }
    let string = RefString::generate(7, 20, 400, 6);
    let mut reads = Vec::new();
    for (page, write) in &string.refs {
        let wordno = page * PAGE_WORDS as u32 + (page % 50);
        if *write {
            k.write_word(pid, segno, wordno, Word::new(u64::from(*page) + 1))
                .unwrap();
        } else {
            reads.push(k.read_word(pid, segno, wordno).unwrap());
        }
    }
    (
        core_image(&k.machine),
        k.stats.page_faults,
        k.stats.segment_faults,
        reads,
    )
}

#[test]
fn legacy_core_and_faults_are_identical_with_the_cache_on_and_off() {
    let (core_on, pf_on, sf_on, reads_on) = legacy_run(true);
    let (core_off, pf_off, sf_off, reads_off) = legacy_run(false);
    assert_eq!(reads_on, reads_off, "every read returns the same word");
    assert_eq!(
        (pf_on, sf_on),
        (pf_off, sf_off),
        "identical fault tallies with the cache on and off"
    );
    assert_eq!(core_on, core_off, "byte-identical core images");
}

#[test]
fn kernel_core_and_faults_are_identical_with_the_cache_on_and_off() {
    let (core_on, pf_on, sf_on, reads_on) = kernel_run(true);
    let (core_off, pf_off, sf_off, reads_off) = kernel_run(false);
    assert_eq!(reads_on, reads_off, "every read returns the same word");
    assert_eq!(
        (pf_on, sf_on),
        (pf_off, sf_off),
        "identical fault tallies with the cache on and off"
    );
    assert_eq!(core_on, core_off, "byte-identical core images");
}

// -------------------------------------------------------- adversarial --

#[test]
fn a_skipped_flush_surfaces_as_a_stale_translation() {
    // Rewrite a PTW *bypassing* the supervisor's set_ptw choke point:
    // the cache must go stale — which is exactly why every descriptor
    // mutation in both supervisors routes through a flushing helper.
    let (mut sup, pid) = cramped_legacy();
    let segno = legacy_data_segment(&mut sup, pid);
    sup.user_write(pid, segno, 0, Word::new(0o7777)).unwrap();
    assert_eq!(sup.user_read(pid, segno, 0).unwrap(), Word::new(0o7777));

    let uid = sup
        .resolve(pid, "data", multics::legacy::AccessRight::Read)
        .unwrap()
        .0;
    let astx = sup.ast.find(uid).unwrap();
    let pt_slot = sup.ast.get(astx).unwrap().pt_slot;
    let ptw_addr = sup.ast.pt_addr(pt_slot);
    // Point page 0 at the scratch frame (frame 0), planting a sentinel
    // there, with a raw write that no flush sees.
    sup.machine.mem.write(AbsAddr(0), Word::new(0o1234));
    let mut ptw = Ptw::decode(sup.machine.mem.read(ptw_addr));
    ptw.frame = multics::hw::FrameNo(0);
    sup.machine.mem.write(ptw_addr, ptw.encode());

    let stale = sup.user_read(pid, segno, 0).unwrap();
    assert_eq!(
        stale,
        Word::new(0o7777),
        "bypassing the choke point leaves the cache stale (the walk would see 0o1234)"
    );
    // Selective invalidation of that one PTW restores the truth.
    sup.machine.tlb_invalidate_ptw(ptw_addr);
    assert_eq!(sup.user_read(pid, segno, 0).unwrap(), Word::new(0o1234));
}

#[test]
fn a_supervisor_read_flushes_the_users_cached_translation_of_that_page() {
    // The reverse index lets most setfaults flushes return at once; this
    // is the case it must never elide. The supervisor's read sets the
    // used bit in the very PTW a user translation was cached from.
    let (mut sup, pid) = cramped_legacy();
    let segno = legacy_data_segment(&mut sup, pid);
    sup.user_write(pid, segno, 3, Word::new(0o5151)).unwrap();
    assert_eq!(sup.user_read(pid, segno, 3).unwrap(), Word::new(0o5151));
    let warm = sup.machine.tlb_stats();
    assert_eq!(sup.user_read(pid, segno, 3).unwrap(), Word::new(0o5151));
    assert_eq!(sup.machine.tlb_stats().hits, warm.hits + 1, "cached");

    let uid = sup
        .resolve(pid, "data", multics::legacy::AccessRight::Read)
        .unwrap()
        .0;
    let astx = sup.ast.find(uid).unwrap();
    let before = sup.machine.tlb_stats();
    assert_eq!(sup.sup_read(astx, 3).unwrap(), Word::new(0o5151));
    let flushed = sup.machine.tlb_stats();
    assert_eq!(
        flushed.invalidations,
        before.invalidations + 1,
        "the supervisor's PTW rewrite dropped the user's entry"
    );

    assert_eq!(sup.user_read(pid, segno, 3).unwrap(), Word::new(0o5151));
    let after = sup.machine.tlb_stats();
    assert_eq!(
        (after.hits, after.misses, after.fills),
        (flushed.hits, flushed.misses + 1, flushed.fills + 1),
        "the next user read missed and re-walked"
    );
}

#[test]
fn eviction_invalidates_and_the_page_comes_back_correct() {
    let (mut sup, pid) = cramped_legacy();
    let segno = legacy_data_segment(&mut sup, pid);
    // 16 pages through 8 pageable frames: every page is evicted at
    // least once, each eviction flushing its cached translation.
    for page in 0u32..16 {
        sup.user_write(
            pid,
            segno,
            page * PAGE_WORDS as u32,
            Word::new(u64::from(page) + 100),
        )
        .unwrap();
    }
    for page in 0u32..16 {
        // Twice in a row: the first read re-walks (its translation was
        // flushed by the eviction), the second hits the fresh entry.
        for _ in 0..2 {
            assert_eq!(
                sup.user_read(pid, segno, page * PAGE_WORDS as u32).unwrap(),
                Word::new(u64::from(page) + 100),
                "page {page} paged back intact"
            );
        }
    }
    let stats = sup.machine.tlb_stats();
    assert!(stats.hits > 0, "the workload exercised the cache");
    assert!(
        stats.invalidations > 0,
        "evictions flushed cached translations"
    );
}

#[test]
fn deactivation_flushes_and_a_refault_recovers_the_segment() {
    let (mut sup, pid) = cramped_legacy();
    let segno = legacy_data_segment(&mut sup, pid);
    sup.user_write(pid, segno, 0, Word::new(31)).unwrap();
    let uid = sup
        .resolve(pid, "data", multics::legacy::AccessRight::Read)
        .unwrap()
        .0;
    let before = sup.machine.tlb_stats().invalidations;
    sup.deactivate_segment(uid).unwrap();
    assert!(
        sup.machine.tlb_stats().invalidations > before,
        "deactivation flushed the segment's translations"
    );
    assert_eq!(
        sup.user_read(pid, segno, 0).unwrap(),
        Word::new(31),
        "segment fault + reactivation recovers the contents"
    );
}

#[test]
fn a_recycled_process_slot_cannot_inherit_translations() {
    // Process A's translations are keyed by its descriptor-segment
    // base; a process created in the recycled slot shares that base, so
    // zeroing the dseg must flush or A's address space leaks into B.
    let (mut sup, a) = cramped_legacy();
    let segno = legacy_data_segment(&mut sup, a);
    sup.user_write(a, segno, 0, Word::new(0o4242)).unwrap();
    assert_eq!(sup.user_read(a, segno, 0).unwrap(), Word::new(0o4242));
    sup.destroy_process(a).unwrap();
    let b = sup
        .create_process(multics::legacy::UserId(2), Label::BOTTOM)
        .unwrap();
    assert_eq!(b, a, "slot recycled, same descriptor-segment frame");
    // B never initiated anything: the reference must fault, not answer
    // with A's cached frame.
    assert!(
        sup.user_read(b, segno, 0).is_err(),
        "a stale translation would have leaked process A's data"
    );
}

#[test]
fn purifier_write_back_flushes_so_rewrites_stay_dirty() {
    // The purifier clears the modified bit when it cleans a page; if
    // that did not flush the cache, a later write would hit an entry
    // still marked modified, skip setting the bit in core, and the next
    // eviction would discard the new data.
    let (mut k, pid) = cramped_kernel();
    let segno = kernel_data_segment(&mut k, pid, "data");
    k.write_word(pid, segno, 0, Word::new(1)).unwrap();
    k.run_purifier(8).unwrap();
    k.write_word(pid, segno, 0, Word::new(2)).unwrap();
    // Evict page 0 by touching more pages than the pageable pool holds.
    for page in 1u32..=16 {
        k.write_word(pid, segno, page * PAGE_WORDS as u32, Word::new(9))
            .unwrap();
    }
    assert_eq!(
        k.read_word(pid, segno, 0).unwrap(),
        Word::new(2),
        "the rewrite survived eviction: the cleaned page was re-dirtied in core"
    );
}

#[test]
fn quota_exhaustion_faults_even_with_a_warm_cache() {
    let (mut k, pid) = cramped_kernel();
    let root = k.root_token();
    let dir = k
        .create_entry(
            pid,
            root,
            "q",
            multics::kernel::Acl::owner(multics::kernel::UserId(1)),
            Label::BOTTOM,
            true,
        )
        .unwrap();
    k.set_quota(pid, dir, 2).unwrap();
    let tok = k
        .create_entry(
            pid,
            dir,
            "fill",
            multics::kernel::Acl::owner(multics::kernel::UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    let segno = k.initiate(pid, tok).unwrap();
    k.write_word(pid, segno, 0, Word::new(1)).unwrap();
    k.write_word(pid, segno, PAGE_WORDS as u32, Word::new(2))
        .unwrap();
    // Warm the cache on the resident pages.
    for _ in 0..32 {
        k.read_word(pid, segno, 0).unwrap();
        k.read_word(pid, segno, PAGE_WORDS as u32).unwrap();
    }
    assert!(
        k.machine.tlb_stats().hits > 0,
        "the warm loop really hit the cache"
    );
    // Growth past the limit must still trap: cached translations never
    // cover quota-trapped pages.
    assert!(matches!(
        k.write_word(pid, segno, 2 * PAGE_WORDS as u32, Word::new(3))
            .unwrap_err(),
        KernelError::QuotaExceeded { limit: 2, .. }
    ));
}
