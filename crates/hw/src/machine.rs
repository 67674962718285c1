//! The assembled machine: memory + processors + disks + clock.
//!
//! [`Machine`] is the single mutable world the supervisor implementations
//! operate on. Its methods split borrows across the component fields so a
//! processor can walk descriptor tables held in main memory while the
//! clock accumulates charges.

use crate::clock::{Clock, CostModel};
use crate::cpu::{HwFeatures, Processor, ProcessorId};
use crate::disk::{DiskError, DiskSystem, PackId, RecordNo};
use crate::fault::Fault;
use crate::faultinj::{DiskFaults, FaultPlan, HwFault, WriteFate};
use crate::mem::{AbsAddr, FrameNo, MainMemory, PAGE_WORDS};
use crate::tlb::TlbStats;
use crate::word::Word;
use crate::VirtAddr;

/// Configuration for building a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Page frames of primary memory.
    pub frames: usize,
    /// Number of real processors.
    pub cpus: u32,
    /// Number of disk packs to attach at bootload.
    pub packs: u32,
    /// Records (pages) per pack.
    pub records_per_pack: u32,
    /// Table-of-contents slots per pack.
    pub toc_slots_per_pack: u32,
    /// Hardware feature set.
    pub features: HwFeatures,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            frames: 256,
            cpus: 2,
            packs: 2,
            records_per_pack: 1024,
            toc_slots_per_pack: 256,
            features: HwFeatures::BASE_1974,
            cost: CostModel::default(),
        }
    }
}

impl MachineConfig {
    /// A configuration with the paper's proposed hardware additions on.
    pub fn kernel_proposed() -> Self {
        Self {
            features: HwFeatures::KERNEL_PROPOSED,
            ..Self::default()
        }
    }
}

/// The whole simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Primary memory.
    pub mem: MainMemory,
    /// The cycle clock.
    pub clock: Clock,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Real processors.
    pub cpus: Vec<Processor>,
    /// Attached disk packs.
    pub disks: DiskSystem,
    /// Fault-injection state on the disk channel (empty plan by default).
    pub faults: DiskFaults,
    /// Hardware feature set the machine was built with.
    pub features: HwFeatures,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let mut disks = DiskSystem::new();
        for _ in 0..config.packs {
            disks.attach(config.records_per_pack, config.toc_slots_per_pack);
        }
        Self {
            mem: MainMemory::new(config.frames),
            clock: Clock::new(),
            cost: config.cost,
            cpus: (0..config.cpus)
                .map(|i| Processor::new(ProcessorId(i), config.features))
                .collect(),
            disks,
            faults: DiskFaults::default(),
            features: config.features,
        }
    }

    /// Installs a deterministic fault plan on the disk channel, resetting
    /// the transfer ordinals the plan is keyed off.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.install(plan);
    }

    /// Removes any fault plan, halt condition, and offline marks.
    pub fn clear_fault_plan(&mut self) {
        self.faults.clear();
    }

    /// The machine-level fault that halted the machine, if any.
    pub fn hw_fault(&self) -> Option<HwFault> {
        self.faults.halted()
    }

    /// A default machine with the 1974 hardware base.
    pub fn base_1974() -> Self {
        Self::new(MachineConfig::default())
    }

    /// A default machine with the paper's proposed hardware additions.
    pub fn kernel_proposed() -> Self {
        Self::new(MachineConfig::kernel_proposed())
    }

    /// Reads one word through processor `cpu`'s address translation.
    ///
    /// # Errors
    ///
    /// Propagates any translation [`Fault`]; a processor id that names no
    /// real processor reports [`Fault::BadDescriptor`] rather than
    /// panicking.
    pub fn read(&mut self, cpu: ProcessorId, va: VirtAddr) -> Result<Word, Fault> {
        let Some(p) = self.cpus.get_mut(cpu.0 as usize) else {
            return Err(Fault::BadDescriptor { va });
        };
        p.read(&mut self.mem, &mut self.clock, &self.cost, va)
    }

    /// Writes one word through processor `cpu`'s address translation.
    ///
    /// # Errors
    ///
    /// Propagates any translation [`Fault`]; a processor id that names no
    /// real processor reports [`Fault::BadDescriptor`] rather than
    /// panicking.
    pub fn write(&mut self, cpu: ProcessorId, va: VirtAddr, value: Word) -> Result<(), Fault> {
        let Some(p) = self.cpus.get_mut(cpu.0 as usize) else {
            return Err(Fault::BadDescriptor { va });
        };
        p.write(&mut self.mem, &mut self.clock, &self.cost, va, value)
    }

    // ----- associative-memory invalidation broadcasts ---------------------
    //
    // The 6180's "clear associative memory" connects to every processor;
    // supervisor software invokes these whenever it rewrites a descriptor
    // word, addressed by the descriptor's core address (the "setfaults"
    // discipline). Each processor's reverse index answers a flush of a
    // word no resident entry came from with one counter read (one per
    // word for a range, none when the cache is empty); only a possible
    // hit pays the scan of all TLB_SETS × TLB_WAYS ways. With the feature
    // off nothing is filled, so every flush stops at the index.

    /// Flushes every processor's cached translations made from the PTW at
    /// `addr`.
    pub fn tlb_invalidate_ptw(&mut self, addr: AbsAddr) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_ptw(addr);
        }
    }

    /// Flushes every processor's cached translations made from the SDW at
    /// `addr`.
    pub fn tlb_invalidate_sdw(&mut self, addr: AbsAddr) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_sdw(addr);
        }
    }

    /// Flushes cached translations for a whole page table
    /// (`[base, base + len)`) on every processor — the flush a reused
    /// page-table slot requires.
    pub fn tlb_invalidate_ptw_range(&mut self, base: AbsAddr, len: u64) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_ptw_range(base, len);
        }
    }

    /// Flushes cached translations made from SDWs in `[base, base + len)`
    /// on every processor — required when a whole descriptor segment is
    /// rebuilt or its frame reused.
    pub fn tlb_invalidate_sdw_range(&mut self, base: AbsAddr, len: u64) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_sdw_range(base, len);
        }
    }

    /// Clears every processor's associative memory outright.
    pub fn tlb_clear(&mut self) {
        for cpu in &mut self.cpus {
            cpu.tlb.clear();
        }
    }

    /// Aggregated associative-memory tallies across all processors.
    pub fn tlb_stats(&self) -> TlbStats {
        self.cpus
            .iter()
            .fold(TlbStats::default(), |acc, cpu| acc.merge(&cpu.tlb.stats()))
    }

    /// Transfers a disk record into a core frame, charging the clock.
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`] for a bad pack or record, or an injected
    /// fault ([`DiskError::TransientRead`], [`DiskError::PackOffline`],
    /// [`DiskError::PowerFail`]) per the installed plan.
    pub fn disk_read_into_frame(
        &mut self,
        pack: PackId,
        record: RecordNo,
        frame: FrameNo,
    ) -> Result<(), DiskError> {
        let data = self.disk_read_record(pack, record)?;
        self.mem.write_frame(frame, &data);
        Ok(())
    }

    /// Transfers a core frame onto a disk record, charging the clock.
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`] for a bad pack or record, or an injected
    /// fault per the installed plan; [`DiskError::PowerFail`] means the
    /// machine halted on this write (torn or dropped per the plan).
    pub fn disk_write_from_frame(
        &mut self,
        pack: PackId,
        record: RecordNo,
        frame: FrameNo,
    ) -> Result<(), DiskError> {
        let mut buf = [Word::ZERO; PAGE_WORDS];
        buf.copy_from_slice(&self.mem.read_frame(frame)[..]);
        self.disk_write_record(pack, record, &buf)
    }

    /// Reads a whole record through the fault-checked channel, charging
    /// the clock (also on a transient failure — the transfer was
    /// attempted).
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`], including injected faults.
    pub fn disk_read_record(
        &mut self,
        pack: PackId,
        record: RecordNo,
    ) -> Result<crate::disk::RecordBuf, DiskError> {
        if let Err(e) = self.faults.note_read(pack, record) {
            if matches!(e, DiskError::TransientRead { .. }) {
                self.clock.charge_disk_transfer(&self.cost);
            }
            return Err(e);
        }
        let data = self.disks.pack(pack)?.read_record(record)?.clone();
        self.clock.charge_disk_transfer(&self.cost);
        Ok(data)
    }

    /// Writes a whole record through the fault-checked channel, charging
    /// the clock. On the plan's crash write, the payload is torn at a
    /// word boundary (or dropped), the machine halts, and every later
    /// disk operation reports [`DiskError::PowerFail`].
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`], including injected faults.
    pub fn disk_write_record(
        &mut self,
        pack: PackId,
        record: RecordNo,
        data: &[Word; PAGE_WORDS],
    ) -> Result<(), DiskError> {
        match self.faults.note_write(pack)? {
            WriteFate::Commit => {
                self.disks.pack_mut(pack)?.write_record(record, data)?;
                self.clock.charge_disk_transfer(&self.cost);
                Ok(())
            }
            WriteFate::Crash(mode) => {
                let words = match mode {
                    crate::faultinj::CrashWrite::Dropped => 0,
                    crate::faultinj::CrashWrite::Torn { words } => words.min(PAGE_WORDS),
                };
                if words > 0 {
                    // A tear at a word boundary: the prefix is new data,
                    // the rest keeps whatever the record held.
                    if let Ok(pk) = self.disks.pack_mut(pack) {
                        if let Ok(old) = pk.read_record(record) {
                            let mut torn = old.clone();
                            torn[..words].copy_from_slice(&data[..words]);
                            let _ = pk.write_record(record, &torn);
                            self.clock.charge_disk_transfer(&self.cost);
                        }
                    }
                }
                self.faults.halt();
                Err(DiskError::PowerFail)
            }
        }
    }

    /// Number of real processors.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Posts a wakeup to `cpu`'s wakeup-waiting switch: a notification
    /// arriving between a locked-descriptor exception and the wait
    /// primitive must land on the *faulting processor*, not processor 0.
    /// Returns false if `cpu` names no real processor.
    pub fn post_wakeup(&mut self, cpu: ProcessorId) -> bool {
        match self.cpus.get_mut(cpu.0 as usize) {
            Some(p) => {
                p.wakeup_waiting = true;
                true
            }
            None => false,
        }
    }

    /// Per-processor retired user-operation tallies, indexed by
    /// [`ProcessorId`].
    pub fn ops_retired(&self) -> Vec<u64> {
        self.cpus.iter().map(|c| c.ops_retired).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{DescBase, Ptw, Sdw};
    use crate::mem::AbsAddr;

    #[test]
    fn default_machine_shape() {
        let m = Machine::base_1974();
        assert_eq!(m.cpu_count(), 2);
        assert_eq!(m.disks.pack_count(), 2);
        assert_eq!(m.mem.frames(), 256);
        assert!(!m.features.descriptor_lock);
        let k = Machine::kernel_proposed();
        assert!(k.features.descriptor_lock && k.features.dual_dbr);
    }

    #[test]
    fn machine_read_write_through_translation() {
        let mut m = Machine::base_1974();
        // Descriptor table at frame 0, page table at frame 1, page at 2.
        let pt = FrameNo(1).base();
        m.mem.write(
            pt,
            Ptw {
                frame: FrameNo(2),
                present: true,
                ..Ptw::default()
            }
            .encode(),
        );
        let sdw = Sdw {
            page_table: pt,
            bound_pages: 1,
            read: true,
            write: true,
            execute: false,
            present: true,
            software: false,
        };
        m.mem.write(AbsAddr(0), sdw.encode());
        m.cpus[0].dbr_user = Some(DescBase {
            base: AbsAddr(0),
            len: 1,
        });
        let va = VirtAddr::new(0, 9);
        m.write(ProcessorId(0), va, Word::new(3)).unwrap();
        assert_eq!(m.read(ProcessorId(0), va).unwrap(), Word::new(3));
        assert!(m.clock.now() > 0);
    }

    #[test]
    fn bad_processor_id_is_a_fault_not_a_panic() {
        let mut m = Machine::base_1974();
        let va = VirtAddr::new(0, 0);
        assert!(matches!(
            m.read(ProcessorId(99), va),
            Err(Fault::BadDescriptor { .. })
        ));
        assert!(matches!(
            m.write(ProcessorId(99), va, Word::new(1)),
            Err(Fault::BadDescriptor { .. })
        ));
    }

    #[test]
    fn tlb_invalidation_broadcasts_to_every_processor() {
        let mut m = Machine::kernel_proposed();
        let pt = FrameNo(1).base();
        m.mem.write(
            pt,
            Ptw {
                frame: FrameNo(2),
                present: true,
                ..Ptw::default()
            }
            .encode(),
        );
        let sdw = Sdw {
            page_table: pt,
            bound_pages: 1,
            read: true,
            write: true,
            execute: false,
            present: true,
            software: false,
        };
        m.mem.write(AbsAddr(0), sdw.encode());
        for cpu in &mut m.cpus {
            cpu.dbr_user = Some(DescBase {
                base: AbsAddr(0),
                len: 1,
            });
            cpu.system_segno_limit = 0;
        }
        let va = VirtAddr::new(0, 3);
        m.read(ProcessorId(0), va).unwrap();
        m.read(ProcessorId(1), va).unwrap();
        assert_eq!(m.tlb_stats().fills, 2);
        m.tlb_invalidate_ptw(pt);
        assert_eq!(m.tlb_stats().invalidations, 2, "both processors flushed");
        assert!(m.cpus.iter().all(|c| c.tlb.resident() == 0));
    }

    #[test]
    fn crash_write_tears_at_a_word_boundary_and_halts() {
        use crate::faultinj::{CrashWrite, FaultPlan, HwFault};
        let mut m = Machine::base_1974();
        let pack = PackId(0);
        let rec = m.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        // Seed the record with old data.
        let old = [Word::new(0o111); PAGE_WORDS];
        m.disks
            .pack_mut(pack)
            .unwrap()
            .write_record(rec, &old)
            .unwrap();
        m.install_fault_plan(FaultPlan::new().crash_after_writes(1, CrashWrite::Torn { words: 4 }));
        let new = [Word::new(0o222); PAGE_WORDS];
        assert_eq!(
            m.disk_write_record(pack, rec, &new),
            Err(DiskError::PowerFail)
        );
        assert_eq!(m.hw_fault(), Some(HwFault::PowerFail { at_write: 1 }));
        // Subsequent operations fail while halted; the image is frozen.
        assert_eq!(
            m.disk_read_into_frame(pack, rec, FrameNo(5)),
            Err(DiskError::PowerFail)
        );
        let surviving = m.disks.pack(pack).unwrap().read_record(rec).unwrap();
        assert_eq!(surviving[3], Word::new(0o222), "prefix reached the platter");
        assert_eq!(surviving[4], Word::new(0o111), "suffix kept old contents");
        // A dropped crash write leaves the record untouched.
        let mut m2 = Machine::base_1974();
        let rec2 = m2.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        m2.disks
            .pack_mut(pack)
            .unwrap()
            .write_record(rec2, &old)
            .unwrap();
        m2.install_fault_plan(FaultPlan::new().crash_after_writes(1, CrashWrite::Dropped));
        assert_eq!(
            m2.disk_write_record(pack, rec2, &new),
            Err(DiskError::PowerFail)
        );
        assert_eq!(
            m2.disks.pack(pack).unwrap().read_record(rec2).unwrap()[0],
            Word::new(0o111)
        );
    }

    #[test]
    fn transient_read_fails_once_then_recovers() {
        use crate::faultinj::FaultPlan;
        let mut m = Machine::base_1974();
        let pack = PackId(0);
        let rec = m.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        m.mem.write(FrameNo(5).base(), Word::new(0o42));
        m.disk_write_from_frame(pack, rec, FrameNo(5)).unwrap();
        m.install_fault_plan(FaultPlan::new().transient_read(pack, rec, 1));
        assert_eq!(
            m.disk_read_into_frame(pack, rec, FrameNo(6)),
            Err(DiskError::TransientRead { pack, record: rec })
        );
        m.disk_read_into_frame(pack, rec, FrameNo(6)).unwrap();
        assert_eq!(m.mem.read(FrameNo(6).base()), Word::new(0o42));
        assert!(m.hw_fault().is_none());
    }

    #[test]
    fn disk_frame_round_trip_charges_clock() {
        let mut m = Machine::base_1974();
        let pack = PackId(0);
        let rec = m.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        m.mem.write(FrameNo(5).base().add(3), Word::new(0o777));
        let before = m.clock.disk_transfers();
        m.disk_write_from_frame(pack, rec, FrameNo(5)).unwrap();
        m.disk_read_into_frame(pack, rec, FrameNo(6)).unwrap();
        assert_eq!(m.mem.read(FrameNo(6).base().add(3)), Word::new(0o777));
        assert_eq!(m.clock.disk_transfers(), before + 2);
    }
}
