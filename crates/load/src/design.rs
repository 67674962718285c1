//! The two supervisors behind one trait.
//!
//! Every harness in this crate — the load engine, the crash-segmented
//! epoch loop (offline and online salvage), and the fleet — is written
//! once, generic over [`Design`]. A trait method is a *logical step* at
//! which the restructured kernel and the 1974 supervisor really differ:
//! how a login is queued, how a directory is named between calls, how a
//! library is published, how the salvager reports a step. Each impl
//! makes exactly the supervisor calls the step needs, in order, so the
//! simulated cycles, labels, meters and edge ledgers are whatever the
//! design itself charges. Nothing outside the two `impl` blocks below
//! knows which design it is driving.

use std::collections::VecDeque;
use std::fmt::Debug;

use mx_aim::Label;
use mx_explore::oracle;
use mx_hw::{DiskSystem, Language, Machine, Subsystem, Word};
use mx_kernel::demux::{FramingSpec, StreamId};
use mx_kernel::{
    Acl, Kernel, KernelConfig, KernelError, ObjToken, OnlineCheat, OnlineProgress, ProcessId,
    UserId,
};
use mx_legacy::network::{NetworkId, NetworkKind};
use mx_legacy::{
    AccessRight, Acl as LAcl, LegacyError, LegacyOnlineCheat, LegacyOnlineProgress,
    ProcessId as LPid, SegUid, Supervisor, SupervisorConfig, UserId as LUserId,
};
use mx_sync::SchedulePolicy;
use mx_user::{publish_library, Admission, AnsweringService, NameSpace, UserLinker};

use crate::epoch::C1Policy;
use crate::fleet::{CMD_DECODE_INSTR, RESIDENT_DISPATCH_INSTR};
use crate::run::{account_index, account_name, def_refs, definitions, Build};

/// A design's own result type.
pub(crate) type Res<D, T = ()> = Result<T, <D as Design>::Error>;

/// Storage and table sizes a harness boots a machine with: the fields
/// both designs' configurations share. Everything else stays at each
/// design's own default.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    pub(crate) frames: usize,
    pub(crate) packs: u32,
    pub(crate) records_per_pack: u32,
    pub(crate) toc_slots_per_pack: u32,
    pub(crate) max_processes: u32,
    pub(crate) root_quota: u32,
}

impl Shape {
    /// The default both designs boot with.
    pub(crate) const DEFAULT: Shape = Shape {
        frames: 256,
        packs: 2,
        records_per_pack: 1024,
        toc_slots_per_pack: 256,
        max_processes: 16,
        root_quota: 1500,
    };
}

/// One online-salvage step, as the harness's release battery sees it.
pub(crate) enum Step {
    /// A directory was claimed, repaired, rechecked and released.
    Released { dir: u64, recheck_clean: bool },
    /// The hierarchy is fully salvaged.
    Done { problems: usize, repairs: usize },
    /// A finalize sweep ran, or no salvage is in progress.
    Quiet,
}

/// One stop-the-world salvage pass's findings.
#[derive(Debug)]
pub(crate) struct Salvaged {
    pub(crate) problems: usize,
    pub(crate) repairs: usize,
    pub(crate) clean: bool,
    /// The problem list, rendered for violation messages.
    pub(crate) found: String,
}

impl Salvaged {
    fn of<P: Debug>(problems: &[P], repairs: usize, clean: bool) -> Self {
        let found = format!("{problems:?}");
        let problems = problems.len();
        Self {
            problems,
            repairs,
            clean,
            found,
        }
    }
}

/// What one pass over the admission queue did, by session index.
pub(crate) struct Admit<D: Design> {
    pub(crate) admitted: Vec<(usize, D::Pid)>,
    /// Logins refused outright; they have left the queue.
    pub(crate) refused: Vec<(usize, D::Error)>,
    /// The head login is barred by an online salvage and stays queued.
    pub(crate) busy: bool,
}

/// The per-supervisor surface every harness is written against.
pub(crate) trait Design: Sized {
    /// `"kernel"` or `"legacy"`: the `design` field of every report.
    const NAME: &'static str;
    type Error: Debug;
    type Pid: Copy;
    /// The user-domain login front beside the supervisor. On the kernel
    /// it is the answering service, which queues logins itself. The old
    /// supervisor refuses when its process table is full, so its front
    /// is the caller's retry queue of session indices.
    type Front: Default;
    /// Per-process user-domain state: the kernel's name space and
    /// linker. The old supervisor keeps both inside, so it has none.
    type Env;
    /// How a harness holds a directory or segment between calls: a
    /// kernel object token; on the old supervisor a uid, where a resolve
    /// or create produced one (pathnames name everything else).
    type Dir: Copy;
    /// A network attachment the wire's frames arrive on.
    type Net: Copy;

    // The machine.
    /// Boots a fresh machine, or (with `image`) a recovery bootload from
    /// a crash image.
    fn boot(shape: &Shape, image: Option<DiskSystem>) -> Result<Self, String>;
    fn machine(&self) -> &Machine;
    fn machine_mut(&mut self) -> &mut Machine;
    /// The oracle battery: meter conservation, per-pack record
    /// conservation, wakeup exactness, TLB closure.
    fn oracle(&self) -> Vec<String>;
    fn sync(&mut self) -> Res<Self>;
    /// The scripted scheduler pass.
    fn dispatch(&mut self);
    /// Installs a schedule policy; the old scheduler has no hooks.
    fn set_policy(&mut self, policy: Option<Box<dyn SchedulePolicy>>);
    /// The `schedule=` a run under `policy` reports.
    fn schedule_name(policy: C1Policy) -> String;
    /// Resets the per-epoch scheduler probes.
    fn reset_probes(&mut self);
    /// The scheduler probes since the last reset: queued-wait total and
    /// the dispatches it averages over, and peak event-queue depth.
    fn queue_probes(&self) -> ((u64, u64), usize);
    /// Whole-segment relocations so far.
    fn relocations(&self) -> u64;

    // Errors.
    /// A `SalvageBusy` barrier: retry after the salvager steps.
    fn is_busy(e: &Self::Error) -> bool;
    /// The user-visible outcome class: `quota`, `full` or `err`.
    fn label(e: &Self::Error) -> &'static str;

    // Accounts and admission.
    fn register(&mut self, front: &mut Self::Front, name: &str);
    fn login(&mut self, front: &mut Self::Front, name: &str) -> Res<Self, Self::Pid>;
    fn open_env(&mut self, pid: Self::Pid) -> Self::Env;
    fn logout(&mut self, front: &mut Self::Front, name: &str, pid: Self::Pid) -> Res<Self>;
    /// Logs session `idx` in: `Ok(None)` = parked for a process slot.
    fn login_or_queue(
        &mut self,
        front: &mut Self::Front,
        idx: usize,
    ) -> Res<Self, Option<Self::Pid>>;
    /// One pass over the parked logins, head first, while slots last.
    fn admit_pass(&mut self, front: &mut Self::Front) -> Admit<Self>;
    /// Logins parked for a process slot.
    fn queued(front: &Self::Front) -> usize;
    /// Account names of the parked logins, head first.
    fn pending(front: &Self::Front) -> Vec<String>;
    /// The front's own crash recovery: live sessions died with core,
    /// parked logins keep their place.
    fn crash_front(front: &mut Self::Front);
    /// The planted cheat: forget the youngest parked login.
    fn drop_youngest(front: &mut Self::Front);

    // Naming.
    /// Looks `name` up in the root.
    fn search(&mut self, drv: Self::Pid, name: &str) -> Res<Self, Self::Dir>;
    /// Looks shard directory `name` up while reconciling against a
    /// possibly running salvager; `None` = the crash cost the entry.
    fn find_shard(b: &mut Build<'_, Self>, name: &str) -> Option<Self::Dir>;
    /// Creates segment (or, with `dir`, directory) `name` in the root.
    fn create(&mut self, drv: Self::Pid, name: &str, dir: bool) -> Res<Self, Self::Dir>;
    fn set_quota(&mut self, drv: Self::Pid, dir: Self::Dir, name: &str, quota: u32) -> Res<Self>;
    /// Probes a root directory the salvager may still hold; busy while
    /// it is quarantined.
    fn open_dir(&mut self, drv: Self::Pid, dir: Self::Dir, name: &str) -> Res<Self, Self::Dir>;
    /// The directory a session's file is created in, as the session
    /// reaches it.
    fn file_dir(&mut self, pid: Self::Pid, dir: Self::Dir, name: &str) -> Res<Self, Self::Dir>;
    /// Creates and initiates file `name` in directory `dir`, which is
    /// root entry `at`.
    fn create_in(&mut self, pid: Self::Pid, dir: Self::Dir, at: &str, name: &str)
        -> Res<Self, u32>;
    fn delete_file(&mut self, pid: Self::Pid, dir: Self::Dir, at: &str, name: &str) -> Res<Self>;
    /// Initiates root entry `name`, held as `obj`.
    fn initiate(&mut self, pid: Self::Pid, obj: Self::Dir, name: &str) -> Res<Self, u32>;
    /// Initiates root entry `name` through the session's name space.
    fn initiate_path(&mut self, pid: Self::Pid, env: &mut Self::Env, name: &str) -> Res<Self, u32>;
    /// Publishes the library's definitions in segment `lib`.
    fn publish_lib(b: &mut Build<'_, Self>, lib: Self::Dir) -> Result<(), String>;

    // User operations.
    /// Snaps a link to `sym` in the library; the snapped offset.
    fn link(&mut self, pid: Self::Pid, env: &mut Self::Env, sym: &str) -> Res<Self, u32>;
    /// Resolves root entry `name`.
    fn resolve(&mut self, pid: Self::Pid, env: &mut Self::Env, name: &str) -> Res<Self>;
    fn read(&mut self, pid: Self::Pid, segno: u32, offset: u32) -> Res<Self, Word>;
    /// The specialized file store's read path, under the network
    /// subsystem with no gate.
    fn read_resident(&mut self, pid: Self::Pid, segno: u32, offset: u32) -> Res<Self, Word>;
    fn write(&mut self, pid: Self::Pid, segno: u32, offset: u32, w: Word) -> Res<Self>;

    // Salvage.
    fn salvage(&mut self, repair: bool) -> Res<Self, Salvaged>;
    /// Starts the online salvager. `release_early` is the self-check:
    /// tear the root quota cell behind the system's back, then run a
    /// salvager that releases each directory before repairing its cell.
    fn begin_online(&mut self, release_early: bool) -> Result<(), String>;
    fn salvage_active(&self) -> bool;
    fn salvage_step(&mut self) -> Res<Self, Step>;

    // Network.
    fn attach_net(&mut self) -> Self::Net;
    fn net_receive(&mut self, net: Self::Net, bytes: &[u8]) -> Result<(), String>;
    fn net_read(&mut self, pid: Self::Pid, net: Self::Net, ch: u16) -> Result<Vec<u8>, String>;
    /// The specialized file store's channel read, from the resident entry.
    fn net_read_resident(&mut self, net: Self::Net, ch: u16) -> Result<Vec<u8>, String>;
    /// Charges deciding what one remote request asks for: the
    /// specialized store's resident dispatch stub when `resident`, else
    /// the user-domain command layer.
    fn charge_dispatch(&mut self, resident: bool);
    /// Takes one front-end admission directive off the wire, charged
    /// to the answering service.
    fn deliver_directive(&mut self, net: Self::Net, bytes: &[u8], ch: u16) -> Result<(), String>;
}

// --------------------------------------------------------- the kernel --

impl Design for Kernel {
    const NAME: &'static str = "kernel";
    type Error = KernelError;
    type Pid = ProcessId;
    type Front = AnsweringService;
    type Env = (NameSpace, UserLinker);
    type Dir = ObjToken;
    type Net = StreamId;

    fn boot(s: &Shape, image: Option<DiskSystem>) -> Result<Self, String> {
        let config = KernelConfig {
            frames: s.frames,
            packs: s.packs,
            records_per_pack: s.records_per_pack,
            toc_slots_per_pack: s.toc_slots_per_pack,
            max_processes: s.max_processes,
            root_quota: s.root_quota,
            ..KernelConfig::default()
        };
        match image {
            None => Ok(Kernel::boot(config)),
            Some(image) => Kernel::boot_from_image(config, image).map_err(|e| format!("{e:?}")),
        }
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn oracle(&self) -> Vec<String> {
        oracle::check_kernel(self)
    }

    fn sync(&mut self) -> Res<Self> {
        self.sync_to_disk()
    }

    fn dispatch(&mut self) {
        self.schedule();
    }

    fn set_policy(&mut self, policy: Option<Box<dyn SchedulePolicy>>) {
        if let Some(p) = policy {
            self.set_schedule_policy(p);
        }
    }

    fn schedule_name(policy: C1Policy) -> String {
        policy.descriptor()
    }

    fn reset_probes(&mut self) {
        self.reset_load_probes();
    }

    fn queue_probes(&self) -> ((u64, u64), usize) {
        (self.vpm.queue_delay(), self.upm.queue_high_watermark())
    }

    fn relocations(&self) -> u64 {
        self.segm.stats.relocations
    }

    fn is_busy(e: &KernelError) -> bool {
        *e == KernelError::SalvageBusy
    }

    fn label(e: &KernelError) -> &'static str {
        match e {
            KernelError::QuotaExceeded { .. } => "quota",
            KernelError::AllPacksFull => "full",
            _ => "err",
        }
    }

    fn register(&mut self, svc: &mut AnsweringService, name: &str) {
        svc.register(self, name, UserId(1), "pw", Label::BOTTOM);
    }

    fn login(&mut self, svc: &mut AnsweringService, name: &str) -> Res<Self, ProcessId> {
        svc.login(self, name, "pw", Label::BOTTOM)
    }

    fn open_env(&mut self, pid: ProcessId) -> Self::Env {
        (NameSpace::new(self, pid), UserLinker::new(pid))
    }

    fn logout(&mut self, svc: &mut AnsweringService, _: &str, pid: ProcessId) -> Res<Self> {
        svc.logout(self, pid).map(|_| ())
    }

    fn login_or_queue(
        &mut self,
        svc: &mut AnsweringService,
        idx: usize,
    ) -> Res<Self, Option<ProcessId>> {
        let got = svc.login_or_queue(self, &account_name(idx), "pw", Label::BOTTOM)?;
        Ok(match got {
            Admission::Admitted(pid) => Some(pid),
            Admission::Queued(_) => None,
        })
    }

    fn admit_pass(&mut self, svc: &mut AnsweringService) -> Admit<Self> {
        fn by_index<T>((name, x): (String, T)) -> (usize, T) {
            (account_index(&name), x)
        }
        let pass = svc.admit_waiting(self);
        Admit {
            admitted: pass.admitted.into_iter().map(by_index).collect(),
            refused: pass.refused.into_iter().map(by_index).collect(),
            busy: pass.busy,
        }
    }

    fn queued(svc: &AnsweringService) -> usize {
        svc.queued_logins()
    }

    fn pending(svc: &AnsweringService) -> Vec<String> {
        svc.pending_names()
    }

    fn crash_front(svc: &mut AnsweringService) {
        svc.crash_recover();
    }

    fn drop_youngest(svc: &mut AnsweringService) {
        svc.drop_last_pending_for_test();
    }

    fn search(&mut self, drv: ProcessId, name: &str) -> Res<Self, ObjToken> {
        let root = self.root_token();
        self.dir_search(drv, root, name)
    }

    /// The search walks only the root, which the driver's re-login has
    /// already forced out of quarantine, so a surviving shard keeps its
    /// token even while the salvager still holds it.
    fn find_shard(b: &mut Build<'_, Self>, name: &str) -> Option<ObjToken> {
        let drv = b.drv;
        b.retry("shard search", |k| k.search(drv, name)).ok()
    }

    fn create(&mut self, drv: ProcessId, name: &str, dir: bool) -> Res<Self, ObjToken> {
        let root = self.root_token();
        self.create_entry(drv, root, name, Acl::owner(UserId(1)), Label::BOTTOM, dir)
    }

    fn set_quota(&mut self, drv: ProcessId, dir: ObjToken, _: &str, quota: u32) -> Res<Self> {
        Kernel::set_quota(self, drv, dir, quota)
    }

    fn open_dir(&mut self, drv: ProcessId, dir: ObjToken, _: &str) -> Res<Self, ObjToken> {
        self.list_dir(drv, dir).map(|_| dir)
    }

    fn file_dir(&mut self, _: ProcessId, dir: ObjToken, _: &str) -> Res<Self, ObjToken> {
        Ok(dir)
    }

    fn create_in(&mut self, pid: ProcessId, dir: ObjToken, _: &str, name: &str) -> Res<Self, u32> {
        let tok = self.create_entry(pid, dir, name, Acl::owner(UserId(1)), Label::BOTTOM, false)?;
        Kernel::initiate(self, pid, tok)
    }

    fn delete_file(&mut self, pid: ProcessId, dir: ObjToken, _: &str, name: &str) -> Res<Self> {
        self.delete_entry(pid, dir, name)
    }

    fn initiate(&mut self, pid: ProcessId, obj: ObjToken, _: &str) -> Res<Self, u32> {
        Kernel::initiate(self, pid, obj)
    }

    fn initiate_path(&mut self, _: ProcessId, env: &mut Self::Env, name: &str) -> Res<Self, u32> {
        env.0.initiate(self, &format!(">{name}"))
    }

    fn publish_lib(b: &mut Build<'_, Self>, lib: ObjToken) -> Result<(), String> {
        let drv = b.drv;
        let segno = b.retry("lib initiate", |k| Kernel::initiate(k, drv, lib))?;
        let defs = definitions();
        let refs = def_refs(&defs);
        b.retry("lib publish", |k| publish_library(k, drv, segno, &refs))
    }

    fn link(&mut self, _: ProcessId, env: &mut Self::Env, sym: &str) -> Res<Self, u32> {
        let (ns, linker) = env;
        linker.link(self, ns, ">lib", sym).map(|l| l.offset)
    }

    fn resolve(&mut self, _: ProcessId, env: &mut Self::Env, name: &str) -> Res<Self> {
        env.0.resolve(self, &format!(">{name}")).map(|_| ())
    }

    fn read(&mut self, pid: ProcessId, segno: u32, offset: u32) -> Res<Self, Word> {
        self.read_word(pid, segno, offset)
    }

    fn read_resident(&mut self, pid: ProcessId, segno: u32, offset: u32) -> Res<Self, Word> {
        self.resident_read_word(pid, segno, offset)
    }

    fn write(&mut self, pid: ProcessId, segno: u32, offset: u32, w: Word) -> Res<Self> {
        self.write_word(pid, segno, offset, w)
    }

    fn salvage(&mut self, repair: bool) -> Res<Self, Salvaged> {
        let r = Kernel::salvage(self, repair)?;
        Ok(Salvaged::of(&r.problems, r.repairs.len(), r.clean()))
    }

    fn begin_online(&mut self, release_early: bool) -> Result<(), String> {
        if !release_early {
            self.begin_online_salvage();
            return Ok(());
        }
        let root_uid = self.dirm.root();
        let mut flows = mx_aim::FlowTracker::new();
        let drift = self
            .qcm
            .charge(&mut self.machine, root_uid, 3, Label::BOTTOM, &mut flows)
            .map_err(|e| format!("self-check drift injection failed: {e:?}"));
        self.begin_online_salvage_with_cheat(Some(OnlineCheat::ReleaseBeforeCellRepair));
        drift
    }

    fn salvage_active(&self) -> bool {
        self.online_salvage_active()
    }

    fn salvage_step(&mut self) -> Res<Self, Step> {
        Ok(match self.online_salvage_step()? {
            OnlineProgress::Released {
                dir, recheck_clean, ..
            } => Step::Released {
                dir: dir.0,
                recheck_clean,
            },
            OnlineProgress::Done { report } => Step::Done {
                problems: report.problems.len(),
                repairs: report.repairs.len(),
            },
            OnlineProgress::Finalized { .. } | OnlineProgress::Idle => Step::Quiet,
        })
    }

    fn attach_net(&mut self) -> StreamId {
        self.demux_attach(FramingSpec::FRONT_END)
    }

    fn net_receive(&mut self, net: StreamId, bytes: &[u8]) -> Result<(), String> {
        self.demux_receive(net, bytes).map_err(|e| format!("{e:?}"))
    }

    fn net_read(&mut self, pid: ProcessId, net: StreamId, ch: u16) -> Result<Vec<u8>, String> {
        self.demux_read(pid, net, ch).map_err(|e| format!("{e:?}"))
    }

    fn net_read_resident(&mut self, net: StreamId, ch: u16) -> Result<Vec<u8>, String> {
        self.demux_read_resident(net, ch)
            .map_err(|e| format!("{e:?}"))
    }

    fn charge_dispatch(&mut self, resident: bool) {
        let (cost, clock) = (self.machine.cost, &mut self.machine.clock);
        if resident {
            let g = clock.enter(Subsystem::Network);
            clock.charge_instructions(&cost, RESIDENT_DISPATCH_INSTR, Language::Assembly);
            clock.exit(g);
        } else {
            clock.charge_instructions(&cost, CMD_DECODE_INSTR, Language::Pli);
        }
    }

    /// The answering service drains its own channel via the resident
    /// entry, inside its own meter scope: kernel-internal traffic does
    /// not cross a user gate.
    fn deliver_directive(&mut self, net: StreamId, bytes: &[u8], ch: u16) -> Result<(), String> {
        let cost = self.machine.cost;
        let g = self.machine.clock.enter(Subsystem::AnsweringService);
        self.machine.clock.charge_wire_frame(&cost, bytes.len());
        let got = self.demux_receive(net, bytes).map_err(|e| format!("{e:?}"));
        if got.is_ok() {
            let _ = self.demux_read_resident(net, ch);
        }
        self.machine.clock.exit(g);
        got
    }
}

// ------------------------------------------------- the 1974 supervisor --

impl Design for Supervisor {
    const NAME: &'static str = "legacy";
    type Error = LegacyError;
    type Pid = LPid;
    type Front = VecDeque<usize>;
    type Env = ();
    type Dir = Option<SegUid>;
    type Net = NetworkId;

    fn boot(s: &Shape, image: Option<DiskSystem>) -> Result<Self, String> {
        let config = SupervisorConfig {
            frames: s.frames,
            packs: s.packs,
            records_per_pack: s.records_per_pack,
            toc_slots_per_pack: s.toc_slots_per_pack,
            max_processes: s.max_processes,
            root_quota_pages: s.root_quota,
            ..SupervisorConfig::default()
        };
        match image {
            None => Ok(Supervisor::boot(config)),
            Some(image) => Supervisor::boot_from_image(config, image).map_err(|e| format!("{e:?}")),
        }
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn oracle(&self) -> Vec<String> {
        oracle::check_legacy(self)
    }

    fn sync(&mut self) -> Res<Self> {
        self.sync_to_disk()
    }

    fn dispatch(&mut self) {
        Supervisor::dispatch(self);
    }

    fn set_policy(&mut self, _: Option<Box<dyn SchedulePolicy>>) {}

    fn schedule_name(_: C1Policy) -> String {
        "inherent".to_string()
    }

    fn reset_probes(&mut self) {}

    fn queue_probes(&self) -> ((u64, u64), usize) {
        ((0, 0), 0)
    }

    fn relocations(&self) -> u64 {
        self.stats.relocations
    }

    fn is_busy(e: &LegacyError) -> bool {
        *e == LegacyError::SalvageBusy
    }

    fn label(e: &LegacyError) -> &'static str {
        match e {
            LegacyError::QuotaExceeded { .. } => "quota",
            LegacyError::AllPacksFull => "full",
            _ => "err",
        }
    }

    fn register(&mut self, _: &mut VecDeque<usize>, name: &str) {
        self.register_user(name, LUserId(1), "pw", Label::BOTTOM);
    }

    fn login(&mut self, _: &mut VecDeque<usize>, name: &str) -> Res<Self, LPid> {
        Supervisor::login(self, name, "pw", Label::BOTTOM)
    }

    fn open_env(&mut self, _: LPid) {}

    fn logout(&mut self, _: &mut VecDeque<usize>, name: &str, pid: LPid) -> Res<Self> {
        Supervisor::logout(self, name, pid).map(|_| ())
    }

    /// The old answering service refuses when the process table is
    /// full; the caller's retry queue is the admission policy.
    fn login_or_queue(
        &mut self,
        queue: &mut VecDeque<usize>,
        idx: usize,
    ) -> Res<Self, Option<LPid>> {
        match Supervisor::login(self, &account_name(idx), "pw", Label::BOTTOM) {
            Ok(pid) => Ok(Some(pid)),
            Err(LegacyError::NoSuchProcess) => {
                queue.push_back(idx);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn admit_pass(&mut self, queue: &mut VecDeque<usize>) -> Admit<Self> {
        let (mut admitted, mut refused, mut busy) = (Vec::new(), Vec::new(), false);
        while let Some(&idx) = queue.front() {
            match Supervisor::login(self, &account_name(idx), "pw", Label::BOTTOM) {
                Ok(pid) => admitted.push((idx, pid)),
                Err(LegacyError::NoSuchProcess) => break,
                Err(LegacyError::SalvageBusy) => {
                    busy = true;
                    break;
                }
                Err(e) => refused.push((idx, e)),
            }
            queue.pop_front();
        }
        Admit {
            admitted,
            refused,
            busy,
        }
    }

    fn queued(queue: &VecDeque<usize>) -> usize {
        queue.len()
    }

    fn pending(queue: &VecDeque<usize>) -> Vec<String> {
        queue.iter().map(|&idx| account_name(idx)).collect()
    }

    fn crash_front(_: &mut VecDeque<usize>) {}

    fn drop_youngest(queue: &mut VecDeque<usize>) {
        queue.pop_back();
    }

    fn search(&mut self, drv: LPid, name: &str) -> Res<Self, Self::Dir> {
        self.resolve(drv, name, AccessRight::Read)
            .map(|(uid, _)| Some(uid))
    }

    /// The old resolve walks *into* the target, so a surviving shard the
    /// salvager still holds answers `SalvageBusy` — which proves it
    /// exists. Only a genuine miss is an error.
    fn find_shard(b: &mut Build<'_, Self>, name: &str) -> Option<Self::Dir> {
        match b.sys.resolve(b.drv, name, AccessRight::Read) {
            Ok((uid, _)) => Some(Some(uid)),
            Err(LegacyError::SalvageBusy) => Some(None),
            Err(_) => None,
        }
    }

    fn create(&mut self, _: LPid, name: &str, dir: bool) -> Res<Self, Self::Dir> {
        let (root, acl) = (self.root(), LAcl::owner(LUserId(1)));
        if dir {
            self.create_directory_in(root, name, acl, Label::BOTTOM)
        } else {
            self.create_segment_in(root, name, acl, Label::BOTTOM)
        }
        .map(Some)
    }

    fn set_quota(&mut self, drv: LPid, _: Self::Dir, name: &str, quota: u32) -> Res<Self> {
        self.set_quota_directory(drv, name, quota)
    }

    fn open_dir(&mut self, drv: LPid, _: Self::Dir, name: &str) -> Res<Self, Self::Dir> {
        Design::search(self, drv, name)
    }

    fn file_dir(&mut self, pid: LPid, _: Self::Dir, name: &str) -> Res<Self, Self::Dir> {
        Design::search(self, pid, name)
    }

    fn create_in(&mut self, pid: LPid, dir: Self::Dir, at: &str, name: &str) -> Res<Self, u32> {
        let uid = dir.expect("a resolved or created directory");
        self.create_segment_in(uid, name, LAcl::owner(LUserId(1)), Label::BOTTOM)?;
        Supervisor::initiate(self, pid, &format!("{at}>{name}"))
    }

    fn delete_file(&mut self, pid: LPid, _: Self::Dir, at: &str, name: &str) -> Res<Self> {
        self.delete(pid, &format!("{at}>{name}"))
    }

    fn initiate(&mut self, pid: LPid, _: Self::Dir, name: &str) -> Res<Self, u32> {
        Supervisor::initiate(self, pid, name)
    }

    fn initiate_path(&mut self, pid: LPid, _: &mut (), name: &str) -> Res<Self, u32> {
        Supervisor::initiate(self, pid, name)
    }

    /// The definition table is in-core on the old design: every boot
    /// must re-publish or links dangle. The kernel's published library
    /// occupies a page; writing one here allocates the matching record,
    /// so both designs start with identical storage.
    fn publish_lib(b: &mut Build<'_, Self>, lib: Self::Dir) -> Result<(), String> {
        let (drv, defs) = (b.drv, definitions());
        let refs = def_refs(&defs);
        b.sys
            .publish_definitions(lib.expect("a resolved or created library"), &refs);
        let segno = b.retry("lib initiate", |s| Supervisor::initiate(s, drv, "lib"))?;
        let n = Word::new(refs.len() as u64);
        b.retry("lib page", |s| s.user_write(drv, segno, 0, n))
    }

    fn link(&mut self, pid: LPid, _: &mut (), sym: &str) -> Res<Self, u32> {
        Supervisor::link(self, pid, "lib", sym).map(|l| l.offset)
    }

    fn resolve(&mut self, pid: LPid, _: &mut (), name: &str) -> Res<Self> {
        Supervisor::resolve(self, pid, name, AccessRight::Read).map(|_| ())
    }

    fn read(&mut self, pid: LPid, segno: u32, offset: u32) -> Res<Self, Word> {
        self.user_read(pid, segno, offset)
    }

    /// The old supervisor has no resident file-store path to specialize
    /// into: the store reads through the gate like any machine.
    fn read_resident(&mut self, pid: LPid, segno: u32, offset: u32) -> Res<Self, Word> {
        self.user_read(pid, segno, offset)
    }

    fn write(&mut self, pid: LPid, segno: u32, offset: u32, w: Word) -> Res<Self> {
        self.user_write(pid, segno, offset, w)
    }

    fn salvage(&mut self, repair: bool) -> Res<Self, Salvaged> {
        let r = Supervisor::salvage(self, repair)?;
        Ok(Salvaged::of(&r.problems, r.repairs.len(), r.clean()))
    }

    fn begin_online(&mut self, release_early: bool) -> Result<(), String> {
        if !release_early {
            self.begin_online_salvage();
            return Ok(());
        }
        let drift = match self.ast.find(self.root()) {
            Some(astx) => {
                if let Some(q) = self.ast.get_mut(astx).and_then(|a| a.quota.as_mut()) {
                    q.used += 3;
                }
                Ok(())
            }
            None => Err("self-check drift injection found no root AST entry".to_string()),
        };
        self.begin_online_salvage_with_cheat(Some(LegacyOnlineCheat::ReleaseBeforeCellRepair));
        drift
    }

    fn salvage_active(&self) -> bool {
        self.online_salvage_active()
    }

    fn salvage_step(&mut self) -> Res<Self, Step> {
        Ok(match self.online_salvage_step()? {
            LegacyOnlineProgress::Released {
                dir, recheck_clean, ..
            } => Step::Released {
                dir: dir.0,
                recheck_clean,
            },
            LegacyOnlineProgress::Done { report } => Step::Done {
                problems: report.problems.len(),
                repairs: report.repairs.len(),
            },
            LegacyOnlineProgress::Finalized { .. } | LegacyOnlineProgress::Idle => Step::Quiet,
        })
    }

    fn attach_net(&mut self) -> NetworkId {
        self.attach_network(NetworkKind::FrontEnd)
    }

    fn net_receive(&mut self, net: NetworkId, bytes: &[u8]) -> Result<(), String> {
        self.network_receive(net, bytes)
            .map_err(|e| format!("{e:?}"))
    }

    fn net_read(&mut self, _: LPid, net: NetworkId, ch: u16) -> Result<Vec<u8>, String> {
        self.network_read_channel(net, ch)
            .map_err(|e| format!("{e:?}"))
    }

    fn net_read_resident(&mut self, net: NetworkId, ch: u16) -> Result<Vec<u8>, String> {
        self.network_read_channel(net, ch)
            .map_err(|e| format!("{e:?}"))
    }

    /// Every remote request pays the user-domain command decode.
    fn charge_dispatch(&mut self, _: bool) {
        let (cost, clock) = (self.machine.cost, &mut self.machine.clock);
        clock.charge_instructions(&cost, CMD_DECODE_INSTR, Language::Pli);
    }

    /// The old design has no resident read: even its own answering
    /// service drains the channel through the ordinary user gate, from
    /// the ambient domain, after leaving its meter scope.
    fn deliver_directive(&mut self, net: NetworkId, bytes: &[u8], ch: u16) -> Result<(), String> {
        let cost = self.machine.cost;
        let g = self.machine.clock.enter(Subsystem::AnsweringService);
        self.machine.clock.charge_wire_frame(&cost, bytes.len());
        let got = self
            .network_receive(net, bytes)
            .map_err(|e| format!("{e:?}"));
        self.machine.clock.exit(g);
        let _ = self.network_read_channel(net, ch);
        got
    }
}
