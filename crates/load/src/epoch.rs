//! Continuous operation: the load engine segmented by crashes.
//!
//! The chaos composition (C1) runs one long logical stream — the same
//! stream [`crate::run_kernel_load`] executes uninterrupted — but cuts
//! it into *epochs*: every `ops_per_epoch` completed operations, power
//! fails mid-`sync_to_disk` with the final transfer torn or dropped, a
//! fresh system boots from the surviving disk image, the salvager
//! repairs and re-checks the hierarchy, the answering service re-admits
//! its surviving population, and the engine resumes the stream exactly
//! where it stopped. Both designs run the identical crash schedule, so
//! label-by-label parity remains the cross-design oracle even though
//! each design's recovery path is entirely its own.
//!
//! What recovery owes the population, precisely:
//!
//! * **Queued logins survive.** Parked admissions are user-domain
//!   bookkeeping; the crash costs them nothing but time. They are
//!   re-admitted in the original FIFO order as slots free up.
//! * **Live sessions are re-opened at their script positions.** The
//!   engine's `EngineState` — cursor, per-session op index, the
//!   values each session's file successfully grew by — survives the
//!   crash (it models the users at their terminals, who remember what
//!   they were doing). Each survivor logs in again and the harness
//!   restores the session's own file to its pre-crash logical contents
//!   before the stream continues.
//! * **The shared world is reconciled, not rebuilt.** Directories and
//!   segments that survived on disk are kept; whatever the torn write
//!   mangled is recreated or rewritten through the ordinary gates. The
//!   library's definitions and the shared segment's pages are rewritten
//!   unconditionally — cheap, idempotent, and independent of which
//!   epoch the crash hit.
//!
//! Every epoch boundary runs the oracle battery (meter conservation,
//! per-pack record conservation, wakeup exactness, salvage idempotence)
//! and every violation carries a replayable `seed=… plan=… schedule=…`
//! string. [`C1SelfCheck`] deliberately breaks the recovery obligations
//! so a harness test can prove the oracles catch a cheat.

use crate::design::Design;
use crate::hist::{Histogram, HistogramError};
use crate::run::{
    account_name, drive_until, file_name, gate_retry, restore_file, setup, shard_name, storm,
    Build, Deferred, Driver, EngineState, Harness, LoadSpec, SalvageProbe, Session, WorldCtx,
};
use crate::script::SessionScript;
use mx_explore::{PctPolicy, SeededRandomPolicy};
use mx_hw::meter::EdgeSet;
use mx_hw::{CrashWrite, SplitMix64, Word, PAGE_WORDS};
use mx_kernel::Kernel;
use mx_legacy::Supervisor;
use mx_sync::SchedulePolicy;

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which schedule drives the kernel between crashes. The old supervisor
/// has no policy hooks; its one inherent schedule is the parity
/// baseline every kernel policy is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C1Policy {
    /// The kernel's default dispatch order (the pinned-figure baseline).
    Fifo,
    /// Uniformly random choice points from the given seed.
    Random(u64),
    /// Probabilistic concurrency testing from the given seed.
    Pct(u64),
}

impl C1Policy {
    /// The `schedule=` component of a repro string.
    pub fn descriptor(&self) -> String {
        match *self {
            C1Policy::Fifo => "fifo".to_string(),
            C1Policy::Random(s) => format!("random:{s:#x}"),
            C1Policy::Pct(s) => format!("pct:{s:#x}"),
        }
    }

    /// A fresh policy instance for the given epoch. Each epoch gets its
    /// own deterministic stream so a replay of (seed, plan, schedule)
    /// reproduces every epoch's choices exactly, independent of how
    /// many choice points earlier epochs consumed.
    fn make(&self, epoch: u64) -> Option<Box<dyn SchedulePolicy>> {
        let mixed = |s: u64| s ^ (epoch + 1).wrapping_mul(MIX);
        match *self {
            C1Policy::Fifo => None,
            C1Policy::Random(s) => Some(Box::new(SeededRandomPolicy::new(mixed(s)))),
            C1Policy::Pct(s) => Some(Box::new(PctPolicy::new(mixed(s)))),
        }
    }
}

/// Deliberate recovery cheats, so the violation paths can be proven
/// live: a broken run must be *caught*, and the printed repro string
/// must reproduce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C1SelfCheck {
    /// Recover honestly.
    None,
    /// Drop the youngest queued login at the first recovery — the
    /// admission queue "forgets" one user, violating conservation of
    /// sessions (and, cross-design, label parity).
    DropQueuedLogin,
}

/// One chaos-composition run: the population, the stream seed, the
/// fault-plan seed, how many crashes cut the stream, and the schedule.
#[derive(Debug, Clone, Copy)]
pub struct C1Spec {
    /// Scripted sessions (the `crates/load` population).
    pub sessions: usize,
    /// Seed the session scripts expand from.
    pub seed: u64,
    /// Seed of the crash-mode stream (torn word counts, drop choices).
    pub plan_seed: u64,
    /// Crash/salvage/re-admit boundaries cut into the stream.
    pub crashes: u32,
    /// Kernel schedule between crashes.
    pub policy: C1Policy,
    /// Recovery honesty (see [`C1SelfCheck`]).
    pub self_check: C1SelfCheck,
}

impl C1Spec {
    /// An honest run.
    pub fn new(sessions: usize, seed: u64, plan_seed: u64, crashes: u32, policy: C1Policy) -> Self {
        Self {
            sessions,
            seed,
            plan_seed,
            crashes,
            policy,
            self_check: C1SelfCheck::None,
        }
    }

    /// Completed operations per epoch. Two rounds of the population
    /// keeps every crash inside the live phase: the stream averages
    /// about ten ops per session, so `crashes` boundaries at multiples
    /// of `2×sessions` land well before the stream drains.
    pub fn ops_per_epoch(&self) -> u64 {
        2 * self.sessions as u64
    }

    /// The replayable identity of a run on `design`.
    pub fn repro(&self, design: &str) -> String {
        format!(
            "seed={:#x} plan={:#x} schedule={} sessions={} crashes={} design={design}",
            self.seed,
            self.plan_seed,
            self.policy.descriptor(),
            self.sessions,
            self.crashes
        )
    }
}

/// The deterministic crash mode for epoch boundary `epoch`.
fn crash_mode(plan_seed: u64, epoch: u64) -> CrashWrite {
    let mut rng = SplitMix64::new(plan_seed ^ (epoch + 1).wrapping_mul(MIX));
    if rng.chance(1, 2) {
        CrashWrite::Dropped
    } else {
        CrashWrite::Torn {
            words: rng.range_usize(1, PAGE_WORDS),
        }
    }
}

/// One epoch's figures. For the final (uncrashed) segment the salvage
/// and recovery fields are zero and `crashed` is false.
#[derive(Debug, Clone, Copy)]
pub struct EpochReport {
    /// Cumulative engine ops at the end of the epoch.
    pub ops: u64,
    /// Simulated cycles the epoch's load phase took.
    pub cycles: u64,
    /// Kernel only: queued-wait total and dispatch samples this epoch
    /// (the probes reset at every boundary). `(0, 0)` for legacy.
    pub queue_delay: (u64, u64),
    /// Kernel only: peak event-queue depth this epoch.
    pub event_queue_hwm: usize,
    /// Sessions live at the boundary (the population the crash hits).
    pub live_at_crash: usize,
    /// Logins parked at the boundary (what recovery must not lose).
    pub queued_at_crash: usize,
    /// Problems the repairing salvage pass found in the crash image.
    pub salvage_problems: usize,
    /// Repairs it performed.
    pub salvage_repairs: usize,
    /// Cycles from recovery bootload through reconciliation.
    pub recovery_cycles: u64,
    /// Whether this epoch ended in a crash (false only for the tail).
    pub crashed: bool,
}

/// Everything one design's chaos run produced.
#[derive(Debug, Clone)]
pub struct C1Run {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Schedule descriptor (`fifo`, `random:…`, `pct:…`, or the
    /// legacy supervisor's `inherent`).
    pub schedule: String,
    /// Total engine ops completed.
    pub ops: u64,
    /// Sessions abandoned (reaped) rather than logged out.
    pub abandoned: usize,
    /// Deepest the admission queue got.
    pub queued_peak: usize,
    /// The full user-visible label stream, across every epoch.
    pub parity: Vec<String>,
    /// `parity` index at each crash boundary — ops-positioned, so the
    /// bounds are identical across designs and schedules.
    pub epoch_bounds: Vec<usize>,
    /// Per-epoch figures (crashed epochs first, then the tail).
    pub epochs: Vec<EpochReport>,
    /// Post-storm admission order (the FIFO fairness record).
    pub admitted_order: Vec<usize>,
    /// Per-operation service-time histogram across the whole run.
    pub hist: Histogram,
    /// Load-phase cycles summed over epochs.
    pub load_cycles: u64,
    /// Recovery cycles summed over crashes.
    pub recovery_cycles: u64,
    /// Everything the oracles caught. Empty = clean. Every line embeds
    /// the replayable `seed=… plan=… schedule=…` string.
    pub violations: Vec<String>,
    /// Observed inter-subsystem edges merged across every epoch's
    /// machine — load, crash, salvage, and reconcile traffic included.
    /// Each crash boundary replaces the machine (and its clock), so the
    /// ledger is folded in before every replacement.
    pub edges: EdgeSet,
}

impl C1Run {
    /// The run's complete deterministic transcript. Two runs of the
    /// same `(seed, plan, schedule)` triple must produce byte-identical
    /// transcripts; the report treats any difference as a violation.
    pub fn transcript(&self) -> String {
        let head = format!(
            "design={} schedule={} ops={} abandoned={} queued_peak={} \
             load_cycles={} recovery_cycles={}",
            self.design,
            self.schedule,
            self.ops,
            self.abandoned,
            self.queued_peak,
            self.load_cycles,
            self.recovery_cycles
        );
        let epochs = self.epochs.iter().enumerate().map(|(i, e)| {
            format!(
                "epoch {i}: ops={} cycles={} qd={:?} hwm={} live={} queued={} \
                 crashed={} problems={} repairs={} recovery={}",
                e.ops,
                e.cycles,
                e.queue_delay,
                e.event_queue_hwm,
                e.live_at_crash,
                e.queued_at_crash,
                e.crashed,
                e.salvage_problems,
                e.salvage_repairs,
                e.recovery_cycles
            )
        });
        let (adm, hist, par, vio) = (
            &self.admitted_order,
            &self.hist,
            &self.parity,
            &self.violations,
        );
        transcript(head, adm, &self.epoch_bounds, epochs, hist, par, vio)
    }
}

/// The transcript lines both run shapes share, around their own header
/// and epoch lines.
fn transcript(
    head: String,
    admitted: &[usize],
    bounds: &[usize],
    epochs: impl Iterator<Item = String>,
    hist: &Histogram,
    parity: &[String],
    violations: &[String],
) -> String {
    let mut lines = vec![
        head,
        format!("admitted={admitted:?}"),
        format!("bounds={bounds:?}"),
    ];
    lines.extend(epochs);
    lines.push(format!(
        "hist: samples={} p50={} p99={}",
        hist.samples(),
        render_pct(hist, 50),
        render_pct(hist, 99)
    ));
    lines.push(format!("parity={}", parity.join(",")));
    lines.extend(violations.iter().map(|v| format!("violation: {v}")));
    let mut s = lines.join("\n");
    s.push('\n');
    s
}

/// Terminal labels in the stream — must equal the scripted population,
/// or recovery lost someone.
fn terminals(parity: &[String]) -> usize {
    let terminal = |l: &&String| matches!(l.split(':').next(), Some("out" | "reap"));
    parity.iter().filter(terminal).count()
}

/// Renders a percentile with its typed failure states instead of
/// collapsing them to `0`: a run whose every epoch crashed before
/// retiring an op has an *empty* histogram, which is a different fact
/// from a measured zero-cycle percentile.
fn render_pct(hist: &Histogram, pct: u64) -> String {
    match hist.percentile(pct) {
        Ok(v) => v.to_string(),
        Err(HistogramError::Empty) => "empty".to_string(),
        Err(e) => format!("error:{e}"),
    }
}

// ----------------------------------------------------- online salvage --

/// Deliberate online-salvage cheats, mirroring [`C1SelfCheck`]: the
/// per-release oracle battery must catch a salvager that hands a
/// directory back to traffic before it is actually clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S1SelfCheck {
    /// Salvage honestly.
    None,
    /// At the first crash, tear the root quota cell behind the system's
    /// back and run a salvager that releases each directory *before*
    /// repairing its cell — the per-release recheck must fail at the
    /// root's own release.
    ReleaseBeforeCellRepair,
}

/// One online-salvage run: the C1 chaos composition, but recovery hands
/// the machine back to the population after reconciling only the
/// released prefix of the hierarchy; the salvager claims the rest one
/// directory at a time while the stream runs.
#[derive(Debug, Clone, Copy)]
pub struct S1Spec {
    /// Scripted sessions (the `crates/load` population).
    pub sessions: usize,
    /// Seed the session scripts expand from.
    pub seed: u64,
    /// Seed of the crash-mode stream (torn word counts, drop choices).
    pub plan_seed: u64,
    /// Crash/online-salvage/re-admit boundaries cut into the stream.
    pub crashes: u32,
    /// Kernel schedule between crashes.
    pub policy: C1Policy,
    /// Salvager honesty (see [`S1SelfCheck`]).
    pub self_check: S1SelfCheck,
}

impl S1Spec {
    /// An honest run.
    pub fn new(sessions: usize, seed: u64, plan_seed: u64, crashes: u32, policy: C1Policy) -> Self {
        Self {
            sessions,
            seed,
            plan_seed,
            crashes,
            policy,
            self_check: S1SelfCheck::None,
        }
    }

    /// Completed operations per epoch (see [`C1Spec::ops_per_epoch`]).
    pub fn ops_per_epoch(&self) -> u64 {
        self.base().ops_per_epoch()
    }

    /// The replayable identity of a run on `design`.
    pub fn repro(&self, design: &str) -> String {
        format!("{} mode=online", self.base().repro(design))
    }

    /// The same crash schedule as a stop-the-world run.
    fn base(&self) -> C1Spec {
        C1Spec::new(
            self.sessions,
            self.seed,
            self.plan_seed,
            self.crashes,
            self.policy,
        )
    }
}

/// One online-salvage epoch's figures. The salvage fields describe the
/// crash at the *end* of this epoch; they accumulate while the next
/// segment's traffic runs concurrently with the repair and are patched
/// in once the salvage drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct S1EpochReport {
    /// Cumulative engine ops at the end of the epoch.
    pub ops: u64,
    /// Simulated cycles the epoch's load phase took.
    pub cycles: u64,
    /// Sessions live at the boundary (the population the crash hits).
    pub live_at_crash: usize,
    /// Logins parked at the boundary (what recovery must not lose).
    pub queued_at_crash: usize,
    /// Whether this epoch ended in a crash (false only for the tail).
    pub crashed: bool,
    /// Problems the online salvager found in the crash image.
    pub salvage_problems: usize,
    /// Repairs it performed.
    pub salvage_repairs: usize,
    /// Directories claimed, repaired, and released one at a time.
    pub dirs_released: u32,
    /// Engine ops completed while the salvager was still running — the
    /// overlap a stop-the-world salvage forbids by construction.
    pub overlap_ops: u64,
    /// Cycles from `begin_online_salvage` to the salvager's `Done`.
    pub salvage_window: u64,
    /// Ops that hit a `SalvageBusy` barrier at least once.
    pub blocked_ops: u64,
    /// Total barrier retries (each retry steps the salvager once).
    pub retries: u64,
    /// Cycles spent blocked behind barriers, summed over blocked ops.
    pub blocked_cycles: u64,
    /// Cycles from salvage begin to the first op completed after the
    /// stream resumed.
    pub first_op_cycles: u64,
    /// Cycles from recovery bootload to the stream resuming — the
    /// number to compare against C1's stop-the-world `recovery_cycles`,
    /// which additionally contains two full salvage passes.
    pub recovery_cycles: u64,
}

/// Everything one design's online-salvage run produced.
#[derive(Debug, Clone)]
pub struct S1Run {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Schedule descriptor (`fifo`, `random:…`, `pct:…`, `inherent`).
    pub schedule: String,
    /// Total engine ops completed.
    pub ops: u64,
    /// Sessions abandoned (reaped) rather than logged out.
    pub abandoned: usize,
    /// Deepest the admission queue got.
    pub queued_peak: usize,
    /// The full user-visible label stream, across every epoch.
    pub parity: Vec<String>,
    /// `parity` index at each crash boundary.
    pub epoch_bounds: Vec<usize>,
    /// Per-epoch figures (crashed epochs first, then the tail).
    pub epochs: Vec<S1EpochReport>,
    /// Post-storm admission order (the FIFO fairness record).
    pub admitted_order: Vec<usize>,
    /// Per-operation service-time histogram across the whole run —
    /// barrier stalls are *inside* the blocked ops' samples.
    pub hist: Histogram,
    /// Load-phase cycles summed over epochs.
    pub load_cycles: u64,
    /// Bootload-to-stream-resume cycles summed over crashes.
    pub recovery_cycles: u64,
    /// Everything the oracles caught. Empty = clean.
    pub violations: Vec<String>,
    /// Observed inter-subsystem edges merged across every epoch's
    /// machine (see [`C1Run::edges`]).
    pub edges: EdgeSet,
}

impl S1Run {
    /// The run's complete deterministic transcript (see
    /// [`C1Run::transcript`]).
    pub fn transcript(&self) -> String {
        let head = format!(
            "design={} schedule={} mode=online ops={} abandoned={} queued_peak={} \
             load_cycles={} recovery_cycles={}",
            self.design,
            self.schedule,
            self.ops,
            self.abandoned,
            self.queued_peak,
            self.load_cycles,
            self.recovery_cycles
        );
        let epochs = self.epochs.iter().enumerate().map(|(i, e)| {
            format!(
                "epoch {i}: ops={} cycles={} live={} queued={} crashed={} problems={} \
                 repairs={} released={} overlap_ops={} window={} blocked={} retries={} \
                 blocked_cycles={} first_op={} recovery={}",
                e.ops,
                e.cycles,
                e.live_at_crash,
                e.queued_at_crash,
                e.crashed,
                e.salvage_problems,
                e.salvage_repairs,
                e.dirs_released,
                e.overlap_ops,
                e.salvage_window,
                e.blocked_ops,
                e.retries,
                e.blocked_cycles,
                e.first_op_cycles,
                e.recovery_cycles
            )
        });
        let (adm, hist, par, vio) = (
            &self.admitted_order,
            &self.hist,
            &self.parity,
            &self.violations,
        );
        transcript(head, adm, &self.epoch_bounds, epochs, hist, par, vio)
    }
}

// -------------------------------------------------- the one epoch loop --

/// One crash-segmented run, C1 or S1, as the epoch loop sees it.
struct Plan {
    /// The population, seeds, crash count, schedule, and C1 self-check.
    spec: C1Spec,
    /// Online salvage (S1) instead of two stop-the-world passes (C1).
    online: bool,
    /// The S1 self-check: a salvager that releases before repairing.
    release_early: bool,
    /// The replayable identity every violation carries.
    repro: String,
}

/// One epoch's figures, superset of both report shapes.
#[derive(Clone, Copy, Default)]
struct Figures {
    report: S1EpochReport,
    queue_delay: (u64, u64),
    event_queue_hwm: usize,
}

impl From<&Figures> for EpochReport {
    fn from(f: &Figures) -> Self {
        let r = &f.report;
        EpochReport {
            ops: r.ops,
            cycles: r.cycles,
            queue_delay: f.queue_delay,
            event_queue_hwm: f.event_queue_hwm,
            live_at_crash: r.live_at_crash,
            queued_at_crash: r.queued_at_crash,
            salvage_problems: r.salvage_problems,
            salvage_repairs: r.salvage_repairs,
            recovery_cycles: r.recovery_cycles,
            crashed: r.crashed,
        }
    }
}

/// What the epoch loop hands back to be shaped into a [`C1Run`] or an
/// [`S1Run`].
#[derive(Default)]
struct Outcome {
    st: EngineState,
    epochs: Vec<Figures>,
    epoch_bounds: Vec<usize>,
    load_cycles: u64,
    recovery_cycles: u64,
    violations: Vec<String>,
    /// The edge ledger outlives the machine: each crash boundary
    /// replaces the clock, so the ledger is folded in before every
    /// replacement.
    edges: EdgeSet,
}

impl Outcome {
    fn note(&mut self, violation: String) {
        self.violations.push(violation);
    }

    /// The end-of-run checks: no login stranded in the queue, and every
    /// scripted session reached a terminal label.
    fn close(mut self, plan: &Plan, design: &str, stranded: usize) -> Self {
        let repro = &plan.repro;
        if stranded > 0 {
            self.violations.push(format!(
                "{design} final: {stranded} logins stranded in the admission queue [{repro}]"
            ));
        }
        let ends = terminals(&self.st.parity);
        if ends != plan.spec.sessions {
            self.violations.push(format!(
                "{design} final: {ends} sessions reached a terminal label but {} were scripted \
                 — recovery lost sessions [{repro}]",
                plan.spec.sessions
            ));
        }
        self
    }
}

/// Finishes the epoch that began at `base`: drains any salvage still
/// in flight, harvests its figures into the report of the epoch whose
/// crash spawned it (re-tagging the probe's oracle violations with that
/// epoch and the replayable repro string), runs the boundary battery
/// (tagged `at`), and measures the epoch.
fn end_epoch<D: Design>(
    d: &mut Driver<D>,
    out: &mut Outcome,
    repro: &str,
    at: &str,
    base: u64,
) -> Figures {
    d.drain_salvage();
    let (prev, probe) = (out.epochs.len().wrapping_sub(1), &mut d.salvage);
    if let (Some(last), Some(begin)) = (out.epochs.last_mut(), probe.begin_at) {
        let tag = format!("{} epoch {prev} online salvage", D::NAME);
        let r = &mut last.report;
        r.salvage_problems = probe.problems;
        r.salvage_repairs = probe.repairs;
        r.dirs_released = probe.dirs_released;
        r.overlap_ops = probe.ops_overlapped;
        r.blocked_ops = probe.blocked_ops;
        r.retries = probe.retries;
        r.blocked_cycles = probe.blocked_cycles;
        r.salvage_window = probe.done_at.map_or(0, |t| t.saturating_sub(begin));
        r.first_op_cycles = probe.first_op_at.map_or(0, |t| t.saturating_sub(begin));
        if probe.done_at.is_none() {
            let msg = format!("{tag}: online salvage never completed [{repro}]");
            out.violations.push(msg);
        }
        for v in probe.violations.drain(..) {
            out.violations.push(format!("{tag}: {v} [{repro}]"));
        }
    }
    for v in d.sys.oracle() {
        out.note(format!("{} {at}: {v} [{repro}]", D::NAME));
    }
    let now = d.now();
    out.load_cycles += now - base;
    let (queue_delay, event_queue_hwm) = d.sys.queue_probes();
    Figures {
        report: S1EpochReport {
            ops: out.st.ops,
            cycles: now - base,
            live_at_crash: out.st.live.len(),
            queued_at_crash: D::queued(&d.front),
            ..S1EpochReport::default()
        },
        queue_delay,
        event_queue_hwm,
    }
}

/// The crash-segmented stream on design `D`: every `ops_per_epoch`
/// completed ops, power fails mid-sync, a fresh system boots from the
/// surviving image, recovery salvages (stop-the-world, or online under
/// the resumed stream) and reconciles, and the stream resumes exactly
/// where it stopped.
fn run_epochs<D: Design>(plan: &Plan) -> Outcome {
    let (tag, spec) = (D::NAME, &plan.spec);
    let repro = plan.repro.as_str();
    let load = LoadSpec::continuous(spec.sessions, spec.seed);
    let scripts = load.scripts();
    let mut out = Outcome::default();

    let (mut d, mut ctx) = setup::<D>(&load);
    // The durability point: everything the world build created is on
    // disk before the first crash can happen.
    d.sys.sync().expect("setup sync");
    d.sys.reset_probes();
    d.sys.set_policy(spec.policy.make(0));
    storm(&mut d, &scripts, &mut out.st);

    let mut epoch_base = d.now();
    let mut drained = false;
    for e in 0..u64::from(spec.crashes) {
        let stop = Some((e + 1) * spec.ops_per_epoch());
        drained = drive_until(&mut d, &scripts, &mut out.st, stop);
        let mut fig = end_epoch(&mut d, &mut out, repro, &format!("epoch {e}"), epoch_base);
        if drained {
            out.epochs.push(fig);
            break;
        }
        out.epoch_bounds.push(out.st.parity.len());
        let fail = |what: String| format!("{tag} epoch {e}: {what} [{repro}]");

        // ---- the crash: beacon, arm, power fails mid-sync ----
        let beacon = Word::new(0xBEAC_0000 + e);
        if let Err(err) = d.sys.write(ctx.drv, ctx.shared_segno, 1, beacon) {
            out.note(fail(format!("beacon write: {err:?}")));
        }
        let mode = crash_mode(spec.plan_seed, e);
        d.sys
            .machine_mut()
            .faults
            .crash_after_further_writes(1, mode);
        let sync = d.sys.sync();
        let m = d.sys.machine();
        out.edges.merge(m.clock.edge_set());
        if sync.is_ok() || m.faults.halted().is_none() {
            out.note(fail("crash plan failed to fire during sync".to_string()));
            out.epochs.push(fig);
            return out.close(plan, tag, 0);
        }
        let image = m.disks.clone();
        let Driver {
            mut front,
            sessions: old_sessions,
            ..
        } = d;
        let pending_before = D::pending(&front);
        D::crash_front(&mut front);

        // ---- recovery: bootload, salvage, reconcile ----
        let mut sys = match D::boot(&load.shape(), Some(image)) {
            Ok(sys) => sys,
            Err(err) => {
                out.note(fail(format!("recovery bootload failed: {err}")));
                out.epochs.push(fig);
                return out.close(plan, tag, 0);
            }
        };
        let mut probe = SalvageProbe::default();
        if plan.online {
            // Quarantine the hierarchy and resume before it is repaired.
            if let Err(msg) = sys.begin_online(e == 0 && plan.release_early) {
                out.note(fail(msg));
            }
            probe.begin_at = Some(sys.machine().clock.now());
        } else {
            match (sys.salvage(true), sys.salvage(false)) {
                (Ok(repaired), Ok(check)) => {
                    fig.report.salvage_problems = repaired.problems;
                    fig.report.salvage_repairs = repaired.repairs;
                    if !check.clean {
                        out.note(fail(format!(
                            "salvage not idempotent — second pass sees {}",
                            check.found
                        )));
                    }
                }
                (r, c) => out.note(fail(format!("salvage errored: {r:?} / {c:?}"))),
            }
            for v in sys.oracle() {
                out.note(format!("{tag} epoch {e} post-salvage: {v} [{repro}]"));
            }
        }
        let mut next = Driver {
            sys,
            front,
            sessions: Vec::new(),
            dirs: Vec::new(),
            salvage: probe,
            deferred: Vec::new(),
        };
        match reconcile(
            &mut next,
            &load,
            &scripts,
            &out.st,
            &old_sessions,
            plan.online,
        ) {
            Ok(nctx) => ctx = nctx,
            Err(msg) => {
                out.note(fail(format!("reconcile: {msg}")));
                for v in next.salvage.violations.drain(..) {
                    out.note(format!("{tag} epoch {e} online salvage: {v} [{repro}]"));
                }
                out.epochs.push(fig);
                return out.close(plan, tag, 0);
            }
        }
        if D::pending(&next.front) != pending_before {
            out.note(fail(format!(
                "admission queue changed across recovery — {pending_before:?} became {:?}",
                D::pending(&next.front)
            )));
        }
        d = next;
        if e == 0 && spec.self_check == C1SelfCheck::DropQueuedLogin {
            D::drop_youngest(&mut d.front);
        }
        // Apply at once whatever the reconcile's own salvager stepping
        // already released — a fresh stream op must never see a
        // released-but-unwiped shard.
        d.attempt_deferred();
        fig.report.recovery_cycles = d.now();
        out.recovery_cycles += fig.report.recovery_cycles;
        fig.report.crashed = true;
        out.epochs.push(fig);

        d.sys.set_policy(spec.policy.make(e + 1));
        // Recovery and reconciliation traffic must not leak into the
        // next epoch's figures.
        d.sys.reset_probes();
        epoch_base = d.now();
    }

    if !drained {
        drive_until(&mut d, &scripts, &mut out.st, None);
        let fig = end_epoch(&mut d, &mut out, repro, "final", epoch_base);
        out.epochs.push(fig);
    }
    out.edges.merge(d.sys.machine().clock.edge_set());
    let stranded = D::queued(&d.front);
    out.close(plan, tag, stranded)
}

/// Rebuilds the user world after a recovery bootload: re-registers the
/// (in-core, therefore lost) accounts, re-opens the driver session,
/// reconciles the shared fixtures and shard directories against
/// whatever survived on disk, and re-opens every surviving session at
/// its script position. Every gate call retries through `SalvageBusy`
/// by stepping the salvager, so the same steps run against a live
/// online salvager (the driver re-login forces the root and
/// `>processes` out of quarantine — nothing is admitted against an
/// unreleased root).
///
/// Stop-the-world, the population's own files are wiped and every
/// survivor's file is replayed here. Online they are NOT touched: the
/// shard may still be quarantined, so each shard's share is parked in a
/// [`Deferred`] and applied the moment the salvager releases (or is
/// proven to have dropped) that shard, and the stream resumes before
/// the hierarchy is fully repaired.
fn reconcile<D: Design>(
    d: &mut Driver<D>,
    load: &LoadSpec,
    scripts: &[SessionScript],
    st: &EngineState,
    old_sessions: &[Option<Session<D>>],
    online: bool,
) -> Result<WorldCtx<D::Pid>, String> {
    let (sys, front, probe) = (&mut d.sys, &mut d.front, &mut d.salvage);
    sys.register(front, "drv");
    for idx in 0..load.sessions {
        sys.register(front, &account_name(idx));
    }
    let drv = gate_retry(sys, probe, "driver re-login", |d| d.login(front, "drv"))?;
    let mut b = Build { sys, probe, drv };
    let shared_segno = b.fixtures(false)?;

    // Shard directories: keep survivors (their salvaged quota cells are
    // the disk truth — neither design's set-quota call is idempotent),
    // recreate and re-cap only what vanished.
    for j in 0..load.shards() {
        let name = shard_name(j);
        let dir = match D::find_shard(&mut b, &name) {
            Some(dir) => dir,
            None => b.dir(&name, load.shard_quota())?,
        };
        d.dirs.push(dir);
    }

    if !online {
        // Wipe the population's own files. A survivor's file is about to
        // be replayed to its exact pre-crash contents under the session's
        // new process; finished sessions already deleted theirs;
        // abandoned leftovers are reclaimed (recovery's one permitted
        // tidy-up — both designs do it identically, so parity is
        // unaffected).
        for (idx, script) in scripts.iter().enumerate() {
            let (dir, name) = (d.dirs[script.shard], shard_name(script.shard));
            let _ = sys.delete_file(drv, dir, &name, &file_name(idx));
        }
    }

    // `own` distinguishes create-succeeded (file exists logically, even
    // with zero pages grown) from never-created — a difference invisible
    // in the label stream but load-bearing for replay.
    let had_own = |idx: usize| old_sessions[idx].as_ref().is_some_and(|o| o.own.is_some());
    d.sessions = (0..load.sessions).map(|_| None).collect();
    for lv in &st.live {
        let idx = lv.idx;
        let pid = gate_retry(sys, probe, &format!("survivor u{idx} re-login"), |d| {
            d.login(front, &account_name(idx))
        })?;
        let env = sys.open_env(pid);
        let mut own = None;
        if !online && had_own(idx) {
            let shard = scripts[idx].shard;
            let name = shard_name(shard);
            let dir = sys
                .file_dir(pid, d.dirs[shard], &name)
                .map_err(|e| format!("survivor u{idx} shard resolve: {e:?}"))?;
            own = Some(restore_file(sys, pid, dir, &name, idx, &lv.grown_vals)?);
        }
        d.sessions[idx] = Some(Session {
            own,
            ..Session::new(pid, env)
        });
    }

    if online {
        d.deferred = (0..load.shards())
            .map(|j| Deferred {
                shard: j,
                drv,
                quota: load.shard_quota(),
                wipe: (0..load.sessions)
                    .filter(|idx| scripts[*idx].shard == j)
                    .collect(),
                restore: st
                    .live
                    .iter()
                    .filter(|lv| scripts[lv.idx].shard == j && had_own(lv.idx))
                    .map(|lv| (lv.idx, lv.grown_vals.clone()))
                    .collect(),
            })
            .collect();
    }
    Ok(WorldCtx { drv, shared_segno })
}

fn run_c1<D: Design>(spec: &C1Spec) -> C1Run {
    let plan = Plan {
        spec: *spec,
        online: false,
        release_early: false,
        repro: spec.repro(D::NAME),
    };
    let out = run_epochs::<D>(&plan);
    C1Run {
        design: D::NAME,
        schedule: D::schedule_name(spec.policy),
        ops: out.st.ops,
        abandoned: out.st.abandoned,
        queued_peak: out.st.queued_peak,
        parity: out.st.parity,
        epoch_bounds: out.epoch_bounds,
        epochs: out.epochs.iter().map(EpochReport::from).collect(),
        admitted_order: out.st.admitted_order,
        hist: out.st.hist,
        load_cycles: out.load_cycles,
        recovery_cycles: out.recovery_cycles,
        violations: out.violations,
        edges: out.edges,
    }
}

fn run_s1<D: Design>(spec: &S1Spec) -> S1Run {
    let plan = Plan {
        spec: spec.base(),
        online: true,
        release_early: spec.self_check == S1SelfCheck::ReleaseBeforeCellRepair,
        repro: spec.repro(D::NAME),
    };
    let out = run_epochs::<D>(&plan);
    S1Run {
        design: D::NAME,
        schedule: D::schedule_name(spec.policy),
        ops: out.st.ops,
        abandoned: out.st.abandoned,
        queued_peak: out.st.queued_peak,
        parity: out.st.parity,
        epoch_bounds: out.epoch_bounds,
        epochs: out.epochs.iter().map(|f| f.report).collect(),
        admitted_order: out.st.admitted_order,
        hist: out.st.hist,
        load_cycles: out.load_cycles,
        recovery_cycles: out.recovery_cycles,
        violations: out.violations,
        edges: out.edges,
    }
}

/// Runs the chaos composition on the new kernel.
pub fn run_kernel_c1(spec: &C1Spec) -> C1Run {
    run_c1::<Kernel>(spec)
}

/// Runs the chaos composition on the 1974 supervisor. Its one inherent
/// schedule is the baseline every kernel policy run is compared to.
pub fn run_legacy_c1(spec: &C1Spec) -> C1Run {
    run_c1::<Supervisor>(spec)
}

/// Runs the online-salvage composition on the new kernel: C1's crash
/// schedule, but every recovery re-admits the population immediately
/// and repairs the hierarchy one directory at a time underneath the
/// resumed stream.
pub fn run_kernel_s1(spec: &S1Spec) -> S1Run {
    run_s1::<Kernel>(spec)
}

/// Runs the online-salvage composition on the 1974 supervisor.
pub fn run_legacy_s1(spec: &S1Spec) -> S1Run {
    run_s1::<Supervisor>(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: C1Policy) -> C1Spec {
        C1Spec::new(8, 0xC1, 0xFA11, 2, policy)
    }

    #[test]
    fn kernel_chaos_run_is_clean_and_deterministic() {
        let spec = small(C1Policy::Fifo);
        let a = run_kernel_c1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(
            a.epochs.iter().filter(|e| e.crashed).count(),
            2,
            "both crashes fired"
        );
        let b = run_kernel_c1(&spec);
        assert_eq!(a.transcript(), b.transcript(), "byte-identical rerun");
    }

    #[test]
    fn legacy_chaos_run_is_clean_and_deterministic() {
        let spec = small(C1Policy::Fifo);
        let a = run_legacy_c1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.epochs.iter().filter(|e| e.crashed).count(), 2);
        let b = run_legacy_c1(&spec);
        assert_eq!(a.transcript(), b.transcript());
    }

    #[test]
    fn designs_agree_label_by_label_across_crashes() {
        let spec = small(C1Policy::Fifo);
        let k = run_kernel_c1(&spec);
        let l = run_legacy_c1(&spec);
        assert_eq!(k.parity, l.parity, "cross-design parity across crashes");
        assert_eq!(k.epoch_bounds, l.epoch_bounds, "ops-positioned bounds");
        assert_eq!(k.admitted_order, l.admitted_order, "FIFO fairness");
    }

    #[test]
    fn adversarial_schedules_preserve_parity() {
        let spec = small(C1Policy::Fifo);
        let l = run_legacy_c1(&spec);
        for policy in [C1Policy::Random(7), C1Policy::Pct(7)] {
            let k = run_kernel_c1(&C1Spec { policy, ..spec });
            assert_eq!(k.violations, Vec::<String>::new(), "{policy:?}");
            assert_eq!(k.parity, l.parity, "{policy:?} diverged from baseline");
            assert_eq!(k.admitted_order, l.admitted_order, "{policy:?} fairness");
        }
    }

    fn small_s1(policy: C1Policy) -> S1Spec {
        S1Spec::new(8, 0xC1, 0xFA11, 2, policy)
    }

    #[test]
    fn kernel_online_salvage_serves_during_repair() {
        let spec = small_s1(C1Policy::Fifo);
        let a = run_kernel_s1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.epochs.iter().filter(|e| e.crashed).count(), 2);
        let released: u32 = a.epochs.iter().map(|e| e.dirs_released).sum();
        assert!(
            released > 0,
            "the salvager released directories one at a time"
        );
        let b = run_kernel_s1(&spec);
        assert_eq!(a.transcript(), b.transcript(), "byte-identical rerun");
    }

    #[test]
    fn legacy_online_salvage_serves_during_repair() {
        let spec = small_s1(C1Policy::Fifo);
        let a = run_legacy_s1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.epochs.iter().filter(|e| e.crashed).count(), 2);
        let b = run_legacy_s1(&spec);
        assert_eq!(a.transcript(), b.transcript());
    }

    #[test]
    fn online_salvage_designs_agree_label_by_label() {
        let spec = small_s1(C1Policy::Fifo);
        let k = run_kernel_s1(&spec);
        let l = run_legacy_s1(&spec);
        assert_eq!(
            k.parity, l.parity,
            "cross-design parity under online salvage"
        );
        assert_eq!(k.epoch_bounds, l.epoch_bounds);
        assert_eq!(k.admitted_order, l.admitted_order, "FIFO fairness");
    }

    #[test]
    fn online_salvage_matches_stop_the_world_labels() {
        // The stream's user-visible outcome must not depend on whether
        // recovery repaired everything up front or underneath traffic.
        let c1 = run_kernel_c1(&small(C1Policy::Fifo));
        let s1 = run_kernel_s1(&small_s1(C1Policy::Fifo));
        assert_eq!(s1.parity, c1.parity, "online salvage changed an outcome");
        assert_eq!(s1.admitted_order, c1.admitted_order);
    }

    #[test]
    fn release_before_cell_repair_cheat_is_caught() {
        let mut spec = small_s1(C1Policy::Fifo);
        spec.self_check = S1SelfCheck::ReleaseBeforeCellRepair;
        let broken = run_kernel_s1(&spec);
        assert!(
            !broken.violations.is_empty(),
            "the per-release battery must catch the cheat"
        );
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.contains("seed=") && v.contains("plan=") && v.contains("schedule=")),
            "violations must carry the replayable repro string: {:?}",
            broken.violations
        );
        let replay = run_kernel_s1(&spec);
        assert_eq!(broken.violations, replay.violations);
    }

    #[test]
    fn dropped_queued_login_is_caught_with_replayable_repro() {
        let mut spec = small(C1Policy::Fifo);
        spec.self_check = C1SelfCheck::DropQueuedLogin;
        let broken = run_kernel_c1(&spec);
        assert!(
            !broken.violations.is_empty(),
            "the cheat must be caught by the oracles"
        );
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.contains("seed=") && v.contains("plan=") && v.contains("schedule=")),
            "violations must carry the replayable repro string: {:?}",
            broken.violations
        );
        // The printed triple replays to the identical violations.
        let replay = run_kernel_c1(&spec);
        assert_eq!(broken.violations, replay.violations);
    }
}
