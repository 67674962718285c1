//! The load engine: one session stream, two designs, one report shape.
//!
//! The engine owns every scheduling-free decision — which session acts
//! next (round robin over the live set), when the scripted scheduler
//! pass happens (every fourth operation), when a finished session's
//! slot is re-offered to the admission queue — and delegates the
//! design-specific work to a `Harness`. The one-machine harness,
//! `Driver`, is written once over the `Design` trait, so both supervisors
//! execute the byte-identical logical stream through the same code,
//! which is what makes the user-visible parity assertion meaningful.

use crate::design::{Design, Res, Shape, Step};
use crate::hist::Histogram;
use crate::script::{session_script, SessionOp, SessionScript, LIB_SYMBOLS, SHARED_PAGES};
use mx_explore::oracle;
use mx_hw::meter::{EdgeSet, MeterSnapshot};
use mx_hw::{Word, PAGE_WORDS};
use mx_kernel::Kernel;
use mx_legacy::Supervisor;
use mx_sync::SchedulePolicy;

pub(crate) const PW: u32 = PAGE_WORDS as u32;

/// What to run: how many sessions, from which seed, on what storage.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Concurrent users scripted (admission caps how many are live).
    pub sessions: usize,
    /// Seed every script expands from.
    pub seed: u64,
    /// Small packs and tight quotas, so grows hit past-quota and
    /// full-pack outcomes; the default sizes storage to the population
    /// and measures scheduling and paging instead.
    pub tight_storage: bool,
    /// With `tight_storage`: keep the tight shard quotas and the small
    /// process table, but give the packs room. The chaos-composition
    /// harness (C1) uses this shape: quota outcomes and admission
    /// pressure stay adversarial, while `AllPacksFull` — whose exact
    /// onset depends on each design's internal record allocations, which
    /// recovery legitimately perturbs — stays out of the user-visible
    /// stream. `>processes` also accumulates one state segment per login
    /// across recovery epochs, which the roomier root quota absorbs.
    pub(crate) headroom: bool,
}

impl LoadSpec {
    /// An ample-storage spec (the L1 scaling sweep shape).
    pub fn new(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            seed,
            tight_storage: false,
            headroom: false,
        }
    }

    /// A tight-storage spec (the differential-fuzz shape).
    pub fn tight(sessions: usize, seed: u64) -> Self {
        Self {
            tight_storage: true,
            ..Self::new(sessions, seed)
        }
    }

    /// The continuous-operation spec (the C1 chaos-composition shape):
    /// tight quotas and a small process table under a long-horizon run
    /// segmented by crashes, with enough pack room that storage survives
    /// several epochs of recovery traffic.
    pub fn continuous(sessions: usize, seed: u64) -> Self {
        Self {
            headroom: true,
            ..Self::tight(sessions, seed)
        }
    }

    pub(crate) fn shards(&self) -> usize {
        if self.tight_storage {
            2
        } else {
            8
        }
    }

    pub(crate) fn shard_quota(&self) -> u32 {
        if self.tight_storage {
            3
        } else {
            // Roomy enough that abandoned sessions' surviving files never
            // starve a shard across the whole population.
            (self.sessions as u32).max(10)
        }
    }

    /// The machine both designs boot for this spec.
    pub(crate) fn shape(&self) -> Shape {
        if !self.tight_storage {
            let n = self.sessions as u32;
            return Shape {
                records_per_pack: (3 * n).max(1024),
                toc_slots_per_pack: (2 * n).max(256),
                root_quota: (2 * n + 256).max(1500),
                ..Shape::DEFAULT
            };
        }
        let (records_per_pack, toc_slots_per_pack, root_quota) = if self.headroom {
            (64, 96, 512)
        } else {
            (12, 24, 96)
        };
        Shape {
            frames: 96,
            packs: 2,
            records_per_pack,
            toc_slots_per_pack,
            max_processes: 4,
            root_quota,
        }
    }

    /// The overflow pack this spec attaches after boot, if any, as
    /// `(records, toc_slots)`. Recovery re-attaches the same shape.
    pub(crate) fn overflow_pack(&self) -> Option<(u32, u32)> {
        if !self.tight_storage {
            None
        } else if self.headroom {
            // Room for several epochs of relocation targets plus the
            // state segments each recovery's re-logins accrete.
            Some((128, 96))
        } else {
            // A modest overflow pack: relocation has a target, but a
            // heavy seed can still fill everything — the full-pack
            // outcome.
            Some((48, 24))
        }
    }

    pub(crate) fn scripts(&self) -> Vec<SessionScript> {
        (0..self.sessions)
            .map(|i| session_script(self.seed, i, self.shards()))
            .collect()
    }
}

/// Everything one design's run of a [`LoadSpec`] produced.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Simulated cycles spent in the load phase (setup excluded).
    pub cycles: u64,
    /// Cycles the shared setup (world build, registration) took.
    pub setup_cycles: u64,
    /// Operations completed (the histogram's sample population).
    pub ops: u64,
    /// Sessions driven to completion (always the full population —
    /// queued logins are admitted as slots free up, never dropped).
    pub sessions: usize,
    /// Sessions that were abandoned and reaped rather than logged out.
    pub abandoned: usize,
    /// Deepest the admission queue got during the login storm.
    pub queued_peak: usize,
    /// The user-visible outcome labels, in execution order. Identical
    /// across designs for the same spec, or the harness has found a bug.
    pub parity: Vec<String>,
    /// Per-operation service-time histogram (cycles).
    pub hist: Histogram,
    /// User operations retired per real processor during the load phase.
    pub per_cpu_ops: Vec<u64>,
    /// Kernel only: total VP-switch intervals spent runnable-but-queued,
    /// and the dispatches that averages over. `(0, 0)` for legacy.
    pub queue_delay: (u64, u64),
    /// Kernel only: peak depth of the real-memory event queue.
    pub event_queue_hwm: usize,
    /// Per-subsystem cycle attribution over the load phase.
    pub meter: MeterSnapshot,
    /// Observed inter-subsystem edges (invocations and shared-data
    /// writes) over the load phase, for the lattice gate.
    pub edges: EdgeSet,
    /// Oracle battery results (meter conservation, per-pack record
    /// conservation, wakeup exactness, TLB closure). Empty = clean.
    pub violations: Vec<String>,
    /// Per-session latency samples in execution order, indexed by the
    /// session index the run was given. The sharded engine uses these to
    /// prove worker-count invariance sample-for-sample, not just in the
    /// bucketed histogram.
    pub user_samples: Vec<Vec<u64>>,
}

impl LoadRun {
    /// Operations retired per million simulated cycles.
    pub fn ops_per_mcycle(&self) -> f64 {
        self.ops as f64 * 1e6 / self.cycles.max(1) as f64
    }

    /// Sessions completed per million simulated cycles.
    pub fn sessions_per_mcycle(&self) -> f64 {
        self.sessions as f64 * 1e6 / self.cycles.max(1) as f64
    }

    /// The cross-design check: both runs' oracle batteries plus
    /// position-by-position user-visible parity. Empty = the designs
    /// agree and both conserved everything.
    pub fn check_pair(kernel: &LoadRun, legacy: &LoadRun) -> Vec<String> {
        let mut out = Vec::new();
        out.extend(kernel.violations.iter().map(|v| format!("kernel: {v}")));
        out.extend(legacy.violations.iter().map(|v| format!("legacy: {v}")));
        let (k, l) = (&kernel.parity, &legacy.parity);
        out.extend(parity_gaps("kernel", k, "legacy", l));
        out
    }
}

/// Label-stream parity between runs `an` and `bn`: a length mismatch,
/// and the first label that differs.
pub(crate) fn parity_gaps(an: &str, a: &[String], bn: &str, b: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    if a.len() != b.len() {
        out.push(format!(
            "parity: {an} emitted {} labels, {bn} {}",
            a.len(),
            b.len()
        ));
    }
    if let Some((i, (x, y))) = a.iter().zip(b).enumerate().find(|(_, (x, y))| x != y) {
        out.push(format!(
            "parity: label {i} differs — {an} '{x}', {bn} '{y}'"
        ));
    }
    out
}

// --------------------------------------------------------- the engine --

/// A script op made concrete by the engine (page picks reduced against
/// the session's actual growth; paths left symbolic for the driver).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Action {
    Link(usize),
    Resolve(ResolveTarget),
    Grow { page: u32, val: u64 },
    ReadOwn { page: u32 },
    ReadShared { page: u32 },
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ResolveTarget {
    Lib,
    Shared,
    Shard(usize),
}

impl ResolveTarget {
    /// The root entry the target names.
    pub(crate) fn name(self) -> String {
        match self {
            ResolveTarget::Lib => "lib".to_string(),
            ResolveTarget::Shared => "shared".to_string(),
            ResolveTarget::Shard(j) => shard_name(j),
        }
    }
}

/// What the engine drives: one machine ([`Driver`]) or a fleet.
pub(crate) trait Harness {
    fn now(&self) -> u64;
    fn queued(&self) -> usize;
    /// Login attempt for session `idx`: true = admitted, false = parked
    /// in the admission queue (slot exhaustion is never an error).
    fn request(&mut self, idx: usize) -> bool;
    /// Admits parked logins while slots last; returns their indices.
    fn admit(&mut self) -> Vec<usize>;
    fn exec(&mut self, idx: usize, shard: usize, action: &Action) -> String;
    /// Ends the session: deletes its file (unless abandoned) and logs
    /// out (reaps, for abandoned sessions). Returns the parity label.
    fn finish(&mut self, idx: usize, shard: usize, abandon: bool) -> String;
    fn schedule(&mut self);
    /// The periodic housekeeping sweep (both designs: deactivate every
    /// active segment, flushing dirty pages and quota cells). Neither
    /// activation table reclaims on demand — the old AST surfaces
    /// `AstFull`, the new page-table pool `TableFull` — so a long-lived
    /// system runs this sweep the way real installations ran theirs.
    fn housekeep(&mut self);
    /// Post-op hook: with an online salvage in progress the driver
    /// advances the repair one step and runs the per-release oracle
    /// battery, so the claim frontier drains concurrently with service.
    /// In ordinary runs it is a no-op.
    fn salvage_tick(&mut self) {}
}

#[derive(Default)]
pub(crate) struct Live {
    pub(crate) idx: usize,
    pub(crate) op_ix: usize,
    /// The values the session's own file has successfully grown by, in
    /// page order. `len()` is the classic grown count; keeping the
    /// values lets a recovery harness replay the file's exact contents
    /// when a crash loses the in-flight copy.
    pub(crate) grown_vals: Vec<u64>,
}

/// The engine's whole position in the logical stream. Persisting this
/// across a crash/recover boundary — while the driver underneath is torn
/// down and rebuilt — is what lets a segmented run execute the same
/// logical stream as an uninterrupted one.
#[derive(Default)]
pub(crate) struct EngineState {
    pub(crate) live: Vec<Live>,
    pub(crate) cursor: usize,
    pub(crate) finished: usize,
    pub(crate) ops: u64,
    pub(crate) queued_peak: usize,
    pub(crate) abandoned: usize,
    pub(crate) parity: Vec<String>,
    pub(crate) hist: Histogram,
    /// Session indices in the order the admission queue released them
    /// (post-storm admissions only) — the fairness record.
    pub(crate) admitted_order: Vec<usize>,
    /// Latency samples per session index, grown lazily as sessions act.
    pub(crate) user_samples: Vec<Vec<u64>>,
}

impl EngineState {
    /// Records one latency sample for session `idx` (and the histogram).
    fn sample(&mut self, idx: usize, delta: u64) {
        self.hist.record(delta);
        if self.user_samples.len() <= idx {
            self.user_samples.resize_with(idx + 1, Vec::new);
        }
        self.user_samples[idx].push(delta);
    }
}

/// The login storm: every user arrives before anyone acts.
pub(crate) fn storm<H: Harness>(d: &mut H, scripts: &[SessionScript], st: &mut EngineState) {
    for idx in 0..scripts.len() {
        if d.request(idx) {
            st.live.push(Live {
                idx,
                ..Live::default()
            });
        }
        st.queued_peak = st.queued_peak.max(d.queued());
    }
}

/// Advances the round-robin engine until the live set drains (returns
/// `true`) or the global op counter reaches `stop_at` (returns `false`,
/// leaving the state resumable). The traversal is exactly the classic
/// one: a cursor sweeps the live vector, wrapping to the front when it
/// falls off the end, so a paused-and-resumed run visits sessions in the
/// same order an uninterrupted run does.
pub(crate) fn drive_until<H: Harness>(
    d: &mut H,
    scripts: &[SessionScript],
    st: &mut EngineState,
    stop_at: Option<u64>,
) -> bool {
    loop {
        if st.live.is_empty() {
            return true;
        }
        if let Some(stop) = stop_at {
            if st.ops >= stop {
                return false;
            }
        }
        if st.cursor >= st.live.len() {
            st.cursor = 0;
        }
        let i = st.cursor;
        let (idx, op_ix, grown) = {
            let s = &st.live[i];
            (s.idx, s.op_ix, s.grown_vals.len() as u32)
        };
        let script = &scripts[idx];
        if op_ix < script.ops.len() {
            let action = match script.ops[op_ix] {
                SessionOp::Link(s) => Some(Action::Link(s)),
                SessionOp::Resolve(t) => Some(Action::Resolve(match t {
                    0 => ResolveTarget::Lib,
                    1 => ResolveTarget::Shared,
                    _ => ResolveTarget::Shard(script.shard),
                })),
                SessionOp::Grow(val) => Some(Action::Grow { page: grown, val }),
                SessionOp::ReadBack(r) if grown > 0 => Some(Action::ReadOwn { page: r % grown }),
                SessionOp::ReadBack(_) => None, // nothing grown yet: skip
                SessionOp::ReadShared(p) => Some(Action::ReadShared { page: p }),
            };
            if let Some(action) = action {
                let before = d.now();
                let label = d.exec(idx, script.shard, &action);
                let delta = d.now() - before;
                st.sample(idx, delta);
                if let Action::Grow { val, .. } = action {
                    if label == "w:ok" {
                        st.live[i].grown_vals.push(val);
                    }
                }
                st.parity.push(label);
                st.ops += 1;
                if st.ops.is_multiple_of(4) {
                    d.schedule();
                }
                d.salvage_tick();
            }
            st.live[i].op_ix += 1;
            st.cursor += 1;
        } else {
            let before = d.now();
            let label = d.finish(idx, script.shard, script.abandon);
            let delta = d.now() - before;
            st.sample(idx, delta);
            st.parity.push(label);
            st.ops += 1;
            if script.abandon {
                st.abandoned += 1;
            }
            st.live.remove(i);
            st.finished += 1;
            if st.finished.is_multiple_of(12) {
                d.housekeep();
            }
            d.salvage_tick();
            // The freed slot goes to the head of the admission queue.
            for idx in d.admit() {
                st.admitted_order.push(idx);
                st.live.push(Live {
                    idx,
                    ..Live::default()
                });
            }
        }
    }
}

/// The whole stream: the login storm, then the engine until the live
/// set drains.
pub(crate) fn drive<H: Harness>(d: &mut H, scripts: &[SessionScript]) -> EngineState {
    let mut st = EngineState::default();
    storm(d, scripts, &mut st);
    drive_until(d, scripts, &mut st, None);
    st
}

// ----------------------------------------------------- shared fixtures --

pub(crate) fn account_name(idx: usize) -> String {
    format!("u{idx}")
}

pub(crate) fn account_index(name: &str) -> usize {
    name.strip_prefix('u')
        .and_then(|s| s.parse().ok())
        .expect("load account names are u<idx>")
}

pub(crate) fn symbol(i: usize) -> String {
    format!("sym{i:02}")
}

pub(crate) fn definitions() -> Vec<(String, u32)> {
    (0..LIB_SYMBOLS)
        .map(|i| (symbol(i), 64 + 8 * i as u32))
        .collect()
}

/// The definitions as the publishing calls take them.
pub(crate) fn def_refs(defs: &[(String, u32)]) -> Vec<(&str, u32)> {
    defs.iter().map(|(s, o)| (s.as_str(), *o)).collect()
}

pub(crate) fn shared_word(page: u32) -> u64 {
    0x5EED + u64::from(page)
}

pub(crate) fn file_name(idx: usize) -> String {
    format!("f{idx}")
}

pub(crate) fn shard_name(j: usize) -> String {
    format!("s{j}")
}

/// A machine its driver account is building — or, after a crash,
/// reconciling against a salvager that may still be running: every
/// gate call retries through `SalvageBusy`, stepping the salvager on
/// `probe`.
pub(crate) struct Build<'a, D: Design> {
    pub(crate) sys: &'a mut D,
    pub(crate) probe: &'a mut SalvageProbe,
    pub(crate) drv: D::Pid,
}

impl<D: Design> Build<'_, D> {
    pub(crate) fn retry<T>(
        &mut self,
        what: &str,
        f: impl FnMut(&mut D) -> Res<D, T>,
    ) -> Result<T, String> {
        gate_retry(self.sys, self.probe, what, f)
    }

    /// Finds (unless `fresh`) or creates root segment `name`.
    fn fixture(&mut self, name: &str, fresh: bool) -> Result<D::Dir, String> {
        let drv = self.drv;
        if !fresh {
            if let Ok(obj) = self.retry(&format!("{name} search"), |d| d.search(drv, name)) {
                return Ok(obj);
            }
        }
        self.retry(&format!("{name} recreate"), |d| d.create(drv, name, false))
    }

    /// The shared fixtures every session reaches: the library with its
    /// definitions published, and the read-mostly shared segment with
    /// every page written. A fresh world creates both; a recovering one
    /// keeps what survived on disk, recreates what the crash cost, and
    /// publishes and rewrites either way (cheap, idempotent, and repairs
    /// a torn page). Returns the driver's segment number for the shared
    /// segment.
    pub(crate) fn fixtures(&mut self, fresh: bool) -> Result<u32, String> {
        let drv = self.drv;
        let lib = self.fixture("lib", fresh)?;
        D::publish_lib(self, lib)?;
        let shared = self.fixture("shared", fresh)?;
        let segno = self.retry("shared initiate", |d| d.initiate(drv, shared, "shared"))?;
        for page in 0..SHARED_PAGES {
            let w = Word::new(shared_word(page));
            self.retry(&format!("shared page {page}"), |d| {
                d.write(drv, segno, page * PW, w)
            })?;
        }
        Ok(segno)
    }

    /// Creates quota-capped root directory `name`.
    pub(crate) fn dir(&mut self, name: &str, quota: u32) -> Result<D::Dir, String> {
        let drv = self.drv;
        let dir = self.retry(&format!("shard {name} recreate"), |d| {
            d.create(drv, name, true)
        })?;
        self.retry(&format!("shard {name} quota"), |d| {
            d.set_quota(drv, dir, name, quota)
        })?;
        Ok(dir)
    }
}

/// Creates and initiates session `idx`'s own file in directory
/// `dir_name`, reaching the directory the way the session does.
pub(crate) fn create_file<D: Design>(
    sys: &mut D,
    pid: D::Pid,
    dir: D::Dir,
    dir_name: &str,
    idx: usize,
) -> Res<D, u32> {
    let dir = sys.file_dir(pid, dir, dir_name)?;
    sys.create_in(pid, dir, dir_name, &file_name(idx))
}

/// Recreates session `idx`'s file in `dir` and replays its contents.
pub(crate) fn restore_file<D: Design>(
    sys: &mut D,
    pid: D::Pid,
    dir: D::Dir,
    dir_name: &str,
    idx: usize,
    vals: &[u64],
) -> Result<u32, String> {
    let segno = sys
        .create_in(pid, dir, dir_name, &file_name(idx))
        .map_err(|e| format!("survivor u{idx} file recreate: {e:?}"))?;
    for (page, &val) in vals.iter().enumerate() {
        sys.write(pid, segno, page as u32 * PW, Word::new(val))
            .map_err(|e| format!("survivor u{idx} replay page {page}: {e:?}"))?;
    }
    Ok(segno)
}

// --------------------------------------------- online-salvage plumbing --

/// Each retry against a `SalvageBusy` barrier gives the salvager one
/// step, so the budget bounds how much repair work a single blocked
/// operation can be asked to wait out. The claim frontier is one
/// directory per step and the finalize tail one sweep per pack; 256
/// steps covers any world this harness builds many times over, so
/// exhaustion means the salvager stopped making progress — reported as
/// a typed violation and a `busy` label, never a hang or a panic.
pub(crate) const SALVAGE_RETRY_BUDGET: u32 = 256;

/// What the engine observed while serving traffic concurrently with an
/// online salvage: the overlap window, the blocked-op figures, and
/// every per-release oracle violation.
#[derive(Debug, Clone, Default)]
pub struct SalvageProbe {
    /// Clock reading when the runner started the online salvage.
    pub begin_at: Option<u64>,
    /// Clock reading when the salvager reported `Done`.
    pub done_at: Option<u64>,
    /// Clock reading when the first post-recovery op completed.
    pub first_op_at: Option<u64>,
    /// Ops completed while the salvage was still in progress.
    pub ops_overlapped: u64,
    /// Ops that hit a `SalvageBusy` barrier at least once.
    pub blocked_ops: u64,
    /// Barrier retries summed over all blocked ops.
    pub retries: u64,
    /// Cycles blocked ops spent from first attempt to completion.
    pub blocked_cycles: u64,
    /// Directories released while the engine drove (includes releases
    /// forced by blocked-op retries during reconciliation).
    pub dirs_released: u32,
    /// Problems in the completed salvage's report.
    pub problems: usize,
    /// Repairs in the completed salvage's report.
    pub repairs: usize,
    /// Per-release battery failures and salvage-path errors.
    pub violations: Vec<String>,
}

/// Retries `f` through `SalvageBusy`, stepping the salvager (and its
/// per-release oracle battery) between attempts. A bounded budget turns
/// a wedged salvager into a typed failure instead of a hang.
pub(crate) fn gate_retry<D: Design, T>(
    d: &mut D,
    probe: &mut SalvageProbe,
    what: &str,
    mut f: impl FnMut(&mut D) -> Res<D, T>,
) -> Result<T, String> {
    let mut attempts = 0u32;
    loop {
        match f(d) {
            Ok(v) => return Ok(v),
            Err(e) if D::is_busy(&e) => {
                attempts += 1;
                if attempts > SALVAGE_RETRY_BUDGET {
                    return Err(format!(
                        "{what}: salvage retry budget ({SALVAGE_RETRY_BUDGET}) exhausted"
                    ));
                }
                probe.retries += 1;
                probe.step(d);
            }
            Err(e) => return Err(format!("{what}: {e:?}")),
        }
    }
}

impl SalvageProbe {
    fn note(&mut self, violation: String) {
        self.violations.push(violation);
    }

    /// One salvager step with the per-release battery applied: recheck
    /// verdict, meter conservation, serving-half record conservation at
    /// every release, and the full oracle battery at `Done`. Shared by
    /// the driver's tick and the recovery reconcile, which steps the
    /// salvager before any driver exists.
    pub(crate) fn step<D: Design>(&mut self, d: &mut D) {
        match d.salvage_step() {
            Ok(Step::Released { dir, recheck_clean }) => {
                self.dirs_released += 1;
                if !recheck_clean {
                    self.note(format!(
                        "released dir uid {dir} with a failing recheck — \
                         per-directory salvage not idempotent"
                    ));
                }
                let m = d.machine();
                let found = oracle::check_meter(&m.clock)
                    .into_iter()
                    .chain(check_serving_records(&m.disks));
                for v in found {
                    self.note(format!("at release of uid {dir}: {v}"));
                }
            }
            Ok(Step::Done { problems, repairs }) => {
                self.done_at = Some(d.machine().clock.now());
                self.problems = problems;
                self.repairs = repairs;
                for v in d.oracle() {
                    self.note(format!("post-salvage: {v}"));
                }
            }
            Ok(Step::Quiet) => {}
            Err(e) => self.note(format!("online salvage step failed: {e:?}")),
        }
    }
}

/// The serving-half storage check run at every directory release: every
/// record a TOC file map references must be allocated, and no record
/// may be claimed by two file maps. Leaked records — allocated but
/// unreferenced — are legal mid-salvage (the leak sweep runs last), so
/// this is deliberately weaker than the post-salvage full conservation
/// check.
pub(crate) fn check_serving_records(disks: &mx_hw::DiskSystem) -> Vec<String> {
    let mut out = Vec::new();
    for pack in disks.packs() {
        let allocated: std::collections::HashSet<u32> =
            pack.allocated_record_nos().iter().map(|r| r.0).collect();
        let mut seen = std::collections::HashSet::new();
        for (toc, entry) in pack.entries() {
            for rec in entry.file_map.iter().flatten() {
                if !allocated.contains(&rec.0) {
                    out.push(format!(
                        "pack {}: toc {} maps unallocated record {}",
                        pack.id.0, toc.0, rec.0
                    ));
                }
                if !seen.insert(rec.0) {
                    out.push(format!(
                        "pack {}: record {} claimed by two file maps",
                        pack.id.0, rec.0
                    ));
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------ driver --

pub(crate) struct Session<D: Design> {
    pub(crate) pid: D::Pid,
    pub(crate) env: D::Env,
    /// The session's own file, once created.
    pub(crate) own: Option<u32>,
    pub(crate) shared_segno: Option<u32>,
}

impl<D: Design> Session<D> {
    pub(crate) fn new(pid: D::Pid, env: D::Env) -> Self {
        Self {
            pid,
            env,
            own: None,
            shared_segno: None,
        }
    }
}

/// Per-shard recovery work parked behind the online salvager's
/// quarantine: the wipe of the previous population's files and the
/// replay of surviving sessions' file contents wait until the shard
/// directory is released (or, if the crash cost the entry itself, until
/// it is recreated).
pub(crate) struct Deferred<D: Design> {
    pub(crate) shard: usize,
    pub(crate) drv: D::Pid,
    pub(crate) quota: u32,
    pub(crate) wipe: Vec<usize>,
    pub(crate) restore: Vec<(usize, Vec<u64>)>,
}

/// One machine serving the population.
pub(crate) struct Driver<D: Design> {
    pub(crate) sys: D,
    pub(crate) front: D::Front,
    pub(crate) sessions: Vec<Option<Session<D>>>,
    /// Shard directories, by shard index.
    pub(crate) dirs: Vec<D::Dir>,
    pub(crate) salvage: SalvageProbe,
    pub(crate) deferred: Vec<Deferred<D>>,
}

/// The operator-side handles a harness keeps after world setup: the
/// driver account's process and its window onto the shared segment.
/// Plain load runs discard this; the recovery harness uses it to write
/// its epoch beacon and to reconcile the world after a crash.
pub(crate) struct WorldCtx<P> {
    pub(crate) drv: P,
    pub(crate) shared_segno: u32,
}

impl<D: Design> Driver<D> {
    pub(crate) fn open(&mut self, idx: usize, pid: D::Pid) {
        let env = self.sys.open_env(pid);
        self.sessions[idx] = Some(Session::new(pid, env));
    }

    /// One salvager step (with the release battery) if a salvage is in
    /// progress, then whatever deferred shard work became serviceable.
    pub(crate) fn salvage_advance(&mut self) {
        if self.sys.salvage_active() {
            self.salvage.step(&mut self.sys);
        }
        self.attempt_deferred();
    }

    /// Runs any salvage still in flight to completion and applies
    /// whatever shard repair work its releases unlocked. Called at epoch
    /// boundaries so the boundary oracle battery (and the next crash)
    /// never race an unfinished repair.
    pub(crate) fn drain_salvage(&mut self) {
        let mut guard = 0u32;
        while self.sys.salvage_active() {
            self.salvage.step(&mut self.sys);
            guard += 1;
            if guard > 10_000 {
                let msg = "online salvage failed to terminate within 10000 steps";
                self.salvage.note(msg.to_string());
                break;
            }
        }
        self.attempt_deferred();
    }

    /// Runs every deferred per-shard work item whose directory is out
    /// of quarantine; items still barred stay parked for the next
    /// release.
    pub(crate) fn attempt_deferred(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            let Some(opened) = self.open_deferred(i) else {
                i += 1;
                continue;
            };
            let work = self.deferred.remove(i);
            if let Err(msg) = opened.and_then(|dir| self.run_deferred(work, dir)) {
                self.salvage.note(msg);
            }
        }
    }

    /// `Some(Ok(dir))` = item `i`'s shard is serviceable; `None` = it is
    /// still quarantined.
    fn open_deferred(&mut self, i: usize) -> Option<Result<D::Dir, String>> {
        let (shard, drv, quota) = {
            let w = &self.deferred[i];
            (w.shard, w.drv, w.quota)
        };
        let name = shard_name(shard);
        match self.sys.open_dir(drv, self.dirs[shard], &name) {
            Err(e) if D::is_busy(&e) => None,
            Ok(dir) => Some(Ok(dir)),
            Err(_) => {
                // The crash (or the salvager clearing a mangled entry)
                // cost us the shard directory itself: recreate and
                // re-cap it. A directory created through the gates is
                // born released, so the work below proceeds.
                let (sys, probe) = (&mut self.sys, &mut self.salvage);
                let made = Build { sys, probe, drv }.dir(&name, quota);
                if let Ok(dir) = made {
                    self.dirs[shard] = dir;
                }
                Some(made)
            }
        }
    }

    fn run_deferred(&mut self, work: Deferred<D>, dir: D::Dir) -> Result<(), String> {
        let name = shard_name(work.shard);
        for idx in &work.wipe {
            let _ = self.sys.delete_file(work.drv, dir, &name, &file_name(*idx));
        }
        for (idx, vals) in &work.restore {
            // A survivor that finished before its shard was released
            // never touches its file again; the wipe alone suffices.
            let Some(pid) = self.sessions[*idx].as_ref().map(|s| s.pid) else {
                continue;
            };
            let segno = restore_file(&mut self.sys, pid, dir, &name, *idx, vals)?;
            if let Some(s) = self.sessions[*idx].as_mut() {
                s.own = Some(segno);
            }
        }
        Ok(())
    }

    /// Runs `once` until it gets past every `SalvageBusy` barrier (it
    /// returns `None` while barred), stepping the salvager between
    /// attempts and charging the wait to the probe's blocked-op figures.
    /// `None` = the retry budget ran out; `what` names the op for the
    /// violation.
    fn blocked<T>(
        &mut self,
        what: impl FnOnce(&Self) -> String,
        mut once: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<T> {
        let start = self.now();
        let mut attempts = 0u32;
        loop {
            if let Some(v) = once(self) {
                if attempts > 0 {
                    self.salvage.blocked_cycles += self.now() - start;
                }
                return Some(v);
            }
            attempts += 1;
            if attempts == 1 {
                self.salvage.blocked_ops += 1;
            }
            if attempts > SALVAGE_RETRY_BUDGET {
                self.salvage.blocked_cycles += self.now() - start;
                self.salvage.violations.push(format!(
                    "salvage retry budget ({SALVAGE_RETRY_BUDGET}) exhausted {}",
                    what(self)
                ));
                return None;
            }
            self.salvage.retries += 1;
            self.salvage_advance();
        }
    }

    fn exec_once(&mut self, idx: usize, shard: usize, action: &Action) -> Option<String> {
        let s = self.sessions[idx].as_mut().expect("live session");
        session_op(&mut self.sys, s, idx, shard, Some(self.dirs[shard]), action)
    }

    /// One attempt at ending a session; `None` = blocked on a barrier.
    /// The file delete clears `own` on success so a retry that blocks
    /// later (at logout) never re-deletes.
    fn finish_once(&mut self, idx: usize, shard: usize, abandon: bool) -> Option<String> {
        let s = self.sessions[idx].as_mut().expect("live session");
        let mut label = if abandon { "reap" } else { "out" }.to_string();
        if !abandon && s.own.is_some() {
            let dir = self.dirs[shard];
            match self
                .sys
                .delete_file(s.pid, dir, &shard_name(shard), &file_name(idx))
            {
                Ok(()) => s.own = None,
                Err(e) if D::is_busy(&e) => return None,
                Err(_) => label = "out:err".to_string(),
            }
        }
        // Abandoned sessions are reaped by the service — same logout
        // residue, nobody at the terminal.
        match self.sys.logout(&mut self.front, &account_name(idx), s.pid) {
            Ok(()) => {}
            Err(e) if D::is_busy(&e) => return None,
            Err(_) => label = format!("{label}:err"),
        }
        self.sessions[idx] = None;
        Some(label)
    }
}

/// One attempt at `action` by session `idx` on its own machine, whose
/// shard directory is `dir`. `None` means a `SalvageBusy` barrier was
/// hit: the caller steps the salvager and retries. Every arm is
/// retry-idempotent — partial effects (a created file) are recorded on
/// the session before the barrier can fire.
pub(crate) fn session_op<D: Design>(
    sys: &mut D,
    s: &mut Session<D>,
    idx: usize,
    shard: usize,
    dir: Option<D::Dir>,
    action: &Action,
) -> Option<String> {
    Some(match *action {
        Action::Link(sym) => return barred::<D, _>("l", sys.link(s.pid, &mut s.env, &symbol(sym))),
        Action::Resolve(target) => {
            let got = sys.resolve(s.pid, &mut s.env, &target.name());
            return barred::<D, _>("n", got.map(|()| "ok"));
        }
        Action::Grow { page, val } => {
            if s.own.is_none() {
                // A fleet session whose shard lives on another machine
                // has no directory here.
                let Some(dir) = dir else {
                    return Some("w:err".to_string());
                };
                match create_file(sys, s.pid, dir, &shard_name(shard), idx) {
                    Ok(segno) => s.own = Some(segno),
                    Err(e) if D::is_busy(&e) => return None,
                    Err(e) => return Some(format!("w:{}", D::label(&e))),
                }
            }
            let segno = s.own.expect("just created");
            let got = sys.write(s.pid, segno, page * PW, Word::new(val));
            labelled::<D, _>("w", got.map(|()| "ok"))
        }
        Action::ReadOwn { page } => {
            // A survivor whose file restoration is still deferred
            // behind a quarantined shard has grown pages but no
            // segment yet: the op is blocked until the shard's
            // release replays the file.
            let segno = s.own?;
            labelled::<D, _>("r", sys.read(s.pid, segno, page * PW).map(|w| w.raw()))
        }
        Action::ReadShared { page } => {
            if s.shared_segno.is_none() {
                match sys.initiate_path(s.pid, &mut s.env, "shared") {
                    Ok(segno) => s.shared_segno = Some(segno),
                    Err(e) if D::is_busy(&e) => return None,
                    Err(e) => return Some(format!("r:{}", D::label(&e))),
                }
            }
            let segno = s.shared_segno.expect("just initiated");
            labelled::<D, _>("r", sys.read(s.pid, segno, page * PW).map(|w| w.raw()))
        }
    })
}

/// The user-visible label of an op's outcome: `prefix:value` (`ok` for
/// ops without one) or `prefix:` the error's outcome class.
pub(crate) fn labelled<D: Design, T: std::fmt::Display>(prefix: &str, got: Res<D, T>) -> String {
    match got {
        Ok(v) => format!("{prefix}:{v}"),
        Err(e) => format!("{prefix}:{}", D::label(&e)),
    }
}

/// [`labelled`] for an op a `SalvageBusy` barrier holds back: `None`
/// while barred.
fn barred<D: Design, T: std::fmt::Display>(prefix: &str, got: Res<D, T>) -> Option<String> {
    match got {
        Err(e) if D::is_busy(&e) => None,
        got => Some(labelled::<D, T>(prefix, got)),
    }
}

impl<D: Design> Harness for Driver<D> {
    fn now(&self) -> u64 {
        self.sys.machine().clock.now()
    }

    fn queued(&self) -> usize {
        D::queued(&self.front)
    }

    fn request(&mut self, idx: usize) -> bool {
        let got = self.blocked(
            |_| format!("logging in u{idx}"),
            |d| match d.sys.login_or_queue(&mut d.front, idx) {
                Err(e) if D::is_busy(&e) => None,
                Ok(pid) => Some(pid),
                Err(e) => {
                    // Load accounts always authenticate; anything else
                    // is reported through the probe, never a panic.
                    let msg = format!("login u{idx} refused: {e:?}");
                    d.salvage.violations.push(msg);
                    Some(None)
                }
            },
        );
        match got.flatten() {
            Some(pid) => {
                self.open(idx, pid);
                true
            }
            None => false,
        }
    }

    /// A re-login needs a state segment under `>processes`, which an
    /// online salvage may still hold: the barred head login stays at the
    /// head of the queue while the salvager steps.
    fn admit(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        self.blocked(
            |d| format!("re-admitting {}", D::pending(&d.front)[0]),
            |d| {
                let pass = d.sys.admit_pass(&mut d.front);
                for (idx, pid) in pass.admitted {
                    d.open(idx, pid);
                    out.push(idx);
                }
                for (idx, e) in pass.refused {
                    let msg = format!("re-login u{idx} refused: {e:?}");
                    d.salvage.violations.push(msg);
                }
                (!pass.busy).then_some(())
            },
        );
        out
    }

    fn exec(&mut self, idx: usize, shard: usize, action: &Action) -> String {
        self.blocked(
            |_| format!("by session {idx} mid-script"),
            |d| d.exec_once(idx, shard, action),
        )
        .unwrap_or_else(|| "busy".to_string())
    }

    fn finish(&mut self, idx: usize, shard: usize, abandon: bool) -> String {
        self.blocked(
            |_| format!("by session {idx} at logout"),
            |d| d.finish_once(idx, shard, abandon),
        )
        .unwrap_or_else(|| "busy".to_string())
    }

    fn schedule(&mut self) {
        self.sys.dispatch();
    }

    fn housekeep(&mut self) {
        if let Err(e) = self.sys.sync() {
            panic!("{} housekeeping sweep: {e:?}", D::NAME);
        }
    }

    fn salvage_tick(&mut self) {
        if self.salvage.first_op_at.is_none() {
            self.salvage.first_op_at = Some(self.now());
        }
        if self.sys.salvage_active() {
            self.salvage.ops_overlapped += 1;
            self.salvage_advance();
        } else if !self.deferred.is_empty() {
            self.attempt_deferred();
        }
    }
}

// ------------------------------------------------------------ run fns --

/// Boots a machine, attaches the extra pack `(records, toc_slots)` if
/// any, and logs the driver account in.
pub(crate) fn boot_with_driver<D: Design>(
    shape: &Shape,
    pack: Option<(u32, u32)>,
) -> (D, D::Front, D::Pid) {
    let mut sys = D::boot(shape, None).expect("boot");
    if let Some((records, toc_slots)) = pack {
        sys.machine_mut().disks.attach(records, toc_slots);
    }
    let mut front = D::Front::default();
    sys.register(&mut front, "drv");
    let drv = sys.login(&mut front, "drv").expect("driver login");
    (sys, front, drv)
}

/// Builds the world a load run executes against: overflow pack, driver
/// account and login, published library, shared segment, quota shards,
/// and one registered account per scripted session.
pub(crate) fn setup<D: Design>(spec: &LoadSpec) -> (Driver<D>, WorldCtx<D::Pid>) {
    let (mut sys, mut front, drv) = boot_with_driver::<D>(&spec.shape(), spec.overflow_pack());
    let mut probe = SalvageProbe::default();
    let mut b = Build {
        sys: &mut sys,
        probe: &mut probe,
        drv,
    };
    let shared_segno = b.fixtures(true).expect("shared fixtures");
    let quota = spec.shard_quota();
    let dirs = (0..spec.shards())
        .map(|j| b.dir(&shard_name(j), quota).expect("shard dir"))
        .collect();
    for idx in 0..spec.sessions {
        sys.register(&mut front, &account_name(idx));
    }
    let driver = Driver {
        sys,
        front,
        sessions: (0..spec.sessions).map(|_| None).collect(),
        dirs,
        salvage: probe,
        deferred: Vec::new(),
    };
    (driver, WorldCtx { drv, shared_segno })
}

/// Runs `scripts` (one per session of `spec`) on design `D`. The
/// sharded engine partitions one global population and hands each shard
/// machine the scripts of its members (local indices, global scripts),
/// which is what keeps the merged stream independent of worker count.
pub(crate) fn run_load<D: Design>(
    spec: &LoadSpec,
    scripts: &[SessionScript],
    policy: Option<Box<dyn SchedulePolicy>>,
) -> LoadRun {
    assert_eq!(scripts.len(), spec.sessions, "one script per session");
    let (mut d, _ctx) = setup::<D>(spec);
    let m = d.sys.machine();
    let setup_cycles = m.clock.now();
    let ops_base = m.ops_retired();
    let meter_base = m.clock.meter_snapshot();
    let edge_base = m.clock.edge_snapshot();
    d.sys.set_policy(policy);

    let mut st = drive(&mut d, scripts);

    let m = d.sys.machine();
    let per_cpu_ops = m
        .ops_retired()
        .iter()
        .zip(ops_base.iter())
        .map(|(now, base)| now - base)
        .collect();
    st.user_samples.resize_with(spec.sessions, Vec::new);
    let (queue_delay, event_queue_hwm) = d.sys.queue_probes();
    LoadRun {
        design: D::NAME,
        cycles: m.clock.now() - setup_cycles,
        setup_cycles,
        ops: st.ops,
        sessions: spec.sessions,
        abandoned: st.abandoned,
        queued_peak: st.queued_peak,
        parity: st.parity,
        hist: st.hist,
        per_cpu_ops,
        queue_delay,
        event_queue_hwm,
        meter: meter_base.delta(&m.clock.meter_snapshot()),
        edges: edge_base.delta(m.clock.edge_set()),
        violations: d.sys.oracle(),
        user_samples: st.user_samples,
    }
}

/// Runs the spec on the new kernel design. An optional schedule policy
/// is installed *after* setup, exactly as the schedule explorer does,
/// so every policy explores from the same initial state.
pub fn run_kernel_load(spec: &LoadSpec, policy: Option<Box<dyn SchedulePolicy>>) -> LoadRun {
    run_load::<Kernel>(spec, &spec.scripts(), policy)
}

/// Runs the spec on the 1974 supervisor. Its scheduler has no policy
/// hooks: one inherent schedule per spec.
pub fn run_legacy_load(spec: &LoadSpec) -> LoadRun {
    run_load::<Supervisor>(spec, &spec.scripts(), None)
}

/// Runs the spec through both designs under their baseline schedules.
pub fn run_both(spec: &LoadSpec) -> (LoadRun, LoadRun) {
    (run_kernel_load(spec, None), run_legacy_load(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_deterministic() {
        let spec = LoadSpec::new(6, 42);
        let a = run_kernel_load(&spec, None);
        let b = run_kernel_load(&spec, None);
        assert_eq!(a.parity, b.parity);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.hist, b.hist);
        assert_eq!(a.per_cpu_ops, b.per_cpu_ops);
        let la = run_legacy_load(&spec);
        let lb = run_legacy_load(&spec);
        assert_eq!(la.parity, lb.parity);
        assert_eq!(la.cycles, lb.cycles);
    }

    #[test]
    fn small_population_reaches_user_visible_parity() {
        let spec = LoadSpec::new(8, 7);
        let (k, l) = run_both(&spec);
        let problems = LoadRun::check_pair(&k, &l);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(k.sessions, 8);
        assert!(k.ops > 8, "sessions executed scripted work");
    }

    #[test]
    fn tight_storage_surfaces_quota_and_parity_holds() {
        // Across a few seeds, tight storage must provoke at least one
        // past-quota write somewhere, and parity must survive it.
        let mut saw_quota = false;
        for seed in 0..4 {
            let spec = LoadSpec::tight(6, seed);
            let (k, l) = run_both(&spec);
            let problems = LoadRun::check_pair(&k, &l);
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
            saw_quota |= k.parity.iter().any(|p| p == "w:quota");
        }
        assert!(saw_quota, "tight quotas never bit");
    }

    #[test]
    fn login_storm_queues_and_everyone_eventually_runs() {
        // Tight config has max_processes 4; the driver holds one slot,
        // so 8 users cannot all be live at once.
        let spec = LoadSpec::tight(8, 3);
        let (k, l) = run_both(&spec);
        assert!(k.queued_peak > 0, "storm exceeded the slots");
        assert_eq!(k.queued_peak, l.queued_peak, "same admission pressure");
        let problems = LoadRun::check_pair(&k, &l);
        assert!(problems.is_empty(), "{problems:?}");
        // Everyone ran to completion: one terminal label per session.
        let ends = k
            .parity
            .iter()
            .filter(|p| p.as_str() == "out" || p.as_str() == "reap")
            .count();
        assert_eq!(ends, 8);
    }

    #[test]
    fn both_cpus_retire_user_work() {
        let spec = LoadSpec::new(8, 11);
        let (k, l) = run_both(&spec);
        assert_eq!(k.per_cpu_ops.len(), 2);
        assert!(
            k.per_cpu_ops.iter().all(|&c| c > 0),
            "kernel left a CPU idle: {:?}",
            k.per_cpu_ops
        );
        assert!(
            l.per_cpu_ops.iter().all(|&c| c > 0),
            "legacy left a CPU idle: {:?}",
            l.per_cpu_ops
        );
    }

    #[test]
    fn queue_delay_and_meters_are_populated() {
        let spec = LoadSpec::new(8, 5);
        let k = run_kernel_load(&spec, None);
        let (wait, samples) = k.queue_delay;
        assert!(samples > 0, "dispatches happened");
        let _ = wait; // may be zero under light load; just well-defined
        assert!(k.meter.total() > 0, "load phase attributed cycles");
        assert!(k.hist.samples() == k.ops);
        assert!(k.ops_per_mcycle() > 0.0);
    }
}
