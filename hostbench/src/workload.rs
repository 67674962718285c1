//! The four workloads, the unit of work each repeats, and what one
//! execution of a unit produced in simulated terms.
//!
//! A workload is a fixed list of units (one population, plan or fleet
//! each). Running a unit calls the public engines of `mx_load` on both
//! designs, checks the outputs with the engines' own oracles, and
//! returns a [`Sim`]: everything the unit produced that is a pure
//! function of its inputs. Host time is kept by the [`Tracer`].

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};

use mx_hw::Subsystem;
use mx_load::{
    run_kernel_fleet, run_kernel_load, run_kernel_s1, run_legacy_fleet, run_legacy_load,
    run_legacy_s1, session_script, C1Policy, FleetRun, FleetSpec, LoadRun, LoadSpec, S1Run, S1Spec,
};

use crate::trace::Tracer;

/// Index of each design in the per-design arrays.
pub const KERNEL: usize = 0;
pub const LEGACY: usize = 1;
pub const DESIGNS: [&str; 2] = ["kernel", "legacy"];

/// The population seed the storm and salvage workloads expand from.
const SEED_1977: u64 = 1977;
/// `tests/load_parity.rs`'s recipe for tight-storage population `i`.
fn small_seed(i: u64) -> u64 {
    0x10AD ^ i.wrapping_mul(0x9E37_79B9)
}
/// Crash-plan seed `i` of the salvage workload.
fn plan_seed(i: u64) -> u64 {
    0xFA17_0C1A ^ i.wrapping_mul(0x9E37_79B9)
}

const STORM_USERS: usize = 1024;
const SMALL_USERS: usize = 32;
const SMALL_POPULATIONS: u64 = 128;
const SALVAGE_USERS: usize = 256;
const SALVAGE_PLANS: u64 = 12;
const SALVAGE_CRASHES: u32 = 3;
const FLEET_MACHINES: usize = 4;
const FLEET_USERS: usize = 64;
const FLEET_SEEDS: u64 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Storm,
    Small,
    Salvage,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Storm,
        Workload::Small,
        Workload::Salvage,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Small => "small",
            Workload::Salvage => "salvage",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The units one pass over the workload runs, in canonical order.
    /// The script expansion for every population happens here.
    pub fn units(self) -> Vec<Unit> {
        match self {
            Workload::Storm => vec![Unit::load(LoadSpec::new(STORM_USERS, SEED_1977), "new")],
            Workload::Small => (0..SMALL_POPULATIONS)
                .map(|i| Unit::load(LoadSpec::tight(SMALL_USERS, small_seed(i)), "tight"))
                .collect(),
            Workload::Salvage => {
                // The crash-free run of the salvage population: the only
                // source of exact per-op samples for it, as `S1Run` keeps
                // a bucketed histogram.
                let mut units = vec![Unit::load(
                    LoadSpec::continuous(SALVAGE_USERS, SEED_1977),
                    "continuous",
                )];
                units.extend((0..SALVAGE_PLANS).map(|i| {
                    Unit::salvage(S1Spec::new(
                        SALVAGE_USERS,
                        SEED_1977,
                        plan_seed(i),
                        SALVAGE_CRASHES,
                        C1Policy::Fifo,
                    ))
                }));
                units
            }
            Workload::Fleet => (0..FLEET_SEEDS)
                .map(|seed| {
                    let mut spec = FleetSpec::new(FLEET_MACHINES, FLEET_USERS, seed);
                    spec.migratory = true;
                    Unit::fleet(spec)
                })
                .collect(),
        }
    }
}

#[derive(Debug, Clone)]
enum Job {
    /// The spec and the name of the constructor that made it.
    Load(LoadSpec, &'static str),
    Salvage(S1Spec),
    Fleet(FleetSpec),
}

/// One population, plan or fleet, with its expanded scripts.
#[derive(Debug, Clone)]
pub struct Unit {
    job: Job,
    /// Ops each design is asked to run: every scripted op plus the
    /// logout (or reap) that ends each session.
    attempted: u64,
}

/// Scripted ops per design for `sessions` users from `seed`. The shard
/// count only picks each session's directory, so it does not change
/// the op count.
fn attempted_ops(sessions: usize, seed: u64) -> u64 {
    (0..sessions)
        .map(|i| session_script(seed, i, 1).ops.len() as u64 + 1)
        .sum()
}

impl Unit {
    fn load(spec: LoadSpec, ctor: &'static str) -> Self {
        let attempted = attempted_ops(spec.sessions, spec.seed);
        Self {
            job: Job::Load(spec, ctor),
            attempted,
        }
    }

    fn salvage(spec: S1Spec) -> Self {
        let attempted = attempted_ops(spec.sessions, spec.seed);
        Self {
            job: Job::Salvage(spec),
            attempted,
        }
    }

    fn fleet(spec: FleetSpec) -> Self {
        let attempted = attempted_ops(spec.sessions, spec.seed);
        Self {
            job: Job::Fleet(spec),
            attempted,
        }
    }
}

/// Everything a unit produced that is a pure function of its inputs.
/// Two executions of one unit must compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Ops the scripts asked of both designs.
    pub attempted: u64,
    /// Of those, ops that completed correctly.
    pub ok: u64,
    pub failed: [u64; 2],
    /// Engine calls that panicked.
    pub panicked: u64,
    /// Ops retired and simulated cycles spent, over every engine call.
    pub ops: [u64; 2],
    pub cycles: [u64; 2],
    /// Exact per-op latencies (cycles) from every `LoadRun`.
    pub samples: [Vec<u64>; 2],
    pub meter_cycles: [[u64; Subsystem::COUNT]; 2],
    pub meter_entries: [[u64; Subsystem::COUNT]; 2],
    pub meter_events: u64,
    pub setup_cycles: [u64; 2],
    pub queued_peak: u64,
    pub abandoned: u64,
    pub queue_wait: u64,
    pub dispatches: u64,
    pub event_queue_hwm: u64,
    pub grow_labels: u64,
    pub quota_labels: u64,
    /// Crashed epochs per design, and those whose recovery cost nothing.
    pub crashes: [u64; 2],
    pub free_recoveries: u64,
    pub recovery_cycles: u64,
    pub retries: u64,
    pub blocked_ops: u64,
    pub overlap_ops: u64,
    pub salvage_repairs: u64,
    /// Salvage plans that did not crash the planned number of times.
    pub short_plans: u64,
    pub fleet_ops: u64,
    pub frames_sent: u64,
    pub frames_delivered: u64,
    /// Fleet runs whose wire lost or kept back a frame.
    pub frames_unbalanced: u64,
    pub remote_ops: u64,
    pub migrations: u64,
    pub relocations: u64,
    pub store_cycles: u64,
    pub wall_cycles: u64,
    /// One replayable line per failing unit.
    pub defects: Vec<String>,
}

impl Sim {
    /// Folds `o` into `self`: counts add, peaks take the maximum,
    /// samples and defects append.
    pub fn absorb(&mut self, o: &Sim) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.panicked += o.panicked;
        for d in [KERNEL, LEGACY] {
            self.failed[d] += o.failed[d];
            self.ops[d] += o.ops[d];
            self.cycles[d] += o.cycles[d];
            self.samples[d].extend_from_slice(&o.samples[d]);
            for s in 0..Subsystem::COUNT {
                self.meter_cycles[d][s] += o.meter_cycles[d][s];
                self.meter_entries[d][s] += o.meter_entries[d][s];
            }
            self.setup_cycles[d] += o.setup_cycles[d];
            self.crashes[d] += o.crashes[d];
        }
        self.meter_events += o.meter_events;
        self.queued_peak = self.queued_peak.max(o.queued_peak);
        self.abandoned += o.abandoned;
        self.queue_wait += o.queue_wait;
        self.dispatches += o.dispatches;
        self.event_queue_hwm = self.event_queue_hwm.max(o.event_queue_hwm);
        self.grow_labels += o.grow_labels;
        self.quota_labels += o.quota_labels;
        self.free_recoveries += o.free_recoveries;
        self.recovery_cycles += o.recovery_cycles;
        self.retries += o.retries;
        self.blocked_ops += o.blocked_ops;
        self.overlap_ops += o.overlap_ops;
        self.salvage_repairs += o.salvage_repairs;
        self.short_plans += o.short_plans;
        self.fleet_ops += o.fleet_ops;
        self.frames_sent += o.frames_sent;
        self.frames_delivered += o.frames_delivered;
        self.frames_unbalanced += o.frames_unbalanced;
        self.remote_ops += o.remote_ops;
        self.migrations += o.migrations;
        self.relocations += o.relocations;
        self.store_cycles += o.store_cycles;
        self.wall_cycles += o.wall_cycles;
        self.defects.extend(o.defects.iter().cloned());
    }

    fn labels(&mut self, parity: &[String]) {
        for l in parity {
            if l.starts_with("w:") {
                self.grow_labels += 1;
                if l == "w:quota" {
                    self.quota_labels += 1;
                }
            }
        }
    }

    fn meter(&mut self, d: usize, m: &mx_hw::MeterSnapshot) {
        for s in Subsystem::ALL {
            self.meter_cycles[d][s.index()] += m.attributed_to(s);
            self.meter_entries[d][s.index()] += m.entries_for(s);
        }
        self.meter_events += m.events_recorded();
    }

    fn load_run(&mut self, d: usize, r: &LoadRun) {
        self.ops[d] += r.ops;
        self.cycles[d] += r.cycles;
        self.samples[d].extend(r.user_samples.iter().flatten().copied());
        self.meter(d, &r.meter);
        self.setup_cycles[d] += r.setup_cycles;
        self.queued_peak = self.queued_peak.max(r.queued_peak as u64);
        self.abandoned += r.abandoned as u64;
        self.queue_wait += r.queue_delay.0;
        self.dispatches += r.queue_delay.1;
        self.event_queue_hwm = self.event_queue_hwm.max(r.event_queue_hwm as u64);
        self.labels(&r.parity);
    }

    fn s1_run(&mut self, d: usize, r: &S1Run, crashes: u32) {
        self.ops[d] += r.ops;
        self.cycles[d] += r.load_cycles + r.recovery_cycles;
        self.queued_peak = self.queued_peak.max(r.queued_peak as u64);
        self.abandoned += r.abandoned as u64;
        self.labels(&r.parity);
        let crashed: Vec<_> = r.epochs.iter().filter(|e| e.crashed).collect();
        self.crashes[d] += crashed.len() as u64;
        if crashed.len() != crashes as usize {
            self.short_plans += 1;
        }
        for e in &r.epochs {
            if e.crashed && e.recovery_cycles == 0 {
                self.free_recoveries += 1;
            }
            self.recovery_cycles += e.recovery_cycles;
            self.retries += e.retries;
            self.blocked_ops += e.blocked_ops;
            self.overlap_ops += e.overlap_ops;
            self.salvage_repairs += e.salvage_repairs as u64;
        }
    }

    fn fleet_run(&mut self, d: usize, r: &FleetRun) {
        self.ops[d] += r.ops;
        self.cycles[d] += r.cycles;
        self.meter(d, &r.store_meter);
        self.setup_cycles[d] += r.setup_cycles;
        self.queued_peak = self.queued_peak.max(r.queued_peak as u64);
        self.abandoned += r.abandoned as u64;
        self.labels(&r.parity);
        self.fleet_ops += r.ops;
        self.frames_sent += r.frames_sent;
        self.frames_delivered += r.frames_delivered;
        if r.frames_delivered != r.frames_sent {
            self.frames_unbalanced += 1;
        }
        self.remote_ops += r.remote_ops;
        self.migrations += r.migrations;
        self.relocations += r.relocations;
        self.store_cycles += r.store_cycles;
        self.wall_cycles += r.wall_cycles;
    }

    /// Charges the unit's failures: a panic or an oracle trip fails
    /// every op of the unit; a divergence fails every op from the first
    /// label where the streams part.
    fn settle(&mut self, attempted: u64, verdict: Verdict) {
        let ok = match &verdict {
            Verdict::Clean => attempted,
            Verdict::Diverged { at, .. } => (*at as u64).min(attempted),
            Verdict::Panicked(_) | Verdict::Oracle(_) => 0,
        };
        self.attempted += 2 * attempted;
        self.ok += 2 * ok;
        self.failed = [attempted - ok; 2];
        match verdict {
            Verdict::Clean => {}
            Verdict::Panicked(s) | Verdict::Oracle(s) => self.defects.push(s),
            Verdict::Diverged { line, .. } => self.defects.push(line),
        }
    }
}

enum Verdict {
    Clean,
    Panicked(String),
    Oracle(String),
    Diverged { at: usize, line: String },
}

thread_local! {
    static LAST_PANIC: RefCell<String> = const { RefCell::new(String::new()) };
    static PLANTED: Cell<u32> = const { Cell::new(0) };
}

/// Plants a slowdown of known size for checking the calibration: from
/// now on every kernel engine call runs `extra` more times inside its
/// timed span, and only the last run's result is kept.
pub fn plant_kernel_repeats(extra: u32) {
    PLANTED.with(|p| p.set(extra));
}

/// Replaces the default panic printer: a panic inside an engine call is
/// a measured defect, recorded with its location, not console noise.
pub fn install_panic_hook() {
    panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        let at = info.location().map_or("unknown".to_string(), |l| {
            let file = l.file();
            let file = file.find("crates/").map_or(file, |i| &file[i..]);
            format!("{file}:{}", l.line())
        });
        LAST_PANIC.with(|p| *p.borrow_mut() = format!("panicked at {at}: {msg}"));
    }));
}

/// Runs `f`, turning a panic into the replay line `call panicked at …`.
fn guarded<T>(call: String, f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| format!("{call} {}", LAST_PANIC.with(|p| p.borrow().clone())))
}

/// First label where two streams part, counting a length mismatch as
/// parting at the end of the shorter one.
fn first_diff(a: &[String], b: &[String]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

fn label_at(p: &[String], i: usize) -> &str {
    p.get(i).map_or("<end>", String::as_str)
}

fn load_repro(spec: &LoadSpec, ctor: &str) -> String {
    format!("LoadSpec::{ctor}({}, {:#x})", spec.sessions, spec.seed)
}

fn fleet_repro(spec: &FleetSpec) -> String {
    format!(
        "FleetSpec {{ migratory: {}, ..FleetSpec::new({}, {}, {:#x}) }}",
        spec.migratory, spec.machines, spec.sessions, spec.seed
    )
}

/// Runs one unit on both designs, `legacy_first` choosing the order.
pub fn run_unit(unit: &Unit, legacy_first: bool, tr: &mut Tracer) -> Sim {
    let mut sim = Sim::default();
    let verdict = match &unit.job {
        Job::Load(spec, ctor) => run_load(spec, ctor, legacy_first, tr, &mut sim),
        Job::Salvage(spec) => run_salvage(spec, legacy_first, tr, &mut sim),
        Job::Fleet(spec) => run_fleet(spec, legacy_first, tr, &mut sim),
    };
    sim.settle(unit.attempted, verdict);
    sim
}

/// One engine call, timed under `span` and guarded by [`guarded`].
fn call<T>(
    tr: &mut Tracer,
    span: &'static str,
    replay: String,
    f: impl Fn() -> T,
) -> Result<T, String> {
    let extra = if span.ends_with(".kernel") {
        PLANTED.with(Cell::get)
    } else {
        0
    };
    tr.time(span, || {
        for _ in 0..extra {
            drop(guarded(replay.clone(), &f));
        }
        guarded(replay, f)
    })
}

/// Runs the kernel half and the legacy half in the order `legacy_first`
/// picks.
fn in_order<K, L>(
    tr: &mut Tracer,
    legacy_first: bool,
    kernel: impl FnOnce(&mut Tracer) -> K,
    legacy: impl FnOnce(&mut Tracer) -> L,
) -> (K, L) {
    if legacy_first {
        let l = legacy(tr);
        (kernel(tr), l)
    } else {
        let k = kernel(tr);
        (k, legacy(tr))
    }
}

/// Both designs' single-machine runs of `spec`.
fn load_pair(
    spec: &LoadSpec,
    repro: &str,
    legacy_first: bool,
    tr: &mut Tracer,
) -> (Result<LoadRun, String>, Result<LoadRun, String>) {
    in_order(
        tr,
        legacy_first,
        |tr| {
            let replay = format!("run_kernel_load(&{repro}, None)");
            call(tr, "load.run.kernel", replay, || {
                run_kernel_load(spec, None)
            })
        },
        |tr| {
            let replay = format!("run_legacy_load(&{repro})");
            call(tr, "load.run.legacy", replay, || run_legacy_load(spec))
        },
    )
}

/// Oracle problems other than label parity, which is judged separately
/// so a divergence fails only the ops after it.
fn non_parity(problems: Vec<String>) -> Option<String> {
    problems.into_iter().find(|p| !p.starts_with("parity:"))
}

fn run_load(
    spec: &LoadSpec,
    ctor: &str,
    legacy_first: bool,
    tr: &mut Tracer,
    sim: &mut Sim,
) -> Verdict {
    let repro = load_repro(spec, ctor);
    let (k, l) = load_pair(spec, &repro, legacy_first, tr);
    for (d, r) in [(KERNEL, &k), (LEGACY, &l)] {
        if let Ok(r) = r {
            sim.load_run(d, r);
        }
    }
    let (k, l) = match (k, l) {
        (Ok(k), Ok(l)) => (k, l),
        (Err(e), _) | (_, Err(e)) => {
            sim.panicked += 1;
            return Verdict::Panicked(e);
        }
    };
    let problems = tr.time("load.oracle", || LoadRun::check_pair(&k, &l));
    if let Some(p) = non_parity(problems) {
        return Verdict::Oracle(format!("{repro}: oracle: {p}"));
    }
    match first_diff(&k.parity, &l.parity) {
        None => Verdict::Clean,
        Some(at) => Verdict::Diverged {
            at,
            line: format!(
                "{repro}: kernel {} labels, legacy {}, first differing at label {at} \
                 (kernel '{}', legacy '{}')",
                k.parity.len(),
                l.parity.len(),
                label_at(&k.parity, at),
                label_at(&l.parity, at)
            ),
        },
    }
}

/// The S1 label compare: both oracle batteries, then epoch bounds and
/// FIFO re-admission across designs. Parity is judged by the caller.
fn s1_problems(k: &S1Run, l: &S1Run) -> Option<String> {
    let mut out = Vec::new();
    out.extend(k.violations.iter().map(|v| format!("kernel: {v}")));
    out.extend(l.violations.iter().map(|v| format!("legacy: {v}")));
    if k.epoch_bounds != l.epoch_bounds {
        out.push(format!(
            "epoch bounds: kernel {:?}, legacy {:?}",
            k.epoch_bounds, l.epoch_bounds
        ));
    }
    if k.admitted_order != l.admitted_order {
        out.push("admission order differs across designs".to_string());
    }
    if let Some(w) = k.admitted_order.windows(2).find(|w| w[0] >= w[1]) {
        out.push(format!("admission: u{} released before u{}", w[1], w[0]));
    }
    for r in [k, l] {
        if r.parity.iter().any(|p| p == "busy") {
            out.push(format!("{}: a salvage retry budget ran out", r.design));
        }
    }
    out.into_iter().next()
}

fn run_salvage(spec: &S1Spec, legacy_first: bool, tr: &mut Tracer, sim: &mut Sim) -> Verdict {
    let repro = |d: &str| spec.repro(d);
    let (k, l) = in_order(
        tr,
        legacy_first,
        |tr| {
            let replay = format!("run_kernel_s1({})", repro("kernel"));
            call(tr, "load.epoch.kernel", replay, || run_kernel_s1(spec))
        },
        |tr| {
            let replay = format!("run_legacy_s1({})", repro("legacy"));
            call(tr, "load.epoch.legacy", replay, || run_legacy_s1(spec))
        },
    );
    for (d, r) in [(KERNEL, &k), (LEGACY, &l)] {
        if let Ok(r) = r {
            sim.s1_run(d, r, spec.crashes);
        }
    }
    let (k, l) = match (k, l) {
        (Ok(k), Ok(l)) => (k, l),
        (Err(e), _) | (_, Err(e)) => {
            sim.panicked += 1;
            return Verdict::Panicked(e);
        }
    };
    let (problem, diff) = tr.time("load.oracle", || {
        (s1_problems(&k, &l), first_diff(&k.parity, &l.parity))
    });
    let who = repro("both");
    if let Some(p) = problem {
        return Verdict::Oracle(format!("S1 {who}: oracle: {p}"));
    }
    match diff {
        None => Verdict::Clean,
        Some(at) => Verdict::Diverged {
            at,
            line: format!(
                "S1 {who}: kernel {} labels, legacy {}, first differing at label {at}",
                k.parity.len(),
                l.parity.len()
            ),
        },
    }
}

fn run_fleet(spec: &FleetSpec, legacy_first: bool, tr: &mut Tracer, sim: &mut Sim) -> Verdict {
    let repro = fleet_repro(spec);
    let base = format!("{repro}.base()");
    let (ks, ls) = load_pair(&spec.base(), &base, legacy_first, tr);
    let (kf, lf) = in_order(
        tr,
        legacy_first,
        |tr| {
            let replay = format!("run_kernel_fleet(&{repro}, None)");
            call(tr, "load.fleet.kernel", replay, || {
                run_kernel_fleet(spec, None)
            })
        },
        |tr| {
            let replay = format!("run_legacy_fleet(&{repro}, None)");
            call(tr, "load.fleet.legacy", replay, || {
                run_legacy_fleet(spec, None)
            })
        },
    );
    for (d, r) in [(KERNEL, &ks), (LEGACY, &ls)] {
        if let Ok(r) = r {
            sim.load_run(d, r);
        }
    }
    for (d, r) in [(KERNEL, &kf), (LEGACY, &lf)] {
        if let Ok(r) = r {
            sim.fleet_run(d, r);
        }
    }
    let (ks, ls, kf, lf) = match (ks, ls, kf, lf) {
        (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
        (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (.., Err(e)) => {
            sim.panicked += 1;
            return Verdict::Panicked(e);
        }
    };
    let (problem, diff) = tr.time("load.oracle", || {
        let problem = non_parity(LoadRun::check_pair(&ks, &ls))
            .or_else(|| non_parity(kf.check_against(&ks)).map(|p| format!("kernel fleet: {p}")))
            .or_else(|| non_parity(lf.check_against(&ls)).map(|p| format!("legacy fleet: {p}")));
        let diff = [
            first_diff(&ks.parity, &ls.parity),
            first_diff(&kf.parity, &ks.parity),
            first_diff(&lf.parity, &ls.parity),
        ]
        .into_iter()
        .flatten()
        .min();
        (problem, diff)
    });
    if let Some(p) = problem {
        return Verdict::Oracle(format!("{repro}: oracle: {p}"));
    }
    match diff {
        None => Verdict::Clean,
        Some(at) => Verdict::Diverged {
            at,
            line: format!(
                "{repro}: label streams part at label {at} (single kernel {}, single legacy {}, \
                 fleet kernel {}, fleet legacy {} labels)",
                ks.parity.len(),
                ls.parity.len(),
                kf.parity.len(),
                lf.parity.len()
            ),
        },
    }
}

/// Checks that a pass over the workload exercised the mechanism it was
/// chosen for. A workload that bypasses its mechanism must not report
/// a fast number.
pub fn check_mechanism(w: Workload, s: &Sim) -> Result<(), String> {
    let fail = |why: String| Err(format!("{}: {why}", w.name()));
    match w {
        Workload::Storm => {
            if s.queued_peak == 0 {
                return fail("no login was ever queued".into());
            }
            if s.quota_labels > 0 {
                return fail(format!("{} grows hit a quota", s.quota_labels));
            }
        }
        Workload::Small => {
            if s.quota_labels == 0 {
                return fail("no grow hit a quota".into());
            }
        }
        Workload::Salvage => {
            if s.short_plans > 0 {
                return fail(format!(
                    "{} salvage runs crashed fewer than {SALVAGE_CRASHES} times",
                    s.short_plans
                ));
            }
            if s.free_recoveries > 0 {
                return fail(format!(
                    "{} crashes recovered in zero cycles",
                    s.free_recoveries
                ));
            }
            if s.crashes[KERNEL] == 0 || s.crashes[LEGACY] == 0 {
                return fail("no salvage run crashed".into());
            }
        }
        Workload::Fleet => {
            if s.remote_ops == 0 {
                return fail("no op crossed the wire".into());
            }
            if s.migrations == 0 {
                return fail("no pack migrated".into());
            }
            if s.frames_unbalanced > 0 {
                return fail(format!(
                    "{} fleet runs delivered a different number of frames than they sent",
                    s.frames_unbalanced
                ));
            }
        }
    }
    Ok(())
}
