//! Host benchmark of the load engines on both supervisor designs.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <storm|small|salvage|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, one workload. Set-up expands every script
//! and runs the workload's fixed list of units once, in canonical order,
//! to warm the engines; it is repeated and timed each time. The timed
//! phase then repeats the units — in an order drawn from `--seed` —
//! until `--seconds` have passed, always finishing at least one whole
//! pass. Every execution of a unit must reproduce the first one's
//! simulated results exactly. Host seconds are reported at the
//! reference host's speed, measured by fixed benchmark-local work timed
//! between calls (see `calib`); the uncalibrated figures are printed
//! beside them.
//! The last line of standard output is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); the lines above it give the same numbers for reading.

mod calib;
mod pct;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mx_hw::{SplitMix64, Subsystem};

use trace::Tracer;
use workload::{Sim, Unit, Workload, DESIGNS, KERNEL, LEGACY};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Extra runs of every kernel engine call (see
    /// [`workload::plant_kernel_repeats`]); 0 outside calibration checks.
    plant: u32,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut plant = 0;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--plant-kernel-repeats" => {
                plant = u32::try_from(num()?).map_err(|_| format!("{flag}: too large"))?
            }
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        plant,
    })
}

/// Host seconds one whole pass took, and the part of them spent inside
/// each design's engine calls; speed samples excluded.
#[derive(Debug, Clone, Copy)]
struct PassTime {
    wall: f64,
    design: [f64; 2],
    /// Host speed over the pass (see `calib::speed`), and the design
    /// seconds with each call at the speed measured right after it.
    speed: f64,
    calibrated_design: [f64; 2],
}

/// What the timed phase measured.
struct Measured {
    /// One whole pass, units folded in canonical order.
    pass: Sim,
    passes: Vec<PassTime>,
    /// Ops attempted and failed over every unit executed.
    attempted: u64,
    failed: u64,
    /// Unit executions, executions of each unit per pass (2 in a traced
    /// run, 1 otherwise), and the wall seconds of the timed phase.
    executions: u64,
    reps: u64,
    wall_s: f64,
    /// Traced run only: seconds spent in executions without and with
    /// spans kept, over the same units.
    plain_s: f64,
    traced_s: f64,
    /// Units whose repeat differed from their first execution.
    nondeterministic: Vec<usize>,
}

/// Host seconds inside design `d`'s engine calls so far.
fn design_seconds(tr: &Tracer, d: usize) -> f64 {
    design_sum(d, |name| tr.total(name))
}

/// [`design_seconds`] at the reference host's speed.
fn calibrated_design_seconds(tr: &Tracer, d: usize) -> f64 {
    design_sum(d, |name| tr.calibrated_total(name))
}

fn design_sum(d: usize, total: impl Fn(&str) -> f64) -> f64 {
    ["run", "epoch", "fleet"]
        .iter()
        .map(|layer| total(&format!("load.{layer}.{}", DESIGNS[d])))
        .sum()
}

/// What set-up produced: the units and their first executions, and its
/// time per repeat.
struct Setup {
    units: Vec<Unit>,
    first: Vec<Sim>,
    /// Units whose later set-up execution differed from the first.
    nondeterministic: Vec<usize>,
    /// Median set-up seconds: in the host's own, and in the reference
    /// host's (each repeat at the speed sampled during it).
    raw_s: f64,
    s: f64,
    /// `session_script` seconds per repeat.
    script_s: f64,
}

/// Set-up, [`SETUP_REPEATS`] times: expand every script, then run each
/// unit once in canonical order, kernel first, which warms the engines
/// and gives every unit's first execution. The first repeat is timed
/// from process start.
fn set_up(w: Workload, process_start: Instant, tr: &mut Tracer) -> Setup {
    let mut raw = Vec::with_capacity(SETUP_REPEATS);
    let mut calibrated = Vec::with_capacity(SETUP_REPEATS);
    let mut units = Vec::new();
    let mut first: Vec<Sim> = Vec::new();
    let mut nondeterministic = Vec::new();
    for r in 0..SETUP_REPEATS {
        let t = if r == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (mark, c0) = (tr.calib_count(), tr.calib_seconds());
        tr.begin("setup");
        units = tr.time("load.script", || w.units());
        for (i, u) in units.iter().enumerate() {
            let sim = workload::run_unit(u, false, tr);
            match first.get(i) {
                None => first.push(sim),
                Some(f) if *f != sim => nondeterministic.push(i),
                Some(_) => {}
            }
        }
        tr.end();
        // One sample at the end, so that every repeat has its own.
        tr.calibrate();
        let s = t.elapsed().as_secs_f64() - (tr.calib_seconds() - c0);
        raw.push(s);
        calibrated.push(s * tr.host_speed(mark));
    }
    let script_s = tr.total("load.script") / SETUP_REPEATS as f64;
    tr.reset_totals();
    Setup {
        units,
        first,
        nondeterministic,
        raw_s: median(&mut raw),
        s: median(&mut calibrated),
        script_s,
    }
}

/// Makes whole passes over the set-up's units, in orders drawn from
/// the seed, until about `args.seconds` have passed. Every pass is
/// identical work, so each pass gives one measurement of every rate.
fn measure(args: &Args, setup: &Setup, tr: &mut Tracer) -> Measured {
    let units = &setup.units;
    let n = units.len();
    let mut rng = SplitMix64::new(args.seed);
    // A traced run executes each unit twice, once keeping spans and
    // once not, in a seeded order; the ratio of the two is the tracing
    // overhead.
    let reps = if args.trace { 2 } else { 1 };
    // Each unit's design order alternates from pass to pass, starting
    // from a seeded one, so that a run times both orders equally often
    // and its medians do not lean on how the draws fell.
    let legacy_first: Vec<bool> = (0..n).map(|_| rng.chance(1, 2)).collect();
    let mut m = Measured {
        pass: Sim::default(),
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
        executions: 0,
        reps,
        wall_s: 0.0,
        plain_s: 0.0,
        traced_s: 0.0,
        nondeterministic: setup.nondeterministic.clone(),
    };
    let start = Instant::now();
    tr.begin("timed");
    loop {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.range_usize(0, i + 1));
        }
        let mark = tr.calib_count();
        let c0 = tr.calib_seconds();
        let t0 = Instant::now();
        let d0 = [design_seconds(tr, KERNEL), design_seconds(tr, LEGACY)];
        let e0 = [
            calibrated_design_seconds(tr, KERNEL),
            calibrated_design_seconds(tr, LEGACY),
        ];
        let odd = m.passes.len() % 2 == 1;
        for i in order {
            let legacy_first = legacy_first[i] != odd;
            let modes: &[bool] = match (args.trace, rng.chance(1, 2)) {
                (false, _) => &[false],
                (true, true) => &[true, false],
                (true, false) => &[false, true],
            };
            for &keep in modes {
                tr.set_keep(keep);
                tr.begin("unit");
                let (t, c) = (Instant::now(), tr.calib_seconds());
                let sim = workload::run_unit(&units[i], legacy_first, tr);
                let dt = t.elapsed().as_secs_f64() - (tr.calib_seconds() - c);
                tr.end();
                if keep {
                    m.traced_s += dt;
                } else {
                    m.plain_s += dt;
                }
                m.executions += 1;
                m.attempted += sim.attempted;
                m.failed += sim.attempted - sim.ok;
                if sim != setup.first[i] {
                    m.nondeterministic.push(i);
                }
            }
        }
        let d1 = [design_seconds(tr, KERNEL), design_seconds(tr, LEGACY)];
        let e1 = [
            calibrated_design_seconds(tr, KERNEL),
            calibrated_design_seconds(tr, LEGACY),
        ];
        let wall = t0.elapsed().as_secs_f64() - (tr.calib_seconds() - c0);
        // The pass's speed: the samples taken between its calls, and one
        // at its end.
        tr.calibrate();
        m.passes.push(PassTime {
            wall,
            design: [d1[0] - d0[0], d1[1] - d0[1]],
            speed: tr.host_speed(mark),
            calibrated_design: [e1[0] - e0[0], e1[1] - e0[1]],
        });
        // Stop at the pass boundary nearest to the budget, after at
        // least one pass.
        let elapsed = start.elapsed().as_secs_f64();
        let made = m.passes.len() as f64;
        if elapsed + elapsed / made / 2.0 >= args.seconds as f64 {
            break;
        }
    }
    tr.set_keep(args.trace);
    tr.end();
    m.wall_s = start.elapsed().as_secs_f64();
    for f in &setup.first {
        m.pass.absorb(f);
    }
    m
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over the pass's simulated record: equal across every run of
/// the workload, whatever the seed, or the engines are not deterministic.
fn digest(s: &Sim) -> u64 {
    format!("{s:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// The host rates of both designs together, the kernel and legacy.
/// Every pass is the same work, so each rate is the median over passes
/// of (ops of one pass / host seconds of that pass). `calibrated` counts
/// each pass's seconds at the reference host's speed (see `calib`).
fn host_rates(m: &Measured, calibrated: bool) -> [f64; 3] {
    let p = &m.pass;
    let ops = [p.ops[KERNEL] + p.ops[LEGACY], p.ops[KERNEL], p.ops[LEGACY]].map(|o| o * m.reps);
    let mut out = [0.0; 3];
    for (c, o) in ops.iter().enumerate() {
        let mut v: Vec<f64> = m
            .passes
            .iter()
            .map(|t| {
                let secs = match (c, calibrated) {
                    (0, false) => t.wall,
                    (0, true) => t.wall * t.speed,
                    (_, false) => t.design[c - 1],
                    (_, true) => t.calibrated_design[c - 1],
                };
                ratio(*o as f64, secs)
            })
            .collect();
        out[c] = median(&mut v);
    }
    out
}

const RATE_NAMES: [&str; 3] = ["ops_per_s", "kernel_ops_per_s", "legacy_ops_per_s"];

fn end_to_end(m: &Measured, setup: &Setup, peak_rss_mb: f64, out: &mut Vec<Metric>) {
    let p = &m.pass;
    for (name, r) in RATE_NAMES.iter().zip(host_rates(m, true)) {
        metric(out, *name, r, "1/s");
    }
    metric(out, "setup_s", setup.s, "s");
    metric(out, "peak_rss_mb", peak_rss_mb, "MB");
    metric(
        out,
        "ok_ops_share",
        ratio(p.ok as f64, p.attempted as f64),
        "share",
    );
    for (d, name) in DESIGNS.iter().enumerate() {
        metric(
            out,
            format!("{name}_ops_per_mcycle"),
            ratio(p.ops[d] as f64 * 1e6, p.cycles[d] as f64),
            "ops/Mcycle",
        );
    }
    for (d, name) in DESIGNS.iter().enumerate() {
        let mut sorted = p.samples[d].clone();
        sorted.sort_unstable();
        for q in [50, 99] {
            let v = pct::nearest_rank(&sorted, q).unwrap_or(0);
            metric(out, format!("{name}_op_cycles_p{q}"), v as f64, "cycles");
        }
    }
}

fn per_layer(m: &Measured, tr: &Tracer, setup: &Setup, out: &mut Vec<Metric>) {
    let p = &m.pass;
    let units = setup.units.len();
    for (name, r) in RATE_NAMES.iter().zip(host_rates(m, false)) {
        metric(out, format!("raw.{name}"), r, "1/s");
    }
    metric(out, "raw.setup_s", setup.raw_s, "s");
    metric(out, "host.speed", tr.host_speed(0), "ratio");
    metric(out, "host.calib_share", tr.calib_share(), "share");
    // Host seconds per whole pass over the workload's units.
    let per_pass = ratio(units as f64, m.executions as f64);
    for layer in ["run", "epoch", "fleet"] {
        for d in DESIGNS {
            let name = format!("load.{layer}.{d}");
            metric(out, format!("{name}.s"), tr.total(&name) * per_pass, "s");
        }
    }
    for (d, name) in DESIGNS.iter().enumerate() {
        let us = design_seconds(tr, d) * 1e6 * per_pass;
        metric(
            out,
            format!("{name}.host_us_per_op"),
            ratio(us, p.ops[d] as f64),
            "us",
        );
    }
    metric(
        out,
        "load.oracle.s",
        tr.total("load.oracle") * per_pass,
        "s",
    );
    metric(out, "load.script.s", setup.script_s, "s");
    metric(
        out,
        "trace.overhead_share",
        ratio(m.traced_s, m.plain_s) - 1.0,
        "share",
    );
    metric(out, "trace.spans", tr.span_count() as f64, "count");

    metric(
        out,
        "load.epoch.recovery_mcycles",
        p.recovery_cycles as f64 / 1e6,
        "Mcycles",
    );
    metric(out, "load.epoch.retries", p.retries as f64, "count");
    metric(out, "load.epoch.blocked_ops", p.blocked_ops as f64, "count");
    metric(out, "load.epoch.overlap_ops", p.overlap_ops as f64, "count");
    metric(
        out,
        "load.epoch.salvage_repairs",
        p.salvage_repairs as f64,
        "count",
    );

    metric(out, "load.fleet.frames_sent", p.frames_sent as f64, "count");
    metric(
        out,
        "load.fleet.frames_delivered",
        p.frames_delivered as f64,
        "count",
    );
    metric(
        out,
        "load.fleet.remote_ops_share",
        ratio(p.remote_ops as f64, p.fleet_ops as f64),
        "share",
    );
    metric(out, "load.fleet.migrations", p.migrations as f64, "count");
    metric(out, "load.fleet.relocations", p.relocations as f64, "count");
    metric(
        out,
        "load.fleet.store_mcycles",
        p.store_cycles as f64 / 1e6,
        "Mcycles",
    );
    metric(
        out,
        "load.fleet.wall_mcycles",
        p.wall_cycles as f64 / 1e6,
        "Mcycles",
    );

    for (d, name) in DESIGNS.iter().enumerate() {
        for s in Subsystem::ALL {
            let i = s.index();
            let base = format!("{name}.meter.{}", s.name());
            metric(
                out,
                format!("{base}.mcycles"),
                p.meter_cycles[d][i] as f64 / 1e6,
                "Mcycles",
            );
            metric(
                out,
                format!("{base}.entries"),
                p.meter_entries[d][i] as f64,
                "count",
            );
        }
    }

    metric(out, "load.run.queued_peak", p.queued_peak as f64, "count");
    metric(out, "load.run.abandoned", p.abandoned as f64, "count");
    metric(
        out,
        "kernel.queue_delay_per_dispatch",
        ratio(p.queue_wait as f64, p.dispatches as f64),
        "cycles",
    );
    metric(
        out,
        "kernel.event_queue_hwm",
        p.event_queue_hwm as f64,
        "count",
    );
    for (d, name) in DESIGNS.iter().enumerate() {
        metric(
            out,
            format!("{name}.setup_mcycles"),
            p.setup_cycles[d] as f64 / 1e6,
            "Mcycles",
        );
    }
    metric(
        out,
        "small.quota_hit_share",
        ratio(p.quota_labels as f64, p.grow_labels as f64),
        "share",
    );
    for (d, name) in DESIGNS.iter().enumerate() {
        metric(
            out,
            format!("{name}.failed_ops"),
            p.failed[d] as f64,
            "count",
        );
    }
    metric(out, "runs.panicked", p.panicked as f64, "count");
    metric(out, "hw.meter.events", p.meter_events as f64, "count");
    for (d, name) in DESIGNS.iter().enumerate() {
        metric(
            out,
            format!("{name}.op_samples"),
            p.samples[d].len() as f64,
            "count",
        );
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <storm|small|salvage|fleet> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    workload::install_panic_hook();
    workload::plant_kernel_repeats(args.plant);
    let w = args.workload;
    let mut tr = Tracer::new(process_start);
    tr.set_keep(args.trace);

    let setup = set_up(w, process_start, &mut tr);
    // The peak over set-up: later passes add heap fragmentation, not
    // working set, and their number depends on host speed.
    let peak_rss_mb = peak_rss_mb();
    let m = measure(&args, &setup, &mut tr);
    let mechanism = workload::check_mechanism(w, &m.pass);
    if let Err(e) = &mechanism {
        eprintln!("hostbench: the workload bypassed its mechanism: {e}");
        return ExitCode::from(1);
    }

    let mut metrics = Vec::new();
    if args.trace {
        per_layer(&m, &tr, &setup, &mut metrics);
    } else {
        end_to_end(&m, &setup, peak_rss_mb, &mut metrics);
    }

    println!(
        "workload={} seed={} units={} executions={} timed_s={:.3} trace={}",
        w.name(),
        args.seed,
        setup.units.len(),
        m.executions,
        m.wall_s,
        u8::from(args.trace)
    );
    let fmt = |f: &dyn Fn(&PassTime) -> f64| {
        let v: Vec<String> = m.passes.iter().map(|t| format!("{:.3}", f(t))).collect();
        v.join(" ")
    };
    println!("pass seconds: {}", fmt(&|t| t.wall));
    println!("pass host speed: {}", fmt(&|t| t.speed));
    for (d, name) in DESIGNS.iter().enumerate() {
        println!("pass {name} seconds: {}", fmt(&|t| t.design[d]));
        println!(
            "pass {name} reference seconds: {}",
            fmt(&|t| t.calibrated_design[d])
        );
    }
    let raw = host_rates(&m, false);
    println!(
        "host speed {} over {} samples; uncalibrated: ops_per_s {} kernel_ops_per_s {} \
         legacy_ops_per_s {} setup_s {}",
        tr.host_speed(0),
        tr.calib_count(),
        raw[0],
        raw[1],
        raw[2],
        setup.raw_s
    );
    for met in &metrics {
        println!("{:<40} {:>20} {}", met.name, met.value, met.unit);
    }
    for (d, name) in DESIGNS.iter().enumerate() {
        println!("{name}_op_cycles samples: {}", m.pass.samples[d].len());
    }
    println!("sim_digest: {:016x}", digest(&m.pass));
    println!("defects: {}", m.pass.defects.len());
    for line in &m.pass.defects {
        println!("  defect: {line}");
    }
    for i in &m.nondeterministic {
        println!("  nondeterministic: unit {i} differed from its first execution");
    }
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        match tr.write(&path) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tr.span_count(),
                path.display()
            ),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|met| {
            let v = if met.value.is_finite() {
                met.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                met.name, met.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.nondeterministic.is_empty(),
        m.attempted,
        m.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
