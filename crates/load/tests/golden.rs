//! Golden digests of every public load engine's whole output.
//!
//! Each case runs one engine on one design over a small fixed spec and
//! hashes `format!("{run:?}")` — labels, cycles, histograms, meter
//! snapshots, edge ledgers, violations, everything — with 64-bit FNV-1a.
//! A refactor of the harness must leave every digest where it is; a
//! change that means to move a figure updates the table in the same
//! commit and names the moved cases.
//!
//! The grid deliberately includes known-divergent specs (the tight
//! 32-user seed whose designs disagree, the dropped-frame fleet): a
//! refactor must preserve those defects byte-for-byte too.
//!
//! On a mismatch the test prints the moved case names and the whole
//! replacement table, ready to paste over the constant below.

use mx_explore::SeededRandomPolicy;
use mx_load::shard::ShardSpec;
use mx_load::{
    run_kernel_c1, run_kernel_fleet, run_kernel_load, run_kernel_s1, run_legacy_c1,
    run_legacy_fleet, run_legacy_load, run_legacy_s1, run_sharded, C1Policy, C1SelfCheck, C1Spec,
    FleetSpec, LoadSpec, S1SelfCheck, S1Spec,
};
use mx_sync::SchedulePolicy;

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

type Case = (String, u64);

fn digest(name: impl Into<String>, run: &impl std::fmt::Debug) -> Case {
    (name.into(), fnv1a(&format!("{run:?}")))
}

fn check(group: &str, golden: &[(&str, u64)], got: Vec<Case>) {
    let moved: Vec<&str> = got
        .iter()
        .filter(|(name, d)| golden.iter().find(|(g, _)| g == name).map(|(_, v)| v) != Some(d))
        .map(|(name, _)| name.as_str())
        .collect();
    let same_names = golden.len() == got.len()
        && golden
            .iter()
            .zip(&got)
            .all(|((g, _), (n, _))| *g == n.as_str());
    if moved.is_empty() && same_names {
        return;
    }
    let mut table = String::new();
    for (name, d) in &got {
        table.push_str(&format!("    (\"{name}\", {d:#018x}),\n"));
    }
    panic!(
        "{group}: golden digests moved for {moved:?} (case list changed: {})\n\
         replacement table:\n{table}",
        !same_names
    );
}

const LOAD: &[(&str, u64)] = &[
    ("load/kernel/new16", 0x07f31890f8adf5e8),
    ("load/legacy/new16", 0x88cc0798914aea93),
    ("load/kernel/tight6s0", 0x13e1dfb2ebe7e4c0),
    ("load/legacy/tight6s0", 0x1d9bd4f014520388),
    ("load/kernel/tight6s1", 0xd35b5347e7642707),
    ("load/legacy/tight6s1", 0xc3773c3abcacdd28),
    ("load/kernel/tight6s2", 0x4e01e5f270357b54),
    ("load/legacy/tight6s2", 0x5abbb89d7fd50c88),
    ("load/kernel/tight6s3", 0x22d7f6ab3500133b),
    ("load/legacy/tight6s3", 0x75640205b1d9e4fa),
    ("load/kernel/tight8s3", 0x8677b6ec3ecd4f9d),
    ("load/legacy/tight8s3", 0x938d7c7a4ad5ec1b),
    ("load/kernel/continuous32", 0xf00de4c1721868fa),
    ("load/legacy/continuous32", 0x2019d485f3241120),
    ("load/kernel/tight32divergent", 0x581368f1b5c09567),
    ("load/legacy/tight32divergent", 0x83037e1a3d4b7819),
];

#[test]
fn load_engine_digests() {
    let mut specs = vec![("new16", LoadSpec::new(16, 1977))];
    for seed in 0..4 {
        specs.push((
            ["tight6s0", "tight6s1", "tight6s2", "tight6s3"][seed as usize],
            LoadSpec::tight(6, seed),
        ));
    }
    specs.push(("tight8s3", LoadSpec::tight(8, 3)));
    specs.push(("continuous32", LoadSpec::continuous(32, 1977)));
    specs.push((
        "tight32divergent",
        LoadSpec::tight(32, 0x10AD ^ 0x9E37_79B9),
    ));
    let mut got = Vec::new();
    for (name, spec) in &specs {
        got.push(digest(
            format!("load/kernel/{name}"),
            &run_kernel_load(spec, None),
        ));
        got.push(digest(
            format!("load/legacy/{name}"),
            &run_legacy_load(spec),
        ));
    }
    check("load", LOAD, got);
}

const SHARD: &[(&str, u64)] = &[("shard/12x6", 0xc0f0b1ba1669eadf)];

#[test]
fn sharded_engine_digests() {
    let spec = ShardSpec {
        sessions: 12,
        seed: 1977,
        shard_users: 6,
    };
    let run = run_sharded(&spec, 1);
    // Everything but the wall clock and the worker count, which the
    // merged stream is proven independent of elsewhere.
    let stable = (
        run.sessions,
        run.n_shards,
        &run.shards,
        &run.kernel,
        &run.legacy,
        &run.violations,
    );
    check("shard", SHARD, vec![digest("shard/12x6", &stable)]);
}

const SEED: u64 = 0x0C1_1977;
const PLAN: u64 = 0xFA17_0C1A;

const C1: &[(&str, u64)] = &[
    ("c1/kernel/fifo", 0x12b20ca5fc5f11df),
    ("c1/legacy/fifo", 0x78cf3550248e6a4c),
    ("c1/kernel/pct7", 0x3118707e3d29d06c),
    ("c1/legacy/pct7", 0x78cf3550248e6a4c),
    ("c1/kernel/drop-queued", 0xfc6f30e7d09ee74e),
    ("c1/legacy/drop-queued", 0x71235672ac44080f),
];

#[test]
fn c1_digests() {
    let mut got = Vec::new();
    for (name, policy) in [("fifo", C1Policy::Fifo), ("pct7", C1Policy::Pct(7))] {
        let spec = C1Spec::new(16, SEED, PLAN, 3, policy);
        got.push(digest(format!("c1/kernel/{name}"), &run_kernel_c1(&spec)));
        got.push(digest(format!("c1/legacy/{name}"), &run_legacy_c1(&spec)));
    }
    let mut cheat = C1Spec::new(16, SEED, PLAN, 3, C1Policy::Fifo);
    cheat.self_check = C1SelfCheck::DropQueuedLogin;
    got.push(digest("c1/kernel/drop-queued", &run_kernel_c1(&cheat)));
    got.push(digest("c1/legacy/drop-queued", &run_legacy_c1(&cheat)));
    check("c1", C1, got);
}

const S1: &[(&str, u64)] = &[
    ("s1/kernel/fifo", 0xe8658c24302ac2dc),
    ("s1/legacy/fifo", 0x3a782b72580438bb),
    ("s1/kernel/pct7", 0xc035f6016d83fc60),
    ("s1/legacy/pct7", 0x3a782b72580438bb),
    ("s1/kernel/fifo32", 0x077662482a6b265b),
    ("s1/legacy/fifo32", 0xe972bd29c69c76ec),
    ("s1/kernel/release-early", 0x65701b9563f959e0),
    ("s1/legacy/release-early", 0x35f587a54b5a083e),
];

#[test]
fn s1_digests() {
    let mut got = Vec::new();
    for (name, policy) in [("fifo", C1Policy::Fifo), ("pct7", C1Policy::Pct(7))] {
        let spec = S1Spec::new(16, SEED, PLAN, 3, policy);
        got.push(digest(format!("s1/kernel/{name}"), &run_kernel_s1(&spec)));
        got.push(digest(format!("s1/legacy/{name}"), &run_legacy_s1(&spec)));
    }
    let wide = S1Spec::new(32, SEED, PLAN, 3, C1Policy::Fifo);
    got.push(digest("s1/kernel/fifo32", &run_kernel_s1(&wide)));
    got.push(digest("s1/legacy/fifo32", &run_legacy_s1(&wide)));
    let mut cheat = S1Spec::new(16, SEED, PLAN, 3, C1Policy::Fifo);
    cheat.self_check = S1SelfCheck::ReleaseBeforeCellRepair;
    got.push(digest("s1/kernel/release-early", &run_kernel_s1(&cheat)));
    got.push(digest("s1/legacy/release-early", &run_legacy_s1(&cheat)));
    check("s1", S1, got);
}

const FLEET: &[(&str, u64)] = &[
    ("fleet/kernel/m1", 0x38a62280d2abb51c),
    ("fleet/legacy/m1", 0x887905d535a00d9e),
    ("fleet/kernel/m2", 0x7038133362104af6),
    ("fleet/legacy/m2", 0x68fdd06e88f3aadc),
    ("fleet/kernel/m4", 0xdfdf64d9b8badaac),
    ("fleet/legacy/m4", 0x79ff05f4f8c39039),
    ("fleet/kernel/migratory", 0x6be6a99605554d47),
    ("fleet/legacy/migratory", 0x0c5d58d844bf09a6),
    ("fleet/kernel/specialized", 0x8b1b810fc6be0b82),
    ("fleet/legacy/specialized", 0x4732c2d25099969d),
    ("fleet/kernel/drop3", 0x033d2952e1dc0f3d),
    ("fleet/legacy/drop3", 0x487786f709758acd),
    ("fleet/kernel/m4-random7", 0xdfdf64d9b8badaac),
    ("fleet/legacy/m4-random7", 0x79ff05f4f8c39039),
];

#[test]
fn fleet_digests() {
    let mut specs = vec![
        ("m1", FleetSpec::new(1, 16, 23)),
        ("m2", FleetSpec::new(2, 16, 23)),
        ("m4", FleetSpec::new(4, 16, 23)),
    ];
    let mut migratory = FleetSpec::new(2, 12, 5);
    migratory.migratory = true;
    specs.push(("migratory", migratory));
    let mut store = FleetSpec::new(2, 12, 31);
    store.dedicated_store = true;
    store.specialized_store = true;
    specs.push(("specialized", store));
    let mut drop = FleetSpec::new(2, 10, 23);
    drop.drop_frame = Some(3);
    specs.push(("drop3", drop));
    let mut got = Vec::new();
    for (name, spec) in &specs {
        got.push(digest(
            format!("fleet/kernel/{name}"),
            &run_kernel_fleet(spec, None),
        ));
        got.push(digest(
            format!("fleet/legacy/{name}"),
            &run_legacy_fleet(spec, None),
        ));
    }
    // One adversarial wire-delivery order over the busiest fleet.
    let m4 = FleetSpec::new(4, 16, 23);
    let random = || Some(Box::new(SeededRandomPolicy::new(7)) as Box<dyn SchedulePolicy>);
    got.push(digest(
        "fleet/kernel/m4-random7",
        &run_kernel_fleet(&m4, random()),
    ));
    got.push(digest(
        "fleet/legacy/m4-random7",
        &run_legacy_fleet(&m4, random()),
    ));
    check("fleet", FLEET, got);
}
