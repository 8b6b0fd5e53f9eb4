//! Where a cold compile spends its time, phase by phase.
//!
//! Runs every suite kernel once on a fresh device (as the `cold_compile`
//! workload of `dpvk-bench` does) to learn which `(width, variant)`
//! specializations a cold pass compiles, then redoes the compile tail of
//! each from outside with a timer around every phase: the vectorizer's
//! build, both `ir::verify` calls, the optimizer passes one by one,
//! `CostInfo::analyze`, frame layout, decode and JIT emit. Prints, per
//! phase, the lower quartile over the passes of the per-pass sum — the
//! table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example compile_phases [passes]
//! ```

use std::time::Instant;

use dpvk::core::{specialize, Device, ExecConfig, SpecializeOptions, Variant};
use dpvk::ir::{self, opt};
use dpvk::vm::{jit_compile, BytecodeProgram, CostInfo, FrameLayout, MachineModel};
use dpvk::workloads::all_workloads;

const PHASES: [&str; 12] = [
    "build",
    "verify (pre-opt)",
    "opt: const_fold",
    "opt: local_cse",
    "opt: dce",
    "opt: fusion",
    "verify (post-opt)",
    "specialize (whole)",
    "CostInfo::analyze",
    "FrameLayout::of",
    "decode",
    "jit emit",
];

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed().as_nanos() as f64 / 1e3;
    r
}

fn main() {
    let passes: usize = std::env::args().nth(1).map_or(15, |s| s.parse().expect("pass count"));
    let model = MachineModel::sandybridge_sse();

    // What a cold pass compiles.
    let mut work = Vec::new();
    for w in all_workloads() {
        let dev = Device::with_persist(model.clone(), 64 << 20, None);
        dev.register_source(&w.source()).expect("suite source registers");
        w.run(&dev, &ExecConfig::dynamic(4).with_workers(1)).expect("suite kernel validates");
        for kernel in &dpvk::ptx::parse_module(&w.source()).expect("suite source parses").kernels {
            let translated = dev.cache().translated(&kernel.name).expect("kernel translates");
            for (width, variant) in dev.cache().observed_widths(&kernel.name) {
                let options = match variant {
                    Variant::Baseline => SpecializeOptions::baseline(),
                    Variant::Dynamic => SpecializeOptions::dynamic(width),
                    Variant::StaticTie => SpecializeOptions::static_tie(width),
                };
                work.push((translated.clone(), options));
            }
        }
    }

    let mut rows: Vec<[f64; PHASES.len()]> = Vec::new();
    for _ in 0..passes {
        let mut t = [0f64; PHASES.len()];
        for (translated, options) in &work {
            let unoptimized = SpecializeOptions { optimize: false, ..options.clone() };
            // Build runs its own verify; the same verify is timed alone
            // next and taken off the build column at the end of the pass.
            let mut f = timed(&mut t[0], || specialize(translated, &unoptimized)).unwrap().function;
            timed(&mut t[1], || ir::verify(&f)).unwrap();
            // `opt::standard_pipeline`, pass by pass.
            for _ in 0..4 {
                let folded = timed(&mut t[2], || opt::const_fold(&mut f));
                let replaced = timed(&mut t[3], || opt::local_cse(&mut f));
                let removed = timed(&mut t[4], || opt::dead_code_elimination(&mut f));
                if folded + replaced + removed == 0 {
                    break;
                }
            }
            timed(&mut t[5], || {
                opt::fuse_blocks(&mut f);
                opt::remove_unreachable_blocks(&mut f)
            });
            timed(&mut t[6], || ir::verify(&f)).unwrap();
            let whole = timed(&mut t[7], || specialize(translated, options)).unwrap();
            assert_eq!(whole.function, f, "the phases above are not what specialize runs");

            let cost = timed(&mut t[8], || CostInfo::analyze(&f, &model));
            let frame = timed(&mut t[9], || FrameLayout::of(&f));
            let program = timed(&mut t[10], || BytecodeProgram::decode(&f, &frame, &model, &cost));
            timed(&mut t[11], || jit_compile(&program));
        }
        t[0] -= t[1];
        rows.push(t);
    }

    println!("{} specializations, {passes} passes, p25 of the per-pass sum", work.len());
    for (i, name) in PHASES.iter().enumerate() {
        let mut column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        column.sort_by(f64::total_cmp);
        println!("{name:<20} {:>9.1} us", column[column.len() / 4]);
    }
}
