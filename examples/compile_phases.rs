//! Where a cold compile spends its time, phase by phase.
//!
//! Runs every suite kernel once on a fresh device (as the `cold_compile`
//! workload of `dpvk-bench` does) to learn which `(width, variant)`
//! specializations a cold pass compiles, then redoes the front end over
//! every suite source — lexing, then the rest of parsing — and the
//! compile tail of each specialization from outside, with a timer around
//! every phase: the vectorizer's build, both `ir::verify` calls, the
//! optimizer's one sweep pass by pass, the liveness the cost model and
//! the decoder share, `CostInfo::analyze_with`, frame layout, decode and
//! JIT emit. Prints, per phase, the lower quartile over the passes of
//! the per-pass sum — the table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example compile_phases [passes]
//! ```

use std::time::Instant;

use dpvk::core::{specialize, Device, ExecConfig, SpecializeOptions, Variant};
use dpvk::ir::{self, opt, Liveness};
use dpvk::ptx;
use dpvk::vm::{jit_compile, BytecodeProgram, CostInfo, FrameLayout, MachineModel};
use dpvk::workloads::all_workloads;

const PHASES: [&str; 15] = [
    "lex",
    "parse (after lex)",
    "build",
    "verify (pre-opt)",
    "opt: const_fold",
    "opt: local_cse",
    "opt: dce",
    "opt: fusion",
    "verify (post-opt)",
    "specialize (whole)",
    "Liveness::compute",
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
    let sources: Vec<String> = all_workloads().iter().map(|w| w.source()).collect();
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
        // `parse_module` lexes first; its lexing is timed alone and taken
        // off the parse column at the end of the pass.
        for source in &sources {
            timed(&mut t[0], || ptx::tokenize(source)).expect("suite source lexes");
            timed(&mut t[1], || ptx::parse_module(source)).expect("suite source parses");
        }
        for (translated, options) in &work {
            let unoptimized = SpecializeOptions { optimize: false, ..options.clone() };
            // Build runs its own verify; the same verify is timed alone
            // next and taken off the build column at the end of the pass.
            let mut f = timed(&mut t[2], || specialize(translated, &unoptimized)).unwrap().function;
            timed(&mut t[3], || ir::verify(&f)).unwrap();
            // `opt::standard_pipeline`, pass by pass.
            timed(&mut t[4], || opt::const_fold(&mut f));
            timed(&mut t[5], || opt::local_cse(&mut f));
            timed(&mut t[6], || opt::dead_code_elimination(&mut f));
            timed(&mut t[7], || {
                opt::fuse_blocks(&mut f);
                opt::remove_unreachable_blocks(&mut f)
            });
            timed(&mut t[8], || ir::verify(&f)).unwrap();
            let whole = timed(&mut t[9], || specialize(translated, options)).unwrap();
            assert_eq!(whole.function, f, "the phases above are not what specialize runs");

            // The translation cache's compile: one liveness for both.
            let live = timed(&mut t[10], || Liveness::compute(&f));
            let cost = timed(&mut t[11], || CostInfo::analyze_with(&f, &model, &live));
            let frame = timed(&mut t[12], || FrameLayout::of(&f));
            let program = timed(&mut t[13], || {
                BytecodeProgram::decode_with(&f, &frame, &model, &cost, &live)
            });
            timed(&mut t[14], || jit_compile(&program));
        }
        t[1] -= t[0];
        t[2] -= t[3];
        rows.push(t);
    }

    let bytes: usize = sources.iter().map(String::len).sum();
    println!(
        "{} sources ({bytes} bytes), {} specializations, {passes} passes, p25 of the per-pass sum",
        sources.len(),
        work.len()
    );
    for (i, name) in PHASES.iter().enumerate() {
        let mut column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        column.sort_by(f64::total_cmp);
        println!("{name:<20} {:>9.1} us", column[column.len() / 4]);
    }
}
