//! `dpvk-bench`: one hermetic benchmark with named end-to-end and
//! per-layer metrics over seven workloads. README.md (next to this file)
//! is the glossary; `BENCHMARK.json` at the repository root is the
//! contract.
//!
//! ```text
//! dpvk-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//!     as one JSON object (trace 0: end-to-end metrics, tracing off;
//!     trace 1: per-layer metrics)
//! dpvk-bench [--seed <n>] [--seconds <s>]
//!     every workload, each pass in a fresh child process of this binary
//! dpvk-bench --selfcheck [--seed <n>] [--seconds <s>]
//!     the full set twice (A/A); non-zero exit when a gated metric
//!     differs by more than its bound
//! ```
//!
//! Exit status is non-zero only for harness errors (bad arguments, child
//! spawn failure, unparsable child output, dropped trace spans) and for a
//! failed `--selfcheck`; failed ops are counted and reported instead.

mod json;
mod layers;
mod metrics;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use dpvk_core::Engine;

use json::RunResult;
use metrics::{Better, Spec, Values, END_TO_END, PER_LAYER};
use stats::median;
use workloads::{build, Params, NAMES};

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUPS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, selfcheck: false };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {NAMES:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Nothing inherited may steer the program: every `DPVK_*` variable is
/// dropped and the default on-disk cache (`target/dpvk-cache/`, which
/// `Server::bind` → `Device::new` would otherwise open) is switched off.
/// The program reads its environment once, lazily, so this runs first,
/// while the process is still single-threaded.
fn scrub_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DPVK_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("DPVK_CACHE", "off");
}

/// Per-process scratch directory next to the executable (inside the
/// build directory, so inside the checkout), removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join(format!("dpvk-bench-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// `--trace 0`: the timed window with tracing off.
fn end_to_end(name: &str, params: &Params, seconds: f64) -> RunResult {
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(build(name, params));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUPS > 0");
    let window = bench.run_window(Duration::from_secs_f64(seconds));
    let rss = peak_rss_mib();
    drop(bench);

    let mut v = Values::default();
    v.set("setup_s", median(&setups));
    v.set("op_p10_us", window.latency_us(100));
    v.set("peak_rss_mb", rss);
    RunResult {
        correct: window.total.failed == 0,
        attempted: window.total.attempted,
        failed: window.total.failed,
        metrics: v.report(END_TO_END),
    }
}

fn run_one(name: &str, args: &Args) -> Result<RunResult, String> {
    let scratch = Scratch::create()?;
    let params = Params {
        seed: args.seed,
        engine: if dpvk_vm::jit_supported() { Engine::Jit } else { Engine::Bytecode },
        workers: None,
        split_timing: false,
        scratch: scratch.0.clone(),
    };
    if !args.trace {
        return Ok(end_to_end(name, &params, args.seconds));
    }
    let (values, total) = layers::measure(name, &params, args.seconds)?;
    Ok(RunResult {
        correct: total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        metrics: values.report(PER_LAYER),
    })
}

fn print_metrics(name: &str, result: &RunResult) {
    for m in &result.metrics {
        println!("{name:<16} {:<34} {:>18.4} {}", m.name, m.value, m.unit);
    }
    println!("{name:<16} {:<34} {:>18} of {} attempts", "failed", result.failed, result.attempted);
}

/// One pass of one workload in a fresh child: process-global pools,
/// once-read configuration and recorder state cannot leak between them.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn child for {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {name} (trace {}) exited with {}",
            trace as u8, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!("child for {name} printed nothing"))?;
    RunResult::parse(line).map_err(|e| format!("child for {name}: unparsable result: {e}"))
}

/// Every workload: timed pass, then layer pass.
fn run_all(args: &Args) -> Result<Vec<(RunResult, RunResult)>, String> {
    let mut out = Vec::new();
    for name in NAMES {
        let timed = run_child(name, args, false)?;
        print_metrics(name, &timed);
        let traced = run_child(name, args, true)?;
        print_metrics(name, &traced);
        out.push((timed, traced));
    }
    Ok(out)
}

/// Relative change of `b` against `a` in the metric's *worse* direction
/// (positive = `b` is worse).
fn worsening(spec: &Spec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// A/A: two full sets of the same code; gated metrics must agree within
/// their bounds in both directions, modeled cycles exactly.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let (a, b) = (run_all(args)?, run_all(args)?);
    let mut ok = true;
    println!("\nselfcheck (A/A): workload, metric, better, A, B, worsening of B, bound");
    for (name, ((a_timed, a_traced), (b_timed, b_traced))) in NAMES.iter().zip(a.iter().zip(&b)) {
        for spec in END_TO_END {
            let (x, y) = (
                a_timed.metric(spec.name).unwrap_or(0.0),
                b_timed.metric(spec.name).unwrap_or(0.0),
            );
            let bound = spec.bound.expect("end-to-end metrics have bounds");
            let diff = worsening(spec, x, y).abs();
            // Set-up is gated against max(bound, 0.2 s): a 50 ms set-up
            // moves by more than a quarter between identical runs.
            let within = diff <= bound || (spec.name == "setup_s" && (x - y).abs() <= 0.2);
            ok &= within;
            println!(
                "{name:<16} {:<22} {:<6} {x:>14.4} {y:>14.4} {:>+8.2}% {:>5.0}%{}",
                spec.name,
                spec.better.label(),
                100.0 * worsening(spec, x, y),
                100.0 * bound,
                if within { "" } else { "  EXCEEDED" }
            );
        }
        // The issue's ungated pair, against the bounds it asked for: a
        // difference beyond them is unresolved on this host, not a
        // failure.
        let claim_bound = if *name == "serve_small" { 0.15 } else { 0.10 };
        for metric in ["op_p50_us", "ops_per_s"] {
            let spec = PER_LAYER.iter().find(|s| s.name == metric).expect("catalogue has it");
            let (x, y) =
                (a_traced.metric(metric).unwrap_or(0.0), b_traced.metric(metric).unwrap_or(0.0));
            let diff = worsening(spec, x, y);
            println!(
                "{name:<16} {metric:<22} {:<6} {x:>14.4} {y:>14.4} {:>+8.2}% {:>5.0}%{}",
                spec.better.label(),
                100.0 * diff,
                100.0 * claim_bound,
                if diff.abs() <= claim_bound { "  not gated" } else { "  not gated: unresolved" }
            );
        }
        let cycles = |r: &RunResult| r.metric("modeled_cycles_per_op").unwrap_or(0.0);
        let same = cycles(a_traced) == cycles(b_traced);
        ok &= same;
        println!(
            "{name:<16} {:<22} {:<6} {:>14} {:>14} {}",
            "modeled_cycles_per_op",
            "lower",
            cycles(a_traced),
            cycles(b_traced),
            if same { "exact" } else { "DIFFERS" }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    scrub_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpvk-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(name) = &args.workload {
        run_one(name, &args).map(|result| {
            print_metrics(name, &result);
            println!("{}", result.to_line());
            true
        })
    } else if args.selfcheck {
        selfcheck(&args)
    } else {
        run_all(&args).map(|_| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dpvk-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    /// This directory is also a package of its own: the benchmark driver
    /// builds it from the `Cargo.toml` here, the workspace builds the
    /// same `main.rs` as a binary of `dpvk-bench`. They stay the same
    /// binary only while both depend on the same crates and neither sets
    /// a profile or a feature.
    #[test]
    fn standalone_manifest_matches_the_workspace_package() {
        fn dependencies(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[dependencies]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter_map(|l| l.split(['.', ' ', '=']).next())
                .filter(|name| !name.is_empty() && !name.starts_with('#'))
                .collect()
        }
        let own = include_str!("Cargo.toml");
        let package = include_str!("../../../Cargo.toml");
        let workspace = include_str!("../../../../../Cargo.toml");
        assert_eq!(dependencies(own), dependencies(package));
        assert!(dependencies(own).len() >= 7, "{:?}", dependencies(own));
        for manifest in [own, package, workspace] {
            assert!(
                !manifest.contains("[profile"),
                "a profile section would apply to one build only"
            );
        }
        assert!(!own.contains("[features]"));
    }
}
