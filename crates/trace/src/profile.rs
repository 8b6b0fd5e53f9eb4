//! µop-level profile aggregation for the bytecode engine.
//!
//! The engine counts per-µop dispatches and modeled-cycle attribution
//! while executing each warp (see `dpvk-vm`'s `bytecode` module) and
//! flushes one [`UopSample`] per warp call here. Samples are aggregated
//! per kernel × specialization (warp width + variant) × engine path
//! (`"avx2"` vs `"portable"`), alongside the static µop mix recorded at
//! decode time, and surfaced three ways: typed [`profiles`], a flattened
//! [`hotspots`] table for the report summary, and a collapsed-stack
//! [`folded`] file consumable by `inferno` / `flamegraph.pl`.
//!
//! Profiling rides on the trace enable flag ([`uop_enabled`] is
//! `enabled() && !opted-out`), so the disabled fast path stays one
//! relaxed atomic load per warp call. It sees only the warps the
//! bytecode engine runs: native code has no per-µop hook, and a JIT
//! warp is never rerouted to the interpreter to be profiled.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static UOPS: AtomicBool = AtomicBool::new(true);

/// Whether the µop profiler should collect samples: tracing is enabled
/// and profiling has not been opted out ([`set_uop_profiling`]).
/// Checked once per warp call by the bytecode engine.
#[inline]
pub fn uop_enabled() -> bool {
    crate::enabled() && UOPS.load(Ordering::Relaxed)
}

/// Opt the µop profiler in or out independently of the trace flag
/// (default: in).
pub fn set_uop_profiling(on: bool) {
    UOPS.store(on, Ordering::Relaxed);
}

/// One warp call's µop samples, flushed by the bytecode engine. `hits`
/// and `cycles` are indexed by opcode, parallel to `names`/`fused`
/// (which are `'static` tables owned by the engine).
#[derive(Debug, Clone, Copy)]
pub struct UopSample<'a> {
    /// Kernel name.
    pub kernel: &'a str,
    /// Warp width of the executed specialization.
    pub warp_size: u32,
    /// Specialization variant label (`"baseline"`, `"dynamic"`, ...).
    pub variant: &'a str,
    /// Engine path the warp ran on (`"avx2"` or `"portable"`).
    pub path: &'static str,
    /// Stable µop names, indexed by opcode.
    pub names: &'static [&'static str],
    /// Which opcodes are superinstructions (fused at decode).
    pub fused: &'static [bool],
    /// Per-opcode dispatch counts for this warp call.
    pub hits: &'a [u64],
    /// Per-opcode modeled-cycle attribution for this warp call.
    pub cycles: &'a [u64],
}

struct DynEntry {
    kernel: String,
    warp_size: u32,
    variant: String,
    path: &'static str,
    names: &'static [&'static str],
    fused: &'static [bool],
    hits: Vec<u64>,
    cycles: Vec<u64>,
}

struct StaticEntry {
    kernel: String,
    warp_size: u32,
    variant: String,
    counts: Vec<u64>,
}

#[derive(Default)]
struct ProfState {
    dynamic: Vec<DynEntry>,
    statics: Vec<StaticEntry>,
}

fn state() -> &'static Mutex<ProfState> {
    static STATE: OnceLock<Mutex<ProfState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(ProfState::default()))
}

fn lock_state() -> std::sync::MutexGuard<'static, ProfState> {
    state().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Aggregate one warp call's samples. Allocation-free in the steady
/// state (the per-key rows are allocated on first sight of a key).
pub fn record_uops(sample: &UopSample<'_>) {
    if !uop_enabled() {
        return;
    }
    let mut s = lock_state();
    let entry = match s.dynamic.iter_mut().find(|e| {
        e.kernel == sample.kernel
            && e.warp_size == sample.warp_size
            && e.variant == sample.variant
            && e.path == sample.path
    }) {
        Some(e) => e,
        None => {
            s.dynamic.push(DynEntry {
                kernel: sample.kernel.to_string(),
                warp_size: sample.warp_size,
                variant: sample.variant.to_string(),
                path: sample.path,
                names: sample.names,
                fused: sample.fused,
                hits: vec![0; sample.names.len()],
                cycles: vec![0; sample.names.len()],
            });
            s.dynamic.last_mut().expect("just pushed")
        }
    };
    let n = entry.hits.len().min(sample.hits.len()).min(sample.cycles.len());
    for i in 0..n {
        entry.hits[i] += sample.hits[i];
        entry.cycles[i] += sample.cycles[i];
    }
}

/// Record the static µop mix of a freshly decoded specialization
/// (`counts[opcode]` = occurrences in the linear bytecode). Engine-path
/// independent; merged into both paths' rows at report time.
pub fn record_static_mix(kernel: &str, warp_size: u32, variant: &str, counts: &[u64]) {
    if !crate::enabled() {
        return;
    }
    let mut s = lock_state();
    if let Some(e) = s
        .statics
        .iter_mut()
        .find(|e| e.kernel == kernel && e.warp_size == warp_size && e.variant == variant)
    {
        e.counts = counts.to_vec();
        return;
    }
    s.statics.push(StaticEntry {
        kernel: kernel.to_string(),
        warp_size,
        variant: variant.to_string(),
        counts: counts.to_vec(),
    });
}

/// Clear all recorded profile data (used by `trace::reset`).
pub(crate) fn reset_profile() {
    let mut s = lock_state();
    s.dynamic.clear();
    s.statics.clear();
}

// ---------------------------------------------------------------------------
// Typed views
// ---------------------------------------------------------------------------

/// One µop's aggregated row within a [`UopProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UopRow {
    /// µop name.
    pub uop: &'static str,
    /// Whether the µop is a decode-time superinstruction.
    pub fused: bool,
    /// Dynamic dispatch count.
    pub hits: u64,
    /// Modeled cycles attributed to the µop.
    pub cycles: u64,
    /// Static occurrences in the decoded bytecode.
    pub static_ops: u64,
}

/// Aggregated µop profile of one kernel × specialization × engine path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UopProfile {
    /// Kernel name.
    pub kernel: String,
    /// Warp width of the specialization.
    pub warp_size: u32,
    /// Specialization variant label.
    pub variant: String,
    /// Engine path (`"avx2"` or `"portable"`).
    pub path: &'static str,
    /// Non-empty rows in opcode order.
    pub rows: Vec<UopRow>,
}

/// All aggregated profiles, sorted by (kernel, warp, variant, path) so
/// reports are deterministic. Rows with no dynamic or static activity
/// are omitted.
pub fn profiles() -> Vec<UopProfile> {
    let s = lock_state();
    let mut out: Vec<UopProfile> = Vec::new();
    for e in &s.dynamic {
        let static_counts = s
            .statics
            .iter()
            .find(|st| {
                st.kernel == e.kernel && st.warp_size == e.warp_size && st.variant == e.variant
            })
            .map(|st| st.counts.as_slice())
            .unwrap_or(&[]);
        let rows = (0..e.names.len())
            .filter_map(|i| {
                let static_ops = static_counts.get(i).copied().unwrap_or(0);
                if e.hits[i] == 0 && e.cycles[i] == 0 && static_ops == 0 {
                    return None;
                }
                Some(UopRow {
                    uop: e.names[i],
                    fused: e.fused.get(i).copied().unwrap_or(false),
                    hits: e.hits[i],
                    cycles: e.cycles[i],
                    static_ops,
                })
            })
            .collect();
        out.push(UopProfile {
            kernel: e.kernel.clone(),
            warp_size: e.warp_size,
            variant: e.variant.clone(),
            path: e.path,
            rows,
        });
    }
    out.sort_by(|a, b| {
        (a.kernel.as_str(), a.warp_size, a.variant.as_str(), a.path).cmp(&(
            b.kernel.as_str(),
            b.warp_size,
            b.variant.as_str(),
            b.path,
        ))
    });
    out
}

/// One row of the flattened hotspot table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// Kernel name.
    pub kernel: String,
    /// Warp width of the specialization.
    pub warp_size: u32,
    /// Specialization variant label.
    pub variant: String,
    /// Engine path.
    pub path: &'static str,
    /// µop name.
    pub uop: &'static str,
    /// Dynamic dispatch count.
    pub hits: u64,
    /// Modeled cycles attributed.
    pub cycles: u64,
}

/// The `limit` hottest µop rows across all profiles, by modeled cycles
/// (ties broken deterministically by key).
pub fn hotspots(limit: usize) -> Vec<Hotspot> {
    let mut all: Vec<Hotspot> = profiles()
        .into_iter()
        .flat_map(|p| {
            let (kernel, warp_size, variant, path) = (p.kernel, p.warp_size, p.variant, p.path);
            p.rows.into_iter().filter(|r| r.cycles > 0 || r.hits > 0).map(move |r| Hotspot {
                kernel: kernel.clone(),
                warp_size,
                variant: variant.clone(),
                path,
                uop: r.uop,
                hits: r.hits,
                cycles: r.cycles,
            })
        })
        .collect();
    all.sort_by(|a, b| {
        b.cycles.cmp(&a.cycles).then_with(|| {
            (a.kernel.as_str(), a.warp_size, a.variant.as_str(), a.path, a.uop).cmp(&(
                b.kernel.as_str(),
                b.warp_size,
                b.variant.as_str(),
                b.path,
                b.uop,
            ))
        })
    });
    all.truncate(limit);
    all
}

/// Total modeled cycles attributed across every profile row.
pub fn total_cycles() -> u64 {
    lock_state().dynamic.iter().map(|e| e.cycles.iter().sum::<u64>()).sum()
}

// ---------------------------------------------------------------------------
// Collapsed-stack export
// ---------------------------------------------------------------------------

/// Render the profiles in collapsed-stack ("folded") format, one line
/// per µop row: `kernel;w<width> <variant>;<path>;<µop> <cycles>`.
/// Feed to `inferno-flamegraph` or `flamegraph.pl` to get a flame graph
/// of modeled cycles.
pub fn folded() -> String {
    let mut out = String::new();
    for p in profiles() {
        for r in &p.rows {
            if r.cycles == 0 {
                continue;
            }
            out.push_str(&format!(
                "{};w{} {};{};{} {}\n",
                p.kernel, p.warp_size, p.variant, p.path, r.uop, r.cycles
            ));
        }
    }
    out
}

/// Write the folded profile to `path`, creating parent directories.
pub fn write_folded(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, folded())
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["bin", "copy_run", "ret"];
    const FUSED: [bool; 3] = [false, true, false];

    fn sample<'a>(hits: &'a [u64], cycles: &'a [u64], path: &'static str) -> UopSample<'a> {
        UopSample {
            kernel: "k",
            warp_size: 4,
            variant: "dynamic",
            path,
            names: &NAMES,
            fused: &FUSED,
            hits,
            cycles,
        }
    }

    #[test]
    fn samples_aggregate_per_key_and_merge_static_mix() {
        let _g = crate::test_serial();
        crate::enable();
        crate::reset();
        record_static_mix("k", 4, "dynamic", &[2, 1, 1]);
        record_uops(&sample(&[10, 5, 1], &[40, 30, 2], "portable"));
        record_uops(&sample(&[10, 5, 1], &[40, 30, 2], "portable"));
        record_uops(&sample(&[1, 0, 1], &[4, 0, 2], "avx2"));
        let profiles = profiles();
        assert_eq!(profiles.len(), 2, "{profiles:?}");
        // Sorted: avx2 before portable.
        assert_eq!(profiles[0].path, "avx2");
        let portable = &profiles[1];
        assert_eq!(portable.rows[0].uop, "bin");
        assert_eq!(portable.rows[0].hits, 20);
        assert_eq!(portable.rows[0].cycles, 80);
        assert_eq!(portable.rows[0].static_ops, 2);
        assert_eq!(portable.rows[1].uop, "copy_run");
        assert!(portable.rows[1].fused);
        assert_eq!(total_cycles(), 144 + 6);
        let top = hotspots(1);
        assert_eq!(top[0].uop, "bin");
        assert_eq!(top[0].cycles, 80);
        let folded = folded();
        assert!(folded.contains("k;w4 dynamic;portable;bin 80"), "{folded}");
        crate::disable();
        crate::reset();
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = crate::test_serial();
        crate::disable();
        crate::reset();
        record_uops(&sample(&[1, 1, 1], &[1, 1, 1], "portable"));
        assert!(profiles().is_empty());
        assert_eq!(total_cycles(), 0);
    }
}
