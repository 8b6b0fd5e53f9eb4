//! Snapshotting recorded trace data into a serializable, printable
//! report.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::profile::{self, UopProfile};
use crate::timeline::{self, SpanTotal};
use crate::{counter, occupancy_histogram, spec_records, Counter, SpecRecord};

/// A point-in-time snapshot of everything the tracer has recorded,
/// serializable to JSON and printable as a summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// All counters, in declaration order, as `(name, value)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Warp-occupancy histogram (`occupancy[w]` = entries at width `w`).
    pub occupancy: Vec<u64>,
    /// Vectorizer effectiveness per specialization.
    pub specializations: Vec<SpecRecord>,
    /// Flight-recorder span totals per kind (queue-wait, parse,
    /// translate, ..., fault), in pipeline order.
    pub span_totals: Vec<SpanTotal>,
    /// Spans the timeline discarded because its store was full.
    pub dropped_spans: u64,
    /// µop profiles per kernel × specialization × engine path.
    pub uop_profiles: Vec<UopProfile>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl TraceReport {
    /// Capture a snapshot of the current trace state.
    pub fn capture() -> TraceReport {
        TraceReport {
            counters: Counter::ALL.iter().map(|&c| (c.name(), counter(c))).collect(),
            occupancy: occupancy_histogram(),
            specializations: spec_records(),
            span_totals: timeline::span_totals(),
            dropped_spans: timeline::dropped_spans(),
            uop_profiles: profile::profiles(),
        }
    }

    /// Value of a counter by report name (0 for unknown names).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// Serialize to a single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut j = Json::new();
        j.open_obj(None);
        j.open_obj(Some("counters"));
        for &(name, value) in &self.counters {
            j.field_u64(name, value);
        }
        j.close_obj();
        j.open_arr(Some("warp_occupancy"));
        for &n in &self.occupancy {
            j.elem_u64(n);
        }
        j.close_arr();
        j.open_obj(Some("yield_reasons"));
        j.field_u64("branch", self.counter("yield_branch"));
        j.field_u64("barrier", self.counter("yield_barrier"));
        j.field_u64("exit", self.counter("yield_exit"));
        j.close_obj();
        j.open_arr(Some("specializations"));
        for s in &self.specializations {
            j.open_obj(None);
            j.field_str("kernel", &s.kernel);
            j.field_u64("warp_size", u64::from(s.warp_size));
            j.field_str("variant", s.variant);
            j.field_u64("pre_opt_instructions", s.pre_opt_instructions);
            j.field_u64("post_opt_instructions", s.post_opt_instructions);
            j.field_u64("replicated", s.replicated);
            j.field_u64("promoted", s.promoted);
            j.field_u64("pack_glue", s.pack_glue);
            j.field_u64("unpack_glue", s.unpack_glue);
            j.field_u64("dce_removed", s.dce_removed);
            j.close_obj();
        }
        j.close_arr();
        j.open_obj(Some("span_totals"));
        for t in &self.span_totals {
            j.open_obj(Some(t.kind.name()));
            j.field_u64("calls", t.calls);
            j.field_u64("total_ns", t.total_ns);
            j.close_obj();
        }
        j.close_obj();
        j.field_u64("dropped_spans", self.dropped_spans);
        j.open_arr(Some("uop_profile"));
        for p in &self.uop_profiles {
            j.open_obj(None);
            j.field_str("kernel", &p.kernel);
            j.field_u64("warp_size", u64::from(p.warp_size));
            j.field_str("variant", &p.variant);
            j.field_str("path", p.path);
            j.open_arr(Some("uops"));
            for r in &p.rows {
                j.open_obj(None);
                j.field_str("uop", r.uop);
                j.field_bool("fused", r.fused);
                j.field_u64("hits", r.hits);
                j.field_u64("cycles", r.cycles);
                j.field_u64("static_ops", r.static_ops);
                j.close_obj();
            }
            j.close_arr();
            j.close_obj();
        }
        j.close_arr();
        j.close_obj();
        j.finish()
    }

    /// Render a human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "dpvk-trace summary");
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses, compile {}",
            self.counter("cache_hit"),
            self.counter("cache_miss"),
            fmt_ns(self.counter("cache_compile_ns")),
        );
        let _ = writeln!(
            out,
            "  yields: branch {}, barrier {}, exit {}",
            self.counter("yield_branch"),
            self.counter("yield_barrier"),
            self.counter("yield_exit"),
        );
        let entries = self.counter("warp_entries");
        if entries > 0 {
            let mut mix = String::new();
            for (w, &n) in self.occupancy.iter().enumerate() {
                if n > 0 {
                    let _ = write!(mix, " w{w}:{n}");
                }
            }
            let _ = writeln!(
                out,
                "  warp occupancy:{} (avg {:.2}); formation scanned {} slots",
                mix,
                self.counter("thread_entries") as f64 / entries as f64,
                self.counter("scan_steps"),
            );
        }
        let (spill, restore) = (self.counter("spill_bytes"), self.counter("restore_bytes"));
        if spill > 0 || restore > 0 {
            let _ = writeln!(out, "  live state: {spill} B spilled, {restore} B restored");
        }
        if !self.specializations.is_empty() {
            let _ = writeln!(
                out,
                "  specializations (kernel · w · variant · insts pre→post · vec/scalar · glue · dce):"
            );
            for s in &self.specializations {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>2}  {:<10} {:>4}→{:<4} {:>4}/{:<4} {:>4} {:>4}",
                    s.kernel,
                    s.warp_size,
                    s.variant,
                    s.pre_opt_instructions,
                    s.post_opt_instructions,
                    s.promoted,
                    s.replicated,
                    s.pack_glue + s.unpack_glue,
                    s.dce_removed,
                );
            }
        }
        let (submitted, retired) =
            (self.counter("launches_submitted"), self.counter("launches_retired"));
        if submitted > 0 || retired > 0 {
            let _ = writeln!(
                out,
                "  launches: {submitted} submitted, {retired} retired; peak stream queue {}, \
                 peak pool occupancy {}",
                self.counter("stream_queue_peak"),
                self.counter("pool_busy_peak"),
            );
        }
        let (downgraded, cancelled, spec_failures, faults) = (
            self.counter("downgraded_warps"),
            self.counter("cancelled_warps"),
            self.counter("spec_failures"),
            self.counter("faults"),
        );
        if downgraded > 0 || cancelled > 0 || spec_failures > 0 || faults > 0 {
            let _ = writeln!(
                out,
                "  degradation: {spec_failures} failed specializations, {downgraded} warps \
                 downgraded to scalar, {cancelled} warps cancelled, {faults} faults",
            );
        }
        let requests = self.counter("server_requests");
        if requests > 0 {
            let _ = writeln!(
                out,
                "  server: {requests} requests, {} admitted, {} shed, {} retries, {} degraded, \
                 {} completed, {} failed",
                self.counter("server_admitted"),
                self.counter("server_shed"),
                self.counter("server_retries"),
                self.counter("server_degraded"),
                self.counter("server_completed"),
                self.counter("server_failed"),
            );
        }
        if self.span_totals.iter().any(|t| t.calls > 0) {
            let _ = writeln!(out, "  spans (kind · calls · total):");
            for t in &self.span_totals {
                if t.calls == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "    {:<16} {:>6}  {}",
                    t.kind.name(),
                    t.calls,
                    fmt_ns(t.total_ns)
                );
            }
        }
        if !self.uop_profiles.is_empty() {
            let total: u64 =
                self.uop_profiles.iter().flat_map(|p| p.rows.iter().map(|r| r.cycles)).sum();
            let mut rows: Vec<(&UopProfile, &profile::UopRow)> = self
                .uop_profiles
                .iter()
                .flat_map(|p| p.rows.iter().map(move |r| (p, r)))
                .filter(|(_, r)| r.cycles > 0 || r.hits > 0)
                .collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.1.cycles));
            let shown = rows.len().min(10);
            let _ = writeln!(
                out,
                "  µop hotspots (top {shown} of {}; kernel · spec · path · µop · hits · cycles):",
                rows.len()
            );
            for (p, r) in rows.iter().take(shown) {
                let pct = if total > 0 { 100.0 * r.cycles as f64 / total as f64 } else { 0.0 };
                let _ = writeln!(
                    out,
                    "    {:<20} w{:<3}{:<10} {:<8} {:<12} {:>10} {:>12} ({pct:>5.1}%)",
                    p.kernel, p.warp_size, p.variant, p.path, r.uop, r.hits, r.cycles,
                );
            }
            let _ = writeln!(out, "  µop cycles attributed: {total}");
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(out, "  spans dropped (timeline store full): {}", self.dropped_spans);
        }
        out
    }

    /// Write the JSON report to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Any I/O error creating directories or writing the file.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// If tracing is enabled, capture a report, write it, the timeline and
/// the folded µop profile into the trace directory (see
/// [`enable_into`](crate::enable_into)), print the summary to stdout,
/// and return the report's path. No-op returning `None` when tracing is
/// disabled.
///
/// This is the one-liner examples and bench binaries call last thing in
/// `main`.
///
/// # Errors
///
/// Any I/O error writing the report file.
pub fn write_if_enabled() -> io::Result<Option<PathBuf>> {
    if !crate::enabled() {
        return Ok(None);
    }
    let report = TraceReport::capture();
    let path = crate::out_path("dpvk-trace.json");
    report.write_to(&path)?;
    print!("{}", report.summary());
    println!("  report: {}", path.display());
    if report.span_totals.iter().any(|t| t.calls > 0) {
        let timeline_path = crate::out_path("dpvk-timeline.json");
        timeline::write_chrome_trace(&timeline_path)?;
        println!("  timeline: {} (load in Perfetto / chrome://tracing)", timeline_path.display());
    }
    if !report.uop_profiles.is_empty() {
        let folded_path = crate::out_path("dpvk-profile.folded");
        profile::write_folded(&folded_path)?;
        println!("  µop profile: {} (collapsed stacks)", folded_path.display());
    }
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::SpanKind;

    fn report(counters: Vec<(&'static str, u64)>) -> TraceReport {
        TraceReport {
            counters,
            occupancy: vec![],
            specializations: vec![],
            span_totals: vec![],
            dropped_spans: 0,
            uop_profiles: vec![],
        }
    }

    #[test]
    fn empty_report_serializes() {
        let report = report(vec![("cache_hit", 0)]);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hit\":0"));
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn json_contains_all_sections() {
        let mut report = report(vec![("yield_branch", 2), ("warp_entries", 1)]);
        report.occupancy = vec![0, 0, 0, 0, 3];
        report.specializations = vec![crate::SpecRecord {
            kernel: "k".into(),
            warp_size: 4,
            variant: "dynamic",
            pre_opt_instructions: 100,
            post_opt_instructions: 80,
            replicated: 10,
            promoted: 50,
            pack_glue: 5,
            unpack_glue: 6,
            dce_removed: 20,
        }];
        report.span_totals = vec![SpanTotal { kind: SpanKind::Specialize, calls: 3, total_ns: 42 }];
        report.dropped_spans = 7;
        let json = report.to_json();
        for needle in [
            "\"warp_occupancy\":[0,0,0,0,3]",
            "\"specializations\":[{\"kernel\":\"k\",\"warp_size\":4",
            "\"span_totals\":{\"specialize\":{\"calls\":3,\"total_ns\":42}}",
            "\"dropped_spans\":7",
            "\"yield_reasons\":{\"branch\":2",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(report.summary().contains("spans dropped (timeline store full): 7"));
    }

    #[test]
    fn degradation_counters_summarize() {
        let report = report(vec![
            ("downgraded_warps", 3),
            ("cancelled_warps", 1),
            ("spec_failures", 1),
            ("faults", 2),
        ]);
        let summary = report.summary();
        assert!(summary.contains("3 warps downgraded"), "{summary}");
        assert!(summary.contains("1 warps cancelled"), "{summary}");
        assert!(summary.contains("2 faults"), "{summary}");
    }
}
