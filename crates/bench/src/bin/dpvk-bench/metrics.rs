//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. The tables
//! mirror `BENCHMARK.json` at the repository root; a unit test holds the
//! two together. README.md explains each metric and which end-to-end
//! metric it is expected to move on which workload.

use crate::json::Metric;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before a change is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// Printed by `--trace 0`, measured with tracing off.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p10_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
];

/// Printed by `--trace 1`, in the order of README.md's glossary.
pub const PER_LAYER: &[Spec] = &[
    layer("failed_share", "ratio", Lower),
    layer("modeled_cycles_per_op", "cycles", Lower),
    layer("op_p50_us", "us", Lower),
    layer("ops_per_s", "1/s", Higher),
    layer("client.op_min_us", "us", Lower),
    layer("client.op_tail_us", "us", Lower),
    layer("client.op_tail_pct", "%", Higher),
    layer("client.samples", "count", Higher),
    layer("ptx.parse_us", "us", Lower),
    layer("ptx.source_bytes", "B", Lower),
    layer("core.translate_us", "us", Lower),
    layer("core.translate.ir_insts", "count", Lower),
    layer("core.specialize_us", "us", Lower),
    layer("core.specialize.pre_opt_insts", "count", Lower),
    layer("core.specialize.post_opt_insts", "count", Lower),
    layer("vm.decode_us", "us", Lower),
    layer("vm.decode.uops", "count", Lower),
    layer("vm.decode.vector_uops", "count", Higher),
    layer("vm.decode.fused_uops", "count", Higher),
    layer("vm.jit.emit_us", "us", Lower),
    layer("vm.jit.code_bytes", "B", Lower),
    layer("vm.jit.template_uops", "count", Higher),
    layer("vm.jit.helper_uops", "count", Lower),
    layer("vm.jit.wide_helper_uops", "count", Lower),
    layer("vm.engine_is_jit", "bool", Higher),
    layer("vm.round_us.jit", "us", Lower),
    layer("vm.round_us.bytecode", "us", Lower),
    layer("ir.serial.encode_us", "us", Lower),
    layer("ir.serial.decode_us", "us", Lower),
    layer("ir.serial.bytes", "B", Lower),
    layer("vm.serial.encode_us", "us", Lower),
    layer("vm.serial.decode_us", "us", Lower),
    layer("vm.serial.bytes", "B", Lower),
    layer("core.persist.store_extra_us", "us", Lower),
    layer("core.persist.restart_saved_us", "us", Higher),
    layer("core.persist.hits", "count", Higher),
    layer("core.persist.misses", "count", Lower),
    layer("core.persist.writes", "count", Lower),
    layer("core.persist.dir_bytes", "B", Lower),
    layer("core.cache.hit_ns", "ns", Lower),
    layer("core.cache.hits", "count", Higher),
    layer("core.cache.misses", "count", Lower),
    layer("core.cache.compile_us", "us", Lower),
    layer("core.exec.submit_us", "us", Lower),
    layer("core.exec.wait_us", "us", Lower),
    layer("core.exec.warp_entries", "count", Lower),
    layer("core.exec.avg_warp_size", "threads", Higher),
    layer("core.exec.spill_bytes", "B", Lower),
    layer("core.exec.restore_bytes", "B", Lower),
    layer("core.exec.instructions", "count", Lower),
    layer("core.exec.cycles_body", "cycles", Lower),
    layer("core.exec.cycles_yield", "cycles", Lower),
    layer("core.exec.cycles_manager", "cycles", Lower),
    layer("core.exec.downgraded_warps", "count", Lower),
    layer("core.exec.queue_wait_us", "us", Lower),
    layer("core.exec.execute_us", "us", Lower),
    layer("core.exec.gather_us", "us", Lower),
    layer("core.exec.retire_us", "us", Lower),
    layer("trace.yield_branch", "count", Lower),
    layer("trace.yield_barrier", "count", Lower),
    layer("trace.yield_exit", "count", Lower),
    layer("trace.dropped_spans", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("layers.unattributed_share", "ratio", Lower),
    layer("core.devmem.alloc_free_ns", "ns", Lower),
    layer("core.devmem.htod_gbps", "GB/s", Higher),
    layer("core.devmem.dtoh_gbps", "GB/s", Higher),
    layer("core.devmem.reuse_share", "ratio", Higher),
    layer("server.protocol.encode_req_us", "us", Lower),
    layer("server.protocol.decode_req_us", "us", Lower),
    layer("server.protocol.encode_resp_us", "us", Lower),
    layer("server.protocol.decode_resp_us", "us", Lower),
    layer("server.admission.acquire_ns", "ns", Lower),
    layer("server.inproc_op_us", "us", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("server.exec_share", "ratio", Higher),
    layer("server.shed", "count", Lower),
    layer("server.retries", "count", Lower),
    layer("server.degraded", "count", Lower),
];

/// Names: a letter or digit, then up to 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: up to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Values collected during a run, emitted in catalogue order. A
/// catalogue metric the run did not set is reported as 0: the workload
/// does not pass through that layer (README.md says which).
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name`; the last value set wins.
    ///
    /// # Panics
    ///
    /// On a non-finite value: that is a harness bug, and JSON cannot
    /// carry it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    /// Every metric of `catalogue`, in its order.
    ///
    /// # Panics
    ///
    /// When a value was set under a name the catalogue does not have.
    pub fn report(&self, catalogue: &[Spec]) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(catalogue.iter().any(|s| s.name == *name), "`{name}` is not in the catalogue");
        }
        catalogue
            .iter()
            .map(|s| {
                // The result line is written without escaping.
                assert!(valid_name(s.name) && valid_unit(s.unit), "bad catalogue entry {s:?}");
                Metric { name: s.name.into(), value: self.get(s.name), unit: s.unit.into() }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(valid_unit(spec.unit), "{} unit {}", spec.name, spec.unit);
            assert!(seen.insert(spec.name), "duplicate {}", spec.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        for bad in ["", ".x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("µs") && !valid_unit(""));
    }

    /// `BENCHMARK.json` must list exactly the catalogue. It is outside
    /// this directory, so this is the only place that reads it.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text = include_str!("../../../../../BENCHMARK.json");
        for (section, catalogue) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).expect(section);
            let body = &text[start..start + text[start..].find(']').expect("section closes")];
            assert_eq!(body.matches("\"name\"").count(), catalogue.len(), "{section}");
            for spec in catalogue {
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    spec.name,
                    spec.unit,
                    spec.better.label()
                );
                if let Some(bound) = spec.bound {
                    entry.push_str(&format!(", \"bound\": {bound}"));
                }
                entry.push('}');
                assert!(body.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
    }

    #[test]
    fn unset_metrics_report_zero_in_catalogue_order() {
        let mut values = Values::default();
        values.set("peak_rss_mb", 2.0);
        values.set("setup_s", 1.0);
        values.set("setup_s", 1.5);
        let report = values.report(END_TO_END);
        let names: Vec<&str> = report.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "op_p10_us", "peak_rss_mb"]);
        assert_eq!(report[0].value, 1.5);
        assert_eq!(report[1].value, 0.0);
        assert_eq!(report[2].value, 2.0);
    }
}
