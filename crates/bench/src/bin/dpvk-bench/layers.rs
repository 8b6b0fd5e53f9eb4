//! The layer pass (`--trace 1`): where an op's time goes, layer by layer.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions and reading public statistics; the traced window also
//! switches on the *existing* flight recorder through its public API.
//! Nothing here adds instrumentation to a program crate.
//!
//! A metric a workload never sets is reported as 0: that workload does
//! not pass through the layer (README.md has the table).

use std::hint::black_box;
use std::time::{Duration, Instant};

use dpvk_core::{specialize, translate, Device, Engine, SpecializeOptions, Variant};
use dpvk_server::admission::{CapacityGate, TokenBucket};
use dpvk_server::{Request, Response};
use dpvk_trace::timeline::{self, SpanKind};
use dpvk_trace::Counter;
use dpvk_vm::{BytecodeProgram, ExecStats};

use crate::metrics::Values;
use crate::stats::{median, percentile, tail};
use crate::workloads::{build, Bench, Outcome, Params, Pass, Persist, ServeInproc, Totals, Window};

/// Median wall time of `reps` calls of `f`, in µs.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&times)
}

/// Mean wall time of one call of `f` over `calls` back-to-back calls, in
/// ns (for calls too short to time one at a time).
fn mean_ns<T>(calls: u32, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / f64::from(calls)
}

fn p50_us(window: &Window) -> f64 {
    window.latency_us(500)
}

/// The untraced window runs as this many equal slices.
const SLICES: usize = 5;

/// Median over the window's slices of the per-slice statistic: a
/// disturbance that covers fewer than half of the slices moves nothing.
fn over_slices(slices: &[Window], stat: impl Fn(&Window) -> f64) -> f64 {
    median(&slices.iter().map(stat).collect::<Vec<_>>())
}

/// Everything `--trace 1` reports for `name`.
///
/// # Errors
///
/// Harness errors only (the traced window dropped spans); failed ops are
/// counted, not returned.
pub fn measure(name: &str, params: &Params, seconds: f64) -> Result<(Values, Outcome), String> {
    let mut v = Values::default();
    let params = Params { split_timing: true, ..params.clone() };
    let mut bench = build(name, &params);
    // The untraced window is 0.7 of `--seconds`; the layer windows after
    // it add up to 0.27 of `--seconds` and to 2.7 s at most.
    let share = |part: f64| Duration::from_secs_f64(seconds.min(10.0) * part);

    // Untraced window: the client's view beyond the gated quantile.
    let before = bench.totals();
    let slice = Duration::from_secs_f64(seconds * 0.7 / SLICES as f64);
    let slices: Vec<Window> = (0..SLICES).map(|_| bench.run_window(slice)).collect();
    let op_p50_us = over_slices(&slices, |w| w.latency_us(500));
    v.set("op_p50_us", op_p50_us);
    v.set("ops_per_s", over_slices(&slices, Window::ops_per_s));
    let mut plain = Window::default();
    for slice in slices {
        plain.extend(slice);
    }
    let mut total = plain.total;
    client_view(&plain, &mut v);

    // Traced window: the flight recorder's spans and yield counters.
    let traced = traced_window(bench.as_mut(), share(0.15), &mut v)?;
    total.merge(&traced.total);
    let ops = (plain.samples.len() + traced.samples.len()) as f64;
    v.set("trace.overhead_share", p50_us(&traced) / op_p50_us.max(1e-9) - 1.0);
    v.set("failed_share", total.failed as f64 / total.attempted.max(1) as f64);
    if total.launches > 0 {
        v.set("core.exec.submit_us", total.submit_ns as f64 / total.launches as f64 / 1e3);
        v.set("core.exec.wait_us", total.wait_ns as f64 / total.launches as f64 / 1e3);
    }

    device_counters(&before, &bench.totals(), ops, &mut v);

    if let Some(stats) = bench.tenant_stats() {
        v.set("server.exec_share", stats.exec_ns as f64 / total.lat_ns.max(1) as f64);
        v.set("server.shed", stats.shed as f64);
        v.set("server.retries", stats.retries as f64);
        v.set("server.degraded", stats.degraded as f64);
    }

    let sources = bench.sources();
    compile_layers(bench.device(), &sources, &mut v);
    device_probes(bench.device(), &sources, &mut v);
    drop(bench);

    let in_process = |engine, workers| Params { engine, workers, ..params.clone() };
    let build_twin = |p: &Params| -> Box<dyn Bench> {
        // Inside the process `serve_small` is its wire-less twin.
        if name == "serve_small" {
            Box::new(ServeInproc::new(p))
        } else {
            build(name, p)
        }
    };

    // Counting pass: one chunk per launch, so modeled counts repeat.
    let mut counting = build_twin(&in_process(params.engine, Some(1)));
    let (first, second) = (counting.op().exec, counting.op().exec);
    drop(counting);
    modeled_counts(&first, &mut v);
    let repeats = first == second;
    if !repeats {
        eprintln!("dpvk-bench: modeled counts differ between two ops:\n{first}\nvs\n{second}");
    }

    // The op under each engine.
    v.set("vm.engine_is_jit", f64::from(u8::from(params.engine == Engine::Jit)));
    for (metric, engine) in
        [("vm.round_us.jit", Engine::Jit), ("vm.round_us.bytecode", Engine::Bytecode)]
    {
        if engine == Engine::Jit && !dpvk_vm::jit_supported() {
            continue;
        }
        let mut twin = build_twin(&in_process(engine, None));
        v.set(metric, p50_us(&twin.run_window(share(0.04))));
    }

    match name {
        "serve_small" => {
            let mut inproc = ServeInproc::new(&in_process(Engine::default(), None));
            let before = inproc.totals();
            let window = inproc.run_window(share(0.04));
            device_counters(&before, &inproc.totals(), window.samples.len() as f64, &mut v);
            let inproc_us = p50_us(&window);
            v.set("server.inproc_op_us", inproc_us);
            v.set("server.wire_overhead_us", op_p50_us - inproc_us);
            server_probes(&params, &mut v);
        }
        "cold_compile" => {
            let attributed: f64 = [
                "ptx.parse_us",
                "core.translate_us",
                "core.specialize_us",
                "vm.decode_us",
                "vm.jit.emit_us",
            ]
            .iter()
            .map(|m| v.get(m))
            .sum::<f64>()
                + Pass::new(Persist::Off, &params).warm_runs_us(5);
            v.set("layers.unattributed_share", 1.0 - attributed / op_p50_us.max(1e-9));
        }
        "persist_store" | "persist_restart" => persist_deltas(name, &params, share(0.04), &mut v),
        _ => {}
    }

    if !repeats {
        total.failed += 1;
    }
    Ok((v, total))
}

/// Translation-cache and allocator activity per op between two readings.
fn device_counters(before: &Totals, after: &Totals, ops: f64, v: &mut Values) {
    let per_op = |a: u64, b: u64| (a - b) as f64 / ops;
    let (a, b) = (&after.cache, &before.cache);
    v.set("core.cache.hits", per_op(a.hits, b.hits));
    v.set("core.cache.misses", per_op(a.misses, b.misses));
    v.set("core.cache.compile_us", per_op(a.compile_ns, b.compile_ns) / 1e3);
    v.set("core.persist.hits", per_op(a.persist_hits, b.persist_hits));
    v.set("core.persist.misses", per_op(a.persist_misses, b.persist_misses));
    v.set("core.persist.writes", per_op(a.persist_writes, b.persist_writes));
    let reused = (after.reuse_bytes - before.reuse_bytes) as f64;
    let fresh = (after.fresh_bytes - before.fresh_bytes) as f64;
    v.set("core.devmem.reuse_share", reused / (reused + fresh).max(1.0));
}

/// Tail, minimum and sample count of the successful ops: reported, never
/// gated, because on a shared two-core host they follow the neighbours'
/// load more than the program (README.md has the measurements).
fn client_view(window: &Window, v: &mut Values) {
    let lats = window.ok_latencies_ns();
    let (pct, value) = tail(&lats);
    v.set("client.op_tail_us", value as f64 / 1e3);
    v.set("client.op_tail_pct", pct);
    v.set("client.op_min_us", percentile(&lats, 0) as f64 / 1e3);
    v.set("client.samples", lats.len() as f64);
}

/// Run `dur` of ops with the recorder on, harvesting and clearing it
/// between short chunks so its bounded span store never overflows.
fn traced_window(bench: &mut dyn Bench, dur: Duration, v: &mut Values) -> Result<Window, String> {
    /// `dispatch_tiny` records ~400 spans per op at ~2000 ops/s; the
    /// store holds 65536.
    const CHUNK: Duration = Duration::from_millis(20);
    // The µop profiler would route every JIT warp through the
    // interpreter; the spans are what this pass is after.
    dpvk_trace::profile::set_uop_profiling(false);
    dpvk_trace::reset();
    dpvk_trace::enable();
    let mut window = Window::default();
    let mut span_ns = [0u64; SpanKind::ALL.len()];
    let mut yields = [0u64; 3];
    let mut dropped = 0;
    let opened = Instant::now();
    while opened.elapsed() < dur {
        window.extend(bench.run_window(CHUNK));
        for total in timeline::span_totals() {
            span_ns[total.kind as usize] += total.total_ns;
        }
        for (sum, counter) in
            yields.iter_mut().zip([Counter::YieldBranch, Counter::YieldBarrier, Counter::YieldExit])
        {
            *sum += dpvk_trace::counter(counter);
        }
        dropped += timeline::dropped_spans();
        dpvk_trace::reset();
    }
    dpvk_trace::disable();
    dpvk_trace::reset();

    let ops = window.samples.len() as f64;
    let span_us = |kind: SpanKind| span_ns[kind as usize] as f64 / ops / 1e3;
    v.set("core.exec.queue_wait_us", span_us(SpanKind::QueueWait));
    v.set("core.exec.execute_us", span_us(SpanKind::Execute));
    v.set("core.exec.gather_us", span_us(SpanKind::Gather));
    v.set("core.exec.retire_us", span_us(SpanKind::Retire));
    v.set("trace.yield_branch", yields[0] as f64 / ops);
    v.set("trace.yield_barrier", yields[1] as f64 / ops);
    v.set("trace.yield_exit", yields[2] as f64 / ops);
    v.set("trace.dropped_spans", dropped as f64);
    if dropped > 0 {
        return Err(format!("the traced window dropped {dropped} spans; its totals are invalid"));
    }
    Ok(window)
}

fn modeled_counts(exec: &ExecStats, v: &mut Values) {
    v.set("modeled_cycles_per_op", exec.total_cycles() as f64);
    v.set("core.exec.warp_entries", exec.warp_entries as f64);
    v.set("core.exec.avg_warp_size", exec.average_warp_size());
    v.set("core.exec.spill_bytes", exec.spill_bytes as f64);
    v.set("core.exec.restore_bytes", exec.restore_bytes as f64);
    v.set("core.exec.instructions", exec.instructions as f64);
    v.set("core.exec.cycles_body", exec.cycles_body as f64);
    v.set("core.exec.cycles_yield", exec.cycles_yield as f64);
    v.set("core.exec.cycles_manager", exec.cycles_manager as f64);
    v.set("core.exec.downgraded_warps", exec.downgraded_warps as f64);
}

/// Push the workload's kernels through each compile layer once more,
/// from outside: parse the sources, then for every `(width, variant)`
/// the warm device actually compiled, redo translate → specialize →
/// decode → JIT emit and both codecs on the cached artifacts. Times are
/// the sum over kernels of a per-call median; counts are sums.
fn compile_layers(dev: &Device, sources: &[String], v: &mut Values) {
    const REPS: usize = 5;
    let mut add = |name: &'static str, x: f64| v.set(name, v.get(name) + x);
    let cache = dev.cache();
    for source in sources {
        add("ptx.source_bytes", source.len() as f64);
        add("ptx.parse_us", time_us(REPS, || dpvk_ptx::parse_module(source)));
        let module = dpvk_ptx::parse_module(source).expect("registered source parses");
        for kernel in &module.kernels {
            let declaration = cache.kernel_declaration(&kernel.name).expect("kernel is registered");
            add("core.translate_us", time_us(REPS, || translate(&declaration)));
            let translated = cache.translated(&kernel.name).expect("kernel translates");
            add("core.translate.ir_insts", translated.scalar.instruction_count() as f64);
            for (width, variant) in cache.observed_widths(&kernel.name) {
                let options = match variant {
                    Variant::Baseline => SpecializeOptions::baseline(),
                    Variant::Dynamic => SpecializeOptions::dynamic(width),
                    Variant::StaticTie => SpecializeOptions::static_tie(width),
                };
                add("core.specialize_us", time_us(REPS, || specialize(&translated, &options)));
                let compiled = cache.get(&kernel.name, width, variant).expect("warm lookup");
                add("core.specialize.pre_opt_insts", compiled.pre_opt_instructions as f64);
                add("core.specialize.post_opt_insts", compiled.post_opt_instructions as f64);

                let decode = || {
                    BytecodeProgram::decode(
                        &compiled.function,
                        &compiled.frame,
                        dev.model(),
                        &compiled.cost,
                    )
                };
                add("vm.decode_us", time_us(REPS, decode));
                let stats = compiled.bytecode.stats;
                add("vm.decode.uops", stats.ops as f64);
                add("vm.decode.vector_uops", stats.vector_ops as f64);
                let fused = stats.fused_cmp_br
                    + stats.fused_bin_bin
                    + stats.fused_load_bin
                    + stats.fused_runs;
                add("vm.decode.fused_uops", fused as f64);

                add("vm.jit.emit_us", time_us(REPS, || dpvk_vm::jit_compile(&compiled.bytecode)));
                if let Some(jit) = dpvk_vm::jit_compile(&compiled.bytecode) {
                    let emitted = jit.emit_stats();
                    add("vm.jit.code_bytes", emitted.code_bytes as f64);
                    add("vm.jit.template_uops", emitted.template_uops as f64);
                    add("vm.jit.helper_uops", emitted.helper_uops as f64);
                    add("vm.jit.wide_helper_uops", emitted.wide_helper_uops as f64);
                }

                let ir_bytes = dpvk_ir::serial::function_to_bytes(&compiled.function);
                add("ir.serial.bytes", ir_bytes.len() as f64);
                add(
                    "ir.serial.encode_us",
                    time_us(REPS, || dpvk_ir::serial::function_to_bytes(&compiled.function)),
                );
                add(
                    "ir.serial.decode_us",
                    time_us(REPS, || dpvk_ir::serial::function_from_bytes(&ir_bytes)),
                );
                let vm_bytes = dpvk_vm::serial::program_to_bytes(&compiled.bytecode);
                add("vm.serial.bytes", vm_bytes.len() as f64);
                add(
                    "vm.serial.encode_us",
                    time_us(REPS, || dpvk_vm::serial::program_to_bytes(&compiled.bytecode)),
                );
                add(
                    "vm.serial.decode_us",
                    time_us(REPS, || dpvk_vm::serial::program_from_bytes(&vm_bytes)),
                );
            }
        }
    }
}

/// Warm translation-cache lookup, allocator round trip and copy
/// bandwidth on the workload's device.
fn device_probes(dev: &Device, sources: &[String], v: &mut Values) {
    let module = dpvk_ptx::parse_module(&sources[0]).expect("registered source parses");
    let kernel = &module.kernels[0].name;
    if let Some(&(width, variant)) = dev.cache().observed_widths(kernel).first() {
        v.set("core.cache.hit_ns", mean_ns(100_000, || dev.cache().get(kernel, width, variant)));
    }
    let pair = mean_ns(20_000, || dev.malloc(64 << 10).and_then(|p| dev.free(p)));
    v.set("core.devmem.alloc_free_ns", pair);

    const MIB: usize = 1 << 20;
    let host = vec![0xA5u8; MIB];
    let mut back = vec![0u8; MIB];
    if let Ok(buffer) = dev.alloc(MIB) {
        let gbps = |us: f64| MIB as f64 / (us * 1e3);
        v.set("core.devmem.htod_gbps", gbps(time_us(51, || dev.memcpy_htod(buffer.ptr(), &host))));
        v.set(
            "core.devmem.dtoh_gbps",
            gbps(time_us(51, || dev.memcpy_dtoh(&mut back, buffer.ptr()))),
        );
    }
}

/// Codec and admission costs on `serve_small`'s own frames.
fn server_probes(params: &Params, v: &mut Values) {
    const REPS: usize = 201;
    let job = ServeInproc::job(params.seed);
    let request = Request::Launch(job.spec("tenant-0"));
    let frame = request.encode();
    v.set("server.protocol.encode_req_us", time_us(REPS, || request.encode()));
    v.set("server.protocol.decode_req_us", time_us(REPS, || Request::decode(&frame)));
    let response =
        Response::Launched { attempts: 1, degraded: false, outputs: vec![job.want.clone()] };
    let frame = response.encode();
    v.set("server.protocol.encode_resp_us", time_us(REPS, || response.encode()));
    v.set("server.protocol.decode_resp_us", time_us(REPS, || Response::decode(&frame)));

    // What `handle_launch` does per admitted request: a token, the global
    // gate, the tenant's slot; permits released on drop.
    let config = crate::workloads::serve_config();
    let mut bucket = TokenBucket::new(config.tenant_rate_per_sec, config.tenant_burst);
    let gate = CapacityGate::new(8);
    let slots = CapacityGate::new(config.tenant_parallelism);
    let acquire = mean_ns(100_000, || {
        (bucket.try_take(Instant::now()).is_ok(), gate.try_acquire(), slots.try_acquire())
    });
    v.set("server.admission.acquire_ns", acquire);
}

/// What persistence adds to a cold pass (store) or saves (restart),
/// from passes of both kinds alternated in one process.
fn persist_deltas(name: &str, params: &Params, dur: Duration, v: &mut Values) {
    let mode = if name == "persist_store" { Persist::Store } else { Persist::Restart };
    let mut persisted = Pass::new(mode, params);
    let mut cold = Pass::new(Persist::Off, params);
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let opened = Instant::now();
    while opened.elapsed() < dur || with.len() < 3 {
        with.push(persisted.op().lat_ns as f64 / 1e3);
        without.push(cold.op().lat_ns as f64 / 1e3);
    }
    v.set("core.persist.dir_bytes", persisted.dir_bytes() as f64);
    let delta = median(&with) - median(&without);
    match mode {
        Persist::Store => v.set("core.persist.store_extra_us", delta),
        _ => v.set("core.persist.restart_saved_us", -delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::window;

    #[test]
    fn slice_median_ignores_a_loud_minority() {
        // Five 1 ms slices; the neighbours are loud during two of them.
        let quiet = |us| window(1000, &[(us, true); 9]);
        let loud = |us| window(1000, &[(us, true); 3]);
        let slices = [quiet(100), loud(300), quiet(102), loud(330), quiet(101)];
        assert_eq!(over_slices(&slices, |w| w.latency_us(500)), 102.0);
        assert_eq!(over_slices(&slices, Window::ops_per_s), 9000.0);
        // A loud majority does move it.
        let slices = [quiet(100), loud(300), loud(310), loud(330), quiet(101)];
        assert_eq!(over_slices(&slices, |w| w.latency_us(500)), 300.0);
        assert_eq!(over_slices(&slices, Window::ops_per_s), 3000.0);
    }
}
