//! The dynamic translation cache (paper, Section 5.1).
//!
//! Kernels are registered as PTX-like modules, translated lazily to scalar
//! IR, and specialized per `(warp size, variant)` on first request.
//!
//! The paper notes that "execution managers block while contending for a
//! lock on the dynamic translation cache" — and that this contention must
//! be amortized away for the steady state to run at hardware speed. The
//! compiled-specialization table is therefore read-mostly: lookups take a
//! shared read lock with a borrowed key (no allocation per query) and
//! statistics are relaxed atomics, so warm queries never serialize
//! against each other. A mutex is held only on the compilation path, and
//! pool workers additionally keep long-lived resolution memos (see
//! `exec::worker::DispatchMemo`) so steady-state dispatch touches no
//! shared state at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::sync::{Mutex, RwLock};

use dpvk_ptx as ptx;
use dpvk_vm::{BytecodeProgram, CostInfo, FrameLayout, JitProgram, MachineModel};

use dpvk_trace::timeline::SpanKind;

use crate::error::CoreError;
use crate::flight;
use crate::persist::{PersistConfig, PersistStore, SpecArtifact, SpecId};
use crate::translate::{translate, TranslatedKernel};
use crate::vectorize::{specialize, SpecializeOptions, Specialized};

/// Which family of specialization is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Serialized scalar baseline: direct branches, yields only at
    /// barriers (always width 1).
    Baseline,
    /// Dynamic-warp-formation specialization (cooperative scalar at
    /// width 1).
    Dynamic,
    /// Static warp formation with thread-invariant elimination (width 1
    /// falls back to the baseline code).
    StaticTie,
}

impl Variant {
    /// Stable label used in trace reports and human output.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Dynamic => "dynamic",
            Variant::StaticTie => "static_tie",
        }
    }

    fn options(self, warp_size: u32) -> SpecializeOptions {
        match self {
            Variant::Baseline => SpecializeOptions::baseline(),
            Variant::Dynamic => SpecializeOptions::dynamic(warp_size),
            Variant::StaticTie => {
                if warp_size == 1 {
                    SpecializeOptions::baseline()
                } else {
                    SpecializeOptions::static_tie(warp_size)
                }
            }
        }
    }
}

/// A compiled, cost-analyzed kernel specialization ready for execution.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The specialized function.
    pub function: Arc<dpvk_ir::Function>,
    /// Cost analysis under the cache's machine model.
    pub cost: CostInfo,
    /// Register frame layout the bytecode was decoded against.
    pub frame: FrameLayout,
    /// The function pre-decoded to linear bytecode, built once here so
    /// the default engine's inner loop is a flat `match` over µops.
    pub bytecode: BytecodeProgram,
    /// Static instruction count before optimization.
    pub pre_opt_instructions: usize,
    /// Static instruction count after optimization.
    pub post_opt_instructions: usize,
    /// The bytecode JIT-compiled to native x86-64, emitted lazily on the
    /// first `Engine::Jit` warp and cached here alongside the bytecode
    /// (`None` once emission has been tried and declined).
    jit: OnceLock<Option<Arc<JitProgram>>>,
}

impl CompiledKernel {
    /// The native-code form of this specialization, emitting it on first
    /// request. Returns `None` when the host cannot run JIT code or the
    /// program has no native lowering; callers fall back to
    /// [`CompiledKernel::bytecode`].
    pub fn jit(&self, kernel: &str) -> Option<&Arc<JitProgram>> {
        self.jit
            .get_or_init(|| {
                let span = flight::span_start();
                let _phase = dpvk_trace::phase(kernel, "jit:emit");
                let program = dpvk_vm::jit_compile(&self.bytecode).map(Arc::new);
                if let Some(jit) = &program {
                    let s = jit.emit_stats();
                    dpvk_trace::add(dpvk_trace::Counter::JitCodeBytes, s.code_bytes);
                    dpvk_trace::add(dpvk_trace::Counter::JitTemplateUops, s.template_uops);
                    dpvk_trace::add(dpvk_trace::Counter::JitHelperUops, s.helper_uops);
                    dpvk_trace::add(dpvk_trace::Counter::JitWideHelperUops, s.wide_helper_uops);
                    dpvk_trace::add(dpvk_trace::Counter::JitResidentReads, s.resident_reads);
                    dpvk_trace::add(dpvk_trace::Counter::JitRefills, s.refills);
                    if let Some(start) = span {
                        flight::emit_span(SpanKind::JitEmit, kernel, start, s.code_bytes);
                    }
                }
                program
            })
            .as_ref()
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Specialization requests served from the cache.
    pub hits: u64,
    /// Requests that triggered compilation.
    pub misses: u64,
    /// Total nanoseconds spent compiling.
    pub compile_ns: u64,
    /// Specializations that failed to compile (verify error, unsupported
    /// construct). Each failed key is recorded once; repeat requests are
    /// answered from the failure memo.
    pub spec_failures: u64,
    /// Requests downgraded to the scalar baseline because the requested
    /// specialization had failed.
    pub downgrades: u64,
    /// Nanoseconds of [`compile_ns`](CacheStats::compile_ns) spent in
    /// PTX→IR translation (charged once per kernel, not per variant).
    pub translate_ns: u64,
    /// Nanoseconds spent specializing (warp formation, TIE, verify).
    pub specialize_ns: u64,
    /// Nanoseconds spent decoding specialized IR to bytecode.
    pub decode_ns: u64,
    /// Specialized functions loaded from the persistent (disk) cache.
    /// Each persist hit still counts as a [`miss`](CacheStats::misses)
    /// of the in-memory cache — it just pays load + decode instead of
    /// specialization.
    pub persist_hits: u64,
    /// Persistent-cache lookups that found nothing (or a corrupt
    /// artifact) and fell through to compilation.
    pub persist_misses: u64,
    /// Artifacts written to the persistent cache.
    pub persist_writes: u64,
    /// Artifacts deleted from the persistent cache enforcing its size
    /// cap.
    pub persist_evictions: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queries = self.hits + self.misses;
        let hit_rate = if queries == 0 { 0.0 } else { 100.0 * self.hits as f64 / queries as f64 };
        write!(
            f,
            "cache: {} queries ({} hits, {} misses, {hit_rate:.1}% hit rate), {:.2} ms compiling",
            queries,
            self.hits,
            self.misses,
            self.compile_ns as f64 / 1e6
        )?;
        if self.spec_failures != 0 || self.downgrades != 0 {
            write!(
                f,
                ", {} failed specializations, {} downgrades to scalar",
                self.spec_failures, self.downgrades
            )?;
        }
        if self.translate_ns + self.specialize_ns + self.decode_ns != 0 {
            write!(
                f,
                "\ncompile phases: translate {:.2} ms, specialize {:.2} ms, decode {:.2} ms",
                self.translate_ns as f64 / 1e6,
                self.specialize_ns as f64 / 1e6,
                self.decode_ns as f64 / 1e6
            )?;
        }
        if self.persist_hits + self.persist_misses + self.persist_writes + self.persist_evictions
            != 0
        {
            write!(
                f,
                "\npersist: {} hits, {} misses, {} writes, {} evictions",
                self.persist_hits, self.persist_misses, self.persist_writes, self.persist_evictions
            )?;
        }
        Ok(())
    }
}

/// One compiled width of a kernel, with per-width hotness accounting.
///
/// `hits` counts warm resolutions served at this width (direct cache
/// hits plus memo-resolved dispatches flushed at chunk boundaries);
/// `warps` counts warps actually dispatched against this entry. Both are
/// relaxed monotonic sums, updated without the map's write lock, and are
/// what the adaptive width policy and the trace report read.
struct WidthEntry {
    width: u32,
    variant: Variant,
    compiled: Arc<CompiledKernel>,
    hits: AtomicU64,
    warps: AtomicU64,
}

/// The set of compiled widths of one translation — the cache's unit of
/// multi-width storage. A kernel has at most a handful of
/// `(width, variant)` entries, so a linear scan beats hashing a
/// composite key — and needs no key allocation.
#[derive(Default)]
struct WidthSet {
    entries: Vec<WidthEntry>,
}

impl WidthSet {
    fn find(&self, warp_size: u32, variant: Variant) -> Option<&WidthEntry> {
        self.entries.iter().find(|e| e.width == warp_size && e.variant == variant)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Snapshot of one width's accounting, for trace reports, the adaptive
/// policy, and tests. See [`TranslationCache::width_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthStats {
    /// The specialized warp width.
    pub width: u32,
    /// The specialization family compiled at this width.
    pub variant: Variant,
    /// Warm resolutions served at this width (cache hits plus
    /// memo-resolved dispatches).
    pub hits: u64,
    /// Warps dispatched against this entry.
    pub warps: u64,
}

/// Cache statistics as relaxed atomics, so the hot hit path updates them
/// without taking any lock. All counters are monotonic sums, so relaxed
/// ordering cannot misreport a snapshot taken after the work settles.
#[derive(Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    compile_ns: AtomicU64,
    spec_failures: AtomicU64,
    downgrades: AtomicU64,
    translate_ns: AtomicU64,
    specialize_ns: AtomicU64,
    decode_ns: AtomicU64,
    persist_hits: AtomicU64,
    persist_misses: AtomicU64,
    persist_writes: AtomicU64,
    persist_evictions: AtomicU64,
}

#[derive(Default)]
struct Inner {
    /// Each translation with its persistent-cache content key (`None`
    /// when persistence is off). The key is taken from the source that
    /// was translated, at the moment it is translated, so a later
    /// registration under the same name cannot pair a new source's key
    /// with this translation.
    translated: HashMap<String, (Arc<TranslatedKernel>, Option<u64>)>,
    /// Specializations that failed to compile, memoized so each launch
    /// does not retry (and re-pay for) a known-bad compilation.
    failed: HashMap<(String, u32, Variant), CoreError>,
}

/// The translation cache: kernels in, specialized functions out.
///
/// A `TranslationCache` is a cheap handle over shared state: cloning it
/// produces another handle to the *same* cache, which is what lets the
/// persistent worker pool own a reference to the cache of whatever
/// launch it is running without borrowing from the submitting thread.
pub struct TranslationCache {
    shared: Arc<CacheShared>,
}

impl Clone for TranslationCache {
    fn clone(&self) -> Self {
        TranslationCache { shared: Arc::clone(&self.shared) }
    }
}

struct CacheShared {
    model: MachineModel,
    kernels: Mutex<HashMap<String, ptx::Kernel>>,
    /// Read-mostly: warm lookups take the read lock with a borrowed
    /// `&str` key; the write lock is held only to publish a freshly
    /// compiled specialization.
    compiled: RwLock<HashMap<String, WidthSet>>,
    inner: Mutex<Inner>,
    stats: StatCells,
    /// Disk-backed artifact store; `None` when persistence is disabled.
    persist: Option<PersistStore>,
}

impl TranslationCache {
    /// Create an empty cache compiling for `model`, with the persistent
    /// disk cache configured from the environment (see
    /// [`PersistConfig::from_env`]).
    pub fn new(model: MachineModel) -> Self {
        Self::with_persist(model, PersistConfig::from_env())
    }

    /// Create an empty cache compiling for `model` with explicit
    /// persistence control: `None` keeps everything in memory, `Some`
    /// loads specialized functions from (and stores them to) the
    /// configured directory.
    pub fn with_persist(model: MachineModel, persist: Option<PersistConfig>) -> Self {
        TranslationCache {
            shared: Arc::new(CacheShared {
                model,
                kernels: Mutex::new(HashMap::new()),
                compiled: RwLock::new(HashMap::new()),
                inner: Mutex::new(Inner::default()),
                stats: StatCells::default(),
                persist: persist.and_then(PersistStore::open),
            }),
        }
    }

    /// Whether two handles refer to the same underlying cache. Worker
    /// memos use this to invalidate entries resolved against a
    /// different device's cache.
    pub fn same_cache(&self, other: &TranslationCache) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// The machine model this cache compiles for.
    pub fn model(&self) -> &MachineModel {
        &self.shared.model
    }

    /// Register every kernel of a module (later registrations shadow
    /// earlier kernels with the same name).
    pub fn register_module(&self, module: &ptx::Module) {
        let mut k = self.shared.kernels.lock();
        for kernel in &module.kernels {
            k.insert(kernel.name.clone(), kernel.clone());
        }
    }

    /// The translated (canonical scalar) form of `kernel`, translating on
    /// first use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] for unregistered kernels and any
    /// translation error otherwise.
    pub fn translated(&self, kernel: &str) -> Result<Arc<TranslatedKernel>, CoreError> {
        self.translation(kernel).map(|(t, _)| t)
    }

    /// [`TranslationCache::translated`] plus the translation's
    /// persistent-cache content key (`None` when persistence is off).
    fn translation(&self, kernel: &str) -> Result<(Arc<TranslatedKernel>, Option<u64>), CoreError> {
        {
            let inner = self.shared.inner.lock();
            if let Some(t) = inner.translated.get(kernel) {
                return Ok(t.clone());
            }
        }
        let ptx_kernel = {
            let kernels = self.shared.kernels.lock();
            kernels
                .get(kernel)
                .cloned()
                .ok_or_else(|| CoreError::NotFound(format!("kernel `{kernel}`")))?
        };
        let t = {
            let start = Instant::now();
            let span = flight::span_start();
            let _phase = dpvk_trace::phase(kernel, "translate");
            let t = Arc::new(translate(&ptx_kernel)?);
            self.shared.stats.translate_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
            if let Some(s) = span {
                flight::emit_span(SpanKind::Translate, kernel, s, t.scalar.blocks.len() as u64);
            }
            t
        };
        // Keyed by format version × model × printed source, so a changed
        // kernel body never matches a stale artifact.
        let key = self.shared.persist.as_ref().map(|_| {
            PersistStore::translation_key(&self.shared.model.name, &ptx::print_kernel(&ptx_kernel))
        });
        let mut inner = self.shared.inner.lock();
        Ok(inner.translated.entry(kernel.to_string()).or_insert((t, key)).clone())
    }

    /// The specialization of `kernel` for `(warp_size, variant)`,
    /// compiling on a miss.
    ///
    /// # Errors
    ///
    /// Propagates translation/specialization errors; see
    /// [`TranslationCache::translated`].
    pub fn get(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Result<Arc<CompiledKernel>, CoreError> {
        // Hot path: shared read lock, borrowed key, no allocation. Trace
        // bookkeeping (including `Variant::label`) runs only when the
        // trace layer is actually on.
        if let Some(c) = self.lookup_counting(kernel, warp_size, variant) {
            self.shared.stats.hits.fetch_add(1, Relaxed);
            if dpvk_trace::enabled() {
                dpvk_trace::record_cache_query(kernel, warp_size, variant.label(), true);
            }
            return Ok(c);
        }
        {
            let inner = self.shared.inner.lock();
            if let Some(e) = inner.failed.get(&(kernel.to_string(), warp_size, variant)) {
                return Err(e.clone());
            }
        }
        if dpvk_trace::enabled() {
            dpvk_trace::record_cache_query(kernel, warp_size, variant.label(), false);
        }
        let (tk, tkey) = self.translation(kernel)?;
        let start = Instant::now();
        // The specialized function: from disk, else specialize + store.
        // A disk hit still counts as an in-memory **miss** whose
        // `compile_ns` is the load + decode time, so hit/miss totals
        // stay comparable with persistence on or off.
        let disk = self.shared.persist.as_ref().zip(tkey).map(|(ps, translation_key)| {
            (ps, SpecId { kernel, translation_key, width: warp_size, variant: variant.label() })
        });
        // A planned injected fault must not be masked by a disk hit: let
        // the specialize path take (and memoize) the failure.
        #[cfg(feature = "fault-inject")]
        let disk = disk.filter(|_| {
            crate::faults::injected_specialize_failure(kernel, warp_size, variant).is_none()
        });
        let SpecArtifact { function, pre_opt_instructions, post_opt_instructions } =
            match disk.as_ref().and_then(|(ps, id)| self.load_persisted(ps, id)) {
                Some(art) => art,
                None => {
                    let s = self.specialize_checked(&tk, kernel, warp_size, variant)?;
                    let art = SpecArtifact {
                        function: s.function,
                        pre_opt_instructions: s.pre_opt_instructions,
                        post_opt_instructions: s.post_opt_instructions,
                    };
                    if let Some((ps, id)) = &disk {
                        self.store_persisted(ps, id, &art);
                    }
                    art
                }
            };
        let cost = CostInfo::analyze(&function, &self.shared.model);
        let frame = FrameLayout::of(&function);
        let decode_t = Instant::now();
        let decode_span = flight::span_start();
        let mut bytecode = BytecodeProgram::decode(&function, &frame, &self.shared.model, &cost);
        // Tag the program with its profiler identity unconditionally (one
        // Arc per compile): the µop profiler may be switched on after
        // this specialization is already cached.
        bytecode.attach_profile(kernel, variant.label());
        let decode_ns = decode_t.elapsed().as_nanos() as u64;
        self.shared.stats.decode_ns.fetch_add(decode_ns, Relaxed);
        if let Some(s) = decode_span {
            dpvk_trace::add(dpvk_trace::Counter::GuestDecodeNs, decode_ns);
            flight::emit_span(SpanKind::Decode, kernel, s, bytecode.stats.ops);
        }
        let compiled = Arc::new(CompiledKernel {
            function: Arc::new(function),
            cost,
            frame,
            bytecode,
            pre_opt_instructions,
            post_opt_instructions,
            jit: OnceLock::new(),
        });
        let elapsed = start.elapsed().as_nanos() as u64;
        dpvk_trace::record_compile(kernel, warp_size, variant.label(), elapsed);
        self.shared.stats.misses.fetch_add(1, Relaxed);
        self.shared.stats.compile_ns.fetch_add(elapsed, Relaxed);
        // Publish under the write lock; on a compile race the first
        // publication wins (both racers still count their miss, exactly
        // as the mutex-era cache did).
        let mut map = self.shared.compiled.write();
        let set = map.entry(kernel.to_string()).or_default();
        if let Some(existing) = set.find(warp_size, variant) {
            return Ok(Arc::clone(&existing.compiled));
        }
        set.entries.push(WidthEntry {
            width: warp_size,
            variant,
            compiled: Arc::clone(&compiled),
            hits: AtomicU64::new(0),
            warps: AtomicU64::new(0),
        });
        Ok(compiled)
    }

    /// Warm lookup: read lock, borrowed key, linear scan of the kernel's
    /// few specializations; charges the served width's hit counter.
    fn lookup_counting(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Option<Arc<CompiledKernel>> {
        let map = self.shared.compiled.read();
        let set = map.get(kernel)?;
        let e = set.find(warp_size, variant)?;
        e.hits.fetch_add(1, Relaxed);
        Some(Arc::clone(&e.compiled))
    }

    /// Snapshot per-width accounting for `kernel`: every compiled
    /// `(width, variant)` with its hit and dispatched-warp tallies,
    /// ordered by `(width, variant)` for deterministic reporting.
    pub fn width_stats(&self, kernel: &str) -> Vec<WidthStats> {
        let map = self.shared.compiled.read();
        let mut out: Vec<WidthStats> = map
            .get(kernel)
            .map(|set| {
                set.entries
                    .iter()
                    .map(|e| WidthStats {
                        width: e.width,
                        variant: e.variant,
                        hits: e.hits.load(Relaxed),
                        warps: e.warps.load(Relaxed),
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.sort_by_key(|s| (s.width, s.variant.label()));
        out
    }

    /// Every `(width, variant)` currently compiled for `kernel`, in
    /// deterministic `(width, variant)` order.
    pub fn observed_widths(&self, kernel: &str) -> Vec<(u32, Variant)> {
        self.width_stats(kernel).into_iter().map(|s| (s.width, s.variant)).collect()
    }

    /// Fold per-width usage flushed from a worker's dispatch memo into
    /// the served entry's accounting: `hits` resolutions and `warps`
    /// dispatched warps at `(warp_size, variant)`. Read lock only — the
    /// entry's counters are relaxed atomics.
    pub(crate) fn note_width_use(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
        hits: u64,
        warps: u64,
    ) {
        let map = self.shared.compiled.read();
        if let Some(e) = map.get(kernel).and_then(|set| set.find(warp_size, variant)) {
            if hits != 0 {
                e.hits.fetch_add(hits, Relaxed);
            }
            if warps != 0 {
                e.warps.fetch_add(warps, Relaxed);
            }
        }
    }

    /// The persisted specialization named by `id`, if the directory
    /// holds a sound one.
    fn load_persisted(&self, ps: &PersistStore, id: &SpecId<'_>) -> Option<SpecArtifact> {
        let span = flight::span_start();
        let art = ps.load_spec(id);
        let (cell, counter) = match art {
            Some(_) => (&self.shared.stats.persist_hits, dpvk_trace::Counter::PersistHits),
            None => (&self.shared.stats.persist_misses, dpvk_trace::Counter::PersistMisses),
        };
        cell.fetch_add(1, Relaxed);
        dpvk_trace::add(counter, 1);
        if let (Some(s), Some(art)) = (span, &art) {
            flight::emit_span(
                SpanKind::PersistLoad,
                id.kernel,
                s,
                art.function.blocks.len() as u64,
            );
        }
        art
    }

    /// Persist a freshly specialized function (best effort).
    fn store_persisted(&self, ps: &PersistStore, id: &SpecId<'_>, art: &SpecArtifact) {
        let span = flight::span_start();
        let evicted = ps.store_spec(id, art);
        self.shared.stats.persist_writes.fetch_add(1, Relaxed);
        self.shared.stats.persist_evictions.fetch_add(evicted, Relaxed);
        dpvk_trace::add(dpvk_trace::Counter::PersistWrites, 1);
        if let Some(s) = span {
            flight::emit_span(
                SpanKind::PersistStore,
                id.kernel,
                s,
                art.function.blocks.len() as u64,
            );
        }
    }

    /// Run `specialize` — with the fault-injection hook (forced verify
    /// failure for a chosen width) applied first when enabled — charging
    /// its time and memoizing a compile-type failure.
    fn specialize_checked(
        &self,
        tk: &TranslatedKernel,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Result<Specialized, CoreError> {
        let start = Instant::now();
        let span = flight::span_start();
        let specialized = {
            let _phase = dpvk_trace::phase(kernel, "specialize");
            #[cfg(feature = "fault-inject")]
            let injected = crate::faults::injected_specialize_failure(kernel, warp_size, variant);
            #[cfg(not(feature = "fault-inject"))]
            let injected = None;
            match injected {
                Some(e) => Err(e),
                None => specialize(tk, &variant.options(warp_size)),
            }
        };
        self.shared.stats.specialize_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        if let Some(s) = span {
            flight::emit_span(SpanKind::Specialize, kernel, s, u64::from(warp_size));
        }
        // Memoize compile-type failures so later queries (and the
        // downgrade path) answer without recompiling.
        if let Err(e @ (CoreError::Verify(_) | CoreError::Unsupported { .. })) = &specialized {
            dpvk_trace::add(dpvk_trace::Counter::SpecFailures, 1);
            dpvk_trace::record_downgrade(kernel, warp_size, variant.label(), &e.to_string());
            self.shared.stats.spec_failures.fetch_add(1, Relaxed);
            let mut inner = self.shared.inner.lock();
            inner
                .failed
                .entry((kernel.to_string(), warp_size, variant))
                .or_insert_with(|| e.clone());
        }
        specialized
    }

    /// Like [`TranslationCache::get`], but degrade gracefully: when the
    /// requested specialization fails to *compile* (verify error or
    /// unsupported construct), fall back to the width-1 scalar baseline
    /// instead of failing the launch. Returns the compiled kernel plus
    /// `true` when a downgrade happened.
    ///
    /// Entry-point numbering is assigned during translation on the
    /// canonical scalar kernel and shared by every variant, so resuming a
    /// grid mid-flight on the baseline function is safe.
    ///
    /// # Errors
    ///
    /// Propagates non-compile failures (unregistered kernel, parse
    /// errors), and any failure of the baseline itself.
    pub fn get_or_downgrade(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Result<(Arc<CompiledKernel>, bool), CoreError> {
        match self.get(kernel, warp_size, variant) {
            Ok(c) => Ok((c, false)),
            Err(CoreError::Verify(_) | CoreError::Unsupported { .. })
                if !(warp_size == 1 && variant == Variant::Baseline) =>
            {
                self.shared.stats.downgrades.fetch_add(1, Relaxed);
                let c = self.get(kernel, 1, Variant::Baseline)?;
                Ok((c, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Fold in hit/downgrade counts resolved from a worker-local dispatch
    /// memo (see `exec::worker::DispatchMemo`), which answers repeat
    /// queries without touching the shared cache and flushes its tallies
    /// here at chunk boundaries so [`TranslationCache::stats`] totals stay
    /// identical to per-query counting.
    pub(crate) fn add_resolved(&self, hits: u64, downgrades: u64) {
        if hits != 0 {
            self.shared.stats.hits.fetch_add(hits, Relaxed);
        }
        if downgrades != 0 {
            self.shared.stats.downgrades.fetch_add(downgrades, Relaxed);
        }
    }

    /// Record a specialization-type failure that was detected outside
    /// [`TranslationCache::get`] — e.g. an eager pre-translation failure
    /// at launch submission — so the async submit path reports compile
    /// errors with the same statistics and trace events as worker-side
    /// translation failures.
    pub(crate) fn note_spec_failure(&self, kernel: &str, error: &CoreError) {
        if matches!(error, CoreError::Verify(_) | CoreError::Unsupported { .. }) {
            self.shared.stats.spec_failures.fetch_add(1, Relaxed);
            dpvk_trace::add(dpvk_trace::Counter::SpecFailures, 1);
        }
        dpvk_trace::record_fault(kernel, &format!("[{}] {error}", error.code()));
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.shared.stats.hits.load(Relaxed),
            misses: self.shared.stats.misses.load(Relaxed),
            compile_ns: self.shared.stats.compile_ns.load(Relaxed),
            spec_failures: self.shared.stats.spec_failures.load(Relaxed),
            downgrades: self.shared.stats.downgrades.load(Relaxed),
            translate_ns: self.shared.stats.translate_ns.load(Relaxed),
            specialize_ns: self.shared.stats.specialize_ns.load(Relaxed),
            decode_ns: self.shared.stats.decode_ns.load(Relaxed),
            persist_hits: self.shared.stats.persist_hits.load(Relaxed),
            persist_misses: self.shared.stats.persist_misses.load(Relaxed),
            persist_writes: self.shared.stats.persist_writes.load(Relaxed),
            persist_evictions: self.shared.stats.persist_evictions.load(Relaxed),
        }
    }

    /// The registered declaration of `kernel` (signature, register file,
    /// variables).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] for unregistered kernels.
    pub fn kernel_declaration(&self, kernel: &str) -> Result<ptx::Kernel, CoreError> {
        self.shared
            .kernels
            .lock()
            .get(kernel)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("kernel `{kernel}`")))
    }
}

impl std::fmt::Debug for TranslationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let compiled: usize = self.shared.compiled.read().values().map(WidthSet::len).sum();
        let inner = self.shared.inner.lock();
        f.debug_struct("TranslationCache")
            .field("model", &self.shared.model.name)
            .field("translated", &inner.translated.len())
            .field("compiled", &compiled)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
.kernel k (.param .u64 p, .param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [n];
  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra done;
  add.u32 %r1, %r1, 1;
done:
  ret;
}
"#;

    fn cache_with_kernel() -> TranslationCache {
        // In-memory only, whatever `DPVK_CACHE_DIR` says.
        let cache = TranslationCache::with_persist(MachineModel::sandybridge_sse(), None);
        cache.register_module(&ptx::parse_module(SRC).unwrap());
        cache
    }

    #[test]
    fn miss_then_hit() {
        let cache = cache_with_kernel();
        let a = cache.get("k", 4, Variant::Dynamic).unwrap();
        let b = cache.get("k", 4, Variant::Dynamic).unwrap();
        assert!(Arc::ptr_eq(&a.function, &b.function));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!(stats.compile_ns > 0);
    }

    #[test]
    fn distinct_specializations_are_distinct_entries() {
        let cache = cache_with_kernel();
        let a = cache.get("k", 2, Variant::Dynamic).unwrap();
        let b = cache.get("k", 4, Variant::Dynamic).unwrap();
        let c = cache.get("k", 4, Variant::StaticTie).unwrap();
        assert_eq!(a.function.warp_size, 2);
        assert_eq!(b.function.warp_size, 4);
        assert_eq!(c.function.warp_size, 4);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn unknown_kernel_is_not_found() {
        let cache = cache_with_kernel();
        assert!(matches!(cache.get("absent", 4, Variant::Dynamic), Err(CoreError::NotFound(_))));
    }

    #[test]
    fn get_or_downgrade_passes_through_on_success() {
        let cache = cache_with_kernel();
        let (c, downgraded) = cache.get_or_downgrade("k", 4, Variant::Dynamic).unwrap();
        assert!(!downgraded);
        assert_eq!(c.function.warp_size, 4);
        let stats = cache.stats();
        assert_eq!(stats.downgrades, 0);
        assert_eq!(stats.spec_failures, 0);
    }

    #[test]
    fn get_or_downgrade_propagates_not_found() {
        let cache = cache_with_kernel();
        assert!(matches!(
            cache.get_or_downgrade("absent", 4, Variant::Dynamic),
            Err(CoreError::NotFound(_))
        ));
    }

    #[test]
    fn disabled_persistence_keeps_everything_in_memory() {
        let dir =
            std::env::temp_dir().join(format!("dpvk-cache-test-disabled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = TranslationCache::with_persist(MachineModel::sandybridge_sse(), None);
        c.register_module(&ptx::parse_module(SRC).unwrap());
        c.get("k", 4, Variant::Dynamic).unwrap();
        let stats = c.stats();
        assert_eq!(stats.persist_hits + stats.persist_misses + stats.persist_writes, 0);
        assert!(stats.translate_ns > 0);
        assert!(!dir.exists());
    }

    #[test]
    fn width_set_keeps_independent_per_width_stats() {
        let cache = cache_with_kernel();
        for w in [2u32, 4, 8] {
            cache.get("k", w, Variant::Dynamic).unwrap();
        }
        cache.get("k", 4, Variant::Dynamic).unwrap();
        cache.get("k", 4, Variant::Dynamic).unwrap();
        cache.get("k", 8, Variant::Dynamic).unwrap();
        let stats = cache.width_stats("k");
        assert_eq!(stats.len(), 3);
        let hits = |w: u32| stats.iter().find(|s| s.width == w).unwrap().hits;
        assert_eq!(hits(2), 0);
        assert_eq!(hits(4), 2);
        assert_eq!(hits(8), 1);
        cache.note_width_use("k", 8, Variant::Dynamic, 3, 7);
        let s8 = *cache.width_stats("k").iter().find(|s| s.width == 8).unwrap();
        assert_eq!(s8.hits, 4);
        assert_eq!(s8.warps, 7);
        assert_eq!(
            cache.observed_widths("k"),
            vec![(2, Variant::Dynamic), (4, Variant::Dynamic), (8, Variant::Dynamic)]
        );
    }

    #[test]
    fn concurrent_queries_converge() {
        let cache = Arc::new(cache_with_kernel());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for w in [1u32, 2, 4] {
                        cache.get("k", w, Variant::Dynamic).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 24);
        assert!(stats.misses >= 3);
    }
}
