//! Disk-backed persistent specialization cache.
//!
//! The in-memory [`TranslationCache`](crate::cache::TranslationCache)
//! dies with the process, and specialization is where a restart's
//! compile time goes. This module persists exactly one thing — each
//! specialized [`dpvk_ir::Function`] with its instruction counts — to a
//! content-addressed directory. A restarted process still translates
//! (too cheap to be worth a second artifact kind) and decodes (cheaper
//! than loading the bytecode was; DESIGN.md has the numbers), and
//! demand-loads each `(width, variant)` by key on first use.
//!
//! **Content addressing.** The artifact key is an FNV-1a64 hash over
//! the container format version, the machine-model name, the kernel's
//! printed source text, the warp width and the variant label. A changed
//! kernel body therefore produces a different key — stale artifacts are
//! never returned, they just age out.
//!
//! **Container format.** Every file is `MAGIC ∥ version ∥
//! payload-length ∥ payload-checksum ∥ payload`, and the payload starts
//! with an identity header — kernel name, translation key, width,
//! variant label — naming what the artifact *is*, independent of the
//! path it was found under. A load checks all of it against the
//! request, plus the function's own `warp_size` and `ir::verify`; any
//! mismatch (torn write, bit rot, format drift, one artifact's bytes
//! under another's name) deletes the file and reports a miss, so the
//! worst case for a bad cache is a recompile. `FORMAT_VERSION` **must
//! be bumped whenever the IR codec, the layout in this file, or what a
//! kernel's specializations assume of each other changes** — the slot
//! plan's contract, say, which lets one specialization skip a store
//! because its siblings store at the definition or recompute at entry
//! (see DESIGN.md).
//!
//! **Atomicity.** Stores write a temp file whose name is unique within
//! the process and `rename(2)` it into place, so concurrent stores —
//! other devices in this process, other processes over the same
//! directory — never observe partial artifacts.
//!
//! **Bounded size.** The directory is trimmed to `DPVK_CACHE_CAP` bytes
//! (default 256 MiB) when a store takes it over the cap, evicting
//! oldest-modified files first and counting `persist_evictions`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::SystemTime;

use dpvk_ir::serial::{self as irs, Reader};
use dpvk_trace::Counter;

use crate::sync::Mutex;

/// Bump whenever the on-disk encoding changes at either layer (this
/// container or [`dpvk_ir::serial`]), or what a kernel's
/// specializations assume of each other (the slot plan's contract:
/// which live-ins are stored at their definition, recomputed at entry,
/// or stored at the exit). A specialization persisted under one
/// contract and loaded beside siblings compiled under another would
/// restore slots nothing wrote. Old artifacts hash to different keys
/// and are evicted by the size cap instead of being misread.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"DPVKART\x03";

/// Default directory size cap: 256 MiB.
const DEFAULT_CAP_BYTES: u64 = 256 << 20;

/// Temp-file sequence. Process-global: every store in the process
/// writes `.tmp-<pid>-<seq>`, so two stores over one directory must
/// never draw the same number.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where and how large the persistent cache is.
///
/// Persistence is opt-in by location: [`Device::new`](crate::Device::new)
/// persists only when `DPVK_CACHE_DIR` names a directory
/// (`DPVK_CACHE_CAP` sets the size cap in bytes). Tests and services
/// that want explicit control use [`PersistConfig::at`] with
/// [`Device::with_persist`](crate::Device::with_persist).
#[derive(Debug, Clone)]
pub struct PersistConfig {
    dir: PathBuf,
    cap_bytes: u64,
}

impl PersistConfig {
    /// A cache rooted at `dir` with the default size cap.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistConfig { dir: dir.into(), cap_bytes: DEFAULT_CAP_BYTES }
    }

    /// Override the directory size cap (bytes).
    #[must_use]
    pub fn with_cap_bytes(mut self, cap_bytes: u64) -> Self {
        self.cap_bytes = cap_bytes;
        self
    }
}

/// What a specialization artifact is. Hashed into its file name, written
/// at the head of its payload, and compared on load with the request.
pub(crate) struct SpecId<'a> {
    pub kernel: &'a str,
    /// [`PersistStore::translation_key`] of the kernel's source.
    pub translation_key: u64,
    pub width: u32,
    pub variant: &'a str,
}

impl SpecId<'_> {
    fn key(&self) -> u64 {
        let mut h = Fnv::new();
        h.update(&self.translation_key.to_le_bytes());
        h.update(&self.width.to_le_bytes());
        h.update(self.variant.as_bytes());
        h.finish()
    }
}

/// The persisted part of a specialization; cost analysis, frame layout
/// and bytecode are re-derived from it.
pub(crate) struct SpecArtifact {
    /// The specialized (vectorized) function.
    pub function: dpvk_ir::Function,
    /// Static instruction count before optimization.
    pub pre_opt_instructions: usize,
    /// Static instruction count after optimization.
    pub post_opt_instructions: usize,
}

/// Handle to an opened cache directory.
pub(crate) struct PersistStore {
    dir: PathBuf,
    cap_bytes: u64,
    /// Bytes in the directory as far as this store knows: one listing
    /// at its first write plus every write since, corrected by each
    /// eviction pass. (Not listed at open: a store that only ever loads
    /// — every device of a warm restart — never needs the figure.)
    /// Over-counts rewrites and misses other stores' writes; both only
    /// move the next listing, which restores the true figure.
    total_bytes: Mutex<Option<u64>>,
}

impl PersistStore {
    /// Open (creating if needed) the cache directory. Returns `None` —
    /// persistence off — when the directory cannot be created.
    pub(crate) fn open(cfg: PersistConfig) -> Option<Self> {
        fs::create_dir_all(&cfg.dir).ok()?;
        Some(PersistStore { dir: cfg.dir, cap_bytes: cfg.cap_bytes, total_bytes: Mutex::new(None) })
    }

    /// Content key of a kernel's translation: format version × model ×
    /// printed source. Every specialization key derives from it.
    pub(crate) fn translation_key(model_name: &str, source: &str) -> u64 {
        let mut h = Fnv::new();
        h.update(&FORMAT_VERSION.to_le_bytes());
        h.update(model_name.as_bytes());
        h.update(&[0]);
        h.update(source.as_bytes());
        h.finish()
    }

    fn artifact_path(&self, id: &SpecId<'_>) -> PathBuf {
        let mut safe: String = id
            .kernel
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
            .take(48)
            .collect();
        if safe.is_empty() {
            safe.push('k');
        }
        self.dir.join(format!("{safe}-{:016x}.spec", id.key()))
    }

    /// Load the artifact for `id`, or `None` when there is none or the
    /// file is not a sound artifact *for `id`* (such files are deleted).
    pub(crate) fn load_spec(&self, id: &SpecId<'_>) -> Option<SpecArtifact> {
        let path = self.artifact_path(id);
        let bytes = fs::read(&path).ok()?;
        let art = decode_artifact(&bytes, id);
        if art.is_none() {
            // Scrub it so the next run does not re-pay the read.
            let _ = fs::remove_file(&path);
        }
        art
    }

    /// Store the artifact for `id`, published atomically (unique temp
    /// file + rename). Best effort: IO errors drop the artifact, they
    /// never fail the caller. Returns the number of artifacts evicted
    /// enforcing the size cap.
    pub(crate) fn store_spec(&self, id: &SpecId<'_>, art: &SpecArtifact) -> u64 {
        let mut payload = Vec::with_capacity(1 << 14);
        irs::put_str(&mut payload, id.kernel);
        irs::put_u64(&mut payload, id.translation_key);
        irs::put_u32(&mut payload, id.width);
        irs::put_str(&mut payload, id.variant);
        irs::put_u64(&mut payload, art.pre_opt_instructions as u64);
        irs::put_u64(&mut payload, art.post_opt_instructions as u64);
        irs::encode_function(&art.function, &mut payload);

        let mut buf = Vec::with_capacity(payload.len() + 28);
        buf.extend_from_slice(MAGIC);
        irs::put_u32(&mut buf, FORMAT_VERSION);
        irs::put_u64(&mut buf, payload.len() as u64);
        irs::put_u64(&mut buf, checksum(&payload));
        buf.extend_from_slice(&payload);

        let tmp =
            self.dir.join(format!(".tmp-{}-{}", std::process::id(), TMP_SEQ.fetch_add(1, Relaxed)));
        if fs::write(&tmp, &buf).is_err() || fs::rename(&tmp, self.artifact_path(id)).is_err() {
            let _ = fs::remove_file(&tmp);
            return 0;
        }
        let len = buf.len() as u64;
        let mut known = self.total_bytes.lock();
        let (evicted, total) = match *known {
            Some(total) if total + len <= self.cap_bytes => (0, total + len),
            // This store's first write, or one that crosses the cap.
            _ => self.list_and_evict(),
        };
        *known = Some(total);
        evicted
    }

    /// List the directory and trim it to the configured byte cap,
    /// deleting oldest-modified artifacts first. Returns how many were
    /// deleted and the bytes left.
    fn list_and_evict(&self) -> (u64, u64) {
        let mut files = list_artifacts(&self.dir);
        let mut total: u64 = files.iter().map(|&(_, len, _)| len).sum();
        files.sort_by_key(|&(_, _, mtime)| mtime);
        let mut evicted = 0;
        for (path, len, _) in files {
            if total <= self.cap_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
                dpvk_trace::add(Counter::PersistEvictions, 1);
            }
        }
        (evicted, total)
    }
}

/// Every artifact in `dir` (in-flight temp files excluded) with its
/// length and modification time.
fn list_artifacts(dir: &Path) -> Vec<(PathBuf, u64, SystemTime)> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    let mut files = Vec::new();
    for e in entries.flatten() {
        let Ok(meta) = e.metadata() else { continue };
        if !meta.is_file() || e.file_name().to_string_lossy().starts_with(".tmp-") {
            continue;
        }
        files.push((e.path(), meta.len(), meta.modified().unwrap_or(SystemTime::UNIX_EPOCH)));
    }
    files
}

/// Unwrap a container file and decode its payload. `None` unless magic,
/// version, length and checksum hold, the identity header equals `id`,
/// and the function is the width `id` asks for and passes `ir::verify`.
fn decode_artifact(bytes: &[u8], id: &SpecId<'_>) -> Option<SpecArtifact> {
    let mut r = Reader::new(bytes);
    for &m in MAGIC {
        if r.take_u8().ok()? != m {
            return None;
        }
    }
    if r.take_u32().ok()? != FORMAT_VERSION {
        return None;
    }
    let len = r.take_u64().ok()?;
    let sum = r.take_u64().ok()?;
    if r.remaining() as u64 != len || checksum(&bytes[bytes.len() - r.remaining()..]) != sum {
        return None;
    }
    let same_identity = r.take_str().ok()? == id.kernel
        && r.take_u64().ok()? == id.translation_key
        && r.take_u32().ok()? == id.width
        && r.take_str().ok()? == id.variant;
    if !same_identity {
        return None;
    }
    let pre_opt_instructions = usize::try_from(r.take_u64().ok()?).ok()?;
    let post_opt_instructions = usize::try_from(r.take_u64().ok()?).ok()?;
    let function = irs::decode_function(&mut r).ok()?;
    (r.is_done() && function.warp_size == id.width && dpvk_ir::verify(&function).is_ok())
        .then_some(SpecArtifact { function, pre_opt_instructions, post_opt_instructions })
}

// ---------------------------------------------------------------------------
// FNV-1a 64 (both the artifact checksum and the content key hash)
// ---------------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use crate::vectorize::{specialize, SpecializeOptions};
    use dpvk_ptx as ptx;

    const SRC: &str = r#"
.kernel pk (.param .u64 p, .param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [n];
  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra done;
  add.u32 %r1, %r1, 1;
  bar.sync 0;
  sub.u32 %r1, %r1, 1;
done:
  ret;
}
"#;

    fn sample_art(width: u32) -> SpecArtifact {
        let module = ptx::parse_module(SRC).unwrap();
        let tk = translate(&module.kernels[0]).unwrap();
        let s = specialize(&tk, &SpecializeOptions::dynamic(width)).unwrap();
        SpecArtifact {
            function: s.function,
            pre_opt_instructions: s.pre_opt_instructions,
            post_opt_instructions: s.post_opt_instructions,
        }
    }

    fn id(kernel: &str, width: u32) -> SpecId<'_> {
        SpecId {
            kernel,
            translation_key: PersistStore::translation_key("model", SRC),
            width,
            variant: "dynamic",
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpvk-persist-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn truncated_artifact_misses_cleanly() {
        let dir = tmp_dir("trunc");
        let store = PersistStore::open(PersistConfig::at(&dir)).expect("open store");
        let (id, art) = (id("pk", 4), sample_art(4));
        assert!(store.load_spec(&id).is_none(), "cold cache must miss");
        store.store_spec(&id, &art);
        assert!(store.load_spec(&id).is_some_and(|back| back.function == art.function));
        let path = store.artifact_path(&id);
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 4, 12, 21, 40, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(store.load_spec(&id).is_none(), "cut={cut}");
            assert!(!path.exists(), "cut={cut}: truncated artifact must be scrubbed");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_model_source_width_and_variant() {
        let t1 = PersistStore::translation_key("m1", "src");
        assert_ne!(t1, PersistStore::translation_key("m2", "src"));
        assert_ne!(t1, PersistStore::translation_key("m1", "src2"));
        let key =
            |width, variant| SpecId { kernel: "k", translation_key: t1, width, variant }.key();
        assert_ne!(key(4, "dynamic"), key(8, "dynamic"));
        assert_ne!(key(4, "dynamic"), key(4, "static_tie"));
        assert_ne!(key(4, "dynamic"), t1);
    }

    #[test]
    fn size_cap_evicts_oldest_artifacts() {
        let dir = tmp_dir("cap");
        let art = sample_art(2);
        let one = {
            let probe = PersistStore::open(PersistConfig::at(&dir)).expect("open");
            probe.store_spec(&id("pk", 2), &art);
            fs::metadata(probe.artifact_path(&id("pk", 2))).unwrap().len()
        };
        // Room for three artifacts. The second round's store opens over
        // a full directory and must find that out at its first write.
        let cap = 3 * one + one / 2;
        let mut evicted = 0;
        for round in 0..2 {
            let store = PersistStore::open(PersistConfig::at(&dir).with_cap_bytes(cap)).unwrap();
            for i in 0..16 {
                evicted += store.store_spec(&id(&format!("pk{round}_{i}"), 2), &art);
            }
            let total: u64 = list_artifacts(&dir).iter().map(|&(_, len, _)| len).sum();
            assert!(total <= cap, "cap not enforced: {total} bytes on disk, cap {cap}");
        }
        let left = list_artifacts(&dir).len() as u64;
        assert_eq!(evicted + left, 33, "every stored artifact is either left or counted evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: the temp-file sequence used to be per store, so two
    /// stores in one process both wrote `.tmp-<pid>-0` and one renamed
    /// the other's bytes into its own path.
    #[test]
    fn concurrent_stores_over_one_directory_keep_artifacts_apart() {
        const THREADS: usize = 8;
        const WIDTHS: [u32; 3] = [2, 4, 8];
        let dir = tmp_dir("race");
        let arts: Vec<SpecArtifact> = WIDTHS.iter().map(|&w| sample_art(w)).collect();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (dir, arts, start) = (&dir, &arts, &start);
                s.spawn(move || {
                    let store = PersistStore::open(PersistConfig::at(dir)).expect("open store");
                    let kernel = format!("k{t}");
                    start.wait();
                    for _ in 0..32 {
                        for (art, &w) in arts.iter().zip(&WIDTHS) {
                            let mut art = SpecArtifact { function: art.function.clone(), ..*art };
                            art.function.name = format!("{kernel}_w{w}");
                            store.store_spec(&id(&kernel, w), &art);
                        }
                    }
                });
            }
        });
        let store = PersistStore::open(PersistConfig::at(&dir)).expect("open store");
        for t in 0..THREADS {
            let kernel = format!("k{t}");
            for &w in &WIDTHS {
                let back = store.load_spec(&id(&kernel, w));
                let back = back.unwrap_or_else(|| panic!("{kernel} w{w}: lost or foreign bytes"));
                assert_eq!(back.function.name, format!("{kernel}_w{w}"));
                assert_eq!(back.function.warp_size, w);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
