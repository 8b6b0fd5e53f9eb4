//! Cache state as a test dimension: cold, warm, and warm over a
//! corrupted directory must all compute the same thing.
//!
//! A "restart" here is a fresh [`Device`] over the same cache directory:
//! each device owns its in-memory translation cache, so a new device has
//! exactly the state a new process would have. The warm device loads
//! every specialized function from disk — zero nanoseconds specializing;
//! translation and bytecode decode still run — and produces bit-identical
//! kernel outputs at every width under both execution engines.

mod common;

use std::path::{Path, PathBuf};

use dpvk::core::{CacheStats, Device, Engine, ExecConfig, ParamValue, PersistConfig};
use dpvk::vm::MachineModel;

/// A kernel with divergence and a barrier, so specialization produces
/// exit handlers, spill slots and barrier bookkeeping — all of which
/// must survive the disk round trip.
const KERNEL: &str = r#"
.kernel collatz (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<3>;
  .reg .pred %p<4>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  shl.u32 %r2, %r0, 2;
  cvt.u64.u32 %rd0, %r2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r3, [%rd1];
  mov.u32 %r4, 0;
loop:
  setp.le.u32 %p1, %r3, 1;
  @%p1 bra store;
  and.b32 %r5, %r3, 1;
  setp.eq.u32 %p2, %r5, 0;
  @%p2 bra even;
  mad.lo.u32 %r3, %r3, 3, 1;
  bra next;
even:
  shr.u32 %r3, %r3, 1;
next:
  add.u32 %r4, %r4, 1;
  bar.sync 0;
  bra loop;
store:
  st.global.u32 [%rd1], %r4;
done:
  ret;
}
"#;

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpvk-warm-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One full "process": fresh device over `dir`, compile (or load),
/// launch at `width`, digest the output.
fn run_process(dir: &Path, engine: Engine, width: u32) -> (u64, CacheStats) {
    let dev = Device::with_persist(
        MachineModel::sandybridge_sse(),
        1 << 20,
        Some(PersistConfig::at(dir)),
    );
    dev.register_source(KERNEL).unwrap();
    let n = 96u32;
    let input: Vec<u32> = (0..n).map(|i| i * 7 + 1).collect();
    let buf = dev.alloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(buf.ptr(), &input).unwrap();
    dev.launch(
        "collatz",
        [n.div_ceil(32), 1, 1],
        [32, 1, 1],
        &[ParamValue::Ptr(buf.ptr()), ParamValue::U32(n)],
        &ExecConfig::dynamic(width).with_engine(engine),
    )
    .unwrap();
    let out = dev.copy_u32_dtoh(buf.ptr(), n as usize).unwrap();
    let bytes: Vec<u8> = out.iter().flat_map(|v| v.to_le_bytes()).collect();
    (common::digest_bytes(&bytes), dev.cache_stats())
}

/// Every artifact in `dir` with its bytes, in path order.
fn artifacts(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
        .collect();
    files.sort();
    files
}

const ENGINES: [Engine; 2] = [Engine::Bytecode, Engine::Jit];
const WIDTHS: [u32; 3] = [1, 2, 4];

/// The differential harness: widths × engines, each cold → warm → warm
/// after each kind of corruption, one digest throughout.
#[test]
fn every_cache_state_computes_the_same_thing() {
    /// What each corruption writes where `files[i]` was, given all the
    /// (sound) artifacts of the directory.
    type Corruption = fn(&[(PathBuf, Vec<u8>)], usize) -> Vec<u8>;
    let corruptions: [(&str, Corruption); 3] = [
        ("flipped byte", |files, i| {
            let mut bytes = files[i].1.clone();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            bytes
        }),
        ("truncated file", |files, i| files[i].1[..files[i].1.len() / 2].to_vec()),
        // Sound bytes, valid checksum, wrong identity: what a colliding
        // temp file used to leave behind.
        ("another artifact's bytes", |files, i| files[(i + 1) % files.len()].1.clone()),
    ];

    let mut digest = None;
    for engine in ENGINES {
        let dir = cache_dir(&format!("states-{engine:?}"));
        let mut check = |state: &str, width: u32| -> CacheStats {
            let (got, stats) = run_process(&dir, engine, width);
            assert_eq!(
                *digest.get_or_insert(got),
                got,
                "[{engine:?} w{width} {state}] output differs from the first run's"
            );
            stats
        };

        for width in WIDTHS {
            let cold = check("cold", width);
            assert!(cold.specialize_ns > 0, "[{engine:?} w{width}] cold run specializes: {cold:?}");
            assert!(cold.persist_writes >= 1, "[{engine:?} w{width}] cold run persists: {cold:?}");
        }
        for width in WIDTHS {
            let warm = check("warm", width);
            assert_eq!(warm.specialize_ns, 0, "[{engine:?} w{width}] warm run: {warm:?}");
            assert!(warm.persist_hits >= 1, "[{engine:?} w{width}] warm run: {warm:?}");
            assert_eq!(warm.persist_misses, 0, "[{engine:?} w{width}] warm run: {warm:?}");
        }

        let sound = artifacts(&dir);
        assert!(sound.len() >= 2, "expected an artifact per specialization, got {}", sound.len());
        for (what, corrupt) in corruptions {
            let planted: Vec<Vec<u8>> = (0..sound.len()).map(|i| corrupt(&sound, i)).collect();
            for ((path, _), bytes) in sound.iter().zip(&planted) {
                std::fs::write(path, bytes).unwrap();
            }
            let misses: u64 = WIDTHS.iter().map(|&w| check(what, w).persist_misses).sum();
            assert!(misses >= 1, "[{engine:?}] {what}: must read as a miss");
            for ((path, _), bytes) in sound.iter().zip(&planted) {
                assert!(
                    std::fs::read(path).map_or(true, |now| now != *bytes),
                    "[{engine:?}] {what}: {} neither scrubbed nor rewritten",
                    path.display()
                );
            }
        }
        // Recovery left a sound directory behind.
        assert_eq!(artifacts(&dir), sound, "[{engine:?}] recompiled artifacts differ");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_restart_skips_translation_and_specialization() {
    // The name predates the single-artifact cache: a warm restart skips
    // specialization only; translation and bytecode decode run again.
    for engine in ENGINES {
        let dir = cache_dir(&format!("{engine:?}"));

        let (cold_digest, cold) = run_process(&dir, engine, 4);
        assert!(cold.persist_writes >= 1, "[{engine:?}] cold run must persist: {cold:?}");
        assert!(cold.translate_ns > 0, "[{engine:?}] cold run must translate: {cold:?}");
        assert!(cold.specialize_ns > 0, "[{engine:?}] cold run must specialize: {cold:?}");

        let (warm_digest, warm) = run_process(&dir, engine, 4);
        assert_eq!(
            cold_digest, warm_digest,
            "[{engine:?}] warm-restart output diverged from the cold run"
        );
        assert!(warm.persist_hits >= 1, "[{engine:?}] warm run must load from disk: {warm:?}");
        assert_eq!(warm.persist_writes, 0, "[{engine:?}] warm run must not rewrite: {warm:?}");
        assert_eq!(warm.specialize_ns, 0, "[{engine:?}] specialization not skipped: {warm:?}");
        assert!(warm.translate_ns > 0, "[{engine:?}] translation must run: {warm:?}");
        assert!(warm.decode_ns > 0, "[{engine:?}] bytecode decode must run: {warm:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn disk_cache_survives_unrelated_corruption() {
    // Scribble over one artifact between runs: the warm device must
    // detect it (checksum), quarantine the file, recompile, and still
    // produce identical output.
    let dir = cache_dir("corrupt");

    let (cold_digest, _) = run_process(&dir, Engine::Bytecode, 4);
    let victim = artifacts(&dir).into_iter().next().expect("cold run left no artifacts").0;
    std::fs::write(&victim, b"not an artifact").unwrap();

    let (warm_digest, warm) = run_process(&dir, Engine::Bytecode, 4);
    assert_eq!(cold_digest, warm_digest, "corruption recovery changed outputs");
    assert!(warm.persist_misses >= 1, "corrupt artifact must read as a miss: {warm:?}");
    assert!(
        !victim.exists() || std::fs::read(&victim).unwrap() != b"not an artifact",
        "corrupt artifact must be scrubbed or rewritten"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
