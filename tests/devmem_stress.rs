//! Allocator stress: the size-classed device heap under sustained churn.
//!
//! Two properties the rest of the system leans on:
//!
//! * **Bounded heap.** With a bounded live set, tens of thousands of
//!   alloc/free cycles must not grow the heap — reuse and eviction have
//!   to absorb the churn, where the old bump-only allocator would have
//!   exhausted the arena after a few hundred rounds.
//! * **No aliasing, no stale bytes.** A live block's contents never
//!   change under someone else's alloc/free traffic, and every block is
//!   handed out zeroed regardless of allocation history. Together these
//!   make kernel outputs — and therefore golden digests — independent
//!   of allocator state, which the cross-engine digest test pins.

mod common;

use dpvk::core::{Device, DevicePtr, Engine, ExecConfig, ParamValue};
use dpvk::vm::MachineModel;

const HEAP: usize = 1 << 20;

/// SplitMix64: the repo's standard seedable generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Deterministic per-block byte pattern, distinct per seed so that any
/// aliasing between two live blocks shows up as a mismatch.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next().to_le_bytes());
    }
    out.truncate(len);
    out
}

#[test]
fn churn_stays_bounded_and_never_aliases() {
    let dev = Device::new(MachineModel::sandybridge_sse(), HEAP);
    let mut rng = SplitMix64(0x5EED_CAFE);
    // (ptr, requested len, pattern seed) for every live block.
    let mut live: Vec<(DevicePtr, usize, u64)> = Vec::new();

    for cycle in 0..12_000u32 {
        let r = rng.next();
        let must_free = live.len() >= 32;
        let want_free = must_free || (!live.is_empty() && r & 3 == 0);
        if want_free {
            let idx = (r >> 8) as usize % live.len();
            let (ptr, len, seed) = live.swap_remove(idx);
            // The block's contents must have survived all the traffic
            // since it was written.
            let mut got = vec![0u8; len];
            dev.memcpy_dtoh(&mut got, ptr).unwrap();
            assert_eq!(got, pattern(seed, len), "cycle {cycle}: live block clobbered");
            dev.free(ptr).unwrap();
        } else {
            let len = 1 + (r >> 16) as usize % 4096;
            let ptr = dev.malloc(len).unwrap();
            // Zero on reuse: initial contents never depend on history.
            let mut got = vec![0u8; len];
            dev.memcpy_dtoh(&mut got, ptr).unwrap();
            assert!(
                got.iter().all(|&b| b == 0),
                "cycle {cycle}: block handed out with stale bytes"
            );
            let seed = r ^ 0xA11A_5EED;
            dev.memcpy_htod(ptr, &pattern(seed, len)).unwrap();
            live.push((ptr, len, seed));
        }
    }

    let stats = dev.memory_stats();
    // ≤32 live blocks of ≤4 KiB round to ≤8 KiB classes: the heap must
    // stay far below capacity no matter how many cycles ran.
    assert!(stats.high_water <= 32 * 8192, "heap not bounded by the live set: {stats:?}");
    assert!(stats.reuse_bytes > stats.fresh_bytes, "churn barely exercised reuse: {stats:?}");

    // Drain: every surviving block still verifies, and the heap returns
    // to empty.
    for (ptr, len, seed) in live.drain(..) {
        let mut got = vec![0u8; len];
        dev.memcpy_dtoh(&mut got, ptr).unwrap();
        assert_eq!(got, pattern(seed, len), "drain: live block clobbered");
        dev.free(ptr).unwrap();
    }
    assert_eq!(dev.heap_used(), 0);
    assert_eq!(dev.memory_stats().live_blocks, 0);
}

/// In-place `data[i] *= 3` over `n` u32 elements.
const TRIPLE: &str = r#"
.kernel triple (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  .reg .pred %p<1>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  mul.lo.u32 %r2, %r2, 3;
  st.global.u32 [%rd1], %r2;
done:
  ret;
}
"#;

/// Run a fixed launch schedule interleaved with allocator churn and
/// digest every kernel output. The digest depends only on the inputs —
/// never on which recycled block a launch happened to land in.
fn churn_digest(engine: Engine) -> u64 {
    let dev = Device::new(MachineModel::sandybridge_sse(), HEAP);
    dev.register_source(TRIPLE).unwrap();
    let config = ExecConfig::dynamic(4).with_engine(engine);
    let mut rng = SplitMix64(0xD16E_57ED);
    let mut h = 0xcbf2_9ce4_8422_2325u64;

    for _round in 0..24 {
        // Churn between launches so each round's buffer lands on a
        // different mix of virgin, recycled and reserve-carved memory.
        let junk: Vec<_> =
            (0..6).map(|_| dev.alloc(1 + (rng.next() >> 16) as usize % 8192).unwrap()).collect();
        drop(junk);

        let n = 64 + (rng.next() % 192) as u32;
        let input: Vec<u32> = (0..n).map(|_| rng.next() as u32).collect();
        let buf = dev.alloc(n as usize * 4).unwrap();
        dev.copy_u32_htod(buf.ptr(), &input).unwrap();
        dev.launch(
            "triple",
            [n.div_ceil(32), 1, 1],
            [32, 1, 1],
            &[ParamValue::Ptr(buf.ptr()), ParamValue::U32(n)],
            &config,
        )
        .unwrap();
        let out = dev.copy_u32_dtoh(buf.ptr(), n as usize).unwrap();
        for (i, (&got, &fed)) in out.iter().zip(&input).enumerate() {
            assert_eq!(got, fed.wrapping_mul(3), "element {i} wrong under {engine:?}");
        }
        let bytes: Vec<u8> = out.iter().flat_map(|v| v.to_le_bytes()).collect();
        common::fold(&mut h, common::digest_bytes(&bytes));
    }
    h
}

#[test]
fn golden_digests_are_engine_independent_under_churn() {
    let bytecode = churn_digest(Engine::Bytecode);
    let jit = churn_digest(Engine::Jit);
    assert_eq!(bytecode, jit, "bytecode vs jit digests diverged");
}
