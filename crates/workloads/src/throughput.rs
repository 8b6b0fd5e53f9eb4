//! The peak-throughput microbenchmark of the paper's Table 1: a heavily
//! unrolled chain of independent FMAs over 576 threads.

use dpvk_core::{Device, ExecConfig, ParamValue};

use crate::common::{check_f32, Outcome, Workload, WorkloadError};

/// Number of accumulators (independent FMA chains per thread).
const ACCS: usize = 8;
/// Unrolled FMA rounds per loop iteration (each round updates every
/// accumulator once).
const ROUNDS: usize = 8;
/// Loop iterations.
const ITERS: u32 = 32;
/// Threads per CTA.
const CTA: u32 = 64;
/// CTAs (576 threads total, as in the paper's experiment).
const CTAS: u32 = 9;

/// The Table 1 microbenchmark.
#[derive(Debug, Default)]
pub struct Throughput;

impl Workload for Throughput {
    fn name(&self) -> &'static str {
        "throughput"
    }

    fn stands_for(&self) -> &'static str {
        "Table 1 peak-throughput microbenchmark"
    }

    fn source(&self) -> String {
        let mut body = String::new();
        for _ in 0..ROUNDS {
            for a in 0..ACCS {
                body.push_str(&format!("  fma.rn.f32 %a{a}, %a{a}, %m1, %m0;\n"));
            }
        }
        let mut init = String::new();
        for a in 0..ACCS {
            init.push_str(&format!("  mov.f32 %a{a}, 0.0;\n"));
        }
        let mut sum = String::new();
        for a in 1..ACCS {
            sum.push_str(&format!("  add.f32 %a0, %a0, %a{a};\n"));
        }
        format!(
            r#"
.kernel throughput (.param .u64 out, .param .u32 iters) {{
  .reg .u32 %r<4>;
  .reg .u64 %rd<3>;
  .reg .f32 %a<{ACCS}>;
  .reg .f32 %m<2>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  cvt.rn.f32.u32 %m0, %r0;
  mov.f32 %m1, 1.0001;
{init}  ld.param.u32 %r1, [iters];
  mov.u32 %r2, 0;
loop:
{body}  add.u32 %r2, %r2, 1;
  setp.lt.u32 %p0, %r2, %r1;
  @%p0 bra loop;
{sum}  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.f32 [%rd1], %a0;
  ret;
}}
"#
        )
    }

    fn run(&self, dev: &Device, config: &ExecConfig) -> Result<Outcome, WorkloadError> {
        // The expected outputs are a pure function of the fixed problem
        // size, so warm relaunches (`dpvk-bench`'s `uniform_compute`
        // rounds) pay for the host-side reference computation once.
        static WANT: std::sync::OnceLock<Vec<f32>> = std::sync::OnceLock::new();
        let n = (CTA * CTAS) as usize;
        let out = dev.alloc(n * 4)?;
        let stats = dev.launch(
            "throughput",
            [CTAS, 1, 1],
            [CTA, 1, 1],
            &[ParamValue::Ptr(out.ptr()), ParamValue::U32(ITERS)],
            config,
        )?;
        let got = dev.copy_f32_dtoh(out.ptr(), n)?;
        let want = WANT.get_or_init(|| (0..n).map(|tid| reference(tid as u32)).collect());
        check_f32(self.name(), &got, want, 1e-3)?;
        Ok(Outcome { stats })
    }
}

/// Reference computation for one thread.
fn reference(tid: u32) -> f32 {
    let m0 = tid as f32;
    let m1 = 1.0001f32;
    let mut accs = [0f32; ACCS];
    for _ in 0..ITERS {
        for _ in 0..ROUNDS {
            for a in accs.iter_mut() {
                *a = a.mul_add(m1, m0);
            }
        }
    }
    accs.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::WorkloadExt;

    #[test]
    fn validates_scalar_and_vector() -> Result<(), WorkloadError> {
        Throughput.run_checked(&ExecConfig::baseline().with_workers(1))?;
        Throughput.run_checked(&ExecConfig::dynamic(4).with_workers(1))?;
        Ok(())
    }

    #[test]
    fn vector_speedup_has_table1_shape() -> Result<(), WorkloadError> {
        let s1 = Throughput.run_checked(&ExecConfig::dynamic(1).with_workers(1))?.stats;
        let s4 = Throughput.run_checked(&ExecConfig::dynamic(4).with_workers(1))?.stats;
        let s8 = Throughput.run_checked(&ExecConfig::dynamic(8).with_workers(1))?.stats;
        let c1 = s1.exec.total_cycles() as f64;
        let c4 = s4.exec.total_cycles() as f64;
        let c8 = s8.exec.total_cycles() as f64;
        // Width 4 is much faster than scalar; width 8 regresses from
        // register pressure (Table 1).
        assert!(c1 / c4 > 2.5, "w4 speedup {}", c1 / c4);
        assert!(c8 > c4, "w8 ({c8}) should be slower than w4 ({c4})");
        Ok(())
    }
}
