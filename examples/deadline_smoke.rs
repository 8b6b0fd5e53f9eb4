//! Deadline smoke test: launch a kernel that never terminates and prove
//! the execution manager kills it within the wall-clock budget.
//!
//! Exits 0 only if the launch failed with a deadline fault (with full
//! provenance) in bounded time — CI runs this under an external
//! `timeout` so a broken kill path fails loudly instead of hanging.
//!
//! Run with `cargo run --example deadline_smoke`.

use std::time::{Duration, Instant};

use dpvk::core::{Device, Engine, ExecConfig, ParamValue};
use dpvk::vm::MachineModel;

/// The only block branches to itself: without a deadline this kernel
/// spins until the instruction watchdog (2^32 instructions) trips. The
/// loop body is a bare terminator, so the kill depends on the engines
/// polling the deadline on block retirement, not just per instruction.
const SPIN: &str = r#"
.kernel spin (.param .u32 n) {
  .reg .u32 %r<1>;
entry:
  bra entry;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(SPIN)?;

    let budget = Duration::from_millis(300);
    for engine in [Engine::Bytecode, Engine::Tree, Engine::Jit] {
        let start = Instant::now();
        let result = dev.launch_with_deadline(
            "spin",
            [4, 1, 1],
            [16, 1, 1],
            &[ParamValue::U32(0)],
            &ExecConfig::dynamic(4).with_workers(2).with_engine(engine),
            budget,
        );
        let elapsed = start.elapsed();

        match result {
            Err(e) if e.is_deadline() => {
                println!(
                    "[{}] runaway kernel killed after {elapsed:?} (budget {budget:?}): {e}",
                    engine.label()
                );
                if elapsed > budget * 2 {
                    return Err(format!(
                        "[{}] kill took {elapsed:?}, over 2x the {budget:?} budget",
                        engine.label()
                    )
                    .into());
                }
            }
            Err(e) => return Err(format!("expected a deadline fault, got: {e}").into()),
            Ok(_) => return Err("the spin kernel cannot terminate; launch must not succeed".into()),
        }
    }
    Ok(())
}
