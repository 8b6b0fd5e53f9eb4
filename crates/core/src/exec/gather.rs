//! Single-pass warp formation over a CTA's ready queue.

use std::collections::VecDeque;
use std::time::Instant;

use dpvk_vm::ThreadContext;

use super::{ExecConfig, FormationPolicy};

/// Per-chunk tally of host warp-formation work. The worker resets it at
/// every chunk start and flushes it into one coalesced gather span at
/// chunk end (per-call spans would be nanoseconds wide and drown the
/// timeline).
#[derive(Default)]
pub(crate) struct GatherTally {
    /// Host nanoseconds spent inside [`gather`] this chunk.
    pub ns: u64,
    /// Number of gather calls this chunk.
    pub calls: u64,
}

/// [`gather`], timed when the trace layer is on: host nanoseconds
/// accumulate in `tally` for the chunk's coalesced gather span. When
/// tracing is off this adds one relaxed atomic load to the plain gather.
pub(crate) fn gather_timed(
    ready: &mut VecDeque<ThreadContext>,
    rp: i64,
    config: &ExecConfig,
    warp: &mut Vec<ThreadContext>,
    kept: &mut Vec<ThreadContext>,
    tally: &mut GatherTally,
) -> usize {
    let t = dpvk_trace::enabled().then(Instant::now);
    let scanned = gather(ready, rp, config, warp, kept);
    if let Some(t) = t {
        tally.ns += t.elapsed().as_nanos() as u64;
        tally.calls += 1;
    }
    scanned
}

/// Collect up to `max_warp` contexts with resume point `rp` from the
/// queue into `warp`, scanning from the front in one pass: non-matching
/// contexts are parked in `kept` and restored to the queue head in their
/// original order. For static formation only contexts of the front
/// thread's group are eligible, and the result is sorted by thread index
/// (lane order). Returns the number of queue entries examined.
///
/// Host time is O(entries examined) — the previous implementation
/// removed each picked context by index, which shifts the whole deque
/// per removal (O(n) per thread, O(n²) per warp on fragmented pools).
/// The modeled formation charge is unchanged: `scanned` counts exactly
/// the entries the indexed scan inspected, and both the warp and the
/// residual queue end up in the same order.
pub(crate) fn gather(
    ready: &mut VecDeque<ThreadContext>,
    rp: i64,
    config: &ExecConfig,
    warp: &mut Vec<ThreadContext>,
    kept: &mut Vec<ThreadContext>,
) -> usize {
    let max = config.max_warp as usize;
    let is_static = config.policy == FormationPolicy::Static;
    let group_of =
        |ctx: &ThreadContext| -> u32 { ctx.flat_tid().checked_div(config.max_warp).unwrap_or(0) };
    // Only static formation looks at groups: no division per call
    // otherwise.
    let front_group = if is_static { ready.front().map(group_of).unwrap_or(0) } else { 0 };
    let eligible = |ctx: &ThreadContext| {
        ctx.resume_point == rp && (!is_static || group_of(ctx) == front_group)
    };

    warp.clear();
    kept.clear();
    let mut scanned = 0usize;
    while let Some(ctx) = ready.pop_front() {
        scanned += 1;
        if eligible(&ctx) {
            warp.push(ctx);
            if warp.len() == max {
                break;
            }
        } else {
            kept.push(ctx);
        }
    }
    for ctx in kept.drain(..).rev() {
        ready.push_front(ctx);
    }
    if is_static {
        warp.sort_by_key(|c| c.flat_tid());
    }
    scanned
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indexed-removal gather PR 3 replaced, kept verbatim as the
    /// behavioral reference: warp contents and order, residual queue
    /// order, and the scanned count must all match the single-pass
    /// implementation.
    fn gather_reference(
        ready: &mut VecDeque<ThreadContext>,
        rp: i64,
        config: &ExecConfig,
    ) -> (Vec<ThreadContext>, usize) {
        let max = config.max_warp as usize;
        let is_static = config.policy == FormationPolicy::Static;
        let group_of = |ctx: &ThreadContext| -> u32 {
            ctx.flat_tid().checked_div(config.max_warp).unwrap_or(0)
        };
        let front_group = ready.front().map(group_of).unwrap_or(0);

        let mut picked: Vec<usize> = Vec::with_capacity(max);
        let mut scanned = 0usize;
        for (i, ctx) in ready.iter().enumerate() {
            scanned += 1;
            if ctx.resume_point == rp && (!is_static || group_of(ctx) == front_group) {
                picked.push(i);
                if picked.len() == max {
                    break;
                }
            }
        }
        let mut warp: Vec<ThreadContext> = Vec::with_capacity(picked.len());
        for &i in picked.iter().rev() {
            warp.push(ready.remove(i).expect("picked index valid"));
        }
        warp.reverse();
        if is_static {
            warp.sort_by_key(|c| c.flat_tid());
        }
        (warp, scanned)
    }

    #[test]
    fn gather_matches_reference_formation() {
        // Seeded LCG so failures reproduce.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let configs = [ExecConfig::dynamic(4), ExecConfig::static_tie(4), ExecConfig::dynamic(2)];
        for config in &configs {
            for _ in 0..100 {
                // A fragmented ready pool: random permutation of thread
                // ids with random resume points.
                let n = 1 + (next() % 64) as usize;
                let mut order: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    order.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                let mut queue: VecDeque<ThreadContext> = VecDeque::new();
                for &tid in &order {
                    let mut ctx = ThreadContext::new([tid, 0, 0], [64, 1, 1], [0; 3], [1; 3]);
                    ctx.resume_point = (next() % 4) as i64;
                    queue.push_back(ctx);
                }
                let rp = queue.front().unwrap().resume_point;

                let mut ref_queue = queue.clone();
                let (ref_warp, ref_scanned) = gather_reference(&mut ref_queue, rp, config);

                let (mut warp, mut kept) = (Vec::new(), Vec::new());
                let scanned = gather(&mut queue, rp, config, &mut warp, &mut kept);

                assert_eq!(warp, ref_warp, "warp contents/order diverged");
                assert_eq!(scanned, ref_scanned, "scanned count diverged");
                assert_eq!(queue, ref_queue, "residual queue order diverged");
                assert!(kept.is_empty(), "kept scratch must drain back into the queue");
            }
        }
    }
}
