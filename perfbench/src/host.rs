//! Host reference kernels, interleaved with every workload round so a
//! reader can tell host drift from a code change: a private-line atomic
//! RMW and a two-thread flag ping-pong.

use crate::trace::Tracer;
use crossbeam_utils::CachePadded;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Private-line RMW cost (ns) of the reference host, a 2-vCPU KVM guest
/// on an Intel Xeon (family 6, model 207). On a shared host the wall time
/// of the `solo`, `kv` and `model` work drifts by up to ±15% from one
/// process to the next, while its ratio to the interleaved RMW varies far
/// less, so those workloads (and every set-up time) are quoted at this
/// RMW cost: raw ns × `REF_RMW_NS` / measured RMW ns. The per-layer
/// figures stay raw.
pub const REF_RMW_NS: f64 = 7.0;

/// Ops in one RMW slice.
pub const RMW_OPS: u32 = 256;

/// Round trips in one ping-pong slice.
pub const PINGPONG_TRIPS: u64 = 200;

/// A cache line only the measuring thread touches.
#[derive(Default)]
pub struct PrivateLine(CachePadded<AtomicU64>);

impl PrivateLine {
    /// Times `RMW_OPS` `fetch_add`s on the line; returns ns per op.
    #[inline(never)]
    pub fn rmw_slice(&self) -> f64 {
        let start = Instant::now();
        for _ in 0..RMW_OPS {
            self.0.fetch_add(1, Ordering::AcqRel);
        }
        start.elapsed().as_nanos() as f64 / RMW_OPS as f64
    }
}

/// The flag two threads bounce between them.
#[derive(Default)]
pub struct PingPong(CachePadded<AtomicU64>);

impl PingPong {
    /// Runs one slice of `PINGPONG_TRIPS` round trips. Both threads call
    /// it at once (after a barrier), `side` 0 and 1; side 0 times the
    /// slice and returns ns per round trip. The flag must start at
    /// `base` on both sides; it ends at `base + 2·PINGPONG_TRIPS`.
    #[inline(never)]
    pub fn slice(&self, side: usize, base: u64) -> Option<f64> {
        let flag = &self.0;
        if side == 0 {
            let start = Instant::now();
            for i in 0..PINGPONG_TRIPS {
                flag.store(base + 2 * i + 1, Ordering::Release);
                while flag.load(Ordering::Acquire) != base + 2 * i + 2 {
                    spin_loop();
                }
            }
            Some(start.elapsed().as_nanos() as f64 / PINGPONG_TRIPS as f64)
        } else {
            for i in 0..PINGPONG_TRIPS {
                while flag.load(Ordering::Acquire) != base + 2 * i + 1 {
                    spin_loop();
                }
                flag.store(base + 2 * i + 2, Ordering::Release);
            }
            None
        }
    }
}

/// Ends round `round` of a two-thread workload with the reference
/// kernels: side 0's RMW slice, then both sides' ping-pong, each after a
/// barrier. Side 0 records both spans (`spans` = RMW, ping-pong) and gets
/// `(rmw_ns, pingpong_ns)`; side 1 gets `None`.
pub fn end_round(
    barrier: &Barrier,
    pingpong: &PingPong,
    line: &PrivateLine,
    me: usize,
    round: u64,
    t: &mut Tracer,
    spans: [u16; 2],
) -> Option<(f64, f64)> {
    barrier.wait();
    let rmw = (me == 0).then(|| {
        let r0 = Instant::now();
        let ns = line.rmw_slice();
        t.record(spans[0], r0, Instant::now(), RMW_OPS);
        ns
    });
    barrier.wait();
    let p0 = Instant::now();
    let pp = pingpong.slice(me, round * 2 * PINGPONG_TRIPS)?;
    t.record(spans[1], p0, Instant::now(), PINGPONG_TRIPS as u32);
    Some((rmw.expect("side 0 ran the RMW slice"), pp))
}
