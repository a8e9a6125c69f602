//! Wall-pacing utilities shared by the real-thread loop and the keyed
//! services it drives.
//!
//! See [`LBenchConfig`](crate::LBenchConfig) for the full rationale: on an
//! oversubscribed host the *real* execution must keep its arrival order
//! and queue depths consistent with the virtual-time model, which is
//! achieved by also waiting out every modelled delay in wall time, scaled
//! by a factor κ ([`kappa_for`]) that out-paces the host's scheduler-round
//! granularity.

/// Busy-waits `ns` of wall time; with `yielding`, cedes the CPU between
/// probes so other workers make progress during the wait.
#[inline]
pub fn spin_wall(ns: u64, yielding: bool) {
    if ns == 0 {
        return;
    }
    let t0 = std::time::Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        if yielding {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The default pacing multiplier for a run with `threads` workers: half
/// the thread count, clamped to `[4, 64]`. A scheduler round over T
/// yielding threads costs roughly T×switch-latency; κ×(4 µs non-critical
/// section) must exceed that or the modelled utilization collapses.
#[inline]
pub fn kappa_for(threads: usize) -> u64 {
    (threads as u64 / 2).clamp(4, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kappa_clamps() {
        assert_eq!(kappa_for(1), 4);
        assert_eq!(kappa_for(16), 8);
        assert_eq!(kappa_for(64), 32);
        assert_eq!(kappa_for(1000), 64);
    }

    #[test]
    fn spin_wall_waits_roughly_right() {
        let t0 = std::time::Instant::now();
        spin_wall(200_000, false); // 200 µs
        assert!(t0.elapsed().as_micros() >= 200);
    }

    #[test]
    fn spin_wall_zero_is_instant() {
        spin_wall(0, true);
    }
}
