//! `duo`: two threads in one virtual cluster hammer one lock of each
//! roster kind, in interleaved fixed-time slices.
//!
//! The critical section bumps a guarded counter (checked against the ops
//! both threads report at the end of each slice) and writes two shared
//! lines; between acquisitions each thread spins a short seeded random
//! while. Every acquisition whose previous holder was the other thread
//! counts as a handover, and each kind must show some. Each round ends
//! with the host reference kernels: an RMW slice and a ping-pong slice.
//!
//! Its time figures stay raw: its cost is cross-core handover, which
//! across sets of runs tracked the vCPU placement more than the
//! private-line RMW (see `host::REF_RMW_NS`). Every kind counts once:
//! throughput is the roster geomean of each kind's median per-slice
//! cost, and the latency percentiles (acquire call → return) are roster
//! geomeans of each kind's percentile. Pooled figures would be decided
//! by the few kinds that let one thread re-take the lock at once, and a
//! kind that strands a waiter (GCR's passive park on a sticky grant) can
//! stretch one slice to seconds.

use crate::host::{end_round, PingPong, PrivateLine};
use crate::roster::ROSTER;
use crate::stats::{acq_rel_rmw, median, min_share, LatHist};
use crate::trace::Tracer;
use crate::{ns_between, repeat_setup, shuffled, EndToEnd, Guarded, Outcome};
use crossbeam_utils::CachePadded;
use lbench::stats::geomean;
use lbench::BenchLock;
use numa_topology::{bind_current_thread, ClusterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Length of one slice.
pub const SLICE: Duration = Duration::from_millis(2);

/// Upper bound (exclusive) of the random spin between acquisitions, in
/// loop iterations.
pub const MAX_SPIN: u32 = 64;

const SETUPS: usize = 5;
const WARM_OPS: u64 = 6000;
const SEED_SALT: u64 = 0xD0D0;

struct Shared {
    topo: Arc<Topology>,
    locks: Vec<Arc<dyn BenchLock>>,
    guards: Vec<CachePadded<Guarded>>,
    lines: [CachePadded<AtomicU64>; 2],
    /// Ops each thread completed in the current slice.
    slice_ops: [CachePadded<AtomicU64>; 2],
    barrier: Barrier,
    stop: AtomicBool,
    pingpong: PingPong,
}

/// What one worker thread measured.
#[derive(Default)]
struct Worker {
    ops: Vec<u64>,
    handovers: Vec<u64>,
    /// Per kind: every acquire latency (ns) of this thread.
    hists: Vec<LatHist>,
    /// Thread 0 only: per round, per kind, ns per critical section.
    kind_ns: Vec<Vec<f64>>,
    rmw: Vec<f64>,
    pingpong: Vec<f64>,
    failed: u64,
    tracer: Option<Tracer>,
}

#[inline]
fn spin(n: u32) {
    let mut x = n as u64;
    for _ in 0..n {
        x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7));
    }
}

/// One acquisition → critical section → release; returns whether it was
/// a handover.
#[inline]
fn critical_section(guard: &Guarded, lines: &[CachePadded<AtomicU64>; 2], me: usize) -> bool {
    // SAFETY: called between acquire and release.
    let handover = unsafe { guard.bump(me) };
    lines[0].store(me as u64, Ordering::Relaxed);
    lines[1].store(me as u64, Ordering::Relaxed);
    handover
}

fn setup() -> Shared {
    let topo = Arc::new(Topology::new(1));
    let locks: Vec<Arc<dyn BenchLock>> = ROSTER.iter().map(|&(k, _)| k.make(&topo)).collect();
    let shared = Shared {
        guards: (0..locks.len())
            .map(|_| CachePadded::new(Guarded::default()))
            .collect(),
        locks,
        topo,
        lines: Default::default(),
        slice_ops: Default::default(),
        barrier: Barrier::new(2),
        stop: AtomicBool::new(false),
        pingpong: PingPong::default(),
    };
    // Warm-up pass: both threads, a fixed number of ops per kind.
    std::thread::scope(|s| {
        for me in 0..2 {
            let sh = &shared;
            s.spawn(move || {
                bind_current_thread(&sh.topo, ClusterId::new(0));
                for (k, lock) in sh.locks.iter().enumerate() {
                    sh.barrier.wait();
                    for _ in 0..WARM_OPS {
                        lock.acquire();
                        critical_section(&sh.guards[k], &sh.lines, me);
                        lock.release();
                    }
                }
            });
        }
    });
    shared
}

fn worker(
    sh: &Shared,
    me: usize,
    seed: u64,
    budget: Duration,
    trace: bool,
    epoch: Instant,
) -> Worker {
    bind_current_thread(&sh.topo, ClusterId::new(0));
    let n = sh.locks.len();
    let mut w = Worker {
        ops: vec![0; n],
        handovers: vec![0; n],
        hists: vec![LatHist::new(); n],
        ..Default::default()
    };
    let mut t = Tracer::new(trace, me as u8, epoch);
    let acq_span = t.id("duo.acquire");
    let rel_span = t.id("duo.release");
    let slice_spans: Vec<u16> = ROSTER
        .iter()
        .map(|(_, s)| t.id(&format!("duo.{s}")))
        .collect();
    let rmw_span = t.id("host.rmw");
    let pp_span = t.id("host.pingpong");
    // Both threads draw the same slice order; the spins are per thread.
    let mut order_rng = StdRng::seed_from_u64(seed ^ SEED_SALT);
    let mut spin_rng = StdRng::seed_from_u64(seed ^ SEED_SALT ^ (me as u64 + 1) << 32);
    let line = PrivateLine::default();
    let mut expected: Vec<u64> = sh.guards.iter().map(|g| g.count()).collect();
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        sh.barrier.wait();
        if sh.stop.load(Ordering::Acquire) {
            break;
        }
        let mut kind_ns = vec![0.0; n];
        for k in shuffled(&mut order_rng, n) {
            let lock = &*sh.locks[k];
            let guard = &sh.guards[k];
            sh.barrier.wait();
            let s0 = Instant::now();
            let deadline = s0 + SLICE;
            let (mut ops, mut hand) = (0u64, 0u64);
            loop {
                let t0 = Instant::now();
                if t0 >= deadline {
                    break;
                }
                t.new_op();
                lock.acquire();
                let t1 = Instant::now();
                w.hists[k].record(ns_between(t0, t1));
                t.record(acq_span, t0, t1, 1);
                hand += critical_section(guard, &sh.lines, me) as u64;
                let r = t.begin();
                lock.release();
                t.end(rel_span, r, 1);
                ops += 1;
                spin(spin_rng.gen_range(0..MAX_SPIN));
            }
            let s1 = Instant::now();
            sh.slice_ops[me].store(ops, Ordering::Relaxed);
            w.ops[k] += ops;
            w.handovers[k] += hand;
            sh.barrier.wait();
            if me == 0 {
                let both = ops + sh.slice_ops[1].load(Ordering::Relaxed);
                t.record(slice_spans[k], s0, s1, both as u32);
                kind_ns[k] = ns_between(s0, s1) as f64 / both.max(1) as f64;
                expected[k] += both;
                if guard.count() != expected[k] {
                    w.failed += both;
                    expected[k] = guard.count();
                }
            }
        }
        let spans = [rmw_span, pp_span];
        if let Some((rmw, pp)) =
            end_round(&sh.barrier, &sh.pingpong, &line, me, round, &mut t, spans)
        {
            w.rmw.push(rmw);
            w.pingpong.push(pp);
            w.kind_ns.push(kind_ns);
            if start.elapsed() >= budget {
                sh.stop.store(true, Ordering::Release);
            }
        }
        round += 1;
    }
    w.tracer = Some(t);
    w
}

/// Runs `duo` (see the module docs).
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let (setup_s, shared) = repeat_setup(SETUPS, setup);
    let epoch = Instant::now();
    let mut ws: Vec<Worker> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|me| {
                let sh = &shared;
                s.spawn(move || worker(sh, me, seed, budget, trace, epoch))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("duo worker panicked"))
            .collect()
    });
    let w1 = ws.pop().expect("two workers");
    let mut w0 = ws.pop().expect("two workers");
    if w0.kind_ns.is_empty() {
        return Err("duo: no round completed".into());
    }
    crate::host_note("duo", &w0.rmw, Some(&w0.pingpong));
    let mut t = w0.tracer.take().expect("worker tracer");
    t.absorb(w1.tracer.expect("worker tracer"));
    // Roster geomeans: every kind counts once, however fast it runs.
    let pct = |p: f64| -> f64 {
        let v: Vec<f64> = w0
            .hists
            .iter()
            .zip(&w1.hists)
            .map(|(a, b)| {
                let mut h = a.clone();
                h.merge(b);
                h.percentile(p).map_or(f64::NAN, |ns| ns as f64)
            })
            .collect();
        geomean(&v).unwrap_or(f64::NAN)
    };
    let kind_ns: Vec<f64> = (0..ROSTER.len())
        .map(|k| median(&w0.kind_ns.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .collect();
    let per_thread = [w0.ops.iter().sum::<u64>(), w1.ops.iter().sum::<u64>()];
    let total: u64 = per_thread.iter().sum();
    let mut failed = w0.failed;
    let mut values = Vec::new();
    for (k, (_, slug)) in ROSTER.iter().enumerate() {
        let ops = w0.ops[k] + w1.ops[k];
        let hand = w0.handovers[k] + w1.handovers[k];
        // A kind that never handed the lock over did not run contended.
        if hand == 0 {
            failed += ops.max(1);
        }
        values.push((
            format!("duo.{slug}.handover_frac"),
            hand as f64 / ops.max(1) as f64,
        ));
        if let Some(cs) = shared.locks[k].cohort_stats() {
            if crate::roster::COMPOSED.contains(slug) {
                let acq = cs.tenures() + cs.local_handoffs();
                values.push((
                    format!("cohort.{slug}.local_handoff_frac"),
                    cs.local_handoffs() as f64 / acq.max(1) as f64,
                ));
            }
        }
    }
    let ratios: Vec<f64> = w0
        .kind_ns
        .iter()
        .zip(&w0.rmw)
        .map(|(k, rmw)| acq_rel_rmw(k, *rmw))
        .collect();
    Ok(Outcome {
        attempted: total,
        failed,
        e2e: EndToEnd {
            setup_s,
            ops_per_s: 1e9 / geomean(&kind_ns).expect("positive per-kind costs"),
            lat_p50_ns: pct(50.0),
            lat_p99_ns: pct(99.0),
            min_share: min_share(&per_thread),
            acq_rel_rmw: median(&ratios),
        },
        values,
        tracer: t,
    })
}
