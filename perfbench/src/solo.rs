//! `solo`: one thread runs acquire → verified tiny critical section →
//! release over the roster, uncontended.
//!
//! The kinds are interleaved in fixed-op slices for the whole run, each
//! slice timed as a batch (a clock read costs about as much as a TATAS
//! acquire), and every kind slice follows a private-line RMW slice. Raw
//! nanoseconds here drift with the host by ±15%, hitting every lock at
//! once; the RMW drifts with them. The end-to-end figures are therefore
//! ratios to the RMW of the same round, and the latency and throughput
//! figures are quoted at the reference RMW cost
//! [`REF_RMW_NS`](crate::host::REF_RMW_NS). The raw
//! nanoseconds are per-layer metrics of the traced run.
//!
//! Every kind counts once: throughput is 1 s over the roster geomean of
//! each kind's mean per-op cost, and the latency percentiles are roster
//! geomeans of each kind's percentile over its per-slice costs. Pooled
//! figures would be decided by the slowest kind (FC-MCS's lone combiner
//! costs tens of times what the others do).
//!
//! The traced run also times the layers underneath on their own (raw
//! base locks, cohort components, node pool, coherence directory, KV
//! store), interleaved with the roster in the same rounds.

use crate::host::PrivateLine;
use crate::roster::ROSTER;
use crate::stats::{acq_rel_rmw, median, min_share, percentile};
use crate::trace::Tracer;
use crate::{at_ref, repeat_setup, shuffled, EndToEnd, Guarded, Outcome};
use base_locks::pool::NodePool;
use base_locks::RawLock;
use coherence_sim::{CostModel, Directory};
use cohort::{GlobalLock, LocalCohortLock};
use cohort_kvstore::{KvConfig, KvStore, SharedKvStore};
use lbench::stats::geomean;
use lbench::{BenchLock, LockKind};
use numa_topology::{bind_current_thread, ClusterId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Acquire/release pairs in one slice.
pub const SLICE_OPS: u32 = 256;

const SETUPS: usize = 5;
const WARM_ROUNDS: usize = 150;
const SEED_SALT: u64 = 0x5010;

/// One roster lock and its guarded counter.
struct Entry {
    lock: Arc<dyn BenchLock>,
    guard: Guarded,
    span: u16,
}

/// A layer timed on its own: `run(n)` performs `n` ops.
struct Probe {
    span: u16,
    run: Box<dyn FnMut(u32)>,
}

#[inline(never)]
fn kind_slice(lock: &dyn BenchLock, guard: &Guarded) {
    for _ in 0..SLICE_OPS {
        lock.acquire();
        // SAFETY: held.
        unsafe { guard.bump(0) };
        lock.release();
    }
}

fn raw_probe<L: RawLock + 'static>(t: &mut Tracer, name: &str, lock: L) -> Probe {
    let guard = Guarded::default();
    Probe {
        span: t.id(name),
        run: Box::new(move |n| {
            for _ in 0..n {
                let tok = lock.lock();
                // SAFETY: held.
                unsafe { guard.bump(0) };
                // SAFETY: token from this lock.
                unsafe { lock.unlock(tok) };
            }
        }),
    }
}

fn probe(t: &mut Tracer, name: &str, run: impl FnMut(u32) + 'static) -> Probe {
    Probe {
        span: t.id(name),
        run: Box::new(run),
    }
}

/// The layer probes of the traced run.
fn layer_probes(t: &mut Tracer, topo: &Arc<Topology>) -> Vec<Probe> {
    let c0 = ClusterId::new(0);
    let c1 = ClusterId::new(1);
    let pool: NodePool<[u64; 2]> = NodePool::new(|| [0; 2]);
    let global = cohort::GlobalBoLock::new();
    let local = cohort::LocalMcsLock::new();
    let stats_lock = cohort::CBoMcs::new(Arc::clone(topo));
    let dir = Directory::new(2, CostModel::t5440());
    let dir_remote = Directory::new(2, CostModel::t5440());
    let cfg = KvConfig::default();
    let keys = 4096u64;
    let mut store = KvStore::new(
        cfg,
        Arc::new(Directory::new(
            KvStore::lines_needed(&cfg),
            CostModel::t5440(),
        )),
    );
    for k in 0..keys {
        store.set(k, k, c0);
    }
    let mut set_store = KvStore::new(
        cfg,
        Arc::new(Directory::new(
            KvStore::lines_needed(&cfg),
            CostModel::t5440(),
        )),
    );
    for k in 0..keys {
        set_store.set(k, k, c0);
    }
    let shared = SharedKvStore::new(
        LockKind::CBoMcs.make(topo),
        KvStore::new(
            cfg,
            Arc::new(Directory::new(
                KvStore::lines_needed(&cfg),
                CostModel::t5440(),
            )),
        ),
    );
    for k in 0..keys {
        shared.set(k, k, c0);
    }
    let (mut gk, mut sk, mut hk, mut flip) = (0u64, 0u64, 0u64, 0u32);
    vec![
        probe(t, "base_locks.pool", move |n| {
            for _ in 0..n {
                let node = pool.acquire();
                // SAFETY: just acquired from this pool; nobody else sees it.
                unsafe { pool.release(node) };
            }
        }),
        raw_probe(t, "base_locks.tatas", base_locks::TatasLock::new()),
        raw_probe(t, "base_locks.ticket", base_locks::TicketLock::new()),
        raw_probe(t, "base_locks.mcs", base_locks::McsLock::new()),
        raw_probe(t, "base_locks.clh", base_locks::ClhLock::new()),
        raw_probe(t, "base_locks.recip", base_locks::ReciprocatingLock::new()),
        probe(t, "cohort.global_bo", move |n| {
            for _ in 0..n {
                global.lock();
                // SAFETY: held; the BO lock's token is `()`.
                unsafe { global.unlock(()) };
            }
        }),
        probe(t, "cohort.local_mcs", move |n| {
            for _ in 0..n {
                let (tok, _) = local.lock_local();
                // SAFETY: token from this lock; alone, so no pass.
                unsafe { local.unlock_local(tok, false, || {}) };
            }
        }),
        raw_probe(t, "cohort.c_bo_mcs", cohort::CBoMcs::new(Arc::clone(topo))),
        raw_probe(
            t,
            "cohort.c_tkt_mcs",
            cohort::CTktMcs::new(Arc::clone(topo)),
        ),
        raw_probe(
            t,
            "cohort.c_mcs_mcs",
            cohort::CMcsMcs::new(Arc::clone(topo)),
        ),
        raw_probe(
            t,
            "cohort.c_recip_mcs",
            cohort::CRecipMcs::new(Arc::clone(topo)),
        ),
        raw_probe(
            t,
            "cohort.fis_bo_mcs",
            cohort::FisBoMcs::new(Arc::clone(topo)),
        ),
        raw_probe(
            t,
            "cohort.gcr_c_bo_mcs",
            cohort::GcrLock::over(Arc::clone(topo), cohort::CBoMcs::new(Arc::clone(topo))),
        ),
        raw_probe(
            t,
            "baselines.cna",
            numa_baselines::CnaLock::new(Arc::clone(topo)),
        ),
        raw_probe(
            t,
            "baselines.fc_mcs",
            numa_baselines::FcMcsLock::new(Arc::clone(topo)),
        ),
        raw_probe(
            t,
            "baselines.hclh",
            numa_baselines::HclhLock::new(Arc::clone(topo)),
        ),
        probe(t, "cohort.stats_snapshot", move |n| {
            for _ in 0..n {
                std::hint::black_box(stats_lock.cohort_stats());
            }
        }),
        probe(t, "coherence.dir_write_local", move |n| {
            for _ in 0..n {
                std::hint::black_box(dir.write(0, c0));
            }
        }),
        probe(t, "coherence.dir_write_remote", move |n| {
            for _ in 0..n {
                flip ^= 1;
                let c = if flip == 0 { c0 } else { c1 };
                std::hint::black_box(dir_remote.write(0, c));
            }
        }),
        probe(t, "kvstore.store_get", move |n| {
            for _ in 0..n {
                gk = (gk + 1) % keys;
                std::hint::black_box(store.get(gk, c0));
            }
        }),
        probe(t, "kvstore.store_set", move |n| {
            for _ in 0..n {
                sk = (sk + 1) % keys;
                set_store.set(sk, sk, c0);
            }
        }),
        probe(t, "kvstore.shared_get", move |n| {
            for _ in 0..n {
                hk = (hk + 1) % keys;
                std::hint::black_box(shared.get(hk, c0));
            }
        }),
    ]
}

struct Solo {
    kinds: Vec<Entry>,
    probes: Vec<Probe>,
    line: PrivateLine,
}

fn setup(t: &mut Tracer) -> Solo {
    let topo = Arc::new(Topology::new(2));
    bind_current_thread(&topo, ClusterId::new(0));
    let make = t.id("harness.make");
    let kinds: Vec<Entry> = ROSTER
        .iter()
        .map(|&(kind, slug)| {
            let s = t.begin();
            let lock = kind.make(&topo);
            t.end(make, s, 1);
            Entry {
                lock,
                guard: Guarded::default(),
                span: t.id(&format!("solo.{slug}")),
            }
        })
        .collect();
    let probes = if t.enabled() {
        layer_probes(t, &topo)
    } else {
        Vec::new()
    };
    for _ in 0..WARM_ROUNDS {
        for e in &kinds {
            kind_slice(&*e.lock, &e.guard);
        }
    }
    Solo {
        kinds,
        probes,
        line: PrivateLine::default(),
    }
}

/// Runs `solo` (see the module docs).
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let mut t = Tracer::new(trace, 0, Instant::now());
    let (setup_s, mut solo) = repeat_setup(SETUPS, || setup(&mut t));
    let rmw_span = t.id("host.rmw");
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_SALT);
    let n = solo.kinds.len();
    let mut expected: Vec<u64> = solo.kinds.iter().map(|e| e.guard.count()).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per round: ns per op of each kind, and the round's RMW ns per op.
    let mut rounds: Vec<(Vec<f64>, f64)> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        t.new_op();
        let mut kind_ns = vec![0.0; n];
        let mut rmw = Vec::with_capacity(n);
        for k in shuffled(&mut rng, n) {
            let r0 = Instant::now();
            rmw.push(solo.line.rmw_slice());
            let e = &solo.kinds[k];
            let t0 = Instant::now();
            kind_slice(&*e.lock, &e.guard);
            let t1 = Instant::now();
            t.record(rmw_span, r0, t0, crate::host::RMW_OPS);
            t.record(e.span, t0, t1, SLICE_OPS);
            kind_ns[k] = crate::ns_between(t0, t1) as f64 / SLICE_OPS as f64;
            attempted += SLICE_OPS as u64;
            expected[k] += SLICE_OPS as u64;
            if e.guard.count() != expected[k] {
                failed += SLICE_OPS as u64;
                expected[k] = e.guard.count();
            }
        }
        for p in shuffled(&mut rng, solo.probes.len()) {
            let probe = &mut solo.probes[p];
            let t0 = Instant::now();
            (probe.run)(SLICE_OPS);
            t.record(probe.span, t0, Instant::now(), SLICE_OPS);
        }
        rounds.push((kind_ns, median(&rmw)));
    }
    if rounds.is_empty() {
        return Err("solo: no round completed".into());
    }
    let rmw: Vec<f64> = rounds.iter().map(|r| r.1).collect();
    crate::host_note("solo", &rmw, None);
    let ratios: Vec<f64> = rounds.iter().map(|(k, rmw)| acq_rel_rmw(k, *rmw)).collect();
    // Each kind's per-slice costs at the reference speed, ascending.
    let per_kind: Vec<Vec<f64>> = (0..n)
        .map(|k| {
            let mut v: Vec<f64> = rounds.iter().map(|(ks, rmw)| at_ref(ks[k], *rmw)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            v
        })
        .collect();
    // Roster geomean of a per-kind figure: every kind counts once,
    // however slow it is.
    let roster = |f: &dyn Fn(&[f64]) -> Option<f64>| {
        let v: Vec<f64> = per_kind.iter().map(|s| f(s).unwrap_or(f64::NAN)).collect();
        geomean(&v).unwrap_or(f64::NAN)
    };
    let mean_ns = roster(&|s| Some(s.iter().sum::<f64>() / s.len() as f64));
    Ok(Outcome {
        attempted,
        failed,
        e2e: EndToEnd {
            setup_s,
            ops_per_s: 1e9 / mean_ns,
            lat_p50_ns: roster(&|s| percentile(s, 50.0)),
            lat_p99_ns: roster(&|s| percentile(s, 99.0)),
            min_share: min_share(&[attempted]),
            acq_rel_rmw: median(&ratios),
        },
        values: Vec::new(),
        tracer: t,
    })
}
