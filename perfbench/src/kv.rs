//! `kv`: two memcached-style clients in different virtual clusters run
//! against one store shard behind the paper's single cache lock
//! (C-BO-MCS).
//!
//! The shard is composed exactly as one shard of `ShardedKvStore` is — a
//! `SharedKvStore` plus the coherence `HandoffChannel` its exclusive
//! acquisitions are charged through — because `ShardedKvStore::op`
//! discards the value a get returns, and every get's value is checked
//! here: it must be absent or carry the stamp of its own key. Traffic is
//! 90% get / 10% set over Zipf θ = 0.9 keys, preloaded during set-up.
//! Each round ends with the host reference kernels.

use crate::host::{end_round, PingPong, PrivateLine};
use crate::stats::{median, min_share, LatHist};
use crate::trace::Tracer;
use crate::{at_ref, ns_between, repeat_setup, EndToEnd, Outcome};
use coherence_sim::{CostModel, Directory, HandoffChannel};
use cohort_kvstore::{KvConfig, KvStore, SharedKvStore};
use lbench::{KeyDist, LockKind};
use numa_topology::{bind_current_thread, ClusterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Distinct keys: the repository's KV keyspace (`KvWorkload::default`),
/// which fits the store's default capacity, so the preloaded keys stay
/// resident.
pub const KEYSPACE: u64 = 8192;

/// Percentage of gets.
pub const GET_PCT: u32 = 90;

/// Key skew.
pub const ZIPF_THETA: f64 = 0.9;

/// Length of one round of client traffic.
pub const ROUND: Duration = Duration::from_millis(20);

const SETUPS: usize = 9;
const WARM_OPS: u64 = 100_000;
const SEED_SALT: u64 = 0x6B76;
const STAMP_SHIFT: u32 = 24;

/// The value a set of `key` stores: the key in the high bits, a
/// per-client sequence number below.
fn stamp(key: u64, seq: u64) -> u64 {
    (key << STAMP_SHIFT) | (seq & ((1 << STAMP_SHIFT) - 1))
}

struct Shard {
    topo: Arc<Topology>,
    store: SharedKvStore,
    handoff: HandoffChannel,
    barrier: Barrier,
    stop: AtomicBool,
    pingpong: PingPong,
}

/// Span ids of one client's tracer.
struct Spans {
    op: u16,
    wait: u16,
    hold: u16,
    handoff: u16,
    store: u16,
    release: u16,
}

impl Spans {
    fn new(t: &mut Tracer) -> Self {
        Spans {
            op: t.id("kv.op"),
            wait: t.id("kv.lock_wait"),
            hold: t.id("kv.hold"),
            handoff: t.id("coherence.handoff"),
            store: t.id("kv.store"),
            release: t.id("kv.release"),
        }
    }
}

/// One client operation; returns whether its result checks out: a get
/// must find nothing or a value stamped with its own key.
#[inline]
fn op(sh: &Shard, t: &mut Tracer, sp: &Spans, c: ClusterId, key: u64, get: bool, seq: u64) -> bool {
    t.new_op();
    let o = t.begin();
    let wait = t.begin();
    let (got, rel) = sh.store.with_lock(|s| {
        t.end(sp.wait, wait, 1);
        let hold = t.begin();
        let h = t.begin();
        sh.handoff.on_acquire(c);
        t.end(sp.handoff, h, 1);
        let st = t.begin();
        let got = if get {
            s.get(key, c)
        } else {
            s.set(key, stamp(key, seq), c);
            None
        };
        t.end(sp.store, st, 1);
        let h = t.begin();
        sh.handoff.on_release(c);
        t.end(sp.handoff, h, 0);
        t.end(sp.hold, hold, 1);
        (got, t.begin())
    });
    t.end(sp.release, rel, 1);
    t.end(sp.op, o, 1);
    got.is_none_or(|v| v >> STAMP_SHIFT == key)
}

fn setup() -> (Shard, u64) {
    let topo = Arc::new(Topology::new(2));
    let cfg = KvConfig::default();
    let cost = CostModel::t5440();
    let lock = LockKind::CBoMcs.make(&topo);
    let store = SharedKvStore::new(
        lock,
        KvStore::new(
            cfg,
            Arc::new(Directory::new(KvStore::lines_needed(&cfg), cost)),
        ),
    );
    let c0 = ClusterId::new(0);
    store.with_lock(|s| {
        for k in 0..KEYSPACE {
            s.set(k, stamp(k, 0), c0);
        }
    });
    let sh = Shard {
        topo,
        store,
        handoff: HandoffChannel::new(cost),
        barrier: Barrier::new(2),
        stop: AtomicBool::new(false),
        pingpong: PingPong::default(),
    };
    // Warm-up pass from this thread, bound to cluster 0.
    bind_current_thread(&sh.topo, c0);
    let mut t = Tracer::new(false, 0, Instant::now());
    let sp = Spans::new(&mut t);
    let mut rng = StdRng::seed_from_u64(SEED_SALT);
    let dist = KeyDist::Zipfian { theta: ZIPF_THETA };
    let mut gets = 0;
    for i in 0..WARM_OPS {
        let key = dist.sample(&mut rng, KEYSPACE);
        let get = rng.gen_range(0u32..100) < GET_PCT;
        gets += get as u64;
        op(&sh, &mut t, &sp, c0, key, get, i + 1);
    }
    (sh, gets)
}

#[derive(Default)]
struct Client {
    ops: u64,
    gets: u64,
    failed: u64,
    hist: LatHist,
    /// Per round: (ops, summed op latency ns) — both clients.
    rounds: Vec<(u64, u64)>,
    /// Client 0 only, per round: wall ns, RMW ns, ping-pong ns.
    wall: Vec<u64>,
    rmw: Vec<f64>,
    pingpong: Vec<f64>,
    tracer: Option<Tracer>,
}

fn client(
    sh: &Shard,
    me: usize,
    seed: u64,
    budget: Duration,
    trace: bool,
    epoch: Instant,
) -> Client {
    let c = ClusterId::new(me as u32);
    bind_current_thread(&sh.topo, c);
    let mut t = Tracer::new(trace, me as u8, epoch);
    let sp = Spans::new(&mut t);
    let rmw_span = t.id("host.rmw");
    let pp_span = t.id("host.pingpong");
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_SALT ^ ((me as u64 + 1) << 40));
    let dist = KeyDist::Zipfian { theta: ZIPF_THETA };
    let line = PrivateLine::default();
    let mut cl = Client::default();
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        sh.barrier.wait();
        if sh.stop.load(Ordering::Acquire) {
            break;
        }
        let r0 = Instant::now();
        let deadline = r0 + ROUND;
        let (mut ops, mut lat) = (0u64, 0u64);
        loop {
            let key = dist.sample(&mut rng, KEYSPACE);
            let get = rng.gen_range(0u32..100) < GET_PCT;
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            let ok = op(sh, &mut t, &sp, c, key, get, cl.ops + 1);
            let ns = ns_between(t0, Instant::now());
            cl.hist.record(ns);
            lat += ns;
            ops += 1;
            cl.ops += 1;
            cl.gets += get as u64;
            cl.failed += !ok as u64;
        }
        let r1 = Instant::now();
        cl.rounds.push((ops, lat));
        let spans = [rmw_span, pp_span];
        if let Some((rmw, pp)) =
            end_round(&sh.barrier, &sh.pingpong, &line, me, round, &mut t, spans)
        {
            cl.wall.push(ns_between(r0, r1));
            cl.rmw.push(rmw);
            cl.pingpong.push(pp);
            if start.elapsed() >= budget {
                sh.stop.store(true, Ordering::Release);
            }
        }
        round += 1;
    }
    cl.tracer = Some(t);
    cl
}

/// Runs `kv` (see the module docs).
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let (setup_s, (sh, warm_gets)) = repeat_setup(SETUPS, setup);
    let epoch = Instant::now();
    let mut cs: Vec<Client> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|me| {
                let sh = &sh;
                s.spawn(move || client(sh, me, seed, budget, trace, epoch))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("kv client panicked"))
            .collect()
    });
    let c1 = cs.pop().expect("two clients");
    let mut c0 = cs.pop().expect("two clients");
    if c0.wall.is_empty() {
        return Err("kv: no round completed".into());
    }
    crate::host_note("kv", &c0.rmw, Some(&c0.pingpong));
    let mut t = c0.tracer.take().expect("client tracer");
    t.absorb(c1.tracer.expect("client tracer"));
    let mut hist = c0.hist;
    hist.merge(&c1.hist);
    let total = c0.ops + c1.ops;
    let mut failed = c0.failed + c1.failed;
    // The store's own hit/miss counters must account for every get.
    let stats = sh.store.stats();
    let gets = warm_gets + c0.gets + c1.gets;
    if stats.hits + stats.misses != gets {
        failed += (stats.hits + stats.misses).abs_diff(gets).max(1);
    }
    let ratios: Vec<f64> = c0
        .rounds
        .iter()
        .zip(&c1.rounds)
        .zip(&c0.rmw)
        .map(|((a, b), rmw)| (a.1 + b.1) as f64 / (a.0 + b.0).max(1) as f64 / rmw)
        .collect();
    let rmw = median(&c0.rmw);
    let tput: Vec<f64> = c0
        .rounds
        .iter()
        .zip(&c1.rounds)
        .zip(&c0.wall)
        .map(|((a, b), wall)| (a.0 + b.0) as f64 / (*wall as f64 / 1e9))
        .collect();
    let values = vec![(
        "kvstore.hit_ratio".to_string(),
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    )];
    Ok(Outcome {
        attempted: total,
        failed,
        e2e: EndToEnd {
            setup_s,
            ops_per_s: median(&tput) / at_ref(1.0, rmw),
            lat_p50_ns: hist
                .percentile(50.0)
                .map_or(f64::NAN, |v| at_ref(v as f64, rmw)),
            lat_p99_ns: hist
                .percentile(99.0)
                .map_or(f64::NAN, |v| at_ref(v as f64, rmw)),
            min_share: min_share(&[c0.ops, c1.ops]),
            acq_rel_rmw: median(&ratios),
        },
        values,
        tracer: t,
    })
}
