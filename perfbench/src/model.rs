//! `model`: one thread runs a fixed grid of modelled (discrete-event)
//! scenario cells through `lbench::run_scenario`.
//!
//! The grid holds the `fig_model` cells (uncontended, saturated, bursty,
//! read-mix over MCS, TATAS, C-BO-MCS, CNA and C-RW-WP-BO-MCS) at a
//! contended thread count, plus keyed `fig_shards`-style cells over one
//! and four store shards, so both modelled loops run. No real lock is
//! taken. Every cell runs twice and the two results must be bit-identical.
//! Each round is one RMW slice plus a pass over the grid in a seeded order.
//!
//! Like every workload's, the time figures are quoted at the reference
//! host's speed; the raw simulated-ops rates are per-layer metrics of the
//! traced run.

use crate::host::PrivateLine;
use crate::stats::{median, min_share, percentile};
use crate::trace::Tracer;
use crate::{at_ref, ns_between, repeat_setup, shuffled, EndToEnd, Outcome};
use coherence_sim::CostModel;
use cohort_kvstore::{KvConfig, KvServiceFactory};
use lbench::{
    run_scenario, AnyLockKind, KeyDist, KeyedSpec, LBenchConfig, LockKind, RwLockKind, Scenario,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated threads of the contended cells.
pub const THREADS: usize = 64;

/// Virtual clusters of every cell.
pub const CLUSTERS: usize = 4;

/// Virtual window of every cell, ns.
pub const WINDOW_NS: u64 = 10_000_000;

const SETUPS: usize = 3;
const SEED_SALT: u64 = 0x30DE;

struct Cell {
    kind: AnyLockKind,
    scenario: Scenario,
    cfg: LBenchConfig,
    keyed: bool,
}

fn cfg(threads: usize, noncs_max_ns: u64) -> LBenchConfig {
    LBenchConfig {
        threads,
        clusters: CLUSTERS,
        window_ns: WINDOW_NS,
        noncs_max_ns,
        max_wall: Duration::from_secs(60),
        ..Default::default()
    }
}

fn grid(seed: u64) -> Vec<Cell> {
    let model = CostModel::disaggregated();
    let unkeyed = [
        (1, Scenario::steady()),
        (THREADS, Scenario::steady()),
        (THREADS, Scenario::bursty(200_000, 200_000)),
        (THREADS, Scenario::steady().with_read_pct(90)),
    ];
    let kinds = [
        AnyLockKind::Excl(LockKind::Mcs),
        AnyLockKind::Excl(LockKind::Tatas),
        AnyLockKind::Excl(LockKind::CBoMcs),
        AnyLockKind::Excl(LockKind::Cna),
        AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
    ];
    let mut cells = Vec::new();
    for kind in kinds {
        for (threads, scenario) in &unkeyed {
            cells.push(Cell {
                kind,
                scenario: scenario.clone().modelled(model),
                cfg: cfg(*threads, 0),
                keyed: false,
            });
        }
    }
    let keyspace = 8192;
    let cost = CostModel::t5440();
    for kind in [kinds[2], kinds[4]] {
        for shards in [1, 4] {
            let spec = KeyedSpec {
                keyspace,
                dist: KeyDist::Zipfian { theta: 0.4 },
                parse_ns: 6_000,
                seed: seed ^ SEED_SALT,
                factory: Arc::new(KvServiceFactory {
                    shards,
                    keyspace,
                    store: KvConfig::default(),
                    cost,
                    policy: None,
                    rw: false,
                }),
            };
            cells.push(Cell {
                kind,
                scenario: Scenario::steady()
                    .with_read_pct(90)
                    .with_keyed(spec)
                    .modelled(cost),
                cfg: LBenchConfig {
                    cost,
                    ..cfg(THREADS, LBenchConfig::default().noncs_max_ns)
                },
                keyed: true,
            });
        }
    }
    cells
}

/// Builds the grid and runs every cell once (the warm-up pass).
fn setup(seed: u64) -> Vec<Cell> {
    let cells = grid(seed);
    for c in &cells {
        std::hint::black_box(run_scenario(c.kind, &c.scenario, &c.cfg));
    }
    cells
}

/// Runs `model` (see the module docs).
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let (setup_s, cells) = repeat_setup(SETUPS, || setup(seed));
    let mut t = Tracer::new(trace, 0, Instant::now());
    let spans = [t.id("model.unkeyed"), t.id("model.keyed")];
    let rmw_span = t.id("host.rmw");
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_SALT);
    let line = PrivateLine::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tput = Vec::new();
    let mut per_op_ns: Vec<f64> = Vec::new();
    let mut ratios = Vec::new();
    let mut rmws = Vec::new();
    let mut thread_ops = vec![0u64; THREADS];
    let start = Instant::now();
    while start.elapsed() < budget {
        let (mut round_ops, mut round_ns) = (0u64, 0u64);
        let mut round = Vec::new();
        let mut rmw_slices = Vec::new();
        for i in shuffled(&mut rng, cells.len()) {
            let c = &cells[i];
            t.new_op();
            let k0 = Instant::now();
            rmw_slices.push(line.rmw_slice());
            let t0 = Instant::now();
            t.record(rmw_span, k0, t0, crate::host::RMW_OPS);
            let a = run_scenario(c.kind, &c.scenario, &c.cfg);
            let t1 = Instant::now();
            let b = run_scenario(c.kind, &c.scenario, &c.cfg);
            let t2 = Instant::now();
            attempted += 1;
            if a.first_divergence(&b).is_some() || a.total_ops == 0 {
                failed += 1;
            }
            for (r, s, e) in [(&a, t0, t1), (&b, t1, t2)] {
                let ns = ns_between(s, e);
                t.record(spans[c.keyed as usize], s, e, r.total_ops as u32);
                round.push(ns as f64 / r.total_ops.max(1) as f64);
                round_ops += r.total_ops;
                round_ns += ns;
            }
            if !c.keyed && c.cfg.threads == THREADS {
                for (sum, ops) in thread_ops.iter_mut().zip(&a.per_thread_ops) {
                    *sum += ops;
                }
            }
        }
        let rmw = median(&rmw_slices);
        per_op_ns.extend(round.iter().map(|ns| at_ref(*ns, rmw)));
        tput.push(round_ops as f64 / (round_ns as f64 / 1e9) / at_ref(1.0, rmw));
        ratios.push(round_ns as f64 / round_ops.max(1) as f64 / rmw);
        rmws.push(rmw);
    }
    if ratios.is_empty() {
        return Err("model: no round completed".into());
    }
    crate::host_note("model", &rmws, None);
    per_op_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    Ok(Outcome {
        attempted,
        failed,
        e2e: EndToEnd {
            setup_s,
            ops_per_s: median(&tput),
            lat_p50_ns: percentile(&per_op_ns, 50.0).unwrap_or(f64::NAN),
            lat_p99_ns: percentile(&per_op_ns, 99.0).unwrap_or(f64::NAN),
            min_share: min_share(&thread_ops),
            acq_rel_rmw: median(&ratios),
        },
        values: Vec::new(),
        tracer: t,
    })
}
