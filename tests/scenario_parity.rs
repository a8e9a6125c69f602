//! Integration: the unkeyed real-thread program, pinned by goldens.
//!
//! `run_lbench` / `run_rw_lbench` once wrapped the scenario engine; they
//! are gone, and every realtime scenario now runs through the one worker
//! loop the keyed services use (an unkeyed scenario is a one-lock keyed
//! service). The golden values below are what the wrappers and the
//! engine returned, identically, for these cells before that merge —
//! same geometry, same seeds. If any of them change, the engine's
//! per-thread program (RNG draw order, pacing, latency sample point,
//! abort accounting) has drifted.
//!
//! Exactness needs determinism, and multi-threaded runs are only
//! *statistically* stable (the stop flag races real scheduling). The
//! single-thread cells below are fully deterministic — one seeded RNG,
//! virtual time only — so equality is exact. A multi-thread cell then
//! checks the aggregate invariants that survive scheduling noise.
//! `tests/kv_scenario_parity.rs` is the keyed side's guard.

use coherence_sim::CostModel;
use lbench::{
    run_scenario, AnyLockKind, CostMode, LBenchConfig, LockKind, Phase, RwLockKind, Scenario,
    ScenarioResult,
};
use std::time::Duration;

fn cfg(threads: usize) -> LBenchConfig {
    LBenchConfig {
        threads,
        window_ns: 2_000_000, // 2 ms virtual
        max_wall: Duration::from_secs(30),
        ..Default::default()
    }
}

/// The pinned single-thread numbers of one cell.
#[derive(Debug, PartialEq)]
struct Golden {
    total_ops: u64,
    throughput: f64,
    acquisitions: u64,
    aborts: u64,
    lat_p50_ns: u64,
    lat_p99_ns: u64,
}

impl From<&ScenarioResult> for Golden {
    fn from(r: &ScenarioResult) -> Self {
        Golden {
            total_ops: r.total_ops,
            throughput: r.throughput,
            acquisitions: r.acquisitions,
            aborts: r.aborts,
            lat_p50_ns: r.lat_p50_ns,
            lat_p99_ns: r.lat_p99_ns,
        }
    }
}

/// The steady exclusive cell every single-thread kind lands on: 982 ops
/// in 2 ms, one acquisition each. A lone thread never queues, so the
/// median acquisition latency is 0.
const STEADY: Golden = Golden {
    total_ops: 982,
    throughput: 491000.0,
    acquisitions: 982,
    aborts: 0,
    lat_p50_ns: 0,
    lat_p99_ns: 40,
};

#[test]
fn exclusive_wrapper_matches_engine_exactly() {
    // Cohort-family kinds book one tenure per op (no cluster-mate to
    // pass to); MCS has no tenure notion.
    for (kind, tenures, policy) in [
        (LockKind::Mcs, 0, None),
        (LockKind::CBoMcs, 982, Some("count(64)")),
        (LockKind::Cna, 982, Some("count(64)")),
    ] {
        let r = run_scenario(AnyLockKind::Excl(kind), &Scenario::steady(), &cfg(1));
        assert_eq!(Golden::from(&r), STEADY, "{kind}");
        assert_eq!(r.migrations, 0, "{kind}");
        assert_eq!(r.per_thread_ops, vec![982], "{kind}");
        assert_eq!((r.tenures, r.local_handoffs), (tenures, 0), "{kind}");
        assert_eq!(r.policy.as_deref(), policy, "{kind}");
    }
}

#[test]
fn rw_wrapper_matches_engine_exactly() {
    // 497 shared reads skip the handoff channel: only the 475 writes
    // are acquisitions, and only they are sampled.
    let half = Scenario::steady().with_read_pct(50);
    for kind in [RwLockKind::CRwWpBoMcs, RwLockKind::StdRw] {
        let r = run_scenario(AnyLockKind::Rw(kind), &half, &cfg(1));
        let golden = Golden {
            total_ops: 972,
            throughput: 486000.0,
            acquisitions: 475,
            aborts: 0,
            lat_p50_ns: 0,
            lat_p99_ns: 0,
        };
        assert_eq!(Golden::from(&r), golden, "{kind}");
        assert_eq!((r.read_ops, r.write_ops), (497, 475), "{kind}");
        assert_eq!(r.migrations, 0, "{kind}");
        assert_eq!(r.per_thread_ops, vec![972], "{kind}");
    }
}

#[test]
fn abortable_wrapper_matches_engine_exactly() {
    // Uncontended abortable acquisition never times out, so the cell is
    // deterministic too — and lands on the steady exclusive numbers.
    let r = run_scenario(
        AnyLockKind::Excl(LockKind::ACBoClh),
        &Scenario::steady().with_patience(500_000),
        &cfg(1),
    );
    assert_eq!(Golden::from(&r), STEADY);
    assert_eq!(r.abort_rate, 0.0);
}

#[test]
fn bursty_and_phased_cells_match_their_goldens() {
    // A 50% duty cycle roughly halves the single-thread op count.
    let r = run_scenario(
        AnyLockKind::Excl(LockKind::CBoMcs),
        &Scenario::bursty(100_000, 100_000),
        &cfg(1),
    );
    let bursty = Golden {
        total_ops: 504,
        throughput: 252000.0,
        acquisitions: 504,
        aborts: 0,
        lat_p50_ns: 0,
        lat_p99_ns: 46,
    };
    assert_eq!(Golden::from(&r), bursty);

    // Alternating all-read / all-write phases: only the write phases'
    // ops are acquisitions.
    let r = run_scenario(
        AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
        &Scenario::phased(vec![
            Phase {
                dur_ns: 200_000,
                read_pct: 100,
            },
            Phase {
                dur_ns: 200_000,
                read_pct: 0,
            },
        ]),
        &cfg(1),
    );
    let phased = Golden {
        total_ops: 972,
        throughput: 486000.0,
        acquisitions: 481,
        aborts: 0,
        lat_p50_ns: 0,
        lat_p99_ns: 38,
    };
    assert_eq!(Golden::from(&r), phased);
    assert_eq!((r.read_ops, r.write_ops), (491, 481));
}

#[test]
fn single_thread_runs_are_reproducible_at_all() {
    // The premise of the exact cells above: the same seed really does
    // reproduce the same run when one thread eliminates scheduling.
    let c = cfg(1);
    let kind = AnyLockKind::Excl(LockKind::Ticket);
    let a = run_scenario(kind, &Scenario::steady(), &c);
    let b = run_scenario(kind, &Scenario::steady(), &c);
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.throughput, b.throughput);
}

#[test]
fn modelled_single_thread_is_bit_exact_across_repeats() {
    // The modelled cost mode's determinism contract, at the parity
    // matrix's own cell sizes: every repeat is a bit-identical twin —
    // not just total_ops, but every deterministic field
    // (first_divergence compares floats by to_bits and covers the whole
    // result surface except the diagnostic wall field).
    for kind in [LockKind::Mcs, LockKind::CBoMcs, LockKind::Cna] {
        let c = cfg(1);
        let s = Scenario::steady().modelled(CostModel::disaggregated());
        let a = run_scenario(AnyLockKind::Excl(kind), &s, &c);
        let b = run_scenario(AnyLockKind::Excl(kind), &s, &c);
        assert_eq!(a.first_divergence(&b), None, "{kind}");
        assert!(a.total_ops > 0, "{kind}");
    }
}

#[test]
fn realtime_results_are_unaffected_by_cost_mode_plumbing() {
    // The explicit RealTime cost mode is the default substrate exactly:
    // it must land on the same golden as the default steady scenario.
    for kind in [LockKind::Mcs, LockKind::CBoMcs] {
        let explicit = run_scenario(
            AnyLockKind::Excl(kind),
            &Scenario::steady().with_cost_mode(CostMode::RealTime),
            &cfg(1),
        );
        assert_eq!(Golden::from(&explicit), STEADY, "{kind}");
        assert_eq!(explicit.migrations, 0, "{kind}");
        assert_eq!(explicit.per_thread_ops, vec![982], "{kind}");
    }
}

#[test]
fn multi_thread_wrapper_preserves_aggregate_invariants() {
    // Multi-threaded cells race real scheduling, so exact equality is
    // out; the engine must still deliver a structurally consistent
    // result.
    let c = cfg(4);
    let r = run_scenario(
        AnyLockKind::Excl(LockKind::CTktMcs),
        &Scenario::steady(),
        &c,
    );
    assert_eq!(r.total_ops, r.per_thread_ops.iter().sum::<u64>());
    assert!(r.acquisitions >= r.total_ops);
    assert_eq!(r.tenures + r.local_handoffs, r.total_ops);
    assert_eq!(r.threads, 4);
    assert!(r.throughput > 0.0);

    let rw = run_scenario(
        AnyLockKind::Rw(RwLockKind::CRwWpTktMcs),
        &Scenario::steady().with_read_pct(50),
        &c,
    );
    assert_eq!(rw.total_ops, rw.read_ops + rw.write_ops);
    assert_eq!(rw.total_ops, rw.per_thread_ops.iter().sum::<u64>());
    assert_eq!(rw.tenures + rw.local_handoffs, rw.write_ops);
}
