//! Integration: `run_scenario` rejects scenarios that cannot mean what
//! they say — keyed ones and hand-built literals included, on both
//! substrates. An empty bursty on-window would gate every op (a silent
//! zero-op run); an over-100 phase read percentage would silently become
//! all-reads.

use coherence_sim::CostModel;
use cohort_kvstore::{KvConfig, KvServiceFactory};
use lbench::{
    run_scenario, AnyLockKind, CostMode, KeyDist, KeyedSpec, LBenchConfig, LoadShape, LockKind,
    Phase, Scenario,
};
use std::sync::Arc;

/// A small single-shard KV cell with `shape` — a struct literal, since
/// the constructors reject these shapes themselves.
fn kv_cell(shape: LoadShape, cost_mode: CostMode) -> Scenario {
    let keyspace = 64;
    Scenario {
        shape,
        cost_mode,
        keyed: Some(KeyedSpec {
            keyspace,
            dist: KeyDist::Uniform,
            parse_ns: 0,
            seed: 1,
            factory: Arc::new(KvServiceFactory {
                shards: 1,
                keyspace,
                store: KvConfig::default(),
                cost: CostModel::t5440(),
                policy: None,
                rw: false,
            }),
        }),
        ..Scenario::default()
    }
}

fn run(s: &Scenario) {
    let cfg = LBenchConfig {
        threads: 1,
        window_ns: 1_000_000,
        ..Default::default()
    };
    run_scenario(AnyLockKind::Excl(LockKind::Mcs), s, &cfg);
}

const EMPTY_ON_WINDOW: LoadShape = LoadShape::Bursty {
    on_ns: 0,
    off_ns: 100_000,
};

#[test]
#[should_panic(expected = "non-empty on-window")]
fn keyed_realtime_rejects_an_empty_on_window() {
    run(&kv_cell(EMPTY_ON_WINDOW, CostMode::RealTime));
}

#[test]
#[should_panic(expected = "non-empty on-window")]
fn keyed_modelled_rejects_an_empty_on_window() {
    let modelled = CostMode::Modelled(CostModel::t5440());
    run(&kv_cell(EMPTY_ON_WINDOW, modelled));
}

#[test]
#[should_panic(expected = "phase read_pct is a percentage")]
fn keyed_runs_reject_an_over_100_phase() {
    let phases = vec![Phase {
        dur_ns: 1_000,
        read_pct: 101,
    }];
    run(&kv_cell(LoadShape::Phased { phases }, CostMode::RealTime));
}

#[test]
#[should_panic(expected = "read_pct is a percentage")]
fn unkeyed_runs_reject_an_over_100_base_read_pct() {
    run(&Scenario {
        read_pct: 101,
        ..Scenario::default()
    });
}
