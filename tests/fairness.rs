//! Integration: the may-pass-local policy bounds cohort tenures.

use cohort::{CohortLock, GlobalBoLock, LocalMcsLock, PassPolicy, PolicySpec};
use lbench::{
    run_scenario, run_scenario_on, AnyLockKind, LBenchConfig, LockKind, MutexAsRw, RawAdapter,
    Scenario,
};
use numa_topology::Topology;
use std::sync::Arc;

fn run_with_bound(policy: PassPolicy) -> f64 {
    let topo = Arc::new(Topology::new(4));
    let lock: CohortLock<GlobalBoLock, LocalMcsLock> =
        CohortLock::with_policy(Arc::clone(&topo), policy);
    let cfg = LBenchConfig {
        threads: 16,
        window_ns: 3_000_000,
        ..Default::default()
    };
    let r = run_scenario_on(
        AnyLockKind::Excl(LockKind::CBoMcs),
        Arc::new(MutexAsRw::new(Arc::new(RawAdapter::new(lock)))),
        topo,
        &Scenario::steady(),
        &cfg,
    );
    r.mean_batch
}

#[test]
fn tighter_bound_means_shorter_batches() {
    let tight = run_with_bound(PassPolicy::Count { bound: 4 });
    let loose = run_with_bound(PassPolicy::Count { bound: 64 });
    assert!(
        tight < loose,
        "bound 4 gave batch {tight:.1}, bound 64 gave {loose:.1}"
    );
    // A batch can slightly exceed the bound (the same cluster may re-win
    // the global lock), but the bound must still be the dominant term.
    assert!(
        tight <= 16.0,
        "bound 4 should cap batches near 4, got {tight:.1}"
    );
}

#[test]
fn never_pass_policy_disables_batching() {
    let batch = run_with_bound(PassPolicy::NeverPass);
    // Without local handoffs every release goes global; batches form only
    // when one cluster re-wins the global race.
    assert!(
        batch <= 8.0,
        "NeverPass should kill batching, got {batch:.1}"
    );
}

fn run_cna_with_bound(bound: u64) -> (f64, u64) {
    let cfg = LBenchConfig {
        threads: 16,
        window_ns: 3_000_000,
        policy: Some(PolicySpec::Count { bound }),
        ..Default::default()
    };
    let r = run_scenario(AnyLockKind::Excl(LockKind::Cna), &Scenario::steady(), &cfg);
    (r.mean_batch, r.max_streak)
}

#[test]
fn cna_threshold_bounds_batches_like_the_cohort_knob() {
    // The CNA family answers to the same fairness knob: a tighter
    // threshold must shorten same-cluster batches and cap the observed
    // streak, mirroring `tighter_bound_means_shorter_batches` above.
    let (tight_batch, tight_streak) = run_cna_with_bound(4);
    let (loose_batch, _) = run_cna_with_bound(64);
    assert!(tight_streak <= 4, "threshold 4 violated: {tight_streak}");
    assert!(
        tight_batch < loose_batch,
        "threshold 4 gave batch {tight_batch:.1}, threshold 64 gave {loose_batch:.1}"
    );
    assert!(
        tight_batch <= 16.0,
        "threshold 4 should cap batches near 4, got {tight_batch:.1}"
    );
}
