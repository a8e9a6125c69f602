//! The LBench run configuration (§4.1 of the paper).
//!
//! Each thread loops: acquire the central lock → write the shared cache
//! lines (two, in the paper) → release → idle for a random non-critical
//! period (up to 4 µs). The run ends when any thread's **virtual clock**
//! crosses the measurement window (or a wall-clock safety net fires).
//!
//! Time accounting (see DESIGN.md §2): critical-section data accesses are
//! charged through the coherence [`Directory`], the lock handoff through
//! the [`HandoffChannel`], and the non-critical section as a plain clock
//! advance. The lock algorithms themselves run for real on real threads;
//! only *time* is modelled, which is what lets a 1-CPU CI container
//! reproduce a 256-thread NUMA machine's throughput *shapes*.
//!
//! The loop itself is [`run_scenario`](crate::run_scenario); this module
//! holds the grid-level knobs it reads ([`LBenchConfig`]) and the thread
//! layout ([`Placement`]).
//!
//! [`Directory`]: coherence_sim::Directory
//! [`HandoffChannel`]: coherence_sim::HandoffChannel

use coherence_sim::CostModel;
use cohort::PolicySpec;
use std::time::Duration;

/// How threads are laid out over clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Thread `i` on cluster `i % clusters` (spread, the default — matches
    /// an OS scheduler distributing threads over sockets).
    RoundRobin,
    /// Fill cluster 0 first, then cluster 1, … (taskset-style packing).
    Blocked,
}

/// LBench parameters. Defaults reproduce the paper's setup: 2 cache lines
/// written per critical section, ≤4 µs non-critical work, 4 clusters.
///
/// Every modelled delay — the critical section and the non-critical
/// section — is also waited out in wall time, scaled by
/// [`kappa_for`](crate::pace::kappa_for)`(threads)` (see the `pace`
/// module). This keeps the real execution's arrival order consistent
/// with virtual ready times on an oversubscribed host: FIFO queue locks
/// otherwise admit threads whose virtual non-critical section has not
/// elapsed yet, and a TATAS releaser otherwise instantly re-wins the
/// race and hogs the lock. With pacing, contention (queue depth, batch
/// composition) forms in real time exactly when the modelled load would
/// form it.
#[derive(Clone, Debug)]
pub struct LBenchConfig {
    /// Worker threads.
    pub threads: usize,
    /// NUMA clusters (virtual).
    pub clusters: usize,
    /// Measurement window in virtual nanoseconds.
    pub window_ns: u64,
    /// Shared cache lines written inside the critical section.
    pub cs_lines: usize,
    /// Extra modelled compute inside the critical section (the 8 counter
    /// increments of the paper, beyond the line transfers themselves).
    pub cs_extra_ns: u64,
    /// Upper bound of the uniformly-random non-critical section.
    pub noncs_max_ns: u64,
    /// Memory-system latency model.
    pub cost: CostModel,
    /// Thread layout.
    pub placement: Placement,
    /// Handoff policy for cohort locks (`None` = each lock's default,
    /// i.e. the paper's `CountBound(64)`). Ignored by non-cohort locks.
    pub policy: Option<PolicySpec>,
    /// Wall-clock safety net: the run is cut off after this much real time
    /// regardless of virtual progress.
    pub max_wall: Duration,
    /// Topology backend: virtual clusters (the default) or the measured
    /// cluster map with physical worker pinning (`LBENCH_TOPOLOGY`, see
    /// [`crate::phys`]). With `Measured`, the probe's cluster count
    /// overrides `clusters` for the run; on single-CPU machines or when
    /// probing fails, the run falls back to virtual clusters with one
    /// logged warning.
    pub topology: crate::phys::TopologyMode,
}

impl Default for LBenchConfig {
    fn default() -> Self {
        LBenchConfig {
            threads: 4,
            clusters: 4,
            window_ns: 20_000_000, // 20 ms virtual
            cs_lines: 2,
            cs_extra_ns: 16,
            noncs_max_ns: 4_000,
            cost: CostModel::t5440(),
            placement: Placement::RoundRobin,
            policy: None,
            max_wall: Duration::from_secs(20),
            topology: crate::phys::TopologyMode::Virtual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AnyLockKind, LockKind, RwLockKind};
    use crate::scenario::{cluster_for, run_scenario, Scenario, ScenarioResult};

    fn quick_cfg(threads: usize) -> LBenchConfig {
        LBenchConfig {
            threads,
            window_ns: 2_000_000, // 2 ms virtual: fast tests
            max_wall: Duration::from_secs(30),
            ..Default::default()
        }
    }

    fn steady(kind: LockKind, cfg: &LBenchConfig) -> ScenarioResult {
        run_scenario(AnyLockKind::Excl(kind), &Scenario::steady(), cfg)
    }

    fn rw_mix(kind: RwLockKind, read_pct: u32, cfg: &LBenchConfig) -> ScenarioResult {
        run_scenario(
            AnyLockKind::Rw(kind),
            &Scenario::steady().with_read_pct(read_pct),
            cfg,
        )
    }

    #[test]
    fn single_thread_run_produces_ops() {
        let r = steady(LockKind::Mcs, &quick_cfg(1));
        assert!(r.total_ops > 10, "got {} ops", r.total_ops);
        assert_eq!(r.migrations, 0, "one thread cannot migrate the lock");
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn multi_thread_run_counts_everything() {
        let r = steady(LockKind::CBoMcs, &quick_cfg(4));
        assert_eq!(r.per_thread_ops.len(), 4);
        assert_eq!(r.total_ops, r.per_thread_ops.iter().sum::<u64>());
        assert!(r.acquisitions >= r.total_ops);
        assert!(r.misses_per_cs >= 0.0);
        // Cohort runs report tenure statistics from the policy counters.
        assert_eq!(r.policy.as_deref(), Some("count(64)"));
        assert_eq!(r.tenures + r.local_handoffs, r.total_ops);
        assert!(r.max_streak <= 64);
        assert!(r.mean_streak >= 0.0);
    }

    #[test]
    fn non_cohort_run_has_no_tenure_stats() {
        let r = steady(LockKind::Ticket, &quick_cfg(2));
        assert_eq!(r.policy, None);
        assert_eq!(r.tenures, 0);
        assert_eq!(r.local_handoffs, 0);
        assert_eq!(r.migrations_per_tenure, 0.0);
    }

    #[test]
    fn config_policy_is_honored_and_labelled() {
        let mut cfg = quick_cfg(4);
        cfg.policy = Some(cohort::PolicySpec::NeverPass);
        let r = steady(LockKind::CTktMcs, &cfg);
        assert_eq!(r.policy.as_deref(), Some("never-pass"));
        assert_eq!(r.local_handoffs, 0, "NeverPass forbids local handoffs");
        assert_eq!(r.tenures, r.total_ops);

        cfg.policy = Some(cohort::PolicySpec::Count { bound: 2 });
        let r = steady(LockKind::CBoMcs, &cfg);
        assert_eq!(r.policy.as_deref(), Some("count(2)"));
        assert!(r.max_streak <= 2, "bound 2 violated: {}", r.max_streak);
    }

    #[test]
    fn cohort_lock_migrates_less_than_mcs() {
        // The paper's central claim, in miniature: with 8 threads over 4
        // clusters (two cluster-mates each), plain MCS interleaves
        // clusters while a cohort lock batches them.
        let cfg = quick_cfg(8);
        let mcs = steady(LockKind::Mcs, &cfg);
        let cohort = steady(LockKind::CTktMcs, &cfg);
        let mcs_rate = mcs.migrations as f64 / mcs.acquisitions.max(1) as f64;
        let cohort_rate = cohort.migrations as f64 / cohort.acquisitions.max(1) as f64;
        assert!(
            cohort_rate < mcs_rate,
            "cohort migration rate {cohort_rate:.3} should undercut MCS {mcs_rate:.3}"
        );
    }

    #[test]
    fn abortable_mode_records_aborts_without_deadlock() {
        // 50 µs patience: aggressive, forces aborts.
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::ACBoClh),
            &Scenario::steady().with_patience(50_000),
            &quick_cfg(4),
        );
        assert!(r.total_ops > 0);
        // abort_rate is well-defined even when zero.
        assert!(r.abort_rate >= 0.0 && r.abort_rate <= 1.0);
    }

    #[test]
    fn patience_zero_aborts_do_not_wedge_the_run() {
        let cfg = LBenchConfig {
            threads: 4,
            window_ns: 1_000_000,
            ..Default::default()
        };
        // Hopeless patience: mostly aborts.
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::ACBoBo),
            &Scenario::steady().with_patience(1),
            &cfg,
        );
        // The run must terminate (stop flag via abort charges) and count
        // consistently.
        assert!(r.aborts > 0 || r.total_ops > 0);
    }

    #[test]
    fn rw_run_counts_both_sides() {
        let r = rw_mix(RwLockKind::CRwWpBoMcs, 50, &quick_cfg(4));
        assert_eq!(r.total_ops, r.read_ops + r.write_ops);
        assert_eq!(r.total_ops, r.per_thread_ops.iter().sum::<u64>());
        assert!(r.read_ops > 0, "mixed load produces reads");
        assert!(r.write_ops > 0, "mixed load produces writes");
        assert_eq!(r.policy.as_deref(), Some("count(64)"));
        // Only writers go through the cohort machinery.
        assert_eq!(r.tenures + r.local_handoffs, r.write_ops);
        assert!(r.max_streak <= 64);
    }

    #[test]
    fn rw_read_only_run_never_writes() {
        let r = rw_mix(RwLockKind::CRwNeutralBoMcs, 100, &quick_cfg(4));
        assert!(r.read_ops > 0);
        assert_eq!(r.write_ops, 0);
        assert_eq!(r.tenures, 0, "no writer ever entered");
        assert_eq!(r.acquisitions, 0, "shared reads skip the handoff channel");
    }

    #[test]
    fn rw_exclusive_baseline_charges_reads_through_handoff() {
        let r = rw_mix(RwLockKind::MutexCBoMcs, 100, &quick_cfg(2));
        assert!(r.read_ops > 0);
        assert_eq!(
            r.acquisitions, r.read_ops,
            "exclusive 'reads' serialize like writes"
        );
    }

    #[test]
    fn rw_policy_is_honored_for_writer_tenures() {
        let mut cfg = quick_cfg(4);
        cfg.policy = Some(cohort::PolicySpec::Count { bound: 2 });
        // Write-heavy so streaks actually form.
        let r = rw_mix(RwLockKind::CRwWpTktMcs, 20, &cfg);
        assert_eq!(r.policy.as_deref(), Some("count(2)"));
        assert!(r.max_streak <= 2, "bound 2 violated: {}", r.max_streak);
    }

    #[test]
    fn crw_outruns_exclusive_baseline_when_read_heavy() {
        // The acceptance shape of the fig_rw exhibit, in miniature: at a
        // 90%+ read ratio the shared read path must at least match the
        // single-writer cohort baseline.
        let cfg = quick_cfg(4);
        let crw = rw_mix(RwLockKind::CRwWpBoMcs, 90, &cfg);
        let excl = rw_mix(RwLockKind::MutexCBoMcs, 90, &cfg);
        assert!(
            crw.throughput >= excl.throughput,
            "C-RW {:.0} ops/s should not trail the exclusive baseline {:.0}",
            crw.throughput,
            excl.throughput
        );
    }

    #[test]
    fn blocked_placement_assigns_contiguously() {
        let cfg = LBenchConfig {
            threads: 8,
            clusters: 4,
            placement: Placement::Blocked,
            ..Default::default()
        };
        assert_eq!(cluster_for(0, &cfg).as_usize(), 0);
        assert_eq!(cluster_for(1, &cfg).as_usize(), 0);
        assert_eq!(cluster_for(2, &cfg).as_usize(), 1);
        assert_eq!(cluster_for(7, &cfg).as_usize(), 3);
    }
}
