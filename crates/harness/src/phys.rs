//! Physical (measured) topology support for the scenario runners.
//!
//! The fallback ladder is `virtual → measured → pinned`:
//!
//! * `LBENCH_TOPOLOGY=virtual` (the default) keeps the historical
//!   behaviour — round-robin virtual clusters, no OS affinity.
//! * `LBENCH_TOPOLOGY=measured` asks the harness to discover the real
//!   cluster structure once per process (core-to-core latency probe +
//!   matrix clustering, see `numa_topology::probe`/`measured`) and to run
//!   every subsequent scenario on the measured map with workers **pinned**
//!   to CPUs from their cluster's list.
//! * When probing is impossible — fewer than two CPUs, a cpuset that
//!   rejects pinning, or `LBENCH_PROBE_SKIP=1` — the run silently degrades
//!   to virtual clusters, with **one warning line per run** naming the
//!   reason. CI containers therefore keep working unchanged.
//!
//! Individual pin failures inside a run (possible when the cpuset shrinks
//! between probe and run) degrade the same way: the thread keeps its
//! *virtual* cluster binding, the failure is counted, and one warning per
//! run reports the count and the first typed [`AffinityError`].

use crate::env::{env_bool, env_choice, EnvKnobError};
use crate::runner::LBenchConfig;
use numa_topology::{affinity, AffinityError, ClusterId, MeasuredTopology, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which topology backend a run uses (the `LBENCH_TOPOLOGY` knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TopologyMode {
    /// Round-robin virtual clusters (the historical default).
    #[default]
    Virtual,
    /// Probe the machine, cluster the latency matrix, pin workers.
    Measured,
}

impl TopologyMode {
    /// Parses `LBENCH_TOPOLOGY` (`virtual` | `measured`, default
    /// `virtual`) through the strict knob path.
    pub fn from_env() -> Result<Self, EnvKnobError> {
        Ok(
            match env_choice("LBENCH_TOPOLOGY", &["virtual", "measured"])? {
                Some("measured") => TopologyMode::Measured,
                _ => TopologyMode::Virtual,
            },
        )
    }
}

/// The process-wide probe result: measured topology or the reason it is
/// unavailable. Probing is O(pairs) thread spawns, so it runs at most
/// once per process regardless of how many cells a sweep has.
static MEASURED: OnceLock<Result<Arc<MeasuredTopology>, String>> = OnceLock::new();

/// Returns the measured topology of this machine, probing on first call,
/// or the reason measurement is unavailable (probe skipped, too few
/// CPUs, pinning rejected).
///
/// # Panics
///
/// Panics on a malformed `LBENCH_PROBE_SKIP` value — misspelt knobs must
/// abort loudly, not silently flip the fallback.
pub fn measured_topology() -> Result<Arc<MeasuredTopology>, String> {
    MEASURED
        .get_or_init(|| {
            let skip = env_bool("LBENCH_PROBE_SKIP").unwrap_or_else(|e| panic!("{e}"));
            if skip {
                return Err("probe skipped (LBENCH_PROBE_SKIP)".to_string());
            }
            let cpus = numa_topology::probe::online_cpus();
            if cpus.len() < 2 {
                return Err(format!("only {} online CPU(s)", cpus.len()));
            }
            match numa_topology::probe::probe_machine(&numa_topology::ProbeConfig::default()) {
                Ok(matrix) => Ok(Arc::new(MeasuredTopology::from_matrix(matrix))),
                Err(e) => Err(e.to_string()),
            }
        })
        .clone()
}

/// Resolves the topology a run executes on, returning the topology and
/// the **effective** cluster count (the measured map may have more or
/// fewer clusters than `cfg.clusters`; callers must use the returned
/// count for thread→cluster placement).
///
/// On measured-mode fallback, logs one warning line per call — i.e. one
/// per run — naming the reason.
pub(crate) fn resolve_topology(cfg: &LBenchConfig) -> (Arc<Topology>, usize) {
    match cfg.topology {
        TopologyMode::Virtual => (Arc::new(Topology::new(cfg.clusters)), cfg.clusters),
        TopologyMode::Measured => match measured_topology() {
            Ok(m) => {
                let map = m.cluster_cpus().to_vec();
                let n = map.len();
                (Arc::new(Topology::pinned(map)), n)
            }
            Err(reason) => {
                eprintln!(
                    "lbench: warning: measured topology unavailable ({reason}); \
                     falling back to {} virtual clusters",
                    cfg.clusters
                );
                (Arc::new(Topology::new(cfg.clusters)), cfg.clusters)
            }
        },
    }
}

/// Per-run collector of worker pin failures; reported as one warning
/// after the run's threads joined.
#[derive(Default)]
pub(crate) struct PinReport {
    failed: AtomicUsize,
    first: Mutex<Option<AffinityError>>,
}

impl PinReport {
    /// Physically binds the calling worker to a CPU of its cluster when
    /// `topo` carries a pinned map (no-op otherwise). `rank` is the
    /// worker's index *within its cluster*, used to spread a cluster's
    /// threads over the cluster's CPUs round-robin.
    pub(crate) fn pin_worker(&self, topo: &Topology, cluster: ClusterId, rank: usize) {
        if topo.source() != numa_topology::TopologySource::Pinned {
            return;
        }
        let Some(cpus) = topo.cpus_for(cluster) else {
            return;
        };
        let target = cpus[rank % cpus.len()];
        if let Err(e) = affinity::pin_to_cpus(&[target]) {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut first = self.first.lock().unwrap();
            first.get_or_insert(e);
        }
    }

    /// Emits the run's single fallback warning, if any worker failed to
    /// pin.
    pub(crate) fn log(&self) {
        let failed = self.failed.load(Ordering::Relaxed);
        if failed > 0 {
            let first = self.first.lock().unwrap();
            eprintln!(
                "lbench: warning: {failed} worker(s) could not pin to their measured \
                 cluster's CPUs ({}); those threads ran on virtual placement",
                first
                    .as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "unknown error".to_string())
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_mode_defaults_to_virtual() {
        // The knob is unset in the test environment.
        assert_eq!(TopologyMode::from_env().unwrap(), TopologyMode::Virtual);
        assert_eq!(TopologyMode::default(), TopologyMode::Virtual);
    }

    #[test]
    fn virtual_resolution_preserves_the_configured_clusters() {
        let cfg = LBenchConfig {
            clusters: 6,
            ..Default::default()
        };
        let (topo, n) = resolve_topology(&cfg);
        assert_eq!(n, 6);
        assert_eq!(topo.clusters(), 6);
        assert_eq!(topo.source(), numa_topology::TopologySource::Virtual);
    }

    #[test]
    fn pin_report_ignores_virtual_topologies() {
        let report = PinReport::default();
        let topo = Topology::new(2);
        report.pin_worker(&topo, ClusterId::new(0), 0);
        assert_eq!(report.failed.load(Ordering::Relaxed), 0);
        report.log(); // must not print or panic
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_report_counts_failures_once_per_worker() {
        let report = PinReport::default();
        // CPU 5000 cannot be expressed in the affinity mask.
        let topo = Topology::pinned(vec![vec![5000]]);
        report.pin_worker(&topo, ClusterId::new(0), 0);
        report.pin_worker(&topo, ClusterId::new(0), 1);
        assert_eq!(report.failed.load(Ordering::Relaxed), 2);
        assert_eq!(
            *report.first.lock().unwrap(),
            Some(AffinityError::CpuOutOfRange { cpu: 5000 })
        );
    }
}
