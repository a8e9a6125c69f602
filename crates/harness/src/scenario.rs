//! The scenario engine: ONE measurement loop behind every exhibit.
//!
//! The paper's evaluation (§4) is a fixed grid of steady-state workloads;
//! this repository's exhibits kept growing past it (read/write mixes,
//! abortable acquisition, policy sweeps, keyed service workloads). A
//! [`Scenario`] *describes* the per-thread op mix (exclusive /
//! shared-read / abortable-with-patience), its [`LoadShape`] over time
//! (steady, bursty on/off, phased read-ratio schedule, thread-asymmetric
//! idling), and optionally a keyed service to drive; [`run_scenario`] is
//! the single driver that executes any of them over any [`AnyLockKind`].
//!
//! Every realtime scenario runs through one real-thread worker loop. An
//! unkeyed scenario is a one-lock keyed service — the paper's LBench
//! critical section over the kind's lock, one coherence directory, and
//! one handoff channel — with keyspace 0 and seed base `0x5EED`, so no
//! key is drawn and each thread's RNG stream is the historical one.
//! Modelled scenarios run on a discrete-event simulation instead (see
//! `modelled.rs` and `keyed.rs`). Every substrate turns its counters
//! into a [`ScenarioResult`] through one constructor.
//!
//! Time accounting: virtual clocks plus the coherence cost model, with
//! every modelled delay also waited out in wall time on oversubscribed
//! hosts (see [`LBenchConfig`] and DESIGN.md §2). The engine samples
//! **acquisition latency** in modelled nanoseconds: for the LBench
//! section, the virtual time from starting an exclusive acquisition to
//! clearing the handoff channel's queue-wait catch-up; for keyed
//! services, the whole op. Reported as p50/p99 per run. Shared read
//! acquisitions serialize on nothing and are not sampled.

use crate::bench_rwlock::BenchRwLock;
use crate::keyed::{KeyedCtx, KeyedOp, KeyedService, OpOutcome};
use crate::pace::{kappa_for, spin_wall};
use crate::registry::AnyLockKind;
use crate::runner::{LBenchConfig, Placement};
use coherence_sim::{take_thread_stats, CostModel, Directory, HandoffChannel};
use cohort::CohortStats;
use numa_topology::{bind_current_thread, vclock, ClusterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How a scenario's *costs* are accounted: against real threads racing
/// in real time (with virtual-clock charging), or against the
/// deterministic coherence simulator.
///
/// `RealTime` is the engine's historical behaviour, untouched: real
/// threads run the real lock algorithms and the cost model only *prices*
/// their decisions, so multi-thread results are statistically stable but
/// never bit-reproducible (the stop flag races real scheduling).
///
/// `Modelled` replaces the execution substrate: the run becomes a
/// single-threaded discrete-event simulation in which every lock
/// acquisition, release, and critical-section data access is charged
/// through [`coherence_sim::Directory`] + [`coherence_sim::HandoffChannel`]
/// against per-thread virtual clocks, the admission order is derived
/// from the lock kind's *mechanism* (FIFO for queue locks,
/// policy-bounded cluster batching for the cohort family), and nothing
/// reads the wall clock — so two runs of the same cell produce
/// **bit-identical** [`ScenarioResult`]s. See `docs/ARCHITECTURE.md`,
/// "Modelled coherence mode", for the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostMode {
    /// Real threads, real lock algorithms, modelled prices (default).
    RealTime,
    /// Deterministic discrete-event simulation under the given latency
    /// model (e.g. [`CostModel::disaggregated`]).
    Modelled(CostModel),
}

/// One segment of a phased read-ratio schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Segment length in virtual nanoseconds.
    pub dur_ns: u64,
    /// Read percentage (0–100) in force during the segment.
    pub read_pct: u32,
}

/// How the offered load varies over (virtual) time.
///
/// Shapes are evaluated against each thread's virtual clock; clocks are
/// loosely synchronized through the handoff channel's causality catch-up,
/// so on/off windows and phase boundaries line up across threads to
/// within a queue-wait.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadShape {
    /// The paper's shape: every thread offers load for the whole window.
    Steady,
    /// Bursty arrival: `on_ns` of load, then `off_ns` of silence,
    /// repeating. During an off-window threads idle (clock advances to
    /// the next on-window) instead of contending.
    Bursty {
        /// Length of each load burst, virtual nanoseconds.
        on_ns: u64,
        /// Length of each silent gap, virtual nanoseconds.
        off_ns: u64,
    },
    /// A repeating read-ratio schedule: the scenario's base `read_pct`
    /// is overridden by the phase the thread's clock currently falls in.
    Phased {
        /// The schedule, cycled for the whole run.
        phases: Vec<Phase>,
    },
}

impl LoadShape {
    /// Virtual nanoseconds from `now` to the next on-window, or `None`
    /// when load is admitted at `now`.
    pub(crate) fn off_gap(&self, now: u64) -> Option<u64> {
        match *self {
            LoadShape::Bursty { on_ns, off_ns } if off_ns > 0 => {
                let period = on_ns + off_ns;
                let pos = now % period;
                if pos >= on_ns {
                    Some(period - pos)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The read percentage in force at virtual time `now` (`base` unless
    /// a phase schedule overrides it).
    pub(crate) fn read_pct_at(&self, now: u64, base: u32) -> u32 {
        match self {
            LoadShape::Phased { phases } if !phases.is_empty() => {
                let total: u64 = phases.iter().map(|p| p.dur_ns).sum();
                if total == 0 {
                    return base;
                }
                let mut pos = now % total;
                for p in phases {
                    if pos < p.dur_ns {
                        return p.read_pct;
                    }
                    pos -= p.dur_ns;
                }
                base
            }
            _ => base,
        }
    }

    /// Short label for CSV rows (`steady` / `bursty` / `phased`).
    pub fn label(&self) -> &'static str {
        match self {
            LoadShape::Steady => "steady",
            LoadShape::Bursty { .. } => "bursty",
            LoadShape::Phased { .. } => "phased",
        }
    }
}

/// What each thread *does* per iteration: the op mix and its shape over
/// time. Consumed by [`run_scenario`]; grid-level knobs (thread count,
/// clusters, window, cost model) stay in [`LBenchConfig`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Base percentage of operations taking the shared-read side (0–100;
    /// a [`LoadShape::Phased`] schedule overrides it per phase). Against
    /// an exclusive kind, "reads" still serialize — the engine detects
    /// that via [`BenchRwLock::read_is_exclusive`] and charges them
    /// through the handoff channel.
    pub read_pct: u32,
    /// `Some(patience)` makes **write** acquisitions abortable with the
    /// given virtual-nanosecond patience (Figure 6's mode). Locks without
    /// abort support simply block.
    pub patience_ns: Option<u64>,
    /// Load shape over time.
    pub shape: LoadShape,
    /// Thread-asymmetry knob: thread `i`'s non-critical idle bound is
    /// scaled by `1 + asymmetry · i/(threads-1)`. `0.0` (the default) is
    /// the paper's symmetric load; large values thin the offered load
    /// down to a few hot threads — the light-contention regime where
    /// simple locks (TATAS) historically beat NUMA-aware ones.
    pub asymmetry: f64,
    /// Whether costs are accounted in real time (default) or through the
    /// deterministic coherence simulator (see [`CostMode`]).
    pub cost_mode: CostMode,
    /// The keyed-op dimension: `Some` turns the run into a *service*
    /// scenario — clients draw keys from a [`KeyDist`](crate::KeyDist)
    /// and the ops execute against the service a
    /// [`KeyedServiceFactory`](crate::KeyedServiceFactory) builds (an
    /// N-shard KV store, an allocator arena) instead of the engine's
    /// synthetic critical section. See the `keyed` module docs.
    pub keyed: Option<crate::keyed::KeyedSpec>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            read_pct: 0,
            patience_ns: None,
            shape: LoadShape::Steady,
            asymmetry: 0.0,
            cost_mode: CostMode::RealTime,
            keyed: None,
        }
    }
}

impl Scenario {
    /// The paper's scenario: steady, symmetric, exclusive-only.
    pub fn steady() -> Self {
        Scenario::default()
    }

    /// Steady scenario with a bursty on/off arrival shape (panics on an
    /// empty on-window, which would admit no load at all).
    pub fn bursty(on_ns: u64, off_ns: u64) -> Self {
        Scenario {
            shape: LoadShape::Bursty { on_ns, off_ns },
            ..Scenario::default()
        }
        .validated()
    }

    /// Scenario cycling through a phased read-ratio schedule (panics if
    /// any phase's read percentage exceeds 100).
    pub fn phased(phases: Vec<Phase>) -> Self {
        Scenario {
            shape: LoadShape::Phased { phases },
            ..Scenario::default()
        }
        .validated()
    }

    /// Sets the base read percentage (panics if over 100).
    pub fn with_read_pct(mut self, read_pct: u32) -> Self {
        self.read_pct = read_pct;
        self.validated()
    }

    /// Makes write acquisitions abortable with `patience_ns` of patience.
    pub fn with_patience(mut self, patience_ns: u64) -> Self {
        self.patience_ns = Some(patience_ns);
        self
    }

    /// Sets the thread-asymmetry knob (see [`Scenario::asymmetry`]).
    pub fn with_asymmetry(mut self, asymmetry: f64) -> Self {
        assert!(asymmetry >= 0.0, "asymmetry scales idle time up");
        self.asymmetry = asymmetry;
        self
    }

    /// Sets the cost mode (see [`CostMode`]).
    pub fn with_cost_mode(mut self, mode: CostMode) -> Self {
        self.cost_mode = mode;
        self
    }

    /// Shorthand: switches the scenario to deterministic modelled
    /// accounting under `model`.
    pub fn modelled(self, model: CostModel) -> Self {
        self.with_cost_mode(CostMode::Modelled(model))
    }

    /// Attaches the keyed-op dimension (see [`Scenario::keyed`]).
    pub fn with_keyed(mut self, keyed: crate::keyed::KeyedSpec) -> Self {
        self.keyed = Some(keyed);
        self
    }

    /// Panics on a scenario that cannot mean what it says: an over-100
    /// read percentage (base or phase) would silently become all-reads,
    /// an empty bursty on-window a zero-op run. The constructors check
    /// what they build, and [`run_scenario`] checks every scenario —
    /// keyed ones and hand-built literals included.
    fn validate(&self) {
        assert!(self.read_pct <= 100, "read_pct is a percentage");
        match &self.shape {
            LoadShape::Phased { phases } => assert!(
                phases.iter().all(|p| p.read_pct <= 100),
                "phase read_pct is a percentage"
            ),
            LoadShape::Bursty { on_ns, .. } => {
                assert!(*on_ns > 0, "bursty scenarios need a non-empty on-window")
            }
            LoadShape::Steady => {}
        }
    }

    fn validated(self) -> Self {
        self.validate();
        self
    }

    /// Whether any part of the scenario can produce a read op.
    fn uses_reads(&self) -> bool {
        self.read_pct > 0
            || matches!(&self.shape, LoadShape::Phased { phases }
                if phases.iter().any(|p| p.read_pct > 0))
    }

    /// Whether the worker draws the per-op read/write coin. RW kinds
    /// always draw (the legacy RW driver did, even at `read_pct = 0` —
    /// parity demands the identical RNG sequence); exclusive kinds draw
    /// only when the scenario can actually produce reads, preserving the
    /// legacy exclusive driver's RNG sequence.
    pub(crate) fn draws_coin(&self, kind: AnyLockKind) -> bool {
        matches!(kind, AnyLockKind::Rw(_)) || self.uses_reads()
    }

    /// Thread `i`'s non-critical idle bound under the asymmetry knob.
    pub(crate) fn noncs_max_for(&self, i: usize, threads: usize, base_ns: u64) -> u64 {
        if self.asymmetry == 0.0 || threads <= 1 {
            return base_ns;
        }
        let frac = i as f64 / (threads - 1) as f64;
        (base_ns as f64 * (1.0 + self.asymmetry * frac)) as u64
    }
}

/// Everything one scenario run measures: exclusive and read/write op
/// counts, handoff and tenure statistics, and modelled
/// acquisition-latency percentiles.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Lock under test.
    pub kind: AnyLockKind,
    /// Thread count of the run.
    pub threads: usize,
    /// Base read percentage the scenario was configured with.
    pub read_pct: u32,
    /// Critical sections completed, per thread (fairness data).
    pub per_thread_ops: Vec<u64>,
    /// Read-side critical sections completed.
    pub read_ops: u64,
    /// Write-side critical sections completed.
    pub write_ops: u64,
    /// All critical sections completed.
    pub total_ops: u64,
    /// Critical+non-critical pairs per second of modelled time.
    pub throughput: f64,
    /// Exclusive acquisitions observed by the handoff channel (writes,
    /// plus reads when the lock's read side is exclusive).
    pub acquisitions: u64,
    /// Cross-cluster migrations of the exclusive lock.
    pub migrations: u64,
    /// Raw coherence-miss count over the whole run (cross-cluster data
    /// transfers charged by the directory, summed over threads) — the
    /// numerator the modelled-mode self-checks assert exactly;
    /// [`misses_per_cs`](Self::misses_per_cs) is the derived ratio.
    pub remote_misses: u64,
    /// Coherence misses per critical section — data lines plus the lock
    /// handoff itself.
    pub misses_per_cs: f64,
    /// Mean same-cluster batch length (§4.1.2's dynamic batching).
    pub mean_batch: f64,
    /// Timed-out acquisitions (abortable scenarios).
    pub aborts: u64,
    /// aborts / attempts (the paper keeps this below 1%).
    pub abort_rate: f64,
    /// Standard deviation of per-thread throughput as % of mean.
    pub stddev_pct: f64,
    /// Handoff-policy label of the run (`None` for non-policy locks).
    pub policy: Option<String>,
    /// Cohort tenures — 0 for non-cohort locks.
    pub tenures: u64,
    /// Intra-cluster handoffs — 0 for non-cohort locks.
    pub local_handoffs: u64,
    /// Mean local-handoff streak per tenure.
    pub mean_streak: f64,
    /// Longest local-handoff streak of any tenure.
    pub max_streak: u64,
    /// Cross-cluster migrations per cohort tenure (0 when no tenures).
    pub migrations_per_tenure: f64,
    /// Fast-path (top-word) acquisitions of a fissile lock — 0 for every
    /// other kind.
    pub fast_acquisitions: u64,
    /// Slow-path (cohort) acquisitions of a fissile lock — 0 for every
    /// other kind.
    pub slow_acquisitions: u64,
    /// Arrivals a GCR admission layer parked on a passive list — 0 for
    /// unwrapped kinds.
    pub passive_parks: u64,
    /// Parked threads a GCR rotation promoted into the active set — 0
    /// for unwrapped kinds.
    pub promotions: u64,
    /// Modelled **succession census**: coherence transitions the
    /// release-side admission decisions fanned out to, summed over
    /// serialized grants — `1 + waiting set` per grant for
    /// FIFO/centralized mechanisms, `1 + same-cluster waiters` for
    /// cluster-batched kinds, at most `2` for the reciprocating
    /// schedule. Booked only by the modelled runner (see the
    /// `modelled` module docs); 0 in real-time, keyed, and external
    /// results.
    pub succ_transitions: u64,
    /// Power-of-two histogram of same-cluster batch lengths.
    pub batch_hist: Vec<u64>,
    /// Median modelled acquisition latency (exclusive acquisitions, ns).
    pub lat_p50_ns: u64,
    /// 99th-percentile modelled acquisition latency (ns).
    pub lat_p99_ns: u64,
    /// Real time the run took (diagnostics only).
    pub wall: Duration,
}

impl ScenarioResult {
    /// Compares every **deterministic** field against `other`, returning
    /// the first diverging field as `"name: self vs other"` (floats are
    /// compared bit-for-bit). `wall` is real time and therefore excluded
    /// — it is the one field the modelled-mode determinism contract does
    /// not cover. `None` means the two results are bit-identical twins.
    pub fn first_divergence(&self, other: &ScenarioResult) -> Option<String> {
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    return Some(format!(
                        "{}: {:?} vs {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        macro_rules! cmp_f64 {
            ($field:ident) => {
                if self.$field.to_bits() != other.$field.to_bits() {
                    return Some(format!(
                        "{}: {:?} vs {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        cmp!(kind);
        cmp!(threads);
        cmp!(read_pct);
        cmp!(per_thread_ops);
        cmp!(read_ops);
        cmp!(write_ops);
        cmp!(total_ops);
        cmp_f64!(throughput);
        cmp!(acquisitions);
        cmp!(migrations);
        cmp!(remote_misses);
        cmp_f64!(misses_per_cs);
        cmp_f64!(mean_batch);
        cmp!(aborts);
        cmp_f64!(abort_rate);
        cmp_f64!(stddev_pct);
        cmp!(policy);
        cmp!(tenures);
        cmp!(local_handoffs);
        cmp_f64!(mean_streak);
        cmp!(max_streak);
        cmp_f64!(migrations_per_tenure);
        cmp!(fast_acquisitions);
        cmp!(slow_acquisitions);
        cmp!(passive_parks);
        cmp!(promotions);
        cmp!(succ_transitions);
        cmp!(batch_hist);
        cmp!(lat_p50_ns);
        cmp!(lat_p99_ns);
        None
    }

    /// Lower bound of the **median batch length** implied by the
    /// power-of-two [`batch_hist`](Self::batch_hist): `2^i` of the bucket
    /// the median closed batch falls in (0 when no batch ever closed).
    /// The modelled-mode self-checks assert this against the handoff
    /// policy's bound — an *exact* statement, since modelled batch
    /// lengths are deterministic.
    pub fn batch_p50_floor(&self) -> u64 {
        let total: u64 = self.batch_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for (i, &c) in self.batch_hist.iter().enumerate() {
            seen += c;
            if 2 * seen >= total {
                return 1 << i;
            }
        }
        0
    }

    /// A result shell for exhibits whose measurements come from an
    /// external workload driver (kvstore, allocator): only identity,
    /// throughput, and wall time are meaningful; every modelled counter
    /// is zero.
    pub fn external(kind: AnyLockKind, threads: usize, throughput: f64, wall: Duration) -> Self {
        let cfg = LBenchConfig {
            threads,
            ..LBenchConfig::default()
        };
        ScenarioResult {
            throughput,
            ..ScenarioResult::assemble(kind, &Scenario::default(), &cfg, Tally::default(), wall)
        }
    }
}

/// Thread → cluster assignment under `cfg.placement`.
pub(crate) fn cluster_for(i: usize, cfg: &LBenchConfig) -> ClusterId {
    match cfg.placement {
        Placement::RoundRobin => ClusterId::new((i % cfg.clusters) as u32),
        Placement::Blocked => {
            let per = cfg.threads.div_ceil(cfg.clusters).max(1);
            ClusterId::new(((i / per).min(cfg.clusters - 1)) as u32)
        }
    }
}

/// Per-thread cap on retained latency samples. Long measurement windows
/// used to grow the sample `Vec` without bound mid-measurement: every
/// doubling realloc is a pause charged to whatever acquisition happens
/// to be in flight (polluting exactly the p99 the samples exist to
/// measure), and a pathological window could OOM. Beyond the cap the
/// sampler *decimates*: it drops every other retained sample and doubles
/// its sampling stride, so memory stays bounded at
/// `LAT_RESERVOIR × 8 B` per thread while the retained set remains a
/// uniform (every `stride`-th acquisition) subsample — nearest-rank
/// percentiles over a uniform subsample are unbiased.
const LAT_RESERVOIR: usize = 32 * 1024;

/// Reservoir-capped latency sampler (see [`LAT_RESERVOIR`]): records
/// every `stride`-th sample, decimating once full. The `Vec` is
/// pre-sized from the scenario's op budget so steady-state measurement
/// never reallocates.
pub(crate) struct LatReservoir {
    samples: Vec<u64>,
    stride: u64,
    ticks: u64,
}

impl LatReservoir {
    /// Sizes the reservoir for a run of `cfg.window_ns` virtual
    /// nanoseconds: the op budget is bounded below by the modelled
    /// per-op floor (critical-section compute + mean non-critical idle),
    /// so reserving `min(budget, cap)` up front removes measurement-time
    /// allocation entirely for every realistic window.
    pub(crate) fn for_config(cfg: &LBenchConfig) -> Self {
        let per_op_floor_ns = (cfg.cs_extra_ns + cfg.noncs_max_ns / 2).max(1);
        let budget = (cfg.window_ns / per_op_floor_ns) as usize;
        LatReservoir {
            samples: Vec::with_capacity(budget.clamp(1, LAT_RESERVOIR)),
            stride: 1,
            ticks: 0,
        }
    }

    /// Offers one sample; retained iff the tick lands on the stride.
    #[inline]
    pub(crate) fn record(&mut self, sample: u64) {
        if self.ticks.is_multiple_of(self.stride) {
            if self.samples.len() >= LAT_RESERVOIR {
                // Decimate: keep every other retained sample (indices
                // 0, 2, 4, …) and double the stride — the retained set
                // stays a uniform subsample of the acquisition stream.
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            if self.ticks.is_multiple_of(self.stride) {
                self.samples.push(sample);
            }
        }
        self.ticks += 1;
    }

    /// The retained samples plus the stride they were taken at (needed
    /// to merge reservoirs from threads that decimated unequally).
    pub(crate) fn into_parts(self) -> (Vec<u64>, u64) {
        (self.samples, self.stride)
    }
}

/// Merges per-thread reservoirs into one sample set at a **common
/// stride**. Threads decimate independently, so a hot thread may retain
/// every 4th acquisition while an idle-bound one kept them all; pooling
/// those unweighted would over-weight the un-decimated threads'
/// distribution in the run percentiles. Aligning every thread to the
/// maximum stride first (strides are powers of two, so each set is
/// re-decimated by an integer step) keeps the pool a uniform subsample
/// of the whole run's acquisition stream.
pub(crate) fn merge_lat_reservoirs(parts: Vec<(Vec<u64>, u64)>) -> Vec<u64> {
    let max_stride = parts.iter().map(|(_, s)| *s).max().unwrap_or(1);
    let mut merged = Vec::new();
    for (samples, stride) in parts {
        let step = (max_stride / stride.max(1)).max(1) as usize;
        merged.extend(samples.into_iter().step_by(step));
    }
    merged
}

/// Nearest-rank percentile of an ascending-sorted sample set (0 for an
/// empty set).
pub(crate) fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// What one run counted, whichever substrate produced it — the input of
/// [`ScenarioResult::assemble`], the one place a result is built.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) per_thread_ops: Vec<u64>,
    pub(crate) read_ops: u64,
    pub(crate) write_ops: u64,
    pub(crate) aborts: u64,
    /// Cross-cluster data transfers charged by the directory.
    pub(crate) remote_misses: u64,
    /// Acquisition-latency samples, in any order.
    pub(crate) lat: Vec<u64>,
    pub(crate) acquisitions: u64,
    pub(crate) migrations: u64,
    pub(crate) batch_hist: Vec<u64>,
    /// Tenure (and fast-path/GCR) counters; `None` for locks without a
    /// tenure notion.
    pub(crate) cohort: Option<CohortStats>,
    pub(crate) policy: Option<String>,
    pub(crate) succ_transitions: u64,
}

impl Tally {
    /// A tally carrying `service`'s lock-side counters.
    pub(crate) fn of_service(service: &dyn KeyedService) -> Self {
        Tally {
            acquisitions: service.acquisitions(),
            migrations: service.migrations(),
            batch_hist: service.batch_hist(),
            cohort: service.cohort_stats(),
            policy: service.policy_label(),
            ..Tally::default()
        }
    }

    /// Books one thread's op counts.
    pub(crate) fn add_thread(&mut self, reads: u64, writes: u64, aborts: u64) {
        self.per_thread_ops.push(reads + writes);
        self.read_ops += reads;
        self.write_ops += writes;
        self.aborts += aborts;
    }
}

impl ScenarioResult {
    /// Turns a run's counters into its result — the one constructor of
    /// [`ScenarioResult`], shared by the real-thread loop and both
    /// discrete-event simulations.
    pub(crate) fn assemble(
        kind: AnyLockKind,
        scenario: &Scenario,
        cfg: &LBenchConfig,
        mut t: Tally,
        wall: Duration,
    ) -> Self {
        t.lat.sort_unstable();
        let total_ops = t.read_ops + t.write_ops;
        let (acquisitions, migrations) = (t.acquisitions, t.migrations);
        let (_, stddev_pct) = crate::stats::mean_stddev_pct(&t.per_thread_ops);
        let cs = t.cohort.unwrap_or_default();
        let tenures = cs.tenures();
        ScenarioResult {
            kind,
            threads: cfg.threads,
            read_pct: scenario.read_pct,
            read_ops: t.read_ops,
            write_ops: t.write_ops,
            total_ops,
            throughput: total_ops as f64 / (cfg.window_ns as f64 / 1e9),
            acquisitions,
            migrations,
            remote_misses: t.remote_misses,
            // Data-line misses plus the lock-word transfer on each
            // migration.
            misses_per_cs: if acquisitions > 0 {
                (t.remote_misses + migrations) as f64 / acquisitions as f64
            } else {
                0.0
            },
            mean_batch: if migrations > 0 {
                acquisitions as f64 / migrations as f64
            } else {
                acquisitions as f64
            },
            aborts: t.aborts,
            abort_rate: if total_ops + t.aborts > 0 {
                t.aborts as f64 / (total_ops + t.aborts) as f64
            } else {
                0.0
            },
            stddev_pct,
            policy: t.policy,
            tenures,
            local_handoffs: cs.local_handoffs(),
            mean_streak: cs.mean_streak(),
            max_streak: cs.max_streak(),
            migrations_per_tenure: if tenures > 0 {
                migrations as f64 / tenures as f64
            } else {
                0.0
            },
            fast_acquisitions: cs.fast_acquisitions,
            slow_acquisitions: cs.slow_acquisitions,
            passive_parks: cs.passive_parks,
            promotions: cs.promotions,
            succ_transitions: t.succ_transitions,
            batch_hist: t.batch_hist,
            lat_p50_ns: percentile(&t.lat, 50.0),
            lat_p99_ns: percentile(&t.lat, 99.0),
            per_thread_ops: t.per_thread_ops,
            wall,
        }
    }
}

/// Runs `scenario` for `kind` under `cfg` — the single sweep engine.
/// Keyed scenarios build their service through the scenario's factory
/// (which owns lock construction, one lock per shard); every other
/// scenario runs against `kind`'s registry lock.
pub fn run_scenario(kind: AnyLockKind, scenario: &Scenario, cfg: &LBenchConfig) -> ScenarioResult {
    // Measured mode may replace the virtual geometry with the probed
    // cluster map (one warning per run on fallback); the effective
    // cluster count then drives thread placement.
    let (topo, clusters) = crate::phys::resolve_topology(cfg);
    let cfg = LBenchConfig {
        clusters,
        ..cfg.clone()
    };
    run(kind, None, topo, scenario, &cfg)
}

/// Runs `scenario` against an already-constructed lock (used by
/// ablations that build locks with bespoke compositions).
pub fn run_scenario_on(
    kind: AnyLockKind,
    lock: Arc<dyn BenchRwLock>,
    topo: Arc<Topology>,
    scenario: &Scenario,
    cfg: &LBenchConfig,
) -> ScenarioResult {
    assert!(
        scenario.keyed.is_none(),
        "keyed scenarios go through run_scenario (the factory owns lock construction)"
    );
    run(kind, Some(lock), topo, scenario, cfg)
}

/// The one dispatch behind both entry points: validates the scenario,
/// then picks the substrate — the real-thread loop for every realtime
/// scenario, or one of the two discrete-event simulations (see
/// `modelled.rs` and `keyed.rs`) for modelled ones. `lock` is `None`
/// when the registry (or a keyed factory) builds the locks.
fn run(
    kind: AnyLockKind,
    lock: Option<Arc<dyn BenchRwLock>>,
    topo: Arc<Topology>,
    scenario: &Scenario,
    cfg: &LBenchConfig,
) -> ScenarioResult {
    assert!(cfg.threads >= 1);
    scenario.validate();
    let service: Arc<dyn KeyedService> = match &scenario.keyed {
        Some(spec) => {
            let service = spec.factory.build(kind, &topo, scenario, cfg);
            if let CostMode::Modelled(_) = scenario.cost_mode {
                return crate::keyed::run_keyed_modelled(kind, spec, scenario, cfg, &*service);
            }
            service
        }
        None => {
            let lock = lock.unwrap_or_else(|| kind.make(&topo, cfg.policy));
            if let CostMode::Modelled(model) = scenario.cost_mode {
                return crate::modelled::run_modelled(kind, &*lock, scenario, cfg, model);
            }
            Arc::new(LBenchSection::new(lock, scenario, cfg))
        }
    };
    run_threads(kind, &*service, &topo, scenario, cfg)
}

/// Per-thread RNG seed base of unkeyed scenarios (thread `i` seeds
/// `UNKEYED_SEED ^ i`).
const UNKEYED_SEED: u64 = 0x5EED;

/// What the real-thread loop's workers share.
struct Workers<'a> {
    service: &'a dyn KeyedService,
    topo: &'a Topology,
    scenario: &'a Scenario,
    cfg: &'a LBenchConfig,
    stop: AtomicBool,
    barrier: Barrier,
    pin_report: crate::phys::PinReport,
    /// Wall-pacing multiplier (see the `pace` module).
    kappa: u64,
    /// Per-thread RNG seed base (thread `i` seeds `seed ^ i`).
    seed: u64,
    /// Out-of-lock work per counted op (keyed services only).
    parse_ns: u64,
    draws_coin: bool,
}

/// One worker's reads, writes, aborts, latency reservoir (samples and
/// stride), and remote coherence misses.
type WorkerCounts = (u64, u64, u64, (Vec<u64>, u64), u64);

impl Workers<'_> {
    /// The real-thread worker loop — the one every realtime scenario
    /// runs. Gates on the load shape, draws the op's key (keyed scenarios
    /// only) and read/write coin, hands the op to the service, and books
    /// the outcome; the service owns the lock program, pacing, and the
    /// window check.
    fn run(&self, i: usize, rank: usize) -> WorkerCounts {
        let (scenario, cfg, stop) = (self.scenario, self.cfg, &self.stop);
        let my_cluster = cluster_for(i, cfg);
        bind_current_thread(self.topo, my_cluster);
        self.pin_report.pin_worker(self.topo, my_cluster, rank);
        vclock::reset();
        take_thread_stats();
        let mut rng = StdRng::seed_from_u64(self.seed ^ i as u64);
        let (mut reads, mut writes, mut aborts) = (0u64, 0u64, 0u64);
        let mut lat = LatReservoir::for_config(cfg);
        let ctx = KeyedCtx {
            thread: i,
            cluster: my_cluster,
            kappa: self.kappa,
            window_ns: cfg.window_ns,
            stop,
        };
        self.barrier.wait();
        let wall_start = Instant::now();
        let mut check = 0u32;
        while !stop.load(Ordering::Relaxed) {
            if let Some(gap) = scenario.shape.off_gap(vclock::now()) {
                // Off-window: stay silent for the paced gap (capped: exact
                // pacing matters less while not interacting with the lock).
                vclock::advance(gap);
                spin_wall((gap * self.kappa).min(200_000), true);
                if vclock::now() >= cfg.window_ns {
                    stop.store(true, Ordering::Relaxed);
                }
            } else {
                // Legacy draw order: key first, then the coin.
                let key = scenario.keyed.as_ref().map_or(0, |s| s.draw_key(&mut rng));
                let cur_pct = scenario.shape.read_pct_at(vclock::now(), scenario.read_pct);
                let is_read = self.draws_coin && rng.gen_range(0u32..100) < cur_pct;
                let op = KeyedOp {
                    key,
                    is_read,
                    stamp: reads + writes,
                };
                match self.service.op(&op, &ctx, &mut rng) {
                    OpOutcome::Counted { lat_ns } => {
                        if let Some(l) = lat_ns {
                            lat.record(l);
                        }
                        if is_read {
                            reads += 1;
                        } else {
                            writes += 1;
                        }
                        // Out-of-lock request handling (the parallel
                        // fraction of keyed services).
                        vclock::advance(self.parse_ns);
                        spin_wall(self.parse_ns * self.kappa, true);
                    }
                    OpOutcome::Aborted => aborts += 1,
                    OpOutcome::Skipped => {}
                }
            }
            // Wall-clock safety net.
            check = check.wrapping_add(1);
            if check.is_multiple_of(256) && wall_start.elapsed() > cfg.max_wall {
                stop.store(true, Ordering::Relaxed);
            }
        }
        let remote_misses = take_thread_stats().remote_misses;
        (reads, writes, aborts, lat.into_parts(), remote_misses)
    }
}

/// Runs `cfg.threads` real workers over `service` and assembles their
/// counts.
fn run_threads(
    kind: AnyLockKind,
    service: &dyn KeyedService,
    topo: &Topology,
    scenario: &Scenario,
    cfg: &LBenchConfig,
) -> ScenarioResult {
    let started = Instant::now();
    let (seed, parse_ns) = scenario
        .keyed
        .as_ref()
        .map_or((UNKEYED_SEED, 0), |spec| (spec.seed, spec.parse_ns));
    let workers = Workers {
        service,
        topo,
        scenario,
        cfg,
        stop: AtomicBool::new(false),
        barrier: Barrier::new(cfg.threads),
        pin_report: crate::phys::PinReport::default(),
        kappa: kappa_for(cfg.threads),
        seed,
        parse_ns,
        draws_coin: scenario.draws_coin(kind),
    };
    // Worker index within its own cluster, for spreading a cluster's
    // threads over the cluster's physical CPUs (pinned topologies only).
    let mut cluster_ranks = vec![0usize; cfg.clusters];
    let counts: Vec<WorkerCounts> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|i| {
                let c = cluster_for(i, cfg).as_usize();
                let rank = cluster_ranks[c];
                cluster_ranks[c] += 1;
                let workers = &workers;
                s.spawn(move || workers.run(i, rank))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scenario worker panicked"))
            .collect()
    });
    workers.pin_report.log();
    // Lock-side counters are read once every worker has joined.
    let mut tally = Tally::of_service(service);
    let mut lat_parts = Vec::with_capacity(cfg.threads);
    for (r, w, ab, thread_lat, remote_misses) in counts {
        tally.add_thread(r, w, ab);
        tally.remote_misses += remote_misses;
        lat_parts.push(thread_lat);
    }
    tally.lat = merge_lat_reservoirs(lat_parts);
    ScenarioResult::assemble(kind, scenario, cfg, tally, started.elapsed())
}

/// The paper's LBench critical section (§4.1) as a one-lock
/// [`KeyedService`] — what every unkeyed realtime scenario runs:
/// optionally abortable acquire, handoff catch-up, directory lines,
/// `cs_extra_ns`, paced hold, window check, release, then the random
/// non-critical idle.
///
/// Its latency sample is the virtual time from starting an acquisition
/// to clearing the handoff channel's queue-wait catch-up. Shared read
/// acquisitions serialize on nothing: they skip the handoff channel and
/// record no sample.
struct LBenchSection {
    lock: Arc<dyn BenchRwLock>,
    dir: Directory,
    handoff: HandoffChannel,
    /// Whether read acquisitions serialize (an exclusive kind erased
    /// through [`MutexAsRw`](crate::MutexAsRw)).
    serial_reads: bool,
    patience_ns: Option<u64>,
    cs_lines: usize,
    cs_extra_ns: u64,
    /// Each thread's non-critical idle bound (the asymmetry knob).
    noncs_max: Vec<u64>,
}

impl LBenchSection {
    fn new(lock: Arc<dyn BenchRwLock>, scenario: &Scenario, cfg: &LBenchConfig) -> Self {
        LBenchSection {
            serial_reads: lock.read_is_exclusive(),
            lock,
            dir: Directory::new(cfg.cs_lines.max(1), cfg.cost),
            handoff: HandoffChannel::new(cfg.cost),
            patience_ns: scenario.patience_ns,
            cs_lines: cfg.cs_lines,
            cs_extra_ns: cfg.cs_extra_ns,
            noncs_max: (0..cfg.threads)
                .map(|i| scenario.noncs_max_for(i, cfg.threads, cfg.noncs_max_ns))
                .collect(),
        }
    }
}

impl KeyedService for LBenchSection {
    fn op(&self, op: &KeyedOp, ctx: &KeyedCtx<'_>, rng: &mut StdRng) -> OpOutcome {
        let stop_at_window = || {
            if vclock::now() >= ctx.window_ns {
                ctx.stop.store(true, Ordering::Relaxed);
            }
        };
        let lat_from = vclock::now();
        if op.is_read {
            self.lock.acquire_read();
        } else if let Some(p) = self.patience_ns {
            // Patience is virtual; scale it into the paced wall-time
            // frame waiters live in.
            if !self.lock.acquire_write_with_patience(p * ctx.kappa) {
                // The wait consumed the patience.
                vclock::advance(p);
                stop_at_window();
                return OpOutcome::Aborted;
            }
        } else {
            self.lock.acquire_write();
        }

        // Serialization is modelled through the handoff channel only
        // where the lock actually serializes.
        let charge_handoff = !op.is_read || self.serial_reads;
        let lat_ns = charge_handoff.then(|| {
            self.handoff.on_acquire(ctx.cluster);
            // Queue wait + handoff transfer: the acquisition latency.
            vclock::now().saturating_sub(lat_from)
        });
        // Measure only the critical-section work, not the catch-up
        // on_acquire applied.
        let cs_start = vclock::now();
        for line in 0..self.cs_lines {
            if op.is_read {
                self.dir.read(line, ctx.cluster);
            } else {
                self.dir.write(line, ctx.cluster);
            }
        }
        vclock::advance(self.cs_extra_ns);
        // Hold the lock for κ× the modelled CS duration of wall time,
        // yielding while holding: the window in which peers run, observe
        // the held lock, and enqueue.
        let charged = vclock::now().saturating_sub(cs_start);
        spin_wall((charged * ctx.kappa).min(50_000), true);
        stop_at_window();
        if charge_handoff {
            self.handoff.on_release(ctx.cluster);
        }
        if op.is_read {
            self.lock.release_read();
        } else {
            self.lock.release_write();
        }

        // Non-critical section: stay away from the lock for the paced
        // duration (yield so peers run meanwhile).
        let idle = rng.gen_range(0..=self.noncs_max[ctx.thread]);
        vclock::advance(idle);
        spin_wall(idle * ctx.kappa, true);
        OpOutcome::Counted { lat_ns }
    }

    fn acquisitions(&self) -> u64 {
        self.handoff.acquisitions()
    }

    fn migrations(&self) -> u64 {
        self.handoff.migrations()
    }

    fn batch_hist(&self) -> Vec<u64> {
        self.handoff.batches().snapshot().to_vec()
    }

    fn cohort_stats(&self) -> Option<CohortStats> {
        self.lock.cohort_stats()
    }

    fn policy_label(&self) -> Option<String> {
        self.lock.policy_label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LockKind, RwLockKind};

    fn quick_cfg(threads: usize) -> LBenchConfig {
        LBenchConfig {
            threads,
            window_ns: 2_000_000, // 2 ms virtual: fast tests
            max_wall: Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn shapes_gate_and_schedule() {
        let bursty = LoadShape::Bursty {
            on_ns: 100,
            off_ns: 50,
        };
        assert_eq!(bursty.off_gap(0), None);
        assert_eq!(bursty.off_gap(99), None);
        assert_eq!(bursty.off_gap(100), Some(50));
        assert_eq!(bursty.off_gap(149), Some(1));
        assert_eq!(bursty.off_gap(150), None); // next period
        assert_eq!(LoadShape::Steady.off_gap(123), None);

        let phased = LoadShape::Phased {
            phases: vec![
                Phase {
                    dur_ns: 100,
                    read_pct: 90,
                },
                Phase {
                    dur_ns: 50,
                    read_pct: 10,
                },
            ],
        };
        assert_eq!(phased.read_pct_at(0, 0), 90);
        assert_eq!(phased.read_pct_at(99, 0), 90);
        assert_eq!(phased.read_pct_at(100, 0), 10);
        assert_eq!(phased.read_pct_at(150, 0), 90); // cycles
        assert_eq!(LoadShape::Steady.read_pct_at(5, 42), 42);
        assert_eq!(phased.off_gap(123), None, "phases never gate load");
    }

    #[test]
    fn asymmetry_scales_idle_bounds() {
        let s = Scenario::steady().with_asymmetry(3.0);
        assert_eq!(s.noncs_max_for(0, 4, 4000), 4000, "thread 0 unscaled");
        assert_eq!(s.noncs_max_for(3, 4, 4000), 16000, "last thread 4x");
        assert_eq!(s.noncs_max_for(0, 1, 4000), 4000, "t=1 degenerate");
        let sym = Scenario::steady();
        assert_eq!(sym.noncs_max_for(3, 4, 4000), 4000);
    }

    #[test]
    fn lat_reservoir_caps_and_decimates_uniformly() {
        let mut r = LatReservoir::for_config(&LBenchConfig::default());
        let n = (LAT_RESERVOIR as u64) * 4 + 7;
        for i in 0..n {
            r.record(i);
        }
        let (s, stride) = r.into_parts();
        assert!(s.len() <= LAT_RESERVOIR, "cap respected: {}", s.len());
        assert!(stride >= 4, "stride doubled per decimation");
        assert!(
            s.len() >= LAT_RESERVOIR / 2,
            "decimation halves, not empties"
        );
        // The retained set must stay a uniform subsample: consecutive
        // retained ticks differ by one constant stride.
        let stride = s[1] - s[0];
        assert!(stride >= 4, "three decimations over 4x the cap");
        assert!(
            s.windows(2).all(|w| w[1] - w[0] == stride),
            "non-uniform retention"
        );
    }

    #[test]
    fn lat_reservoir_is_exact_below_the_cap() {
        // Small runs must be untouched: every sample retained in order.
        let mut r = LatReservoir::for_config(&LBenchConfig::default());
        for i in 0..1_000u64 {
            r.record(i * 3);
        }
        let (s, stride) = r.into_parts();
        assert_eq!(s.len(), 1_000);
        assert_eq!(stride, 1);
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn merging_reservoirs_aligns_unequal_strides() {
        // Thread A decimated to stride 4 (kept ticks 0,4,8,…); thread B
        // kept everything (stride 1). The merge must re-decimate B by 4
        // so neither thread's distribution is over-weighted.
        let a: Vec<u64> = (0..8).map(|i| i * 4).collect();
        let b: Vec<u64> = (100..132).collect();
        let merged = merge_lat_reservoirs(vec![(a.clone(), 4), (b, 1)]);
        assert_eq!(&merged[..8], &a[..], "aligned sets pass through");
        assert_eq!(merged.len(), 8 + 8, "B re-decimated from 32 to 8");
        assert_eq!(&merged[8..], &[100, 104, 108, 112, 116, 120, 124, 128]);
        // Degenerate cases.
        assert!(merge_lat_reservoirs(Vec::new()).is_empty());
        assert_eq!(merge_lat_reservoirs(vec![(vec![7], 1)]), vec![7]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 99.0), 4);
    }

    #[test]
    fn abortable_scenario_counts_aborts() {
        let cfg = quick_cfg(4);
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::ACBoClh),
            &Scenario::steady().with_patience(50_000),
            &cfg,
        );
        assert!(r.total_ops > 0);
        assert!(r.abort_rate >= 0.0 && r.abort_rate <= 1.0);
        // The rate is derived from the counted aborts, not kept apart.
        let expected = r.aborts as f64 / (r.total_ops + r.aborts) as f64;
        assert!((r.abort_rate - expected).abs() < 1e-12);
    }

    #[test]
    fn bursty_run_loses_throughput_to_the_gaps() {
        // A 50% duty cycle admits load half the time; throughput must
        // drop visibly against steady load (not exactly 2x — bursts
        // synchronize arrivals and deepen queues).
        let cfg = quick_cfg(4);
        let steady = run_scenario(
            AnyLockKind::Excl(LockKind::CBoMcs),
            &Scenario::steady(),
            &cfg,
        );
        let bursty = run_scenario(
            AnyLockKind::Excl(LockKind::CBoMcs),
            &Scenario::bursty(100_000, 100_000),
            &cfg,
        );
        assert!(bursty.total_ops > 0);
        assert!(
            bursty.throughput < 0.8 * steady.throughput,
            "bursty {:.0} should trail steady {:.0}",
            bursty.throughput,
            steady.throughput
        );
    }

    #[test]
    fn phased_run_mixes_both_sides() {
        let cfg = quick_cfg(4);
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
            &cfg,
        );
        assert!(r.read_ops > 0, "read phases produce reads");
        assert!(r.write_ops > 0, "write phases produce writes");
        assert_eq!(r.total_ops, r.read_ops + r.write_ops);
    }

    #[test]
    fn asymmetric_run_skews_per_thread_ops() {
        let mut cfg = quick_cfg(4);
        cfg.noncs_max_ns = 8_000;
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::Ticket),
            &Scenario::steady().with_asymmetry(16.0),
            &cfg,
        );
        // Thread 0 keeps the paper's idle bound; the last thread idles up
        // to 17x longer, so it must complete visibly fewer ops.
        assert!(
            r.per_thread_ops[0] > 2 * r.per_thread_ops[3],
            "asymmetry should skew ops: {:?}",
            r.per_thread_ops
        );
    }

    #[test]
    fn latency_percentiles_are_sane() {
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::Mcs),
            &Scenario::steady(),
            &quick_cfg(4),
        );
        assert!(r.lat_p50_ns > 0, "contended acquisitions have latency");
        assert!(r.lat_p99_ns >= r.lat_p50_ns);

        // Shared reads serialize on nothing and are not sampled: a
        // read-only RW run reports zero acquisition latency.
        let ro = run_scenario(
            AnyLockKind::Rw(RwLockKind::CRwNeutralBoMcs),
            &Scenario::steady().with_read_pct(100),
            &quick_cfg(2),
        );
        assert_eq!(ro.acquisitions, 0);
        assert_eq!(ro.lat_p50_ns, 0);
        assert_eq!(ro.lat_p99_ns, 0);
    }
}
