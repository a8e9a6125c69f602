//! # LBench — the microbenchmark harness of the evaluation
//!
//! Reimplements the paper's LBench (§4.1): N threads hammer one central
//! lock, each critical section writes two shared cache lines, each
//! non-critical section idles up to 4 µs, and the run reports aggregate
//! throughput, per-thread fairness, lock migrations, coherence misses per
//! critical section, and (in abortable mode) abort rates — i.e. every
//! metric behind Figures 2–6.
//!
//! Three pieces:
//!
//! * [`BenchLock`] + adapters — all ~19 lock algorithms behind one
//!   object-safe interface (including `pthread` as a parking-lot futex
//!   mutex), with [`BenchRwLock`] + adapters doing the same for the C-RW
//!   locks (plus the `std::sync::RwLock` and exclusive-read baselines);
//! * [`LockKind`] / [`RwLockKind`] — the registries mapping the paper's
//!   lock names to constructors, with the exact lock sets of each
//!   figure/table, unified as [`AnyLockKind`]; policy-driven kinds (one
//!   [`LockFamily`] descriptor says which) can be built with any
//!   [`PolicySpec`]-described handoff policy;
//! * [`run_scenario`] — the ONE measurement entry point. A [`Scenario`]
//!   describes the per-thread op mix (exclusive / shared-read /
//!   abortable-with-patience), its [`LoadShape`] over time (steady,
//!   bursty on/off, phased read-ratio schedule, thread-asymmetric
//!   idling), and optionally a keyed service ([`KeyedSpec`]: an N-shard
//!   KV store, an allocator arena). Every realtime scenario runs through
//!   one real-thread worker loop — an unkeyed scenario is a one-lock
//!   [`KeyedService`] running the paper's critical section — on virtual
//!   clocks priced by the coherence cost model (hardware-independent,
//!   see DESIGN.md §2). Cohort runs additionally report per-tenure
//!   handoff statistics (tenures, migrations per tenure, mean/max
//!   streak) from the policy's counters.
//!
//! A scenario's [`CostMode`] selects the execution substrate: `RealTime`
//! (real threads, modelled prices) or `Modelled` (a single-threaded
//! discrete-event simulation over the same coherence cost model,
//! bit-reproducible run to run — see the `modelled` module docs and
//! ARCHITECTURE.md's "Modelled coherence mode"). The admission order a
//! kind gets in modelled mode is published as
//! [`AnyLockKind::modelled_admission`] ([`ModelledAdmission`],
//! [`TenureLimit`]). Wall-clock costs of the public API are measured
//! from outside by the `perfbench` package.

#![deny(missing_docs)]

mod bench_lock;
mod bench_rwlock;
pub mod env;
mod keyed;
mod modelled;
pub mod pace;
pub mod phys;
mod registry;
mod runner;
mod scenario;
pub mod stats;

pub use bench_lock::{
    AbortableAdapter, BenchLock, CohortAbortableAdapter, CohortAdapter, HasCohortStats,
    PthreadLock, RawAdapter,
};
pub use bench_rwlock::{BenchRwLock, CohortRwAdapter, MutexAsRw, StdRwAdapter};
pub use cohort::{CohortStats, PolicySpec};
pub use env::EnvKnobError;
pub use keyed::{
    KeyDist, KeyedCtx, KeyedOp, KeyedService, KeyedServiceFactory, KeyedSpec, OpOutcome,
};
pub use phys::TopologyMode;
pub use registry::{AnyLockKind, LockFamily, LockKind, ModelledAdmission, RwLockKind, TenureLimit};
pub use runner::{LBenchConfig, Placement};
pub use scenario::{
    run_scenario, run_scenario_on, CostMode, LoadShape, Phase, Scenario, ScenarioResult,
};
