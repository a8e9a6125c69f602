//! Wall-clock benchmark for the lock-cohorting crates.
//!
//! Four closed-loop workloads, each in one process and on at most two
//! threads, call only the public APIs of the library crates and time those
//! calls from outside:
//!
//! * `solo` — one thread, the fixed roster uncontended (see [`roster`]);
//! * `duo` — two threads in one virtual cluster hammering each roster lock;
//! * `kv` — two memcached-style clients in different clusters against the
//!   single C-BO-MCS cache lock of a one-shard store;
//! * `model` — a grid of modelled (discrete-event) scenario cells.
//!
//! Every round of every workload interleaves the host reference kernels of
//! [`host`]. An untraced run reports the end-to-end metrics; a traced run
//! records spans (see [`trace`]) and reports the per-layer metrics.

pub mod duo;
pub mod host;
pub mod kv;
pub mod layers;
pub mod model;
pub mod roster;
pub mod solo;
pub mod stats;
pub mod trace;

use std::cell::UnsafeCell;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One thread, roster uncontended.
    Solo,
    /// Two threads, roster contended in one cluster.
    Duo,
    /// Two KV clients in two clusters.
    Kv,
    /// Modelled scenario grid.
    Model,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [Workload::Solo, Workload::Duo, Workload::Kv, Workload::Model];

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Duo => "duo",
            Workload::Kv => "kv",
            Workload::Model => "model",
        }
    }

    /// Runs the workload once for `budget` of timed rounds.
    pub fn run(self, seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
        match self {
            Workload::Solo => solo::run(seed, budget, trace),
            Workload::Duo => duo::run(seed, budget, trace),
            Workload::Kv => kv::run(seed, budget, trace),
            Workload::Model => model::run(seed, budget, trace),
        }
    }
}

/// The end-to-end metrics every workload reports (see `BENCHMARK.json`).
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Median set-up time over the repeated set-ups, in seconds.
    ///
    /// `solo`, `kv` and `model` quote every time figure here, and every
    /// rate, at the reference host's speed (see [`at_ref`]); `duo` quotes
    /// its rate and latencies raw. Set-up is quoted at the reference speed
    /// everywhere.
    pub setup_s: f64,
    /// Operations per wall second.
    pub ops_per_s: f64,
    /// Median per-op latency, ns (NaN when too few samples).
    pub lat_p50_ns: f64,
    /// 99th-percentile per-op latency, ns (NaN when too few samples).
    pub lat_p99_ns: f64,
    /// Smallest per-thread op count over the mean.
    pub min_share: f64,
    /// Per-op cost in units of the interleaved private-line RMW.
    pub acq_rel_rmw: f64,
}

impl EndToEnd {
    /// `(name, value, unit)` rows in reporting order.
    pub fn rows(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("setup_s".into(), self.setup_s, "s"),
            ("ops_per_s".into(), self.ops_per_s, "1/s"),
            ("lat_p50_ns".into(), self.lat_p50_ns, "ns"),
            ("lat_p99_ns".into(), self.lat_p99_ns, "ns"),
            ("min_share".into(), self.min_share, "ratio"),
            ("acq_rel_rmw".into(), self.acq_rel_rmw, "ratio"),
        ]
    }
}

/// What one workload run yields.
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Of those, operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics of the run.
    pub e2e: EndToEnd,
    /// Per-layer figures that are counts or ratios rather than span times.
    pub values: Vec<(String, f64)>,
    /// Spans of the run (empty when untraced).
    pub tracer: Tracer,
}

/// The final report line.
pub struct Report {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)` rows.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON result. `correct` requires no failed op and
    /// finite metrics.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Runs `workload`. Untraced: the end-to-end metrics over `budget`.
/// Traced: the budget is split five ways — the workload once untraced,
/// then every workload traced — and the per-layer metrics are derived
/// from the merged spans, with the tracing overhead measured against the
/// untraced share.
pub fn run(workload: Workload, seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    if !trace {
        let o = workload.run(seed, budget, false)?;
        if let Some((name, _, _)) = o.e2e.rows().iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("{}: too few samples for {name}", workload.name()));
        }
        return Ok(Report {
            attempted: o.attempted,
            failed: o.failed,
            metrics: o.e2e.rows(),
        });
    }
    let share = budget / 5;
    let plain = workload.run(seed, share, false)?;
    let mut parts = Vec::new();
    for w in Workload::ALL {
        parts.push((w, w.run(seed, share, true)?));
    }
    let traced = &parts
        .iter()
        .find(|(w, _)| *w == workload)
        .expect("every workload ran traced")
        .1;
    let overhead = layers::overhead_frac(workload, &plain.e2e, &traced.e2e);
    let trace_path = layers::trace_dir().join(format!("trace-{}-{seed}.tsv", workload.name()));
    let (attempted, failed, metrics) = layers::per_layer(plain, parts, overhead, &trace_path)?;
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// A counter only the lock holder touches: the tiny verified critical
/// section of every lock workload.
#[derive(Default)]
pub struct Guarded {
    count: UnsafeCell<u64>,
    last: UnsafeCell<usize>,
}

// SAFETY: fields are written only under the lock being measured, and read
// outside it only after the writers have synchronized (barrier or join).
unsafe impl Sync for Guarded {}

impl Guarded {
    /// Critical-section body: counts the op; returns whether the previous
    /// holder was a different thread (a handover).
    ///
    /// # Safety
    /// The caller must hold the lock guarding `self`.
    #[inline]
    pub unsafe fn bump(&self, me: usize) -> bool {
        *self.count.get() += 1;
        let last = &mut *self.last.get();
        let handover = *last != me;
        *last = me;
        handover
    }

    /// Ops counted so far (call only when no thread is inside).
    pub fn count(&self) -> u64 {
        // SAFETY: see the type's Sync justification.
        unsafe { *self.count.get() }
    }
}

/// Converts a wall time measured while the private-line RMW cost
/// `rmw_ns` to the reference host's speed (see [`host::REF_RMW_NS`]).
/// Rates convert with the inverse factor.
pub fn at_ref(ns: f64, rmw_ns: f64) -> f64 {
    ns * host::REF_RMW_NS / rmw_ns
}

/// Set-up repeated `reps` times, each preceded by RMW slices: returns the
/// median set-up time at the reference host's speed, in seconds, and the
/// last set-up's state.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let line = host::PrivateLine::default();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let rmw: Vec<f64> = (0..16).map(|_| line.rmw_slice()).collect();
        let t = Instant::now();
        let v = f();
        times.push(at_ref(t.elapsed().as_secs_f64(), stats::median(&rmw)));
        last = Some(v);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Fisher–Yates shuffle of `0..n` from `rng`.
pub fn shuffled(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<usize> {
    use rand::Rng;
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// Nanoseconds from `a` to `b` (0 if `b` is earlier).
#[inline]
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Notes the run's host reference figures on standard error, so a reader
/// of a log can tell host drift from a code change.
pub fn host_note(workload: &str, rmw: &[f64], pingpong: Option<&[f64]>) {
    let pp = pingpong
        .map(|p| format!(", ping-pong {:.1} ns", stats::median(p)))
        .unwrap_or_default();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: {workload}: host RMW {:.2} ns{pp} (medians over {} rounds, {cpus} CPUs)",
        stats::median(rmw),
        rmw.len()
    );
}
