//! Per-layer metrics of a traced run, derived from the merged spans of
//! every workload plus the counts and ratios the workloads report.

use crate::roster::{BASE, BASELINES, COMPOSED, ROSTER};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{EndToEnd, Outcome, Workload};
use lbench::stats::geomean;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

type Rows = Vec<(String, f64, &'static str)>;

/// Where traced runs write their spans: under the build directory.
pub fn trace_dir() -> PathBuf {
    let build = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    PathBuf::from(build).join("perfbench-trace")
}

/// A value or an error naming it: the run then reports no result rather
/// than a figure it could not measure.
fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("no samples for {what}"))
}

/// Relative slow-down of the workload's headline cost when traced.
pub fn overhead_frac(w: Workload, plain: &EndToEnd, traced: &EndToEnd) -> f64 {
    match w {
        Workload::Solo => traced.acq_rel_rmw / plain.acq_rel_rmw - 1.0,
        _ => plain.ops_per_s / traced.ops_per_s - 1.0,
    }
}

/// The span a slug's uncontended raw (adapter-free) cost is timed under.
fn raw_span(slug: &str) -> Option<String> {
    if BASE.contains(&slug) {
        Some(format!("base_locks.{slug}"))
    } else if COMPOSED.contains(&slug) {
        Some(format!("cohort.{slug}"))
    } else if BASELINES.contains(&slug) {
        Some(format!("baselines.{slug}"))
    } else {
        None
    }
}

/// The separately timed global and local parts of a composed kind (the
/// local MCS part includes its node pool).
fn parts(slug: &str) -> &'static [&'static str] {
    match slug {
        "c_bo_mcs" | "gcr_c_bo_mcs" => &["cohort.global_bo", "cohort.local_mcs"],
        "c_tkt_mcs" => &["base_locks.ticket", "cohort.local_mcs"],
        "c_mcs_mcs" => &["base_locks.mcs", "cohort.local_mcs"],
        "c_recip_mcs" => &["base_locks.recip", "cohort.local_mcs"],
        // Uncontended, the fissile lock takes only its TATAS word.
        "fis_bo_mcs" => &["base_locks.tatas"],
        other => unreachable!("not a composed kind: {other}"),
    }
}

/// Folds the plain run and the traced parts into the per-layer rows,
/// writes the kept spans to `trace_path`, and returns
/// `(attempted, failed, rows)`.
pub fn per_layer(
    plain: Outcome,
    parts_in: Vec<(Workload, Outcome)>,
    overhead: f64,
    trace_path: &Path,
) -> Result<(u64, u64, Rows), String> {
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut values: HashMap<String, f64> = HashMap::new();
    let mut t: Option<Tracer> = None;
    for (_, o) in parts_in {
        attempted += o.attempted;
        failed += o.failed;
        values.extend(o.values);
        match &mut t {
            Some(t) => t.absorb(o.tracer),
            None => t = Some(o.tracer),
        }
    }
    let t = t.expect("at least one traced part");
    t.write_tsv(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let per_op = |span: &str| need(t.self_ns_per_op(span), span);
    let value = |name: &str| need(values.get(name).copied(), name);
    let mut rows: Rows = Vec::new();
    let ns = |rows: &mut Rows, name: String, v: f64| rows.push((name, v, "ns"));

    ns(&mut rows, "host.rmw_ns".into(), per_op("host.rmw")?);
    ns(
        &mut rows,
        "host.pingpong_ns".into(),
        per_op("host.pingpong")?,
    );

    let mut solo = HashMap::new();
    for (_, slug) in ROSTER {
        let v = per_op(&format!("solo.{slug}"))?;
        solo.insert(slug, v);
        ns(&mut rows, format!("solo.{slug}.acq_rel_ns"), v);
    }
    let solo_all: Vec<f64> = ROSTER.iter().map(|(_, s)| solo[s]).collect();
    ns(
        &mut rows,
        "solo.geomean_ns".into(),
        need(geomean(&solo_all), "solo.geomean")?,
    );

    for span in ["base_locks.pool"]
        .into_iter()
        .map(String::from)
        .chain(BASE.iter().map(|s| format!("base_locks.{s}")))
        .chain([
            "cohort.global_bo".to_string(),
            "cohort.local_mcs".to_string(),
        ])
        .chain(COMPOSED.iter().map(|s| format!("cohort.{s}")))
        .chain(BASELINES.iter().map(|s| format!("baselines.{s}")))
    {
        let v = per_op(&span)?;
        ns(&mut rows, format!("{span}.acq_rel_ns"), v);
    }
    ns(
        &mut rows,
        "cohort.stats_snapshot_ns".into(),
        per_op("cohort.stats_snapshot")?,
    );

    // Adapter cost: the dyn BenchLock path minus the raw lock, median
    // over every roster kind that has a raw counterpart.
    let mut adapter = Vec::new();
    for (_, slug) in ROSTER {
        if let Some(raw) = raw_span(slug) {
            adapter.push(solo[slug] - per_op(&raw)?);
        }
    }
    let adapter_ns = median(&adapter);
    ns(&mut rows, "harness.adapter_ns".into(), adapter_ns);
    rows.push((
        "harness.make_us".into(),
        per_op("harness.make")? / 1e3,
        "us",
    ));

    for slug in COMPOSED {
        let explained = parts(slug)
            .iter()
            .map(|p| per_op(p))
            .sum::<Result<f64, _>>()?
            + adapter_ns;
        ns(
            &mut rows,
            format!("cohort.{slug}.unexplained_ns"),
            solo[slug] - explained,
        );
        let name = format!("cohort.{slug}.local_handoff_frac");
        let v = value(&name)?;
        rows.push((name, v, "ratio"));
    }

    for (which, span) in [("unkeyed", "model.unkeyed"), ("keyed", "model.keyed")] {
        let a = t.agg(span);
        if a.ops == 0 {
            return Err(format!("no modelled ops for {span}"));
        }
        rows.push((
            format!("harness.modelled.{which}_sim_ops_per_s"),
            a.ops as f64 / (a.self_ns as f64 / 1e9),
            "1/s",
        ));
    }

    for span in [
        "coherence.dir_write_local",
        "coherence.dir_write_remote",
        "coherence.handoff",
        "kvstore.store_get",
        "kvstore.store_set",
        "kvstore.shared_get",
        "kv.lock_wait",
        "kv.store",
        "kv.hold",
    ] {
        ns(&mut rows, format!("{span}_ns"), per_op(span)?);
    }
    rows.push((
        "kvstore.hit_ratio".into(),
        value("kvstore.hit_ratio")?,
        "ratio",
    ));

    for (_, slug) in ROSTER {
        ns(
            &mut rows,
            format!("duo.{slug}.op_ns"),
            per_op(&format!("duo.{slug}"))?,
        );
        let name = format!("duo.{slug}.handover_frac");
        let v = value(&name)?;
        rows.push((name, v, "ratio"));
    }
    rows.push(("trace.overhead_frac".into(), overhead, "ratio"));
    Ok((attempted, failed, rows))
}
