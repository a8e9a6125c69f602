//! The fixed lock roster shared by `solo` and `duo`, so that later
//! changes compare like with like.

use lbench::LockKind;

/// (registry kind, metric slug) for every roster entry.
pub const ROSTER: [(LockKind, &str); 15] = [
    (LockKind::Pthread, "pthread"),
    (LockKind::Tatas, "tatas"),
    (LockKind::Ticket, "ticket"),
    (LockKind::Mcs, "mcs"),
    (LockKind::Clh, "clh"),
    (LockKind::Hclh, "hclh"),
    (LockKind::Cna, "cna"),
    (LockKind::FcMcs, "fc_mcs"),
    (LockKind::CBoMcs, "c_bo_mcs"),
    (LockKind::CTktMcs, "c_tkt_mcs"),
    (LockKind::CMcsMcs, "c_mcs_mcs"),
    (LockKind::CRecipMcs, "c_recip_mcs"),
    (LockKind::FisBoMcs, "fis_bo_mcs"),
    (LockKind::Recip, "recip"),
    (LockKind::GcrCBoMcs, "gcr_c_bo_mcs"),
];

/// The composed (cohort-family) roster kinds, by slug.
pub const COMPOSED: [&str; 6] = [
    "c_bo_mcs",
    "c_tkt_mcs",
    "c_mcs_mcs",
    "c_recip_mcs",
    "fis_bo_mcs",
    "gcr_c_bo_mcs",
];

/// Slugs of the raw base locks timed without the adapter.
pub const BASE: [&str; 5] = ["tatas", "ticket", "mcs", "clh", "recip"];

/// Slugs of the NUMA-aware baselines timed without the adapter.
pub const BASELINES: [&str; 3] = ["cna", "fc_mcs", "hclh"];
