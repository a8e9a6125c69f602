//! The lock registry: every algorithm of the evaluation behind one name.

use crate::bench_lock::{
    AbortableAdapter, BenchLock, CohortAbortableAdapter, CohortAdapter, PthreadLock, RawAdapter,
};
use crate::bench_rwlock::{BenchRwLock, CohortRwAdapter, MutexAsRw, StdRwAdapter};
use cohort::{
    AcBoBo, AcBoClh, CBoBo, CBoMcs, CMcsMcs, CRecipMcs, CTktMcs, CTktTkt, CohortLock, CohortRwLock,
    DynPolicy, FisBoMcs, FisTktMcs, FissileLock, GcrLock, GlobalBoLock, LocalAClhLock,
    LocalAboLock, LocalBoLock, LocalMcsLock, LocalTicketLock, PolicySpec, RwFairness,
};
use numa_baselines::{CnaLock, FcMcsLock, HboLock, HboParams, HclhLock};
use numa_topology::Topology;
use std::sync::Arc;

/// Every lock algorithm the paper's evaluation mentions, by its name
/// there.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum LockKind {
    // NUMA-oblivious baselines.
    Pthread,
    Tatas,
    FibBo,
    Ticket,
    Mcs,
    Clh,
    // Prior NUMA-aware locks.
    Hbo,
    HboTuned,
    Hclh,
    FcMcs,
    // The modern single-word competitor (Dice & Kogan, EuroSys '19):
    // paper-comparable threshold (64) and a tight-threshold variant.
    Cna,
    CnaTight,
    // Cohort locks (the paper's contribution).
    CBoBo,
    CTktTkt,
    CBoMcs,
    CTktMcs,
    CMcsMcs,
    // Fissile fast-path cohort locks (Dice & Kogan, arXiv:2003.05025):
    // a TATAS word tried first, the cohort composition underneath.
    FisBoMcs,
    FisTktMcs,
    // GCR admission wrappers (Dice & Kogan, arXiv:1905.10818): a
    // concurrency-restriction layer over a plain queue lock, the paper's
    // best cohort lock, and the fissile fast-path lock.
    GcrMcs,
    GcrCBoMcs,
    GcrFisBoMcs,
    // Reciprocating locks (Dice & Kogan, arXiv:2501.02380): a one-word
    // arrivals stack admitted in reversed (palindromic) segments, so
    // every handover costs a constant number of coherence transitions —
    // plain, and cohortized as the global lock over local MCS queues.
    Recip,
    CRecipMcs,
    // Abortable locks (Figure 6).
    AClh,
    AHbo,
    ACBoBo,
    ACBoClh,
}

/// The lock family a [`LockKind`] belongs to (see [`LockKind::family`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockFamily {
    /// NUMA-oblivious baselines and the prior NUMA-aware locks
    /// (HBO/HCLH/FC-MCS, abortable CLH/HBO): no policy knob.
    Plain,
    /// The paper's cohort compositions, including the abortable ones and
    /// C-Recip-MCS (a reciprocating global lock over local MCS queues).
    Cohort,
    /// CNA: not a cohort lock, but policy-driven all the same.
    Cna,
    /// Fissile fast-path locks: a TATAS word over a cohort slow path,
    /// policy-driven through it, with fast-vs-slow accounting in their
    /// `CohortStats`.
    Fissile,
    /// GCR admission wrappers (a concurrency-restriction layer over some
    /// inner lock — see `cohort::gcr`; park/promotion accounting shows up
    /// in their `CohortStats`).
    Gcr {
        /// Whether the wrapped lock honors a handoff policy.
        policy_driven: bool,
    },
    /// The plain Reciprocating lock: its admission order (palindromic
    /// segments) is structural, not tunable.
    Reciprocating,
}

impl LockFamily {
    /// Whether a [`PolicySpec`] applies — the cohort locks, the CNA
    /// family, the fissile wrappers (whose slow path is a cohort lock),
    /// and the GCR wrappers over policy-driven inner locks share the
    /// handoff-policy knob.
    pub fn has_policy_knob(self) -> bool {
        match self {
            LockFamily::Cohort | LockFamily::Cna | LockFamily::Fissile => true,
            LockFamily::Gcr { policy_driven } => policy_driven,
            LockFamily::Plain | LockFamily::Reciprocating => false,
        }
    }
}

impl LockKind {
    /// The name used in the paper's figures and tables.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Pthread => "pthread",
            LockKind::Tatas => "TATAS",
            LockKind::FibBo => "Fib-BO",
            LockKind::Ticket => "Ticket",
            LockKind::Mcs => "MCS",
            LockKind::Clh => "CLH",
            LockKind::Hbo => "HBO",
            LockKind::HboTuned => "HBO (tuned)",
            LockKind::Hclh => "HCLH",
            LockKind::FcMcs => "FC-MCS",
            LockKind::Cna => "CNA",
            LockKind::CnaTight => "CNA (t=4)",
            LockKind::CBoBo => "C-BO-BO",
            LockKind::CTktTkt => "C-TKT-TKT",
            LockKind::CBoMcs => "C-BO-MCS",
            LockKind::CTktMcs => "C-TKT-MCS",
            LockKind::CMcsMcs => "C-MCS-MCS",
            LockKind::FisBoMcs => "Fis-BO-MCS",
            LockKind::FisTktMcs => "Fis-TKT-MCS",
            LockKind::GcrMcs => "GCR-MCS",
            LockKind::GcrCBoMcs => "GCR-C-BO-MCS",
            LockKind::GcrFisBoMcs => "GCR-Fis-BO-MCS",
            LockKind::Recip => "Recip",
            LockKind::CRecipMcs => "C-Recip-MCS",
            LockKind::AClh => "A-CLH",
            LockKind::AHbo => "A-HBO",
            LockKind::ACBoBo => "A-C-BO-BO",
            LockKind::ACBoClh => "A-C-BO-CLH",
        }
    }

    /// The family this kind belongs to — the one classification
    /// [`has_policy_knob`](Self::has_policy_knob) and
    /// [`AnyLockKind::modelled_admission`] derive from.
    pub fn family(self) -> LockFamily {
        match self {
            LockKind::Pthread
            | LockKind::Tatas
            | LockKind::FibBo
            | LockKind::Ticket
            | LockKind::Mcs
            | LockKind::Clh
            | LockKind::Hbo
            | LockKind::HboTuned
            | LockKind::Hclh
            | LockKind::FcMcs
            | LockKind::AClh
            | LockKind::AHbo => LockFamily::Plain,
            LockKind::CBoBo
            | LockKind::CTktTkt
            | LockKind::CBoMcs
            | LockKind::CTktMcs
            | LockKind::CMcsMcs
            | LockKind::CRecipMcs
            | LockKind::ACBoBo
            | LockKind::ACBoClh => LockFamily::Cohort,
            LockKind::Cna | LockKind::CnaTight => LockFamily::Cna,
            LockKind::FisBoMcs | LockKind::FisTktMcs => LockFamily::Fissile,
            LockKind::GcrMcs => LockFamily::Gcr {
                policy_driven: false,
            },
            LockKind::GcrCBoMcs | LockKind::GcrFisBoMcs => LockFamily::Gcr {
                policy_driven: true,
            },
            LockKind::Recip => LockFamily::Reciprocating,
        }
    }

    /// Fairness threshold of the [`LockKind::CnaTight`] variant (also
    /// baked into its `"CNA (t=4)"` display name — keep the two in sync).
    pub const CNA_TIGHT_THRESHOLD: u64 = 4;

    /// The CNA fairness threshold this kind is registered with (`None`
    /// for non-CNA kinds) — the single source the `fig_cna` self-check
    /// asserts streaks against.
    pub fn cna_threshold(self) -> Option<u64> {
        match self {
            LockKind::Cna => Some(cohort::CountBound::PAPER_BOUND),
            LockKind::CnaTight => Some(Self::CNA_TIGHT_THRESHOLD),
            _ => None,
        }
    }

    /// Whether a [`PolicySpec`] applies to this kind (see
    /// [`LockFamily::has_policy_knob`]).
    pub fn has_policy_knob(self) -> bool {
        self.family().has_policy_knob()
    }

    /// Instantiates the lock over `topo`.
    pub fn make(self, topo: &Arc<Topology>) -> Arc<dyn BenchLock> {
        match self {
            LockKind::Pthread => Arc::new(PthreadLock::new()),
            LockKind::Tatas => Arc::new(RawAdapter::new(base_locks::TatasLock::new())),
            LockKind::FibBo => Arc::new(RawAdapter::new(base_locks::FibBackoffLock::new())),
            LockKind::Ticket => Arc::new(RawAdapter::new(base_locks::TicketLock::new())),
            LockKind::Mcs => Arc::new(RawAdapter::new(base_locks::McsLock::new())),
            LockKind::Clh => Arc::new(RawAdapter::new(base_locks::ClhLock::new())),
            LockKind::Hbo => Arc::new(RawAdapter::new(HboLock::with_params(
                Arc::clone(topo),
                HboParams::microbench_tuned(),
            ))),
            LockKind::HboTuned => Arc::new(RawAdapter::new(HboLock::with_params(
                Arc::clone(topo),
                HboParams::kvstore_tuned(),
            ))),
            LockKind::Hclh => Arc::new(RawAdapter::new(HclhLock::new(Arc::clone(topo)))),
            LockKind::FcMcs => Arc::new(RawAdapter::new(FcMcsLock::new(Arc::clone(topo)))),
            LockKind::Cna => Arc::new(CohortAdapter::new(CnaLock::new(Arc::clone(topo)))),
            LockKind::CnaTight => Arc::new(CohortAdapter::new(CnaLock::with_threshold(
                Arc::clone(topo),
                Self::CNA_TIGHT_THRESHOLD,
            ))),
            LockKind::CBoBo => Arc::new(CohortAdapter::new(CBoBo::new(Arc::clone(topo)))),
            LockKind::CTktTkt => Arc::new(CohortAdapter::new(CTktTkt::new(Arc::clone(topo)))),
            LockKind::CBoMcs => Arc::new(CohortAdapter::new(CBoMcs::new(Arc::clone(topo)))),
            LockKind::CTktMcs => Arc::new(CohortAdapter::new(CTktMcs::new(Arc::clone(topo)))),
            LockKind::CMcsMcs => Arc::new(CohortAdapter::new(CMcsMcs::new(Arc::clone(topo)))),
            LockKind::FisBoMcs => Arc::new(CohortAdapter::new(FisBoMcs::new(Arc::clone(topo)))),
            LockKind::FisTktMcs => Arc::new(CohortAdapter::new(FisTktMcs::new(Arc::clone(topo)))),
            LockKind::GcrMcs => Arc::new(CohortAdapter::new(GcrLock::over(
                Arc::clone(topo),
                base_locks::McsLock::new(),
            ))),
            LockKind::GcrCBoMcs => Arc::new(CohortAdapter::new(GcrLock::over(
                Arc::clone(topo),
                CBoMcs::new(Arc::clone(topo)),
            ))),
            LockKind::GcrFisBoMcs => Arc::new(CohortAdapter::new(GcrLock::over(
                Arc::clone(topo),
                FisBoMcs::new(Arc::clone(topo)),
            ))),
            LockKind::Recip => Arc::new(RawAdapter::new(base_locks::ReciprocatingLock::new())),
            LockKind::CRecipMcs => Arc::new(CohortAdapter::new(CRecipMcs::new(Arc::clone(topo)))),
            LockKind::AClh => Arc::new(AbortableAdapter::new(base_locks::AbortableClhLock::new())),
            LockKind::AHbo => Arc::new(AbortableAdapter::new(HboLock::with_params(
                Arc::clone(topo),
                HboParams::microbench_tuned(),
            ))),
            LockKind::ACBoBo => {
                Arc::new(CohortAbortableAdapter::new(AcBoBo::new(Arc::clone(topo))))
            }
            LockKind::ACBoClh => {
                Arc::new(CohortAbortableAdapter::new(AcBoClh::new(Arc::clone(topo))))
            }
        }
    }

    /// Instantiates the lock over `topo`, honoring `policy` when set and
    /// applicable — the one-stop constructor for harnesses with an
    /// optional policy knob.
    pub fn make_with_optional_policy(
        self,
        topo: &Arc<Topology>,
        policy: Option<PolicySpec>,
    ) -> Arc<dyn BenchLock> {
        match policy {
            Some(spec) if self.has_policy_knob() => self.make_with_policy(topo, spec),
            _ => self.make(topo),
        }
    }

    /// Instantiates the lock over `topo` with an explicit handoff policy.
    ///
    /// Cohort locks are built as `CohortLock<G, L, DynPolicy>` and CNA
    /// kinds as `CnaLock<DynPolicy>`, each carrying `policy.build()`; for
    /// every other kind the policy does not apply and plain
    /// [`make`](Self::make) is used.
    pub fn make_with_policy(self, topo: &Arc<Topology>, policy: PolicySpec) -> Arc<dyn BenchLock> {
        fn cohort<G, L>(topo: &Arc<Topology>, policy: PolicySpec) -> Arc<dyn BenchLock>
        where
            G: cohort::GlobalLock + Default + 'static,
            L: cohort::LocalCohortLock + Default + 'static,
        {
            Arc::new(CohortAdapter::new(
                CohortLock::<G, L, DynPolicy>::with_handoff_policy(
                    Arc::clone(topo),
                    policy.build(),
                ),
            ))
        }
        fn abortable<G, L>(topo: &Arc<Topology>, policy: PolicySpec) -> Arc<dyn BenchLock>
        where
            G: cohort::AbortableGlobalLock + Default + 'static,
            L: cohort::AbortableLocalCohortLock + Default + 'static,
        {
            Arc::new(CohortAbortableAdapter::new(
                CohortLock::<G, L, DynPolicy>::with_handoff_policy(
                    Arc::clone(topo),
                    policy.build(),
                ),
            ))
        }
        fn fissile<G, L>(topo: &Arc<Topology>, policy: PolicySpec) -> Arc<dyn BenchLock>
        where
            G: cohort::GlobalLock + Default + 'static,
            L: cohort::LocalCohortLock + Default + 'static,
        {
            Arc::new(CohortAdapter::new(
                FissileLock::<G, L, DynPolicy>::with_handoff_policy(
                    Arc::clone(topo),
                    policy.build(),
                ),
            ))
        }
        fn gcr_cohort<G, L>(topo: &Arc<Topology>, policy: PolicySpec) -> Arc<dyn BenchLock>
        where
            G: cohort::GlobalLock + Default + 'static,
            L: cohort::LocalCohortLock + Default + 'static,
        {
            Arc::new(CohortAdapter::new(GcrLock::over(
                Arc::clone(topo),
                CohortLock::<G, L, DynPolicy>::with_handoff_policy(
                    Arc::clone(topo),
                    policy.build(),
                ),
            )))
        }
        fn gcr_fissile<G, L>(topo: &Arc<Topology>, policy: PolicySpec) -> Arc<dyn BenchLock>
        where
            G: cohort::GlobalLock + Default + 'static,
            L: cohort::LocalCohortLock + Default + 'static,
        {
            Arc::new(CohortAdapter::new(GcrLock::over(
                Arc::clone(topo),
                FissileLock::<G, L, DynPolicy>::with_handoff_policy(
                    Arc::clone(topo),
                    policy.build(),
                ),
            )))
        }
        match self {
            LockKind::CBoBo => cohort::<GlobalBoLock, LocalBoLock>(topo, policy),
            LockKind::CTktTkt => cohort::<base_locks::TicketLock, LocalTicketLock>(topo, policy),
            LockKind::CBoMcs => cohort::<GlobalBoLock, LocalMcsLock>(topo, policy),
            LockKind::CTktMcs => cohort::<base_locks::TicketLock, LocalMcsLock>(topo, policy),
            LockKind::CMcsMcs => cohort::<base_locks::McsLock, LocalMcsLock>(topo, policy),
            LockKind::CRecipMcs => {
                cohort::<base_locks::ReciprocatingLock, LocalMcsLock>(topo, policy)
            }
            LockKind::FisBoMcs => fissile::<GlobalBoLock, LocalMcsLock>(topo, policy),
            LockKind::FisTktMcs => fissile::<base_locks::TicketLock, LocalMcsLock>(topo, policy),
            LockKind::GcrCBoMcs => gcr_cohort::<GlobalBoLock, LocalMcsLock>(topo, policy),
            LockKind::GcrFisBoMcs => gcr_fissile::<GlobalBoLock, LocalMcsLock>(topo, policy),
            LockKind::ACBoBo => abortable::<GlobalBoLock, LocalAboLock>(topo, policy),
            LockKind::ACBoClh => abortable::<GlobalBoLock, LocalAClhLock>(topo, policy),
            LockKind::Cna | LockKind::CnaTight => Arc::new(CohortAdapter::new(
                CnaLock::<DynPolicy>::with_handoff_policy(Arc::clone(topo), policy.build()),
            )),
            _ => self.make(topo),
        }
    }

    /// The nine locks of Figures 2–5.
    pub const FIG2: [LockKind; 9] = [
        LockKind::Mcs,
        LockKind::Hbo,
        LockKind::Hclh,
        LockKind::FcMcs,
        LockKind::CBoBo,
        LockKind::CTktTkt,
        LockKind::CBoMcs,
        LockKind::CTktMcs,
        LockKind::CMcsMcs,
    ];

    /// The four abortable locks of Figure 6.
    pub const FIG6: [LockKind; 4] = [
        LockKind::AClh,
        LockKind::AHbo,
        LockKind::ACBoBo,
        LockKind::ACBoClh,
    ];

    /// The comparison set of the `fig_cna` exhibit: cohorting
    /// (C-BO-MCS) vs. compaction (CNA at the paper-comparable threshold
    /// and a tight one) vs. the NUMA-oblivious MCS both build on.
    pub const FIG_CNA: [LockKind; 4] = [
        LockKind::Mcs,
        LockKind::CBoMcs,
        LockKind::Cna,
        LockKind::CnaTight,
    ];

    /// The comparison set of the `fig_fissile` exhibit: the raw fast
    /// path (TATAS), the raw queue baseline (MCS), the two-level slow
    /// path (C-BO-MCS), and the graft of both (Fis-BO-MCS).
    pub const FIG_FISSILE: [LockKind; 4] = [
        LockKind::Tatas,
        LockKind::Mcs,
        LockKind::CBoMcs,
        LockKind::FisBoMcs,
    ];

    /// The comparison set of the `fig_gcr` exhibit: each GCR wrapper
    /// next to its bare inner lock, so the oversubscription sweep shows
    /// what admission restriction buys (and what it costs uncontended).
    pub const FIG_GCR: [LockKind; 6] = [
        LockKind::Mcs,
        LockKind::GcrMcs,
        LockKind::CBoMcs,
        LockKind::GcrCBoMcs,
        LockKind::FisBoMcs,
        LockKind::GcrFisBoMcs,
    ];

    /// The comparison set of the `fig_recip` exhibit: the reciprocating
    /// lock and its cohortized form next to the queue baseline (MCS),
    /// the compaction competitor (CNA), the fissile fast-path graft, and
    /// the centralized-word floor (TATAS) the saturation check uses.
    pub const FIG_RECIP: [LockKind; 6] = [
        LockKind::Tatas,
        LockKind::Mcs,
        LockKind::Cna,
        LockKind::FisBoMcs,
        LockKind::Recip,
        LockKind::CRecipMcs,
    ];

    /// Every registered kind, in registry order — the sweep set of the
    /// `lock_latency` criterion bench (uncontended overhead is measured
    /// per lock, so a kind missing here escapes regression tracking).
    pub const ALL: [LockKind; 28] = [
        LockKind::Pthread,
        LockKind::Tatas,
        LockKind::FibBo,
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Hbo,
        LockKind::HboTuned,
        LockKind::Hclh,
        LockKind::FcMcs,
        LockKind::Cna,
        LockKind::CnaTight,
        LockKind::CBoBo,
        LockKind::CTktTkt,
        LockKind::CBoMcs,
        LockKind::CTktMcs,
        LockKind::CMcsMcs,
        LockKind::FisBoMcs,
        LockKind::FisTktMcs,
        LockKind::GcrMcs,
        LockKind::GcrCBoMcs,
        LockKind::GcrFisBoMcs,
        LockKind::Recip,
        LockKind::CRecipMcs,
        LockKind::AClh,
        LockKind::AHbo,
        LockKind::ACBoBo,
        LockKind::ACBoClh,
    ];

    /// The eleven lock columns of Tables 1 and 2.
    pub const TABLES: [LockKind; 11] = [
        LockKind::Pthread,
        LockKind::FibBo,
        LockKind::Mcs,
        LockKind::Hbo,
        LockKind::HboTuned,
        LockKind::FcMcs,
        LockKind::CBoBo,
        LockKind::CTktTkt,
        LockKind::CBoMcs,
        LockKind::CTktMcs,
        LockKind::CMcsMcs,
    ];
}

/// Builds a [`CohortRwLock`] composition behind the [`BenchRwLock`]
/// interface — the one constructor shared by [`RwLockKind::make`] and
/// [`LockKind::make_rw_cache_lock`], so both paths stay in lockstep.
fn make_cohort_rw<G, L>(
    topo: &Arc<Topology>,
    policy: Option<PolicySpec>,
    fairness: RwFairness,
) -> Arc<dyn BenchRwLock>
where
    G: cohort::GlobalLock + Default + 'static,
    L: cohort::LocalCohortLock + Default + 'static,
{
    Arc::new(CohortRwAdapter::new(
        CohortRwLock::<G, L, DynPolicy>::with_policy_and_fairness(
            Arc::clone(topo),
            policy.unwrap_or_else(PolicySpec::paper_default).build(),
            fairness,
        ),
    ))
}

impl LockKind {
    /// Builds the **reader-writer cache lock** standing in for this kind
    /// when a workload runs in RW mode (the `KV_RW=1` path of `table1`):
    ///
    /// * the five non-abortable cohort kinds map to the corresponding
    ///   [`CohortRwLock`] under writer preference (their writer side *is*
    ///   this kind, so the Table-1 column keeps its meaning);
    /// * `Pthread` maps to `std::sync::RwLock` (the OS-level RW lock);
    /// * every other kind has no shared read path here and falls back to
    ///   [`MutexAsRw`] — reads stay exclusive, which the runners detect
    ///   via [`BenchRwLock::read_is_exclusive`].
    pub fn make_rw_cache_lock(
        self,
        topo: &Arc<Topology>,
        policy: Option<PolicySpec>,
    ) -> Arc<dyn BenchRwLock> {
        const WP: RwFairness = RwFairness::WriterPreference;
        match self {
            LockKind::CBoBo => make_cohort_rw::<GlobalBoLock, LocalBoLock>(topo, policy, WP),
            LockKind::CTktTkt => {
                make_cohort_rw::<base_locks::TicketLock, LocalTicketLock>(topo, policy, WP)
            }
            LockKind::CBoMcs => make_cohort_rw::<GlobalBoLock, LocalMcsLock>(topo, policy, WP),
            LockKind::CTktMcs => {
                make_cohort_rw::<base_locks::TicketLock, LocalMcsLock>(topo, policy, WP)
            }
            LockKind::CMcsMcs => {
                make_cohort_rw::<base_locks::McsLock, LocalMcsLock>(topo, policy, WP)
            }
            LockKind::Pthread => Arc::new(StdRwAdapter::new()),
            other => Arc::new(MutexAsRw::new(
                other.make_with_optional_policy(topo, policy),
            )),
        }
    }
}

/// The reader-writer locks of the `fig_rw` exhibit, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RwLockKind {
    /// `std::sync::RwLock` — NUMA-oblivious OS baseline.
    StdRw,
    /// C-RW-BO-MCS under writer preference.
    CRwWpBoMcs,
    /// C-RW-BO-MCS under neutral fairness.
    CRwNeutralBoMcs,
    /// C-RW-TKT-MCS under writer preference.
    CRwWpTktMcs,
    /// The single-writer baseline: C-BO-MCS with *reads taken
    /// exclusively* (what the pre-RW workloads did).
    MutexCBoMcs,
}

impl RwLockKind {
    /// The name used in the `fig_rw` exhibit.
    pub fn name(self) -> &'static str {
        match self {
            RwLockKind::StdRw => "std-RwLock",
            RwLockKind::CRwWpBoMcs => "C-RW-WP-BO-MCS",
            RwLockKind::CRwNeutralBoMcs => "C-RW-N-BO-MCS",
            RwLockKind::CRwWpTktMcs => "C-RW-WP-TKT-MCS",
            RwLockKind::MutexCBoMcs => "C-BO-MCS (excl)",
        }
    }

    /// Whether this is one of the cohort reader-writer locks.
    pub fn is_cohort_rw(self) -> bool {
        matches!(
            self,
            RwLockKind::CRwWpBoMcs | RwLockKind::CRwNeutralBoMcs | RwLockKind::CRwWpTktMcs
        )
    }

    /// Whether a [`PolicySpec`] applies to this kind: the cohort RW
    /// locks (it bounds their writer tenures) *and* the single-writer
    /// baseline (whose wrapped C-BO-MCS honors it — its `fig_rw.csv`
    /// rows carry the policy label).
    pub fn has_policy_knob(self) -> bool {
        self.is_cohort_rw() || matches!(self, RwLockKind::MutexCBoMcs)
    }

    /// Instantiates the lock over `topo`, honoring `policy` (writer-tenure
    /// bound) where it applies.
    pub fn make(self, topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock> {
        match self {
            RwLockKind::StdRw => Arc::new(StdRwAdapter::new()),
            RwLockKind::CRwWpBoMcs => make_cohort_rw::<GlobalBoLock, LocalMcsLock>(
                topo,
                policy,
                RwFairness::WriterPreference,
            ),
            RwLockKind::CRwNeutralBoMcs => {
                make_cohort_rw::<GlobalBoLock, LocalMcsLock>(topo, policy, RwFairness::Neutral)
            }
            RwLockKind::CRwWpTktMcs => make_cohort_rw::<base_locks::TicketLock, LocalMcsLock>(
                topo,
                policy,
                RwFairness::WriterPreference,
            ),
            RwLockKind::MutexCBoMcs => Arc::new(MutexAsRw::new(
                LockKind::CBoMcs.make_with_optional_policy(topo, policy),
            )),
        }
    }

    /// The comparison set of the `fig_rw` exhibit.
    pub const FIG_RW: [RwLockKind; 5] = [
        RwLockKind::StdRw,
        RwLockKind::MutexCBoMcs,
        RwLockKind::CRwWpBoMcs,
        RwLockKind::CRwNeutralBoMcs,
        RwLockKind::CRwWpTktMcs,
    ];
}

impl std::fmt::Display for RwLockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every lock in the repository — exclusive and reader-writer — behind
/// **one** registry surface, the one the scenario engine
/// ([`run_scenario`](crate::run_scenario)) consumes.
///
/// Exclusive kinds are erased through [`MutexAsRw`] (reads taken
/// exclusively, which the engine detects via
/// [`BenchRwLock::read_is_exclusive`] and charges through the handoff
/// channel); RW kinds construct as themselves. Either way the product is
/// an `Arc<dyn BenchRwLock>` — the single erased interface every
/// exhibit drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnyLockKind {
    /// A mutual-exclusion lock from [`LockKind`].
    Excl(LockKind),
    /// A reader-writer lock from [`RwLockKind`].
    Rw(RwLockKind),
}

impl AnyLockKind {
    /// The name used in the exhibits (delegates to the wrapped registry).
    pub fn name(self) -> &'static str {
        match self {
            AnyLockKind::Excl(k) => k.name(),
            AnyLockKind::Rw(k) => k.name(),
        }
    }

    /// Instantiates the lock over `topo`, honoring `policy` where it
    /// applies — the one constructor behind every scenario run.
    pub fn make(self, topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock> {
        match self {
            AnyLockKind::Excl(k) => {
                Arc::new(MutexAsRw::new(k.make_with_optional_policy(topo, policy)))
            }
            AnyLockKind::Rw(k) => k.make(topo, policy),
        }
    }

    /// Whether a [`PolicySpec`] applies to this kind.
    pub fn has_policy_knob(self) -> bool {
        match self {
            AnyLockKind::Excl(k) => k.has_policy_knob(),
            AnyLockKind::Rw(k) => k.has_policy_knob(),
        }
    }
}

/// Tenure bound a [`ModelledAdmission::ClusterBatched`] kind honors: the
/// deterministic projection of a [`PolicySpec`] onto the modelled runner
/// (which has no real policy object to consult — admission is decided by
/// the simulator, not the lock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenureLimit {
    /// At most `n` consecutive same-cluster handoffs per tenure
    /// ([`PolicySpec::Count`]; also [`PolicySpec::Adaptive`]'s ceiling —
    /// the modelled machine has no contention signal to adapt to, so the
    /// projection takes the widest batch the policy could ever grant).
    Count(u64),
    /// Tenure ends once it has consumed this much **virtual** time
    /// ([`PolicySpec::Time`]; [`PolicySpec::WallTime`] maps here too —
    /// modelled runs never read the wall clock, so the budget is
    /// reinterpreted over virtual nanoseconds).
    TimeNs(u64),
    /// Local handoffs never forced to end ([`PolicySpec::Unbounded`]).
    Unbounded,
    /// Every handoff goes through the global lock
    /// ([`PolicySpec::NeverPass`]): batching degenerates to FIFO.
    Never,
}

impl TenureLimit {
    /// Projects a [`PolicySpec`] onto the modelled runner.
    pub fn from_policy(spec: PolicySpec) -> Self {
        match spec {
            PolicySpec::Count { bound } => TenureLimit::Count(bound),
            PolicySpec::Time { budget_ns } | PolicySpec::WallTime { budget_ns } => {
                TenureLimit::TimeNs(budget_ns)
            }
            PolicySpec::Adaptive { max, .. } => TenureLimit::Count(max),
            PolicySpec::Unbounded => TenureLimit::Unbounded,
            PolicySpec::NeverPass => TenureLimit::Never,
        }
    }
}

/// How the modelled-coherence runner (`CostMode::Modelled`) orders
/// waiters for a kind — the *mechanism* abstraction behind the
/// deterministic simulation: what distinguishes lock families in the
/// model is only whether they prefer same-cluster waiters, exactly the
/// property the paper's analysis (§4.1.2) reduces them to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelledAdmission {
    /// Strict arrival order. Queue and backoff baselines, and also the
    /// *prior* NUMA-aware locks (HBO/HCLH/FC-MCS): their locality
    /// preference is emergent rather than policy-bounded, so the model
    /// conservatively books them as FIFO — they appear as baselines, not
    /// as cohort-equivalents, in modelled exhibits.
    Fifo,
    /// Prefer a same-cluster waiter while the tenure limit allows, then
    /// hand off to the earliest waiter overall — the cohort family, CNA
    /// (whose secondary queue is cluster batching by another name), the
    /// fissile wrappers (slow path is a cohort lock), and the GCR
    /// wrappers over policy-driven inner locks.
    ClusterBatched(TenureLimit),
    /// The Reciprocating lock's palindromic schedule: the waiting set is
    /// frozen into a *segment* at detach time and admitted newest-first;
    /// threads arriving later wait for the next segment (bounded bypass
    /// — nobody is overtaken twice in one era). Each handover touches a
    /// constant number of lines, which the succession census books as
    /// such.
    ReciprocatingStack,
}

impl AnyLockKind {
    /// The admission order the modelled runner simulates for this kind,
    /// honoring `policy` exactly where the real constructor would
    /// ([`AnyLockKind::make`] ignores the knob for non-policy kinds).
    pub fn modelled_admission(self, policy: Option<PolicySpec>) -> ModelledAdmission {
        // The plain Reciprocating lock has no policy knob yet is anything
        // but FIFO: its admission order is the detached-segment reversal.
        // (C-Recip-MCS is a cohort composition and books as
        // ClusterBatched below, like every other cohort kind.)
        match self {
            AnyLockKind::Excl(k) if k.family() == LockFamily::Reciprocating => {
                return ModelledAdmission::ReciprocatingStack
            }
            _ if !self.has_policy_knob() => return ModelledAdmission::Fifo,
            _ => {}
        }
        // CNA kinds carry their threshold in the registry; cohort
        // compositions (incl. fissile/GCR wrappers and the cohort RW
        // kinds) default to the paper's count(64).
        let default_bound = match self {
            AnyLockKind::Excl(k) => k.cna_threshold(),
            AnyLockKind::Rw(_) => None,
        }
        .unwrap_or(cohort::CountBound::PAPER_BOUND);
        let limit = match policy {
            Some(spec) => TenureLimit::from_policy(spec),
            None => TenureLimit::Count(default_bound),
        };
        ModelledAdmission::ClusterBatched(limit)
    }
}

impl From<LockKind> for AnyLockKind {
    fn from(k: LockKind) -> Self {
        AnyLockKind::Excl(k)
    }
}

impl From<RwLockKind> for AnyLockKind {
    fn from(k: RwLockKind) -> Self {
        AnyLockKind::Rw(k)
    }
}

impl std::fmt::Display for AnyLockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Display for LockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_constructs_and_locks() {
        let topo = Arc::new(Topology::new(4));
        for kind in LockKind::ALL {
            let lock = kind.make(&topo);
            lock.acquire();
            lock.release();
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn all_is_exhaustive_and_duplicate_free() {
        // Compiler guard for LockKind::ALL: this wildcard-free match
        // fails to compile the moment a variant is added to the enum —
        // the fix is to add it BOTH here and to ALL, which the
        // membership assertion below then verifies.
        fn member_of_all(k: LockKind) {
            match k {
                LockKind::Pthread
                | LockKind::Tatas
                | LockKind::FibBo
                | LockKind::Ticket
                | LockKind::Mcs
                | LockKind::Clh
                | LockKind::Hbo
                | LockKind::HboTuned
                | LockKind::Hclh
                | LockKind::FcMcs
                | LockKind::Cna
                | LockKind::CnaTight
                | LockKind::CBoBo
                | LockKind::CTktTkt
                | LockKind::CBoMcs
                | LockKind::CTktMcs
                | LockKind::CMcsMcs
                | LockKind::FisBoMcs
                | LockKind::FisTktMcs
                | LockKind::GcrMcs
                | LockKind::GcrCBoMcs
                | LockKind::GcrFisBoMcs
                | LockKind::Recip
                | LockKind::CRecipMcs
                | LockKind::AClh
                | LockKind::AHbo
                | LockKind::ACBoBo
                | LockKind::ACBoClh => {
                    assert!(LockKind::ALL.contains(&k), "{k} missing from ALL")
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for kind in LockKind::ALL {
            member_of_all(kind);
            assert!(seen.insert(kind), "{kind} listed twice in ALL");
        }
    }

    #[test]
    fn fig6_locks_are_abortable() {
        let topo = Arc::new(Topology::new(4));
        for kind in LockKind::FIG6 {
            assert!(kind.make(&topo).is_abortable(), "{kind} must abort");
        }
    }

    #[test]
    fn cohort_classification() {
        use LockFamily::*;
        assert_eq!(LockKind::CBoMcs.family(), Cohort);
        assert_eq!(LockKind::ACBoClh.family(), Cohort);
        assert_eq!(LockKind::FcMcs.family(), Plain);
        assert_eq!(LockKind::Hbo.family(), Plain);
        // CNA is policy-driven but not a cohort lock.
        assert_eq!(LockKind::Cna.family(), Cna);
        assert!(LockKind::CnaTight.has_policy_knob());
        assert!(LockKind::CBoMcs.has_policy_knob());
        assert!(!LockKind::Mcs.has_policy_knob());
        // Fissile wrappers are policy-driven through their slow path but
        // are neither plain cohort locks nor CNA.
        assert_eq!(LockKind::FisBoMcs.family(), Fissile);
        assert!(LockKind::FisTktMcs.has_policy_knob());
        assert_eq!(LockKind::Tatas.family(), Plain);
        // GCR wrappers are their own family: the policy knob applies
        // only where the wrapped lock is policy-driven.
        for k in [LockKind::GcrMcs, LockKind::GcrCBoMcs, LockKind::GcrFisBoMcs] {
            assert!(matches!(k.family(), Gcr { .. }), "{k}");
        }
        assert!(!LockKind::GcrMcs.has_policy_knob());
        assert!(LockKind::GcrCBoMcs.has_policy_knob());
        assert!(LockKind::GcrFisBoMcs.has_policy_knob());
        // The reciprocating family: the plain lock has no policy knob
        // (its admission order is structural, not tunable), while the
        // cohortized form is a full cohort composition.
        assert_eq!(LockKind::Recip.family(), Reciprocating);
        assert!(!LockKind::Recip.has_policy_knob());
        assert_eq!(LockKind::CRecipMcs.family(), Cohort);
        assert!(LockKind::CRecipMcs.has_policy_knob());
        assert_eq!(LockKind::Cna.cna_threshold(), Some(64));
        assert_eq!(
            LockKind::CnaTight.cna_threshold(),
            Some(LockKind::CNA_TIGHT_THRESHOLD)
        );
        assert_eq!(LockKind::Mcs.cna_threshold(), None);
    }

    #[test]
    fn cohort_kinds_report_stats_and_others_do_not() {
        let topo = Arc::new(Topology::new(4));
        for kind in [
            LockKind::CBoBo,
            LockKind::CTktMcs,
            LockKind::CRecipMcs,
            LockKind::ACBoClh,
            LockKind::Cna,
            LockKind::CnaTight,
        ] {
            let lock = kind.make(&topo);
            lock.acquire();
            lock.release();
            let stats = lock
                .cohort_stats()
                .expect("policy-driven locks expose stats");
            assert_eq!(stats.tenures(), 1, "{kind}");
            assert_eq!(stats.global_releases(), 1, "{kind}");
        }
        assert!(LockKind::Mcs.make(&topo).cohort_stats().is_none());
        assert!(LockKind::Recip.make(&topo).cohort_stats().is_none());
        assert!(LockKind::Pthread.make(&topo).cohort_stats().is_none());
    }

    #[test]
    fn fissile_kinds_report_fast_slow_accounting() {
        let topo = Arc::new(Topology::new(4));
        for kind in [LockKind::FisBoMcs, LockKind::FisTktMcs] {
            let lock = kind.make(&topo);
            lock.acquire();
            lock.release();
            let stats = lock.cohort_stats().expect("fissile locks expose stats");
            assert_eq!(stats.fast_acquisitions, 1, "{kind}: uncontended = fast");
            assert_eq!(stats.slow_acquisitions, 0, "{kind}");
            assert_eq!(stats.tenures(), 0, "{kind}: fast path skips the cohort");
            assert_eq!(lock.policy_label().as_deref(), Some("count(64)"), "{kind}");
        }
        // The policy knob reaches the fissile slow path like any cohort kind.
        let lock = LockKind::FisBoMcs
            .make_with_optional_policy(&topo, Some(PolicySpec::Time { budget_ns: 7 }));
        assert_eq!(lock.policy_label().as_deref(), Some("time(7ns)"));
    }

    #[test]
    fn gcr_kinds_report_admission_accounting() {
        let topo = Arc::new(Topology::new(4));
        for kind in [LockKind::GcrMcs, LockKind::GcrCBoMcs, LockKind::GcrFisBoMcs] {
            let lock = kind.make(&topo);
            lock.acquire();
            lock.release();
            let stats = lock.cohort_stats().expect("GCR kinds expose stats");
            assert_eq!(stats.passive_parks, 0, "{kind}: uncontended never parks");
            assert_eq!(stats.promotions, 0, "{kind}");
        }
        // The inner lock's own accounting passes through the wrapper.
        let lock = LockKind::GcrCBoMcs.make(&topo);
        lock.acquire();
        lock.release();
        let stats = lock.cohort_stats().unwrap();
        assert_eq!(stats.tenures(), 1, "inner cohort tenure visible");
        assert_eq!(lock.policy_label().as_deref(), Some("count(64)"));
        // A plain inner lock has no policy: the adapter reports "-".
        assert_eq!(
            LockKind::GcrMcs.make(&topo).policy_label().as_deref(),
            Some("-")
        );
        // The policy knob reaches the wrapped lock like any cohort kind.
        let lock = LockKind::GcrFisBoMcs
            .make_with_optional_policy(&topo, Some(PolicySpec::Time { budget_ns: 5 }));
        assert_eq!(lock.policy_label().as_deref(), Some("time(5ns)"));
    }

    #[test]
    fn cna_threshold_variants_report_their_labels() {
        let topo = Arc::new(Topology::new(4));
        assert_eq!(
            LockKind::Cna.make(&topo).policy_label().as_deref(),
            Some("count(64)"),
            "paper-comparable threshold"
        );
        assert_eq!(
            LockKind::CnaTight.make(&topo).policy_label().as_deref(),
            Some("count(4)")
        );
        // The policy knob reaches CNA exactly as it reaches cohort kinds.
        let lock =
            LockKind::Cna.make_with_optional_policy(&topo, Some(PolicySpec::Time { budget_ns: 9 }));
        assert_eq!(lock.policy_label().as_deref(), Some("time(9ns)"));
    }

    #[test]
    fn every_rw_kind_constructs_and_locks() {
        let topo = Arc::new(Topology::new(4));
        for kind in RwLockKind::FIG_RW {
            for policy in [None, Some(PolicySpec::Count { bound: 4 })] {
                let lock = kind.make(&topo, policy);
                lock.acquire_read();
                lock.release_read();
                lock.acquire_write();
                lock.release_write();
                assert!(!kind.name().is_empty());
                if kind.is_cohort_rw() {
                    let stats = lock.cohort_stats().expect("cohort RW exposes stats");
                    assert!(stats.tenures() >= 1, "{kind}: write acquisitions counted");
                    if policy.is_some() {
                        assert_eq!(lock.policy_label().as_deref(), Some("count(4)"), "{kind}");
                    }
                }
            }
        }
        assert!(RwLockKind::StdRw.make(&topo, None).cohort_stats().is_none());
        assert!(RwLockKind::MutexCBoMcs
            .make(&topo, None)
            .read_is_exclusive());
    }

    #[test]
    fn rw_cache_lock_mapping_covers_all_table_kinds() {
        let topo = Arc::new(Topology::new(4));
        for kind in LockKind::TABLES {
            let lock = kind.make_rw_cache_lock(&topo, None);
            lock.acquire_read();
            lock.release_read();
            lock.acquire_write();
            lock.release_write();
            let cohort = kind.family() == LockFamily::Cohort;
            let shared_reads = cohort || kind == LockKind::Pthread;
            assert_eq!(
                lock.read_is_exclusive(),
                !shared_reads,
                "{kind}: only cohort kinds and pthread gain a shared read path"
            );
            if cohort {
                assert!(lock.cohort_stats().is_some(), "{kind}");
            }
        }
    }

    #[test]
    fn any_kind_unifies_both_registries() {
        let topo = Arc::new(Topology::new(4));
        // Exclusive kinds flow through MutexAsRw: reads are exclusive,
        // the full BenchLock surface (stats, abortability) passes through.
        let excl = AnyLockKind::from(LockKind::CBoMcs).make(&topo, None);
        assert!(excl.read_is_exclusive());
        assert!(!excl.is_abortable());
        excl.acquire_write();
        excl.release_write();
        excl.acquire_read();
        excl.release_read();
        assert!(excl.cohort_stats().is_some());
        assert_eq!(excl.policy_label().as_deref(), Some("count(64)"));

        let abortable = AnyLockKind::Excl(LockKind::ACBoClh).make(&topo, None);
        assert!(abortable.is_abortable());
        assert!(abortable.acquire_write_with_patience(1_000_000_000));
        abortable.release_write();

        // RW kinds construct as themselves: genuinely shared reads.
        let rw = AnyLockKind::from(RwLockKind::CRwWpBoMcs).make(&topo, None);
        assert!(!rw.read_is_exclusive());
        assert!(!rw.is_abortable());
        rw.acquire_read();
        rw.release_read();

        // One name/policy surface over both.
        assert_eq!(AnyLockKind::Excl(LockKind::Mcs).name(), "MCS");
        assert_eq!(AnyLockKind::Rw(RwLockKind::StdRw).name(), "std-RwLock");
        assert!(AnyLockKind::Excl(LockKind::Cna).has_policy_knob());
        assert!(AnyLockKind::Rw(RwLockKind::CRwWpBoMcs).has_policy_knob());
        assert!(
            AnyLockKind::Rw(RwLockKind::MutexCBoMcs).has_policy_knob(),
            "the single-writer baseline's wrapped cohort lock honors the knob"
        );
        assert!(!AnyLockKind::Rw(RwLockKind::StdRw).has_policy_knob());
        let with_policy =
            AnyLockKind::Excl(LockKind::CTktMcs).make(&topo, Some(PolicySpec::Count { bound: 2 }));
        assert_eq!(with_policy.policy_label().as_deref(), Some("count(2)"));
    }

    #[test]
    fn modelled_admission_mirrors_the_policy_knob() {
        use ModelledAdmission::*;
        // FIFO: queue/backoff baselines and the prior NUMA locks.
        for k in [
            LockKind::Mcs,
            LockKind::Tatas,
            LockKind::Hbo,
            LockKind::Hclh,
            LockKind::FcMcs,
            LockKind::GcrMcs,
        ] {
            assert_eq!(AnyLockKind::Excl(k).modelled_admission(None), Fifo, "{k}");
        }
        assert_eq!(
            AnyLockKind::Rw(RwLockKind::StdRw).modelled_admission(None),
            Fifo
        );
        // Batched: cohort family at the paper bound, CNA at its own.
        for k in [LockKind::CBoMcs, LockKind::FisBoMcs, LockKind::GcrCBoMcs] {
            assert_eq!(
                AnyLockKind::Excl(k).modelled_admission(None),
                ClusterBatched(TenureLimit::Count(cohort::CountBound::PAPER_BOUND)),
                "{k}"
            );
        }
        assert_eq!(
            AnyLockKind::Excl(LockKind::CnaTight).modelled_admission(None),
            ClusterBatched(TenureLimit::Count(LockKind::CNA_TIGHT_THRESHOLD))
        );
        assert_eq!(
            AnyLockKind::Rw(RwLockKind::CRwWpBoMcs).modelled_admission(None),
            ClusterBatched(TenureLimit::Count(cohort::CountBound::PAPER_BOUND))
        );
        // The policy knob projects exactly where the constructor honors it.
        assert_eq!(
            AnyLockKind::Excl(LockKind::CBoMcs)
                .modelled_admission(Some(PolicySpec::Time { budget_ns: 9 })),
            ClusterBatched(TenureLimit::TimeNs(9))
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::CBoMcs)
                .modelled_admission(Some(PolicySpec::Adaptive { min: 2, max: 8 })),
            ClusterBatched(TenureLimit::Count(8))
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::CBoMcs).modelled_admission(Some(PolicySpec::NeverPass)),
            ClusterBatched(TenureLimit::Never)
        );
        // ...and is ignored where it would be ignored.
        assert_eq!(
            AnyLockKind::Excl(LockKind::Mcs)
                .modelled_admission(Some(PolicySpec::Count { bound: 2 })),
            Fifo
        );
        // The reciprocating family: plain Recip has no policy knob yet
        // is NOT FIFO — its structural admission order wins even when a
        // (ignored) policy is passed; the cohortized form books like any
        // cohort kind.
        assert_eq!(
            AnyLockKind::Excl(LockKind::Recip).modelled_admission(None),
            ReciprocatingStack
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::Recip)
                .modelled_admission(Some(PolicySpec::Count { bound: 2 })),
            ReciprocatingStack
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::CRecipMcs).modelled_admission(None),
            ClusterBatched(TenureLimit::Count(cohort::CountBound::PAPER_BOUND))
        );
    }

    #[test]
    fn make_with_policy_builds_every_cohort_kind() {
        let topo = Arc::new(Topology::new(4));
        let cohorts = [
            LockKind::CBoBo,
            LockKind::CTktTkt,
            LockKind::CBoMcs,
            LockKind::CTktMcs,
            LockKind::CMcsMcs,
            LockKind::CRecipMcs,
            LockKind::FisBoMcs,
            LockKind::FisTktMcs,
            LockKind::GcrCBoMcs,
            LockKind::GcrFisBoMcs,
            LockKind::ACBoBo,
            LockKind::ACBoClh,
            LockKind::Cna,
            LockKind::CnaTight,
        ];
        for kind in cohorts {
            for policy in [
                PolicySpec::Count { bound: 3 },
                PolicySpec::Time { budget_ns: 10_000 },
                PolicySpec::Adaptive { min: 2, max: 8 },
                PolicySpec::Unbounded,
                PolicySpec::NeverPass,
            ] {
                let lock = kind.make_with_policy(&topo, policy);
                lock.acquire();
                lock.release();
                assert!(lock.cohort_stats().is_some(), "{kind} under {policy}");
            }
        }
        // Non-cohort kinds fall back to the plain constructor.
        let mcs = LockKind::Mcs.make_with_policy(&topo, PolicySpec::NeverPass);
        mcs.acquire();
        mcs.release();
        assert!(mcs.cohort_stats().is_none());
    }
}
