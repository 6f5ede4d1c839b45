//! Workload manifests: the tenant→manifest registry.
//!
//! The static discharge pass (`jinn_core::discharge`) proves which
//! machine transitions a workload's call-site manifest can never
//! trigger. A tenant *declares* its manifest (the `Manifest` ingest
//! frame / [`crate::DaemonHandle::declare_manifest`]) — or the daemon
//! *learns* one from the union of the tenant's first K judged sessions
//! — and the registry keeps it as the tenant's function set. The
//! declaration's ack is the discharge report for that set
//! ([`ManifestSummary`]).
//!
//! ## A manifest is an audit
//!
//! Verdicts never depend on the manifest: every session replays under
//! the full checker stack and rolls up on the daemon's one engine pool.
//! The judge only checks the trace's own call-site set against the
//! tenant's manifest: a covered session is flagged
//! `SessionStats::manifest_covered`, one that calls outside it
//! `SessionStats::discharge_fallback`, so a lying manifest is visible,
//! never trusted. Learned manifests widen on fallback (the union grows);
//! declared manifests stay as declared and keep flagging.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use jinn_core::{discharge, WorkloadManifest};

use crate::json::{self, JsonObj};

/// How a tenant's manifest came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestSource {
    /// The tenant declared it (frame or API).
    Declared,
    /// The daemon learned it from the tenant's first sessions.
    Learned,
}

impl ManifestSource {
    /// Stable string form for JSON surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            ManifestSource::Declared => "declared",
            ManifestSource::Learned => "learned",
        }
    }
}

/// What a manifest declaration did — the ack surfaced to the client.
#[derive(Debug, Clone)]
pub struct ManifestSummary {
    /// The tenant the manifest now applies to.
    pub tenant: String,
    /// Callable functions in the manifest.
    pub functions: u64,
    /// Manifest entries unknown to the JNI registry. Kept callable and
    /// reported — a misspelled manifest weakens discharge, it does not
    /// fail the declaration.
    pub unknown_functions: Vec<String>,
    /// Transitions across all machines.
    pub total_transitions: u64,
    /// Transitions the manifest provably never triggers.
    pub discharged: u64,
    /// Machines the manifest leaves fully inactive.
    pub inactive_machines: Vec<String>,
    /// Machines with at least one transition the manifest can trigger.
    pub active_machines: u64,
    /// Whether this declaration replaced an earlier manifest (or a
    /// learning window) for the tenant.
    pub replaced: bool,
}

impl ManifestSummary {
    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("tenant", &self.tenant)
            .num("functions", self.functions)
            .raw(
                "unknown_functions",
                json::list(self.unknown_functions.iter().map(|f| json::escape(f))),
            )
            .num("total_transitions", self.total_transitions)
            .num("discharged", self.discharged)
            .raw(
                "inactive_machines",
                json::list(self.inactive_machines.iter().map(|m| json::escape(m))),
            )
            .num("active_machines", self.active_machines)
            .bool("replaced", self.replaced)
            .build()
    }
}

/// Point-in-time registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManifestRegistryStats {
    /// Tenants currently holding a manifest (declared or learned).
    pub manifested_tenants: u64,
    /// Tenants currently inside a learning window.
    pub learning_tenants: u64,
    /// Manifests ever declared (including replacements).
    pub declared: u64,
    /// Manifests ever learned from session unions.
    pub learned: u64,
    /// Learned manifests widened after a fallback.
    pub widened: u64,
}

enum TenantState {
    /// Judging against a manifest.
    Active {
        source: ManifestSource,
        functions: Arc<BTreeSet<String>>,
    },
    /// Accumulating the call-site union of the first sessions.
    Learning {
        sessions: u64,
        union: BTreeSet<String>,
    },
}

#[derive(Default)]
struct RegistryInner {
    tenants: HashMap<String, TenantState>,
    declared: u64,
    learned: u64,
    widened: u64,
}

/// The daemon's tenant→manifest registry (see the module docs).
#[derive(Default)]
pub(crate) struct ManifestRegistry {
    inner: Mutex<RegistryInner>,
}

/// Poison recovery mirrors the engine pool's: registry state is plain
/// owned data, structurally sound even if a holder panicked.
fn lock(m: &Mutex<RegistryInner>) -> MutexGuard<'_, RegistryInner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ManifestRegistry {
    /// Declares (or replaces) a tenant's manifest and returns the ack:
    /// the discharge report for the declared function set.
    pub(crate) fn declare(&self, tenant: &str, functions: &[String]) -> ManifestSummary {
        let manifest = WorkloadManifest::new(tenant, functions.iter().map(String::as_str));
        let machines = jinn_spec::machines();
        let report = discharge(&machines, &manifest);
        let inactive_machines: Vec<String> = report
            .inactive_machines()
            .iter()
            .map(|m| m.to_string())
            .collect();
        let set: BTreeSet<String> = functions.iter().cloned().collect();
        let summary = ManifestSummary {
            tenant: tenant.to_string(),
            functions: set.len() as u64,
            unknown_functions: manifest.unknown_functions().to_vec(),
            total_transitions: report.total_transitions() as u64,
            discharged: report.total_discharged() as u64,
            active_machines: (machines.len() - inactive_machines.len()) as u64,
            inactive_machines,
            replaced: false,
        };
        let mut inner = lock(&self.inner);
        let replaced = inner
            .tenants
            .insert(
                tenant.to_string(),
                TenantState::Active {
                    source: ManifestSource::Declared,
                    functions: Arc::new(set),
                },
            )
            .is_some();
        inner.declared += 1;
        ManifestSummary {
            replaced,
            ..summary
        }
    }

    /// The function set `tenant` is judged against, if it has a
    /// manifest.
    pub(crate) fn manifest_for(&self, tenant: &str) -> Option<Arc<BTreeSet<String>>> {
        match lock(&self.inner).tenants.get(tenant) {
            Some(TenantState::Active { functions, .. }) => Some(Arc::clone(functions)),
            _ => None,
        }
    }

    /// Feeds one judged session back into the registry: advances the
    /// tenant's learning window (when `learn_after > 0` and nothing is
    /// declared) and widens a learned manifest whose session fell back.
    /// Declared manifests never widen — a lying manifest keeps flagging.
    pub(crate) fn observe_judged(
        &self,
        tenant: &str,
        called: &BTreeSet<String>,
        fell_back: bool,
        learn_after: u64,
    ) {
        let mut inner = lock(&self.inner);
        match inner.tenants.get_mut(tenant) {
            Some(TenantState::Active {
                source: ManifestSource::Learned,
                functions,
            }) => {
                if !fell_back {
                    return;
                }
                Arc::make_mut(functions).extend(called.iter().cloned());
                inner.widened += 1;
            }
            Some(TenantState::Active { .. }) => {}
            Some(TenantState::Learning { sessions, union }) => {
                *sessions += 1;
                union.extend(called.iter().cloned());
                if *sessions >= learn_after {
                    let functions = Arc::new(std::mem::take(union));
                    inner.tenants.insert(
                        tenant.to_string(),
                        TenantState::Active {
                            source: ManifestSource::Learned,
                            functions,
                        },
                    );
                    inner.learned += 1;
                }
            }
            None => {
                if learn_after == 0 {
                    return;
                }
                let union = called.clone();
                if learn_after == 1 {
                    inner.tenants.insert(
                        tenant.to_string(),
                        TenantState::Active {
                            source: ManifestSource::Learned,
                            functions: Arc::new(union),
                        },
                    );
                    inner.learned += 1;
                } else {
                    inner.tenants.insert(
                        tenant.to_string(),
                        TenantState::Learning { sessions: 1, union },
                    );
                }
            }
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> ManifestRegistryStats {
        let inner = lock(&self.inner);
        let mut manifested = 0u64;
        let mut learning = 0u64;
        for state in inner.tenants.values() {
            match state {
                TenantState::Active { .. } => manifested += 1,
                TenantState::Learning { .. } => learning += 1,
            }
        }
        ManifestRegistryStats {
            manifested_tenants: manifested,
            learning_tenants: learning,
            declared: inner.declared,
            learned: inner.learned,
            widened: inner.widened,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(registry: &ManifestRegistry, tenant: &str, called: &BTreeSet<String>) -> bool {
        let manifest = registry
            .manifest_for(tenant)
            .expect("tenant has a manifest");
        called.is_subset(&manifest)
    }

    #[test]
    fn table3_manifest_reports_its_discharge() {
        let functions: Vec<String> = jinn_workloads::TABLE3_CALLED_FUNCTIONS
            .iter()
            .map(|f| f.to_string())
            .collect();
        let summary = ManifestRegistry::default().declare("table3-mix", &functions);
        // Pinned by DISCHARGE_bench.json: monitor and critical-section
        // are fully inactive for this mix.
        assert!(summary
            .inactive_machines
            .iter()
            .any(|m| m == "critical-section"));
        assert!(summary.inactive_machines.iter().any(|m| m == "monitor"));
        assert_eq!(
            summary.active_machines as usize + summary.inactive_machines.len(),
            jinn_spec::machines().len()
        );
        assert!(summary.discharged > 0);
        assert!(summary.unknown_functions.is_empty());
    }

    #[test]
    fn redeclaration_replaces_and_unknown_functions_survive() {
        let registry = ManifestRegistry::default();
        let first = registry.declare("t", &["NewGlobalRef".to_string()]);
        assert!(!first.replaced);
        let second = registry.declare(
            "t",
            &["NewGlobalRef".to_string(), "NotARealJniFn".to_string()],
        );
        assert!(second.replaced);
        assert_eq!(second.unknown_functions, vec!["NotARealJniFn".to_string()]);
        assert_eq!(registry.stats().declared, 2);
        assert_eq!(registry.stats().manifested_tenants, 1);
        // Unknown names stay in the tenant's function set.
        let unknown: BTreeSet<String> = ["NotARealJniFn".to_string()].into();
        assert!(covers(&registry, "t", &unknown));
    }

    #[test]
    fn learning_window_promotes_after_k_sessions_and_widens_on_fallback() {
        let registry = ManifestRegistry::default();
        let s1: BTreeSet<String> = ["NewGlobalRef".to_string()].into();
        let s2: BTreeSet<String> = ["DeleteGlobalRef".to_string()].into();
        registry.observe_judged("t", &s1, false, 2);
        assert!(registry.manifest_for("t").is_none(), "still learning");
        registry.observe_judged("t", &s2, false, 2);
        assert!(covers(&registry, "t", &s1) && covers(&registry, "t", &s2));
        assert_eq!(registry.stats().learned, 1);
        // A fallback widens the learned manifest.
        let s3: BTreeSet<String> = ["MonitorEnter".to_string()].into();
        registry.observe_judged("t", &s3, true, 2);
        assert!(covers(&registry, "t", &s3), "union grew");
        assert_eq!(registry.stats().widened, 1);
        // Declared manifests never widen.
        registry.declare("d", &["NewGlobalRef".to_string()]);
        registry.observe_judged("d", &s3, true, 2);
        assert!(
            !covers(&registry, "d", &s3),
            "declared manifest stays as declared"
        );
    }

    #[test]
    fn learning_disabled_when_learn_after_is_zero() {
        let registry = ManifestRegistry::default();
        let s: BTreeSet<String> = ["NewGlobalRef".to_string()].into();
        for _ in 0..5 {
            registry.observe_judged("t", &s, false, 0);
        }
        assert!(registry.manifest_for("t").is_none());
        assert_eq!(registry.stats().learning_tenants, 0);
    }
}
