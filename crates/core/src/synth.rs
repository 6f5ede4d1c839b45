//! The synthesizer — Algorithm 1 of the paper.
//!
//! Input: the eleven state-machine specifications and their
//! `languageTransitionsFor` mapping (crate `jinn-spec`), plus the JNI
//! function registry (crate `minijni`). Output: for every one of the 229
//! JNI functions, the ordered pre-call and post-return check lists its
//! synthesized wrapper executes. The runtime checker
//! ([`crate::Jinn`]) interprets this table; the C backend
//! ([`crate::codegen`]) prints it as wrapper source code.
//!
//! The module also hosts the **static discharge pass**
//! ([`discharge`]): given a [`WorkloadManifest`] of JNI functions a
//! workload can actually call, it proves machine transitions
//! untriggerable (every trigger names only uncallable functions) or
//! unreachable (the source state cannot be entered once untriggerable
//! transitions are removed) and emits a machine-readable
//! [`DischargeReport`]. Discharged transitions can then be compiled out
//! with [`jinn_fsm::CompiledMachine::compile_discharged`] — sound
//! because an elided transition answers `NotApplicable` exactly like a
//! transition whose trigger never fires.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use jinn_fsm::{MachineSpec, TransitionId};
use jinn_spec::{instrumentation, Check, InstrPoint, Phase, BOUNDARY_CHECKS};
use minijni::registry;

/// The synthesized per-function check table.
#[derive(Debug, Clone)]
pub struct CheckTable {
    pre: Vec<Vec<InstrPoint>>,
    post: Vec<Vec<InstrPoint>>,
}

impl CheckTable {
    /// Pre-call checks for a function.
    pub fn pre(&self, func: minijni::FuncId) -> &[InstrPoint] {
        &self.pre[func.0 as usize]
    }

    /// Post-return checks for a function.
    pub fn post(&self, func: minijni::FuncId) -> &[InstrPoint] {
        &self.post[func.0 as usize]
    }

    /// Total number of synthesized checks.
    pub fn len(&self) -> usize {
        self.pre.iter().map(Vec::len).sum::<usize>() + self.post.iter().map(Vec::len).sum::<usize>()
    }

    /// Drops every check belonging to machines rejected by `keep` — the
    /// ablation knob: synthesizing from a subset of the eleven machines.
    pub fn retain_machines(&mut self, keep: impl Fn(&'static str) -> bool) {
        for list in self.pre.iter_mut().chain(self.post.iter_mut()) {
            list.retain(|p| keep(p.machine));
        }
    }

    /// A check table is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Statistics about one synthesis run, for the `codegen_stats` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthStats {
    /// Number of input state machines.
    pub machines: usize,
    /// Number of resolved instrumentation points (the cross product).
    pub instr_points: usize,
    /// Functions that received at least one check (all 229).
    pub wrapped_functions: usize,
    /// Driver-side checks at the native-method boundary.
    pub boundary_checks: usize,
    /// Non-comment lines of specification input.
    pub spec_lines: usize,
}

/// Runs Algorithm 1: expands machines × transitions × triggers into the
/// per-function check table.
pub fn synthesize() -> (CheckTable, SynthStats) {
    let reg = registry();
    let n = reg.len();
    let mut pre: Vec<Vec<InstrPoint>> = vec![Vec::new(); n];
    let mut post: Vec<Vec<InstrPoint>> = vec![Vec::new(); n];
    let points = instrumentation();
    let instr_points = points.len();
    for p in points {
        match p.phase {
            Phase::Pre => pre[p.func.0 as usize].push(p),
            Phase::Post => post[p.func.0 as usize].push(p),
        }
    }
    let wrapped_functions = (0..n)
        .filter(|&i| !pre[i].is_empty() || !post[i].is_empty())
        .count();
    let stats = SynthStats {
        machines: jinn_spec::machines().len(),
        instr_points,
        wrapped_functions,
        boundary_checks: BOUNDARY_CHECKS.len(),
        spec_lines: jinn_spec::spec_source_lines(),
    };
    (CheckTable { pre, post }, stats)
}

/// The memoized synthesis result. Algorithm 1 is a pure function of the
/// in-tree specifications, so it runs once per process. Every
/// [`crate::Jinn`] borrows this table; only an ablation, which needs a
/// private pruned table, clones it instead of re-expanding machines ×
/// transitions × triggers. The fleet-serving daemon constructs one
/// checker per ingested session, which is what makes sharing matter.
pub fn synthesize_cached() -> (&'static CheckTable, SynthStats) {
    static CACHE: OnceLock<(CheckTable, SynthStats)> = OnceLock::new();
    let (table, stats) = CACHE.get_or_init(synthesize);
    (table, *stats)
}

/// The set of JNI functions one workload's native code can call — the
/// call-site metadata input to the static [`discharge`] pass.
///
/// Construction validates every name against the function registry
/// without panicking: names the registry does not know are kept — and
/// conservatively treated as callable — but surfaced via
/// [`WorkloadManifest::unknown_functions`] so an audit can flag a
/// misspelled manifest instead of silently weakening discharge.
#[derive(Debug, Clone)]
pub struct WorkloadManifest {
    name: String,
    called: BTreeSet<String>,
    unknown: Vec<String>,
}

impl WorkloadManifest {
    /// Builds a manifest from a workload name and its callable functions.
    pub fn new<I, S>(name: impl Into<String>, functions: I) -> WorkloadManifest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let reg = registry();
        let called: BTreeSet<String> = functions.into_iter().map(Into::into).collect();
        let unknown: Vec<String> = called
            .iter()
            .filter(|f| !reg.iter().any(|(_, s)| s.name == **f))
            .cloned()
            .collect();
        WorkloadManifest {
            name: name.into(),
            called,
            unknown,
        }
    }

    /// The workload's name, carried into the report.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the workload can call `func`.
    pub fn can_call(&self, func: &str) -> bool {
        self.called.contains(func)
    }

    /// Manifest entries the registry does not know (kept callable).
    pub fn unknown_functions(&self) -> &[String] {
        &self.unknown
    }

    /// The callable functions in sorted order — the manifest's stable
    /// identity, used for wire serialization.
    pub fn functions(&self) -> impl Iterator<Item = &str> {
        self.called.iter().map(String::as_str)
    }

    /// Number of callable functions.
    pub fn len(&self) -> usize {
        self.called.len()
    }

    /// True if the manifest lists no callable functions.
    pub fn is_empty(&self) -> bool {
        self.called.is_empty()
    }
}

/// Why a transition was statically discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DischargeReason {
    /// Every trigger names only functions the workload cannot call.
    TriggerAbsent,
    /// The source state cannot be entered once `TriggerAbsent`
    /// transitions are removed from the machine.
    SourceUnreachable,
}

impl DischargeReason {
    /// Stable string form, used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            DischargeReason::TriggerAbsent => "trigger_absent",
            DischargeReason::SourceUnreachable => "source_unreachable",
        }
    }
}

/// One transition proven untriggerable for a workload.
#[derive(Debug, Clone)]
pub struct DischargedTransition {
    /// The transition's id in its machine.
    pub id: TransitionId,
    /// The transition's name.
    pub transition: String,
    /// Why it was discharged.
    pub reason: DischargeReason,
}

/// The discharge result for one machine.
#[derive(Debug, Clone)]
pub struct MachineDischarge {
    /// The machine's name.
    pub machine: String,
    /// Total transitions in the machine.
    pub total_transitions: usize,
    /// Transitions proven untriggerable, in id order.
    pub discharged: Vec<DischargedTransition>,
    /// True when *every* transition was discharged: the machine can
    /// never leave its initial state under this workload, so its checks
    /// need not run at all.
    pub inactive: bool,
}

impl MachineDischarge {
    /// The transition ids to pass to
    /// [`jinn_fsm::CompiledMachine::compile_discharged`].
    pub fn elided(&self) -> Vec<TransitionId> {
        self.discharged.iter().map(|d| d.id).collect()
    }
}

/// The full static discharge report for one workload across a set of
/// machines — the artifact the serving and replay layers surface.
#[derive(Debug, Clone)]
pub struct DischargeReport {
    /// The workload's name (from the manifest).
    pub workload: String,
    /// Callable-function count in the manifest.
    pub manifest_functions: usize,
    /// Manifest entries unknown to the registry (audit trail).
    pub unknown_functions: Vec<String>,
    /// Per-machine results, in input order.
    pub machines: Vec<MachineDischarge>,
}

impl DischargeReport {
    /// The result for one machine, by name.
    pub fn for_machine(&self, name: &str) -> Option<&MachineDischarge> {
        self.machines.iter().find(|m| m.machine == name)
    }

    /// The elided transition ids for one machine (empty if unknown).
    pub fn elided_for(&self, name: &str) -> Vec<TransitionId> {
        self.for_machine(name).map_or(Vec::new(), |m| m.elided())
    }

    /// Total transitions across all machines.
    pub fn total_transitions(&self) -> usize {
        self.machines.iter().map(|m| m.total_transitions).sum()
    }

    /// Total discharged transitions across all machines.
    pub fn total_discharged(&self) -> usize {
        self.machines.iter().map(|m| m.discharged.len()).sum()
    }

    /// Names of machines that are entirely inactive for this workload.
    pub fn inactive_machines(&self) -> Vec<&str> {
        self.machines
            .iter()
            .filter(|m| m.inactive)
            .map(|m| m.machine.as_str())
            .collect()
    }

    /// Serializes the report as JSON (hand-rolled; no serde in-tree).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", esc(&self.workload)));
        out.push_str(&format!(
            "  \"manifest_functions\": {},\n",
            self.manifest_functions
        ));
        let unknown: Vec<String> = self
            .unknown_functions
            .iter()
            .map(|f| format!("\"{}\"", esc(f)))
            .collect();
        out.push_str(&format!(
            "  \"unknown_functions\": [{}],\n",
            unknown.join(", ")
        ));
        out.push_str(&format!(
            "  \"total_transitions\": {},\n",
            self.total_transitions()
        ));
        out.push_str(&format!(
            "  \"total_discharged\": {},\n",
            self.total_discharged()
        ));
        let inactive: Vec<String> = self
            .inactive_machines()
            .iter()
            .map(|m| format!("\"{}\"", esc(m)))
            .collect();
        out.push_str(&format!(
            "  \"inactive_machines\": [{}],\n",
            inactive.join(", ")
        ));
        out.push_str("  \"machines\": [\n");
        for (i, m) in self.machines.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"machine\": \"{}\",\n", esc(&m.machine)));
            out.push_str(&format!(
                "      \"total_transitions\": {},\n",
                m.total_transitions
            ));
            out.push_str(&format!("      \"inactive\": {},\n", m.inactive));
            out.push_str("      \"discharged\": [\n");
            for (j, d) in m.discharged.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"transition\": \"{}\", \"reason\": \"{}\"}}{}\n",
                    esc(&d.transition),
                    d.reason.as_str(),
                    if j + 1 < m.discharged.len() { "," } else { "" },
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.machines.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Discharges one machine against a manifest.
///
/// Two sound rules, applied in order:
///
/// 1. **TriggerAbsent** — a transition is untriggerable if it has at
///    least one trigger, *every* trigger carries an explicit function
///    list (a prose-only trigger is conservatively always live), and
///    the workload can call none of the listed functions.
/// 2. **SourceUnreachable** — with untriggerable transitions removed,
///    compute the states reachable from the initial state; any
///    remaining transition whose source state is unreachable can never
///    fire either. (Removing those does not shrink reachability
///    further — their sources were already unreachable — so a single
///    closure suffices.)
pub fn discharge_machine(spec: &MachineSpec, manifest: &WorkloadManifest) -> MachineDischarge {
    let transitions = spec.transitions();
    let mut reasons: Vec<Option<DischargeReason>> = vec![None; transitions.len()];
    for (i, t) in transitions.iter().enumerate() {
        let untriggerable = !t.triggers().is_empty()
            && t.triggers().iter().all(|trig| {
                !trig.functions().is_empty()
                    && trig.functions().iter().all(|f| !manifest.can_call(f))
            });
        if untriggerable {
            reasons[i] = Some(DischargeReason::TriggerAbsent);
        }
    }

    let mut reachable = vec![false; spec.states().len()];
    reachable[spec.initial().index()] = true;
    loop {
        let mut changed = false;
        for (i, t) in transitions.iter().enumerate() {
            if reasons[i].is_none() && reachable[t.from().index()] && !reachable[t.to().index()] {
                reachable[t.to().index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (i, t) in transitions.iter().enumerate() {
        if reasons[i].is_none() && !reachable[t.from().index()] {
            reasons[i] = Some(DischargeReason::SourceUnreachable);
        }
    }

    let discharged: Vec<DischargedTransition> = transitions
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            reasons[i].map(|reason| DischargedTransition {
                id: spec.transition_id(t.name()).expect("own transition"),
                transition: t.name().to_string(),
                reason,
            })
        })
        .collect();
    MachineDischarge {
        machine: spec.name().to_string(),
        total_transitions: transitions.len(),
        inactive: discharged.len() == transitions.len(),
        discharged,
    }
}

/// Runs the static discharge pass over a set of machines.
pub fn discharge(machines: &[MachineSpec], manifest: &WorkloadManifest) -> DischargeReport {
    DischargeReport {
        workload: manifest.name().to_string(),
        manifest_functions: manifest.len(),
        unknown_functions: manifest.unknown_functions().to_vec(),
        machines: machines
            .iter()
            .map(|m| discharge_machine(m, manifest))
            .collect(),
    }
}

/// True if the check mutates checker state (an *encoding* update) rather
/// than only validating — used by the codegen backend to decide whether to
/// emit bookkeeping or an `if`.
pub fn is_encoding_update(check: Check) -> bool {
    matches!(
        check,
        Check::CriticalAcquire
            | Check::RecordMethodId
            | Check::RecordFieldId
            | Check::PinAcquire
            | Check::MonitorAcquire
            | Check::MonitorRelease
            | Check::GlobalAcquire
            | Check::FramePush
            | Check::EnsureCapacity
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijni::FuncId;

    #[test]
    fn every_function_is_wrapped() {
        let (_, stats) = synthesize();
        assert_eq!(stats.wrapped_functions, 229);
        assert_eq!(stats.machines, 11);
        assert!(stats.instr_points > 1500);
    }

    #[test]
    fn table_orders_checks_per_function() {
        let (table, _) = synthesize();
        let f = FuncId::of("GetStringCritical");
        assert!(table.pre(f).iter().any(|p| p.check == Check::EnvMatches));
        assert!(table
            .post(f)
            .iter()
            .any(|p| p.check == Check::CriticalAcquire));
        assert!(table.post(f).iter().any(|p| p.check == Check::PinAcquire));
        // Critical-insensitive: no CriticalSensitive pre check.
        assert!(!table
            .pre(f)
            .iter()
            .any(|p| p.check == Check::CriticalSensitive));
    }

    #[test]
    fn table_len_matches_points() {
        let (table, stats) = synthesize();
        assert_eq!(table.len(), stats.instr_points);
        assert!(!table.is_empty());
    }

    #[test]
    fn encoding_classification() {
        assert!(is_encoding_update(Check::PinAcquire));
        assert!(!is_encoding_update(Check::EnvMatches));
        assert!(!is_encoding_update(Check::NonNull { param: 0 }));
    }

    /// The Table 3 mix: no monitors, no critical sections, but global
    /// refs and pinned string bytes. (Kept in sync with the workloads
    /// crate by its `manifest_covers_workload` test; duplicated here
    /// because `jinn-workloads` depends on this crate.)
    fn bench_manifest() -> WorkloadManifest {
        WorkloadManifest::new(
            "table3-mix",
            [
                "CallIntMethodA",
                "DeleteGlobalRef",
                "DeleteLocalRef",
                "GetFieldID",
                "GetIntArrayRegion",
                "GetIntField",
                "GetMethodID",
                "GetObjectClass",
                "GetStringUTFChars",
                "GetStringUTFLength",
                "IsSameObject",
                "NewGlobalRef",
                "NewIntArray",
                "NewLocalRef",
                "NewStringUTF",
                "ReleaseStringUTFChars",
                "SetIntArrayRegion",
                "SetIntField",
            ],
        )
    }

    #[test]
    fn manifest_validates_against_registry_without_panicking() {
        let m = WorkloadManifest::new("typo", ["MonitorEnter", "NotARealFunction"]);
        assert_eq!(m.unknown_functions(), ["NotARealFunction".to_string()]);
        // Unknown names stay conservatively callable.
        assert!(m.can_call("NotARealFunction"));
        assert!(m.can_call("MonitorEnter"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn bench_mix_discharges_monitor_and_critical_section_entirely() {
        let report = discharge(&jinn_spec::machines(), &bench_manifest());
        assert!(report.unknown_functions.is_empty());

        let monitor = report.for_machine("monitor").expect("present");
        assert!(monitor.inactive, "{monitor:?}");
        let by_name = |name: &str| {
            monitor
                .discharged
                .iter()
                .find(|d| d.transition == name)
                .map(|d| d.reason)
        };
        assert_eq!(by_name("Acquire"), Some(DischargeReason::TriggerAbsent));
        assert_eq!(by_name("Release"), Some(DischargeReason::TriggerAbsent));
        // LeakAtExit's trigger is prose (program termination), but its
        // source state `Held` is unenterable once Acquire is discharged.
        assert_eq!(
            by_name("LeakAtExit"),
            Some(DischargeReason::SourceUnreachable)
        );

        let critical = report.for_machine("critical-section").expect("present");
        assert!(critical.inactive, "{critical:?}");

        // The mix pins string bytes and makes global refs: both resource
        // machines must stay fully active.
        let pinned = report.for_machine("pinned-buffer").expect("present");
        assert!(pinned.discharged.is_empty(), "{pinned:?}");
        let global = report.for_machine("global-reference").expect("present");
        assert!(global.discharged.is_empty(), "{global:?}");

        assert_eq!(report.inactive_machines(), ["critical-section", "monitor"]);
        assert!(report.total_discharged() >= 7);
        assert!(report.total_discharged() < report.total_transitions());
    }

    #[test]
    fn prose_triggers_are_never_discharged_directly() {
        // An empty manifest can call nothing, so every transition whose
        // triggers all carry function lists discharges — but prose-only
        // triggers (no list) must survive unless their source is cut off.
        let empty = WorkloadManifest::new("nothing", Vec::<String>::new());
        let report = discharge(&jinn_spec::machines(), &empty);
        let nullness = report.for_machine("nullness").expect("present");
        assert!(
            nullness.discharged.is_empty(),
            "prose trigger discharged: {nullness:?}"
        );
        let global = report.for_machine("global-reference").expect("present");
        assert!(global.inactive, "{global:?}");
        assert_eq!(
            global
                .discharged
                .iter()
                .find(|d| d.transition == "UseAfterRelease")
                .map(|d| d.reason),
            Some(DischargeReason::SourceUnreachable)
        );
    }

    #[test]
    fn discharged_machine_compiles_with_elided_transitions() {
        let spec = jinn_spec::monitor();
        let report = discharge(std::slice::from_ref(&spec), &bench_manifest());
        let elided = report.elided_for("monitor");
        assert_eq!(elided.len(), 3);
        let compiled = jinn_fsm::CompiledMachine::compile_discharged(spec, &elided);
        assert_eq!(compiled.elided_transitions().len(), 3);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = discharge(&jinn_spec::machines(), &bench_manifest());
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"table3-mix\""));
        assert!(json.contains("\"machine\": \"monitor\""));
        assert!(json.contains("\"reason\": \"trigger_absent\""));
        assert!(json.contains("\"reason\": \"source_unreachable\""));
        assert!(json.contains("\"inactive_machines\": [\"critical-section\", \"monitor\"]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
