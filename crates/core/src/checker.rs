//! Jinn — the synthesized dynamic JNI bug detector.
//!
//! `Jinn` interprets the check table produced by [`crate::synthesize`]:
//! at every language transition it executes the synthesized checks,
//! transitions its state-machine encodings (the paper's thread-local
//! reference sets, ID signature tables, tallies and frame mirrors), and
//! reports a [`Violation`] — thrown as a `jinn.JNIAssertionFailure` — the
//! moment an entity enters an error state.
//!
//! Jinn never asks the VM whether a reference is valid; like the real
//! tool, it maintains its own encodings and detects danglingness from the
//! acquire/release history it observed. (The single exception is the
//! *adoption* of references acquired before Jinn was attached, which are
//! verified against the VM once and then tracked — this is what the JVMTI
//! start-up hook gives the real Jinn for free.)

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jinn_obs::{FsmOutcome, LabelId, Recorder};
use jinn_spec::{Check, EntityCallMode};
use minijni::registry::Op;
use minijni::{CallCx, FuncId, Interpose, JniArg, JniRet, Report, ReportAction, Violation};
use minijvm::{
    ClassId, FieldId, FieldType, JRef, JValue, Jvm, MethodId, MethodSig, ObjectId, PinId, PinKind,
    RefKind, ThreadId, DEFAULT_LOCAL_CAPACITY,
};

use crate::idhash::IdMap;
use crate::synth::CheckTable;

/// Counters Jinn keeps about its own work (for the overhead experiments).
/// This is a point-in-time copy; the live counters are the atomics in
/// [`StatsCell`], read via [`StatsCell::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JinnStats {
    /// Synthesized checks executed.
    pub checks_executed: u64,
    /// Violations reported.
    pub violations: u64,
    /// Pre-attach references adopted instead of flagged (kept at zero by
    /// well-formed harnesses).
    pub adopted_refs: u64,
}

/// The live, atomically-updated counters behind [`SharedStats`]. Atomic
/// so a `Jinn` moved to a worker thread can be observed from the driver
/// thread without locks (and so `Jinn` itself is `Send`).
#[derive(Debug, Default)]
pub struct StatsCell {
    checks_executed: AtomicU64,
    violations: AtomicU64,
    adopted_refs: AtomicU64,
}

impl StatsCell {
    /// Synthesized checks executed so far.
    pub fn checks_executed(&self) -> u64 {
        self.checks_executed.load(Ordering::Relaxed)
    }

    /// Violations reported so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Pre-attach references adopted so far.
    pub fn adopted_refs(&self) -> u64 {
        self.adopted_refs.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> JinnStats {
        JinnStats {
            checks_executed: self.checks_executed(),
            violations: self.violations(),
            adopted_refs: self.adopted_refs(),
        }
    }
}

/// Shared handle to the live [`StatsCell`], usable after the checker has
/// been boxed into a session — including from another thread.
pub type SharedStats = Arc<StatsCell>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LocalKey {
    thread: u16,
    slot: u32,
    generation: u32,
}

impl LocalKey {
    fn of(r: JRef) -> LocalKey {
        LocalKey {
            thread: r.owner().0,
            slot: r.slot(),
            generation: r.generation(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GlobalKey {
    weak: bool,
    slot: u32,
    generation: u32,
}

impl GlobalKey {
    fn of(r: JRef) -> GlobalKey {
        GlobalKey {
            weak: r.kind() == RefKind::WeakGlobal,
            slot: r.slot(),
            generation: r.generation(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefState {
    Live,
    Released,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    NativeEntry,
    Explicit,
}

#[derive(Debug)]
struct Frame {
    kind: FrameKind,
    capacity: usize,
    refs: Vec<LocalKey>,
}

/// One thread's local-reference encoding. `states` keeps released keys
/// as `Released` (never removes them), which is what tells a dangling
/// reference apart from one that was never acquired.
#[derive(Debug, Default)]
struct LocalTracker {
    frames: Vec<Frame>,
    states: IdMap<LocalKey, RefState>,
}

impl LocalTracker {
    fn base(&mut self) -> &mut Frame {
        if self.frames.is_empty() {
            self.frames.push(Frame {
                kind: FrameKind::NativeEntry,
                capacity: DEFAULT_LOCAL_CAPACITY,
                refs: Vec::new(),
            });
        }
        self.frames.first_mut().expect("just ensured")
    }

    fn current(&mut self) -> &mut Frame {
        self.base();
        self.frames.last_mut().expect("non-empty")
    }

    fn acquire(&mut self, key: LocalKey) {
        self.current().refs.push(key);
        self.states.insert(key, RefState::Live);
    }

    fn release_frame(&mut self) -> Option<Frame> {
        if self.frames.len() <= 1 {
            // Keep the base frame; release its refs instead.
            let base = self.base();
            let refs = std::mem::take(&mut base.refs);
            for r in refs {
                self.states.insert(r, RefState::Released);
            }
            return None;
        }
        let frame = self.frames.pop()?;
        for r in &frame.refs {
            self.states.insert(*r, RefState::Released);
        }
        Some(frame)
    }
}

#[derive(Debug, Clone)]
struct MethodSnapshot {
    class: ClassId,
    name: String,
    sig: MethodSig,
    is_static: bool,
    visibility: minijvm::Visibility,
}

#[derive(Debug, Clone)]
struct FieldSnapshot {
    class: ClassId,
    name: String,
    ty: FieldType,
    is_static: bool,
    is_final: bool,
    visibility: minijvm::Visibility,
}

/// Configuration of a synthesized checker.
///
/// The defaults reproduce the paper's Jinn exactly. The knobs expose the
/// paper's own discussion points: `pedantic_visibility` turns on the
/// Section 6.5 "correctness gray zone" check (C code accessing private
/// Java members -- entrenched practice, so off by default), and
/// `disabled_machines` ablates individual machines (used by the
/// `ablation` experiment to attribute checking cost).
#[derive(Debug, Clone, Default)]
pub struct JinnConfig {
    /// Also flag access to private members from native code.
    pub pedantic_visibility: bool,
    /// Machines whose synthesized checks are dropped.
    pub disabled_machines: Vec<&'static str>,
}

#[derive(Debug, Clone, Copy)]
struct PinInfo {
    kind: PinKind,
    released: bool,
}

/// The Jinn dynamic checker. Attach with [`install`].
///
/// State is keyed by the VM's own small integer ids: local-reference
/// trackers are indexed densely by thread id, and every other map hashes
/// its id with the deterministic [`IdMap`] hasher instead of std's
/// SipHash. Iteration order is never observable: the `vm_death` sweeps
/// sort before reporting.
pub struct Jinn {
    /// The synthesized checks: the process-wide table, shared, unless
    /// `disabled_machines` asks for a filtered copy of its own.
    table: Cow<'static, CheckTable>,
    /// When false, wrappers are interposed and traversed but the analysis
    /// bodies are skipped — the "Interposing" configuration of Table 3,
    /// which isolates the framework overhead from the checking overhead.
    checks_enabled: bool,
    config: JinnConfig,
    stats: SharedStats,
    methods: IdMap<MethodId, MethodSnapshot>,
    fields: IdMap<FieldId, FieldSnapshot>,
    pins: IdMap<PinId, PinInfo>,
    criticals: IdMap<ThreadId, Vec<(ObjectId, u32)>>,
    monitors: IdMap<(ThreadId, ObjectId), u32>,
    globals: IdMap<GlobalKey, RefState>,
    /// Indexed by `ThreadId`; grown on a thread's first transition.
    locals: Vec<LocalTracker>,
    recorder: Recorder,
    labels: ObsLabels,
}

/// The checker's interned trace labels, resolved once when a recorder is
/// attached so the per-event record path carries only dense ids.
#[derive(Debug, Default)]
struct ObsLabels {
    local_ref: LabelId,
    global_ref: LabelId,
    acquire: LabelId,
    release: LabelId,
    use_: LabelId,
    checks_executed: LabelId,
    locals_acquired: LabelId,
}

/// Packs a reference's identity bits into the opaque numeric entity key
/// recorded with its transitions. References are short-lived and each
/// acquisition mints a fresh generation, so a label cache would never
/// hit; the packed key costs a few shifts instead of a `format!` and an
/// intern-table round-trip per event. Equal references pack equally,
/// which is what forensics matching needs. Slot and generation are
/// truncated to 22 bits each — far above what any workload reaches, and
/// a collision only blurs a forensics relevance filter.
fn entity_key(r: &JRef) -> u64 {
    let kind = match r.kind() {
        RefKind::Local => 0u64,
        RefKind::Global => 1,
        RefKind::WeakGlobal => 2,
        RefKind::Null => 3,
    };
    (kind << 60)
        | (u64::from(r.owner().0) << 44)
        | (u64::from(r.slot() & 0x3f_ffff) << 22)
        | u64::from(r.generation() & 0x3f_ffff)
}

// The whole point of the Arc/atomic stats backend: a synthesized checker
// can be constructed on the driver thread and moved into a worker.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Jinn>();
};

impl std::fmt::Debug for Jinn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Jinn")
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl Default for Jinn {
    fn default() -> Self {
        Jinn::new()
    }
}

impl Jinn {
    /// Synthesizes a fresh checker from the eleven machine specifications.
    pub fn new() -> Jinn {
        Jinn::with_config(JinnConfig::default())
    }

    /// Synthesizes a checker with explicit configuration. The expansion
    /// itself is memoized process-wide ([`crate::synthesize_cached`]) and
    /// shared by every checker; only an ablation (`disabled_machines`)
    /// builds a pruned copy of its own.
    pub fn with_config(config: JinnConfig) -> Jinn {
        let shared = crate::synth::synthesize_cached().0;
        let table = if config.disabled_machines.is_empty() {
            Cow::Borrowed(shared)
        } else {
            let mut own = shared.clone();
            own.retain_machines(|m| !config.disabled_machines.contains(&m));
            Cow::Owned(own)
        };
        Jinn {
            table,
            checks_enabled: true,
            config,
            stats: Arc::new(StatsCell::default()),
            methods: IdMap::default(),
            fields: IdMap::default(),
            pins: IdMap::default(),
            criticals: IdMap::default(),
            monitors: IdMap::default(),
            globals: IdMap::default(),
            locals: Vec::new(),
            recorder: Recorder::disabled(),
            labels: ObsLabels::default(),
        }
    }

    /// Attaches an observability recorder: machine error transitions and
    /// check-volume counters are recorded from then on. [`install`] wires
    /// this automatically from the session's recorder. The handful of
    /// machine, transition, and counter names the checker records are
    /// interned here, once.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.labels = ObsLabels {
            local_ref: recorder.intern("local-reference"),
            global_ref: recorder.intern("global-reference"),
            acquire: recorder.intern("Acquire"),
            release: recorder.intern("Release"),
            use_: recorder.intern("Use"),
            checks_executed: recorder.intern("checks.executed"),
            locals_acquired: recorder.intern("locals.acquired"),
        };
        self.recorder = recorder;
    }

    /// A shared handle to the checker's statistics.
    pub fn stats_handle(&self) -> SharedStats {
        Arc::clone(&self.stats)
    }

    /// An interposing-but-not-checking Jinn: the wrappers run, the check
    /// tables are traversed, but no analysis executes (Table 3's
    /// "Interposing" column).
    pub fn interpose_only() -> Jinn {
        let mut jinn = Jinn::new();
        jinn.checks_enabled = false;
        jinn
    }

    fn violation(
        &self,
        machine: &'static str,
        error_state: &'static str,
        function: &str,
        message: String,
        stack: &[String],
    ) -> Report {
        self.stats.violations.fetch_add(1, Ordering::Relaxed);
        if self.recorder.is_enabled() {
            // Cold path (violations are rare): interning per event keeps
            // it simple.
            let machine_label = self.recorder.intern(machine);
            let state_label = self.recorder.intern(error_state);
            self.recorder.fsm_transition_id(
                jinn_obs::event::NO_THREAD,
                machine_label,
                state_label,
                FsmOutcome::Error,
                None,
            );
        }
        Report::new(
            Violation {
                machine,
                error_state,
                function: function.to_string(),
                message,
                // Innermost frame first, as in a Java stack trace.
                backtrace: stack.iter().rev().cloned().collect(),
            },
            ReportAction::ThrowException,
        )
    }

    // ---- local reference helpers ------------------------------------

    fn tracker(&mut self, thread: ThreadId) -> &mut LocalTracker {
        let i = usize::from(thread.0);
        if self.locals.len() <= i {
            self.locals.resize_with(i + 1, LocalTracker::default);
        }
        &mut self.locals[i]
    }

    /// Checks a use of a local reference; returns an error message on
    /// violation.
    fn check_local_use(&mut self, jvm: &Jvm, thread: ThreadId, r: JRef) -> Option<String> {
        let key = LocalKey::of(r);
        let failure = if r.owner() != thread {
            Some(format!(
                "local reference created on thread-{} used on {}",
                r.owner().0,
                thread
            ))
        } else {
            match self.tracker(thread).states.get(&key) {
                Some(RefState::Live) => None,
                Some(RefState::Released) => Some("Error: dangling local reference".to_string()),
                None => {
                    // Pre-attach reference: adopt it if the VM vouches for it.
                    if jvm.resolve(thread, r).map(|o| o.is_some()).unwrap_or(false) {
                        self.stats.adopted_refs.fetch_add(1, Ordering::Relaxed);
                        let tracker = self.tracker(thread);
                        tracker.base().refs.push(key);
                        tracker.states.insert(key, RefState::Live);
                        None
                    } else {
                        Some("Error: dangling local reference (never acquired)".to_string())
                    }
                }
            }
        };
        if failure.is_some() {
            self.record_ref_error(self.labels.local_ref, thread, r);
        }
        failure
    }

    fn check_global_use(&mut self, jvm: &Jvm, thread: ThreadId, r: JRef) -> Option<String> {
        let key = GlobalKey::of(r);
        let failure = match self.globals.get(&key) {
            Some(RefState::Live) => None,
            Some(RefState::Released) => Some(format!("Error: dangling {} reference", r.kind())),
            None => {
                if jvm.resolve(thread, r).is_ok() {
                    self.stats.adopted_refs.fetch_add(1, Ordering::Relaxed);
                    self.globals.insert(key, RefState::Live);
                    None
                } else {
                    Some(format!(
                        "Error: dangling {} reference (never acquired)",
                        r.kind()
                    ))
                }
            }
        };
        if failure.is_some() {
            self.record_ref_error(self.labels.global_ref, thread, r);
        }
        failure
    }

    /// Emits an entity-tagged successful transition (acquire/release) into
    /// the trace ring and the per-machine metrics. `machine` and
    /// `transition` are the ids cached in [`ObsLabels`].
    fn record_ref_moved(&self, machine: LabelId, thread: ThreadId, transition: LabelId, r: &JRef) {
        self.recorder.fsm_transition_keyed(
            thread.0,
            machine,
            transition,
            FsmOutcome::Moved,
            entity_key(r),
        );
    }

    /// Emits an entity-tagged error transition into the trace ring so a
    /// forensics capture can name the failing reference. Error `Use`
    /// events deliberately do not feed the per-machine `Moved` tallies —
    /// the violation path counts them.
    fn record_ref_error(&self, machine: LabelId, thread: ThreadId, r: JRef) {
        self.recorder.fsm_transition_keyed(
            thread.0,
            machine,
            self.labels.use_,
            FsmOutcome::Error,
            entity_key(&r),
        );
    }

    fn check_ref_use(
        &mut self,
        jvm: &Jvm,
        thread: ThreadId,
        r: JRef,
        machine_wanted: &'static str,
    ) -> Option<String> {
        match (r.kind(), machine_wanted) {
            (RefKind::Null, _) => None,
            (RefKind::Local, "local-reference") => self.check_local_use(jvm, thread, r),
            (RefKind::Global | RefKind::WeakGlobal, "global-reference") => {
                self.check_global_use(jvm, thread, r)
            }
            _ => None, // the other machine owns this kind
        }
    }

    // ---- entity typing helpers ---------------------------------------

    fn check_args_against_sig(
        &self,
        jvm: &Jvm,
        thread: ThreadId,
        sig: &MethodSig,
        actuals: &[JValue],
    ) -> Option<String> {
        if sig.params().len() != actuals.len() {
            return Some(format!(
                "{} actual arguments for {} formals",
                actuals.len(),
                sig.params().len()
            ));
        }
        for (i, (formal, actual)) in sig.params().iter().zip(actuals).enumerate() {
            match (formal, actual) {
                (FieldType::Prim(p), v) => {
                    if v.prim_type() != Some(*p) {
                        return Some(format!(
                            "argument {i} has the wrong primitive type (expected {p})"
                        ));
                    }
                }
                (ft, JValue::Ref(r)) => {
                    if r.is_null() {
                        continue;
                    }
                    if let Ok(Some(oop)) = jvm.resolve(thread, *r) {
                        let actual_class = jvm.class_of(oop);
                        if let Some(expected) = jvm.registry().class_for_type(ft) {
                            if !jvm.registry().is_assignable(actual_class, expected) {
                                return Some(format!(
                                    "argument {i} is a {} but the formal is {}",
                                    jvm.registry().class(actual_class).dotted_name(),
                                    ft
                                ));
                            }
                        }
                    }
                }
                (_, v) => {
                    return Some(format!(
                        "argument {i} is a primitive {v} where a reference is expected"
                    ));
                }
            }
        }
        None
    }

    fn resolve_class_arg(&self, jvm: &Jvm, thread: ThreadId, r: JRef) -> Option<ClassId> {
        let oop = jvm.resolve(thread, r).ok().flatten()?;
        jvm.class_of_mirror(oop)
    }

    #[allow(clippy::too_many_lines)]
    fn check_entity_call(
        &self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        mode: EntityCallMode,
    ) -> Option<String> {
        let (obj_idx, clazz_idx, mid_idx, args_idx): (Option<usize>, Option<usize>, usize, usize) =
            match mode {
                EntityCallMode::Virtual => (Some(0), None, 1, 2),
                EntityCallMode::Nonvirtual => (Some(0), Some(1), 2, 3),
                EntityCallMode::Static | EntityCallMode::Constructor => (None, Some(0), 1, 2),
            };
        let mid = match cx.args.get(mid_idx) {
            Some(JniArg::Method(m)) => *m,
            _ => return None,
        };
        let Some(snap) = self.methods.get(&mid) else {
            return Some(format!("method ID {mid} was never issued by the JVM"));
        };
        // The Section 6.5 gray zone, opt-in: calling private methods.
        if self.config.pedantic_visibility && snap.visibility == minijvm::Visibility::Private {
            return Some(format!(
                "call to private method {} from native code",
                snap.name
            ));
        }
        // Staticness.
        let want_static = matches!(mode, EntityCallMode::Static);
        if snap.is_static != want_static {
            return Some(format!(
                "method {} is {} but was invoked {}",
                snap.name,
                if snap.is_static {
                    "static"
                } else {
                    "an instance method"
                },
                if want_static {
                    "statically"
                } else {
                    "virtually"
                },
            ));
        }
        // Receiver / class conformance.
        if let Some(i) = obj_idx {
            if let Some(JniArg::Ref(r)) = cx.args.get(i) {
                if !r.is_null() {
                    if let Ok(Some(oop)) = jvm.resolve(cx.thread, *r) {
                        let cls = jvm.class_of(oop);
                        if !jvm.registry().is_assignable(cls, snap.class) {
                            return Some(format!(
                                "receiver of class {} does not conform to {} declaring {}",
                                jvm.registry().class(cls).dotted_name(),
                                jvm.registry().class(snap.class).dotted_name(),
                                snap.name,
                            ));
                        }
                    }
                }
            }
        }
        if let Some(i) = clazz_idx {
            if let Some(JniArg::Ref(r)) = cx.args.get(i) {
                if let Some(given) = self.resolve_class_arg(jvm, cx.thread, *r) {
                    // The Eclipse SWT bug (Section 6.4.3): the class must
                    // itself declare the method; inheriting it from a
                    // superclass is a JNI violation.
                    if given != snap.class {
                        return Some(format!(
                            "class {} does not declare {} (it is declared by {})",
                            jvm.registry().class(given).dotted_name(),
                            snap.name,
                            jvm.registry().class(snap.class).dotted_name(),
                        ));
                    }
                }
            }
        }
        // Actual arguments against formals.
        let actuals: &[JValue] = match cx.args.get(args_idx) {
            Some(JniArg::Args(v)) => v,
            _ => &[],
        };
        self.check_args_against_sig(jvm, cx.thread, &snap.sig, actuals)
    }

    fn check_field_access(
        &self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        stat: bool,
        write: bool,
    ) -> Option<String> {
        let fid = match cx.args.get(1) {
            Some(JniArg::Field(f)) => *f,
            _ => return None,
        };
        let Some(snap) = self.fields.get(&fid) else {
            return Some(format!("field ID {fid} was never issued by the JVM"));
        };
        if self.config.pedantic_visibility && snap.visibility == minijvm::Visibility::Private {
            return Some(format!(
                "access to private field {} from native code",
                snap.name
            ));
        }
        if snap.is_static != stat {
            return Some(format!(
                "field {} is {} but was accessed {}",
                snap.name,
                if snap.is_static {
                    "static"
                } else {
                    "an instance field"
                },
                if stat {
                    "statically"
                } else {
                    "through an instance"
                },
            ));
        }
        if stat {
            if let Some(JniArg::Ref(r)) = cx.args.first() {
                if let Some(given) = self.resolve_class_arg(jvm, cx.thread, *r) {
                    if given != snap.class {
                        return Some(format!(
                            "class {} does not declare field {}",
                            jvm.registry().class(given).dotted_name(),
                            snap.name,
                        ));
                    }
                }
            }
        } else if let Some(JniArg::Ref(r)) = cx.args.first() {
            if !r.is_null() {
                if let Ok(Some(oop)) = jvm.resolve(cx.thread, *r) {
                    let cls = jvm.class_of(oop);
                    if !jvm.registry().is_assignable(cls, snap.class) {
                        return Some(format!(
                            "object of class {} has no field {}",
                            jvm.registry().class(cls).dotted_name(),
                            snap.name,
                        ));
                    }
                }
            }
        }
        if write {
            let value = match cx.args.get(2) {
                Some(JniArg::Val(v)) => Some(*v),
                Some(JniArg::Ref(r)) => Some(JValue::Ref(*r)),
                _ => None,
            };
            if let Some(v) = value {
                match (&snap.ty, v) {
                    (FieldType::Prim(p), v) => {
                        if v.prim_type() != Some(*p) {
                            return Some(format!("value {v} does not conform to field type {p}"));
                        }
                    }
                    (ft, JValue::Ref(r)) => {
                        if !r.is_null() {
                            if let Ok(Some(oop)) = jvm.resolve(cx.thread, r) {
                                let cls = jvm.class_of(oop);
                                if let Some(expected) = jvm.registry().class_for_type(ft) {
                                    if !jvm.registry().is_assignable(cls, expected) {
                                        return Some(format!(
                                            "value of class {} does not conform to field type {}",
                                            jvm.registry().class(cls).dotted_name(),
                                            ft,
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    (ft, v) => {
                        return Some(format!("primitive {v} written to reference field {ft}"));
                    }
                }
            }
        }
        None
    }

    fn check_fixed_type(&self, jvm: &Jvm, cx: &CallCx<'_>, param: usize) -> Option<String> {
        let spec = cx.spec();
        let p = &spec.params[param];
        let r = cx.args.get(param).and_then(JniArg::as_ref)?;
        if r.is_null() {
            return None; // nullness machine owns this case
        }
        let oop = jvm.resolve(cx.thread, r).ok().flatten()?;
        let class = jvm.class_of(oop);
        let class_name = jvm.registry().class(class).name();
        let conforms = p.fixed_types.iter().any(|t| match *t {
            "[*" => class_name.starts_with('['),
            "[prim" => class_name.len() == 2 && class_name.starts_with('['),
            "[obj" => class_name.starts_with("[L") || class_name.starts_with("[["),
            expected => match jvm.registry().class_by_name(expected) {
                Some(tc) => jvm.registry().is_assignable(class, tc),
                None => false,
            },
        });
        if conforms {
            None
        } else {
            Some(format!(
                "parameter `{}` is a {} but must conform to {}",
                p.name,
                jvm.registry().class(class).dotted_name(),
                p.fixed_types.join(" or "),
            ))
        }
    }

    // ---- record encodings ----------------------------------------------

    fn record_method(&mut self, jvm: &Jvm, mid: MethodId) {
        if self.methods.contains_key(&mid) {
            return;
        }
        if let Some(info) = jvm.registry().method(mid) {
            self.methods.insert(
                mid,
                MethodSnapshot {
                    class: info.class,
                    name: info.name.clone(),
                    sig: info.sig.clone(),
                    is_static: info.flags.is_static,
                    visibility: info.flags.visibility,
                },
            );
        }
    }

    fn record_field(&mut self, jvm: &Jvm, fid: FieldId) {
        if self.fields.contains_key(&fid) {
            return;
        }
        if let Some(info) = jvm.registry().field(fid) {
            self.fields.insert(
                fid,
                FieldSnapshot {
                    class: info.class,
                    name: info.name.clone(),
                    ty: info.ty.clone(),
                    is_static: info.flags.is_static,
                    is_final: info.flags.is_final,
                    visibility: info.flags.visibility,
                },
            );
        }
    }

    // ---- the check interpreter ------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn run_pre_check(
        &mut self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        machine: &'static str,
        check: Check,
    ) -> Option<Report> {
        let fname = cx.func.name();
        match check {
            Check::EnvMatches => {
                let own = jvm.thread(cx.thread).env();
                if cx.presented_env != own {
                    return Some(self.violation(
                        machine,
                        "Error:EnvMismatch",
                        fname,
                        format!("JNIEnv* does not belong to the current thread in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::NoPendingException if jvm.thread(cx.thread).pending_exception().is_some() => {
                return Some(self.violation(
                    machine,
                    "Error:SensitiveCallWithPending",
                    fname,
                    format!("An exception is pending in {fname}."),
                    cx.stack,
                ));
            }
            Check::CriticalSensitive
                if self
                    .criticals
                    .get(&cx.thread)
                    .map(|v| !v.is_empty())
                    .unwrap_or(false) =>
            {
                return Some(self.violation(
                    machine,
                    "Error:SensitiveCallInCritical",
                    fname,
                    format!("{fname} called inside a JNI critical section"),
                    cx.stack,
                ));
            }
            Check::CriticalRelease => {
                let object = cx.args.get(1).and_then(|a| match a {
                    JniArg::Buf(p) => jvm.pins().object(*p),
                    _ => None,
                });
                let tally = self.criticals.entry(cx.thread).or_default();
                match object.and_then(|o| tally.iter().position(|(obj, _)| *obj == o)) {
                    Some(pos) => {
                        tally[pos].1 -= 1;
                        if tally[pos].1 == 0 {
                            tally.remove(pos);
                        }
                    }
                    None => {
                        return Some(self.violation(
                            machine,
                            "Error:UnmatchedRelease",
                            fname,
                            format!(
                                "{fname} releases a critical resource the thread does not hold"
                            ),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::FixedType { param } => {
                if let Some(msg) = self.check_fixed_type(jvm, cx, param as usize) {
                    return Some(self.violation(
                        machine,
                        "Error:FixedTypeMismatch",
                        fname,
                        format!("{msg} in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::EntityCall { mode } => {
                if let Some(msg) = self.check_entity_call(jvm, cx, mode) {
                    return Some(self.violation(
                        machine,
                        "Error:EntityTypeMismatch",
                        fname,
                        format!("{msg} in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::EntityFieldAccess { stat, write } => {
                if let Some(msg) = self.check_field_access(jvm, cx, stat, write) {
                    return Some(self.violation(
                        machine,
                        "Error:EntityTypeMismatch",
                        fname,
                        format!("{msg} in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::KnownMethodId { param } => {
                if let Some(JniArg::Method(m)) = cx.args.get(param as usize) {
                    if !self.methods.contains_key(m) {
                        return Some(self.violation(
                            machine,
                            "Error:EntityTypeMismatch",
                            fname,
                            format!("method ID {m} was never issued by the JVM (in {fname})"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::KnownFieldId { param } => {
                if let Some(JniArg::Field(f)) = cx.args.get(param as usize) {
                    if !self.fields.contains_key(f) {
                        return Some(self.violation(
                            machine,
                            "Error:EntityTypeMismatch",
                            fname,
                            format!("field ID {f} was never issued by the JVM (in {fname})"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::FinalFieldGuard => {
                if let Some(JniArg::Field(f)) = cx.args.get(1) {
                    if let Some(snap) = self.fields.get(f) {
                        if snap.is_final {
                            return Some(self.violation(
                                machine,
                                "Error:FinalFieldWrite",
                                fname,
                                format!("{fname} assigns to final field {}", snap.name),
                                cx.stack,
                            ));
                        }
                    }
                }
            }
            Check::NonNull { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if r.is_null() {
                        let pname = cx.spec().params[param as usize].name;
                        return Some(self.violation(
                            machine,
                            "Error:Null",
                            fname,
                            format!("parameter `{pname}` of {fname} must not be null"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::PinRelease { param } => {
                if let Some(JniArg::Buf(pin)) = cx.args.get(param as usize) {
                    let expected = expected_pin_kind(cx.func);
                    match self.pins.get_mut(pin) {
                        Some(info) if info.released => {
                            return Some(self.violation(
                                "pinned-buffer",
                                "Error:DoubleFree",
                                fname,
                                format!("{fname} releases an already-released buffer"),
                                cx.stack,
                            ));
                        }
                        Some(info) => {
                            if Some(info.kind) != expected {
                                let kind = info.kind;
                                return Some(self.violation(
                                    "pinned-buffer",
                                    "Error:DoubleFree",
                                    fname,
                                    format!("{fname} releases a buffer acquired via {kind}"),
                                    cx.stack,
                                ));
                            }
                            info.released = true;
                        }
                        None => {
                            if jvm.pins().is_live(*pin) {
                                self.stats.adopted_refs.fetch_add(1, Ordering::Relaxed);
                                self.pins.insert(
                                    *pin,
                                    PinInfo {
                                        kind: jvm
                                            .pins()
                                            .kind(*pin)
                                            .unwrap_or(PinKind::ArrayElements),
                                        released: true,
                                    },
                                );
                            } else {
                                return Some(self.violation(
                                    "pinned-buffer",
                                    "Error:DoubleFree",
                                    fname,
                                    format!("{fname} releases a buffer that was never acquired"),
                                    cx.stack,
                                ));
                            }
                        }
                    }
                }
            }
            Check::RefUse { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if let Some(msg) = self.check_ref_use(jvm, cx.thread, r, machine) {
                        return Some(self.violation(
                            machine,
                            "Error:Dangling",
                            fname,
                            format!("{msg} in {fname}"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::GlobalRelease { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if r.is_null() {
                        return None;
                    }
                    let key = GlobalKey::of(r);
                    match self.globals.get(&key) {
                        Some(RefState::Live) => {
                            self.globals.insert(key, RefState::Released);
                            self.record_ref_moved(
                                self.labels.global_ref,
                                cx.thread,
                                self.labels.release,
                                &r,
                            );
                        }
                        Some(RefState::Released) => {
                            return Some(self.violation(
                                machine,
                                "Error:Dangling",
                                fname,
                                format!("{fname} deletes an already-deleted global reference"),
                                cx.stack,
                            ));
                        }
                        None => {
                            if jvm.resolve(cx.thread, r).is_ok() {
                                self.globals.insert(key, RefState::Released);
                            } else {
                                return Some(self.violation(
                                    machine,
                                    "Error:Dangling",
                                    fname,
                                    format!("{fname} deletes a global reference that was never acquired"),
                                    cx.stack,
                                ));
                            }
                        }
                    }
                }
            }
            Check::LocalDelete { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if r.is_null() || r.kind() != RefKind::Local {
                        return None;
                    }
                    let key = LocalKey::of(r);
                    let thread = cx.thread;
                    match self.tracker(thread).states.get(&key).copied() {
                        Some(RefState::Live) => {
                            let tracker = self.tracker(thread);
                            tracker.states.insert(key, RefState::Released);
                            for f in tracker.frames.iter_mut() {
                                f.refs.retain(|k| *k != key);
                            }
                            self.record_ref_moved(
                                self.labels.local_ref,
                                thread,
                                self.labels.release,
                                &r,
                            );
                        }
                        Some(RefState::Released) => {
                            return Some(self.violation(
                                machine,
                                "Error:DoubleFree",
                                fname,
                                format!("{fname} deletes an already-deleted local reference"),
                                cx.stack,
                            ));
                        }
                        None => {
                            if jvm.resolve(thread, r).map(|o| o.is_some()).unwrap_or(false) {
                                self.tracker(thread).states.insert(key, RefState::Released);
                            } else {
                                return Some(self.violation(
                                    machine,
                                    "Error:DoubleFree",
                                    fname,
                                    format!(
                                        "{fname} deletes a local reference that was never acquired"
                                    ),
                                    cx.stack,
                                ));
                            }
                        }
                    }
                }
            }
            Check::FramePop => {
                let thread = cx.thread;
                let tracker = self.tracker(thread);
                let top_is_explicit = tracker
                    .frames
                    .last()
                    .map(|f| f.kind == FrameKind::Explicit)
                    .unwrap_or(false);
                if top_is_explicit {
                    tracker.release_frame();
                } else {
                    return Some(self.violation(
                        machine,
                        "Error:DoubleFree",
                        fname,
                        format!("{fname} pops a local frame that was never pushed"),
                        cx.stack,
                    ));
                }
            }
            // Post-only checks never appear in pre tables.
            _ => {}
        }
        None
    }

    fn run_post_check(
        &mut self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        machine: &'static str,
        check: Check,
        ret: Option<&JniRet>,
    ) -> Option<Report> {
        let fname = cx.func.name();
        let Some(ret) = ret else {
            return None; // the call failed; no encoding transitions
        };
        match check {
            Check::RecordMethodId => {
                if let JniRet::Method(m) = ret {
                    self.record_method(jvm, *m);
                }
            }
            Check::RecordFieldId => {
                if let JniRet::Field(f) = ret {
                    self.record_field(jvm, *f);
                }
            }
            Check::CriticalAcquire => {
                if let JniRet::Buf(pin) = ret {
                    if let Some(obj) = jvm.pins().object(*pin) {
                        let tally = self.criticals.entry(cx.thread).or_default();
                        match tally.iter_mut().find(|(o, _)| *o == obj) {
                            Some(entry) => entry.1 += 1,
                            None => tally.push((obj, 1)),
                        }
                    }
                }
            }
            Check::PinAcquire => {
                if let JniRet::Buf(pin) = ret {
                    if let Some(kind) = jvm.pins().kind(*pin) {
                        self.pins.insert(
                            *pin,
                            PinInfo {
                                kind,
                                released: false,
                            },
                        );
                    }
                }
            }
            Check::MonitorAcquire => {
                if let Some(r) = cx.args.first().and_then(JniArg::as_ref) {
                    if let Ok(Some(oop)) = jvm.resolve(cx.thread, r) {
                        let id = jvm.heap().id_of(oop);
                        *self.monitors.entry((cx.thread, id)).or_insert(0) += 1;
                    }
                }
            }
            Check::MonitorRelease => {
                if let Some(r) = cx.args.first().and_then(JniArg::as_ref) {
                    if let Ok(Some(oop)) = jvm.resolve(cx.thread, r) {
                        let id = jvm.heap().id_of(oop);
                        if let Some(count) = self.monitors.get_mut(&(cx.thread, id)) {
                            *count -= 1;
                            if *count == 0 {
                                self.monitors.remove(&(cx.thread, id));
                            }
                        }
                    }
                }
            }
            Check::GlobalAcquire => {
                if let JniRet::Ref(r) = ret {
                    if !r.is_null() {
                        self.globals.insert(GlobalKey::of(*r), RefState::Live);
                        self.record_ref_moved(
                            self.labels.global_ref,
                            cx.thread,
                            self.labels.acquire,
                            r,
                        );
                    }
                }
            }
            Check::LocalAcquireFromReturn => {
                if let JniRet::Ref(r) = ret {
                    if !r.is_null() && r.kind() == RefKind::Local {
                        let thread = cx.thread;
                        let tracker = self.tracker(thread);
                        tracker.acquire(LocalKey::of(*r));
                        let frame = tracker.current();
                        let overflow = frame.refs.len() > frame.capacity;
                        let (len, cap) = (frame.refs.len(), frame.capacity);
                        self.record_ref_moved(
                            self.labels.local_ref,
                            thread,
                            self.labels.acquire,
                            r,
                        );
                        if overflow {
                            return Some(self.violation(
                                machine,
                                "Error:Overflow",
                                fname,
                                format!(
                                    "{fname} acquired local reference {len} of a frame with capacity {cap} (use EnsureLocalCapacity or PushLocalFrame)"
                                ),
                                cx.stack,
                            ));
                        }
                    }
                }
            }
            Check::FramePush => {
                let capacity = match cx.args.first() {
                    Some(JniArg::Size(c)) => (*c).max(0) as usize,
                    _ => DEFAULT_LOCAL_CAPACITY,
                };
                self.tracker(cx.thread).frames.push(Frame {
                    kind: FrameKind::Explicit,
                    capacity,
                    refs: Vec::new(),
                });
            }
            Check::EnsureCapacity => {
                if let Some(JniArg::Size(c)) = cx.args.first() {
                    let c = (*c).max(0) as usize;
                    let frame = self.tracker(cx.thread).current();
                    frame.capacity = frame.capacity.max(c);
                }
            }
            _ => {}
        }
        None
    }
}

fn expected_pin_kind(func: FuncId) -> Option<PinKind> {
    match func.spec().op {
        Op::ReleaseStringChars => Some(PinKind::StringChars),
        Op::ReleaseStringUtfChars => Some(PinKind::StringUtfChars),
        Op::ReleaseArrayElements(_) => Some(PinKind::ArrayElements),
        Op::ReleasePrimitiveArrayCritical => Some(PinKind::ArrayCritical),
        Op::ReleaseStringCritical => Some(PinKind::StringCritical),
        _ => None,
    }
}

impl Interpose for Jinn {
    fn name(&self) -> &str {
        "jinn"
    }

    fn pre_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>) -> Vec<Report> {
        // Synthesized wrappers throw at the first violated constraint
        // (Figure 4), so the first report wins.
        let n = self.table.pre(cx.func).len();
        self.stats
            .checks_executed
            .fetch_add(n as u64, Ordering::Relaxed);
        if n > 0 {
            // A zero delta is invisible in every metrics export; skip
            // the recorder round-trip for it.
            self.recorder
                .count_id(self.labels.checks_executed, n as u64);
        }
        if !self.checks_enabled {
            return Vec::new();
        }
        for i in 0..n {
            let point = self.table.pre(cx.func)[i];
            if let Some(report) = self.run_pre_check(jvm, cx, point.machine, point.check) {
                return vec![report];
            }
        }
        Vec::new()
    }

    fn post_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>, ret: Option<&JniRet>) -> Vec<Report> {
        let n = self.table.post(cx.func).len();
        self.stats
            .checks_executed
            .fetch_add(n as u64, Ordering::Relaxed);
        if n > 0 {
            self.recorder
                .count_id(self.labels.checks_executed, n as u64);
        }
        if !self.checks_enabled {
            return Vec::new();
        }
        for i in 0..n {
            let point = self.table.post(cx.func)[i];
            if let Some(report) = self.run_post_check(jvm, cx, point.machine, point.check, ret) {
                return vec![report];
            }
        }
        Vec::new()
    }

    fn native_enter(
        &mut self,
        _jvm: &Jvm,
        thread: ThreadId,
        _method: MethodId,
        arg_refs: &[JRef],
        _stack: &[String],
    ) -> Vec<Report> {
        if !self.checks_enabled {
            return Vec::new();
        }
        let tracker = self.tracker(thread);
        tracker.frames.push(Frame {
            kind: FrameKind::NativeEntry,
            capacity: DEFAULT_LOCAL_CAPACITY,
            refs: Vec::new(),
        });
        let mut acquired = 0u64;
        for r in arg_refs {
            if r.kind() == RefKind::Local {
                tracker.acquire(LocalKey::of(*r));
                acquired += 1;
            }
        }
        if self.recorder.is_enabled() && acquired > 0 {
            // Call:Java→C Acquire transitions for the argument references.
            for r in arg_refs.iter().filter(|r| r.kind() == RefKind::Local) {
                self.record_ref_moved(self.labels.local_ref, thread, self.labels.acquire, r);
            }
            self.recorder
                .count_id(self.labels.locals_acquired, acquired);
        }
        Vec::new()
    }

    fn native_exit(
        &mut self,
        jvm: &Jvm,
        thread: ThreadId,
        method: MethodId,
        returned_ref: Option<JRef>,
        stack: &[String],
    ) -> Vec<Report> {
        if !self.checks_enabled {
            return Vec::new();
        }
        let mut reports = Vec::new();
        let method_name = jvm
            .registry()
            .method(method)
            .map_or("<native method>", |m| m.name.as_str());

        // Use of the returned reference (Return:C→Java Use transition).
        if let Some(r) = returned_ref {
            let msg = match r.kind() {
                RefKind::Local => self.check_local_use(jvm, thread, r),
                RefKind::Global | RefKind::WeakGlobal => self.check_global_use(jvm, thread, r),
                RefKind::Null => None,
            };
            if let Some(msg) = msg {
                let machine: &'static str = if r.kind() == RefKind::Local {
                    "local-reference"
                } else {
                    "global-reference"
                };
                reports.push(self.violation(
                    machine,
                    "Error:Dangling",
                    method_name,
                    format!("{msg} returned from native method {method_name}"),
                    stack,
                ));
            }
        }

        // Frame balance: explicit frames must be popped before returning.
        let tracker = self.tracker(thread);
        let mut leaked_frames = 0;
        while tracker
            .frames
            .last()
            .map(|f| f.kind == FrameKind::Explicit)
            .unwrap_or(false)
        {
            leaked_frames += 1;
            tracker.release_frame();
        }
        // Release the native-entry frame itself.
        tracker.release_frame();
        if leaked_frames > 0 {
            reports.push(self.violation(
                "local-reference",
                "Error:FrameLeak",
                method_name,
                format!("{leaked_frames} local frame(s) pushed by {method_name} were never popped"),
                stack,
            ));
        }
        reports
    }

    fn vm_death(&mut self, jvm: &Jvm) -> Vec<Report> {
        if !self.checks_enabled {
            return Vec::new();
        }
        let mut reports = Vec::new();
        // Leak sweeps iterate in sorted entity order: verdict sequences
        // must be stable across runs (and across replays) whatever order
        // the backing maps iterate in.
        let mut leaked_pins: Vec<(&PinId, &PinInfo)> =
            self.pins.iter().filter(|(_, i)| !i.released).collect();
        leaked_pins.sort_unstable_by_key(|(pin, _)| pin.0);
        for (pin, info) in leaked_pins {
            let kind = info.kind;
            reports.push(Report::new(
                Violation {
                    machine: "pinned-buffer",
                    error_state: "Error:Leak",
                    function: "VMDeath".to_string(),
                    message: format!("buffer {pin} acquired via {kind} was never released"),
                    backtrace: Vec::new(),
                },
                ReportAction::ThrowException,
            ));
        }
        let mut held_monitors: Vec<(&(ThreadId, ObjectId), &u32)> = self.monitors.iter().collect();
        held_monitors.sort_unstable_by_key(|((t, o), _)| (t.0, o.0));
        for ((thread, obj), count) in held_monitors {
            reports.push(Report::new(
                Violation {
                    machine: "monitor",
                    error_state: "Error:Leak",
                    function: "VMDeath".to_string(),
                    message: format!(
                        "monitor of {obj} still held {count}x by {thread} at termination (deadlock risk)"
                    ),
                    backtrace: Vec::new(),
                },
                ReportAction::ThrowException,
            ));
        }
        let leaked_globals = self
            .globals
            .values()
            .filter(|s| **s == RefState::Live)
            .count();
        if leaked_globals > 0 {
            reports.push(Report::new(
                Violation {
                    machine: "global-reference",
                    error_state: "Error:Leak",
                    function: "VMDeath".to_string(),
                    message: format!(
                        "{leaked_globals} global/weak-global reference(s) never deleted"
                    ),
                    backtrace: Vec::new(),
                },
                ReportAction::ThrowException,
            ));
        }
        self.stats
            .violations
            .fetch_add(reports.len() as u64, Ordering::Relaxed);
        let _ = jvm;
        reports
    }
}

/// Registers Jinn's exception class and attaches a fresh checker to the
/// session (`java -agentlib:jinn`). Returns the stats handle.
pub fn install(session: &mut minijni::Session) -> SharedStats {
    install_with_config(session, JinnConfig::default())
}

/// Like [`install`], with explicit configuration.
pub fn install_with_config(session: &mut minijni::Session, config: JinnConfig) -> SharedStats {
    install_prebuilt(session, Jinn::with_config(config))
}

/// Like [`install`], but attaches a checker constructed elsewhere — for
/// example on a driver thread that then moves it into a worker thread
/// (`Jinn` is `Send`). Registers the exception class, wires the
/// session's recorder into the checker, and returns the stats handle.
pub fn install_prebuilt(session: &mut minijni::Session, mut jinn: Jinn) -> SharedStats {
    let jvm = session.vm_mut().jvm_mut();
    if jvm.find_class(minijni::JINN_EXCEPTION_CLASS).is_none() {
        jvm.registry_mut()
            .define(minijni::JINN_EXCEPTION_CLASS)
            .superclass(minijvm::class::names::RUNTIME_EXCEPTION)
            .build()
            .expect("register jinn exception class");
    }
    jinn.set_recorder(session.recorder().clone());
    let stats = jinn.stats_handle();
    session.attach(Box::new(jinn));
    stats
}
