//! The replay driver: rebuild the recorded world, re-feed the recorded
//! boundary calls through a freshly-configured JNI stack, and classify
//! the outcome with the microbenchmark harness's Table 1 vocabulary.
//!
//! Determinism rests on three invariants of the substrate:
//!
//! 1. every id (`ClassId`, `MethodId`, `FieldId`, local-reference
//!    slot/generation, heap positions) is assigned in allocation order,
//!    so re-executing the recorded definitions/allocations in order
//!    reproduces the original ids exactly;
//! 2. native bodies only interact with the VM through the JNI, so a body
//!    can be *replaced* by a script that re-issues its recorded JNI
//!    calls verbatim;
//! 3. undefined-behaviour outcomes and checker verdicts are functions of
//!    (vendor model, checker config, boundary history) — replaying one
//!    maximal trace under a different configuration re-decides them,
//!    which is exactly the differential question of Table 1.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use jinn_core::JinnConfig;
use jinn_microbench::Behavior;
use jinn_vendors::Vendor;
use minijni::{FuncId, JniEnv};
use minijni::{JniArg, JniError, ReportAction, RunOutcome, Session, Vm};
use minijvm::{EnvToken, FieldType, JValue, MethodBody, MethodId, ThreadId};

use crate::format::{BodyKind, CallStatus, ManagedRec, SeedKind, TraceError, TraceRecord};
use crate::reader::Trace;

/// Which stack to replay a trace under — the rows of Table 1, plus
/// arbitrary Jinn ablations.
#[derive(Debug, Clone)]
pub enum ReplayConfig {
    /// Production vendor, no checker.
    Default(Vendor),
    /// The vendor's `-Xcheck:jni` implementation.
    Xcheck(Vendor),
    /// Jinn with all eleven machines.
    Jinn(Vendor),
    /// Jinn with a custom configuration (ablations, pedantic mode).
    JinnAblated(Vendor, JinnConfig),
}

impl ReplayConfig {
    /// The underlying vendor model.
    pub fn vendor(&self) -> Vendor {
        match self {
            ReplayConfig::Default(v)
            | ReplayConfig::Xcheck(v)
            | ReplayConfig::Jinn(v)
            | ReplayConfig::JinnAblated(v, _) => *v,
        }
    }

    /// Column label, matching the microbenchmark harness where possible.
    pub fn label(&self) -> String {
        match self {
            ReplayConfig::Default(v) => format!("{v}"),
            ReplayConfig::Xcheck(v) => format!("{v} -Xcheck:jni"),
            ReplayConfig::Jinn(v) => format!("Jinn on {v}"),
            ReplayConfig::JinnAblated(v, cfg) => {
                format!("Jinn on {v} (-{})", cfg.disabled_machines.join(",-"))
            }
        }
    }

    /// Parses a CLI-style label: `hotspot`, `j9`, `xcheck:hotspot`,
    /// `xcheck:j9`, `jinn`, `jinn:j9`.
    pub fn parse(s: &str) -> Option<ReplayConfig> {
        match s.to_ascii_lowercase().as_str() {
            "hotspot" | "default" | "default:hotspot" => {
                Some(ReplayConfig::Default(Vendor::HotSpot))
            }
            "j9" | "default:j9" => Some(ReplayConfig::Default(Vendor::J9)),
            "xcheck" | "xcheck:hotspot" => Some(ReplayConfig::Xcheck(Vendor::HotSpot)),
            "xcheck:j9" => Some(ReplayConfig::Xcheck(Vendor::J9)),
            "jinn" | "jinn:hotspot" => Some(ReplayConfig::Jinn(Vendor::HotSpot)),
            "jinn:j9" => Some(ReplayConfig::Jinn(Vendor::J9)),
            _ => None,
        }
    }
}

/// The five standard configurations of the evaluation (Table 1 columns).
pub fn standard_configs() -> Vec<ReplayConfig> {
    vec![
        ReplayConfig::Default(Vendor::HotSpot),
        ReplayConfig::Default(Vendor::J9),
        ReplayConfig::Xcheck(Vendor::HotSpot),
        ReplayConfig::Xcheck(Vendor::J9),
        ReplayConfig::Jinn(Vendor::HotSpot),
    ]
}

/// What replaying a trace under one configuration produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The configuration's label.
    pub label: String,
    /// Classified behaviour, Table 1 vocabulary.
    pub behavior: Behavior,
    /// Primary diagnosis message, if any tool produced one.
    pub message: Option<String>,
    /// The session log.
    pub log: Vec<String>,
    /// Recorded JNI calls re-issued.
    pub events_replayed: u64,
    /// Replay mismatches observed (unexpected seed ids, exhausted
    /// queues). Zero on a faithful trace; post-bug divergence under a
    /// *stricter* config than the recorder is normal and not counted.
    pub divergences: u64,
    /// Every checker violation surfaced during the run: the in-flight
    /// checker exception (if any) plus all shutdown-time reports, in
    /// detection order. The verdict store in `jinn-serve` indexes these
    /// individually; [`ReplayOutcome::behavior`] summarizes them.
    pub violations: Vec<minijni::Violation>,
}

impl ReplayOutcome {
    /// A compact verdict string for diffing: behaviour plus message.
    pub fn verdict_signature(&self) -> String {
        match &self.message {
            Some(m) => format!("{}: {m}", self.behavior),
            None => self.behavior.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Activation trees
// ---------------------------------------------------------------------------

/// One recorded method activation — a native body, or a managed body
/// entered across the boundary — with everything it did, in enter order.
/// Top-level activations (natives the program's `main` entered) are the
/// unit the driver replays; everything nested hangs off them, so a
/// re-entrant native replays each activation from its own position in
/// the tree.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: BodyKind,
    thread: u16,
    method: u32,
    args: Vec<JValue>,
    steps: Vec<Step>,
    /// How the activation finished; `None` when the trace ended first.
    end: Option<End>,
}

#[derive(Debug, Clone)]
enum Step {
    /// A JNI call the body issued, with the activations it entered.
    Jni(JniCall),
    /// An activation the body entered directly (a managed body calling
    /// a native method).
    Enter(Activation),
}

/// One recorded `Call:C→Java` with the presented env token.
#[derive(Debug, Clone)]
struct JniCall {
    presented: u32,
    func: u16,
    args: Vec<JniArg>,
    entered: Vec<Activation>,
}

#[derive(Debug, Clone)]
enum End {
    Native {
        status: CallStatus,
        ret: Option<JValue>,
    },
    Managed(ManagedRec),
}

enum Frame {
    Act(Activation),
    Jni(JniCall),
}

fn corrupt(msg: impl Into<String>) -> TraceError {
    TraceError::Corrupt(msg.into())
}

/// The structural fold: event records in, in arrival order (which is
/// enter order), closed top-level activations out. Each thread keeps a
/// stack of open frames; a frame that closes hangs off its parent, and
/// a top-level activation is handed out at its `NativeExit`. Because
/// the fold needs nothing past the record it is given, the same fold
/// serves a complete trace and a stream still uploading.
#[derive(Default)]
pub struct ActivationFold {
    open: BTreeMap<u16, Vec<Frame>>,
}

impl ActivationFold {
    /// An empty fold.
    pub fn new() -> ActivationFold {
        ActivationFold::default()
    }

    /// Folds one event record, returning the top-level activation it
    /// closed, if any. Annotations (GC points, vendor decisions, obs
    /// events, Python calls) are informative only: the replayed VM
    /// re-makes those decisions itself.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for unbalanced enters/exits, a JNI call
    /// or managed activation outside any native body, an unknown JNI
    /// function id, or a setup record. The fold is unusable afterwards.
    pub fn push(&mut self, record: TraceRecord) -> Result<Option<Activation>, TraceError> {
        match record {
            TraceRecord::NativeEnter {
                thread,
                method,
                args,
            } => self.stack(thread).push(Frame::Act(Activation::new(
                BodyKind::Native,
                thread,
                method,
                args,
            ))),
            TraceRecord::ManagedEnter {
                thread,
                method,
                args,
            } => {
                let stack = self.stack(thread);
                if stack.is_empty() {
                    return Err(corrupt("ManagedEnter outside any native body"));
                }
                stack.push(Frame::Act(Activation::new(
                    BodyKind::Managed,
                    thread,
                    method,
                    args,
                )));
            }
            TraceRecord::NativeExit {
                thread,
                method,
                status,
                ret,
            } => return self.close(thread, method, End::Native { status, ret }),
            TraceRecord::ManagedExit {
                thread,
                method,
                outcome,
            } => return self.close(thread, method, End::Managed(outcome)),
            TraceRecord::JniEnter {
                thread,
                presented,
                func,
                args,
            } => {
                if usize::from(func) >= minijni::registry().len() {
                    return Err(corrupt(format!("unknown JNI function id {func}")));
                }
                let stack = self.stack(thread);
                if !matches!(stack.last(), Some(Frame::Act(_))) {
                    return Err(corrupt("JniEnter outside any native body"));
                }
                stack.push(Frame::Jni(JniCall {
                    presented,
                    func,
                    args,
                    entered: Vec::new(),
                }));
            }
            TraceRecord::JniExit { thread, .. } => {
                let stack = self.stack(thread);
                let Some(Frame::Jni(call)) = stack.pop() else {
                    return Err(corrupt("unbalanced JniExit"));
                };
                attach(stack, Frame::Jni(call));
            }
            TraceRecord::GcPoint { .. }
            | TraceRecord::VendorUb { .. }
            | TraceRecord::ObsEvent { .. }
            | TraceRecord::PyCall { .. } => {}
            TraceRecord::Meta { .. }
            | TraceRecord::DefClass(_)
            | TraceRecord::SpawnThread { .. }
            | TraceRecord::Seed(_) => return Err(corrupt("setup record in event stream")),
        }
        Ok(None)
    }

    fn stack(&mut self, thread: u16) -> &mut Vec<Frame> {
        self.open.entry(thread).or_default()
    }

    fn close(
        &mut self,
        thread: u16,
        method: u32,
        end: End,
    ) -> Result<Option<Activation>, TraceError> {
        let (kind, record) = match end {
            End::Native { .. } => (BodyKind::Native, "NativeExit"),
            End::Managed(_) => (BodyKind::Managed, "ManagedExit"),
        };
        let stack = self.stack(thread);
        let mut act = match stack.pop() {
            Some(Frame::Act(act)) if act.kind == kind => act,
            _ => return Err(corrupt(format!("unbalanced {record}"))),
        };
        if act.method != method {
            return Err(corrupt(format!(
                "{record} method {method} does not match enter {}",
                act.method
            )));
        }
        act.end = Some(end);
        Ok(attach(stack, Frame::Act(act)))
    }

    /// Ends the stream: every frame still open is closed unfinished (an
    /// unfinished activation replays as one divergence) and the open
    /// top-level activations are handed out, by thread.
    pub fn finish(self) -> Vec<Activation> {
        let mut tops = Vec::new();
        for (_, mut stack) in self.open {
            while let Some(frame) = stack.pop() {
                tops.extend(attach(&mut stack, frame));
            }
        }
        tops
    }
}

/// Hangs a finished frame off its parent, or hands back a finished
/// top-level activation.
fn attach(stack: &mut [Frame], frame: Frame) -> Option<Activation> {
    match (stack.last_mut(), frame) {
        (None, Frame::Act(act)) => return Some(act),
        (Some(Frame::Jni(call)), Frame::Act(act)) => call.entered.push(act),
        (Some(Frame::Act(parent)), Frame::Act(act)) => parent.steps.push(Step::Enter(act)),
        (Some(Frame::Act(parent)), Frame::Jni(call)) => parent.steps.push(Step::Jni(call)),
        (_, Frame::Jni(_)) => unreachable!("a JNI frame only opens on top of an activation"),
    }
    None
}

impl Activation {
    fn new(kind: BodyKind, thread: u16, method: u32, args: Vec<JValue>) -> Activation {
        Activation {
            kind,
            thread,
            method,
            args,
            steps: Vec::new(),
            end: None,
        }
    }
}

/// Folds a complete event stream into its top-level activations: in
/// close order, then any the stream left open. The fold's first
/// structural error ends the sequence.
pub fn activations(events: &[TraceRecord]) -> Vec<Result<Activation, TraceError>> {
    let mut fold = ActivationFold::new();
    let mut out = Vec::new();
    for event in events {
        match fold.push(event.clone()) {
            Ok(top) => out.extend(top.map(Ok)),
            Err(e) => {
                out.push(Err(e));
                return out;
            }
        }
    }
    out.extend(fold.finish().into_iter().map(Ok));
    out
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Replay state shared with the scripted method bodies: for each
/// boundary crossing in progress, the activations the trace expects the
/// VM to enter there (innermost last), plus the counters.
#[derive(Debug, Default)]
struct Script {
    expected: Vec<VecDeque<Activation>>,
    events_replayed: u64,
    divergences: u64,
}

impl Script {
    /// The recorded activation the VM just entered, when it is the one
    /// the trace expects next at this crossing.
    fn take(&mut self, kind: BodyKind, method: u32) -> Option<Activation> {
        let queue = self.expected.last_mut().filter(|q| {
            q.front()
                .is_some_and(|a| a.kind == kind && a.method == method)
        });
        let act = queue.and_then(VecDeque::pop_front);
        if act.is_none() {
            self.divergences += 1;
        }
        act
    }
}

/// Runs `f` with `expected` as the activations the VM may enter during
/// it; whatever went unentered (a checker stopped the call first) is
/// dropped uncounted — post-bug divergence under a stricter stack is
/// the point of replaying, not a replay fault.
fn expecting<T>(
    script: &Rc<RefCell<Script>>,
    expected: VecDeque<Activation>,
    f: impl FnOnce() -> T,
) -> T {
    script.borrow_mut().expected.push(expected);
    let out = f();
    script.borrow_mut().expected.pop();
    out
}

fn scripted_body(script: Rc<RefCell<Script>>, kind: BodyKind, method: u32) -> minijni::NativeFn {
    Rc::new(move |env: &mut JniEnv<'_>, _args: &[JValue]| {
        let act = script.borrow_mut().take(kind, method);
        match act {
            Some(act) => play(&script, env, act),
            None => Ok(JValue::Void),
        }
    })
}

/// Re-issues one activation's recorded steps in order, then finishes it
/// the way the recording did.
fn play(
    script: &Rc<RefCell<Script>>,
    env: &mut JniEnv<'_>,
    act: Activation,
) -> Result<JValue, JniError> {
    let own = env.presented_env();
    for step in act.steps {
        let result = match step {
            Step::Jni(call) => {
                env.set_presented_env(EnvToken(call.presented));
                let result = expecting(script, call.entered.into(), || {
                    env.invoke(FuncId(call.func), call.args).map(drop)
                });
                env.set_presented_env(own);
                script.borrow_mut().events_replayed += 1;
                result
            }
            Step::Enter(mut child) => {
                let method = MethodId::forged(u64::from(child.method));
                let args = std::mem::take(&mut child.args);
                let kind = child.kind;
                expecting(script, VecDeque::from([child]), || match kind {
                    BodyKind::Managed => env.call_managed_method(method, &args),
                    _ => env.call_native_method(method, &args),
                })
                .map(drop)
            }
        };
        // Ok, or an exception now pending: keep issuing the recorded
        // steps — the recorded body did, and the driver's final
        // pending-exception check reproduces the Java-side rethrow
        // identically. Only death/detection stops the body.
        if let Err(e @ (JniError::Death(_) | JniError::Detected(_))) = result {
            return Err(e);
        }
    }
    let pending = env.jvm().thread(env.thread()).pending_exception().is_some();
    match act.end {
        Some(End::Native {
            status: CallStatus::Exception,
            ..
        }) if pending => Err(JniError::Exception),
        Some(End::Native { ret, .. }) => Ok(ret.unwrap_or(JValue::Void)),
        Some(End::Managed(ManagedRec::Return(v))) => Ok(v),
        Some(End::Managed(ManagedRec::Threw { class, message })) => {
            Err(env.java_throw(&class, &message))
        }
        Some(End::Managed(ManagedRec::Died | ManagedRec::Detected)) | None => {
            script.borrow_mut().divergences += 1;
            Ok(JValue::Void)
        }
    }
}

/// Rebuilds the recorded world inside `vm`: classes (in recorded
/// definition order, with scripted bodies), spawned threads, and seed
/// allocations. Returns the number of setup divergences.
fn rebuild_world(
    vm: &mut Vm,
    trace: &Trace,
    script: &Rc<RefCell<Script>>,
) -> Result<u64, TraceError> {
    let mut divergences = 0u64;
    let mut next_method = vm.jvm().registry().method_count() as u32;

    for class in &trace.classes {
        if class.name.starts_with('[') {
            // Array classes replay through the registry's array-class
            // cache; the name is the element descriptor wrapped in `[`.
            let ty = FieldType::parse(&class.name).map_err(|e| {
                TraceError::Corrupt(format!("bad array class `{}`: {e}", class.name))
            })?;
            let FieldType::Array(elem) = ty else {
                return Err(TraceError::Corrupt(format!(
                    "class `{}` is not an array descriptor",
                    class.name
                )));
            };
            vm.jvm_mut().registry_mut().array_class(*elem);
            continue;
        }
        // Register scripted bodies first (code indices), then define the
        // class so method ids come out in recorded order.
        let mut bodies = Vec::with_capacity(class.methods.len());
        for m in &class.methods {
            let body = match m.kind {
                BodyKind::Native => {
                    let f = scripted_body(Rc::clone(script), BodyKind::Native, next_method);
                    MethodBody::Native(Some(vm.add_native_code(f)))
                }
                BodyKind::Managed => {
                    let f = scripted_body(Rc::clone(script), BodyKind::Managed, next_method);
                    MethodBody::Managed(vm.add_managed_code(f))
                }
                BodyKind::Abstract => MethodBody::Abstract,
            };
            next_method += 1;
            bodies.push(body);
        }
        let mut builder = vm.jvm_mut().registry_mut().define(&class.name);
        if class.is_interface {
            builder = builder.as_interface();
        } else if let Some(sup) = &class.superclass {
            builder = builder.superclass(sup.clone());
        }
        for f in &class.fields {
            builder = builder.field(&f.name, &f.desc, f.flags);
        }
        for (m, body) in class.methods.iter().zip(bodies) {
            builder = builder.method(&m.name, &m.desc, m.flags, body);
        }
        builder
            .build()
            .map_err(|e| TraceError::Corrupt(format!("class `{}`: {e}", class.name)))?;
    }

    if let Some(period) = trace.meta_value("gc_period").and_then(|v| v.parse().ok()) {
        vm.jvm_mut().set_auto_gc_period(Some(period));
    }

    for &expected in &trace.threads {
        let got = vm.jvm_mut().spawn_thread();
        if got.0 != expected {
            divergences += 1;
        }
    }

    for seed in &trace.seeds {
        let oop = match &seed.kind {
            SeedKind::Text(s) => vm.jvm_mut().alloc_string(s),
            SeedKind::Object(class) => {
                let Some(id) = vm.jvm().find_class(class) else {
                    divergences += 1;
                    continue;
                };
                vm.jvm_mut().alloc_object(id)
            }
            SeedKind::Mirror(class) => {
                let Some(id) = vm.jvm().find_class(class) else {
                    divergences += 1;
                    continue;
                };
                vm.jvm_mut().mirror_oop(id)
            }
        };
        let r = vm.jvm_mut().new_local(ThreadId(seed.thread), oop);
        if r != seed.expected {
            divergences += 1;
        }
    }
    Ok(divergences)
}

/// One configuration's replay of one trace. The world is rebuilt once
/// at construction; [`Replayer::run`] then runs each top-level
/// activation on the same [`Session`] as it is handed in (all at once
/// for a complete trace, one by one as a stream closes them), and
/// [`Replayer::finish`] shuts the session down and classifies it.
pub struct Replayer {
    session: Session,
    script: Rc<RefCell<Script>>,
    config: ReplayConfig,
    program: String,
    leaks: bool,
    outcomes: Vec<RunOutcome>,
}

impl Replayer {
    /// Rebuilds `setup`'s world on `config`'s vendor and attaches its
    /// checker stack, with `recorder` (if any) wired in *before* the
    /// checker so FSM-transition and verdict events from the re-judged
    /// execution land in the caller's ring. Replay-affecting metadata
    /// (`program`, `gc_period`, `leaks`) is read from `setup` now; the
    /// setup-order rule in [`crate::TraceBuilder`] keeps it ahead of
    /// every event record.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] when the setup section cannot be rebuilt
    /// (bad array descriptors, class definition failures).
    pub fn new(
        setup: &Trace,
        config: &ReplayConfig,
        recorder: Option<&jinn_obs::Recorder>,
    ) -> Result<Replayer, TraceError> {
        Replayer::with_vm(config.vendor().vm(), setup, config, recorder)
    }

    /// [`Replayer::new`] on a caller-built VM, e.g. one on
    /// [`crate::RecordVendor`] with a [`crate::TraceWriter`] tapped in,
    /// which re-records the replay.
    ///
    /// # Errors
    ///
    /// As for [`Replayer::new`].
    pub fn with_vm(
        mut vm: Vm,
        setup: &Trace,
        config: &ReplayConfig,
        recorder: Option<&jinn_obs::Recorder>,
    ) -> Result<Replayer, TraceError> {
        let script = Rc::new(RefCell::new(Script::default()));
        let setup_divergences = rebuild_world(&mut vm, setup, &script)?;
        script.borrow_mut().divergences = setup_divergences;
        let mut session = Session::new(vm);
        if let Some(rec) = recorder {
            session.set_recorder(rec.clone());
        }
        match config {
            ReplayConfig::Default(_) => {}
            ReplayConfig::Xcheck(v) => session.attach(v.xcheck()),
            ReplayConfig::Jinn(_) => {
                jinn_core::install(&mut session);
            }
            ReplayConfig::JinnAblated(_, cfg) => {
                jinn_core::install_with_config(&mut session, cfg.clone());
            }
        }
        Ok(Replayer {
            session,
            script,
            config: config.clone(),
            program: setup.program().to_string(),
            leaks: setup.meta_value("leaks") == Some("true"),
            outcomes: Vec::new(),
        })
    }

    /// Runs one top-level activation, unless an earlier one ended the
    /// run (the harness stops at the first fatal entry). The structural
    /// check runs either way, before any body is invoked.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] when the activation names a thread or
    /// method the rebuilt world lacks, or a method whose body kind
    /// differs from the recorded one.
    pub fn run(&mut self, mut top: Activation) -> Result<(), TraceError> {
        self.check(&top)?;
        if self
            .outcomes
            .last()
            .is_some_and(|o| !matches!(o, RunOutcome::Completed(_)))
        {
            return Ok(());
        }
        let thread = ThreadId(top.thread);
        let method = MethodId::forged(u64::from(top.method));
        // The recorded entry arguments: replayed seeds reproduce the same
        // JRefs, so re-presenting them re-registers identical callee
        // locals and keeps slot allocation in lock-step with the trace.
        let args = std::mem::take(&mut top.args);
        let name = &self.program;
        self.session
            .env(thread)
            .enter_java_frame(format!("{name}.main({name}.java:5)"));
        let session = &mut self.session;
        let outcome = expecting(&self.script, VecDeque::from([top]), || {
            session.run_native(thread, method, &args)
        });
        self.session.env(thread).exit_java_frame();
        self.outcomes.push(outcome);
        Ok(())
    }

    fn check(&self, top: &Activation) -> Result<(), TraceError> {
        let jvm = self.session.vm().jvm();
        if top.kind != BodyKind::Native {
            return Err(corrupt("top-level activation is not native"));
        }
        if !jvm.thread_ids().any(|t| t.0 == top.thread) {
            return Err(corrupt(format!(
                "activation on unknown thread {}",
                top.thread
            )));
        }
        let mut pending = vec![top];
        while let Some(act) = pending.pop() {
            let body = jvm
                .registry()
                .method(MethodId::forged(u64::from(act.method)))
                .map(|m| &m.body);
            let fits = matches!(
                (act.kind, body),
                (BodyKind::Native, Some(MethodBody::Native(_)))
                    | (BodyKind::Managed, Some(MethodBody::Managed(_)))
            );
            if !fits {
                return Err(corrupt(format!(
                    "{:?} activation of method {}, which the rebuilt world has no such body for",
                    act.kind, act.method
                )));
            }
            for step in &act.steps {
                match step {
                    Step::Jni(call) => pending.extend(&call.entered),
                    Step::Enter(child) => pending.push(child),
                }
            }
        }
        Ok(())
    }

    /// Shuts the session down and classifies the run.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] when no top-level activation ran.
    pub fn finish(self) -> Result<ReplayOutcome, TraceError> {
        let Replayer {
            mut session,
            script,
            config,
            leaks,
            outcomes,
            ..
        } = self;
        let shutdown_reports = session.shutdown();
        let log = session.take_log();
        drop(session);

        let is_default = matches!(config, ReplayConfig::Default(_));
        let (behavior, message, violations) =
            classify_outcomes(leaks && is_default, &outcomes, &shutdown_reports, &log)?;
        let script = script.borrow();
        Ok(ReplayOutcome {
            label: config.label(),
            behavior,
            message,
            log,
            events_replayed: script.events_replayed,
            divergences: script.divergences,
            violations,
        })
    }
}

/// Replays a parsed trace under one configuration: fold every event,
/// run every top-level activation, finish.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the trace is structurally invalid
/// (unbalanced enters/exits, setup records mid-stream, unknown classes,
/// methods, or threads).
pub fn replay_trace(trace: &Trace, config: &ReplayConfig) -> Result<ReplayOutcome, TraceError> {
    replay_trace_inner(trace, config, None)
}

/// Like [`replay_trace`], but with a live [`jinn_obs::Recorder`] wired
/// into the replayed session *before* the checker stack attaches, so
/// FSM-transition and verdict events from the re-judged execution land
/// in the caller's ring.
///
/// # Errors
///
/// As for [`replay_trace`].
pub fn replay_trace_observed(
    trace: &Trace,
    config: &ReplayConfig,
    recorder: &jinn_obs::Recorder,
) -> Result<ReplayOutcome, TraceError> {
    replay_trace_inner(trace, config, Some(recorder))
}

fn replay_trace_inner(
    trace: &Trace,
    config: &ReplayConfig,
    recorder: Option<&jinn_obs::Recorder>,
) -> Result<ReplayOutcome, TraceError> {
    let mut replayer = Replayer::new(trace, config, recorder)?;
    for top in activations(&trace.events) {
        replayer.run(top?)?;
    }
    replayer.finish()
}

/// Classification — the microbenchmark harness's algorithm, verbatim,
/// so replayed verdicts are comparable with live Table 1 cells.
/// `silent_leak` is the harness's "leaky scenario on a default VM".
fn classify_outcomes(
    silent_leak: bool,
    outcomes: &[RunOutcome],
    shutdown_reports: &[minijni::Report],
    log: &[String],
) -> Result<(Behavior, Option<String>, Vec<minijni::Violation>), TraceError> {
    let mut behavior = Behavior::Running;
    let mut message = None;

    let final_outcome = outcomes
        .last()
        .ok_or_else(|| TraceError::Corrupt("trace has no top-level entries".into()))?;
    let jinn_shutdown = shutdown_reports
        .iter()
        .find(|r| r.action == ReportAction::ThrowException);
    let warn_shutdown = shutdown_reports
        .iter()
        .find(|r| r.action == ReportAction::Warn);
    let has_warnings = log.iter().any(|l| l.contains("WARNING")) || warn_shutdown.is_some();

    match final_outcome {
        RunOutcome::CheckerException(v) => {
            behavior = Behavior::JinnException;
            message = Some(v.message.clone());
        }
        RunOutcome::UncaughtException(desc) if desc.contains("JNIAssertionFailure") => {
            behavior = Behavior::JinnException;
            message = Some(desc.clone());
        }
        RunOutcome::Died(d) if d.kind == minijvm::DeathKind::FatalError => {
            behavior = Behavior::Error;
            message = Some(d.message.clone());
        }
        _ => {}
    }
    if behavior == Behavior::Running {
        if let Some(r) = jinn_shutdown {
            behavior = Behavior::JinnException;
            message = Some(r.violation.message.clone());
        } else if has_warnings {
            behavior = Behavior::Warning;
            message = log
                .iter()
                .find(|l| l.contains("WARNING"))
                .cloned()
                .or_else(|| warn_shutdown.map(|r| r.violation.message.clone()));
        } else {
            match final_outcome {
                RunOutcome::UncaughtException(desc) if desc.contains("NullPointerException") => {
                    behavior = Behavior::Npe;
                    message = Some(desc.clone());
                }
                RunOutcome::Died(d) if d.kind == minijvm::DeathKind::Deadlock => {
                    behavior = Behavior::Deadlock;
                    message = Some(d.message.clone());
                }
                RunOutcome::Died(d) if d.kind == minijvm::DeathKind::Crash => {
                    behavior = Behavior::Crash;
                    message = Some(d.message.clone());
                }
                _ => {
                    behavior = if silent_leak {
                        Behavior::Leak
                    } else {
                        Behavior::Running
                    };
                }
            }
        }
    }

    let mut violations: Vec<minijni::Violation> = outcomes
        .iter()
        .filter_map(|o| match o {
            RunOutcome::CheckerException(v) => Some(v.clone()),
            _ => None,
        })
        .collect();
    violations.extend(shutdown_reports.iter().map(|r| r.violation.clone()));
    Ok((behavior, message, violations))
}

/// Replays raw trace bytes under one configuration (parse + replay).
///
/// # Errors
///
/// As for [`Trace::parse`] and [`replay_trace`].
pub fn replay_bytes(bytes: &[u8], config: &ReplayConfig) -> Result<ReplayOutcome, TraceError> {
    let trace = Trace::parse(bytes)?;
    replay_trace(&trace, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{program_by_name, record_program};

    #[test]
    fn figure1_replay_matrix_matches_live_runs() {
        let p = program_by_name("LocalRefDangling").expect("figure 1 scenario");
        let bytes = record_program(&p);
        let trace = Trace::parse(&bytes).unwrap();

        let jinn = replay_trace(&trace, &ReplayConfig::Jinn(Vendor::HotSpot)).unwrap();
        assert_eq!(jinn.behavior, Behavior::JinnException, "{jinn:?}");
        assert_eq!(jinn.divergences, 0, "{jinn:?}");
        assert!(jinn.events_replayed > 0);

        let hs = replay_trace(&trace, &ReplayConfig::Default(Vendor::HotSpot)).unwrap();
        assert_eq!(hs.behavior, Behavior::Crash, "{hs:?}");
    }

    fn enter(method: u32) -> TraceRecord {
        TraceRecord::NativeEnter {
            thread: 0,
            method,
            args: vec![],
        }
    }

    fn exit(method: u32) -> TraceRecord {
        TraceRecord::NativeExit {
            thread: 0,
            method,
            status: CallStatus::Ok,
            ret: Some(JValue::Void),
        }
    }

    fn fold_error(records: Vec<TraceRecord>) -> String {
        let mut fold = ActivationFold::new();
        for r in records {
            if let Err(TraceError::Corrupt(msg)) = fold.push(r) {
                return msg;
            }
        }
        panic!("fold accepted a malformed stream")
    }

    #[test]
    fn fold_rejects_malformed_streams() {
        assert!(fold_error(vec![exit(1)]).contains("unbalanced NativeExit"));
        assert!(fold_error(vec![enter(1), exit(2)]).contains("does not match"));
        let call = TraceRecord::JniEnter {
            thread: 0,
            presented: 0,
            func: 0,
            args: vec![],
        };
        assert!(fold_error(vec![call]).contains("outside any native body"));
        let forged = TraceRecord::JniEnter {
            thread: 0,
            presented: 0,
            func: u16::MAX,
            args: vec![],
        };
        assert!(fold_error(vec![enter(1), forged]).contains("unknown JNI function"));
        let managed = TraceRecord::ManagedEnter {
            thread: 0,
            method: 1,
            args: vec![],
        };
        assert!(fold_error(vec![managed]).contains("outside any native body"));
        let seed = TraceRecord::SpawnThread { thread: 3 };
        assert!(fold_error(vec![seed]).contains("setup record"));
    }

    #[test]
    fn fold_hands_out_tops_at_exit_and_open_ones_at_finish() {
        let mut fold = ActivationFold::new();
        assert!(fold.push(enter(4)).unwrap().is_none());
        let top = fold.push(exit(4)).unwrap().expect("closed at its exit");
        assert_eq!((top.method, top.end.is_some()), (4, true));
        assert!(fold.push(enter(5)).unwrap().is_none());
        let open = fold.finish();
        assert_eq!(open.len(), 1);
        assert!(
            open[0].end.is_none(),
            "an unfinished activation stays unfinished"
        );
    }

    /// A recorded trace that runs to completion on a default VM.
    fn completing_trace() -> Trace {
        let p = program_by_name("GlobalLeak").unwrap();
        Trace::parse(&record_program(&p)).unwrap()
    }

    #[test]
    fn forged_ids_are_corrupt_before_any_body_runs() {
        for (thread, method, what) in [(0, 9999, "method 9999"), (77, 0, "unknown thread 77")] {
            let mut trace = completing_trace();
            trace.events.push(TraceRecord::NativeEnter {
                thread,
                method,
                args: vec![],
            });
            trace.events.push(TraceRecord::NativeExit {
                thread,
                method,
                status: CallStatus::Ok,
                ret: Some(JValue::Void),
            });
            for config in standard_configs() {
                match replay_trace(&trace, &config) {
                    Err(TraceError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
                    other => panic!("{what}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unfinished_activation_replays_as_one_divergence() {
        let mut trace = completing_trace();
        let first = trace
            .events
            .iter()
            .find(|e| matches!(e, TraceRecord::NativeEnter { .. }))
            .cloned()
            .unwrap();
        let config = ReplayConfig::Default(Vendor::HotSpot);
        let clean = replay_trace(&trace, &config).unwrap();
        assert_eq!(clean.behavior, Behavior::Leak);
        trace.events.push(first);
        let open = replay_trace(&trace, &config).unwrap();
        assert_eq!(open.behavior, clean.behavior);
        assert_eq!(open.divergences, clean.divergences + 1, "{open:?}");
    }

    #[test]
    fn ablated_jinn_misses_the_machine_it_lost() {
        let p = program_by_name("LocalRefDangling").unwrap();
        let bytes = record_program(&p);
        let trace = Trace::parse(&bytes).unwrap();
        let cfg = JinnConfig {
            disabled_machines: vec!["local-reference"],
            ..Default::default()
        };
        let ablated =
            replay_trace(&trace, &ReplayConfig::JinnAblated(Vendor::HotSpot, cfg)).unwrap();
        assert_ne!(
            ablated.behavior,
            Behavior::JinnException,
            "without the local-reference machine the dangling ref goes undiagnosed: {ablated:?}"
        );
    }
}
