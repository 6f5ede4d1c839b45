//! Interposition: the seam between the raw JNI and dynamic checkers.
//!
//! In the paper, Jinn injects itself between user code and the JVM through
//! the JVMTI: "To the JVM, Jinn looks like normal user code, whereas to
//! user code Jinn is invisible." Here the seam is the [`Interpose`] trait:
//! the [`crate::JniEnv`] driver fires `pre_jni`/`post_jni` hooks around
//! every JNI function and `native_enter`/`native_exit` hooks around every
//! native method — the four language-transition directions of the paper's
//! Figure 2 — plus a `vm_death` hook for the end-of-program leak sweeps.
//!
//! The [`VendorModel`] trait is the *other* half of the simulation: it
//! decides what a production JVM's **unchecked** semantics do when native
//! code violates a constraint (crash, silently keep running, NPE, …),
//! reproducing the "Default Behavior" columns of Table 1.

use std::fmt;

use minijvm::{
    EnvToken, FieldId, JRef, JValue, Jvm, JvmDeath, MethodId, PinError, PinId, RefFault, ThreadId,
};

use crate::registry::{FuncId, FuncSpec};

/// One argument of a JNI call, as seen by interposition hooks. The slice
/// of `JniArg`s is positionally aligned with the function's
/// [`FuncSpec::params`].
#[derive(Debug, Clone, PartialEq)]
pub enum JniArg {
    /// A reference.
    Ref(JRef),
    /// A method ID.
    Method(MethodId),
    /// A field ID.
    Field(FieldId),
    /// A primitive value.
    Val(JValue),
    /// A C string (class name, method name, descriptor, message).
    Name(String),
    /// A pinned-buffer pointer.
    Buf(PinId),
    /// A `jvalue*` argument vector.
    Args(Vec<JValue>),
    /// A `jsize`, capacity, index, or mode integer.
    Size(i64),
    /// UTF-16 data passed in (`NewString`, `Set…Region` for char data).
    Chars(Vec<u16>),
    /// Raw byte data passed in (`DefineClass` buffers).
    Bytes(Vec<u8>),
    /// Primitive array data passed in (`Set<T>ArrayRegion`).
    Prims(minijvm::PrimArray),
    /// An out-parameter or other argument with no checkable content.
    Opaque,
}

impl JniArg {
    /// The reference, if this argument carries one.
    pub fn as_ref(&self) -> Option<JRef> {
        match self {
            JniArg::Ref(r) => Some(*r),
            _ => None,
        }
    }
}

/// Result of a JNI call, as seen by `post_jni` hooks.
#[derive(Debug, Clone, PartialEq)]
pub enum JniRet {
    /// `void`
    Void,
    /// A primitive value.
    Val(JValue),
    /// A reference (local, global or weak per the spec's `ret` kind).
    Ref(JRef),
    /// A method ID.
    Method(MethodId),
    /// A field ID.
    Field(FieldId),
    /// A pinned buffer.
    Buf(PinId),
    /// A `jsize`/status integer.
    Size(i64),
    /// UTF-16 data copied out (`GetStringRegion`).
    Chars(Vec<u16>),
    /// Modified-UTF-8 data copied out (`GetStringUTFRegion`).
    Bytes(Vec<u8>),
    /// Primitive array data copied out (`Get<T>ArrayRegion`).
    Prims(minijvm::PrimArray),
}

impl JniRet {
    /// The reference, if the call returned one.
    pub fn as_ref(&self) -> Option<JRef> {
        match self {
            JniRet::Ref(r) => Some(*r),
            _ => None,
        }
    }
}

/// Context of one JNI call, passed to the pre/post hooks.
#[derive(Debug)]
pub struct CallCx<'a> {
    /// Which function.
    pub func: FuncId,
    /// The thread actually executing.
    pub thread: ThreadId,
    /// The `JNIEnv*` value the native code presented (compare against the
    /// thread's own token for the JNIEnv* state constraint).
    pub presented_env: EnvToken,
    /// Arguments, aligned with the spec's parameter list.
    pub args: &'a [JniArg],
    /// Java-style calling context, **outermost frame first** (the raw
    /// per-thread stack; reverse it for Figure 9 style innermost-first
    /// reports — checkers do so only on the rare violation path).
    pub stack: &'a [String],
}

impl CallCx<'_> {
    /// The function's spec.
    pub fn spec(&self) -> &'static FuncSpec {
        self.func.spec()
    }
}

/// A detected FFI constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the state machine that detected it (e.g.
    /// `"local-reference"`).
    pub machine: &'static str,
    /// The error state entered (e.g. `"Error:Dangling"`).
    pub error_state: &'static str,
    /// The JNI function (or native method) at which it was detected.
    pub function: String,
    /// Human-readable diagnosis.
    pub message: String,
    /// Java-style backtrace lines, innermost first (Figure 9 output).
    pub backtrace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {} in {}",
            self.machine, self.error_state, self.message, self.function
        )
    }
}

/// How a checker responds to a violation it detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportAction {
    /// Print a diagnosis and keep running (HotSpot `-Xcheck:jni` style).
    Warn,
    /// Print a diagnosis and abort the VM (J9 `-Xcheck:jni` style).
    AbortVm,
    /// Throw a `JNIAssertionFailure` exception at the point of failure
    /// (Jinn's behaviour).
    ThrowException,
}

/// A violation plus the checker's chosen response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// What was detected.
    pub violation: Violation,
    /// How to respond.
    pub action: ReportAction,
}

impl Report {
    /// Convenience constructor.
    pub fn new(violation: Violation, action: ReportAction) -> Report {
        Report { violation, action }
    }

    /// A checker-internal misuse report: the checker itself did something
    /// wrong (e.g. asked a state machine for a transition name that does
    /// not exist, surfaced by `jinn_fsm::StateStore::try_apply_named`).
    ///
    /// This is the deliberate sibling of the `guard_hook` panic path —
    /// same `checker-internal` machine labelling, but produced by the
    /// checker converting an error value instead of by unwinding. Like a
    /// guarded panic it aborts the VM: a misconfigured checker cannot be
    /// trusted to keep checking.
    pub fn checker_internal(site: &str, message: impl fmt::Display) -> Report {
        Report {
            violation: Violation {
                machine: "checker-internal",
                error_state: "Error:Misuse",
                function: site.to_string(),
                message: message.to_string(),
                backtrace: Vec::new(),
            },
            action: ReportAction::AbortVm,
        }
    }
}

/// A dynamic checker interposed on language transitions.
///
/// Implementations must be *pure observers* of the VM (they receive `&Jvm`)
/// but may keep arbitrary internal state — the state machine encodings.
pub trait Interpose {
    /// Checker name (for logs).
    fn name(&self) -> &str;

    /// `Call:C→Java` — fired before a JNI function executes. Returning a
    /// report with [`ReportAction::ThrowException`] or
    /// [`ReportAction::AbortVm`] prevents the function from running.
    fn pre_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>) -> Vec<Report> {
        let _ = (jvm, cx);
        Vec::new()
    }

    /// `Return:Java→C` — fired after a JNI function returns.
    fn post_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>, ret: Option<&JniRet>) -> Vec<Report> {
        let _ = (jvm, cx, ret);
        Vec::new()
    }

    /// `Call:Java→C` — fired when managed code enters a native method.
    /// `arg_refs` are the reference arguments as local references in the
    /// callee's fresh frame (the Acquire entities of Figure 3). `stack`
    /// is the same borrow [`CallCx::stack`] carries, **outermost frame
    /// first**, with the native method's own frame last.
    fn native_enter(
        &mut self,
        jvm: &Jvm,
        thread: ThreadId,
        method: MethodId,
        arg_refs: &[JRef],
        stack: &[String],
    ) -> Vec<Report> {
        let _ = (jvm, thread, method, arg_refs, stack);
        Vec::new()
    }

    /// `Return:C→Java` — fired when a native method returns (after which
    /// its local frame pops). `returned_ref` is the reference the native
    /// method is returning to Java, if any (a Use transition). `stack` is
    /// ordered as for [`Interpose::native_enter`]: outermost first, the
    /// returning native's frame last.
    fn native_exit(
        &mut self,
        jvm: &Jvm,
        thread: ThreadId,
        method: MethodId,
        returned_ref: Option<JRef>,
        stack: &[String],
    ) -> Vec<Report> {
        let _ = (jvm, thread, method, returned_ref, stack);
        Vec::new()
    }

    /// VM termination: run the resource leak sweeps.
    fn vm_death(&mut self, jvm: &Jvm) -> Vec<Report> {
        let _ = jvm;
        Vec::new()
    }
}

/// What a production JVM's unchecked implementation does when native code
/// violates a constraint — the "undefined behaviour oracle".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UbOutcome {
    /// Keep running; the operation is skipped or yields a garbage-but-
    /// harmless default ("running" in Table 1).
    Proceed,
    /// The process crashes without diagnosis.
    Crash(&'static str),
    /// A `NullPointerException` is raised.
    Npe,
    /// The process hangs ("deadlock" in Table 1).
    Deadlock(&'static str),
}

/// The situations in which JNI behaviour is undefined and a vendor model
/// must pick an outcome.
#[derive(Debug, Clone)]
pub enum UbSituation<'a> {
    /// A reference argument failed to resolve.
    RefFault {
        /// The fault.
        fault: RefFault,
        /// The function being executed.
        func: &'a FuncSpec,
    },
    /// A pinned-buffer release failed (double free / kind mismatch).
    PinFault {
        /// The pin error.
        error: PinError,
        /// The function being executed.
        func: &'a FuncSpec,
    },
    /// A forged or foreign method/field ID was passed.
    BadEntityId {
        /// The function being executed.
        func: &'a FuncSpec,
    },
    /// A reference of the wrong Java type was passed (e.g. a plain object
    /// where a `jclass` is required — pitfall 3).
    TypeConfusion {
        /// The function being executed.
        func: &'a FuncSpec,
        /// What was required.
        expected: &'static str,
    },
    /// An exception-sensitive function was called with an exception
    /// pending (pitfall 1). Production JVMs just proceed.
    ExceptionPending {
        /// The function being executed.
        func: &'a FuncSpec,
    },
    /// A critical-section-sensitive function was called inside a critical
    /// region (pitfall 16).
    CriticalViolation {
        /// The function being executed.
        func: &'a FuncSpec,
    },
    /// The presented `JNIEnv*` belongs to a different thread (pitfall 14).
    EnvMismatch {
        /// The function being executed.
        func: &'a FuncSpec,
    },
    /// A write to a final field (pitfall 9).
    FinalFieldWrite {
        /// The function being executed.
        func: &'a FuncSpec,
    },
    /// A null reference where a non-null one is required (pitfall 2).
    NullArgument {
        /// The function being executed.
        func: &'a FuncSpec,
        /// The parameter name.
        param: &'static str,
    },
}

/// A model of a production JVM's *default* (unchecked) behaviour under
/// constraint violations.
pub trait VendorModel: fmt::Debug {
    /// Vendor name, e.g. `"HotSpot"`.
    fn name(&self) -> &str;

    /// Decides the outcome of an undefined-behaviour situation.
    fn on_violation(&self, situation: &UbSituation<'_>) -> UbOutcome;
}

/// A permissive, spec-faithful vendor: proceeds wherever the JNI
/// specification says behaviour is undefined, except for unresolvable
/// references where it crashes (you cannot compute with a freed slot).
///
/// The calibrated HotSpot and J9 models live in the `jinn-vendors` crate.
#[derive(Debug, Clone, Default)]
pub struct PermissiveVendor;

impl VendorModel for PermissiveVendor {
    fn name(&self) -> &str {
        "permissive"
    }

    fn on_violation(&self, situation: &UbSituation<'_>) -> UbOutcome {
        match situation {
            UbSituation::RefFault { fault, .. } => match fault {
                RefFault::WrongThread { .. } => UbOutcome::Proceed,
                RefFault::Null => UbOutcome::Npe,
                _ => UbOutcome::Crash("use of invalid reference"),
            },
            UbSituation::PinFault { .. } => UbOutcome::Proceed,
            UbSituation::BadEntityId { .. } => UbOutcome::Crash("invalid method/field ID"),
            UbSituation::TypeConfusion { .. } => UbOutcome::Crash("reference type confusion"),
            UbSituation::ExceptionPending { .. } => UbOutcome::Proceed,
            UbSituation::CriticalViolation { .. } => {
                UbOutcome::Deadlock("JNI call in critical section")
            }
            UbSituation::EnvMismatch { .. } => UbOutcome::Proceed,
            UbSituation::FinalFieldWrite { .. } => UbOutcome::Proceed,
            UbSituation::NullArgument { .. } => UbOutcome::Npe,
        }
    }
}

/// Turns a [`UbOutcome::Crash`]/[`UbOutcome::Deadlock`] into a
/// [`JvmDeath`]; `None` for survivable outcomes.
pub fn death_of(outcome: &UbOutcome, vendor: &str, func: &str) -> Option<JvmDeath> {
    match outcome {
        UbOutcome::Crash(msg) => Some(JvmDeath::crash(format!("{vendor}: {msg} in {func}"))),
        UbOutcome::Deadlock(msg) => Some(JvmDeath::deadlock(format!("{vendor}: {msg} in {func}"))),
        UbOutcome::Proceed | UbOutcome::Npe => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijvm::RefKind;

    #[test]
    fn permissive_vendor_decisions() {
        let v = PermissiveVendor;
        let func = FuncId::of("CallVoidMethodA").spec();
        assert_eq!(
            v.on_violation(&UbSituation::ExceptionPending { func }),
            UbOutcome::Proceed
        );
        assert!(matches!(
            v.on_violation(&UbSituation::RefFault {
                fault: RefFault::Stale {
                    kind: RefKind::Local,
                    reused: false
                },
                func
            }),
            UbOutcome::Crash(_)
        ));
        assert_eq!(
            v.on_violation(&UbSituation::RefFault {
                fault: RefFault::Null,
                func
            }),
            UbOutcome::Npe
        );
    }

    #[test]
    fn death_conversion() {
        assert!(death_of(&UbOutcome::Proceed, "x", "F").is_none());
        assert!(death_of(&UbOutcome::Npe, "x", "F").is_none());
        let d = death_of(&UbOutcome::Crash("boom"), "HotSpot", "FindClass").unwrap();
        assert!(d.message.contains("HotSpot"));
        assert!(d.message.contains("FindClass"));
        assert!(death_of(&UbOutcome::Deadlock("hang"), "J9", "GetStringChars").is_some());
    }

    #[test]
    fn arg_and_ret_accessors() {
        assert_eq!(JniArg::Ref(JRef::NULL).as_ref(), Some(JRef::NULL));
        assert_eq!(JniArg::Size(3).as_ref(), None);
        assert_eq!(JniRet::Ref(JRef::NULL).as_ref(), Some(JRef::NULL));
        assert_eq!(JniRet::Void.as_ref(), None);
    }

    #[test]
    fn violation_display() {
        let v = Violation {
            machine: "exception-state",
            error_state: "Error:PendingException",
            function: "GetMethodID".into(),
            message: "an exception is pending".into(),
            backtrace: vec![],
        };
        let s = v.to_string();
        assert!(s.contains("exception-state"));
        assert!(s.contains("GetMethodID"));
    }

    #[test]
    fn default_interpose_hooks_are_silent() {
        struct Nop;
        impl Interpose for Nop {
            fn name(&self) -> &str {
                "nop"
            }
        }
        let jvm = Jvm::new();
        let mut nop = Nop;
        assert!(nop.vm_death(&jvm).is_empty());
        assert!(nop
            .native_enter(&jvm, jvm.main_thread(), MethodId::forged(0), &[], &[])
            .is_empty());
    }
}
