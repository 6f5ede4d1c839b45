//! `jinn-core` — the Jinn synthesizer and the synthesized dynamic JNI bug
//! detector.
//!
//! This crate is the paper's primary contribution, assembled from the
//! specification crates:
//!
//! * [`synthesize`] runs **Algorithm 1**: it expands the eleven state
//!   machines (`jinn-spec`) over the 229-function registry (`minijni`)
//!   into per-function check tables;
//! * [`Jinn`] is the synthesized checker: an interposition agent that
//!   executes those checks at every language transition and throws
//!   `jinn.JNIAssertionFailure` at the point of failure — attach it to a
//!   session with [`install`];
//! * [`codegen`] is the C backend that prints the same table as wrapper
//!   source code (Figures 3–4), reproducing the "1,400 lines of spec →
//!   22,000+ generated lines" claim.
//!
//! # Example: catching the Figure 1 bug
//!
//! ```
//! use jinn_core::install;
//! use minijni::{typed, JniError, RunOutcome, Session, Vm};
//! use minijvm::JValue;
//! use std::rc::Rc;
//!
//! let mut vm = Vm::permissive();
//! // Native code that stores a local reference in a "C global" and uses
//! // it after its frame died — GNOME bug 576111 in miniature.
//! let stash: Rc<std::cell::RefCell<Option<minijvm::JRef>>> = Rc::default();
//! let (class, bind) = {
//!     let stash = Rc::clone(&stash);
//!     vm.define_native_class("Callback", "bind", "(Ljava/lang/Object;)V", true,
//!         Rc::new(move |_env, args| {
//!             *stash.borrow_mut() = args[0].as_ref(); // escape!
//!             Ok(JValue::Void)
//!         }))
//! };
//! let (_, fire) = {
//!     let stash = Rc::clone(&stash);
//!     let (c, m) = (class, ());
//!     let _ = (c, m);
//!     vm.define_native_class("Callback2", "fire", "()V", true,
//!         Rc::new(move |env, _| {
//!             let dead = stash.borrow().expect("bound");
//!             // Use of the dead local reference: Jinn throws here.
//!             typed::get_object_class(env, dead)?;
//!             Ok(JValue::Void)
//!         }))
//! };
//! let thread = vm.jvm().main_thread();
//! let receiver = {
//!     let class = vm.jvm().find_class("java/lang/Object").unwrap();
//!     let oop = vm.jvm_mut().alloc_object(class);
//!     vm.jvm_mut().new_local(thread, oop)
//! };
//! let mut session = Session::new(vm);
//! install(&mut session);
//! session.run_native(thread, bind, &[JValue::Ref(receiver)]);
//! let outcome = session.run_native(thread, fire, &[]);
//! match outcome {
//!     RunOutcome::CheckerException(v) => {
//!         assert_eq!(v.machine, "local-reference");
//!         assert_eq!(v.error_state, "Error:Dangling");
//!     }
//!     other => panic!("Jinn should have detected the dangling use: {other:?}"),
//! }
//! # let _ = JniError::Exception;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
pub mod codegen;
mod idhash;
mod synth;

pub use checker::{
    install, install_prebuilt, install_with_config, Jinn, JinnConfig, JinnStats, SharedStats,
    StatsCell,
};
pub use codegen::{generate_c_wrappers, CodegenStats};
pub use synth::{
    discharge, discharge_machine, is_encoding_update, synthesize, synthesize_cached, CheckTable,
    DischargeReason, DischargeReport, DischargedTransition, MachineDischarge, Step, SynthStats,
    WorkloadManifest,
};
