//! # jinn-replay
//!
//! Deterministic trace record/replay with differential verdict checking.
//!
//! The Jinn workflow (Sections 5 and 6 of the paper) judges the same
//! buggy program under many configurations: two vendor VMs, their
//! `-Xcheck:jni` modes, and the synthesized Jinn checker — the Table 1
//! matrix. Running each configuration live is slow and, worse, each run
//! is a *different* execution. This crate makes the comparison
//! apples-to-apples by splitting it in two:
//!
//! 1. **Record** ([`record_program`]): run the program once on a
//!    maximally-permissive VM ([`RecordVendor`], which proceeds through
//!    every undefined-behaviour situation) with a [`TraceWriter`] tapped
//!    into the Interpose seam. Every JNI and Python/C boundary crossing —
//!    full arguments, results, GC points, vendor-UB outcomes — lands in a
//!    compact self-describing binary trace (see `TRACE_FORMAT.md`).
//! 2. **Replay** ([`replay_trace`]): rebuild the entity world from the
//!    trace's setup section and re-feed the recorded calls through any
//!    checker stack — a bare vendor, `-Xcheck:jni`, or Jinn under any
//!    [`jinn_core::JinnConfig`] ablation. An [`ActivationFold`] turns the
//!    event stream into per-thread trees of top-level activations and a
//!    [`Replayer`] runs each tree, every activation scripted from its
//!    own position (so re-entrant natives replay faithfully). Because
//!    every ID in the substrate is allocation-order-deterministic,
//!    replaying the definitions and calls in recorded order reproduces
//!    the execution exactly; only the *verdict* varies with the
//!    configuration.
//!
//! The differential harness ([`diff_trace`]) replays one trace under N
//! configurations and diffs the verdicts, reproducing Figure 9's
//! three-way disagreement (HotSpot warns, J9 aborts, Jinn throws) from a
//! single recorded execution.
//!
//! Traces are timestamp-free and the encoder interns strings in first-use
//! order, so recording the same program twice yields byte-identical
//! files — the property the golden corpus under `tests/corpus/` depends
//! on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod diff;
pub mod format;
pub mod reader;
pub mod record;
pub mod replay;
pub mod stream;
pub mod writer;

pub use bridge::{append_obs_events, PyTraceWriter};
pub use diff::{diff_standard, diff_trace, DiffReport};
pub use format::{
    fnv1a, fnv1a_with, BodyKind, CallStatus, ClassRec, FieldRec, ManagedRec, MethodRec, SeedKind,
    SeedRec, StreamDecoder, TraceError, TraceRecord, UbRec, FORMAT_VERSION, MAGIC,
};
pub use reader::{called_function, check_version, trace_discharge, Trace, TraceBuilder};
pub use record::{
    case_studies, microbench_programs, program_by_name, program_names, record_program, Program,
    RecordVendor,
};
pub use replay::{
    activations, replay_bytes, replay_trace, replay_trace_observed, standard_configs, Activation,
    ActivationFold, ReplayConfig, ReplayOutcome, Replayer,
};
pub use stream::{
    decode_stream, encode_frame, encode_ingest, stream_preamble, verify_seal_declaration, Frame,
    FrameDecoder, FrameError, SealMismatch, MAX_CONTROL_STRING, MAX_FRAME_PAYLOAD,
    MAX_MANIFEST_FUNCTIONS, STREAM_MAGIC, STREAM_VERSION,
};
pub use writer::TraceWriter;
