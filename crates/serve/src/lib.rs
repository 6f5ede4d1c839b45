//! # jinn-serve
//!
//! A multi-tenant trace-ingestion and re-judging daemon with a verdict
//! query API: the service shape of the Jinn pipeline.
//!
//! The paper's detectors are synthesized once but meant to run
//! everywhere (§6–7). The sibling crates already record at 1.04×
//! overhead and replay at millions of events per second — but only one
//! session in one process. This crate turns the checker library into a
//! fleet service:
//!
//! * **Session lifecycle** — clients `Open`/`Append`/`Seal` `.jtrace`
//!   byte streams over the length-prefixed frame envelope
//!   (`jinn_replay::stream`), each session carrying a tenant tag and a
//!   checker-stack selection.
//! * **Ingest pipeline** — [`Daemon`] runs N worker threads over a
//!   bounded queue. A sealed session is parsed with the hardened trace
//!   reader and judged: one [`jinn_replay::Replayer`] per config runs
//!   every top-level activation of the trace ([`judge`]); every
//!   checker shares the process-wide synthesized check table, and
//!   per-machine entity rollups reuse pooled lock-free engines
//!   ([`jinn_fsm::AtomicEnginePool`]). Corrupt input — frame checksum
//!   mismatch, truncation, unreadable trace, forged ids — quarantines
//!   the one poisoned session and never stalls the fleet.
//! * **Verdict/history store with retention** — per-session verdicts,
//!   per-config outcomes, and execution-event summaries under a global
//!   byte budget with deterministic oldest-session-first purge
//!   ([`store`] module docs).
//! * **Streaming incremental judging** — while a `streaming_sessions`
//!   slot is free at `Open`, a session is judged *as it uploads*, under
//!   any checker stack: a resumable record decoder
//!   ([`jinn_replay::StreamDecoder`]) consumes each `Append` and
//!   releases the bytes it decodes, an [`jinn_replay::ActivationFold`]
//!   turns event records into top-level activations, and each one is
//!   sent over a channel to the session's executor thread as soon as
//!   its `NativeExit` arrives. The executor is the buffered judge fed
//!   one activation at a time, so `Seal` only verifies the declared
//!   length/checksum against running totals, replays the last
//!   activation, and rolls up. A buffered session is the same judge fed
//!   every activation at once; nothing is published before the seal
//!   verifies (`streaming` module docs, DESIGN.md §16).
//! * **Workload manifests** — a tenant can declare its call-site
//!   manifest (the `Manifest` frame /
//!   [`DaemonHandle::declare_manifest`]), or the daemon can learn one
//!   from the tenant's first sessions
//!   ([`ServeConfig::learn_after_sessions`]). The declaration's ack is
//!   the static-discharge report for the function set. A manifest is an
//!   audit: each session of a manifested tenant is flagged
//!   `manifest_covered` or, when the trace calls outside the manifest,
//!   `discharge_fallback` ([`SessionStats`]); verdicts and rollups never
//!   depend on it (`manifest` module docs).
//! * **Query API** — [`DaemonHandle::query`] filters by session,
//!   tenant, config, function, machine, entity, thread, and event-index
//!   range, with cursor pagination; [`SocketServer`] exposes the same
//!   over line-delimited JSON, and the `serve` bin in `jinn-bench` is
//!   the CLI front end.
//!
//! ```
//! use jinn_replay::{encode_ingest, program_by_name, record_program};
//! use jinn_serve::{Daemon, Query, ServeConfig};
//!
//! let daemon = Daemon::start(ServeConfig::default());
//! let handle = daemon.handle();
//!
//! // One client session: frame up a recorded trace and apply it.
//! let trace = record_program(&program_by_name("LocalRefDangling").unwrap());
//! for frame in jinn_replay::decode_stream(&encode_ingest(7, "acme", "jinn", &trace, 4096))
//!     .unwrap()
//! {
//!     handle.apply_frame(&frame).unwrap();
//! }
//! let stats = handle.wait_session(7).unwrap();
//! assert_eq!(stats.state.to_string(), "judged");
//!
//! // Query its verdicts.
//! let page = handle.query(&Query {
//!     session: Some(7),
//!     machine: Some("local-reference".to_string()),
//!     ..Query::default()
//! });
//! assert!(!page.items.is_empty());
//! daemon.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod error;
pub mod json;
mod judge;
mod manifest;
mod session;
mod socket;
pub mod store;
mod streaming;

pub use daemon::{Daemon, DaemonHandle, ServeConfig, AUTO_SESSION_BASE};
pub use error::ServeError;
pub use judge::{judge, obs_counters, rollup_events, JudgeOutput};
pub use manifest::{ManifestRegistryStats, ManifestSource, ManifestSummary};
pub use session::{
    DischargeStats, EventSummary, MachineRollup, ObsCounters, OutcomeRec, SessionId, SessionState,
    SessionStats, VerdictRec,
};
pub use socket::SocketServer;
pub use store::{FleetStats, Query, QueryItem, QueryKind, QueryPage, SessionTable, StoreLimits};
