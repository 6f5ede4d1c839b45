//! The daemon: N ingest workers around a bounded queue, fronted by a
//! cloneable in-process handle.
//!
//! Lifecycle of one session: `open` → `append`* → `seal` (validates the
//! reassembled bytes, enqueues) → a worker takes it (`Judging`), replays
//! it under the session's checker stack, and stores the history
//! (`Judged`) — or poisons it (`Quarantined`). The queue is the
//! admission-control point: when all workers are busy and the queue is
//! full, `seal` blocks the *sealing* client (global backpressure), while
//! oversized appends fail fast with a per-session backpressure error.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use jinn_fsm::{AtomicEnginePool, EnginePool, PoolStats};
use jinn_replay::{Frame, ReplayConfig, MAX_MANIFEST_FUNCTIONS};

use crate::error::ServeError;
use crate::judge::judge;
use crate::manifest::{ManifestRegistry, ManifestRegistryStats, ManifestSummary};
use crate::session::{MachineRollup, SessionId, SessionStats};
use crate::store::{FleetStats, Query, QueryPage, SessionTable, StoreLimits};
use crate::streaming::StreamingSession;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest worker threads.
    pub workers: usize,
    /// Sealed sessions the queue holds before `seal` blocks.
    pub queue_capacity: usize,
    /// Per-session ingest buffer cap (backpressure threshold).
    pub max_buffered_bytes: u64,
    /// Live sessions admitted at once; `open` past it fails with
    /// [`ServeError::FleetSaturated`].
    pub max_live_sessions: usize,
    /// Session records kept (live + terminal); terminal records beyond
    /// it are evicted oldest-first.
    pub max_session_records: usize,
    /// Total buffered ingest bytes across all sessions; `append` past it
    /// fails with [`ServeError::FleetBackpressure`].
    pub max_total_buffered_bytes: u64,
    /// Global byte budget for judged history.
    pub retention_bytes: usize,
    /// Event summaries kept per session (newest win).
    pub max_events_per_session: usize,
    /// Checker stack for sessions that don't pick one, in
    /// [`ReplayConfig::parse`] syntax, comma-separated.
    pub default_configs: String,
    /// Ring capacity of the per-session replay recorder.
    pub recorder_ring: usize,
    /// Sessions after which a tenant with no declared manifest gets one
    /// *learned* from the union of its traces' call-site sets. `0`
    /// disables learning: only declared manifests are audited.
    pub learn_after_sessions: u64,
    /// Sessions judged *incrementally* at once: each streaming session
    /// holds an executor thread from its first event record to `Seal`,
    /// so this caps that standing cost. Sessions opened while a slot is
    /// free stream; the rest (all of them at `0`) buffer, with identical
    /// verdicts.
    pub streaming_sessions: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            max_buffered_bytes: 8 * 1024 * 1024,
            max_live_sessions: 4096,
            max_session_records: 16384,
            max_total_buffered_bytes: 256 * 1024 * 1024,
            retention_bytes: 4 * 1024 * 1024,
            max_events_per_session: 512,
            default_configs: "jinn".to_string(),
            recorder_ring: 1024,
            learn_after_sessions: 0,
            streaming_sessions: 8,
        }
    }
}

struct QueueInner {
    items: VecDeque<SessionId>,
    closed: bool,
}

struct IngestQueue {
    inner: Mutex<QueueInner>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl IngestQueue {
    fn new(capacity: usize) -> IngestQueue {
        IngestQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while full; `Err` once the queue is closed.
    fn push(&self, id: SessionId) -> Result<(), ServeError> {
        let mut q = self.inner.lock().expect("ingest queue poisoned");
        while q.items.len() >= self.capacity && !q.closed {
            q = self.not_full.wait(q).expect("ingest queue poisoned");
        }
        if q.closed {
            return Err(ServeError::ShuttingDown);
        }
        q.items.push_back(id);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks while empty; `None` once closed *and* drained.
    fn pop(&self) -> Option<SessionId> {
        let mut q = self.inner.lock().expect("ingest queue poisoned");
        loop {
            if let Some(id) = q.items.pop_front() {
                self.not_full.notify_one();
                return Some(id);
            }
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).expect("ingest queue poisoned");
        }
    }

    fn close(&self) {
        let mut q = self.inner.lock().expect("ingest queue poisoned");
        q.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

pub(crate) struct Shared {
    config: ServeConfig,
    pub(crate) table: SessionTable,
    queue: IngestQueue,
    pool: Arc<AtomicEnginePool<u64>>,
    registry: ManifestRegistry,
    streams: Mutex<HashMap<SessionId, Arc<StreamingSession>>>,
    next_auto: AtomicU64,
    shutting_down: AtomicBool,
}

impl Shared {
    fn stream(&self, id: SessionId) -> Option<Arc<StreamingSession>> {
        self.streams
            .lock()
            .expect("stream registry poisoned")
            .get(&id)
            .cloned()
    }

    fn remove_stream(&self, id: SessionId) -> Option<Arc<StreamingSession>> {
        self.streams
            .lock()
            .expect("stream registry poisoned")
            .remove(&id)
    }
}

/// The running daemon: owns the worker threads. Get a [`DaemonHandle`]
/// with [`Daemon::handle`]; call [`Daemon::shutdown`] (or drop) to stop.
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Daemon-assigned session ids start here, far above anything a client
/// fleet plausibly chooses, so `open_auto` and client-chosen ids coexist.
pub const AUTO_SESSION_BASE: u64 = 1 << 48;

impl Daemon {
    /// Starts the workers and returns the daemon.
    pub fn start(config: ServeConfig) -> Daemon {
        let shared = Arc::new(Shared {
            table: SessionTable::new(StoreLimits {
                retention_bytes: config.retention_bytes,
                max_buffered: config.max_buffered_bytes,
                max_live_sessions: config.max_live_sessions,
                max_session_records: config.max_session_records,
                max_total_buffered: config.max_total_buffered_bytes,
            }),
            queue: IngestQueue::new(config.queue_capacity),
            pool: EnginePool::new(jinn_spec::machines()),
            registry: ManifestRegistry::default(),
            streams: Mutex::new(HashMap::new()),
            next_auto: AtomicU64::new(AUTO_SESSION_BASE),
            shutting_down: AtomicBool::new(false),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("jinn-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn ingest worker")
            })
            .collect();
        Daemon { shared, workers }
    }

    /// A cloneable front end to this daemon.
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers drained every sealed session (including streaming
        // ones, which they removed from the registry); whatever is left
        // never sealed — discard the speculation and join the executors
        // so shutdown leaves no threads behind.
        let leftover: Vec<Arc<StreamingSession>> = self
            .shared
            .streams
            .lock()
            .expect("stream registry poisoned")
            .drain()
            .map(|(_, s)| s)
            .collect();
        for s in leftover {
            s.discard();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        let (tenant, judged) = match shared.remove_stream(id) {
            Some(stream) => {
                let Some(tenant) = shared.table.begin_judging_streamed(id) else {
                    stream.discard(); // quarantined while queued
                    continue;
                };
                let manifest = shared.registry.manifest_for(&tenant);
                let judged = stream.collect(
                    &tenant,
                    &shared.pool,
                    manifest.as_deref(),
                    shared.config.max_events_per_session,
                );
                (tenant, judged)
            }
            None => {
                let Some((bytes, tenant, configs)) = shared.table.begin_judging(id) else {
                    continue; // quarantined while queued
                };
                let manifest = shared.registry.manifest_for(&tenant);
                let judged = judge(
                    &bytes,
                    id,
                    &tenant,
                    &configs,
                    &shared.pool,
                    manifest.as_deref(),
                    shared.config.recorder_ring,
                    shared.config.max_events_per_session,
                );
                (tenant, judged)
            }
        };
        match judged {
            Ok(out) => {
                shared.registry.observe_judged(
                    &tenant,
                    &out.called_functions,
                    out.discharge_fallback,
                    shared.config.learn_after_sessions,
                );
                shared.table.finish(id, out);
            }
            Err(reason) => shared.table.fail(id, &reason),
        }
    }
}

/// A cloneable, thread-safe front end to a running [`Daemon`]: the
/// in-process query/ingest API. The socket server and the CLI are thin
/// wrappers over this.
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    fn guard(&self) -> Result<(), ServeError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            Err(ServeError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    /// Parses a comma-separated checker-stack selection (empty string:
    /// the daemon default).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] naming the first unknown label.
    pub fn parse_configs(&self, selection: &str) -> Result<Vec<ReplayConfig>, ServeError> {
        let effective = if selection.trim().is_empty() {
            &self.shared.config.default_configs
        } else {
            selection
        };
        effective
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|label| {
                ReplayConfig::parse(label).ok_or_else(|| ServeError::BadConfig(label.to_string()))
            })
            .collect()
    }

    /// Opens a session with a client-chosen id.
    ///
    /// # Errors
    ///
    /// Duplicate id, bad config selection, or shutdown.
    pub fn open(&self, session: SessionId, tenant: &str, configs: &str) -> Result<(), ServeError> {
        self.guard()?;
        let configs = self.parse_configs(configs)?;
        self.shared.table.open(session, tenant, configs.clone())?;
        // Streaming dispatch: sessions stream while a slot is free and
        // buffer transparently otherwise. Decided once here — the first
        // `Append` must already hit the scanner.
        let cap = self.shared.config.streaming_sessions;
        let mut streams = self
            .shared
            .streams
            .lock()
            .expect("stream registry poisoned");
        if streams.len() < cap {
            let stream =
                StreamingSession::start(session, configs, self.shared.config.recorder_ring);
            streams.insert(session, Arc::new(stream));
            drop(streams);
            self.shared.table.mark_streamed(session);
        }
        Ok(())
    }

    /// Opens a session with a daemon-assigned id (from
    /// [`AUTO_SESSION_BASE`] upward).
    ///
    /// # Errors
    ///
    /// As for [`DaemonHandle::open`].
    pub fn open_auto(&self, tenant: &str, configs: &str) -> Result<SessionId, ServeError> {
        let id = self.shared.next_auto.fetch_add(1, Ordering::Relaxed);
        self.open(id, tenant, configs)?;
        Ok(id)
    }

    /// Buffers trace bytes for an open session.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] past the per-session cap; lifecycle
    /// errors otherwise.
    pub fn append(&self, session: SessionId, chunk: &[u8]) -> Result<(), ServeError> {
        self.guard()?;
        match self.shared.stream(session) {
            Some(stream) => {
                // Admission (lifecycle + backpressure on the undecoded
                // tail) happens before the scanner sees a byte, so a
                // rejected chunk leaves the stream exactly as it was.
                self.shared
                    .table
                    .stream_admit(session, chunk.len() as u64)?;
                let pending = stream.ingest(chunk);
                self.shared.table.stream_settle(session, pending);
                Ok(())
            }
            None => self.shared.table.append(session, chunk),
        }
    }

    /// Seals a session and queues it for judging. Blocks while the
    /// ingest queue is full (global backpressure).
    ///
    /// # Errors
    ///
    /// [`ServeError::Quarantined`] when the reassembled bytes don't
    /// match the declaration; lifecycle or shutdown errors otherwise.
    pub fn seal(
        &self,
        session: SessionId,
        total_len: u64,
        checksum: u64,
    ) -> Result<(), ServeError> {
        self.guard()?;
        match self.shared.stream(session) {
            Some(stream) => {
                let declared = stream.verify_declaration(total_len, checksum);
                if let Err(e) = self.shared.table.seal_streamed(session, declared) {
                    if matches!(e, ServeError::Quarantined { .. }) {
                        if let Some(s) = self.shared.remove_stream(session) {
                            s.discard();
                        }
                    }
                    return Err(e);
                }
                stream.finalize();
            }
            None => self.shared.table.seal(session, total_len, checksum)?,
        }
        match self.shared.queue.push(session) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.shared
                    .table
                    .quarantine(session, "daemon shut down before judging");
                if let Some(s) = self.shared.remove_stream(session) {
                    s.discard();
                }
                Err(e)
            }
        }
    }

    /// Abandons an open session.
    ///
    /// # Errors
    ///
    /// Lifecycle errors.
    pub fn abort(&self, session: SessionId, reason: &str) -> Result<(), ServeError> {
        self.shared.table.abort(session, reason)?;
        if let Some(s) = self.shared.remove_stream(session) {
            s.discard();
        }
        Ok(())
    }

    /// Poisons a session from the transport layer (its connection's
    /// frame stream went bad). No-op on terminal sessions.
    pub fn quarantine(&self, session: SessionId, reason: &str) {
        self.shared.table.quarantine(session, reason);
        if let Some(s) = self.shared.remove_stream(session) {
            s.discard();
        }
    }

    /// Declares (or replaces) `tenant`'s workload manifest: runs the
    /// static-discharge pass for the declared call-site set and judges
    /// the tenant's future sessions against it (an audit: each session
    /// is flagged covered or fallback; verdicts never change).
    /// Function names unknown to the JNI registry are kept callable and
    /// reported in the summary — a misspelled manifest weakens
    /// discharge, it does not fail.
    ///
    /// # Errors
    ///
    /// [`ServeError::ManifestTooLarge`] past the wire cap
    /// ([`jinn_replay::MAX_MANIFEST_FUNCTIONS`]), or shutdown.
    pub fn declare_manifest(
        &self,
        tenant: &str,
        functions: &[String],
    ) -> Result<ManifestSummary, ServeError> {
        self.guard()?;
        if functions.len() as u64 > MAX_MANIFEST_FUNCTIONS {
            return Err(ServeError::ManifestTooLarge {
                count: functions.len() as u64,
                cap: MAX_MANIFEST_FUNCTIONS,
            });
        }
        Ok(self.shared.registry.declare(tenant, functions))
    }

    /// Manifest-registry counters.
    pub fn manifest_stats(&self) -> ManifestRegistryStats {
        self.shared.registry.stats()
    }

    /// Applies one decoded ingest frame.
    ///
    /// # Errors
    ///
    /// As for the corresponding lifecycle method.
    pub fn apply_frame(&self, frame: &Frame) -> Result<(), ServeError> {
        match frame {
            Frame::Open {
                session,
                tenant,
                config,
            } => self.open(*session, tenant, config),
            Frame::Append { session, chunk } => self.append(*session, chunk),
            Frame::Seal {
                session,
                total_len,
                checksum,
            } => self.seal(*session, *total_len, *checksum),
            Frame::Abort { session, reason } => self.abort(*session, reason),
            Frame::Manifest { tenant, functions } => {
                self.declare_manifest(tenant, functions).map(|_| ())
            }
        }
    }

    /// Runs a history query.
    pub fn query(&self, query: &Query) -> QueryPage {
        self.shared.table.query(query)
    }

    /// A stats snapshot for one session.
    pub fn session_stats(&self, session: SessionId) -> Option<SessionStats> {
        self.shared.table.stats(session)
    }

    /// The per-machine rollups of a judged session.
    pub fn rollups(&self, session: SessionId) -> Vec<MachineRollup> {
        self.shared.table.rollups(session)
    }

    /// Fleet counters.
    pub fn fleet(&self) -> FleetStats {
        self.shared.table.fleet()
    }

    /// Engine-pool counters (lease reuse across sessions).
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Every known session id, in open order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.shared.table.session_ids()
    }

    /// Blocks until the session is judged, quarantined, or aborted;
    /// `None` for an unknown id.
    pub fn wait_session(&self, session: SessionId) -> Option<SessionStats> {
        self.shared.table.wait_terminal(session)
    }

    /// Blocks until no session is queued or judging.
    pub fn wait_idle(&self) {
        self.shared.table.wait_idle();
    }
}
