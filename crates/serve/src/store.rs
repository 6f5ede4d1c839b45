//! The session table: lifecycle bookkeeping, buffered ingest bytes,
//! judged history rows, the retention budget, and the query scan.
//!
//! One mutex guards the whole table. That is deliberate: every
//! operation here is bookkeeping measured in microseconds, while the
//! expensive work (replay) happens in workers *outside* the lock — a
//! worker takes the sealed bytes out, judges without the lock, and
//! comes back once with the results. A condvar broadcast on every state
//! change backs `wait_session`/`wait_idle`.
//!
//! ## Retention
//!
//! Judged history (verdict rows, event summaries, per-config outcomes)
//! is held under a global byte budget. When an insert pushes the total
//! over, whole-session histories are purged **oldest-session-first** by
//! open order until back under. Only terminal sessions are candidates:
//! a live (open/queued/judging) session has no history yet and can
//! never be evicted, structurally. Purged sessions keep their stats —
//! the query API reports `history_purged` rather than silently
//! returning nothing.
//!
//! ## Admission control
//!
//! Every other resource the table holds is bounded too
//! ([`StoreLimits`]): `open` past the live-session cap and `append`
//! past the fleet-wide buffered-bytes cap fail with typed errors, and
//! whole session *records* beyond the record cap are evicted
//! oldest-first among terminal sessions whenever one goes terminal —
//! an evicted id stops answering stats and may be reopened. Live
//! sessions are never evicted; the live-session cap bounds how many
//! can exist.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use jinn_replay::{verify_seal_declaration, ReplayConfig};

use crate::error::ServeError;
use crate::judge::JudgeOutput;
use crate::session::{
    approx_bytes_event, approx_bytes_outcome, approx_bytes_verdict, DischargeStats, EventSummary,
    MachineRollup, ObsCounters, OutcomeRec, SessionId, SessionState, SessionStats, VerdictRec,
};

/// Hard bounds on what a [`SessionTable`] may hold. Everything a remote
/// client can grow is capped: live sessions, buffered ingest bytes
/// (per session and fleet-wide), judged-history bytes, and the session
/// records themselves.
#[derive(Debug, Clone, Copy)]
pub struct StoreLimits {
    /// Global byte budget for judged history (see the module docs).
    pub retention_bytes: usize,
    /// Per-session ingest buffer cap ([`ServeError::Backpressure`]).
    pub max_buffered: u64,
    /// Live (open/queued/judging) sessions admitted at once
    /// ([`ServeError::FleetSaturated`] past it).
    pub max_live_sessions: usize,
    /// Session records kept, live and terminal together; terminal
    /// records beyond it are evicted oldest-first.
    pub max_session_records: usize,
    /// Total un-judged ingest bytes buffered across all sessions
    /// ([`ServeError::FleetBackpressure`] past it).
    pub max_total_buffered: u64,
}

/// Which history rows a query scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryKind {
    /// Checker violations (the default).
    #[default]
    Verdicts,
    /// Re-judged execution event summaries.
    Events,
    /// Per-config overall outcomes.
    Outcomes,
}

/// A history query: filters are conjunctive; absent filters match
/// everything. Results are ordered by insertion (rowid) and paginated
/// with an opaque cursor.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Row family to scan.
    pub kind: QueryKind,
    /// Only rows of this session.
    pub session: Option<SessionId>,
    /// Only rows of sessions with this tenant tag.
    pub tenant: Option<String>,
    /// Only rows produced under this config label.
    pub config: Option<String>,
    /// Only rows naming this JNI function / native method.
    pub function: Option<String>,
    /// Only rows naming this state machine.
    pub machine: Option<String>,
    /// Only event rows naming this entity.
    pub entity: Option<String>,
    /// Only event rows on this thread.
    pub thread: Option<u16>,
    /// Only event rows with index ≥ this.
    pub min_index: Option<u64>,
    /// Only event rows with index ≤ this.
    pub max_index: Option<u64>,
    /// Resume after this rowid (from a previous page's `next_cursor`).
    pub cursor: Option<u64>,
    /// Page size; 0 means the default (100), capped at 1000.
    pub limit: usize,
}

/// One matched row.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryItem {
    /// A verdict row.
    Verdict(VerdictRec),
    /// An event-summary row.
    Event(EventSummary),
    /// A per-config outcome row.
    Outcome(OutcomeRec),
}

impl QueryItem {
    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        match self {
            QueryItem::Verdict(v) => v.to_json(),
            QueryItem::Event(e) => e.to_json(),
            QueryItem::Outcome(o) => o.to_json(),
        }
    }
}

/// One page of query results.
#[derive(Debug, Clone, Default)]
pub struct QueryPage {
    /// Matched rows, insertion order.
    pub items: Vec<QueryItem>,
    /// Pass back as [`Query::cursor`] for the next page; `None` when the
    /// scan is exhausted.
    pub next_cursor: Option<u64>,
}

/// Fleet-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions judged.
    pub judged: u64,
    /// Sessions quarantined.
    pub quarantined: u64,
    /// Sessions aborted by their client.
    pub aborted: u64,
    /// Sessions currently open/queued/judging.
    pub live: u64,
    /// History bytes currently held.
    pub history_bytes: u64,
    /// The retention budget.
    pub retention_bytes: u64,
    /// Sessions whose history retention purged.
    pub purged_sessions: u64,
    /// Terminal session records evicted by the record cap.
    pub evicted_sessions: u64,
    /// Verdict rows ever stored.
    pub total_verdicts: u64,
    /// JNI calls re-issued across all judged sessions.
    pub total_events_replayed: u64,
    /// Sessions of manifested tenants whose manifest covered the trace.
    pub covered_sessions: u64,
    /// Sessions of manifested tenants that called outside the manifest.
    pub fallback_sessions: u64,
    /// Sessions judged incrementally by a streaming judge.
    pub streamed_sessions: u64,
    /// Most un-judged ingest bytes simultaneously buffered across the
    /// fleet over the daemon's lifetime. A streaming session charges
    /// only its undecoded tail here, so this is the figure the
    /// streaming bench's peak-resident-bytes comparison reads.
    pub buffered_bytes_high_water: u64,
}

struct History {
    bytes: usize,
    outcomes: Vec<(u64, OutcomeRec)>,
    verdicts: Vec<(u64, VerdictRec)>,
    events: Vec<(u64, EventSummary)>,
    rollups: Vec<MachineRollup>,
}

struct Session {
    opened_seq: u64,
    tenant: String,
    configs: Vec<ReplayConfig>,
    state: SessionState,
    buf: Vec<u8>,
    frames: u64,
    program: Option<String>,
    obs: ObsCounters,
    discharge: Option<DischargeStats>,
    manifest_covered: bool,
    discharge_fallback: bool,
    reason: Option<String>,
    history: Option<History>,
    history_purged: bool,
    sealed_at: Option<Instant>,
    first_frame_at: Option<Instant>,
    seal_to_verdict_micros: Option<u64>,
    first_frame_micros: Option<u64>,
    streamed: bool,
    // Bytes a *streaming* session currently has charged against the
    // fleet buffered-bytes budget (its undecoded tail). Buffered
    // sessions charge via `buf` instead; the two are never both
    // non-zero.
    stream_charged: u64,
    events_replayed: u64,
    divergences: u64,
    ring_overwritten: u64,
    summaries_truncated: u64,
    bytes_received: u64,
}

struct TableInner {
    sessions: HashMap<SessionId, Session>,
    next_seq: u64,
    next_rowid: u64,
    history_bytes: usize,
    active: u64,   // sessions in Queued or Judging
    live: u64,     // sessions in any non-terminal state
    buffered: u64, // un-judged ingest bytes across all sessions
    fleet: FleetStats,
}

/// The daemon's shared session store. See the module docs.
pub struct SessionTable {
    inner: Mutex<TableInner>,
    changed: Condvar,
    limits: StoreLimits,
}

impl SessionTable {
    /// An empty table with the given bounds.
    pub fn new(limits: StoreLimits) -> SessionTable {
        SessionTable {
            inner: Mutex::new(TableInner {
                sessions: HashMap::new(),
                next_seq: 0,
                next_rowid: 1,
                history_bytes: 0,
                active: 0,
                live: 0,
                buffered: 0,
                fleet: FleetStats {
                    retention_bytes: limits.retention_bytes as u64,
                    ..FleetStats::default()
                },
            }),
            changed: Condvar::new(),
            limits,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().expect("session table poisoned")
    }

    /// Opens a session.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateSession`] if the id already exists;
    /// [`ServeError::FleetSaturated`] at the live-session cap.
    pub fn open(
        &self,
        id: SessionId,
        tenant: &str,
        configs: Vec<ReplayConfig>,
    ) -> Result<(), ServeError> {
        let mut t = self.lock();
        if t.sessions.contains_key(&id) {
            return Err(ServeError::DuplicateSession(id));
        }
        if t.live >= self.limits.max_live_sessions as u64 {
            return Err(ServeError::FleetSaturated {
                live: t.live,
                cap: self.limits.max_live_sessions as u64,
            });
        }
        let opened_seq = t.next_seq;
        t.next_seq += 1;
        t.fleet.opened += 1;
        t.live += 1;
        t.sessions.insert(
            id,
            Session {
                opened_seq,
                tenant: tenant.to_string(),
                configs,
                state: SessionState::Open,
                buf: Vec::new(),
                frames: 1,
                program: None,
                obs: ObsCounters::default(),
                discharge: None,
                manifest_covered: false,
                discharge_fallback: false,
                reason: None,
                history: None,
                history_purged: false,
                sealed_at: None,
                first_frame_at: None,
                seal_to_verdict_micros: None,
                first_frame_micros: None,
                streamed: false,
                stream_charged: 0,
                events_replayed: 0,
                divergences: 0,
                ring_overwritten: 0,
                summaries_truncated: 0,
                bytes_received: 0,
            },
        );
        self.changed.notify_all();
        Ok(())
    }

    fn session_mut(t: &mut TableInner, id: SessionId) -> Result<&mut Session, ServeError> {
        t.sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))
    }

    fn require_open(s: &Session, id: SessionId) -> Result<(), ServeError> {
        match s.state {
            SessionState::Open => Ok(()),
            SessionState::Quarantined => Err(ServeError::Quarantined {
                session: id,
                reason: s.reason.clone().unwrap_or_default(),
            }),
            other => Err(ServeError::SessionNotOpen {
                session: id,
                state: other.to_string(),
            }),
        }
    }

    /// Buffers a chunk of trace bytes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the chunk would exceed the
    /// per-session buffer cap, [`ServeError::FleetBackpressure`] when it
    /// would exceed the fleet-wide one; lifecycle errors otherwise.
    pub fn append(&self, id: SessionId, chunk: &[u8]) -> Result<(), ServeError> {
        let mut t = self.lock();
        let cap = self.limits.max_buffered;
        let total = t.buffered;
        let total_cap = self.limits.max_total_buffered;
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        if s.buf.len() as u64 + chunk.len() as u64 > cap {
            return Err(ServeError::Backpressure {
                session: id,
                buffered: s.buf.len() as u64,
                cap,
            });
        }
        if total + chunk.len() as u64 > total_cap {
            return Err(ServeError::FleetBackpressure {
                buffered: total,
                cap: total_cap,
            });
        }
        s.buf.extend_from_slice(chunk);
        s.bytes_received += chunk.len() as u64;
        s.frames += 1;
        if s.first_frame_at.is_none() {
            s.first_frame_at = Some(Instant::now());
        }
        t.buffered += chunk.len() as u64;
        t.fleet.buffered_bytes_high_water = t.fleet.buffered_bytes_high_water.max(t.buffered);
        Ok(())
    }

    /// Marks a session as judged by the streaming path. Called once at
    /// dispatch time, before any `Append` is streamed into it.
    pub fn mark_streamed(&self, id: SessionId) {
        let mut t = self.lock();
        if let Some(s) = t.sessions.get_mut(&id) {
            s.streamed = true;
        }
    }

    /// [`SessionTable::append`]'s admission half for a streaming
    /// session: the same lifecycle and backpressure checks (against the
    /// session's *undecoded tail*, not everything ever received), and
    /// the same byte/frame accounting — but the chunk itself goes to
    /// the stream scanner, not the table. Charges the whole chunk to
    /// the fleet buffered budget provisionally; [`stream_settle`]
    /// releases what the scanner decoded.
    ///
    /// [`stream_settle`]: SessionTable::stream_settle
    ///
    /// # Errors
    ///
    /// Exactly [`SessionTable::append`]'s.
    pub fn stream_admit(&self, id: SessionId, chunk_len: u64) -> Result<(), ServeError> {
        let mut t = self.lock();
        let cap = self.limits.max_buffered;
        let total = t.buffered;
        let total_cap = self.limits.max_total_buffered;
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        if s.stream_charged + chunk_len > cap {
            return Err(ServeError::Backpressure {
                session: id,
                buffered: s.stream_charged,
                cap,
            });
        }
        if total + chunk_len > total_cap {
            return Err(ServeError::FleetBackpressure {
                buffered: total,
                cap: total_cap,
            });
        }
        s.bytes_received += chunk_len;
        s.frames += 1;
        s.stream_charged += chunk_len;
        if s.first_frame_at.is_none() {
            s.first_frame_at = Some(Instant::now());
        }
        t.buffered += chunk_len;
        t.fleet.buffered_bytes_high_water = t.fleet.buffered_bytes_high_water.max(t.buffered);
        Ok(())
    }

    /// Settles a streaming session's buffered charge down to its
    /// scanner's current undecoded tail — the moment streamed bytes
    /// stop being resident. No-op on unknown or already-drained
    /// sessions.
    pub fn stream_settle(&self, id: SessionId, pending: u64) {
        let mut t = self.lock();
        let Some(s) = t.sessions.get_mut(&id) else {
            return;
        };
        let release = s.stream_charged.saturating_sub(pending);
        s.stream_charged -= release;
        t.buffered -= release;
    }

    /// Seals a session: verifies the declared length and checksum, then
    /// marks it queued. The caller enqueues the id for a worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::Quarantined`] when the reassembled bytes don't
    /// match the seal declaration (the session is poisoned in place);
    /// lifecycle errors otherwise.
    pub fn seal(&self, id: SessionId, total_len: u64, checksum: u64) -> Result<(), ServeError> {
        let mut t = self.lock();
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        s.frames += 1;
        let actual_len = s.buf.len() as u64;
        let actual_sum = jinn_replay::format::fnv1a(&s.buf);
        if let Err(mismatch) = verify_seal_declaration(total_len, checksum, actual_len, actual_sum)
        {
            let reason = mismatch.to_string();
            self.poison(&mut t, id, &reason);
            self.changed.notify_all();
            return Err(ServeError::Quarantined {
                session: id,
                reason,
            });
        }
        let s = Self::session_mut(&mut t, id)?;
        s.state = SessionState::Queued;
        s.sealed_at = Some(Instant::now());
        t.active += 1;
        self.changed.notify_all();
        Ok(())
    }

    /// [`SessionTable::seal`] for a streaming session: the declaration
    /// was verified against the scanner's running totals (the table
    /// never saw the bytes), and its result is applied here under the
    /// same lock, with the same lifecycle precedence and poisoning, as
    /// the buffered path's reassembled-buffer verification.
    ///
    /// # Errors
    ///
    /// [`ServeError::Quarantined`] when `declared` carries a mismatch
    /// reason; lifecycle errors otherwise.
    pub fn seal_streamed(
        &self,
        id: SessionId,
        declared: Result<(), String>,
    ) -> Result<(), ServeError> {
        let mut t = self.lock();
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        s.frames += 1;
        if let Err(reason) = declared {
            self.poison(&mut t, id, &reason);
            self.changed.notify_all();
            return Err(ServeError::Quarantined {
                session: id,
                reason,
            });
        }
        let s = Self::session_mut(&mut t, id)?;
        s.state = SessionState::Queued;
        s.sealed_at = Some(Instant::now());
        t.active += 1;
        self.changed.notify_all();
        Ok(())
    }

    /// Client-side abort: drops the buffer, terminal state.
    ///
    /// # Errors
    ///
    /// Lifecycle errors; aborting a non-open session is invalid.
    pub fn abort(&self, id: SessionId, reason: &str) -> Result<(), ServeError> {
        let mut t = self.lock();
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        s.state = SessionState::Aborted;
        s.reason = Some(reason.to_string());
        let freed = s.buf.len() as u64 + std::mem::take(&mut s.stream_charged);
        s.buf = Vec::new();
        s.frames += 1;
        t.buffered -= freed;
        t.live -= 1;
        t.fleet.aborted += 1;
        self.evict_session_records(&mut t);
        self.changed.notify_all();
        Ok(())
    }

    fn poison(&self, t: &mut TableInner, id: SessionId, reason: &str) {
        let Some(s) = t.sessions.get_mut(&id) else {
            return;
        };
        if s.state.is_terminal() {
            return;
        }
        if matches!(s.state, SessionState::Queued | SessionState::Judging) {
            t.active -= 1;
        }
        s.state = SessionState::Quarantined;
        s.reason = Some(reason.to_string());
        let freed = s.buf.len() as u64 + std::mem::take(&mut s.stream_charged);
        s.buf = Vec::new();
        t.buffered -= freed;
        t.live -= 1;
        t.fleet.quarantined += 1;
        self.evict_session_records(t);
    }

    /// Quarantines a session from outside the worker path (stream-level
    /// corruption on its connection). Terminal sessions are left alone.
    pub fn quarantine(&self, id: SessionId, reason: &str) {
        let mut t = self.lock();
        self.poison(&mut t, id, reason);
        self.changed.notify_all();
    }

    /// Worker entry: takes a queued session's bytes for judging.
    /// Returns `None` when the session is no longer queued (e.g. it was
    /// quarantined while waiting).
    pub fn begin_judging(&self, id: SessionId) -> Option<(Vec<u8>, String, Vec<ReplayConfig>)> {
        let mut t = self.lock();
        let s = t.sessions.get_mut(&id)?;
        if s.state != SessionState::Queued {
            return None;
        }
        s.state = SessionState::Judging;
        let bytes = std::mem::take(&mut s.buf);
        let out = (bytes, s.tenant.clone(), s.configs.clone());
        t.buffered -= out.0.len() as u64;
        self.changed.notify_all();
        Some(out)
    }

    /// [`SessionTable::begin_judging`] for a streaming session: there
    /// are no buffered bytes to take (the scanner consumed them as they
    /// arrived); any residual undecoded-tail charge is released here.
    /// Returns the session's tenant.
    pub fn begin_judging_streamed(&self, id: SessionId) -> Option<String> {
        let mut t = self.lock();
        let s = t.sessions.get_mut(&id)?;
        if s.state != SessionState::Queued {
            return None;
        }
        s.state = SessionState::Judging;
        let charged = std::mem::take(&mut s.stream_charged);
        let tenant = s.tenant.clone();
        t.buffered -= charged;
        self.changed.notify_all();
        Some(tenant)
    }

    /// Worker exit, success path: records the judge output, assigns
    /// rowids, charges the retention budget, and purges oldest-first if
    /// over it.
    ///
    /// A session can leave `Judging` while the worker runs: a
    /// stream-level quarantine poisons it in place (already releasing
    /// its `active` slot). Quarantine is terminal, so a late judge
    /// output is discarded — nothing is recorded and no counter moves.
    pub fn finish(&self, id: SessionId, out: JudgeOutput) {
        let mut t = self.lock();
        if t.sessions.get(&id).map(|s| s.state) != Some(SessionState::Judging) {
            return;
        }
        let mut bytes = 0usize;
        let outcomes: Vec<(u64, OutcomeRec)> = out
            .outcomes
            .into_iter()
            .map(|o| {
                bytes += approx_bytes_outcome(&o);
                let rowid = t.next_rowid;
                t.next_rowid += 1;
                (rowid, o)
            })
            .collect();
        let verdicts: Vec<(u64, VerdictRec)> = out
            .verdicts
            .into_iter()
            .map(|v| {
                bytes += approx_bytes_verdict(&v);
                let rowid = t.next_rowid;
                t.next_rowid += 1;
                (rowid, v)
            })
            .collect();
        let events: Vec<(u64, EventSummary)> = out
            .events
            .into_iter()
            .map(|e| {
                bytes += approx_bytes_event(&e);
                let rowid = t.next_rowid;
                t.next_rowid += 1;
                (rowid, e)
            })
            .collect();
        t.fleet.total_verdicts += verdicts.len() as u64;
        t.fleet.total_events_replayed += out.events_replayed;
        t.fleet.judged += 1;
        t.fleet.covered_sessions += u64::from(out.manifest_covered);
        t.fleet.fallback_sessions += u64::from(out.discharge_fallback);
        t.fleet.streamed_sessions += u64::from(t.sessions.get(&id).is_some_and(|s| s.streamed));
        t.history_bytes += bytes;
        {
            let s = t.sessions.get_mut(&id).expect("checked Judging above");
            s.state = SessionState::Judged;
            s.program = Some(out.program);
            s.obs = out.obs;
            s.discharge = Some(out.discharge);
            s.manifest_covered = out.manifest_covered;
            s.discharge_fallback = out.discharge_fallback;
            s.events_replayed = out.events_replayed;
            s.divergences = out.divergences;
            s.ring_overwritten = out.ring_overwritten;
            s.summaries_truncated = out.summaries_truncated;
            s.seal_to_verdict_micros = s
                .sealed_at
                .map(|at| at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            s.first_frame_micros = s
                .first_frame_at
                .map(|at| at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            s.history = Some(History {
                bytes,
                outcomes,
                verdicts,
                events,
                rollups: out.rollups,
            });
        }
        t.active -= 1;
        t.live -= 1;
        self.enforce_retention(&mut t);
        self.evict_session_records(&mut t);
        t.fleet.history_bytes = t.history_bytes as u64;
        self.changed.notify_all();
    }

    /// Worker exit, failure path.
    pub fn fail(&self, id: SessionId, reason: &str) {
        let mut t = self.lock();
        self.poison(&mut t, id, reason);
        self.changed.notify_all();
    }

    fn enforce_retention(&self, t: &mut TableInner) {
        while t.history_bytes > self.limits.retention_bytes {
            // Oldest-first by open order, among terminal sessions that
            // still hold history. Deterministic: open order is a total
            // order assigned under this same lock.
            let victim = t
                .sessions
                .iter()
                .filter(|(_, s)| s.state.is_terminal() && s.history.is_some())
                .min_by_key(|(_, s)| s.opened_seq)
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                break;
            };
            let s = t.sessions.get_mut(&victim).expect("victim exists");
            let hist = s.history.take().expect("victim holds history");
            s.history_purged = true;
            t.history_bytes -= hist.bytes;
            t.fleet.purged_sessions += 1;
        }
    }

    /// Drops whole terminal session records, oldest-first, while the
    /// table holds more than the record cap — the bound that keeps a
    /// fleet of short-lived sessions from growing the map forever. Live
    /// sessions are never dropped (the live cap bounds those), so the
    /// map can exceed the record cap only by live sessions. An evicted
    /// id stops answering stats and may be reopened.
    fn evict_session_records(&self, t: &mut TableInner) {
        while t.sessions.len() > self.limits.max_session_records {
            let victim = t
                .sessions
                .iter()
                .filter(|(_, s)| s.state.is_terminal())
                .min_by_key(|(_, s)| s.opened_seq)
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                break;
            };
            let s = t.sessions.remove(&victim).expect("victim exists");
            if let Some(hist) = s.history {
                t.history_bytes -= hist.bytes;
            }
            t.fleet.evicted_sessions += 1;
        }
        t.fleet.history_bytes = t.history_bytes as u64;
    }

    /// A stats snapshot for one session.
    pub fn stats(&self, id: SessionId) -> Option<SessionStats> {
        let t = self.lock();
        let s = t.sessions.get(&id)?;
        Some(Self::snapshot(id, s))
    }

    fn snapshot(id: SessionId, s: &Session) -> SessionStats {
        let (verdicts, summaries) = match &s.history {
            Some(h) => (h.verdicts.len() as u64, h.events.len() as u64),
            None => (0, 0),
        };
        SessionStats {
            session: id,
            tenant: s.tenant.clone(),
            state: s.state,
            configs: s.configs.iter().map(ReplayConfig::label).collect(),
            program: s.program.clone(),
            bytes: s.bytes_received,
            frames: s.frames,
            events_replayed: s.events_replayed,
            divergences: s.divergences,
            verdicts,
            summaries,
            ring_overwritten: s.ring_overwritten,
            summaries_truncated: s.summaries_truncated,
            rollups_complete: s.ring_overwritten == 0,
            obs: s.obs,
            discharge: s.discharge.clone(),
            manifest_covered: s.manifest_covered,
            discharge_fallback: s.discharge_fallback,
            reason: s.reason.clone(),
            history_purged: s.history_purged,
            streamed: s.streamed,
            seal_to_verdict_micros: s.seal_to_verdict_micros,
            first_frame_micros: s.first_frame_micros,
        }
    }

    /// The per-machine rollups of a judged session (empty if purged or
    /// not judged).
    pub fn rollups(&self, id: SessionId) -> Vec<MachineRollup> {
        let t = self.lock();
        t.sessions
            .get(&id)
            .and_then(|s| s.history.as_ref())
            .map(|h| h.rollups.clone())
            .unwrap_or_default()
    }

    /// Fleet counters.
    pub fn fleet(&self) -> FleetStats {
        let t = self.lock();
        let mut f = t.fleet;
        f.live = t.live;
        f.history_bytes = t.history_bytes as u64;
        f
    }

    /// Runs a query: scans matching history rows across sessions, in
    /// rowid (insertion) order, resuming after `query.cursor`.
    pub fn query(&self, query: &Query) -> QueryPage {
        let limit = match query.limit {
            0 => 100,
            n => n.min(1000),
        };
        let after = query.cursor.unwrap_or(0);
        let t = self.lock();
        let mut matched: Vec<(u64, QueryItem)> = Vec::new();
        for (&id, s) in &t.sessions {
            if let Some(want) = query.session {
                if want != id {
                    continue;
                }
            }
            if let Some(tenant) = &query.tenant {
                if &s.tenant != tenant {
                    continue;
                }
            }
            let Some(hist) = &s.history else {
                continue;
            };
            match query.kind {
                QueryKind::Verdicts => {
                    for (rowid, v) in &hist.verdicts {
                        if *rowid <= after {
                            continue;
                        }
                        if query.config.as_deref().is_some_and(|c| c != v.config) {
                            continue;
                        }
                        if query.function.as_deref().is_some_and(|f| f != v.function) {
                            continue;
                        }
                        if query.machine.as_deref().is_some_and(|m| m != v.machine) {
                            continue;
                        }
                        matched.push((*rowid, QueryItem::Verdict(v.clone())));
                    }
                }
                QueryKind::Events => {
                    for (rowid, e) in &hist.events {
                        if *rowid <= after {
                            continue;
                        }
                        if query
                            .function
                            .as_deref()
                            .is_some_and(|f| e.function.as_deref() != Some(f))
                        {
                            continue;
                        }
                        if query
                            .machine
                            .as_deref()
                            .is_some_and(|m| e.machine.as_deref() != Some(m))
                        {
                            continue;
                        }
                        if query
                            .entity
                            .as_deref()
                            .is_some_and(|x| e.entity.as_deref() != Some(x))
                        {
                            continue;
                        }
                        if query.thread.is_some_and(|th| th != e.thread) {
                            continue;
                        }
                        if query.min_index.is_some_and(|m| e.index < m) {
                            continue;
                        }
                        if query.max_index.is_some_and(|m| e.index > m) {
                            continue;
                        }
                        matched.push((*rowid, QueryItem::Event(e.clone())));
                    }
                }
                QueryKind::Outcomes => {
                    for (rowid, o) in &hist.outcomes {
                        if *rowid <= after {
                            continue;
                        }
                        if query.config.as_deref().is_some_and(|c| c != o.config) {
                            continue;
                        }
                        matched.push((*rowid, QueryItem::Outcome(o.clone())));
                    }
                }
            }
        }
        drop(t);
        matched.sort_by_key(|(rowid, _)| *rowid);
        let more = matched.len() > limit;
        matched.truncate(limit);
        let next_cursor = if more {
            matched.last().map(|(rowid, _)| *rowid)
        } else {
            None
        };
        QueryPage {
            items: matched.into_iter().map(|(_, item)| item).collect(),
            next_cursor,
        }
    }

    /// Blocks until the session reaches a terminal state; returns its
    /// stats, or `None` for an unknown session.
    pub fn wait_terminal(&self, id: SessionId) -> Option<SessionStats> {
        let mut t = self.lock();
        loop {
            let s = t.sessions.get(&id)?;
            if s.state.is_terminal() {
                return Some(Self::snapshot(id, s));
            }
            t = self.changed.wait(t).expect("session table poisoned");
        }
    }

    /// Blocks until no session is queued or judging.
    pub fn wait_idle(&self) {
        let mut t = self.lock();
        while t.active > 0 {
            t = self.changed.wait(t).expect("session table poisoned");
        }
    }

    /// Every known session id, in open order (for tests and the CLI).
    pub fn session_ids(&self) -> Vec<SessionId> {
        let t = self.lock();
        let mut ids: Vec<(u64, SessionId)> = t
            .sessions
            .iter()
            .map(|(id, s)| (s.opened_seq, *id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }
}
