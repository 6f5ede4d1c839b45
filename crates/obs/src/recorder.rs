//! The [`Recorder`]: the cheaply clonable handle every substrate crate
//! carries.
//!
//! A recorder is either *enabled* — backed by per-thread SPSC rings, an
//! intern table, a metrics store, and a trace policy — or *disabled*, in
//! which case every recording call is a single `Option` discriminant
//! check and an immediate return.
//!
//! ## The fast path
//!
//! The first event a thread records against a backend registers the
//! thread as a *writer*: it claims a private [`SpscRing`] slot, after
//! which the record path is wait-free — no lock, no shared-cacheline
//! read-modify-write:
//!
//! * **events** are encoded as fixed-width [`RawEvent`] words straight
//!   into the thread's own ring (labels are intern-table ids, not
//!   strings);
//! * **sequence numbers** are claimed from the global counter in blocks
//!   of [`SEQ_BLOCK`], so the shared atomic is touched once per block;
//! * **timestamps** are batched: one clock read per [`STAMP_BATCH`]
//!   events, monotone within a ring;
//! * **metrics** accumulate in thread-local batches and are folded into
//!   the shared store every [`FLUSH_EVERY`] operations, at thread exit,
//!   and before a same-thread snapshot.
//!
//! Export ([`Recorder::events`]) is the merge point: it snapshots each
//! ring without stopping writers and k-way merges by sequence number.
//!
//! ## Trace policy
//!
//! A [`TracePolicy`] can disable or 1-in-N-sample tracing per label
//! (function or machine), swappable mid-workload via
//! [`Recorder::set_policy`]. The policy governs the *ring only*:
//! metrics and checker verdicts always see every operation, so verdict
//! streams are identical across policy configurations. Suppression is
//! accounted in [`Coverage`] and flagged in every export.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::event::{EventKind, FsmOutcome, TraceEvent, VerdictAction};
use crate::metrics::{Coverage, FuncMetrics, MachineMetrics, MetricsRegistry, Snapshot};
use crate::policy::{PolicyTable, TracePolicy, POLICY_LABEL_SLOTS};
use crate::raw::{op, LabelId, RawEvent, ENTITY_KEY_BIT, RAW_WORDS};
use crate::spsc::SpscRing;

/// Default per-writer ring capacity for [`Recorder::enabled`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Maximum registered writer threads per backend. The last slot is a
/// shared overflow ring (mutex-serialised) for threads beyond the limit,
/// so recording never fails — it just stops being wait-free for the
/// overflow crowd.
pub const MAX_WRITERS: usize = 64;

const OVERFLOW_SLOT: usize = MAX_WRITERS - 1;

/// Reserved intern ids, installed by [`Recorder::enabled`] before any
/// caller-supplied label so their values are fixed.
const GC_LABEL: u32 = 0;
const PIN_LABEL: u32 = 1;

/// One call in this many (per thread) gets a latency timer when timers
/// are enabled; see [`Recorder::timer`].
const TIMER_SAMPLE: u32 = 8;

/// Sequence numbers are claimed from the shared counter in blocks of
/// this size: one `fetch_add` per block instead of per event. Cross-
/// thread interleaving in the merged timeline is therefore approximate
/// at block granularity; within a thread, order is exact.
pub const SEQ_BLOCK: u64 = 64;

/// Events per wall-clock read: timestamps within a batch share one
/// reading, so timelines are coarse to roughly this granularity.
pub const STAMP_BATCH: u32 = 32;

/// Thread-local metric batches are folded into the shared store every
/// this many recording operations (plus at thread exit and before a
/// same-thread snapshot).
pub const FLUSH_EVERY: u32 = 256;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking recorder user must not cascade into every other
    // thread's recording path: recover the data under the poison.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Label interning state plus the current policy spec. One mutex guards
/// both so label registration can consult the spec for the new label's
/// sampling rate without lock-ordering hazards.
#[derive(Debug)]
struct InternState {
    ids: HashMap<Box<str>, u32>,
    names: Vec<Arc<str>>,
    spec: TracePolicy,
}

fn intern_locked(st: &mut InternState, table: &PolicyTable, label: &str) -> u32 {
    if let Some(&id) = st.ids.get(label) {
        return id;
    }
    let id = st.names.len() as u32;
    st.ids.insert(Box::from(label), id);
    st.names.push(Arc::from(label));
    if (id as usize) < POLICY_LABEL_SLOTS {
        table.rates[id as usize].store(st.spec.rate_for_name(label), Ordering::Relaxed);
    }
    id
}

/// Thread-local, id-keyed metric batches (and their shared aggregate).
///
/// A thread's batch also lists the ids it touched since its last drain,
/// so a drain walks only those: the slot vectors run up to the highest
/// label id ever recorded, and a JNI slot carries a whole latency
/// histogram.
#[derive(Debug, Default)]
struct IdMetrics {
    jni: Vec<FuncMetrics>,
    machines: Vec<MachineMetrics>,
    counters: Vec<u64>,
    dirty_jni: Vec<u32>,
    dirty_machines: Vec<u32>,
    dirty_counters: Vec<u32>,
}

fn at<T: Default + Clone>(v: &mut Vec<T>, id: u32) -> &mut T {
    let id = id as usize;
    if id >= v.len() {
        v.resize(id + 1, T::default());
    }
    &mut v[id]
}

impl IdMetrics {
    /// A JNI function's batch slot; the caller always records a call.
    fn jni(&mut self, id: u32) -> &mut FuncMetrics {
        let m = at(&mut self.jni, id);
        if m.calls == 0 {
            self.dirty_jni.push(id);
        }
        m
    }

    /// A machine's batch slot; the caller always records an outcome.
    fn machine(&mut self, id: u32) -> &mut MachineMetrics {
        let m = at(&mut self.machines, id);
        if m.total() == 0 {
            self.dirty_machines.push(id);
        }
        m
    }

    /// A counter's batch slot. A zero delta leaves it at zero, so its id
    /// may be listed twice; the drain skips the second visit.
    fn counter(&mut self, id: u32) -> &mut u64 {
        let c = at(&mut self.counters, id);
        if *c == 0 {
            self.dirty_counters.push(id);
        }
        c
    }

    /// Folds this batch into `global` and resets it (capacity kept).
    fn drain_into(&mut self, global: &mut IdMetrics) {
        for id in self.dirty_jni.drain(..) {
            let m = &mut self.jni[id as usize];
            if m.calls > 0 {
                at(&mut global.jni, id).merge(m);
                *m = FuncMetrics::default();
            }
        }
        for id in self.dirty_machines.drain(..) {
            let m = &mut self.machines[id as usize];
            if m.total() > 0 {
                at(&mut global.machines, id).merge(m);
                *m = MachineMetrics::default();
            }
        }
        for id in self.dirty_counters.drain(..) {
            let c = &mut self.counters[id as usize];
            if *c > 0 {
                *at(&mut global.counters, id) += *c;
                *c = 0;
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Globally unique backend id, the thread-local producer key.
    id: u64,
    start: Instant,
    ring_capacity: usize,
    /// Global sequence counter, claimed in [`SEQ_BLOCK`] blocks.
    seq: AtomicU64,
    /// Next writer slot to hand out (never reused).
    next_slot: AtomicUsize,
    /// Per-writer rings, allocated lazily at registration.
    slots: Box<[OnceLock<SpscRing>]>,
    /// Serialises producers that share the overflow slot.
    overflow_lock: Mutex<()>,
    intern: Mutex<InternState>,
    policy: PolicyTable,
    /// Flushed metric aggregates, id-keyed; resolved to names at
    /// snapshot time.
    store: Mutex<IdMetrics>,
    suppressed_disabled: AtomicU64,
    suppressed_sampled: AtomicU64,
    auto_downsampled: AtomicU64,
}

static NEXT_BACKEND_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's registration with one backend: its ring slot, its
/// current sequence block and timestamp batch, its sampling counters,
/// and its unflushed metric batch. Lives in thread-local storage; the
/// `Drop` impl flushes at thread exit (before `join` returns).
#[derive(Debug)]
struct Producer {
    backend: u64,
    inner: Weak<Inner>,
    slot: usize,
    exclusive: bool,
    seq_next: u64,
    seq_end: u64,
    micros: u64,
    stamp_left: u32,
    /// Policy epoch the sampling counters belong to.
    epoch: u64,
    /// Per-label events seen this epoch (sampling phase + auto knee).
    seen: Vec<u32>,
    local: IdMetrics,
    supp_disabled: u64,
    supp_sampled: u64,
    supp_auto: u64,
    ops: u32,
    /// Calls until the next latency timer is handed out.
    timer_left: u32,
}

thread_local! {
    static PRODUCERS: RefCell<Vec<Producer>> = const { RefCell::new(Vec::new()) };
}

impl Producer {
    fn register(inner: &Arc<Inner>) -> Producer {
        let claimed = inner.next_slot.fetch_add(1, Ordering::Relaxed);
        let (slot, exclusive) = if claimed < OVERFLOW_SLOT {
            (claimed, true)
        } else {
            (OVERFLOW_SLOT, false)
        };
        inner.slots[slot].get_or_init(|| SpscRing::new(inner.ring_capacity));
        Producer {
            backend: inner.id,
            inner: Arc::downgrade(inner),
            slot,
            exclusive,
            seq_next: 0,
            seq_end: 0,
            micros: 0,
            stamp_left: 0,
            epoch: inner.policy.epoch.load(Ordering::Acquire),
            seen: Vec::new(),
            local: IdMetrics::default(),
            supp_disabled: 0,
            supp_sampled: 0,
            supp_auto: 0,
            ops: 0,
            timer_left: 0,
        }
    }

    /// Applies the trace policy and, if the event survives, encodes and
    /// pushes it into this thread's ring. Metrics are the caller's
    /// business — they are never sampled.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the five record words plus routing
    fn trace(&mut self, inner: &Inner, thread: u16, op: u8, flags: u8, label: u32, x: u64, y: u64) {
        let epoch = inner.policy.epoch.load(Ordering::Acquire);
        if epoch != self.epoch {
            self.epoch = epoch;
            self.seen.iter_mut().for_each(|c| *c = 0);
        }
        let mut rate = inner.policy.rate_for(label);
        let auto_threshold = inner.policy.auto_threshold.load(Ordering::Relaxed);
        let mut auto_hit = false;
        let seen = if rate != 1 || auto_threshold > 0 {
            let c = at(&mut self.seen, label.min(POLICY_LABEL_SLOTS as u32));
            *c = c.saturating_add(1);
            *c
        } else {
            0
        };
        if auto_threshold > 0 && seen > auto_threshold && rate > 0 {
            let auto_rate = inner.policy.auto_rate.load(Ordering::Relaxed);
            if auto_rate > rate {
                rate = auto_rate;
                auto_hit = true;
            }
        }
        match rate {
            1 => {}
            0 => {
                self.supp_disabled += 1;
                return;
            }
            n => {
                if (seen - 1) % n != 0 {
                    if auto_hit {
                        self.supp_auto += 1;
                    } else {
                        self.supp_sampled += 1;
                    }
                    return;
                }
            }
        }
        let seq = self.next_seq(inner);
        let micros = self.stamp(inner);
        let words = RawEvent {
            seq,
            micros,
            thread,
            op,
            flags,
            label,
            x,
            y,
        }
        .to_words();
        let ring = inner.slots[self.slot].get().expect("registered slot");
        if self.exclusive {
            ring.push(words);
        } else {
            let _guard = lock(&inner.overflow_lock);
            ring.push(words);
        }
    }

    #[inline]
    fn next_seq(&mut self, inner: &Inner) -> u64 {
        if self.seq_next == self.seq_end {
            let base = inner.seq.fetch_add(SEQ_BLOCK, Ordering::Relaxed);
            self.seq_next = base;
            self.seq_end = base + SEQ_BLOCK;
            // A fresh block is a natural point to resynchronise the
            // batched clock.
            self.micros = inner.start.elapsed().as_micros() as u64;
            self.stamp_left = STAMP_BATCH;
        }
        let seq = self.seq_next;
        self.seq_next += 1;
        seq
    }

    #[inline]
    fn stamp(&mut self, inner: &Inner) -> u64 {
        if self.stamp_left == 0 {
            self.micros = inner.start.elapsed().as_micros() as u64;
            self.stamp_left = STAMP_BATCH;
        }
        self.stamp_left -= 1;
        self.micros
    }

    /// Bumps the op counter and flushes the metric batch if due.
    #[inline]
    fn tick(&mut self, inner: &Inner) {
        self.ops += 1;
        if self.ops >= FLUSH_EVERY {
            self.flush_with(inner);
        }
    }

    fn flush_with(&mut self, inner: &Inner) {
        self.ops = 0;
        self.local.drain_into(&mut lock(&inner.store));
        if self.supp_disabled > 0 {
            inner
                .suppressed_disabled
                .fetch_add(self.supp_disabled, Ordering::Relaxed);
            self.supp_disabled = 0;
        }
        if self.supp_sampled > 0 {
            inner
                .suppressed_sampled
                .fetch_add(self.supp_sampled, Ordering::Relaxed);
            self.supp_sampled = 0;
        }
        if self.supp_auto > 0 {
            inner
                .auto_downsampled
                .fetch_add(self.supp_auto, Ordering::Relaxed);
            self.supp_auto = 0;
        }
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // Thread exit (TLS destructors run before `join` returns):
        // surface whatever this thread still holds locally. If the
        // backend is already gone there is nobody to tell.
        if let Some(inner) = self.inner.upgrade() {
            self.flush_with(&inner);
        }
    }
}

/// Handle to the observability backend. Cloning shares the backend;
/// clones may be moved freely across threads.
///
/// The default recorder is disabled: every call is a no-op after one
/// branch. Construct with [`Recorder::enabled`] to start recording.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder backed by per-writer-thread SPSC rings of
    /// `ring_capacity` events each (allocated lazily as threads start
    /// recording), an empty metrics store, and the
    /// [`TracePolicy::full`] policy.
    pub fn enabled(ring_capacity: usize) -> Recorder {
        let slots: Vec<OnceLock<SpscRing>> = (0..MAX_WRITERS).map(|_| OnceLock::new()).collect();
        let inner = Inner {
            id: NEXT_BACKEND_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            ring_capacity,
            seq: AtomicU64::new(0),
            next_slot: AtomicUsize::new(0),
            slots: slots.into_boxed_slice(),
            overflow_lock: Mutex::new(()),
            intern: Mutex::new(InternState {
                ids: HashMap::new(),
                names: Vec::new(),
                spec: TracePolicy::full(),
            }),
            policy: PolicyTable::new(),
            store: Mutex::new(IdMetrics::default()),
            suppressed_disabled: AtomicU64::new(0),
            suppressed_sampled: AtomicU64::new(0),
            auto_downsampled: AtomicU64::new(0),
        };
        let recorder = Recorder {
            inner: Some(Arc::new(inner)),
        };
        // Reserve labels for events that have no caller-supplied name,
        // so the policy can address them ("gc", "pin").
        debug_assert_eq!(recorder.intern("gc").0, GC_LABEL);
        debug_assert_eq!(recorder.intern("pin").0, PIN_LABEL);
        recorder
    }

    /// Whether this recorder is actually recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` with this thread's producer for the backend,
    /// registering the thread as a writer on first use. Returns `None`
    /// (dropping the operation) only in teardown corner cases — TLS
    /// already destroyed, or a reentrant call from inside the producer.
    #[inline]
    fn with_producer<R>(
        inner: &Arc<Inner>,
        f: impl FnOnce(&mut Producer, &Inner) -> R,
    ) -> Option<R> {
        PRODUCERS
            .try_with(|cell| {
                let mut producers = cell.try_borrow_mut().ok()?;
                let idx = match producers.iter().position(|p| p.backend == inner.id) {
                    Some(idx) => idx,
                    None => {
                        // Drop registrations whose backend died so a
                        // thread outliving many recorders doesn't
                        // accumulate state without bound.
                        producers.retain(|p| p.inner.strong_count() > 0);
                        producers.push(Producer::register(inner));
                        producers.len() - 1
                    }
                };
                Some(f(&mut producers[idx], inner.as_ref()))
            })
            .ok()
            .flatten()
    }

    /// Flushes the calling thread's metric batch for this backend, if it
    /// has one, without registering a writer slot.
    fn flush_current(inner: &Arc<Inner>) {
        let _ = PRODUCERS.try_with(|cell| {
            if let Ok(mut producers) = cell.try_borrow_mut() {
                if let Some(p) = producers.iter_mut().find(|p| p.backend == inner.id) {
                    p.flush_with(inner);
                }
            }
        });
    }

    /// Flushes the calling thread's batched metrics into the shared
    /// store, making them visible to [`snapshot`](Self::snapshot) from
    /// other threads. Threads flush automatically every
    /// [`FLUSH_EVERY`] operations and when they exit; call this at the
    /// end of work on a *scoped* or pooled thread, where exit (and the
    /// TLS-destructor flush it triggers) may come after the coordinating
    /// thread has already resumed. No-op when disabled.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            Self::flush_current(inner);
        }
    }

    /// Starts a latency timer — `None` when disabled or when the current
    /// policy turned latency timers off, so those paths never touch the
    /// clock.
    ///
    /// Even with timers on, only one call in [`TIMER_SAMPLE`] (per
    /// thread) gets a timer: a clock read costs more than an entire ring
    /// write, and the latency *histograms* only need a representative
    /// sample, not a census. Call counts are exact regardless — only
    /// the histogram population is thinned.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        let inner = self.inner.as_ref()?;
        if !inner.policy.latency_timers.load(Ordering::Relaxed) {
            return None;
        }
        let due = Self::with_producer(inner, |p, _| {
            if p.timer_left == 0 {
                p.timer_left = TIMER_SAMPLE - 1;
                true
            } else {
                p.timer_left -= 1;
                false
            }
        })
        // Teardown corner cases (no producer) lose nothing by timing.
        .unwrap_or(true);
        if due {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Microseconds since the recorder was created (0 when disabled).
    pub fn elapsed_micros(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Interns a label, returning its dense id. Hot instrumentation
    /// sites intern once (at wiring time) and record by id; the id is
    /// also the label's key in the policy rate table and metric store.
    /// Meaningless (always id 0) on a disabled recorder.
    pub fn intern(&self, label: &str) -> LabelId {
        match &self.inner {
            Some(inner) => LabelId(intern_locked(
                &mut lock(&inner.intern),
                &inner.policy,
                label,
            )),
            None => LabelId(0),
        }
    }

    /// Interns an event label and returns the shared text: the first
    /// occurrence allocates, every later occurrence clones the same
    /// `Arc`. A disabled recorder has no cache and falls back to a plain
    /// allocation.
    pub fn label(&self, label: &str) -> Arc<str> {
        match &self.inner {
            Some(inner) => {
                let mut st = lock(&inner.intern);
                let id = intern_locked(&mut st, &inner.policy, label);
                Arc::clone(&st.names[id as usize])
            }
            None => Arc::from(label),
        }
    }

    /// Installs a new trace policy, effective for every producer from
    /// its next event. In-flight events are never lost: producers
    /// observe the epoch bump at the next record and merely reset their
    /// sampling counters.
    pub fn set_policy(&self, policy: TracePolicy) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.intern);
        for (name, _) in policy.rules() {
            intern_locked(&mut st, &inner.policy, name);
        }
        st.spec = policy;
        let st = &*st;
        inner.policy.install(&st.spec, |id| match st.names.get(id) {
            Some(name) => st.spec.rate_for_name(name),
            None => st.spec.default_rate(),
        });
    }

    /// The currently installed policy spec (`None` when disabled).
    pub fn policy(&self) -> Option<TracePolicy> {
        self.inner
            .as_ref()
            .map(|inner| lock(&inner.intern).spec.clone())
    }

    /// The policy epoch: bumped by every [`set_policy`](Self::set_policy).
    pub fn policy_epoch(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.policy.epoch.load(Ordering::Acquire),
            None => 0,
        }
    }

    // ----- fast path: record by pre-interned label id -----

    /// `Call:C→Java` by label id.
    #[inline]
    pub fn jni_enter_id(&self, thread: u16, func: LabelId) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(inner, thread, op::JNI_ENTER, 0, func.0, 0, 0);
                p.tick(inner);
            });
        }
    }

    /// `Return:Java→C` by label id: records the exit event *and* the
    /// per-function call metrics (latency only when a timer ran).
    #[inline]
    pub fn jni_exit_id(&self, thread: u16, func: LabelId, nanos: Option<u64>, failed: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let m = p.local.jni(func.0);
                m.calls += 1;
                if failed {
                    m.failures += 1;
                }
                if let Some(ns) = nanos {
                    m.latency.record(ns);
                }
                p.trace(
                    inner,
                    thread,
                    op::JNI_EXIT,
                    u8::from(failed),
                    func.0,
                    nanos.unwrap_or(0),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// `Call:Java→C` by label id.
    #[inline]
    pub fn native_enter_id(&self, thread: u16, method: LabelId) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(inner, thread, op::NATIVE_ENTER, 0, method.0, 0, 0);
                p.tick(inner);
            });
        }
    }

    /// `Return:C→Java` by label id.
    #[inline]
    pub fn native_exit_id(&self, thread: u16, method: LabelId, nanos: u64, failed: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::NATIVE_EXIT,
                    u8::from(failed),
                    method.0,
                    nanos,
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// An FSM transition by label ids: records the event *and* the
    /// per-machine transition metrics in one pass.
    #[inline]
    pub fn fsm_transition_id(
        &self,
        thread: u16,
        machine: LabelId,
        transition: LabelId,
        outcome: FsmOutcome,
        entity: Option<LabelId>,
    ) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let m = p.local.machine(machine.0);
                let flags = match outcome {
                    FsmOutcome::Moved => {
                        m.applied += 1;
                        0
                    }
                    FsmOutcome::Error => {
                        m.errors += 1;
                        1
                    }
                    FsmOutcome::NotApplicable => {
                        m.not_applicable += 1;
                        2
                    }
                };
                p.trace(
                    inner,
                    thread,
                    op::FSM_TRANSITION,
                    flags,
                    machine.0,
                    u64::from(transition.0),
                    entity.map(|e| u64::from(e.0) + 1).unwrap_or(0),
                );
                p.tick(inner);
            });
        }
    }

    /// An FSM transition whose entity is an opaque numeric key rather
    /// than an interned label. This is the hot-path variant for
    /// instrumentation sites whose entities are short-lived (every new
    /// reference is a fresh entity, so a label cache never hits): the
    /// key is packed by the caller from the entity's identity bits and
    /// costs nothing to produce. Exports render it as `entity#<hex>`;
    /// equal keys render equally, which is all forensics matching
    /// needs.
    #[inline]
    pub fn fsm_transition_keyed(
        &self,
        thread: u16,
        machine: LabelId,
        transition: LabelId,
        outcome: FsmOutcome,
        key: u64,
    ) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let m = p.local.machine(machine.0);
                let flags = match outcome {
                    FsmOutcome::Moved => {
                        m.applied += 1;
                        0
                    }
                    FsmOutcome::Error => {
                        m.errors += 1;
                        1
                    }
                    FsmOutcome::NotApplicable => {
                        m.not_applicable += 1;
                        2
                    }
                };
                p.trace(
                    inner,
                    thread,
                    op::FSM_TRANSITION,
                    flags,
                    machine.0,
                    u64::from(transition.0),
                    ENTITY_KEY_BIT | (key & !ENTITY_KEY_BIT),
                );
                p.tick(inner);
            });
        }
    }

    /// A checker verdict by label ids.
    #[inline]
    pub fn verdict_id(
        &self,
        thread: u16,
        machine: LabelId,
        function: LabelId,
        action: VerdictAction,
    ) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let flags = match action {
                    VerdictAction::Warn => 0,
                    VerdictAction::AbortVm => 1,
                    VerdictAction::ThrowException => 2,
                };
                p.trace(
                    inner,
                    thread,
                    op::VERDICT,
                    flags,
                    machine.0,
                    u64::from(function.0),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// Bumps a counter by pre-interned id.
    #[inline]
    pub fn count_id(&self, counter: LabelId, delta: u64) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                *p.local.counter(counter.0) += delta;
                p.tick(inner);
            });
        }
    }

    /// A GC safepoint. Traced under the reserved `"gc"` policy label.
    #[inline]
    pub fn gc_safepoint_id(&self, thread: u16, collected: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::GC_SAFEPOINT,
                    u8::from(collected),
                    GC_LABEL,
                    0,
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// A completed GC cycle. Traced under the reserved `"gc"` policy
    /// label.
    #[inline]
    pub fn gc_id(&self, thread: u16, live: u64, freed: u64) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(inner, thread, op::GC, 0, GC_LABEL, live, freed);
                p.tick(inner);
            });
        }
    }

    /// A pin acquisition. Traced under the reserved `"pin"` policy
    /// label.
    #[inline]
    pub fn pin_acquire_id(&self, thread: u16, pin: u32) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::PIN_ACQUIRE,
                    0,
                    PIN_LABEL,
                    u64::from(pin),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// A pin release. Traced under the reserved `"pin"` policy label.
    #[inline]
    pub fn pin_release_id(&self, thread: u16, pin: u32, ok: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::PIN_RELEASE,
                    u8::from(ok),
                    PIN_LABEL,
                    u64::from(pin),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    // ----- compatibility path: record by enum / name -----

    /// Records an event given in enum form. This is the cold path: each
    /// label is resolved through the intern table per call. Hot sites
    /// should pre-intern and use the `*_id` methods.
    pub fn event(&self, thread: u16, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let raw = {
            let mut st = lock(&inner.intern);
            RawEvent::encode(0, 0, thread, &kind, |s| {
                intern_locked(&mut st, &inner.policy, s)
            })
        };
        // Events without a caller-supplied name borrow a reserved label
        // so the policy can still address them.
        let label = match raw.op {
            op::GC_SAFEPOINT | op::GC => GC_LABEL,
            op::PIN_ACQUIRE | op::PIN_RELEASE => PIN_LABEL,
            _ => raw.label,
        };
        Self::with_producer(inner, |p, inner| {
            p.trace(inner, thread, raw.op, raw.flags, label, raw.x, raw.y);
            p.tick(inner);
        });
    }

    /// Records a completed JNI call into the metrics store (by name;
    /// cold path).
    pub fn jni_call(&self, func: &str, nanos: u64, failed: bool) {
        if self.inner.is_some() {
            let id = self.intern(func);
            let Some(inner) = &self.inner else { return };
            Self::with_producer(inner, |p, inner| {
                let m = p.local.jni(id.0);
                m.calls += 1;
                if failed {
                    m.failures += 1;
                }
                m.latency.record(nanos);
                p.tick(inner);
            });
        }
    }

    /// Records an FSM transition outcome into the metrics store (by
    /// name; cold path).
    pub fn fsm(&self, machine: &str, outcome: FsmOutcome) {
        if self.inner.is_some() {
            let id = self.intern(machine);
            let Some(inner) = &self.inner else { return };
            Self::with_producer(inner, |p, inner| {
                let m = p.local.machine(id.0);
                match outcome {
                    FsmOutcome::Moved => m.applied += 1,
                    FsmOutcome::Error => m.errors += 1,
                    FsmOutcome::NotApplicable => m.not_applicable += 1,
                }
                p.tick(inner);
            });
        }
    }

    /// Bumps a named counter (by name; cold path).
    pub fn count(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            let id = self.intern(name);
            self.count_id(id, delta);
        }
    }

    // ----- export -----

    /// A point-in-time copy of the metrics plus coverage accounting, or
    /// `None` when disabled. Flushes the calling thread's batch first;
    /// other threads' unflushed tails (at most [`FLUSH_EVERY`] - 1
    /// operations each) appear after their next flush or exit.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        Self::flush_current(inner);
        let mut metrics = MetricsRegistry::new();
        {
            let st = lock(&inner.intern);
            let store = lock(&inner.store);
            let name = |id: usize| st.names.get(id).map(|n| &**n).unwrap_or("label#?");
            for (id, m) in store.jni.iter().enumerate() {
                if m.calls > 0 {
                    metrics.merge_jni(name(id), m);
                }
            }
            for (id, m) in store.machines.iter().enumerate() {
                if m.total() > 0 {
                    metrics.merge_machine(name(id), m);
                }
            }
            for (id, &c) in store.counters.iter().enumerate() {
                if c > 0 {
                    metrics.add(name(id), c);
                }
            }
        }
        Some(Snapshot {
            taken_at_micros: inner.start.elapsed().as_micros() as u64,
            metrics,
            coverage: self.coverage(),
        })
    }

    /// Trace-ring coverage accounting: events recorded, evicted, and
    /// policy-suppressed (zeroed when disabled). The calling thread's
    /// unflushed suppression counts are folded in first.
    pub fn coverage(&self) -> Coverage {
        let Some(inner) = &self.inner else {
            return Coverage::default();
        };
        Self::flush_current(inner);
        Coverage {
            recorded: self.total_events(),
            ring_dropped: self.dropped_events(),
            suppressed_disabled: inner.suppressed_disabled.load(Ordering::Relaxed),
            suppressed_sampled: inner.suppressed_sampled.load(Ordering::Relaxed),
            auto_downsampled: inner.auto_downsampled.load(Ordering::Relaxed),
            policy_epoch: inner.policy.epoch.load(Ordering::Acquire),
        }
    }

    /// The events currently held, merged across the per-writer rings
    /// into one sequence-ordered timeline (empty when disabled).
    ///
    /// Each ring is snapshotted without stopping its writer, then the
    /// per-ring streams — already sequence-ascending — are k-way merged
    /// by `(seq, slot index)`.
    pub fn events(&self) -> Vec<TraceEvent> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let names: Vec<Arc<str>> = lock(&inner.intern).names.clone();
        let mut streams: Vec<Vec<[u64; RAW_WORDS]>> = inner
            .slots
            .iter()
            .filter_map(|slot| slot.get())
            .map(|ring| ring.snapshot())
            .collect();
        for stream in &mut streams {
            // Exclusive rings are seq-sorted by construction; the shared
            // overflow ring interleaves several producers' blocks.
            if stream.windows(2).any(|w| w[0][0] > w[1][0]) {
                stream.sort_unstable_by_key(|words| words[0]);
            }
        }
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| Reverse((s[0][0], i)))
            .collect();
        let mut cursors = vec![0usize; streams.len()];
        let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
        while let Some(Reverse((_, i))) = heap.pop() {
            let words = streams[i][cursors[i]];
            cursors[i] += 1;
            out.push(RawEvent::from_words(words).decode(&names));
            if let Some(next) = streams[i].get(cursors[i]) {
                heap.push(Reverse((next[0], i)));
            }
        }
        out
    }

    /// Total events ever recorded into the rings, including evicted ones
    /// (policy-suppressed events are not recorded; see
    /// [`coverage`](Self::coverage)).
    pub fn total_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .slots
                .iter()
                .filter_map(|slot| slot.get())
                .map(SpscRing::total_pushed)
                .sum(),
            None => 0,
        }
    }

    /// Events recorded but evicted from their ring (0 when disabled).
    /// When non-zero, [`Recorder::events`] is a truncated view of the
    /// run.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .slots
                .iter()
                .filter_map(|slot| slot.get())
                .map(SpscRing::dropped)
                .sum(),
            None => 0,
        }
    }

    /// The events as Chrome `chrome://tracing` JSON, or `None` when
    /// disabled. Evicted events surface as a `dropped-events` metadata
    /// instant; policy suppression as a `trace-sampling` instant.
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner
            .as_ref()
            .map(|_| crate::export::chrome_trace_with_coverage(&self.events(), self.coverage()))
    }

    /// A plain-text dump of events + metrics, or `None` when disabled.
    /// Evicted and suppressed events are counted in the header.
    pub fn text_dump(&self) -> Option<String> {
        let snapshot = self.snapshot()?;
        Some(crate::export::text_dump_with_coverage(
            &self.events(),
            &snapshot,
            snapshot.coverage,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_THREAD;

    // The whole point of the Arc/atomic backend: handles cross threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    };

    fn safepoint(r: &Recorder, thread: u16) {
        r.event(thread, EventKind::GcSafepoint { collected: false });
    }

    #[test]
    fn drains_walk_only_the_slots_touched_since_the_last_drain() {
        let (mut local, mut global) = (IdMetrics::default(), IdMetrics::default());
        *local.counter(200) += 3;
        *local.counter(200) += 4;
        // A zero delta leaves the slot at zero, so it is listed again.
        *local.counter(7) += 0;
        *local.counter(7) += 0;
        local.machine(5).applied += 1;
        local.jni(165).calls += 1;
        assert_eq!(local.dirty_counters, [200, 7, 7]);
        assert_eq!(local.dirty_machines, [5]);
        assert_eq!(local.dirty_jni, [165]);

        local.drain_into(&mut global);
        assert!(local.dirty_counters.is_empty());
        assert!(local.dirty_machines.is_empty());
        assert!(local.dirty_jni.is_empty());
        assert_eq!((local.counters[200], local.jni[165].calls), (0, 0));
        assert_eq!(global.counters[200], 7);
        assert_eq!(global.counters[7], 0);
        assert_eq!(global.machines[5].applied, 1);
        assert_eq!(global.jni[165].calls, 1);

        // The next batch reuses the slots and adds up.
        *local.counter(200) += 1;
        local.jni(165).calls += 2;
        local.drain_into(&mut global);
        assert_eq!(global.counters[200], 8);
        assert_eq!(global.jni[165].calls, 3);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.timer().is_none());
        r.event(0, EventKind::GcSafepoint { collected: true });
        r.jni_call("NewStringUTF", 10, false);
        r.fsm("pinning", FsmOutcome::Moved);
        r.count("x", 1);
        assert!(r.snapshot().is_none());
        assert!(r.events().is_empty());
        assert_eq!(r.total_events(), 0);
        assert!(r.chrome_trace().is_none());
        assert!(r.text_dump().is_none());
        assert_eq!(r.coverage(), Coverage::default());
        assert!(r.policy().is_none());
    }

    #[test]
    fn clones_share_the_backend() {
        let a = Recorder::enabled(16);
        let b = a.clone();
        a.event(
            1,
            EventKind::JniEnter {
                func: "GetObjectClass".into(),
            },
        );
        b.jni_call("GetObjectClass", 99, false);
        assert_eq!(a.total_events(), 1);
        assert_eq!(b.events().len(), 1);
        let snap = a.snapshot().unwrap();
        assert_eq!(snap.metrics.total_jni_calls(), 1);
    }

    #[test]
    fn labels_are_interned_per_recorder() {
        let r = Recorder::enabled(4);
        let first = r.label("local-reference");
        let second = r.label("local-reference");
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeated labels share one allocation"
        );
        assert_eq!(&*r.label("other"), "other");
        // Ids are stable and dense.
        assert_eq!(r.intern("local-reference"), r.intern("local-reference"));
        assert_ne!(r.intern("local-reference"), r.intern("other"));
        // Disabled recorders have no cache but still hand back the text.
        assert_eq!(&*Recorder::disabled().label("x"), "x");
    }

    #[test]
    fn events_carry_monotonic_seq() {
        let r = Recorder::enabled(4);
        for _ in 0..6 {
            safepoint(&r, NO_THREAD);
        }
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        assert_eq!(r.total_events(), 6);
    }

    #[test]
    fn dropped_events_surface_in_dumps() {
        let r = Recorder::enabled(2);
        for _ in 0..5 {
            safepoint(&r, 0);
        }
        assert_eq!(r.dropped_events(), 3);
        assert!(r.text_dump().unwrap().contains("2 events held, 3 dropped"));
        assert!(r.chrome_trace().unwrap().contains("\"dropped\":3"));
        assert_eq!(Recorder::disabled().dropped_events(), 0);
    }

    #[test]
    fn timer_works_when_enabled() {
        let r = Recorder::enabled(4);
        let t = r.timer().expect("enabled recorder must hand out timers");
        let nanos = t.elapsed().as_nanos() as u64;
        r.jni_call("NewGlobalRef", nanos, false);
        let snap = r.snapshot().unwrap();
        let (_, m) = snap.metrics.jni_functions().next().unwrap();
        assert_eq!(m.calls, 1);
    }

    #[test]
    fn export_merges_interleaved_thread_tags_in_seq_order() {
        // All nine events come from this one OS thread, so they share a
        // single ring — it must hold all of them.
        let r = Recorder::enabled(16);
        for i in 0..9u16 {
            safepoint(&r, i % 3);
        }
        let events = r.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..9).collect::<Vec<u64>>(), "merged by seq");
        let threads: Vec<u16> = events.iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn ring_eviction_is_per_writer_thread() {
        let r = Recorder::enabled(2);
        std::thread::scope(|scope| {
            let busy = r.clone();
            let quiet = r.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    safepoint(&busy, 0);
                }
            });
            scope.spawn(move || safepoint(&quiet, 1));
        });
        // The busy writer overflowed its own ring; the quiet writer's
        // event survived in its separate ring.
        assert_eq!(r.dropped_events(), 3);
        let held: Vec<u16> = r.events().iter().map(|e| e.thread).collect();
        assert_eq!(held.len(), 3);
        assert!(held.contains(&1), "{held:?}");
    }

    #[test]
    fn concurrent_recording_from_spawned_threads() {
        let r = Recorder::enabled(1024);
        // `thread::spawn` + `join`, not `thread::scope`: join waits for
        // the thread's TLS destructors (which flush the metric batch),
        // while a scope can return before they have run. Scoped threads
        // that need exact metrics call `Recorder::flush` — see the
        // `scoped_threads_flush_explicitly` test below.
        let handles: Vec<_> = (0..4u16)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        safepoint(&r, t);
                        r.count("gc.safepoints", 1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(r.total_events(), 400);
        assert_eq!(r.dropped_events(), 0);
        let events = r.events();
        assert_eq!(events.len(), 400);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(r.snapshot().unwrap().metrics.counter("gc.safepoints"), 400);
    }

    #[test]
    fn scoped_threads_flush_explicitly() {
        let r = Recorder::enabled(1024);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        r.count("gc.safepoints", 1);
                    }
                    // A scope may resume the parent before this thread's
                    // TLS destructors run, so flush before returning.
                    r.flush();
                });
            }
        });
        assert_eq!(r.snapshot().unwrap().metrics.counter("gc.safepoints"), 400);
    }

    /// The satellite-2 acceptance test: 32 concurrent writers, one
    /// strictly ordered, duplicate-free merged timeline with nothing
    /// lost.
    #[test]
    fn merge_of_32_concurrent_writers_is_strictly_ordered_and_complete() {
        const THREADS: u16 = 32;
        const PER_THREAD: u32 = 200;
        let r = Recorder::enabled(4096);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        r.event(
                            t,
                            EventKind::Gc {
                                live: u64::from(t),
                                freed: u64::from(i),
                            },
                        );
                    }
                });
            }
        });
        let events = r.events();
        assert_eq!(events.len(), (u32::from(THREADS) * PER_THREAD) as usize);
        assert_eq!(r.dropped_events(), 0);
        // Strictly ordered: no duplicates, no inversions.
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "timeline must be strictly seq-ordered and duplicate-free"
        );
        // Per-thread order is preserved exactly (freed counts ascend).
        let mut last: HashMap<u16, u64> = HashMap::new();
        for e in &events {
            if let EventKind::Gc { freed, .. } = e.kind {
                if let Some(prev) = last.insert(e.thread, freed) {
                    assert!(freed > prev, "thread {}: {prev} then {freed}", e.thread);
                }
            }
        }
    }

    #[test]
    fn policy_sampling_suppresses_and_flags() {
        let r = Recorder::enabled(4096);
        let func = r.intern("NewStringUTF");
        r.set_policy(TracePolicy::sample_all(4));
        for _ in 0..100 {
            r.jni_enter_id(0, func);
        }
        assert_eq!(r.total_events(), 25, "1-in-4 sampling");
        let cov = r.coverage();
        assert_eq!(cov.suppressed_sampled, 75);
        assert!(cov.sampled());
        assert!(!cov.complete());
        assert_eq!(cov.policy_epoch, 1);
        // Metrics are never sampled: only the ring is.
        for _ in 0..10 {
            r.jni_exit_id(0, func, Some(5), false);
        }
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.metrics.total_jni_calls(), 10);
        assert!(snap.coverage.sampled());
        assert!(snap.render().contains("[SAMPLED]"));
    }

    #[test]
    fn policy_disable_by_label_is_selective() {
        let r = Recorder::enabled(256);
        let hot = r.intern("HotFunc");
        let cold = r.intern("ColdFunc");
        r.set_policy(TracePolicy::full().disable("HotFunc"));
        for _ in 0..10 {
            r.jni_enter_id(0, hot);
            r.jni_enter_id(0, cold);
        }
        assert_eq!(r.total_events(), 10, "only ColdFunc recorded");
        let cov = r.coverage();
        assert_eq!(cov.suppressed_disabled, 10);
        let events = r.events();
        assert!(events.iter().all(|e| matches!(
            &e.kind,
            EventKind::JniEnter { func } if &**func == "ColdFunc"
        )));
    }

    #[test]
    fn policy_swap_mid_workload_takes_effect_without_losing_events() {
        let r = Recorder::enabled(4096);
        let func = r.intern("F");
        for _ in 0..50 {
            r.jni_enter_id(0, func);
        }
        assert_eq!(r.total_events(), 50);
        r.set_policy(TracePolicy::off());
        for _ in 0..50 {
            r.jni_enter_id(0, func);
        }
        assert_eq!(r.total_events(), 50, "second batch suppressed");
        r.set_policy(TracePolicy::full());
        for _ in 0..50 {
            r.jni_enter_id(0, func);
        }
        // Everything recorded before and after the off-window is intact.
        assert_eq!(r.total_events(), 100);
        assert_eq!(r.events().len(), 100);
        let cov = r.coverage();
        assert_eq!(cov.suppressed_disabled, 50);
        assert_eq!(cov.policy_epoch, 2);
    }

    #[test]
    fn hot_labels_are_auto_downsampled() {
        let r = Recorder::enabled(1 << 14);
        let hot = r.intern("HotFunc");
        r.set_policy(TracePolicy::full().auto_downsample(100, 10));
        for _ in 0..1100 {
            r.jni_enter_id(0, hot);
        }
        // First 100 recorded 1:1; the next 1000 at 1-in-10.
        assert_eq!(r.total_events(), 200);
        let cov = r.coverage();
        assert_eq!(cov.auto_downsampled, 900);
        assert!(cov.sampled());
    }

    #[test]
    fn policy_rules_apply_to_labels_interned_later() {
        let r = Recorder::enabled(256);
        r.set_policy(TracePolicy::full().disable("LateFunc"));
        // The rule's label was interned by set_policy itself; a site
        // interning it afterwards gets the same id and rate.
        let late = r.intern("LateFunc");
        r.jni_enter_id(0, late);
        assert_eq!(r.total_events(), 0);
        // A brand-new label after the swap follows the default rate.
        let fresh = r.intern("FreshFunc");
        r.jni_enter_id(0, fresh);
        assert_eq!(r.total_events(), 1);
    }

    #[test]
    fn timers_can_be_policy_disabled() {
        let r = Recorder::enabled(16);
        assert!(r.timer().is_some(), "first call of a sample window times");
        r.set_policy(TracePolicy::full().without_latency_timers());
        let timed = (0..TIMER_SAMPLE).filter(|_| r.timer().is_some()).count();
        assert_eq!(timed, 0, "policy-disabled timers never touch the clock");
        r.set_policy(TracePolicy::full());
        let timed = (0..TIMER_SAMPLE).filter(|_| r.timer().is_some()).count();
        assert_eq!(timed, 1, "one call per sample window gets a timer");
    }
}
