//! The streaming judge: overlap ingest with checking.
//!
//! A buffered session pays for its trace twice — once to receive it,
//! once (after `Seal`) to parse and replay it — so its seal-to-verdict
//! latency is O(trace) and its buffered footprint is the whole trace.
//! A streaming session instead runs a [`StreamingSession`] from `Open`:
//! a resumable record-granularity scanner ([`StreamDecoder`]) consumes
//! each `Append` chunk as it arrives and releases the bytes it decodes;
//! setup records go to a [`TraceBuilder`], event records to an
//! [`ActivationFold`]. Each top-level activation the fold closes is sent
//! over a plain channel to the session's executor thread, which runs it
//! on the same [`Judge`] type a buffered session uses. By `Seal` every
//! activation but the last has (usually) been replayed, so the
//! seal-to-verdict work is: verify the declared length/checksum against
//! the scanner's running totals, replay what is left, and roll up.
//!
//! ## Soundness
//!
//! Streaming and buffered judging are the same computation in the same
//! order: the fold is the one `replay_trace` runs, the executor is the
//! buffered judge fed one activation at a time, and a fold error travels
//! in-band so errors surface in record order on both paths. What the
//! executor computes is unobservable until a worker publishes it, which
//! happens strictly after `Seal` verified the declaration:
//!
//! - **Seal mismatch** — the session is poisoned with byte-identical
//!   reasons to the buffered path and nothing is published.
//! - **Unreadable trace** — a decode error (exact error parity with
//!   batch decoding) or a setup record after the first event (so the
//!   setup the executor starts from is the setup the buffered judge
//!   sees; [`TraceBuilder`] states the rule): the
//!   worker fails the session with the same `unreadable trace: …`
//!   reason the buffered judge would produce.
//!
//! The executor thread is per session, not a pool task: judging every
//! session on the ingest workers measured faster on churn uploads, but
//! grew peak RSS through glibc's per-worker malloc arenas (DESIGN.md
//! §16).

use std::collections::BTreeSet;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use jinn_fsm::AtomicEnginePool;
use jinn_replay::{
    called_function, verify_seal_declaration, Activation, ActivationFold, ReplayConfig,
    StreamDecoder, TraceBuilder, TraceError, TraceRecord,
};

use crate::judge::{guarded, panicked, Filing, Judge, JudgeOutput, Judged};
use crate::manifest::SpecializedPool;
use crate::session::SessionId;

/// A top-level activation for the executor, or the fold error that
/// ended the stream.
type Feed = Result<Activation, TraceError>;

/// One live-judged session: the scanner fed by the ingest connection
/// and the executor thread replaying what it folds.
pub(crate) struct StreamingSession {
    session: SessionId,
    configs: Vec<ReplayConfig>,
    recorder_ring: usize,
    inner: Mutex<StreamInner>,
}

#[derive(Default)]
struct StreamInner {
    decoder: StreamDecoder,
    setup: TraceBuilder,
    fold: ActivationFold,
    /// The call-site set, accumulated record by record so seal-time pool
    /// selection never walks the events.
    called: BTreeSet<String>,
    /// The executor's inbox; dropped to end the feed.
    feed: Option<Sender<Feed>>,
    executor: Option<JoinHandle<Result<Judged, String>>>,
    /// The first decode or setup-order error.
    unreadable: Option<TraceError>,
}

impl StreamingSession {
    /// Starts the scanner. The executor thread is spawned lazily at the
    /// first *event* record — only then is the setup section complete.
    pub(crate) fn start(
        session: SessionId,
        configs: Vec<ReplayConfig>,
        recorder_ring: usize,
    ) -> StreamingSession {
        StreamingSession {
            session,
            configs,
            recorder_ring,
            inner: Mutex::new(StreamInner {
                decoder: StreamDecoder::new(),
                ..StreamInner::default()
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StreamInner> {
        self.inner.lock().expect("streaming session poisoned")
    }

    /// Feeds one `Append` chunk: decodes whatever records it completes,
    /// routes them, and returns the undecoded tail — the only bytes
    /// still resident.
    pub(crate) fn ingest(&self, chunk: &[u8]) -> u64 {
        let mut g = self.lock();
        g.decoder.feed(chunk);
        self.drain(&mut g);
        g.decoder.pending()
    }

    fn drain(&self, g: &mut StreamInner) {
        while g.unreadable.is_none() {
            let record = match g.decoder.next_record() {
                Ok(Some(record)) => g.setup.push(record),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            match record {
                Ok(Some(event)) => self.route(g, event),
                Ok(None) => {}
                Err(e) => {
                    g.unreadable = Some(e);
                    // Nothing past an unreadable record is judged.
                    g.feed = None;
                }
            }
        }
    }

    fn route(&self, g: &mut StreamInner, event: TraceRecord) {
        if g.executor.is_none() {
            self.spawn_executor(g);
        }
        let Some(feed) = &g.feed else {
            return; // the fold already failed
        };
        if let Some(name) = called_function(&event) {
            if !g.called.contains(name) {
                g.called.insert(name.to_string());
            }
        }
        // A closed inbox means the executor already failed; its error
        // is collected at seal.
        match g.fold.push(event) {
            Ok(Some(top)) => drop(feed.send(Ok(top))),
            Ok(None) => {}
            Err(e) => {
                drop(feed.send(Err(e)));
                g.feed = None;
            }
        }
    }

    fn spawn_executor(&self, g: &mut StreamInner) {
        let (feed, inbox) = mpsc::channel();
        let setup = g.setup.setup().clone();
        let configs = self.configs.clone();
        let ring = self.recorder_ring;
        let handle = std::thread::Builder::new()
            .name(format!("jinn-serve-stream-{}", self.session))
            .spawn(move || Judge::replay(&setup, &configs, ring, inbox))
            .expect("spawn streaming executor");
        g.feed = Some(feed);
        g.executor = Some(handle);
    }

    /// Verifies the client's `Seal` declaration against the scanner's
    /// running byte/checksum totals — same check, precedence, and
    /// wording as the buffered path's reassembled-buffer verification.
    ///
    /// # Errors
    ///
    /// The quarantine reason on mismatch.
    pub(crate) fn verify_declaration(&self, total_len: u64, checksum: u64) -> Result<(), String> {
        let g = self.lock();
        verify_seal_declaration(
            total_len,
            checksum,
            g.decoder.stream_len(),
            g.decoder.stream_fnv(),
        )
        .map_err(|m| m.to_string())
    }

    /// Closes the stream after a successful seal: drains any residual
    /// tail, runs the scanner's end-of-stream verification (missing
    /// `End`, trailing bytes — batch error parity), sends the activations
    /// the trace left open, and ends the executor's feed.
    pub(crate) fn finalize(&self) {
        let mut g = self.lock();
        self.drain(&mut g);
        if g.unreadable.is_none() {
            if let Err(e) = g.decoder.finish() {
                g.unreadable = Some(e);
            }
        }
        let feed = g.feed.take();
        if let (None, Some(feed)) = (&g.unreadable, feed) {
            for top in std::mem::take(&mut g.fold).finish() {
                drop(feed.send(Ok(top)));
            }
        }
    }

    /// Worker entry after `Seal`: joins the executor and files its
    /// result.
    ///
    /// # Errors
    ///
    /// A quarantine reason, byte-compatible with the buffered judge's.
    pub(crate) fn collect(
        &self,
        tenant: &str,
        pool: &Arc<AtomicEnginePool<u64>>,
        specialized: Option<&SpecializedPool>,
        max_events: usize,
    ) -> Result<JudgeOutput, String> {
        let mut g = self.lock();
        g.feed = None;
        let joined = g
            .executor
            .take()
            .map(|h| h.join().unwrap_or_else(|_| Err(panicked(&self.configs))));
        if let Some(e) = &g.unreadable {
            return Err(format!("unreadable trace: {e}"));
        }
        let judged = match joined {
            Some(judged) => judged,
            // No event ever arrived: judge the setup alone, as buffered.
            None => guarded(&self.configs, || {
                Judge::replay(g.setup.setup(), &self.configs, self.recorder_ring, [])
            }),
        }?;
        let filing = Filing {
            session: self.session,
            tenant,
            pool,
            specialized,
            max_events,
        };
        let called = std::mem::take(&mut g.called);
        Ok(judged.output(g.setup.setup(), called, &filing))
    }

    /// Tears the session down without publishing anything: quarantine,
    /// abort, and shutdown all land here. Safe to call at any point —
    /// the feed is ended so a running executor drains and exits.
    pub(crate) fn discard(&self) {
        let mut g = self.lock();
        g.feed = None;
        if let Some(h) = g.executor.take() {
            let _ = h.join();
        }
    }
}
