//! [`Trace`]: a fully-decoded `.jtrace` file, split into its setup
//! section (metadata, classes, threads, seeds) and its event stream.

use std::collections::BTreeMap;

use crate::format::{ClassRec, Decoder, SeedRec, TraceError, TraceRecord, FORMAT_VERSION};

/// A decoded trace, validated end to end (checksum and record count).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `key = value` annotations, in record order.
    pub meta: Vec<(String, String)>,
    /// Class definitions past the core baseline, in definition order.
    pub classes: Vec<ClassRec>,
    /// Threads spawned during setup, in spawn order.
    pub threads: Vec<u16>,
    /// Entry-argument allocations, in allocation order.
    pub seeds: Vec<SeedRec>,
    /// The boundary-event stream (everything after setup).
    pub events: Vec<TraceRecord>,
    /// Format version the trace was written with.
    pub version: u16,
}

impl Trace {
    /// Parses and validates a complete trace.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] on malformed, truncated, or corrupted input.
    pub fn parse(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut dec = Decoder::new(bytes)?;
        let mut builder = TraceBuilder::default();
        let mut events = Vec::new();
        while let Some(record) = dec.next_record()? {
            events.extend(builder.push(record)?);
        }
        let mut trace = builder.setup;
        trace.version = dec.version();
        trace.events = events;
        Ok(trace)
    }

    /// Looks up a metadata value by key (first match).
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The recorded program name (`program` metadata), or `"?"`.
    pub fn program(&self) -> &str {
        self.meta_value("program").unwrap_or("?")
    }

    /// Counts of each event kind, for `replay stats`.
    pub fn event_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in &self.events {
            let key = match e {
                TraceRecord::JniEnter { .. } => "jni-enter",
                TraceRecord::JniExit { .. } => "jni-exit",
                TraceRecord::NativeEnter { .. } => "native-enter",
                TraceRecord::NativeExit { .. } => "native-exit",
                TraceRecord::ManagedEnter { .. } => "managed-enter",
                TraceRecord::ManagedExit { .. } => "managed-exit",
                TraceRecord::GcPoint { .. } => "gc-point",
                TraceRecord::VendorUb { .. } => "vendor-ub",
                TraceRecord::ObsEvent { .. } => "obs-event",
                TraceRecord::PyCall { .. } => "py-call",
                TraceRecord::Meta { .. }
                | TraceRecord::DefClass(_)
                | TraceRecord::SpawnThread { .. }
                | TraceRecord::Seed(_) => "setup",
            };
            *counts.entry(key).or_default() += 1;
        }
        counts
    }

    /// The set of JNI functions the recorded program actually called —
    /// the trace-derived call-site manifest.
    pub fn called_functions(&self) -> std::collections::BTreeSet<String> {
        // Dedup on the static names first: one `String` per distinct
        // function, not one per JNI record.
        let names: std::collections::BTreeSet<&'static str> =
            self.events.iter().filter_map(called_function).collect();
        names.into_iter().map(str::to_string).collect()
    }

    /// A human-readable multi-line summary, for the `stats` subcommand.
    pub fn summary(&self, byte_len: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "program: {} (format v{}, {} bytes)\n",
            self.program(),
            self.version,
            byte_len
        ));
        for (k, v) in &self.meta {
            if k != "program" {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        out.push_str(&format!(
            "setup: {} classes, {} spawned threads, {} seeds\n",
            self.classes.len(),
            self.threads.len(),
            self.seeds.len()
        ));
        out.push_str(&format!("events: {}\n", self.events.len()));
        for (kind, n) in self.event_counts() {
            out.push_str(&format!("  {kind:>14}: {n}\n"));
        }
        out
    }
}

/// The JNI function a `JniEnter` record names, when the id is a real
/// one (a forged id names nothing rather than panicking the lookup).
pub fn called_function(record: &TraceRecord) -> Option<&'static str> {
    match record {
        TraceRecord::JniEnter { func, .. } if usize::from(*func) < minijni::registry().len() => {
            Some(minijni::FuncId(*func).name())
        }
        _ => None,
    }
}

/// The `Meta` keys replay reads when it rebuilds the world: they are
/// setup, so they must precede the first event record.
const REPLAY_META_KEYS: [&str; 3] = ["program", "gc_period", "leaks"];

/// Files decoded records into a trace's setup section, handing event
/// records back — the one statement of the setup-order rule, shared by
/// [`Trace::parse`] and streaming ingest:
///
/// * `Meta` is accepted anywhere (recorders append `obs.*` metadata
///   after the events), except the keys replay reads to rebuild the
///   world: `program`, `gc_period`, and `leaks`;
/// * those keys, `DefClass`, `SpawnThread`, and `Seed` are accepted only
///   before the first event record.
///
/// A streaming judge builds its replayer from the setup section as it
/// stands at the first event record, so anything replay reads must be
/// final by then for streamed and buffered verdicts to agree.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    setup: Trace,
    saw_event: bool,
}

impl TraceBuilder {
    /// Files a setup record, or hands an event record back.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for a `DefClass`, `SpawnThread`, `Seed`,
    /// or replay-read `Meta` key after the first event record.
    pub fn push(&mut self, record: TraceRecord) -> Result<Option<TraceRecord>, TraceError> {
        let late = self.saw_event;
        match record {
            TraceRecord::Meta { ref key, .. }
                if late && REPLAY_META_KEYS.contains(&key.as_str()) =>
            {
                return Err(TraceError::Corrupt("setup record in event stream".into()))
            }
            TraceRecord::DefClass(_) | TraceRecord::SpawnThread { .. } | TraceRecord::Seed(_)
                if late =>
            {
                return Err(TraceError::Corrupt("setup record in event stream".into()))
            }
            TraceRecord::Meta { key, value } => self.setup.meta.push((key, value)),
            TraceRecord::DefClass(c) => self.setup.classes.push(c),
            TraceRecord::SpawnThread { thread } => self.setup.threads.push(thread),
            TraceRecord::Seed(s) => self.setup.seeds.push(s),
            event => {
                self.saw_event = true;
                return Ok(Some(event));
            }
        }
        Ok(None)
    }

    /// The setup section so far (no events).
    pub fn setup(&self) -> &Trace {
        &self.setup
    }
}

/// Runs the static discharge pass over the eleven machines with the
/// trace's own call-site manifest ([`Trace::called_functions`]) — the
/// post-hoc audit of which machine transitions could have been compiled
/// out for this exact recording. The serving daemon surfaces this per
/// session; `replay stats --json` prints it per file.
pub fn trace_discharge(trace: &Trace) -> jinn_core::DischargeReport {
    let manifest = jinn_core::WorkloadManifest::new(trace.program(), trace.called_functions());
    jinn_core::discharge(&jinn_spec::machines(), &manifest)
}

/// Asserts that the reader and a trace agree on the format version —
/// the CI drift check calls this against every corpus file.
///
/// # Errors
///
/// [`TraceError::UnsupportedVersion`] when the stored version differs
/// from [`FORMAT_VERSION`]; header errors as for parsing.
pub fn check_version(bytes: &[u8]) -> Result<u16, TraceError> {
    let dec = Decoder::new(bytes)?;
    let v = dec.version();
    if v != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion(v));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use minijni::BoundaryTap;
    use minijvm::{JValue, MethodId, ThreadId};

    #[test]
    fn parse_splits_setup_from_events() {
        let mut w = TraceWriter::new();
        w.meta("program", "split");
        w.meta("leaks", "false");
        w.spawn_thread(ThreadId(1));
        BoundaryTap::native_enter(&mut w, ThreadId(0), MethodId::forged(0), &[]);
        BoundaryTap::native_exit(&mut w, ThreadId(0), MethodId::forged(0), &Ok(JValue::Void));
        let bytes = w.finish();
        let t = Trace::parse(&bytes).unwrap();
        assert_eq!(t.program(), "split");
        assert_eq!(t.meta_value("leaks"), Some("false"));
        assert_eq!(t.threads, vec![1]);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.event_counts()["native-enter"], 1);
        assert!(t.summary(bytes.len()).contains("program: split"));
        assert_eq!(check_version(&bytes).unwrap(), FORMAT_VERSION);
    }

    #[test]
    fn meta_is_accepted_anywhere_but_other_setup_only_before_events() {
        let mut w = TraceWriter::new();
        w.meta("program", "late");
        BoundaryTap::native_enter(&mut w, ThreadId(0), MethodId::forged(0), &[]);
        BoundaryTap::native_exit(&mut w, ThreadId(0), MethodId::forged(0), &Ok(JValue::Void));
        w.meta("obs.dropped", "3");
        let t = Trace::parse(&w.finish()).expect("late meta is legal");
        assert_eq!(t.meta_value("obs.dropped"), Some("3"));
        assert_eq!(t.events.len(), 2);

        let late_setup: [fn(&mut TraceWriter); 4] = [
            |w| w.spawn_thread(ThreadId(1)),
            |w| w.meta("program", "renamed"),
            |w| w.meta("gc_period", "2"),
            |w| w.meta("leaks", "true"),
        ];
        for (i, late) in late_setup.iter().enumerate() {
            let mut w = TraceWriter::new();
            BoundaryTap::native_enter(&mut w, ThreadId(0), MethodId::forged(0), &[]);
            late(&mut w);
            match Trace::parse(&w.finish()) {
                Err(TraceError::Corrupt(msg)) => assert!(msg.contains("setup record"), "{msg}"),
                other => panic!("late setup record {i} must be corrupt: {other:?}"),
            }
        }
    }
}
