//! The judge: replay a session's trace under its checker stack and
//! condense the results into history rows for the store.
//!
//! One [`Judge`] per session owns one [`Replayer`] per configuration,
//! the first with a live [`Recorder`] wired in so the re-judged
//! execution's events can be summarized for the query API. It is fed
//! closed top-level activations: all at once on the worker for a
//! buffered session ([`judge`]), or one by one over a channel as a
//! streaming session uploads (the `streaming` module). Either way the
//! same type produces the same [`JudgeOutput`]. The session's
//! FSM-transition stream is additionally re-applied through a leased
//! set of pooled lock-free [`AtomicStore`] engines
//! ([`jinn_fsm::AtomicEnginePool`]) to produce per-machine entity
//! rollups without rebuilding compiled machines per session.
//!
//! [`AtomicStore`]: jinn_fsm::AtomicStore

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use jinn_fsm::{AtomicEnginePool, Engine, TransitionOutcome};
use jinn_obs::{EventKind, Recorder, TraceEvent};
use jinn_replay::{
    activations, Activation, ReplayConfig, ReplayOutcome, Replayer, Trace, TraceError,
};

use crate::session::{
    DischargeStats, EventSummary, MachineRollup, ObsCounters, OutcomeRec, SessionId, VerdictRec,
};

/// Everything one judged session contributes to the store.
#[derive(Debug, Clone)]
pub struct JudgeOutput {
    /// The traced program's name.
    pub program: String,
    /// Per-config overall outcome.
    pub outcomes: Vec<OutcomeRec>,
    /// Every checker violation, per config, in detection order.
    pub verdicts: Vec<VerdictRec>,
    /// Event summaries from the first config's recorder (newest
    /// `max_events`).
    pub events: Vec<EventSummary>,
    /// Events the recorder ring overwrote before the judge read it: the
    /// rollups and summaries never saw them.
    pub ring_overwritten: u64,
    /// Events the ring kept that did not fit the summary cap.
    pub summaries_truncated: u64,
    /// Per-machine rollups from the pooled engines, over the events the
    /// ring kept (complete only when `ring_overwritten` is 0).
    pub rollups: Vec<MachineRollup>,
    /// Recorder coverage of the *recorded* trace (its `obs.*` meta).
    pub obs: ObsCounters,
    /// Static-discharge audit against the trace's own call-site set.
    pub discharge: DischargeStats,
    /// Total JNI calls re-issued across configs.
    pub events_replayed: u64,
    /// Total replay divergences across configs.
    pub divergences: u64,
    /// The trace's own call-site set (drives manifest learning).
    pub called_functions: BTreeSet<String>,
    /// Whether the tenant's manifest covers the trace's call-site set.
    pub manifest_covered: bool,
    /// Whether a manifested tenant's trace called outside its manifest.
    pub discharge_fallback: bool,
}

/// Reads the recorded trace's `obs.*` metadata (written by
/// `jinn_replay::append_obs_events` at record time).
pub fn obs_counters(trace: &Trace) -> ObsCounters {
    let num = |key: &str| {
        trace
            .meta_value(key)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ObsCounters {
        dropped: num("obs.dropped"),
        suppressed: num("obs.suppressed"),
        sampled: trace.meta_value("obs.sampled") == Some("true"),
        policy_epoch: num("obs.policy_epoch"),
    }
}

/// The checker records condensed transition labels; the spec machines
/// use the full names. Map the condensed forms back before re-applying
/// through a spec-built engine.
fn transition_aliases(name: &str) -> &'static [&'static str] {
    match name {
        "Use" => &["UseAfterRelease"],
        _ => &[],
    }
}

/// The static-discharge audit row for one trace, shared by the
/// buffered and streaming judges. Takes the trace's call-site set
/// precomputed so callers that already hold one (the buffered judge
/// computes it for the manifest check; the streaming judge accumulates
/// it incrementally during ingest) never walk the events again at seal.
pub(crate) fn discharge_stats(program: &str, called: &BTreeSet<String>) -> DischargeStats {
    let manifest = jinn_core::WorkloadManifest::new(program, called.iter().map(String::as_str));
    let report = jinn_core::discharge(&jinn_spec::machines(), &manifest);
    DischargeStats {
        called_functions: report.manifest_functions as u64,
        total_transitions: report.total_transitions() as u64,
        discharged: report.total_discharged() as u64,
        inactive_machines: report
            .inactive_machines()
            .iter()
            .map(|m| m.to_string())
            .collect(),
    }
}

pub(crate) fn summarize(session: SessionId, ev: &TraceEvent) -> EventSummary {
    let (label, function, machine, entity, failed) = match &ev.kind {
        EventKind::JniEnter { func } => ("jni-enter", Some(func.to_string()), None, None, false),
        EventKind::JniExit { func, failed, .. } => {
            ("jni-exit", Some(func.to_string()), None, None, *failed)
        }
        EventKind::NativeEnter { method } => {
            ("native-enter", Some(method.to_string()), None, None, false)
        }
        EventKind::NativeExit { method, failed, .. } => {
            ("native-exit", Some(method.to_string()), None, None, *failed)
        }
        EventKind::FsmTransition {
            machine,
            outcome,
            entity,
            ..
        } => (
            "fsm-transition",
            None,
            Some(machine.to_string()),
            entity.as_ref().map(|e| e.0.to_string()),
            matches!(outcome, jinn_obs::FsmOutcome::Error),
        ),
        EventKind::GcSafepoint { .. } => ("gc-safepoint", None, None, None, false),
        EventKind::Gc { .. } => ("gc", None, None, None, false),
        EventKind::PinAcquire { .. } => ("pin-acquire", None, None, None, false),
        EventKind::PinRelease { ok, .. } => ("pin-release", None, None, None, !*ok),
        EventKind::Verdict {
            machine, function, ..
        } => (
            "verdict",
            Some(function.to_string()),
            Some(machine.to_string()),
            None,
            true,
        ),
    };
    EventSummary {
        session,
        index: ev.seq,
        thread: ev.thread,
        label: label.to_string(),
        function,
        machine,
        entity,
        failed,
    }
}

/// Re-applies the session's transition stream through pooled compiled
/// engines, producing one rollup per machine that saw traffic.
///
/// Re-exported at the crate root so a benchmark can time the daemon's
/// exact rollup path.
///
/// Entity keys are dense *per machine*: each engine sees keys `0..n`
/// for its own entities, so a store's slab growth tracks the machine's
/// entity count, not the session-global one. Transitions the spec
/// machine does not recognise (even after aliasing) are tallied as
/// `unknown_transitions` instead of inflating the applied count.
pub fn rollup_events(
    pool: &Arc<AtomicEnginePool<u64>>,
    events: &[TraceEvent],
) -> Vec<MachineRollup> {
    let mut lease = pool.lease();
    // Hoisted once per judge call: machine name -> engine index. The
    // per-event linear scan this replaces cost O(machines) per
    // transition.
    let index_of: HashMap<String, usize> = lease
        .iter()
        .enumerate()
        .map(|(i, e)| (e.spec().name().to_string(), i))
        .collect();
    let mut keys: HashMap<(usize, String), u64> = HashMap::new();
    let mut next_key: Vec<u64> = vec![0; lease.len()];
    // machine -> (applied, errors, unknown)
    let mut counts: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for ev in events {
        let EventKind::FsmTransition {
            machine,
            transition,
            entity: Some(entity),
            ..
        } = &ev.kind
        else {
            continue;
        };
        let Some(&idx) = index_of.get(&**machine) else {
            continue;
        };
        let key = *keys.entry((idx, entity.0.to_string())).or_insert_with(|| {
            let k = next_key[idx];
            next_key[idx] += 1;
            k
        });
        let engine = &mut lease[idx];
        let mut outcome = engine.try_apply_named(&key, transition);
        if outcome.is_err() {
            for alias in transition_aliases(transition) {
                outcome = engine.try_apply_named(&key, alias);
                if outcome.is_ok() {
                    break;
                }
            }
        }
        let entry = counts.entry(machine.to_string()).or_default();
        match outcome {
            Ok(o) => {
                entry.0 += 1;
                if matches!(o, TransitionOutcome::Error(_)) {
                    entry.1 += 1;
                }
            }
            Err(_) => entry.2 += 1,
        }
    }
    let mut out: Vec<MachineRollup> = counts
        .into_iter()
        .map(|(machine, (transitions, errors, unknown_transitions))| {
            let entities = index_of
                .get(machine.as_str())
                .map_or(0, |&i| lease[i].len() as u64);
            MachineRollup {
                machine,
                transitions,
                entities,
                errors,
                unknown_transitions,
            }
        })
        .collect();
    out.sort_by(|a, b| a.machine.cmp(&b.machine));
    out
}

/// The session-level context a judged session's rows are filed under.
pub(crate) struct Filing<'a> {
    pub(crate) session: SessionId,
    pub(crate) tenant: &'a str,
    pub(crate) pool: &'a Arc<AtomicEnginePool<u64>>,
    /// The tenant's manifest: the session is flagged covered when it
    /// holds the trace's call-site set, a discharge fallback otherwise.
    pub(crate) manifest: Option<&'a BTreeSet<String>>,
    pub(crate) max_events: usize,
}

/// One session's judge: a [`Replayer`] per configuration, the first
/// recording into the session's [`Recorder`].
pub(crate) struct Judge {
    replayers: Vec<Replayer>,
    labels: Vec<String>,
    recorder: Recorder,
}

impl Judge {
    /// Rebuilds `setup`'s world once per configuration, runs every
    /// top-level activation `feed` yields on each, and finishes them.
    /// A fold error in the feed ends the session where it occurred, so
    /// errors surface in record order on both ingest paths.
    ///
    /// # Errors
    ///
    /// A quarantine reason naming the configuration that failed.
    pub(crate) fn replay(
        setup: &Trace,
        configs: &[ReplayConfig],
        recorder_ring: usize,
        feed: impl IntoIterator<Item = Result<Activation, TraceError>>,
    ) -> Result<Judged, String> {
        let recorder = Recorder::enabled(recorder_ring);
        let labels: Vec<String> = configs.iter().map(ReplayConfig::label).collect();
        let replayers = configs
            .iter()
            .enumerate()
            .map(|(i, config)| {
                Replayer::new(setup, config, (i == 0).then_some(&recorder))
                    .map_err(|e| failed(&labels[i], &e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut judge = Judge {
            replayers,
            labels,
            recorder,
        };
        for top in feed {
            judge.run(top)?;
        }
        judge.finish()
    }

    /// Runs one top-level activation under every configuration (clones
    /// for all but the last).
    fn run(&mut self, top: Result<Activation, TraceError>) -> Result<(), String> {
        let labels = &self.labels;
        let Some((last, rest)) = self.replayers.split_last_mut() else {
            return Ok(());
        };
        let top = top.map_err(|e| failed(&labels[0], &e))?;
        for (replayer, label) in rest.iter_mut().zip(labels) {
            replayer.run(top.clone()).map_err(|e| failed(label, &e))?;
        }
        last.run(top).map_err(|e| failed(&labels[rest.len()], &e))
    }

    fn finish(self) -> Result<Judged, String> {
        let outcomes = self
            .replayers
            .into_iter()
            .zip(&self.labels)
            .map(|(r, label)| r.finish().map_err(|e| failed(label, &e)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Judged {
            outcomes,
            recorder: self.recorder,
        })
    }
}

fn failed(label: &str, e: &TraceError) -> String {
    format!("replay under {label} failed: {e}")
}

/// Runs a judge body, turning a panic in the substrate (input no
/// structural check anticipated) into a quarantine reason, so one
/// adversarial session never takes its thread down with it.
pub(crate) fn guarded(
    configs: &[ReplayConfig],
    body: impl FnOnce() -> Result<Judged, String>,
) -> Result<Judged, String> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|_| Err(panicked(configs)))
}

/// The quarantine reason for a judge that panicked.
pub(crate) fn panicked(configs: &[ReplayConfig]) -> String {
    let label = configs
        .first()
        .map_or_else(String::new, ReplayConfig::label);
    format!("replay under {label} failed: panicked")
}

/// What a session's replays produced: per-config outcomes in config
/// order, and the first configuration's recorder.
pub(crate) struct Judged {
    outcomes: Vec<ReplayOutcome>,
    recorder: Recorder,
}

impl Judged {
    /// Condenses the replays into the session's history rows: outcome
    /// and verdict rows per config, event summaries and rollups from
    /// the recorder, and the audit rows from `trace`'s setup section
    /// and call-site set.
    pub(crate) fn output(
        self,
        trace: &Trace,
        called_functions: BTreeSet<String>,
        filing: &Filing<'_>,
    ) -> JudgeOutput {
        let session = filing.session;
        let covered = filing.manifest.map(|m| called_functions.is_subset(m));
        let all = self.recorder.events();
        let rollups = rollup_events(filing.pool, &all);
        let skip = all.len().saturating_sub(filing.max_events);
        let events = all
            .iter()
            .skip(skip)
            .map(|e| summarize(session, e))
            .collect();
        let mut verdicts = Vec::new();
        let mut outcomes = Vec::with_capacity(self.outcomes.len());
        for out in &self.outcomes {
            verdicts.extend(out.violations.iter().map(|v| VerdictRec {
                session,
                tenant: filing.tenant.to_string(),
                config: out.label.clone(),
                machine: v.machine.to_string(),
                error_state: v.error_state.to_string(),
                function: v.function.clone(),
                message: v.message.clone(),
            }));
            outcomes.push(OutcomeRec {
                session,
                config: out.label.clone(),
                behavior: out.behavior.to_string(),
                message: out.message.clone(),
                events_replayed: out.events_replayed,
                divergences: out.divergences,
            });
        }
        JudgeOutput {
            program: trace.program().to_string(),
            events_replayed: self.outcomes.iter().map(|o| o.events_replayed).sum(),
            divergences: self.outcomes.iter().map(|o| o.divergences).sum(),
            outcomes,
            verdicts,
            events,
            ring_overwritten: self.recorder.dropped_events(),
            summaries_truncated: skip as u64,
            rollups,
            obs: obs_counters(trace),
            discharge: discharge_stats(trace.program(), &called_functions),
            called_functions,
            manifest_covered: covered == Some(true),
            discharge_fallback: covered == Some(false),
        }
    }
}

/// Parses and re-judges one sealed session: the [`Judge`] fed every
/// activation at once.
///
/// When the tenant has a manifest, `manifest` carries its function set:
/// a trace whose own call-site set it covers is flagged
/// `JudgeOutput::manifest_covered`, one that calls outside it
/// `JudgeOutput::discharge_fallback`. Verdicts and rollups are the same
/// either way — the manifest is an audit.
///
/// # Errors
///
/// A quarantine reason: the trace failed to parse or a replay was
/// structurally impossible. The caller poisons the session.
#[allow(clippy::too_many_arguments)]
pub fn judge(
    bytes: &[u8],
    session: SessionId,
    tenant: &str,
    configs: &[ReplayConfig],
    pool: &Arc<AtomicEnginePool<u64>>,
    manifest: Option<&BTreeSet<String>>,
    recorder_ring: usize,
    max_events: usize,
) -> Result<JudgeOutput, String> {
    let trace = Trace::parse(bytes).map_err(|e| format!("unreadable trace: {e}"))?;
    let judged = guarded(configs, || {
        Judge::replay(&trace, configs, recorder_ring, activations(&trace.events))
    })?;
    let filing = Filing {
        session,
        tenant,
        pool,
        manifest,
        max_events,
    };
    Ok(judged.output(&trace, trace.called_functions(), &filing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinn_fsm::EnginePool;
    use jinn_replay::{program_by_name, record_program};

    fn corpus_trace(name: &str) -> Vec<u8> {
        record_program(&program_by_name(name).expect("known program"))
    }

    #[test]
    fn judging_figure1_yields_a_jinn_verdict() {
        let bytes = corpus_trace("LocalRefDangling");
        let pool = EnginePool::new(jinn_spec::machines());
        let configs = vec![ReplayConfig::parse("jinn").unwrap()];
        let out = judge(&bytes, 9, "acme", &configs, &pool, None, 4096, 256).expect("judge");
        assert_eq!(out.program, "LocalRefDangling");
        assert!(!out.manifest_covered && !out.discharge_fallback);
        assert!(
            !out.called_functions.is_empty(),
            "trace call-site set captured"
        );
        assert!(
            out.verdicts
                .iter()
                .any(|v| v.machine == "local-reference" && v.session == 9),
            "expected a local-reference verdict: {:?}",
            out.verdicts
        );
        assert_eq!(out.outcomes.len(), 1);
        assert_eq!(out.outcomes[0].behavior, "exception");
        assert!(!out.events.is_empty(), "recorder summaries present");
        assert!(
            out.rollups.iter().any(|r| r.machine == "local-reference"),
            "rollups: {:?}",
            out.rollups
        );
    }

    #[test]
    fn summary_cap_keeps_newest_events() {
        let bytes = corpus_trace("LocalRefDangling");
        let pool = EnginePool::new(jinn_spec::machines());
        let configs = vec![ReplayConfig::parse("jinn").unwrap()];
        let full = judge(&bytes, 1, "t", &configs, &pool, None, 4096, 10_000).expect("judge");
        let capped = judge(&bytes, 1, "t", &configs, &pool, None, 4096, 4).expect("judge");
        assert_eq!(capped.events.len(), 4);
        assert_eq!(full.summaries_truncated, 0);
        assert_eq!(capped.summaries_truncated, full.events.len() as u64 - 4);
        assert_eq!(capped.ring_overwritten, full.ring_overwritten);
        // The kept summaries are the newest ones.
        let tail: Vec<u64> = full.events[full.events.len() - 4..]
            .iter()
            .map(|e| e.index)
            .collect();
        let got: Vec<u64> = capped.events.iter().map(|e| e.index).collect();
        assert_eq!(got, tail);
    }

    #[test]
    fn unreadable_bytes_are_a_quarantine_reason() {
        let pool = EnginePool::new(jinn_spec::machines());
        let configs = vec![ReplayConfig::parse("jinn").unwrap()];
        let err = judge(b"not a trace", 1, "t", &configs, &pool, None, 64, 16).unwrap_err();
        assert!(err.contains("unreadable trace"), "{err}");
    }

    fn fsm_event(seq: u64, machine: &str, transition: &str, entity: &str) -> TraceEvent {
        TraceEvent {
            seq,
            micros: seq,
            thread: 0,
            kind: EventKind::FsmTransition {
                machine: Arc::from(machine),
                transition: Arc::from(transition),
                outcome: jinn_obs::FsmOutcome::Moved,
                entity: Some(jinn_obs::EntityTag::new(entity)),
            },
        }
    }

    #[test]
    fn rollup_entities_are_dense_per_machine() {
        // Three global refs and one local ref, interleaved so a shared
        // counter would hand the local-reference engine key 2 instead
        // of 0. Per-machine Engine::len must equal each machine's OWN
        // distinct-entity count.
        let events = vec![
            fsm_event(0, "global-reference", "Acquire", "g0"),
            fsm_event(1, "global-reference", "Acquire", "g1"),
            fsm_event(2, "local-reference", "Acquire", "l0"),
            fsm_event(3, "global-reference", "Acquire", "g2"),
            fsm_event(4, "local-reference", "Release", "l0"),
        ];
        let pool = EnginePool::new(jinn_spec::machines());
        let rollups = rollup_events(&pool, &events);
        let by_name = |n: &str| {
            rollups
                .iter()
                .find(|r| r.machine == n)
                .unwrap_or_else(|| panic!("rollup for {n}: {rollups:?}"))
        };
        assert_eq!(by_name("global-reference").entities, 3);
        assert_eq!(by_name("local-reference").entities, 1);
        assert_eq!(by_name("local-reference").transitions, 2);
        assert_eq!(
            rollups.iter().map(|r| r.unknown_transitions).sum::<u64>(),
            0
        );
    }

    #[test]
    fn unrecognised_transitions_count_as_unknown_not_applied() {
        let events = vec![
            fsm_event(0, "global-reference", "Acquire", "g0"),
            fsm_event(1, "global-reference", "NoSuchTransition", "g0"),
            // The "Use" alias still resolves to UseAfterRelease.
            fsm_event(2, "local-reference", "Acquire", "l0"),
            fsm_event(3, "local-reference", "Release", "l0"),
            fsm_event(4, "local-reference", "Use", "l0"),
        ];
        let pool = EnginePool::new(jinn_spec::machines());
        let rollups = rollup_events(&pool, &events);
        let global = rollups.iter().find(|r| r.machine == "global-reference");
        let global = global.expect("global rollup");
        assert_eq!(global.transitions, 1, "only the applied transition counts");
        assert_eq!(global.unknown_transitions, 1);
        let local = rollups.iter().find(|r| r.machine == "local-reference");
        let local = local.expect("local rollup");
        assert_eq!(local.transitions, 3, "aliased Use applies");
        assert_eq!(local.unknown_transitions, 0);
        assert_eq!(local.errors, 1, "UseAfterRelease lands in an error state");
    }

    #[test]
    fn covering_manifest_is_flagged_and_lying_manifest_falls_back() {
        let bytes = corpus_trace("LocalRefDangling");
        let pool = EnginePool::new(jinn_spec::machines());
        let configs = vec![ReplayConfig::parse("jinn").unwrap()];
        let baseline = judge(&bytes, 1, "t", &configs, &pool, None, 4096, 256).expect("judge");

        let honest = baseline.called_functions.clone();
        let covered = judge(&bytes, 2, "t", &configs, &pool, Some(&honest), 4096, 256);
        let covered = covered.expect("judge");
        assert!(covered.manifest_covered && !covered.discharge_fallback);

        let lying: BTreeSet<String> = ["GetVersion".to_string()].into();
        let fallback = judge(&bytes, 3, "t", &configs, &pool, Some(&lying), 4096, 256);
        let fallback = fallback.expect("judge");
        assert!(!fallback.manifest_covered && fallback.discharge_fallback);

        // The manifest never affects verdicts or rollups.
        let key = |o: &JudgeOutput| {
            let mut v: Vec<(String, String, String)> = o
                .verdicts
                .iter()
                .map(|v| (v.config.clone(), v.machine.clone(), v.error_state.clone()))
                .collect();
            v.sort();
            (v, o.rollups.clone())
        };
        assert_eq!(key(&baseline), key(&covered));
        assert_eq!(key(&baseline), key(&fallback));
    }
}
