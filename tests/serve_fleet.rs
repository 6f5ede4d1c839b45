//! Fleet-scale daemon integration test: ≥64 concurrent sessions stream
//! golden-corpus traces through the frame codec into `jinn-serve`, and
//! every session's verdict multiset must match a single-process
//! `replay check` of the same trace — with corrupt-frame sessions
//! quarantined and the rest of the fleet unharmed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

mod fixtures;

use jinn::replay::format::fnv1a;
use jinn::replay::{
    case_studies, decode_stream, encode_frame, encode_ingest, microbench_programs, record_program,
    replay_trace, standard_configs, Frame, Program, ReplayConfig, Trace,
};
use jinn::serve::{Daemon, Query, QueryItem, QueryKind, ServeConfig, SessionState};

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/corpus/{name}.jtrace", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn corpus_names() -> Vec<String> {
    microbench_programs()
        .iter()
        .chain(case_studies().iter())
        .map(|p| p.name.clone())
        .collect()
}

/// The verdict multiset of one local replay: (machine, error_state,
/// function) → count.
fn local_multiset(bytes: &[u8], config: &ReplayConfig) -> BTreeMap<(String, String, String), u64> {
    let trace = Trace::parse(bytes).expect("corpus trace parses");
    let outcome = replay_trace(&trace, config).expect("local replay succeeds");
    let mut set = BTreeMap::new();
    for v in &outcome.violations {
        *set.entry((
            v.machine.to_string(),
            v.error_state.to_string(),
            v.function.clone(),
        ))
        .or_insert(0u64) += 1;
    }
    set
}

/// The daemon's verdict multiset for one session, via the query API
/// (paginated to exercise the cursor).
fn served_multiset(
    handle: &jinn::serve::DaemonHandle,
    session: u64,
) -> BTreeMap<(String, String, String), u64> {
    let mut set = BTreeMap::new();
    let mut cursor = None;
    loop {
        let page = handle.query(&Query {
            kind: QueryKind::Verdicts,
            session: Some(session),
            cursor,
            limit: 3, // tiny page size: force pagination
            ..Query::default()
        });
        for item in &page.items {
            let QueryItem::Verdict(v) = item else {
                panic!("verdict query returned a non-verdict row")
            };
            *set.entry((v.machine.clone(), v.error_state.clone(), v.function.clone()))
                .or_insert(0u64) += 1;
        }
        match page.next_cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    set
}

#[test]
fn fleet_of_64_sessions_matches_single_process_replay() {
    const SESSIONS: u64 = 64;
    const CORRUPT: &[u64] = &[11, 37]; // two poisoned sessions in the fleet

    let names = corpus_names();
    let traces: Arc<Vec<(String, Vec<u8>)>> =
        Arc::new(names.iter().map(|n| (n.clone(), corpus_bytes(n))).collect());

    let daemon = Daemon::start(ServeConfig {
        workers: 4,
        retention_bytes: 64 * 1024 * 1024, // plenty: no purge in this test
        max_events_per_session: 128,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();

    // 64 client threads, each streaming one corpus trace (round-robin)
    // through the real frame codec into the in-process handle.
    let mut clients = Vec::new();
    for session in 0..SESSIONS {
        let handle = handle.clone();
        let traces = Arc::clone(&traces);
        clients.push(thread::spawn(move || {
            let (_, bytes) = &traces[session as usize % traces.len()];
            let corrupt = CORRUPT.contains(&session);
            let tenant = format!("tenant-{}", session % 4);
            let stream = encode_ingest(session, &tenant, "jinn", bytes, 1024);
            let mut frames = decode_stream(&stream).expect("self-encoded stream decodes");
            if corrupt {
                // Flip a byte mid-trace: the Seal declaration no longer
                // matches the reassembled bytes, so seal must quarantine.
                let mid = frames.len() / 2;
                if let Frame::Append { session, chunk } = &frames[mid] {
                    let mut bad = chunk.clone();
                    let at = bad.len() / 2;
                    bad[at] ^= 0x40;
                    frames[mid] = Frame::Append {
                        session: *session,
                        chunk: bad,
                    };
                } else {
                    panic!("expected an Append frame mid-stream");
                }
            }
            let mut seal_err = None;
            for frame in &frames {
                if let Err(e) = handle.apply_frame(frame) {
                    seal_err = Some(e.to_string());
                    break;
                }
            }
            let stats = handle.wait_session(session).expect("session exists");
            (session, corrupt, seal_err, stats)
        }));
    }

    for client in clients {
        let (session, corrupt, seal_err, stats) = client.join().expect("client thread");
        if corrupt {
            assert_eq!(
                stats.state,
                SessionState::Quarantined,
                "session {session}: corrupt ingest must quarantine"
            );
            let err = seal_err.unwrap_or_else(|| panic!("session {session}: seal should fail"));
            assert!(
                err.contains("quarantined"),
                "session {session}: unexpected error `{err}`"
            );
        } else {
            assert_eq!(
                stats.state,
                SessionState::Judged,
                "session {session}: {:?}",
                stats.reason
            );
            assert!(
                seal_err.is_none(),
                "session {session}: clean ingest errored"
            );
        }
    }

    // Every healthy session's verdict multiset equals the single-process
    // replay of its trace under the same checker stack.
    let jinn = ReplayConfig::parse("jinn").unwrap();
    let mut local_cache: BTreeMap<usize, BTreeMap<(String, String, String), u64>> = BTreeMap::new();
    for session in 0..SESSIONS {
        if CORRUPT.contains(&session) {
            assert!(
                served_multiset(&handle, session).is_empty(),
                "session {session}: quarantined session must hold no verdicts"
            );
            continue;
        }
        let idx = session as usize % traces.len();
        let local = local_cache
            .entry(idx)
            .or_insert_with(|| local_multiset(&traces[idx].1, &jinn))
            .clone();
        let served = served_multiset(&handle, session);
        assert_eq!(
            served, local,
            "session {session} ({}): daemon verdicts diverge from replay check",
            traces[idx].0
        );
    }

    // Fleet accounting: the poison stayed contained.
    let fleet = handle.fleet();
    assert_eq!(fleet.opened, SESSIONS);
    assert_eq!(fleet.quarantined, CORRUPT.len() as u64);
    assert_eq!(fleet.judged, SESSIONS - CORRUPT.len() as u64);
    assert_eq!(fleet.live, 0);

    // Satellite 2: recorder policy counters surface in per-session stats.
    for session in 0..SESSIONS {
        if CORRUPT.contains(&session) {
            continue;
        }
        let stats = handle.session_stats(session).expect("stats");
        let json = stats.to_json();
        assert!(
            json.contains("\"obs\"") && json.contains("\"policy_epoch\""),
            "session {session}: judged session must expose obs counters, got {json}"
        );
    }

    daemon.shutdown();
}

/// Manifest equivalence pin: a daemon judging manifested tenants must
/// produce verdict multisets identical to a plain daemon, across the
/// whole corpus — both for an honest manifest (every session flagged
/// `manifest_covered`) and for a deliberately lying one (every session
/// flagged `discharge_fallback`, no verdict lost).
#[test]
fn manifested_daemon_matches_plain_daemon_across_corpus() {
    let names = corpus_names();
    assert!(names.len() >= 20, "corpus spans at least 20 traces");
    let traces: Vec<(String, Vec<u8>)> =
        names.iter().map(|n| (n.clone(), corpus_bytes(n))).collect();

    let plain = Daemon::start(ServeConfig::default());
    let manifested = Daemon::start(ServeConfig::default());
    let plain_handle = plain.handle();
    let manifested_handle = manifested.handle();

    // The honest manifest: the union of every corpus trace's own
    // call-site set, so it covers every session. The lying manifest
    // claims a workload that calls almost nothing — every real trace
    // must fall back.
    let mut union = std::collections::BTreeSet::new();
    for (_, bytes) in &traces {
        union.extend(
            Trace::parse(bytes)
                .expect("corpus trace")
                .called_functions(),
        );
    }
    let honest: Vec<String> = union.into_iter().collect();
    let summary = manifested_handle
        .declare_manifest("honest", &honest)
        .expect("declare honest manifest");
    assert!(summary.discharged > 0, "discharge pass elides something");
    manifested_handle
        .declare_manifest("liar", &["IsSameObject".to_string()])
        .expect("declare lying manifest");

    let liar_base = 1000u64;
    for (i, (_, bytes)) in traces.iter().enumerate() {
        let i = i as u64;
        for frame in decode_stream(&encode_ingest(i, "plain", "jinn", bytes, 4096)).unwrap() {
            plain_handle.apply_frame(&frame).expect("plain ingest");
        }
        for frame in decode_stream(&encode_ingest(i, "honest", "jinn", bytes, 4096)).unwrap() {
            manifested_handle
                .apply_frame(&frame)
                .expect("honest ingest");
        }
        let stream = encode_ingest(liar_base + i, "liar", "jinn", bytes, 4096);
        for frame in decode_stream(&stream).unwrap() {
            manifested_handle.apply_frame(&frame).expect("liar ingest");
        }
    }
    plain_handle.wait_idle();
    manifested_handle.wait_idle();

    for (i, (name, _)) in traces.iter().enumerate() {
        let i = i as u64;
        let baseline = served_multiset(&plain_handle, i);
        let honest_set = served_multiset(&manifested_handle, i);
        let liar_set = served_multiset(&manifested_handle, liar_base + i);
        assert_eq!(
            honest_set, baseline,
            "{name}: manifested verdicts diverge from the plain daemon"
        );
        assert_eq!(liar_set, baseline, "{name}: fallback session lost verdicts");

        let hs = manifested_handle.session_stats(i).expect("honest stats");
        assert_eq!(hs.state, SessionState::Judged, "{name}: {:?}", hs.reason);
        assert!(hs.manifest_covered, "{name}: honest session not covered");
        assert!(!hs.discharge_fallback);
        let ls = manifested_handle
            .session_stats(liar_base + i)
            .expect("liar stats");
        assert!(
            !ls.manifest_covered && ls.discharge_fallback,
            "{name}: lying manifest must be flagged as a fallback"
        );
    }

    let fleet = manifested_handle.fleet();
    assert_eq!(fleet.covered_sessions, traces.len() as u64);
    assert_eq!(fleet.fallback_sessions, traces.len() as u64);
    assert_eq!(plain_handle.fleet().covered_sessions, 0);

    manifested.shutdown();
    plain.shutdown();
}

/// With `learn_after_sessions` set, a tenant that never declares a
/// manifest earns one from the union of its first K sessions — and a
/// later out-of-manifest trace falls back once, widens the learned
/// manifest, and is covered from then on.
#[test]
fn undeclared_tenants_learn_a_manifest_and_widen_on_fallback() {
    let daemon = Daemon::start(ServeConfig {
        learn_after_sessions: 2,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    let narrow = corpus_bytes("LocalRefDangling");
    let wider = corpus_bytes("MonitorLeak");
    assert!(
        !Trace::parse(&wider)
            .unwrap()
            .called_functions()
            .is_subset(&Trace::parse(&narrow).unwrap().called_functions()),
        "test needs a trace outside the learned set"
    );

    let ingest = |id: u64, bytes: &[u8]| {
        for frame in decode_stream(&encode_ingest(id, "learner", "jinn", bytes, 4096)).unwrap() {
            handle.apply_frame(&frame).expect("ingest");
        }
        handle.wait_session(id).expect("session exists")
    };

    // Sessions 1 and 2 fill the learning window: neither is covered.
    assert!(!ingest(1, &narrow).manifest_covered);
    assert!(!ingest(2, &narrow).manifest_covered);
    // Session 3 matches the learned union and is covered.
    let s3 = ingest(3, &narrow);
    assert!(s3.manifest_covered && !s3.discharge_fallback);
    // Session 4 calls outside it: flagged fallback, verdicts intact...
    let s4 = ingest(4, &wider);
    assert!(!s4.manifest_covered && s4.discharge_fallback);
    let local = local_multiset(&wider, &ReplayConfig::parse("jinn").unwrap());
    assert_eq!(served_multiset(&handle, 4), local, "fallback lost verdicts");
    // ...and the learned manifest widened, so session 5 is covered.
    let s5 = ingest(5, &wider);
    assert!(s5.manifest_covered && !s5.discharge_fallback);
    assert_eq!(served_multiset(&handle, 5), local);

    daemon.shutdown();
}

/// Rollups are re-applied from the session recorder's ring, so a ring
/// too small for the session must say its rollups are partial: a corpus
/// trace judged with an 8-event ring reports `rollups_complete: false`
/// with `ring_overwritten > 0`, and the same trace at the default ring
/// reports complete rollups.
#[test]
fn small_recorder_ring_marks_rollups_incomplete() {
    let bytes = corpus_bytes("LocalRefDangling");
    let judged = |config: ServeConfig| {
        let daemon = Daemon::start(config);
        let handle = daemon.handle();
        for frame in decode_stream(&encode_ingest(1, "t", "jinn", &bytes, 4096)).unwrap() {
            handle.apply_frame(&frame).expect("ingest");
        }
        let stats = handle.wait_session(1).expect("session exists");
        daemon.shutdown();
        assert_eq!(stats.state, SessionState::Judged, "{:?}", stats.reason);
        stats
    };

    let small = judged(ServeConfig {
        recorder_ring: 8,
        ..ServeConfig::default()
    });
    assert!(small.ring_overwritten > 0);
    assert!(!small.rollups_complete);
    let json = small.to_json();
    assert!(json.contains("\"rollups_complete\":false"), "{json}");

    let full = judged(ServeConfig::default());
    assert_eq!(full.ring_overwritten, 0);
    assert!(full.rollups_complete);
    assert!(full.to_json().contains("\"rollups_complete\":true"));
    // Every re-judged event is kept, truncated or overwritten, once.
    assert_eq!(
        small.summaries + small.summaries_truncated + small.ring_overwritten,
        full.summaries + full.summaries_truncated
    );
}

/// Streaming-incremental-judging pin: a daemon that overlaps ingest with
/// checking (every session on the streaming path) must be
/// observationally identical to a buffered daemon fed the *same frame
/// sequences* — same verdict multisets across the full corpus, same
/// quarantine reasons for seal-mismatch and unreadable-trace input, same
/// abort handling, and same discharge-fallback flagging for a lying
/// manifest — while actually streaming (`stats.streamed`,
/// `fleet.streamed_sessions`) and holding far fewer bytes resident
/// (`buffered_bytes_high_water`).
#[test]
fn streaming_daemon_matches_buffered_daemon_across_corpus() {
    const CHUNK: usize = 512; // small chunks: many incremental-decode resume points
    const CORRUPT: u64 = 1000; // flipped byte, stale seal declaration
    const UNREADABLE: u64 = 2000; // flipped byte, *honest* seal declaration
    const ABORTED: u64 = 3000;
    const LIAR: u64 = 4000;

    let names = corpus_names();
    let traces: Vec<(String, Vec<u8>)> =
        names.iter().map(|n| (n.clone(), corpus_bytes(n))).collect();

    let streaming = Daemon::start(ServeConfig {
        streaming_sessions: 4096, // every session takes the streaming path
        ..ServeConfig::default()
    });
    let buffered = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let sh = streaming.handle();
    let bh = buffered.handle();
    for h in [&sh, &bh] {
        h.declare_manifest("liar", &["IsSameObject".to_string()])
            .expect("declare lying manifest");
    }

    let drive = |h: &jinn::serve::DaemonHandle, id: u64, frames: &[Frame]| {
        let mut err = None;
        for frame in frames {
            if let Err(e) = h.apply_frame(frame) {
                err = Some(e.to_string());
                break;
            }
        }
        (err, h.wait_session(id).expect("session exists"))
    };
    let clean = |id: u64, tenant: &str, bytes: &[u8]| {
        decode_stream(&encode_ingest(id, tenant, "jinn", bytes, CHUNK)).unwrap()
    };
    let flip_mid_append = |frames: &mut [Frame]| {
        let mid = frames.len() / 2;
        let Frame::Append { chunk, .. } = &mut frames[mid] else {
            panic!("expected an Append frame mid-stream");
        };
        let at = chunk.len() / 2;
        chunk[at] ^= 0x40;
    };

    for (i, (name, bytes)) in traces.iter().enumerate() {
        let i = i as u64;

        let mut corrupt = clean(CORRUPT + i, "t", bytes);
        flip_mid_append(&mut corrupt);

        // Re-declare the seal over the corrupted bytes: the envelope is
        // now honest, so the damage only surfaces when the *trace* is
        // decoded — mid-stream on the streaming path, at parse time on
        // the buffered path. Both must quarantine with the same reason.
        let mut unreadable = clean(UNREADABLE + i, "t", bytes);
        flip_mid_append(&mut unreadable);
        let rejoined: Vec<u8> = unreadable
            .iter()
            .filter_map(|f| match f {
                Frame::Append { chunk, .. } => Some(chunk.as_slice()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .concat();
        let last = unreadable.len() - 1;
        unreadable[last] = Frame::Seal {
            session: UNREADABLE + i,
            total_len: rejoined.len() as u64,
            checksum: fnv1a(&rejoined),
        };

        // Mid-stream client cancellation: speculative streaming state
        // must be discarded, never judged.
        let mut aborted = clean(ABORTED + i, "t", bytes);
        aborted.pop(); // drop the Seal
        aborted.push(Frame::Abort {
            session: ABORTED + i,
            reason: "client gave up".into(),
        });

        for (base, frames) in [
            (0, clean(i, "t", bytes)),
            (CORRUPT, corrupt),
            (UNREADABLE, unreadable),
            (ABORTED, aborted),
            (LIAR, clean(LIAR + i, "liar", bytes)),
        ] {
            let id = base + i;
            let (serr, s) = drive(&sh, id, &frames);
            let (berr, b) = drive(&bh, id, &frames);
            assert_eq!(
                s.state, b.state,
                "{name} session {id}: {:?} vs {:?}",
                s.reason, b.reason
            );
            assert_eq!(s.reason, b.reason, "{name} session {id}: reasons diverge");
            assert_eq!(serr, berr, "{name} session {id}: ingest errors diverge");
            assert_eq!(
                served_multiset(&sh, id),
                served_multiset(&bh, id),
                "{name} session {id}: streaming verdicts diverge from buffered"
            );
            match base {
                0 | LIAR => {
                    assert_eq!(s.state, SessionState::Judged, "{name}: {:?}", s.reason);
                    assert!(s.streamed, "{name} session {id}: fast path did not run");
                    assert!(!b.streamed);
                    assert!(s.seal_to_verdict_micros.is_some());
                    assert!(s.first_frame_micros.is_some());
                    if base == LIAR {
                        assert!(
                            !s.manifest_covered && s.discharge_fallback,
                            "{name}: streamed lying-manifest session must fall back"
                        );
                        assert!(!b.manifest_covered && b.discharge_fallback);
                    }
                }
                CORRUPT => {
                    assert_eq!(s.state, SessionState::Quarantined);
                    assert!(serr.expect("seal must fail").contains("quarantined"));
                    assert!(served_multiset(&sh, id).is_empty());
                }
                UNREADABLE => {
                    assert_eq!(s.state, SessionState::Quarantined);
                    assert!(serr.is_none(), "honest seal must be accepted");
                    let reason = s.reason.expect("quarantine reason");
                    assert!(
                        reason.starts_with("unreadable trace"),
                        "{name}: unexpected reason `{reason}`"
                    );
                }
                ABORTED => assert_eq!(s.state, SessionState::Aborted),
                _ => unreachable!(),
            }
        }
    }

    // The fast path really ran, and it held less resident than buffering:
    // the buffered daemon's high-water is at least one whole trace, the
    // streaming daemon's only the undecoded tail of an in-flight chunk.
    let sf = sh.fleet();
    let bf = bh.fleet();
    assert_eq!(sf.judged, bf.judged);
    assert_eq!(sf.quarantined, bf.quarantined);
    assert_eq!(sf.streamed_sessions, 2 * traces.len() as u64);
    assert_eq!(bf.streamed_sessions, 0);
    let max_len = traces.iter().map(|(_, b)| b.len() as u64).max().unwrap();
    assert!(
        bf.buffered_bytes_high_water >= max_len,
        "buffered daemon must hold a whole trace at seal"
    );
    assert!(
        sf.buffered_bytes_high_water < bf.buffered_bytes_high_water,
        "streaming daemon held {} resident bytes, buffered {}",
        sf.buffered_bytes_high_water,
        bf.buffered_bytes_high_water
    );

    streaming.shutdown();
    buffered.shutdown();
}

/// Every record a trace surfaces, with the offset just past its last
/// byte (a surfaced record's span starts with any `Intern` records that
/// define strings it is the first to use).
fn surfaced_records(bytes: &[u8]) -> Vec<(jinn::replay::TraceRecord, usize)> {
    let mut dec = jinn::replay::StreamDecoder::new();
    let mut records = Vec::new();
    for (i, b) in bytes.iter().enumerate() {
        dec.feed(std::slice::from_ref(b));
        while let Some(rec) = dec.next_record().expect("corpus trace decodes") {
            records.push((rec, i + 1));
        }
    }
    records
}

/// Reads one LEB128 varint at `*at`, advancing past it.
fn read_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Seals `body` (everything before the `End` tag) with an `End` record
/// declaring `count` raw records and the body's checksum.
fn reseal(mut body: Vec<u8>, mut count: u64) -> Vec<u8> {
    let sum = fnv1a(&body); // the checksum covers everything before the tag
    body.push(0xFF); // End tag
    loop {
        let byte = (count & 0x7F) as u8;
        count >>= 7;
        if count == 0 {
            body.push(byte);
            break;
        }
        body.push(byte | 0x80);
    }
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Where the `End` record starts, and the raw-record count it declares
/// (interns included, so read the varint rather than counting surfaced
/// records).
fn end_record(bytes: &[u8], records: &[(jinn::replay::TraceRecord, usize)]) -> (usize, u64) {
    let end_pos = records.last().expect("records decoded").1;
    assert_eq!(bytes[end_pos], 0xFF, "End tag follows the last record");
    let mut at = end_pos + 1;
    (end_pos, read_varint(bytes, &mut at))
}

/// A trace that ends inside an activation: one of its own `NativeEnter`
/// records spliced in front of the `End` record. The fold hands the
/// unfinished activation out at end of stream on both paths (an
/// unfinished activation that runs replays as one divergence), so
/// streaming and buffered daemons agree exactly and still publish.
#[test]
fn unfinished_activation_streams_like_it_buffers() {
    use jinn::replay::TraceRecord;

    // Build the anomaly from a *real* corpus trace so every method id
    // resolves: duplicate one of its own NativeEnter records (no
    // interned strings — the bytes are position-independent) in front
    // of the End record, then re-seal with the new count and checksum.
    let bytes = corpus_bytes("LocalRefDangling");
    let boundaries = surfaced_records(&bytes);
    let enter_at = boundaries
        .iter()
        .position(|(r, _)| matches!(r, TraceRecord::NativeEnter { .. }))
        .expect("corpus trace has a native activation");
    assert!(enter_at > 0, "a setup record precedes the first activation");
    let record = &bytes[boundaries[enter_at - 1].1..boundaries[enter_at].1];

    let (end_pos, declared) = end_record(&bytes, &boundaries);
    let mut body = bytes[..end_pos].to_vec();
    body.extend_from_slice(record);
    let spliced = reseal(body, declared + 1);
    let parsed = Trace::parse(&spliced).expect("splice is wire-valid");
    assert_eq!(
        parsed.events.len(),
        boundaries
            .iter()
            .filter(|(r, _)| {
                !matches!(
                    r,
                    TraceRecord::Meta { .. }
                        | TraceRecord::DefClass(_)
                        | TraceRecord::SpawnThread { .. }
                        | TraceRecord::Seed(_)
                )
            })
            .count()
            + 1,
        "splice adds exactly one event"
    );

    let streaming = Daemon::start(ServeConfig {
        streaming_sessions: 4096,
        ..ServeConfig::default()
    });
    let buffered = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let mut outcomes = Vec::new();
    for daemon in [&streaming, &buffered] {
        let handle = daemon.handle();
        for frame in decode_stream(&encode_ingest(9, "t", "jinn", &spliced, 64)).unwrap() {
            handle.apply_frame(&frame).expect("ingest");
        }
        let stats = handle.wait_session(9).expect("session exists");
        outcomes.push((
            stats.state,
            stats.reason.clone(),
            served_multiset(&handle, 9),
        ));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "unfinished activation: streaming diverges from buffered"
    );
    assert_eq!(
        outcomes[0].0,
        SessionState::Judged,
        "an unfinished activation still publishes: {:?}",
        outcomes[0].1
    );
    assert!(
        streaming.handle().session_stats(9).expect("stats").streamed,
        "the session took the streaming path"
    );
    streaming.shutdown();
    buffered.shutdown();
}

/// A trace whose one `leaks=true` record is moved behind its events. A
/// streaming judge rebuilds the world when the first event arrives, so
/// a late replay-read `Meta` key would be seen by the buffered judge
/// only; the setup-order rule makes the trace unreadable on both paths
/// instead, so both daemons quarantine it with the same reason.
#[test]
fn late_replay_meta_is_quarantined_on_both_paths() {
    use jinn::replay::TraceRecord;

    let bytes = corpus_bytes("GlobalLeak");
    let records = surfaced_records(&bytes);
    let at = records
        .iter()
        .position(|(r, _)| matches!(r, TraceRecord::Meta { key, value } if key == "leaks" && value == "true"))
        .expect("GlobalLeak declares leaks=true");
    assert!(at > 0, "other metadata precedes `leaks`");
    // Keep any `Intern` records defining its strings in place; move
    // only the `Meta` record itself (tag 0x02).
    let mut meta_start = records[at - 1].1;
    while bytes[meta_start] == 0x01 {
        let mut cursor = meta_start + 1;
        read_varint(&bytes, &mut cursor); // id
        let len = read_varint(&bytes, &mut cursor);
        meta_start = cursor + len as usize;
    }
    assert_eq!(bytes[meta_start], 0x02, "a Meta record follows the interns");
    let meta = &bytes[meta_start..records[at].1];
    let (end_pos, declared) = end_record(&bytes, &records);
    let mut body = bytes[..meta_start].to_vec();
    body.extend_from_slice(&bytes[records[at].1..end_pos]);
    body.extend_from_slice(meta);
    let moved = reseal(body, declared);

    match Trace::parse(&moved) {
        Err(e) => assert!(
            e.to_string().contains("setup record in event stream"),
            "{e}"
        ),
        Ok(_) => panic!("a late `leaks` record must be corrupt"),
    }
    const STACK: &str = "hotspot,j9,xcheck:hotspot,xcheck:j9,jinn";
    let streaming = Daemon::start(ServeConfig {
        streaming_sessions: 4096,
        ..ServeConfig::default()
    });
    let buffered = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let mut reasons = Vec::new();
    for daemon in [&streaming, &buffered] {
        let handle = daemon.handle();
        for frame in decode_stream(&encode_ingest(11, "t", STACK, &moved, 64)).unwrap() {
            handle.apply_frame(&frame).expect("ingest");
        }
        let stats = handle.wait_session(11).expect("session exists");
        assert_eq!(stats.state, SessionState::Quarantined, "{stats:?}");
        reasons.push(stats.reason.clone().expect("quarantine has a reason"));
    }
    assert_eq!(
        reasons[0], reasons[1],
        "streaming and buffered reasons differ"
    );
    assert!(
        reasons[0].starts_with("unreadable trace:")
            && reasons[0].contains("setup record in event stream"),
        "{}",
        reasons[0]
    );
    assert!(
        streaming
            .handle()
            .session_stats(11)
            .expect("stats")
            .streamed,
        "the session took the streaming path"
    );
    streaming.shutdown();
    buffered.shutdown();
}

/// The re-entrant `Rec.rec` probe under the five-config stack: every
/// variant streams to exactly the verdicts it buffers to, and both equal
/// a single-process replay per config.
#[test]
fn reentrant_probe_streams_like_it_buffers() {
    const STACK: &str = "hotspot,j9,xcheck:hotspot,xcheck:j9,jinn";
    let streaming = Daemon::start(ServeConfig {
        streaming_sessions: 4096,
        ..ServeConfig::default()
    });
    let buffered = Daemon::start(ServeConfig {
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    for (id, (label, scenario)) in fixtures::rec_probes().into_iter().enumerate() {
        let id = id as u64;
        let bytes = record_program(&Program::from_scenario(&scenario));
        let mut sets = Vec::new();
        for daemon in [&streaming, &buffered] {
            let handle = daemon.handle();
            for frame in decode_stream(&encode_ingest(id, "t", STACK, &bytes, 128)).unwrap() {
                handle.apply_frame(&frame).expect("ingest");
            }
            let stats = handle.wait_session(id).expect("session exists");
            assert_eq!(
                stats.state,
                SessionState::Judged,
                "{label}: {:?}",
                stats.reason
            );
            assert_eq!(stats.divergences, 0, "{label}");
            sets.push(served_multiset(&handle, id));
        }
        let mut local = BTreeMap::new();
        for config in standard_configs() {
            for (k, n) in local_multiset(&bytes, &config) {
                *local.entry(k).or_insert(0) += n;
            }
        }
        assert_eq!(
            sets[0], sets[1],
            "{label}: streaming diverges from buffered"
        );
        assert_eq!(
            sets[0], local,
            "{label}: served verdicts diverge from replay"
        );
    }
    streaming.shutdown();
    buffered.shutdown();
}

#[test]
fn frame_stream_corruption_is_contained_to_its_connection() {
    // Stream-level corruption (bad frame checksum) — distinct from the
    // seal-declaration mismatch above — must poison only the sessions the
    // bad stream opened.
    let daemon = Daemon::start(ServeConfig::default());
    let handle = daemon.handle();
    let bytes = corpus_bytes("LocalRefDangling");

    // A healthy session first.
    let good = encode_ingest(1, "ok", "jinn", &bytes, 4096);
    for frame in decode_stream(&good).expect("decodes") {
        handle.apply_frame(&frame).expect("healthy ingest");
    }
    assert_eq!(handle.wait_session(1).unwrap().state, SessionState::Judged);

    // A corrupt frame stream: flip a byte inside a frame payload so the
    // frame checksum fails at decode time.
    let mut stream = encode_frame(&Frame::Open {
        session: 2,
        tenant: "bad".into(),
        config: "jinn".into(),
    });
    stream.extend_from_slice(&encode_frame(&Frame::Append {
        session: 2,
        chunk: bytes.clone(),
    }));
    let at = stream.len() - 64;
    stream[at] ^= 0x01;
    stream.extend_from_slice(&encode_frame(&Frame::Seal {
        session: 2,
        total_len: bytes.len() as u64,
        checksum: fnv1a(&bytes),
    }));

    // Drive it the way the socket does: open first, then hit the error.
    let mut decoder = jinn::replay::FrameDecoder::new();
    let preamble = jinn::replay::stream_preamble();
    let mut full = preamble.to_vec();
    full.extend_from_slice(&stream);
    decoder.feed(&full);
    let mut opened = Vec::new();
    let err = loop {
        match decoder.next_frame() {
            Ok(Some(frame)) => {
                if let Frame::Open { session, .. } = &frame {
                    opened.push(*session);
                }
                handle
                    .apply_frame(&frame)
                    .expect("pre-corruption frames apply");
            }
            Ok(None) => panic!("decoder should hit the corrupt frame"),
            Err(e) => break e,
        }
    };
    assert!(matches!(
        err,
        jinn::replay::FrameError::ChecksumMismatch { .. }
    ));
    for id in opened {
        handle.quarantine(id, "corrupt frame stream");
    }

    let s2 = handle.session_stats(2).expect("session 2");
    assert_eq!(s2.state, SessionState::Quarantined);
    // Session 1's history is untouched.
    let page = handle.query(&Query {
        session: Some(1),
        ..Query::default()
    });
    assert!(!page.items.is_empty(), "healthy session keeps its verdicts");
    daemon.shutdown();
}
