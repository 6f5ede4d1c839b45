//! Admission-control coverage: the late-finish/quarantine race, the
//! live-session cap, the fleet-wide buffered-bytes cap, and
//! oldest-first eviction of terminal session records.

use jinn_replay::format::fnv1a;
use jinn_replay::{program_by_name, record_program};
use jinn_serve::{
    Daemon, DischargeStats, JudgeOutput, ObsCounters, ServeConfig, ServeError, SessionState,
    SessionTable, StoreLimits,
};

fn roomy_limits() -> StoreLimits {
    StoreLimits {
        retention_bytes: usize::MAX >> 1,
        max_buffered: 1 << 30,
        max_live_sessions: 1024,
        max_session_records: 4096,
        max_total_buffered: 1 << 30,
    }
}

fn dummy_output() -> JudgeOutput {
    JudgeOutput {
        program: "p".to_string(),
        outcomes: Vec::new(),
        verdicts: Vec::new(),
        events: Vec::new(),
        ring_overwritten: 0,
        summaries_truncated: 0,
        rollups: Vec::new(),
        obs: ObsCounters::default(),
        discharge: DischargeStats::default(),
        events_replayed: 1,
        divergences: 0,
        called_functions: Default::default(),
        manifest_covered: false,
        discharge_fallback: false,
    }
}

/// The REVIEW.md high-severity race: a session quarantined *while* a
/// worker judges it must stay quarantined when the worker comes back —
/// no state resurrection, no double `active` decrement (which would
/// underflow and wedge `wait_idle` forever).
#[test]
fn late_finish_after_quarantine_is_discarded() {
    let table = SessionTable::new(roomy_limits());
    let bytes = b"pretend trace";
    table.open(1, "t", Vec::new()).expect("open");
    table.append(1, bytes).expect("append");
    table
        .seal(1, bytes.len() as u64, fnv1a(bytes))
        .expect("seal");
    let (taken, _, _) = table.begin_judging(1).expect("queued session");
    assert_eq!(taken, bytes);

    // The session's connection goes bad mid-judging.
    table.quarantine(1, "corrupt frame stream");
    // The worker returns late; its output must be discarded.
    table.finish(1, dummy_output());

    let stats = table.stats(1).expect("stats");
    assert_eq!(stats.state, SessionState::Quarantined);
    let fleet = table.fleet();
    assert_eq!(fleet.judged, 0, "discarded output must not count");
    assert_eq!(fleet.quarantined, 1);
    assert_eq!(fleet.live, 0);
    assert_eq!(fleet.total_verdicts, 0);
    // An `active` underflow would make this block forever.
    table.wait_idle();
}

#[test]
fn live_session_cap_rejects_open() {
    let daemon = Daemon::start(ServeConfig {
        max_live_sessions: 2,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    handle.open(1, "t", "jinn").expect("first open");
    handle.open(2, "t", "jinn").expect("second open");
    let err = handle.open(3, "t", "jinn").expect_err("cap reached");
    assert_eq!(err, ServeError::FleetSaturated { live: 2, cap: 2 });
    // A terminal session frees its slot.
    handle.abort(1, "done").expect("abort");
    handle.open(3, "t", "jinn").expect("slot freed");
    daemon.shutdown();
}

#[test]
fn fleet_buffered_cap_backpressures_append() {
    // Buffered-path accounting: a streaming session would release
    // decoded (or poisoned) bytes immediately and never hold the cap.
    let daemon = Daemon::start(ServeConfig {
        max_total_buffered_bytes: 10,
        streaming_sessions: 0,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    handle.open(1, "t", "jinn").expect("open 1");
    handle.open(2, "t", "jinn").expect("open 2");
    handle.append(1, &[0u8; 6]).expect("within fleet cap");
    let err = handle.append(2, &[0u8; 6]).expect_err("fleet cap");
    assert_eq!(
        err,
        ServeError::FleetBackpressure {
            buffered: 6,
            cap: 10
        }
    );
    // Dropping session 1's buffer readmits the bytes.
    handle.abort(1, "drop").expect("abort");
    handle.append(2, &[0u8; 6]).expect("bytes freed");
    daemon.shutdown();
}

#[test]
fn terminal_records_evict_oldest_first() {
    let daemon = Daemon::start(ServeConfig {
        max_session_records: 4,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    for id in 0..8 {
        handle.open(id, "t", "jinn").expect("open");
        handle.abort(id, "done").expect("abort");
    }
    assert_eq!(handle.session_ids(), vec![4, 5, 6, 7]);
    assert!(
        handle.session_stats(0).is_none(),
        "evicted record answers nothing"
    );
    assert_eq!(handle.fleet().evicted_sessions, 4);
    // An evicted id may be reopened.
    handle.open(0, "t", "jinn").expect("reopen evicted id");
    daemon.shutdown();
}

#[test]
fn live_sessions_survive_the_record_cap() {
    let daemon = Daemon::start(ServeConfig {
        max_session_records: 2,
        ..ServeConfig::default()
    });
    let handle = daemon.handle();
    for id in 0..3 {
        handle.open(id, "t", "jinn").expect("open");
    }
    // Three live sessions exceed the record cap, but eviction only ever
    // takes terminal records: all three survive.
    assert_eq!(handle.session_ids(), vec![0, 1, 2]);
    handle.abort(0, "done").expect("abort");
    // The one terminal record is now the only candidate, and the table
    // is over cap, so it goes; the live pair stays.
    assert_eq!(handle.session_ids(), vec![1, 2]);
    assert_eq!(handle.fleet().evicted_sessions, 1);
    daemon.shutdown();
}

/// Evicting a judged session must release its history bytes from the
/// retention ledger.
#[test]
fn evicting_judged_records_releases_history_bytes() {
    let bytes = record_program(&program_by_name("LocalRefDangling").expect("corpus program"));
    let ingest_n = |daemon: &Daemon, n: u64| {
        let handle = daemon.handle();
        for id in 0..n {
            handle.open(id, "t", "jinn").expect("open");
            handle.append(id, &bytes).expect("append");
            handle
                .seal(id, bytes.len() as u64, fnv1a(&bytes))
                .expect("seal");
            handle.wait_session(id).expect("judged");
        }
    };

    // Measure one judged session's history footprint, uncapped.
    let daemon = Daemon::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    ingest_n(&daemon, 1);
    let per_session = daemon.handle().fleet().history_bytes;
    assert!(per_session > 0, "a judged session holds history");
    daemon.shutdown();

    // Judge four identical sessions under a two-record cap: exactly two
    // sessions' bytes may remain charged.
    let daemon = Daemon::start(ServeConfig {
        workers: 1,
        max_session_records: 2,
        ..ServeConfig::default()
    });
    ingest_n(&daemon, 4);
    let handle = daemon.handle();
    let fleet = handle.fleet();
    assert_eq!(fleet.judged, 4);
    assert_eq!(fleet.evicted_sessions, 2);
    assert_eq!(handle.session_ids(), vec![2, 3]);
    assert_eq!(
        fleet.history_bytes,
        2 * per_session,
        "evicted sessions' history released"
    );
    daemon.shutdown();
}
