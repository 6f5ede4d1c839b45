//! Forged input is quarantined, never fatal: a checksum-valid trace
//! whose activation names a method the rebuilt world lacks must fail
//! its own session with a quarantine reason — on the buffered and the
//! streaming path alike — while the daemon keeps judging the fleet.

use std::rc::Rc;

use jinn_replay::{
    decode_stream, encode_ingest, program_by_name, record_program, RecordVendor, TraceWriter,
};
use jinn_serve::{Daemon, ServeConfig, SessionState};
use minijni::{BoundaryTap, FuncId, JniRet, Vm};
use minijvm::{JValue, MethodId, ThreadId};

/// A wire-valid trace with one top-level activation of method 9999.
fn forged_trace() -> Vec<u8> {
    let mut w = TraceWriter::new();
    w.meta("program", "Forged");
    let (thread, method) = (ThreadId(0), MethodId::forged(9999));
    w.native_enter(thread, method, &[]);
    w.native_exit(thread, method, &Ok(JValue::Void));
    w.finish()
}

/// A wire-valid trace whose one activation is real but issues a
/// `CallStaticVoidMethod` with no arguments at all — input no
/// structural check covers, on which the raw JNI semantics panic.
fn malformed_call_trace() -> Vec<u8> {
    let mut vm = Vm::new(Box::new(RecordVendor));
    let baseline = vm.jvm().registry().class_count();
    let (_, method) = vm.define_native_class(
        "forged/Bad",
        "go",
        "()V",
        true,
        Rc::new(|_, _| Ok(JValue::Void)),
    );
    let thread = ThreadId(0);
    let env = vm.jvm().thread(thread).env();
    let mut w = TraceWriter::new();
    w.meta("program", "Malformed");
    w.def_classes(vm.jvm(), baseline);
    let call = FuncId::of("CallStaticVoidMethod");
    w.native_enter(thread, method, &[]);
    w.jni_enter(thread, env, call, &[]);
    w.jni_exit(thread, call, &Ok(JniRet::Void));
    w.native_exit(thread, method, &Ok(JValue::Void));
    w.finish()
}

fn ingest(daemon: &Daemon, session: u64, bytes: &[u8]) {
    ingest_under(daemon, session, "jinn", bytes);
}

fn ingest_under(daemon: &Daemon, session: u64, configs: &str, bytes: &[u8]) {
    let handle = daemon.handle();
    for frame in decode_stream(&encode_ingest(session, "t", configs, bytes, 256)).unwrap() {
        handle.apply_frame(&frame).expect("frames apply");
    }
}

#[test]
fn forged_method_ids_quarantine_their_session_only() {
    const WORKERS: usize = 2;
    let forged = forged_trace();
    let clean = record_program(&program_by_name("LocalRefDangling").unwrap());
    for streaming_sessions in [0, 4096] {
        let daemon = Daemon::start(ServeConfig {
            workers: WORKERS,
            streaming_sessions,
            ..ServeConfig::default()
        });
        // One forged session per worker: a panic would take every
        // worker down and leave the clean session unjudged.
        for id in 0..WORKERS as u64 {
            ingest(&daemon, id, &forged);
        }
        ingest(&daemon, 100, &clean);
        daemon.handle().wait_idle();

        let handle = daemon.handle();
        for id in 0..WORKERS as u64 {
            let stats = handle.session_stats(id).expect("forged session");
            assert_eq!(stats.state, SessionState::Quarantined, "{stats:?}");
            assert_eq!(stats.streamed, streaming_sessions > 0);
            let reason = stats.reason.expect("quarantine reason");
            assert!(
                reason.starts_with("replay under") && reason.contains("9999"),
                "streaming_sessions={streaming_sessions}: `{reason}`"
            );
        }
        let stats = handle.session_stats(100).expect("clean session");
        assert_eq!(stats.state, SessionState::Judged, "{:?}", stats.reason);
        daemon.shutdown();
    }
}

#[test]
fn a_substrate_panic_quarantines_its_session_only() {
    let malformed = malformed_call_trace();
    let clean = record_program(&program_by_name("LocalRefDangling").unwrap());
    for streaming_sessions in [0, 4096] {
        let daemon = Daemon::start(ServeConfig {
            workers: 1,
            streaming_sessions,
            ..ServeConfig::default()
        });
        ingest_under(&daemon, 1, "hotspot", &malformed);
        ingest(&daemon, 2, &clean);
        daemon.handle().wait_idle();
        let handle = daemon.handle();
        let stats = handle.session_stats(1).expect("malformed session");
        assert_eq!(stats.state, SessionState::Quarantined, "{stats:?}");
        assert_eq!(
            stats.reason.as_deref(),
            Some("replay under HotSpot failed: panicked")
        );
        let stats = handle.session_stats(2).expect("clean session");
        assert_eq!(stats.state, SessionState::Judged, "{:?}", stats.reason);
        daemon.shutdown();
    }
}
