//! Replay fidelity: a replayed session must re-issue the calls the
//! recorded program made, or its verdicts mean nothing.
//!
//! The oracle replays a trace on the recording vendor (no checker) with
//! a `TraceWriter` tapped in and demands that the re-recording
//! reproduce the input's event records, observability annotations
//! aside. It runs over the whole golden corpus and over the re-entrant
//! `Rec.rec` probe (see `fixtures`), whose nested activations of one
//! native method a per-method replay queue would mis-script. The probe
//! must also replay to its live verdicts under every standard
//! configuration.

mod fixtures;

use std::cell::RefCell;
use std::rc::Rc;

use jinn::jni::Vm;
use jinn::microbench::{run_scenario, Config};
use jinn::replay::{
    activations, case_studies, microbench_programs, record_program, replay_trace, standard_configs,
    Program, RecordVendor, ReplayConfig, Replayer, Trace, TraceRecord, TraceWriter,
};
use jinn::vendors::Vendor;

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/corpus/{name}.jtrace", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The event records a re-recording is held to.
fn boundary_events(trace: &Trace) -> Vec<TraceRecord> {
    trace
        .events
        .iter()
        .filter(|e| !matches!(e, TraceRecord::ObsEvent { .. } | TraceRecord::PyCall { .. }))
        .cloned()
        .collect()
}

/// Replays `trace` on the recording vendor with a writer tapped in and
/// returns what the replay re-recorded.
fn rerecord(trace: &Trace) -> Trace {
    let writer = Rc::new(RefCell::new(TraceWriter::new()));
    let mut vm = Vm::new(Box::new(RecordVendor));
    vm.set_tap(Some(writer.clone()));
    let config = ReplayConfig::Default(Vendor::HotSpot);
    let mut replayer = Replayer::with_vm(vm, trace, &config, None).expect("world rebuilds");
    for top in activations(&trace.events) {
        replayer
            .run(top.expect("trace folds"))
            .expect("activation runs");
    }
    let outcome = replayer.finish().expect("replay finishes");
    assert_eq!(outcome.divergences, 0, "{outcome:?}");
    let writer = Rc::try_unwrap(writer)
        .expect("session dropped; sole writer handle")
        .into_inner();
    Trace::parse(&writer.finish()).expect("re-recording parses")
}

fn assert_faithful(name: &str, trace: &Trace) {
    let want = boundary_events(trace);
    let got = boundary_events(&rerecord(trace));
    if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        panic!(
            "{name}: replay diverges from the recording at event {i} of {}:\n  recorded: {:?}\n  replayed: {:?}",
            want.len(),
            want.get(i),
            got.get(i)
        );
    }
}

#[test]
fn replay_reproduces_every_corpus_recording() {
    let programs: Vec<Program> = microbench_programs()
        .into_iter()
        .chain(case_studies())
        .collect();
    assert_eq!(programs.len(), 20);
    for p in &programs {
        let trace = Trace::parse(&corpus_bytes(&p.name)).expect("corpus parses");
        assert_faithful(&p.name, &trace);
    }
}

#[test]
fn replay_reproduces_the_reentrant_probe() {
    for (label, scenario) in fixtures::rec_probes() {
        let trace = Trace::parse(&record_program(&Program::from_scenario(&scenario))).unwrap();
        assert_faithful(&label, &trace);
    }
}

#[test]
fn reentrant_probe_replays_to_its_live_verdicts() {
    for (label, scenario) in fixtures::rec_probes() {
        let trace = Trace::parse(&record_program(&Program::from_scenario(&scenario))).unwrap();
        for config in standard_configs() {
            let live_config = match config {
                ReplayConfig::Default(v) => Config::Default(v),
                ReplayConfig::Xcheck(v) => Config::Xcheck(v),
                ReplayConfig::Jinn(v) => Config::Jinn(v),
                ReplayConfig::JinnAblated(..) => unreachable!("not a standard config"),
            };
            let live = run_scenario(&scenario, live_config);
            let replayed = replay_trace(&trace, &config).expect("probe replays");
            assert_eq!(
                (replayed.behavior, &replayed.message),
                (live.behavior, &live.message),
                "{label} under {}",
                config.label()
            );
            assert_eq!(replayed.divergences, 0, "{label}: {replayed:?}");
        }
    }
}
