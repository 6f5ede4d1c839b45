//! The checker's and the VM's batched counters: Jinn counts executed
//! checks, and the VM counts safepoints, in plain fields and publishes
//! them at every native-method return and at shutdown. These tests pin
//! that the published figures are exact at those points, with the
//! recorder on and off, and that an interposing-only checker counts no
//! checks at all.

use std::rc::Rc;

use jinn::core::{install, install_prebuilt, Jinn, SharedStats};
use jinn::jni::{typed, FuncId, RunOutcome, Session, Vm};
use jinn::jvm::{JValue, MethodId, ThreadId};
use jinn::obs::Recorder;

/// Checks the synthesized table runs for one call of `func` when no
/// check fires.
fn checks_per_call(func: &str) -> u64 {
    let (table, _) = jinn::core::synthesize_cached();
    let f = FuncId::of(func);
    (table.pre(f).len() + table.post(f).len()) as u64
}

/// One string round trip: allocate, measure, delete.
const ROUND_TRIP: [&str; 3] = ["NewStringUTF", "GetStringUTFLength", "DeleteLocalRef"];

/// What a run has done so far, counted by the script itself.
#[derive(Debug, Default, Clone, Copy)]
struct Expected {
    checks: u64,
    safepoints: u64,
}

impl Expected {
    /// `n` JNI calls of `func`: one safepoint each, plus their checks.
    fn jni(&mut self, func: &str, n: u64) {
        self.checks += n * checks_per_call(func);
        self.safepoints += n;
    }

    /// `n` string round trips.
    fn round_trips(&mut self, n: u64) {
        for func in ROUND_TRIP {
            self.jni(func, n);
        }
    }

    /// A native-method call passes one safepoint of its own.
    fn native(&mut self) {
        self.safepoints += 1;
    }
}

struct Program {
    session: Session,
    thread: ThreadId,
    /// `strings(I)I`: `n` string round trips.
    strings: MethodId,
    /// `nested(I)I`: one round trip, then `strings(n)` as a nested
    /// native call, then one more round trip.
    nested: MethodId,
}

fn round_trip(env: &mut jinn::jni::JniEnv<'_>, i: i32) -> Result<(), jinn::jni::JniError> {
    let s = typed::new_string_utf(env, &format!("count-{i}"))?;
    typed::get_string_utf_length(env, s)?;
    typed::delete_local_ref(env, s)
}

fn program(recorder: Option<Recorder>, checker: Option<Jinn>) -> (Program, SharedStats) {
    let mut vm = Vm::permissive();
    vm.jvm_mut().set_auto_gc_period(Some(7));
    let (_c, strings) = vm.define_native_class(
        "counts/Strings",
        "strings",
        "(I)I",
        true,
        Rc::new(|env, args| {
            let JValue::Int(n) = args[0] else {
                unreachable!("int argument")
            };
            for i in 0..n {
                round_trip(env, i)?;
            }
            Ok(JValue::Int(n))
        }),
    );
    let (_c, nested) = vm.define_native_class(
        "counts/Nested",
        "nested",
        "(I)I",
        true,
        Rc::new(move |env, args| {
            round_trip(env, -1)?;
            let inner = env.call_native_method(strings, args)?;
            round_trip(env, -2)?;
            Ok(inner)
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    if let Some(recorder) = recorder {
        session.set_recorder(recorder);
    }
    let stats = match checker {
        Some(jinn) => install_prebuilt(&mut session, jinn),
        None => install(&mut session),
    };
    let program = Program {
        session,
        thread,
        strings,
        nested,
    };
    (program, stats)
}

/// Asserts every published counter equals the script's own count.
fn assert_published(p: &Program, stats: &SharedStats, want: Expected, when: &str) {
    assert_eq!(stats.checks_executed(), want.checks, "checks, {when}");
    assert_eq!(
        p.session.vm().jvm().safepoints(),
        want.safepoints,
        "the script's safepoint count, {when}"
    );
    if let Some(snapshot) = p.session.recorder().snapshot() {
        let m = &snapshot.metrics;
        assert_eq!(
            m.counter("checks.executed"),
            want.checks,
            "recorder checks, {when}"
        );
        assert_eq!(
            m.counter("gc.safepoints"),
            want.safepoints,
            "recorder safepoints, {when}"
        );
    }
}

fn run(p: &mut Program, method: MethodId, n: i32) {
    let outcome = p.session.run_native(p.thread, method, &[JValue::Int(n)]);
    assert!(
        matches!(outcome, RunOutcome::Completed(JValue::Int(m)) if m == n),
        "{outcome:?}"
    );
}

fn counters_are_exact_at_native_returns_and_shutdown(recorder: Option<Recorder>) {
    let (mut p, stats) = program(recorder, None);
    let mut want = Expected::default();
    assert_published(&p, &stats, want, "before any call");
    for (step, n) in [3, 0, 5, 2].into_iter().enumerate() {
        let (strings, nested) = (p.strings, p.nested);
        if step % 2 == 0 {
            run(&mut p, strings, n);
            want.native();
            want.round_trips(n as u64);
        } else {
            run(&mut p, nested, n);
            want.native();
            want.native();
            want.round_trips(n as u64 + 2);
        }
        assert_published(&p, &stats, want, &format!("after native call {step}"));
    }

    // JNI calls made outside any native method are published at
    // shutdown.
    let thread = p.thread;
    round_trip(&mut p.session.env(thread), 99).expect("round trip");
    want.round_trips(1);
    assert!(p.session.shutdown().is_empty(), "bug-free script");
    assert_published(&p, &stats, want, "after shutdown");
    assert_eq!(stats.violations(), 0);
}

#[test]
fn counters_are_exact_at_native_returns_and_shutdown_with_recorder() {
    counters_are_exact_at_native_returns_and_shutdown(Some(Recorder::enabled(64)));
}

#[test]
fn counters_are_exact_at_native_returns_and_shutdown_without_recorder() {
    counters_are_exact_at_native_returns_and_shutdown(None);
}

#[test]
fn interposing_counts_no_checks_and_checking_counts_its_table() {
    let script = |checker: Option<Jinn>| {
        let (mut p, stats) = program(Some(Recorder::enabled(64)), checker);
        let (strings, nested) = (p.strings, p.nested);
        run(&mut p, strings, 4);
        run(&mut p, nested, 1);
        assert!(p.session.shutdown().is_empty(), "bug-free script");
        let recorded = p
            .session
            .recorder()
            .snapshot()
            .expect("enabled")
            .metrics
            .counter("checks.executed");
        (stats.checks_executed(), recorded)
    };
    assert_eq!(script(Some(Jinn::interpose_only())), (0, 0));

    let mut want = Expected::default();
    want.round_trips(4 + 1 + 2);
    assert_eq!(script(None), (want.checks, want.checks));
    assert!(want.checks > 0);
}
