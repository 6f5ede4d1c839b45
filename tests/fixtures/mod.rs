//! Test fixtures shared by the replay-fidelity and fleet suites.
//!
//! The re-entrant `Rec.rec` probe: a native method that re-enters
//! itself through a managed bridge, so one trace holds nested
//! activations of the same native method. For `n > 0`, `Rec.rec(n)`
//! creates a local string, calls the managed `Bridge.go(n - 1)` (which
//! calls `rec` again), then measures the string and deletes it; for
//! `n = 0` it creates a string, measures it, and deletes it. The buggy
//! variant deletes the innermost string before measuring it — a
//! dangling local reference.
//!
//! It is deliberately not part of `microbench_programs()` or
//! `case_studies()`: those lists define the golden corpus and the
//! benchmark's input set.

#![allow(dead_code)]

use std::rc::Rc;

use jinn::jni::{typed, Vm};
use jinn::jvm::JValue;
use jinn::microbench::{Scenario, Setup};

fn build<const DEPTH: i32, const BUGGY: bool>(vm: &mut Vm) -> Setup {
    let (_, rec) = vm.define_native_class(
        "probe/Rec",
        "rec",
        "(I)V",
        true,
        Rc::new(|env, args| {
            let n = match args.first() {
                Some(JValue::Int(n)) => *n,
                _ => 0,
            };
            let s = typed::new_string_utf(env, "rec")?;
            if n > 0 {
                let bridge = typed::find_class(env, "probe/Bridge")?;
                let go = typed::get_static_method_id(env, bridge, "go", "(I)V")?;
                typed::call_static_void_method(env, bridge, go, &[JValue::Int(n - 1)])?;
            } else if BUGGY {
                typed::delete_local_ref(env, s)?;
            }
            typed::get_string_utf_length(env, s)?;
            typed::delete_local_ref(env, s)?;
            Ok(JValue::Void)
        }),
    );
    vm.define_managed_class(
        "probe/Bridge",
        "go",
        "(I)V",
        true,
        Rc::new(move |env, args| env.call_native_method(rec, args)),
    );
    Setup {
        entries: vec![rec],
        first_args: vec![JValue::Int(DEPTH)],
    }
}

/// The probe at recursion depth 1–4, clean or buggy.
pub fn rec_probe(depth: i32, buggy: bool) -> Scenario {
    let build: fn(&mut Vm) -> Setup = match (depth, buggy) {
        (1, false) => build::<1, false>,
        (2, false) => build::<2, false>,
        (3, false) => build::<3, false>,
        (4, false) => build::<4, false>,
        (1, true) => build::<1, true>,
        (2, true) => build::<2, true>,
        (3, true) => build::<3, true>,
        (4, true) => build::<4, true>,
        _ => panic!("the probe is built for depths 1-4"),
    };
    Scenario {
        name: "RecProbe",
        pitfall: None,
        machine: "local-reference",
        error_state: if buggy { "Error:Dangling" } else { "Ok" },
        leaks: false,
        build,
    }
}

/// Every probe variant: depths 1–4, clean then buggy.
pub fn rec_probes() -> Vec<(String, Scenario)> {
    [false, true]
        .into_iter()
        .flat_map(|buggy| {
            (1..=4).map(move |depth| {
                let label = format!(
                    "RecProbe depth {depth} {}",
                    if buggy { "buggy" } else { "clean" }
                );
                (label, rec_probe(depth, buggy))
            })
        })
        .collect()
}
