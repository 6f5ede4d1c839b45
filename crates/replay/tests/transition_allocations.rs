//! Allocation regression test for the checked language-transition path.
//!
//! Replaying a trace under `jinn` crosses the same substrate as replaying
//! it under plain `hotspot`, plus the interposition seam and the checker.
//! Neither of those may heap-allocate per transition: Jinn's allocations
//! beyond HotSpot's must be a per-session constant (table, maps, frames),
//! not a per-call cost that grows with the trace.
//!
//! The counting allocator lives alone in this test binary and counts per
//! thread, so the test harness's own threads do not disturb the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use jinn_microbench::Setup;
use jinn_replay::{record_program, replay_trace, Program, ReplayConfig, Trace};
use minijni::typed;
use minijvm::JValue;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A bug-free program whose native method round-trips `strings` strings
/// (allocate, measure, delete) per call, called `calls` times.
fn churn(calls: usize, strings: u32) -> Trace {
    let program = Program {
        name: "AllocChurn".into(),
        pitfall: None,
        machine: "local-reference",
        error_state: "Ok",
        leaks: false,
        gc_period: Some(64),
        build: Box::new(move |vm| {
            let (_, entry) = vm.define_native_class(
                "bench/AllocChurn",
                "churn",
                "()V",
                true,
                Rc::new(move |env, _| {
                    for i in 0..strings {
                        let s = typed::new_string_utf(env, &format!("churn-{i}"))?;
                        typed::get_string_utf_length(env, s)?;
                        typed::delete_local_ref(env, s)?;
                    }
                    Ok(JValue::Void)
                }),
            );
            Setup {
                entries: vec![entry; calls],
                first_args: Vec::new(),
            }
        }),
    };
    Trace::parse(&record_program(&program)).expect("recorded trace parses")
}

/// Jinn's allocations beyond HotSpot's when replaying `trace`.
fn jinn_extra_allocations(trace: &Trace) -> i64 {
    let hotspot = ReplayConfig::parse("hotspot").expect("config");
    let jinn = ReplayConfig::parse("jinn").expect("config");
    let mut outcomes = Vec::new();
    let base = allocations_during(|| outcomes.push(replay_trace(trace, &hotspot)));
    let checked = allocations_during(|| outcomes.push(replay_trace(trace, &jinn)));
    for outcome in outcomes {
        let outcome = outcome.expect("trace replays");
        assert_eq!(outcome.divergences, 0, "{}", outcome.label);
        assert!(outcome.violations.is_empty(), "{}", outcome.label);
    }
    checked as i64 - base as i64
}

#[test]
fn checked_transitions_do_not_allocate() {
    let short = churn(10, 200);
    let long = churn(10, 400);
    // Warm the process-wide caches (the synthesized check table) first.
    jinn_extra_allocations(&short);
    let extra_short = jinn_extra_allocations(&short);
    let extra_long = jinn_extra_allocations(&long);
    // The long trace makes 3 × 2,000 more JNI calls than the short one.
    assert!(
        extra_long - extra_short <= 16,
        "Jinn's extra allocations grow with the trace: {extra_short} at 10x200, \
         {extra_long} at 10x400"
    );
}
