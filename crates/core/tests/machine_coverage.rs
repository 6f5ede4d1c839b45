//! Per-machine unit tests of the synthesized checker: for each of the
//! eleven machines, one positive case (the violation is detected with the
//! right error state) and one negative case (the closest legal program is
//! not flagged). Also covers the configuration knobs (pedantic visibility,
//! per-machine ablation).

use std::rc::Rc;

use jinn_core::{install, install_with_config, JinnConfig};
use minijni::{typed, JniError, RunOutcome, Session, Vm};
use minijvm::{JRef, JValue, MemberFlags};

type Body = Rc<dyn Fn(&mut minijni::JniEnv<'_>, &[JValue]) -> Result<JValue, JniError>>;

fn run_with(config: Option<JinnConfig>, setup: impl FnOnce(&mut Vm), body: Body) -> RunOutcome {
    let mut vm = Vm::permissive();
    setup(&mut vm);
    let (_c, entry) = vm.define_native_class("cover/T", "m", "(Ljava/lang/Object;)V", true, body);
    let class = vm.jvm().find_class("java/lang/Object").unwrap();
    let oop = vm.jvm_mut().alloc_object(class);
    let thread = vm.jvm().main_thread();
    let arg = JValue::Ref(vm.jvm_mut().new_local(thread, oop));
    let mut session = Session::new(vm);
    match config {
        Some(c) => {
            install_with_config(&mut session, c);
        }
        None => {
            install(&mut session);
        }
    }
    session.run_native(thread, entry, &[arg])
}

fn run(body: Body) -> RunOutcome {
    run_with(None, |_| {}, body)
}

fn expect_violation(outcome: RunOutcome, machine: &str, state: &str) {
    match outcome {
        RunOutcome::CheckerException(v) => {
            assert_eq!(v.machine, machine, "{v}");
            assert_eq!(v.error_state, state, "{v}");
        }
        other => panic!("expected [{machine}/{state}], got {other:?}"),
    }
}

fn expect_clean(outcome: RunOutcome) {
    assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");
}

// --- machine 1: jnienv-state -------------------------------------------------

#[test]
fn m1_env_mismatch_detected() {
    let mut vm = Vm::permissive();
    let other = vm.jvm_mut().spawn_thread();
    let token = vm.jvm().thread(other).env();
    let (_c, entry) = vm.define_native_class(
        "cover/Env",
        "m",
        "()V",
        true,
        Rc::new(move |env, _| {
            env.set_presented_env(token);
            typed::get_version(env)?;
            Ok(JValue::Void)
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    install(&mut session);
    expect_violation(
        session.run_native(thread, entry, &[]),
        "jnienv-state",
        "Error:EnvMismatch",
    );
}

// --- machine 2: exception-state ------------------------------------------------

#[test]
fn m2_sensitive_call_with_pending_detected_oblivious_allowed() {
    expect_violation(
        run(Rc::new(|env, _| {
            let rte = typed::find_class(env, "java/lang/RuntimeException")?;
            typed::throw_new(env, rte, "pending")?;
            // ExceptionCheck/Occurred/Describe/Clear are oblivious:
            assert!(typed::exception_check(env)?);
            let _ = typed::exception_occurred(env)?;
            // ...but GetVersion is sensitive.
            typed::get_version(env)?;
            Ok(JValue::Void)
        })),
        "exception-state",
        "Error:SensitiveCallWithPending",
    );
    expect_clean(run(Rc::new(|env, _| {
        let rte = typed::find_class(env, "java/lang/RuntimeException")?;
        typed::throw_new(env, rte, "pending")?;
        typed::exception_clear(env)?; // handled properly
        typed::get_version(env)?;
        Ok(JValue::Void)
    })));
}

// --- machine 3: critical-section -------------------------------------------------

#[test]
fn m3_sensitive_call_in_critical_detected_insensitive_allowed() {
    expect_violation(
        run(Rc::new(|env, _| {
            let s = typed::new_string_utf(env, "x")?;
            let pin = typed::get_string_critical(env, s)?;
            typed::get_version(env)?; // sensitive!
            typed::release_string_critical(env, s, pin)?;
            Ok(JValue::Void)
        })),
        "critical-section",
        "Error:SensitiveCallInCritical",
    );
    expect_clean(run(Rc::new(|env, _| {
        let s = typed::new_string_utf(env, "x")?;
        let a = typed::new_int_array(env, 2)?;
        let p1 = typed::get_string_critical(env, s)?;
        // Nested acquisition of another critical resource is the one legal
        // thing to do inside a critical section.
        let p2 = typed::get_primitive_array_critical(env, a)?;
        typed::release_primitive_array_critical(env, a, p2, 0)?;
        typed::release_string_critical(env, s, p1)?;
        typed::get_version(env)?; // fine now
        Ok(JValue::Void)
    })));
}

#[test]
fn m3_unmatched_release_detected() {
    expect_violation(
        run(Rc::new(|env, _| {
            let s = typed::new_string_utf(env, "x")?;
            let pin = typed::get_string_chars(env, s)?; // NOT critical
            typed::release_string_critical(env, s, pin)?;
            Ok(JValue::Void)
        })),
        "critical-section",
        "Error:UnmatchedRelease",
    );
}

// --- machine 4: fixed-typing ---------------------------------------------------

#[test]
fn m4_fixed_type_mismatch_detected_conforming_allowed() {
    expect_violation(
        run(Rc::new(|env, args| {
            let obj = args[0].as_ref().unwrap();
            // A plain object where GetStringLength requires a jstring.
            let _ = typed::get_string_length(env, obj)?;
            Ok(JValue::Void)
        })),
        "fixed-typing",
        "Error:FixedTypeMismatch",
    );
    expect_clean(run(Rc::new(|env, _| {
        let s = typed::new_string_utf(env, "ok")?;
        assert_eq!(typed::get_string_length(env, s)?, 2);
        Ok(JValue::Void)
    })));
}

// --- machine 5: entity-typing ----------------------------------------------------

#[test]
fn m5_forged_id_detected() {
    expect_violation(
        run(Rc::new(|env, args| {
            let obj = args[0].as_ref().unwrap();
            typed::call_void_method_a(env, obj, minijvm::MethodId::forged(0xDEAD_0001), &[])?;
            Ok(JValue::Void)
        })),
        "entity-typing",
        "Error:EntityTypeMismatch",
    );
}

#[test]
fn m5_staticness_and_arity_checked() {
    let setup = |vm: &mut Vm| {
        vm.define_managed_class(
            "cover/Target",
            "twice",
            "(I)I",
            true,
            Rc::new(|_env, args| Ok(JValue::Int(args[0].as_int().unwrap_or(0) * 2))),
        );
    };
    // Static method invoked virtually: violation.
    expect_violation(
        run_with(
            None,
            setup,
            Rc::new(|env, args| {
                let obj = args[0].as_ref().unwrap();
                let clazz = typed::find_class(env, "cover/Target")?;
                let mid = typed::get_static_method_id(env, clazz, "twice", "(I)I")?;
                let _ = typed::call_int_method_a(env, obj, mid, &[JValue::Int(1)])?;
                Ok(JValue::Void)
            }),
        ),
        "entity-typing",
        "Error:EntityTypeMismatch",
    );
    // Wrong arity: violation.
    expect_violation(
        run_with(
            None,
            setup,
            Rc::new(|env, _| {
                let clazz = typed::find_class(env, "cover/Target")?;
                let mid = typed::get_static_method_id(env, clazz, "twice", "(I)I")?;
                let _ = typed::call_static_int_method_a(env, clazz, mid, &[])?;
                Ok(JValue::Void)
            }),
        ),
        "entity-typing",
        "Error:EntityTypeMismatch",
    );
    // Wrong primitive type: violation.
    expect_violation(
        run_with(
            None,
            setup,
            Rc::new(|env, _| {
                let clazz = typed::find_class(env, "cover/Target")?;
                let mid = typed::get_static_method_id(env, clazz, "twice", "(I)I")?;
                let _ = typed::call_static_int_method_a(env, clazz, mid, &[JValue::Long(1)])?;
                Ok(JValue::Void)
            }),
        ),
        "entity-typing",
        "Error:EntityTypeMismatch",
    );
    // Conforming call: clean.
    expect_clean(run_with(
        None,
        setup,
        Rc::new(|env, _| {
            let clazz = typed::find_class(env, "cover/Target")?;
            let mid = typed::get_static_method_id(env, clazz, "twice", "(I)I")?;
            assert_eq!(
                typed::call_static_int_method_a(env, clazz, mid, &[JValue::Int(21)])?,
                42
            );
            Ok(JValue::Void)
        }),
    ));
}

// --- machine 6: access-control ----------------------------------------------------

#[test]
fn m6_final_write_detected_nonfinal_allowed() {
    let setup = |vm: &mut Vm| {
        vm.jvm_mut()
            .registry_mut()
            .define("cover/Conf")
            .field("MAX", "I", MemberFlags::public().with_final(true))
            .field("cur", "I", MemberFlags::public())
            .build()
            .unwrap();
    };
    let body = |field: &'static str| -> Body {
        Rc::new(move |env, _| {
            let clazz = typed::find_class(env, "cover/Conf")?;
            let obj = typed::alloc_object(env, clazz)?;
            let fid = typed::get_field_id(env, clazz, field, "I")?;
            typed::set_int_field(env, obj, fid, 1)?;
            Ok(JValue::Void)
        })
    };
    expect_violation(
        run_with(None, setup, body("MAX")),
        "access-control",
        "Error:FinalFieldWrite",
    );
    expect_clean(run_with(None, setup, body("cur")));
}

// --- machine 7: nullness ------------------------------------------------------------

#[test]
fn m7_null_argument_detected_nullable_allowed() {
    expect_violation(
        run(Rc::new(|env, _| {
            typed::get_object_class(env, JRef::NULL)?;
            Ok(JValue::Void)
        })),
        "nullness",
        "Error:Null",
    );
    // NewGlobalRef's argument is nullable by spec.
    expect_clean(run(Rc::new(|env, _| {
        let g = typed::new_global_ref(env, JRef::NULL)?;
        assert!(g.is_null());
        Ok(JValue::Void)
    })));
}

// --- machine 8: pinned-buffer ---------------------------------------------------------

#[test]
fn m8_double_free_detected_matched_release_allowed() {
    expect_violation(
        run(Rc::new(|env, _| {
            let a = typed::new_int_array(env, 2)?;
            let pin = typed::get_int_array_elements(env, a)?;
            typed::release_int_array_elements(env, a, pin, 0)?;
            typed::release_int_array_elements(env, a, pin, 0)?;
            Ok(JValue::Void)
        })),
        "pinned-buffer",
        "Error:DoubleFree",
    );
}

#[test]
fn m8_kind_mismatch_detected() {
    expect_violation(
        run(Rc::new(|env, _| {
            let s = typed::new_string_utf(env, "x")?;
            let pin = typed::get_string_chars(env, s)?;
            // Released through the UTF variant: wrong family.
            typed::release_string_utf_chars(env, s, pin)?;
            Ok(JValue::Void)
        })),
        "pinned-buffer",
        "Error:DoubleFree",
    );
}

#[test]
fn m8_leak_reported_at_death() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "cover/Pin",
        "m",
        "()V",
        true,
        Rc::new(|env, _| {
            let s = typed::new_string_utf(env, "kept")?;
            let _pin = typed::get_string_utf_chars(env, s)?;
            Ok(JValue::Void)
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    install(&mut session);
    expect_clean(session.run_native(thread, entry, &[]));
    let reports = session.shutdown();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert_eq!(reports[0].violation.machine, "pinned-buffer");
    assert_eq!(reports[0].violation.error_state, "Error:Leak");
}

// --- machine 9: monitor -----------------------------------------------------------------

#[test]
fn m9_monitor_leak_reported_balanced_clean() {
    let leak: Body = Rc::new(|env, args| {
        let obj = args[0].as_ref().unwrap();
        typed::monitor_enter(env, obj)?;
        Ok(JValue::Void)
    });
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class("cover/Mon", "m", "(Ljava/lang/Object;)V", true, leak);
    let class = vm.jvm().find_class("java/lang/Object").unwrap();
    let oop = vm.jvm_mut().alloc_object(class);
    let thread = vm.jvm().main_thread();
    let arg = JValue::Ref(vm.jvm_mut().new_local(thread, oop));
    let mut session = Session::new(vm);
    install(&mut session);
    expect_clean(session.run_native(thread, entry, &[arg]));
    let reports = session.shutdown();
    assert!(
        reports
            .iter()
            .any(|r| r.violation.machine == "monitor" && r.violation.error_state == "Error:Leak"),
        "{reports:?}"
    );

    expect_clean(run(Rc::new(|env, args| {
        let obj = args[0].as_ref().unwrap();
        typed::monitor_enter(env, obj)?;
        typed::monitor_exit(env, obj)?;
        Ok(JValue::Void)
    })));
}

// --- machine 10: global-reference ----------------------------------------------------------

#[test]
fn m10_dangling_global_use_detected() {
    expect_violation(
        run(Rc::new(|env, args| {
            let obj = args[0].as_ref().unwrap();
            let g = typed::new_global_ref(env, obj)?;
            typed::delete_global_ref(env, g)?;
            typed::get_object_class(env, g)?;
            Ok(JValue::Void)
        })),
        "global-reference",
        "Error:Dangling",
    );
}

#[test]
fn m10_double_delete_detected_and_weak_refs_tracked() {
    expect_violation(
        run(Rc::new(|env, args| {
            let obj = args[0].as_ref().unwrap();
            let g = typed::new_global_ref(env, obj)?;
            typed::delete_global_ref(env, g)?;
            typed::delete_global_ref(env, g)?;
            Ok(JValue::Void)
        })),
        "global-reference",
        "Error:Dangling",
    );
    expect_clean(run(Rc::new(|env, args| {
        let obj = args[0].as_ref().unwrap();
        let w = typed::new_weak_global_ref(env, obj)?;
        let _ = typed::is_same_object(env, w, JRef::NULL)?;
        typed::delete_weak_global_ref(env, w)?;
        Ok(JValue::Void)
    })));
}

// --- machine 11: local-reference ---------------------------------------------------------------

#[test]
fn m11_overflow_at_the_17th_reference() {
    let outcome = run(Rc::new(|env, args| {
        let obj = args[0].as_ref().unwrap();
        for _ in 0..17 {
            typed::new_local_ref(env, obj)?;
        }
        Ok(JValue::Void)
    }));
    match outcome {
        RunOutcome::CheckerException(v) => {
            assert_eq!(v.error_state, "Error:Overflow");
            assert!(v.message.contains("17"), "{}", v.message);
        }
        other => panic!("{other:?}"),
    }
    // EnsureLocalCapacity legalizes the same program.
    expect_clean(run(Rc::new(|env, args| {
        let obj = args[0].as_ref().unwrap();
        typed::ensure_local_capacity(env, 64)?;
        for _ in 0..17 {
            typed::new_local_ref(env, obj)?;
        }
        Ok(JValue::Void)
    })));
}

#[test]
fn m11_frame_leak_and_unmatched_pop() {
    // A pushed frame that is never popped is reported at native return.
    let outcome = run(Rc::new(|env, _| {
        typed::push_local_frame(env, 8)?;
        Ok(JValue::Void)
    }));
    expect_violation(outcome, "local-reference", "Error:FrameLeak");
    // Popping a frame that was never pushed.
    expect_violation(
        run(Rc::new(|env, _| {
            typed::pop_local_frame(env, JRef::NULL)?;
            Ok(JValue::Void)
        })),
        "local-reference",
        "Error:DoubleFree",
    );
}

#[test]
fn m11_cross_thread_local_use_detected() {
    let mut vm = Vm::permissive();
    let stash: Rc<std::cell::RefCell<Option<JRef>>> = Rc::default();
    let (_c1, steal) = {
        let stash = Rc::clone(&stash);
        vm.define_native_class(
            "cover/Steal",
            "m",
            "(Ljava/lang/Object;)V",
            true,
            Rc::new(move |_env, args| {
                *stash.borrow_mut() = args[0].as_ref();
                Ok(JValue::Void)
            }),
        )
    };
    let (_c2, usr) = {
        let stash = Rc::clone(&stash);
        vm.define_native_class(
            "cover/Use",
            "m",
            "()V",
            true,
            Rc::new(move |env, _| {
                let r = stash.borrow().unwrap();
                typed::get_object_class(env, r)?;
                Ok(JValue::Void)
            }),
        )
    };
    let class = vm.jvm().find_class("java/lang/Object").unwrap();
    let oop = vm.jvm_mut().alloc_object(class);
    let main = vm.jvm().main_thread();
    let worker = vm.jvm_mut().spawn_thread();
    let arg = JValue::Ref(vm.jvm_mut().new_local(main, oop));
    let mut session = Session::new(vm);
    install(&mut session);
    // `steal` runs on main and stashes a main-thread local ref that stays
    // live; `usr` runs on the worker and uses it across threads.
    expect_clean(session.run_native(main, steal, &[arg]));
    // Keep the stashed ref live on main: re-stash a fresh one directly.
    let oop2 = {
        let class = session.vm().jvm().find_class("java/lang/Object").unwrap();
        session.vm_mut().jvm_mut().alloc_object(class)
    };
    let fresh = session.vm_mut().jvm_mut().new_local(main, oop2);
    *stash.borrow_mut() = Some(fresh);
    match session.run_native(worker, usr, &[]) {
        RunOutcome::CheckerException(v) => {
            assert_eq!(v.machine, "local-reference");
            assert!(v.message.contains("thread"), "{}", v.message);
        }
        other => panic!("cross-thread use missed: {other:?}"),
    }
}

// --- configuration knobs --------------------------------------------------------------------

#[test]
fn pedantic_visibility_flags_private_access_default_does_not() {
    let setup = |vm: &mut Vm| {
        vm.jvm_mut()
            .registry_mut()
            .define("cover/Secret")
            .field("hidden", "I", MemberFlags::private())
            .build()
            .unwrap();
    };
    let body: fn() -> Body = || {
        Rc::new(|env, _| {
            let clazz = typed::find_class(env, "cover/Secret")?;
            let obj = typed::alloc_object(env, clazz)?;
            let fid = typed::get_field_id(env, clazz, "hidden", "I")?;
            let _ = typed::get_int_field(env, obj, fid)?;
            Ok(JValue::Void)
        })
    };
    // Default Jinn follows the paper: private access is entrenched
    // practice, not an error.
    expect_clean(run_with(None, setup, body()));
    // Pedantic mode enforces the gray zone.
    expect_violation(
        run_with(
            Some(JinnConfig {
                pedantic_visibility: true,
                ..Default::default()
            }),
            setup,
            body(),
        ),
        "entity-typing",
        "Error:EntityTypeMismatch",
    );
}

#[test]
fn ablation_disables_exactly_the_named_machine() {
    let buggy: fn() -> Body = || {
        Rc::new(|env, _| {
            typed::get_object_class(env, JRef::NULL)?;
            Ok(JValue::Void)
        })
    };
    // Full Jinn catches the null argument...
    expect_violation(run_with(None, |_| {}, buggy()), "nullness", "Error:Null");
    // ...Jinn-without-the-nullness-machine does not (the raw permissive
    // VM then raises its NPE).
    let outcome = run_with(
        Some(JinnConfig {
            disabled_machines: vec!["nullness"],
            ..Default::default()
        }),
        |_| {},
        buggy(),
    );
    match outcome {
        RunOutcome::UncaughtException(desc) => {
            assert!(desc.contains("NullPointerException"), "{desc}");
        }
        other => panic!("expected raw NPE, got {other:?}"),
    }
    // Unrelated machines still work with nullness disabled.
    let outcome = run_with(
        Some(JinnConfig {
            disabled_machines: vec!["nullness"],
            ..Default::default()
        }),
        |_| {},
        Rc::new(|env, args| {
            let obj = args[0].as_ref().unwrap();
            let r = typed::new_local_ref(env, obj)?;
            typed::delete_local_ref(env, r)?;
            typed::get_object_class(env, r)?;
            Ok(JValue::Void)
        }),
    );
    expect_violation(outcome, "local-reference", "Error:Dangling");
}

// --- report backtraces ---------------------------------------------------------

/// Runs `body` as `cover/Bt.m` called from a Java `Caller.main` frame and
/// returns the backtrace of the violation it raises.
fn backtrace_of(body: Body) -> Vec<String> {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class("cover/Bt", "m", "()Ljava/lang/String;", true, body);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    install(&mut session);
    session
        .env(thread)
        .enter_java_frame("Caller.main(Caller.java:5)");
    match session.run_native(thread, entry, &[]) {
        RunOutcome::CheckerException(v) => v.backtrace,
        other => panic!("expected a checker exception, got {other:?}"),
    }
}

#[test]
fn every_report_lists_the_native_frame_first() {
    let innermost_first = ["cover.Bt.m(Native Method)", "Caller.main(Caller.java:5)"];
    // Pre-call report (a dangling argument to a JNI function).
    let pre = backtrace_of(Rc::new(|env, _| {
        let s = typed::new_string_utf(env, "x")?;
        typed::delete_local_ref(env, s)?;
        typed::get_string_utf_length(env, s)?;
        Ok(JValue::NULL)
    }));
    assert_eq!(pre, innermost_first);
    // Native-exit report: returning a deleted local reference.
    let returned = backtrace_of(Rc::new(|env, _| {
        let s = typed::new_string_utf(env, "x")?;
        typed::delete_local_ref(env, s)?;
        Ok(JValue::Ref(s))
    }));
    assert_eq!(returned, innermost_first);
    // Native-exit report: a pushed frame never popped.
    let leaked = backtrace_of(Rc::new(|env, _| {
        typed::push_local_frame(env, 8)?;
        Ok(JValue::NULL)
    }));
    assert_eq!(leaked, innermost_first);
}
