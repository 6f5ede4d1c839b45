//! The C code-generation backend of the synthesizer.
//!
//! The paper reports that from ~1,400 lines of state machine and mapping
//! code, the synthesizer generates **22,000+ lines** of wrapper code
//! (Figures 3 and 4 show two generated wrappers). This module is that
//! backend: it prints, for every one of the 229 JNI functions, a C wrapper
//! whose body interleaves the synthesized pre-call checks, the call to the
//! wrapped function, and the post-return transitions. The `codegen_stats`
//! experiment counts the output against the specification input to
//! reproduce the annotation-burden claim.
//!
//! The generated code is illustrative C in the style of the paper's
//! figures; the *executable* form of the same table is interpreted by
//! [`crate::Jinn`].

use std::fmt::Write as _;

use jinn_spec::{Check, EntityCallMode, InstrPoint};
use minijni::registry::{ParamKind, RetKind};
use minijni::{registry, FuncSpec};

use crate::synth::synthesize;

/// Line statistics of one generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenStats {
    /// Wrapper functions emitted (one per JNI function).
    pub functions: usize,
    /// Synthesized checks expanded into the wrappers.
    pub checks: usize,
    /// Total non-blank generated lines.
    pub generated_lines: usize,
    /// Non-comment lines of specification input (machines + mapping).
    pub spec_lines: usize,
}

fn c_type(kind: &ParamKind) -> &'static str {
    match kind {
        ParamKind::Ref => "jobject",
        ParamKind::MethodId => "jmethodID",
        ParamKind::FieldId => "jfieldID",
        ParamKind::Prim(p) => match p {
            minijvm::PrimType::Boolean => "jboolean",
            minijvm::PrimType::Byte => "jbyte",
            minijvm::PrimType::Char => "jchar",
            minijvm::PrimType::Short => "jshort",
            minijvm::PrimType::Int => "jint",
            minijvm::PrimType::Long => "jlong",
            minijvm::PrimType::Float => "jfloat",
            minijvm::PrimType::Double => "jdouble",
        },
        ParamKind::Size => "jsize",
        ParamKind::Mode => "jint",
        ParamKind::Name => "const char*",
        ParamKind::Buffer => "void*",
        ParamKind::Args => "const jvalue*",
        ParamKind::IsCopyOut => "jboolean*",
        ParamKind::VmOut => "JavaVM**",
    }
}

fn c_ret_type(ret: RetKind) -> &'static str {
    match ret {
        RetKind::Void => "void",
        RetKind::Prim(p) => match p {
            minijvm::PrimType::Boolean => "jboolean",
            minijvm::PrimType::Byte => "jbyte",
            minijvm::PrimType::Char => "jchar",
            minijvm::PrimType::Short => "jshort",
            minijvm::PrimType::Int => "jint",
            minijvm::PrimType::Long => "jlong",
            minijvm::PrimType::Float => "jfloat",
            minijvm::PrimType::Double => "jdouble",
        },
        RetKind::LocalRef | RetKind::GlobalRef | RetKind::WeakRef => "jobject",
        RetKind::MethodId => "jmethodID",
        RetKind::FieldId => "jfieldID",
        RetKind::Size => "jint",
        RetKind::Pin => "void*",
        RetKind::Address => "void*",
    }
}

fn default_c_value(ret: RetKind) -> &'static str {
    match ret {
        RetKind::Void => "",
        RetKind::Prim(_) | RetKind::Size => "0",
        _ => "NULL",
    }
}

fn param_name(spec: &FuncSpec, idx: usize) -> &str {
    spec.params[idx].name
}

fn emit_pre_check(out: &mut String, spec: &FuncSpec, point: &InstrPoint, fail: &str) {
    let fname = &spec.name;
    match point.check {
        Check::EnvMatches => {
            let _ = writeln!(out, "  /* [{}] JNIEnv* state */", point.machine);
            let _ = writeln!(out, "  if (jinn_env_of_current_thread() != env) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"JNIEnv* mismatch in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::NoPendingException => {
            let _ = writeln!(out, "  /* [{}] exception state */", point.machine);
            let _ = writeln!(out, "  if (jinn_exception_pending(env)) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"An exception is pending in {fname}.\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::CriticalSensitive => {
            let _ = writeln!(out, "  /* [{}] critical-section state */", point.machine);
            let _ = writeln!(out, "  if (jinn_critical_depth(env) > 0) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"{fname} called in a JNI critical section\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::CriticalRelease => {
            let _ = writeln!(out, "  /* [{}] critical release matching */", point.machine);
            let _ = writeln!(
                out,
                "  if (!jinn_critical_release(env, {})) {{",
                param_name(spec, 1)
            );
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"unmatched critical release in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::FixedType { param } => {
            let p = param_name(spec, param as usize);
            let expected = spec.params[param as usize].fixed_types.join("|");
            let _ = writeln!(out, "  /* [{}] fixed typing of `{p}` */", point.machine);
            let _ = writeln!(out, "  if ({p} != NULL) {{");
            let _ = writeln!(
                out,
                "    jclass jinn_cls_{p} = jinn_GetObjectClass(env, {p});"
            );
            let _ = writeln!(
                out,
                "    if (!jinn_conforms(env, jinn_cls_{p}, \"{expected}\")) {{"
            );
            let _ = writeln!(
                out,
                "      return jinn_throw_JNIException(env, \"`{p}` must conform to {expected} in {fname}\"){fail};"
            );
            let _ = writeln!(out, "    }}");
            let _ = writeln!(out, "  }}");
        }
        Check::EntityCall { mode } => {
            let (recv, mid) = match mode {
                EntityCallMode::Virtual => ("obj", "methodID"),
                EntityCallMode::Nonvirtual => ("obj", "methodID"),
                EntityCallMode::Static | EntityCallMode::Constructor => ("clazz", "methodID"),
            };
            let _ = writeln!(out, "  /* [{}] entity-specific typing */", point.machine);
            let _ = writeln!(out, "  {{");
            let _ = writeln!(out, "    jinn_method_t* m = jinn_lookup_method({mid});");
            let _ = writeln!(out, "    if (m == NULL) {{");
            let _ = writeln!(
                out,
                "      return jinn_throw_JNIException(env, \"method ID never issued in {fname}\"){fail};"
            );
            let _ = writeln!(out, "    }}");
            let _ = writeln!(out, "    if (!jinn_check_receiver(env, m, {recv}) ||");
            let _ = writeln!(out, "        !jinn_check_actuals(env, m, args)) {{");
            let _ = writeln!(
                out,
                "      return jinn_throw_JNIException(env, \"arguments do not conform in {fname}\"){fail};"
            );
            let _ = writeln!(out, "    }}");
            let _ = writeln!(out, "  }}");
        }
        Check::EntityFieldAccess { stat, write } => {
            let recv = if stat { "clazz" } else { "obj" };
            let _ = writeln!(out, "  /* [{}] entity-specific typing */", point.machine);
            let _ = writeln!(out, "  {{");
            let _ = writeln!(out, "    jinn_field_t* f = jinn_lookup_field(fieldID);");
            let _ = writeln!(
                out,
                "    if (f == NULL || !jinn_check_field(env, f, {recv}, {})) {{",
                write as u8
            );
            let _ = writeln!(
                out,
                "      return jinn_throw_JNIException(env, \"field access does not conform in {fname}\"){fail};"
            );
            let _ = writeln!(out, "    }}");
            let _ = writeln!(out, "  }}");
        }
        Check::KnownMethodId { param } => {
            let p = param_name(spec, param as usize);
            let _ = writeln!(out, "  /* [{}] entity ID validity */", point.machine);
            let _ = writeln!(out, "  if (jinn_lookup_method({p}) == NULL) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"method ID never issued in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::KnownFieldId { param } => {
            let p = param_name(spec, param as usize);
            let _ = writeln!(out, "  /* [{}] entity ID validity */", point.machine);
            let _ = writeln!(out, "  if (jinn_lookup_field({p}) == NULL) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"field ID never issued in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::FinalFieldGuard => {
            let _ = writeln!(out, "  /* [{}] access control */", point.machine);
            let _ = writeln!(out, "  if (jinn_field_is_final(fieldID)) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"{fname} assigns to a final field\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::NonNull { param } => {
            let p = param_name(spec, param as usize);
            let _ = writeln!(out, "  /* [{}] nullness of `{p}` */", point.machine);
            let _ = writeln!(out, "  if ({p} == NULL) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"`{p}` must not be null in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::PinRelease { param } => {
            let p = param_name(spec, param as usize);
            let _ = writeln!(out, "  /* [{}] pinned buffer release */", point.machine);
            let _ = writeln!(out, "  if (!jinn_pin_release(env, {p})) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"double free of pinned buffer in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::RefUse { param } => {
            let p = param_name(spec, param as usize);
            let table = if point.machine == "local-reference" {
                "locals"
            } else {
                "globals"
            };
            let _ = writeln!(out, "  /* [{}] use of `{p}` */", point.machine);
            let _ = writeln!(
                out,
                "  if ({p} != NULL && jinn_ref_kind({p}) == JINN_{}_REF) {{",
                if point.machine == "local-reference" {
                    "LOCAL"
                } else {
                    "GLOBAL"
                }
            );
            let _ = writeln!(out, "    jinn_ref_set_t* refs_{p} = jinn_{table}(env);");
            let _ = writeln!(out, "    if (!jinn_refs_contains(refs_{p}, {p})) {{");
            let _ = writeln!(
                out,
                "      return jinn_throw_JNIException(env, \"Error: dangling `{p}` in {fname}\"){fail};"
            );
            let _ = writeln!(out, "    }}");
            let _ = writeln!(out, "  }}");
        }
        Check::GlobalRelease { param } => {
            let p = param_name(spec, param as usize);
            let _ = writeln!(out, "  /* [{}] global release */", point.machine);
            let _ = writeln!(out, "  if (!jinn_global_release(env, {p})) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"double delete of global ref in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::LocalDelete { param } => {
            let p = param_name(spec, param as usize);
            let _ = writeln!(out, "  /* [{}] local release */", point.machine);
            let _ = writeln!(out, "  if (!jinn_local_release(env, {p})) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"double delete of local ref in {fname}\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        Check::FramePop => {
            let _ = writeln!(out, "  /* [{}] frame balance */", point.machine);
            let _ = writeln!(out, "  if (!jinn_frame_pop(env)) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"{fname} pops a frame that was never pushed\"){fail};"
            );
            let _ = writeln!(out, "  }}");
        }
        _ => {}
    }
}

fn emit_post_check(out: &mut String, spec: &FuncSpec, point: &InstrPoint) {
    match point.check {
        Check::RecordMethodId => {
            let _ = writeln!(out, "  /* [{}] record entity signature */", point.machine);
            let _ = writeln!(out, "  jinn_record_method(env, jinn_result);");
        }
        Check::RecordFieldId => {
            let _ = writeln!(out, "  /* [{}] record entity signature */", point.machine);
            let _ = writeln!(out, "  jinn_record_field(env, jinn_result);");
        }
        Check::CriticalAcquire => {
            let _ = writeln!(out, "  /* [{}] critical acquire */", point.machine);
            let _ = writeln!(
                out,
                "  jinn_critical_acquire(env, {});",
                param_name(spec, 0)
            );
        }
        Check::PinAcquire => {
            let _ = writeln!(out, "  /* [{}] pin acquire */", point.machine);
            let _ = writeln!(
                out,
                "  jinn_pin_acquire(env, {}, jinn_result);",
                param_name(spec, 0)
            );
        }
        Check::MonitorAcquire => {
            let _ = writeln!(out, "  /* [{}] monitor acquire */", point.machine);
            let _ = writeln!(out, "  jinn_monitor_acquire(env, {});", param_name(spec, 0));
        }
        Check::MonitorRelease => {
            let _ = writeln!(out, "  /* [{}] monitor release */", point.machine);
            let _ = writeln!(out, "  jinn_monitor_release(env, {});", param_name(spec, 0));
        }
        Check::GlobalAcquire => {
            let _ = writeln!(out, "  /* [{}] global acquire */", point.machine);
            let _ = writeln!(out, "  jinn_global_acquire(env, jinn_result);");
        }
        Check::LocalAcquireFromReturn => {
            let _ = writeln!(out, "  /* [{}] local acquire (+overflow) */", point.machine);
            let _ = writeln!(out, "  if (!jinn_local_acquire(env, jinn_result)) {{");
            let _ = writeln!(
                out,
                "    return jinn_throw_JNIException(env, \"local reference frame overflow in {}\");",
                spec.name
            );
            let _ = writeln!(out, "  }}");
        }
        Check::FramePush => {
            let _ = writeln!(out, "  /* [{}] frame push */", point.machine);
            let _ = writeln!(out, "  jinn_frame_push(env, {});", param_name(spec, 0));
        }
        Check::EnsureCapacity => {
            let _ = writeln!(out, "  /* [{}] capacity raise */", point.machine);
            let _ = writeln!(out, "  jinn_ensure_capacity(env, {});", param_name(spec, 0));
        }
        _ => {}
    }
}

/// Generates the full C wrapper source for all 229 functions.
pub fn generate_c_wrappers() -> (String, CodegenStats) {
    let reg = registry();
    let (table, synth_stats) = synthesize();
    let mut out = String::new();
    let _ = writeln!(out, "/* Generated by the Jinn synthesizer. DO NOT EDIT.");
    let _ = writeln!(
        out,
        " * Input: 11 state machine specifications + languageTransitionsFor"
    );
    let _ = writeln!(
        out,
        " * mapping resolved over the 229-function JNI registry."
    );
    let _ = writeln!(out, " */");
    let _ = writeln!(out, "#include <jni.h>");
    let _ = writeln!(out, "#include \"jinn_runtime.h\"");
    let _ = writeln!(out);

    // Function ids, resolved once at synthesis time: every name in the
    // registry becomes a dense u16 constant (jni.h order), so the
    // generated runtime dispatches, saves, and counts by id — no name
    // lookups on the interposition hot path.
    let _ = writeln!(
        out,
        "/* --- generated function ids (u16, jni.h order) --------------- */"
    );
    let _ = writeln!(out, "enum jinn_func_id {{");
    for (func, spec) in reg.iter() {
        let _ = writeln!(out, "  JINN_FUNC_{} = {},", spec.name, func.0);
    }
    let _ = writeln!(out, "  JINN_FUNC_COUNT = {}", reg.len());
    let _ = writeln!(out, "}};");
    let _ = writeln!(out);

    // Forward declarations (the generated header section).
    let _ = writeln!(
        out,
        "/* --- generated prototypes ------------------------------------ */"
    );
    for (_, spec) in reg.iter() {
        let ret_ty = c_ret_type(spec.ret);
        let mut params = String::from("JNIEnv*");
        for p in &spec.params {
            let _ = write!(params, ", {}", c_type(&p.kind));
        }
        let _ = writeln!(out, "{} jinn_wrapped_{}({});", ret_ty, spec.name, params);
    }
    let _ = writeln!(out);

    let mut checks = 0usize;
    for (func, spec) in reg.iter() {
        let ret_ty = c_ret_type(spec.ret);
        // Variadic forms take `...`/`va_list`; the wrapper marshals into a
        // jvalue array before checking, exactly as Jinn's generated
        // wrappers do.
        let is_variadic_form =
            spec.params.iter().any(|p| p.kind == ParamKind::Args) && !spec.name.ends_with('A');
        let mut params = String::from("JNIEnv* env");
        for p in &spec.params {
            if p.kind == ParamKind::Args && is_variadic_form {
                if spec.name.ends_with('V') {
                    let _ = write!(params, ", va_list {}", p.name);
                } else {
                    let _ = write!(params, ", ...");
                }
            } else {
                let _ = write!(params, ", {} {}", c_type(&p.kind), p.name);
            }
        }
        let _ = writeln!(out, "{} jinn_wrapped_{}({}) {{", ret_ty, spec.name, params);

        // Prologue: thread lookup and transition accounting (the
        // interposition framework cost measured in Table 3 column 4).
        // Accounting is keyed by the synthesis-time function id, not the
        // name, so per-call bookkeeping is an array index.
        let _ = writeln!(out, "  jinn_thread_t* jinn_t = jinn_current_thread();");
        let _ = writeln!(
            out,
            "  jinn_count_transition(jinn_t, JINN_CALL_C_TO_JAVA, JINN_FUNC_{});",
            spec.name
        );
        if is_variadic_form {
            let _ = writeln!(out, "  jvalue jinn_args_buf[JINN_MAX_ARGS];");
            if spec.name.ends_with('V') {
                let _ = writeln!(
                    out,
                    "  const jvalue* args = jinn_marshal_va_list(env, methodID, args_va, jinn_args_buf);"
                );
            } else {
                let _ = writeln!(out, "  va_list jinn_ap;");
                let _ = writeln!(out, "  va_start(jinn_ap, methodID);");
                let _ = writeln!(
                    out,
                    "  const jvalue* args = jinn_marshal_va_list(env, methodID, jinn_ap, jinn_args_buf);"
                );
                let _ = writeln!(out, "  va_end(jinn_ap);");
            }
        }

        // The synthesized throw both raises the exception and returns the
        // function's default value.
        let fail = match default_c_value(spec.ret) {
            "" => String::new(),
            v => format!(", {v}"),
        };
        for step in table.pre(func) {
            emit_pre_check(&mut out, spec, &step.point, &fail);
            checks += 1;
        }

        // The call to the wrapped JNI function (the A-form carries the
        // marshalled arguments for variadic wrappers).
        let callee = if is_variadic_form {
            let base = spec.name.trim_end_matches('V');
            format!("{base}A")
        } else {
            spec.name.clone()
        };
        let arg_list: Vec<&str> = spec.params.iter().map(|p| p.name).collect();
        let call = format!(
            "(*env)->{}(env{}{})",
            callee,
            if arg_list.is_empty() { "" } else { ", " },
            arg_list.join(", ")
        );
        if spec.ret == RetKind::Void {
            let _ = writeln!(out, "  {call};");
        } else {
            let _ = writeln!(out, "  {ret_ty} jinn_result = {call};");
        }

        for step in table.post(func) {
            emit_post_check(&mut out, spec, &step.point);
            checks += 1;
        }
        let _ = writeln!(
            out,
            "  jinn_count_transition(jinn_t, JINN_RETURN_JAVA_TO_C, JINN_FUNC_{});",
            spec.name
        );
        if spec.ret == RetKind::Void {
            let _ = writeln!(out, "}}");
        } else {
            let _ = writeln!(out, "  return jinn_result;");
            let _ = writeln!(out, "}}");
        }
        let _ = writeln!(out);
    }

    // The interposition table: how the agent injects the wrappers into a
    // running JVM through the JVMTI (the analysis driver's work).
    let _ = writeln!(
        out,
        "/* --- generated interposition table ---------------------------- */"
    );
    let _ = writeln!(
        out,
        "void jinn_interpose_all(struct JNINativeInterface_* functions) {{"
    );
    // The saved-function table is indexed by the generated id enum, so
    // un-interposed calls forward through one array read.
    for (_, spec) in reg.iter() {
        let _ = writeln!(
            out,
            "  jinn_saved[JINN_FUNC_{}] = (void (*)()) functions->{};",
            spec.name, spec.name
        );
        let _ = writeln!(
            out,
            "  functions->{} = ({}(*)()) jinn_wrapped_{};",
            spec.name,
            c_ret_type(spec.ret),
            spec.name
        );
    }
    let _ = writeln!(out, "}}");

    let generated_lines = out.lines().filter(|l| !l.trim().is_empty()).count();
    let stats = CodegenStats {
        functions: reg.len(),
        checks,
        generated_lines,
        spec_lines: synth_stats.spec_lines,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_wrappers() {
        let (code, stats) = generate_c_wrappers();
        assert_eq!(stats.functions, 229);
        assert!(code.contains("jinn_wrapped_CallStaticVoidMethodA"));
        assert!(code.contains("jinn_wrapped_GetStringCritical"));
        assert!(code.contains("jinn_throw_JNIException"));
    }

    #[test]
    fn generated_code_dwarfs_the_spec() {
        let (_, stats) = generate_c_wrappers();
        // Paper: ~1,400 spec lines -> 22,000+ generated lines. The exact
        // totals depend on formatting; the *ratio* is the claim.
        assert!(
            stats.generated_lines > 10 * stats.spec_lines,
            "generated {} vs spec {}",
            stats.generated_lines,
            stats.spec_lines
        );
        assert!(
            stats.generated_lines > 10_000,
            "generated {}",
            stats.generated_lines
        );
    }

    #[test]
    fn emits_interned_function_id_enum() {
        use minijni::registry::FuncId;
        let (code, _) = generate_c_wrappers();
        // The enum mirrors the Rust-side registry ids exactly, so the
        // generated C and the checker agree on every function's u16 id.
        assert!(code.contains(&format!(
            "JINN_FUNC_GetVersion = {},",
            FuncId::of("GetVersion").0
        )));
        assert!(code.contains("JINN_FUNC_COUNT = 229"));
        // The interposition table and transition counters are id-keyed.
        assert!(code.contains("jinn_saved[JINN_FUNC_GetVersion]"));
        assert!(code.contains("JINN_CALL_C_TO_JAVA, JINN_FUNC_GetVersion"));
    }

    #[test]
    fn figure_4_shape_is_present() {
        // The wrapper for CallStaticVoidMethodA must contain a dangling
        // reference check before the call, as in Figure 4.
        let (code, _) = generate_c_wrappers();
        let start = code
            .find("jinn_wrapped_CallStaticVoidMethodA(JNIEnv* env")
            .expect("wrapper exists");
        let end = code[start..]
            .find("\n}\n")
            .map(|e| start + e)
            .unwrap_or(code.len());
        let body = &code[start..end];
        assert!(
            body.contains("jinn_refs_contains"),
            "Use check (Figure 4 line 6)"
        );
        assert!(
            body.contains("An exception is pending"),
            "exception state check"
        );
        assert!(
            body.contains("(*env)->CallStaticVoidMethodA"),
            "wrapped call"
        );
    }
}
