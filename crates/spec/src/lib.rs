//! `jinn-spec` — the state-machine specification of the JNI.
//!
//! This crate is the reproduction of the paper's *specification input*:
//! the roughly 1,400 hand-written lines from which the 22,000+ lines of
//! checker are synthesized. It contains exactly two things:
//!
//! * [`machines`]: the **eleven state machines** of Figures 2, 6, 7 and 8,
//!   written in the `jinn-fsm` formalism — three JVM-state machines, four
//!   type machines, four resource machines;
//! * [`instrumentation`]: the `languageTransitionsFor` mapping resolved
//!   against `minijni`'s 229-function registry, yielding the thousands of
//!   concrete (function, phase, machine, check) instrumentation points the
//!   synthesizer expands into wrappers.
//!
//! # Example
//!
//! ```
//! // Render the paper's Figure 2 table for the local-reference machine.
//! let machine = jinn_spec::local_ref();
//! let table = jinn_fsm::ascii_table(&machine);
//! assert!(table.contains("Acquire"));
//! assert!(table.contains("Return:C->Java"));
//!
//! // Count the synthesized checks, Algorithm 1's cross product.
//! let points = jinn_spec::instrumentation();
//! assert!(points.len() > 1500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod instrument;
mod machines;

pub use instrument::{
    instrumentation, BoundaryCheck, Check, EntityCallMode, InstrPoint, Phase, BOUNDARY_CHECKS,
};
pub use machines::{
    access_control, critical_section, entity_typing, exception_state, fixed_typing, global_ref,
    jnienv_state, local_ref, machines, monitor, nullness, pinned_buffer, shared_machines,
    PIN_ACQUIRE_FUNCS, PIN_RELEASE_FUNCS,
};

/// Non-comment source lines of this crate — the paper compares its ~1,400
/// lines of state machine and mapping code against the 22,000+ generated
/// lines; the `codegen_stats` experiment reports the analogous ratio.
pub fn spec_source_lines() -> usize {
    let sources = [
        include_str!("lib.rs"),
        include_str!("machines.rs"),
        include_str!("instrument.rs"),
    ];
    sources
        .iter()
        .flat_map(|s| s.lines())
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!") && !l.starts_with("///")
        })
        .count()
}

#[cfg(test)]
mod tests {
    #[test]
    fn spec_is_concise() {
        let lines = super::spec_source_lines();
        // The paper wrote ~1,400 non-comment lines of spec; ours is of the
        // same order (well under the size of the generated checker).
        assert!(lines > 200, "suspiciously small spec: {lines}");
        assert!(lines < 2500, "spec has grown beyond 'concise': {lines}");
    }
}
