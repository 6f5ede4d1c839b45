//! Measures the cost of the observability recorder on a JNI-heavy
//! workload: recorder disabled (the production default) vs recorder
//! enabled with the default ring and the full trace policy.
//!
//! ```text
//! cargo run --release -p jinn-bench --bin obs_overhead
//! JINN_CALLS=500 JINN_TRIALS=7 cargo run --release -p jinn-bench --bin obs_overhead
//! JINN_OBS_MAX_OVERHEAD=1.5 cargo run --release -p jinn-bench --bin obs_overhead
//! ```
//!
//! Prints a JSON document (the `BENCH_obs_overhead.json` artifact) on
//! stdout. `JINN_WARMUP` full-scale warm-up trials of *each* treatment
//! run first and are excluded from the medians (JIT-free Rust still
//! needs its allocator, page tables, and branch predictors warm). If
//! the measured trials spread by more than `JINN_MAX_NOISE` the run
//! aborts without printing an artifact — a noisy artifact is worse
//! than none. If `JINN_OBS_MAX_OVERHEAD` is set, the run fails when
//! the enabled/disabled ratio exceeds it — the CI regression gate.

use jinn_bench::obs::{median_nanos, time_churn};
use jinn_bench::{env_u64, layer_members};
use jinn_obs::{Recorder, DEFAULT_RING_CAPACITY};

fn main() {
    let calls = env_u64("JINN_CALLS", 200) as u32;
    let strings = env_u64("JINN_STRINGS", 64) as u32;
    let trials = (env_u64("JINN_TRIALS", 5) as usize).max(1);
    let warmup = env_u64("JINN_WARMUP", 2) as usize;
    let max_noise = std::env::var("JINN_MAX_NOISE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.5);
    let gate = std::env::var("JINN_OBS_MAX_OVERHEAD")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());

    // Warm-up at full scale, both treatments, excluded from measurement.
    for _ in 0..warmup {
        time_churn(Recorder::disabled(), calls, strings);
        time_churn(Recorder::enabled(DEFAULT_RING_CAPACITY), calls, strings);
    }

    let mut disabled = Vec::with_capacity(trials);
    let mut enabled = Vec::with_capacity(trials);
    for _ in 0..trials {
        disabled.push(time_churn(Recorder::disabled(), calls, strings).as_nanos());
        enabled
            .push(time_churn(Recorder::enabled(DEFAULT_RING_CAPACITY), calls, strings).as_nanos());
    }
    let med_off = median_nanos(disabled.clone());
    let med_on = median_nanos(enabled.clone());
    let ratio = med_on as f64 / med_off as f64;
    let spread = |samples: &[u128]| {
        let min = *samples.iter().min().expect("non-empty");
        let max = *samples.iter().max().expect("non-empty");
        (max as f64 - min as f64) / min as f64
    };
    let noise = spread(&disabled).max(spread(&enabled));
    assert!(
        noise <= max_noise,
        "trial spread {noise:.4} exceeds JINN_MAX_NOISE={max_noise}: \
         the machine is too noisy for a trustworthy artifact; re-run \
         (or raise JINN_MAX_NOISE if a rough number is acceptable)"
    );

    let list = |samples: &[u128]| {
        samples
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("{{");
    println!(
        "  \"benchmark\": \"jni-churn (strings across the JNI seam, Jinn checker attached)\","
    );
    print!(
        "{}",
        layer_members("recording (jinn-obs recorder on a live checked run)", true)
    );
    println!("  \"native_calls_per_trial\": {calls},");
    println!("  \"jni_roundtrips_per_call\": {strings},");
    println!("  \"trials\": {trials},");
    println!("  \"warmup_trials_excluded\": {warmup},");
    println!("  \"ring_capacity\": {DEFAULT_RING_CAPACITY},");
    println!("  \"trace_policy\": \"full (every label traced, latency timers on)\",");
    println!("  \"recorder_disabled_nanos\": [{}],", list(&disabled));
    println!("  \"recorder_enabled_nanos\": [{}],", list(&enabled));
    println!("  \"median_disabled_nanos\": {med_off},");
    println!("  \"median_enabled_nanos\": {med_on},");
    println!("  \"enabled_over_disabled\": {ratio:.4},");
    println!("  \"trial_noise_spread\": {noise:.4},");
    println!(
        "  \"enabled_within_noise\": {},",
        (ratio - 1.0).abs() <= noise
    );
    println!(
        "  \"note\": \"the disabled recorder (the default) adds one Option branch per \
         instrumentation site; enabled, every site encodes a fixed-width record into the \
         thread's private SPSC ring by pre-interned label id\""
    );
    println!("}}");

    if let Some(max) = gate {
        assert!(
            ratio <= max,
            "enabled/disabled overhead {ratio:.4} exceeds the JINN_OBS_MAX_OVERHEAD={max} gate"
        );
        eprintln!("overhead gate: {ratio:.4} <= {max} ok");
    }
}
