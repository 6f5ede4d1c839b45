//! Measures checker dispatch throughput: the reference `StateStore`
//! (hash map + name/idiom encoding) against the compiled `CompactStore`
//! (dense transition matrix + slab entity map), single-threaded and
//! through the 4-way sharded store.
//!
//! ```text
//! cargo run --release -p jinn-bench --bin dispatch
//! JINN_DISPATCH_EVENTS=200000 JINN_DISPATCH_TRIALS=3 \
//!     cargo run --release -p jinn-bench --bin dispatch
//! ```
//!
//! Prints a JSON document (the `BENCH_dispatch.json` artifact) on
//! stdout. Set `JINN_DISPATCH_MIN_SPEEDUP` (hundredths, e.g. `150` for
//! 1.5x) to turn the run into a gate: the process exits non-zero if the
//! compiled engine's single-thread speedup falls below the floor.

use jinn_bench::dispatch::{
    best_nanos, dispatch_machine, median_nanos, run_lockfree, run_sharded, run_single,
    DispatchConfig,
};
use jinn_bench::{env_u64, layer_members};
use jinn_fsm::{CompactStore, StateStore, DENSE_LIMIT};

fn main() {
    let cfg = DispatchConfig {
        events: env_u64("JINN_DISPATCH_EVENTS", 1_000_000),
        entities: env_u64("JINN_DISPATCH_ENTITIES", 4_096) as u32,
        threads: env_u64("JINN_DISPATCH_THREADS", 4) as usize,
    };
    let trials = (env_u64("JINN_DISPATCH_TRIALS", 5) as usize).max(1);
    let seed = env_u64("JINN_DISPATCH_SEED", 0x5eed);

    // Warm-up, excluded from measurement.
    let warm = DispatchConfig {
        events: cfg.events.min(10_000),
        ..cfg
    };
    run_single::<StateStore<u32>>(&warm, seed);
    run_single::<CompactStore<u32>>(&warm, seed);

    let mut ref_single = Vec::with_capacity(trials);
    let mut cmp_single = Vec::with_capacity(trials);
    let mut ref_sharded = Vec::with_capacity(trials);
    let mut cmp_sharded = Vec::with_capacity(trials);
    let mut lf_sharded = Vec::with_capacity(trials);
    let mut checksums_match = true;
    for _ in 0..trials {
        let a = run_single::<StateStore<u32>>(&cfg, seed);
        let b = run_single::<CompactStore<u32>>(&cfg, seed);
        checksums_match &= a.checksum == b.checksum;
        ref_single.push(a.elapsed.as_nanos());
        cmp_single.push(b.elapsed.as_nanos());
        let a = run_sharded::<StateStore<u32>>(&cfg, seed);
        let b = run_sharded::<CompactStore<u32>>(&cfg, seed);
        let c = run_lockfree(&cfg, seed);
        checksums_match &= a.checksum == b.checksum;
        checksums_match &= a.checksum == c.checksum;
        ref_sharded.push(a.elapsed.as_nanos());
        cmp_sharded.push(b.elapsed.as_nanos());
        lf_sharded.push(c.elapsed.as_nanos());
    }
    assert!(checksums_match, "engines diverged on the event stream");

    let machine = dispatch_machine();
    let med = |v: &[u128]| median_nanos(v.to_vec());
    let throughput = |nanos: u128| cfg.events as f64 * 1e9 / nanos as f64;
    // Speedups compare best-of-trials: on a shared box, interference only
    // ever adds time, so the minimum is the least-noisy estimate of each
    // engine's true cost.
    let speedup_single = best_nanos(&ref_single) as f64 / best_nanos(&cmp_single) as f64;
    let speedup_sharded_mutex = best_nanos(&ref_sharded) as f64 / best_nanos(&cmp_sharded) as f64;
    // The headline sharded number: mutex-per-shard reference store vs
    // the lock-free atomic slab, identical event streams and checksums.
    let speedup_sharded = best_nanos(&ref_sharded) as f64 / best_nanos(&lf_sharded) as f64;
    let list = |samples: &[u128]| {
        samples
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };

    println!("{{");
    println!(
        "  \"benchmark\": \"engine dispatch: reference StateStore vs compiled CompactStore\","
    );
    print!(
        "{}",
        layer_members(
            "fsm engine (side-car CompactStore/AtomicStore, not the checker's)",
            false
        )
    );
    println!("  \"machine\": {{");
    println!("    \"name\": \"{}\",", machine.name());
    println!("    \"states\": {},", machine.states().len());
    println!("    \"transitions\": {},", machine.transitions().len());
    println!("    \"key_type\": \"u32\",");
    println!("    \"dense_limit\": {DENSE_LIMIT}");
    println!("  }},");
    println!("  \"events_per_trial\": {},", cfg.events);
    println!("  \"working_set_entities\": {},", cfg.entities);
    println!("  \"sharded_threads\": {},", cfg.threads);
    println!("  \"trials\": {trials},");
    println!("  \"mix\": \"~55% Acquire, ~39% Release, ~6% UseAfterRelease, ~1.6% evict\",");
    println!("  \"reference_single_nanos\": [{}],", list(&ref_single));
    println!("  \"compiled_single_nanos\": [{}],", list(&cmp_single));
    println!("  \"reference_sharded_nanos\": [{}],", list(&ref_sharded));
    println!("  \"compiled_sharded_nanos\": [{}],", list(&cmp_sharded));
    println!("  \"lockfree_sharded_nanos\": [{}],", list(&lf_sharded));
    println!(
        "  \"reference_single_events_per_sec\": {:.0},",
        throughput(med(&ref_single))
    );
    println!(
        "  \"compiled_single_events_per_sec\": {:.0},",
        throughput(med(&cmp_single))
    );
    println!(
        "  \"reference_sharded_events_per_sec\": {:.0},",
        throughput(med(&ref_sharded))
    );
    println!(
        "  \"compiled_sharded_events_per_sec\": {:.0},",
        throughput(med(&cmp_sharded))
    );
    println!(
        "  \"lockfree_sharded_events_per_sec\": {:.0},",
        throughput(med(&lf_sharded))
    );
    println!("  \"speedup_basis\": \"best-of-trials\",");
    println!("  \"speedup_single\": {speedup_single:.2},");
    println!("  \"speedup_sharded_mutex\": {speedup_sharded_mutex:.2},");
    println!("  \"speedup_sharded\": {speedup_sharded:.2},");
    println!("  \"checksums_match\": {checksums_match},");
    println!(
        "  \"note\": \"apply = one bounds-checked read of a dense states x transitions \
         matrix plus a slab probe; the reference engine resolves the same event through \
         a HashMap probe and per-transition spec lookups. speedup_sharded compares the \
         mutex-per-shard reference store against the lock-free AtomicStore (per-entity \
         CAS on an atomic slab, no locks) on identical streams\""
    );
    println!("}}");

    // The CI gate: hundredths, so 150 = require compiled >= 1.5x reference.
    let floor = env_u64("JINN_DISPATCH_MIN_SPEEDUP", 0) as f64 / 100.0;
    if floor > 0.0 && speedup_single < floor {
        eprintln!(
            "dispatch gate FAILED: compiled single-thread speedup {speedup_single:.2}x \
             is below the {floor:.2}x floor"
        );
        std::process::exit(1);
    }
}
