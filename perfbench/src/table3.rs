//! table3-live: the Table 3 kernel run live, single-threaded, on the
//! HotSpot model.
//!
//! A session is one `java -agentlib:jinn` launch: a fresh VM, the
//! seeded kernel (`jinn_workloads::build_workload`), a fixed number of
//! native calls, and the shutdown sweep that yields the checker's final
//! verdict. Each round runs the same kernel seed under baseline, Jinn
//! interposing and Jinn checking, in rotating order, so the three
//! treatments execute the same transitions.

use std::collections::BTreeMap;
use std::time::Instant;

use jinn_vendors::Vendor;
use jinn_workloads::{build_workload, Treatment};
use minijni::{RunOutcome, Session};

use crate::layers::{fill_per_layer, Tracer};
use crate::stats::{median, peak_rss_mb, Rng};
use crate::{latency, Report};

/// Native calls per session (about 14 transitions each).
const CALLS: usize = 100;
/// Auto-GC period, as `jinn_workloads::run_benchmark` sets it.
const GC_PERIOD: u64 = 4096;
const TREATMENTS: [Treatment; 3] = [
    Treatment::Baseline,
    Treatment::JinnInterposing,
    Treatment::JinnChecking,
];

struct Live {
    /// Launch → verdict.
    session_s: f64,
    /// VM creation, kernel build and checker attach.
    setup_s: f64,
    /// First native call → last return.
    run_s: f64,
    /// Last native call issued → shutdown verdict: the program's final
    /// request checked, then the checker's end-of-run sweep.
    last_call_s: f64,
    transitions: u64,
    verdicts: u64,
}

fn live_session(
    treatment: Treatment,
    kernel_seed: u64,
    call_us: &mut Vec<f32>,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Live, String> {
    let root = tracer.open(treatment_span(treatment), None, id);
    let t0 = Instant::now();
    let setup = tracer.open("jvm.launch", Some(root), id);
    let mut vm = Vendor::HotSpot.vm();
    vm.jvm_mut().set_auto_gc_period(Some(GC_PERIOD));
    let (entry, args) = build_workload(&mut vm, kernel_seed);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    let stats = match treatment {
        Treatment::JinnChecking => Some(jinn_core::install(&mut session)),
        Treatment::JinnInterposing => {
            session.attach(Box::new(jinn_core::Jinn::interpose_only()));
            None
        }
        _ => None,
    };
    tracer.close(setup);
    let t1 = Instant::now();
    let run = tracer.open("jni.kernel_run", Some(root), id);
    let mut last_call = t1;
    for _ in 0..CALLS {
        let tc = Instant::now();
        last_call = tc;
        let outcome = session.run_native(thread, entry, &args);
        call_us.push((tc.elapsed().as_secs_f64() * 1e6) as f32);
        if !matches!(outcome, RunOutcome::Completed(_)) {
            return Err(format!("{treatment}: kernel call ended {outcome:?}"));
        }
    }
    tracer.close(run);
    let t2 = Instant::now();
    let sweep = tracer.open("core.shutdown_sweep", Some(root), id);
    let reports = session.shutdown();
    tracer.close(sweep);
    let t3 = Instant::now();
    tracer.close(root);
    let verdicts = reports.len() as u64 + stats.map_or(0, |s| s.violations());
    Ok(Live {
        session_s: (t3 - t0).as_secs_f64(),
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        last_call_s: (t3 - last_call).as_secs_f64(),
        transitions: session.vm().stats().total(),
        verdicts,
    })
}

fn treatment_span(t: Treatment) -> &'static str {
    match t {
        Treatment::Baseline => "session.baseline",
        Treatment::JinnInterposing => "session.interposing",
        _ => "session.checking",
    }
}

/// Runs rounds until `seconds` have passed. In the traced run, every
/// other round records spans, and the per-treatment sums come from the
/// traced rounds only.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    println!(
        "# inputs: build_workload kernel, fresh seed per round, {CALLS} native calls per session, \
         HotSpot model, treatments baseline/interposing/checking in rotating order"
    );
    println!("# load: closed loop, 1 thread");
    let mut rng = Rng::new(seed);
    let mut tracer = Tracer::new();
    let mut lives: BTreeMap<usize, Vec<Live>> = BTreeMap::new();
    let mut checked_call_us = Vec::new();
    let mut unchecked_call_us = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut traced_rounds, mut untraced_rounds) = (0u32, 0u32);
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let kernel_seed = rng.next_u64() | 1;
        let record = traced && round % 2 == 1;
        tracer.set_recording(record);
        let t_round = Instant::now();
        let mut transitions = Vec::new();
        for k in 0..TREATMENTS.len() {
            let which = (round + k) % TREATMENTS.len();
            let treatment = TREATMENTS[which];
            attempted += 1;
            let calls = if treatment == Treatment::JinnChecking {
                &mut checked_call_us
            } else {
                &mut unchecked_call_us
            };
            match live_session(treatment, kernel_seed, calls, &mut tracer, round as u64) {
                Ok(live) if live.verdicts == 0 => {
                    transitions.push(live.transitions);
                    if !traced || record {
                        lives.entry(which).or_default().push(live);
                    }
                }
                Ok(live) => {
                    eprintln!(
                        "round {round}: {treatment} reported {} verdicts",
                        live.verdicts
                    );
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("round {round}: {e}");
                    failed += 1;
                }
            }
            unchecked_call_us.clear();
        }
        if transitions.windows(2).any(|w| w[0] != w[1]) {
            eprintln!("round {round}: transition counts differ: {transitions:?}");
            failed += 1;
        }
        let took = t_round.elapsed().as_secs_f64();
        if record {
            traced_s += took;
            traced_rounds += 1;
        } else {
            untraced_s += took;
            untraced_rounds += 1;
        }
        round += 1;
    }
    let rounds = lives.get(&2).map_or(0, Vec::len);
    println!("# rounds: {round}, checked sessions measured: {rounds}");
    let mut report = Report::new(attempted, failed);
    let sum = |which: usize, f: fn(&Live) -> f64| -> f64 {
        lives.get(&which).map_or(0.0, |v| v.iter().map(f).sum())
    };
    let transitions = sum(2, |l| l.transitions as f64);
    let (base, interp, check) = (
        sum(0, |l| l.run_s),
        sum(1, |l| l.run_s),
        sum(2, |l| l.run_s),
    );
    if traced {
        let mut values = BTreeMap::new();
        values.insert("jvm.baseline_ns_per_transition", base / transitions * 1e9);
        values.insert(
            "jni.interpose_ns_per_transition",
            (interp - base) / transitions * 1e9,
        );
        values.insert(
            "core.check_ns_per_transition",
            (check - interp) / transitions * 1e9,
        );
        values.insert("trace.sessions", (rounds * TREATMENTS.len()) as f64);
        values.insert(
            "trace.overhead_pct",
            (traced_s / f64::from(traced_rounds) / (untraced_s / f64::from(untraced_rounds)) - 1.0)
                * 100.0,
        );
        tracer.print_breakdown();
        tracer.write("table3-live", seed);
        fill_per_layer(&mut report, &values);
        return report;
    }
    let checked = lives.get(&2).map_or(&[][..], Vec::as_slice);
    report.metric(
        "sessions_per_s",
        checked.len() as f64 / sum(2, |l| l.session_s),
        "1/s",
    );
    latency(
        &mut report,
        "checked session, launch to verdict",
        checked.iter().map(|l| l.session_s * 1e6).collect(),
        "session_latency_p50_us",
        "session_latency_p90_us",
    );
    latency(
        &mut report,
        "last call issued to final verdict",
        checked.iter().map(|l| l.last_call_s * 1e6).collect(),
        "seal_to_verdict_p50_us",
        "seal_to_verdict_p90_us",
    );
    latency(
        &mut report,
        "checked native call",
        checked_call_us.iter().map(|&x| f64::from(x)).collect(),
        "query_p50_us",
        "query_p90_us",
    );
    report.metric("checked_transitions_per_s", transitions / check, "1/s");
    report.metric("jinn_overhead_x", check / base, "x");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "setup_s",
        median(checked.iter().map(|l| l.setup_s).collect()),
        "s",
    );
    report
}
