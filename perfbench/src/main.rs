//! The benchmark of the Jinn verdict path.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen and
//! which layer each stresses or bypasses):
//!
//! * `corpus-mix` — the 20 golden-corpus traces through the daemon's TCP
//!   front end, 3/4 under `jinn` and 1/4 under the five-config matrix;
//! * `churn-upload` — 40–160 KB bug-free churn traces, 64 KiB appends;
//! * `table3-live` — the Table 3 kernel run live on the HotSpot model
//!   under baseline, Jinn interposing and Jinn checking.
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` is the
//! separate traced run that prints the per-layer metrics and writes its
//! spans to `perfbench/out/`. Every verdict is checked against an
//! in-process reference; the last stdout line is the JSON result.

mod inputs;
mod layers;
mod serve_load;
mod stats;
mod table3;

use std::process::ExitCode;

/// One run's result: the counts the oracle kept and the metrics.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Every session and round was checked and none failed.
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload corpus-mix|churn-upload|table3-live \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let cores = stats::host_cores();
    println!(
        "# workload={} seed={} seconds={} trace={} host_cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (steal, started) = (stats::steal_jiffies(), std::time::Instant::now());
    let report = match args.workload.as_str() {
        "corpus-mix" | "churn-upload" => {
            let plan = if args.workload == "corpus-mix" {
                inputs::corpus_mix(args.seed)
            } else {
                inputs::churn_upload(args.seed)
            };
            let clients = plan.clients.min(cores);
            println!("# inputs: {}", plan.describe);
            println!("# load: closed loop, clients={clients}, one connection per client at a time");
            if args.trace {
                layers::serve_traced(&plan, &args.workload, args.seed, args.seconds, clients)
            } else {
                serve_timed(&plan, args.seconds, clients)
            }
        }
        "table3-live" => table3::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let steal = stats::steal_jiffies() - steal;
    let secs = started.elapsed().as_secs_f64();
    println!(
        "# host steal over the whole run: {steal} jiffies in {secs:.1} s ({:.1}% of host CPU)",
        100.0 * stats::steal_share(steal, secs)
    );
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds the median and the 90th percentile of a latency sample, and
/// prints both with the sample count and the highest percentile that
/// leaves ten samples beyond it (p99 from 1,000 samples on).
pub fn latency(
    report: &mut Report,
    what: &str,
    xs: Vec<f64>,
    p50: &'static str,
    p90: &'static str,
) {
    let d = stats::Dist::new(xs);
    let (tail, q) = d.tail(0.99);
    println!(
        "# {what}: n={} p50={:.1}us p90={:.1}us p{:.1}={tail:.1}us",
        d.len(),
        d.quantile(0.5),
        d.quantile(0.9),
        q * 100.0
    );
    report.metric(p50, d.quantile(0.5), "us");
    report.metric(p90, d.quantile(0.9), "us");
}

fn serve_timed(plan: &inputs::ServePlan, seconds: f64, clients: usize) -> Report {
    let overhead = inputs::replay_overhead_x(plan, 9);
    let (server, setup_s) = serve_load::start(plan);
    let mut run = serve_load::drive(plan, &server, seconds, clients);
    serve_load::check(plan, &server, &mut run.samples);
    server.stop();

    let samples = &run.samples;
    let failed = samples.iter().filter(|s| !s.ok).count();
    let mut report = Report::new(samples.len() as u64, failed as u64);
    // Every figure comes from the sessions that ended in the windows of
    // the run the hypervisor disturbed least.
    let kept = run.steady_windows();
    run.describe_steal(&kept);
    let kept_secs: f64 = kept.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
    let ok: Vec<&serve_load::Sample> = samples
        .iter()
        .filter(|s| s.ok && kept.iter().any(|(a, b)| s.done > *a && s.done <= *b))
        .collect();
    report.metric("sessions_per_s", ok.len() as f64 / kept_secs, "1/s");
    latency(
        &mut report,
        "session latency",
        ok.iter().map(|s| s.latency_us).collect(),
        "session_latency_p50_us",
        "session_latency_p90_us",
    );
    latency(
        &mut report,
        "seal to verdict",
        ok.iter().map(|s| s.seal_us).collect(),
        "seal_to_verdict_p50_us",
        "seal_to_verdict_p90_us",
    );
    latency(
        &mut report,
        "verdicts query",
        ok.iter().map(|s| s.query_us).collect(),
        "query_p50_us",
        "query_p90_us",
    );
    let transitions: u64 = ok
        .iter()
        .map(|s| plan.session_reference(s.index).checked_transitions)
        .sum();
    report.metric(
        "checked_transitions_per_s",
        transitions as f64 / kept_secs,
        "1/s",
    );
    report.metric("jinn_overhead_x", overhead, "x");
    report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    report.metric("setup_s", setup_s, "s");
    report
}
