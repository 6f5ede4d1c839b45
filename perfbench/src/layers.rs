//! The traced run: per-layer metrics for the serve workloads, and the
//! span recorder every workload's traced run uses.
//!
//! No instrumentation lives inside the program. Phase one drives the
//! same closed-loop socket load as the timed run and reads what the
//! daemon itself reports (ack `first_frame_micros` and
//! `seal_to_verdict_micros`, `fleet()`, `pool_stats()`). Phase two
//! re-drives the same seeded sessions, one at a time, through the public
//! call of each layer with a span around each call, alternating every
//! session between a pass with spans and one without to measure the
//! tracing overhead. Spans are kept in memory and written to
//! `perfbench/out/` at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use jinn_fsm::AtomicEnginePool;
use jinn_obs::Recorder;
use jinn_replay::{
    decode_stream, encode_ingest, replay_trace, replay_trace_observed, Frame, ReplayConfig,
    StreamDecoder, Trace,
};
use jinn_serve::{judge, rollup_events, Query, QueryKind, ServeConfig, SessionTable, StoreLimits};
use jinn_vendors::Vendor;

use crate::inputs::{Planned, ServePlan, VerdictSet};
use crate::serve_load::{self, CHUNK};
use crate::Report;

/// Every per-layer metric, in report order. A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("socket.accept_and_wire_us", "us"),
    ("stream.frame_decode_us", "us"),
    ("format.trace_parse_us", "us"),
    ("format.stream_decode_us", "us"),
    ("format.chunking_penalty_x", "x"),
    ("replay.rebuild_reissue_us", "us"),
    ("replay.events_replayed", "count"),
    ("replay.divergences", "count"),
    ("core.check_us", "us"),
    ("core.verdicts", "count"),
    ("core.check_ns_per_transition", "ns"),
    ("jni.interpose_ns_per_transition", "ns"),
    ("jvm.baseline_ns_per_transition", "ns"),
    ("obs.record_us", "us"),
    ("obs.ring_events", "count"),
    ("obs.ring_dropped", "count"),
    ("judge.total_us", "us"),
    ("judge.rollup_us", "us"),
    ("judge.self_us", "us"),
    ("fsm.pool_built", "count"),
    ("fsm.pool_leases", "count"),
    ("store.ingest_us", "us"),
    ("store.publish_us", "us"),
    ("store.query_us", "us"),
    ("store.purged_sessions", "count"),
    ("store.history_bytes", "bytes"),
    ("daemon.first_frame_to_verdict_us", "us"),
    ("daemon.seal_to_verdict_us", "us"),
    ("daemon.streamed_share", "ratio"),
    ("daemon.buffered_bytes_high_water", "bytes"),
    ("path.client_latency_us", "us"),
    ("path.residual_us", "us"),
    ("trace.sessions", "count"),
    ("trace.overhead_pct", "%"),
];

pub fn fill_per_layer(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for &(name, unit) in PER_LAYER {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
    session: u64,
}

/// In-memory spans. While not recording, `open` and `close` read no
/// clock and keep nothing.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    recording: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            recording: true,
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, session: u64) -> usize {
        if !self.recording {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent,
            session,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        if let Some(s) = self.spans.get_mut(span) {
            s.end = Some(Instant::now());
        }
    }

    /// Runs `f` under a span named `name`.
    fn step<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        session: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, Some(parent), session);
        let out = f();
        self.close(span);
        out
    }

    fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total duration per span name of the spans opened since `mark`, in µs.
    fn durations_since(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for i in mark..self.spans.len() {
            *out.entry(self.spans[i].name).or_default() += self.duration_us(i);
        }
        out
    }

    fn duration_us(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        s.end.map_or(0.0, |e| (e - s.start).as_secs_f64() * 1e6)
    }

    /// Per span name: count, total duration and total self time (the
    /// duration minus what its child spans cover), in µs.
    fn by_name(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_us[p] += self.duration_us(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let d = self.duration_us(i);
            e.0 += 1;
            e.1 += d;
            e.2 += d - child_us[i];
        }
        out
    }

    pub fn print_breakdown(&self) {
        println!("# span breakdown (mean per span, us): name count duration self");
        for (name, (n, total, own)) in self.by_name() {
            let n_f = n as f64;
            println!(
                "#   {name:<28} {n:>7} {:>12.2} {:>12.2}",
                total / n_f,
                own / n_f
            );
        }
    }

    /// Writes every span as one JSON line to
    /// `perfbench/out/spans-<workload>-<seed>.jsonl`.
    pub fn write(&self, workload: &str, seed: u64) {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{workload}-{seed}.jsonl");
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for (i, s) in self.spans.iter().enumerate() {
                let ns = |t: Instant| (t - self.epoch).as_nanos();
                writeln!(
                    f,
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{}}}",
                    s.name,
                    ns(s.start),
                    s.end.map_or(0, ns),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.session
                )?;
            }
            f.flush()
        });
        match written {
            Ok(()) => println!("# spans: {} written to {path}", self.spans.len()),
            Err(e) => eprintln!("perfbench: writing {path}: {e}"),
        }
    }
}

/// Per-session counts from the re-drive (taken whether or not spans are
/// recorded).
#[derive(Default)]
struct Counts {
    events_replayed: f64,
    divergences: f64,
    verdicts: f64,
    ring_events: f64,
    ring_dropped: f64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.events_replayed += o.events_replayed;
        self.divergences += o.divergences;
        self.verdicts += o.verdicts;
        self.ring_events += o.ring_events;
        self.ring_dropped += o.ring_dropped;
    }
}

/// The span a replay under `config` is recorded as.
fn replay_span(config: &ReplayConfig) -> &'static str {
    match config {
        ReplayConfig::Default(Vendor::HotSpot) => "replay.hotspot",
        ReplayConfig::Default(_) => "replay.j9",
        ReplayConfig::Xcheck(Vendor::HotSpot) => "replay.xcheck_hotspot",
        ReplayConfig::Xcheck(_) => "replay.xcheck_j9",
        ReplayConfig::Jinn(Vendor::HotSpot) => "replay.jinn",
        _ => "replay.other",
    }
}

struct Redrive {
    pool: Arc<AtomicEnginePool<u64>>,
    table: SessionTable,
    config: ServeConfig,
    hotspot: ReplayConfig,
}

impl Redrive {
    fn new() -> Redrive {
        let config = ServeConfig::default();
        Redrive {
            pool: AtomicEnginePool::new(jinn_spec::machines()),
            table: SessionTable::new(StoreLimits {
                retention_bytes: config.retention_bytes,
                max_buffered: config.max_buffered_bytes,
                max_live_sessions: config.max_live_sessions,
                max_session_records: config.max_session_records,
                max_total_buffered: config.max_total_buffered_bytes,
            }),
            config,
            hotspot: ReplayConfig::parse("hotspot").expect("hotspot parses"),
        }
    }

    /// One session through every layer call, each under a span, with
    /// the judge output checked against the oracle. The first group of
    /// spans is what the daemon runs for a session; the second calls the
    /// judge's children one by one with the same inputs: one replay per
    /// configuration of the stack, each under the span [`replay_span`]
    /// names, plus a plain HotSpot replay when the stack has none (every
    /// stack has `jinn`, so `core.check_us` is their difference).
    fn session(
        &self,
        plan: &ServePlan,
        planned: &Planned,
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<Counts, String> {
        let reference = plan.reference(planned);
        let stack = &plan.stacks[planned.stack];
        let bytes = &plan.inputs[planned.input].bytes;
        let stream = encode_ingest(id, "redrive", stack.selection, bytes, CHUNK);
        let mut counts = Counts::default();

        let root = tracer.open("session", None, id);
        let frames = tracer
            .step("stream.frame_decode", root, id, || decode_stream(&stream))
            .map_err(|e| format!("frame decode: {e}"))?;
        let (taken, tenant, configs) = tracer
            .step("store.ingest", root, id, || {
                self.table.open(id, "redrive", stack.configs.clone())?;
                for frame in &frames {
                    match frame {
                        Frame::Append { chunk, .. } => self.table.append(id, chunk)?,
                        Frame::Seal {
                            total_len,
                            checksum,
                            ..
                        } => self.table.seal(id, *total_len, *checksum)?,
                        _ => {}
                    }
                }
                Ok::<_, jinn_serve::ServeError>(self.table.begin_judging(id))
            })
            .map_err(|e| e.to_string())?
            .ok_or("session not queued")?;
        let out = tracer.step("judge.total", root, id, || {
            judge(
                &taken,
                id,
                &tenant,
                &configs,
                &self.pool,
                None,
                self.config.recorder_ring,
                self.config.max_events_per_session,
            )
        })?;
        let mut got = VerdictSet::new();
        for v in &out.verdicts {
            *got.entry((
                v.config.clone(),
                v.machine.clone(),
                v.error_state.clone(),
                v.function.clone(),
            ))
            .or_insert(0) += 1;
        }
        let outcomes: Vec<(String, String, u64, u64)> = out
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.config.clone(),
                    o.behavior.clone(),
                    o.events_replayed,
                    o.divergences,
                )
            })
            .collect();
        if got != reference.verdicts || outcomes != reference.outcomes {
            return Err(format!(
                "judge gave {got:?} {outcomes:?}, reference {:?} {:?}",
                reference.verdicts, reference.outcomes
            ));
        }
        counts.verdicts = out.verdicts.len() as f64;
        tracer.step("store.publish", root, id, || self.table.finish(id, out));
        let page = tracer.step("store.query", root, id, || {
            self.table.query(&Query {
                kind: QueryKind::Verdicts,
                session: Some(id),
                limit: 1000,
                ..Query::default()
            })
        });
        if page.items.len() as u64 != reference.verdict_count() {
            return Err(format!("store returned {} verdicts", page.items.len()));
        }
        tracer.close(root);

        let children = tracer.open("judge.children", None, id);
        let trace = tracer
            .step("format.trace_parse", children, id, || Trace::parse(bytes))
            .map_err(|e| format!("parse: {e}"))?;
        let records = tracer
            .step("format.stream_decode", children, id, || {
                let mut decoder = StreamDecoder::new();
                let mut records = 0u64;
                for chunk in bytes.chunks(CHUNK) {
                    decoder.feed(chunk);
                    while decoder.next_record()?.is_some() {
                        records += 1;
                    }
                }
                decoder.finish().map(|()| records)
            })
            .map_err(|e| format!("stream decode: {e}"))?;
        std::hint::black_box(records);
        let mut bare = None;
        for config in &stack.configs {
            let span = replay_span(config);
            let out = tracer
                .step(span, children, id, || replay_trace(&trace, config))
                .map_err(|e| e.to_string())?;
            if span == "replay.hotspot" {
                bare = Some(out);
            }
        }
        let bare = match bare {
            Some(out) => out,
            None => tracer
                .step("replay.hotspot", children, id, || {
                    replay_trace(&trace, &self.hotspot)
                })
                .map_err(|e| e.to_string())?,
        };
        counts.events_replayed = bare.events_replayed as f64;
        counts.divergences = bare.divergences as f64;
        let recorder = Recorder::enabled(self.config.recorder_ring);
        let events = tracer
            .step("obs.observed_replay", children, id, || {
                replay_trace_observed(&trace, &stack.configs[0], &recorder)
                    .map(|_| recorder.events())
            })
            .map_err(|e| e.to_string())?;
        counts.ring_events = events.len() as f64;
        counts.ring_dropped = recorder.dropped_events() as f64;
        tracer.step("judge.rollup", children, id, || {
            std::hint::black_box(rollup_events(&self.pool, &events))
        });
        tracer.close(children);
        Ok(counts)
    }
}

/// Traced run of a serve workload: half the time on the socket, half
/// re-driving the layer calls.
pub fn serve_traced(
    plan: &ServePlan,
    workload: &str,
    seed: u64,
    seconds: f64,
    clients: usize,
) -> Report {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Phase one: the socket load, read through the daemon's own instruments.
    let (server, _) = serve_load::start(plan);
    let mut run = serve_load::drive(plan, &server, seconds / 2.0, clients);
    let fleet = server.handle().fleet();
    let pool = server.handle().pool_stats();
    serve_load::check(plan, &server, &mut run.samples);
    server.stop();
    let samples = &run.samples;
    let ok: Vec<&serve_load::Sample> = samples.iter().filter(|s| s.ok).collect();
    let n = ok.len().max(1) as f64;
    let mean = |f: fn(&serve_load::Sample) -> f64| ok.iter().map(|s| f(s)).sum::<f64>() / n;
    let client = mean(|s| s.latency_us);
    let wire = mean(|s| s.latency_us - s.daemon_first_frame_us);
    values.insert("path.client_latency_us", client);
    values.insert("socket.accept_and_wire_us", wire);
    values.insert(
        "daemon.first_frame_to_verdict_us",
        mean(|s| s.daemon_first_frame_us),
    );
    values.insert("daemon.seal_to_verdict_us", mean(|s| s.daemon_seal_us));
    values.insert(
        "daemon.streamed_share",
        fleet.streamed_sessions as f64 / fleet.judged.max(1) as f64,
    );
    values.insert(
        "daemon.buffered_bytes_high_water",
        fleet.buffered_bytes_high_water as f64,
    );
    values.insert("fsm.pool_built", pool.built as f64);
    values.insert("fsm.pool_leases", pool.leases as f64);
    values.insert("store.purged_sessions", fleet.purged_sessions as f64);
    values.insert("store.history_bytes", fleet.history_bytes as f64);
    println!(
        "# socket phase: {} sessions, {} judged, {} streamed, {} quarantined",
        samples.len(),
        fleet.judged,
        fleet.streamed_sessions,
        fleet.quarantined
    );
    let mut attempted = samples.len() as u64;
    let mut failed = (samples.len() - ok.len()) as u64;

    // Phase two: the same seeded sessions through each layer's call,
    // alternating a pass without spans and one with them.
    let redrive = Redrive::new();
    let mut tracer = Tracer::new();
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts = Counts::default();
    let (mut traced, mut sessions) = (0.0f64, 0.0f64);
    // Blocking step → summed duration over the traced sessions.
    let mut path: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut untraced = 0.0f64;
    // The stack's own replays (what `judge` runs) and, of those, the
    // replay under its first configuration (what the recorder observes).
    let (mut stack_replays, mut first_replay) = (0.0f64, 0.0f64);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds / 2.0 {
        let planned = &plan.sessions[(i / 2) as usize % plan.sessions.len()];
        let record = i % 2 == 1;
        tracer.set_recording(record);
        let mark = tracer.mark();
        let t = Instant::now();
        let result = redrive.session(plan, planned, (1 << 41) + i, &mut tracer);
        let took = t.elapsed().as_secs_f64() * 1e6;
        attempted += 1;
        match result {
            Err(e) => {
                eprintln!("re-driven session {i}: {e}");
                failed += 1;
            }
            Ok(c) if record => {
                traced += took;
                sessions += 1.0;
                counts.add(&c);
                let d = tracer.durations_since(mark);
                for (name, us) in &d {
                    *totals.entry(name).or_default() += us;
                }
                // The daemon streams single-config sessions (decode and
                // observed replay as the bytes arrive, rollup at seal)
                // and judges the rest whole.
                let configs = &plan.stacks[planned.stack].configs;
                let span_us = |c: &ReplayConfig| d.get(replay_span(c)).copied().unwrap_or(0.0);
                stack_replays += configs.iter().map(span_us).sum::<f64>();
                first_replay += span_us(&configs[0]);
                let judging: &[&'static str] = if configs.len() == 1 {
                    &[
                        "format.stream_decode",
                        "obs.observed_replay",
                        "judge.rollup",
                    ]
                } else {
                    &["judge.total"]
                };
                let steps = ["stream.frame_decode", "store.ingest", "store.publish"];
                for &step in steps.iter().chain(judging) {
                    *path.entry(step).or_default() += d.get(step).copied().unwrap_or(0.0);
                }
            }
            Ok(_) => untraced += took,
        }
        i += 1;
    }
    let per = |name: &str| totals.get(name).copied().unwrap_or(0.0) / sessions.max(1.0);
    let record = per("obs.observed_replay") - first_replay / sessions.max(1.0);
    let judge_children = per("format.trace_parse")
        + stack_replays / sessions.max(1.0)
        + record
        + per("judge.rollup");
    let layer_values = [
        ("stream.frame_decode_us", per("stream.frame_decode")),
        ("format.trace_parse_us", per("format.trace_parse")),
        ("format.stream_decode_us", per("format.stream_decode")),
        (
            "format.chunking_penalty_x",
            per("format.stream_decode") / per("format.trace_parse"),
        ),
        ("replay.rebuild_reissue_us", per("replay.hotspot")),
        ("replay.events_replayed", counts.events_replayed / sessions),
        ("replay.divergences", counts.divergences),
        ("core.check_us", per("replay.jinn") - per("replay.hotspot")),
        ("core.verdicts", counts.verdicts / sessions),
        ("obs.record_us", record),
        ("obs.ring_events", counts.ring_events / sessions),
        ("obs.ring_dropped", counts.ring_dropped / sessions),
        ("judge.total_us", per("judge.total")),
        ("judge.rollup_us", per("judge.rollup")),
        ("judge.self_us", per("judge.total") - judge_children),
        ("store.ingest_us", per("store.ingest")),
        ("store.publish_us", per("store.publish")),
        ("store.query_us", per("store.query")),
        ("trace.sessions", sessions),
        ("trace.overhead_pct", (traced / untraced - 1.0) * 100.0),
    ];
    values.extend(layer_values);
    let residual = client - wire - path.values().sum::<f64>() / sessions;
    values.insert("path.residual_us", residual);
    let steps: Vec<String> = path
        .iter()
        .map(|(step, total)| format!("{step} {:.1}", total / sessions))
        .collect();
    println!(
        "# blocking path (mean us per session): client {client:.1} = accept+wire {wire:.1} + {} \
         + residual {residual:.1}",
        steps.join(" + ")
    );
    tracer.print_breakdown();
    tracer.write(workload, seed);
    let mut report = Report::new(attempted, failed);
    fill_per_layer(&mut report, &values);
    report
}
