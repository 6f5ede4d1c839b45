//! The closed-loop client side of the serve workloads.
//!
//! The daemon runs in this process with `ServeConfig::default()` behind
//! its TCP front end. Each client thread holds at most one connection at
//! a time and waits for each reply before sending again: a session is
//! one fresh ingest connection (the whole frame stream, then the seal
//! ack), followed by one verdicts query on a fresh query connection —
//! what `serve ingest` and `serve query` do. Every latency is taken on
//! the client clock.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use jinn_replay::{decode_stream, encode_ingest};
use jinn_serve::{Daemon, DaemonHandle, Query, QueryItem, QueryKind, ServeConfig, SocketServer};

use crate::inputs::{Reference, ServePlan, VerdictSet};
use crate::stats::{median, steal_jiffies};

/// Append payload size of the shipped ingest client.
pub const CHUNK: usize = 64 * 1024;
/// Daemons started per run; `setup_s` is the median of their set-up times.
const SETUP_REPS: usize = 31;
const SESSION_BASE: u64 = 1 << 40;

pub struct Server {
    daemon: Daemon,
    server: SocketServer,
    pub addr: String,
}

impl Server {
    pub fn handle(&self) -> DaemonHandle {
        self.daemon.handle()
    }

    pub fn stop(self) {
        self.server.shutdown();
        self.daemon.shutdown();
    }
}

/// Starts a daemon with its socket front end and judges one warm-up
/// session through the in-process handle, `SETUP_REPS` times; keeps the
/// last daemon. Returns it with the median set-up time in seconds.
pub fn start(plan: &ServePlan) -> (Server, f64) {
    let warm = &plan.inputs[0].bytes;
    let mut times = Vec::new();
    let mut kept: Option<Server> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.stop();
        }
        let id = rep as u64 + 1;
        let frames = decode_stream(&encode_ingest(id, "warmup", "jinn", warm, CHUNK))
            .expect("self-encoded stream decodes");
        let t = Instant::now();
        let daemon = Daemon::start(ServeConfig::default());
        let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind loopback");
        let handle = daemon.handle();
        for frame in &frames {
            handle.apply_frame(frame).expect("warm-up frame applies");
        }
        let state = handle.wait_session(id).map(|s| s.state.to_string());
        times.push(t.elapsed().as_secs_f64());
        assert_eq!(state.as_deref(), Some("judged"), "warm-up session");
        kept = Some(Server {
            addr: server.addr().to_string(),
            daemon,
            server,
        });
    }
    (kept.expect("at least one daemon"), median(times))
}

/// Writes one whole ingest stream on a fresh connection and reads the
/// seal ack. Returns the ack line and when the `Seal` frame was written.
fn ingest(addr: &str, stream: &[u8]) -> std::io::Result<(String, Instant)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(stream)?;
    let sealed = Instant::now();
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line)?;
    Ok((line, sealed))
}

fn query(addr: &str, request: &str) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(format!("{request}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line)?;
    Ok(line)
}

/// One client-observed session. The replies are kept and checked
/// against the oracle after the clock stops ([`check`]).
pub struct Sample {
    /// Index into the plan's session order.
    pub index: u64,
    pub id: u64,
    pub ok: bool,
    /// When the session's last reply was read.
    pub done: Instant,
    /// Connect → seal ack read.
    pub latency_us: f64,
    /// `Seal` written → seal ack read.
    pub seal_us: f64,
    /// Query connect → response read.
    pub query_us: f64,
    /// The ack's own `first_frame_micros` and `seal_to_verdict_micros`.
    pub daemon_first_frame_us: f64,
    pub daemon_seal_us: f64,
    ack: std::io::Result<String>,
    answer: std::io::Result<String>,
}

/// Length of the wall-clock windows a run is cut into; the host's steal
/// is read at every window boundary.
const WINDOW: Duration = Duration::from_secs(1);

/// One closed-loop run: every session, and the run's wall time cut into
/// windows with the hypervisor steal seen in each.
pub struct Run {
    pub samples: Vec<Sample>,
    /// (window end, steal jiffies in the window), in time order; the
    /// first window starts at `start`.
    pub windows: Vec<(Instant, u64)>,
    pub start: Instant,
}

impl Run {
    /// The half of the windows (at least one) with the least steal, as
    /// (start, end) pairs. Equal steal is broken by a fixed scatter of the
    /// window index, so an idle host keeps windows from the whole run.
    pub fn steady_windows(&self) -> Vec<(Instant, Instant)> {
        let n = self.windows.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (self.windows[i].1, (i * 7919) % n.max(1)));
        order.truncate(n.div_ceil(2));
        order.sort_unstable();
        order
            .into_iter()
            .map(|i| {
                let from = if i == 0 {
                    self.start
                } else {
                    self.windows[i - 1].0
                };
                (from, self.windows[i].0)
            })
            .collect()
    }

    /// Prints the run's steal and how much of it the kept windows saw.
    pub fn describe_steal(&self, kept: &[(Instant, Instant)]) {
        let steal: u64 = self.windows.iter().map(|w| w.1).sum();
        let secs = self
            .windows
            .last()
            .map_or(0.0, |w| (w.0 - self.start).as_secs_f64());
        let kept_steal: u64 = self
            .windows
            .iter()
            .filter(|w| kept.iter().any(|k| k.1 == w.0))
            .map(|w| w.1)
            .sum();
        let kept_secs: f64 = kept.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
        println!(
            "# steal: {steal} jiffies over {secs:.1} s ({:.1}% of host CPU); metrics from the \
             {} of {} windows with the least steal: {kept_steal} jiffies ({:.1}%)",
            100.0 * crate::stats::steal_share(steal, secs),
            kept.len(),
            self.windows.len(),
            100.0 * crate::stats::steal_share(kept_steal, kept_secs),
        );
    }
}

/// Runs `clients` closed-loop client threads until `seconds` have passed
/// (sessions in flight at the deadline finish), reading the host's steal
/// once per window meanwhile.
pub fn drive(plan: &ServePlan, server: &Server, seconds: f64, clients: usize) -> Run {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let run = Duration::from_secs_f64(seconds);
    let deadline = start + run;
    let window = WINDOW.min(run);
    let mut windows = Vec::new();
    let samples = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let next = &next;
                let addr = server.addr.as_str();
                s.spawn(move || {
                    let tenant = format!("client-{c}");
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        out.push(session(plan, addr, &tenant, i));
                    }
                    out
                })
            })
            .collect();
        let mut steal = steal_jiffies();
        let mut end = start + window;
        while end <= deadline {
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let now = steal_jiffies();
            windows.push((Instant::now(), now - steal));
            steal = now;
            end += window;
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    Run {
        samples,
        windows,
        start,
    }
}

fn session(plan: &ServePlan, addr: &str, tenant: &str, i: u64) -> Sample {
    let planned = plan.planned(i);
    let id = SESSION_BASE + i;
    let stack = &plan.stacks[planned.stack];
    let stream = encode_ingest(
        id,
        tenant,
        stack.selection,
        &plan.inputs[planned.input].bytes,
        CHUNK,
    );

    let request =
        format!("{{\"op\":\"query\",\"kind\":\"verdicts\",\"session\":{id},\"limit\":1000}}");

    let t0 = Instant::now();
    let ingested = ingest(addr, &stream);
    let acked = Instant::now();
    let answer = query(addr, &request);
    let done = Instant::now();

    let mut sample = Sample {
        index: i,
        id,
        ok: false,
        done,
        latency_us: (acked - t0).as_secs_f64() * 1e6,
        seal_us: 0.0,
        query_us: (done - acked).as_secs_f64() * 1e6,
        daemon_first_frame_us: 0.0,
        daemon_seal_us: 0.0,
        ack: Ok(String::new()),
        answer,
    };
    sample.ack = ingested.map(|(ack, sealed)| {
        sample.seal_us = (acked - sealed).as_secs_f64() * 1e6;
        sample.daemon_first_frame_us = num(&ack, "first_frame_micros").unwrap_or(0) as f64;
        sample.daemon_seal_us = num(&ack, "seal_to_verdict_micros").unwrap_or(0) as f64;
        ack
    });
    sample
}

/// Checks every session of a finished run against the oracle, with the
/// clock stopped and the daemon still up: the seal ack, the verdicts
/// query answer, and the stored per-config outcomes of every session the
/// store still holds (retention purges histories and evicts session
/// records oldest-first). Sets `ok` on each sample.
pub fn check(plan: &ServePlan, server: &Server, samples: &mut [Sample]) {
    let handle = server.handle();
    let mut purged = 0u64;
    for sample in samples.iter_mut() {
        let planned = plan.planned(sample.index);
        let reference = plan.reference(planned);
        let checked = match (&sample.ack, &sample.answer) {
            (Err(e), _) => Err(format!("ingest: {e}")),
            (_, Err(e)) => Err(format!("query: {e}")),
            (Ok(ack), Ok(answer)) => check_ack(ack, reference)
                .and_then(|()| check_query(answer, reference))
                .and_then(|()| match handle.session_stats(sample.id) {
                    Some(stats) if !stats.history_purged => {
                        check_outcomes(&handle, sample.id, reference)
                    }
                    _ => {
                        purged += 1;
                        Ok(())
                    }
                }),
        };
        match checked {
            Ok(()) => sample.ok = true,
            Err(why) => eprintln!(
                "session {} ({} under {}) FAILED: {why}",
                sample.id, plan.inputs[planned.input].name, plan.stacks[planned.stack].selection
            ),
        }
    }
    println!(
        "# oracle: {} sessions checked by ack and verdicts query, {} of them also by stored \
         outcomes ({purged} purged or evicted by retention first)",
        samples.len(),
        samples.len() as u64 - purged
    );
}

fn check_ack(ack: &str, r: &Reference) -> Result<(), String> {
    let want = |key: &str, value: u64| match num(ack, key) {
        Some(v) if v == value => Ok(()),
        got => Err(format!("{key} {got:?}, reference {value}: {}", ack.trim())),
    };
    if field(ack, "ok").as_deref() != Some("true")
        || field(ack, "state").as_deref() != Some("judged")
    {
        return Err(format!("ack not ok/judged: {}", ack.trim()));
    }
    want("events_replayed", r.events_replayed)?;
    want("divergences", r.divergences)?;
    want("verdicts", r.verdict_count())
}

fn check_query(line: &str, r: &Reference) -> Result<(), String> {
    if field(line, "ok").as_deref() != Some("true") || line.contains("\"next_cursor\"") {
        return Err(format!("verdicts query incomplete: {}", line.trim()));
    }
    let mut got = VerdictSet::new();
    for item in items(line) {
        let obj = jinn_serve::json::parse_object(item).map_err(|e| format!("query item: {e}"))?;
        let s = |k: &str| {
            obj.get(k)
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string()
        };
        *got.entry((s("config"), s("machine"), s("error_state"), s("function")))
            .or_insert(0) += 1;
    }
    if got == r.verdicts {
        Ok(())
    } else {
        Err(format!("verdicts {got:?}, reference {:?}", r.verdicts))
    }
}

/// Per-config behaviour is not in the ack or the verdict rows, so it is
/// read from the store through the in-process handle.
fn check_outcomes(handle: &DaemonHandle, id: u64, r: &Reference) -> Result<(), String> {
    let page = handle.query(&Query {
        kind: QueryKind::Outcomes,
        session: Some(id),
        limit: 1000,
        ..Query::default()
    });
    let got: Vec<(String, String, u64, u64)> = page
        .items
        .iter()
        .filter_map(|item| match item {
            QueryItem::Outcome(o) => Some((
                o.config.clone(),
                o.behavior.clone(),
                o.events_replayed,
                o.divergences,
            )),
            _ => None,
        })
        .collect();
    if got == r.outcomes {
        Ok(())
    } else {
        Err(format!("outcomes {got:?}, reference {:?}", r.outcomes))
    }
}

/// The raw scalar after the first `"key":` in a JSON line: a string's
/// contents, or a number or literal as written.
pub fn field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let rest = line[line.find(&needle)? + needle.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| s[..end].to_string());
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}

pub fn num(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// The flat objects of a response's `items` array.
fn items(line: &str) -> Vec<&str> {
    let Some(at) = line.find("\"items\":[") else {
        return Vec::new();
    };
    let body = &line[at + "\"items\":[".len()..];
    let mut out = Vec::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(&body[start..=i]);
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    out
}
