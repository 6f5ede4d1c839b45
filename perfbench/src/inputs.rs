//! Workload inputs and the verdict oracle.
//!
//! Everything here runs before any clock starts: reading or recording
//! the traces, drawing the seeded session plan, and replaying every
//! distinct (trace, checker stack) pair in-process to get the reference
//! each session's verdict is checked against.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use jinn_microbench::Setup;
use jinn_replay::{
    case_studies, microbench_programs, record_program, replay_trace, standard_configs, Program,
    ReplayConfig, Trace,
};
use minijni::typed;
use minijvm::JValue;

use crate::stats::{median, Rng};

/// Sessions drawn per plan; clients cycle through it.
const PLAN_LEN: usize = 4096;

/// One recorded `.jtrace` a session uploads.
pub struct Input {
    pub name: String,
    pub bytes: Arc<Vec<u8>>,
}

/// A checker stack as a client names it in its `Open` frame.
pub struct Stack {
    pub selection: &'static str,
    pub configs: Vec<ReplayConfig>,
}

/// (config label, machine, error state, function) → count.
pub type VerdictSet = BTreeMap<(String, String, String, String), u64>;

/// What an in-process replay says one (input, stack) pair must judge to.
pub struct Reference {
    pub verdicts: VerdictSet,
    /// (config label, behaviour, events replayed, divergences), in stack order.
    pub outcomes: Vec<(String, String, u64, u64)>,
    pub events_replayed: u64,
    pub divergences: u64,
    /// Language transitions the Jinn configurations check: each re-issued
    /// JNI call is a call and a return.
    pub checked_transitions: u64,
}

impl Reference {
    pub fn verdict_count(&self) -> u64 {
        self.verdicts.values().sum()
    }
}

pub struct Planned {
    pub input: usize,
    pub stack: usize,
}

/// A serve workload: inputs, stacks, the seeded session order and the
/// reference for every pair the order uses.
pub struct ServePlan {
    pub inputs: Vec<Input>,
    pub stacks: Vec<Stack>,
    pub sessions: Vec<Planned>,
    pub references: BTreeMap<(usize, usize), Reference>,
    /// Per-session size and checker-stack distribution, for the report.
    pub describe: String,
    /// Closed-loop client threads (capped at the host's cores).
    pub clients: usize,
}

impl ServePlan {
    pub fn reference(&self, p: &Planned) -> &Reference {
        &self.references[&(p.input, p.stack)]
    }

    /// The planned session at position `i` of the (cycled) order.
    pub fn planned(&self, i: u64) -> &Planned {
        &self.sessions[i as usize % self.sessions.len()]
    }

    pub fn session_reference(&self, i: u64) -> &Reference {
        self.reference(self.planned(i))
    }
}

fn jinn_stack() -> Stack {
    Stack {
        selection: "jinn",
        configs: vec![ReplayConfig::parse("jinn").expect("jinn parses")],
    }
}

/// All five Table 1 configurations: the differential a matrix session asks for.
fn matrix_stack() -> Stack {
    Stack {
        selection: "hotspot,j9,xcheck:hotspot,xcheck:j9,jinn",
        configs: standard_configs(),
    }
}

/// The 20 golden-corpus traces (the 16 microbenchmarks and 4 case
/// studies), read from the checked-in `tests/corpus/*.jtrace` files.
pub fn corpus_inputs() -> Vec<Input> {
    microbench_programs()
        .iter()
        .chain(case_studies().iter())
        .map(|p| {
            let path = format!(
                "{}/../tests/corpus/{}.jtrace",
                env!("CARGO_MANIFEST_DIR"),
                p.name
            );
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
            Input {
                name: p.name.clone(),
                bytes: Arc::new(bytes),
            }
        })
        .collect()
}

/// A bug-free program whose native method does `strings` string round
/// trips (allocate, measure, delete) per call, called `calls` times —
/// the churn program of `serve bench-streaming`.
fn churn_program(calls: u32, strings: u32) -> Program {
    Program {
        name: "StreamChurn".into(),
        pitfall: None,
        machine: "local-reference",
        error_state: "Ok",
        leaks: false,
        gc_period: Some(64),
        build: Box::new(move |vm| {
            let (_c, entry) = vm.define_native_class(
                "bench/StreamChurn",
                "churn",
                "()I",
                true,
                Rc::new(move |env, _| {
                    let mut survived = 0;
                    for i in 0..strings {
                        let s = typed::new_string_utf(env, &format!("churn-{i}"))?;
                        if typed::get_string_utf_length(env, s)? > 0 {
                            survived += 1;
                        }
                        typed::delete_local_ref(env, s)?;
                    }
                    Ok(JValue::Int(survived))
                }),
            );
            Setup {
                entries: vec![entry; calls as usize],
                first_args: Vec::new(),
            }
        }),
    }
}

pub const CHURN_CALLS: std::ops::RangeInclusive<u32> = 4..=16;
pub const CHURN_STRINGS: u32 = 200;

/// corpus-mix: the corpus in seeded order (a fresh permutation per pass),
/// about 3/4 of sessions on `jinn` and 1/4 on the five-config matrix.
pub fn corpus_mix(seed: u64) -> ServePlan {
    let mut rng = Rng::new(seed);
    let inputs = corpus_inputs();
    let mut sessions = Vec::with_capacity(PLAN_LEN);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    while sessions.len() < PLAN_LEN {
        rng.shuffle(&mut order);
        for &input in &order {
            let stack = usize::from(rng.below(4) == 0);
            sessions.push(Planned { input, stack });
        }
    }
    sessions.truncate(PLAN_LEN);
    finish_plan(
        inputs,
        vec![jinn_stack(), matrix_stack()],
        sessions,
        2,
        "20 golden-corpus traces, 230 B-1.6 KB, seeded order; stack jinn p=3/4, \
         five-config matrix p=1/4",
    )
}

/// churn-upload: one recorded churn trace per call count in
/// [`CHURN_CALLS`]; each session draws its call count uniformly.
pub fn churn_upload(seed: u64) -> ServePlan {
    let mut rng = Rng::new(seed);
    let inputs: Vec<Input> = CHURN_CALLS
        .map(|calls| Input {
            name: format!("StreamChurn-{calls}x{CHURN_STRINGS}"),
            bytes: Arc::new(record_program(&churn_program(calls, CHURN_STRINGS))),
        })
        .collect();
    let sessions = (0..PLAN_LEN)
        .map(|_| Planned {
            input: rng.below(inputs.len() as u64) as usize,
            stack: 0,
        })
        .collect();
    let sizes: Vec<usize> = inputs.iter().map(|i| i.bytes.len()).collect();
    let describe = format!(
        "StreamChurn traces, {}-{} calls x {CHURN_STRINGS} strings ({}-{} bytes), \
         call count uniform per session; stack jinn",
        CHURN_CALLS.start(),
        CHURN_CALLS.end(),
        sizes.iter().min().expect("inputs"),
        sizes.iter().max().expect("inputs"),
    );
    finish_plan(inputs, vec![jinn_stack()], sessions, 1, &describe)
}

fn finish_plan(
    inputs: Vec<Input>,
    stacks: Vec<Stack>,
    sessions: Vec<Planned>,
    clients: usize,
    describe: &str,
) -> ServePlan {
    let mut references = BTreeMap::new();
    for p in &sessions {
        references
            .entry((p.input, p.stack))
            .or_insert_with(|| reference(&inputs[p.input], &stacks[p.stack]));
    }
    ServePlan {
        inputs,
        stacks,
        sessions,
        references,
        describe: describe.to_string(),
        clients,
    }
}

fn reference(input: &Input, stack: &Stack) -> Reference {
    let trace = Trace::parse(&input.bytes).expect("recorded trace parses");
    let mut r = Reference {
        verdicts: BTreeMap::new(),
        outcomes: Vec::new(),
        events_replayed: 0,
        divergences: 0,
        checked_transitions: 0,
    };
    for config in &stack.configs {
        let out = replay_trace(&trace, config).expect("recorded trace replays");
        let label = config.label();
        for v in &out.violations {
            *r.verdicts
                .entry((
                    label.clone(),
                    v.machine.to_string(),
                    v.error_state.to_string(),
                    v.function.clone(),
                ))
                .or_insert(0) += 1;
        }
        r.events_replayed += out.events_replayed;
        r.divergences += out.divergences;
        if matches!(config, ReplayConfig::Jinn(_)) {
            r.checked_transitions += 2 * out.events_replayed;
        }
        r.outcomes.push((
            label,
            out.behavior.to_string(),
            out.events_replayed,
            out.divergences,
        ));
    }
    r
}

/// Replay time under Jinn over replay time under plain HotSpot for the
/// plan's traces, each trace weighted by how often the plan sends it.
/// Each per-trace time is the median of `reps` alternating replays.
pub fn replay_overhead_x(plan: &ServePlan, reps: usize) -> f64 {
    let jinn = ReplayConfig::parse("jinn").expect("jinn parses");
    let hotspot = ReplayConfig::parse("hotspot").expect("hotspot parses");
    let mut weight = vec![0u64; plan.inputs.len()];
    for p in &plan.sessions {
        weight[p.input] += 1;
    }
    let (mut checked, mut bare) = (0.0, 0.0);
    for (input, w) in plan.inputs.iter().zip(weight) {
        if w == 0 {
            continue;
        }
        let trace = Trace::parse(&input.bytes).expect("recorded trace parses");
        let time = |config: &ReplayConfig| {
            let t = Instant::now();
            std::hint::black_box(replay_trace(&trace, config).expect("replays"));
            t.elapsed().as_secs_f64()
        };
        let (mut tj, mut th) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            tj.push(time(&jinn));
            th.push(time(&hotspot));
        }
        checked += w as f64 * median(tj);
        bare += w as f64 * median(th);
    }
    checked / bare
}
