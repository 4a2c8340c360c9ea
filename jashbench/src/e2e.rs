//! The timed run: end-to-end metrics with tracing off.
//!
//! Every workload reports the same metrics, so each has a batch view
//! (the script run in-process under the JIT, under the interpreter and on
//! the simulated machine) and a served view (the script submitted to an
//! in-process daemon). `serve-mix` is the daemon workload proper: two
//! closed-loop clients; its batch view runs one rotation of its three
//! scripts in-process. A batch workload's served view uses one client,
//! because its scripts write fixed output paths that two concurrent runs
//! would race on. The samples of all views are interleaved.

use crate::batch::{self, Env};
use crate::ctx::{jstr, same_bytes, Ctx};
use crate::serve;
use crate::stats::{peak_rss_mib, reset_peak_rss, Metric, Samples};
use crate::workloads::{self, Expected, Inputs};
use jash_core::Engine;
use jash_spec::json::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Length of one sample of the serve-mix closed loop; the memory peak
/// is reset and read around each.
const MIX_SEGMENT: Duration = Duration::from_millis(500);

/// Least number of serve-mix submissions a run collects.
const MIX_SUBMISSIONS: usize = 1000;

/// One in-process unit of a workload: the scripts it runs (each in a
/// fresh file system and session) and what each must produce.
pub struct Unit {
    /// `(script, expected result)` pairs, run in order.
    pub steps: Vec<(String, Expected)>,
}

impl Unit {
    /// The batch unit of `workload`.
    pub fn of(workload: &str, inputs: &Inputs) -> Unit {
        let steps = if workload == "serve-mix" {
            workloads::serve_scripts(inputs)
                .into_iter()
                .zip(workloads::serve_expected(inputs))
                .map(|(script, stdout)| {
                    (
                        script,
                        Expected {
                            files: Vec::new(),
                            stdout,
                        },
                    )
                })
                .collect()
        } else {
            vec![(
                workloads::batch_script(workload).to_string(),
                workloads::expected(workload, inputs),
            )]
        };
        Unit { steps }
    }

    /// All expected outputs, concatenated.
    pub fn expected_bytes(&self) -> usize {
        self.steps
            .iter()
            .map(|(_, e)| e.stdout.len() + e.files.iter().map(|(_, d)| d.len()).sum::<usize>())
            .sum()
    }
}

/// Result of running a unit once.
pub struct UnitRun {
    /// Summed `run_script` wall time.
    pub wall: Duration,
    /// Summed session set-up (`Jash::new` + journal attach) time.
    pub setup: Duration,
    /// Decisions of each step's session.
    pub decisions: String,
    /// All outputs, for the engine-vs-engine comparison.
    pub outputs: Vec<u8>,
}

/// Runs every step of `unit` under `engine`, each in a fresh file system
/// from `make_env` and a fresh session, checking each against the
/// reference.
pub fn run_unit(
    ctx: &mut Ctx,
    what: &str,
    unit: &Unit,
    inputs: &Inputs,
    engine: Engine,
    make_env: fn(&[workloads::File]) -> Env,
) -> UnitRun {
    let mut out = UnitRun {
        wall: Duration::ZERO,
        setup: Duration::ZERO,
        decisions: String::new(),
        outputs: Vec::new(),
    };
    for (script, want) in &unit.steps {
        let env = make_env(&inputs.files);
        let t0 = Instant::now();
        let shell = batch::session(engine, &env);
        out.setup += t0.elapsed();
        let run = batch::run(shell, &env, script, None);
        out.wall += run.wall;
        ctx.check(what, batch::check(&run.result, &env, want));
        if !out.decisions.is_empty() {
            out.decisions.push_str(" | ");
        }
        out.decisions.push_str(&batch::decisions(&run.shell));
        out.outputs.extend(batch::outputs(&run, &env, want));
    }
    out
}

/// What one sample of a lane runs.
enum Kind {
    /// The unit in-process under an engine, on a host or simulated file
    /// system.
    Unit(Engine, fn(&[workloads::File]) -> Env),
    /// A closed loop of this many clients against the daemon for this
    /// long (each client submits at least once).
    Served(usize, Duration),
}

/// One interleaved measurement lane of the timed phase.
struct Lane {
    name: &'static str,
    kind: Kind,
    share: f64,
    min: usize,
    /// Per-sample wall time (seconds) or submit latency (milliseconds).
    values: Samples,
    /// Per-sample peak resident set size, MiB.
    rss: Samples,
    spent: Duration,
    decisions: Vec<String>,
}

impl Lane {
    fn new(name: &'static str, kind: Kind, share: f64, min: usize) -> Lane {
        Lane {
            name,
            kind,
            share,
            min,
            values: Samples::default(),
            rss: Samples::default(),
            spent: Duration::ZERO,
            decisions: Vec::new(),
        }
    }
}

/// Runs the timed phase of `workload` for about `budget` and returns its
/// end-to-end metrics.
pub fn measure(
    ctx: &mut Ctx,
    workload: &str,
    inputs: &Inputs,
    budget: Duration,
    sock_dir: &Path,
) -> Vec<Metric> {
    let unit = Unit::of(workload, inputs);
    let mix = workload == "serve-mix";
    let scripts: Vec<String> = unit.steps.iter().map(|(s, _)| s.clone()).collect();
    let want: Vec<Vec<u8>> = unit.steps.iter().map(|(_, e)| e.stdout.clone()).collect();

    // Set-up, several times: the program's own set-up plus the untimed
    // warm-up run. Input generation is not part of it. The daemon of the
    // last set-up serves the timed phase.
    let mut setup = Samples::default();
    let mut first_decisions = String::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let s = ctx.start("setup", None);
        let sock = serve::socket_path(sock_dir, i);
        if mix {
            let t0 = Instant::now();
            let d = serve::start(sock.clone(), &inputs.files, false);
            let warm = serve::closed_loop(&sock, 1, &scripts, &want, Duration::ZERO, scripts.len());
            setup.push_s(t0.elapsed());
            for sub in warm.submissions {
                ctx.check("serve warm-up", sub.error.map_or(Ok(()), Err));
            }
            daemon = Some((sock, d));
        } else {
            let r = run_unit(
                ctx,
                "warm-up",
                &unit,
                inputs,
                Engine::JashJit,
                batch::host_env,
            );
            setup.push_s(r.setup + r.wall);
            if i == 0 {
                first_decisions = r.decisions;
            }
            if i + 1 == SETUPS {
                // The batch script's served view gets a daemon too.
                daemon = Some((sock.clone(), serve::start(sock, &inputs.files, false)));
            }
        }
        if i + 1 < SETUPS {
            if let Some((_, d)) = daemon.take() {
                d.server.drain();
            }
        }
        ctx.tracer.end(s);
    }
    let (sock, daemon) = daemon.expect("the last set-up started a daemon");

    let timed = ctx.start("timed", None);
    let mut served_time = Duration::ZERO;
    let mut completed = 0usize;

    // The lanes, interleaved so that drift spreads over all of them.
    let mut lanes = vec![
        Lane::new("jit", Kind::Unit(Engine::JashJit, batch::host_env), 0.3, 3),
        Lane::new("interp", Kind::Unit(Engine::Bash, batch::host_env), 0.15, 5),
        Lane::new(
            "modeled",
            Kind::Unit(Engine::JashJit, batch::sim_env),
            0.25,
            3,
        ),
    ];
    lanes.push(if mix {
        // At least MIX_SUBMISSIONS submissions, so p99 has ten beyond it.
        let kind = Kind::Served(2, MIX_SEGMENT);
        Lane::new("closed_loop", kind, 1.0, MIX_SUBMISSIONS)
    } else {
        // One submission per sample.
        Lane::new("served", Kind::Served(1, Duration::ZERO), 0.3, 5)
    });
    let total_share: f64 = lanes.iter().map(|l| l.share).sum();
    let mut first_outputs: [Option<Vec<u8>>; 2] = [None, None];
    loop {
        let next = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.values.len() < l.min || l.spent < budget.mul_f64(l.share / total_share)
            })
            .min_by(|(_, a), (_, b)| {
                let fa = a.spent.as_secs_f64() / a.share;
                let fb = b.spent.as_secs_f64() / b.share;
                fa.total_cmp(&fb)
            })
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let s = ctx.start(lanes[i].name, Some(timed));
        reset_peak_rss();
        let t0 = Instant::now();
        match lanes[i].kind {
            Kind::Unit(engine, make_env) => {
                let r = run_unit(ctx, lanes[i].name, &unit, inputs, engine, make_env);
                lanes[i].values.push_s(r.wall);
                lanes[i].decisions.push(r.decisions);
                if i < 2 && first_outputs[i].is_none() {
                    first_outputs[i] = Some(r.outputs);
                }
            }
            Kind::Served(clients, segment) => {
                let load = serve::closed_loop(&sock, clients, &scripts, &want, segment, 1);
                served_time += load.elapsed;
                for sub in load.submissions {
                    lanes[i].values.push(sub.latency.as_secs_f64() * 1e3);
                    completed += usize::from(sub.error.is_none());
                    ctx.check("submission", sub.error.map_or(Ok(()), Err));
                }
            }
        }
        let lane = &mut lanes[i];
        lane.spent += t0.elapsed();
        lane.rss.push(peak_rss_mib().unwrap_or(0.0));
        ctx.tracer.end(s);
    }
    daemon.server.drain();
    ctx.tracer.end(timed);

    // The JIT and the interpreter must agree byte for byte.
    if let [Some(jit), Some(interp)] = &first_outputs {
        ctx.check("jit vs interpreter", same_bytes("outputs", jit, interp));
    }

    // Decisions: the host-clock JIT runs against the first warm-up run;
    // the simulated-machine runs against their own first run.
    if first_decisions.is_empty() {
        first_decisions = lanes[0].decisions.first().cloned().unwrap_or_default();
    }
    record_decisions(ctx, "decisions.jit", &first_decisions, &lanes[0].decisions);
    let modeled_first = lanes[2].decisions.first().cloned().unwrap_or_default();
    record_decisions(
        ctx,
        "decisions.modeled",
        &modeled_first,
        &lanes[2].decisions,
    );
    ctx.note(
        "input_resident_mib",
        Value::Num(resident_mib(inputs, &unit)),
    );
    ctx.note("serve_clients", Value::Num(if mix { 2.0 } else { 1.0 }));

    let latency_ms = &lanes[3].values;
    let rss = &lanes[if mix { 3 } else { 0 }].rss;
    ctx.note(
        "peak_rss_samples_mib",
        Value::Arr(rss.0.iter().map(|&v| Value::Num(v)).collect()),
    );
    vec![
        Metric::median("setup_s", "s", &setup, 1.0),
        Metric::median("wall_s", "s", &lanes[0].values, 1.0),
        Metric::median("interp_wall_s", "s", &lanes[1].values, 1.0),
        Metric::median("modeled_s", "s", &lanes[2].values, 1.0),
        Metric::median("submit_ms_p50", "ms", latency_ms, 1.0),
        Metric::one("submit_ms_p99", "ms", latency_ms.percentile(99.0))
            .with_samples(latency_ms.len()),
        Metric::one(
            "runs_per_s",
            "1/s",
            completed as f64 / served_time.as_secs_f64().max(1e-9),
        )
        .with_samples(latency_ms.len()),
        // Printed and saved, but not a gated metric: on serve-mix the
        // peak grows with the daemon's thread and allocator caches and
        // varies too much from run to run to hold any bound.
        Metric::median("peak_rss_mib", "MiB", rss, 1.0).ungated(),
    ]
}

/// MiB the benchmark itself keeps resident for inputs and references.
pub fn resident_mib(inputs: &Inputs, unit: &Unit) -> f64 {
    (inputs.bytes() + unit.expected_bytes()) as f64 / (1024.0 * 1024.0)
}

/// Saves the first run's decisions and every run whose decisions differ
/// from them: a planner flip would otherwise read as a speed change.
fn record_decisions(ctx: &mut Ctx, key: &str, first: &str, runs: &[String]) {
    let differing: Vec<Value> = runs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.as_str() != first)
        .map(|(i, d)| jstr(format!("run {i}: {d}")))
        .collect();
    if !differing.is_empty() {
        eprintln!(
            "note: {} of {} runs decided differently from the first ({first}) under {key}",
            differing.len(),
            runs.len()
        );
    }
    ctx.note(
        key,
        Value::Obj(vec![
            ("first".to_string(), jstr(first)),
            ("runs".to_string(), Value::Num(runs.len() as f64)),
            ("differing".to_string(), Value::Arr(differing)),
        ]),
    );
}
