//! `jashbench`: the Jash benchmark.
//!
//! ```text
//! jashbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//! jashbench compare OLD NEW
//! jashbench selftest
//! ```
//!
//! A run generates the workload's inputs from the seed, measures for
//! about `--seconds`, checks every output against a straight-line
//! reference, prints one row per metric and, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Results (with sample counts, quartiles, decisions and
//! the seed) go to `.jashbench/results/`, the benchmark's own spans to
//! `.jashbench/spans/`. See `README.md` for the workloads and metrics.

mod batch;
mod compare;
mod ctx;
mod e2e;
mod layers;
mod selftest;
mod serve;
mod stats;
mod workloads;

use ctx::{jstr, Ctx};
use jash_spec::json::Value;
use stats::Metric;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Where runs write results, spans and sockets, relative to the
/// working directory.
const OUT_DIR: &str = ".jashbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: jashbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n       \
         jashbench compare OLD NEW\n       \
         jashbench selftest\n\
         workloads: {}",
        workloads::WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        Some("selftest") => return selftest::main(),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jashbench: {e}");
            return usage();
        }
    };
    for sub in ["results", "spans", "sock"] {
        let dir = Path::new(OUT_DIR).join(sub);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("jashbench: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let names: Vec<&str> = if args.workload == "all" {
        workloads::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in &names {
        let (ctx, metrics) = run_workload(&args, name);
        attempted += ctx.attempted;
        failed += ctx.failed;
        for mut m in metrics {
            if names.len() > 1 {
                m.name = format!("{name}.{}", m.name);
            }
            all_metrics.push(m);
        }
    }
    let correct = failed == 0;
    println!("{}", summary_json(correct, attempted, failed, &all_metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload: generation, measurement, report, result files.
fn run_workload(args: &Args, workload: &str) -> (Ctx, Vec<Metric>) {
    let mut ctx = Ctx::new(workload, args.seed, args.trace);
    let s = ctx.start("generate", None);
    let inputs = workloads::generate(workload, args.seed);
    ctx.tracer.end(s);
    let budget = Duration::from_secs(args.seconds);
    let sock_dir = Path::new(OUT_DIR).join("sock");
    let metrics = if args.trace {
        layers::measure(&mut ctx, workload, &inputs, budget, &sock_dir)
    } else {
        e2e::measure(&mut ctx, workload, &inputs, budget, &sock_dir)
    };
    ctx.tracer.end(ctx.root);
    print_report(&ctx, workload, args, &metrics);
    if let Err(e) = save(&ctx, workload, args, &metrics) {
        eprintln!("jashbench: could not save results: {e}");
    }
    (ctx, metrics)
}

fn print_report(ctx: &Ctx, workload: &str, args: &Args, metrics: &[Metric]) {
    println!(
        "{workload} seed {} ({} metrics, {}s budget, {} host cores)",
        args.seed,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for m in metrics {
        let spread = m
            .quartiles
            .map(|(q1, q3)| format!("  [q1 {q1:.6} q3 {q3:.6}]"))
            .unwrap_or_default();
        println!(
            "  {:<36} {:>14.6} {:<6} n={}{spread}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<36} {:>14.6} {:<6} n={}",
        "error_rate",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
        "ratio",
        ctx.attempted
    );
    for e in &ctx.errors {
        println!("  ERROR {e}");
    }
}

fn metric_obj(m: &Metric, full: bool) -> Value {
    let mut o = vec![
        ("value".to_string(), num(m.value)),
        ("unit".to_string(), jstr(m.unit)),
    ];
    if full {
        o.push(("samples".to_string(), num(m.samples as f64)));
        if let Some((q1, q3)) = m.quartiles {
            o.push(("q1".to_string(), num(q1)));
            o.push(("q3".to_string(), num(q3)));
        }
    }
    Value::Obj(o)
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
pub fn num(v: f64) -> Value {
    Value::Num(if v.is_finite() { v } else { 0.0 })
}

fn summary_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), num(attempted.max(1) as f64)),
        ("failed".to_string(), num(failed as f64)),
        (
            "metrics".to_string(),
            Value::Obj(
                metrics
                    .iter()
                    .filter(|m| m.gated)
                    .map(|m| (m.name.clone(), metric_obj(m, false)))
                    .collect(),
            ),
        ),
    ])
    .to_compact()
}

fn save(ctx: &Ctx, workload: &str, args: &Args, metrics: &[Metric]) -> std::io::Result<()> {
    let result = Value::Obj(vec![
        ("workload".to_string(), jstr(workload)),
        ("seed".to_string(), num(args.seed as f64)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("seconds".to_string(), num(args.seconds as f64)),
        (
            "host_cores".to_string(),
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("run".to_string(), jstr(ctx.run_id.as_str())),
        ("correct".to_string(), Value::Bool(ctx.failed == 0)),
        ("attempted".to_string(), num(ctx.attempted as f64)),
        ("failed".to_string(), num(ctx.failed as f64)),
        (
            "error_rate".to_string(),
            num(ctx.failed as f64 / ctx.attempted.max(1) as f64),
        ),
        (
            "errors".to_string(),
            Value::Arr(ctx.errors.iter().map(|e| jstr(e.as_str())).collect()),
        ),
        (
            "metrics".to_string(),
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), metric_obj(m, true)))
                    .collect(),
            ),
        ),
        ("notes".to_string(), Value::Obj(ctx.notes.clone())),
    ]);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let base = format!("{}-{stamp}", ctx.run_id);
    std::fs::write(
        Path::new(OUT_DIR)
            .join("results")
            .join(format!("{base}.json")),
        result.to_pretty(),
    )?;
    std::fs::write(
        Path::new(OUT_DIR)
            .join("spans")
            .join(format!("{base}.jsonl")),
        ctx.tracer.to_jsonl(),
    )
}
