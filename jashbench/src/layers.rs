//! The traced run: per-layer metrics.
//!
//! Each layer is measured from outside, on the workload's own inputs:
//! the benchmark times calls into the layer's public functions, and reads
//! the session tracer (`Jash::tracer`) and the daemon's run traces
//! (`ServerConfig::trace_root`) for counts it cannot reach otherwise.
//! Every metric is printed for every workload; where a workload does not
//! exercise a layer, the layer runs on that workload's input anyway (see
//! `README.md` for the exact input of each metric).

use crate::batch::{self, pinned};
use crate::ctx::{same_bytes, Ctx};
use crate::e2e::{run_unit, Unit};
use crate::serve;
use crate::stats::{peak_rss_mib, reset_peak_rss, Metric, Samples};
use crate::workloads::{self, Inputs};
use bytes::Bytes;
use jash_core::{jit_region, Engine, Jash};
use jash_coreutils::kernel::Kernel;
use jash_coreutils::{run_on_bytes, UtilCtx};
use jash_cost::{choose_plan_with, InputInfo, PlannerOptions};
use jash_dataflow::{compile, fuse_kernels, parallelize_all, Dfg, NodeKind, Region};
use jash_exec::{balanced_targets, execute, ExecConfig, SupervisionEvent};
use jash_expand::ShellState;
use jash_interp::Interpreter;
use jash_io::stream::{ByteStream, Sink};
use jash_io::{FsHandle, LineBuffer};
use jash_trace::{AttrValue, Record, Tracer};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one-chunk line-framing input is cut to this many bytes: the cost
/// of framing one chunk grows with the square of its size today, so the
/// cap is part of the metric's definition.
pub const ONE_CHUNK_CAP: usize = 128 << 10;

/// Chunk size for the chunked io and kernel measurements.
pub const CHUNK: usize = 64 << 10;

const MIB: f64 = 1024.0 * 1024.0;

/// Runs `f` until `budget` has passed (at least `min` times) and returns
/// the per-call wall times in seconds.
fn timed<T>(budget: Duration, min: usize, mut f: impl FnMut() -> T) -> (Samples, T) {
    let t0 = Instant::now();
    let mut s = Samples::default();
    loop {
        let c = Instant::now();
        let out = black_box(f());
        s.push_s(c.elapsed());
        if s.len() >= min && t0.elapsed() >= budget {
            return (s, out);
        }
    }
}

fn mib_s(bytes: usize, secs: &Samples) -> f64 {
    bytes as f64 / MIB / secs.median().max(1e-9)
}

/// The workload's main text: what its line-oriented stages read.
fn main_text(workload: &str, inputs: &Inputs) -> Vec<u8> {
    match workload {
        "loop-small" => inputs.files.iter().flat_map(|(_, d)| d.clone()).collect(),
        _ => inputs.file("/in.txt").to_vec(),
    }
}

/// The pipeline whose region the dataflow, cost and exec layers are
/// measured on, and the bytes it reads.
fn region_pipeline(workload: &str, inputs: &Inputs) -> (String, usize) {
    match workload {
        "fig1-sort" => (
            workloads::FIG1_SCRIPT.to_string(),
            inputs.file("/in.txt").len(),
        ),
        "stream-chain" => (
            workloads::CHAIN_SCRIPT.to_string(),
            inputs.file("/in.txt").len(),
        ),
        "loop-small" => {
            let f = workloads::loop_path(0);
            (
                format!(
                    "cat {f} | tr A-Z a-z | grep -v qqq | cut -c 1-48 | head -n {} > {f}.out",
                    workloads::LOOP_HEAD
                ),
                inputs.file(&f).len(),
            )
        }
        _ => (
            workloads::SERVE_STREAM_SCRIPT.to_string(),
            inputs.file("/in.txt").len(),
        ),
    }
}

fn fresh_fs(inputs: &Inputs) -> FsHandle {
    batch::host_env(&inputs.files).fs
}

fn extract_region(fs: &FsHandle, text: &str) -> Region {
    let prog = jash_parser::parse(text).expect("benchmark pipeline parses");
    let mut state = ShellState::new(Arc::clone(fs));
    jit_region(&mut state, &prog.items[0].and_or.first).expect("benchmark pipeline is a region")
}

/// Runs the traced run of `workload` for about `budget` and returns its
/// per-layer metrics.
pub fn measure(
    ctx: &mut Ctx,
    workload: &str,
    inputs: &Inputs,
    budget: Duration,
    sock_dir: &Path,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let unit = Unit::of(workload, inputs);
    let text = main_text(workload, inputs);

    let s = ctx.start("layer.session", None);
    out.extend(session_layers(ctx, &unit, inputs, budget.mul_f64(0.3)));
    ctx.tracer.end(s);

    let s = ctx.start("layer.front", None);
    out.extend(front_layers(workload, &unit, inputs, budget.mul_f64(0.05)));
    ctx.tracer.end(s);

    let s = ctx.start("layer.interp", None);
    out.push(interp_layer(ctx, &unit, inputs, budget.mul_f64(0.1)));
    ctx.tracer.end(s);

    let s = ctx.start("layer.exec", None);
    out.extend(exec_layer(ctx, workload, inputs, budget.mul_f64(0.15)));
    ctx.tracer.end(s);

    let s = ctx.start("layer.coreutils", None);
    out.extend(coreutils_layer(ctx, &text, budget.mul_f64(0.2)));
    ctx.tracer.end(s);

    let s = ctx.start("layer.io", None);
    out.extend(io_layer(ctx, workload, &text, budget.mul_f64(0.1)));
    ctx.tracer.end(s);

    let s = ctx.start("layer.serve", None);
    out.extend(serve_layer(
        ctx,
        workload,
        inputs,
        &unit,
        budget.mul_f64(0.15),
        sock_dir,
    ));
    ctx.tracer.end(s);

    let order = [
        "io.",
        "exec.",
        "coreutils.",
        "parser.",
        "expand.",
        "dataflow.",
        "cost.",
        "core.",
        "interp.",
        "serve.",
        "trace.",
    ];
    out.sort_by_key(|m| order.iter().position(|p| m.name.starts_with(p)));
    out
}

// ---------------------------------------------------------------------
// Session tracer: core, interp, expand, dataflow/cost counts, trace cost
// ---------------------------------------------------------------------

/// Sums over the session traces of one unit.
#[derive(Default)]
struct SessionCounts {
    hists: HashMap<String, (u64, u64)>,
    counters: HashMap<String, u64>,
    run_self_us: u64,
    optimized_self_us: u64,
    interp_regions: u64,
    nodes: u64,
    nodes_fused: u64,
    fused_regions: u64,
    offered: u64,
    optimized: u64,
    failed_over: u64,
    attempts: u64,
    wide: u64,
}

impl SessionCounts {
    fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }

    fn add_records(&mut self, records: &[Record]) {
        struct S<'a> {
            kind: &'a str,
            parent: Option<u64>,
            start: u64,
            wall: u64,
            rec: &'a Record,
        }
        let mut spans: HashMap<u64, S> = HashMap::new();
        for r in records {
            match r {
                Record::Span {
                    kind,
                    id,
                    parent,
                    start_us,
                    wall_us,
                    ..
                } => {
                    spans.insert(
                        *id,
                        S {
                            kind,
                            parent: *parent,
                            start: *start_us,
                            wall: *wall_us,
                            rec: r,
                        },
                    );
                }
                Record::Hist {
                    name, count, sum, ..
                } => {
                    let e = self.hists.entry(name.clone()).or_default();
                    e.0 += count;
                    e.1 += sum;
                }
                Record::Counter { name, value } => {
                    *self.counters.entry(name.clone()).or_default() += value;
                }
                _ => {}
            }
        }
        // A span's self time is its wall time minus the union of its
        // direct children's intervals.
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.values() {
            if let Some(p) = s.parent {
                children
                    .entry(p)
                    .or_default()
                    .push((s.start, s.start + s.wall));
            }
        }
        let mut fused_parents = HashSet::new();
        for (id, s) in &spans {
            let covered = union_len(children.get(id).map_or(&[][..], Vec::as_slice));
            let own = s.wall.saturating_sub(covered);
            match s.kind {
                "run" => self.run_self_us += own,
                "region" => match s.rec.attr_str("action") {
                    Some("optimized") => self.optimized_self_us += own,
                    Some("interpreted") | Some("failed_over") => self.interp_regions += 1,
                    _ => {}
                },
                "node" => {
                    self.nodes += 1;
                    if s.rec.attr_str("cmd") == Some("fused") {
                        self.nodes_fused += s.rec.attr_u64("nodes_fused").unwrap_or(0);
                        fused_parents.insert(s.parent);
                    }
                }
                _ => {}
            }
        }
        self.fused_regions += fused_parents.len() as u64;
    }

    fn add_session(&mut self, shell: &Jash) {
        self.offered += shell.core.trace.len() as u64;
        self.optimized += shell.runtime.regions_optimized;
        self.failed_over += shell.runtime.regions_failed_over;
        self.attempts += shell
            .runtime
            .supervision
            .events
            .iter()
            .filter(|e| matches!(e, SupervisionEvent::Attempt { .. }))
            .count() as u64;
        self.wide += shell
            .core
            .trace
            .iter()
            .filter(|ev| match &ev.action {
                jash_core::Action::Optimized { width, .. }
                | jash_core::Action::FailedOver { width, .. } => *width > 1,
                _ => false,
            })
            .count() as u64;
    }
}

/// Total length covered by a set of `[start, end)` intervals.
fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Runs the unit under the JIT with a fresh session tracer per step.
fn traced_unit(ctx: &mut Ctx, unit: &Unit, inputs: &Inputs) -> (Duration, SessionCounts) {
    let mut counts = SessionCounts::default();
    let mut wall = Duration::ZERO;
    for (script, want) in &unit.steps {
        let env = batch::host_env(&inputs.files);
        let shell = batch::session(Engine::JashJit, &env);
        let tracer = Arc::new(Tracer::new());
        let run = batch::run(shell, &env, script, Some(Arc::clone(&tracer)));
        wall += run.wall;
        ctx.check("traced run", batch::check(&run.result, &env, want));
        counts.add_records(&tracer.drain());
        counts.add_session(&run.shell);
    }
    (wall, counts)
}

fn session_layers(ctx: &mut Ctx, unit: &Unit, inputs: &Inputs, budget: Duration) -> Vec<Metric> {
    // Untraced and traced runs alternate; the first traced run supplies
    // the counts, which repeat exactly from run to run.
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let mut counts: Option<SessionCounts> = None;
    while plain.is_empty() || t0.elapsed() < budget {
        let s = ctx.start("session.untraced", None);
        plain.push_s(
            run_unit(
                ctx,
                "untraced run",
                unit,
                inputs,
                Engine::JashJit,
                batch::host_env,
            )
            .wall,
        );
        ctx.tracer.end(s);
        let s = ctx.start("session.traced", None);
        let (wall, c) = traced_unit(ctx, unit, inputs);
        ctx.tracer.end(s);
        traced.push_s(wall);
        counts.get_or_insert(c);
    }
    let c = counts.expect("one traced run");
    let ms = |us: u64| us as f64 / 1e3;
    let attempted = c.optimized + c.failed_over;
    let per_attempted = |n: u64| {
        if attempted == 0 {
            0.0
        } else {
            n as f64 / attempted as f64
        }
    };
    let (expand_n, expand_us) = c.hist("jit.expand_us");
    let (plans, _) = c.hist("jit.plan_us");
    let hits = c.counters.get("jit.plan_cache.hits").copied().unwrap_or(0);
    let misses = c
        .counters
        .get("jit.plan_cache.misses")
        .copied()
        .unwrap_or(0);
    vec![
        Metric::one("expand.calls", "count", expand_n as f64),
        Metric::one("expand.busy_ms", "ms", ms(expand_us)),
        Metric::one("dataflow.nodes", "count", c.nodes as f64),
        Metric::one("dataflow.nodes_fused", "count", c.nodes_fused as f64),
        Metric::one("cost.plans", "count", plans as f64),
        Metric::one("cost.width", "count", c.wide as f64),
        Metric::one("cost.fused", "count", c.fused_regions as f64),
        Metric::one("core.regions_offered", "count", c.offered as f64),
        Metric::one("core.regions_optimized", "count", c.optimized as f64),
        Metric::one("core.failover_ratio", "ratio", per_attempted(c.failed_over)),
        Metric::one(
            "core.executions_per_region",
            "count",
            per_attempted(c.attempts + c.failed_over),
        ),
        Metric::one(
            "core.plan_cache_hit_ratio",
            "ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        ),
        Metric::one(
            "core.self_ms",
            "ms",
            ms(c.run_self_us + c.optimized_self_us),
        ),
        Metric::one("interp.regions", "count", c.interp_regions as f64),
        Metric::one(
            "trace.overhead_ratio",
            "ratio",
            traced.median() / plain.median().max(1e-9),
        )
        .with_samples(traced.len()),
    ]
}

// ---------------------------------------------------------------------
// Interp: the interpreter alone on the workload's scripts
// ---------------------------------------------------------------------

/// Median wall time of `Interpreter::run_script` over the unit (each
/// step on a fresh file system), checked against the reference.
fn interp_layer(ctx: &mut Ctx, unit: &Unit, inputs: &Inputs, budget: Duration) -> Metric {
    let mut busy = Samples::default();
    let t0 = Instant::now();
    while busy.len() < 3 || t0.elapsed() < budget {
        let mut wall = Duration::ZERO;
        for (script, want) in &unit.steps {
            let env = batch::host_env(&inputs.files);
            let mut state = ShellState::new(Arc::clone(&env.fs));
            let s = Instant::now();
            let result = Interpreter::new().run_script(&mut state, script);
            wall += s.elapsed();
            ctx.check(
                "interpreter",
                result
                    .map_err(|e| e.to_string())
                    .and_then(|r| batch::check(&r, &env, want)),
            );
        }
        busy.push_s(wall);
    }
    Metric::median("interp.busy_ms", "ms", &busy, 1e3)
}

// ---------------------------------------------------------------------
// Parser, dataflow compile, cost planning: per-call time
// ---------------------------------------------------------------------

fn front_layers(workload: &str, unit: &Unit, inputs: &Inputs, budget: Duration) -> Vec<Metric> {
    let third = budget / 3;
    let (parse, _) = timed(third, 20, || {
        for (script, _) in &unit.steps {
            black_box(jash_parser::parse(script).expect("benchmark script parses"));
        }
    });
    let fs = fresh_fs(inputs);
    let (text, bytes) = region_pipeline(workload, inputs);
    let region = extract_region(&fs, &text);
    let registry = jash_spec::Registry::builtin();
    let (compile_s, compiled) = timed(third, 20, || compile(&region, &registry));
    let dfg = compiled.expect("benchmark region compiles").dfg;
    let input = InputInfo {
        total_bytes: bytes as u64,
    };
    let opts = PlannerOptions::default();
    let (plan, _) = timed(third, 20, || {
        choose_plan_with(&dfg, &pinned(), input, &opts, None)
    });
    vec![
        Metric::median("parser.parse_us", "us", &parse, 1e6),
        Metric::median("dataflow.compile_us_p50", "us", &compile_s, 1e6),
        Metric::median("cost.plan_us_p50", "us", &plan, 1e6),
    ]
}

// ---------------------------------------------------------------------
// Exec: the planned graph through `jash_exec::execute`
// ---------------------------------------------------------------------

fn exec_layer(ctx: &mut Ctx, workload: &str, inputs: &Inputs, budget: Duration) -> Vec<Metric> {
    let (text, bytes) = region_pipeline(workload, inputs);
    let fs = fresh_fs(inputs);
    let region = extract_region(&fs, &text);
    let base = compile(&region, &jash_spec::Registry::builtin())
        .expect("benchmark region compiles")
        .dfg;
    let d = choose_plan_with(
        &base,
        &pinned(),
        InputInfo {
            total_bytes: bytes as u64,
        },
        &PlannerOptions::default(),
        None,
    );
    // The graph runs at the pinned width, as the planner chooses it on
    // fig1-sort and stream-chain, so every workload's region goes
    // through split and merge; fusion follows the planner.
    let width = pinned().cores;
    let mut dfg: Dfg = base;
    parallelize_all(&mut dfg, width);
    if d.shape.fused {
        fuse_kernels(&mut dfg);
    }
    let want = exec_expected(workload, inputs);
    let (mut busy, mut merge, mut max_node) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut edge_bytes = 0u64;
    let mut unclean = 0usize;
    let t0 = Instant::now();
    while busy.is_empty() || t0.elapsed() < budget {
        let fs = fresh_fs(inputs);
        let mut cfg = ExecConfig::new(Arc::clone(&fs));
        for n in dfg.node_ids() {
            if let NodeKind::Split { width } = dfg.node(n).kind {
                cfg.split_targets
                    .insert(n, balanced_targets((bytes as u64).max(1), width));
            }
        }
        let s = ctx.start("exec.execute", None);
        let outcome = execute(&dfg, &cfg).expect("executor accepts the planned graph");
        ctx.tracer.end(s);
        busy.push_s(outcome.wall);
        let is_merge =
            |m: &jash_exec::NodeMetric| matches!(dfg.node(m.node).kind, NodeKind::Merge { .. });
        merge.push_s(
            outcome
                .metrics
                .iter()
                .filter(|m| is_merge(m))
                .map(|m| m.wall)
                .sum(),
        );
        max_node.push_s(
            outcome
                .metrics
                .iter()
                .map(|m| m.wall)
                .max()
                .unwrap_or_default(),
        );
        edge_bytes = outcome.metrics.iter().map(|m| m.bytes_out).sum();
        if outcome.is_clean() {
            let got = match &want.0 {
                Some(path) => jash_io::fs::read_to_vec(fs.as_ref(), path).unwrap_or_default(),
                None => outcome.stdout.clone(),
            };
            ctx.check("exec output", same_bytes("exec output", &got, &want.1));
        } else {
            // The engine fails such a region over to the interpreter;
            // that is waste, counted by the core metrics, not an error.
            unclean += 1;
        }
    }
    ctx.note(
        "exec.plan",
        crate::ctx::jstr(format!(
            "planned width {}, ran width {width} fused {}, unclean {unclean}/{}",
            d.shape.width,
            d.shape.fused,
            busy.len()
        )),
    );
    vec![
        Metric::median("exec.busy_ms", "ms", &busy, 1e3),
        Metric::median("exec.merge_ms", "ms", &merge, 1e3),
        Metric::median("exec.max_node_ms", "ms", &max_node, 1e3),
        Metric::one(
            "exec.edge_bytes_per_input_byte",
            "ratio",
            edge_bytes as f64 / bytes.max(1) as f64,
        ),
    ]
}

/// Where the exec-layer pipeline's output lands (`None`: stdout) and
/// what it must be.
fn exec_expected(workload: &str, inputs: &Inputs) -> (Option<String>, Vec<u8>) {
    match workload {
        "fig1-sort" => (
            Some("/out.txt".into()),
            workloads::fig1_expected(inputs.file("/in.txt")),
        ),
        "stream-chain" => (
            Some("/out.txt".into()),
            workloads::chain_expected(inputs.file("/in.txt"), None),
        ),
        "loop-small" => {
            let f = workloads::loop_path(0);
            (
                Some(format!("{f}.out")),
                workloads::chain_expected(inputs.file(&f), Some(workloads::LOOP_HEAD)),
            )
        }
        _ => (
            None,
            workloads::grep_v(&workloads::lower(inputs.file("/in.txt")), b"qqq"),
        ),
    }
}

// ---------------------------------------------------------------------
// Coreutils and the fused kernel, against straight-line references
// ---------------------------------------------------------------------

/// Runs `cmd args` with `run_on_bytes` over each piece of `pieces` in
/// turn, concatenating the outputs; the first failure wins.
fn run_pieces(
    uctx: &UtilCtx,
    cmd: &str,
    args: &[&str],
    pieces: &[&[u8]],
) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for p in pieces {
        let (status, stdout, stderr) =
            run_on_bytes(uctx, cmd, args, p).map_err(|e| e.to_string())?;
        if status != 0 {
            return Err(format!(
                "status {status}: {}",
                String::from_utf8_lossy(&stderr)
            ));
        }
        out.extend_from_slice(&stdout);
    }
    Ok(out)
}

/// `data` cut into line-aligned pieces of at most `size` bytes.
fn line_pieces(mut data: &[u8], size: usize) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while !data.is_empty() {
        let n = line_prefix(data, size);
        out.push(&data[..n]);
        data = &data[n..];
    }
    out
}

/// One coreutils row: a command on one stage's input, and the
/// straight-line reference of the same transform.
struct UtilCase<'a> {
    label: &'static str,
    cmd: &'static str,
    args: Vec<&'a str>,
    input: &'a [u8],
    /// Fed in 64 KiB line-aligned pieces (stateless per-line commands),
    /// or whole (`sort`, which must see all of its input).
    pieces: bool,
    reference: fn(&[u8]) -> Vec<u8>,
}

fn coreutils_layer(ctx: &mut Ctx, text: &[u8], budget: Duration) -> Vec<Metric> {
    let lowered = workloads::lower(text);
    let kept = workloads::grep_v(&lowered, b"qqq");
    let cut = workloads::cut(&kept, workloads::CUT_COLS);
    let words = workloads::tr_squeeze(text);
    let small = &cut[..line_prefix(&cut, workloads::SMALL_BYTES)];
    let cols = format!("1-{}", workloads::CUT_COLS);
    let head_n = workloads::LOOP_HEAD.to_string();
    let case = |label, cmd, args, input, pieces, reference: fn(&[u8]) -> Vec<u8>| UtilCase {
        label,
        cmd,
        args,
        input,
        pieces,
        reference,
    };
    let cases = vec![
        case("tr", "tr", vec!["A-Z", "a-z"], text, true, workloads::lower),
        case(
            "tr_squeeze",
            "tr",
            vec!["-cs", "A-Za-z", "\\n"],
            text,
            true,
            workloads::tr_squeeze,
        ),
        case("grep_v", "grep", vec!["-v", "qqq"], &lowered, true, |d| {
            workloads::grep_v(d, b"qqq")
        }),
        case("cut", "cut", vec!["-c", &cols], &kept, true, |d| {
            workloads::cut(d, workloads::CUT_COLS)
        }),
        case("sort", "sort", vec![], &words, false, workloads::sort_lines),
        case("head", "head", vec!["-n", &head_n], small, false, |d| {
            workloads::head(d, workloads::LOOP_HEAD)
        }),
    ];
    let each = budget.div_f64(cases.len() as f64 + 1.0);
    let uctx = UtilCtx::new(Arc::new(jash_io::MemFs::new()));
    let mut out = Vec::new();
    for c in cases {
        let pieces = if c.pieces {
            line_pieces(c.input, CHUNK)
        } else {
            vec![c.input]
        };
        let s = ctx.start(&format!("coreutils.{}", c.label), None);
        let (util, got) = timed(each.mul_f64(0.7), 1, || {
            run_pieces(&uctx, c.cmd, &c.args, &pieces)
        });
        let (refr, want) = timed(each.mul_f64(0.3), 1, || (c.reference)(c.input));
        ctx.tracer.end(s);
        ctx.check(
            &format!("coreutils.{}", c.label),
            got.and_then(|g| same_bytes(c.label, &g, &want)),
        );
        let util_rate = mib_s(c.input.len(), &util);
        out.push(
            Metric::one(&format!("coreutils.{}.mib_s", c.label), "MiB/s", util_rate)
                .with_samples(util.len()),
        );
        out.push(
            Metric::one(
                &format!("coreutils.{}.ref_ratio", c.label),
                "ratio",
                util_rate / mib_s(c.input.len(), &refr),
            )
            .with_samples(refr.len()),
        );
    }

    let s = ctx.start("coreutils.kernel", None);
    let stages = [
        ("tr", vec!["A-Z".to_string(), "a-z".to_string()]),
        ("grep", vec!["-v".to_string(), "qqq".to_string()]),
        ("cut", vec!["-c".to_string(), cols.clone()]),
    ];
    let (kernel, got) = timed(each, 1, || {
        let mut k = Kernel::build(&stages).expect("chain stages fuse");
        let mut out = Vec::with_capacity(text.len());
        for chunk in text.chunks(CHUNK) {
            k.feed(chunk, &mut out);
        }
        k.finish(&mut out);
        out
    });
    ctx.tracer.end(s);
    ctx.check("coreutils.kernel", same_bytes("kernel", &got, &cut));
    out.push(
        Metric::one(
            "coreutils.kernel.mib_s",
            "MiB/s",
            mib_s(text.len(), &kernel),
        )
        .with_samples(kernel.len()),
    );
    out
}

/// Length of the longest prefix of `data` that ends a line and is at
/// most `cap` bytes (the whole first line if even that is longer).
fn line_prefix(data: &[u8], cap: usize) -> usize {
    if data.len() <= cap {
        return data.len();
    }
    match data[..cap].iter().rposition(|&b| b == b'\n') {
        Some(i) => i + 1,
        None => data
            .iter()
            .position(|&b| b == b'\n')
            .map_or(data.len(), |i| i + 1),
    }
}

// ---------------------------------------------------------------------
// io: line framing and pipes
// ---------------------------------------------------------------------

fn frame(chunks: &[&[u8]]) -> usize {
    let mut lb = LineBuffer::new();
    let mut bytes = 0;
    for c in chunks {
        lb.push(c);
        while let Some(line) = lb.next_line() {
            bytes += line.len();
        }
    }
    bytes + lb.take_rest().map_or(0, |r| r.len())
}

fn io_layer(ctx: &mut Ctx, workload: &str, text: &[u8], budget: Duration) -> Vec<Metric> {
    // `fig1-sort` frames `sort`'s output: one short word per line.
    let words;
    let lines: &[u8] = if workload == "fig1-sort" {
        words = workloads::tr_squeeze(text);
        &words
    } else {
        text
    };
    let one = &lines[..line_prefix(lines, ONE_CHUNK_CAP)];
    let third = budget / 3;

    let s = ctx.start("io.linebuffer_one_chunk", None);
    let (one_s, n) = timed(third, 2, || frame(&[one]));
    ctx.tracer.end(s);
    ctx.check("io.linebuffer one chunk", count_ok(n, one.len()));

    let chunks: Vec<&[u8]> = text.chunks(CHUNK).collect();
    let s = ctx.start("io.linebuffer_64k", None);
    let (chunked, n) = timed(third, 2, || frame(&chunks));
    ctx.tracer.end(s);
    ctx.check("io.linebuffer 64k", count_ok(n, text.len()));

    let owned: Vec<Bytes> = chunks.iter().map(|c| Bytes::copy_from_slice(c)).collect();
    let s = ctx.start("io.pipe", None);
    let (piped, got) = timed(third, 2, || pipe_through(&owned));
    ctx.tracer.end(s);
    ctx.check("io.pipe", got.and_then(|g| same_bytes("pipe", &g, text)));

    vec![
        Metric::one(
            "io.linebuffer_one_chunk_mib_s",
            "MiB/s",
            mib_s(one.len(), &one_s),
        )
        .with_samples(one_s.len()),
        Metric::one(
            "io.linebuffer_64k_mib_s",
            "MiB/s",
            mib_s(text.len(), &chunked),
        )
        .with_samples(chunked.len()),
        Metric::one("io.pipe_mib_s", "MiB/s", mib_s(text.len(), &piped)).with_samples(piped.len()),
    ]
}

fn count_ok(got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("framed {got} bytes of {want}"))
    }
}

/// Sends `chunks` through a bounded pipe from a writer thread and
/// returns what the reader received.
fn pipe_through(chunks: &[Bytes]) -> Result<Vec<u8>, String> {
    let (mut w, mut r) = jash_io::pipe(jash_io::DEFAULT_PIPE_DEPTH);
    std::thread::scope(|s| {
        let writer = s.spawn(move || -> std::io::Result<()> {
            for c in chunks {
                w.write_chunk(c.clone())?;
            }
            w.finish()
        });
        let mut got = Vec::new();
        let read = loop {
            match r.next_chunk() {
                Ok(Some(c)) => got.extend_from_slice(&c),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.to_string()),
            }
        };
        let wrote = writer
            .join()
            .map_err(|_| "pipe writer panicked".to_string())?
            .map_err(|e| e.to_string());
        read.and(wrote).map(|()| got)
    })
}

// ---------------------------------------------------------------------
// Serve: the daemon's own run traces
// ---------------------------------------------------------------------

fn serve_layer(
    ctx: &mut Ctx,
    workload: &str,
    inputs: &Inputs,
    unit: &Unit,
    budget: Duration,
    sock_dir: &Path,
) -> Vec<Metric> {
    let served = workload == "serve-mix";
    let scripts: Vec<String> = unit.steps.iter().map(|(s, _)| s.clone()).collect();
    let want: Vec<Vec<u8>> = unit.steps.iter().map(|(_, e)| e.stdout.clone()).collect();
    let sock = serve::socket_path(sock_dir, 100);
    let d = serve::start(sock.clone(), &inputs.files, true);
    let s = ctx.start("serve.closed_loop", None);
    let clients = if served { 2 } else { 1 };
    reset_peak_rss();
    let load = serve::closed_loop(&sock, clients, &scripts, &want, budget, 3);
    let rss = peak_rss_mib().unwrap_or(0.0);
    ctx.tracer.end(s);
    let report = d.server.drain();

    let (mut run, mut overhead) = (Samples::default(), Samples::default());
    let mut stdout_bytes = 0usize;
    let mut rejected = 0usize;
    for sub in &load.submissions {
        ctx.check("traced submission", sub.error.clone().map_or(Ok(()), Err));
        stdout_bytes += sub.stdout_bytes;
        let Some(id) = sub.run_id else {
            rejected += 1;
            continue;
        };
        let path = format!("{}/run-{id}.jsonl", serve::TRACE_ROOT);
        let Ok(raw) = jash_io::fs::read_to_vec(d.fs.as_ref(), &path) else {
            continue;
        };
        let records = jash_trace::parse_jsonl(&String::from_utf8_lossy(&raw)).unwrap_or_default();
        let Some(span) = records
            .iter()
            .find(|r| matches!(r, Record::Span { kind, .. } if kind == "run"))
        else {
            continue;
        };
        let Record::Span { wall_us, .. } = span else {
            continue;
        };
        // The daemon records queue wait in whole milliseconds.
        let wait_ms = match span.attr("queue_wait_ms") {
            Some(AttrValue::UInt(n)) => *n as f64,
            _ => 0.0,
        };
        let run_ms = *wall_us as f64 / 1e3;
        run.push(run_ms);
        overhead.push(sub.latency.as_secs_f64() * 1e3 - run_ms - wait_ms);
    }
    let attempts = load.submissions.len().max(1);
    let rejected_total = report.stats.rejected_overload
        + report.stats.rejected_quota
        + report.stats.rejected_quarantined
        + report.stats.rejected_draining;
    vec![
        Metric::median("serve.run_ms_p50", "ms", &run, 1.0),
        Metric::median("serve.overhead_ms_p50", "ms", &overhead, 1.0),
        Metric::one(
            "serve.rejected_ratio",
            "ratio",
            (rejected as u64).max(rejected_total) as f64 / attempts as f64,
        )
        .with_samples(attempts),
        Metric::one(
            "serve.stdout_bytes_per_run",
            "bytes",
            stdout_bytes as f64 / attempts as f64,
        )
        .with_samples(attempts),
        Metric::one("serve.peak_rss_mib", "MiB", rss),
    ]
}
