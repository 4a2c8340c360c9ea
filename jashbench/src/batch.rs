//! Running one batch script in a fresh file system and session, on the
//! host clock or on the simulated IO-opt machine.

use crate::ctx::same_bytes;
use crate::workloads::{Expected, File};
use jash_core::{Action, Engine, Jash};
use jash_cost::MachineProfile;
use jash_expand::ShellState;
use jash_interp::RunResult;
use jash_io::{CpuModel, DiskModel, DiskProfile, FsHandle, MemFs};
use jash_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The planner-visible machine of every host-clock run: 2 cores and a
/// ramdisk, whatever the host has.
pub fn pinned() -> MachineProfile {
    MachineProfile {
        cores: 2,
        disk: DiskProfile::ramdisk(),
        mem_mb: 8 * 1024,
    }
}

/// Modeled durations on the simulated machine run at this multiple of
/// the modeled time (1.0: a modeled second sleeps one host second).
pub const SIM_TIME_SCALE: f64 = 1.0;

/// The corpus size the paper's Figure 1 used; the simulated disk's burst
/// bucket is scaled by the input's share of it.
const PAPER_INPUT_BYTES: f64 = 3.0 * 1024.0 * 1024.0 * 1024.0;

/// A file system with the inputs staged, plus the machine it models.
pub struct Env {
    /// The file system a run sees.
    pub fs: FsHandle,
    /// The planner-visible profile.
    pub profile: MachineProfile,
    /// The modeled CPU, on the simulated machine.
    pub cpu: Option<Arc<CpuModel>>,
}

fn stage(mem: &MemFs, files: &[File]) {
    for (path, data) in files {
        mem.install(path, data.clone());
    }
}

/// A fresh in-memory file system with no machine models.
pub fn host_env(files: &[File]) -> Env {
    let mem = Arc::new(MemFs::new());
    stage(&mem, files);
    Env {
        fs: mem,
        profile: pinned(),
        cpu: None,
    }
}

/// A fresh file system on the simulated IO-opt EC2 machine (gp3 disk
/// model, 8-core CPU model), the same construction as the Figure 1
/// harness's `sim_machine`, at [`SIM_TIME_SCALE`].
pub fn sim_env(files: &[File]) -> Env {
    let base = MachineProfile::io_opt_ec2();
    let bytes: usize = files.iter().map(|(_, d)| d.len()).sum();
    let mut disk = base.disk;
    disk.burst_credit_ios = (disk.burst_credit_ios * bytes as f64 / PAPER_INPUT_BYTES).max(1.0);
    let mem = Arc::new(MemFs::with_disk(DiskModel::new(
        disk.scaled(SIM_TIME_SCALE),
    )));
    stage(&mem, files);
    Env {
        fs: mem,
        profile: MachineProfile { disk, ..base },
        cpu: Some(CpuModel::new(base.cores, SIM_TIME_SCALE)),
    }
}

/// A session on `env` with its journal attached — the program's own
/// set-up for one run.
pub fn session(engine: Engine, env: &Env) -> Jash {
    let mut shell = Jash::new(engine, env.profile);
    shell
        .attach_journal(&env.fs, "/.jash", false)
        .expect("journal attaches on a fresh file system");
    shell
}

/// One finished run.
pub struct Run {
    /// Host wall time of `run_script`.
    pub wall: Duration,
    /// Captured status and stdio.
    pub result: RunResult,
    /// The session, for its decisions and runtime record.
    pub shell: Jash,
}

/// Runs `script` once in `shell` on `env`.
pub fn run(mut shell: Jash, env: &Env, script: &str, tracer: Option<Arc<Tracer>>) -> Run {
    let mut state = ShellState::new(Arc::clone(&env.fs));
    state.cpu = env.cpu.clone();
    shell.tracer = tracer;
    let t0 = Instant::now();
    let result = shell.run_script(&mut state, script);
    let wall = t0.elapsed();
    let result = result.unwrap_or_else(|e| RunResult {
        status: 2,
        stdout: Vec::new(),
        stderr: format!("jash: {e}\n").into_bytes(),
    });
    Run {
        wall,
        result,
        shell,
    }
}

/// Checks a run's result and the files it left on `env` against the
/// reference. Returns the first difference.
pub fn check(result: &RunResult, env: &Env, want: &Expected) -> Result<(), String> {
    if result.status != 0 {
        return Err(format!(
            "status {}: {}",
            result.status,
            String::from_utf8_lossy(&result.stderr)
        ));
    }
    same_bytes("stdout", &result.stdout, &want.stdout)?;
    for (path, data) in &want.files {
        let got =
            jash_io::fs::read_to_vec(env.fs.as_ref(), path).map_err(|e| format!("{path}: {e}"))?;
        same_bytes(path, &got, data)?;
    }
    Ok(())
}

/// Every file a run wrote (the `want` paths) plus its stdout, for the
/// byte-for-byte comparison of two engines.
pub fn outputs(run: &Run, env: &Env, want: &Expected) -> Vec<u8> {
    let mut all = run.result.stdout.clone();
    for (path, _) in &want.files {
        all.extend(jash_io::fs::read_to_vec(env.fs.as_ref(), path).unwrap_or_default());
    }
    all
}

/// The run's per-region decisions: how many regions ended with each
/// action, width and fusion (`failover:w1 x200, interp x601`).
pub fn decisions(shell: &Jash) -> String {
    let mut tags: BTreeMap<String, usize> = BTreeMap::new();
    for ev in &shell.core.trace {
        let tag = match &ev.action {
            Action::Interpreted { .. } => "interp".to_string(),
            Action::Optimized { width, fused, .. } => {
                format!("opt:w{width}{}", if *fused { ":fused" } else { "" })
            }
            Action::FailedOver { width, .. } => format!("failover:w{width}"),
            Action::Resumed { .. } => "resumed".to_string(),
            Action::Aborted { .. } => "aborted".to_string(),
        };
        *tags.entry(tag).or_default() += 1;
    }
    tags.iter()
        .map(|(t, n)| format!("{t} x{n}"))
        .collect::<Vec<_>>()
        .join(", ")
}
