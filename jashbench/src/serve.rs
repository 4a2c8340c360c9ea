//! The in-process daemon and its closed-loop clients.

use crate::batch::pinned;
use crate::ctx::same_bytes;
use crate::workloads::File;
use jash_core::Engine;
use jash_io::{FsHandle, MemFs};
use jash_serve::{submit, Request, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where run traces land on the daemon's file system when tracing.
pub const TRACE_ROOT: &str = "/.jash-traces";

/// A started daemon over a fresh file system holding `files`.
pub struct Daemon {
    /// The daemon.
    pub server: Server,
    /// Its file system, for reading run traces afterwards.
    pub fs: FsHandle,
}

/// Socket path for this process, relative to the working directory so
/// it stays short whatever the checkout's absolute path is.
pub fn socket_path(dir: &Path, n: usize) -> PathBuf {
    dir.join(format!("serve-{}-{n}.sock", std::process::id()))
}

/// Starts the daemon: 2 workers, queue 8, admission ledger on,
/// `durable = false`, JIT engine on the pinned profile.
pub fn start(socket: PathBuf, files: &[File], trace: bool) -> Daemon {
    let mem = Arc::new(MemFs::new());
    for (path, data) in files {
        mem.install(path, data.clone());
    }
    let fs: FsHandle = mem;
    let mut cfg = ServerConfig::new(socket, Arc::clone(&fs));
    cfg.machine = pinned();
    cfg.engine = Engine::JashJit;
    cfg.workers = 2;
    cfg.queue_cap = 8;
    cfg.journal_root = Some("/.jash-serve".to_string());
    cfg.durable = false;
    if trace {
        cfg.trace_root = Some(TRACE_ROOT.to_string());
    }
    let server = Server::start(cfg).expect("daemon starts");
    Daemon { server, fs }
}

/// One completed (or failed) submission.
pub struct Submission {
    /// Submit → `Done` latency.
    pub latency: Duration,
    /// The run id the daemon assigned, when admitted.
    pub run_id: Option<u64>,
    /// Bytes of stdout that came back.
    pub stdout_bytes: usize,
    /// Why it failed, if it did.
    pub error: Option<String>,
}

/// Submits `script` as `tenant` and checks the reply against `want`.
pub fn submit_checked(socket: &Path, tenant: &str, script: &str, want: &[u8]) -> Submission {
    let t0 = Instant::now();
    let reply = submit(socket, &Request::new(script).with_tenant(tenant));
    let latency = t0.elapsed();
    let (run_id, stdout_bytes, error) = match reply {
        Err(e) => (None, 0, Some(format!("submit: {e}"))),
        Ok(r) => {
            let error = if let Some((code, _, _, reason)) = &r.rejected {
                Some(format!("rejected {code}: {reason}"))
            } else if r.status != Some(0) {
                Some(format!(
                    "status {:?}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.stderr)
                ))
            } else {
                same_bytes("stdout", &r.stdout, want).err()
            };
            (r.run_id, r.stdout.len(), error)
        }
    };
    Submission {
        latency,
        run_id,
        stdout_bytes,
        error,
    }
}

/// What a closed loop measured.
pub struct Load {
    /// Every submission, in completion order per client.
    pub submissions: Vec<Submission>,
    /// Wall time from the first submit to the last `Done`.
    pub elapsed: Duration,
}

/// Runs `clients` closed-loop clients for `budget` (each client makes
/// at least `min_each` submissions). Client `c` is tenant `t<c>` and
/// starts its rotation through `scripts` at offset `c`.
pub fn closed_loop(
    socket: &Path,
    clients: usize,
    scripts: &[String],
    want: &[Vec<u8>],
    budget: Duration,
    min_each: usize,
) -> Load {
    let t0 = Instant::now();
    let submissions = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let tenant = format!("t{c}");
                    let mut out = Vec::new();
                    let mut i = c;
                    while out.len() < min_each || t0.elapsed() < budget {
                        let k = i % scripts.len();
                        out.push(submit_checked(socket, &tenant, &scripts[k], &want[k]));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread finishes"))
            .collect()
    });
    Load {
        submissions,
        elapsed: t0.elapsed(),
    }
}
