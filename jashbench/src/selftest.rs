//! `jashbench selftest`: shows that the output oracle catches a single
//! corrupted byte, in a batch run's output file, in its stdout, and in a
//! served run's reply.

use crate::batch;
use crate::ctx::same_bytes;
use crate::serve;
use crate::workloads::{self, Inputs, Rng};
use jash_core::Engine;
use std::path::Path;
use std::process::ExitCode;

fn flip(data: &mut [u8], at: usize) {
    let i = at % data.len();
    data[i] ^= 0x20;
}

/// Runs every probe; returns `(probe, caught)` pairs.
pub fn probes(sock_dir: &Path) -> Vec<(&'static str, bool)> {
    let mut rng = Rng::new(7, 99);
    let inputs = Inputs {
        files: vec![("/in.txt".to_string(), workloads::text(64 << 10, &mut rng))],
        words: Vec::new(),
    };
    let mut results = Vec::new();

    // A correct run passes, then one flipped byte in its output file
    // fails the check.
    let want = workloads::expected("fig1-sort", &inputs);
    let env = batch::host_env(&inputs.files);
    let run = batch::run(
        batch::session(Engine::JashJit, &env),
        &env,
        workloads::FIG1_SCRIPT,
        None,
    );
    results.push((
        "clean batch run passes",
        batch::check(&run.result, &env, &want).is_ok(),
    ));
    let mut out = jash_io::fs::read_to_vec(env.fs.as_ref(), "/out.txt").unwrap_or_default();
    let mid = out.len() / 2;
    flip(&mut out, mid);
    let _ = jash_io::fs::write_file(env.fs.as_ref(), "/out.txt", &out);
    results.push((
        "flipped byte in output file caught",
        batch::check(&run.result, &env, &want).is_err(),
    ));

    // One flipped byte in the reference stdout is caught too.
    let mut want = workloads::expected("loop-small", &small_loop_inputs());
    let env = batch::host_env(&small_loop_inputs().files);
    let run = batch::run(
        batch::session(Engine::Bash, &env),
        &env,
        workloads::LOOP_SCRIPT,
        None,
    );
    results.push((
        "clean loop run passes",
        batch::check(&run.result, &env, &want).is_ok(),
    ));
    flip(&mut want.stdout, 0);
    results.push((
        "flipped byte in stdout caught",
        batch::check(&run.result, &env, &want).is_err(),
    ));

    // Served: a reply compared against a reference with one flipped byte.
    let inputs = workloads::generate("serve-mix", 7);
    let scripts = workloads::serve_scripts(&inputs);
    let mut want = workloads::serve_expected(&inputs);
    let sock = serve::socket_path(sock_dir, 900);
    let d = serve::start(sock.clone(), &inputs.files, false);
    let ok = serve::submit_checked(&sock, "t0", &scripts[2], &want[2]);
    results.push(("clean served run passes", ok.error.is_none()));
    flip(&mut want[2], 12345);
    let bad = serve::submit_checked(&sock, "t0", &scripts[2], &want[2]);
    results.push(("flipped byte in served reply caught", bad.error.is_some()));
    d.server.drain();

    results.push((
        "same_bytes reports a one-byte difference",
        same_bytes("x", b"abc", b"abd").is_err(),
    ));
    results
}

fn small_loop_inputs() -> Inputs {
    let mut rng = Rng::new(7, 98);
    Inputs {
        files: (0..4)
            .map(|i| {
                (
                    workloads::loop_path(i),
                    workloads::text(workloads::SMALL_BYTES, &mut rng),
                )
            })
            .collect(),
        words: Vec::new(),
    }
}

/// Entry point of `jashbench selftest`.
pub fn main() -> ExitCode {
    let dir = Path::new(".jashbench/sock");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("jashbench: {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut ok = true;
    for (probe, passed) in probes(dir) {
        println!("[{}] {probe}", if passed { "PASS" } else { "FAIL" });
        ok &= passed;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_catches_one_corrupted_byte() {
        let dir = std::env::temp_dir().join(format!("jashbench-selftest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let results = super::probes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        for (probe, passed) in results {
            assert!(passed, "{probe}");
        }
    }
}
