//! `shuf` — shuffle input lines.
//!
//! Randomness is seeded deterministically by default so test and benchmark
//! runs are reproducible; pass `--seed N` to choose, or `--seed random`
//! for entropy.

use crate::util::{option_value, read_all_input, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;

/// Runs `shuf [-n N] [--seed S] [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut seed: u64 = 0x6a61_7368; // "jash"
    let mut limit: Option<usize> = None;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--seed" {
            i += 1;
            match args.get(i).map(|s| s.as_str()) {
                Some("random") => seed = rand::random(),
                Some(v) => match v.parse() {
                    Ok(s) => seed = s,
                    Err(_) => {
                        write_stderr(io, "shuf: bad seed\n")?;
                        return Ok(2);
                    }
                },
                None => {
                    write_stderr(io, "shuf: --seed requires an argument\n")?;
                    return Ok(2);
                }
            }
        } else if let Some(rest) = a.strip_prefix("-n") {
            let v = option_value(rest, args, &mut i).unwrap_or_default();
            limit = v.parse().ok();
            if limit.is_none() {
                write_stderr(io, "shuf: invalid -n\n")?;
                return Ok(2);
            }
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else {
            files.push(a.clone());
        }
        i += 1;
    }

    let data = read_all_input(&files, io, ctx)?;
    let mut lines: Vec<&[u8]> = jash_io::split_lines(&data);
    let mut rng = StdRng::seed_from_u64(seed);
    lines.shuffle(&mut rng);
    if let Some(n) = limit {
        lines.truncate(n);
    }
    let mut out = Vec::with_capacity(data.len() + lines.len());
    for l in lines {
        out.extend_from_slice(l);
        out.push(b'\n');
    }
    io.stdout.write_chunk(Bytes::from(out))?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    #[test]
    fn permutes_all_lines() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (_, out, _) = run_on_bytes(&ctx, "shuf", &[], b"a\nb\nc\nd\n").unwrap();
        let mut lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        lines.sort();
        assert_eq!(lines, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn deterministic_by_default() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let a = run_on_bytes(&ctx, "shuf", &[], b"1\n2\n3\n4\n5\n").unwrap().1;
        let b = run_on_bytes(&ctx, "shuf", &[], b"1\n2\n3\n4\n5\n").unwrap().1;
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_order() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let input = b"1\n2\n3\n4\n5\n6\n7\n8\n";
        let a = run_on_bytes(&ctx, "shuf", &["--seed", "1"], input).unwrap().1;
        let b = run_on_bytes(&ctx, "shuf", &["--seed", "2"], input).unwrap().1;
        assert_ne!(a, b);
    }

    #[test]
    fn n_limits_output() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (_, out, _) = run_on_bytes(&ctx, "shuf", &["-n", "2"], b"a\nb\nc\n").unwrap();
        assert_eq!(std::str::from_utf8(&out).unwrap().lines().count(), 2);
    }
}
