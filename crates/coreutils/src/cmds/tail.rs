//! `tail` — output the last lines (or bytes) of input.

use crate::util::{option_value, read_all_input, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// Runs `tail [-n N | -c N] [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut lines: u64 = 10;
    let mut bytes_mode: Option<u64> = None;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-n") {
            let v = option_value(rest, args, &mut i).unwrap_or_default();
            let v = v.strip_prefix('+').unwrap_or(&v).to_string();
            match v.parse() {
                Ok(n) => lines = n,
                Err(_) => {
                    write_stderr(io, &format!("tail: invalid line count `{v}`\n"))?;
                    return Ok(2);
                }
            }
        } else if let Some(rest) = a.strip_prefix("-c") {
            let v = option_value(rest, args, &mut i).unwrap_or_default();
            match v.parse() {
                Ok(n) => bytes_mode = Some(n),
                Err(_) => {
                    write_stderr(io, &format!("tail: invalid byte count `{v}`\n"))?;
                    return Ok(2);
                }
            }
        } else if a.starts_with('-') && a.len() > 1 && a[1..].chars().all(|c| c.is_ascii_digit())
        {
            lines = a[1..].parse().unwrap_or(10);
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else {
            files.push(a.clone());
        }
        i += 1;
    }

    let data = read_all_input(&files, io, ctx)?;
    if let Some(n) = bytes_mode {
        let start = data.len().saturating_sub(n as usize);
        io.stdout.write_chunk(Bytes::from(data[start..].to_vec()))?;
        return Ok(0);
    }
    let all = jash_io::split_lines(&data);
    let start = all.len().saturating_sub(lines as usize);
    let mut out = Vec::new();
    for line in &all[start..] {
        out.extend_from_slice(line);
        out.push(b'\n');
    }
    // Preserve a missing final newline.
    if !data.is_empty() && !data.ends_with(b"\n") {
        out.pop();
    }
    io.stdout.write_chunk(Bytes::from(out))?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn tail(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "tail", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn last_n_lines() {
        assert_eq!(tail(&["-n", "2"], b"a\nb\nc\nd\n"), "c\nd\n");
        assert_eq!(tail(&["-2"], b"a\nb\nc\n"), "b\nc\n");
    }

    #[test]
    fn default_ten() {
        let input: String = (1..=20).map(|i| format!("{i}\n")).collect();
        let out = tail(&[], input.as_bytes());
        assert_eq!(out.lines().count(), 10);
        assert!(out.starts_with("11\n"));
    }

    #[test]
    fn byte_mode() {
        assert_eq!(tail(&["-c", "3"], b"abcdef"), "def");
    }

    #[test]
    fn no_trailing_newline_preserved() {
        assert_eq!(tail(&["-n", "1"], b"a\nbc"), "bc");
    }

    #[test]
    fn fewer_lines_than_requested() {
        assert_eq!(tail(&["-n", "9"], b"a\nb\n"), "a\nb\n");
    }
}
