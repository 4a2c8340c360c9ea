//! `rev` — reverse the characters of each line.

use crate::util::{chomp, for_each_input_line, split_at_dashdash};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// Runs `rev [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let (before, after) = split_at_dashdash(args);
    for_each_input_line(&[before, after].concat(), io, ctx, |out, line| {
        let had_nl = line.ends_with(b"\n");
        let body = chomp(line);
        let mut rev: Vec<u8> = String::from_utf8_lossy(body)
            .chars()
            .rev()
            .collect::<String>()
            .into_bytes();
        if had_nl {
            rev.push(b'\n');
        }
        out.write_chunk(Bytes::from(rev))?;
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    #[test]
    fn reverses_each_line() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (st, out, _) = run_on_bytes(&ctx, "rev", &[], b"abc\nde\n").unwrap();
        assert_eq!(st, 0);
        assert_eq!(out, b"cba\ned\n");
    }

    #[test]
    fn preserves_missing_trailing_newline() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (_, out, _) = run_on_bytes(&ctx, "rev", &[], b"xy").unwrap();
        assert_eq!(out, b"yx");
    }
}
