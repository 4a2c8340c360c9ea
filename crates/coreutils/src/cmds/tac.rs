//! `tac` — print lines in reverse order (blocking).

use crate::util::{read_all_input, split_at_dashdash};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// Runs `tac [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let (before, after) = split_at_dashdash(args);
    let data = read_all_input(&[before, after].concat(), io, ctx)?;
    let mut out = Vec::with_capacity(data.len());
    for line in jash_io::split_lines(&data).iter().rev() {
        out.extend_from_slice(line);
        out.push(b'\n');
    }
    io.stdout.write_chunk(Bytes::from(out))?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    #[test]
    fn reverses_line_order() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (_, out, _) = run_on_bytes(&ctx, "tac", &[], b"1\n2\n3\n").unwrap();
        assert_eq!(out, b"3\n2\n1\n");
    }

    #[test]
    fn empty_input() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (_, out, _) = run_on_bytes(&ctx, "tac", &[], b"").unwrap();
        assert!(out.is_empty());
    }
}
