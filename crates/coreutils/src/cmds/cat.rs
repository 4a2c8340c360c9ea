//! `cat` — concatenate files to standard output.

use crate::util::{for_each_input_chunk, is_flag_cluster, split_at_dashdash};
use crate::{UtilCtx, UtilIo};
use std::io;

/// Runs `cat [file...]`. `-` reads standard input. The only flag accepted
/// is `-u` (unbuffered), which is a no-op here as every write streams.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let (options, rest) = split_at_dashdash(args);
    let files: Vec<String> = options
        .iter()
        .filter(|a| !is_flag_cluster(a, "u"))
        .chain(rest)
        .cloned()
        .collect();
    for_each_input_chunk(&files, io, ctx, |out, chunk| out.write_chunk(chunk))
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn ctx() -> UtilCtx {
        UtilCtx::new(jash_io::mem_fs())
    }

    #[test]
    fn cat_stdin() {
        let (st, out, _) = run_on_bytes(&ctx(), "cat", &[], b"hello\n").unwrap();
        assert_eq!(st, 0);
        assert_eq!(out, b"hello\n");
    }

    #[test]
    fn cat_files_in_order() {
        let c = ctx();
        jash_io::fs::write_file(c.fs.as_ref(), "/a", b"AAA\n").unwrap();
        jash_io::fs::write_file(c.fs.as_ref(), "/b", b"BBB\n").unwrap();
        let (st, out, _) = run_on_bytes(&c, "cat", &["/a", "/b"], b"").unwrap();
        assert_eq!(st, 0);
        assert_eq!(out, b"AAA\nBBB\n");
    }

    #[test]
    fn cat_dash_mixes_stdin() {
        let c = ctx();
        jash_io::fs::write_file(c.fs.as_ref(), "/a", b"file\n").unwrap();
        let (st, out, _) = run_on_bytes(&c, "cat", &["/a", "-"], b"stdin\n").unwrap();
        assert_eq!(st, 0);
        assert_eq!(out, b"file\nstdin\n");
    }

    #[test]
    fn cat_missing_file_is_nonzero_but_continues() {
        let c = ctx();
        jash_io::fs::write_file(c.fs.as_ref(), "/a", b"ok\n").unwrap();
        let (st, out, err) = run_on_bytes(&c, "cat", &["/missing", "/a"], b"").unwrap();
        assert_eq!(st, 1);
        assert_eq!(out, b"ok\n");
        assert!(!err.is_empty());
    }
}
