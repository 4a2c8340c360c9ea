//! `fold` — wrap lines to a fixed width.

use crate::util::{chomp, for_each_input_line, option_value};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// Runs `fold [-w width] [file...]` (default width 80).
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut width = 80usize;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-w") {
            let v = option_value(rest, args, &mut i).unwrap_or_default();
            match v.parse() {
                Ok(w) if w > 0 => width = w,
                _ => {
                    crate::util::write_stderr(io, "fold: invalid width\n")?;
                    return Ok(2);
                }
            }
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else {
            files.push(a.clone());
        }
        i += 1;
    }
    for_each_input_line(&files, io, ctx, |out, line| {
        let body = chomp(line);
        let mut buf = Vec::with_capacity(body.len() + body.len() / width + 2);
        for (i, b) in body.iter().enumerate() {
            if i > 0 && i % width == 0 {
                buf.push(b'\n');
            }
            buf.push(*b);
        }
        buf.push(b'\n');
        out.write_chunk(Bytes::from(buf))?;
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn fold(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "fold", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn wraps_at_width() {
        assert_eq!(fold(&["-w", "3"], b"abcdefgh\n"), "abc\ndef\ngh\n");
        assert_eq!(fold(&["-w3"], b"ab\n"), "ab\n");
    }

    #[test]
    fn exact_multiple() {
        assert_eq!(fold(&["-w", "2"], b"abcd\n"), "ab\ncd\n");
    }
}
