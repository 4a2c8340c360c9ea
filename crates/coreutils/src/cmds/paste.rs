//! `paste` — merge corresponding lines of files.

use crate::util::{is_flag_cluster, option_value, read_all_input, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// Runs `paste [-d list] [-s] file...`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut delims = vec![b'\t'];
    let mut serial = false;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-d") {
            let d = option_value(rest, args, &mut i).unwrap_or_default();
            delims = if d.is_empty() {
                vec![b'\t']
            } else {
                d.bytes().collect()
            };
        } else if is_flag_cluster(a, "s") {
            serial = true;
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else {
            files.push(a.clone());
        }
        i += 1;
    }
    if files.is_empty() {
        write_stderr(io, "paste: missing file operands\n")?;
        return Ok(2);
    }

    let mut columns: Vec<Vec<Vec<u8>>> = Vec::new();
    for f in &files {
        let data = read_all_input(std::slice::from_ref(f), io, ctx)?;
        columns.push(
            jash_io::split_lines(&data)
                .into_iter()
                .map(|l| l.to_vec())
                .collect(),
        );
    }

    let mut out = Vec::new();
    if serial {
        for col in &columns {
            for (i, line) in col.iter().enumerate() {
                if i > 0 {
                    out.push(delims[(i - 1) % delims.len()]);
                }
                out.extend_from_slice(line);
            }
            out.push(b'\n');
        }
    } else {
        let rows = columns.iter().map(|c| c.len()).max().unwrap_or(0);
        for r in 0..rows {
            for (ci, col) in columns.iter().enumerate() {
                if ci > 0 {
                    out.push(delims[(ci - 1) % delims.len()]);
                }
                if let Some(line) = col.get(r) {
                    out.extend_from_slice(line);
                }
            }
            out.push(b'\n');
        }
    }
    io.stdout.write_chunk(Bytes::from(out))?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn setup() -> UtilCtx {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        jash_io::fs::write_file(ctx.fs.as_ref(), "/a", b"1\n2\n3\n").unwrap();
        jash_io::fs::write_file(ctx.fs.as_ref(), "/b", b"x\ny\n").unwrap();
        ctx
    }

    #[test]
    fn parallel_merge() {
        let ctx = setup();
        let (_, out, _) = run_on_bytes(&ctx, "paste", &["/a", "/b"], b"").unwrap();
        assert_eq!(out, b"1\tx\n2\ty\n3\t\n");
    }

    #[test]
    fn custom_delimiter() {
        let ctx = setup();
        let (_, out, _) = run_on_bytes(&ctx, "paste", &["-d", ",", "/a", "/b"], b"").unwrap();
        assert!(out.starts_with(b"1,x\n"));
    }

    #[test]
    fn serial_mode() {
        let ctx = setup();
        let (_, out, _) = run_on_bytes(&ctx, "paste", &["-s", "/a"], b"").unwrap();
        assert_eq!(out, b"1\t2\t3\n");
    }
}
