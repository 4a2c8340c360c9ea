//! `join` — relational join of two sorted files on a key field.

use crate::util::{option_value, read_all_input, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

/// Runs `join [-t SEP] [-1 F] [-2 F] file1 file2`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut sep: Option<u8> = None;
    let mut key1 = 1usize;
    let mut key2 = 1usize;
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-t") {
            let d = option_value(rest, args, &mut i).unwrap_or_default();
            sep = d.bytes().next();
        } else if let Some(rest) = a.strip_prefix("-1") {
            key1 = option_value(rest, args, &mut i)
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
        } else if let Some(rest) = a.strip_prefix("-2") {
            key2 = option_value(rest, args, &mut i)
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else {
            files.push(a.clone());
        }
        i += 1;
    }
    if files.len() != 2 {
        write_stderr(io, "join: requires exactly two files\n")?;
        return Ok(2);
    }

    let a_data = read_all_input(&files[0..1], io, ctx)?;
    let b_data = read_all_input(&files[1..2], io, ctx)?;
    let a: Vec<Vec<Vec<u8>>> = split_fields(&a_data, sep);
    let b: Vec<Vec<Vec<u8>>> = split_fields(&b_data, sep);

    let out_sep = sep.unwrap_or(b' ');
    let key = |row: &Vec<Vec<u8>>, k: usize| row.get(k - 1).cloned().unwrap_or_default();

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ka = key(&a[i], key1);
        let kb = key(&b[j], key2);
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of equal-key runs.
                // The first range element matches by construction, so the
                // run is never empty — but never panic on data.
                let ai_end = (i..a.len()).take_while(|&x| key(&a[x], key1) == ka).last().unwrap_or(i) + 1;
                let bj_end = (j..b.len()).take_while(|&x| key(&b[x], key2) == kb).last().unwrap_or(j) + 1;
                for row_a in &a[i..ai_end] {
                    for row_b in &b[j..bj_end] {
                        out.extend_from_slice(&ka);
                        for (fi, f) in row_a.iter().enumerate() {
                            if fi + 1 != key1 {
                                out.push(out_sep);
                                out.extend_from_slice(f);
                            }
                        }
                        for (fi, f) in row_b.iter().enumerate() {
                            if fi + 1 != key2 {
                                out.push(out_sep);
                                out.extend_from_slice(f);
                            }
                        }
                        out.push(b'\n');
                    }
                }
                i = ai_end;
                j = bj_end;
            }
        }
    }
    io.stdout.write_chunk(Bytes::from(out))?;
    Ok(0)
}

fn split_fields(data: &[u8], sep: Option<u8>) -> Vec<Vec<Vec<u8>>> {
    jash_io::split_lines(data)
        .into_iter()
        .map(|line| match sep {
            Some(s) => line.split(|&b| b == s).map(|f| f.to_vec()).collect(),
            None => line
                .split(|b| b.is_ascii_whitespace())
                .filter(|f| !f.is_empty())
                .map(|f| f.to_vec())
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    #[test]
    fn joins_on_first_field() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        jash_io::fs::write_file(ctx.fs.as_ref(), "/a", b"1 alice\n2 bob\n3 carol\n").unwrap();
        jash_io::fs::write_file(ctx.fs.as_ref(), "/b", b"1 admin\n3 user\n").unwrap();
        let (_, out, _) = run_on_bytes(&ctx, "join", &["/a", "/b"], b"").unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "1 alice admin\n3 carol user\n"
        );
    }

    #[test]
    fn custom_separator() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        jash_io::fs::write_file(ctx.fs.as_ref(), "/a", b"k:va\n").unwrap();
        jash_io::fs::write_file(ctx.fs.as_ref(), "/b", b"k:vb\n").unwrap();
        let (_, out, _) = run_on_bytes(&ctx, "join", &["-t", ":", "/a", "/b"], b"").unwrap();
        assert_eq!(out, b"k:va:vb\n");
    }

    #[test]
    fn duplicate_keys_cross_product() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        jash_io::fs::write_file(ctx.fs.as_ref(), "/a", b"k a1\nk a2\n").unwrap();
        jash_io::fs::write_file(ctx.fs.as_ref(), "/b", b"k b1\n").unwrap();
        let (_, out, _) = run_on_bytes(&ctx, "join", &["/a", "/b"], b"").unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "k a1 b1\nk a2 b1\n");
    }
}
