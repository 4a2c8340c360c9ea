//! `cut` — select character columns or delimited fields.

use crate::util::{
    chomp, for_each_input_line, in_ranges, is_flag_cluster, option_value, parse_ranges,
    write_stderr,
};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

enum Mode {
    Chars(Vec<(usize, usize)>),
    Fields {
        ranges: Vec<(usize, usize)>,
        delim: u8,
        suppress_undelimited: bool,
    },
}

/// Runs `cut -c LIST | -b LIST | -f LIST [-d DELIM] [-s] [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut mode: Option<Mode> = None;
    let mut list: Option<String> = None;
    let mut field_mode = false;
    let mut delim = b'\t';
    let mut suppress = false;
    let mut files = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(rest) = a.strip_prefix("-c").or_else(|| a.strip_prefix("-b")) {
            list = Some(option_value(rest, args, &mut i).unwrap_or_default());
            field_mode = false;
        } else if let Some(rest) = a.strip_prefix("-f") {
            list = Some(option_value(rest, args, &mut i).unwrap_or_default());
            field_mode = true;
        } else if let Some(rest) = a.strip_prefix("-d") {
            let d = option_value(rest, args, &mut i).unwrap_or_default();
            delim = d.bytes().next().unwrap_or(b'\t');
        } else if is_flag_cluster(a, "s") {
            suppress = true;
        } else if a == "--" {
            files.extend(args[i + 1..].iter().cloned());
            break;
        } else if a.starts_with('-') && a.len() > 1 {
            write_stderr(io, &format!("cut: unknown option {a}\n"))?;
            return Ok(2);
        } else {
            files.push(a.clone());
        }
        i += 1;
    }

    if let Some(list) = list {
        match parse_ranges(&list) {
            Some(ranges) if field_mode => {
                mode = Some(Mode::Fields {
                    ranges,
                    delim,
                    suppress_undelimited: suppress,
                });
            }
            Some(ranges) => mode = Some(Mode::Chars(ranges)),
            None => {
                write_stderr(io, "cut: invalid list\n")?;
                return Ok(2);
            }
        }
    }
    let Some(mode) = mode else {
        write_stderr(io, "cut: you must specify a list of characters or fields\n")?;
        return Ok(2);
    };

    for_each_input_line(&files, io, ctx, |out, line| {
        let body = chomp(line);
        let mut buf = Vec::with_capacity(body.len() + 1);
        match &mode {
            Mode::Chars(ranges) => {
                // Character positions (treated as bytes; ASCII data).
                for (idx, &b) in body.iter().enumerate() {
                    if in_ranges(ranges, idx) {
                        buf.push(b);
                    }
                }
            }
            Mode::Fields {
                ranges,
                delim,
                suppress_undelimited,
            } => {
                if !body.contains(delim) {
                    if *suppress_undelimited {
                        return Ok(true);
                    }
                    buf.extend_from_slice(body);
                } else {
                    let mut first = true;
                    for (idx, field) in body.split(|&b| b == *delim).enumerate() {
                        if in_ranges(ranges, idx) {
                            if !first {
                                buf.push(*delim);
                            }
                            first = false;
                            buf.extend_from_slice(field);
                        }
                    }
                }
            }
        }
        buf.push(b'\n');
        out.write_chunk(Bytes::from(buf))?;
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn cut(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        String::from_utf8(run_on_bytes(&ctx, "cut", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn char_ranges() {
        assert_eq!(cut(&["-c", "1-3"], b"abcdef\n"), "abc\n");
        assert_eq!(cut(&["-c", "2,4"], b"abcdef\n"), "bd\n");
        assert_eq!(cut(&["-c", "4-"], b"abcdef\n"), "def\n");
    }

    #[test]
    fn temperature_columns() {
        // The paper's `cut -c 89-92` over a fixed-width record.
        let mut line = vec![b'x'; 100];
        line[88..92].copy_from_slice(b"0042");
        line.push(b'\n');
        assert_eq!(cut(&["-c", "89-92"], &line), "0042\n");
    }

    #[test]
    fn short_lines_yield_partial() {
        assert_eq!(cut(&["-c", "1-10"], b"ab\n"), "ab\n");
    }

    #[test]
    fn fields_default_tab() {
        assert_eq!(cut(&["-f", "2"], b"a\tb\tc\n"), "b\n");
    }

    #[test]
    fn fields_custom_delim() {
        assert_eq!(cut(&["-d", ":", "-f", "1,3"], b"a:b:c\n"), "a:c\n");
        assert_eq!(cut(&["-d:", "-f2-"], b"a:b:c\n"), "b:c\n");
    }

    #[test]
    fn undelimited_lines() {
        assert_eq!(cut(&["-d:", "-f2"], b"nodelim\n"), "nodelim\n");
        assert_eq!(cut(&["-d:", "-f2", "-s"], b"nodelim\nyes:x\n"), "x\n");
    }

    #[test]
    fn missing_list_is_error() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (st, _, _) = run_on_bytes(&ctx, "cut", &[], b"").unwrap();
        assert_eq!(st, 2);
    }
}
