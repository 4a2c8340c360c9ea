//! `sort` — sort lines of text.
//!
//! Blocking by nature: it must see all input before emitting anything
//! (which is why its dataflow spec is `Blocking` with a merge aggregator —
//! partial sorts merge). Supports the flags the paper's pipelines use:
//! `-r`, `-n`, `-u`, plus `-k FIELD` (single field, space-separated) and
//! `-t SEP`.

use crate::util::{numeric_key, option_value, read_all_input, split_flags, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::cmp::Ordering;
use std::io;

/// Parsed sort options, shared with the merge aggregator in `jash-exec`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortOptions {
    /// `-r`: reverse.
    pub reverse: bool,
    /// `-n`: numeric comparison.
    pub numeric: bool,
    /// `-u`: unique.
    pub unique: bool,
    /// `-k N`: 1-based key field (0 = whole line).
    pub key_field: usize,
    /// `-t C`: field separator (None = runs of blanks).
    pub separator: Option<u8>,
}

impl SortOptions {
    /// Parses the flags of a `sort` invocation; `None` on unsupported
    /// flags.
    pub fn parse(args: &[String]) -> Option<(SortOptions, Vec<String>)> {
        let mut opts = SortOptions::default();
        let mut operands = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if a == "--" {
                operands.extend(args[i + 1..].iter().cloned());
                break;
            }
            if let Some(rest) = a.strip_prefix("-t") {
                let sep = option_value(rest, args, &mut i)?;
                opts.separator = sep.bytes().next();
            } else if let Some(rest) = a.strip_prefix("-k") {
                let spec = option_value(rest, args, &mut i)?;
                // Accept `N` or `N,N`; extract the field number.
                let field: usize = spec.split(',').next()?.split('.').next()?.parse().ok()?;
                opts.key_field = field;
            } else if a.starts_with('-') && a.len() > 1 {
                for c in a.chars().skip(1) {
                    match c {
                        'r' => opts.reverse = true,
                        'n' => opts.numeric = true,
                        'u' => opts.unique = true,
                        'b' => {} // Leading blanks are already skipped in numeric mode.
                        _ => return None,
                    }
                }
            } else {
                operands.push(a.clone());
            }
            i += 1;
        }
        Some((opts, operands))
    }

    /// Compares two lines (without trailing newline) under these options.
    pub fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        let ka = self.key(a);
        let kb = self.key(b);
        let ord = if self.numeric {
            numeric_key(ka)
                .partial_cmp(&numeric_key(kb))
                .unwrap_or(Ordering::Equal)
                .then_with(|| ka.cmp(kb))
        } else {
            ka.cmp(kb)
        };
        if self.reverse {
            ord.reverse()
        } else {
            ord
        }
    }

    fn key<'x>(&self, line: &'x [u8]) -> &'x [u8] {
        if self.key_field == 0 {
            return line;
        }
        let mut field = 1;
        let mut start = 0;
        let mut i = 0;
        while i <= line.len() {
            let at_sep = if i == line.len() {
                true
            } else {
                match self.separator {
                    Some(s) => line[i] == s,
                    None => line[i] == b' ' || line[i] == b'\t',
                }
            };
            if at_sep {
                if field == self.key_field {
                    return &line[start..i];
                }
                field += 1;
                // Runs of blanks collapse when no separator is given.
                if self.separator.is_none() {
                    while i + 1 < line.len() && (line[i + 1] == b' ' || line[i + 1] == b'\t') {
                        i += 1;
                    }
                }
                start = i + 1;
            }
            i += 1;
        }
        &[]
    }
}

/// Runs `sort [-rnub] [-k field] [-t sep] [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let Some((opts, operands)) = SortOptions::parse(args) else {
        let (flags, _) = split_flags(args);
        write_stderr(io, &format!("sort: unsupported flags {flags:?}\n"))?;
        return Ok(2);
    };
    let data = read_all_input(&operands, io, ctx)?;
    let mut lines: Vec<&[u8]> = jash_io::split_lines(&data);
    lines.sort_by(|a, b| opts.compare(a, b));
    let mut out = Vec::with_capacity(data.len() + lines.len());
    let mut prev: Option<&[u8]> = None;
    for line in lines {
        if opts.unique {
            if let Some(p) = prev {
                if opts.compare(p, line) == Ordering::Equal {
                    continue;
                }
            }
        }
        out.extend_from_slice(line);
        out.push(b'\n');
        prev = Some(line);
    }
    io.stdout.write_chunk(Bytes::from(out))?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_on_bytes, UtilCtx};

    fn ctx() -> UtilCtx {
        UtilCtx::new(jash_io::mem_fs())
    }

    fn sort(args: &[&str], input: &[u8]) -> String {
        String::from_utf8(run_on_bytes(&ctx(), "sort", args, input).unwrap().1).unwrap()
    }

    #[test]
    fn lexicographic() {
        assert_eq!(sort(&[], b"b\na\nc\n"), "a\nb\nc\n");
    }

    #[test]
    fn reverse() {
        assert_eq!(sort(&["-r"], b"b\na\nc\n"), "c\nb\na\n");
    }

    #[test]
    fn numeric() {
        assert_eq!(sort(&["-n"], b"10\n9\n-2\n"), "-2\n9\n10\n");
        // Lexicographic would give 10 < 9.
        assert_eq!(sort(&[], b"10\n9\n"), "10\n9\n");
    }

    #[test]
    fn reverse_numeric_like_temperature_pipeline() {
        assert_eq!(sort(&["-rn"], b"0042\n0100\n0007\n"), "0100\n0042\n0007\n");
    }

    #[test]
    fn unique() {
        assert_eq!(sort(&["-u"], b"b\na\nb\na\n"), "a\nb\n");
    }

    #[test]
    fn key_field() {
        let input = b"2 bb\n1 cc\n3 aa\n";
        assert_eq!(sort(&["-k", "2"], input), "3 aa\n2 bb\n1 cc\n");
        assert_eq!(sort(&["-k1", "-n"], input), "1 cc\n2 bb\n3 aa\n");
    }

    #[test]
    fn separator() {
        let input = b"x:2\ny:1\n";
        assert_eq!(sort(&["-t:", "-k2", "-n"], input), "y:1\nx:2\n");
    }

    #[test]
    fn files_and_stdin() {
        let c = ctx();
        jash_io::fs::write_file(c.fs.as_ref(), "/f", b"z\n").unwrap();
        let (_, out, _) = run_on_bytes(&c, "sort", &["/f", "-"], b"a\n").unwrap();
        assert_eq!(out, b"a\nz\n");
    }

    #[test]
    fn missing_final_newline_handled() {
        assert_eq!(sort(&[], b"b\na"), "a\nb\n");
    }

    #[test]
    fn unsupported_flag_errors() {
        let (st, _, _) = run_on_bytes(&ctx(), "sort", &["-Z"], b"").unwrap();
        assert_eq!(st, 2);
    }

    #[test]
    fn options_compare_is_total_on_ties() {
        let opts = SortOptions {
            numeric: true,
            ..Default::default()
        };
        // Equal numeric keys fall back to byte order for stability.
        assert_eq!(opts.compare(b"07", b"7"), Ordering::Less);
    }
}
