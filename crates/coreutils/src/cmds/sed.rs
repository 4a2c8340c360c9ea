//! `sed` — stream editor (the widely-used subset).
//!
//! Supported: `-n`; commands `s/re/repl/[g][p]`, `p`, `d`, `q`; optional
//! addresses — line numbers, `$`, and `/re/` — with `addr1,addr2` ranges;
//! `&` and `\1`-free replacement text (backreferences are not supported,
//! which the spec registry reflects by marking such scripts non-offloadable).

use crate::regex::{Flavor, Regex};
use crate::util::{chomp, for_each_input_line, is_flag_cluster, option_value, write_stderr};
use crate::{UtilCtx, UtilIo};
use bytes::Bytes;
use std::io;

enum Addr {
    Line(u64),
    Last,
    Re(Regex),
}

enum AddrSpec {
    None,
    One(Addr),
    Range(Addr, Addr),
}

enum Cmd {
    Subst {
        re: Regex,
        repl: Vec<u8>,
        global: bool,
        print: bool,
    },
    Print,
    Delete,
    Quit,
}

struct Rule {
    addr: AddrSpec,
    cmd: Cmd,
    /// Range state: currently inside an active addr1,addr2 range.
    active: bool,
}

/// Runs `sed [-n] [-e script]... script [file...]`.
pub fn run(args: &[String], io: &mut UtilIo<'_>, ctx: &UtilCtx) -> io::Result<i32> {
    let mut quiet = false;
    let mut scripts: Vec<String> = Vec::new();
    let mut files = Vec::new();
    let mut no_more_flags = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if no_more_flags || !a.starts_with('-') || a == "-" {
            // The first operand is the script unless an `-e` gave one.
            if scripts.is_empty() {
                scripts.push(a.clone());
            } else {
                files.push(a.clone());
            }
        } else if a == "--" {
            no_more_flags = true;
        } else if is_flag_cluster(a, "n") {
            quiet = true;
        } else if let Some(rest) = a.strip_prefix("-e") {
            match option_value(rest, args, &mut i) {
                Some(s) => scripts.push(s),
                None => {
                    write_stderr(io, "sed: -e requires an argument\n")?;
                    return Ok(2);
                }
            }
        } else {
            write_stderr(io, &format!("sed: unknown option {a}\n"))?;
            return Ok(2);
        }
        i += 1;
    }
    if scripts.is_empty() {
        write_stderr(io, "sed: missing script\n")?;
        return Ok(2);
    }

    let mut rules = Vec::new();
    for script in &scripts {
        for part in split_script(script) {
            match parse_rule(&part) {
                Ok(r) => rules.push(r),
                Err(e) => {
                    write_stderr(io, &format!("sed: {e}\n"))?;
                    return Ok(2);
                }
            }
        }
    }

    // Two passes are needed to know the last line for `$`; if any rule uses
    // `$`, buffer the input. Otherwise stream.
    let uses_last = rules.iter().any(|r| {
        matches!(&r.addr, AddrSpec::One(Addr::Last))
            || matches!(&r.addr, AddrSpec::Range(a, b)
                if matches!(a, Addr::Last) || matches!(b, Addr::Last))
    });

    let mut lineno = 0u64;
    let mut quitting = false;
    if uses_last {
        let data = crate::util::read_all_input(&files, io, ctx)?;
        let all: Vec<&[u8]> = jash_io::split_lines(&data);
        let n = all.len() as u64;
        for line in &all {
            lineno += 1;
            if !process_line(
                io.stdout,
                &mut rules,
                line,
                lineno,
                lineno == n,
                quiet,
                &mut quitting,
            )? {
                break;
            }
        }
        return Ok(0);
    }

    for_each_input_line(&files, io, ctx, |out, line| {
        lineno += 1;
        let body = chomp(line);
        process_line(out, &mut rules, body, lineno, false, quiet, &mut quitting)
    })?;
    Ok(0)
}

#[allow(clippy::too_many_arguments)]
fn process_line(
    out: &mut dyn jash_io::Sink,
    rules: &mut [Rule],
    line: &[u8],
    lineno: u64,
    is_last: bool,
    quiet: bool,
    quitting: &mut bool,
) -> io::Result<bool> {
    if *quitting {
        return Ok(false);
    }
    let mut pattern_space = line.to_vec();
    let mut deleted = false;
    let mut extra_prints = 0usize;
    for rule in rules.iter_mut() {
        let selected = rule_selects(rule, &pattern_space, lineno, is_last);
        if !selected {
            continue;
        }
        match &rule.cmd {
            Cmd::Delete => {
                deleted = true;
                break;
            }
            Cmd::Print => extra_prints += 1,
            Cmd::Quit => {
                *quitting = true;
                break;
            }
            Cmd::Subst {
                re,
                repl,
                global,
                print,
            } => {
                let (new, changed) = substitute(re, repl, &pattern_space, *global);
                pattern_space = new;
                if changed && *print {
                    extra_prints += 1;
                }
            }
        }
    }
    if !deleted && !quiet {
        let mut buf = pattern_space.clone();
        buf.push(b'\n');
        out.write_chunk(Bytes::from(buf))?;
    }
    for _ in 0..extra_prints {
        let mut buf = pattern_space.clone();
        buf.push(b'\n');
        out.write_chunk(Bytes::from(buf))?;
    }
    Ok(!*quitting)
}

/// Streaming per-line `sed` state for the fused-kernel executor.
///
/// Reuses the exact rule machinery of [`run`] — same parser, same
/// selection, same substitution — but drives one line at a time into a
/// plain buffer instead of a [`jash_io::Sink`]. Only invocations the
/// kernel can reproduce byte-for-byte are accepted: `$` addresses need
/// lookahead (`is_last`) the kernel does not have, and file operands or
/// unknown flags belong to the real implementation.
pub(crate) struct KernelSed {
    rules: Vec<Rule>,
    quiet: bool,
    lineno: u64,
    quitting: bool,
}

/// Builds a [`KernelSed`] for `args`, or `None` if the invocation is
/// outside the kernel-supported subset.
pub(crate) fn kernel_sed(args: &[String]) -> Option<KernelSed> {
    let mut quiet = false;
    let mut scripts: Vec<String> = Vec::new();
    let mut no_more_flags = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if no_more_flags || !a.starts_with('-') || a == "-" {
            if !scripts.is_empty() {
                return None; // File operand.
            }
            scripts.push(a.clone());
        } else if a == "--" {
            no_more_flags = true;
        } else if is_flag_cluster(a, "n") {
            quiet = true;
        } else if let Some(rest) = a.strip_prefix("-e") {
            scripts.push(option_value(rest, args, &mut i)?);
        } else {
            return None;
        }
        i += 1;
    }
    if scripts.is_empty() {
        return None;
    }
    let mut rules = Vec::new();
    for script in &scripts {
        for part in split_script(script) {
            rules.push(parse_rule(&part).ok()?);
        }
    }
    let uses_last = rules.iter().any(|r| {
        matches!(&r.addr, AddrSpec::One(Addr::Last))
            || matches!(&r.addr, AddrSpec::Range(a, b)
                if matches!(a, Addr::Last) || matches!(b, Addr::Last))
    });
    if uses_last {
        return None;
    }
    Some(KernelSed {
        rules,
        quiet,
        lineno: 0,
        quitting: false,
    })
}

impl KernelSed {
    /// Processes one line body (no trailing newline), appending output to
    /// `out`. Returns `false` once a `q` command fires — mirroring
    /// [`process_line`]'s early-stop contract.
    pub(crate) fn line(&mut self, body: &[u8], out: &mut Vec<u8>) -> bool {
        if self.quitting {
            return false;
        }
        self.lineno += 1;
        let mut pattern_space = body.to_vec();
        let mut deleted = false;
        let mut extra_prints = 0usize;
        for rule in self.rules.iter_mut() {
            if !rule_selects(rule, &pattern_space, self.lineno, false) {
                continue;
            }
            match &rule.cmd {
                Cmd::Delete => {
                    deleted = true;
                    break;
                }
                Cmd::Print => extra_prints += 1,
                Cmd::Quit => {
                    self.quitting = true;
                    break;
                }
                Cmd::Subst {
                    re,
                    repl,
                    global,
                    print,
                } => {
                    let (new, changed) = substitute(re, repl, &pattern_space, *global);
                    pattern_space = new;
                    if changed && *print {
                        extra_prints += 1;
                    }
                }
            }
        }
        if !deleted && !self.quiet {
            out.extend_from_slice(&pattern_space);
            out.push(b'\n');
        }
        for _ in 0..extra_prints {
            out.extend_from_slice(&pattern_space);
            out.push(b'\n');
        }
        !self.quitting
    }
}

fn rule_selects(rule: &mut Rule, line: &[u8], lineno: u64, is_last: bool) -> bool {
    let hit = |a: &Addr| match a {
        Addr::Line(n) => *n == lineno,
        Addr::Last => is_last,
        Addr::Re(re) => re.is_match(line),
    };
    match &rule.addr {
        AddrSpec::None => true,
        AddrSpec::One(a) => hit(a),
        AddrSpec::Range(a, b) => {
            if rule.active {
                if hit(b) {
                    rule.active = false;
                }
                true
            } else if hit(a) {
                rule.active = !hit(b) || matches!(b, Addr::Re(_));
                rule.active = !hit(b);
                true
            } else {
                false
            }
        }
    }
}

fn substitute(re: &Regex, repl: &[u8], line: &[u8], global: bool) -> (Vec<u8>, bool) {
    let mut out = Vec::with_capacity(line.len());
    let mut pos = 0;
    let mut changed = false;
    while pos <= line.len() {
        match re.find_from(line, pos) {
            Some((s, e)) => {
                out.extend_from_slice(&line[pos..s]);
                // `&` inserts the matched text; `\&` a literal ampersand.
                let mut k = 0;
                while k < repl.len() {
                    match repl[k] {
                        b'\\' if k + 1 < repl.len() => {
                            out.push(repl[k + 1]);
                            k += 2;
                        }
                        b'&' => {
                            out.extend_from_slice(&line[s..e]);
                            k += 1;
                        }
                        other => {
                            out.push(other);
                            k += 1;
                        }
                    }
                }
                changed = true;
                if e == s {
                    // Empty match: avoid infinite loop.
                    if s < line.len() {
                        out.push(line[s]);
                    }
                    pos = s + 1;
                } else {
                    pos = e;
                }
                if !global {
                    break;
                }
            }
            None => break,
        }
    }
    if pos < line.len() {
        out.extend_from_slice(&line[pos..]);
    }
    (out, changed)
}

/// Splits a script on `;` (not inside s/// delimiters) and newlines.
fn split_script(script: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut delim: Option<char> = None;
    let mut delim_seen = 0;
    let mut chars = script.chars().peekable();
    while let Some(c) = chars.next() {
        if let Some(d) = delim {
            cur.push(c);
            if c == '\\' {
                if let Some(&n) = chars.peek() {
                    cur.push(n);
                    chars.next();
                }
            } else if c == d {
                delim_seen += 1;
                if delim_seen == 3 {
                    delim = None;
                }
            }
            continue;
        }
        match c {
            's' if cur.trim_end().is_empty() || cur.ends_with(|c: char| c.is_ascii_digit())
                || cur.ends_with('$') || cur.ends_with('/') || cur.ends_with(',') =>
            {
                cur.push(c);
                if let Some(&d) = chars.peek() {
                    if !d.is_ascii_alphanumeric() && d != ';' {
                        delim = Some(d);
                        delim_seen = 1;
                        cur.push(d);
                        chars.next();
                    }
                }
            }
            ';' | '\n' => {
                if !cur.trim().is_empty() {
                    parts.push(cur.trim().to_string());
                }
                cur = String::new();
            }
            other => cur.push(other),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    parts
}

fn parse_rule(text: &str) -> Result<Rule, String> {
    let (addr, rest) = parse_addr_spec(text)?;
    let rest = rest.trim_start();
    let cmd = match rest.chars().next() {
        Some('s') => parse_subst(rest)?,
        Some('p') => Cmd::Print,
        Some('d') => Cmd::Delete,
        Some('q') => Cmd::Quit,
        other => return Err(format!("unsupported command `{other:?}` in `{text}`")),
    };
    Ok(Rule {
        addr,
        cmd,
        active: false,
    })
}

fn parse_addr_spec(text: &str) -> Result<(AddrSpec, &str), String> {
    let (first, rest) = parse_addr(text)?;
    let Some(first) = first else {
        return Ok((AddrSpec::None, text));
    };
    if let Some(stripped) = rest.strip_prefix(',') {
        let (second, rest2) = parse_addr(stripped)?;
        let second = second.ok_or_else(|| "missing second address".to_string())?;
        return Ok((AddrSpec::Range(first, second), rest2));
    }
    Ok((AddrSpec::One(first), rest))
}

fn parse_addr(text: &str) -> Result<(Option<Addr>, &str), String> {
    let bytes = text.as_bytes();
    match bytes.first() {
        Some(b'$') => Ok((Some(Addr::Last), &text[1..])),
        Some(b'/') => {
            let mut end = 1;
            while end < bytes.len() && bytes[end] != b'/' {
                if bytes[end] == b'\\' {
                    end += 1;
                }
                end += 1;
            }
            if end >= bytes.len() {
                return Err("unterminated address regex".to_string());
            }
            let re = Regex::new(&text[1..end], Flavor::Bre, false)
                .map_err(|e| e.to_string())?;
            Ok((Some(Addr::Re(re)), &text[end + 1..]))
        }
        Some(b) if b.is_ascii_digit() => {
            let mut end = 0;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            let n: u64 = text[..end].parse().map_err(|_| "bad line number")?;
            Ok((Some(Addr::Line(n)), &text[end..]))
        }
        _ => Ok((None, text)),
    }
}

fn parse_subst(text: &str) -> Result<Cmd, String> {
    let mut chars = text.chars();
    if chars.next() != Some('s') {
        return Err("expected s command".to_string());
    }
    let delim = chars.next().ok_or("missing s delimiter")?;
    let rest: String = chars.collect();
    let mut parts: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut it = rest.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            if let Some(n) = it.next() {
                if n == delim {
                    cur.push(n);
                } else {
                    cur.push('\\');
                    cur.push(n);
                }
                continue;
            }
        }
        if c == delim {
            parts.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    parts.push(cur);
    if parts.len() < 3 {
        return Err(format!("bad substitution `{text}`"));
    }
    let re = Regex::new(&parts[0], Flavor::Bre, false).map_err(|e| e.to_string())?;
    let repl = parts[1].clone().into_bytes();
    let flags = &parts[2];
    let mut global = false;
    let mut print = false;
    for c in flags.chars() {
        match c {
            'g' => global = true,
            'p' => print = true,
            ' ' => {}
            other => return Err(format!("unsupported s flag `{other}`")),
        }
    }
    Ok(Cmd::Subst {
        re,
        repl,
        global,
        print,
    })
}

#[cfg(test)]
mod tests {
    use crate::{run_on_bytes, UtilCtx};

    fn sed(args: &[&str], input: &[u8]) -> String {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (st, out, err) = run_on_bytes(&ctx, "sed", args, input).unwrap();
        assert!(st == 0, "sed failed: {}", String::from_utf8_lossy(&err));
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn substitute_first() {
        assert_eq!(sed(&["s/a/X/"], b"banana\n"), "bXnana\n");
    }

    #[test]
    fn substitute_global() {
        assert_eq!(sed(&["s/a/X/g"], b"banana\n"), "bXnXnX\n");
    }

    #[test]
    fn ampersand_inserts_match() {
        assert_eq!(sed(&["s/an/[&]/g"], b"banana\n"), "b[an][an]a\n");
    }

    #[test]
    fn alternate_delimiter() {
        assert_eq!(sed(&["s|/usr|/opt|"], b"/usr/bin\n"), "/opt/bin\n");
    }

    #[test]
    fn delete_by_regex_address() {
        assert_eq!(sed(&["/^#/d"], b"#comment\ncode\n"), "code\n");
    }

    #[test]
    fn print_with_n() {
        assert_eq!(sed(&["-n", "/b/p"], b"a\nb\nc\n"), "b\n");
    }

    #[test]
    fn line_number_address() {
        assert_eq!(sed(&["2d"], b"1\n2\n3\n"), "1\n3\n");
        assert_eq!(sed(&["-n", "2p"], b"1\n2\n3\n"), "2\n");
    }

    #[test]
    fn last_line_address() {
        assert_eq!(sed(&["$d"], b"a\nb\nc\n"), "a\nb\n");
    }

    #[test]
    fn range_address() {
        assert_eq!(sed(&["2,3d"], b"1\n2\n3\n4\n"), "1\n4\n");
    }

    #[test]
    fn quit_command() {
        assert_eq!(sed(&["2q"], b"1\n2\n3\n"), "1\n2\n");
    }

    #[test]
    fn multiple_commands_semicolon() {
        assert_eq!(sed(&["s/a/X/;s/b/Y/"], b"ab\n"), "XY\n");
    }

    #[test]
    fn regex_in_subst() {
        assert_eq!(sed(&["s/[0-9][0-9]*/N/g"], b"a12b345c\n"), "aNbNc\n");
    }

    #[test]
    fn bad_script_errors() {
        let ctx = UtilCtx::new(jash_io::mem_fs());
        let (st, _, _) = run_on_bytes(&ctx, "sed", &["y/a/b/"], b"").unwrap();
        assert_eq!(st, 2);
    }
}
