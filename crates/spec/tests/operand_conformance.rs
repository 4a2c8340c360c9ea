//! Operand conformance: a spec's `input_args` are exactly the files its
//! coreutil opens.
//!
//! Every argv word is staged as a file, so a spec that reads an option's
//! value as an operand (`head -n 200` reading a file `200`) and a
//! coreutil that opens a word the spec skipped both show up as a
//! difference between the paths opened and the paths the spec names.

use jash_coreutils::{run_on_bytes, UtilCtx};
use jash_io::fs::{FileMeta, ReadHandle, WriteHandle};
use jash_io::{Fs, FsHandle};
use jash_spec::resolve_builtin;
use std::io;
use std::sync::{Arc, Mutex};

/// Logs every path opened for reading, then defers to the inner fs.
struct RecordingFs {
    inner: FsHandle,
    opened: Mutex<Vec<String>>,
}

impl Fs for RecordingFs {
    fn open_read(&self, path: &str) -> io::Result<Box<dyn ReadHandle>> {
        self.opened.lock().unwrap().push(path.to_string());
        self.inner.open_read(path)
    }
    fn open_write(&self, path: &str, append: bool) -> io::Result<Box<dyn WriteHandle>> {
        self.inner.open_write(path, append)
    }
    fn metadata(&self, path: &str) -> io::Result<FileMeta> {
        self.inner.metadata(path)
    }
    fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
        self.inner.list_dir(path)
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
}

/// Runs `name args` over a fs holding every argv word as a file and
/// asserts that the files it opened are the spec's operands, in order.
fn assert_conforms(name: &str, args: &[String]) {
    let inner = jash_io::mem_fs();
    let ctx = UtilCtx::new(inner.clone());
    for word in args {
        jash_io::fs::write_file(inner.as_ref(), &ctx.resolve(word), b"a:1 x\nb:2 y\n").unwrap();
    }
    let fs = Arc::new(RecordingFs {
        inner,
        opened: Mutex::new(Vec::new()),
    });
    let ctx = UtilCtx::new(fs.clone());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (status, _, stderr) = run_on_bytes(&ctx, name, &argv, b"").unwrap();
    let call = format!("{name} {}", args.join(" "));
    assert!(
        stderr.is_empty() && status != 2,
        "`{call}` is not a valid invocation: status {status}, {}",
        String::from_utf8_lossy(&stderr)
    );
    let spec = resolve_builtin(name, args).unwrap_or_else(|| panic!("`{call}` has no spec"));
    let declared: Vec<String> = spec
        .input_args
        .iter()
        .map(|&i| ctx.resolve(&args[i]))
        .collect();
    let opened = fs.opened.lock().unwrap().clone();
    assert_eq!(opened, declared, "`{call}`: opened vs spec input_args");
    assert!(
        !spec.reads_stdin,
        "`{call}`: has operands but the spec reads stdin"
    );
}

fn strings(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// One value-taking option of one command.
struct Case {
    name: &'static str,
    option: &'static str,
    value: &'static str,
    /// Other options the invocation needs (`cut -d` needs a field list).
    needs: &'static [&'static str],
    /// `grep`'s pattern or `sed`'s script, unless `option` supplies it.
    program: Option<&'static str>,
    files: &'static [&'static str],
}

const fn case(name: &'static str, option: &'static str, value: &'static str) -> Case {
    Case {
        name,
        option,
        value,
        needs: &[],
        program: None,
        files: &["in1"],
    }
}

/// Every option that takes a value, for every command with operands.
fn value_options() -> Vec<Case> {
    vec![
        case("head", "-n", "3"),
        case("head", "-c", "4"),
        case("tail", "-n", "3"),
        case("tail", "-c", "4"),
        case("sort", "-k", "2"),
        case("sort", "-t", ":"),
        case("cut", "-b", "1-2"),
        case("cut", "-c", "1-2"),
        Case {
            needs: &["-f", "1"],
            ..case("cut", "-d", ":")
        },
        case("cut", "-f", "2"),
        case("grep", "-e", "a"),
        Case {
            program: Some("a"),
            ..case("grep", "-m", "1")
        },
        case("fold", "-w", "20"),
        Case {
            files: &["in1", "in2"],
            ..case("paste", "-d", ",")
        },
        Case {
            files: &["in1", "in2"],
            ..case("join", "-1", "2")
        },
        Case {
            files: &["in1", "in2"],
            ..case("join", "-2", "2")
        },
        Case {
            files: &["in1", "in2"],
            ..case("join", "-t", ":")
        },
        case("sed", "-e", "s/a/b/"),
        case("shuf", "-n", "2"),
        case("nl", "-b", "t"),
    ]
}

#[test]
fn value_options_separated_attached_and_before_dashdash() {
    for c in value_options() {
        let program: Vec<&str> = c.program.into_iter().collect();
        let separated = [c.needs, &[c.option, c.value], &program, c.files].concat();
        assert_conforms(c.name, &strings(&separated));

        let attached = format!("{}{}", c.option, c.value);
        let attached = [c.needs, &[attached.as_str()], &program, c.files].concat();
        assert_conforms(c.name, &strings(&attached));

        // After `--`, a word that looks like an option is a file.
        let dashed: Vec<String> = c.files.iter().map(|f| format!("-{f}")).collect();
        let dashed: Vec<&str> = dashed.iter().map(String::as_str).collect();
        let ended = [c.needs, &[c.option, c.value, "--"], &program, &dashed].concat();
        assert_conforms(c.name, &strings(&ended));
    }
}

#[test]
fn long_option_takes_the_next_word() {
    assert_conforms("shuf", &strings(&["--seed", "7", "in1"]));
}

#[test]
fn options_without_values() {
    let calls: &[(&str, &[&str])] = &[
        ("head", &["-3", "in1"]),
        ("tail", &["-3", "in1"]),
        ("sort", &["-rn", "in1", "in2"]),
        ("cut", &["-s", "-f", "1", "in1"]),
        ("grep", &["-vc", "q", "in1", "in2"]),
        ("grep", &["a", "-e", "b", "in1"]),
        ("sed", &["-n", "s/a/b/", "in1"]),
        ("sed", &["s/a/b/", "-e", "s/c/d/", "in1"]),
        ("paste", &["-s", "in1"]),
        ("cat", &["-u", "in1", "--", "-u"]),
        ("rev", &["--", "-in1"]),
        ("tac", &["--", "-in1", "in2"]),
        ("wc", &["-lw", "in1"]),
        ("uniq", &["-c", "in1"]),
        ("comm", &["-12", "in1", "in2"]),
        // Repeated flag letters, and a `-b` value other than `a`/`t`.
        ("cat", &["-uu", "in1"]),
        ("paste", &["-ss", "in1"]),
        ("cut", &["-ss", "-f", "1", "in1"]),
        ("sed", &["-nn", "p", "in1"]),
        ("nl", &["-bn", "in1"]),
        // After `--`, the first operand is still sed's script.
        ("sed", &["--", "s/a/b/", "in1"]),
        ("sed", &["-e", "s/a/b/", "--", "-in1"]),
        // `wc`, `uniq` and `comm` stop reading options at the first
        // operand.
        ("wc", &["in1", "-l"]),
        ("uniq", &["in1", "-c"]),
    ];
    for (name, args) in calls {
        assert_conforms(name, &strings(args));
    }
}
