//! Per-invocation command specifications.
//!
//! A command specification describes a command *name*; resolving it
//! against a concrete argument vector yields an [`InstanceSpec`] — the classification
//! the dataflow compiler consumes. Flags matter: `sort` is
//! merge-aggregatable, `sort -rn` needs a numeric-reverse merge, `grep -q`
//! stops consuming input early, `tee` writes extra files.

use crate::class::{Aggregator, ParallelClass, SortKeySpec};

/// The specification of one concrete command invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// Parallelizability classification.
    pub class: ParallelClass,
    /// Indices into the argument vector that name input files.
    pub input_args: Vec<usize>,
    /// Whether the command reads stdin when no file operands are given
    /// (or when `-` appears).
    pub reads_stdin: bool,
    /// Extra output files the command writes (e.g. `tee`).
    pub output_files: Vec<String>,
    /// Emits nothing until it has consumed all input (`sort`, `wc`, …).
    pub blocking: bool,
    /// May stop consuming input before EOF (`head`, `grep -q`).
    pub prefix_only: bool,
}

impl InstanceSpec {
    fn stateless() -> Self {
        InstanceSpec {
            class: ParallelClass::Stateless,
            input_args: Vec::new(),
            reads_stdin: true,
            output_files: Vec::new(),
            blocking: false,
            prefix_only: false,
        }
    }

    fn non_parallel() -> Self {
        InstanceSpec {
            class: ParallelClass::NonParallelizable,
            ..InstanceSpec::stateless()
        }
    }

    fn side_effectful() -> Self {
        InstanceSpec {
            class: ParallelClass::SideEffectful,
            reads_stdin: false,
            ..InstanceSpec::stateless()
        }
    }
}

/// How one command's coreutil splits its argument vector into options
/// and operands. Each entry in [`grammar`] mirrors the argument loop of
/// that command in `jash_coreutils::cmds`; a command added there must
/// list here every option that takes a value, or the value is read as
/// an input file.
struct Grammar {
    /// Options that take a value: the rest of the word (`-n200`) or, if
    /// that is empty, the next word (`-n 200`). A long option (`--seed`)
    /// takes only the next word.
    valued: &'static [&'static str],
    /// Flag letters, alone or clustered (`-vc`). Any other word that
    /// starts with `-`, other than `-` itself, is an option the spec does
    /// not model, and the invocation resolves to no spec.
    flags: &'static str,
    /// Options end at the first operand (`wc`, `uniq`, `comm`, `tee`)
    /// instead of only at `--`.
    leading: bool,
    /// The first operand is a program (`grep`'s pattern, `sed`'s script)
    /// unless an `-e` before it supplied one.
    program: bool,
}

const fn options(valued: &'static [&'static str], flags: &'static str) -> Grammar {
    Grammar {
        valued,
        flags,
        leading: false,
        program: false,
    }
}

/// The option grammar of each built-in that takes operands.
fn grammar(name: &str) -> Option<Grammar> {
    Some(match name {
        // Digits: the historical `-N` line count.
        "head" | "tail" => options(&["-n", "-c"], "0123456789"),
        "sort" => options(&["-k", "-t"], "rnub"),
        "cut" => options(&["-b", "-c", "-d", "-f"], "s"),
        "grep" => Grammar {
            program: true,
            ..options(&["-e", "-m"], "vcinqEF")
        },
        "sed" => Grammar {
            program: true,
            ..options(&["-e"], "n")
        },
        "fold" => options(&["-w"], ""),
        "paste" => options(&["-d"], "s"),
        "join" => options(&["-1", "-2", "-t"], ""),
        "shuf" => options(&["-n", "--seed"], ""),
        "nl" => options(&["-b"], ""),
        "cat" => options(&[], "u"),
        "rev" | "tac" => options(&[], ""),
        "wc" => Grammar {
            leading: true,
            ..options(&[], "lwcm")
        },
        "uniq" => Grammar {
            leading: true,
            ..options(&[], "cdu")
        },
        "comm" => Grammar {
            leading: true,
            ..options(&[], "123")
        },
        "tee" => Grammar {
            leading: true,
            ..options(&[], "a")
        },
        _ => return None,
    })
}

/// An argument vector split by its command's [`Grammar`].
#[derive(Default)]
struct Scan<'a> {
    /// Indices of the operands: input files, and `-` for stdin.
    operands: Vec<usize>,
    /// Flag words, as written.
    flags: Vec<&'a str>,
    /// Each valued option with its value, in argument order.
    values: Vec<(&'static str, &'a str)>,
    /// The program, when it came as an operand.
    program: Option<&'a str>,
}

impl<'a> Scan<'a> {
    fn has_flag(&self, letter: char) -> bool {
        self.flags.iter().any(|f| f.contains(letter))
    }

    fn values_of(&self, option: &'static str) -> impl Iterator<Item = &'a str> + '_ {
        self.values
            .iter()
            .filter(move |(o, _)| *o == option)
            .map(|(_, v)| *v)
    }

    fn reads_stdin(&self, args: &[String]) -> bool {
        self.operands.is_empty() || self.operands.iter().any(|&i| args[i] == "-")
    }
}

/// Splits `args` the way the coreutil with grammar `g` does: `--` ends
/// the options, `-` is an operand, and a valued option's value is never
/// an operand. `None` if a word is an option `g` does not know.
fn scan<'a>(g: &Grammar, args: &'a [String]) -> Option<Scan<'a>> {
    let mut s = Scan::default();
    let mut in_options = true;
    let mut words = args.iter().map(String::as_str).enumerate();
    while let Some((i, a)) = words.next() {
        if !in_options || a == "-" || !a.starts_with('-') {
            if g.program && s.program.is_none() && s.values_of("-e").next().is_none() {
                s.program = Some(a);
            } else {
                s.operands.push(i);
                in_options &= !g.leading;
            }
        } else if a == "--" {
            in_options = false;
        } else if let Some(&o) = g
            .valued
            .iter()
            .find(|o| a == **o || (o.len() == 2 && a.starts_with(**o)))
        {
            let value = match &a[o.len()..] {
                "" => words.next().map_or("", |(_, v)| v),
                attached => attached,
            };
            s.values.push((o, value));
        } else if a[1..].chars().all(|c| g.flags.contains(c)) {
            s.flags.push(a);
        } else {
            return None;
        }
    }
    Some(s)
}

/// Resolves the built-in specification for `name` applied to `args`.
///
/// Returns `None` for commands without a registered spec, and for
/// invocations with an option the spec does not model — the dataflow
/// compiler then treats them as opaque and leaves the pipeline to the
/// interpreter (the paper's B1 barrier, which user spec files lift).
pub fn resolve_builtin(name: &str, args: &[String]) -> Option<InstanceSpec> {
    let Some(grammar) = grammar(name) else {
        return Some(match name {
            "tr" => resolve_tr(args),
            "seq" | "echo" | "printf" | "true" | "false" => InstanceSpec {
                reads_stdin: false,
                ..InstanceSpec::non_parallel()
            },
            "rm" | "cp" | "mv" | "ls" | "mkfifo" => InstanceSpec::side_effectful(),
            _ => return None,
        });
    };
    let s = scan(&grammar, args)?;
    let base = InstanceSpec {
        input_args: s.operands.clone(),
        reads_stdin: s.reads_stdin(args),
        ..InstanceSpec::stateless()
    };
    let non_parallel = |spec: InstanceSpec| InstanceSpec {
        class: ParallelClass::NonParallelizable,
        ..spec
    };

    Some(match name {
        "cat" | "rev" | "cut" | "fold" => base,
        "grep" => InstanceSpec {
            class: if s.has_flag('c') {
                ParallelClass::Parallelizable {
                    agg: Aggregator::SumCounts,
                }
            } else {
                ParallelClass::Stateless
            },
            prefix_only: s.has_flag('q') || s.values_of("-m").next().is_some(),
            ..base
        },
        "sed" => {
            // Only pure per-line scripts are stateless; anything with
            // addresses (line numbers, ranges, `$`), `q`, or hold-space
            // commands is order/position dependent.
            let scripts: Vec<&str> = s.program.into_iter().chain(s.values_of("-e")).collect();
            if scripts.is_empty() {
                return None;
            }
            let per_line = scripts.iter().all(|script| {
                let simple =
                    script.starts_with('s') || script.starts_with('/') && script.ends_with('d');
                let positional = script.chars().next().is_some_and(|c| c.is_ascii_digit())
                    || script.contains('$')
                    || script.contains('q');
                simple && !positional
            });
            if per_line {
                base
            } else {
                non_parallel(base)
            }
        }
        "sort" => {
            let (opts, _) = jash_coreutils::cmds::sort::SortOptions::parse(args)?;
            let key: SortKeySpec = opts.into();
            InstanceSpec {
                class: ParallelClass::Parallelizable {
                    agg: Aggregator::MergeSort { key },
                },
                blocking: true,
                ..base
            }
        }
        // -d/-u verdicts at a boundary depend on the neighbor run.
        "uniq" if s.has_flag('d') || s.has_flag('u') => non_parallel(base),
        "uniq" => InstanceSpec {
            class: ParallelClass::Parallelizable {
                agg: Aggregator::UniqBoundary {
                    counted: s.has_flag('c'),
                },
            },
            ..base
        },
        "wc" => InstanceSpec {
            class: ParallelClass::Parallelizable {
                agg: Aggregator::SumCounts,
            },
            blocking: true,
            ..base
        },
        "head" => InstanceSpec {
            prefix_only: true,
            ..non_parallel(base)
        },
        "tail" | "tac" | "shuf" | "paste" => InstanceSpec {
            blocking: true,
            ..non_parallel(base)
        },
        // Two-input relational operators (`comm`, `join`): dataflow
        // nodes, but not splittable without key-range partitioning.
        "comm" | "join" | "nl" => non_parallel(base),
        // `tee`'s operands are outputs; it reads only stdin.
        "tee" => InstanceSpec {
            output_files: s.operands.iter().map(|&i| args[i].clone()).collect(),
            ..InstanceSpec::stateless()
        },
        _ => return None,
    })
}

/// `tr`'s operands are sets, not files; it is purely stdin→stdout.
fn resolve_tr(args: &[String]) -> InstanceSpec {
    // `-s` (squeeze) is stateful across a boundary only for the byte at
    // the seam; treating it as stateless would duplicate a squeezed run
    // across a split, so squeeze runs are bordered.
    let flags: Vec<&String> = args
        .iter()
        .take_while(|a| a.starts_with('-') && a.len() > 1)
        .collect();
    let squeeze = flags.iter().any(|a| a.contains('s'));
    if !squeeze {
        return InstanceSpec::stateless();
    }
    let complement = flags.iter().any(|a| a.contains('c') || a.contains('C'));
    let delete = flags.iter().any(|a| a.contains('d'));
    let operands: Vec<&String> = args.iter().skip(flags.len()).collect();
    // Squeezing applies to SET2 when translating, else SET1
    // (complemented when -c without a SET2).
    let set = match (operands.first(), operands.get(1), delete) {
        (_, Some(s2), false) => jash_coreutils::cmds::tr::expand_set(s2),
        (Some(s1), _, _) => {
            let base = jash_coreutils::cmds::tr::expand_set(s1);
            if complement {
                (0u8..=255).filter(|b| !base.contains(b)).collect()
            } else {
                base
            }
        }
        _ => Vec::new(),
    };
    InstanceSpec {
        class: ParallelClass::Parallelizable {
            agg: Aggregator::SqueezeBoundary { set },
        },
        ..InstanceSpec::stateless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cat_is_stateless_with_inputs() {
        let s = resolve_builtin("cat", &args(&["f1", "f2"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        assert_eq!(s.input_args, vec![0, 1]);
        assert!(!s.reads_stdin);
        let s = resolve_builtin("cat", &args(&[])).unwrap();
        assert!(s.reads_stdin);
    }

    #[test]
    fn plain_tr_stateless_squeeze_bordered() {
        let s = resolve_builtin("tr", &args(&["A-Z", "a-z"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        let s = resolve_builtin("tr", &args(&["-cs", "A-Za-z", "\\n"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::SqueezeBoundary { set },
            } => assert_eq!(set, vec![b'\n']),
            other => panic!("{other:?}"),
        }
        // Squeeze without translation: SET1 itself.
        let s = resolve_builtin("tr", &args(&["-s", "l"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::SqueezeBoundary { set },
            } => assert_eq!(set, vec![b'l']),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sort_gets_merge_aggregator_with_flags() {
        let s = resolve_builtin("sort", &args(&["-rn"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::MergeSort { key },
            } => {
                assert!(key.reverse && key.numeric);
            }
            other => panic!("{other:?}"),
        }
        assert!(s.blocking);
    }

    #[test]
    fn sort_u_unique_in_key() {
        let s = resolve_builtin("sort", &args(&["-u"])).unwrap();
        match s.class {
            ParallelClass::Parallelizable {
                agg: Aggregator::MergeSort { key },
            } => assert!(key.unique),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grep_variants() {
        let s = resolve_builtin("grep", &args(&["-v", "999"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        assert!(s.reads_stdin);
        let s = resolve_builtin("grep", &args(&["-c", "x"])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::SumCounts
            }
        ));
        let s = resolve_builtin("grep", &args(&["-q", "x", "file"])).unwrap();
        assert!(s.prefix_only);
        assert_eq!(s.input_args, vec![2]);
    }

    #[test]
    fn head_is_prefix_only() {
        let s = resolve_builtin("head", &args(&["-n1"])).unwrap();
        assert!(s.prefix_only);
        assert!(!s.class.is_splittable());
    }

    #[test]
    fn wc_sums() {
        let s = resolve_builtin("wc", &args(&["-l"])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::SumCounts
            }
        ));
    }

    #[test]
    fn uniq_classes() {
        let s = resolve_builtin("uniq", &args(&[])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::UniqBoundary { counted: false }
            }
        ));
        let s = resolve_builtin("uniq", &args(&["-c"])).unwrap();
        assert!(matches!(
            s.class,
            ParallelClass::Parallelizable {
                agg: Aggregator::UniqBoundary { counted: true }
            }
        ));
        let s = resolve_builtin("uniq", &args(&["-d"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
    }

    #[test]
    fn sed_pure_substitution_is_stateless() {
        let s = resolve_builtin("sed", &args(&["s/a/b/g"])).unwrap();
        assert_eq!(s.class, ParallelClass::Stateless);
        let s = resolve_builtin("sed", &args(&["2q"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
        let s = resolve_builtin("sed", &args(&["$d"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
    }

    #[test]
    fn tee_declares_output_files() {
        let s = resolve_builtin("tee", &args(&["-a", "log1", "log2"])).unwrap();
        assert_eq!(s.output_files, vec!["log1", "log2"]);
        assert_eq!(s.class, ParallelClass::Stateless);
    }

    #[test]
    fn mutators_are_side_effectful() {
        for cmd in ["rm", "cp", "mv"] {
            let s = resolve_builtin(cmd, &args(&["x"])).unwrap();
            assert_eq!(s.class, ParallelClass::SideEffectful);
        }
    }

    #[test]
    fn unknown_commands_unresolved() {
        assert!(resolve_builtin("frobnicate", &args(&[])).is_none());
    }

    #[test]
    fn option_values_are_not_operands() {
        let inputs = |name: &str, a: &[&str]| resolve_builtin(name, &args(a)).unwrap().input_args;
        assert_eq!(inputs("head", &["-n", "200"]), Vec::<usize>::new());
        assert_eq!(inputs("head", &["-n200", "f"]), vec![1]);
        assert_eq!(inputs("head", &["-5", "f"]), vec![1]);
        assert_eq!(inputs("tail", &["-n", "+5", "f"]), vec![2]);
        assert_eq!(inputs("sort", &["-t", " ", "-k", "2", "f"]), vec![4]);
        assert_eq!(inputs("cut", &["-d", " ", "-f", "2", "f"]), vec![4]);
        assert_eq!(inputs("fold", &["-w", "20", "f"]), vec![2]);
        assert_eq!(inputs("grep", &["-m", "1", "x", "f"]), vec![3]);
        assert_eq!(inputs("grep", &["-e", "x", "f"]), vec![2]);
        // A pattern before `-e` is replaced by it, as in the coreutil.
        assert_eq!(inputs("grep", &["x", "-e", "y", "f"]), vec![3]);
        assert_eq!(inputs("sed", &["-e", "s/a/b/", "f"]), vec![2]);
        assert_eq!(
            inputs("join", &["-1", "2", "-t", ":", "a", "b"]),
            vec![4, 5]
        );
        assert_eq!(inputs("paste", &["-d", ",", "a", "b"]), vec![2, 3]);
        assert_eq!(inputs("head", &["-n", "3", "--", "-n"]), vec![3]);
        let s = resolve_builtin("head", &args(&["-n", "200"])).unwrap();
        assert!(s.reads_stdin);
        let s = resolve_builtin("cut", &args(&["-c", "1-2", "f"])).unwrap();
        assert!(!s.reads_stdin);
    }

    #[test]
    fn unmodeled_options_have_no_spec() {
        for (name, a) in [("head", "-q"), ("cut", "-z"), ("grep", "-w"), ("wc", "-L")] {
            assert!(
                resolve_builtin(name, &args(&[a, "f"])).is_none(),
                "{name} {a}"
            );
        }
    }

    /// The benchmark's argument vectors resolve as they did before specs
    /// learned option values.
    #[test]
    fn benchmark_invocations_resolve_unchanged() {
        let stdin_only = |class: ParallelClass, blocking: bool| InstanceSpec {
            class,
            input_args: Vec::new(),
            reads_stdin: true,
            output_files: Vec::new(),
            blocking,
            prefix_only: false,
        };
        let merge_sort = |reverse: bool| ParallelClass::Parallelizable {
            agg: Aggregator::MergeSort {
                key: SortKeySpec {
                    reverse,
                    ..SortKeySpec::default()
                },
            },
        };
        let cases = [
            (
                "tr",
                args(&["-cs", "A-Za-z", "\\n"]),
                stdin_only(
                    ParallelClass::Parallelizable {
                        agg: Aggregator::SqueezeBoundary { set: vec![b'\n'] },
                    },
                    false,
                ),
            ),
            (
                "tr",
                args(&["A-Z", "a-z"]),
                stdin_only(ParallelClass::Stateless, false),
            ),
            (
                "grep",
                args(&["-v", "qqq"]),
                stdin_only(ParallelClass::Stateless, false),
            ),
            (
                "cut",
                args(&["-c", "1-48"]),
                stdin_only(ParallelClass::Stateless, false),
            ),
            ("sort", args(&[]), stdin_only(merge_sort(false), true)),
            ("sort", args(&["-r"]), stdin_only(merge_sort(true), true)),
            (
                "grep",
                args(&["-c", "unix", "/small.txt"]),
                InstanceSpec {
                    input_args: vec![2],
                    reads_stdin: false,
                    ..stdin_only(
                        ParallelClass::Parallelizable {
                            agg: Aggregator::SumCounts,
                        },
                        false,
                    )
                },
            ),
        ];
        for (name, argv, want) in cases {
            assert_eq!(resolve_builtin(name, &argv), Some(want), "{name} {argv:?}");
        }
    }

    #[test]
    fn comm_is_dataflow_but_not_splittable() {
        let s = resolve_builtin("comm", &args(&["-13", "dict", "-"])).unwrap();
        assert_eq!(s.class, ParallelClass::NonParallelizable);
        assert!(s.input_args.contains(&1));
    }
}
