//! `jashbench compare OLD NEW`: the per-metric deltas between the
//! results of two commits.
//!
//! `OLD` and `NEW` are result directories (or single result files)
//! written by runs of each commit. For every end-to-end metric of every
//! workload it prints both medians and quartiles over the runs, the
//! ratio, and whether the change falls outside the metric's bound in
//! `BENCHMARK.json`; the per-layer medians and their deltas follow. It
//! exits 1 when some metric got worse by more than its bound. Quartiles
//! are those of [`Samples::quartiles`].

use crate::stats::Samples;
use jash_spec::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `(workload, traced) → metric → values, one per run`.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Samples>>;

struct Bound {
    bound: Option<f64>,
    lower_is_better: bool,
}

fn result_files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_path_buf()];
    }
    let dir = if path.join("results").is_dir() {
        path.join("results")
    } else {
        path.to_path_buf()
    };
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn load(path: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let files = result_files(path);
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = v.get("workload").and_then(Value::as_str).unwrap_or("?");
        let traced = v.get("trace").and_then(Value::as_bool).unwrap_or(false);
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        let slot = runs.entry((workload.to_string(), traced)).or_default();
        for (name, m) in metrics {
            if let Some(Value::Num(x)) = m.get("value") {
                slot.entry(name.clone()).or_default().push(*x);
            }
        }
    }
    Ok(runs)
}

fn bounds(path: &Path) -> BTreeMap<String, Bound> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let Ok(v) = json::parse(&text) else {
        return out;
    };
    for key in ["end_to_end", "per_layer"] {
        for m in v.get(key).and_then(Value::as_arr).unwrap_or(&[]) {
            let Some(name) = m.get("name").and_then(Value::as_str) else {
                continue;
            };
            let bound = match m.get("bound") {
                Some(Value::Num(b)) => Some(*b),
                _ => None,
            };
            let lower_is_better = m.get("better").and_then(Value::as_str) == Some("lower");
            out.insert(
                name.to_string(),
                Bound {
                    bound,
                    lower_is_better,
                },
            );
        }
    }
    out
}

fn fmt(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e6 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

/// Entry point of `jashbench compare OLD NEW`, run from the repository
/// root so that `BENCHMARK.json` supplies the bounds.
pub fn main(argv: &[String]) -> ExitCode {
    let [old, new] = argv else {
        eprintln!("usage: jashbench compare OLD NEW");
        return ExitCode::from(2);
    };
    let (old, new) = match (load(Path::new(old)), load(Path::new(new))) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("jashbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = bounds(Path::new("BENCHMARK.json"));
    let mut regressed = false;
    for traced in [false, true] {
        let title = if traced {
            "per-layer (traced runs)"
        } else {
            "end-to-end"
        };
        println!("\n== {title} ==");
        println!(
            "{:<14} {:<34} {:>22} {:>22} {:>8}  verdict",
            "workload", "metric", "old median [q1,q3] n", "new median [q1,q3] n", "new/old"
        );
        for ((workload, t), metrics) in &old {
            if *t != traced {
                continue;
            }
            let Some(newm) = new.get(&(workload.clone(), traced)) else {
                println!("{workload:<14} (no runs in NEW)");
                continue;
            };
            for (name, o) in metrics {
                let Some(n) = newm.get(name) else { continue };
                let (oq1, om, oq3) = o.quartiles();
                let (nq1, nm, nq3) = n.quartiles();
                let ratio = if om == 0.0 { f64::NAN } else { nm / om };
                let verdict = match bounds.get(name) {
                    Some(Bound {
                        bound: Some(b),
                        lower_is_better,
                    }) => {
                        // How much worse NEW is, as a share of OLD.
                        let worse_by = if *lower_is_better {
                            ratio - 1.0
                        } else {
                            1.0 - ratio
                        };
                        regressed |= worse_by > *b;
                        if worse_by > *b {
                            format!("WORSE beyond bound {b}")
                        } else if worse_by < -b {
                            format!("better beyond bound {b}")
                        } else {
                            format!("within bound {b}")
                        }
                    }
                    _ => format!("delta {:+.1}%", (ratio - 1.0) * 100.0),
                };
                println!(
                    "{workload:<14} {name:<34} {:>22} {:>22} {:>8.3}  {verdict}",
                    format!("{} [{},{}] {}", fmt(om), fmt(oq1), fmt(oq3), o.len()),
                    format!("{} [{},{}] {}", fmt(nm), fmt(nq1), fmt(nq3), n.len()),
                    ratio
                );
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
