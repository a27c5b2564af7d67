//! The suite (every workload, one child process each per trace mode, in
//! sequence, merged into `out/result.json`) and `--compare`.

use crate::json::{self, Json};
use crate::manifest::{Manifest, MetricDef};
use crate::Args;
use std::path::Path;
use std::process::Command;

/// `--smoke` measures this long per child unless `--seconds` says
/// otherwise: the minimum repeat count then sets the run length.
const SMOKE_SECONDS: f64 = 0.05;

/// The last two stdout lines of a child: its detail record and its result.
fn run_child(
    args: &Args,
    workload: &str,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--root")
        .arg(&args.root)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // stderr (the per-metric table, failed checks) passes through.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = |line: Option<&str>| {
        json::parse(line.unwrap_or("")).map_err(|e| {
            format!(
                "{workload} --trace {}: unreadable child output ({e}), exit {}",
                trace as u8, out.status
            )
        })
    };
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let result = parsed(lines.next())?;
    let detail = parsed(lines.next())?;
    Ok((detail, result))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        manifest.run_seconds
    });
    let selected: Vec<&String> = match &args.workload {
        Some(name) => vec![manifest
            .workloads
            .iter()
            .find(|w| *w == name)
            .ok_or(format!("workload `{name}` is not in BENCHMARK.json"))?],
        None => manifest.workloads.iter().collect(),
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in selected {
        let (detail0, result0) = run_child(args, name, seconds, false)?;
        let (detail1, result1) = run_child(args, name, seconds, true)?;
        for result in [&result0, &result1] {
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
        }
        // The two children saw the same inputs, so the same network.
        if detail0.get("digest") != detail1.get("digest") {
            eprintln!("CHECK FAILED: {name}: untraced and traced children disagree on the digest");
            all_correct = false;
        }
        let field = |j: &Json, key: &str| j.get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            name.clone(),
            Json::obj([
                ("digest", field(&detail0, "digest")),
                ("flows", field(&detail0, "flows")),
                ("repeats", field(&detail0, "repeats")),
                ("end_to_end", field(&result0, "metrics")),
                ("spread", field(&detail0, "spread")),
                ("per_layer", field(&result1, "metrics")),
                (
                    "failures",
                    Json::Arr(
                        [&detail0, &detail1]
                            .iter()
                            .flat_map(|d| d.get("failures").and_then(Json::as_arr).unwrap_or(&[]))
                            .cloned()
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let root = args.root.to_string_lossy();
    let result = Json::obj([
        ("correct", Json::Bool(all_correct)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "host_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["-C", &root, "rev-parse", "HEAD"])),
        ),
        ("workloads", Json::Obj(workloads)),
    ])
    .render();
    args.write_out("result.json", &format!("{result}\n"))?;
    println!("{result}");
    Ok(all_correct)
}

/// A result file's workloads: name → record.
fn load_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

struct Reading {
    median: f64,
    /// Lowest and highest single repeat, where the result recorded them.
    range: Option<(f64, f64)>,
}

fn reading(result: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let w = result.get("workloads")?.get(workload)?;
    let median = w.get("end_to_end")?.get(metric)?.get("value")?.as_f64()?;
    let range = w
        .get("spread")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .and_then(|a| Some((a.first()?.as_f64()?, a.get(1)?.as_f64()?)));
    Some(Reading { median, range })
}

/// `ok`, `worse` or `unresolved` for B against A under the metric's bound.
/// Worse: B's median is worse than A's by more than the bound. Unresolved:
/// not worse, but either side's repeats spread wider than the bound, so
/// "unchanged" cannot be claimed, unless every repeat of B beats every
/// repeat of A.
fn verdict(def: &MetricDef, a: &Reading, b: &Reading) -> (&'static str, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    let worsening = sign * (b.median - a.median) / a.median;
    if worsening > bound {
        return ("worse", worsening);
    }
    let spread = |r: &Reading| r.range.map_or(0.0, |(lo, hi)| (hi - lo) / r.median);
    let b_beats_a = match (a.range, b.range) {
        (Some((_, a_hi)), Some((b_lo, _))) if def.higher_is_better => b_lo > a_hi,
        (Some((a_lo, _)), Some((_, b_hi))) => b_hi < a_lo,
        _ => false,
    };
    if spread(a).max(spread(b)) > bound && !b_beats_a {
        return ("unresolved", worsening);
    }
    ("ok", worsening)
}

pub fn compare(manifest: &Manifest, a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load_result(a)?, load_result(b)?);
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8}  {:>7}  verdict   (A = {}, B = {}; ratio is B/A, base A)",
        "workload", "metric", "A median", "B median", "B/A", "bound", a.display(), b.display()
    );
    let mut none_worse = true;
    for workload in &manifest.workloads {
        for def in &manifest.end_to_end {
            let (Some(x), Some(y)) = (
                reading(&ra, workload, &def.name),
                reading(&rb, workload, &def.name),
            ) else {
                println!(
                    "{workload:<18} {:<22} missing in one of the files",
                    def.name
                );
                continue;
            };
            let (word, _) = verdict(def, &x, &y);
            none_worse &= word != "worse";
            println!(
                "{workload:<18} {:<22} {:>14.6} {:>14.6} {:>8.4}  {:>6.1}%  {word}",
                def.name,
                x.median,
                y.median,
                y.median / x.median,
                100.0 * def.bound.unwrap_or(0.0),
            );
        }
    }
    Ok(none_worse)
}
