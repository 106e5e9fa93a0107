//! `tnic-benchmark` — the repo benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! tnic-benchmark --workload W --seed N --seconds T --trace 0|1 [--quick]
//! tnic-benchmark all [--seed N] [--seconds T] [--quick] [--out FILE]
//! tnic-benchmark compare A.json B.json
//! tnic-benchmark selfcheck [--seed N] [--seconds T]
//! ```
//!
//! The first form is one pass of one workload in this process; its last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `all` runs every workload's two
//! passes, each in a child process of its own (so peak memory is per
//! workload), and writes a result file `compare` reads.

mod adapter;
mod alloc;
mod compare;
mod fidelity;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{RunConfig, RunResult};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::WorkloadId;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage:
  tnic-benchmark --workload <name> --seed <n> --seconds <t> --trace <0|1> [--quick]
  tnic-benchmark all [--seed <n>] [--seconds <t>] [--quick] [--out <file>]
  tnic-benchmark compare <A.json> <B.json>
  tnic-benchmark selfcheck [--seed <n>] [--seconds <t>]
workloads: send_small send_large apps_rw acct_steady acct_scale acct_faults";

/// glibc malloc settings every pass runs under. Pinning the mmap threshold
/// at its initial value switches off glibc's habit of raising it after the
/// first large `free`: with that habit, the 1 MiB zeroed DMA region of every
/// endpoint of the *second* deployment a process builds is carved from
/// recycled heap and cleared by hand — at n = 1000 that is 1 GB resident
/// and a timed section twice as slow, decided by how many deployments the
/// harness happened to build before, not by the code under test.
const MALLOC_ENV: [(&str, &str); 1] = [("MALLOC_MMAP_THRESHOLD_", "131072")];
/// Set in a process that already runs under [`MALLOC_ENV`].
const PINNED_MARKER: &str = "TNIC_BENCHMARK_MALLOC_PINNED";

fn pin_malloc(command: &mut Command) {
    command.envs(MALLOC_ENV).env(PINNED_MARKER, "1");
}

/// malloc reads its settings when the process starts, so a pass re-runs
/// itself once with them in the environment. `None` if this process already
/// has them (or could not spawn, in which case it runs as it is).
fn rerun_pinned(args: &[String]) -> Option<bool> {
    if std::env::var_os(PINNED_MARKER).is_some() {
        return None;
    }
    let mut command = Command::new(std::env::current_exe().ok()?);
    command.args(args);
    pin_malloc(&mut command);
    // `status` waits for the child to end.
    match command.status() {
        Ok(status) => Some(status.success()),
        Err(e) => {
            eprintln!("tnic-benchmark: cannot re-run with pinned malloc settings ({e})");
            None
        }
    }
}

/// The line `all` reads a child's per-metric spreads from.
const DETAIL_PREFIX: &str = "#detail ";

#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut operand = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(operand("--workload")?),
            "--seed" => {
                let text = operand("--seed")?;
                flags.seed = Some(text.parse().map_err(|_| format!("bad --seed {text}"))?);
            }
            "--seconds" => {
                let text = operand("--seconds")?;
                let seconds: f64 = text.parse().map_err(|_| format!("bad --seconds {text}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {text} is outside (0, 600]"));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match operand("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (0 or 1)")),
                });
            }
            "--quick" => flags.quick = true,
            "--out" => flags.out = Some(operand("--out")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => parse_flags(&args[1..]).and_then(|f| cmd_all(&f).map(|(ok, _)| ok)),
        Some("compare") => parse_flags(&args[1..]).and_then(|f| cmd_compare(&f)),
        Some("selfcheck") => parse_flags(&args[1..]).and_then(|f| cmd_selfcheck(&f)),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => parse_flags(&args).and_then(|f| match rerun_pinned(&args) {
            Some(ok) => Ok(ok),
            None => cmd_run(&f),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("tnic-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// ---- one pass of one workload ------------------------------------------------------

fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(v.metric.name),
                json::number(v.value),
                json::string(v.metric.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn detail_line(result: &RunResult) -> String {
    let spreads: Vec<String> = result
        .values
        .iter()
        .filter_map(|v| {
            v.spread
                .map(|s| format!("{}: {}", json::string(v.metric.name), json::number(s)))
        })
        .collect();
    format!("{DETAIL_PREFIX}{{\"spreads\": {{{}}}}}", spreads.join(", "))
}

fn cmd_run(flags: &Flags) -> Result<bool, String> {
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {}", flags.positional[0]));
    }
    let name = flags
        .workload
        .as_deref()
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let cfg = RunConfig {
        workload: WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: flags.seed.ok_or("--seed is required")?,
        seconds: flags.seconds.ok_or("--seconds is required")?,
        trace: flags.trace.ok_or("--trace is required")?,
        quick: flags.quick,
    };
    let result = run::run(&cfg);
    println!("{}", result.report);
    println!("{}", detail_line(&result));
    println!("{}", result_line(&result));
    Ok(result.correct)
}

// ---- all: every workload, both passes, one child process each -------------------------

struct ChildPass {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit, spread)` in catalogue order.
    metrics: Vec<(String, f64, String, Option<f64>)>,
}

fn run_child(
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    pin_malloc(&mut command);
    if quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end before it returns.
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|d| json::parse(d).ok());
    // Show the child's report (everything above its machine-readable lines).
    for line in lines.iter().filter(|l| !l.starts_with(DETAIL_PREFIX)) {
        println!("{line}");
    }
    let catalogue = if trace {
        &metrics::PER_LAYER[..]
    } else {
        &metrics::END_TO_END[..]
    };
    let mut metrics_out = Vec::new();
    for metric in catalogue {
        let entry = doc
            .get("metrics")
            .and_then(|m| m.get(metric.name))
            .ok_or_else(|| format!("child did not report {}", metric.name))?;
        let value = entry
            .get("value")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{} has no value", metric.name))?;
        let spread = detail
            .as_ref()
            .and_then(|d| d.get("spreads"))
            .and_then(|s| s.get(metric.name))
            .and_then(json::Value::as_f64);
        metrics_out.push((
            metric.name.to_string(),
            value,
            metric.unit.to_string(),
            spread,
        ));
    }
    let number = |key: &str| doc.get(key).and_then(json::Value::as_f64).unwrap_or(0.0);
    Ok(ChildPass {
        correct: doc.get("correct").and_then(json::Value::as_bool) == Some(true)
            && output.status.success(),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics: metrics_out,
    })
}

fn default_out(seed: u64) -> String {
    format!("{}/out/results-seed{seed}.json", env!("CARGO_MANIFEST_DIR"))
}

/// Runs everything; returns whether every pass was correct, and the path of
/// the result file.
fn cmd_all(flags: &Flags) -> Result<(bool, String), String> {
    let seed = flags.seed.unwrap_or(1);
    let seconds = flags
        .seconds
        .unwrap_or(if flags.quick { 0.5 } else { 10.0 });
    let mut all_correct = true;
    let mut doc = format!(
        "{{\n\"schema\": 1,\n\"quick\": {},\n\"seed\": {seed},\n\"seconds\": {},\n\"workloads\": {{",
        flags.quick,
        json::number(seconds)
    );
    let mut summary = String::new();
    for (i, workload) in WorkloadId::ALL.into_iter().enumerate() {
        println!("\n==== {} ====", workload.name());
        let measured = run_child(workload, seed, seconds, false, flags.quick)?;
        let traced = run_child(workload, seed, seconds, true, flags.quick)?;
        let correct = measured.correct && traced.correct;
        all_correct &= correct;
        let _ = write!(
            doc,
            "{}\n{}: {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            if i == 0 { "" } else { "," },
            json::string(workload.name()),
            json::number(measured.attempted + traced.attempted),
            json::number(measured.failed + traced.failed),
        );
        let _ = writeln!(
            summary,
            "{:<12} {:>8} {:>14.0} ops {:>10.0} failed",
            workload.name(),
            if correct { "ok" } else { "INCORRECT" },
            measured.attempted + traced.attempted,
            measured.failed + traced.failed
        );
        for (j, (name, value, unit, spread)) in
            measured.metrics.iter().chain(&traced.metrics).enumerate()
        {
            let _ = write!(
                doc,
                "{}\n  {}: {{\"value\": {}, \"unit\": {}{}}}",
                if j == 0 { "" } else { "," },
                json::string(name),
                json::number(*value),
                json::string(unit),
                spread.map_or(String::new(), |s| format!(
                    ", \"spread\": {}",
                    json::number(s)
                ))
            );
        }
        doc.push_str("\n}}");
    }
    doc.push_str("\n}\n}\n");
    let path = flags.out.clone().unwrap_or_else(|| default_out(seed));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
    println!("\n==== summary (seed {seed}, {seconds} s per pass) ====\n{summary}");
    println!("results: {path}");
    if flags.quick {
        println!("QUICK run: smoke test only; `compare` refuses its result file");
    }
    Ok((all_correct, path))
}

// ---- compare, selfcheck ---------------------------------------------------------------

fn cmd_compare(flags: &Flags) -> Result<bool, String> {
    let [a, b] = flags.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let comparison = compare::compare_files(a, b)?;
    print!("{}", comparison.render());
    Ok(comparison.count(compare::Verdict::Worse) == 0 && comparison.missing.is_empty())
}

fn cmd_selfcheck(flags: &Flags) -> Result<bool, String> {
    if flags.quick {
        return Err("selfcheck compares results, and --quick results are not comparable".into());
    }
    let seed = flags.seed.unwrap_or(1);
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    let mut all_correct = true;
    for pass in ["a", "b"] {
        let run_flags = Flags {
            seed: Some(seed),
            seconds: flags.seconds,
            out: Some(format!("{dir}/selfcheck-seed{seed}-{pass}.json")),
            ..Flags::default()
        };
        let (correct, path) = cmd_all(&run_flags)?;
        all_correct &= correct;
        paths.push(path);
    }
    let comparison = compare::compare_files(&paths[0], &paths[1])?;
    print!("{}", comparison.render());
    let worse = comparison.count(compare::Verdict::Worse);
    let moved = comparison.exact_moved();
    println!(
        "selfcheck: {} (same code twice: {worse} worse, {moved} exact metrics moved, {} unresolved)",
        if all_correct && worse == 0 && moved == 0 { "PASS" } else { "FAIL" },
        comparison.count(compare::Verdict::Unresolved)
    );
    Ok(all_correct && worse == 0 && moved == 0 && comparison.missing.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_in_any_order_and_reject_nonsense() {
        let f = parse_flags(&args("--trace 1 --seconds 2.5 --workload apps_rw --seed 9")).unwrap();
        assert_eq!(f.workload.as_deref(), Some("apps_rw"));
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(9), Some(2.5), Some(true))
        );
        for bad in [
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds -1",
            "--seconds 1e9",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = run::run(&RunConfig {
            workload: WorkloadId::SendSmall,
            seed: 3,
            seconds: 0.05,
            trace: false,
            quick: true,
        });
        let doc = json::parse(&result_line(&result)).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert!(doc.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let names: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let mut want: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        for m in metrics::END_TO_END {
            let v = doc.get("metrics").unwrap().get(m.name).unwrap();
            assert!(
                v.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{}",
                m.name
            );
            assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
        }
        assert!(json::parse(detail_line(&result).strip_prefix(DETAIL_PREFIX).unwrap()).is_ok());
    }
}
