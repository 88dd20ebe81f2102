//! `pas2p-benchmark`: wall-clock cost of PAS2P-rs, end to end through
//! the real socket and the library, and layer by layer from outside.
//!
//! ```text
//! pas2p-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! pas2p-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! `run` prints every metric by name on standard error and one JSON
//! record per (workload, mode) on standard output; with one workload
//! and one mode the last line is the record the benchmark driver reads.

#![forbid(unsafe_code)]

mod catalogue;
mod e2e;
mod ledger;
mod report;
mod rng;
mod server;
mod stats;
mod storeio;
mod workload;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  pas2p-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  pas2p-benchmark compare A.json B.json [--spec BENCHMARK.json]
workloads: submit_cold predict_warm, and analyze_trace mixed batch_cold,
  which BENCHMARK.json leaves out (default: all)
--trace 0 measures end to end, --trace 1 the per-layer ledger (default: both)";

fn flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut named = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(key) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                if named.insert(key.to_string(), value.clone()).is_some() {
                    return Err(format!("--{key} given twice"));
                }
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((positional, named))
}

fn read_json(path: &Path) -> Result<serde_json::Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn run(named: &HashMap<String, String>, cwd: &Path) -> Result<bool, String> {
    let parse = |key: &str, default: f64| -> Result<f64, String> {
        match named.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} '{v}'")),
        }
    };
    for key in named.keys() {
        if !["workload", "seed", "seconds", "trace", "out"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}\n{USAGE}"));
        }
    }
    let seed = parse("seed", 1.0)? as u64;
    let seconds = parse("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let known = workload::WORKLOADS.iter().chain(&workload::UNGATED);
    let workloads: Vec<&str> = match named.get("workload") {
        None => known.copied().collect(),
        Some(w) => vec![*known
            .into_iter()
            .find(|known| *known == w)
            .ok_or_else(|| format!("unknown workload '{w}'\n{USAGE}"))?],
    };
    let modes: &[bool] = match named.get("trace").map(String::as_str) {
        None => &[false, true],
        Some("0") => &[false],
        Some("1") => &[true],
        Some(other) => return Err(format!("bad --trace '{other}' (0|1)")),
    };
    let out = named.get("out").map(|p| cwd.join(p));

    let cli = server::locate_cli()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = e2e::Env {
        cli,
        nproc,
        seed,
        seconds,
    };
    eprintln!(
        "pas2p-benchmark: seed {seed}, window {seconds}s, {nproc} core(s), {} server workers",
        e2e::WORKERS
    );

    let mut all_correct = true;
    let mut records = Vec::new();
    for &traced in modes {
        for &name in &workloads {
            // Every run starts in an empty directory of its own.
            let work = server::WorkDir::create()?;
            let outcome = if traced {
                ledger::run(&env, name)?
            } else {
                env.run(name)?
            };
            drop(work);
            eprint!("{}", outcome.render(name, traced));
            println!("{}", outcome.contract_line());
            all_correct &= outcome.correct;
            records.push(outcome.to_value(name, traced));
        }
    }
    if let Some(path) = out {
        let file = report::results_file(seed, seconds, nproc, records);
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("results written to {}", path.display());
    }
    Ok(all_correct)
}

fn compare(files: &[String], named: &HashMap<String, String>, cwd: &Path) -> Result<bool, String> {
    let [a, b] = files else {
        return Err(format!("compare takes two results files\n{USAGE}"));
    };
    let spec = named.get("spec").map_or("BENCHMARK.json", String::as_str);
    let bounds = report::bounds_from_spec(&read_json(&cwd.join(spec))?)?;
    let rows = report::compare(
        &read_json(&cwd.join(a))?,
        &read_json(&cwd.join(b))?,
        &bounds,
    )?;
    print!("{}", report::render_rows(&rows));
    let violations = rows.iter().filter(|r| !r.ok).count();
    eprintln!("{} row(s), {violations} violation(s)", rows.len());
    Ok(violations == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cwd = std::env::current_dir().unwrap_or_default();
    let verdict = match args.split_first() {
        Some((cmd, rest)) => flags(rest).and_then(|(positional, named)| match cmd.as_str() {
            "run" if positional.is_empty() => run(&named, &cwd),
            "compare" => compare(&positional, &named, &cwd),
            _ => Err(USAGE.to_string()),
        }),
        None => Err(USAGE.to_string()),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pas2p-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
