//! `pas2p-cli` — the PAS2P tool as a command-line utility.
//!
//! ```text
//! pas2p-cli list
//! pas2p-cli analyze   --app cg --nprocs 16 --base A [--out analysis.json]
//! pas2p-cli signature --app cg --nprocs 16 --base A [--out signature.json]
//! pas2p-cli predict   --app cg --nprocs 16 --signature signature.json --target B
//! pas2p-cli validate  --app cg --nprocs 16 --base A --target B
//! pas2p-cli check     --app cg --nprocs 16 --base A [--json] [--logical-out model.json]
//! pas2p-cli check     --logical model.json [--json]
//! pas2p-cli metrics   --analysis analysis.json
//! ```
//!
//! Applications come from the built-in catalog (`pas2p_apps::by_name`);
//! machines are the paper's clusters A–D. Analyses and signatures are
//! exchanged as JSON.
//!
//! Observability flags (valid on every command):
//!
//! * `--log-level LEVEL` — off|error|warn|info|debug|trace (or `PAS2P_LOG`)
//! * `--log-file FILE`   — append JSON-lines log records to FILE
//! * `--metrics FILE`    — enable metric collection and write the final
//!   `MetricsSnapshot` JSON to FILE (or set `PAS2P_OBS=1`)

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_obs::events::Event;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  pas2p-cli list
  pas2p-cli analyze   --app NAME --nprocs N --base M [--out FILE]
  pas2p-cli signature --app NAME --nprocs N --base M [--out FILE]
  pas2p-cli predict   --app NAME --nprocs N --signature FILE --target M
  pas2p-cli predict   --app NAME --nprocs N --store DIR --target M [--base M]
  pas2p-cli serve     --store DIR [--socket PATH] [--evict-stale] [--workers K]
                      [--queue N] [--max-conns N] [--deadline-ms N] [--drain-ms N]
  pas2p-cli validate  --app NAME --nprocs N --base M --target M
  pas2p-cli check     --app NAME --nprocs N --base M [--json] [--logical-out FILE]
  pas2p-cli check     --logical FILE [--json]
  pas2p-cli check     --trace FILE [--json]
                      (any form also takes [--sarif FILE] [--baseline FILE]
                       [--write-baseline FILE])
  pas2p-cli metrics   --analysis FILE [--format text|prom]
  pas2p-cli batch     --apps NAME[,NAME...] --nprocs N --base M [--workers K] [--out FILE]
                      [--fault-seed N] [--deadline-ms N] [--strict]
  pas2p-cli timeline  --app NAME --nprocs N --base M [--out FILE] [--normalize]
  pas2p-cli timeline  --trace FILE [--out FILE] [--normalize]
  pas2p-cli timeline  --validate FILE
machines: A, B, C, D (the paper's clusters)
batch: one Stage-A analysis per listed application over a worker pool
  (--workers defaults to the core count); the report order and content are
  independent of the worker count
  --fault-seed N   run each app under the seeded fault matrix (truncation,
                   corruption, dropped rank, duplicated events) through the
                   recovering ingest path
  --deadline-ms N  time out a job still running after N milliseconds: it
                   stops on its worker at its next checkpoint (stage
                   boundary, simulated communication event, extraction
                   window); no runner thread
  --strict         exit 1 if any job failed or timed out (default exit 0)
timeline: export a Chrome Trace / Perfetto JSON timeline (open at
  ui.perfetto.dev). With --app, runs Stage A under event tracing and emits
  both the pipeline self-profile (wall clock) and the simulated
  application's per-rank virtual-time tracks with phase overlays; with
  --trace, rebuilds the application tracks from a binary trace file;
  --validate checks a previously exported file against the Trace Event
  schema; --normalize emits the worker-count-invariant normalized form
predict --store DIR: serve the prediction through the signature
  repository — the signature is analyzed at most once per (trace, base
  machine, config) and the canonical prediction JSON is cached, so a
  repeat invocation does no Stage-A work and returns identical bytes
  (--base defaults to A)
serve: long-running prediction service over newline-delimited JSON on
  stdin/stdout (one request per line, one response line each) or, with
  --socket PATH, a unix socket; ops: submit, predict, batch, stats, ping,
  health, shutdown — e.g. {\"op\":\"predict\",\"app\":\"cg\",\"target\":\"B\"}
  --store DIR      the signature repository backing the service
  --socket PATH    listen on a unix socket instead of stdin
  --evict-stale    drop entries whose config fingerprint no longer
                   matches the current configuration before serving
  --workers K      socket mode: compute requests that may run at once; each
                   runs on its connection's thread (default 4)
  --queue N        socket mode: requests that may wait for their turn; beyond
                   that new ones get a retryable \"busy\" error (default 64)
  --max-conns N    socket mode: concurrent connection cap (default 64)
  --deadline-ms N  per-request compute deadline, cooperative: the request
                   runs on its connection's thread (no runner thread) and
                   is answered with a \"timeout\" error at the first
                   checkpoint past N ms; a cached predict is never cut
  --drain-ms N     socket mode: graceful-shutdown drain budget (default 5000)
  socket-mode extras: ops ping and health answer inline (never queued), so
  liveness probes work even when every compute slot is taken
check: runs the pas2p-check invariant rules over every pipeline artifact;
  exits 0 when clean, 1 on warnings, 2 on errors (--json for machine output);
  --logical-out dumps the logical trace JSON so it can be re-checked with
  --logical FILE (model rules only); --trace FILE decodes a binary trace
  with the recovering ingest path and checks the salvaged trace (INGEST-*
  rules report what was lost)
  --sarif FILE        also write the report as a byte-stable SARIF 2.1.0 log
  --baseline FILE     suppress findings listed in FILE (exit code reflects
                      the remaining findings only)
  --write-baseline F  capture every current finding into F and exit 0
observability (any command):
  --log-level LEVEL   off|error|warn|info|debug|trace (default warn; env PAS2P_LOG)
  --log-file FILE     append JSON-lines log records to FILE (env PAS2P_LOG_FILE)
  --metrics FILE      collect metrics and write the snapshot JSON to FILE (env PAS2P_OBS=1)
  --trace-out FILE    record timeline events during the command and write the
                      pipeline self-profile as Chrome Trace JSON (env PAS2P_TRACE=1)
  --help, --version   print this help / the version and exit";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// The two failure shapes of the CLI. Both exit 2, but only misuse of
/// the command line earns the usage dump; a bad *input* (unreadable,
/// empty or corrupt file) gets exactly one diagnostic line so scripts
/// and humans can see the actual problem.
enum CliError {
    /// Malformed invocation: unknown command, bad or missing flag.
    Usage(String),
    /// The invocation was fine but an input file was not.
    Input(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Usage(msg.to_string())
    }
}

/// Shorthand for input-file failures inside `run`.
fn input(msg: String) -> CliError {
    CliError::Input(msg)
}

/// What a failed read of the input file `path` becomes.
fn reading(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |e| input(format!("reading {path}: {e}"))
}

/// Open the store at `dir`, printing what opening it repaired.
fn open_store(dir: &str) -> Result<pas2p_store::SignatureStore, CliError> {
    let store = pas2p_store::SignatureStore::open(std::path::Path::new(dir))
        .map_err(|e| input(format!("opening store {dir}: {e}")))?;
    if !store.report().is_clean() {
        eprint!("{}", store.report().render());
    }
    Ok(store)
}

/// Write an output file whole, or fail naming it.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// Flags that take no value; their presence maps to "true".
const BOOL_FLAGS: &[&str] = &["json", "strict", "normalize", "evict-stale"];

/// The lines of the usage text that list `cmd`'s flags: its synopsis
/// lines (continuation lines included) and the observability block.
fn usage_of(cmd: &str) -> Vec<&'static str> {
    let mut section = "";
    USAGE
        .lines()
        .filter(|line| {
            if let Some(synopsis) = line.strip_prefix("  pas2p-cli ") {
                section = synopsis.split(' ').next().unwrap_or("");
            } else if !line.starts_with(' ') {
                section = line;
            }
            section == cmd || section == "observability (any command):"
        })
        .collect()
}

/// Parse `cmd`'s `--flag value` pairs (and bare boolean flags), reporting
/// exactly which flag is malformed. The usage text is the list of flags:
/// one that `cmd`'s lines do not spell is a typo, or belongs to another
/// command, and either way not something to ignore.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let usage = usage_of(cmd);
    if !usage.iter().any(|line| line.starts_with("  pas2p-cli ")) {
        return Err(format!("unknown command '{cmd}'"));
    }
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{arg}'"))?;
        if key.is_empty() {
            return Err("bare '--' is not a flag".into());
        }
        if !usage.iter().any(|line| {
            line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|word| word == arg)
        }) {
            return Err(format!("unknown flag '--{key}'"));
        }
        if BOOL_FLAGS.contains(&key) {
            if flags.insert(key.to_string(), "true".into()).is_some() {
                return Err(format!("flag '--{key}' given twice"));
            }
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag '--{key}' is missing its value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("flag '--{key}' given twice"));
        }
        i += 2;
    }
    Ok(flags)
}

/// Apply `--log-level`/`--log-file`/`--metrics`; returns the metrics
/// output path when metric collection was requested.
fn apply_obs_flags(flags: &HashMap<String, String>) -> Result<Option<String>, String> {
    if let Some(level) = flags.get("log-level") {
        let level = pas2p_obs::Level::parse(level).ok_or_else(|| {
            format!("bad --log-level '{level}' (off|error|warn|info|debug|trace)")
        })?;
        pas2p_obs::logger().set_level(level);
    }
    if let Some(path) = flags.get("log-file") {
        pas2p_obs::logger()
            .set_file(path)
            .map_err(|e| format!("opening log file {path}: {e}"))?;
    }
    let metrics = flags.get("metrics").cloned();
    if metrics.is_some() {
        pas2p_obs::set_enabled(true);
    }
    Ok(metrics)
}

fn write_metrics(path: &str) -> Result<(), String> {
    let snapshot = pas2p_obs::global().snapshot();
    let json = serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?;
    write_file(path, json)?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
}

/// Close the command's recording bracket: the events it recorded.
fn stop_recording() -> Vec<Event> {
    pas2p_obs::set_tracing(false);
    pas2p_obs::events::take()
}

/// `--trace-out`: write the pipeline self-profile as Chrome Trace JSON.
fn write_trace_out(path: &str, label: &str, events: &[Event]) -> Result<(), String> {
    let doc = pas2p::compose_timeline(events, None, None, label);
    write_file(path, doc.to_json())?;
    eprintln!("wrote timeline ({} events) to {path}", doc.events.len());
    Ok(())
}

fn machine(flags: &HashMap<String, String>, key: &str) -> Result<MachineModel, String> {
    let name = flags.get(key).ok_or_else(|| format!("missing --{}", key))?;
    preset_by_name(name).ok_or_else(|| format!("unknown machine '{}'", name))
}

/// The value of `--key` parsed as a `T`; `None` when the flag is absent.
fn parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| v.parse().map_err(|_| format!("bad --{key} '{v}'")))
        .transpose()
}

fn nprocs(flags: &HashMap<String, String>) -> Result<u32, String> {
    Ok(parsed(flags, "nprocs")?.ok_or("missing --nprocs")?)
}

/// `--workers K` where zero workers make no sense.
fn workers(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    match parsed(flags, "workers")? {
        Some(0) => Err(format!("bad --workers '{}'", flags["workers"])),
        workers => Ok(workers),
    }
}

fn app(flags: &HashMap<String, String>) -> Result<Box<dyn MpiApp>, String> {
    let name = flags.get("app").ok_or("missing --app")?;
    pas2p_apps::by_name(name, nprocs(flags)?)
        .ok_or_else(|| format!("unknown application '{}'", name))
}

fn write_or_print(flags: &HashMap<String, String>, json: &str) -> Result<(), String> {
    match flags.get("out") {
        Some(path) => {
            write_file(path, json)?;
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no command".into());
    };
    let flags = parse_flags(cmd, rest)?;
    let metrics_out = apply_obs_flags(&flags)?;
    let trace_out = flags.get("trace-out").cloned();
    // One recording bracket for the command: the live timeline and
    // `--trace-out` are given the same events, taken once.
    if trace_out.is_some() || (cmd == "timeline" && flags.contains_key("app")) {
        pas2p_obs::set_tracing(true);
    }
    let mut recorded = None;
    let pas2p = Pas2p::default();

    let result: Result<ExitCode, CliError> = match cmd.as_str() {
        "list" => {
            println!("applications (--app):");
            for name in pas2p_apps::CATALOG {
                let a = pas2p_apps::by_name(name, 16).unwrap();
                println!("  {:<12} {}", name, a.workload());
            }
            println!("machines (--base/--target): A, B, C, D");
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let app = app(&flags)?;
            let base = machine(&flags, "base")?;
            let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
            eprintln!(
                "{}: {} events, {} phases ({} relevant), AET(PAS2P) {:.2}s",
                analysis.app_name,
                analysis.trace_events,
                analysis.total_phases(),
                analysis.relevant_phases(),
                analysis.aet_instrumented
            );
            let json = serde_json::to_string_pretty(&analysis).map_err(|e| e.to_string())?;
            write_or_print(&flags, &json)?;
            Ok(ExitCode::SUCCESS)
        }
        "signature" => {
            let app = app(&flags)?;
            let base = machine(&flags, "base")?;
            let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
            let (signature, stats) =
                pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);
            eprintln!(
                "constructed {} phases, {} checkpoint bytes, SCT {:.2}s",
                signature.phase_count(),
                signature.checkpoint_bytes(),
                stats.sct
            );
            let json = serde_json::to_string(&signature).map_err(|e| e.to_string())?;
            write_or_print(&flags, &json)?;
            Ok(ExitCode::SUCCESS)
        }
        "predict" if flags.contains_key("store") => {
            // Repository-backed path: the store analyzes at most once
            // per (trace, base, config) and serves repeat predictions
            // as canonical cached JSON.
            let name = flags.get("app").ok_or("missing --app")?.clone();
            let nprocs = nprocs(&flags)?;
            let base = flags.get("base").map(String::as_str).unwrap_or("A");
            let target = flags.get("target").ok_or("missing --target")?.clone();
            let store = open_store(flags.get("store").expect("guarded by match arm"))?;
            let svc = pas2p::PredictionService::new(pas2p, store, Box::new(pas2p_apps::by_name));
            let outcome = svc.predict(&name, nprocs, base, &target).map_err(input)?;
            let value: serde_json::Value =
                serde_json::from_str(&outcome.prediction_json).map_err(|e| e.to_string())?;
            let how = |hit: bool| if hit { "cache hit" } else { "computed" };
            println!(
                "PET {:.3} s on {} (SET {:.3} s) [prediction: {}, signature: {}]",
                value["pet"].as_f64().unwrap_or(f64::NAN),
                outcome.target,
                value["set"].as_f64().unwrap_or(f64::NAN),
                how(outcome.cached),
                how(outcome.signature_cached),
            );
            Ok(ExitCode::SUCCESS)
        }
        "predict" => {
            let app = app(&flags)?;
            let target = machine(&flags, "target")?;
            let path = flags.get("signature").ok_or("missing --signature")?;
            let data = std::fs::read_to_string(path).map_err(reading(path))?;
            let signature: Signature = serde_json::from_str(&data)
                .map_err(|e| input(format!("parsing {}: {}", path, e)))?;
            let prediction = pas2p
                .predict(app.as_ref(), &signature, &target, MappingPolicy::Block)
                .map_err(|e| input(format!("{path}: {e}")))?;
            println!(
                "PET {:.3} s on {} (SET {:.3} s, {} phases)",
                prediction.pet,
                target.name,
                prediction.set,
                prediction.measurements.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        "validate" => {
            let app = app(&flags)?;
            let base = machine(&flags, "base")?;
            let target = machine(&flags, "target")?;
            let (_, report) = pas2p
                .analyze_and_validate(app.as_ref(), &base, &target, MappingPolicy::Block)
                .map_err(|e| e.to_string())?;
            println!(
                "PET {:.3} s | AET {:.3} s | PETE {:.2}% | SET/AET {:.2}%",
                report.prediction.pet,
                report.aet,
                report.pete_or_inf(),
                report.set_vs_aet_percent
            );
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let engine = CheckEngine::with_default_rules();
            let report = if let Some(path) = flags.get("trace") {
                // Recovery mode: decode a binary trace with the
                // resync-capable ingest path and check whatever
                // survived; the INGEST-* rules report what was lost.
                let data = std::fs::read(path).map_err(reading(path))?;
                if data.is_empty() {
                    return Err(input(format!("{path} is empty")));
                }
                let (trace, ingest) = decode_recovering(&data);
                if !flags.contains_key("json") {
                    eprint!("{}", ingest.render());
                }
                let artifacts = Artifacts {
                    trace: trace.as_ref(),
                    ingest: Some(&ingest),
                    ..Artifacts::empty()
                };
                engine.run(&artifacts)
            } else if let Some(path) = flags.get("logical") {
                // Artifact mode: check a previously exported logical
                // trace (model rules only — there is no physical trace
                // or phase analysis to cross-check against).
                let data = std::fs::read_to_string(path).map_err(reading(path))?;
                let logical: LogicalTrace = serde_json::from_str(&data)
                    .map_err(|e| input(format!("parsing {}: {}", path, e)))?;
                if !flags.contains_key("json") {
                    eprintln!(
                        "{}: checked {} ticks, {} events",
                        path,
                        logical.len(),
                        logical.total_events()
                    );
                }
                let artifacts = Artifacts {
                    logical: Some(&logical),
                    ..Artifacts::empty()
                };
                engine.run(&artifacts)
            } else {
                let app = app(&flags)?;
                let base = machine(&flags, "base")?;
                let (analysis, _trace, logical) =
                    pas2p.analyze_run(app.as_ref(), &base, MappingPolicy::Block, Some(&engine));
                if let Some(out) = flags.get("logical-out") {
                    let json = serde_json::to_string(&logical).map_err(|e| e.to_string())?;
                    write_file(out, json)?;
                    eprintln!("wrote logical trace to {}", out);
                }
                if !flags.contains_key("json") {
                    eprintln!(
                        "{}: checked {} events, {} phases (confidence: {})",
                        analysis.app_name,
                        analysis.trace_events,
                        analysis.total_phases(),
                        analysis.confidence
                    );
                }
                analysis.check.expect("an engine attaches a report")
            };
            // Baseline handling: --write-baseline captures the current
            // findings and exits clean; --baseline filters them out of
            // the report (and the exit code) before rendering.
            if let Some(path) = flags.get("write-baseline") {
                let baseline = pas2p_check::Baseline::from_report(&report);
                write_file(path, baseline.to_json())?;
                eprintln!(
                    "wrote baseline ({} finding(s)) to {}",
                    baseline.suppressed.len(),
                    path
                );
                return Ok(ExitCode::SUCCESS);
            }
            let report = match flags.get("baseline") {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(reading(path))?;
                    let baseline = pas2p_check::Baseline::from_json(&text)
                        .map_err(|e| input(format!("{}: {}", path, e)))?;
                    let (filtered, absorbed) = pas2p_check::apply_baseline(report, &baseline);
                    if absorbed > 0 {
                        eprintln!("baseline absorbed {} finding(s)", absorbed);
                    }
                    filtered
                }
                None => report,
            };
            if let Some(path) = flags.get("sarif") {
                write_file(path, pas2p_check::to_sarif(&report))?;
                eprintln!("wrote SARIF report to {}", path);
            }
            if flags.contains_key("json") {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                println!("{}", json);
            } else {
                print!("{}", report.render());
            }
            Ok(ExitCode::from(report.exit_code()))
        }
        "batch" => {
            let names = flags.get("apps").ok_or("missing --apps")?;
            let nprocs = nprocs(&flags)?;
            let base = machine(&flags, "base")?;
            // Fault injection: --fault-seed runs the built-in matrix.
            let plans = parsed(&flags, "fault-seed")?.map_or_else(Vec::new, fault_matrix);
            let opts = pas2p::BatchOptions {
                workers: workers(&flags)?,
                deadline: parsed(&flags, "deadline-ms")?.map(Duration::from_millis),
            };
            let apps: Vec<(&str, Box<dyn MpiApp>)> = names
                .split(',')
                .map(|name| {
                    let name = name.trim();
                    pas2p_apps::by_name(name, nprocs)
                        .map(|app| (name, app))
                        .ok_or_else(|| format!("unknown application '{name}'"))
                })
                .collect::<Result<_, _>>()?;
            let mut jobs: Vec<pas2p::BatchJob> = Vec::new();
            for (name, app) in apps {
                if plans.is_empty() {
                    jobs.push(pas2p::BatchJob::new(app, base.clone()));
                } else {
                    // One job per app × plan; rebuild the app per plan so
                    // each job owns its own copy.
                    for (label, plan) in &plans {
                        let app = pas2p_apps::by_name(name, nprocs).expect("name validated above");
                        eprintln!("fault job: {name} × {label} ({})", plan.describe());
                        jobs.push(pas2p::BatchJob::new(app, base.clone()).with_fault(plan.clone()));
                    }
                }
            }
            let report = pas2p::run_batch_with(&pas2p, jobs, opts);
            eprint!("{}", report.render());
            if flags.contains_key("out") {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                write_or_print(&flags, &json)?;
            }
            if flags.contains_key("strict") && !report.all_completed() {
                return Ok(ExitCode::from(1));
            }
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let dir = flags.get("store").ok_or("missing --store")?;
            let mut store = open_store(dir)?;
            if flags.contains_key("evict-stale") {
                let evicted = store.evict_stale_configs(&pas2p.fingerprint());
                if evicted > 0 {
                    eprintln!("evicted {evicted} entr(ies) with stale config fingerprints");
                }
            }
            eprintln!(
                "pas2p serve: store {dir} ({} entr(ies)), one JSON request per line",
                store.len()
            );
            let svc = pas2p::PredictionService::new(pas2p, store, Box::new(pas2p_apps::by_name))
                .with_deadline(parsed(&flags, "deadline-ms")?.map(Duration::from_millis));
            match flags.get("socket") {
                #[cfg(unix)]
                Some(path) => {
                    let defaults = pas2p::ServeOptions::default();
                    let opts = pas2p::ServeOptions {
                        workers: parsed(&flags, "workers")?.unwrap_or(defaults.workers),
                        queue_capacity: parsed(&flags, "queue")?.unwrap_or(defaults.queue_capacity),
                        max_connections: parsed(&flags, "max-conns")?
                            .unwrap_or(defaults.max_connections),
                        drain: parsed(&flags, "drain-ms")?
                            .map_or(defaults.drain, Duration::from_millis),
                    };
                    eprintln!(
                        "listening on unix socket {path} ({} workers, queue {})",
                        opts.workers, opts.queue_capacity
                    );
                    pas2p::serve_unix_with(&svc, std::path::Path::new(path), opts)
                        .map_err(|e| input(format!("serving on {path}: {e}")))?;
                }
                #[cfg(not(unix))]
                Some(_) => return Err("--socket requires a unix platform".into()),
                None => {
                    let stdin = std::io::stdin();
                    svc.serve(stdin.lock(), std::io::stdout())
                        .map_err(|e| input(format!("serving on stdin: {e}")))?;
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            let path = flags.get("analysis").ok_or("missing --analysis")?;
            let data = std::fs::read_to_string(path).map_err(reading(path))?;
            let analysis: pas2p::Analysis = serde_json::from_str(&data)
                .map_err(|e| input(format!("parsing {}: {}", path, e)))?;
            let snapshot = analysis.metrics.ok_or_else(|| {
                input(format!(
                    "{path} carries no metrics snapshot — rerun analyze with --metrics FILE \
                     or PAS2P_OBS=1"
                ))
            })?;
            match flags.get("format").map(String::as_str).unwrap_or("text") {
                "text" => print!("{}", snapshot.render()),
                "prom" | "prometheus" => print!("{}", snapshot.render_prometheus()),
                other => return Err(format!("bad --format '{other}' (text|prom)").into()),
            }
            Ok(ExitCode::SUCCESS)
        }
        "timeline" if flags.contains_key("validate") => {
            let path = &flags["validate"];
            let text = std::fs::read_to_string(path).map_err(reading(path))?;
            let stats =
                pas2p::validate_chrome_json(&text).map_err(|e| input(format!("{path}: {e}")))?;
            println!(
                "{path}: valid Chrome Trace JSON — {} events ({} slices, {} instants, \
                 {} flows, {} metadata) across {} process lanes",
                stats.events, stats.slices, stats.instants, stats.flows, stats.metadata, stats.pids
            );
            Ok(ExitCode::SUCCESS)
        }
        "timeline" => {
            let mut doc = if let Some(path) = flags.get("trace") {
                // Rebuild the application timeline from a binary trace
                // through Stage A's byte path, and export the
                // virtual-time domain (no host self-profile — the run
                // that produced the trace is long gone).
                let data = std::fs::read(path).map_err(reading(path))?;
                let (analysis, trace) = pas2p
                    .analyze_buffer(path, "", &data, None)
                    .map_err(|e| input(format!("{path}: {e}")))?;
                let doc =
                    pas2p::compose_timeline(&[], Some(&trace), Some(&analysis.analysis), path);
                eprintln!(
                    "timeline: {} ranks, {} events, {} phases",
                    trace.nprocs,
                    trace.total_events(),
                    analysis.total_phases()
                );
                doc
            } else {
                // Live mode: run Stage A under event tracing and compose
                // both domains — the pipeline self-profile on the wall
                // clock and the simulated application in virtual time.
                let app = app(&flags)?;
                let base = machine(&flags, "base")?;
                let (analysis, trace, _logical) =
                    pas2p.analyze_full(app.as_ref(), &base, MappingPolicy::Block);
                let events: &[_] = recorded.insert(stop_recording());
                let doc = pas2p::compose_timeline(
                    events,
                    Some(&trace),
                    Some(&analysis.analysis),
                    &analysis.app_name,
                );
                eprintln!(
                    "timeline: {} host events, {} ranks, {} app events, {} phases",
                    events.len(),
                    trace.nprocs,
                    trace.total_events(),
                    analysis.total_phases()
                );
                doc
            };
            if flags.contains_key("normalize") {
                doc = doc.normalized();
            }
            write_or_print(&flags, &doc.to_json())?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{}'", other).into()),
    };

    if result.is_ok() {
        if let Some(path) = metrics_out {
            write_metrics(&path)?;
        }
        if let Some(path) = trace_out {
            write_trace_out(&path, cmd, &recorded.unwrap_or_else(stop_recording))?;
        }
    }
    result
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--version" || a == "-V") {
        println!("pas2p-cli {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    match run(&argv) {
        Ok(code) => code,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {}", e);
            usage()
        }
        Err(CliError::Input(e)) => {
            // Bad input file: one diagnostic line, no usage dump.
            eprintln!("error: {}", e);
            ExitCode::from(2)
        }
    }
}
