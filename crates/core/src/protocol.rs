//! The wire: one NDJSON request per line in, one response line out.
//!
//! Newline-delimited JSON over stdin/stdout or a unix socket; one
//! request per line, one response line per request:
//!
//! ```text
//! {"op":"submit","app":"cg","nprocs":8,"base":"A"}
//! {"op":"predict","app":"cg","nprocs":8,"base":"A","target":"B"}
//! {"op":"batch","apps":["cg","lu"],"base":"A","targets":["B","C"],"workers":2}
//! {"op":"ping"}
//! {"op":"health"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses carry `ok`, the echoed `op`, and either `result` or
//! `error` plus a machine-readable `code` (`invalid`, `busy`,
//! `timeout`, `panic`, `error`) — every failure is classified, never
//! silent. Both read loops answer a line through
//! `PredictionService::respond`.

use crate::service::PredictionService;
use serde::Serialize;
use serde_json::Value;
use std::io::{BufRead, Read, Write};
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One service request, as decoded from a protocol line.
#[derive(Debug)]
pub enum Request {
    /// Analyze an app on a base machine and store its signature.
    Submit {
        /// Catalog application name.
        app: String,
        /// Process count (default 8).
        nprocs: u32,
        /// Base machine preset (default "A").
        base: String,
    },
    /// Predict an app's execution time on a target machine, serving
    /// from the store whenever possible.
    Predict {
        /// Catalog application name.
        app: String,
        /// Process count (default 8).
        nprocs: u32,
        /// Base machine preset (default "A").
        base: String,
        /// Target machine preset.
        target: String,
    },
    /// Analyze many apps (each as a `submit` would, in parallel) and
    /// predict each on every target.
    Batch {
        /// Catalog application names.
        apps: Vec<String>,
        /// Process count (default 8).
        nprocs: u32,
        /// Base machine preset (default "A").
        base: String,
        /// Target machine presets to predict on (may be empty:
        /// analyze/persist only).
        targets: Vec<String>,
        /// Batch worker threads.
        workers: Option<usize>,
        /// Per-job deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Liveness probe: answers immediately; the one lock on its path is
    /// the line probe's, held for one lookup.
    Ping,
    /// Serving-state probe: queue, in-flight, shed/timeout counters and
    /// store entry count, all read from atomics (no lock but the line
    /// probe's, so health stays answerable while every permit holder is
    /// wedged).
    Health,
    /// Service and store statistics.
    Stats,
    /// Stop the serve loop after responding.
    Shutdown,
}

impl Request {
    /// The protocol name of this request's operation, echoed as the
    /// response's `op`.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Predict { .. } => "predict",
            Request::Batch { .. } => "batch",
            Request::Ping => "ping",
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Decode one NDJSON protocol line. The wire format is spelled out
    /// explicitly — it is a public contract, and the parser doubles as
    /// its documentation: `op` selects the variant, `nprocs` defaults
    /// to 8 and is at most [`MAX_NPROCS`], `base` defaults to `"A"`.
    /// Only the keys named here are read; any other is ignored.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v: serde_json::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| "missing string field \"op\"".to_string())?;
        let string_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(serde_json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("\"{op}\" requires a string field \"{name}\""))
        };
        let string_list = |name: &str| -> Result<Vec<String>, String> {
            let bad = || format!("\"{name}\" must be an array of strings");
            match v.get(name) {
                None => Ok(Vec::new()),
                Some(items) => items
                    .as_array()
                    .ok_or_else(bad)?
                    .iter()
                    .map(|item| item.as_str().map(str::to_string).ok_or_else(bad))
                    .collect(),
            }
        };
        let uint_field = |name: &str| -> Result<Option<u64>, String> {
            match v.get(name) {
                None => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("\"{name}\" must be a non-negative integer")),
            }
        };
        let nprocs = match uint_field("nprocs")? {
            None => 8,
            Some(n) if n >= 1 && n <= u64::from(MAX_NPROCS) => n as u32,
            Some(_) => {
                return Err(format!(
                    "\"nprocs\" must be a positive integer, at most {MAX_NPROCS}"
                ))
            }
        };
        let base = match v.get("base") {
            None => "A".to_string(),
            Some(_) => string_field("base")?,
        };
        match op {
            "submit" => Ok(Request::Submit {
                app: string_field("app")?,
                nprocs,
                base,
            }),
            "predict" => Ok(Request::Predict {
                app: string_field("app")?,
                nprocs,
                base,
                target: string_field("target")?,
            }),
            "batch" => {
                let apps = string_list("apps")?;
                if apps.is_empty() {
                    return Err("\"batch\" requires a non-empty \"apps\" array".to_string());
                }
                Ok(Request::Batch {
                    apps,
                    nprocs,
                    base,
                    targets: string_list("targets")?,
                    workers: uint_field("workers")?.map(|n| n as usize),
                    deadline_ms: uint_field("deadline_ms")?,
                })
            }
            "ping" => Ok(Request::Ping),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

/// One protocol response line. The fields are declared in the order
/// they are rendered (sorted keys); absent ones are omitted, not `null`.
#[derive(Debug, Default, Serialize)]
pub struct Response {
    /// Machine-readable failure class when `ok` is false: `invalid`
    /// (malformed request), `busy` (load shed), `timeout` (deadline
    /// expired), `panic` (isolated panic) or `error` (everything else).
    /// Clients dispatch on this; `error` is for humans.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub code: Option<&'static str>,
    /// Failure description when `ok` is false.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The request's operation (or `"invalid"`).
    pub op: &'static str,
    /// Operation result when `ok` is true.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub result: Option<Value>,
    /// A replayed reply's line, which `render` returns; never a key.
    #[serde(skip_serializing_if = "never")]
    pub(crate) line: Option<Arc<str>>,
}

fn never<T>(_: &T) -> bool {
    true
}

impl Response {
    pub(crate) fn success(op: &'static str, result: Value) -> Response {
        Response {
            ok: true,
            op,
            result: Some(result),
            ..Response::default()
        }
    }

    pub(crate) fn failure(op: &'static str, code: &'static str, error: String) -> Response {
        Response {
            op,
            code: Some(code),
            error: Some(error),
            ..Response::default()
        }
    }

    /// The response as one NDJSON line (no trailing newline).
    pub fn render(&self) -> String {
        if let Some(line) = &self.line {
            return line.to_string();
        }
        serde_json::to_string(self).expect("a response always serializes")
    }
}

/// What a submit produced (or found).
#[derive(Debug, Clone, Serialize)]
pub struct SubmitOutcome {
    /// The signature's content address.
    pub digest: String,
    /// True when the signature was already in the store.
    pub cached: bool,
    /// Resolved application name.
    pub app: String,
    /// Total phases in the analysis.
    pub phases: usize,
    /// Relevant phases in the signature.
    pub relevant: usize,
    /// Analysis confidence flag.
    pub confidence: String,
}

/// What a predict produced (or found).
#[derive(Debug, Clone)]
pub struct PredictOutcome {
    /// Resolved application name.
    pub app: String,
    /// Target machine name.
    pub target: String,
    /// The canonical prediction JSON — byte-identical between a cold
    /// compute and every later cache hit.
    pub prediction_json: String,
    /// True when the prediction itself came from the store.
    pub cached: bool,
    /// True when the signature was served from the store (no Stage-A
    /// work ran for this request).
    pub signature_cached: bool,
}

/// Longest request line either read loop accepts, newline included. The
/// largest legitimate request is a `batch` app list of a few hundred
/// bytes; without a cap, one client that never sends a newline grows
/// the process's memory until it dies.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest `nprocs` a request line may carry: four times the paper's
/// largest run (Table 6, 256 processes). A simulated rank is an OS
/// thread and thread start-up has no cancellation checkpoint, so an
/// unbounded count lets one line stall the server past any deadline.
pub(crate) const MAX_NPROCS: u32 = 1024;

/// `read_line` that never takes `line` more than one byte beyond
/// [`MAX_LINE_BYTES`] — enough for the caller to see the cap was passed.
/// Appends, so a socket's partial line survives a read-timeout tick.
pub(crate) fn read_bounded_line(
    reader: &mut impl BufRead,
    line: &mut String,
) -> std::io::Result<usize> {
    let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
    reader.by_ref().take(room).read_line(line)
}

impl PredictionService {
    /// Protocol line in, response line out: skip a blank line, else
    /// answer it as [`PredictionService::handle_line`] does, without a
    /// deep copy of a predict's `result`, and write the rendered response
    /// and its newline in one write, then flush. The stdin loop and every
    /// socket connection call this and differ only in how they read. `Break`
    /// ends the caller's read loop: with `true` because the line asked
    /// the serve loop to stop, with `false` because it passed
    /// [`MAX_LINE_BYTES`] — answered once as malformed, and nowhere to
    /// resynchronise after it.
    pub(crate) fn respond(
        &self,
        line: &str,
        output: &mut impl Write,
    ) -> std::io::Result<ControlFlow<bool>> {
        let (response, flow) = if line.len() > MAX_LINE_BYTES {
            let why = format!("line longer than {MAX_LINE_BYTES} bytes");
            (self.serve_stats().invalid(&why), ControlFlow::Break(false))
        } else if line.trim().is_empty() {
            return Ok(ControlFlow::Continue(()));
        } else {
            match self.answer(line, false) {
                (response, true) => (response, ControlFlow::Break(true)),
                (response, false) => (response, ControlFlow::Continue(())),
            }
        };
        let mut text = response.render();
        text.push('\n');
        output.write_all(text.as_bytes())?;
        output.flush()?;
        Ok(flow)
    }

    /// Serve newline-delimited JSON requests from `input`, writing one
    /// response line each to `output`, until EOF, a `shutdown` or an
    /// over-long line. The final response is flushed before the loop
    /// exits, and the store index is flushed to disk on the way out.
    pub fn serve(&self, mut input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let mut line = String::new();
        while read_bounded_line(&mut input, &mut line)? > 0 {
            if self.respond(&line, &mut output)?.is_break() {
                break;
            }
            line.clear();
        }
        self.serve_stats().accepting.store(false, Ordering::SeqCst);
        self.flush_store();
        Ok(())
    }
}
