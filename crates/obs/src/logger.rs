//! Leveled structured logger.
//!
//! One global [`Logger`] per process. Human-readable lines go to stderr
//! (`[LEVEL target] msg key=value ...`); when a file sink is attached
//! each record is additionally appended as one JSON object per line.
//!
//! Configuration:
//! * `PAS2P_LOG` — `off|error|warn|info|debug|trace` (default `warn`)
//! * `PAS2P_LOG_FILE` — path for the JSON-lines sink
//! * programmatic: [`Logger::set_level`] / [`Logger::set_file`]
//!   (the CLI's `--log-level` / `--log-file` flags call these)

use crate::events::Args;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log verbosity, ordered: a record is emitted when its level is at or
/// below the logger's configured level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Off = 0,
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" | "err" | "1" => Some(Level::Error),
            "warn" | "warning" | "2" => Some(Level::Warn),
            "info" | "3" => Some(Level::Info),
            "debug" | "4" => Some(Level::Debug),
            "trace" | "5" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Process-wide logger. Obtain it with [`logger()`].
pub struct Logger {
    level: AtomicU8,
    sink: Mutex<Option<BufWriter<File>>>,
}

impl Logger {
    fn from_env() -> Logger {
        let level = std::env::var("PAS2P_LOG")
            .ok()
            .and_then(|s| Level::parse(&s))
            .unwrap_or(Level::Warn);
        let logger = Logger {
            level: AtomicU8::new(level as u8),
            sink: Mutex::new(None),
        };
        if let Ok(path) = std::env::var("PAS2P_LOG_FILE") {
            // Env-driven init has nowhere to report errors; ignore failure.
            let _ = logger.set_file(&path);
        }
        logger
    }

    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Attach (or replace) the JSON-lines file sink.
    pub fn set_file(&self, path: &str) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        *self.sink.lock().unwrap() = Some(BufWriter::new(file));
        Ok(())
    }

    pub fn enabled(&self, level: Level) -> bool {
        level != Level::Off && level as u8 <= self.level.load(Ordering::Relaxed)
    }

    /// Emit one record. `fields` returns structured key/value pairs,
    /// rendered as `key=value` on stderr and as a JSON object in the
    /// file sink; it is called only when the level lets the record out.
    pub fn log(&self, level: Level, target: &str, msg: &str, fields: impl FnOnce() -> Args) {
        if !self.enabled(level) {
            return;
        }
        let fields = fields();
        let mut line = format!("[{:5} {}] {}", level.as_str(), target, msg);
        for (k, v) in &fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(v);
        }
        eprintln!("{line}");

        let mut sink = self.sink.lock().unwrap();
        if let Some(w) = sink.as_mut() {
            let ts_us = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0);
            let mut record = serde_json::json!({
                "ts_us": ts_us,
                "level": level.as_str(),
                "target": target,
                "msg": msg,
            });
            for (k, v) in &fields {
                record[*k] = serde_json::json!(v);
            }
            let _ = writeln!(w, "{record}");
            let _ = w.flush();
        }
    }
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

/// The process-wide logger (initialized from `PAS2P_LOG`/`PAS2P_LOG_FILE`
/// on first use).
pub fn logger() -> &'static Logger {
    LOGGER.get_or_init(Logger::from_env)
}

/// Emit a record through the global logger; `fields` is called only
/// when the record is emitted.
pub fn log(level: Level, target: &str, msg: &str, fields: impl FnOnce() -> Args) {
    logger().log(level, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_roundtrip() {
        for l in [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn level_ordering_gates_records() {
        let logger = Logger {
            level: AtomicU8::new(Level::Info as u8),
            sink: Mutex::new(None),
        };
        assert!(logger.enabled(Level::Error));
        assert!(logger.enabled(Level::Info));
        assert!(!logger.enabled(Level::Debug));
        logger.set_level(Level::Off);
        assert!(!logger.enabled(Level::Error));
    }

    #[test]
    fn the_file_sink_writes_each_record_as_one_json_line() {
        let path = std::env::temp_dir().join(format!("pas2p-log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let logger = Logger {
            level: AtomicU8::new(Level::Info as u8),
            sink: Mutex::new(None),
        };
        logger.set_file(path.to_str().unwrap()).unwrap();
        let msg = "a \"quoted\"\nline\u{1}";
        let fields = || vec![("app", "cg".to_string()), ("nprocs", "8".to_string())];
        logger.log(Level::Warn, "store", msg, fields);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(v["ts_us"].as_u64().is_some(), "{text}");
        assert_eq!(v["level"].as_str(), Some("warn"));
        assert_eq!(v["target"].as_str(), Some("store"));
        assert_eq!(v["msg"].as_str(), Some(msg));
        assert_eq!(v["app"].as_str(), Some("cg"));
        assert_eq!(v["nprocs"].as_str(), Some("8"));
    }

    /// Below the logger's level a record is dropped before its fields
    /// are built: the closure is not called.
    #[test]
    fn a_dropped_record_builds_no_fields() {
        use std::cell::Cell;
        let logger = Logger {
            level: AtomicU8::new(Level::Warn as u8),
            sink: Mutex::new(None),
        };
        let called = Cell::new(0);
        let fields = || {
            called.set(called.get() + 1);
            vec![("k", "v".to_string())]
        };
        logger.log(Level::Info, "test", "dropped", fields);
        logger.log(Level::Debug, "test", "dropped", fields);
        assert_eq!(called.get(), 0);
        logger.log(Level::Warn, "test", "emitted", fields);
        assert_eq!(called.get(), 1);
    }
}
