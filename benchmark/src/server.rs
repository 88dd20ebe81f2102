//! The program under test as a child process, and a client for its
//! NDJSON socket.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long anything may take before the harness calls it hung.
const PATIENCE: Duration = Duration::from_secs(120);

/// `pas2p-cli`, expected beside the harness's own executable.
pub fn locate_cli() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the harness executable has no directory")?;
    let cli = dir.join("pas2p-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found; build it into the harness's target directory first:\n  \
             cargo build --release --offline --manifest-path benchmark/Cargo.toml \
             -p pas2p-repro --bin pas2p-cli",
            cli.display()
        ))
    }
}

/// A per-process scratch directory under the build's target directory
/// (inside the checkout, already ignored), removed on drop. The harness
/// makes it its working directory, so socket paths stay a few bytes
/// long however deep the checkout is (`sun_path` holds 108).
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("the harness executable is not inside a target directory")?;
        let dir = target
            .join("bench-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("entering {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if let Some(parent) = self.0.parent() {
            let _ = std::env::set_current_dir(parent);
        }
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Recursive copy of a primed store (a directory of regular files).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Keeps this process on one CPU until dropped: the threads it starts
/// and the children it spawns from here on inherit the mask. Set
/// through `taskset`, since `std` has no call for it.
pub struct OneCpu {
    before: String,
}

impl OneCpu {
    /// Fails, with the reason, where the mask cannot be read or set.
    pub fn enter() -> Result<OneCpu, String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("reading /proc/self/status: {e}"))?;
        let before = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(|l| l.trim().to_string())
            .ok_or("no Cpus_allowed_list in /proc/self/status")?;
        // The last CPU of the list: the first one takes most of the
        // machine's interrupts.
        let last = before
            .rsplit([',', '-'])
            .next()
            .filter(|cpu| cpu.parse::<u32>().is_ok())
            .ok_or_else(|| format!("unreadable CPU list '{before}'"))?;
        set_affinity(last)?;
        Ok(OneCpu { before })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = set_affinity(&self.before);
    }
}

fn set_affinity(cpus: &str) -> Result<(), String> {
    let me = std::process::id().to_string();
    let done = Command::new("taskset")
        .args(["-a", "-cp", cpus, &me])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("running taskset: {e}"))?;
    if done.success() {
        Ok(())
    } else {
        Err(format!("taskset -a -cp {cpus} {me}: {done}"))
    }
}

/// One connection to the server: send a line, read a line.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
}

impl Client {
    /// Send `line`, wait for the reply line (without its newline).
    pub fn request(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the server closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// `/proc/<pid>` figures of a process, final for one that is about to
/// be shut down.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    /// User + system CPU of every thread, exited ones included, ms.
    pub cpu_ms: f64,
    /// `VmHWM`, MB.
    pub peak_rss_mb: f64,
}

/// Linux reports process times in `USER_HZ` ticks, 100 per second on
/// every architecture Rust's tier-1 Linux targets run on.
const MS_PER_TICK: f64 = 10.0;

pub fn proc_usage(pid: &str) -> ProcUsage {
    let mut usage = ProcUsage::default();
    if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        // Fields after the parenthesised command name: state is the
        // 1st, utime the 12th, stime the 13th.
        if let Some(rest) = stat.rsplit_once(") ").map(|(_, rest)| rest) {
            let fields: Vec<&str> = rest.split(' ').collect();
            let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
            if let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) {
                usage.cpu_ms = (utime + stime) * MS_PER_TICK;
            }
        }
    }
    if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
        usage.peak_rss_mb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0);
    }
    usage
}

/// A running `pas2p-cli serve`; killed on drop unless shut down.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Start the server with the README's production line on `store`
    /// (created when absent) and wait until its socket accepts.
    pub fn spawn(
        cli: &Path,
        store: &Path,
        socket: &Path,
        workers: usize,
    ) -> Result<Server, String> {
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(socket.with_extension("log"))
            .map_err(|e| format!("creating the server log: {e}"))?;
        let mut cmd = Command::new(cli);
        cmd.arg("serve")
            .arg("--store")
            .arg(store)
            .arg("--socket")
            .arg(socket)
            .args(["--workers", &workers.to_string()])
            .args(["--queue", "64", "--max-conns", "64"])
            .args(["--deadline-ms", "30000", "--drain-ms", "5000"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        // End-to-end timings are taken with observability off.
        for var in ["PAS2P_OBS", "PAS2P_TRACE", "PAS2P_LOG", "PAS2P_LOG_FILE"] {
            cmd.env_remove(var);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", cli.display()))?;
        let mut server = Server {
            child,
            socket: socket.to_path_buf(),
        };
        let started = Instant::now();
        loop {
            if UnixStream::connect(&server.socket).is_ok() {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "the server exited at start-up ({status}): {}",
                    server.log_tail()
                ));
            }
            if started.elapsed() > PATIENCE {
                return Err(format!("the server never accepted on {}", socket.display()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn log_tail(&self) -> String {
        std::fs::read_to_string(self.socket.with_extension("log"))
            .map(|log| log.lines().rev().take(5).collect::<Vec<_>>().join(" | "))
            .unwrap_or_default()
    }

    pub fn connect(&self) -> Result<Client, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connecting to {}: {e}", self.socket.display()))?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| format!("setting the read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning the connection: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            reply: String::new(),
        })
    }

    pub fn usage(&self) -> ProcUsage {
        proc_usage(&self.child.id().to_string())
    }

    /// The `health` result, which must answer whatever the workers do.
    pub fn health(&self) -> Result<serde_json::Value, String> {
        let mut client = self.connect()?;
        let reply = client
            .request(r#"{"op":"health"}"#)
            .map_err(|e| format!("health: {e}"))?;
        let value: serde_json::Value =
            serde_json::from_str(reply).map_err(|e| format!("health reply: {e}"))?;
        if value["ok"] != true {
            return Err(format!("health refused: {reply}"));
        }
        Ok(value["result"].clone())
    }

    /// Ask the server to stop, wait for it, and return its final usage.
    pub fn shutdown(mut self) -> Result<ProcUsage, String> {
        let mut client = self.connect()?;
        // Read usage while the process still exists; what it spends
        // draining afterwards is not request work.
        let usage = self.usage();
        client
            .request(r#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(usage),
                Ok(Some(status)) => {
                    return Err(format!(
                        "the server exited with {status}: {}",
                        self.log_tail()
                    ))
                }
                Ok(None) if started.elapsed() > PATIENCE => {
                    return Err("the server ignored shutdown".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After a clean shutdown both calls are no-ops on a reaped
        // child; after a panic or an error they make sure no orphan
        // holds the socket.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}
