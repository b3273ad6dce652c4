//! The `served` process under test: built from the checkout's sources,
//! started with its default flags on a free loopback port, and always
//! killed and reaped.

use crate::gen::Line;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

/// Builds the repository's `served` binary (a no-op when it is fresh) and
/// returns its path. Run from the root of the checkout.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--manifest-path", "Cargo.toml", "-p", "served"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building served failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let binary = target.join("release").join("served");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// A running `served --listen` child process.
pub struct Served {
    child: Child,
    pub addr: String,
    /// Held open so the server's diagnostics never hit a closed pipe.
    _stderr: BufReader<ChildStderr>,
}

impl Served {
    /// Starts `served --listen` on a free loopback port and waits for its
    /// "listening" line.
    pub fn spawn(binary: &PathBuf) -> Result<Self, String> {
        let mut last_error = String::new();
        // The port is probed free and released before the child binds it;
        // a lost race just retries on another port.
        for _ in 0..5 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            let mut child = Command::new(binary)
                .args(["--listen", &addr])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
            let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
            let mut first = String::new();
            let _ = stderr.read_line(&mut first);
            if first.starts_with("served: listening") {
                return Ok(Self { child, addr, _stderr: stderr });
            }
            last_error = first.trim().to_owned();
            let _ = child.kill();
            let _ = child.wait();
        }
        Err(format!("served did not start: {last_error}"))
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(stream)
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the process whose `/proc/<pid>/status` is at `path`, in MB.
pub fn peak_rss_mb(path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// One cold start: spawn a fresh `served`, send `warmups` on one
/// connection, and wait until every one is answered `ok`. Returns the
/// running server and the seconds from spawn to the last answer.
pub fn cold_start(binary: &PathBuf, warmups: &[Line]) -> Result<(Served, f64), String> {
    let start = Instant::now();
    let served = Served::spawn(binary)?;
    let mut stream = served.connect()?;
    let mut out = Vec::new();
    for (id, line) in warmups.iter().enumerate() {
        line.write_to(id as u64, &mut out);
    }
    stream.write_all(&out).map_err(|e| format!("set-up write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut answer = String::new();
    for _ in warmups {
        answer.clear();
        reader.read_line(&mut answer).map_err(|e| format!("set-up read: {e}"))?;
        if !answer.contains("\"status\":\"ok\"") {
            return Err(format!("set-up request failed: {}", answer.trim()));
        }
    }
    Ok((served, start.elapsed().as_secs_f64()))
}
