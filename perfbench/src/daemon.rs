//! The `bfhrf` release binary as a child process: `index build`, the
//! `serve` daemon, and a minimal NDJSON client for its wire protocol.

use bfhrf_cli::json::{self, Json};
use bfhrf_cli::proto::{Envelope, Request, Response, WireEncoding};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to come up or to exit before the run fails.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);

/// Run `bfhrf index build --refs refs --out dir` and return its wall time.
pub fn index_build(bin: &Path, refs: &Path, dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let out = Command::new(bin)
        .args(["index", "build", "--refs"])
        .arg(refs)
        .arg("--out")
        .arg(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let secs = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "index build failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(secs)
}

/// One NDJSON connection to the daemon.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::with_capacity(128 << 10, stream),
            writer,
            line: String::new(),
        })
    }

    /// Send one pre-rendered frame (including its trailing newline).
    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read one response line; the returned slice lives until the next call.
    pub fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed by the daemon".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request/response round trip through the typed protocol.
    pub fn call(&mut self, request: Request) -> Result<Response, String> {
        self.send(&frame(request, None))?;
        let line = self.recv()?;
        parse_response(line).map(|(r, _)| r)
    }

    /// `hello`, asking for `encoding`; fails unless the daemon echoes it.
    pub fn hello(&mut self, encoding: Option<WireEncoding>) -> Result<(), String> {
        match self.call(Request::Hello { encoding })? {
            Response::Hello { encoding: echo, .. } if echo == encoding => Ok(()),
            other => Err(format!("hello answered {other:?}")),
        }
    }

    /// The daemon's taxon labels in id order.
    pub fn taxa(&mut self) -> Result<Vec<String>, String> {
        match self.call(Request::Taxa { collection: None })? {
            Response::Taxa { labels, .. } => Ok(labels),
            other => Err(format!("taxa answered {other:?}")),
        }
    }

    /// The `stats` metrics document.
    pub fn metrics(&mut self) -> Result<Json, String> {
        match self.call(Request::Stats { collection: None })? {
            Response::Stats { metrics, .. } => Ok(metrics),
            other => Err(format!("stats answered {other:?}")),
        }
    }

    pub fn ping(&mut self) -> Result<(), String> {
        match self.call(Request::Ping { collection: None })? {
            Response::Pong { .. } => Ok(()),
            other => Err(format!("ping answered {other:?}")),
        }
    }
}

/// Render a v2 request as one wire line.
pub fn frame(request: Request, id: Option<u64>) -> String {
    format!("{}\n", Envelope::v2(request, id).to_json())
}

/// Parse one response line into the typed response and its echoed id.
pub fn parse_response(line: &str) -> Result<(Response, Option<u64>), String> {
    let doc = json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    Response::from_json(&doc)
}

/// A running `bfhrf serve` child. Dropping it kills the process.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawn `bfhrf serve` on `index` and wait for its first successful
    /// `ping`. Returns the daemon and the spawn-to-ping wall time.
    pub fn spawn(bin: &Path, index: &Path, work: &Path) -> Result<(Daemon, f64), String> {
        let port_file: PathBuf = work.join(format!(
            "port-{}",
            index.file_name().and_then(|s| s.to_str()).unwrap_or("idx")
        ));
        let _ = std::fs::remove_file(&port_file);
        let t = Instant::now();
        let child = Command::new(bin)
            .args(["serve", "--index"])
            .arg(index)
            .args(["--addr", "127.0.0.1:0", "--threads", "8", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if t.elapsed() > CHILD_DEADLINE {
                return Err("daemon did not answer ping in time".into());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if daemon.addr.is_empty() {
                if let Ok(text) = std::fs::read_to_string(&port_file) {
                    if text.ends_with('\n') {
                        daemon.addr = text.trim().to_string();
                    }
                }
            }
            if !daemon.addr.is_empty() {
                if let Ok(mut c) = Conn::connect(&daemon.addr) {
                    if c.ping().is_ok() {
                        return Ok((daemon, t.elapsed().as_secs_f64()));
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's resident set (`VmRSS`) in MiB.
    pub fn rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the daemon's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmRSS line in the daemon's /proc status".into())
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::connect(&self.addr) {
            let _ = c.call(Request::Shutdown);
        }
        let t = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t.elapsed() < CHILD_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Histogram series `name{key=value}` from a `stats` metrics document, as
/// `(le, n)` bucket pairs plus the sample count.
pub fn histogram(metrics: &Json, name: &str, label: (&str, &str)) -> Option<Vec<(u64, u64)>> {
    let series = metrics.get("series")?.as_arr()?;
    let s = series.iter().find(|s| {
        s.get("name").and_then(Json::as_str) == Some(name)
            && s.get("labels")
                .and_then(|l| l.get(label.0))
                .and_then(Json::as_str)
                == Some(label.1)
    })?;
    s.get("buckets")?
        .as_arr()?
        .iter()
        .map(|b| Some((b.get("le")?.as_u64()?, b.get("n")?.as_u64()?)))
        .collect()
}

/// Per-bucket difference `after − before` of two bucket lists.
pub fn histogram_delta(before: &[(u64, u64)], after: &[(u64, u64)]) -> Vec<(u64, u64)> {
    after
        .iter()
        .map(|&(le, n)| {
            let prev = before
                .iter()
                .find(|&&(l, _)| l == le)
                .map_or(0, |&(_, p)| p);
            (le, n.saturating_sub(prev))
        })
        .filter(|&(_, n)| n > 0)
        .collect()
}
