//! Driving the real `topple-experiments serve` daemon from outside: spawn
//! and readiness, HTTP/1.1 over loopback (keep-alive, pipelined), and the
//! load generators.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::stats;

/// How long a daemon may take to print its `ready` line.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running daemon; killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// The snapshot id the daemon announced at `ready`.
    pub snapshot_id: String,
}

impl Daemon {
    /// Spawns `bin serve <snapshot> --addr 127.0.0.1:0 --workers 1 [extra]`
    /// and waits for its `ready` line. Returns the daemon and the seconds
    /// from spawn to `ready`.
    pub fn spawn(bin: &Path, snapshot: &Path, extra: &[&str], log: &Path) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let stderr = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let (tx, rx) = mpsc::channel();
        // The reader thread owns stdout until the daemon exits, so the
        // daemon never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sent = false;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if !sent && line.starts_with("ready ") {
                    let _ = tx.send(line);
                    sent = true;
                }
            }
        });
        let line = match rx.recv_timeout(READY_TIMEOUT) {
            Ok(line) => line,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not become ready; see {}", log.display()));
            }
        };
        let ready_s = stats::secs(t0);
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .map(str::to_owned)
        };
        let addr = field("addr=").ok_or_else(|| format!("no addr in `{line}`"))?;
        let snapshot_id = field("snapshot=").ok_or_else(|| format!("no snapshot in `{line}`"))?;
        Ok((Daemon { child, addr, snapshot_id }, ready_s))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    /// Peak RSS (MiB) and CPU seconds so far, read from procfs.
    pub fn usage(&self) -> (f64, f64) {
        (
            stats::peak_rss_mib(Some(self.pid())).unwrap_or(f64::NAN),
            stats::cpu_s(Some(self.pid())).unwrap_or(f64::NAN),
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One keep-alive HTTP/1.1 connection with a read buffer that frames
/// pipelined responses.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

/// One framed response: status and the body's byte range in the buffer.
pub struct Frame {
    pub status: u16,
    body: (usize, usize),
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    /// Writes the whole request, spinning through `WouldBlock` on a
    /// non-blocking socket.
    pub fn send(&mut self, mut request: &[u8]) -> Result<(), String> {
        while !request.is_empty() {
            match self.stream.write(request) {
                Ok(n) => request = &request[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Frames the next complete response already in the buffer, if any.
    fn frame(&mut self) -> Result<Option<Frame>, String> {
        let data = &self.buf[self.start..];
        let Some(head_end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&data[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|s| s.get(..3))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{status_line}`"))?;
        let mut len: Option<usize> = None;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().ok();
                }
            }
        }
        let len = len.ok_or("response without Content-Length")?;
        let body_start = self.start + head_end + 4;
        if self.buf.len() < body_start + len {
            return Ok(None);
        }
        self.start = body_start + len;
        Ok(Some(Frame {
            status,
            body: (body_start, body_start + len),
        }))
    }

    /// Moves unread bytes to the front once the consumed prefix is large.
    fn compact(&mut self) {
        if self.start > 0 && (self.start == self.buf.len() || self.start > 1 << 15) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Reads what has arrived (nothing, on a non-blocking socket with no
    /// data).
    fn fill(&mut self) -> Result<(), String> {
        self.compact();
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection reset by daemon".to_owned()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Blocks until one whole response has arrived.
    pub fn recv(&mut self) -> Result<Frame, String> {
        loop {
            if let Some(f) = self.frame()? {
                return Ok(f);
            }
            self.fill()?;
        }
    }

    pub fn body(&self, f: &Frame) -> &[u8] {
        &self.buf[f.body.0..f.body.1]
    }

    /// One request, one response, as `(status, body text)`.
    pub fn call(&mut self, request: &[u8]) -> Result<(u16, String), String> {
        self.send(request)?;
        let f = self.recv()?;
        Ok((f.status, String::from_utf8_lossy(self.body(&f)).into_owned()))
    }

    /// [`Conn::call`], but waiting for the answer on a non-blocking socket
    /// so the caller's core never idles (see [`open_loop`]).
    pub fn call_spinning(&mut self, request: &[u8]) -> Result<(u16, String), String> {
        self.send(request)?;
        self.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let framed = self.recv();
        self.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        let f = framed?;
        Ok((f.status, String::from_utf8_lossy(self.body(&f)).into_owned()))
    }

    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        self.call(&get_request(path))
    }

}

pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn post_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut r = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    r.extend_from_slice(body);
    r
}

/// Outcome of a load phase.
#[derive(Default)]
pub struct Load {
    pub attempted: u64,
    pub failed: u64,
    /// Closed loop: completed requests per second in each window.
    pub window_rps: Vec<f64>,
    /// Open loop: latency of each request from its scheduled send time, µs.
    pub latencies_us: Vec<f64>,
    /// Open loop and paced stream: how late each send left its schedule, µs.
    pub late_us: Vec<f64>,
    /// Paced stream: each answered request's scheduled time, seconds after
    /// the stream's `t0`, parallel to `latencies_us`.
    pub due_s: Vec<f64>,
}

/// Closed-loop pipelined load: keeps between `depth / 2` and `depth`
/// requests in flight on one connection for `seconds`, cycling through
/// `requests` and refilling in one write per half-depth batch, and records
/// the completion rate per `window`. Every response must be a complete 200.
pub fn pipelined(conn: &mut Conn, requests: &[Vec<u8>], depth: usize, seconds: f64, window: f64) -> Result<Load, String> {
    let mut load = Load::default();
    let mut next = 0usize;
    let mut batch: Vec<u8> = Vec::new();
    let mut refill = |conn: &mut Conn, n: usize, next: &mut usize| {
        batch.clear();
        for _ in 0..n {
            batch.extend_from_slice(&requests[*next % requests.len()]);
            *next += 1;
        }
        conn.send(&batch)
    };
    refill(conn, depth, &mut next)?;
    let t0 = Instant::now();
    let mut window_start = t0;
    let mut window_done = 0u64;
    let mut in_flight = depth;
    let mut sending = true;
    while in_flight > 0 {
        let f = conn.recv()?;
        in_flight -= 1;
        load.attempted += 1;
        if f.status != 200 {
            load.failed += 1;
        }
        window_done += 1;
        let now = Instant::now();
        let in_window = now.duration_since(window_start).as_secs_f64();
        if sending && in_window >= window {
            load.window_rps.push(window_done as f64 / in_window);
            window_start = now;
            window_done = 0;
            sending = now.duration_since(t0).as_secs_f64() < seconds;
        }
        if sending && in_flight <= depth / 2 {
            refill(conn, depth - in_flight, &mut next)?;
            in_flight = depth;
        }
    }
    Ok(load)
}

/// Open-loop load at a fixed `rate` for `seconds` on one connection, from
/// one thread that sends on schedule and reads responses, spinning on a
/// non-blocking socket in between. It never idles its core: an idle
/// virtual CPU can take milliseconds to wake on a busy host, which would
/// measure the host instead of the daemon. Latency runs from each
/// request's scheduled send time, so a stalled daemon cannot hide its
/// queueing delay.
pub fn open_loop(conn: &mut Conn, requests: &[Vec<u8>], rate: f64, seconds: f64) -> Result<Load, String> {
    let total = (rate * seconds).round() as usize;
    let interval = 1.0 / rate;
    let mut load = Load {
        latencies_us: Vec::with_capacity(total),
        late_us: Vec::with_capacity(total),
        ..Load::default()
    };
    conn.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (mut sent, mut received) = (0usize, 0usize);
    let result = (|| {
        while received < total {
            while sent < total && sent as f64 * interval <= stats::secs(t0) {
                conn.send(&requests[sent % requests.len()])?;
                load.late_us.push((stats::secs(t0) - sent as f64 * interval) * 1e6);
                sent += 1;
            }
            conn.fill()?;
            while let Some(f) = conn.frame()? {
                load.latencies_us.push((stats::secs(t0) - received as f64 * interval) * 1e6);
                load.attempted += 1;
                if f.status != 200 {
                    load.failed += 1;
                }
                received += 1;
            }
        }
        Ok::<(), String>(())
    })();
    conn.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    result?;
    Ok(load)
}

/// Sleeps until shortly before `t0 + due` seconds, then spins onto it, so
/// the generator's own wake-up delay stays out of the latencies.
fn wait_until(t0: Instant, due: f64) {
    let now = stats::secs(t0);
    if now + SPIN_S < due {
        std::thread::sleep(Duration::from_secs_f64(due - now - SPIN_S));
    }
    while stats::secs(t0) < due {
        std::hint::spin_loop();
    }
}

/// How long before each scheduled send the load generators stop sleeping
/// and spin.
const SPIN_S: f64 = 100e-6;

/// A low fixed-rate query stream for the live phase: waits for each
/// scheduled time (counted from `t0`), sends, and reads the answer, until
/// `stop` is set. Latency runs from the scheduled time. Non-200 answers and
/// connection errors count as failed; a connection error ends the stream.
///
/// Unlike [`open_loop`], it sleeps between sends: spinning for the whole
/// round would take a core from the daemon's rebuild, which `swap_ms`
/// measures. A late wake-up therefore shows in the latencies; the send
/// lateness is recorded so it can be told apart.
pub fn paced_stream(mut conn: Conn, requests: Vec<Vec<u8>>, rate: f64, stop: &AtomicBool, t0: Instant) -> Load {
    let mut load = Load::default();
    let interval = 1.0 / rate;
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let due = i as f64 * interval;
        wait_until(t0, due);
        load.late_us.push((stats::secs(t0) - due) * 1e6);
        load.attempted += 1;
        match conn.call_spinning(&requests[i % requests.len()]) {
            Ok((200, _)) => {
                load.latencies_us.push((stats::secs(t0) - due) * 1e6);
                load.due_s.push(due);
            }
            Ok(_) => load.failed += 1,
            Err(_) => {
                load.failed += 1;
                break;
            }
        }
        i += 1;
    }
    load
}
