//! Child processes: timed `vtld` batch invocations and `vtld serve`
//! daemons. Every process started here is waited for before the
//! function (or the [`Daemon`]'s drop) returns.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How one batch invocation ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// Exited with status 0.
    pub success: bool,
    /// Peak resident set size of the process (`ru_maxrss`), in KiB.
    pub max_rss_kb: u64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reaps `child` with `wait4`, which reports the peak RSS of exactly
/// this process — std's `wait` does not expose it. Consumes the handle:
/// the process is gone once this returns.
fn reap(child: Child) -> io::Result<(bool, u64)> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // layouts wait4(2) writes on 64-bit Linux; `pid` is our own
        // unreaped child, so no other process can be reaped here.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // std never learns the process was reaped; dropping the handle does
    // not signal or wait.
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_zero, u64::try_from(usage.maxrss).unwrap_or(0)))
}

/// Runs `vtld` with `args` to completion, its standard output written
/// to `stdout_path` and its standard error discarded.
pub fn run_timed(vtld: &Path, args: &[String], stdout_path: &Path) -> io::Result<Exit> {
    let out = File::create(stdout_path)?;
    let started = Instant::now();
    let child = Command::new(vtld)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()?;
    let (success, max_rss_kb) = reap(child)?;
    Ok(Exit {
        wall_s: started.elapsed().as_secs_f64(),
        success,
        max_rss_kb,
    })
}

/// Sends one request line on a fresh connection and returns the answer.
pub fn ask(addr: SocketAddr, line: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut conn = Conn::new(stream)?;
    conn.ask(line)
}

/// A closed-loop control connection (one request, then its answer).
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Sends `line` and reads one response line.
    pub fn ask(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }
}

/// A running `vtld serve` daemon. Dropping it shuts the daemon down
/// (killing it if it does not exit in time) and waits for it.
pub struct Daemon {
    child: Option<Child>,
    /// Address the daemon listens on.
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
    /// Spawn until the first `status` answer, in seconds.
    pub ready_s: f64,
}

impl Daemon {
    /// Spawns `vtld serve` with `args` (an ephemeral port is added),
    /// logging its standard error to `log`, and waits until it answers
    /// `status`.
    pub fn start(vtld: &Path, args: &[String], log: &Path) -> io::Result<Daemon> {
        let spawned = Instant::now();
        let child = Command::new(vtld)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
            ready_s: 0.0,
        };
        daemon.addr = wait_for_listen_line(log, &mut daemon)?;
        let mut conn = Conn::new(TcpStream::connect(daemon.addr)?)?;
        conn.ask("{\"cmd\":\"status\"}")?;
        daemon.ready_s = spawned.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's peak resident set size so far (`VmHWM`), in KiB.
    pub fn vm_hwm_kb(&self) -> io::Result<u64> {
        let pid = self.child.as_ref().map_or(0, Child::id);
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
    }

    /// Polls `status` on one connection until it reports
    /// `ingest_done`; returns that answer and the seconds since spawn.
    pub fn wait_ingest_done(&self, limit: Duration) -> io::Result<(String, f64)> {
        let mut conn = Conn::new(TcpStream::connect(self.addr)?)?;
        let deadline = Instant::now() + limit;
        loop {
            let status = conn.ask("{\"cmd\":\"status\"}")?;
            if status.contains("\"ingest_done\":true") {
                return Ok((status, self.spawned.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "ingest did not finish in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let answered = ask(self.addr, "{\"cmd\":\"shutdown\"}").map(|_| ());
        self.reap(Duration::from_secs(30));
        answered
    }

    /// Waits up to `limit` for the process to exit, then kills it; in
    /// both cases the process has ended when this returns.
    fn reap(&mut self, limit: Duration) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            match child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Waits for the daemon's `listening on ADDR` line in its log.
fn wait_for_listen_line(log: &Path, daemon: &mut Daemon) -> io::Result<SocketAddr> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(rest) = text.split("listening on ").nth(1) {
            if let Some(addr) = rest.split_whitespace().next() {
                return addr.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad address {addr}"))
                });
            }
        }
        if let Some(child) = daemon.child.as_mut() {
            if let Some(status) = child.try_wait()? {
                daemon.child = None;
                return Err(io::Error::other(format!(
                    "vtld serve exited early ({status}): {text}"
                )));
            }
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "vtld serve did not start listening",
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// A fresh, empty scratch directory for one run.
pub fn scratch_dir(root: &Path, workload: &str) -> io::Result<PathBuf> {
    let dir = root.join(format!("{workload}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
