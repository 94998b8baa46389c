//! The system under test as processes: one `gcco-router` in front of two
//! `gcco-serve` backends, or one `gcco-serve` alone, spawned from the
//! release binaries, plus the client connection and the `/proc` reader
//! the benchmark measures them with.

use crate::gen::Workload;
use crate::stats::Exposition;
use gcco_api::serve::fetch_metrics;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Backends behind the router.
pub const BACKENDS: usize = 2;

/// Longest wait for any one reply; a stuck server fails the run instead
/// of hanging it.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A directory under the benchmark's output directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(out_dir: &Path, tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running deployment. Dropping it kills and reaps every process and
/// removes the backends' stores, on every exit path including panics.
pub struct Cluster {
    /// Backends first, router last. Each process's stdout stays open so
    /// its exit message never meets a closed pipe.
    procs: Vec<(Child, BufReader<ChildStdout>)>,
    pub backends: Vec<SocketAddr>,
    pub router: Option<SocketAddr>,
    _stores: Vec<TempDir>,
}

impl Cluster {
    /// Starts `workload`'s deployment, each process on an ephemeral
    /// `127.0.0.1` port and each backend with a fresh store: [`BACKENDS`]
    /// backends and a router over them for `hit_cluster`, one backend
    /// alone for `hit_single`.
    pub fn start(bin_dir: &Path, out_dir: &Path, workload: Workload) -> Result<Cluster, String> {
        let mut cluster = Cluster {
            procs: Vec::new(),
            backends: Vec::new(),
            router: None,
            _stores: Vec::new(),
        };
        let backends = match workload {
            Workload::HitCluster => BACKENDS,
            Workload::HitSingle => 1,
        };
        for _ in 0..backends {
            let store = TempDir::new(out_dir, "store")?;
            let mut cmd = Command::new(bin_dir.join("gcco-serve"));
            cmd.args(["listen", "127.0.0.1:0", "--store"])
                .arg(store.path());
            cluster._stores.push(store);
            let addr = cluster.spawn(cmd, "LISTENING ")?;
            cluster.backends.push(addr);
        }
        if workload == Workload::HitCluster {
            let mut cmd = Command::new(bin_dir.join("gcco-router"));
            cmd.args(["listen", "127.0.0.1:0"]);
            for b in &cluster.backends {
                cmd.arg("--backend").arg(b.to_string());
            }
            cluster.router = Some(cluster.spawn(cmd, "ROUTING ")?);
        }
        Ok(cluster)
    }

    /// The address clients send to: the router, or the lone backend.
    pub fn front(&self) -> SocketAddr {
        self.router.unwrap_or(self.backends[0])
    }

    /// Every process's address, backends first.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.backends.iter().copied().chain(self.router).collect()
    }

    /// Spawns one process and reads its stdout up to the line announcing
    /// its bound address.
    fn spawn(&mut self, mut cmd: Command, marker: &str) -> Result<SocketAddr, String> {
        let what = format!("{cmd:?}");
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {what}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        self.procs.push((child, BufReader::new(stdout)));
        let reader = &mut self.procs.last_mut().expect("just pushed").1;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Err(format!("{what} exited before listening")),
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().strip_prefix(marker) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr
                    .parse()
                    .map_err(|_| format!("{what} announced a bad address {addr:?}"));
            }
        }
    }

    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(|(c, _)| c.id()).collect()
    }

    /// The metrics of every process, read as one exposition.
    pub fn scrape(&self) -> Result<Exposition, String> {
        let mut all = Exposition::default();
        for addr in self.addrs() {
            let text =
                fetch_metrics(&addr, REPLY_TIMEOUT).map_err(|e| format!("scrape {addr}: {e}"))?;
            all = all.merge(Exposition::parse(&text)?);
        }
        Ok(all)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for (child, _) in &mut self.procs {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One persistent client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(addr, REPLY_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        // The client writes each line in one call; delaying it would time
        // the client, not the system.
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("configure {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone {addr}: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: Vec::new(),
        })
    }

    /// Sends one line (newline appended).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one reply line, newline stripped.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// Peak resident set (`VmHWM`) of a process, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}
