//! Building, starting and stopping `ringrt serve`, the benchmark's one
//! client connection, and the server process's `/proc` counters.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the `ringrt` binary from the repository's own workspace, with
/// the workspace's build settings, and returns its path.
///
/// # Errors
///
/// A message when cargo fails or reports no executable.
pub fn build_server(repo: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(repo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--package",
            "ringrt-cli",
            "--bin",
            "ringrt",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building the server failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter(|l| l.contains("\"compiler-artifact\""))
        .filter_map(|l| l.split("\"executable\":\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .map(PathBuf::from)
        .find(|p| p.file_stem().is_some_and(|s| s == "ringrt"))
        .ok_or_else(|| "cargo reported no ringrt executable".to_owned())
}

/// A running `ringrt serve` child process. Dropping it kills the process
/// and waits for it.
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server on an ephemeral loopback port, with every other
    /// flag at its default, and waits until it listens.
    ///
    /// # Errors
    ///
    /// When the process cannot start or does not report its address.
    pub fn spawn(bin: &Path, state_dir: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut first = String::new();
        let read = BufReader::new(stdout).read_line(&mut first);
        let addr = read.ok().and_then(|_| {
            first
                .strip_prefix("listening on ")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        });
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not report its address: {first:?}"
                )))
            }
        }
    }

    /// The address the server listens on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's user + system CPU time so far, in microseconds, from
    /// `/proc/<pid>/stat`. It includes threads that already exited, such
    /// as the execution pool's scoped workers.
    ///
    /// # Errors
    ///
    /// When the file cannot be read or parsed.
    pub fn cpu_us(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesized command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok((tick(11)? + tick(12)?) * 1e6 / USER_HZ)
    }

    /// The server's peak resident set so far (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// When the file cannot be read or holds no `VmHWM` line.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `SHUTDOWN` over `client` and waits for the process to exit,
    /// killing it after ten seconds.
    ///
    /// # Errors
    ///
    /// When the process does not exit cleanly.
    pub fn shutdown(mut self, mut client: Client) -> io::Result<()> {
        let _ = client.send_only("SHUTDOWN");
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                let mut rest = String::new();
                if let Some(mut out) = self.child.stdout.take() {
                    let _ = out.read_to_string(&mut rest);
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not shut down within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Clock ticks per second in `/proc/<pid>/stat`: `USER_HZ`, which Linux
/// fixes at 100 in the interface it exports to user space.
const USER_HZ: f64 = 100.0;

/// One newline-delimited protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Client {
    /// Connects with Nagle off, as an interactive client would.
    ///
    /// # Errors
    ///
    /// When the connection fails.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(1 << 12),
        })
    }

    fn send_only(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }

    fn read_reply(&mut self, reply: &mut String) -> io::Result<()> {
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let trimmed = reply.trim_end_matches(['\n', '\r']).len();
        reply.truncate(trimmed);
        Ok(())
    }

    /// Sends one request line and reads its one-line reply into `reply`.
    ///
    /// # Errors
    ///
    /// On any transport error.
    pub fn call_into(&mut self, line: &str, reply: &mut String) -> io::Result<()> {
        self.send_only(line)?;
        self.read_reply(reply)
    }

    /// Sends one request line and returns its one-line reply.
    ///
    /// # Errors
    ///
    /// On any transport error.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let mut reply = String::new();
        self.call_into(line, &mut reply)?;
        Ok(reply)
    }

    /// Sends `lines` as one `BATCH` and returns their replies in order.
    ///
    /// # Errors
    ///
    /// On any transport error.
    pub fn batch(&mut self, lines: &[&str]) -> io::Result<Vec<String>> {
        self.out.clear();
        let _ = writeln!(self.out, "BATCH {}", lines.len());
        for line in lines {
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
        }
        self.writer.write_all(&self.out)?;
        lines
            .iter()
            .map(|_| {
                let mut reply = String::new();
                self.read_reply(&mut reply).map(|()| reply)
            })
            .collect()
    }
}
