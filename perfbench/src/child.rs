//! Running the `dircc` binary as a child process: one-shot commands
//! with their wall time and peak memory, and the serve daemon.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::host;

/// How often a running child's peak memory is sampled.
const RSS_POLL: Duration = Duration::from_millis(10);

/// A finished one-shot command.
pub struct Exit {
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
}

fn read_all(pipe: Option<impl Read>) -> String {
    let mut text = String::new();
    if let Some(mut p) = pipe {
        let _ = p.read_to_string(&mut text);
    }
    text
}

/// Runs `program args` to completion. Fails only when the process
/// cannot be started; a non-zero exit comes back as `ok: false`.
///
/// A waiter thread blocks in `wait` and stamps the moment the child
/// ends, so the wall time does not depend on how often memory is polled.
pub fn run(program: &Path, args: &[String]) -> Result<Exit, String> {
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{}: {e}", program.display()))?;
    let pid = child.id();
    let (out, err) = (child.stdout.take(), child.stderr.take());
    let (ended, peak, stdout, stderr) = std::thread::scope(|scope| {
        let out = scope.spawn(move || read_all(out));
        let err = scope.spawn(move || read_all(err));
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || {
            let status = child.wait();
            // The receiver lives until this scope ends.
            let _ = tx.send((status, Instant::now()));
        });
        let mut peak = 0.0f64;
        let ended = loop {
            if let Some(mb) = host::peak_rss_mb(Some(pid)) {
                peak = peak.max(mb);
            }
            match rx.recv_timeout(RSS_POLL) {
                Ok(ended) => break ended,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => panic!("child waiter thread panicked"),
            }
        };
        let stdout = out.join().expect("stdout reader");
        let stderr = err.join().expect("stderr reader");
        (ended, peak, stdout, stderr)
    });
    let (status, at) = ended;
    let status = status.map_err(|e| format!("{}: wait: {e}", program.display()))?;
    Ok(Exit {
        ok: status.success(),
        stdout,
        stderr,
        wall_s: at.duration_since(started).as_secs_f64(),
        peak_rss_mb: peak,
    })
}

/// A running `dircc serve` on an ephemeral loopback port. Dropping it
/// kills the process; [`Daemon::stop`] drains it the way an operator
/// would.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's closing line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub url: String,
}

impl Daemon {
    pub fn start(program: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(program)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", program.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("dircc serve exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(at) = line.find("http://") {
                        let url = line[at..].trim().to_string();
                        return Ok(Daemon { child, _stdout: stdout, url });
                    }
                }
            }
        }
    }

    pub fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb(Some(self.child.id())).unwrap_or(0.0)
    }

    /// `POST /shutdown`, then waits up to 30 s for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        dircc_serve::client::request(&self.url, "POST", "/shutdown", Some(b"{}"))
            .map_err(|e| format!("{}: /shutdown: {e}", self.url))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("dircc serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("dircc serve: wait: {e}")),
            }
        }
        Err("dircc serve did not drain within 30 s".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
