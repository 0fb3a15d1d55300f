//! What the benchmark reads about the host and about the processes
//! doing the work, from `/proc` (Linux).

use std::path::Path;

/// Cores the machine offers this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `J`: the `--jobs` value, daemon worker count and client thread count
/// of every workload. One core stays free for the benchmark's own
/// bookkeeping and the rest of the host, so that they do not preempt the
/// work being timed; capped at 4 so that runs on large machines stay
/// comparable with runs on small ones.
pub fn jobs() -> usize {
    parallelism().saturating_sub(1).clamp(1, 4)
}

/// Peak resident set size (`VmHWM`) in MB of `pid`, or of this process;
/// `None` once the process has exited.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let who = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    let status = std::fs::read_to_string(format!("/proc/{who}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no `git` process, nothing outside the checkout), or
/// `unknown` when the directory is not a git checkout.
fn git_head() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(name).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    };
    resolved.filter(|s| !s.is_empty()).unwrap_or_else(|| "unknown".to_string())
}

/// The host block recorded with every result.
pub struct Host {
    parallelism: usize,
    jobs: usize,
    cpu_model: String,
    rustc: String,
    git_head: String,
}

impl Host {
    pub fn probe(jobs: usize) -> Host {
        Host {
            parallelism: parallelism(),
            jobs,
            cpu_model: cpu_model(),
            rustc: rustc_version(),
            git_head: git_head(),
        }
    }

    pub fn json(&self) -> String {
        use dircc_obs::escape;
        format!(
            "{{\"available_parallelism\": {}, \"jobs\": {}, \"cpu_model\": \"{}\", \
             \"rustc\": \"{}\", \"git_head\": \"{}\"}}",
            self.parallelism,
            self.jobs,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.git_head)
        )
    }
}
