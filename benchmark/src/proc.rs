//! Process plumbing: peak resident memory from `/proc`, and the plan
//! daemon child's lifecycle.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pareto_service::TcpClient;

/// Peak resident set (`VmHWM`) in MiB of process `pid`, or of this
/// process for `None`.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A `paretofab serve --listen` child. Dropping it kills the child and
/// waits for it, so a panic or early return cannot leak the process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

/// How long a freshly spawned daemon gets to accept its first connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

impl Daemon {
    /// Spawn the daemon on a loopback port the harness picks itself (bind
    /// port 0, read the port, release it), then poll until it accepts.
    pub fn spawn(paretofab: &Path, args: &[String]) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a free port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let child = Command::new(paretofab)
            .args(["serve", "--listen", &addr.to_string()])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", paretofab.display()))?;
        let mut daemon = Daemon { child, addr };
        // Probe until the listener is up; the probe connection is dropped.
        let t0 = Instant::now();
        loop {
            if TcpClient::connect(addr).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t0.elapsed() > CONNECT_TIMEOUT {
                return Err(format!("daemon did not accept on {addr} within 5 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set of the (still running) daemon, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(Some(self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    4096 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(4096.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib(None).unwrap() > 0.0);
    }
}
