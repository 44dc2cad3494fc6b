//! The host fingerprint, memory high-water marks, and the child processes
//! the sweep workloads start.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nanoseconds one `Instant::now()` pair costs: the floor under every
/// span and operation timing.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    let mut sink = Duration::ZERO;
    for _ in 0..PAIRS {
        let a = Instant::now();
        sink += std::hint::black_box(Instant::now()) - a;
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON object describing the host and the run; `samples` is the
/// number of timed operations behind the latency percentiles.
pub fn fingerprint(workload: &str, seed: u64, trace: bool, samples: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"samples\":{samples},\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"rustc\":{},\"commit\":{},\"timer_pair_ns\":{:.1}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(&kernel),
        json_str(&first_line_of("rustc", &["-V"])),
        json_str(&first_line_of("git", &["rev-parse", "HEAD"])),
        timer_pair_ns()
    )
}

/// `VmHWM` (peak resident set) of a process, in KiB.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A started helper process: killed and reaped when dropped, so a run
/// that fails or panics leaves no process behind.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Start `cmd` and wait (up to 60 s) for the stdout line starting
    /// with `announce`; returns the process and the rest of that line.
    pub fn start(mut cmd: Command, announce: &str) -> Result<(Proc, String), String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {cmd:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let (tx, rx) = mpsc::channel();
        let prefix = announce.to_string();
        // Read the announcement, then keep draining so the child never
        // blocks on a full pipe; the thread ends at the child's EOF.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix(prefix.as_str()) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.trim().to_string());
                    }
                }
            }
        });
        let mut proc = Proc {
            child,
            drain: Some(drain),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => Ok((proc, addr)),
            Err(_) => {
                proc.stop();
                Err(format!("{cmd:?} never printed `{announce}<addr>`"))
            }
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Wait up to `timeout` for a graceful exit; kill it otherwise.
    pub fn wait_or_kill(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Samples the peak resident set of this process's children while they
/// run: the sharded coordinator starts and reaps its workers itself, so
/// their `VmHWM` can only be read while they are alive.
pub struct ChildHwm {
    peaks: Arc<Mutex<HashMap<u32, u64>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ChildHwm {
    pub fn start() -> ChildHwm {
        let peaks = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let me = std::process::id();
        let thread = {
            let (peaks, stop) = (peaks.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for pid in children_of(me) {
                        if let Some(kib) = vm_hwm_kib(&pid.to_string()) {
                            let mut peaks = peaks.lock().expect("sampler lock");
                            let peak = peaks.entry(pid).or_insert(0);
                            *peak = (*peak).max(kib);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        ChildHwm {
            peaks,
            stop,
            thread: Some(thread),
        }
    }

    /// Sum of the peaks of the children seen since the last call, in KiB.
    pub fn take_sum_kib(&self) -> u64 {
        std::mem::take(&mut *self.peaks.lock().expect("sampler lock"))
            .values()
            .sum()
    }
}

impl Drop for ChildHwm {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn children_of(parent: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    // The command name may contain spaces; fields resume
                    // after its closing parenthesis: state, then ppid.
                    let rest = &stat[stat.rfind(')')? + 1..];
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(parent)
        })
        .collect()
}
