//! Per-thread CPU-time sampling for honest throughput accounting.
//!
//! Packets per second of wall time measure the host as much as the
//! software: on a box with fewer cores than threads, or one shared with
//! other load, a worker waits for a core. Packets per second a worker
//! actually spends *on a CPU* is the statistic that tracks the software
//! (the repo benchmark reports it as `cpu_ns_per_pkt`).
//!
//! This needs per-thread CPU time, which `std` does not expose. On
//! Linux every thread can learn its own stat directory by resolving the
//! `/proc/thread-self` symlink once at startup; any *other* thread of
//! the same process may then sample its CPU time from
//! `/proc/self/task/<tid>/schedstat` (field 1: cumulative on-CPU
//! nanoseconds) or, when `CONFIG_SCHEDSTATS` is off, from
//! `/proc/self/task/<tid>/stat` (fields 14+15: utime+stime in 10 ms
//! clock ticks). Workers publish a [`ThreadCpuProbe`] at spawn; the
//! dispatcher samples it at measurement-window boundaries, so the hot
//! path pays nothing.
//!
//! On non-Linux targets (or a /proc-less Linux) every sample returns
//! `None` and callers must fall back to wall time.

use std::path::PathBuf;

/// Assumed `USER_HZ` for the `stat` fallback. Linux has reported 100 to
/// userspace on every mainstream architecture since 2.6; `schedstat` is
/// preferred precisely so this constant is almost never load-bearing.
const STAT_TICK_NS: u64 = 10_000_000;

/// A handle another thread can use to sample this thread's CPU time.
#[derive(Debug, Clone)]
pub struct ThreadCpuProbe {
    /// `/proc/self/task/<tid>/schedstat` (ns resolution), when present.
    schedstat: Option<PathBuf>,
    /// `/proc/self/task/<tid>/stat` (10 ms resolution fallback).
    stat: Option<PathBuf>,
}

impl ThreadCpuProbe {
    /// A probe for the *calling* thread. Resolve once at thread startup
    /// (it costs a readlink); sampling later is one small file read.
    pub fn current() -> Self {
        let task_dir = std::fs::read_link("/proc/thread-self")
            .ok()
            .map(|rel| PathBuf::from("/proc").join(rel));
        let exists = |name: &str| task_dir.as_ref().map(|d| d.join(name)).filter(|p| p.exists());
        ThreadCpuProbe { schedstat: exists("schedstat"), stat: exists("stat") }
    }

    /// A probe that always reports `None` (non-Linux fallback, tests).
    pub fn unavailable() -> Self {
        ThreadCpuProbe { schedstat: None, stat: None }
    }

    /// Whether sampling can return real CPU time on this host.
    pub fn is_available(&self) -> bool {
        self.schedstat.is_some() || self.stat.is_some()
    }

    /// Cumulative CPU nanoseconds (user+system) consumed by the probed
    /// thread, or `None` when the host exposes no per-thread clock.
    /// Resolution: 1 ns via `schedstat`, 10 ms via the `stat` fallback.
    pub fn cpu_ns(&self) -> Option<u64> {
        if let Some(p) = &self.schedstat {
            if let Some(ns) = std::fs::read_to_string(p)
                .ok()
                .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
            {
                return Some(ns);
            }
        }
        let content = std::fs::read_to_string(self.stat.as_ref()?).ok()?;
        // The comm field (2) may contain spaces; everything after the
        // closing paren is whitespace-delimited. utime/stime are stat
        // fields 14/15, i.e. indexes 11/12 after the paren.
        let rest = content.rsplit_once(')')?.1;
        let mut it = rest.split_whitespace().skip(11);
        let utime: u64 = it.next()?.parse().ok()?;
        let stime: u64 = it.next()?.parse().ok()?;
        Some((utime + stime) * STAT_TICK_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailable_probe_returns_none() {
        let p = ThreadCpuProbe::unavailable();
        assert!(!p.is_available());
        assert_eq!(p.cpu_ns(), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn probe_tracks_cpu_burn_cross_thread() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let probe = ThreadCpuProbe::current();
            tx.send(probe).unwrap();
            // Burn CPU until the main thread has sampled us twice.
            let mut x = 0u64;
            while done_rx.try_recv().is_err() {
                for i in 0..10_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
            }
            x
        });
        let probe = rx.recv().unwrap();
        assert!(probe.is_available(), "Linux must expose a per-thread clock");
        let start = probe.cpu_ns().expect("first sample");
        // Wait for visible CPU consumption; schedstat is ns-resolution so
        // a few ms of burning is plenty even on a loaded single core.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut end = start;
        while end < start + 2_000_000 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
            end = probe.cpu_ns().expect("second sample");
        }
        done_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(end > start, "cpu time must advance while the thread burns ({start} -> {end})");
    }
}
