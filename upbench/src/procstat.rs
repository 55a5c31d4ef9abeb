//! What the kernel knows about this process, read from `/proc/self`: CPU
//! time, peak resident memory and time spent runnable but not running.
//! Every reader returns 0 where the file is missing, so the benchmark still
//! runs (with those rows at 0) outside Linux.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/*/stat`:
/// `USER_HZ`, which Linux fixes at 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads included, to
/// the clock tick (10 ms).
fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// The calling thread's scheduler counters: seconds on a core (to the
/// nanosecond) and seconds runnable but waiting for one.
fn thread_schedstat() -> (f64, f64) {
    let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<f64>().map_or(0.0, |ns| ns / 1e9));
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

/// A reading of the CPU clocks; two readings give the CPU time between them.
#[derive(Debug, Clone, Copy)]
pub struct CpuReading {
    process: f64,
    thread: f64,
}

impl CpuReading {
    pub fn now() -> CpuReading {
        CpuReading {
            process: process_cpu_seconds(),
            thread: thread_schedstat().0,
        }
    }

    /// User + system CPU seconds the process spent since `earlier`. Counts
    /// only time on a core, so time spent preempted stretches wall time but
    /// not this. Load is generated on the calling thread, whose clock is
    /// exact; whatever other threads burned is known only to the tick and is
    /// added once it exceeds the tick's error, so a change that moves work to
    /// helper threads cannot hide it.
    pub fn secs_since(&self, earlier: &CpuReading) -> f64 {
        let process = self.process - earlier.process;
        let thread = self.thread - earlier.thread;
        if thread <= 0.0 {
            return process;
        }
        thread + (process - thread - 2.0 / USER_HZ).max(0.0)
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds the calling thread has spent runnable but waiting for a core:
/// the noise a busy neighbour adds to a timed unit.
pub fn sched_wait_seconds() -> f64 {
    thread_schedstat().1
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.5, "a test binary is bigger than 0.5 MiB");
        let before = CpuReading::now();
        let mut x = 1u64;
        while CpuReading::now().secs_since(&before) < 0.03 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        // A helper thread's CPU shows up once it is beyond the tick's error.
        let before = CpuReading::now();
        std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while start.elapsed().as_millis() < 80 {
                x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
            }
        })
        .join()
        .unwrap();
        assert!(CpuReading::now().secs_since(&before) > 0.02);
        assert!(cpus() >= 1);
        assert!(sched_wait_seconds() >= 0.0);
    }
}
