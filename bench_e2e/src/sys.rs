//! The few OS calls the benchmark needs, declared by hand the way the
//! serving crate declares `poll(2)`: std already links libc, so plain
//! `extern "C"` declarations suffice and no crate dependency is added.

use std::ffi::{c_int, c_long, c_ulong};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;

const PR_SET_TIMERSLACK: c_int = 29;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const SC_NPROCESSORS_ONLN: c_int = 84;

/// CPUs online. Unlike `available_parallelism`, this does not shrink
/// while the calling thread is bound to one CPU.
pub fn cpus_online() -> usize {
    // SAFETY: sysconf reads a system constant and touches no memory of
    // ours.
    let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
    usize::try_from(n).unwrap_or(1).max(1)
}

/// Bind the calling thread, and the threads it creates from now on, to
/// CPU `cpu` (taken modulo the CPUs present), or with `None` let it run
/// on every CPU again.
pub fn bind_thread(cpu: Option<usize>) -> io::Result<()> {
    let n = cpus_online();
    let bits = c_ulong::BITS as usize;
    let mut mask = [0 as c_ulong; 16];
    for c in (0..n).filter(|&c| cpu.is_none_or(|p| p % n == c)) {
        mask[c / bits] |= 1 << (c % bits);
    }
    // SAFETY: the mask outlives the call and its size is passed with it;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Lower this thread's timer slack to 1 ns. With the default 50 µs slack
/// every timed wait of the load generator overshoots by up to 50 µs, and
/// the pacer, not the server, sets the measured median latency.
pub fn lower_timer_slack() -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of ours.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Wait until one of `fds` is ready or `timeout` passes (nanosecond
/// resolution, unlike `poll`'s milliseconds). Retries on EINTR.
pub fn ppoll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of repr(C)
        // pollfd structs and `ts` a valid timespec, both alive for the
        // call; a null sigmask leaves the signal mask unchanged.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// CPU time consumed by this process so far, all threads, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran other guests on this guest's CPUs, and all time. Reads
/// only the first line into a stack buffer (about 10 µs), so it can be
/// taken inside timed phases.
pub fn cpu_steal() -> (u64, u64) {
    use std::io::Read;
    let mut buf = [0u8; 256];
    let n = std::fs::File::open("/proc/stat")
        .and_then(|mut f| f.read(&mut buf))
        .unwrap_or(0);
    let line = std::str::from_utf8(&buf[..n])
        .ok()
        .and_then(|s| s.lines().next())
        .and_then(|l| l.strip_prefix("cpu "))
        .unwrap_or("");
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let (mut steal, mut total) = (0, 0);
    for (i, v) in line.split_whitespace().take(8).enumerate() {
        let v: u64 = v.parse().unwrap_or(0);
        total += v;
        if i == 7 {
            steal = v;
        }
    }
    (steal, total)
}

/// Share of guest CPU time the hypervisor stole between two
/// [`cpu_steal`] readings.
pub fn steal_between(a: (u64, u64), b: (u64, u64)) -> f64 {
    b.0.saturating_sub(a.0) as f64 / b.1.saturating_sub(a.1).max(1) as f64
}

/// CPU model name from `/proc/cpuinfo` (empty when unavailable).
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_default()
}
