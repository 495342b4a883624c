//! Minimal Unix plumbing, using the libc symbols the Rust standard
//! library already links — no external crate needed.
//!
//! The server installs handlers for `SIGTERM`/`SIGINT` that do nothing
//! but set an atomic flag; the accept loop polls it and starts the
//! graceful drain. `SIGKILL` cannot be handled by design — surviving it
//! is the persistence layer's job, which the chaos harness exercises by
//! sending real `SIGKILL`s to a real process.
//!
//! The load generator waits for its socket with `wait_readable` (Linux
//! `ppoll`, nanosecond timeout) under 1 ns timer slack
//! ([`tighten_timer_slack`]); `SO_RCVTIMEO` and `poll` both round a wait
//! up to a scheduler tick or a millisecond, which is what other Unix
//! systems get.

#![allow(missing_docs)]

#[cfg(all(unix, not(target_os = "linux")))]
use std::ffi::c_uint;
#[cfg(unix)]
use std::ffi::{c_int, c_short};
#[cfg(target_os = "linux")]
use std::ffi::{c_long, c_ulong};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(unix)]
use std::time::Duration;

/// Graceful-shutdown request codes.
pub const SIGINT: i32 = 2;
/// Graceful-shutdown request code sent by orchestrators.
pub const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
}

#[cfg(unix)]
extern "C" fn on_shutdown_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install `SIGTERM`/`SIGINT` handlers that trip the shutdown flag.
pub fn install_shutdown_handlers() {
    #[cfg(unix)]
    unsafe {
        let handler = on_shutdown_signal as extern "C" fn(i32) as *const () as usize;
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Whether a shutdown signal has been received.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trip the shutdown flag from inside the process (tests, or a future
/// admin opcode). Equivalent to receiving `SIGTERM`.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Send `sig` to `pid`. Used by the chaos harness to deliver `SIGTERM`
/// to a child server (a real signal across a real process boundary;
/// `SIGKILL` goes through `Child::kill`).
pub fn send_signal(pid: u32, sig: i32) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        if unsafe { kill(pid as i32, sig) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "signals are unix-only",
        ))
    }
}

#[cfg(unix)]
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[cfg(target_os = "linux")]
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

#[cfg(all(unix, not(target_os = "linux")))]
extern "C" {
    // `nfds_t` is `unsigned int` on macOS and the BSDs.
    fn poll(fds: *mut PollFd, nfds: c_uint, timeout_ms: c_int) -> c_int;
}

/// Block until `fd` is readable (or hung up) or `timeout` passes;
/// `Ok(false)` on timeout or signal interruption. Linux waits in `ppoll`
/// to the nanosecond; other Unix systems wait in `poll`, rounded up to a
/// millisecond.
#[cfg(unix)]
pub fn wait_readable(fd: i32, timeout: Duration) -> io::Result<bool> {
    const POLLIN: c_short = 0x1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    #[cfg(target_os = "linux")]
    let n = {
        let ts = Timespec {
            tv_sec: timeout.as_secs().try_into().unwrap_or(c_long::MAX),
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `pfd` and `ts` are valid for the duration of the call,
        // nfds is 1 to match the single entry, and a null sigmask leaves
        // the signal mask unchanged.
        unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) }
    };
    #[cfg(not(target_os = "linux"))]
    let n = {
        let ms = timeout
            .as_nanos()
            .div_ceil(1_000_000)
            .min(c_int::MAX as u128) as c_int;
        // SAFETY: `pfd` is valid for the duration of the call and nfds is
        // 1 to match the single entry.
        unsafe { poll(&mut pfd, 1, ms) }
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

/// Drop the calling thread's timer slack from the default 50 µs to 1 ns,
/// so a timed wait wakes when asked, not up to 50 µs late. Linux only; a
/// no-op elsewhere.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no
        // caller memory; a failure only leaves the default slack in place.
        let slack_ns: c_ulong = 1;
        unsafe {
            prctl(PR_SET_TIMERSLACK, slack_ns);
        }
    }
}

/// The type of the filesystem holding `path`: the `fstype` of the
/// longest mount point in `/proc/self/mountinfo` that contains it.
/// Linux only; elsewhere an `Unsupported` error.
#[cfg(target_os = "linux")]
pub fn fs_type(path: &Path) -> io::Result<String> {
    let path = path.canonicalize()?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo")?;
    // Each line: `id parent dev root mount-point options ... - fstype ...`.
    let mount = |line: &str| {
        let (fields, rest) = line.split_once(" - ")?;
        let point = fields.split(' ').nth(4)?;
        let fs = rest.split(' ').next()?;
        path.starts_with(point)
            .then(|| (point.len(), fs.to_string()))
    };
    mounts
        .lines()
        .filter_map(mount)
        .max_by_key(|m| m.0) // the last of equal mount points shadows the rest
        .map(|(_, fs)| fs)
        .ok_or_else(|| io::Error::other("no mount point contains the path"))
}

/// The type of the filesystem holding `path`: Linux only.
#[cfg(not(target_os = "linux"))]
pub fn fs_type(path: &Path) -> io::Result<String> {
    let _ = path;
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the filesystem type is read from Linux mountinfo",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_flag_round_trip() {
        // The flag is process-global; this test only ever sets it.
        request_shutdown();
        assert!(shutdown_requested());
    }
}
