//! The crate's one foreign call: a blocking `poll(2)`.
//!
//! std already links the platform C library, so declaring `poll` is
//! all the reactor needs to sleep until a socket is ready instead of
//! sweeping every connection on a timer. This module holds the only
//! `unsafe` in the crate; everything above it sees the safe [`wait`].

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` on macOS
/// and the BSDs.
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// Data may be read without blocking (or the peer closed).
pub(crate) const POLLIN: c_short = 0x1;
/// Data may be written without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// One `struct pollfd`. A negative `fd` is skipped by the kernel and
/// reports no events.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `events` on `fd`; `None` registers a skipped entry.
    pub(crate) fn new(fd: Option<RawFd>, events: c_short) -> PollFd {
        PollFd {
            fd: fd.unwrap_or(-1),
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] reported for this entry: the requested
    /// events that are ready, plus error and hang-up conditions.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely). The timeout is rounded *up* to whole
/// milliseconds, so a deadline less than 1 ms away sleeps rather than
/// spins. A signal interrupting the wait counts as a wake-up.
///
/// # Errors
///
/// `poll` failures other than `EINTR` (out of memory, or more entries
/// than the open-file limit).
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let timeout_ms = timeout.map_or(-1, |d| {
        c_int::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    let nfds =
        Nfds::try_from(fds.len()).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    // SAFETY: `PollFd` is `#[repr(C)]` with the field order and types of
    // `struct pollfd`, and `fds` is an exclusively borrowed slice of
    // exactly `nfds` of them that outlives the call. `poll` writes only
    // their `revents` fields, and only during the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_readiness_and_skips_negative_fds() {
        let (rx, mut tx) = UnixStream::pair().unwrap();
        let mut fds = [
            PollFd::new(Some(rx.as_raw_fd()), POLLIN),
            PollFd::new(None, POLLIN),
        ];
        wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert_eq!(fds[0].revents(), 0, "nothing written yet");
        tx.write_all(b"x").unwrap();
        wait(&mut fds, None).unwrap();
        assert_eq!(fds[0].revents() & POLLIN, POLLIN);
        assert_eq!(fds[1].revents(), 0, "a skipped entry reports nothing");
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        let start = Instant::now();
        wait(&mut [], Some(Duration::from_micros(1))).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(1));
    }
}
