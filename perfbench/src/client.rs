//! The load generator: one thread driving every connection of a phase from
//! a single `ppoll` loop, so the client never uses more threads than the
//! box has cores.
//!
//! An open-loop stream sends request `i` at `start + i / rate` whatever the
//! server does, and its latency is timed from that due time, so a stall also
//! charges the requests queued behind it. A windowed stream keeps a bounded
//! number of requests in flight (pipelined saturation). Like any client, the
//! loop parses each answer as it arrives, which keeps memory at one compact
//! record per answer.

use crate::check::{parse_answer, Answer};
use crate::gen::Line;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How a stream paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop at a fixed rate in requests per second.
    Open { rate: f64 },
    /// Pipelined: at most `depth` requests in flight.
    Window { depth: usize },
}

/// One stream of a phase: a connection, its request pool and its pacing.
pub struct Plan<'a> {
    pub stream: &'a mut TcpStream,
    /// Request lines, cycled: the phase's `i`-th request has id
    /// `first + i` and is line `(first + i) % lines.len()`.
    pub lines: &'a [Line],
    pub first: usize,
    pub pace: Pace,
}

/// What one stream of a phase sent and received.
#[derive(Debug, Default)]
pub struct Log {
    /// Id of the stream's first request in this phase.
    pub first: usize,
    /// Per request: when it was due (open loop) or sent (window), in ns from
    /// the phase start.
    pub due_ns: Vec<u64>,
    /// Per request: when its bytes were handed to the socket.
    pub sent_ns: Vec<u64>,
    /// Per answer, in order: when its line was read.
    pub recv_ns: Vec<u64>,
    /// Per answer, in order: the parsed line.
    pub answers: Vec<Result<Answer, String>>,
    /// Bytes of an answer line still being received.
    partial: Vec<u8>,
}

impl Log {
    pub fn sent(&self) -> usize {
        self.sent_ns.len()
    }

    pub fn received(&self) -> usize {
        self.recv_ns.len()
    }
}

/// Result of a phase.
#[derive(Debug)]
pub struct Phase {
    pub logs: Vec<Log>,
    /// Length of the sending window.
    pub duration: Duration,
}

/// Runs one phase: every plan sends for `duration`, then the loop waits up
/// to `drain` for outstanding answers.
pub fn drive(plans: &mut [Plan<'_>], duration: Duration, drain: Duration) -> Result<Phase, String> {
    let mut logs: Vec<Log> =
        plans.iter().map(|p| Log { first: p.first, ..Log::default() }).collect();
    let mut fds: Vec<sys::PollFd> = plans.iter().map(|p| sys::PollFd::readable(p.stream)).collect();
    let end = duration.as_nanos() as u64;
    let deadline = end + drain.as_nanos() as u64;
    let mut out = Vec::with_capacity(64 * 1024);
    let mut buf = vec![0u8; 256 * 1024];
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    loop {
        let t = now();
        let sending = t < end;
        let mut next_due = u64::MAX;
        for (plan, log) in plans.iter_mut().zip(&mut logs) {
            if !sending {
                break;
            }
            out.clear();
            let mut due_times = Vec::new();
            match plan.pace {
                Pace::Open { rate } => loop {
                    let due = (log.sent() + due_times.len()) as f64 * 1e9 / rate;
                    let due = due as u64;
                    if due > t || due >= end {
                        if due < end {
                            next_due = next_due.min(due);
                        }
                        break;
                    }
                    due_times.push(due);
                },
                Pace::Window { depth } => {
                    let in_flight = log.sent() - log.received();
                    due_times.resize(depth.saturating_sub(in_flight), t);
                }
            }
            if due_times.is_empty() {
                continue;
            }
            for k in 0..due_times.len() {
                let id = plan.first + log.sent() + k;
                plan.lines[id % plan.lines.len()].write_to(id as u64, &mut out);
            }
            let sent_at = now();
            plan.stream.write_all(&out).map_err(|e| format!("send: {e}"))?;
            log.sent_ns.extend(std::iter::repeat_n(sent_at, due_times.len()));
            log.due_ns.extend(due_times);
        }
        let complete = logs.iter().all(|log| log.received() == log.sent());
        if (!sending && complete) || t >= deadline {
            break;
        }
        // Open streams wake for their next due time; windowed streams only
        // wait for answers.
        let wait_until = if sending { next_due.min(end) } else { deadline };
        let timeout = Duration::from_nanos(wait_until.saturating_sub(now()));
        if sys::wait_readable(&mut fds, timeout).map_err(|e| format!("ppoll: {e}"))? == 0 {
            continue;
        }
        for (k, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            let read = plans[k].stream.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
            if read == 0 {
                return Err("served closed the connection".into());
            }
            let at = now();
            let log = &mut logs[k];
            let mut rest = &buf[..read];
            while let Some(end) = rest.iter().position(|&b| b == b'\n') {
                log.partial.extend_from_slice(&rest[..end]);
                rest = &rest[end + 1..];
                log.recv_ns.push(at);
                let answer = std::str::from_utf8(&log.partial)
                    .map_err(|e| format!("answer is not UTF-8: {e}"))
                    .and_then(parse_answer);
                log.answers.push(answer);
                log.partial.clear();
            }
            log.partial.extend_from_slice(rest);
        }
    }
    Ok(Phase { logs, duration })
}

/// The one system call the standard library lacks: waiting on several
/// sockets at once with a sub-millisecond timeout.
mod sys {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        pub revents: c_short,
    }

    impl PollFd {
        pub fn readable(stream: &TcpStream) -> Self {
            Self { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 }
        }
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x001;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits until a socket is readable or `timeout` passes; returns how
    /// many sockets are ready (0 on timeout or interruption).
    pub fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        let timeout = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd` records whose length is passed alongside it; the
        // timeout points to a live `struct timespec`; a null signal mask asks
        // ppoll to leave the mask unchanged. The kernel writes only `revents`.
        let ready =
            unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &timeout, std::ptr::null()) };
        if ready < 0 {
            let error = io::Error::last_os_error();
            return if error.kind() == io::ErrorKind::Interrupted { Ok(0) } else { Err(error) };
        }
        Ok(ready as usize)
    }
}
