//! Spin-then-block frame reads: poll a socket for one fixed budget
//! before falling back to a blocking read.
//!
//! A blocking `recv` that waits for a loopback answer costs a scheduler
//! wakeup when the answer lands. A round trip pays one at each end, and
//! on a 2-vCPU host those two wakeups are most of the round trip: a raw
//! 20,000-round-trip loopback ping-pong measured a p50 of 24.7–26.6 µs
//! with both ends blocking, 17.9 µs with only the server spinning and
//! 10.8–11.0 µs with both spinning. An MPI process polls its own
//! progress engine anyway; a reader that polls briefly for an answer due
//! within one round trip makes the same trade.
//!
//! [`read_frame`] retries a non-blocking read, with
//! [`std::hint::spin_loop`] between tries, until bytes arrive or
//! [`SPIN_BUDGET`] runs out. Then it reads the frame exactly as
//! [`proto::read_frame`] does, blocking for whatever has not arrived. The
//! socket is non-blocking only inside the poll and blocking again before
//! the reader returns, so writes never see a non-blocking socket.
//!
//! Who spins is [`may_spin`]:
//!
//! * A client always spins for its response: it has just sent the
//!   request, and the answer is due within one round trip.
//! * A server connection spins for its next request only while it is
//!   *hot*: its previous request arrived within the budget. An idle or
//!   slow connection blocks at once and costs no CPU.
//! * No thread spins on fewer than two cores, where it would starve the
//!   peer it waits for, and no process has more threads spinning at once
//!   than `available_parallelism` reports.

use crate::proto;
use std::borrow::Borrow;
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How long a reader polls before it blocks. It covers the 83 µs gap
/// between requests at 12,000/s; on a 2-vCPU host 50 µs missed that gap,
/// and 200 µs measured within the spread of 100 µs.
pub const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Threads of this process spinning now: a count that publishes no
/// other data, so every access is `Relaxed`.
static SPINNING: AtomicUsize = AtomicUsize::new(0);

/// Whether a reader may spin, given the process's `cores`
/// (`available_parallelism`), the number of its threads `spinning` now,
/// and whether the reader is `hot`: a client always is, a server
/// connection while its requests arrive within [`SPIN_BUDGET`].
pub fn may_spin(cores: usize, spinning: usize, hot: bool) -> bool {
    hot && cores >= 2 && spinning < cores
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// One of the process's spinning places, given back on drop.
struct Slot;

impl Slot {
    fn claim(hot: bool) -> Option<Slot> {
        let cores = cores();
        SPINNING
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                may_spin(cores, n, hot).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        SPINNING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Read one frame from `reader`'s socket, polling first when `hot` and
/// [`may_spin`] allows. The frame comes back as from
/// [`proto::read_frame`] (`Ok(None)` is a clean close), paired with
/// whether its first bytes arrived within [`SPIN_BUDGET`] of the call:
/// a server passes that as `hot` to its next read.
pub fn read_frame<S: Read + Borrow<TcpStream>>(
    reader: &mut BufReader<S>,
    hot: bool,
) -> std::io::Result<(Option<Vec<u8>>, bool)> {
    let start = Instant::now();
    if reader.buffer().is_empty() {
        if let Some(_slot) = Slot::claim(hot) {
            poll(reader, start)?;
        }
        // Returns at once if the poll saw bytes or a close.
        loop {
            match reader.fill_buf() {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                other => break other.map(drop)?,
            }
        }
    }
    let prompt = start.elapsed() <= SPIN_BUDGET;
    Ok((proto::read_frame(reader)?, prompt))
}

/// Retry a non-blocking fill of `reader` until bytes or a close arrive
/// or [`SPIN_BUDGET`] from `start` runs out. The socket is blocking
/// again on return, error or not.
fn poll<S: Read + Borrow<TcpStream>>(
    reader: &mut BufReader<S>,
    start: Instant,
) -> std::io::Result<()> {
    reader.get_ref().borrow().set_nonblocking(true)?;
    let polled = loop {
        match reader.fill_buf() {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if start.elapsed() > SPIN_BUDGET {
                    break Ok(());
                }
                std::hint::spin_loop();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            other => break other.map(drop),
        }
    };
    reader.get_ref().borrow().set_nonblocking(false)?;
    polled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_spins_on_one_core() {
        for spinning in 0..3 {
            for hot in [false, true] {
                assert!(!may_spin(1, spinning, hot));
                assert!(!may_spin(0, spinning, hot));
            }
        }
    }

    #[test]
    fn a_cold_connection_never_spins() {
        for cores in 0..8 {
            for spinning in 0..8 {
                assert!(!may_spin(cores, spinning, false));
            }
        }
    }

    #[test]
    fn no_more_threads_spin_than_there_are_cores() {
        for cores in 2..8 {
            assert!(may_spin(cores, cores - 1, true));
            for spinning in cores..cores + 3 {
                assert!(!may_spin(cores, spinning, true), "{cores} {spinning}");
            }
        }
    }

    #[test]
    fn a_client_spins_whenever_the_cap_allows() {
        for cores in 2..8 {
            for spinning in 0..cores {
                assert!(may_spin(cores, spinning, true), "{cores} {spinning}");
            }
        }
    }

    #[test]
    fn slots_stop_at_the_cap() {
        let cap = cores();
        let held: Vec<Slot> = std::iter::from_fn(|| Slot::claim(true))
            .take(cap + 2)
            .collect();
        assert!(SPINNING.load(Ordering::SeqCst) <= cap);
        assert!(Slot::claim(true).is_none());
        drop(held);
    }
}
