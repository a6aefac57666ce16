//! Pluggable message transport for the distributed kernels.
//!
//! The executor's communication surface is deliberately tiny: each
//! virtual processor owns one mailbox and can push a message into any
//! other processor's mailbox. [`Transport`] abstracts who implements
//! that surface:
//!
//! * [`ChannelTransport`] — the production default, one
//!   [`crate::channel`] MPMC channel per processor (what every plain
//!   threaded run passes to the `run_*_on_cfg` entry points);
//! * `hetgrid-harness`'s virtual transport — a seeded fault-injecting
//!   router (message delay, reordering, starvation detection) used by
//!   the deterministic simulation harness.
//!
//! The kernels are *order-insensitive by design*: every message carries
//! its step and block coordinates, and workers buffer messages that
//! arrive ahead of their step. A transport is therefore free to deliver
//! messages in any order; the only obligations are that every sent
//! message is eventually delivered exactly once and that [`Endpoint::recv`]
//! fails (or the harness aborts the run) rather than blocking forever
//! once delivery is impossible.

use crate::channel::{unbounded, Receiver, Sender};
use std::fmt;

/// The transport is closed: the peer endpoints required to complete the
/// operation were dropped.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl fmt::Debug for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Closed")
    }
}

impl fmt::Display for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("transport closed: peer endpoints dropped")
    }
}

impl std::error::Error for Closed {}

/// A distributed kernel run failed: a peer endpoint dropped out (its
/// thread returned or its mailbox became unreachable) before the plan
/// completed, so the remaining workers aborted with typed errors
/// instead of panicking. The run's partial results are discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Processor `(i, j)` observed a dropped peer (send or receive on a
    /// closed mailbox) and aborted the run.
    PeerDropped {
        /// Grid coordinates of the first worker (in linear id order)
        /// that hit the closed transport.
        proc: (usize, usize),
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PeerDropped { proc: (i, j) } => write!(
                f,
                "executor run aborted: processor ({}, {}) observed a dropped peer",
                i + 1,
                j + 1
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// One processor's view of the transport: send to any peer by linear
/// processor id, receive from the own mailbox.
///
/// An endpoint is owned by exactly one worker thread; implementations
/// must be `Send` but are never shared (`&self` methods exist so the
/// endpoint can be used through a `Box<dyn Endpoint<T>>` without
/// threading `&mut` through the kernel code).
pub trait Endpoint<T>: Send {
    /// Delivers `msg` into the mailbox of processor `dest`.
    ///
    /// Fails only when delivery has become impossible (every receiver of
    /// the destination mailbox is gone).
    fn send(&self, dest: usize, msg: T) -> Result<(), Closed>;

    /// Blocks for the next message of the own mailbox. Fails when the
    /// mailbox is drained and no live endpoint can refill it.
    fn recv(&self) -> Result<T, Closed>;

    /// Non-blocking receive: `Ok(Some(msg))` if a message was already
    /// waiting, `Ok(None)` if the mailbox is currently empty, `Err`
    /// under the same conditions [`recv`](Endpoint::recv) fails. The
    /// out-of-order step driver polls this to overlap communication
    /// with compute; the default (always empty) degrades such a driver
    /// to blocking receives, which is correct for any transport.
    fn try_recv(&self) -> Result<Option<T>, Closed> {
        Ok(None)
    }

    /// Progress beacon: the step driver calls `mark(step)` every time
    /// this processor retires a step (all of the step's local actions
    /// are done). A transport may use it to observe the retirement
    /// frontier or — like the harness's virtual transport — to inject
    /// grid-membership faults at an exact, replayable boundary:
    /// returning `Err(Closed)` makes the worker abandon the run as if
    /// its processor had died (or, for a voluntary pause, as if it had
    /// agreed to stop at this frontier). The default ignores the beacon
    /// and always succeeds.
    fn mark(&self, step: usize) -> Result<(), Closed> {
        let _ = step;
        Ok(())
    }

    /// Best-effort abort of the whole run this endpoint belongs to:
    /// marks every peer mailbox as doomed so blocked receivers fail
    /// fast with [`Closed`] instead of deadlocking on messages that
    /// will never arrive. Called by the step driver when a worker hits
    /// a closed transport mid-plan. The default is a no-op — a
    /// transport with its own liveness mechanism (e.g. the harness
    /// watchdog) need not implement it.
    fn abort(&self) {}
}

/// Factory for a connected set of [`Endpoint`]s — one per virtual
/// processor of a run.
///
/// `connect` is generic over the message type because each kernel has
/// its own private message enum; a transport only moves values, it never
/// inspects them.
pub trait Transport {
    /// Creates `n` mutually connected endpoints; endpoint `i` receives
    /// what anyone sends to destination `i`.
    fn connect<T: Send + 'static>(&self, n: usize) -> Vec<Box<dyn Endpoint<T>>>;
}

/// The default transport: one unbounded [`crate::channel`] per
/// processor, each endpoint holding a sender to every mailbox (its own
/// included) and the receiver of its own.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelTransport;

struct ChannelEndpoint<T> {
    txs: Vec<Sender<T>>,
    rx: Receiver<T>,
}

impl<T: Send> Endpoint<T> for ChannelEndpoint<T> {
    fn send(&self, dest: usize, msg: T) -> Result<(), Closed> {
        self.txs[dest].send(msg).map_err(|_| Closed)
    }

    fn recv(&self) -> Result<T, Closed> {
        self.rx.recv().map_err(|_| Closed)
    }

    fn try_recv(&self) -> Result<Option<T>, Closed> {
        self.rx.try_recv().map_err(|_| Closed)
    }

    fn abort(&self) {
        for tx in &self.txs {
            tx.poison();
        }
    }
}

impl Transport for ChannelTransport {
    fn connect<T: Send + 'static>(&self, n: usize) -> Vec<Box<dyn Endpoint<T>>> {
        let (txs, rxs): (Vec<Sender<T>>, Vec<Receiver<T>>) = (0..n).map(|_| unbounded()).unzip();
        rxs.into_iter()
            .map(|rx| {
                Box::new(ChannelEndpoint {
                    txs: txs.clone(),
                    rx,
                }) as Box<dyn Endpoint<T>>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn endpoints_are_mutually_connected() {
        let eps = ChannelTransport.connect::<(usize, u32)>(3);
        let mut it = eps.into_iter();
        let (e0, e1, e2) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
        let h1 = thread::spawn(move || e1.recv().unwrap());
        let h2 = thread::spawn(move || e2.recv().unwrap());
        e0.send(1, (0, 10)).unwrap();
        e0.send(2, (0, 20)).unwrap();
        assert_eq!(h1.join().unwrap(), (0, 10));
        assert_eq!(h2.join().unwrap(), (0, 20));
    }

    #[test]
    fn self_send_is_allowed() {
        let eps = ChannelTransport.connect::<u8>(1);
        eps[0].send(0, 7).unwrap();
        assert_eq!(eps[0].recv().unwrap(), 7);
    }

    #[test]
    fn send_to_fully_dropped_mailbox_fails() {
        let mut eps = ChannelTransport.connect::<u8>(2);
        drop(eps.pop()); // endpoint 1 (its receiver) is gone
        assert_eq!(eps[0].send(1, 3), Err(Closed));
        // The own mailbox is still alive.
        eps[0].send(0, 4).unwrap();
        assert_eq!(eps[0].recv().unwrap(), 4);
    }

    #[test]
    fn abort_fails_blocked_peers_fast() {
        let eps = ChannelTransport.connect::<u8>(3);
        let mut it = eps.into_iter();
        let (e0, e1, e2) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
        // e1 and e2 block waiting for messages that will never come;
        // without the abort they would deadlock (each still holds a
        // sender to its own mailbox).
        let h1 = thread::spawn(move || e1.recv());
        let h2 = thread::spawn(move || e2.recv());
        thread::sleep(std::time::Duration::from_millis(10));
        e0.abort();
        assert_eq!(h1.join().unwrap(), Err(Closed));
        assert_eq!(h2.join().unwrap(), Err(Closed));
        // The aborting endpoint itself also fails from here on.
        assert_eq!(e0.send(0, 1), Err(Closed));
    }
}
