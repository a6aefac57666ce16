//! A channel transport that delays every message by a fixed latency,
//! modelled on the `LatencyTransport` of the `exec_pipeline` bench, so
//! interconnect waits become wall time whatever the host's core count.
//! The receiver sleeps until the message is due. The process runs with a
//! 1 ns timer slack (see `main`), so the sleep ends on time; a receiver
//! that spun instead would keep the grid's four threads runnable on a
//! two-core machine, and any other load on the host would then stretch
//! the tail of every op.

use hetgrid_exec::channel::{unbounded, Receiver, Sender};
use hetgrid_exec::{Closed, Endpoint, Transport};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct LatencyTransport {
    pub latency: Duration,
}

struct LatencyEndpoint<T> {
    txs: Vec<Sender<(Instant, T)>>,
    rx: Receiver<(Instant, T)>,
    /// Messages taken off the channel but not yet due.
    held: Mutex<VecDeque<(Instant, T)>>,
    latency: Duration,
}

impl<T> LatencyEndpoint<T> {
    fn drain_channel(&self, held: &mut VecDeque<(Instant, T)>) {
        while let Ok(Some(pair)) = self.rx.try_recv() {
            held.push_back(pair);
        }
    }
}

impl<T: Send> Endpoint<T> for LatencyEndpoint<T> {
    fn send(&self, dest: usize, msg: T) -> Result<(), Closed> {
        let due = Instant::now() + self.latency;
        self.txs[dest].send((due, msg)).map_err(|_| Closed)
    }

    fn recv(&self) -> Result<T, Closed> {
        let mut held = self.held.lock().expect("latency endpoint lock poisoned");
        self.drain_channel(&mut held);
        if held.is_empty() {
            let pair = self.rx.recv().map_err(|_| Closed)?;
            held.push_back(pair);
        }
        let idx = held
            .iter()
            .enumerate()
            .min_by_key(|(_, (due, _))| *due)
            .map(|(i, _)| i)
            .expect("held is non-empty");
        let (due, msg) = held.remove(idx).expect("index in bounds");
        drop(held);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Ok(msg)
    }

    fn try_recv(&self) -> Result<Option<T>, Closed> {
        let mut held = self.held.lock().expect("latency endpoint lock poisoned");
        self.drain_channel(&mut held);
        let now = Instant::now();
        Ok(held
            .iter()
            .position(|(due, _)| *due <= now)
            .map(|idx| held.remove(idx).expect("index in bounds").1))
    }

    fn abort(&self) {
        for tx in &self.txs {
            tx.poison();
        }
    }
}

impl Transport for LatencyTransport {
    fn connect<T: Send + 'static>(&self, n: usize) -> Vec<Box<dyn Endpoint<T>>> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        rxs.into_iter()
            .map(|rx| {
                Box::new(LatencyEndpoint {
                    txs: txs.clone(),
                    rx,
                    held: Mutex::new(VecDeque::new()),
                    latency: self.latency,
                }) as Box<dyn Endpoint<T>>
            })
            .collect()
    }
}
