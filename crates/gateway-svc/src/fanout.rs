//! Telemetry fan-out with backpressure.
//!
//! The engine loop broadcasts JSONL lines (slot records and service
//! events) to every subscriber over bounded channels. The loop never
//! blocks on a consumer: a subscriber whose channel is full is dropped
//! on the spot — counted and announced — which is the live-mode
//! backpressure contract (shed the slow consumer, not the deadline).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Longest [`FanOut::close`] waits for connection threads to write out
/// what was queued. A client that stopped reading costs the service
/// this much at exit, no more.
const FLUSH_WAIT: Duration = Duration::from_secs(1);

struct Subscriber {
    tx: SyncSender<String>,
}

/// Subscriber registry shared between socket handlers (register) and
/// the engine loop (broadcast). Poison-proof like the command bus: the
/// registry holds plain data and must survive a panicked engine task.
pub struct FanOut {
    subs: Mutex<Vec<Subscriber>>,
    dropped: AtomicU64,
    /// Connection threads currently writing a subscription to a client.
    streams: Mutex<usize>,
    stream_ended: Condvar,
}

/// Held by a connection thread for as long as it streams a
/// subscription; dropped once the last queued line is written (or the
/// client is gone). [`FanOut::close`] waits for these.
pub(crate) struct Streaming<'a>(&'a FanOut);

impl Drop for Streaming<'_> {
    fn drop(&mut self) {
        *self.0.streams() -= 1;
        self.0.stream_ended.notify_all();
    }
}

impl FanOut {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            subs: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            streams: Mutex::new(0),
            stream_ended: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Subscriber>> {
        self.subs.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn streams(&self) -> MutexGuard<'_, usize> {
        // A plain counter: valid at every step, so poison-proof too.
        self.streams.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Announce that the calling thread is about to stream a
    /// subscription to a client.
    pub(crate) fn streaming(&self) -> Streaming<'_> {
        *self.streams() += 1;
        Streaming(self)
    }

    /// Register a subscriber; lines arrive on the returned receiver
    /// until it falls `capacity` lines behind (dropped) or the service
    /// closes the registry (stream ends).
    pub fn subscribe(&self, capacity: usize) -> Receiver<String> {
        let (tx, rx) = sync_channel(capacity.max(1));
        self.lock().push(Subscriber { tx });
        rx
    }

    /// Subscribers currently registered.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nobody is subscribed.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Subscribers dropped for falling behind, total.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Send one line to every subscriber. Full channels mean the
    /// consumer fell behind: the subscriber is removed and counted.
    /// Disconnected receivers are removed silently (the consumer left).
    /// Returns how many subscribers were dropped for falling behind by
    /// this call.
    pub fn broadcast(&self, line: &str) -> u64 {
        let mut subs = self.lock();
        let mut dropped_now = 0;
        subs.retain(|s| match s.tx.try_send(line.to_string()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                dropped_now += 1;
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
        if dropped_now > 0 {
            self.dropped.fetch_add(dropped_now, Ordering::Relaxed);
        }
        dropped_now
    }

    /// Drop every subscriber sender, ending all streams (receivers see
    /// the channel close once they drain what was already queued), then
    /// wait — at most [`FLUSH_WAIT`] — until the connection threads have
    /// written those queued lines to their clients. The process exits
    /// right after the final close, and a thread still holding the
    /// `done` event then would take it along.
    pub fn close(&self) {
        self.lock().clear();
        let _ = self
            .stream_ended
            .wait_timeout_while(self.streams(), FLUSH_WAIT, |n| *n > 0);
    }
}

impl Default for FanOut {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_all() {
        let f = FanOut::new();
        let a = f.subscribe(8);
        let b = f.subscribe(8);
        assert_eq!(f.broadcast("x"), 0);
        assert_eq!(a.recv().expect("a"), "x");
        assert_eq!(b.recv().expect("b"), "x");
    }

    #[test]
    fn slow_subscriber_dropped_not_blocking() {
        let f = FanOut::new();
        let slow = f.subscribe(1);
        let fast = f.subscribe(16);
        assert_eq!(f.broadcast("1"), 0);
        // `slow` never drains: its channel (capacity 1) is now full, so
        // the next broadcast drops it instead of blocking.
        assert_eq!(f.broadcast("2"), 1);
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.len(), 1);
        assert_eq!(fast.recv().expect("fast 1"), "1");
        assert_eq!(fast.recv().expect("fast 2"), "2");
        // The dropped subscriber still gets what was queued, then EOF.
        assert_eq!(slow.recv().expect("queued"), "1");
        assert!(slow.recv().is_err());
    }

    #[test]
    fn close_ends_streams() {
        let f = FanOut::new();
        let rx = f.subscribe(4);
        f.broadcast("tail");
        f.close();
        assert_eq!(rx.recv().expect("queued line"), "tail");
        assert!(rx.recv().is_err());
        assert_eq!(f.broadcast("after"), 0);
    }
}
