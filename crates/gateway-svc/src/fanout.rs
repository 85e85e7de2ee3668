//! Telemetry fan-out with backpressure.
//!
//! The engine loop broadcasts JSONL text (batches of slot records, and
//! service events) to every subscriber: one shared message per
//! broadcast, queued on each subscriber's channel. The loop never blocks
//! on a consumer: a subscriber with more bytes queued than its bound is
//! dropped on the spot — counted and announced — which is the live-mode
//! backpressure contract (shed the slow consumer, not the deadline).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Bytes a subscriber may have queued per line of the capacity it
/// subscribed with: about one slot record of a 1 000-user cell
/// (`svc.fanout.record_bytes` reads 10.3 KB), so a capacity of 1 024
/// lines is ≈ 10.5 MB, whether the lines come one by one or batched.
pub const LINE_BYTES: usize = 10 * 1024;

/// Longest [`FanOut::close`] waits for connection threads to write out
/// what was queued. A client that stopped reading costs the service
/// this much at exit, no more.
const FLUSH_WAIT: Duration = Duration::from_secs(1);

struct Subscriber {
    tx: Sender<Arc<str>>,
    /// Bytes sent and not yet received.
    queued: Arc<AtomicUsize>,
    /// The bound on `queued`.
    limit: usize,
}

/// The receiving end of a subscription. A message is one or more whole
/// lines, `\n` between them and none after the last.
pub struct Subscription {
    rx: Receiver<Arc<str>>,
    queued: Arc<AtomicUsize>,
}

impl Subscription {
    fn took(&self, message: Arc<str>) -> Arc<str> {
        self.queued.fetch_sub(message.len(), Ordering::Relaxed);
        message
    }

    /// The next message; `Err` once the subscription has ended and
    /// everything queued was received.
    pub fn recv(&self) -> Result<Arc<str>, RecvError> {
        self.rx.recv().map(|m| self.took(m))
    }

    /// The next message if one is queued.
    pub fn try_recv(&self) -> Result<Arc<str>, TryRecvError> {
        self.rx.try_recv().map(|m| self.took(m))
    }

    /// The next message, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Arc<str>, RecvTimeoutError> {
        self.rx.recv_timeout(timeout).map(|m| self.took(m))
    }

    /// Every message queued now.
    pub fn try_iter(&self) -> impl Iterator<Item = Arc<str>> + '_ {
        std::iter::from_fn(|| self.try_recv().ok())
    }
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

    /// Register a subscriber; lines arrive on the returned subscription
    /// until it falls `capacity` lines behind — more than `capacity ×`
    /// [`LINE_BYTES`] bytes queued — and is dropped, or the service
    /// closes the registry (stream ends).
    pub fn subscribe(&self, capacity: usize) -> Subscription {
        let (tx, rx) = channel();
        let queued = Arc::new(AtomicUsize::new(0));
        self.lock().push(Subscriber {
            tx,
            queued: queued.clone(),
            limit: capacity.max(1).saturating_mul(LINE_BYTES),
        });
        Subscription { rx, queued }
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

    /// Send `lines` (one or more, `\n` between them) to every
    /// subscriber as one shared message. A subscriber that already has
    /// bytes queued and would go over its bound fell behind: it is
    /// removed and counted. One with nothing queued takes any message.
    /// Disconnected receivers are removed silently (the consumer left).
    /// Returns how many subscribers were dropped for falling behind by
    /// this call.
    pub fn broadcast(&self, lines: &str) -> u64 {
        let mut subs = self.lock();
        if subs.is_empty() {
            return 0;
        }
        let message: Arc<str> = Arc::from(lines);
        let mut dropped_now = 0;
        subs.retain(|s| {
            let queued = s.queued.load(Ordering::Relaxed);
            if queued > 0 && queued.saturating_add(message.len()) > s.limit {
                dropped_now += 1;
                return false;
            }
            s.queued.fetch_add(message.len(), Ordering::Relaxed);
            s.tx.send(message.clone()).is_ok()
        });
        if dropped_now > 0 {
            self.dropped.fetch_add(dropped_now, Ordering::Relaxed);
        }
        dropped_now
    }

    /// Drop every subscriber sender, ending all streams (receivers see
    /// the channel close once they drain what was already queued), then
    /// wait — at most `FLUSH_WAIT` — until the connection threads have
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
        assert_eq!(&*a.recv().expect("a"), "x");
        assert_eq!(&*b.recv().expect("b"), "x");
    }

    #[test]
    fn slow_subscriber_dropped_not_blocking() {
        let f = FanOut::new();
        let slow = f.subscribe(1);
        let fast = f.subscribe(16);
        let line = "1".repeat(LINE_BYTES);
        assert_eq!(f.broadcast(&line), 0);
        // `slow` never drains: one line's worth of bytes is queued, so
        // the next broadcast drops it instead of blocking.
        assert_eq!(f.broadcast("2"), 1);
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.len(), 1);
        assert_eq!(*fast.recv().expect("fast 1"), *line);
        assert_eq!(&*fast.recv().expect("fast 2"), "2");
        // The dropped subscriber still gets what was queued, then EOF.
        assert_eq!(*slow.recv().expect("queued"), *line);
        assert!(slow.recv().is_err());
    }

    /// The bound is in bytes: batches of many lines count what they
    /// carry, and receiving frees the bytes again.
    #[test]
    fn the_bound_counts_bytes_not_messages() {
        let f = FanOut::new();
        let rx = f.subscribe(4);
        let batch = ["r"; 100].join("\n");
        // Far more messages than the capacity of 4 lines, never more
        // than 4 × LINE_BYTES bytes queued: kept.
        for _ in 0..100 {
            assert_eq!(f.broadcast(&batch), 0);
        }
        assert_eq!(rx.try_iter().count(), 100);
        let quarter = "q".repeat(LINE_BYTES);
        for _ in 0..4 {
            assert_eq!(f.broadcast(&quarter), 0);
        }
        assert_eq!(f.broadcast("over"), 1, "4 lines' worth queued, then more");
        assert_eq!(rx.try_iter().count(), 4);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn close_ends_streams() {
        let f = FanOut::new();
        let rx = f.subscribe(4);
        f.broadcast("tail");
        f.close();
        assert_eq!(&*rx.recv().expect("queued line"), "tail");
        assert!(rx.recv().is_err());
        assert_eq!(f.broadcast("after"), 0);
    }
}
