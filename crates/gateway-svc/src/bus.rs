//! Bounded command queue between socket handlers and the engine loop.
//!
//! Connection handlers push typed [`Command`]s; the engine loop drains
//! them at slot boundaries (or blocks on them while holding). The queue
//! is bounded — a flood of commands yields typed rejections at the
//! socket, never unbounded memory — and poison-proof: a panicked engine
//! task must not wedge the handlers that outlive it, so every lock
//! recovers the guard from a poisoned mutex (the queue holds plain
//! data, valid at every instruction boundary).
//!
//! The bus also carries the engine's latest [`GwStatus`], published at
//! every slot boundary and after every command that changes it, so a
//! connection thread answers `status` without waiting for a boundary.
//! Only while nothing is published — before an attempt runs, and
//! between a panic and the restart — does `status` travel as a
//! [`Command::Status`].
//!
//! A `feed` line travels as a [`FeedStream`]: the command is queued as
//! soon as the line is known to be a feed, and its events follow in
//! chunks, each with the one buffer its requests were decoded into, while
//! the connection thread is still reading the rest, so the engine
//! inspects them meanwhile (DESIGN.md §13).

use jmso_gateway::{FeedChunk, GwStatus, ProtocolError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// The durable-checkpoint slot's value before the first sidecar is
/// durable.
pub(crate) const NO_CKPT: u64 = u64::MAX;

/// `last_checkpoint_slot` as the persist thread last stored it.
pub(crate) fn durable_slot(last_ckpt: &AtomicU64) -> Option<u64> {
    let slot = last_ckpt.load(Ordering::SeqCst);
    (slot != NO_CKPT).then_some(slot)
}

/// One engine-loop request from a connection handler. Replies travel
/// over per-request rendezvous channels so handlers can time out
/// independently when the engine task is down between supervisor
/// attempts.
pub enum Command {
    /// Apply live session events to the slot schedule.
    Feed {
        /// Events, applied in order once the line is committed; the first
        /// rejection stops the line. An uncommitted line applies nothing.
        events: FeedStream,
        /// Outcome channel.
        reply: SyncSender<Result<(), ProtocolError>>,
    },
    /// Snapshot service status (the engine's answer when no status is
    /// published on the bus).
    Status {
        /// Outcome channel.
        reply: SyncSender<GwStatus>,
    },
    /// Leave the holding state and start the slot loop.
    Start {
        /// Outcome channel.
        reply: SyncSender<Result<(), ProtocolError>>,
    },
    /// Graceful shutdown: final checkpoint, drain, exit.
    Shutdown {
        /// Outcome channel.
        reply: SyncSender<Result<(), ProtocolError>>,
    },
}

/// One step of a feed line on its stream.
enum FeedStep {
    Chunk(FeedChunk),
    /// The line was read whole.
    Commit,
}

/// The engine's end of one feed line: chunks of events in line order,
/// then a commit once the connection thread has read the line whole.
pub struct FeedStream(Receiver<FeedStep>);

/// The connection thread's end of one feed line. Dropped without
/// [`commit`](Self::commit), it tells the engine the line failed.
pub struct FeedSender(Sender<FeedStep>);

/// A stream for one feed line. It is unbounded, but it carries one line,
/// which is at most [`jmso_gateway::MAX_LINE_BYTES`] of text.
pub fn feed_stream() -> (FeedSender, FeedStream) {
    let (tx, rx) = channel();
    (FeedSender(tx), FeedStream(rx))
}

impl FeedSender {
    /// Hand the next events to the engine: a chunk, or events in hand
    /// (`Vec<LiveEvent>`), which become one. An engine that has gone away
    /// shows in the reply, not here.
    pub fn send(&self, chunk: impl Into<FeedChunk>) {
        let chunk = chunk.into();
        if !chunk.events.is_empty() {
            let _ = self.0.send(FeedStep::Chunk(chunk));
        }
    }

    /// The line was read whole: hand over its last events and let the
    /// engine apply it.
    pub fn commit(self, last: impl Into<FeedChunk>) {
        self.send(last);
        let _ = self.0.send(FeedStep::Commit);
    }
}

impl FeedStream {
    /// The next chunk, waiting for it; `Ok(None)` at the commit, and an
    /// error once the sender is gone without one.
    pub fn next_chunk(&self) -> Result<Option<FeedChunk>, ProtocolError> {
        match self.0.recv() {
            Ok(FeedStep::Chunk(chunk)) => Ok(Some(chunk)),
            Ok(FeedStep::Commit) => Ok(None),
            Err(_) => Err(ProtocolError::Reject {
                reason: "feed line abandoned before it was read whole".into(),
            }),
        }
    }
}

/// A published status: what the engine thread last wrote, and the
/// durable-checkpoint slot the persist thread keeps, read at reply time.
type Published = (GwStatus, Arc<AtomicU64>);

/// Bounded MPSC queue with a condvar for the holding-state wait, and the
/// engine's latest published status.
pub struct CommandBus {
    q: Mutex<VecDeque<Command>>,
    cv: Condvar,
    cap: usize,
    status: Mutex<Option<Published>>,
}

impl CommandBus {
    /// A bus holding at most `cap` queued commands.
    pub fn new(cap: usize) -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap: cap.max(1),
            status: Mutex::new(None),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Command>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn published(&self) -> MutexGuard<'_, Option<Published>> {
        // Plain data, whole at every step: poison-proof like the queue.
        self.status.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish an attempt's status in full, replacing any earlier one.
    /// `last_ckpt` is the slot of the newest durable sidecar
    /// ([`NO_CKPT`] before the first), read whenever `status` is asked.
    pub(crate) fn publish_status(&self, status: GwStatus, last_ckpt: Arc<AtomicU64>) {
        *self.published() = Some((status, last_ckpt));
    }

    /// Update the published status in place (a no-op while none is).
    pub(crate) fn update_status(&self, update: impl FnOnce(&mut GwStatus)) {
        if let Some((status, _)) = self.published().as_mut() {
            update(status);
        }
    }

    /// Withdraw the published status: `status` goes back over the bus.
    pub(crate) fn clear_status(&self) {
        *self.published() = None;
    }

    /// The published status with its durable-checkpoint slot read now,
    /// or `None` while nothing is published.
    pub(crate) fn status(&self) -> Option<GwStatus> {
        let published = self.published();
        let (status, last_ckpt) = published.as_ref()?;
        Some(GwStatus {
            last_checkpoint_slot: durable_slot(last_ckpt),
            ..status.clone()
        })
    }

    /// Enqueue a command; typed rejection when the queue is full.
    pub fn push(&self, cmd: Command) -> Result<(), ProtocolError> {
        let mut q = self.lock();
        if q.len() >= self.cap {
            return Err(ProtocolError::Reject {
                reason: format!("command queue full ({} pending)", q.len()),
            });
        }
        q.push_back(cmd);
        drop(q);
        self.cv.notify_all();
        Ok(())
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&self) -> Vec<Command> {
        self.lock().drain(..).collect()
    }

    /// Block up to `timeout` for at least one command, then drain.
    pub fn wait(&self, timeout: Duration) -> Vec<Command> {
        let q = self.lock();
        if q.is_empty() {
            let (mut q, _) = self
                .cv
                .wait_timeout(q, timeout)
                .unwrap_or_else(|e| e.into_inner());
            return q.drain(..).collect();
        }
        let mut q = q;
        q.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn push_bounded() {
        let bus = CommandBus::new(2);
        let (tx, _rx) = sync_channel(1);
        assert!(bus.push(Command::Start { reply: tx.clone() }).is_ok());
        assert!(bus.push(Command::Start { reply: tx.clone() }).is_ok());
        assert!(matches!(
            bus.push(Command::Start { reply: tx }),
            Err(ProtocolError::Reject { .. })
        ));
        assert_eq!(bus.drain().len(), 2);
        assert!(bus.drain().is_empty());
    }

    #[test]
    fn published_status_reads_the_durable_slot_now() {
        let bus = CommandBus::new(1);
        assert!(bus.status().is_none());
        bus.update_status(|s| s.slot = 9);
        assert!(bus.status().is_none(), "nothing to update");
        let status = GwStatus {
            state: jmso_gateway::SvcState::Running,
            slot: 3,
            slots: 10,
            watching: 2,
            policy: "stall".into(),
            dropped_slots: 0,
            dropped_subscribers: 0,
            last_checkpoint_slot: None,
            warnings: vec![],
        };
        let durable = Arc::new(AtomicU64::new(NO_CKPT));
        bus.publish_status(status.clone(), durable.clone());
        assert_eq!(bus.status(), Some(status.clone()));
        bus.update_status(|s| s.slot = 4);
        durable.store(2, Ordering::SeqCst);
        let read = bus.status().expect("published");
        assert_eq!((read.slot, read.last_checkpoint_slot), (4, Some(2)));
        bus.clear_status();
        assert!(bus.status().is_none());
    }

    #[test]
    fn wait_times_out_empty() {
        let bus = CommandBus::new(4);
        assert!(bus.wait(Duration::from_millis(10)).is_empty());
    }
}
