//! Supervision: restart a panicked engine task with bounded
//! exponential backoff.
//!
//! Each attempt is a fresh [`LiveService`] rebuilt from durable state
//! (the checkpoint sidecar), so a panic loses at most the slots since
//! the last checkpoint. The command bus and fan-out outlive attempts —
//! both recover poisoned locks — so connected clients keep their
//! sockets across a restart. After `max_restarts` failed recoveries the
//! supervisor gives up rather than loop forever.

use crate::bus::CommandBus;
use crate::fanout::FanOut;
use crate::service::{LiveService, Outcome, ServeConfig};
use jmso_gateway::GwEvent;
use jmso_sim::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Restart policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Restarts attempted after a panic before giving up.
    pub max_restarts: u32,
    /// First backoff delay, ms; doubles per consecutive failure.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, ms.
    pub backoff_max_ms: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            backoff_base_ms: 200,
            backoff_max_ms: 5_000,
        }
    }
}

impl SupervisorConfig {
    /// Backoff before restart number `attempt` (1-based), exponential
    /// and capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let ms = self
            .backoff_base_ms
            .saturating_mul(1u64 << exp)
            .min(self.backoff_max_ms);
        Duration::from_millis(ms)
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisedEnd {
    /// The service completed or was gracefully interrupted.
    Finished {
        /// The final attempt's outcome.
        outcome: Outcome,
        /// Panic recoveries performed along the way.
        restarts: u32,
    },
    /// The service kept panicking; the supervisor stopped retrying.
    GaveUp {
        /// Attempts made (initial run + restarts).
        attempts: u32,
    },
}

/// Run the service under supervision until it finishes, is interrupted,
/// exhausts its restart budget, or fails with a typed error (build and
/// I/O errors are not retried — they are deterministic, not crashes).
pub fn supervise(
    cfg: &ServeConfig,
    sup: &SupervisorConfig,
    bus: Arc<CommandBus>,
    fanout: Arc<FanOut>,
    shutdown: Arc<AtomicBool>,
) -> Result<SupervisedEnd, SimError> {
    let mut restarts = 0u32;
    loop {
        let svc = LiveService::build(
            cfg.clone(),
            bus.clone(),
            fanout.clone(),
            shutdown.clone(),
            restarts,
        )?;
        match catch_unwind(AssertUnwindSafe(move || svc.run())) {
            Ok(run_result) => {
                return run_result.map(|outcome| SupervisedEnd::Finished { outcome, restarts });
            }
            Err(panic) => {
                // The dead attempt's status is stale: until the restart
                // publishes its own, `status` waits on the bus for it.
                bus.clear_status();
                let what = panic_message(&panic);
                restarts += 1;
                if restarts > sup.max_restarts {
                    fanout.broadcast(
                        &serde_json::to_string(&GwEvent::Warning {
                            message: format!(
                                "engine task panicked ({what}); restart budget exhausted \
                                 after {} attempts",
                                restarts
                            ),
                        })
                        .unwrap_or_default(),
                    );
                    fanout.close();
                    return Ok(SupervisedEnd::GaveUp { attempts: restarts });
                }
                let delay = sup.backoff(restarts);
                fanout.broadcast(
                    &serde_json::to_string(&GwEvent::Warning {
                        message: format!(
                            "engine task panicked ({what}); restart {restarts}/{} in {}ms",
                            sup.max_restarts,
                            delay.as_millis()
                        ),
                    })
                    .unwrap_or_default(),
                );
                std::thread::sleep(delay);
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(SupervisedEnd::Finished {
                        outcome: Outcome::Interrupted { at_slot: 0 },
                        restarts,
                    });
                }
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let sup = SupervisorConfig {
            max_restarts: 10,
            backoff_base_ms: 100,
            backoff_max_ms: 1_000,
        };
        assert_eq!(sup.backoff(1), Duration::from_millis(100));
        assert_eq!(sup.backoff(2), Duration::from_millis(200));
        assert_eq!(sup.backoff(3), Duration::from_millis(400));
        assert_eq!(sup.backoff(5), Duration::from_millis(1_000));
        assert_eq!(sup.backoff(20), Duration::from_millis(1_000));
    }
}
