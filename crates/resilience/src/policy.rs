//! Periodic checkpoint scheduling.
//!
//! A [`CheckpointPolicy`] says *how often* to persist (every N steps
//! and/or every T seconds); a [`CheckpointTicker`] tracks progress
//! against it. The two triggers compose with OR semantics: a busy stream
//! checkpoints by step count, an idle one by wall clock, so recovery
//! replay stays bounded either way.

use std::time::{Duration, Instant};

/// How often to write a periodic checkpoint. The default policy is
/// end-of-run only (no periodic trigger).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many steps since the last checkpoint.
    pub every_steps: Option<u64>,
    /// Checkpoint once this much wall-clock time has passed since the
    /// last checkpoint (checked at step boundaries; an idle stream that
    /// delivers no transitions writes nothing).
    pub every: Option<Duration>,
}

/// Tracks steps and elapsed time against a [`CheckpointPolicy`].
#[derive(Debug)]
pub struct CheckpointTicker {
    policy: CheckpointPolicy,
    steps_since: u64,
    last_save: Instant,
}

impl CheckpointTicker {
    /// A ticker starting its counters now.
    pub fn new(policy: CheckpointPolicy) -> CheckpointTicker {
        CheckpointTicker {
            policy,
            steps_since: 0,
            last_save: Instant::now(),
        }
    }

    /// Record one completed step and report whether a checkpoint is due.
    /// Returning `true` resets both counters — the caller is expected to
    /// save (a failed save simply retries at the next trigger).
    pub fn step_completed(&mut self) -> bool {
        self.steps_since += 1;
        let steps_due = self
            .policy
            .every_steps
            .is_some_and(|n| self.steps_since >= n);
        let time_due = self
            .policy
            .every
            .is_some_and(|t| self.last_save.elapsed() >= t);
        if steps_due || time_due {
            self.steps_since = 0;
            self.last_save = Instant::now();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_never_fires() {
        let mut ticker = CheckpointTicker::new(CheckpointPolicy::default());
        for _ in 0..1000 {
            assert!(!ticker.step_completed());
        }
    }

    #[test]
    fn step_trigger_fires_every_n() {
        let mut ticker = CheckpointTicker::new(CheckpointPolicy {
            every_steps: Some(3),
            every: None,
        });
        let fired: Vec<bool> = (0..7).map(|_| ticker.step_completed()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false]);
    }

    #[test]
    fn time_trigger_fires_once_elapsed() {
        let mut ticker = CheckpointTicker::new(CheckpointPolicy {
            every_steps: None,
            every: Some(Duration::ZERO),
        });
        // Zero interval: every step boundary is due.
        assert!(ticker.step_completed());
        assert!(ticker.step_completed());
        let mut never = CheckpointTicker::new(CheckpointPolicy {
            every_steps: None,
            every: Some(Duration::from_secs(3600)),
        });
        assert!(!never.step_completed());
    }
}
