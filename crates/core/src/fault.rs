//! Deterministic fault injection for the fault-tolerance test suites.
//!
//! Production code never constructs faults; the harness exists so the
//! recovery paths of [`crate::train::TcssTrainer::train_with_faults`] can
//! be driven through real failures in tests instead of being trusted on
//! inspection:
//!
//! * **Poisoned gradients** — at a chosen epoch, every gradient buffer is
//!   overwritten with NaN exactly once, which must trip the divergence
//!   watchdog and trigger a rollback with learning-rate backoff.
//! * **Simulated crash** — reaching a chosen epoch aborts the run with
//!   [`crate::train::TrainError::InjectedCrash`] *before* that epoch's
//!   work, modelling a `kill -9` between epochs; resuming from the last
//!   checkpoint must reproduce the uninterrupted run bit-for-bit.
//! * **File corruption** — [`truncate_file`] and [`flip_byte`] damage
//!   saved checkpoints/models on disk the way a crashed writer or a bad
//!   sector would, and loading must always detect it.
//!
//! Every fault is keyed to a deterministic trigger (an epoch index or a
//! byte offset), so failing tests replay identically.

use crate::loss::Grads;
use std::cell::Cell;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// A schedule of failures to inject into one training run.
///
/// Interior mutability (each trigger is consumed at most once) keeps the
/// trainer API `&self` while letting a poison fire only on its first hit —
/// after the watchdog rolls back, the replayed epoch runs clean, exactly
/// like a transient hardware fault.
#[derive(Debug, Default)]
pub struct FaultPlan {
    poison_at: Cell<Option<usize>>,
    crash_before: Cell<Option<usize>>,
    kill_worker_at: Cell<Option<(usize, usize)>>,
    kill_worker_mid_exchange: Cell<Option<(usize, usize)>>,
}

impl FaultPlan {
    /// No faults: `train_with_faults` with this plan behaves exactly like
    /// `train_with_checkpoints`.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Overwrite the gradients computed at `epoch` with NaN, once.
    pub fn poison_gradients_at(epoch: usize) -> Self {
        FaultPlan {
            poison_at: Cell::new(Some(epoch)),
            ..FaultPlan::default()
        }
    }

    /// Abort with `TrainError::InjectedCrash` immediately before `epoch`
    /// executes (state from epochs `< epoch` is whatever was checkpointed).
    pub fn crash_before_epoch(epoch: usize) -> Self {
        FaultPlan {
            crash_before: Cell::new(Some(epoch)),
            ..FaultPlan::default()
        }
    }

    /// During distributed training ([`crate::dist`]), `SIGKILL` worker
    /// process `worker` immediately before the coordinator dispatches
    /// `epoch`, once. The coordinator must detect the loss, respawn the
    /// worker, roll back to its last good state and still produce the
    /// uninterrupted run's model bit-for-bit.
    pub fn kill_worker_at(epoch: usize, worker: usize) -> Self {
        FaultPlan {
            kill_worker_at: Cell::new(Some((epoch, worker))),
            ..FaultPlan::default()
        }
    }

    /// During distributed training ([`crate::dist::sharded`]), `SIGKILL`
    /// worker `worker` in the middle
    /// of `epoch`'s delta exchange — immediately after the coordinator has
    /// relayed the first of that worker's outbound exchange frames, so some
    /// of its row deltas are already in flight to their owners when it
    /// dies, once. Recovery must still land on the uninterrupted run's
    /// exact bits.
    pub fn kill_worker_mid_exchange_at(epoch: usize, worker: usize) -> Self {
        FaultPlan {
            kill_worker_mid_exchange: Cell::new(Some((epoch, worker))),
            ..FaultPlan::default()
        }
    }

    /// Consume the mid-exchange kill trigger if it matches `(epoch,
    /// worker)`.
    pub(crate) fn take_kill_mid_exchange(&self, epoch: usize, worker: usize) -> bool {
        match self.kill_worker_mid_exchange.get() {
            Some((at, victim)) if at == epoch && victim == worker => {
                self.kill_worker_mid_exchange.set(None);
                true
            }
            _ => false,
        }
    }

    /// Consume the kill-worker trigger if it matches `epoch`, yielding the
    /// index of the worker to kill.
    pub(crate) fn take_kill_worker(&self, epoch: usize) -> Option<usize> {
        match self.kill_worker_at.get() {
            Some((at, worker)) if at == epoch => {
                self.kill_worker_at.set(None);
                Some(worker)
            }
            _ => None,
        }
    }

    /// Consume the poison trigger if it matches `epoch`.
    pub(crate) fn take_poison(&self, epoch: usize) -> bool {
        if self.poison_at.get() == Some(epoch) {
            self.poison_at.set(None);
            true
        } else {
            false
        }
    }

    /// Consume the crash trigger if it matches `epoch`.
    pub(crate) fn take_crash(&self, epoch: usize) -> bool {
        if self.crash_before.get() == Some(epoch) {
            self.crash_before.set(None);
            true
        } else {
            false
        }
    }
}

/// Overwrite every gradient buffer with NaN (the canonical numerical
/// hazard of the generalized-loss literature: one bad division upstream
/// poisons the whole update).
pub(crate) fn poison(grads: &mut Grads) {
    for m in [&mut grads.u1, &mut grads.u2, &mut grads.u3] {
        for v in m.as_mut_slice() {
            *v = f64::NAN;
        }
    }
    for v in &mut grads.h {
        *v = f64::NAN;
    }
}

/// Truncate the file at `path` to its first `keep` bytes, simulating a
/// writer killed mid-write (or a partially synced file after power loss).
pub fn truncate_file(path: &Path, keep: u64) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep)?;
    f.sync_all()
}

/// XOR the byte at `offset` with `mask` (must be nonzero to actually
/// change the file), simulating a flipped bit from a bad disk or memory.
pub fn flip_byte(path: &Path, offset: u64, mask: u8) -> std::io::Result<()> {
    assert_ne!(mask, 0, "a zero mask would not corrupt anything");
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let mut byte = [0u8; 1];
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(&mut byte)?;
    byte[0] ^= mask;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&byte)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_exactly_once() {
        let plan = FaultPlan::poison_gradients_at(3);
        assert!(!plan.take_poison(2));
        assert!(plan.take_poison(3));
        assert!(!plan.take_poison(3), "poison must be consumed");
        let plan = FaultPlan::crash_before_epoch(5);
        assert!(!plan.take_crash(4));
        assert!(plan.take_crash(5));
        assert!(!plan.take_crash(5), "crash must be consumed");
        let plan = FaultPlan::kill_worker_at(2, 1);
        assert_eq!(plan.take_kill_worker(1), None);
        assert_eq!(plan.take_kill_worker(2), Some(1));
        assert_eq!(plan.take_kill_worker(2), None, "kill must be consumed");
        let plan = FaultPlan::kill_worker_mid_exchange_at(2, 1);
        assert!(!plan.take_kill_mid_exchange(1, 1));
        assert!(
            !plan.take_kill_mid_exchange(2, 0),
            "wrong victim must not fire"
        );
        assert!(plan.take_kill_mid_exchange(2, 1));
        assert!(!plan.take_kill_mid_exchange(2, 1), "kill must be consumed");
    }

    #[test]
    fn file_corruption_helpers_do_what_they_say() {
        let dir = std::env::temp_dir().join("tcss_fault_helpers");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.txt");
        std::fs::write(&path, "hello checkpoint").unwrap();
        truncate_file(&path, 5).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        flip_byte(&path, 0, 0x20).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "Hello");
        std::fs::remove_file(&path).ok();
    }
}
