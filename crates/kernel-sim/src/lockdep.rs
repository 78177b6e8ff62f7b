//! Runtime locking correctness validator (lockdep stand-in).
//!
//! Tracks the stack of held locks across nested execution contexts
//! (task → tracepoint re-entry → NMI) and diagnoses the two locking
//! violations the paper's indicator #2 bugs manifest as:
//!
//! - **recursive acquisition** of a non-reentrant lock in the same context
//!   chain (bug #4: `bpf_trace_printk` re-entered through its own
//!   tracepoint), and
//! - **inconsistent lock state** — a lock acquired in a re-entered
//!   (interrupt-like) context while the interrupted context already holds
//!   it (bug #5: `contention_begin` + lock-acquiring helper).

use serde::{Deserialize, Serialize};

use crate::report::LockdepKind;

/// Kernel-internal locks programs can reach through helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockId {
    /// Lock serializing the `trace_printk` ring buffer.
    TracePrintk,
    /// Per-ringbuf-map spinlock.
    Ringbuf,
    /// Hash map bucket lock.
    HashBucket,
    /// Run queue lock (scheduler paths).
    Runqueue,
    /// irq_work queue lock.
    IrqWork,
    /// A `bpf_spin_lock` embedded in a map value, identified by map id.
    MapValueSpin(u32),
}

/// One held-lock record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    lock: LockId,
    /// Depth of the execution context that took the lock (0 = outermost).
    ctx_depth: usize,
}

/// The lock validator state.
#[derive(Debug, Default, Clone)]
pub struct Lockdep {
    held: Vec<Held>,
    /// Current context nesting depth (incremented on tracepoint/NMI entry).
    ctx_depth: usize,
}

impl Lockdep {
    /// Creates a validator with no locks held.
    pub fn new() -> Lockdep {
        Lockdep::default()
    }

    /// Enters a nested execution context (tracepoint handler, NMI).
    pub fn enter_context(&mut self) {
        self.ctx_depth += 1;
    }

    /// Leaves a nested execution context.
    pub fn leave_context(&mut self) {
        debug_assert!(self.ctx_depth > 0);
        self.ctx_depth = self.ctx_depth.saturating_sub(1);
    }

    /// Attempts to acquire `lock`.
    ///
    /// On violation returns the diagnosis; the lock is *not* taken (the
    /// simulated kernel would be deadlocked — we record instead of hanging).
    pub fn acquire(&mut self, lock: LockId) -> Result<(), LockdepKind> {
        if let Some(prev) = self.held.iter().find(|h| h.lock == lock) {
            return Err(if prev.ctx_depth < self.ctx_depth {
                // Held by an interrupted outer context; the re-entered
                // context spins forever: inconsistent lock state.
                LockdepKind::InconsistentState
            } else {
                LockdepKind::RecursiveAcquire
            });
        }
        self.held.push(Held {
            lock,
            ctx_depth: self.ctx_depth,
        });
        Ok(())
    }

    /// Releases `lock`.
    pub fn release(&mut self, lock: LockId) -> Result<(), LockdepKind> {
        match self.held.iter().rposition(|h| h.lock == lock) {
            Some(i) => {
                self.held.remove(i);
                Ok(())
            }
            None => Err(LockdepKind::UnbalancedRelease),
        }
    }

    /// Whether `lock` is currently held.
    pub fn holds(&self, lock: LockId) -> bool {
        self.held.iter().any(|h| h.lock == lock)
    }

    /// Number of locks currently held.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Checks for locks leaked past the end of an execution; clears state.
    pub fn check_exit(&mut self) -> Result<(), LockdepKind> {
        let leaked = !self.held.is_empty();
        self.held.clear();
        self.ctx_depth = 0;
        if leaked {
            Err(LockdepKind::HeldAtExit)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_acquire_release() {
        let mut ld = Lockdep::new();
        assert!(ld.acquire(LockId::Ringbuf).is_ok());
        assert!(ld.holds(LockId::Ringbuf));
        assert!(ld.release(LockId::Ringbuf).is_ok());
        assert!(ld.check_exit().is_ok());
    }

    #[test]
    fn recursive_acquire_same_context() {
        let mut ld = Lockdep::new();
        ld.acquire(LockId::TracePrintk).unwrap();
        assert_eq!(
            ld.acquire(LockId::TracePrintk),
            Err(LockdepKind::RecursiveAcquire)
        );
    }

    #[test]
    fn inconsistent_state_across_context_reentry() {
        // The bug #5 shape: outer context holds the ringbuf lock, a
        // tracepoint fires, and the handler tries to take it again.
        let mut ld = Lockdep::new();
        ld.acquire(LockId::Ringbuf).unwrap();
        ld.enter_context();
        assert_eq!(
            ld.acquire(LockId::Ringbuf),
            Err(LockdepKind::InconsistentState)
        );
        ld.leave_context();
    }

    #[test]
    fn different_locks_do_not_conflict() {
        let mut ld = Lockdep::new();
        ld.acquire(LockId::Ringbuf).unwrap();
        ld.enter_context();
        assert!(ld.acquire(LockId::TracePrintk).is_ok());
        assert!(ld.release(LockId::TracePrintk).is_ok());
        ld.leave_context();
        assert!(ld.release(LockId::Ringbuf).is_ok());
    }

    #[test]
    fn unbalanced_release() {
        let mut ld = Lockdep::new();
        assert_eq!(
            ld.release(LockId::Runqueue),
            Err(LockdepKind::UnbalancedRelease)
        );
    }

    #[test]
    fn leak_detected_at_exit() {
        let mut ld = Lockdep::new();
        ld.acquire(LockId::HashBucket).unwrap();
        assert_eq!(ld.check_exit(), Err(LockdepKind::HeldAtExit));
        // State is reset afterwards.
        assert_eq!(ld.held_count(), 0);
        assert!(ld.check_exit().is_ok());
    }

    #[test]
    fn map_value_spin_locks_are_per_map() {
        let mut ld = Lockdep::new();
        ld.acquire(LockId::MapValueSpin(1)).unwrap();
        assert!(ld.acquire(LockId::MapValueSpin(2)).is_ok());
        assert_eq!(
            ld.acquire(LockId::MapValueSpin(1)),
            Err(LockdepKind::RecursiveAcquire)
        );
    }
}
