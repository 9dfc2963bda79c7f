//! The round barrier of [`Engine::run`](crate::Engine::run)'s workers.
//!
//! A reusable barrier built only on atomics, so a thread sanitizer sees
//! every happens-before edge it creates without an instrumented std.
//! Unlike `std::sync::Barrier` it can be poisoned: a worker that panics
//! poisons it through a [`PoisonOnPanic`] guard, and every current and
//! later [`Barrier::wait`] returns [`Poisoned`] instead of blocking for
//! an arrival that will never come.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Spins before a waiter starts yielding its core.
const SPINS: u32 = 64;

/// A worker panicked; the round cannot complete.
pub(crate) struct Poisoned;

/// A reusable generation barrier over a fixed number of workers.
pub(crate) struct Barrier {
    workers: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl Barrier {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            workers,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block until all workers have arrived. Every write a worker made
    /// before its arrival is visible to every worker after the wait.
    pub(crate) fn wait(&self) -> Result<(), Poisoned> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.poisoned.load(Ordering::Acquire) {
            return Err(Poisoned);
        }
        // The arrivals form one release sequence, so the last arriver
        // acquires every earlier worker's writes and publishes them all
        // with the generation bump.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return Ok(());
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(Poisoned);
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// A guard that poisons the barrier if it is dropped by a panic.
    pub(crate) fn poison_on_panic(&self) -> PoisonOnPanic<'_> {
        PoisonOnPanic(self)
    }
}

/// Poisons its barrier when dropped while the thread unwinds.
pub(crate) struct PoisonOnPanic<'a>(&'a Barrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}
