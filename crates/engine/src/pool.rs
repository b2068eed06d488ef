//! Persistent worker pool for the engine.
//!
//! Every sub-phase of a composite algorithm is its own [`Engine::run`]
//! (at threads=2: 216 runs on `slt-geo-64k`, 243 on `spanner-gnp-2k`,
//! 1 on `bfs-geo-1m`). What the pool buys is not spawn time (about
//! 26 µs per run at 2 threads) but allocation-free warmed sub-runs: a
//! per-run `std::thread::scope` allocates at every spawn and failed
//! `alloc_guard`'s composite budget at engine(2), 448 events against
//! 320. [`WorkerPool`] spawns its threads **once** and parks them
//! between jobs: a run publishes one type-erased job closure, the pool
//! threads execute it as workers `1..active` while the caller runs
//! worker 0, and everyone parks again until the next run. The pool is
//! shared across sub-executors via `Arc` (see `Engine::sub`), so a
//! whole composite algorithm reuses one set of threads.
//!
//! [`Engine::run`]: crate::Engine::run
//!
//! # Safety model
//!
//! The published job is a raw `*const (dyn Fn(usize) + Sync)` borrowed
//! from the caller's stack. [`WorkerPool::scope`] does not return —
//! even when the caller's own closure panics — until every
//! participating pool thread has finished the job, so the borrow
//! strictly outlives every use. Panics on pool threads are caught,
//! stashed, and re-raised on the calling thread after the job
//! completes, mirroring `std::thread::scope` semantics.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased job pointer. Sound to send across threads because the
/// pointee is `Sync` and `scope` guarantees the borrow outlives use.
struct JobPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for JobPtr {}

#[derive(Default)]
struct Slot {
    job: Option<JobPtr>,
    /// Workers `1..active` participate in the current job (worker 0 is
    /// the caller); pool threads with larger indices skip it.
    active: usize,
    /// Monotone job generation; pool threads run each generation once.
    gen: u64,
    /// Participating pool threads still running the current job.
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Signals pool threads that a new job (or shutdown) is available.
    work: Condvar,
    /// Signals the caller that the last participant finished.
    done: Condvar,
}

/// A fixed set of parked worker threads executing one job at a time.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

fn pool_main(shared: Arc<Shared>, index: usize) {
    let mut seen_gen = 0u64;
    loop {
        let (ptr, active) = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.gen != seen_gen && slot.job.is_some() {
                    break;
                }
                slot = shared.work.wait(slot).unwrap();
            }
            seen_gen = slot.gen;
            (slot.job.as_ref().expect("checked above").0, slot.active)
        };
        let wid = index + 1;
        if wid < active {
            // SAFETY: `scope` blocks until `remaining` hits zero, so
            // the pointee is alive for the duration of this call.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*ptr)(wid) }));
            let mut slot = shared.slot.lock().unwrap();
            if let Err(payload) = result {
                if slot.panic.is_none() {
                    slot.panic = Some(payload);
                }
            }
            slot.remaining -= 1;
            if slot.remaining == 0 {
                shared.done.notify_one();
            }
        }
    }
}

impl WorkerPool {
    /// Spawns `workers` parked threads (callers add themselves as
    /// worker 0, so a `threads`-way engine needs `threads - 1`).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{}", i + 1))
                    .spawn(move || pool_main(sh, i))
                    .expect("spawn engine worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of pool threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job(wid)` for `wid` in `1..active` on pool threads while
    /// the caller runs `main()` as worker 0; returns `main`'s result
    /// once every participant finished. `active - 1` must not exceed
    /// [`WorkerPool::workers`]. Panics anywhere are forwarded here —
    /// after completion, so borrows stay sound.
    pub fn scope<R>(
        &self,
        active: usize,
        job: &(dyn Fn(usize) + Sync),
        main: impl FnOnce() -> R,
    ) -> R {
        assert!(active >= 1 && active - 1 <= self.handles.len());
        {
            let mut slot = self.shared.slot.lock().unwrap();
            debug_assert!(slot.job.is_none() && slot.remaining == 0);
            // Lifetime erasure; see the module-level safety model.
            let raw: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            slot.job = Some(JobPtr(raw));
            slot.active = active;
            slot.gen += 1;
            slot.remaining = active - 1;
            self.shared.work.notify_all();
        }
        let main_result = catch_unwind(AssertUnwindSafe(main));
        let pool_panic = {
            let mut slot = self.shared.slot.lock().unwrap();
            while slot.remaining > 0 {
                slot = self.shared.done.wait(slot).unwrap();
            }
            slot.job = None;
            slot.panic.take()
        };
        if let Some(payload) = pool_panic {
            resume_unwind(payload);
        }
        match main_result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn reuses_threads_across_jobs_and_respects_active() {
        let pool = WorkerPool::new(3);
        let hits = AtomicU64::new(0);
        let job = |wid: usize| {
            hits.fetch_add(1 << (8 * wid), Ordering::SeqCst);
        };
        // Full width: workers 1..4 run the job, caller runs wid 0.
        let r = pool.scope(4, &job, || {
            job(0);
            42
        });
        assert_eq!(r, 42);
        assert_eq!(hits.swap(0, Ordering::SeqCst), 0x01_01_01_01);
        // Narrow job on the same pool: only worker 1 participates.
        pool.scope(2, &job, || job(0));
        assert_eq!(hits.load(Ordering::SeqCst), 0x01_01);
    }

    #[test]
    fn forwards_pool_thread_panics_after_completion() {
        let pool = WorkerPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(
                3,
                &|wid: usize| {
                    if wid == 2 {
                        panic!("pool boom");
                    }
                },
                || (),
            )
        }))
        .expect_err("must propagate");
        let text = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(text.contains("pool boom"), "unexpected payload {text:?}");
        // The pool is still usable after a panic.
        let ok = pool.scope(3, &|_wid| {}, || true);
        assert!(ok);
    }
}
