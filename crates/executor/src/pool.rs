//! A persistent worker-thread pool for the slave backends.
//!
//! The seed executor spawned one OS thread per worker slot per fragment and
//! joined them all at the end of the run, so every `Start` and every
//! parallelism `Adjust` paid thread creation on the hot path. This pool
//! keeps long-lived threads that **park on a condvar** when idle; staffing a
//! slot is now a queue push + `notify_one` (an unpark), and retiring one is
//! the job returning to the idle queue.
//!
//! The pool grows on demand: a submit that finds no idle thread spawns one,
//! because worker jobs are long-running (a job scans its slot's whole share
//! of a partition) and queueing behind a busy thread would starve the
//! fragment — with dynamic adjustment that is a deadlock, not a slowdown.
//! Growth is bounded in practice by the peak number of simultaneously
//! staffed slots; threads are reused for every later job.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use xprs_storage::lock;

/// One unit of staffing: run a worker slot to completion.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    idle: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    q: Mutex<Queue>,
    cv: Condvar,
    /// Threads ever created (for observability / benches).
    spawned: AtomicU64,
}

/// Pool of persistent worker threads; jobs are `FnOnce` staffing closures.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// A pool with `initial` threads pre-spawned (0 is fine — threads then
    /// appear on first submit).
    pub fn new(initial: usize) -> Self {
        let pool = WorkerPool { shared: Arc::new(Shared::default()), handles: Mutex::new(Vec::new()) };
        for _ in 0..initial {
            pool.spawn_thread();
        }
        pool
    }

    fn spawn_thread(&self) {
        let shared = self.shared.clone();
        self.shared.spawned.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::spawn(move || worker_loop(&shared));
        lock(&self.handles).push(handle);
    }

    /// Hand `job` to an idle thread, spawning one if none is parked.
    ///
    /// # Panics
    /// Panics if called after [`WorkerPool::shutdown`].
    pub fn submit(&self, job: Job) {
        let must_spawn = {
            let mut q = lock(&self.shared.q);
            assert!(!q.shutdown, "submit after shutdown");
            q.jobs.push_back(job);
            // Every parked thread owns one pending wake at most; spawn when
            // the backlog outruns the idle set so no job waits on a busy
            // long-running worker.
            q.idle < q.jobs.len()
        };
        if must_spawn {
            self.spawn_thread();
        }
        self.shared.cv.notify_one();
    }

    /// Threads ever created.
    pub fn threads_spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Fan `tasks` out to the pool and block until every result is in,
    /// returned in task order. Used by the master to parallelize the
    /// fragment-barrier run merge: each task merges one disjoint key
    /// sub-range. Safe to call while worker jobs are in flight — the pool
    /// grows on demand, so gather tasks never queue behind a long-running
    /// staffing job (which could deadlock the barrier).
    ///
    /// # Panics
    /// Re-raises (on the calling thread) the panic of any task that
    /// panicked, after all tasks have settled.
    pub fn scatter_gather<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = tasks.len();
        let (tx, rx) = std::sync::mpsc::channel();
        for (i, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            self.submit(Box::new(move || {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                let _ = tx.send((i, out));
            }));
        }
        drop(tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for (i, out) in rx {
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| match s.expect("every gather task reports") {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }

    /// Run every queued job to completion, then stop and join all threads.
    pub fn shutdown(&self) {
        lock(&self.shared.q).shutdown = true;
        self.shared.cv.notify_all();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for h in handles {
            // A worker that panicked already reported through its job's
            // catch_unwind wrapper; the thread itself is just done.
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    // Every modelled wait of a run is slept on a pool thread.
    crate::clock::tighten_timer_slack();
    loop {
        let job = {
            let mut q = lock(&shared.q);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q.idle += 1;
                q = shared.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.idle -= 1;
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = WorkerPool::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let count = count.clone();
            pool.submit(Box::new(move || {
                count.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn grows_past_initial_size_for_long_jobs() {
        // 4 jobs that must all be live at once to finish (a barrier): the
        // pool must grow to at least 4 threads even though it starts at 1.
        let pool = WorkerPool::new(1);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..4 {
            let barrier = barrier.clone();
            pool.submit(Box::new(move || {
                barrier.wait();
            }));
        }
        pool.shutdown();
        assert!(pool.threads_spawned() >= 4);
    }

    #[test]
    fn threads_are_reused_across_waves() {
        let pool = WorkerPool::new(4);
        for _wave in 0..8 {
            let done = Arc::new(AtomicUsize::new(0));
            for _ in 0..4 {
                let done = done.clone();
                pool.submit(Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }));
            }
            while done.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
        }
        // Sequential waves of 4 jobs over 4 pre-spawned threads may grow the
        // pool a little under unlucky scheduling, but must not approach one
        // thread per job (32).
        assert!(pool.threads_spawned() <= 12, "spawned {}", pool.threads_spawned());
        pool.shutdown();
    }

    #[test]
    fn scatter_gather_returns_results_in_task_order() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.scatter_gather(tasks);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn scatter_gather_works_while_long_jobs_occupy_the_pool() {
        // A long-running staffing-style job must not starve the gather
        // (the pool grows on demand).
        let pool = WorkerPool::new(1);
        let release = Arc::new(AtomicUsize::new(0));
        let r = release.clone();
        pool.submit(Box::new(move || {
            while r.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }));
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..4u32)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> u32 + Send>)
            .collect();
        let out = pool.scatter_gather(tasks);
        assert_eq!(out, vec![1, 2, 3, 4]);
        release.store(1, Ordering::SeqCst);
        pool.shutdown();
    }

    #[cfg(target_os = "linux")]
    fn timer_slack_ns() -> i32 {
        extern "C" {
            fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
        }
        const PR_GET_TIMERSLACK: std::os::raw::c_int = 30;
        // SAFETY: PR_GET_TIMERSLACK takes no argument and only returns the
        // calling thread's timer slack.
        unsafe { prctl(PR_GET_TIMERSLACK) }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pool_threads_run_with_1us_timer_slack_and_the_caller_keeps_its_own() {
        let before = timer_slack_ns();
        let pool = WorkerPool::new(1);
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            (0..3).map(|_| Box::new(timer_slack_ns) as _).collect();
        assert_eq!(pool.scatter_gather(tasks), vec![1_000; 3]);
        assert_eq!(timer_slack_ns(), before, "the caller's thread changed");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let pool = WorkerPool::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let count = count.clone();
            pool.submit(Box::new(move || {
                count.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 16);
    }
}
