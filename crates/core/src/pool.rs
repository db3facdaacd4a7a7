//! A std-only worker pool for CPU-heavy gateway work.
//!
//! `insert_many` spends almost all of its time in per-field tactic
//! encryption (Paillier exponentiation, OPE traversal, SSE token PRFs)
//! before a single batched channel round trip. The pool parallelizes
//! that phase across persistent threads while the caller keeps control
//! of ordering: [`WorkerPool::run_ordered`] returns results in
//! submission order, so the batch the gateway assembles is byte-for-byte
//! identical to one whose jobs ran on the caller's thread.
//!
//! No external dependencies: a `Mutex<VecDeque>` + `Condvar` queue and
//! `std::thread` workers. Panics inside a job are caught and re-thrown
//! on the submitting thread, so a poisoned tactic never wedges a worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: Mutex<bool>,
}

/// A fixed-size pool of persistent worker threads.
///
/// Cloning shares the pool (handles to one set of workers). Dropping the
/// last handle shuts the workers down.
pub struct WorkerPool {
    queue: Arc<Queue>,
    depth: Arc<AtomicI64>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads).field("queue_depth", &self.queue_depth()).finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` persistent workers (min 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: Mutex::new(false),
        });
        let depth = Arc::new(AtomicI64::new(0));
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let depth = Arc::clone(&depth);
                std::thread::Builder::new()
                    .name(format!("db-pool-{i}"))
                    .spawn(move || worker_loop(&queue, &depth))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { queue, depth, workers, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs currently queued but not yet picked up — the pool-queue-depth
    /// gauge (`gateway.pool.queue_depth`).
    pub fn queue_depth(&self) -> i64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Runs every closure in `jobs` on the pool and returns their results
    /// **in submission order**. The submitting thread blocks until all
    /// jobs finish and also drains jobs itself while waiting, so a pool
    /// of 1 thread plus the caller still makes progress with 2-way
    /// parallelism and the pool can never deadlock on its own feeder.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) the first panic any job produced.
    pub fn run_ordered<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        {
            let mut q = self.queue.jobs.lock().expect("pool queue");
            for (i, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                q.push_back(Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(job));
                    // Receiver gone means the submitter already panicked;
                    // nothing useful to do with the result.
                    let _ = tx.send((i, out));
                }));
            }
            self.depth.fetch_add(n as i64, Ordering::Relaxed);
        }
        drop(tx);
        self.queue.available.notify_all();

        // Help drain the queue while waiting: steal jobs one at a time so
        // the caller's core is never idle.
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        let mut done = 0;
        while done < n {
            if let Some(job) = self.try_steal() {
                job();
            }
            match rx.try_recv() {
                Ok((i, r)) => {
                    slots[i] = Some(r);
                    done += 1;
                }
                Err(mpsc::TryRecvError::Empty) => {
                    // Block on the channel only when there is nothing to steal.
                    if self.queue_depth() == 0 {
                        if let Ok((i, r)) = rx.recv() {
                            slots[i] = Some(r);
                            done += 1;
                        }
                    }
                }
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        }
        slots
            .into_iter()
            .map(|slot| match slot.expect("pool job result missing") {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }

    fn try_steal(&self) -> Option<Job> {
        let mut q = self.queue.jobs.lock().expect("pool queue");
        let job = q.pop_front();
        if job.is_some() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }
}

fn worker_loop(queue: &Queue, depth: &AtomicI64) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().expect("pool queue");
            loop {
                if let Some(job) = jobs.pop_front() {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    break Some(job);
                }
                if *queue.shutdown.lock().expect("pool shutdown flag") {
                    break None;
                }
                jobs = queue.available.wait(jobs).expect("pool condvar");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        *self.queue.shutdown.lock().expect("pool shutdown flag") = true;
        self.queue.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    // Stagger finish times so out-of-order completion is likely.
                    std::thread::sleep(std::time::Duration::from_micros((64 - i) * 10));
                    i * i
                }
            })
            .collect();
        let out = pool.run_ordered(jobs);
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.run_ordered(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn panic_in_job_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(vec![Box::new(|| panic!("job died")) as Box<dyn FnOnce() + Send>]);
        }));
        assert!(boom.is_err());
        // Workers are still alive and useful afterwards.
        let out = pool.run_ordered(vec![Box::new(|| 7u32) as Box<dyn FnOnce() -> u32 + Send>]);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn queue_depth_settles_to_zero() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<_> = (0..16).map(|i| move || i * 2).collect();
        let _ = pool.run_ordered(jobs);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    let jobs: Vec<_> = (0..8u64).map(|i| move || t * 100 + i).collect();
                    let out = pool.run_ordered(jobs);
                    assert_eq!(out, (0..8u64).map(|i| t * 100 + i).collect::<Vec<_>>());
                });
            }
        });
    }
}
