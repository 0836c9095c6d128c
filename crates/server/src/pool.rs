//! Fixed worker thread pool for the front door's blocking socket work.
//!
//! A worker holds a session only for its handshake (read the `Hello`,
//! confirm, register) and for its terminal notice (write `Done` or
//! `Evicted`, half-close, linger for the peer's FIN); while the session
//! is served, the serving core's worker writes its deltas. So the pool
//! size does not cap live sessions: admission does. A panicking job is
//! contained: the worker catches it and moves to the next job, so one
//! broken session never shrinks the pool.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool; see the module docs.
pub struct WorkerPool {
    tx: Option<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (minimum 1) named `name-<i>`.
    pub fn new(workers: usize, name: &str) -> WorkerPool {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the recv: jobs run
                        // outside it so workers drain in parallel.
                        let job = match rx.lock().recv() {
                            Ok(job) => job,
                            Err(_) => return,
                        };
                        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
        }
    }

    /// The dispatcher: a sender the listener keeps for its lifetime.
    /// Workers only exit once every such sender is dropped *and* the
    /// pool's own half is closed by `join`.
    pub fn job_sender(&self) -> mpsc::Sender<Job> {
        self.tx.as_ref().expect("pool already joined").clone()
    }

    /// Stop accepting jobs, run out the queue, and join every worker.
    pub fn join(mut self) {
        self.tx = None; // close the channel: workers exit when drained
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_panics_are_contained() {
        let pool = WorkerPool::new(3, "test");
        let jobs = pool.job_sender();
        let done = Arc::new(AtomicUsize::new(0));
        jobs.send(Box::new(|| panic!("contained"))).unwrap();
        for _ in 0..10 {
            let done = Arc::clone(&done);
            let job = move || {
                done.fetch_add(1, Ordering::SeqCst);
            };
            jobs.send(Box::new(job)).unwrap();
        }
        drop(jobs);
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }
}
