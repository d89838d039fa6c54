//! A dependency-free, channel-based thread pool.
//!
//! Workers pull boxed jobs off a shared `mpsc` channel (the channel acts as
//! the work queue, giving natural work-stealing-like load balancing: a free
//! worker takes the next job regardless of which one stalls). Panics inside
//! jobs are caught per job and come back as that job's `Err(message)`, so
//! one failing simulation cell never takes down the batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool executing boxed jobs.
pub struct ThreadPool {
    sender: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with exactly `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Task>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("anoc-exec-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while receiving, not while running.
                        let task = {
                            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match task {
                            Ok(task) => task(),
                            Err(_) => break, // all senders dropped: shut down
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Creates a pool sized by [`default_threads`].
    pub fn with_default_size() -> Self {
        ThreadPool::new(default_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one fire-and-forget job.
    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool is shutting down")
            .send(Box::new(job))
            .expect("worker channel closed");
    }

    /// Runs every job and returns the results **in submission order**,
    /// regardless of which worker finished first (the property the campaign
    /// layer relies on for deterministic merges). Panics are isolated per
    /// job: a job that panicked yields `Err(message)`. Never panics itself;
    /// the pool stays usable afterwards. `observe(index, &value)` runs on
    /// the submitting thread as each successful result arrives (completion
    /// order), for progress reporting.
    pub fn run_ordered_results_observed<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        mut observe: impl FnMut(usize, &T),
    ) -> Vec<Result<T, String>> {
        let n = jobs.len();
        let (tx, rx) = channel();
        for (idx, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                // A dropped receiver only happens when the submitter is
                // already unwinding; nothing useful to do with the error.
                let _ = tx.send((idx, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (idx, outcome) = rx.recv().expect("worker died without reporting");
            match outcome {
                Ok(value) => {
                    observe(idx, &value);
                    slots[idx] = Some(Ok(value));
                }
                Err(payload) => slots[idx] = Some(Err(panic_message(payload.as_ref()))),
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reported exactly once"))
            .collect()
    }
}

/// Extracts the human-readable message of a panic payload (`String` or
/// `&str` payloads, which is what `panic!` produces; anything else gets a
/// placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.sender.take(); // close the queue
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The default worker count: the `ANOC_THREADS` environment variable if set
/// (minimum 1), otherwise `std::thread::available_parallelism`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ANOC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    type Job<T> = Box<dyn FnOnce() -> T + Send>;

    /// Runs `jobs` with no observer and unwraps every result.
    fn run_all<T: Send + 'static>(pool: &ThreadPool, jobs: Vec<Job<T>>) -> Vec<T> {
        pool.run_ordered_results_observed(jobs, |_, _| {})
            .into_iter()
            .map(|r| r.expect("job succeeded"))
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = ThreadPool::new(8);
        let jobs: Vec<Job<usize>> = (0..64usize)
            .map(|i| {
                Box::new(move || {
                    // Reverse the natural completion order.
                    std::thread::sleep(std::time::Duration::from_micros(64 - i as u64));
                    i
                }) as Job<usize>
            })
            .collect();
        assert_eq!(run_all(&pool, jobs), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn all_workers_participate() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let jobs: Vec<Job<String>> = (0..32)
            .map(|_| {
                Box::new(|| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    std::thread::current().name().unwrap_or("?").to_string()
                }) as Job<String>
            })
            .collect();
        let names: std::collections::BTreeSet<String> = run_all(&pool, jobs).into_iter().collect();
        assert!(names.len() > 1, "only one worker ran: {names:?}");
    }

    #[test]
    fn observer_sees_every_completion() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<Job<usize>> = (0..10usize)
            .map(|i| Box::new(move || i * 2) as Job<usize>)
            .collect();
        // The observer runs on this thread, so a plain counter suffices.
        let mut seen = 0;
        let results = pool.run_ordered_results_observed(jobs, |idx, value| {
            assert_eq!(*value, idx * 2);
            seen += 1;
        });
        assert_eq!(seen, 10);
        assert_eq!(results.len(), 10);
    }

    #[test]
    fn panics_are_isolated_per_job_and_the_pool_survives() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<Job<usize>> = (0..5usize)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("boom {i}");
                    }
                    i * 10
                }) as Job<usize>
            })
            .collect();
        let mut observed = Vec::new();
        let results = pool.run_ordered_results_observed(jobs, |idx, _| observed.push(idx));
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert_eq!(r.as_ref().unwrap_err(), "boom 2");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 10);
            }
        }
        // The observer sees successes only.
        observed.sort_unstable();
        assert_eq!(observed, vec![0, 1, 3, 4]);
        // The pool is still usable afterwards.
        assert_eq!(
            run_all(&pool, vec![Box::new(|| 1usize) as Job<usize>]),
            vec![1]
        );
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn single_thread_pool_is_strictly_serial() {
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job<usize>> = (0..16)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    let inside = counter.fetch_add(1, Ordering::SeqCst);
                    let v = counter.load(Ordering::SeqCst);
                    counter.fetch_sub(1, Ordering::SeqCst);
                    assert_eq!(v - inside, 1, "two jobs ran concurrently");
                    inside
                }) as Job<usize>
            })
            .collect();
        run_all(&pool, jobs);
    }
}
