//! A dependency-free, channel-based thread pool.
//!
//! Workers pull boxed jobs off a shared `mpsc` channel (the channel acts as
//! the work queue, giving natural work-stealing-like load balancing: a free
//! worker takes the next job regardless of which one stalls). Panics inside
//! jobs are caught per job and come back as that job's `Err(message)`, so
//! one failing simulation cell never takes down the batch.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

/// A job for one pinned worker: a caller-chosen tag, the owned item, and the
/// closure to run on it.
type PinnedJob<T> = (usize, T, Box<dyn FnOnce(&mut T) + Send + 'static>);

/// Slot states for the spin-synchronized per-worker mailbox.
const SLOT_IDLE: u8 = 0; // empty: the submitter may stage a job
const SLOT_READY: u8 = 1; // job staged: the worker should take it
const SLOT_RUNNING: u8 = 2; // worker owns the item
const SLOT_DONE: u8 = 3; // result staged: the submitter should take it

/// How many `spin_loop` iterations a waiter burns before conceding the CPU.
/// Phase gaps in the sharded cycle kernel are a few microseconds, so on a
/// multi-core host waits almost always resolve inside the spin window and
/// the park below is only a safety net. On a single-core host spinning is
/// pure harm — the waiter occupies the only CPU the other side needs — so
/// the budget collapses to zero and every wait yields immediately.
fn spin_limit() -> u32 {
    static LIMIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cpus > 1 {
            1 << 14
        } else {
            0
        }
    })
}

/// One worker's mailbox. The `Mutex`es are never contended (states hand
/// exclusive access back and forth); they exist to move the values across
/// threads in safe Rust while the atomic state carries the synchronization.
struct Slot<T> {
    state: std::sync::atomic::AtomicU8,
    job: Mutex<Option<PinnedJob<T>>>,
    result: Mutex<Option<(usize, T, Option<String>)>>,
}

struct SetShared<T> {
    slots: Vec<Slot<T>>,
    shutdown: std::sync::atomic::AtomicBool,
    outstanding: std::sync::atomic::AtomicUsize,
}

/// A set of persistent worker threads that operate on *owned* state handed
/// back and forth each round — the safe-Rust alternative to scoped mutable
/// sharing for phase-synchronous kernels (the sharded NoC cycle loop sends
/// each shard out for a phase and receives it back at the barrier).
///
/// Unlike [`ThreadPool`], submissions are pinned to a specific worker, and
/// the handoff is a spin-synchronized mailbox rather than a channel: the
/// cycle kernel synchronizes twice per simulated cycle, and the
/// futex sleep/wake round trips of a blocking channel cost more than an
/// entire phase of useful work. Workers spin briefly between jobs (parking
/// with a timeout once idle), so a barrier round trip stays in the
/// microsecond range while an idle set costs almost nothing.
pub struct WorkerSet<T: Send + 'static> {
    shared: Arc<SetShared<T>>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerSet<T> {
    /// Spawns `workers` persistent threads (minimum 1) named `{name}-{i}`.
    pub fn new(workers: usize, name: &str) -> Self {
        use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
        let workers = workers.max(1);
        let shared = Arc::new(SetShared {
            slots: (0..workers)
                .map(|_| Slot {
                    state: AtomicU8::new(SLOT_IDLE),
                    job: Mutex::new(None),
                    result: Mutex::new(None),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        let slot = &shared.slots[i];
                        loop {
                            // Wait for a job: spin first, then park with a
                            // timeout (submit unparks, the timeout is a
                            // missed-wakeup safety net).
                            let mut spins = 0u32;
                            loop {
                                if shared.shutdown.load(Ordering::Acquire) {
                                    return;
                                }
                                if slot.state.load(Ordering::Acquire) == SLOT_READY {
                                    break;
                                }
                                if spins < spin_limit() {
                                    spins += 1;
                                    std::hint::spin_loop();
                                } else {
                                    std::thread::park_timeout(std::time::Duration::from_millis(1));
                                }
                            }
                            let (tag, mut item, job) = lock(&slot.job)
                                .take()
                                .expect("READY slot always holds a job");
                            slot.state.store(SLOT_RUNNING, Ordering::Release);
                            // Isolate panics so the item always comes home;
                            // the submitting thread re-throws on receive.
                            let outcome = catch_unwind(AssertUnwindSafe(|| job(&mut item)));
                            let failed = outcome.err().map(|p| panic_message(p.as_ref()));
                            *lock(&slot.result) = Some((tag, item, failed));
                            slot.state.store(SLOT_DONE, Ordering::Release);
                        }
                    })
                    .expect("spawn pinned worker thread")
            })
            .collect();
        WorkerSet { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Hands `item` to worker `worker` (modulo the worker count) to run
    /// `job`; `tag` is echoed back by [`WorkerSet::recv`]. If that worker
    /// still has an uncollected job, waits for the slot to clear (a
    /// previous `recv` must collect it). The workers outlive every call:
    /// only `Drop` stops them, and it cannot run while this borrows the set.
    pub fn submit(
        &self,
        worker: usize,
        tag: usize,
        item: T,
        job: impl FnOnce(&mut T) + Send + 'static,
    ) {
        use std::sync::atomic::Ordering;
        let idx = worker % self.handles.len();
        let slot = &self.shared.slots[idx];
        // One job in flight per worker: wait out a slot still carrying the
        // previous round (it can only drain through recv on this thread's
        // schedule, so this is effectively never hit by the cycle kernel).
        let mut spins = 0u32;
        while slot.state.load(Ordering::Acquire) != SLOT_IDLE {
            if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        *lock(&slot.job) = Some((tag, item, Box::new(job)));
        slot.state.store(SLOT_READY, Ordering::Release);
        self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
        self.handles[idx].thread().unpark();
    }

    /// Receives one finished item, in completion order across workers.
    /// Returns `None` if no submitted job is outstanding.
    ///
    /// # Panics
    ///
    /// Re-throws the job's panic on the receiving thread, after the item has
    /// been recovered from the worker (the item itself is dropped then).
    pub fn recv(&self) -> Option<(usize, T)> {
        use std::sync::atomic::Ordering;
        if self.shared.outstanding.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut spins = 0u32;
        loop {
            for slot in &self.shared.slots {
                if slot.state.load(Ordering::Acquire) != SLOT_DONE {
                    continue;
                }
                let (tag, item, failed) = lock(&slot.result)
                    .take()
                    .expect("DONE slot always holds a result");
                slot.state.store(SLOT_IDLE, Ordering::Release);
                self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
                if let Some(msg) = failed {
                    resume_unwind(Box::new(msg));
                }
                return Some((tag, item));
            }
            if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Locks a never-contended mailbox mutex, surviving poison (a panicked job
/// is already isolated by `catch_unwind`; the mutex data is always whole).
fn lock<V>(m: &Mutex<V>) -> std::sync::MutexGuard<'_, V> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T: Send + 'static> Drop for WorkerSet<T> {
    fn drop(&mut self) {
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Splits a total thread budget between campaign-level workers and
/// per-simulation shard workers so `--threads N` is never oversubscribed:
/// with `shards` threads serving each simulation, at most `N / shards` cells
/// run concurrently. Returns `(campaign_workers, shards)`, both at least 1;
/// `shards` is clamped to the budget.
pub fn plan_threads(total: usize, shards: usize) -> (usize, usize) {
    let total = total.max(1);
    let shards = shards.clamp(1, total);
    ((total / shards).max(1), shards)
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
    fn worker_set_pins_items_and_returns_them() {
        let set: WorkerSet<Vec<u32>> = WorkerSet::new(3, "test");
        assert_eq!(set.workers(), 3);
        // Dispatch one owned item to each worker, mutate it there, and
        // collect everything back by tag.
        for tag in 0..3usize {
            set.submit(tag, tag, vec![tag as u32], move |v| {
                v.push(99);
            });
        }
        let mut got: Vec<Option<Vec<u32>>> = vec![None; 3];
        for _ in 0..3 {
            let (tag, item) = set.recv().expect("worker alive");
            got[tag] = Some(item);
        }
        for (tag, item) in got.into_iter().enumerate() {
            assert_eq!(item.expect("all tags returned"), vec![tag as u32, 99]);
        }
    }

    #[test]
    fn worker_set_propagates_panics_to_the_receiver() {
        let set: WorkerSet<u32> = WorkerSet::new(1, "panicky");
        set.submit(0, 7, 1, |_| panic!("shard blew up"));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.recv()));
        assert!(caught.is_err(), "worker panic must resurface on recv");
    }

    #[test]
    fn plan_threads_divides_the_budget() {
        // 8 cores, 4 shards: two campaign workers, each driving 4 shard
        // threads — exactly the total budget.
        assert_eq!(plan_threads(8, 4), (2, 4));
        assert_eq!(plan_threads(8, 1), (8, 1));
        // Shards are clamped to the budget; the campaign level degrades to
        // one worker rather than zero.
        assert_eq!(plan_threads(2, 4), (1, 2));
        assert_eq!(plan_threads(1, 1), (1, 1));
        assert_eq!(plan_threads(3, 2), (1, 2));
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
