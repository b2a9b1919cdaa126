//! The one worker pool behind every parallel fold: a unit's chunk states
//! and a directory tree's files.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Run `work` on every job and hand the results to `fold` on the calling
/// thread in position order, so a parallel run folds what the serial loop
/// folds, in the same order, whatever the thread count — also where the
/// fold is not commutative.
///
/// A job is `(position, input)`. The positions are `0, 1, 2, …`, each
/// given once, in any order: `jobs` yields them in the order they should
/// start. Up to `threads` scoped workers run `work`. Jobs are pulled on the
/// calling thread; at most `threads` wait in the queue, and at most
/// `2 × threads` are started but not yet folded, except that pulling goes
/// on while the next position to fold has not started (so a start order
/// that puts it last cannot stall the run).
///
/// `fold` returns `false` to end the run: no further job is pulled, the
/// queued ones are discarded, and the running ones finish unseen. A panic
/// in `work` is re-raised here once the workers have stopped. With one
/// thread (or none) this is a plain loop on the calling thread.
///
/// ```
/// use pg_hive_graph::fold_in_order;
///
/// let mut squares = Vec::new();
/// // Start the largest position first; the folds still come in order.
/// let jobs = (0..5).rev().map(|i| (i, i));
/// fold_in_order(3, jobs, |i| i * i, |sq| {
///     squares.push(sq);
///     true
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
/// Re-raises a panic of `work`, and panics when `jobs` ends with a
/// position skipped.
pub fn fold_in_order<J, T, W, F>(
    threads: usize,
    jobs: impl IntoIterator<Item = (usize, J)>,
    work: W,
    mut fold: F,
) where
    J: Send,
    T: Send,
    W: Fn(J) -> T + Sync,
    F: FnMut(T) -> bool,
{
    // Started jobs by position: `None` while running, then the result
    // until every earlier position has folded.
    let mut waiting: BTreeMap<usize, Option<T>> = BTreeMap::new();
    let mut next = 0;
    let finished = if threads <= 1 {
        jobs.into_iter().all(|(pos, input)| {
            waiting.insert(pos, Some(work(input)));
            fold_ready(&mut waiting, &mut next, &mut fold)
        })
    } else {
        let (queue, queued) = mpsc::sync_channel::<(usize, J)>(threads);
        let queued = Mutex::new(queued);
        let (done_tx, done) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (queued, work, done_tx) = (&queued, &work, done_tx.clone());
                scope.spawn(move || loop {
                    // Hold the lock only while popping, so workers overlap.
                    let job = queued
                        .lock()
                        .expect("queue lock holders do not panic")
                        .recv();
                    let Ok((pos, input)) = job else { return };
                    // A panic comes back as a result, so the calling thread
                    // never waits for a job that will not finish.
                    let result = panic::catch_unwind(AssertUnwindSafe(|| work(input)));
                    if done_tx.send((pos, result)).is_err() {
                        return;
                    }
                });
            }
            drop(done_tx);

            let mut jobs = jobs.into_iter().fuse();
            let mut running = 0usize;
            let finished = loop {
                if waiting.len() < 2 * threads || !waiting.contains_key(&next) {
                    if let Some((pos, input)) = jobs.next() {
                        waiting.insert(pos, None);
                        running += 1;
                        queue
                            .send((pos, input))
                            .expect("the queue outlives this loop");
                        continue;
                    }
                }
                if running == 0 {
                    break true;
                }
                let (pos, result) = done.recv().expect("workers run until the queue closes");
                running -= 1;
                // Unwinding closes the queue, so the workers stop.
                let result = result.unwrap_or_else(|payload| panic::resume_unwind(payload));
                waiting.insert(pos, Some(result));
                if !fold_ready(&mut waiting, &mut next, &mut fold) {
                    break false;
                }
            };
            // Close the queue and discard what is still in it; running jobs
            // finish and their workers exit.
            drop(queue);
            while queued
                .lock()
                .expect("queue lock holders do not panic")
                .try_recv()
                .is_ok()
            {}
            finished
        })
    };
    if finished {
        assert!(
            waiting.is_empty(),
            "fold_in_order: position {next} never came"
        );
    }
}

/// Fold every finished result that is next in position order. Returns
/// `false` once `fold` ends the run.
fn fold_ready<T>(
    waiting: &mut BTreeMap<usize, Option<T>>,
    next: &mut usize,
    fold: &mut impl FnMut(T) -> bool,
) -> bool {
    while let Some(result) = waiting.get_mut(next).and_then(Option::take) {
        waiting.remove(next);
        *next += 1;
        if !fold(result) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A xorshift stream: the per-job delays and the start permutation.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn every_position_folds_once_and_in_order_at_every_thread_count() {
        const JOBS: usize = 48;
        for threads in 1..=7 {
            let mut rand = xorshift(0x9E37_79B9 + threads as u64);
            let delays: Vec<u64> = (0..JOBS).map(|_| rand() % 700).collect();
            // Fisher–Yates: the start order is a random permutation.
            let mut start: Vec<usize> = (0..JOBS).collect();
            for i in (1..JOBS).rev() {
                start.swap(i, (rand() % (i as u64 + 1)) as usize);
            }
            let runs: Vec<AtomicUsize> = (0..JOBS).map(|_| AtomicUsize::new(0)).collect();
            let mut folded = Vec::new();
            fold_in_order(
                threads,
                start.iter().map(|&pos| (pos, pos)),
                |pos| {
                    runs[pos].fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(delays[pos]));
                    pos
                },
                |pos| {
                    folded.push(pos);
                    true
                },
            );
            assert_eq!(folded, (0..JOBS).collect::<Vec<_>>(), "threads {threads}");
            let runs: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
            assert_eq!(runs, vec![1; JOBS], "threads {threads}");
        }
    }

    #[test]
    fn a_false_fold_ends_a_run_over_endless_jobs() {
        const STOP: usize = 10;
        for threads in 1..=7 {
            let runs = AtomicUsize::new(0);
            let mut folded = 0;
            fold_in_order(
                threads,
                (0..).map(|pos| (pos, pos)),
                |pos| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    pos
                },
                |pos| {
                    folded += 1;
                    pos < STOP
                },
            );
            assert_eq!(folded, STOP + 1, "threads {threads}");
            let past_stop = runs.load(Ordering::Relaxed) - (STOP + 1);
            assert!(
                past_stop <= 2 * threads,
                "threads {threads}: {past_stop} ran past the stop"
            );
        }
    }

    #[test]
    fn a_panicking_job_is_re_raised_on_the_caller() {
        for threads in 1..=4 {
            let outcome = panic::catch_unwind(|| {
                fold_in_order(
                    threads,
                    (0..50).map(|pos| (pos, pos)),
                    |pos| {
                        if pos == 3 {
                            panic!("job 3 failed");
                        }
                        pos
                    },
                    |_| true,
                )
            });
            let payload = outcome.expect_err("the job's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"job 3 failed"),
                "threads {threads}"
            );
        }
    }
}
