#![warn(missing_docs)]

//! Deterministic parallel fan-out for seeded Monte Carlo trials.
//!
//! Every lifetime figure of the evaluation averages first-failure
//! lifetimes over independent seeded trials. Each trial owns its seed and
//! its RNG stream, so trials are embarrassingly parallel — but the
//! *output* (tables, CSVs, float accumulation order) must not depend on
//! the worker count. [`par_map`] provides exactly that contract:
//!
//! * work items are claimed dynamically (an atomic cursor, so uneven
//!   trial lengths balance across workers), and
//! * results are returned **in item order**, bit-for-bit identical to a
//!   serial `items.into_iter().map(f).collect()`.
//!
//! The workspace builds offline from `vendor/`, so this is plain
//! `std::thread::scope` — no rayon, no crossbeam.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// SplitMix64 finalizer: one full-avalanche keyed draw.
///
/// This is the workspace's single shared definition — workload shard
/// seeding, serve backoff jitter, persist fault scheduling, and the
/// round-range RAA engine all derive their independent streams from it,
/// so a stream computed anywhere is reproducible everywhere. Matches the
/// reference SplitMix64 (`splitmix64(0) == 0xE220_A839_7B1D_CDAF`).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent RNG seed for sub-stream `index` of a run keyed by
/// `master`.
///
/// The index is spread by a wyhash-style odd multiplier before the
/// SplitMix64 finalizer, so adjacent indices land far apart in seed
/// space. `srbsg_workloads::shard_seed(master, bank)` is exactly
/// `stream_seed(master, bank as u64)`, and the round-range RAA engine
/// keys round `r` of trial `seed` as `stream_seed(seed, r)`.
#[inline]
pub fn stream_seed(master: u64, index: u64) -> u64 {
    splitmix64(master ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Worker count to use when the caller does not specify one: the number
/// of hardware threads the OS grants this process (1 if unknown).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `jobs` worker threads, returning the
/// results **in item order**.
///
/// Determinism contract: the returned vector is identical to
/// `items.into_iter().map(f).collect()` for any `jobs >= 1` — each item
/// is processed exactly once, by exactly one worker, and no state is
/// shared between invocations of `f`. With `jobs == 1` (or fewer than
/// two items) the map runs inline on the calling thread, so `--jobs 1`
/// is strictly serial execution.
///
/// Panics in `f` are propagated to the caller after all workers have
/// stopped, preserving the original panic payload.
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = jobs.max(1);
    let n = items.len();
    if jobs == 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items sit behind per-slot mutexes so workers can take ownership of
    // the one they claimed; the atomic cursor hands out indices.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let handles: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                let tx = tx.clone();
                let (next, work, f) = (&next, &work, &f);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let r = f(item);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        // Collect until every sender hung up; order of arrival is
        // irrelevant because results land at their item index.
        for (i, r) in rx {
            results[i] = Some(r);
        }
        // Join explicitly so a worker panic re-raises with its original
        // payload rather than scope's generic "a scoped thread panicked".
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker dropped a result"))
        .collect()
}

/// Map `f` over `items` on up to `jobs` workers and fold the results
/// **in item order** into `init` — without materializing the whole result
/// vector first.
///
/// Same determinism contract as [`par_map`]: for any `jobs >= 1` the
/// returned accumulator is identical to
/// `items.into_iter().map(f).fold(init, fold)`. The collector stashes
/// results that arrive ahead of order and folds each one as soon as its
/// predecessors are in. Workers never wait for the fold, so buffering is
/// bounded by how far they run ahead of it: when `fold` keeps up that is
/// about one result per worker, but when `fold` is slower than the
/// workers every result can be produced before the fold catches up, and
/// up to `items.len()` results (one being folded, the rest stashed) are
/// alive at once. Callers with large results and a slow fold should
/// bound `items.len()` per call.
pub fn par_fold<T, R, A, F, G>(items: Vec<T>, jobs: usize, f: F, init: A, mut fold: G) -> A
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    let jobs = jobs.max(1);
    let n = items.len();
    if jobs == 1 || n <= 1 {
        return items.into_iter().map(f).fold(init, fold);
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    // Option dance: the fold consumes and re-produces the accumulator
    // inside the scope closure.
    let mut acc = Some(init);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let handles: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                let tx = tx.clone();
                let (next, work, f) = (&next, &work, &f);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let r = f(item);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        // Fold strictly in item order: out-of-order arrivals wait in the
        // stash until their predecessors have been folded.
        let mut stash: std::collections::BTreeMap<usize, R> = std::collections::BTreeMap::new();
        let mut next_fold = 0usize;
        for (i, r) in rx {
            stash.insert(i, r);
            while let Some(r) = stash.remove(&next_fold) {
                let a = acc.take().expect("accumulator in flight");
                acc = Some(fold(a, r));
                next_fold += 1;
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        assert_eq!(next_fold, n, "worker dropped a result");
    });
    acc.expect("fold completed")
}

/// Run a batch of heterogeneous closures on up to `jobs` workers,
/// returning their results in task order. Convenience wrapper over
/// [`par_map`] for call sites whose work items do not share one type
/// (e.g. benchmarking several wear-leveling schemes side by side).
pub fn par_run<R: Send>(tasks: Vec<Box<dyn FnOnce() -> R + Send>>, jobs: usize) -> Vec<R> {
    par_map(tasks, jobs, |t| t())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 4, 8, 64] {
            let out = par_map(items.clone(), jobs, |x| x * x + 1);
            assert_eq!(out, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn each_item_processed_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = par_map((0..1000u64).collect(), 7, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced_and_ordered() {
        // Front-loaded heavy items: dynamic claiming must still return
        // results in item order.
        let out = par_map((0..64u64).collect(), 4, |i| {
            let spin = if i < 4 { 200_000 } else { 10 };
            let mut acc = i;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx as u64, *i);
        }
    }

    #[test]
    fn zero_jobs_is_clamped_to_serial() {
        assert_eq!(par_map(vec![1, 2, 3], 0, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(Vec::<u8>::new(), 8, |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![9], 8, |x| x * 2), vec![18]);
    }

    #[test]
    fn par_run_executes_heterogeneous_tasks_in_order() {
        let tasks: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "a".to_string()),
            Box::new(|| format!("{}", 6 * 7)),
            Box::new(|| "c".repeat(3)),
        ];
        assert_eq!(par_run(tasks, 2), vec!["a", "42", "ccc"]);
    }

    #[test]
    fn par_fold_matches_serial_fold_for_any_job_count() {
        let items: Vec<u64> = (0..311).collect();
        // Non-commutative fold (string concatenation) so any ordering slip
        // shows up immediately.
        let serial = items
            .iter()
            .map(|&x| x * 3 + 1)
            .fold(String::new(), |mut a, r| {
                a.push_str(&r.to_string());
                a.push(',');
                a
            });
        for jobs in [1, 2, 3, 4, 8, 32] {
            let out = par_fold(
                items.clone(),
                jobs,
                |x| x * 3 + 1,
                String::new(),
                |mut a, r| {
                    a.push_str(&r.to_string());
                    a.push(',');
                    a
                },
            );
            assert_eq!(out, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn par_fold_handles_empty_and_singleton() {
        assert_eq!(
            par_fold(Vec::<u8>::new(), 4, |x| x, 9u32, |a, r| a + r as u32),
            9
        );
        assert_eq!(
            par_fold(vec![5u8], 4, |x| x * 2, 1u32, |a, r| a + r as u32),
            11
        );
    }

    /// Pins `par_fold`'s buffering: with a fold slower than the workers,
    /// every result is alive at once (counted from creation to `Drop`).
    #[test]
    fn par_fold_buffers_all_results_behind_a_slow_fold() {
        use std::sync::atomic::AtomicIsize;
        use std::time::{Duration, Instant};
        struct Counted<'a>(&'a AtomicIsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (live, made) = (AtomicIsize::new(0), AtomicUsize::new(0));
        let n = 16;
        let mut peak = 0;
        par_fold(
            (0..n).collect::<Vec<usize>>(),
            2,
            |_| {
                live.fetch_add(1, Ordering::SeqCst);
                made.fetch_add(1, Ordering::SeqCst);
                Counted(&live)
            },
            (),
            |(), r| {
                // The first fold stalls until the workers have produced
                // every result.
                let t0 = Instant::now();
                while made.load(Ordering::SeqCst) < n && t0.elapsed() < Duration::from_secs(10) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                peak = peak.max(live.load(Ordering::SeqCst));
                drop(r);
            },
        );
        assert_eq!(peak, n as isize, "all {n} results alive behind the fold");
        assert_eq!(live.load(Ordering::SeqCst), 0, "every result dropped");
    }

    #[test]
    #[should_panic(expected = "fold boom")]
    fn par_fold_worker_panic_propagates() {
        par_fold(
            (0..64u64).collect(),
            4,
            |x| {
                if x == 40 {
                    panic!("fold boom");
                }
                x
            },
            0u64,
            |a, r| a + r,
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        par_map(vec![1, 2, 3, 4], 2, |x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn available_jobs_is_at_least_one() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // First outputs of the reference SplitMix64 sequence from seed 0,
        // plus spot checks; these pin the exact bit stream every derived
        // seed in the workspace depends on.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(42), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(splitmix64(0xDEAD_BEEF), 0x4ADF_B90F_68C9_EB9B);
        assert_eq!(splitmix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }

    #[test]
    fn stream_seed_is_pinned_and_collision_free_locally() {
        assert_eq!(stream_seed(42, 0), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(stream_seed(42, 1), 0xC549_D6F3_8899_C014);
        assert_eq!(stream_seed(42, 7), 0x82DB_CC65_DE72_85E0);
        assert_eq!(stream_seed(1, u64::MAX), 0x9633_3305_2DA7_F39F);
        assert_eq!(stream_seed(0xFEED, 123_456_789), 0x3372_728D_59E4_2A13);
        let mut seeds: Vec<u64> = (0..4096).map(|r| stream_seed(7, r)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4096, "per-round seeds must not collide");
    }
}
