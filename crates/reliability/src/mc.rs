//! Deterministic parallel Monte-Carlo engine.
//!
//! Every headline result of the reproduction (Fig 5 C2C BER, Table 4
//! retention BER, Fig 6 response times, Fig 7 endurance) comes out of
//! Monte-Carlo trial loops or independent simulation sweeps. This module
//! is the shared execution engine for all of them, built around one
//! contract:
//!
//! > **The result is a pure function of `(work, total_trials, base_seed,
//! > shard granularity)` — never of the thread count or the OS
//! > scheduler.**
//!
//! Three mechanisms enforce the contract:
//!
//! 1. **Fixed sharding.** Trials are split into a shard count derived
//!    only from the trial count and the [`McOptions`] granularity knobs —
//!    not from the machine. Threads are a pool that pulls shards off a
//!    shared counter; 1 thread and 64 threads execute the same shards.
//! 2. **Counter-derived RNG streams.** Shard `i` seeds its own
//!    [`StdRng`] from `splitmix64(base_seed) ⊕ splitmix64(i)`-style
//!    mixing ([`shard_seed`]), so streams are decorrelated and
//!    reproducible without any cross-shard state.
//! 3. **Fixed-order reduction.** Per-shard outputs land in a slot table
//!    indexed by shard and are merged in ascending shard order after all
//!    workers join, so floating-point accumulation order is stable.
//!
//! The number of worker threads defaults to the `FLEXLEVEL_THREADS`
//! environment variable, falling back to the machine's parallelism
//! (see [`resolve_threads`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "FLEXLEVEL_THREADS";

/// Tuning knobs of the engine. The defaults suit BER-style trial loops
/// where one trial costs well under a microsecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McOptions {
    /// Worker threads; `0` = auto ([`resolve_threads`]). Has **no**
    /// effect on results, only on wall-clock.
    pub threads: u32,
    /// Minimum trials per shard. Affects results (it changes the shard
    /// layout), so it is part of the determinism contract and must be
    /// held fixed when comparing runs.
    pub min_shard_trials: u64,
    /// Upper bound on the shard count. Part of the determinism contract,
    /// like `min_shard_trials`.
    pub max_shards: u32,
}

impl Default for McOptions {
    fn default() -> McOptions {
        McOptions {
            threads: 0,
            min_shard_trials: 8_192,
            max_shards: 256,
        }
    }
}

impl McOptions {
    /// Returns the options with an explicit worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: u32) -> McOptions {
        self.threads = threads;
        self
    }
}

/// Resolves a requested thread count: a positive request wins, then
/// `FLEXLEVEL_THREADS`, then the machine's available parallelism
/// (capped at 32). Always at least 1.
pub fn resolve_threads(requested: u32) -> u32 {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
        .min(32)
}

/// Number of shards `total_trials` splits into — a pure function of the
/// trial count and the options, independent of threads and machine.
pub fn shard_count(total_trials: u64, options: &McOptions) -> u32 {
    let by_granularity = total_trials / options.min_shard_trials.max(1);
    by_granularity.clamp(1, options.max_shards.max(1) as u64) as u32
}

/// The deterministic seed of shard `index` under `base_seed`: both
/// inputs pass through SplitMix64 so neighbouring seeds and neighbouring
/// shard indices still yield decorrelated streams.
pub fn shard_seed(base_seed: u64, index: u32) -> u64 {
    let mut a = base_seed;
    let mut b = 0x5851_F42D_4C95_7F2D ^ u64::from(index);
    rand::splitmix64(&mut a) ^ rand::splitmix64(&mut b)
}

/// A fresh [`StdRng`] positioned at the start of shard `index`'s stream.
pub fn shard_rng(base_seed: u64, index: u32) -> StdRng {
    StdRng::seed_from_u64(shard_seed(base_seed, index))
}

/// Runs `total_trials` Monte-Carlo trials of `task`, sharded across a
/// thread pool, and returns the per-shard outputs **in shard order**.
///
/// `task(shard_index, trials, rng)` must derive all randomness from the
/// provided `rng`; under that condition the returned vector is identical
/// for every thread count, including 1.
///
/// ```
/// use reliability::mc::{self, McOptions};
/// use rand::Rng;
///
/// let opts = McOptions { min_shard_trials: 1_000, ..McOptions::default() };
/// let heads: u64 = mc::run_trials(100_000, 7, &opts, |_, trials, rng| {
///     (0..trials).filter(|_| rng.gen_bool(0.5)).count() as u64
/// })
/// .into_iter()
/// .sum();
/// assert!((45_000..55_000).contains(&heads));
/// ```
pub fn run_trials<T, F>(total_trials: u64, base_seed: u64, options: &McOptions, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32, u64, &mut StdRng) -> T + Sync,
{
    let shards = shard_count(total_trials, options);
    let per_shard = total_trials / u64::from(shards);
    let remainder = total_trials % u64::from(shards);
    let trials_of = |index: u32| per_shard + u64::from(u64::from(index) < remainder);
    let run_shard = |index: u32| {
        let mut rng = shard_rng(base_seed, index);
        task(index, trials_of(index), &mut rng)
    };

    let workers = resolve_threads(options.threads).min(shards);
    if workers <= 1 {
        return (0..shards).map(run_shard).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= shards as usize {
                    break;
                }
                let out = run_shard(index as u32);
                *slots[index].lock().expect("MC result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("MC result slot poisoned")
                .expect("every shard ran")
        })
        .collect()
}

/// Shards dispatched per wave by [`run_trials_until`]. Part of the
/// determinism contract, like `min_shard_trials`: the stop predicate is
/// only consulted at wave boundaries, so the executed shard prefix — and
/// therefore the result — is a pure function of the work and the seed,
/// never of the thread count or scheduler timing.
pub const WAVE_SHARDS: u32 = 8;

/// [`run_trials`] with a deterministic early exit.
///
/// Shards are dispatched in fixed waves of [`WAVE_SHARDS`]; after each
/// wave fully completes, `stop` is evaluated on the ordered prefix of
/// shard outputs collected so far, and a `true` verdict stops dispatch.
/// Because the predicate only ever sees completed whole waves, which
/// shards execute cannot depend on thread interleaving — 1 worker and 64
/// workers run the exact same prefix. The returned vector is that prefix,
/// in shard order; callers that need the executed trial count should have
/// each shard report its own (the engine's trial split is
/// [`run_trials`]'s: `total_trials` over [`shard_count`] shards,
/// remainder to the low shards).
pub fn run_trials_until<T, F, P>(
    total_trials: u64,
    base_seed: u64,
    options: &McOptions,
    task: F,
    stop: P,
) -> Vec<T>
where
    T: Send,
    F: Fn(u32, u64, &mut StdRng) -> T + Sync,
    P: Fn(&[T]) -> bool,
{
    let shards = shard_count(total_trials, options);
    let per_shard = total_trials / u64::from(shards);
    let remainder = total_trials % u64::from(shards);
    let trials_of = |index: u32| per_shard + u64::from(u64::from(index) < remainder);
    let run_shard = |index: u32| {
        let mut rng = shard_rng(base_seed, index);
        task(index, trials_of(index), &mut rng)
    };

    let workers = resolve_threads(options.threads).min(shards);
    let mut results: Vec<T> = Vec::with_capacity(shards as usize);
    let mut wave_start = 0u32;
    while wave_start < shards {
        let wave_end = (wave_start + WAVE_SHARDS).min(shards);
        let wave = wave_end - wave_start;
        if workers <= 1 || wave <= 1 {
            results.extend((wave_start..wave_end).map(run_shard));
        } else {
            let slots: Vec<Mutex<Option<T>>> = (0..wave).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers.min(wave) {
                    scope.spawn(|| loop {
                        let offset = next.fetch_add(1, Ordering::Relaxed);
                        if offset >= slots.len() {
                            break;
                        }
                        let out = run_shard(wave_start + offset as u32);
                        *slots[offset].lock().expect("MC result slot poisoned") = Some(out);
                    });
                }
            });
            results.extend(slots.into_iter().map(|slot| {
                slot.into_inner()
                    .expect("MC result slot poisoned")
                    .expect("every shard ran")
            }));
        }
        wave_start = wave_end;
        if stop(&results) {
            break;
        }
    }
    results
}

/// Applies `f` to every item of `items` on the thread pool and returns
/// the outputs in input order. The per-item work must be deterministic
/// for the map to be; the engine only guarantees ordering and isolation.
///
/// This is the engine behind independent *sweeps* — evaluating a grid of
/// NUNMA candidates, or replaying several traces × schemes concurrently.
pub fn parallel_map<I, T, F>(items: Vec<I>, threads: u32, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let workers = resolve_threads(threads).min(items.len().max(1) as u32);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }

    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..inputs.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= inputs.len() {
                    break;
                }
                let item = inputs[index]
                    .lock()
                    .expect("MC input slot poisoned")
                    .take()
                    .expect("each item is taken once");
                let out = f(index, item);
                *slots[index].lock().expect("MC result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("MC result slot poisoned")
                .expect("every item ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn opts(threads: u32) -> McOptions {
        McOptions {
            threads,
            min_shard_trials: 500,
            max_shards: 64,
        }
    }

    #[test]
    fn shard_layout_is_machine_independent() {
        let o = McOptions::default();
        assert_eq!(shard_count(0, &o), 1);
        assert_eq!(shard_count(1, &o), 1);
        assert_eq!(shard_count(8_192, &o), 1);
        assert_eq!(shard_count(81_920, &o), 10);
        assert_eq!(shard_count(u64::MAX, &o), 256);
    }

    #[test]
    fn shard_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for shard in 0..64 {
                assert!(seen.insert(shard_seed(base, shard)), "collision");
            }
        }
    }

    #[test]
    fn trial_counts_are_conserved() {
        for total in [0u64, 1, 499, 500, 12_345, 100_000] {
            let counts = run_trials(total, 9, &opts(1), |_, n, _| n);
            assert_eq!(counts.iter().sum::<u64>(), total, "total {total}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let sample = |threads: u32, seed: u64| -> Vec<u64> {
            run_trials(20_000, seed, &opts(threads), |_, n, rng| {
                (0..n).map(|_| rng.gen_range(0u64..1_000_000)).sum()
            })
        };
        for seed in [1u64, 7, 42] {
            let serial = sample(1, seed);
            for threads in [2u32, 3, 8] {
                assert_eq!(serial, sample(threads, seed), "threads {threads}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let sums = |seed| {
            run_trials(5_000, seed, &opts(2), |_, n, rng| {
                (0..n).map(|_| rng.gen_range(0u64..1_000)).sum::<u64>()
            })
        };
        assert_ne!(sums(1), sums(2));
    }

    #[test]
    fn task_sees_its_shard_index() {
        let indices = run_trials(50_000, 3, &opts(4), |i, _, _| i);
        let expected: Vec<u32> = (0..indices.len() as u32).collect();
        assert_eq!(indices, expected);
    }

    #[test]
    fn until_without_stop_matches_run_trials() {
        let task = |_: u32, n: u64, rng: &mut StdRng| -> u64 {
            (0..n).map(|_| rng.gen_range(0u64..1_000)).sum()
        };
        let full = run_trials(20_000, 13, &opts(2), task);
        let until = run_trials_until(20_000, 13, &opts(2), task, |_| false);
        assert_eq!(full, until);
    }

    #[test]
    fn until_stops_on_whole_wave_boundaries() {
        // 20_000 trials / 500 min per shard → 40 shards, 5 waves of 8.
        let shards = run_trials_until(
            20_000,
            13,
            &opts(4),
            |i, _, _| i,
            |done| done.len() >= 11, // mid-wave target → rounds up to 2 waves
        );
        assert_eq!(shards, (0..2 * WAVE_SHARDS).collect::<Vec<u32>>());
    }

    #[test]
    fn until_prefix_identical_across_thread_counts() {
        let run = |threads: u32| {
            run_trials_until(
                20_000,
                21,
                &opts(threads),
                |_, n, rng| (0..n).map(|_| rng.gen_range(0u64..1_000)).sum::<u64>(),
                |done| done.iter().sum::<u64>() > 4_000_000,
            )
        };
        let serial = run(1);
        assert!(serial.len() < 40, "stop predicate should fire early");
        assert_eq!(serial.len() % WAVE_SHARDS as usize, 0);
        for threads in [2u32, 8] {
            assert_eq!(serial, run(threads), "threads {threads}");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(items.clone(), 1, |i, x| (i as u64) * 1_000 + x * x);
        let threaded = parallel_map(items, 8, |i, x| (i as u64) * 1_000 + x * x);
        assert_eq!(serial, threaded);
        assert_eq!(serial[3], 3_009);
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
