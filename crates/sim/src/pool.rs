//! A deterministic scoped-thread work pool.
//!
//! The experiment harness runs many independent sweep points (one seeded
//! simulation each). [`RunCtx::map_indexed`] fans them out over scoped
//! threads and returns the results **in input order**, so any computation
//! whose closures are independent produces byte-identical output whether
//! it runs on one thread or many.
//!
//! The pool width is a value, not ambient state: a [`RunCtx`] carries it
//! (with the shard count and the check cadence) down from the caller.
//! Binaries read `ECOSCALE_THREADS` / `ECOSCALE_SHARDS` / `ECOSCALE_CHECK`
//! once, through [`RunCtx::parse`]; library code never reads or writes
//! the environment. A width of 1 runs everything inline on the caller's
//! thread — the determinism baseline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable binaries read for the pool width.
pub const THREADS_ENV: &str = "ECOSCALE_THREADS";

/// How a run executes: the pool width, the sharded engine's shard count
/// and the invariant-check cadence. Results depend on none of them: the
/// first two trade host time for cores, armed checks only observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCtx {
    /// Pool width of [`RunCtx::map`]; 1 runs items inline, in order.
    pub threads: usize,
    /// Shard count of the sharded engine; 1 is the sequential engine.
    pub shards: usize,
    /// Invariant-check cadence ([`crate::check::CheckPlane::armed`]).
    pub check: u64,
}

impl RunCtx {
    /// One thread, one shard, no checks.
    pub const SEQUENTIAL: RunCtx = RunCtx {
        threads: 1,
        shards: 1,
        check: 0,
    };

    /// The context for the raw values of `ECOSCALE_THREADS`,
    /// `ECOSCALE_SHARDS` and `ECOSCALE_CHECK` (`None` when unset). Anything
    /// but a positive integer falls back to the default: every core, one
    /// shard, and no checks when unset, empty or `0`, else cadence 1.
    pub fn parse(threads: Option<&str>, shards: Option<&str>, check: Option<&str>) -> RunCtx {
        let positive = |v: Option<&str>| {
            v.and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
        };
        RunCtx {
            threads: positive(threads).unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            shards: positive(shards).unwrap_or(1),
            check: match check {
                Some(v) if !v.is_empty() && v != "0" => v.parse::<u64>().unwrap_or(1).max(1),
                _ => 0,
            },
        }
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order, on `self.threads` threads. `f` receives the item's index
    /// alongside the item.
    ///
    /// Output is independent of the thread count: each closure runs exactly
    /// once on its own item, and results are slotted back by index. With one
    /// item or a pool width of 1 everything runs inline on the caller's
    /// thread.
    ///
    /// # Example
    ///
    /// ```
    /// use ecoscale_sim::pool::RunCtx;
    ///
    /// let ctx = RunCtx { threads: 4, ..RunCtx::SEQUENTIAL };
    /// let squares = ctx.map_indexed(vec![1u64, 2, 3, 4], |i, x| (i, x * x));
    /// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `f` panics on any item (the panic is propagated when the
    /// scope joins).
    pub fn map_indexed<T, R, F>(self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        // Items are parked in take-once slots; workers self-schedule via an
        // atomic cursor and publish results into per-index cells, so the
        // output order is the input order regardless of completion order.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("item slot poisoned")
                        .take()
                        .expect("each item is taken exactly once");
                    let out = f(i, item);
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot is filled")
            })
            .collect()
    }

    /// [`RunCtx::map_indexed`] without the index.
    pub fn map<T, R, F>(self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }
}

/// A reusable sense-reversing spin barrier for round-based parallel loops.
///
/// The sharded DES engine crosses a barrier several times per safe window
/// — tens of thousands of times per run — so the mutex/condvar cost of
/// [`std::sync::Barrier`] would dominate. This barrier spins (yielding
/// periodically so oversubscribed CI boxes still make progress) and is
/// reusable: generations advance automatically. A party that gives up
/// calls [`RoundBarrier::poison`], which makes every waiter panic instead
/// of spinning forever.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use ecoscale_sim::pool::RoundBarrier;
///
/// let barrier = RoundBarrier::new(4);
/// let sum = AtomicU64::new(0);
/// std::thread::scope(|s| {
///     let (sum, barrier) = (&sum, &barrier);
///     for i in 0..4u64 {
///         s.spawn(move || {
///             sum.fetch_add(i + 1, Ordering::Relaxed);
///             barrier.wait();
///             // all four increments are visible after the barrier
///             assert_eq!(sum.load(Ordering::Relaxed), 10);
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct RoundBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

/// The panic payload of [`RoundBarrier::wait`] on a poisoned barrier. A
/// party that unwinds with it did not fail itself: another party gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

impl RoundBarrier {
    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> RoundBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        RoundBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Breaks the barrier for good: every current and later
    /// [`RoundBarrier::wait`] panics with [`BarrierPoisoned`]. A party
    /// that will never arrive (it panicked) calls this so that the others
    /// do not wait for it forever.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            std::panic::panic_any(BarrierPoisoned);
        }
    }

    /// Blocks until all parties have called `wait` for this generation.
    /// Returns `true` on exactly one thread per crossing (the last
    /// arriver), mirroring `std::sync::Barrier`'s leader flag.
    ///
    /// # Panics
    ///
    /// Panics with a [`BarrierPoisoned`] payload once the barrier is
    /// poisoned.
    pub fn wait(&self) -> bool {
        self.check_poison();
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            self.check_poison();
            spins += 1;
            if spins & 0x3FF == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDE: RunCtx = RunCtx {
        threads: 4,
        ..RunCtx::SEQUENTIAL
    };

    #[test]
    fn preserves_input_order() {
        let out = WIDE.map_indexed((0..100u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(WIDE.map(empty, |x: u32| x).is_empty());
        assert_eq!(WIDE.map(vec![7], |x: u32| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_reference() {
        let work = |i: usize, x: u64| {
            // a little arithmetic so threads interleave
            let mut acc = x;
            for k in 0..50 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(k + i as u64);
            }
            acc
        };
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, &x)| work(i, x)).collect();
        let par = WIDE.map_indexed(items, work);
        assert_eq!(par, seq);
    }

    #[test]
    fn parse_honours_positive_values_and_defaults_the_rest() {
        let cores = RunCtx::parse(None, None, None).threads;
        assert!(cores >= 1);
        assert_eq!(RunCtx::parse(None, None, None).shards, 1);
        for bad in ["0", "", "x"] {
            let ctx = RunCtx::parse(Some(bad), Some(bad), None);
            assert_eq!((ctx.threads, ctx.shards), (cores, 1), "value `{bad}`");
        }
        let ctx = RunCtx::parse(Some("3"), Some(" 3 "), Some("4"));
        assert_eq!((ctx.threads, ctx.shards, ctx.check), (3, 3, 4));
        let check = |v| RunCtx::parse(Some("1"), Some("1"), v).check;
        for off in [None, Some(""), Some("0")] {
            assert_eq!(check(off), 0, "value {off:?}");
        }
        for fallback in ["x", "00", " 4"] {
            assert_eq!(check(Some(fallback)), 1, "value `{fallback}`");
        }
    }

    #[test]
    fn round_barrier_synchronizes_many_rounds() {
        const PARTIES: usize = 4;
        const ROUNDS: usize = 500;
        let barrier = RoundBarrier::new(PARTIES);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // every party has contributed to this round
                        assert!(counter.load(Ordering::Relaxed) >= (round + 1) * PARTIES);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), PARTIES * ROUNDS);
    }

    #[test]
    fn round_barrier_elects_one_leader_per_crossing() {
        let barrier = RoundBarrier::new(3);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn poisoned_round_barrier_releases_waiters_with_its_payload() {
        let barrier = RoundBarrier::new(3);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| barrier.wait())).collect();
            barrier.poison();
            for w in waiters {
                let payload = w.join().expect_err("a poisoned wait panics");
                assert!(payload.is::<BarrierPoisoned>());
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn round_barrier_rejects_zero_parties() {
        let _ = RoundBarrier::new(0);
    }
}
