//! Parallel Monte-Carlo trial runner.
//!
//! Every experiment in this workspace is "run `k` independent trials of a
//! stochastic job and aggregate".  [`run_trials`] fans the trials out over
//! a scoped `std::thread` pool (work-stealing via a shared atomic cursor),
//! deriving one independent RNG per trial from a master seed, so the result
//! vector is **identical** whether the sweep ran on 1 or 64 threads —
//! determinism is part of the contract and is covered by an integration
//! test.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

use radio_graph::{child_rng, Xoshiro256pp};

/// Runs `trials` independent jobs in parallel.
///
/// `job(i, rng)` receives the trial index and a generator derived from
/// `master_seed` and `i` only — never share state between trials through
/// captured variables unless it is read-only.
///
/// The worker count defaults to the machine's available parallelism and can
/// be capped with the `RADIO_THREADS` environment variable (any positive
/// integer; zero or non-numeric values abort with a clear message) — useful
/// for stable benchmarking and shared CI boxes.  Thread count never affects
/// results.
pub fn run_trials<T, F>(trials: usize, master_seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256pp) -> T + Sync,
{
    let workers = worker_count(trials);
    if workers <= 1 || trials <= 1 {
        return run_trials_serial(trials, master_seed, job);
    }

    // Each worker claims trial indices from a shared cursor and writes the
    // result into the trial's own slot, so output order is index order no
    // matter which thread ran which trial.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(trials);
    slots.resize_with(trials, || None);
    let out = Disjoint::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (cursor, job, out) = (&cursor, &job, &out);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let mut rng = child_rng(master_seed, i as u64);
                let result = job(i, &mut rng);
                // SAFETY: `i` is claimed by exactly one worker (fetch_add
                // is unique per index), so each slot is written at most
                // once with no aliasing.
                unsafe { out.range(i, 1)[0] = Some(result) };
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every trial slot filled"))
        .collect()
}

/// Parses a raw `RADIO_THREADS` value.
///
/// `None` (variable unset) is `Ok(None)`: use the machine's available
/// parallelism.  A positive integer is `Ok(Some(n))`.  Anything else —
/// `0`, negative, non-numeric — is an `Err` with a user-facing message;
/// a silent fallback here would make "I capped the benchmark to one
/// thread" failures invisible.
pub fn parse_radio_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "RADIO_THREADS must be a positive integer (worker-thread cap), got {raw:?}"
        )),
    }
}

/// The worker-thread budget for `tasks` parallel tasks: the validated
/// `RADIO_THREADS` override when set, otherwise the machine's available
/// parallelism — always capped at the task count.
///
/// Panics with a clear message when `RADIO_THREADS` is set to an invalid
/// value (zero or non-numeric); see [`parse_radio_threads`].
pub fn thread_budget(tasks: usize) -> usize {
    let env = std::env::var("RADIO_THREADS").ok();
    parse_radio_threads(env.as_deref())
        .unwrap_or_else(|msg| panic!("{msg}"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .min(tasks.max(1))
}

/// Worker-thread budget for a trial sweep (alias kept for readability at
/// the call sites below).
fn worker_count(trials: usize) -> usize {
    thread_budget(trials)
}

/// Workers for an intra-round loop over `blocks` row blocks: the spec's
/// explicit `threads`, else [`thread_budget`], clamped to `1..=blocks`.
pub(crate) fn block_workers(threads: Option<usize>, blocks: usize) -> usize {
    threads
        .unwrap_or_else(|| thread_budget(blocks))
        .clamp(1, blocks.max(1))
}

/// The work-stealing block loop behind the tiled merge and both sweep
/// fills: calls `work(scratch, block)` once for every block in
/// `0..blocks`.  The calling thread works on `scratches[0]` and one scoped
/// thread on each further scratch (at most `blocks` workers in all), each
/// claiming the next block from one shared cursor; with one scratch or
/// fewer than two blocks it runs inline and spawns no thread.  Which
/// worker gets which block differs from call to call, so callers must
/// combine the scratches in a way that does not depend on it.
pub(crate) fn for_each_block<S: Send>(
    blocks: usize,
    scratches: &mut [S],
    work: impl Fn(&mut S, usize) + Sync,
) {
    let cursor = AtomicUsize::new(0);
    let claim = |scratch: &mut S| loop {
        let block = cursor.fetch_add(1, Ordering::Relaxed);
        if block >= blocks {
            break;
        }
        work(scratch, block);
    };
    let workers = scratches.len().min(blocks);
    let Some((first, rest)) = scratches[..workers].split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        return claim(first);
    }
    std::thread::scope(|scope| {
        for scratch in rest {
            scope.spawn(|| claim(scratch));
        }
        claim(first);
    });
}

/// A mutable slice whose disjoint ranges several workers write at once
/// (the trial slots here, the tiled merge's planes).
pub(crate) struct Disjoint<'a, T>(*mut T, usize, PhantomData<&'a mut [T]>);

// SAFETY: workers reach the slice only through `range`, whose callers
// keep concurrent ranges disjoint.
unsafe impl<T: Send> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Disjoint(slice.as_mut_ptr(), slice.len(), PhantomData)
    }

    /// The `len` elements from `start`.  Safety: no two ranges in use at
    /// the same time may overlap.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range(&self, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.1, "range past the slice");
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Serial twin of [`run_trials`]; used by the determinism tests and handy
/// when a job is itself internally parallel.
pub fn run_trials_serial<T, F>(trials: usize, master_seed: u64, mut job: F) -> Vec<T>
where
    F: FnMut(usize, &mut Xoshiro256pp) -> T,
{
    (0..trials)
        .map(|i| {
            let mut rng = child_rng(master_seed, i as u64);
            job(i, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_equals_serial() {
        let par = run_trials(64, 99, |i, rng| (i, rng.next()));
        let ser = run_trials_serial(64, 99, |i, rng| (i, rng.next()));
        assert_eq!(par, ser);
    }

    #[test]
    fn trials_are_independent_streams() {
        let out = run_trials(8, 1, |_, rng| rng.next());
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len(), "trial streams collided");
    }

    #[test]
    fn zero_trials() {
        let out: Vec<u64> = run_trials(0, 1, |_, rng| rng.next());
        assert!(out.is_empty());
    }

    #[test]
    fn order_preserved() {
        let out = run_trials(100, 7, |i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn radio_threads_env_caps_workers() {
        // Serialized against other env-touching tests by being the only one.
        std::env::set_var("RADIO_THREADS", "1");
        assert_eq!(worker_count(8), 1);
        let par = run_trials(16, 5, |i, rng| (i, rng.next()));
        let ser = run_trials_serial(16, 5, |i, rng| (i, rng.next()));
        assert_eq!(par, ser);

        // The cap at the trial count still applies.
        std::env::set_var("RADIO_THREADS", "64");
        assert_eq!(worker_count(2), 2);
        std::env::remove_var("RADIO_THREADS");
    }

    #[test]
    fn parse_radio_threads_validation() {
        assert_eq!(parse_radio_threads(None), Ok(None));
        assert_eq!(parse_radio_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_radio_threads(Some(" 8 ")), Ok(Some(8)));
        for bad in ["0", "-2", "lots", "", "1.5"] {
            let err = parse_radio_threads(Some(bad)).unwrap_err();
            assert!(
                err.contains("RADIO_THREADS") && err.contains(bad),
                "message should name the variable and the bad value: {err}"
            );
        }
    }
}
