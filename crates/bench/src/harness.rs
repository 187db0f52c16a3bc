//! The one timing harness behind every suite's wall rows: warm-up, N timed
//! samples, median and p99, the allocation count of one warm call, and a
//! per-run observability snapshot.

use std::sync::Mutex;
use std::time::Instant;

use crate::alloc_track::{count_allocs, counting_allocator_active};

/// Median and p99 of one timed sample set, in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Median sample.
    pub median_ns: u64,
    /// 99th-percentile sample (the maximum below 100 samples).
    pub p99_ns: u64,
}

/// Calls `f` `warmup` times untimed, then times `samples` (at least one)
/// further calls.
pub fn time(warmup: usize, samples: usize, f: &mut dyn FnMut()) -> Timing {
    for _ in 0..warmup {
        f();
    }
    let mut ns: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
        })
        .collect();
    ns.sort_unstable();
    Timing {
        median_ns: ns[ns.len() / 2],
        p99_ns: ns[(ns.len() * 99 / 100).min(ns.len() - 1)],
    }
}

/// Heap allocations one call of `f` performs on this thread, or `None`
/// when [`crate::alloc_track::CountingAlloc`] is not this process's
/// allocator (`repro` installs it; the library's unit tests do not, and
/// must report "not measured" rather than a bogus zero).
pub fn allocs(f: impl FnOnce()) -> Option<u64> {
    counting_allocator_active().then(|| count_allocs(f))
}

/// Serializes [`observed`] runs: the metric registry is process-global,
/// so two concurrent runs (unit tests) would reset and snapshot through
/// each other.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the metric registry to itself — reset on entry,
/// snapshotted on exit — so the snapshot describes `f` alone.
pub fn observed<T>(f: impl FnOnce() -> T) -> (T, tsad_obs::Snapshot) {
    let _serialize = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tsad_obs::reset_all();
    let out = f();
    (out, tsad_obs::snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p99_come_from_the_sorted_samples() {
        let mut calls = 0;
        let t = time(2, 5, &mut || calls += 1);
        assert_eq!(calls, 7);
        assert!(t.median_ns <= t.p99_ns);
        // zero samples still times one call
        let mut calls = 0;
        time(0, 0, &mut || calls += 1);
        assert_eq!(calls, 1);
    }
}
