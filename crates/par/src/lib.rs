//! Deterministic fork–join parallelism for the `arvis` hot paths.
//!
//! This crate plays the role rayon would play on a crates.io build, with two
//! deliberate differences:
//!
//! 1. **Determinism by construction.** Every primitive decomposes work along
//!    boundaries derived from the *data* (fixed chunk sizes, recursive
//!    midpoints), never from the worker count. A callback observes exactly
//!    the same `(index, chunk)` pairs whether the pool has 1 or 64 workers,
//!    so floating-point accumulations performed per-chunk are bit-identical
//!    across worker counts, one worker included. This is what lets the
//!    session batch and the quality crate promise "serial and parallel runs
//!    produce bit-identical results".
//! 2. **No pool, no dependencies.** Workers are `std::thread::scope` threads
//!    spawned per call, ~10 µs per thread, which only work of a millisecond
//!    or more amortizes (batch runs, kd-tree queries, quality metrics). The
//!    encoded pipeline's verify pass is one such call per run: no control
//!    decision waits for a frame's lossless check, so a 120-slot run checks
//!    all its frames (~70 ms of work) in one fan-out and pays one spawn per
//!    worker, where a fan-out per slot would pay one every ~600 µs. An
//!    octree build of a 20k-point frame takes about a millisecond and does
//!    not fan out: with its eight fan-outs it was slower than serial on two
//!    cores, and its one scan of sorted codes is serial by nature. A call
//!    whose data fits in one chunk runs inline and spawns nothing. The
//!    worker count itself is read once per process. Short per-slot fan-outs
//!    (a ~200 µs slot of the shared uplink) pay the spawns in full; a
//!    persistent pool would remove that cost, at the price of more than the
//!    ~200 lines of safe code the whole workspace can audit today.
//!
//! [`workers`] is the one serial switch. With one worker (one available
//! core, as under `taskset -c 0`, or inside a [`serial_scope`]) every
//! primitive runs the equivalent serial loop on the calling thread and
//! creates no threads. The equivalence tests use [`serial_scope`] to compare
//! both modes inside one binary.

#![deny(missing_docs)]
// `deny`, not `forbid`: this crate is the workspace's one `unsafe`
// allowlist entry (see `arvis-lint`'s no-unsafe rule), so a future
// prefetching micro-kernel could opt in locally. Today it holds no unsafe
// code at all.
#![deny(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with all primitives forced to serial, inline execution on the
/// calling thread (used by serial-vs-parallel equivalence tests).
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SERIAL.with(|s| {
        let prev = s.replace(true);
        let out = f();
        s.set(prev);
        out
    })
}

/// The number of workers fork–join calls may fan out to: the machine's
/// available parallelism, or 1 while a [`serial_scope`] is active.
///
/// The available parallelism is read once per process and then cached:
/// `std::thread::available_parallelism` reads cgroup files, ~20 µs per
/// call, which every fan-out would otherwise pay.
pub fn workers() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if FORCE_SERIAL.with(Cell::get) {
        1
    } else {
        *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

/// Runs two closures, potentially in parallel, returning both results.
///
/// Like `rayon::join`; the closures always produce the same values as
/// running `(a(), b())` sequentially.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if workers() > 1 {
        return std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            (ra, hb.join().expect("parallel task panicked"))
        });
    }
    (a(), b())
}

fn chunk_count(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk)
}

/// Calls `f(chunk_index, chunk)` for every `chunk`-sized piece of `data`
/// (the final piece may be shorter), fanning pieces out over the workers.
///
/// Chunk boundaries depend only on `data.len()` and `chunk`, so `f` sees
/// the same pieces in every execution mode.
///
/// # Panics
///
/// Panics when `chunk == 0`.
pub fn for_each_chunk<T: Sync>(data: &[T], chunk: usize, f: impl Fn(usize, &[T]) + Sync) {
    assert!(chunk > 0, "chunk size must be positive");
    let w = workers();
    if w <= 1 || chunk_count(data.len(), chunk) <= 1 {
        for (i, c) in data.chunks(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let nchunks = chunk_count(data.len(), chunk);
    let per_worker = nchunks.div_ceil(w);
    std::thread::scope(|s| {
        for (wi, block) in data.chunks(per_worker * chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, c) in block.chunks(chunk).enumerate() {
                    f(wi * per_worker + i, c);
                }
            });
        }
    });
}

/// Mutable variant of [`for_each_chunk`]: `f(chunk_index, chunk)` over
/// disjoint `&mut` pieces.
///
/// # Panics
///
/// Panics when `chunk == 0`.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk > 0, "chunk size must be positive");
    let w = workers();
    if w <= 1 || chunk_count(data.len(), chunk) <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let nchunks = chunk_count(data.len(), chunk);
    let per_worker = nchunks.div_ceil(w);
    std::thread::scope(|s| {
        for (wi, block) in data.chunks_mut(per_worker * chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, c) in block.chunks_mut(chunk).enumerate() {
                    f(wi * per_worker + i, c);
                }
            });
        }
    });
}

/// Runs `f(task_index, task)` for every task, fanning contiguous blocks of
/// tasks out over the workers.
///
/// This is the by-value counterpart of [`for_each_chunk_mut`] for callers
/// whose unit of work is not a single slice — e.g. a tuple of equal-length
/// `&mut` chunks borrowed from several parallel arrays (the SoA session
/// batch). Task indices are assigned before any fan-out, so `f` observes
/// exactly the same `(index, task)` pairs in serial and parallel execution.
pub fn for_each_task<T: Send>(tasks: Vec<T>, f: impl Fn(usize, T) + Sync) {
    let w = workers();
    if w <= 1 || tasks.len() <= 1 {
        for (i, t) in tasks.into_iter().enumerate() {
            f(i, t);
        }
        return;
    }
    let per_worker = tasks.len().div_ceil(w);
    let mut blocks: Vec<(usize, Vec<T>)> = Vec::new();
    let mut rest = tasks;
    let mut start = 0;
    while !rest.is_empty() {
        let take = per_worker.min(rest.len());
        let tail = rest.split_off(take);
        blocks.push((start, rest));
        start += take;
        rest = tail;
    }
    std::thread::scope(|s| {
        for (first, block) in blocks {
            let f = &f;
            s.spawn(move || {
                for (i, t) in block.into_iter().enumerate() {
                    f(first + i, t);
                }
            });
        }
    });
}

/// Maps every `chunk`-sized piece of `data` through `f`, returning the
/// per-chunk results **in chunk order** — the deterministic reduction
/// pattern: chunk-local accumulation in parallel, then a serial in-order
/// combine by the caller.
///
/// # Panics
///
/// Panics when `chunk == 0`.
pub fn map_chunks<T: Sync, U: Send>(
    data: &[T],
    chunk: usize,
    f: impl Fn(usize, &[T]) -> U + Sync,
) -> Vec<U> {
    assert!(chunk > 0, "chunk size must be positive");
    let n = chunk_count(data.len(), chunk);
    let mut out: Vec<Option<U>> = Vec::new();
    out.resize_with(n, || None);
    {
        let slots = &mut out[..];
        let w = workers();
        if w <= 1 || n <= 1 {
            for ((i, c), slot) in data.chunks(chunk).enumerate().zip(slots.iter_mut()) {
                *slot = Some(f(i, c));
            }
        } else {
            let per_worker = n.div_ceil(w);
            std::thread::scope(|s| {
                for (wi, (block, out_block)) in data
                    .chunks(per_worker * chunk)
                    .zip(slots.chunks_mut(per_worker))
                    .enumerate()
                {
                    let f = &f;
                    s.spawn(move || {
                        for ((i, c), slot) in
                            block.chunks(chunk).enumerate().zip(out_block.iter_mut())
                        {
                            *slot = Some(f(wi * per_worker + i, c));
                        }
                    });
                }
            });
        }
    }
    out.into_iter()
        .map(|v| v.expect("every chunk produced a value"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "x".repeat(3));
        assert_eq!(a, 4);
        assert_eq!(b, "xxx");
    }

    #[test]
    fn chunk_indices_cover_everything_once() {
        let data: Vec<u64> = (0..10_007).collect();
        let seen = std::sync::Mutex::new(vec![0u32; chunk_count(data.len(), 64)]);
        for_each_chunk(&data, 64, |i, c| {
            assert_eq!(c[0], (i * 64) as u64, "chunk {i} starts wrong");
            seen.lock().unwrap()[i] += 1;
        });
        assert!(seen.lock().unwrap().iter().all(|&n| n == 1));
    }

    #[test]
    fn chunk_mut_writes_disjoint() {
        let mut data = vec![0u64; 1_000];
        for_each_chunk_mut(&mut data, 37, |i, c| {
            for v in c.iter_mut() {
                *v = i as u64;
            }
        });
        for (j, v) in data.iter().enumerate() {
            assert_eq!(*v, (j / 37) as u64);
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        let data: Vec<u64> = (0..5_000).collect();
        let sums = map_chunks(&data, 128, |_, c| c.iter().sum::<u64>());
        assert_eq!(sums.len(), chunk_count(data.len(), 128));
        assert_eq!(
            sums.iter().sum::<u64>(),
            data.iter().sum::<u64>(),
            "chunk sums must total the full sum"
        );
        // First chunk is 0..128.
        assert_eq!(sums[0], (0..128).sum::<u64>());
    }

    #[test]
    fn serial_scope_forces_one_worker() {
        // The first call caches the process-wide count; the scope still
        // overrides it, and leaving the scope restores it.
        let outside = workers();
        serial_scope(|| {
            assert_eq!(workers(), 1);
        });
        assert_eq!(workers(), outside);
    }

    #[test]
    fn tasks_run_exactly_once_with_stable_indices() {
        let n = 101;
        let hits = std::sync::Mutex::new(vec![0u32; n]);
        let tasks: Vec<usize> = (0..n).collect();
        for_each_task(tasks, |i, t| {
            assert_eq!(i, t, "task index must match construction order");
            hits.lock().unwrap()[i] += 1;
        });
        assert!(hits.lock().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn tasks_may_carry_mutable_borrows() {
        let mut a = vec![0u64; 64];
        let mut b = vec![0u64; 64];
        let tasks: Vec<(&mut [u64], &mut [u64])> = a.chunks_mut(16).zip(b.chunks_mut(16)).collect();
        for_each_task(tasks, |i, (ca, cb)| {
            for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
                *x = i as u64;
                *y = i as u64 + 100;
            }
        });
        for (j, (&x, &y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x, (j / 16) as u64);
            assert_eq!(y, (j / 16) as u64 + 100);
        }
    }

    /// Every primitive hands its callbacks the same `(index, first item,
    /// length)` triples by default as under `serial_scope`, which is what
    /// makes a one-worker run a serial build.
    #[test]
    fn serial_and_parallel_results_match() {
        type Calls = Vec<(usize, u64, usize)>;
        type Run = fn(&[u64]) -> Calls;
        fn recorded(run: impl FnOnce(&std::sync::Mutex<Calls>)) -> Calls {
            let seen = std::sync::Mutex::new(Vec::new());
            run(&seen);
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            seen
        }
        let inputs: [(&str, Run); 5] = [
            ("map_chunks", |data| {
                map_chunks(data, 100, |i, c| (i, c[0], c.len()))
            }),
            ("for_each_chunk", |data| {
                recorded(|seen| {
                    for_each_chunk(data, 100, |i, c| {
                        seen.lock().unwrap().push((i, c[0], c.len()))
                    })
                })
            }),
            ("for_each_chunk_mut", |data| {
                let mut data = data.to_vec();
                recorded(|seen| {
                    for_each_chunk_mut(&mut data, 100, |i, c| {
                        seen.lock().unwrap().push((i, c[0], c.len()))
                    })
                })
            }),
            ("for_each_task", |data| {
                recorded(|seen| {
                    for_each_task(data.chunks(100).collect(), |i, t| {
                        seen.lock().unwrap().push((i, t[0], t.len()))
                    })
                })
            }),
            ("join", |data| {
                let (left, right) = data.split_at(data.len() / 2);
                let (a, b) = join(|| (0, left[0], left.len()), || (1, right[0], right.len()));
                vec![a, b]
            }),
        ];
        let data: Vec<u64> = (0..12_345).map(|i| i * 7 + 1).collect();
        for (name, run) in inputs {
            let par = run(&data);
            let ser = serial_scope(|| run(&data));
            assert!(par.len() > 1, "{name} made one call");
            assert_eq!(par, ser, "{name} saw different calls under serial_scope");
        }
    }
}
