//! Deterministic chunked reductions shared by the metric hot paths.
//!
//! Every metric reduces a per-query quantity (squared distance) over all
//! points. The reductions here accumulate each fixed-size chunk serially,
//! in parallel across chunks, then combine the per-chunk partials serially
//! in chunk order — so the floating-point result is bit-identical
//! regardless of worker count, one worker included.

use arvis_par as par;

/// Chunk length for the reductions. Fixed so the combining order never
/// depends on the worker count.
pub(crate) const REDUCE_CHUNK: usize = 1 << 12;

/// Sum of `f` over all items (deterministic chunked association).
pub(crate) fn sum_by<T: Sync>(items: &[T], f: impl Fn(&T) -> f64 + Sync) -> f64 {
    par::map_chunks(items, REDUCE_CHUNK, |_, chunk| {
        let mut acc = 0.0f64;
        for item in chunk {
            acc += f(item);
        }
        acc
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_serial_over_chunk_boundaries() {
        let items: Vec<f64> = (0..(REDUCE_CHUNK * 3 + 17))
            .map(|i| i as f64 * 0.5)
            .collect();
        let total = sum_by(&items, |&x| x);
        let serial = arvis_par::serial_scope(|| sum_by(&items, |&x| x));
        assert_eq!(total, serial);
        assert!((total - items.iter().sum::<f64>()).abs() < 1e-6 * total.abs());
    }
}
