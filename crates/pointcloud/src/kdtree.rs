//! A kd-tree over point positions for nearest-neighbor queries.
//!
//! The geometry quality metric (point-to-point PSNR) needs fast
//! nearest-neighbor lookups between the reference cloud and a degraded LoD
//! cloud. This is a static, balanced kd-tree built once per cloud.
//!
//! Construction parallelizes the independent subranges after each median
//! split; [`KdTree::nearest_many`] batches queries in Morton order with a
//! warm-start bound so large query sets (the quality hot path) traverse the
//! tree coherently and fan out across cores. Both are bit-deterministic:
//! results never depend on the worker count.

use arvis_par as par;

use crate::math::Vec3;
use crate::morton;

/// Below this subrange length, build recursion stays on one thread.
const BUILD_PAR_THRESHOLD: usize = 4 << 10;

/// Queries per batch chunk in [`KdTree::nearest_many`]. Fixed, so chunk
/// decomposition (and the warm-start resets at chunk starts) is identical
/// in serial and parallel execution.
const QUERY_CHUNK: usize = 1 << 10;

/// Running best candidate during a nearest-neighbor descent. The position
/// is carried so a batch query can warm-start the next lookup's bound.
#[derive(Debug, Clone, Copy)]
struct Best {
    idx: usize,
    d2: f64,
    pos: Vec3,
}

/// Subranges at or below this length become scan leaves: the build stops
/// median-splitting them and queries scan them linearly. Bucketing trades
/// the last few levels of cache-hostile mid-jumps (and their
/// `select_nth_unstable` passes at build time) for one short, predictable
/// scan.
const LEAF_SIZE: usize = 32;

/// A static balanced kd-tree over a set of positions.
///
/// Build is `O(n log n)` (median split via `select_nth_unstable`, stopping
/// at `LEAF_SIZE`-point scan leaves), queries are `O(log n)` expected for
/// well-distributed data.
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Positions re-ordered into an implicit balanced tree layout:
    /// `nodes[mid]` of every subrange longer than `LEAF_SIZE` is the
    /// splitting node; shorter subranges are unordered scan leaves.
    nodes: Vec<(Vec3, usize)>,
}

impl KdTree {
    /// Builds a kd-tree from positions. The `usize` returned by queries is
    /// the index of the position in the original iteration order.
    pub fn build<I: IntoIterator<Item = Vec3>>(positions: I) -> KdTree {
        let mut nodes: Vec<(Vec3, usize)> = positions
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        if !nodes.is_empty() {
            Self::build_range(&mut nodes, 0, par::workers());
        }
        KdTree { nodes }
    }

    /// `forks` bounds how many threads this subrange may still fan out to
    /// (halved at each split), so the build peaks at ~`workers()` live
    /// threads instead of one per subrange. Decomposition stays purely
    /// data-derived, so the result is identical for any budget.
    fn build_range(nodes: &mut [(Vec3, usize)], axis: usize, forks: usize) {
        if nodes.len() <= LEAF_SIZE {
            return;
        }
        let mid = nodes.len() / 2;
        // total_cmp gives NaN a fixed ordering (greater than every real
        // value), so a NaN coordinate lands at the high end of its subrange
        // instead of silently corrupting the median partition.
        nodes.select_nth_unstable_by(mid, |a, b| a.0[axis].total_cmp(&b.0[axis]));
        let (lo, rest) = nodes.split_at_mut(mid);
        let hi = &mut rest[1..];
        let next = (axis + 1) % 3;
        if forks > 1 && lo.len().max(hi.len()) >= BUILD_PAR_THRESHOLD {
            // The two subranges are disjoint: build them concurrently.
            par::join(
                || Self::build_range(lo, next, forks / 2),
                || Self::build_range(hi, next, forks - forks / 2),
            );
        } else {
            Self::build_range(lo, next, 1);
            Self::build_range(hi, next, 1);
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `(original_index, squared_distance)` of the nearest neighbor
    /// to `query`, or `None` for an empty tree.
    pub fn nearest(&self, query: Vec3) -> Option<(usize, f64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best = Best {
            idx: usize::MAX,
            d2: f64::INFINITY,
            pos: Vec3::ZERO,
        };
        self.nearest_iter(query, &mut best);
        Some((best.idx, best.d2))
    }

    /// Nearest neighbors of every query, as `(original_index,
    /// squared_distance)` pairs in query order.
    ///
    /// This is the batched fast path the quality metrics use: queries are
    /// processed in Morton (Z-order) so consecutive lookups walk nearly the
    /// same root-to-leaf path, and each lookup warm-starts its pruning bound
    /// from the previous answer. Per-query results equal [`KdTree::nearest`]
    /// in distance (indices may differ only between exactly equidistant
    /// points), and are bit-identical between serial and parallel execution.
    ///
    /// # Panics
    ///
    /// Panics when the tree is empty (callers check, as with `nearest`).
    pub fn nearest_many(&self, queries: &[Vec3]) -> Vec<(usize, f64)> {
        assert!(
            !self.nodes.is_empty(),
            "nearest_many needs a non-empty tree"
        );
        if queries.is_empty() {
            return Vec::new();
        }
        // Quantize queries onto a 1024³ grid over their own bounding box
        // and sort by Morton code for access locality.
        let (lo, hi) = queries.iter().fold(
            (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY)),
            |(lo, hi), &q| (lo.min(q), hi.max(q)),
        );
        let scale = morton::grid_scale((hi - lo).max_component(), 1024);
        let mut order: Vec<(u64, u32)> = queries
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                (
                    morton::encode(
                        morton::grid_cell(q.x, lo.x, scale, 1024),
                        morton::grid_cell(q.y, lo.y, scale, 1024),
                        morton::grid_cell(q.z, lo.z, scale, 1024),
                    ),
                    i as u32,
                )
            })
            .collect();
        let mut scratch = Vec::new();
        morton::sort_pairs_by_code(&mut order, &mut scratch, 30);

        // Resolve in sorted order (parallel over fixed chunks), then
        // scatter back to query order.
        let order = &order[..];
        let mut sorted_results = vec![(usize::MAX, f64::INFINITY); queries.len()];
        par::for_each_chunk_mut(&mut sorted_results, QUERY_CHUNK, |ci, out| {
            let base = ci * QUERY_CHUNK;
            // The warm start resets at every chunk boundary so the chunk
            // decomposition fully determines the result.
            let mut seed: Option<(Vec3, usize)> = None;
            for (j, slot) in out.iter_mut().enumerate() {
                let q = queries[order[base + j].1 as usize];
                let mut best = match seed {
                    Some((pos, idx)) => Best {
                        idx,
                        d2: pos.distance_squared(q),
                        pos,
                    },
                    None => Best {
                        idx: usize::MAX,
                        d2: f64::INFINITY,
                        pos: Vec3::ZERO,
                    },
                };
                self.nearest_iter(q, &mut best);
                // Only a found tree point may seed the next lookup: a
                // no-result query (e.g. NaN coordinates) must not poison
                // later bounds with its placeholder candidate.
                if best.idx != usize::MAX {
                    seed = Some((best.pos, best.idx));
                }
                *slot = (best.idx, best.d2);
            }
        });
        let mut results = vec![(usize::MAX, f64::INFINITY); queries.len()];
        for (slot, &(_, qi)) in sorted_results.iter().zip(order) {
            results[qi as usize] = *slot;
        }
        results
    }

    /// Iterative nearest-neighbor descent: follows the near side to a scan
    /// leaf without function-call overhead, stacking far-side subranges and
    /// revisiting only those whose split-plane distance still beats the
    /// current bound. Visit order matches the classic recursion (near
    /// subtree fully, then pending far subtrees, most recent first).
    fn nearest_iter(&self, query: Vec3, best: &mut Best) {
        /// One deferred far-side subrange.
        #[derive(Clone, Copy)]
        struct Pending {
            lo: u32,
            hi: u32,
            axis: u8,
            plane_d2: f64,
        }
        // Depth ≤ ~log2(n/LEAF) + 1; 64 covers any conceivable input.
        let mut stack = [Pending {
            lo: 0,
            hi: 0,
            axis: 0,
            plane_d2: 0.0,
        }; 64];
        let mut sp = 0usize;
        let (mut lo, mut hi, mut axis) = (0usize, self.nodes.len(), 0usize);
        loop {
            while hi - lo > LEAF_SIZE {
                let mid = lo + (hi - lo) / 2;
                let (pos, idx) = self.nodes[mid];
                let delta = query[axis] - pos[axis];
                // The split point's distance is bounded below by |delta|,
                // so with a warm bound most interior nodes skip the full
                // distance computation entirely.
                if delta * delta < best.d2 {
                    let d2 = pos.distance_squared(query);
                    if d2 < best.d2 {
                        *best = Best { idx, d2, pos };
                    }
                }
                let next = (axis + 1) % 3;
                let (far_lo, far_hi) = if delta < 0.0 {
                    (mid + 1, hi)
                } else {
                    (lo, mid)
                };
                stack[sp] = Pending {
                    lo: far_lo as u32,
                    hi: far_hi as u32,
                    axis: next as u8,
                    plane_d2: delta * delta,
                };
                sp += 1;
                if delta < 0.0 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
                axis = next;
            }
            // Scan leaf: unordered, short, cache-resident.
            for &(pos, idx) in &self.nodes[lo..hi] {
                let d2 = pos.distance_squared(query);
                if d2 < best.d2 {
                    *best = Best { idx, d2, pos };
                }
            }
            loop {
                if sp == 0 {
                    return;
                }
                sp -= 1;
                let p = stack[sp];
                if p.plane_d2 < best.d2 {
                    lo = p.lo as usize;
                    hi = p.hi as usize;
                    axis = usize::from(p.axis);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_nearest(points: &[Vec3], q: Vec3) -> (usize, f64) {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.distance_squared(q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::build(std::iter::empty());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.nearest(Vec3::ZERO).is_none());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build([Vec3::ONE]);
        let (idx, d2) = t.nearest(Vec3::ZERO).unwrap();
        assert_eq!(idx, 0);
        assert!((d2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(500, 42);
        let tree = KdTree::build(pts.iter().copied());
        let queries = random_points(200, 43);
        for q in queries {
            let (bi, bd) = brute_nearest(&pts, q);
            let (ti, td) = tree.nearest(q).unwrap();
            assert!((bd - td).abs() < 1e-12, "distance mismatch at {q}");
            // Indices can differ only on exact ties.
            if (pts[bi].distance_squared(q) - pts[ti].distance_squared(q)).abs() > 1e-12 {
                panic!("index mismatch: brute {bi} tree {ti}");
            }
        }
    }

    #[test]
    fn nearest_of_member_is_itself() {
        let pts = random_points(100, 7);
        let tree = KdTree::build(pts.iter().copied());
        for (i, p) in pts.iter().enumerate() {
            let (idx, d2) = tree.nearest(*p).unwrap();
            assert!(d2 <= 1e-18);
            // idx may differ if two random points coincide (probability 0).
            assert_eq!(idx, i);
        }
    }

    #[test]
    fn nearest_many_matches_single_queries() {
        let pts = random_points(800, 21);
        let tree = KdTree::build(pts.iter().copied());
        let queries = random_points(3_000, 22);
        let batch = tree.nearest_many(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, &(bi, bd2)) in queries.iter().zip(&batch) {
            let (_, sd2) = tree.nearest(*q).unwrap();
            assert!(
                (bd2 - sd2).abs() < 1e-12,
                "batch distance {bd2} != single {sd2} at {q}"
            );
            // The returned index must actually realize the distance.
            assert!((pts[bi].distance_squared(*q) - bd2).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_many_is_serial_parallel_identical() {
        let pts = random_points(500, 31);
        let tree = KdTree::build(pts.iter().copied());
        let queries = random_points(2_500, 32);
        let par = tree.nearest_many(&queries);
        let ser = arvis_par::serial_scope(|| tree.nearest_many(&queries));
        assert_eq!(par, ser);
    }

    #[test]
    fn nearest_many_empty_queries() {
        let tree = KdTree::build([Vec3::ZERO]);
        assert!(tree.nearest_many(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty tree")]
    fn nearest_many_panics_on_empty_tree() {
        let tree = KdTree::build(std::iter::empty());
        let _ = tree.nearest_many(&[Vec3::ZERO]);
    }

    #[test]
    fn nan_query_does_not_poison_batch_warm_start() {
        // A query that finds nothing (NaN coordinates) must not seed the
        // next lookup's pruning bound with its placeholder candidate.
        let pts: Vec<Vec3> = (0..40).map(|i| Vec3::splat(100.0 + i as f64)).collect();
        let tree = KdTree::build(pts.iter().copied());
        let queries = [Vec3::new(f64::NAN, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0)];
        let batch = tree.nearest_many(&queries);
        let (si, sd2) = tree.nearest(queries[1]).unwrap();
        assert_eq!(batch[1].0, si, "index poisoned by preceding NaN query");
        assert!((batch[1].1 - sd2).abs() < 1e-12);
    }

    #[test]
    fn nan_coordinates_do_not_corrupt_build() {
        // A NaN coordinate must stay localized: queries about the finite
        // points still find them.
        let mut pts = random_points(64, 5);
        pts.push(Vec3::new(f64::NAN, 0.0, 0.0));
        let tree = KdTree::build(pts.iter().copied());
        for p in pts.iter().take(64) {
            let (_, d2) = tree.nearest(*p).unwrap();
            assert!(d2 <= 1e-18, "lost finite point {p}");
        }
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![Vec3::ONE; 10];
        let tree = KdTree::build(pts.iter().copied());
        assert_eq!(tree.len(), 10);
        assert_eq!(tree.nearest(Vec3::ONE).map(|(_, d2)| d2), Some(0.0));
    }
}
