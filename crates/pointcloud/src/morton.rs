//! Fast Morton (Z-order) coding and a stable radix sort of code-keyed
//! words — the shared substrate of the octree build and the kd-tree's
//! locality-ordered batch queries.
//!
//! [`encode`] interleaves three 21-bit axes, spreading each from a table of
//! spread 10-bit values (three lookups per axis instead of the classic
//! 21-iteration loop).
//! [`radix_sort`] is a serial least-significant-digit radix sort: stable,
//! allocation-reusing, and O(n · ⌈bits/15⌉) — for the ≤30-bit codes of a
//! depth-10 octree it runs two linear passes where a comparison sort pays
//! `log n` cache-hostile ones.

/// Every 10-bit value with its bits spread onto every third bit.
static SPREAD: [u32; 1024] = {
    let mut table = [0; 1024];
    let mut x = 0;
    while x < 1024 {
        let mut bit = 0;
        while bit < 10 {
            table[x] |= ((x as u32 >> bit) & 1) << (3 * bit);
            bit += 1;
        }
        x += 1;
    }
    table
};

/// Spreads the low 21 bits of `x` so they occupy every third bit: three
/// lookups of ten, ten and one bit in a 4 KiB table, which codes a point
/// in fewer instructions than shift-and-mask spreading.
#[inline]
pub fn part1by2(x: u64) -> u64 {
    let spread = |bits: u64| u64::from(SPREAD[(bits & 1023) as usize]);
    spread(x) | spread(x >> 10) << 30 | spread(x >> 20 & 1) << 60
}

/// Morton-interleaves three axis indices (≤ 21 bits each): bit `3k` comes
/// from `x`, `3k+1` from `y`, `3k+2` from `z`.
#[inline]
pub fn encode(x: u64, y: u64, z: u64) -> u64 {
    part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
}

/// Inverse of [`part1by2`].
#[inline]
pub fn compact1by2(x: u64) -> u64 {
    let mut x = x & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x1f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x1f_0000_0000_ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Decodes a Morton code into its three axis indices.
#[inline]
pub fn decode(code: u64) -> (u64, u64, u64) {
    (
        compact1by2(code),
        compact1by2(code >> 1),
        compact1by2(code >> 2),
    )
}

/// The shared grid quantizer: cell index of coordinate `v` on a `cells`-per
/// -axis grid spanning `[lo, lo + extent)`, clamped into range (outside
/// points land on boundary cells; a non-positive extent collapses to cell
/// 0).
///
/// One multiply with the precomputed `scale = cells / extent` instead of a
/// divide — this is the hot expression of octree construction, evaluated
/// three times per point. `VoxelGrid` and the octree builder both call it,
/// so voxel assignment stays bit-identical between the brute-force
/// voxelizer and the octree's Morton codes.
///
/// The float-to-integer cast truncates, which is the floor of every
/// non-negative value, and saturates: negative values, `-0.0` and NaN give
/// cell 0, and +∞ and values of 2⁶⁴ or more give the last cell. No `floor`
/// is called, which on baseline x86-64 is a libm call per coordinate.
#[inline]
pub fn grid_cell(v: f64, lo: f64, scale: f64, cells: u64) -> u64 {
    (((v - lo) * scale) as u64).min(cells.saturating_sub(1))
}

/// The `scale` argument of [`grid_cell`]: `cells / extent`, or 0 for a
/// degenerate extent (every point maps to cell 0).
#[inline]
pub fn grid_scale(extent: f64, cells: u64) -> f64 {
    if extent > 0.0 {
        cells as f64 / extent
    } else {
        0.0
    }
}

/// Widest radix digit. 15 bits (32k buckets, 256 KiB of offsets) keeps the
/// bucket table L2-resident while sorting 30-bit octree codes in two
/// passes instead of four.
const MAX_DIGIT_BITS: u32 = 15;

/// An element a [`radix_sort`] can order: exposes the full 64-bit key the
/// sort ranges over.
pub trait SortItem: Copy + Default {
    /// The sort key.
    fn key(self) -> u64;
}

impl SortItem for u64 {
    #[inline]
    fn key(self) -> u64 {
        self
    }
}

impl SortItem for (u64, u32) {
    #[inline]
    fn key(self) -> u64 {
        self.0
    }
}

/// Sorts `items` by key bits `start_bit .. start_bit + bits`, stably, using
/// `scratch` as the ping-pong buffer (grown as needed, retained for reuse).
///
/// Least-significant-digit radix sort with digits up to `MAX_DIGIT_BITS`
/// wide (`⌈bits / 15⌉` linear passes), each a histogram of its digit and a
/// stable scatter. Stability means equal keys keep their input order, so
/// the permutation — and any floating-point accumulation done in sorted
/// order downstream — is deterministic.
pub fn radix_sort<T: SortItem>(items: &mut [T], scratch: &mut Vec<T>, start_bit: u32, bits: u32) {
    if bits == 0 || items.len() <= 1 {
        return;
    }
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let digit_bits = bits.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let mask = (buckets - 1) as u64;
    scratch.clear();
    scratch.resize(items.len(), T::default());
    let mut offsets = vec![0usize; buckets];
    let mut src_is_items = true;
    for pass in 0..passes {
        let shift = start_bit + pass * digit_bits;
        let digit = |item: &T| ((item.key() >> shift) & mask) as usize;
        let (src, dst): (&mut [T], &mut [T]) = if src_is_items {
            (items, &mut scratch[..])
        } else {
            (&mut scratch[..], items)
        };
        offsets.fill(0);
        for item in src.iter() {
            offsets[digit(item)] += 1;
        }
        let mut acc = 0usize;
        for offset in offsets.iter_mut() {
            let count = *offset;
            *offset = acc;
            acc += count;
        }
        // Stable scatter: preserves input order within a digit.
        for &item in src.iter() {
            let d = digit(&item);
            dst[offsets[d]] = item;
            offsets[d] += 1;
        }
        src_is_items = !src_is_items;
    }
    if !src_is_items {
        // Result currently lives in `scratch`; copy back.
        items.copy_from_slice(scratch);
    }
}

/// Sorts `(code, payload)` pairs by the low `bits` of the code, stably.
/// Convenience wrapper over [`radix_sort`].
pub fn sort_pairs_by_code(pairs: &mut [(u64, u32)], scratch: &mut Vec<(u64, u32)>, bits: u32) {
    radix_sort(pairs, scratch, 0, bits);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for &(x, y, z) in &[
            (0u64, 0, 0),
            (1, 2, 3),
            (1023, 0, 511),
            (0x1f_ffff, 0x1f_ffff, 0x1f_ffff),
        ] {
            assert_eq!(decode(encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn encode_is_bit_interleaved() {
        assert_eq!(encode(1, 0, 0), 0b001);
        assert_eq!(encode(0, 1, 0), 0b010);
        assert_eq!(encode(0, 0, 1), 0b100);
        assert_eq!(encode(3, 0, 0), 0b001001);
    }

    #[test]
    fn encode_matches_reference_loop() {
        let reference = |x: u64, y: u64, z: u64| -> u64 {
            let mut code = 0u64;
            for k in 0..21u64 {
                code |= ((x >> k) & 1) << (3 * k);
                code |= ((y >> k) & 1) << (3 * k + 1);
                code |= ((z >> k) & 1) << (3 * k + 2);
            }
            code
        };
        let mut v = 0x9e3779b97f4a7c15u64;
        for _ in 0..1000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (x, y, z) = (v & 0x1f_ffff, (v >> 21) & 0x1f_ffff, (v >> 42) & 0x1f_ffff);
            assert_eq!(encode(x, y, z), reference(x, y, z));
        }
        // Every 21-bit value, against shift-and-mask spreading.
        let magic = |x: u64| {
            let mut x = x & 0x1f_ffff;
            x = (x | (x << 32)) & 0x1f_0000_0000_ffff;
            x = (x | (x << 16)) & 0x1f_0000_ff00_00ff;
            x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
            x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
            (x | (x << 2)) & 0x1249_2492_4924_9249
        };
        for x in 0..1u64 << 21 {
            assert_eq!(part1by2(x), magic(x), "{x:#x}");
        }
    }

    #[test]
    fn grid_cell_truncates_like_the_floor_it_replaced() {
        let floor_cell = |v: f64, lo: f64, scale: f64, cells: u64| {
            let idx = ((v - lo) * scale).floor();
            (idx.max(0.0) as u64).min(cells.saturating_sub(1))
        };
        let mut values = vec![
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.5,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        // Cell boundaries, and one ulp either side of each, up to 2^63 and
        // 2^64; the negative ones too.
        let two_to = |e: i32| 2f64.powi(e);
        for b in [1.0, 2.0, 3.0, 511.0, 512.0, 1023.0, 1024.0]
            .into_iter()
            .chain([21, 53, 63, 64].map(two_to))
        {
            values.extend([b.next_down(), b, b.next_up()]);
            values.extend([-b.next_down(), -b, -b.next_up()]);
        }
        for cells in [0, 1, 2, 1024, 1 << 21, u64::MAX] {
            for &v in &values {
                assert_eq!(
                    grid_cell(v, 0.0, 1.0, cells),
                    floor_cell(v, 0.0, 1.0, cells),
                    "{v:e} over {cells} cells"
                );
            }
        }
        // Through the offset and scale of a grid, at and beside the
        // coordinate of every boundary of its 1024 cells.
        let (lo, cells) = (-0.75, 1024);
        let scale = grid_scale(3.1, cells);
        for k in 0..=cells {
            let v = lo + k as f64 / scale;
            for v in [v.next_down(), v, v.next_up()] {
                assert_eq!(
                    grid_cell(v, lo, scale, cells),
                    floor_cell(v, lo, scale, cells),
                    "{v:e}"
                );
            }
        }
    }

    #[test]
    fn radix_sort_matches_stable_sort() {
        let mut v = 0x243f6a8885a308d3u64;
        let mut pairs: Vec<(u64, u32)> = (0..50_000u32)
            .map(|i| {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((v >> 34) & 0x3fff_ffff, i) // 30-bit keys with many duplicates
            })
            .collect();
        let mut expected = pairs.clone();
        expected.sort_by_key(|&(c, _)| c); // std stable sort
        let mut scratch = Vec::new();
        sort_pairs_by_code(&mut pairs, &mut scratch, 30);
        assert_eq!(
            pairs, expected,
            "radix must be stable and correctly ordered"
        );
    }

    #[test]
    fn radix_sort_handles_odd_bit_counts_and_empty() {
        let mut scratch = Vec::new();
        let mut empty: Vec<(u64, u32)> = Vec::new();
        sort_pairs_by_code(&mut empty, &mut scratch, 12);
        let mut one = vec![(5u64, 0u32)];
        sort_pairs_by_code(&mut one, &mut scratch, 3);
        assert_eq!(one, vec![(5, 0)]);
        let mut three = vec![(7u64, 0u32), (1, 1), (7, 2)];
        sort_pairs_by_code(&mut three, &mut scratch, 3);
        assert_eq!(three, vec![(1, 1), (7, 0), (7, 2)]);
    }
}
