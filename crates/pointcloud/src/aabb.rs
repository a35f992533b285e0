//! Axis-aligned bounding boxes.

use serde::{Deserialize, Serialize};

use crate::math::Vec3;

/// An axis-aligned bounding box defined by inclusive `min`/`max` corners.
///
/// An `Aabb` is always *valid*: constructors guarantee `min ≤ max`
/// component-wise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    min: Vec3,
    max: Vec3,
}

impl Aabb {
    /// Creates a box from two corners, swapping components as needed so the
    /// result is valid.
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a degenerate box containing a single point.
    pub fn from_point(p: Vec3) -> Self {
        Aabb { min: p, max: p }
    }

    /// Creates the smallest box containing all points, or `None` for an empty
    /// iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut aabb = Aabb::from_point(first);
        for p in iter {
            aabb.expand_to(p);
        }
        Some(aabb)
    }

    /// Creates a cube centered at `center` with the given edge length.
    ///
    /// # Panics
    ///
    /// Panics when `edge` is negative.
    pub fn cube(center: Vec3, edge: f64) -> Self {
        assert!(edge >= 0.0, "cube edge must be non-negative, got {edge}");
        let h = Vec3::splat(edge / 2.0);
        Aabb {
            min: center - h,
            max: center + h,
        }
    }

    /// The minimum corner.
    #[inline]
    pub fn min(&self) -> Vec3 {
        self.min
    }

    /// The maximum corner.
    #[inline]
    pub fn max(&self) -> Vec3 {
        self.max
    }

    /// The box center.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// The per-axis edge lengths.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// The longest edge length.
    #[inline]
    pub fn max_extent(&self) -> f64 {
        self.size().max_component()
    }

    /// Box volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// The diagonal length, used as the PSNR peak by MPEG-style geometry
    /// quality metrics.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.size().norm()
    }

    /// `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Grows the box to contain `p`.
    pub fn expand_to(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Returns the union of two boxes.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Returns the box expanded by `margin` on every side.
    ///
    /// # Panics
    ///
    /// Panics when `margin` is negative (shrinking could invalidate the box).
    pub fn inflated(&self, margin: f64) -> Aabb {
        assert!(margin >= 0.0, "margin must be non-negative, got {margin}");
        let m = Vec3::splat(margin);
        Aabb {
            min: self.min - m,
            max: self.max + m,
        }
    }

    /// Returns the smallest *cube* containing this box, sharing its center.
    ///
    /// Octrees are built over cubes so that child cells stay cubic at every
    /// depth. Containment is guaranteed despite floating-point rounding:
    /// reconstructing `center ± extent/2` can exclude an extreme corner by a
    /// ULP, so the half-edge is nudged up until both corners test inside.
    ///
    /// A box that already is a cube up to the rounding of its corners is
    /// returned as is: one whose edge lengths differ by at most `8·ε·m`
    /// (plus the smallest normal float), where `m` is the largest corner
    /// coordinate in magnitude. Every computed cube passes that test with
    /// room to spare: its corners are `center ± half`, each rounded once, so
    /// each edge is within about `2·ε·m` of `2·half`. That makes the
    /// function idempotent: `b.bounding_cube().bounding_cube()` is
    /// `b.bounding_cube()` bit for bit, for every finite box. Octrees rely
    /// on it: a tree built in a cube keeps that cube as its root, and a
    /// decoder handed the tree's cube subdivides it as is.
    pub fn bounding_cube(&self) -> Aabb {
        let s = self.size();
        let m = self.min.abs().max(self.max.abs()).max_component();
        if s.max_component() - s.min_component() <= 8.0 * f64::EPSILON * m + f64::MIN_POSITIVE {
            return *self;
        }
        let c = self.center();
        let mut half = self.max_extent() * 0.5;
        for _ in 0..64 {
            let cube = Aabb {
                min: c - Vec3::splat(half),
                max: c + Vec3::splat(half),
            };
            if cube.contains(self.min) && cube.contains(self.max) {
                return cube;
            }
            // Bump by a few ULPs (relative) plus a subnormal-safe absolute.
            half = half * (1.0 + 4.0 * f64::EPSILON) + f64::MIN_POSITIVE;
        }
        // Pathological magnitudes: double until containment (stays cubic).
        loop {
            half = (half * 2.0).max(f64::MIN_POSITIVE);
            let cube = Aabb {
                min: c - Vec3::splat(half),
                max: c + Vec3::splat(half),
            };
            if cube.contains(self.min) && cube.contains(self.max) {
                return cube;
            }
        }
    }

    /// Clamps a point into the box.
    pub fn clamp(&self, p: Vec3) -> Vec3 {
        p.max(self.min).min(self.max)
    }

    /// Squared distance from `p` to the box (zero when inside).
    pub fn distance_squared(&self, p: Vec3) -> f64 {
        self.clamp(p).distance_squared(p)
    }

    /// The eight octant children produced by splitting at the center.
    ///
    /// Child `i` has bit 0 set for +x, bit 1 for +y, bit 2 for +z, matching
    /// the Morton/occupancy ordering used by `arvis-octree`.
    pub fn octants(&self) -> [Aabb; 8] {
        let c = self.center();
        std::array::from_fn(|i| {
            let min = Vec3::new(
                if i & 1 == 0 { self.min.x } else { c.x },
                if i & 2 == 0 { self.min.y } else { c.y },
                if i & 4 == 0 { self.min.z } else { c.z },
            );
            let max = Vec3::new(
                if i & 1 == 0 { c.x } else { self.max.x },
                if i & 2 == 0 { c.y } else { self.max.y },
                if i & 4 == 0 { c.z } else { self.max.z },
            );
            Aabb { min, max }
        })
    }

    /// Index of the octant (0..8) containing `p`, using the same bit layout
    /// as [`Aabb::octants`]. Points exactly on a splitting plane go to the
    /// upper octant.
    pub fn octant_index(&self, p: Vec3) -> usize {
        let c = self.center();
        usize::from(p.x >= c.x) | (usize::from(p.y >= c.y) << 1) | (usize::from(p.z >= c.z) << 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_swaps_corners() {
        let b = Aabb::new(Vec3::new(1.0, -1.0, 5.0), Vec3::new(0.0, 2.0, 4.0));
        assert_eq!(b.min(), Vec3::new(0.0, -1.0, 4.0));
        assert_eq!(b.max(), Vec3::new(1.0, 2.0, 5.0));
    }

    #[test]
    fn from_points_and_expand() {
        assert!(Aabb::from_points(std::iter::empty()).is_none());
        let b = Aabb::from_points([Vec3::ZERO, Vec3::ONE, Vec3::new(-1.0, 0.5, 2.0)]).unwrap();
        assert_eq!(b.min(), Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max(), Vec3::new(1.0, 1.0, 2.0));
    }

    #[test]
    fn cube_geometry() {
        let c = Aabb::cube(Vec3::ONE, 2.0);
        assert_eq!(c.min(), Vec3::ZERO);
        assert_eq!(c.max(), Vec3::splat(2.0));
        assert!((c.volume() - 8.0).abs() < 1e-12);
        assert!((c.max_extent() - 2.0).abs() < 1e-12);
        assert!((c.diagonal() - (12.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cube_edge_panics() {
        let _ = Aabb::cube(Vec3::ZERO, -1.0);
    }

    #[test]
    fn contains_boundary() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::ONE)); // corner
        assert!(!b.contains(Vec3::new(1.0001, 0.0, 0.0)));
    }

    #[test]
    fn union_and_inflate() {
        let a = Aabb::cube(Vec3::ZERO, 2.0);
        let b = Aabb::cube(Vec3::splat(3.0), 2.0);
        let u = a.union(&b);
        assert!(u.contains(Vec3::splat(-1.0)) && u.contains(Vec3::splat(4.0)));
        let i = a.inflated(1.0);
        assert_eq!(i.min(), Vec3::splat(-2.0));
    }

    #[test]
    fn bounding_cube_is_cubic_and_contains() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(4.0, 1.0, 2.0));
        let c = b.bounding_cube();
        let s = c.size();
        assert!((s.x - s.y).abs() < 1e-12 && (s.y - s.z).abs() < 1e-12);
        assert!(c.contains(b.min()) && c.contains(b.max()));
    }

    #[test]
    fn bounding_cube_is_idempotent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let bits = |b: &Aabb| [b.min(), b.max()].map(|v| v.to_array().map(f64::to_bits));
        let mut rng = StdRng::seed_from_u64(0x0c7b);
        for _ in 0..20_000 {
            // Centers up to 1e8 from the origin, edges down to 1e-9: many
            // boxes sit far from the origin relative to their size, where
            // rounding the corners moves the edges the most.
            let center = Vec3::new(
                rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..=8)),
                rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..=8)),
                rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..=8)),
            );
            let edge = 10f64.powi(rng.gen_range(-9..=3));
            // Extents from a cube (edges exactly equal, or a few ulps
            // apart) to a slab.
            let ratio = |rng: &mut StdRng| match rng.gen_range(0..3) {
                0 => 1.0,
                1 => 1.0 + rng.gen_range(0..4) as f64 * f64::EPSILON,
                _ => rng.gen_range(0.01..1.0),
            };
            let half = Vec3::new(
                edge * ratio(&mut rng),
                edge * ratio(&mut rng),
                edge * ratio(&mut rng),
            ) * 0.5;
            let b = Aabb::new(center - half, center + half);
            let once = b.bounding_cube();
            assert!(once.contains(b.min()) && once.contains(b.max()), "{b:?}");
            let (s, m) = (once.size(), once.max().abs().max(once.min().abs()));
            let slack = 8.0 * f64::EPSILON * m.max_component() + f64::MIN_POSITIVE;
            assert!(
                s.max_component() - s.min_component() <= slack,
                "{b:?} -> {once:?}"
            );
            assert_eq!(
                bits(&once.bounding_cube()),
                bits(&once),
                "{b:?} -> {once:?}"
            );
        }
    }

    #[test]
    fn clamp_and_distance() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        assert_eq!(b.clamp(Vec3::new(5.0, 0.0, 0.0)), Vec3::new(1.0, 0.0, 0.0));
        assert!((b.distance_squared(Vec3::new(3.0, 0.0, 0.0)) - 4.0).abs() < 1e-12);
        assert_eq!(b.distance_squared(Vec3::ZERO), 0.0);
    }

    #[test]
    fn octants_partition_volume() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let octs = b.octants();
        let total: f64 = octs.iter().map(Aabb::volume).sum();
        assert!((total - b.volume()).abs() < 1e-12);
        // Octant 7 is the +x+y+z corner.
        assert_eq!(octs[7].max(), b.max());
        assert_eq!(octs[0].min(), b.min());
    }

    #[test]
    fn octant_index_matches_octants() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let octs = b.octants();
        for (i, o) in octs.iter().enumerate() {
            let idx = b.octant_index(o.center());
            assert_eq!(idx, i, "octant center must map back to its own index");
        }
        // A point on the splitting plane goes to the upper octant.
        assert_eq!(b.octant_index(Vec3::ZERO) & 1, 1);
    }
}
