//! Rigid and affine transforms for point clouds.
//!
//! The synthetic-body animator poses capsule skeletons with these transforms,
//! and the dataset tooling uses them to normalize clouds into the unit cube
//! expected by the octree builder.

use serde::{Deserialize, Serialize};

use crate::aabb::Aabb;
use crate::math::Vec3;

/// A 3×3 rotation matrix stored row-major.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rotation {
    rows: [[f64; 3]; 3],
}

impl Rotation {
    /// The identity rotation.
    pub const IDENTITY: Rotation = Rotation {
        rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Rotation by `angle` radians about the Y axis.
    pub fn about_y(angle: f64) -> Rotation {
        let (s, c) = angle.sin_cos();
        Rotation {
            rows: [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]],
        }
    }

    /// Applies the rotation to a vector.
    pub fn apply(&self, v: Vec3) -> Vec3 {
        let r = &self.rows;
        Vec3::new(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Rotation::IDENTITY
    }
}

/// A similarity transform: `p ↦ rotation(p) * scale + translation`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transform {
    /// Rotation applied first.
    pub rotation: Rotation,
    /// Uniform scale applied after rotation.
    pub scale: f64,
    /// Translation applied last.
    pub translation: Vec3,
}

impl Transform {
    /// The identity transform.
    pub const IDENTITY: Transform = Transform {
        rotation: Rotation::IDENTITY,
        scale: 1.0,
        translation: Vec3::ZERO,
    };

    /// Applies the transform to a point.
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.rotation.apply(p) * self.scale + self.translation
    }
}

impl Default for Transform {
    fn default() -> Self {
        Transform::IDENTITY
    }
}

/// Returns the transform that maps `aabb` into the unit cube `[0, 1]³`,
/// preserving aspect ratio (the longest edge maps to length 1) and centering
/// the shorter axes.
///
/// Degenerate boxes (zero extent) map their center to `(0.5, 0.5, 0.5)`.
pub fn normalize_to_unit_cube(aabb: &Aabb) -> Transform {
    let extent = aabb.max_extent();
    let scale = if extent > 0.0 { 1.0 / extent } else { 1.0 };
    // Scale about the box center, then move the center to (0.5,0.5,0.5).
    let center = aabb.center();
    Transform {
        rotation: Rotation::IDENTITY,
        scale,
        translation: Vec3::splat(0.5) - center * scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: Vec3, b: Vec3) -> bool {
        a.distance(b) < 1e-9
    }

    #[test]
    fn axis_rotations_quarter_turn() {
        let r = Rotation::about_y(std::f64::consts::FRAC_PI_2);
        assert!(approx(r.apply(Vec3::Z), Vec3::X));
    }

    #[test]
    fn rotation_preserves_norm() {
        let r = Rotation::about_y(1.1);
        let v = Vec3::new(-3.0, 0.2, 4.0);
        assert!((r.apply(v).norm() - v.norm()).abs() < 1e-9);
    }

    #[test]
    fn normalize_to_unit_cube_bounds() {
        let aabb = Aabb::new(Vec3::new(-2.0, 0.0, 10.0), Vec3::new(6.0, 4.0, 12.0));
        let t = normalize_to_unit_cube(&aabb);
        let lo = t.apply(aabb.min());
        let hi = t.apply(aabb.max());
        let unit = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert!(unit.contains(lo) && unit.contains(hi));
        // Longest edge (x: 8 units) spans exactly [0,1].
        assert!((hi.x - lo.x - 1.0).abs() < 1e-12);
        // Center maps to cube center.
        assert!(approx(t.apply(aabb.center()), Vec3::splat(0.5)));
    }

    #[test]
    fn normalize_degenerate_box() {
        let aabb = Aabb::from_point(Vec3::new(5.0, 5.0, 5.0));
        let t = normalize_to_unit_cube(&aabb);
        assert!(approx(t.apply(Vec3::splat(5.0)), Vec3::splat(0.5)));
    }
}
