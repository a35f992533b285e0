//! The [`PointCloud`] container.

use serde::{Deserialize, Serialize};

use crate::aabb::Aabb;
use crate::math::Vec3;
use crate::point::Point;

/// An unordered collection of colored points.
///
/// This is the central data type of the substrate; it corresponds to
/// Open3D's `PointCloud` in the paper's pipeline. Points are stored in a
/// single `Vec<Point>` (array-of-structs): frames in this workload are read,
/// voxelized and discarded, so iteration locality beats SoA bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PointCloud {
    points: Vec<Point>,
}

impl PointCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        PointCloud::default()
    }

    /// Creates an empty cloud with preallocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        PointCloud {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Creates a cloud from a vector of points.
    pub fn from_points(points: Vec<Point>) -> Self {
        PointCloud { points }
    }

    /// Creates a cloud of black points from positions.
    pub fn from_positions<I: IntoIterator<Item = Vec3>>(positions: I) -> Self {
        PointCloud {
            points: positions.into_iter().map(Point::from_position).collect(),
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds a point.
    #[inline]
    pub fn push(&mut self, point: Point) {
        self.points.push(point);
    }

    /// Borrows the points as a slice.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Iterates over point positions.
    pub fn positions(&self) -> impl Iterator<Item = Vec3> + '_ {
        self.points.iter().map(|p| p.position)
    }

    /// The tight axis-aligned bounding box, or `None` for an empty cloud.
    pub fn aabb(&self) -> Option<Aabb> {
        Aabb::from_points(self.positions())
    }
}

impl FromIterator<Point> for PointCloud {
    fn from_iter<T: IntoIterator<Item = Point>>(iter: T) -> Self {
        PointCloud {
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<Point> for PointCloud {
    fn extend<T: IntoIterator<Item = Point>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

impl IntoIterator for PointCloud {
    type Item = Point;
    type IntoIter = std::vec::IntoIter<Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cloud() -> PointCloud {
        PointCloud::from_points(vec![
            Point::xyz_rgb(0.0, 0.0, 0.0, 255, 0, 0),
            Point::xyz_rgb(1.0, 0.0, 0.0, 0, 255, 0),
            Point::xyz_rgb(0.0, 2.0, 0.0, 0, 0, 255),
            Point::xyz_rgb(0.0, 0.0, 3.0, 9, 9, 9),
        ])
    }

    #[test]
    fn len_and_empty() {
        assert!(PointCloud::new().is_empty());
        assert_eq!(sample_cloud().len(), 4);
    }

    #[test]
    fn aabb_bounds_the_points() {
        let c = sample_cloud();
        let b = c.aabb().unwrap();
        assert_eq!(b.min(), Vec3::ZERO);
        assert_eq!(b.max(), Vec3::new(1.0, 2.0, 3.0));
        assert!(PointCloud::new().aabb().is_none());
    }

    #[test]
    fn iterator_impls() {
        let c = sample_cloud();
        let collected: PointCloud = c.iter().copied().collect();
        assert_eq!(collected, c);
        let mut d = PointCloud::new();
        d.extend(c.clone());
        assert_eq!(d.len(), 4);
        let total: usize = (&c).into_iter().count();
        assert_eq!(total, 4);
    }
}
