//! 8-bit RGB color, matching the attribute layout of the 8i full-body scans.

use serde::{Deserialize, Serialize};

/// An 8-bit-per-channel RGB color.
///
/// The 8i Voxelized Full Bodies dataset stores `red`, `green`, `blue` as
/// `uchar` PLY properties; this type mirrors that layout.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Pure white.
    pub const WHITE: Color = Color::new(255, 255, 255);
    /// Pure black.
    pub const BLACK: Color = Color::new(0, 0, 0);

    /// Creates a color from channel values.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Color { r, g, b }
    }
}

impl From<[u8; 3]> for Color {
    #[inline]
    fn from(a: [u8; 3]) -> Self {
        Color::new(a[0], a[1], a[2])
    }
}

impl From<Color> for [u8; 3] {
    #[inline]
    fn from(c: Color) -> Self {
        [c.r, c.g, c.b]
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Color::WHITE, Color::new(255, 255, 255));
        assert_eq!(Color::BLACK, Color::new(0, 0, 0));
    }

    #[test]
    fn conversion_and_display() {
        let c = Color::from([1, 2, 3]);
        let a: [u8; 3] = c.into();
        assert_eq!(a, [1, 2, 3]);
        assert_eq!(Color::new(255, 0, 16).to_string(), "#ff0010");
    }
}
