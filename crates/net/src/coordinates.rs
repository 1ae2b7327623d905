//! A 2-D coordinate space for placing peers and landmarks.
//!
//! The BRITE topology generator places routers on a plane and assigns link
//! delays proportional to Euclidean distance. Our underlay keeps the same
//! geometric intuition: every node has a position in the unit square and
//! latency grows monotonically with distance, so peers that are close in the
//! plane behave like peers in the same region of the Internet.

/// A point in the unit square `[0, 1] × [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal coordinate in `[0, 1]`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1]`.
    pub y: f64,
}

impl Point {
    /// The maximum possible distance between two points in the unit square.
    pub const MAX_DISTANCE: f64 = std::f64::consts::SQRT_2;

    /// Creates a point, clamping both coordinates into `[0, 1]`.
    pub fn new(x: f64, y: f64) -> Self {
        Point {
            x: x.clamp(0.0, 1.0),
            y: y.clamp(0.0, 1.0),
        }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Distance normalised to `[0, 1]` by the unit-square diagonal.
    pub fn normalized_distance(&self, other: &Point) -> f64 {
        self.distance(other) / Self::MAX_DISTANCE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(0.3, 0.4);
        assert!((a.distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(0.2, 0.9);
        let b = Point::new(0.7, 0.1);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn constructor_clamps_out_of_range() {
        let p = Point::new(-0.5, 1.5);
        assert_eq!(p.x, 0.0);
        assert_eq!(p.y, 1.0);
    }

    #[test]
    fn normalized_distance_bounded_by_one() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 1.0);
        assert!((a.normalized_distance(&b) - 1.0).abs() < 1e-12);
        let c = Point::new(0.5, 0.5);
        assert!(a.normalized_distance(&c) < 1.0);
    }
}
