//! Minimal 3-vector used throughout the orbit crate.
//!
//! Deliberately tiny: the crate only needs dot/cross/norm and elementwise
//! arithmetic, so pulling in a linear-algebra dependency would be overkill.

use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component `f64` vector (km, km/s, or unitless depending on context).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm (avoids the square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector in the same direction. Returns `None` for (near-)zero
    /// vectors, where the direction is undefined.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Rotate this vector about the Z axis (right-handed) by the angle
    /// whose sine and cosine `angle.sin_cos()` gives.
    #[inline]
    pub fn rotate_z(self, (s, c): (f64, f64)) -> Vec3 {
        Vec3 {
            x: c * self.x - s * self.y,
            y: s * self.x + c * self.y,
            z: self.z,
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_cross_are_consistent() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 6.0);
        let c = a.cross(b);
        // The cross product is orthogonal to both inputs.
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn norm_matches_pythagoras() {
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-15);
        assert!((Vec3::new(3.0, 4.0, 12.0).norm() - 13.0).abs() < 1e-15);
    }

    #[test]
    fn normalized_rejects_zero() {
        assert!(Vec3::ZERO.normalized().is_none());
        let u = Vec3::new(0.0, 0.0, 2.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert!((u.z - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rotate_z_quarter_turn() {
        let v = Vec3::new(1.0, 0.0, 5.0).rotate_z(core::f64::consts::FRAC_PI_2.sin_cos());
        assert!(v.x.abs() < 1e-15);
        assert!((v.y - 1.0).abs() < 1e-15);
        assert!((v.z - 5.0).abs() < 1e-15);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(0.5, 0.5, 0.5);
        assert_eq!(a + b, Vec3::new(1.5, 2.5, 3.5));
        assert_eq!(a - b, Vec3::new(0.5, 1.5, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        let mut m = a;
        m += b;
        m -= b;
        assert_eq!(m, a);
    }
}
