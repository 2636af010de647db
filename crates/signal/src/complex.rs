use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number with `f64` components.
///
/// A minimal, `Copy` value type covering exactly what the transform kernels
/// need; not a general-purpose complex library.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{iθ}` — the unit phasor at angle `theta`.
    pub fn cis(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (modulus).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude — avoids the square root when only comparing.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Principal argument in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// True when both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, o: Complex64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, o: Complex64) {
        *self = *self * o;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, s: f64) -> Complex64 {
        self.scale(s)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    fn div(self, o: Complex64) -> Complex64 {
        let d = o.norm_sqr();
        Complex64 {
            re: (self.re * o.re + self.im * o.im) / d,
            im: (self.im * o.re - self.re * o.im) / d,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert_eq!(a + b, Complex64::new(-2.0, 2.5));
        assert_eq!(a - b, Complex64::new(4.0, 1.5));
        assert_eq!(a * Complex64::ONE, a);
        assert_eq!(a + Complex64::ZERO, a);
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn multiplication_matches_formula() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, 4.0);
        // (1+2i)(3+4i) = 3+4i+6i-8 = -5+10i
        assert_eq!(a * b, Complex64::new(-5.0, 10.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < 1e-14 && (q.im - a.im).abs() < 1e-14);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::new(2.0 * (PI / 3.0).cos(), 2.0 * (PI / 3.0).sin());
        assert!((z.abs() - 2.0).abs() < 1e-14);
        assert!((z.arg() - PI / 3.0).abs() < 1e-14);
    }

    #[test]
    fn cis_is_unit_phasor() {
        let z = Complex64::cis(1.234);
        assert!((z.abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex64::new(2.0, -3.0);
        assert_eq!(a.conj().conj(), a);
        let p = a * a.conj();
        assert!((p.re - a.norm_sqr()).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
    }

    #[test]
    fn finiteness() {
        assert!(Complex64::new(1.0, 2.0).is_finite());
        assert!(!Complex64::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex64::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
    }
}
