//! Floating-point defect scanning.
//!
//! §IV-B of the paper walks through round-off, overflow and underflow as the
//! three representation-level error sources. This module provides the
//! [`FloatAudit`] scanner the E3 conformance suite uses to classify a
//! kernel's output as clean or defective.

/// Summary statistics from scanning a buffer of floats for representation
/// defects.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FloatAudit {
    /// Count of NaN entries.
    pub nan_count: usize,
    /// Count of ±inf entries.
    pub inf_count: usize,
    /// Count of subnormal (denormalized) entries.
    pub subnormal_count: usize,
    /// Count of exact zeros.
    pub zero_count: usize,
    /// Total entries scanned.
    pub total: usize,
    /// Maximum absolute finite value observed.
    pub max_abs: f64,
}

impl FloatAudit {
    /// Scans `xs` and tallies representation defects.
    pub fn scan(xs: &[f64]) -> Self {
        let mut audit = FloatAudit {
            total: xs.len(),
            ..Default::default()
        };
        for &x in xs {
            if x.is_nan() {
                audit.nan_count += 1;
            } else if x.is_infinite() {
                audit.inf_count += 1;
            } else if x == 0.0 {
                audit.zero_count += 1;
            } else if !x.is_normal() {
                audit.subnormal_count += 1;
            }
            if x.is_finite() {
                audit.max_abs = audit.max_abs.max(x.abs());
            }
        }
        audit
    }

    /// True when no NaN/inf entries were found.
    pub fn is_finite(&self) -> bool {
        self.nan_count == 0 && self.inf_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_classifies_defects() {
        let a = FloatAudit::scan(&[1.0, f64::NAN, 2.0]);
        assert_eq!(a.nan_count, 1);
        assert!(!a.is_finite());

        let b = FloatAudit::scan(&[1.0, f64::INFINITY]);
        assert_eq!(b.inf_count, 1);
        assert!(!b.is_finite());

        let c = FloatAudit::scan(&[1.0, 1e-320]);
        assert_eq!(c.subnormal_count, 1);
        assert!(c.is_finite());

        let d = FloatAudit::scan(&[0.0, 1.0, -2.0]);
        assert_eq!((d.nan_count, d.inf_count, d.subnormal_count), (0, 0, 0));
        assert!(d.is_finite());
        assert_eq!(d.zero_count, 1);
        assert_eq!(d.max_abs, 2.0);
    }

    #[test]
    fn audit_empty_is_clean() {
        let a = FloatAudit::scan(&[]);
        assert_eq!(a, FloatAudit::default());
        assert!(a.is_finite());
    }
}
