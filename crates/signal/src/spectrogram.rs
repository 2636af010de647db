//! Power spectrograms — the time–frequency images consumed by the MSY3I
//! burst detector and by spectrum-sensing examples.

use crate::stft::Stft;
use crate::SignalError;

/// A real-valued power spectrogram: `data[n][m]` is the power at frame
/// `n`, bin `m` (only the non-redundant `M/2 + 1` bins are kept).
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    data: Vec<Vec<f64>>,
    n_bins: usize,
}

impl Spectrogram {
    /// Builds a power spectrogram (`|X|²`) from an STFT.
    ///
    /// # Errors
    /// Returns [`SignalError::EmptyInput`] when the STFT has no frames.
    pub fn from_stft(stft: &Stft) -> Result<Self, SignalError> {
        if stft.num_frames() == 0 {
            return Err(SignalError::EmptyInput);
        }
        let n_bins = stft.num_bins() / 2 + 1;
        let data = stft
            .frames()
            .iter()
            .map(|f| f[..n_bins].iter().map(|c| c.norm_sqr()).collect())
            .collect();
        Ok(Spectrogram { data, n_bins })
    }

    /// Number of time frames.
    pub fn num_frames(&self) -> usize {
        self.data.len()
    }

    /// Number of frequency bins (`M/2 + 1`).
    pub fn num_bins(&self) -> usize {
        self.n_bins
    }

    /// Power values: `rows()[n][m]`.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.data
    }

    /// Converts to decibels relative to the peak, clamped at `floor_db`
    /// (e.g. `-80.0`).
    // rcr-lint: unit(floor_db = GainDb, reason = "dB relative to peak — a ratio in the log domain, the one sanctioned 10*log10 boundary of this type")
    pub fn to_db(&self, floor_db: f64) -> Spectrogram {
        let peak = self
            .data
            .iter()
            .flatten()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        let data = self
            .data
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&p| (10.0 * (p / peak).max(1e-300).log10()).max(floor_db))
                    .collect()
            })
            .collect();
        Spectrogram {
            data,
            n_bins: self.n_bins,
        }
    }

    /// Total power summed over the whole plane.
    // rcr-lint: unit(return = PowerLinear, reason = "sums linear |X|^2 cells; summing a dB plane would be meaningless")
    pub fn total_power(&self) -> f64 {
        self.data.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stft::{PhaseConvention, StftPlan};
    use crate::window::{window, WindowKind, WindowSymmetry};
    use std::f64::consts::PI;

    fn make(signal: &[f64]) -> Spectrogram {
        let g = window(WindowKind::Hann, WindowSymmetry::Periodic, 32).unwrap();
        let plan = StftPlan::new(g, 8, 32, PhaseConvention::TimeInvariant).unwrap();
        Spectrogram::from_stft(&plan.analyze(signal).unwrap()).unwrap()
    }

    #[test]
    fn tone_concentrates_power_at_its_bin() {
        let k0 = 6usize;
        let s: Vec<f64> = (0..256)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / 32.0).cos())
            .collect();
        let sp = make(&s);
        assert_eq!(sp.num_bins(), 17);
        for row in sp.rows() {
            let peak = crate::peaks::peak_bin(row).unwrap();
            assert_eq!(peak, k0);
        }
    }

    // NaN regression (Fig. 3 defect class). Two layers of defense, both
    // deterministic and panic-free: (1) the STFT front door rejects a
    // NaN-containing signal with a typed error — corruption cannot even
    // enter this crate's transform chain; (2) peak-picking over spectra
    // that arrive poisoned from elsewhere (the cross-toolkit scenario
    // Fig. 3 catalogs) never panics and never lets a NaN bin outrank a
    // real one.
    #[test]
    fn nan_spectra_keep_peak_picking_deterministic() {
        let k0 = 6usize;
        let mut s: Vec<f64> = (0..256)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / 32.0).cos())
            .collect();
        s[100] = f64::NAN;
        // Layer 1: the transform refuses NaN input outright.
        let g = window(WindowKind::Hann, WindowSymmetry::Periodic, 32).unwrap();
        let plan = StftPlan::new(g, 8, 32, PhaseConvention::TimeInvariant).unwrap();
        assert!(matches!(
            plan.analyze(&s),
            Err(crate::SignalError::NotFinite)
        ));

        // Layer 2: spectra corrupted upstream of us.
        s[100] = 0.0;
        let mut rows: Vec<Vec<f64>> = make(&s).rows().to_vec();
        let poisoned = 3usize;
        for v in &mut rows[poisoned][..4] {
            *v = f64::NAN; // partially corrupt one frame
        }
        let all_nan = rows.len() - 1;
        for v in &mut rows[all_nan] {
            *v = f64::NAN; // fully corrupt another
        }
        for (i, row) in rows.iter().enumerate() {
            let peak = crate::peaks::peak_bin(row).unwrap();
            if i == all_nan {
                // Documented all-NaN behavior: bin 0, and reading the
                // value back still shows the NaN.
                assert_eq!(peak, 0);
                assert!(row[peak].is_nan());
            } else {
                // A NaN bin never wins over a real one; clean frames
                // (and the partially poisoned one, whose tone bin
                // k0 = 6 survived) still pick the tone.
                assert!(!row[peak].is_nan());
                assert_eq!(peak, k0);
            }
        }
    }

    #[test]
    fn db_conversion_peak_is_zero() {
        let s: Vec<f64> = (0..128).map(|i| (0.3 * i as f64).sin()).collect();
        let db = make(&s).to_db(-80.0);
        let max = db
            .rows()
            .iter()
            .flatten()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = db
            .rows()
            .iter()
            .flatten()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((max - 0.0).abs() < 1e-12);
        assert!(min >= -80.0);
    }

    #[test]
    fn total_power_of_a_nonzero_signal_is_positive() {
        let s: Vec<f64> = (0..64).map(|i| i as f64 * 0.01).collect();
        let sp = make(&s);
        assert!(sp.total_power() > 0.0);
    }
}
