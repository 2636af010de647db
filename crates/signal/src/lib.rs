//! Signal-processing kernels with explicit numerical conventions.
//!
//! Reproduces the paper's §IV-A/B: the 5G-relevant transform core —
//! FFT, IFFT, RFFT, IRFFT, STFT, ISTFT — implemented *with the conventions
//! spelled out*, plus an emulation layer for the library defects the paper
//! catalogs in Fig. 3.
//!
//! * [`Complex64`] — minimal complex arithmetic (no external deps).
//! * [`fft`] — radix-2 + Bluestein FFT for arbitrary lengths, real
//!   transforms, and a deliberately naive `O(n²)` DFT as the oracle.
//! * [`window`] — Hann/Hamming/Gaussian/Blackman windows (periodic &
//!   symmetric variants — another classic library-mismatch source).
//! * [`stft`] — the short-time Fourier transform under three conventions:
//!   the **time-invariant** convention of Eq. 5, the **simplified
//!   stored-window** convention of Eq. 6 (which "imbues a delay as well as
//!   a phase skew that is dependent on the stored window length L_g"), and
//!   the point-wise phase-factor correction the paper prescribes for
//!   converting between them.
//! * [`profile`] — [`profile::LibraryProfile`] emulates each documented
//!   defect class so the [`profile::ConformanceSuite`] can regenerate the
//!   Fig. 3 issue matrix.
//!
//! # Example
//!
//! ```
//! use rcr_signal::fft;
//!
//! # fn main() -> Result<(), rcr_signal::SignalError> {
//! let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
//! let spec = fft::rfft(&x)?;
//! let back = fft::irfft(&spec, x.len())?;
//! assert!(x.iter().zip(&back).all(|(a, b)| (a - b).abs() < 1e-12));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod error;
pub mod fft;
pub mod peaks;
pub mod profile;
pub mod spectrogram;
pub mod stft;
pub mod window;

pub use complex::Complex64;
pub use error::SignalError;
