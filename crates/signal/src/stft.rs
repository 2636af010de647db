//! Short-time Fourier transform with explicit phase conventions — the
//! reproduction of the paper's Eqs. 5–6 and the §IV-A/B convention
//! discussion.
//!
//! A library's STFT is fully specified only once three choices are pinned
//! down; each is an enum here rather than an implicit behavior:
//!
//! 1. **Phase convention** ([`PhaseConvention`]): where phase zero sits in
//!    each frame. Eq. 5 (time-invariant) references the *frame center*;
//!    Eq. 6 ("simplified", what a stored-window library computes)
//!    references the frame start, which "imbues a delay as well as a phase
//!    skew that is dependent on the (stored) window length L_g". A
//!    frequency-invariant convention references absolute time zero.
//! 2. **Frame alignment** ([`FrameAlignment`]): whether frame `n` is
//!    centered on sample `n·hop` or starts there (a pure delay).
//! 3. **Boundary handling** ([`PaddingMode`]): circular extension,
//!    zero-padding, or the defective truncation the paper quotes — frames
//!    only for `n ∈ [0, (L - L_g)/a]`.
//!
//! Conversion between phase conventions is exactly the "point-wise
//! multiplication of the STFT with an a priori determined matrix of phase
//! factors" the paper prescribes; see [`Stft::convert`].

use crate::fft::FftPlan;
use crate::{Complex64, SignalError};
use std::f64::consts::PI;
use std::sync::Arc;

/// Where phase zero sits within each analysis frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseConvention {
    /// Eq. 5: phase referenced to the frame *center* (`g` peak at
    /// `g[⌊L_g/2⌋]`). Time resolution and frequency resolution are the
    /// same across the time–frequency plane.
    TimeInvariant,
    /// Eq. 6: phase referenced to the frame *start* — the "simplified"
    /// stored-window convention, carrying a phase skew of
    /// `e^{-2πim⌊L_g/2⌋/M}` relative to [`PhaseConvention::TimeInvariant`].
    SimplifiedTimeInvariant,
    /// Phase referenced to absolute sample 0 of the signal.
    FrequencyInvariant,
}

/// Where frame `n` sits relative to sample `n·hop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAlignment {
    /// Frame `n` covers samples `[n·hop - ⌊L_g/2⌋, n·hop + L_g - ⌊L_g/2⌋)`.
    Centered,
    /// Frame `n` covers samples `[n·hop, n·hop + L_g)` — a delay of
    /// `⌊L_g/2⌋` samples relative to [`FrameAlignment::Centered`].
    Causal,
}

/// Boundary handling for frames that extend past the signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaddingMode {
    /// Treat the signal circularly (periodic extension) — the convention
    /// the paper notes some libraries *fail* to implement.
    Circular,
    /// Pad with zeros outside `[0, L)`.
    ZeroPad,
    /// Emit only frames fully inside the signal, i.e.
    /// `n ∈ [0, ⌊(L - L_g)/a⌋]` — the defective truncation quoted in
    /// §IV-B. Tail samples are never analyzed and cannot be reconstructed.
    Truncate,
}

/// How the ISTFT overlap-add is normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalization {
    /// Divide each sample by the actually-accumulated `Σ w²` at that
    /// sample — robust for any window (the modern-librosa behavior).
    WindowSquaredPerSample,
    /// Divide by the constant `Σ_l w[l]² / hop` — correct **only** when
    /// the squared window satisfies constant-overlap-add at this hop;
    /// the assumption some libraries bake in.
    ColaConstant,
}

/// An STFT analysis/synthesis plan: window, hop, FFT size and conventions.
#[derive(Debug, Clone)]
pub struct StftPlan {
    window: Vec<f64>,
    /// Cached `g[l]²` — the overlap-add weights, computed once at plan
    /// construction instead of per frame in [`StftPlan::synthesize`].
    window_sq: Vec<f64>,
    hop: usize,
    fft_size: usize,
    /// Shared FFT plan for `fft_size`: twiddle/bit-reversal tables are
    /// built once and reused for every analysis and synthesis frame.
    fft_plan: Arc<FftPlan>,
    convention: PhaseConvention,
    alignment: FrameAlignment,
    padding: PaddingMode,
    normalization: Normalization,
}

/// The result of an STFT analysis: `frames x fft_size` complex
/// coefficients plus the plan metadata needed for synthesis/conversion.
#[derive(Debug, Clone)]
pub struct Stft {
    /// `data[n][m]` = coefficient at frame `n`, bin `m`.
    data: Vec<Vec<Complex64>>,
    plan: StftPlan,
    signal_len: usize,
}

impl StftPlan {
    /// Creates a plan.
    ///
    /// # Errors
    /// * [`SignalError::EmptyInput`] for an empty window.
    /// * [`SignalError::InvalidParameter`] when `hop == 0`, the FFT size is
    ///   smaller than the window, or the window is not finite.
    pub fn new(
        window: Vec<f64>,
        hop: usize,
        fft_size: usize,
        convention: PhaseConvention,
    ) -> Result<Self, SignalError> {
        if window.is_empty() {
            return Err(SignalError::EmptyInput);
        }
        if !window.iter().all(|v| v.is_finite()) {
            return Err(SignalError::NotFinite);
        }
        if hop == 0 {
            return Err(SignalError::InvalidParameter("hop must be >= 1".into()));
        }
        if fft_size < window.len() {
            return Err(SignalError::InvalidParameter(format!(
                "fft_size {fft_size} < window length {}",
                window.len()
            )));
        }
        let fft_plan = FftPlan::for_len(fft_size)?;
        let window_sq = window.iter().map(|g| g * g).collect();
        Ok(StftPlan {
            window,
            window_sq,
            hop,
            fft_size,
            fft_plan,
            convention,
            alignment: FrameAlignment::Centered,
            padding: PaddingMode::Circular,
            normalization: Normalization::WindowSquaredPerSample,
        })
    }

    /// Sets the frame alignment (default [`FrameAlignment::Centered`]).
    pub fn with_alignment(mut self, alignment: FrameAlignment) -> Self {
        self.alignment = alignment;
        self
    }

    /// Sets the ISTFT normalization (default
    /// [`Normalization::WindowSquaredPerSample`]).
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Sets the boundary handling (default [`PaddingMode::Circular`]).
    pub fn with_padding(mut self, padding: PaddingMode) -> Self {
        self.padding = padding;
        self
    }

    /// The analysis window `g`.
    pub fn window(&self) -> &[f64] {
        &self.window
    }

    /// Hop size `a`.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// FFT length `M`.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Phase convention.
    pub fn convention(&self) -> PhaseConvention {
        self.convention
    }

    /// Frame alignment.
    pub fn alignment(&self) -> FrameAlignment {
        self.alignment
    }

    /// Boundary handling.
    pub fn padding(&self) -> PaddingMode {
        self.padding
    }

    /// Number of frames produced for a signal of length `len`.
    pub fn num_frames(&self, len: usize) -> usize {
        match self.padding {
            PaddingMode::Circular | PaddingMode::ZeroPad => len.div_ceil(self.hop),
            PaddingMode::Truncate => {
                if len < self.window.len() {
                    0
                } else {
                    (len - self.window.len()) / self.hop + 1
                }
            }
        }
    }

    fn frame_start(&self, n: usize) -> i64 {
        let c = match self.alignment {
            FrameAlignment::Centered => (self.window.len() / 2) as i64,
            FrameAlignment::Causal => 0,
        };
        n as i64 * self.hop as i64 - c
    }

    /// Runs the analysis.
    ///
    /// # Errors
    /// * [`SignalError::EmptyInput`] for an empty signal.
    /// * [`SignalError::NotFinite`] for NaN/inf samples.
    /// * [`SignalError::InvalidParameter`] in [`PaddingMode::Truncate`] mode
    ///   when the signal is shorter than the window.
    pub fn analyze(&self, signal: &[f64]) -> Result<Stft, SignalError> {
        if signal.is_empty() {
            return Err(SignalError::EmptyInput);
        }
        if !signal.iter().all(|v| v.is_finite()) {
            return Err(SignalError::NotFinite);
        }
        let len = signal.len() as i64;
        let lg = self.window.len();
        let m_size = self.fft_size;
        let n_frames = self.num_frames(signal.len());
        if n_frames == 0 {
            return Err(SignalError::InvalidParameter(format!(
                "signal of length {} too short for window {lg} in Truncate mode",
                signal.len()
            )));
        }
        let mut data = Vec::with_capacity(n_frames);
        // Frame workspaces, reused across the whole analysis pass: the FFT
        // input is re-zeroed per frame, and fully-in-range frames window
        // through the fused multiply kernel before the phase scatter.
        let mut buf = vec![Complex64::ZERO; m_size];
        let mut windowed = vec![0.0; lg];
        for n in 0..n_frames {
            let start = self.frame_start(n);
            buf.fill(Complex64::ZERO);
            if start >= 0 && start + lg as i64 <= len {
                // Every padding mode is the identity on in-range indices,
                // so the windowed products are a contiguous elementwise
                // multiply (sample·g per element, same as the scalar loop).
                let s = start as usize;
                rcr_kernels::mul_into(&signal[s..s + lg], &self.window, &mut windowed);
                for (l, &wg) in windowed.iter().enumerate() {
                    let pos = self.phase_position(start, l);
                    buf[pos] += Complex64::from_real(wg);
                }
            } else {
                for (l, &g) in self.window.iter().enumerate() {
                    let idx = start + l as i64;
                    let sample = match self.padding {
                        PaddingMode::Circular => signal[idx.rem_euclid(len) as usize],
                        PaddingMode::ZeroPad => {
                            if idx >= 0 && idx < len {
                                signal[idx as usize]
                            } else {
                                0.0
                            }
                        }
                        PaddingMode::Truncate => {
                            // Truncate mode guarantees 0 <= idx < len for
                            // causal alignment; centered frames may still poke
                            // out on the left, fall back to clamping.
                            signal[idx.clamp(0, len - 1) as usize]
                        }
                    };
                    let pos = self.phase_position(start, l);
                    buf[pos] += Complex64::from_real(sample * g);
                }
            }
            data.push(self.fft_plan.forward(&buf)?);
        }
        Ok(Stft {
            data,
            plan: self.clone(),
            signal_len: signal.len(),
        })
    }

    /// Buffer index realizing the phase convention: placing windowed sample
    /// `l` of a frame starting at `start` at this index makes the DFT phase
    /// reference match the convention.
    fn phase_position(&self, start: i64, l: usize) -> usize {
        let m = self.fft_size as i64;
        let c = (self.window.len() / 2) as i64;
        let raw = match self.convention {
            PhaseConvention::SimplifiedTimeInvariant => l as i64,
            PhaseConvention::TimeInvariant => l as i64 - c,
            PhaseConvention::FrequencyInvariant => start + l as i64,
        };
        raw.rem_euclid(m) as usize
    }

    /// Inverse STFT by phase-corrected overlap-add with squared-window
    /// normalization.
    ///
    /// # Errors
    /// * [`SignalError::InvalidParameter`] when the STFT was produced by an
    ///   incompatible plan (different window/hop/FFT size).
    pub fn synthesize(&self, stft: &Stft) -> Result<Vec<f64>, SignalError> {
        if stft.plan.window != self.window
            || stft.plan.hop != self.hop
            || stft.plan.fft_size != self.fft_size
        {
            return Err(SignalError::InvalidParameter(
                "STFT was produced by an incompatible plan".into(),
            ));
        }
        let out_len = stft.signal_len;
        let len = out_len as i64;
        let mut out = vec![0.0; out_len];
        let mut weight = vec![0.0; out_len];
        for (n, frame) in stft.data.iter().enumerate() {
            let start = self.frame_start(n);
            let time = self.fft_plan.inverse(frame)?;
            for (l, &g) in self.window.iter().enumerate() {
                let idx = start + l as i64;
                let target = match self.padding {
                    PaddingMode::Circular => idx.rem_euclid(len),
                    _ => {
                        if idx < 0 || idx >= len {
                            continue;
                        }
                        idx
                    }
                } as usize;
                let pos = self.phase_position(start, l);
                // rcr-lint: allow(unchecked-time-arithmetic, reason = "time-domain f64 sample buffer, not a timestamp")
                out[target] += time[pos].re * g;
                weight[target] += self.window_sq[l];
            }
        }
        match self.normalization {
            Normalization::WindowSquaredPerSample => {
                for (o, w) in out.iter_mut().zip(&weight) {
                    if *w > 1e-12 {
                        *o /= *w;
                    }
                }
            }
            Normalization::ColaConstant => {
                let gain: f64 = self.window_sq.iter().sum::<f64>() / self.hop as f64;
                if gain > 1e-12 {
                    for o in &mut out {
                        *o /= gain;
                    }
                }
            }
        }
        Ok(out)
    }
}

impl Stft {
    /// Coefficient matrix: `frames()[n][m]`.
    pub fn frames(&self) -> &[Vec<Complex64>] {
        &self.data
    }

    /// Number of analysis frames.
    pub fn num_frames(&self) -> usize {
        self.data.len()
    }

    /// FFT length `M` (bins per frame).
    pub fn num_bins(&self) -> usize {
        self.plan.fft_size
    }

    /// The plan that produced this STFT.
    pub fn plan(&self) -> &StftPlan {
        &self.plan
    }

    /// Original signal length (needed by synthesis).
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// The phase factor converting a coefficient at frame `n`, bin `m`
    /// from convention `from` to convention `to` (everything else equal):
    /// `X_to[m,n] = factor · X_from[m,n]`.
    ///
    /// This is the "a priori determined matrix of phase factors" of §IV-B.
    pub fn conversion_factor(
        plan: &StftPlan,
        from: PhaseConvention,
        to: PhaseConvention,
        m: usize,
        n: usize,
    ) -> Complex64 {
        let big_m = plan.fft_size as f64;
        let c = (plan.window.len() / 2) as i64;
        let start = plan.frame_start(n);
        // Each convention places windowed sample `l` at buffer index
        // `l + δ`, so X_conv[m] = e^{-2πimδ/M}·Σ s·g·e^{-2πiml/M} and
        // X_to = X_from · e^{-2πim(δ_to - δ_from)/M}.
        let delta_of = |conv: PhaseConvention| -> i64 {
            match conv {
                PhaseConvention::SimplifiedTimeInvariant => 0,
                PhaseConvention::TimeInvariant => -c,
                PhaseConvention::FrequencyInvariant => start,
            }
        };
        let delta = (delta_of(to) - delta_of(from)) as f64;
        Complex64::cis(-2.0 * PI * m as f64 * delta / big_m)
    }

    /// Converts this STFT to another phase convention by point-wise
    /// multiplication with the conversion phase-factor matrix.
    pub fn convert(&self, to: PhaseConvention) -> Stft {
        let from = self.plan.convention;
        let mut out = self.clone();
        if from == to {
            return out;
        }
        for (n, frame) in out.data.iter_mut().enumerate() {
            for (m, v) in frame.iter_mut().enumerate() {
                *v *= Self::conversion_factor(&self.plan, from, to, m, n);
            }
        }
        out.plan.convention = to;
        out
    }

    /// The theoretical phase skew (radians) between the Eq. 5 and Eq. 6
    /// conventions at bin `m`: `2π·m·⌊L_g/2⌋ / M`.
    pub fn eq5_eq6_phase_skew(plan: &StftPlan, m: usize) -> f64 {
        2.0 * PI * m as f64 * (plan.window.len() / 2) as f64 / plan.fft_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{window, WindowKind, WindowSymmetry};

    fn test_signal(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let t = i as f64;
                (0.21 * t).sin()
                    + 0.5 * (0.07 * t + 1.0).cos()
                    + 0.1 * ((i * 2654435761) % 97) as f64 / 97.0
            })
            .collect()
    }

    fn hann(len: usize) -> Vec<f64> {
        window(WindowKind::Hann, WindowSymmetry::Periodic, len).unwrap()
    }

    fn plan(conv: PhaseConvention) -> StftPlan {
        StftPlan::new(hann(32), 8, 32, conv).unwrap()
    }

    #[test]
    fn roundtrip_circular_all_conventions() {
        let s = test_signal(256);
        for conv in [
            PhaseConvention::TimeInvariant,
            PhaseConvention::SimplifiedTimeInvariant,
            PhaseConvention::FrequencyInvariant,
        ] {
            let p = plan(conv);
            let st = p.analyze(&s).unwrap();
            let back = p.synthesize(&st).unwrap();
            let err: f64 = s
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "{conv:?}: max err {err}");
        }
    }

    #[test]
    fn roundtrip_zeropad() {
        let s = test_signal(200);
        let p = plan(PhaseConvention::TimeInvariant).with_padding(PaddingMode::ZeroPad);
        let st = p.analyze(&s).unwrap();
        let back = p.synthesize(&st).unwrap();
        // Interior samples reconstruct; edges may lose a little energy.
        for i in 32..168 {
            assert!((s[i] - back[i]).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn truncate_mode_loses_tail() {
        // 205 is chosen so (205-32) is NOT a hop multiple: the last frame
        // covers [168, 200) and samples 200..205 are never analyzed.
        let s = test_signal(205);
        let p = plan(PhaseConvention::SimplifiedTimeInvariant)
            .with_alignment(FrameAlignment::Causal)
            .with_padding(PaddingMode::Truncate);
        let st = p.analyze(&s).unwrap();
        // (205 - 32)/8 + 1 = 22 frames, vs ceil(205/8) = 26 for full modes.
        assert_eq!(st.num_frames(), 22);
        let back = p.synthesize(&st).unwrap();
        // The final samples are simply never covered.
        let tail_err: f64 = s[200..]
            .iter()
            .zip(&back[200..])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            tail_err > 1e-3,
            "tail unexpectedly reconstructed: {tail_err}"
        );
    }

    #[test]
    fn conventions_agree_in_magnitude_but_not_phase() {
        let s = test_signal(128);
        let ti = plan(PhaseConvention::TimeInvariant).analyze(&s).unwrap();
        let sti = plan(PhaseConvention::SimplifiedTimeInvariant)
            .analyze(&s)
            .unwrap();
        let mut max_mag_diff = 0.0f64;
        let mut max_phase_diff = 0.0f64;
        for (fa, fb) in ti.frames().iter().zip(sti.frames()) {
            for (a, b) in fa.iter().zip(fb) {
                max_mag_diff = max_mag_diff.max((a.abs() - b.abs()).abs());
                if a.abs() > 1e-6 {
                    max_phase_diff = max_phase_diff.max((a.arg() - b.arg()).abs());
                }
            }
        }
        assert!(max_mag_diff < 1e-10, "magnitudes differ: {max_mag_diff}");
        assert!(max_phase_diff > 0.1, "phases unexpectedly equal");
    }

    #[test]
    fn pointwise_phase_correction_converts_conventions() {
        let s = test_signal(160);
        for (from, to) in [
            (
                PhaseConvention::SimplifiedTimeInvariant,
                PhaseConvention::TimeInvariant,
            ),
            (
                PhaseConvention::TimeInvariant,
                PhaseConvention::FrequencyInvariant,
            ),
            (
                PhaseConvention::SimplifiedTimeInvariant,
                PhaseConvention::FrequencyInvariant,
            ),
        ] {
            let x_from = plan(from).analyze(&s).unwrap();
            let x_to_direct = plan(to).analyze(&s).unwrap();
            let x_converted = x_from.convert(to);
            for (fa, fb) in x_converted.frames().iter().zip(x_to_direct.frames()) {
                for (a, b) in fa.iter().zip(fb) {
                    assert!(
                        (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                        "{from:?}->{to:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn conversion_roundtrip_is_identity() {
        let s = test_signal(96);
        let x = plan(PhaseConvention::TimeInvariant).analyze(&s).unwrap();
        let back = x
            .convert(PhaseConvention::SimplifiedTimeInvariant)
            .convert(PhaseConvention::TimeInvariant);
        for (fa, fb) in x.frames().iter().zip(back.frames()) {
            for (a, b) in fa.iter().zip(fb) {
                assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn phase_skew_grows_with_window_length() {
        // Eq. 5 vs Eq. 6 skew at fixed bin: proportional to ⌊Lg/2⌋/M.
        let p16 = StftPlan::new(hann(16), 4, 64, PhaseConvention::TimeInvariant).unwrap();
        let p32 = StftPlan::new(hann(32), 4, 64, PhaseConvention::TimeInvariant).unwrap();
        let s16 = Stft::eq5_eq6_phase_skew(&p16, 3);
        let s32 = Stft::eq5_eq6_phase_skew(&p32, 3);
        assert!((s32 / s16 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn causal_alignment_is_delayed() {
        // A centered and a causal analysis of the same impulse peak in
        // different frames.
        let mut s = vec![0.0; 128];
        s[64] = 1.0;
        let pc = plan(PhaseConvention::TimeInvariant);
        let pd = plan(PhaseConvention::TimeInvariant).with_alignment(FrameAlignment::Causal);
        let energy = |st: &Stft| -> Vec<f64> {
            st.frames()
                .iter()
                .map(|f| f.iter().map(|c| c.norm_sqr()).sum())
                .collect()
        };
        let ec = energy(&pc.analyze(&s).unwrap());
        let ed = energy(&pd.analyze(&s).unwrap());
        let peak = |e: &[f64]| crate::peaks::peak_bin(e).unwrap();
        // Centered: impulse at sample 64 peaks at frame 64/8 = 8.
        assert_eq!(peak(&ec), 8);
        // Causal: window [n*8, n*8+32) has its Hann peak at n*8+16; energy
        // peaks when the impulse is near the window center, i.e. frame 6.
        assert_eq!(peak(&ed), 6);
    }

    #[test]
    fn plan_validation() {
        assert!(StftPlan::new(vec![], 4, 8, PhaseConvention::TimeInvariant).is_err());
        assert!(StftPlan::new(vec![1.0; 8], 0, 8, PhaseConvention::TimeInvariant).is_err());
        assert!(StftPlan::new(vec![1.0; 8], 4, 4, PhaseConvention::TimeInvariant).is_err());
        assert!(StftPlan::new(vec![f64::NAN; 8], 4, 8, PhaseConvention::TimeInvariant).is_err());
    }

    #[test]
    fn analyze_validates_signal() {
        let p = plan(PhaseConvention::TimeInvariant);
        assert!(p.analyze(&[]).is_err());
        assert!(p.analyze(&[f64::NAN; 64]).is_err());
    }

    #[test]
    fn synthesize_rejects_foreign_plan() {
        let s = test_signal(64);
        let p1 = plan(PhaseConvention::TimeInvariant);
        let p2 = StftPlan::new(hann(16), 8, 32, PhaseConvention::TimeInvariant).unwrap();
        let st = p1.analyze(&s).unwrap();
        assert!(p2.synthesize(&st).is_err());
    }
}
