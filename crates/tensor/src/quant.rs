//! Post-training quantization (PTQ) substrate.
//!
//! The paper's baseline models are per-channel symmetrically quantized 8-bit
//! DNNs (§III-C); the PTQ comparison points in Figs. 1/6/11 and Table III
//! re-quantize those INT8 weights to fewer levels. This module implements:
//!
//! * per-channel symmetric quantization of `f32` weights to `bits ≤ 8`,
//! * INT8-domain re-quantization (the "naive PTQ" baseline),
//! * a Microscaling-style shared-exponent format and a NoisyQuant-style
//!   dithered quantizer (Table III comparison points).

use crate::error::TensorError;
use crate::lanes::Backend;
use crate::metrics;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// How the quantization scale is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScaleMethod {
    /// Scale from the maximum absolute value (no clipping).
    #[default]
    AbsMax,
    /// Clip at the given quantile of |w| (e.g. `0.999`).
    Percentile(f64),
    /// Grid-search the clipping scale minimizing reconstruction MSE,
    /// with the given number of candidate scales.
    MseGrid(usize),
}

/// A per-channel symmetrically quantized tensor: `w ≈ q · scale[channel]`.
///
/// Weight tensors are canonicalized to 2-D `[channels, elems_per_channel]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Integer codes, shape `[channels, elems_per_channel]`.
    pub data: Tensor<i8>,
    /// Per-channel scale factors (length = number of channels).
    pub scales: Vec<f32>,
    /// Quantization bit width (2..=8).
    pub bits: u8,
}

impl QuantTensor {
    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.data.shape().dim(0)
    }

    /// Elements per channel.
    pub fn elems_per_channel(&self) -> usize {
        self.data.shape().dim(1)
    }

    /// Integer codes of one channel.
    pub fn channel(&self, c: usize) -> &[i8] {
        self.data.row(c)
    }

    /// Dequantizes back to `f32`.
    pub fn dequantize(&self) -> Tensor<f32> {
        let chans = self.channels();
        let epc = self.elems_per_channel();
        let mut out = Vec::with_capacity(chans * epc);
        for c in 0..chans {
            let s = self.scales[c];
            out.extend(self.data.row(c).iter().map(|&q| q as f32 * s));
        }
        Tensor::from_vec(self.data.shape().clone(), out).expect("shape preserved")
    }
}

/// Largest positive code for a symmetric `bits`-bit quantizer (e.g. 127 for 8).
pub fn qmax(bits: u8) -> i32 {
    assert!((2..=8).contains(&bits), "bits must be in 2..=8");
    (1i32 << (bits - 1)) - 1
}

/// `max |w|` as `f64`, dispatched over the given lane backend.
///
/// Max is associative and commutative over non-NaN values and both paths
/// take `|w|` with an exact sign-bit clear followed by an exact f32→f64
/// conversion, so the wide path is bit-identical to the scalar fold.
fn absmax_f64_with(backend: Backend, channel: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Native && Backend::native_available() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { absmax_avx2(channel) };
    }
    let _ = backend;
    channel.iter().fold(0.0f64, |m, &w| m.max(w.abs() as f64))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn absmax_avx2(channel: &[f32]) -> f64 {
    use core::arch::x86_64::*;
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut m_lo = _mm256_setzero_pd();
    let mut m_hi = _mm256_setzero_pd();
    let mut chunks = channel.chunks_exact(8);
    for ch in &mut chunks {
        let v = _mm256_and_ps(_mm256_loadu_ps(ch.as_ptr()), abs_mask);
        m_lo = _mm256_max_pd(m_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
        m_hi = _mm256_max_pd(m_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), _mm256_max_pd(m_lo, m_hi));
    let vec_max = lanes[0].max(lanes[1]).max(lanes[2]).max(lanes[3]);
    chunks
        .remainder()
        .iter()
        .fold(vec_max, |m, &w| m.max(w.abs() as f64))
}

/// One weight quantized to the symmetric `[-qm, qm]` grid — the scalar
/// definition every wide path must reproduce bit-for-bit.
#[inline]
fn quantize_one(w: f32, s: f32, qm: i32) -> i8 {
    let q = (w / s).round() as i32;
    q.clamp(-qm, qm) as i8
}

fn quantize_row(row: &[f32], s: f32, qm: i32, out: &mut Vec<i8>) {
    quantize_row_with(Backend::active(), row, s, qm, out)
}

fn quantize_row_with(backend: Backend, row: &[f32], s: f32, qm: i32, out: &mut Vec<i8>) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Native && Backend::native_available() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { quantize_row_avx2(row, s, qm, out) };
        return;
    }
    let _ = backend;
    out.extend(row.iter().map(|&w| quantize_one(w, s, qm)));
}

/// Eight-wide quantization, bit-identical to [`quantize_one`].
///
/// `vdivps` is exact IEEE division, but `vroundps` rounds halves to even
/// while `f32::round` rounds halves away from zero, so rounding is emulated
/// as truncate-then-adjust: the fraction `q - trunc(q)` is exact (both are
/// multiples of `ulp(q)` and the difference is < 1), and `|frac| >= 0.5`
/// adds `copysign(1, q)`. Clamping happens on the float grid (integers up
/// to `qm <= 127` are exact in f32, and ±inf from overflowed divides clamp
/// like the scalar saturating `as i32` cast); an ordered-compare mask zeroes
/// NaN lanes (`0.0 / 0.0`) to match `f32::NAN as i32 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], s: f32, qm: i32, out: &mut Vec<i8>) {
    use core::arch::x86_64::*;
    let sv = _mm256_set1_ps(s);
    let qmv = _mm256_set1_ps(qm as f32);
    let neg_qmv = _mm256_set1_ps(-(qm as f32));
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut chunks = row.chunks_exact(8);
    for ch in &mut chunks {
        let q = _mm256_div_ps(_mm256_loadu_ps(ch.as_ptr()), sv);
        let t = _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        let frac = _mm256_and_ps(_mm256_sub_ps(q, t), abs_mask);
        let adj = _mm256_and_ps(
            _mm256_cmp_ps(frac, half, _CMP_GE_OQ),
            _mm256_or_ps(one, _mm256_and_ps(q, sign_mask)),
        );
        let r = _mm256_add_ps(t, adj);
        let c = _mm256_max_ps(_mm256_min_ps(r, qmv), neg_qmv);
        let c = _mm256_and_ps(c, _mm256_cmp_ps(q, q, _CMP_ORD_Q));
        let mut lane = [0i32; 8];
        _mm256_storeu_si256(lane.as_mut_ptr() as *mut __m256i, _mm256_cvttps_epi32(c));
        out.extend(lane.iter().map(|&v| v as i8));
    }
    out.extend(chunks.remainder().iter().map(|&w| quantize_one(w, s, qm)));
}

fn channel_scale(channel: &[f32], bits: u8, method: ScaleMethod) -> f32 {
    channel_scale_with(Backend::active(), channel, bits, method)
}

/// The per-channel scale [`quantize_per_channel`] and [`requantize_i8`]
/// pick, with an explicit [`Backend`] — what the differential tests use to
/// force every compiled backend in-process. Every backend picks the same
/// scale, bit for bit.
pub fn channel_scale_with(backend: Backend, channel: &[f32], bits: u8, method: ScaleMethod) -> f32 {
    let qm = qmax(bits) as f64;
    let absmax = absmax_f64_with(backend, channel);
    if absmax == 0.0 {
        return 1.0;
    }
    match method {
        ScaleMethod::AbsMax => (absmax / qm) as f32,
        ScaleMethod::Percentile(p) => {
            let mut mags: Vec<f64> = channel.iter().map(|&w| w.abs() as f64).collect();
            mags.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in weights"));
            let idx = ((mags.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
            (mags[idx].max(1e-12) / qm) as f32
        }
        ScaleMethod::MseGrid(steps) => mse_grid_scale_with(backend, channel, absmax, qm, steps),
    }
}

/// Candidate scales one [`grid_mses_with`] call scores together.
const GRID_LANES: usize = 8;

/// The `MseGrid(steps)` search: the candidate clip scale with the lowest
/// reconstruction error, the first one winning ties. Candidates are scored
/// [`GRID_LANES`] at a time and compared in candidate order, so batching
/// cannot change which one wins.
fn mse_grid_scale_with(
    backend: Backend,
    channel: &[f32],
    absmax: f64,
    qm: f64,
    steps: usize,
) -> f32 {
    let steps = steps.max(1);
    let mut best_scale = (absmax / qm) as f32;
    let mut best_mse = f64::INFINITY;
    let mut scales = [0.0f32; GRID_LANES];
    let mut mses = [0.0f64; GRID_LANES];
    for first in (0..steps).step_by(GRID_LANES) {
        let n = GRID_LANES.min(steps - first);
        for (k, s) in scales[..n].iter_mut().enumerate() {
            *s = grid_candidate(absmax, qm, steps, first + k);
        }
        // Lanes past `n` rescore leftover scales; their errors are ignored.
        grid_mses_with(backend, channel, &scales, qm as f32, &mut mses);
        for (&s, &mse) in scales[..n].iter().zip(&mses[..n]) {
            // A NaN error (a scale flushed to zero meets a zero weight)
            // never compares below, so it never wins.
            if mse < best_mse {
                best_mse = mse;
                best_scale = s;
            }
        }
    }
    best_scale
}

/// Candidate `k` of `steps`: clip points from 40%..100% of absmax.
fn grid_candidate(absmax: f64, qm: f64, steps: usize, k: usize) -> f32 {
    let frac = 0.4 + 0.6 * (k as f64 + 1.0) / steps as f64;
    (absmax * frac / qm) as f32
}

/// Squared reconstruction error of `channel`, summed in element order, at
/// candidate scale `s` — the scalar definition every wide path must
/// reproduce bit-for-bit.
///
/// Codes clamp to `[-qm - 1, qm]`, but [`requantize_i8`] and
/// [`noisy_quant_reconstruct`] reconstruct on `[-qm, qm]`, so the search
/// can score a scale with a code the reconstruction never emits. The clamp
/// is kept as is: the golden repro's PTQ and NoisyQuant rows depend on it.
fn candidate_mse(channel: &[f32], s: f32, qm: f32) -> f64 {
    channel
        .iter()
        .map(|&w| {
            let q = (w / s).round().clamp(-qm - 1.0, qm);
            let r = q * s;
            (w as f64 - r as f64).powi(2)
        })
        .sum()
}

/// [`candidate_mse`] of each of [`GRID_LANES`] candidate scales, written
/// to `mses` in candidate order.
fn grid_mses_with(
    backend: Backend,
    channel: &[f32],
    scales: &[f32; GRID_LANES],
    qm: f32,
    mses: &mut [f64; GRID_LANES],
) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Native && Backend::native_available() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { grid_mses_avx2(channel, scales, qm, mses) };
        return;
    }
    let _ = backend;
    for (mse, &s) in mses.iter_mut().zip(scales) {
        *mse = candidate_mse(channel, s, qm);
    }
}

/// Eight candidate scales per vector, bit-identical to [`candidate_mse`]
/// in every lane.
///
/// The lanes are candidates, not elements: each element is broadcast and
/// its squared error added to each candidate's own f64 accumulator, so
/// every candidate sums the same terms in the same order as the scalar
/// fold. Division is exact `vdivps`; rounding is the truncate + fraction
/// compare of [`quantize_row_avx2`], with a blend rather than an add so a
/// `-0.0` rounds to `-0.0`; the clamp takes `min(qm, q)` and
/// `max(-qm - 1, ·)` in the operand order that passes a NaN quotient
/// through, as `f32::clamp` does. The product is rounded to f32 before
/// widening, and the subtract, square and add stay separate operations
/// (no FMA).
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn grid_mses_avx2(
    channel: &[f32],
    scales: &[f32; GRID_LANES],
    qm: f32,
    mses: &mut [f64; GRID_LANES],
) {
    use core::arch::x86_64::*;
    let sv = _mm256_loadu_ps(scales.as_ptr());
    let hi = _mm256_set1_ps(qm);
    let lo = _mm256_set1_ps(-qm - 1.0);
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    for &w in channel {
        let q = _mm256_div_ps(_mm256_set1_ps(w), sv);
        let t = _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        let frac = _mm256_and_ps(_mm256_sub_ps(q, t), abs_mask);
        let away = _mm256_add_ps(t, _mm256_or_ps(one, _mm256_and_ps(q, sign_mask)));
        let rounded = _mm256_blendv_ps(t, away, _mm256_cmp_ps(frac, half, _CMP_GE_OQ));
        let clamped = _mm256_max_ps(lo, _mm256_min_ps(hi, rounded));
        let r = _mm256_mul_ps(clamped, sv);
        let wd = _mm256_set1_pd(w as f64);
        let d_lo = _mm256_sub_pd(wd, _mm256_cvtps_pd(_mm256_castps256_ps128(r)));
        let d_hi = _mm256_sub_pd(wd, _mm256_cvtps_pd(_mm256_extractf128_ps(r, 1)));
        acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
    }
    _mm256_storeu_pd(mses.as_mut_ptr(), acc_lo);
    _mm256_storeu_pd(mses.as_mut_ptr().add(4), acc_hi);
}

/// Quantizes a 2-D `[channels, elems]` `f32` tensor symmetrically per
/// channel.
///
/// Codes are clamped to `[-qmax(bits), qmax(bits)]` (symmetric grid; the
/// most-negative code is unused, matching common per-channel PTQ practice
/// such as TensorRT's).
///
/// # Errors
///
/// Returns [`TensorError::AxisOutOfRange`] if the tensor is not rank 2.
pub fn quantize_per_channel(
    weights: &Tensor<f32>,
    bits: u8,
    method: ScaleMethod,
) -> Result<QuantTensor, TensorError> {
    if weights.shape().rank() != 2 {
        return Err(TensorError::AxisOutOfRange {
            axis: 1,
            rank: weights.shape().rank(),
        });
    }
    let chans = weights.shape().dim(0);
    let epc = weights.shape().dim(1);
    let qm = qmax(bits);
    let mut scales = Vec::with_capacity(chans);
    let mut data = Vec::with_capacity(chans * epc);
    for c in 0..chans {
        let row = weights.row(c);
        let s = channel_scale(row, bits, method);
        scales.push(s);
        quantize_row(row, s, qm, &mut data);
    }
    Ok(QuantTensor {
        data: Tensor::from_vec(Shape::matrix(chans, epc), data)?,
        scales,
        bits,
    })
}

/// Re-quantizes INT8 codes to a `bits`-level grid and reconstructs them on
/// the original INT8 grid (the "naive PTQ" compression baseline of
/// Figs. 1/6/11).
///
/// The returned values are integers in the INT8 value domain (rounded), so
/// they can be compared against the originals with [`metrics::mse_i8`] and
/// [`metrics::kl_divergence_i8`].
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn requantize_i8(group: &[i8], bits: u8, method: ScaleMethod) -> Vec<i32> {
    assert!(!group.is_empty());
    let as_f32: Vec<f32> = group.iter().map(|&w| w as f32).collect();
    let qm = qmax(bits);
    let s = channel_scale(&as_f32, bits, method);
    as_f32
        .iter()
        .map(|&w| {
            let q = (w / s).round().clamp(-(qm as f32), qm as f32);
            (q * s).round() as i32
        })
        .collect()
}

/// Reconstruction MSE of [`requantize_i8`] without materializing the codes.
pub fn requantize_mse(group: &[i8], bits: u8, method: ScaleMethod) -> f64 {
    let recon = requantize_i8(group, bits, method);
    metrics::mse_i8(group, &recon)
}

/// Microscaling-style shared-exponent reconstruction (Table III).
///
/// A group shares one 8-bit exponent chosen from its largest magnitude;
/// each element is a small *floating-point* value (sign + 3-bit exponent +
/// the remaining mantissa bits, FP6-style for `element_bits = 6`). The
/// shared exponent is set by the group's outlier, so small values fall
/// below the representable range and collapse to zero — the failure mode
/// the paper points out for Microscaling ("the exponent is determined by
/// the largest value in every group, which forces small values to become
/// zero").
///
/// # Panics
///
/// Panics if `group` is empty or `element_bits` is not in `4..=8`.
pub fn microscaling_reconstruct(group: &[i8], element_bits: u8) -> Vec<i32> {
    assert!(!group.is_empty());
    assert!((4..=8).contains(&element_bits));
    let absmax = group
        .iter()
        .map(|&w| (w as i32).abs())
        .max()
        .expect("non-empty");
    if absmax == 0 {
        return vec![0; group.len()];
    }
    // Element format (OCP MXFP-style): 1 sign + 2 exponent + m mantissa
    // bits — E2M3 for 6-bit elements, E2M1 for 4-bit.
    let m_bits = element_bits as i32 - 3;
    let m_levels = 1i32 << m_bits;
    // Shared scale: the largest element value (exp 3, full mantissa) maps
    // to the group absmax.
    let max_elem = 8.0 * (2.0 - 1.0 / m_levels as f64);
    let scale = absmax as f64 / max_elem;
    group
        .iter()
        .map(|&w| {
            let a = (w as f64).abs() / scale;
            if a < 1.0 {
                // Below the smallest normal: flushes to zero — the narrow
                // element range is exactly what kills small values when an
                // outlier sets the shared exponent.
                return 0;
            }
            let e = a.log2().floor().min(3.0);
            let base = 2f64.powf(e);
            let m = ((a / base - 1.0) * m_levels as f64)
                .round()
                .clamp(0.0, (m_levels - 1) as f64);
            let v = (base * (1.0 + m / m_levels as f64) * scale).round() as i32;
            (w as i32).signum() * v
        })
        .collect()
}

/// NoisyQuant-style dithered re-quantization (Table III): a deterministic
/// per-element pseudo-noise bias is added before rounding and removed after,
/// trading rounding bias for noise.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn noisy_quant_reconstruct(group: &[i8], bits: u8) -> Vec<i32> {
    assert!(!group.is_empty());
    let as_f32: Vec<f32> = group.iter().map(|&w| w as f32).collect();
    let qm = qmax(bits);
    let s = channel_scale(&as_f32, bits, ScaleMethod::MseGrid(32));
    group
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            // Deterministic triangular-ish dither in (-0.5, 0.5) scale units.
            let noise = (((i.wrapping_mul(2654435761)) >> 8) & 0xffff) as f32 / 65536.0 - 0.5;
            let q = ((w as f32 + noise * s) / s)
                .round()
                .clamp(-(qm as f32), qm as f32);
            (q * s - noise * s).round() as i32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn gaussian_matrix(chans: usize, epc: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SeededRng::new(seed);
        let data = rng.gaussian_vec_f32(chans * epc, 0.0, 0.02);
        Tensor::from_vec(Shape::matrix(chans, epc), data).unwrap()
    }

    #[test]
    fn qmax_values() {
        assert_eq!(qmax(8), 127);
        assert_eq!(qmax(5), 15);
        assert_eq!(qmax(2), 1);
    }

    #[test]
    fn int8_quantization_roundtrip_error_bounded() {
        let w = gaussian_matrix(8, 64, 21);
        let qt = quantize_per_channel(&w, 8, ScaleMethod::AbsMax).unwrap();
        let recon = qt.dequantize();
        for c in 0..8 {
            let s = qt.scales[c];
            for (x, y) in w.row(c).iter().zip(recon.row(c)) {
                assert!((x - y).abs() <= s * 0.5 + 1e-7, "error beyond half LSB");
            }
        }
    }

    #[test]
    fn per_channel_scales_differ() {
        let mut data = vec![0.0f32; 2 * 16];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i < 16 { 0.01 } else { 1.0 } * ((i % 16) as f32 - 8.0);
        }
        let w = Tensor::from_vec(Shape::matrix(2, 16), data).unwrap();
        let qt = quantize_per_channel(&w, 8, ScaleMethod::AbsMax).unwrap();
        assert!(qt.scales[1] > qt.scales[0] * 50.0);
    }

    #[test]
    fn int8_quantization_has_negligible_error() {
        // Mirrors Table I: INT8 per-channel PTQ is essentially lossless.
        let w = gaussian_matrix(16, 256, 22);
        let qt = quantize_per_channel(&w, 8, ScaleMethod::AbsMax).unwrap();
        let recon = qt.dequantize();
        let sqnr = metrics::sqnr_db(w.as_slice(), recon.as_slice());
        assert!(sqnr > 40.0, "INT8 SQNR {sqnr} dB too low");
    }

    #[test]
    fn lower_bits_increase_error() {
        let w = gaussian_matrix(4, 128, 23);
        let mut last = -1.0f64;
        for bits in [8u8, 6, 4, 3] {
            let qt = quantize_per_channel(&w, bits, ScaleMethod::AbsMax).unwrap();
            let recon = qt.dequantize();
            let mse = w.mse(&recon).unwrap();
            assert!(mse >= last, "mse must grow as bits shrink");
            last = mse;
        }
    }

    #[test]
    fn mse_grid_never_worse_than_absmax() {
        let mut rng = SeededRng::new(24);
        // Heavy-tailed channel: clipping should help.
        let data: Vec<f32> = (0..512).map(|_| rng.student_t(3) as f32 * 0.02).collect();
        let w = Tensor::from_vec(Shape::matrix(1, 512), data).unwrap();
        let q_abs = quantize_per_channel(&w, 4, ScaleMethod::AbsMax).unwrap();
        let q_mse = quantize_per_channel(&w, 4, ScaleMethod::MseGrid(64)).unwrap();
        let mse_abs = w.mse(&q_abs.dequantize()).unwrap();
        let mse_mse = w.mse(&q_mse.dequantize()).unwrap();
        assert!(mse_mse <= mse_abs * 1.0001);
    }

    #[test]
    fn requantize_i8_is_exact_at_8_bits() {
        let group: Vec<i8> = (-127..=127).collect();
        let recon = requantize_i8(&group, 8, ScaleMethod::AbsMax);
        for (w, r) in group.iter().zip(&recon) {
            assert_eq!(*w as i32, *r);
        }
    }

    #[test]
    fn requantize_collapses_levels() {
        // PTQ to 5 bits can produce at most 2^5 - 1 = 31 distinct values
        // (symmetric grid) — the Fig. 1 limitation.
        let mut rng = SeededRng::new(25);
        let group: Vec<i8> = (0..512).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
        let recon = requantize_i8(&group, 5, ScaleMethod::MseGrid(64));
        let mut distinct: Vec<i32> = recon.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 31, "got {} levels", distinct.len());
    }

    #[test]
    fn microscaling_zeroes_small_values() {
        // One outlier forces a large shared scale; small values flush to
        // zero (the narrow MXFP element range).
        let group = [100i8, 1, -1, 2, 0, -2, 1, 1];
        let recon = microscaling_reconstruct(&group, 4);
        assert_eq!(recon[0], 100, "outlier representable at full mantissa");
        assert!(
            recon[1..].iter().all(|&r| r == 0),
            "values far below the shared scale must collapse: {recon:?}"
        );
    }

    #[test]
    fn microscaling_fp6_keeps_moderate_values() {
        // Without outliers, E2M3 elements track the group well.
        let group = [40i8, -33, 25, 18, -44, 29, 37, -21];
        let recon = microscaling_reconstruct(&group, 6);
        for (w, r) in group.iter().zip(&recon) {
            assert!((*w as i32 - r).abs() <= 6, "{w} -> {r}");
        }
    }

    #[test]
    fn microscaling_zero_group() {
        assert_eq!(microscaling_reconstruct(&[0, 0, 0], 4), vec![0, 0, 0]);
    }

    #[test]
    fn noisy_quant_close_to_plain_ptq() {
        let mut rng = SeededRng::new(26);
        let group: Vec<i8> = (0..256).map(|_| rng.gaussian_i8(0.0, 25.0)).collect();
        let noisy = noisy_quant_reconstruct(&group, 6);
        let mse = metrics::mse_i8(&group, &noisy);
        // 6-bit quantization step on this range is ~2; dithered error stays
        // in the same ballpark.
        assert!(mse < 8.0, "mse {mse}");
    }

    #[test]
    fn quantize_row_matches_scalar_on_every_backend() {
        let mut rng = SeededRng::new(77);
        // Adversarial values around the rounding and saturation edges; the
        // 0.49999997 pair is the nearest-below-half f32 that naive
        // `x + copysign(0.5, x)` emulations round incorrectly.
        let edges: Vec<f32> = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -2.5,
            126.5,
            -126.5,
            127.5,
            0.499_999_97,
            -0.499_999_97,
            200.0,
            -200.0,
            1e30,
            -1e30,
            1e-30,
            f32::MIN_POSITIVE,
        ];
        for backend in Backend::available() {
            for s in [1.0f32, 0.02, 3.7e-3] {
                for qm in [127, 7, 1] {
                    let mut want = Vec::new();
                    quantize_row_with(Backend::Scalar, &edges, s, qm, &mut want);
                    let mut got = Vec::new();
                    quantize_row_with(backend, &edges, s, qm, &mut got);
                    assert_eq!(got, want, "{backend:?} s={s} qm={qm}");
                }
            }
            for case in 0..40 {
                let n = rng.uniform_usize(1, 70);
                let row: Vec<f32> = (0..n).map(|_| rng.gaussian(0.0, 0.05) as f32).collect();
                let s = channel_scale(&row, 8, ScaleMethod::AbsMax);
                let mut want = Vec::new();
                quantize_row_with(Backend::Scalar, &row, s, 127, &mut want);
                let mut got = Vec::new();
                quantize_row_with(backend, &row, s, 127, &mut got);
                assert_eq!(got, want, "{backend:?} case {case} n={n}");
            }
        }
    }

    #[test]
    fn quantize_row_zero_scale_matches_scalar() {
        // A denormal-small absmax can underflow the f32 scale to zero;
        // 0/0 = NaN must quantize to 0 and ±x/0 = ±inf must saturate,
        // exactly like the scalar `as i32` cast path.
        let row = [0.0f32, 1.0, -1.0, 5.5, -0.25, 0.0, 2.0, -3.0, 0.0];
        for backend in Backend::available() {
            let mut want = Vec::new();
            quantize_row_with(Backend::Scalar, &row, 0.0, 127, &mut want);
            let mut got = Vec::new();
            quantize_row_with(backend, &row, 0.0, 127, &mut got);
            assert_eq!(got, want, "{backend:?}");
        }
    }

    #[test]
    fn absmax_matches_scalar_on_every_backend() {
        let mut rng = SeededRng::new(78);
        for backend in Backend::available() {
            for case in 0..40 {
                let n = rng.uniform_usize(1, 70);
                let row: Vec<f32> = (0..n)
                    .map(|_| {
                        (rng.gaussian(0.0, 0.05) * 10f64.powi(rng.uniform_usize(0, 9) as i32 - 4))
                            as f32
                    })
                    .collect();
                let want = absmax_f64_with(Backend::Scalar, &row);
                let got = absmax_f64_with(backend, &row);
                assert_eq!(got.to_bits(), want.to_bits(), "{backend:?} case {case}");
            }
            assert_eq!(absmax_f64_with(backend, &[]), 0.0);
            assert_eq!(absmax_f64_with(backend, &[-0.0f32; 11]), 0.0);
        }
    }

    /// Asserts that `backend` scores every `MseGrid(steps)` candidate of
    /// `channel` with the scalar oracle's exact MSE bits and picks the
    /// oracle's scale bits.
    fn assert_grid_matches(backend: Backend, channel: &[f32], bits: u8, steps: usize) {
        let qm = qmax(bits) as f64;
        let absmax = absmax_f64_with(Backend::Scalar, channel);
        let ctx = format!("{backend:?} n={} bits={bits} steps={steps}", channel.len());
        let candidates: Vec<f32> = (0..steps)
            .map(|k| grid_candidate(absmax, qm, steps, k))
            .collect();
        for batch in candidates.chunks(GRID_LANES) {
            // A short last batch leaves zero scales in its spare lanes.
            let mut scales = [0.0f32; GRID_LANES];
            scales[..batch.len()].copy_from_slice(batch);
            let mut got = [0.0f64; GRID_LANES];
            grid_mses_with(backend, channel, &scales, qm as f32, &mut got);
            for (&s, g) in scales.iter().zip(&got) {
                let want = candidate_mse(channel, s, qm as f32);
                assert_eq!(g.to_bits(), want.to_bits(), "{ctx} s={s:e}: {g} vs {want}");
            }
        }
        let want = mse_grid_scale_with(Backend::Scalar, channel, absmax, qm, steps);
        let got = mse_grid_scale_with(backend, channel, absmax, qm, steps);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{ctx}: scale {got:e} vs {want:e}"
        );
        let method = ScaleMethod::MseGrid(steps);
        assert_eq!(
            channel_scale_with(backend, channel, bits, method).to_bits(),
            channel_scale_with(Backend::Scalar, channel, bits, method).to_bits(),
            "{ctx}: channel_scale_with"
        );
    }

    const GRID_STEPS: [usize; 6] = [1, 5, 8, 31, 32, 64];

    #[test]
    fn mse_grid_matches_scalar_on_every_backend() {
        let mut rng = SeededRng::new(79);
        for backend in Backend::available() {
            for case in 0..120 {
                let n = rng.uniform_usize(1, 131);
                let bits = rng.uniform_usize(2, 9) as u8;
                let std = [2.0, 20.0, 60.0][case % 3];
                let channel: Vec<f32> = (0..n).map(|_| rng.gaussian_i8(0.0, std) as f32).collect();
                for steps in GRID_STEPS {
                    assert_grid_matches(backend, &channel, bits, steps);
                }
            }
        }
    }

    #[test]
    fn mse_grid_matches_scalar_at_the_code_edges() {
        let extremes: Vec<f32> = (0..40)
            .map(|i| [-128.0, 127.0, 0.0, -1.0, 64.0][i % 5])
            .collect();
        let saturated = [-128.0f32; 33];
        let top = [127.0f32; 7];
        for backend in Backend::available() {
            for bits in 2..=8 {
                for steps in GRID_STEPS {
                    assert_grid_matches(backend, &extremes, bits, steps);
                    assert_grid_matches(backend, &saturated, bits, steps);
                    assert_grid_matches(backend, &top, bits, steps);
                    // All-zero channels keep the unit scale, and every
                    // candidate of a zero absmax is a NaN-scoring 0.0.
                    let zeros = [0.0f32; 32];
                    assert_grid_matches(backend, &zeros, bits, steps);
                    assert_eq!(
                        channel_scale_with(backend, &zeros, bits, ScaleMethod::MseGrid(steps)),
                        1.0
                    );
                }
            }
        }
    }

    #[test]
    fn mse_grid_matches_scalar_on_tiny_and_huge_floats() {
        // Subnormal and tiny absmax flush candidate scales to zero, so
        // zero weights divide to NaN and the rest to ±inf; huge magnitudes
        // exercise the f64 widening.
        let mut rng = SeededRng::new(80);
        let magnitudes = [1e-45f32, 1e-42, f32::MIN_POSITIVE, 1e-30, 1e30, 3e38];
        for backend in Backend::available() {
            for &m in &magnitudes {
                for case in 0..6 {
                    let n = rng.uniform_usize(1, 70);
                    let channel: Vec<f32> = (0..n)
                        .map(|i| {
                            if case % 2 == 0 && i % 4 == 0 {
                                0.0
                            } else {
                                (rng.gaussian(0.0, 1.0) as f32).clamp(-1.0, 1.0) * m
                            }
                        })
                        .collect();
                    for bits in [2u8, 4, 6, 8] {
                        for steps in GRID_STEPS {
                            assert_grid_matches(backend, &channel, bits, steps);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_non_matrix_tensor() {
        let t = Tensor::from_vec(Shape::vector(4), vec![0.0f32; 4]).unwrap();
        assert!(quantize_per_channel(&t, 8, ScaleMethod::AbsMax).is_err());
    }
}
