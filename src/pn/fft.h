// Iterative radix-2 FFT on split re/im arrays — the transform core of the
// receiver's FFT correlation engine (rx/correlation_engine.h, DESIGN.md §8).
//
// Design constraints, in order:
//  * split-array layout (separate re/im doubles) so the butterflies stream
//    the same contiguous buffers every other hot kernel in the repo uses —
//    no std::complex interleaving, no layout conversion at the engine
//    boundary;
//  * all plan state (bit-reversal table, per-stage twiddles) precomputed at
//    construction, so transform() on a warm plan performs zero allocations
//    — the property the detection engine needs to keep UserDetector::detect
//    allocation-free in steady state;
//  * deterministic: no runtime trigonometry beyond construction, so two
//    plans of the same size produce bit-identical transforms on every
//    machine/ISA (the twiddles are computed once, scalar, at plan time).
//
// This is deliberately a plain power-of-two radix-2 kernel, not a FFTW
// clone: correlation sizes are chosen by the engine (which rounds up to a
// power of two anyway), and the simple kernel keeps the dual-path
// equivalence bound easy to reason about (§8's tolerance budget).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cbma::pn {

/// A fixed-size FFT plan. Construct once per size, reuse freely; transforms
/// are const and thread-safe (the plan is immutable after construction).
class FftPlan {
 public:
  /// `n` must be a power of two ≥ 1.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT of the length-n sequence re + j·im (no scaling).
  void forward(double* re, double* im) const;

  /// In-place inverse DFT including the 1/n scale, so
  /// inverse(forward(x)) == x up to FP rounding.
  void inverse(double* re, double* im) const;

  /// Smallest power of two ≥ n (n = 0 maps to 1).
  static std::size_t next_pow2(std::size_t n);

 private:
  void transform(double* re, double* im, bool inverse) const;

  std::size_t n_ = 1;
  std::uint32_t log2n_ = 0;
  std::vector<std::uint32_t> bitrev_;  ///< bit-reversal permutation
  /// Twiddles for all stages, concatenated: stage s (half-size h = 2^s)
  /// contributes h factors e^{-2πi k / 2h}, k < h, at offset h − 1.
  std::vector<double> tw_re_;
  std::vector<double> tw_im_;
};

}  // namespace cbma::pn
