// Runtime-dispatched SIMD kernels for the chip-rate split re/im hot loops
// (DESIGN.md §8.4). One scalar and one AVX2 variant exist per kernel; the
// active one is chosen once per process from CPUID, the CBMA_FORCE_SCALAR
// environment variable, and the CBMA_FORCE_SCALAR compile definition.
//
// The dispatch contract is **bit-exactness**: both variants of every kernel
// produce bit-identical outputs. This is achievable (and tested, see
// tests/pn_simd_test.cpp) because every kernel here vectorizes across
// *independent output elements* — each output's floating-point accumulation
// order is the same in both variants, lanes never sum across each other,
// and the translation unit is compiled with FP contraction off so the
// scalar fallback cannot silently fuse into FMAs the vector path does not
// use. Bit-exactness is what lets the receiver keep its byte-identical
// bench/JSON guarantees regardless of which ISA the host dispatches to.
#pragma once

#include <cstddef>

namespace cbma::pn::simd {

enum class Isa {
  kScalar,
  kAvx2,
};

/// Stable label for logs and tests ("scalar", "avx2").
const char* isa_name(Isa isa);

/// The ISA the kernels below currently dispatch to. Resolved on first call
/// from compile flags, CPUID and CBMA_FORCE_SCALAR; overridable afterwards
/// with set_force_scalar().
Isa active_isa();

/// Test hook: true pins the scalar variants regardless of CPU support;
/// false re-enables CPU detection (still subject to the compile-time
/// CBMA_FORCE_SCALAR definition, which removes the AVX2 variants entirely).
void set_force_scalar(bool force);

/// Whether the AVX2 variants exist in this build and on this CPU (ignores
/// the force-scalar override — i.e. whether set_force_scalar(false) would
/// dispatch to AVX2).
bool avx2_supported();

/// out[i] = x[i] + x[i+1] + … + x[i+spc−1] for i in [0, count).
/// `x` must expose count + spc − 1 readable elements. Per-output summation
/// order is ascending j in both variants.
void fold_sums(const double* x, std::size_t count, std::size_t spc, double* out);

/// Elementwise complex multiply-accumulate on split arrays:
///   acc[i] += a[i] * b[i]  (complex), i in [0, n)
/// — the frequency-domain template multiply of the FFT correlation engine
/// (the conjugation lives in the precomputed template spectra).
void cmul_acc(const double* a_re, const double* a_im, const double* b_re,
              const double* b_im, double* acc_re, double* acc_im, std::size_t n);

}  // namespace cbma::pn::simd
