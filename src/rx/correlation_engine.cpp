#include "rx/correlation_engine.h"

#include <algorithm>
#include <cmath>

#include "pn/simd.h"
#include "util/expect.h"
#include "util/obs.h"

namespace cbma::rx {

const char* to_string(DetectEngine engine) {
  switch (engine) {
    case DetectEngine::kNaive: return "naive";
    case DetectEngine::kFft: return "fft";
    case DetectEngine::kAuto: return "auto";
  }
  return "unknown";
}

namespace {

/// The reference engine: pn::sliding_complex_peak_folded per code, exactly
/// the kernel UserDetector ran before engines existed — bit-for-bit.
class NaiveEngine final : public CorrelationEngine {
 public:
  NaiveEngine(std::span<const std::vector<double>> chip_templates,
              std::size_t samples_per_chip)
      : templates_(chip_templates.begin(), chip_templates.end()),
        spc_(samples_per_chip) {}

  DetectEngine kind() const override { return DetectEngine::kNaive; }

  DetectEngine resolve(std::size_t, std::size_t) const override {
    return DetectEngine::kNaive;
  }

  std::unique_ptr<Scratch> make_scratch() const override {
    return std::make_unique<Scratch>();
  }

  void peaks(const CorrelationWindow& window,
             std::span<const std::size_t> code_indices,
             std::size_t search_begin, std::size_t search_end,
             std::span<pn::ComplexCorrelationPeak> out,
             Scratch& /*scratch*/) const override {
    CBMA_REQUIRE(out.size() == code_indices.size(),
                 "one output slot per requested code");
    telemetry::count(telemetry::Counter::kRxDetectNaiveBatches);
    for (std::size_t k = 0; k < code_indices.size(); ++k) {
      const std::size_t c = code_indices[k];
      CBMA_REQUIRE(c < templates_.size(), "code index out of family");
      out[k] = pn::sliding_complex_peak_folded(
          window.re, window.im, window.fold_re, window.fold_im, templates_[c],
          spc_, search_begin, search_end);
    }
  }

 private:
  std::vector<std::vector<double>> templates_;
  std::size_t spc_;
};

/// Overlap-save FFT engine (DESIGN.md §8.1). The folded sliding dot
///   dot(off) = Σ_c t[c] · fold[off + c·spc]
/// touches only fold entries of one residue class off mod spc, so each
/// class is an ordinary chip-rate correlation of the decimated fold
/// sequence g_r[u] = fold[base_r + u·spc] against the chip template. That
/// correlation runs as overlap-save: the template is split into blocks of
/// `block_` chips, each output chunk takes one forward FFT per block of the
/// matching g_r segment — shared by every code — and per code one
/// frequency-domain multiply-accumulate against precomputed conjugate block
/// spectra plus one inverse FFT. Normalization reuses the naive kernel's
/// exact running-sum recurrence (shared across codes), and each winning
/// offset is re-scored with the exact folded dot, so an FFT-vs-naive
/// discrepancy requires two lags within FP noise of each other (§8.3).
class FftEngine final : public CorrelationEngine {
 public:
  struct FftScratch final : Scratch {
    std::vector<double> mean_re, mean_im, s_norm2;  ///< per-lag window stats
    std::vector<double> fwd_re, fwd_im;  ///< per-block signal spectra
    std::vector<double> acc_re, acc_im;  ///< frequency-domain accumulator
  };

  FftEngine(std::span<const std::vector<double>> chip_templates,
            std::size_t samples_per_chip, std::size_t anchor_window_lags)
      : templates_(chip_templates.begin(), chip_templates.end()),
        spc_(samples_per_chip),
        chips_(templates_.front().size()),
        fft_n_(plan_size(chips_, samples_per_chip, anchor_window_lags)),
        block_(std::min(chips_, fft_n_ / 2)),
        n_blocks_((chips_ + block_ - 1) / block_),
        max_out_(fft_n_ - block_ + 1),
        plan_(fft_n_) {
    CBMA_REQUIRE(chips_ >= 1, "empty chip template");
    // Conjugate spectrum of every template block, laid out code-major so a
    // code's blocks stream contiguously in the hot loop.
    spec_re_.assign(templates_.size() * n_blocks_ * fft_n_, 0.0);
    spec_im_.assign(spec_re_.size(), 0.0);
    t_sum_.reserve(templates_.size());
    t_norm2_.reserve(templates_.size());
    const double spc_d = static_cast<double>(spc_);
    for (std::size_t c = 0; c < templates_.size(); ++c) {
      const auto& tmpl = templates_[c];
      CBMA_REQUIRE(tmpl.size() == chips_, "codes must share a template length");
      double sum = 0.0;
      double norm2 = 0.0;
      for (const double v : tmpl) {
        sum += v;
        norm2 += v * v;
      }
      // Sample-level norms: each chip value repeats spc times (matches
      // sliding_complex_peak_folded).
      t_sum_.push_back(spc_d * sum);
      t_norm2_.push_back(spc_d * norm2);
      for (std::size_t b = 0; b < n_blocks_; ++b) {
        const std::size_t b_begin = b * block_;
        const std::size_t b_len = std::min(block_, chips_ - b_begin);
        double* sr = spec_re_.data() + (c * n_blocks_ + b) * fft_n_;
        double* si = spec_im_.data() + (c * n_blocks_ + b) * fft_n_;
        std::copy_n(tmpl.data() + b_begin, b_len, sr);
        plan_.forward(sr, si);
        for (std::size_t i = 0; i < fft_n_; ++i) si[i] = -si[i];
      }
    }
  }

  DetectEngine kind() const override { return DetectEngine::kFft; }

  DetectEngine resolve(std::size_t, std::size_t) const override {
    return DetectEngine::kFft;
  }

  std::unique_ptr<Scratch> make_scratch() const override {
    return std::make_unique<FftScratch>();
  }

  /// Work estimate (real multiply-adds) of one peaks() call — the §8.2
  /// crossover cost model the auto engine compares against the naive
  /// kernel's 2 · lags · chips · codes.
  double estimated_flops(std::size_t n_codes, std::size_t n_lags) const {
    const double n = static_cast<double>(fft_n_);
    const double log_n = std::log2(n);
    const double m = std::max<double>(
        1.0, static_cast<double>(n_lags) / static_cast<double>(spc_));
    const double chunks = std::ceil(m / static_cast<double>(max_out_));
    const double blocks = static_cast<double>(n_blocks_);
    const double forward = chunks * blocks * 2.0 * n * log_n;
    const double per_code = chunks * (blocks * 4.0 * n + 2.0 * n * log_n);
    return static_cast<double>(spc_) *
               (forward + static_cast<double>(n_codes) * per_code) +
           10.0 * static_cast<double>(n_lags);
  }

  void peaks(const CorrelationWindow& window,
             std::span<const std::size_t> code_indices,
             std::size_t search_begin, std::size_t search_end,
             std::span<pn::ComplexCorrelationPeak> out,
             Scratch& scratch) const override {
    CBMA_REQUIRE(out.size() == code_indices.size(),
                 "one output slot per requested code");
    CBMA_REQUIRE(window.samples_per_chip == spc_,
                 "window samples_per_chip mismatches the engine plan");
    CBMA_REQUIRE(window.re.size() == window.im.size(),
                 "split window components disagree");
    CBMA_REQUIRE(search_begin <= search_end, "search window inverted");
    for (auto& o : out) o = pn::ComplexCorrelationPeak{};
    const std::size_t n = chips_ * spc_;
    if (code_indices.empty() || window.re.size() < n) return;
    CBMA_ASSERT(window.fold_re.size() == window.re.size() - spc_ + 1 &&
                window.fold_im.size() == window.fold_re.size());
    const std::size_t end =
        std::min(search_end, window.re.size() - n + 1);
    if (search_begin >= end) return;
    const std::size_t n_lags = end - search_begin;
    telemetry::count(telemetry::Counter::kRxDetectFftBatches);

    auto& s = static_cast<FftScratch&>(scratch);
    compute_window_stats(window, search_begin, end, n, s);
    s.fwd_re.resize(n_blocks_ * fft_n_);
    s.fwd_im.resize(n_blocks_ * fft_n_);
    s.acc_re.resize(fft_n_);
    s.acc_im.resize(fft_n_);

    // Mark "nothing found yet"; any real lag value (≥ 0) beats it.
    for (auto& o : out) o.value = -1.0;

    // One residue class per fold decimation phase, ascending base offset.
    for (std::size_t dr = 0; dr < spc_ && search_begin + dr < end; ++dr) {
      const std::size_t base = search_begin + dr;
      const std::size_t m_count = (end - base + spc_ - 1) / spc_;
      for (std::size_t m0 = 0; m0 < m_count; m0 += max_out_) {
        const std::size_t m_chunk = std::min(max_out_, m_count - m0);
        // Forward transforms of the g_r segments — shared by every code.
        for (std::size_t b = 0; b < n_blocks_; ++b) {
          const std::size_t b_len = std::min(block_, chips_ - b * block_);
          const std::size_t seg_len = m_chunk + b_len - 1;
          double* fr = s.fwd_re.data() + b * fft_n_;
          double* fi = s.fwd_im.data() + b * fft_n_;
          const std::size_t u0 = m0 + b * block_;
          for (std::size_t u = 0; u < seg_len; ++u) {
            const std::size_t x = base + (u0 + u) * spc_;
            fr[u] = window.fold_re[x];
            fi[u] = window.fold_im[x];
          }
          std::fill(fr + seg_len, fr + fft_n_, 0.0);
          std::fill(fi + seg_len, fi + fft_n_, 0.0);
          plan_.forward(fr, fi);
        }
        for (std::size_t k = 0; k < code_indices.size(); ++k) {
          const std::size_t c = code_indices[k];
          CBMA_REQUIRE(c < templates_.size(), "code index out of family");
          std::fill(s.acc_re.begin(), s.acc_re.end(), 0.0);
          std::fill(s.acc_im.begin(), s.acc_im.end(), 0.0);
          const double* sr = spec_re_.data() + c * n_blocks_ * fft_n_;
          const double* si = spec_im_.data() + c * n_blocks_ * fft_n_;
          for (std::size_t b = 0; b < n_blocks_; ++b) {
            pn::simd::cmul_acc(s.fwd_re.data() + b * fft_n_,
                               s.fwd_im.data() + b * fft_n_, sr + b * fft_n_,
                               si + b * fft_n_, s.acc_re.data(),
                               s.acc_im.data(), fft_n_);
          }
          plan_.inverse(s.acc_re.data(), s.acc_im.data());
          const double t_sum = t_sum_[c];
          const double t_norm2 = t_norm2_[c];
          auto& best = out[k];
          for (std::size_t m = 0; m < m_chunk; ++m) {
            const std::size_t off = base + (m0 + m) * spc_;
            const std::size_t j = off - search_begin;
            const double dc_re = s.acc_re[m] - s.mean_re[j] * t_sum;
            const double dc_im = s.acc_im[m] - s.mean_im[j] * t_sum;
            const double denom2 = s.s_norm2[j] * t_norm2;
            const double v =
                denom2 > 0.0
                    ? std::sqrt((dc_re * dc_re + dc_im * dc_im) / denom2)
                    : 0.0;
            // Naive keeps the first (lowest-offset) lag among exact ties —
            // classes are visited out of offset order, so break ties here.
            if (v > best.value || (v == best.value && off < best.offset)) {
              best.value = v;
              best.offset = off;
            }
          }
        }
      }
    }
    (void)n_lags;

    // Re-score every winner with the exact folded dot: value and phase are
    // then bit-identical to the naive kernel at that offset, leaving the
    // argmax choice as the only FFT-rounding-sensitive step (§8.3).
    for (std::size_t k = 0; k < code_indices.size(); ++k) {
      auto& o = out[k];
      if (o.value < 0.0) {
        o = pn::ComplexCorrelationPeak{};
        continue;
      }
      const std::size_t c = code_indices[k];
      const auto corr = pn::complex_correlate_folded_at(
          window.fold_re, window.fold_im, templates_[c], spc_, o.offset);
      const std::size_t j = o.offset - search_begin;
      const double dc_re = corr.real() - s.mean_re[j] * t_sum_[c];
      const double dc_im = corr.imag() - s.mean_im[j] * t_sum_[c];
      const double denom2 = s.s_norm2[j] * t_norm2_[c];
      o.value = denom2 > 0.0
                    ? std::sqrt((dc_re * dc_re + dc_im * dc_im) / denom2)
                    : 0.0;
      o.phase = std::atan2(corr.imag(), corr.real());
    }
  }

 private:
  static std::size_t plan_size(std::size_t chips, std::size_t spc,
                               std::size_t anchor_window_lags) {
    // Balance transform length against the anchor window: blocks of about
    // one output-chunk's width keep the inverse transform (paid per code)
    // small when the window is much shorter than the template.
    const std::size_t anchor_chips =
        std::max<std::size_t>(1, (anchor_window_lags + spc - 1) / spc);
    return pn::FftPlan::next_pow2(
        std::max<std::size_t>(64, 2 * std::min(anchor_chips, chips)));
  }

  /// Per-lag mean/energy of the sliding sample window — the same running
  /// sums, updated in the same order, as pn::sliding_complex_peak_folded,
  /// so the normalization factors match the naive kernel bit-for-bit.
  void compute_window_stats(const CorrelationWindow& window, std::size_t begin,
                            std::size_t end, std::size_t n,
                            FftScratch& s) const {
    const std::size_t n_lags = end - begin;
    s.mean_re.resize(n_lags);
    s.mean_im.resize(n_lags);
    s.s_norm2.resize(n_lags);
    const auto re = window.re;
    const auto im = window.im;
    const double inv_n = 1.0 / static_cast<double>(n);
    double s_sum_re = 0.0;
    double s_sum_im = 0.0;
    double s_sumsq = 0.0;
    for (std::size_t i = begin; i < begin + n; ++i) {
      s_sum_re += re[i];
      s_sum_im += im[i];
      s_sumsq += re[i] * re[i] + im[i] * im[i];
    }
    for (std::size_t off = begin; off < end; ++off) {
      const std::size_t j = off - begin;
      s.mean_re[j] = s_sum_re * inv_n;
      s.mean_im[j] = s_sum_im * inv_n;
      s.s_norm2[j] =
          s_sumsq - (s_sum_re * s_sum_re + s_sum_im * s_sum_im) * inv_n;
      if (off + n < re.size()) {
        s_sum_re += re[off + n] - re[off];
        s_sum_im += im[off + n] - im[off];
        s_sumsq += re[off + n] * re[off + n] + im[off + n] * im[off + n] -
                   re[off] * re[off] - im[off] * im[off];
      }
    }
  }

  std::vector<std::vector<double>> templates_;  ///< chip templates (rescoring)
  std::size_t spc_;
  std::size_t chips_;    ///< C — template length in chips
  std::size_t fft_n_;    ///< N — transform length
  std::size_t block_;    ///< B — template block length in chips
  std::size_t n_blocks_;
  std::size_t max_out_;  ///< outputs per chunk: N − B + 1
  pn::FftPlan plan_;
  std::vector<double> spec_re_, spec_im_;  ///< conj block spectra, code-major
  std::vector<double> t_sum_, t_norm2_;    ///< sample-level template norms
};

/// Auto engine: owns both concrete engines, picks per call by comparing the
/// naive kernel's exact work against the FFT plan's estimate (§8.2). The
/// factor accounts for the FFT's worse per-flop locality relative to the
/// naive kernel's pure streaming loop.
class AutoEngine final : public CorrelationEngine {
 public:
  struct AutoScratch final : Scratch {
    std::unique_ptr<Scratch> naive;
    std::unique_ptr<Scratch> fft;
  };

  AutoEngine(std::span<const std::vector<double>> chip_templates,
             std::size_t samples_per_chip, std::size_t anchor_window_lags)
      : naive_(chip_templates, samples_per_chip),
        fft_(chip_templates, samples_per_chip, anchor_window_lags),
        chips_(chip_templates.front().size()) {}

  DetectEngine kind() const override { return DetectEngine::kAuto; }

  DetectEngine resolve(std::size_t n_codes, std::size_t n_lags) const override {
    const double naive_flops = 2.0 * static_cast<double>(n_lags) *
                               static_cast<double>(chips_) *
                               static_cast<double>(n_codes);
    const double fft_flops = fft_.estimated_flops(n_codes, n_lags);
    return kFftCostFactor * fft_flops < naive_flops ? DetectEngine::kFft
                                                    : DetectEngine::kNaive;
  }

  std::unique_ptr<Scratch> make_scratch() const override {
    auto s = std::make_unique<AutoScratch>();
    s->naive = naive_.make_scratch();
    s->fft = fft_.make_scratch();
    return s;
  }

  void peaks(const CorrelationWindow& window,
             std::span<const std::size_t> code_indices,
             std::size_t search_begin, std::size_t search_end,
             std::span<pn::ComplexCorrelationPeak> out,
             Scratch& scratch) const override {
    auto& s = static_cast<AutoScratch&>(scratch);
    const std::size_t n_lags =
        search_end > search_begin ? search_end - search_begin : 0;
    if (resolve(code_indices.size(), n_lags) == DetectEngine::kFft) {
      fft_.peaks(window, code_indices, search_begin, search_end, out, *s.fft);
    } else {
      naive_.peaks(window, code_indices, search_begin, search_end, out,
                   *s.naive);
    }
  }

 private:
  static constexpr double kFftCostFactor = 1.5;

  NaiveEngine naive_;
  FftEngine fft_;
  std::size_t chips_;
};

}  // namespace

std::unique_ptr<CorrelationEngine> make_correlation_engine(
    DetectEngine kind, std::span<const std::vector<double>> chip_templates,
    std::size_t samples_per_chip, std::size_t anchor_window_lags) {
  CBMA_REQUIRE(!chip_templates.empty(), "engine needs at least one code");
  CBMA_REQUIRE(samples_per_chip >= 1, "samples_per_chip must be positive");
  for (const auto& t : chip_templates) {
    CBMA_REQUIRE(t.size() == chip_templates.front().size(),
                 "codes must share a template length");
    CBMA_REQUIRE(!t.empty(), "empty chip template");
  }
  switch (kind) {
    case DetectEngine::kNaive:
      return std::make_unique<NaiveEngine>(chip_templates, samples_per_chip);
    case DetectEngine::kFft:
      return std::make_unique<FftEngine>(chip_templates, samples_per_chip,
                                         anchor_window_lags);
    case DetectEngine::kAuto:
      return std::make_unique<AutoEngine>(chip_templates, samples_per_chip,
                                          anchor_window_lags);
  }
  CBMA_REQUIRE(false, "unknown detect engine");
  return nullptr;
}

}  // namespace cbma::rx
