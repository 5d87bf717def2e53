// The detector's batched peak search (DESIGN.md §8).
//
// UserDetector's cost is the batched peak search: every candidate code of
// the family slid over the anchor window of one frame. The naive kernel is
// O(lags × chips) per code; the FFT path factors the same folded dot
// products through shared forward transforms (overlap-save in the chip
// domain, one signal FFT set reused by every code) and drops the per-code
// cost to O(N log N) — the crossover the paper's 64-code family (Fig. 9b)
// sits well past. Both paths consume the identical chip-folded window
// representation and produce the same normalized peaks: the FFT path re-
// scores its winning offsets with the exact folded dot, so disagreement
// requires two lags within FP noise of each other (§8.3).
//
// peaks() picks the path per call from the batch's size with the §8.2 cost
// model; naive_peaks() and fft_peaks() force one side for the equivalence
// tests and the crossover benches. The search owns the family's chip
// templates (the detector reads them back for SIC), the template block
// spectra and the FFT plan, all fixed at construction; every mutable work
// buffer lives in a caller-owned Scratch, so a const search is safe to share
// across threads and stays allocation-free once the scratch has grown.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "pn/correlation.h"
#include "pn/fft.h"

namespace cbma::rx {

/// The detector's view of one window: split re/im samples plus their
/// chip-folded sums (pn::fold_chip_sums of the same arrays). During SIC the
/// spans point at the residual copy — the search always reads the caller's
/// current buffers and holds no window state.
struct CorrelationWindow {
  std::span<const double> re;
  std::span<const double> im;
  std::span<const double> fold_re;
  std::span<const double> fold_im;
  std::size_t samples_per_chip = 1;
};

class PeakSearch {
 public:
  /// Work buffers of the FFT path. Owned by the caller (one per thread of
  /// use); they grow to the working-set high-water mark and are reused.
  struct Scratch {
    std::vector<double> mean_re, mean_im, s_norm2;  ///< per-lag window stats
    std::vector<double> fwd_re, fwd_im;  ///< per-block signal spectra
    std::vector<double> acc_re, acc_im;  ///< frequency-domain accumulator
  };

  /// `chip_templates`: per-code chip-rate (not upsampled) mean-removed
  /// preamble templates, all of one length. `anchor_window_lags`: the
  /// expected width in samples of the detector's anchor search window — the
  /// FFT path sizes its overlap-save plan (transform length, template block
  /// split) for it. Calls with other widths remain correct; they chunk
  /// through the same plan.
  PeakSearch(std::vector<std::vector<double>> chip_templates,
             std::size_t samples_per_chip, std::size_t anchor_window_lags);

  std::size_t size() const { return templates_.size(); }
  const std::vector<double>& chip_template(std::size_t code) const {
    return templates_[code];
  }

  /// Batched peak search: for each code index in `code_indices`, the
  /// normalized |correlation| peak (offset, value, phase) over window
  /// offsets [search_begin, search_end), written to the matching slot of
  /// `out` (out.size() == code_indices.size()). A window too short for the
  /// template yields a default ComplexCorrelationPeak, exactly like
  /// pn::sliding_complex_peak_folded. Runs fft_peaks() when the cost model
  /// says the batch is big enough to pay for its transforms, otherwise
  /// naive_peaks().
  void peaks(const CorrelationWindow& window,
             std::span<const std::size_t> code_indices,
             std::size_t search_begin, std::size_t search_end,
             std::span<pn::ComplexCorrelationPeak> out, Scratch& scratch) const;

  /// pn::sliding_complex_peak_folded per code — the bit-exact reference.
  void naive_peaks(const CorrelationWindow& window,
                   std::span<const std::size_t> code_indices,
                   std::size_t search_begin, std::size_t search_end,
                   std::span<pn::ComplexCorrelationPeak> out) const;

  /// Overlap-save FFT path with forward transforms shared across codes.
  void fft_peaks(const CorrelationWindow& window,
                 std::span<const std::size_t> code_indices,
                 std::size_t search_begin, std::size_t search_end,
                 std::span<pn::ComplexCorrelationPeak> out,
                 Scratch& scratch) const;

 private:
  bool fft_pays_off(std::size_t n_codes, std::size_t n_lags) const;
  void compute_window_stats(const CorrelationWindow& window, std::size_t begin,
                            std::size_t end, std::size_t n, Scratch& s) const;

  std::vector<std::vector<double>> templates_;  ///< chip templates, per code
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

}  // namespace cbma::rx
