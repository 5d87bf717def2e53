// Pluggable detection correlation engines (DESIGN.md §8).
//
// UserDetector's cost is the batched peak search: every candidate code of
// the family slid over the anchor window of one frame. The naive kernel is
// O(lags × chips) per code; the FFT engine factors the same folded dot
// products through shared forward transforms (overlap-save in the chip
// domain, one signal FFT set reused by every code) and drops the per-code
// cost to O(N log N) — the crossover the paper's 64-code family (Fig. 9b)
// sits well past. Both engines consume the identical chip-folded window
// representation and produce the same normalized peaks: the naive engine
// bit-exactly, the FFT engine up to the documented §8.3 tolerance (its
// winning offsets are re-scored with the exact folded dot, so disagreement
// requires two lags within FP noise of each other).
//
// Engines are selected per receiver via UserDetectConfig::engine
// (naive / fft / auto) and threaded through SystemConfig::validate(). All
// per-family plan state — chip templates, template block spectra, FFT
// twiddles — is owned by the engine and precomputed at construction; all
// mutable work buffers live in a caller-owned Scratch, so a const engine is
// safe to share across threads and UserDetector::detect stays
// allocation-free in steady state.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "pn/correlation.h"
#include "pn/fft.h"

namespace cbma::rx {

/// Which correlation engine a receiver's detector runs (DESIGN.md §8.2).
enum class DetectEngine {
  kNaive = 0,  ///< sliding folded dot per code — the bit-exact reference
  kFft,        ///< overlap-save FFT, shared forward transforms across codes
  kAuto,       ///< per-call cost model picks naive or fft (§8.2 crossover)
};

/// Stable label ("naive", "fft", "auto").
const char* to_string(DetectEngine engine);

/// The detector's view of one window: split re/im samples plus their
/// chip-folded sums (pn::fold_chip_sums of the same arrays). During SIC the
/// spans point at the residual copy — engines always read the caller's
/// current buffers and hold no window state.
struct CorrelationWindow {
  std::span<const double> re;
  std::span<const double> im;
  std::span<const double> fold_re;
  std::span<const double> fold_im;
  std::size_t samples_per_chip = 1;
};

class CorrelationEngine {
 public:
  /// Engine-specific mutable work buffers. Owned by the caller (one per
  /// thread of use), created via make_scratch(); buffers grow to the
  /// engine's working-set high-water mark and are then reused.
  class Scratch {
   public:
    virtual ~Scratch() = default;
  };

  virtual ~CorrelationEngine() = default;

  /// The configured kind (kAuto for the auto engine, not its per-call pick).
  virtual DetectEngine kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// The engine a call with `n_codes` codes over `n_lags` offsets executes:
  /// the concrete engines return themselves; auto applies its cost model.
  /// This is the crossover-policy introspection hook the watchdog bench and
  /// tests assert against.
  virtual DetectEngine resolve(std::size_t n_codes, std::size_t n_lags) const = 0;

  virtual std::unique_ptr<Scratch> make_scratch() const = 0;

  /// Batched peak search: for each code index in `code_indices`, the
  /// normalized |correlation| peak (offset, value, phase) over window
  /// offsets [search_begin, search_end), written to the matching slot of
  /// `out` (out.size() == code_indices.size()). A window too short for the
  /// template yields a default ComplexCorrelationPeak, exactly like
  /// pn::sliding_complex_peak_folded.
  virtual void peaks(const CorrelationWindow& window,
                     std::span<const std::size_t> code_indices,
                     std::size_t search_begin, std::size_t search_end,
                     std::span<pn::ComplexCorrelationPeak> out,
                     Scratch& scratch) const = 0;
};

/// Build an engine for one code family.
///
/// `chip_templates`: per-code chip-rate (not upsampled) mean-removed
/// preamble templates, all of one length (copied into the engine).
/// `anchor_window_lags`: the expected width in samples of the detector's
/// anchor search window — the FFT engine sizes its overlap-save plan
/// (transform length, template block split) for it. Calls with other widths
/// remain correct; they chunk through the same plan.
std::unique_ptr<CorrelationEngine> make_correlation_engine(
    DetectEngine kind, std::span<const std::vector<double>> chip_templates,
    std::size_t samples_per_chip, std::size_t anchor_window_lags);

}  // namespace cbma::rx
