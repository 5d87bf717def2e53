// Frame synchronization by energy detection (§III-B):
// a moving-average filter of window W_n tracks the baseline power level;
// a new frame is declared when the instantaneous power level (short head
// average) exceeds the filtered baseline by the decision threshold
// P_th = 3 dB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/ring_buffer.h"

namespace cbma::rx {

struct FrameSyncConfig {
  std::size_t window = 128;       ///< W_n, baseline moving-average window (samples)
  double threshold_db = 3.0;      ///< P_th above the filtered level
  /// Samples averaged for the "current" level. Two consecutive windows of
  /// this size must BOTH clear the threshold, so an isolated noise spike
  /// (which can only dominate one of them) cannot fire the comparator.
  std::size_t head_average = 16;
  double min_baseline = 1e-30;    ///< numeric floor for silent channels
};

class FrameSynchronizer {
 public:
  explicit FrameSynchronizer(FrameSyncConfig config);

  const FrameSyncConfig& config() const { return config_; }

  /// First sample index at or after `begin` where the energy comparator
  /// fires, or nullopt. `magnitude` is P(t) = √(I²+Q²).
  std::optional<std::size_t> detect(std::span<const double> magnitude,
                                    std::size_t begin = 0) const;

  /// All trigger points, suppressing re-triggers within `refractory`
  /// samples of a previous detection (one detection per frame).
  std::vector<std::size_t> detect_all(std::span<const double> magnitude,
                                      std::size_t refractory) const;

  /// Incremental spelling of detect() for the streaming receiver
  /// (DESIGN.md §9). push() extends the same power prefix sums detect()
  /// builds — the identical sequence of additions, so the stored values are
  /// bit-for-bit the batch prefix array — and scan() advances the comparator
  /// over every position whose baseline and both head windows are complete,
  /// parking the cursor on a trigger until rearm() moves it (the streaming
  /// counterpart of calling detect(magnitude, begin) with a later begin).
  /// Fed the same envelope, scan() fires at exactly the positions detect()
  /// returns, regardless of how the pushes were chunked.
  class Stream {
   public:
    explicit Stream(const FrameSynchronizer& sync);

    /// Consume one envelope sample P(t) = √(I²+Q²).
    void push(double magnitude);
    /// Advance the comparator; returns the trigger position if it fired
    /// before running out of lookahead (2×head_average samples past the
    /// cursor). The cursor stays on the trigger until rearm().
    std::optional<std::uint64_t> scan();
    /// Restart the walk at `begin` (absolute stream position): the next
    /// trigger is the first s >= begin + window where the comparator fires.
    void rearm(std::uint64_t begin);
    /// Samples pushed so far (absolute stream position of the next sample).
    std::uint64_t position() const { return pushed_; }
    /// The comparator cursor — nothing before cursor − window is ever read
    /// again, which bounds what callers must retain.
    std::uint64_t cursor() const { return cursor_; }
    /// Back to position 0 with an empty prefix (capacity is kept).
    void reset();
    std::size_t bytes() const { return prefix_.bytes(); }

   private:
    const FrameSynchronizer* sync_;
    util::RingBuffer<double> prefix_;  ///< P(i) = Σ_{j<i} m_j² at absolute i
    double acc_ = 0.0;                 ///< running P(position())
    double ratio_ = 0.0;               ///< linear threshold, from_db(P_th)
    std::uint64_t pushed_ = 0;
    std::uint64_t cursor_ = 0;
  };

 private:
  FrameSyncConfig config_;
};

}  // namespace cbma::rx
