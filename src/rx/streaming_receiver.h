// Push-based chunked spelling of the CBMA receiver (DESIGN.md §9): feed()
// accepts arbitrarily-sized IQ chunks, carries the frame synchronizer's
// comparator state across chunk boundaries in ring buffers, and hands each
// completed detection window to the batch UserDetector/Decoder stages — so
// a session runs indefinitely at O(window) memory, independent of how many
// samples it has consumed.
//
// The correctness keystone is chunk invariance: every decision (comparator
// firing, window extent, detection, decode) is keyed to absolute stream
// positions and sample content only, never to where a chunk boundary fell.
// Feeding one whole buffer is therefore byte-identical to replaying the
// same buffer in chunks of any size — and Receiver::process_iq is exactly
// that one-whole-buffer feed, which is what makes the batch API a thin
// wrapper instead of a second pipeline.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rx/receiver.h"
#include "util/ring_buffer.h"

namespace cbma::rx {

class StreamingReceiver {
 public:
  /// Invoked once per completed RxReport (offsets and frame_start are
  /// absolute stream positions). When no sink is installed, reports queue
  /// internally for take_report().
  using ReportSink = std::function<void(RxReport)>;

  /// The receiver supplies the group codes, templates and decoders; the
  /// session owns all mutable state. `receiver` must outlive the session.
  explicit StreamingReceiver(const Receiver& receiver, ReportSink sink = {});

  const Receiver& receiver() const { return *receiver_; }

  /// Consume one chunk of complex-baseband samples. Emits zero or more
  /// reports (a report completes as soon as its lookahead window is full —
  /// no flush needed on a continuous stream).
  void feed(std::span<const std::complex<double>> iq);

  /// End of stream: run any in-flight detection window on the samples seen
  /// so far and emit it. If nothing has been emitted since the last
  /// flush/reset, an all-kNoFrameSync report is emitted so every fed
  /// stretch yields at least one report (the batch silent-window contract).
  /// Feeding may continue afterwards; positions keep counting.
  void flush();

  /// Fresh session at stream position 0. Buffers keep their high-water
  /// capacity, so a reused session allocates nothing in steady state.
  void reset();

  /// The batch entry: reset, feed the buffer (in `chunk_samples`-sized
  /// chunks when non-zero), flush, and return the first report — the
  /// streaming core's spelling of the old whole-round Receiver::process_iq.
  RxReport process(std::span<const std::complex<double>> iq,
                   std::size_t chunk_samples = 0);

  /// Pop the oldest queued report (sink-less mode). False when none.
  bool take_report(RxReport& out);

  // --- session statistics ---
  std::uint64_t samples_consumed() const { return pos_; }
  std::uint64_t reports_emitted() const { return reports_emitted_; }
  /// Resident ring storage (samples + sync prefix) — the O(window) bound
  /// BM_StreamingRx proves stays flat as the stream grows.
  std::size_t ring_bytes() const;
  /// ring_bytes() plus the reusable attempt-window copies and scratch.
  std::size_t resident_bytes() const;
  /// Lookahead retained past a sync trigger before its window is finalized
  /// (derived from the detect search window and the longest decodable
  /// frame under ReceiverConfig::max_payload_bytes).
  std::size_t lookahead_samples() const { return need_ahead_; }

 private:
  void advance(bool end_of_stream);
  void run_attempt();
  void emit_segment(std::uint64_t rearm_pos);
  void start_segment(std::uint64_t rearm_pos);
  void release_rings();

  const Receiver* receiver_;
  ReportSink sink_;

  // Window geometry, derived once from the receiver config.
  std::size_t back_margin_ = 0;  ///< window start margin before a trigger
  std::size_t need_ahead_ = 0;   ///< lookahead required after a trigger
  std::size_t keep_behind_ = 0;  ///< sample-ring retention behind the cursor

  util::RingBuffer<double> ring_re_;
  util::RingBuffer<double> ring_im_;
  FrameSynchronizer::Stream sync_stream_;
  std::uint64_t pos_ = 0;  ///< samples consumed (absolute stream position)

  // In-flight segment: the RxReport under construction and its sync walk.
  RxReport report_;
  int attempt_ = 0;
  bool collecting_ = false;   ///< a trigger is waiting for its lookahead
  std::uint64_t trigger_ = 0;

  std::uint64_t reports_emitted_ = 0;
  std::uint64_t reports_since_mark_ = 0;  ///< since last flush/reset

  // Reusable attempt buffers (the pre-streaming receiver scratch, folded in).
  std::vector<double> win_re_;
  std::vector<double> win_im_;
  std::vector<double> win_mag_;
  UserDetector::Scratch detect_scratch_;
  std::vector<RxReport> pending_;
};

}  // namespace cbma::rx
