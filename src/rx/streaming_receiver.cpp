#include "rx/streaming_receiver.h"

#include <algorithm>
#include <cmath>

#include "phy/frame.h"
#include "util/expect.h"
#include "util/obs.h"

namespace cbma::rx {
namespace {

// Bounded sync-trigger walk per report: a noise spike can fire the energy
// comparator ahead of the true frame, so each segment examines up to this
// many successive triggers and keeps the attempt that validated the most
// frames (same policy and promotion rule as the historical batch walk).
constexpr int kMaxSyncAttempts = 4;

/// Per-report DecodeOutcome tallies into the telemetry counters — one call
/// per group code, so the counters mirror RxReport::outcome_count exactly.
void count_outcomes(const RxReport& report) {
  using telemetry::Counter;
  for (const auto& r : report.results) {
    switch (r.outcome) {
      case DecodeOutcome::kOk: telemetry::count(Counter::kRxOutcomeOk); break;
      case DecodeOutcome::kNoFrameSync:
        telemetry::count(Counter::kRxOutcomeNoFrameSync);
        break;
      case DecodeOutcome::kNotDetected:
        telemetry::count(Counter::kRxOutcomeNotDetected);
        break;
      case DecodeOutcome::kTruncated:
        telemetry::count(Counter::kRxOutcomeTruncated);
        break;
      case DecodeOutcome::kBadCrc:
        telemetry::count(Counter::kRxOutcomeBadCrc);
        break;
      case DecodeOutcome::kIdMismatch:
        telemetry::count(Counter::kRxOutcomeIdMismatch);
        break;
    }
  }
}

}  // namespace

StreamingReceiver::StreamingReceiver(const Receiver& receiver, ReportSink sink)
    : receiver_(&receiver), sink_(std::move(sink)), sync_stream_(receiver.sync_) {
  const auto& cfg = receiver.config();
  const std::size_t spc = cfg.samples_per_chip;
  const auto spcd = static_cast<double>(spc);
  const auto back =
      static_cast<std::size_t>(cfg.detect.search_back_chips * spcd);
  const auto ahead =
      static_cast<std::size_t>(cfg.detect.search_ahead_chips * spcd);
  const auto group_span =
      static_cast<std::size_t>(cfg.detect.group_window_chips * spcd);

  std::size_t max_code_len = 0;
  for (std::size_t i = 0; i < receiver.group_size(); ++i) {
    max_code_len = std::max(max_code_len, receiver.code(i).length());
  }
  const std::size_t spb = max_code_len * spc;  // samples per bit

  // How far a detection window must extend past its trigger: the latest
  // anchor offset the detector can return (trigger + ahead), plus the
  // longer of the preamble template and the longest frame the decoder will
  // chase (preamble + length byte + max_payload_bytes-bounded body + CRC).
  const std::size_t frame_bits =
      cfg.preamble_bits + 8 + 8 * (cfg.max_payload_bytes + 3);
  const std::size_t tmpl_samples = cfg.preamble_bits * spb;
  need_ahead_ = ahead + 1 + std::max(tmpl_samples, frame_bits * spb) + spc;

  // How far the window reaches back before the trigger: the detector's own
  // back-search, plus the group-window dip below the anchor and the SIC
  // refold margin — so every read the batch pipeline performed on a
  // from-zero buffer lands inside the copied window (offsets translate 1:1
  // and the results stay bit-identical).
  back_margin_ = back + group_span + spc;
  keep_behind_ = back_margin_ + 64;

  start_segment(0);
}

void StreamingReceiver::start_segment(std::uint64_t rearm_pos) {
  report_ = RxReport{};
  report_.results.resize(receiver_->group_size());
  for (std::size_t i = 0; i < report_.results.size(); ++i) {
    report_.results[i].tag_index = i;
  }
  attempt_ = 0;
  collecting_ = false;
  sync_stream_.rearm(rearm_pos);
}

void StreamingReceiver::reset() {
  ring_re_.clear();
  ring_im_.clear();
  sync_stream_.reset();
  pos_ = 0;
  pending_.clear();
  reports_since_mark_ = 0;
  start_segment(0);
}

void StreamingReceiver::feed(std::span<const std::complex<double>> iq) {
  const telemetry::ScopedSpan span_rx(telemetry::Span::kRxProcess);
  {
    // Frame synchronization consumes the energy envelope (§III-B); the
    // sample rings retain the coherent window for detection and decoding.
    const telemetry::ScopedSpan span_sync(telemetry::Span::kRxFrameSync);
    for (const auto& v : iq) {
      const double re = v.real();
      const double im = v.imag();
      ring_re_.push(re);
      ring_im_.push(im);
      sync_stream_.push(std::sqrt(re * re + im * im));
      ++pos_;
    }
  }
  advance(false);
  release_rings();
}

void StreamingReceiver::flush() {
  const telemetry::ScopedSpan span_rx(telemetry::Span::kRxProcess);
  advance(true);
  // Emit the in-flight segment if it saw a trigger; otherwise emit the
  // all-kNoFrameSync report only when this fed stretch produced nothing —
  // the batch contract that every processed window yields one report.
  if (report_.frame_start.has_value() || reports_since_mark_ == 0) {
    emit_segment(pos_);
  } else {
    start_segment(pos_);
  }
  reports_since_mark_ = 0;
  release_rings();
}

void StreamingReceiver::advance(bool end_of_stream) {
  while (true) {
    if (!collecting_) {
      const auto trigger = [&] {
        const telemetry::ScopedSpan span_sync(telemetry::Span::kRxFrameSync);
        return sync_stream_.scan();
      }();
      if (!trigger) return;
      telemetry::count(telemetry::Counter::kRxSyncAttempts);
      if (!report_.frame_start) {
        report_.frame_start = static_cast<std::size_t>(*trigger);
      }
      trigger_ = *trigger;
      collecting_ = true;
    }
    // The window finalizes when its lookahead is complete — or at end of
    // stream, where the batch pipeline also ran on whatever it had.
    if (pos_ < trigger_ + need_ahead_ && !end_of_stream) return;
    run_attempt();
  }
}

void StreamingReceiver::run_attempt() {
  collecting_ = false;
  const std::uint64_t win_begin =
      trigger_ > back_margin_ ? trigger_ - back_margin_ : 0;
  const std::uint64_t win_end =
      std::min<std::uint64_t>(pos_, trigger_ + need_ahead_);
  ring_re_.copy_out(win_begin, win_end, win_re_);
  ring_im_.copy_out(win_begin, win_end, win_im_);
  const std::span<const double> re = win_re_;
  const std::span<const double> im = win_im_;
  const auto coarse = static_cast<std::size_t>(trigger_ - win_begin);

  // Signal-probe captures (strict no-ops when probing is off): the energy
  // envelope of this attempt's window, plus the window RMS every
  // link-quality power_norm is anchored on. The metrics plane also wants
  // link quality, but without the envelope tap — its RMS is computed
  // lazily below, only for windows that actually produce detections, so
  // the metrics-on hot path stays within its overhead budget.
  const bool probing = probe::enabled();
  const bool want_quality = probing || metrics::enabled();
  double window_rms = 0.0;
  bool rms_ready = false;
  if (probing) {
    win_mag_.resize(win_re_.size());
    double sum2 = 0.0;
    for (std::size_t i = 0; i < win_mag_.size(); ++i) {
      win_mag_[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
      sum2 += win_mag_[i] * win_mag_[i];
    }
    probe::record_tap(probe::Tap::kSyncEnergy, 0, win_mag_);
    window_rms = win_mag_.empty()
                     ? 0.0
                     : std::sqrt(sum2 / static_cast<double>(win_mag_.size()));
    rms_ready = true;
  }

  const auto detections = [&] {
    const telemetry::ScopedSpan span_detect(telemetry::Span::kRxDetect);
    return receiver_->detector_.detect(DetectionInput{re, im, coarse},
                                       detect_scratch_);
  }();
  telemetry::count(telemetry::Counter::kRxDetections, detections.size());

  RxReport candidate;
  candidate.frame_start = static_cast<std::size_t>(trigger_);
  candidate.results.resize(receiver_->group_size());
  if (want_quality) candidate.link_quality.resize(receiver_->group_size());
  for (std::size_t i = 0; i < candidate.results.size(); ++i) {
    candidate.results[i].tag_index = i;
    // Sync fired for this candidate; codes the detector skips below stay
    // at "not detected".
    candidate.results[i].outcome = DecodeOutcome::kNotDetected;
  }

  for (const auto& d : detections) {
    auto& r = candidate.results[d.tag_index];
    r.detected = true;
    r.correlation = d.correlation;
    r.correlation_margin = d.correlation - d.runner_up;
    // Detector offsets are window-relative; reports carry absolute stream
    // positions.
    r.offset_samples = static_cast<std::size_t>(win_begin) + d.offset_samples;

    const auto decoded = [&] {
      const telemetry::ScopedSpan span_decode(telemetry::Span::kRxDecode);
      return receiver_->decoders_[d.tag_index].decode(re, im, d.offset_samples,
                                                      d.phase);
    }();
    if (probing) {
      probe::record_tap(probe::Tap::kSoftBits,
                        static_cast<std::uint32_t>(d.tag_index), decoded.soft);
    }
    if (want_quality) {
      if (!rms_ready) {
        // Metrics-only path: one allocation-free |window|² pass, deferred
        // to the first detection of the attempt.
        double sum2 = 0.0;
        for (std::size_t i = 0; i < re.size(); ++i) {
          sum2 += re[i] * re[i] + im[i] * im[i];
        }
        window_rms = re.empty()
                         ? 0.0
                         : std::sqrt(sum2 / static_cast<double>(re.size()));
        rms_ready = true;
      }
      candidate.link_quality[d.tag_index] = compute_link_quality(
          decoded.soft, d.correlation, d.runner_up, window_rms);
    }
    // The frame's identity must match the code that decoded it: a wrong
    // code at a lucky lag reproduces another tag's bits sign-consistently
    // (CRC included), so the in-frame tag id is the discriminator.
    if (decoded.crc_ok &&
        decoded.frame->tag_id == static_cast<std::uint8_t>(d.tag_index)) {
      r.crc_ok = true;
      r.outcome = DecodeOutcome::kOk;
      r.payload = decoded.frame->payload;
      candidate.ack.decoded_tags.push_back(d.tag_index);
    } else if (decoded.truncated) {
      r.outcome = DecodeOutcome::kTruncated;
    } else if (decoded.crc_ok) {
      r.outcome = DecodeOutcome::kIdMismatch;
    } else {
      r.outcome = DecodeOutcome::kBadCrc;
    }
  }

  if (candidate.decoded_count() > report_.decoded_count() ||
      (attempt_ == 0 && !detections.empty())) {
    report_ = std::move(candidate);
  }
  ++attempt_;
  const std::size_t sync_window = receiver_->config().sync.window;
  if (report_.decoded_count() > 0) {
    // Success: emit and resume scanning past the consumed window.
    emit_segment(win_end);
  } else if (attempt_ >= kMaxSyncAttempts) {
    // Walk exhausted: emit the best failed attempt and keep listening —
    // a fresh segment continues where the walk would have re-armed.
    emit_segment(trigger_ + sync_window);
  } else {
    // Failed attempt: skip ahead past this trigger before re-arming.
    sync_stream_.rearm(trigger_ + sync_window);
  }
}

void StreamingReceiver::emit_segment(std::uint64_t rearm_pos) {
  if (telemetry::enabled()) count_outcomes(report_);
  // Record the *winning* candidate's link quality (rows therefore always
  // match the report the caller sees, which cbma_obs.py check cross-checks).
  if (probe::enabled() && !report_.link_quality.empty()) {
    for (std::size_t i = 0; i < report_.results.size(); ++i) {
      const auto& r = report_.results[i];
      if (!r.detected) continue;
      const auto& q = report_.link_quality[i];
      probe::LinkQualitySample sample;
      sample.tag = static_cast<std::uint32_t>(i);
      sample.detected = true;
      sample.decoded = r.crc_ok;
      sample.snr_db = q.snr_db;
      sample.evm = q.evm;
      sample.soft_margin = q.soft_margin;
      sample.margin_ratio = q.margin_ratio;
      sample.power_norm = q.power_norm;
      sample.correlation = q.correlation;
      probe::record_link_quality(sample);
    }
  }
  ++reports_emitted_;
  ++reports_since_mark_;
  if (sink_) {
    sink_(std::move(report_));
  } else {
    pending_.push_back(std::move(report_));
  }
  start_segment(rearm_pos);
}

void StreamingReceiver::release_rings() {
  const std::uint64_t anchor = collecting_ ? trigger_ : sync_stream_.cursor();
  const std::uint64_t floor =
      anchor > keep_behind_ ? anchor - keep_behind_ : 0;
  ring_re_.release(floor);
  ring_im_.release(floor);
}

RxReport StreamingReceiver::process(std::span<const std::complex<double>> iq,
                                    std::size_t chunk_samples) {
  reset();
  // Queue internally even when a sink is installed: the batch entry returns
  // its report instead of publishing it.
  ReportSink saved = std::move(sink_);
  sink_ = nullptr;
  if (chunk_samples == 0) {
    feed(iq);
  } else {
    for (std::size_t off = 0; off < iq.size(); off += chunk_samples) {
      feed(iq.subspan(off, std::min(chunk_samples, iq.size() - off)));
    }
  }
  flush();
  CBMA_ASSERT(!pending_.empty());  // flush emits at least one report
  RxReport out = std::move(pending_.front());
  pending_.clear();
  sink_ = std::move(saved);
  return out;
}

bool StreamingReceiver::take_report(RxReport& out) {
  if (pending_.empty()) return false;
  out = std::move(pending_.front());
  pending_.erase(pending_.begin());
  return true;
}

std::size_t StreamingReceiver::ring_bytes() const {
  return ring_re_.bytes() + ring_im_.bytes() + sync_stream_.bytes();
}

std::size_t StreamingReceiver::resident_bytes() const {
  return ring_bytes() + (win_re_.capacity() + win_im_.capacity() +
                         win_mag_.capacity()) *
                            sizeof(double);
}

}  // namespace cbma::rx
