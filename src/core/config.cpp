#include "core/config.h"

#include <sstream>

#include "phy/frame.h"
#include "util/expect.h"
#include "util/units.h"

namespace cbma::core {

std::size_t SystemConfig::code_length() const {
  CBMA_REQUIRE(max_tags >= 1, "max_tags must be positive");
  // The family the cell draws from decides the chips-per-bit, so a sliced
  // multi-cell config (code_family_size > 0) must size the family, not the
  // slice — every cell sharing the family then agrees on the code length.
  const std::size_t family = code_family_size > 0 ? code_family_size : max_tags;
  const auto codes = pn::make_code_set(code_family, family, code_min_length);
  return codes.front().length();
}

double SystemConfig::chip_rate_hz() const {
  return bitrate_bps * static_cast<double>(code_length());
}

double SystemConfig::sample_rate_hz() const {
  return chip_rate_hz() * static_cast<double>(samples_per_chip);
}

double SystemConfig::noise_power_w() const {
  // Matched-filter noise bandwidth is the chip rate; the margin models
  // excitation leakage / phase noise / quantization (DESIGN.md §4.3).
  return units::thermal_noise_watts(chip_rate_hz(),
                                    noise_figure_db + noise_margin_db);
}

std::vector<std::string> SystemConfig::validate() const {
  std::vector<std::string> errors;
  const auto fail = [&errors](const std::string& msg) { errors.push_back(msg); };

  // --- PHY / framing ---
  if (max_tags < 1) fail("max_tags must be at least 1");
  const std::size_t family_size =
      code_family_size > 0 ? code_family_size : max_tags;
  if (code_family_size > 0 && code_offset + max_tags > code_family_size) {
    std::ostringstream os;
    os << "code slice [" << code_offset << ", " << code_offset + max_tags
       << ") exceeds code_family_size=" << code_family_size;
    fail(os.str());
  }
  if (code_family_size == 0 && code_offset != 0) {
    fail("code_offset requires a non-zero code_family_size to slice from");
  }
  if (code_family == pn::CodeFamily::kGold && max_tags >= 1) {
    // Mirror make_code_set's tabulated-degree search without constructing
    // the family (construction throws; validate reports instead).
    bool fits = false;
    for (const unsigned degree : {5u, 6u, 7u, 9u, 10u}) {
      const std::size_t length = (std::size_t{1} << degree) - 1;
      if (length + 2 >= family_size && length >= code_min_length) {
        fits = true;
        break;
      }
    }
    if (!fits) {
      std::ostringstream os;
      os << (code_family_size > 0 ? "code_family_size=" : "max_tags=")
         << family_size << " exceeds every tabulated Gold family with "
         << "code_min_length=" << code_min_length
         << " (largest available: degree 10, length 1023, 1025 codes)";
      fail(os.str());
    }
  }
  if (preamble_bits < 1) fail("preamble_bits must be at least 1");
  if (payload_bytes > phy::kMaxPayloadBytes) {
    std::ostringstream os;
    os << "payload_bytes=" << payload_bytes << " exceeds the frame limit of "
       << phy::kMaxPayloadBytes;
    fail(os.str());
  }
  if (!(bitrate_bps > 0.0)) fail("bitrate_bps must be positive");

  // --- RF / link budget ---
  if (!(carrier_hz > 0.0)) fail("carrier_hz must be positive");
  if (!(antenna_gain > 0.0)) fail("antenna_gain must be positive");
  if (!(alpha > 0.0) || alpha > 1.0) fail("alpha must be in (0, 1]");
  if (!(min_node_separation_m > 0.0)) {
    fail("min_node_separation_m must be positive");
  }

  // --- channel / timing ---
  if (samples_per_chip < 1) fail("samples_per_chip must be at least 1");
  if (lead_in_chips < 0.0) fail("lead_in_chips must be non-negative");
  if (max_async_jitter_chips < 0.0) {
    fail("max_async_jitter_chips must be non-negative");
  }
  if (cfo_max_hz < 0.0) fail("cfo_max_hz must be non-negative");
  if (impedance_levels < 1) fail("impedance_levels must be at least 1");
  if (impedance_range_db < 0.0) fail("impedance_range_db must be non-negative");
  if (initial_impedance_level != kStrongestImpedance &&
      initial_impedance_level >= impedance_levels) {
    std::ostringstream os;
    os << "initial_impedance_level=" << initial_impedance_level
       << " is outside the " << impedance_levels << "-level impedance bank";
    fail(os.str());
  }
  if (multipath.enabled) {
    if (multipath.max_excess_delay_chips < 0.0) {
      fail("multipath.max_excess_delay_chips must be non-negative");
    }
  }
  for (auto& msg : impairments.validate()) errors.push_back(std::move(msg));

  // --- receiver ---
  if (sync.window < 1) fail("sync.window must be at least 1");
  if (sync.head_average < 1) fail("sync.head_average must be at least 1");
  if (!(sync.min_baseline > 0.0)) {
    fail("sync.min_baseline must be positive");
  }
  if (!(detect.threshold > 0.0) || detect.threshold >= 1.0) {
    fail("detect.threshold must be in (0, 1)");
  }
  if (detect.relative_threshold < 0.0 || detect.relative_threshold > 1.0) {
    fail("detect.relative_threshold must be in [0, 1]");
  }
  if (detect.search_back_chips < 0.0 || detect.search_ahead_chips < 0.0) {
    fail("detect search window must be non-negative");
  }
  if (detect.group_window_chips < 0.0) {
    fail("detect.group_window_chips must be non-negative");
  }
  switch (detect.engine) {
    case rx::DetectEngine::kNaive:
    case rx::DetectEngine::kFft:
    case rx::DetectEngine::kAuto:
      break;
    default:
      fail("detect.engine must be naive, fft or auto");
      break;
  }
  if (phase_tracking_gain < 0.0 || phase_tracking_gain > 1.0) {
    fail("phase_tracking_gain must be in [0, 1]");
  }
  // Chunked ingestion is pure mechanics (reports are chunk-invariant), but
  // a nonsensical chunk size is almost certainly a units mistake — a
  // per-round window is tens of kilosamples, so cap at 2^26 samples.
  if (rx_chunk_samples > (std::size_t{1} << 26)) {
    std::ostringstream os;
    os << "rx_chunk_samples=" << rx_chunk_samples
       << " exceeds the 2^26-sample ingestion cap (0 = whole-round feeds)";
    fail(os.str());
  }
  return errors;
}

std::string SystemConfig::summary() const {
  std::ostringstream os;
  os << pn::to_string(code_family) << " L=" << code_length()
     << " preamble=" << preamble_bits << "b payload=" << payload_bytes << "B"
     << " bitrate=" << bitrate_bps / 1e6 << "Mbps"
     << " Pt=" << tx_power_dbm << "dBm spc=" << samples_per_chip;
  // A sliced family changes which codes the cell runs, so it must change
  // the fingerprint; the default whole-family config keeps its bytes.
  if (code_family_size > 0) {
    os << " codes=[" << code_offset << "," << code_offset + max_tags << ")/"
       << code_family_size;
  }
  // Impairments change what an experiment measures, so they must change the
  // config fingerprint; a default (all-off) config keeps its summary bytes.
  if (const auto imp = impairments.summary(); !imp.empty()) {
    os << " imp=[" << imp << "]";
  }
  // Engine choice changes detection numerics (within the §8.3 tolerance),
  // so a non-default engine must change the fingerprint; the default naive
  // engine keeps its summary bytes.
  if (detect.engine != rx::DetectEngine::kNaive) {
    os << " detect.engine=" << rx::to_string(detect.engine);
  }
  return os.str();
}

}  // namespace cbma::core
