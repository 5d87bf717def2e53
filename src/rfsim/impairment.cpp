#include "rfsim/impairment.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/expect.h"
#include "util/obs.h"
#include "util/units.h"

namespace cbma::rfsim {

std::vector<std::string> ImpairmentConfig::validate() const {
  std::vector<std::string> errors;
  const auto fail = [&errors](const std::string& msg) { errors.push_back(msg); };
  if (dropout.enabled) {
    if (!(dropout.duty > 0.0) || dropout.duty > 1.0) {
      fail("impairments.dropout.duty must be in (0, 1]");
    }
    if (!(dropout.mean_burst_s > 0.0)) {
      fail("impairments.dropout.mean_burst_s must be positive");
    }
  }
  if (drift.enabled) {
    if (drift.max_static_ppm < 0.0) {
      fail("impairments.drift.max_static_ppm must be non-negative");
    }
    if (drift.wander_ppm < 0.0) {
      fail("impairments.drift.wander_ppm must be non-negative");
    }
  }
  if (switching.enabled) {
    if (switching.jitter_chips < 0.0) {
      fail("impairments.switching.jitter_chips must be non-negative");
    }
    if (switching.settle_chips < 0.0) {
      fail("impairments.switching.settle_chips must be non-negative");
    }
  }
  if (impulsive.enabled) {
    if (!(impulsive.events_per_s > 0.0)) {
      fail("impairments.impulsive.events_per_s must be positive");
    }
    if (!(impulsive.mean_duration_s > 0.0)) {
      fail("impairments.impulsive.mean_duration_s must be positive");
    }
    if (impulsive.amplitude < 0.0) {
      fail("impairments.impulsive.amplitude must be non-negative");
    }
  }
  if (adc.enabled) {
    if (!(adc.full_scale > 0.0)) {
      fail("impairments.adc.full_scale must be positive when enabled");
    }
    if (adc.bits < 1 || adc.bits > 32) {
      fail("impairments.adc.bits must be in [1, 32]");
    }
  }
  return errors;
}

std::string ImpairmentConfig::summary() const {
  if (!any_enabled()) return "";
  std::ostringstream os;
  const char* sep = "";
  if (dropout.enabled) {
    os << sep << "dropout(duty=" << dropout.duty << ")";
    sep = " ";
  }
  if (drift.enabled) {
    os << sep << "drift(" << drift.max_static_ppm << "+-" << drift.wander_ppm
       << "ppm)";
    sep = " ";
  }
  if (switching.enabled) {
    os << sep << "switch(j=" << switching.jitter_chips
       << " s=" << switching.settle_chips << ")";
    sep = " ";
  }
  if (impulsive.enabled) {
    os << sep << "impulse(" << impulsive.events_per_s << "/s)";
    sep = " ";
  }
  if (adc.enabled) {
    os << sep << "adc(" << adc.bits << "b)";
  }
  return os.str();
}

ImpairmentSuite::ImpairmentSuite(ImpairmentConfig config)
    : config_(config) {
  const auto errors = config_.validate();
  CBMA_REQUIRE(errors.empty(),
               errors.empty() ? std::string() : errors.front());
}

double ImpairmentSuite::static_clock_ppm(std::size_t slot,
                                         std::size_t slot_count) const {
  if (!config_.drift.enabled || config_.drift.max_static_ppm == 0.0) return 0.0;
  CBMA_REQUIRE(slot < slot_count, "slot outside the group");
  if (slot_count == 1) return config_.drift.max_static_ppm;
  // Even spread over [-max, +max]: worst-case relative drift between two
  // tags of a group is then the full 2×max the config advertises.
  const double t = static_cast<double>(slot) / static_cast<double>(slot_count - 1);
  return config_.drift.max_static_ppm * (2.0 * t - 1.0);
}

TagPerturbation ImpairmentSuite::perturb_clock(double static_ppm,
                                               double subcarrier_hz,
                                               double frame_chips,
                                               Rng& rng) const {
  TagPerturbation p;
  if (!config_.drift.enabled) return p;
  telemetry::count(telemetry::Counter::kImpairmentClockPerturbs);
  double ppm = static_ppm;
  if (config_.drift.wander_ppm > 0.0) {
    ppm += rng.uniform(-config_.drift.wander_ppm, config_.drift.wander_ppm);
  }
  const double rel = ppm * 1e-6;
  // The subcarrier is divided down from the chip clock, so a relative chip
  // clock error shifts it by the same fraction; the timing skew accumulates
  // linearly over the burst, so the mean misalignment is half the total.
  p.extra_freq_offset_hz = rel * subcarrier_hz;
  p.extra_delay_chips = 0.5 * rel * frame_chips;
  return p;
}

double ImpairmentSuite::switching_jitter_chips(Rng& rng) const {
  if (!config_.switching.enabled || config_.switching.jitter_chips <= 0.0) {
    return 0.0;
  }
  telemetry::count(telemetry::Counter::kImpairmentSwitchJitters);
  return rng.uniform(0.0, config_.switching.jitter_chips);
}

void ImpairmentSuite::gate_excitation(std::span<double> envelope,
                                      double sample_rate_hz, Rng& rng) const {
  const auto& d = config_.dropout;
  if (!d.enabled || d.duty >= 1.0) return;
  CBMA_REQUIRE(sample_rate_hz > 0.0, "sample rate must be positive");
  telemetry::count(telemetry::Counter::kImpairmentDropoutGates);
  const double mean_off_s = d.mean_burst_s * (1.0 - d.duty) / d.duty;
  std::size_t pos = 0;
  // Random initial phase of the on/off cycle (same scheme as the OFDM
  // excitation): frame starts must not correlate with gate edges.
  bool on = rng.bernoulli(d.duty);
  while (pos < envelope.size()) {
    const double duration_s = rng.exponential(on ? d.mean_burst_s : mean_off_s);
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(duration_s * sample_rate_hz));
    const std::size_t end = std::min(envelope.size(), pos + n);
    if (!on) {
      std::fill(envelope.begin() + static_cast<std::ptrdiff_t>(pos),
                envelope.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
    }
    pos = end;
    on = !on;
  }
}

void ImpairmentSuite::settle_waveform(std::span<double> waveform,
                                      std::size_t samples_per_chip) const {
  const auto& sw = config_.switching;
  if (!sw.enabled || sw.settle_chips <= 0.0 || waveform.empty()) return;
  // First-order RC response sampled at the chip-expansion rate: each sample
  // moves a fixed fraction of the remaining distance to its target level.
  const double tau_samples =
      sw.settle_chips * static_cast<double>(samples_per_chip);
  const double k = 1.0 - std::exp(-1.0 / tau_samples);
  double level = waveform[0];  // switch starts settled at the first chip
  for (double& v : waveform) {
    level += (v - level) * k;
    v = level;
  }
}

void ImpairmentSuite::distort_rx(std::span<std::complex<double>> iq,
                                 double sample_rate_hz, Rng& rng) const {
  if (iq.empty()) return;
  const auto& imp = config_.impulsive;
  if (imp.enabled) {
    CBMA_REQUIRE(sample_rate_hz > 0.0, "sample rate must be positive");
    const double window_s = static_cast<double>(iq.size()) / sample_rate_hz;
    double t = rng.exponential(1.0 / imp.events_per_s);
    while (t < window_s) {
      const auto start = static_cast<std::size_t>(t * sample_rate_hz);
      const double dur_s = rng.exponential(imp.mean_duration_s);
      const auto len = std::max<std::size_t>(
          1, static_cast<std::size_t>(dur_s * sample_rate_hz));
      const double phi = rng.phase();
      const std::complex<double> burst(imp.amplitude * std::cos(phi),
                                       imp.amplitude * std::sin(phi));
      telemetry::count(telemetry::Counter::kImpairmentImpulsiveBursts);
      const std::size_t end = std::min(iq.size(), start + len);
      for (std::size_t s = start; s < end; ++s) iq[s] += burst;
      t += dur_s + rng.exponential(1.0 / imp.events_per_s);
    }
  }
  const auto& adc = config_.adc;
  if (adc.enabled) {
    const double fs = adc.full_scale;
    // LSB of a mid-tread uniform quantizer across ±full_scale.
    const double lsb =
        2.0 * fs / static_cast<double>((std::uint64_t{1} << adc.bits) - 1);
    std::uint64_t clipped = 0;
    for (auto& sample : iq) {
      const double ri = sample.real(), rq = sample.imag();
      double i = std::clamp(ri, -fs, fs);
      double q = std::clamp(rq, -fs, fs);
      clipped += (i != ri) || (q != rq) ? 1 : 0;
      i = std::round(i / lsb) * lsb;
      q = std::round(q / lsb) * lsb;
      sample = {i, q};
    }
    telemetry::count(telemetry::Counter::kImpairmentAdcClippedSamples, clipped);
  }
}

}  // namespace cbma::rfsim
