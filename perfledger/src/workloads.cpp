#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "alloc_counter.h"
#include "core/system.h"
#include "net/network.h"
#include "oracle.h"
#include "phy/tag.h"
#include "rfsim/channel.h"
#include "rfsim/excitation.h"
#include "rfsim/noise.h"
#include "rx/streaming_receiver.h"
#include "stats.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfledger {
namespace {

using cbma::Rng;
using cbma::util::point_seed;
namespace core = cbma::core;
namespace net = cbma::net;
namespace phy = cbma::phy;
namespace rfsim = cbma::rfsim;
namespace rx = cbma::rx;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},   {"decode_ratio", "ratio"},
    {"msamples_per_s", "MS/s"}, {"ops_per_s", "1/s"},   {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.transmit_us", "us"},       {"phy.spread_us", "us"},
    {"rfsim.synth_us", "us"},         {"rfsim.envelope_us", "us"},
    {"rfsim.tag_paths_us", "us"},     {"rfsim.interferers_us", "us"},
    {"rfsim.awgn_us", "us"},          {"rfsim.awgn_ns_per_sample", "ns"},
    {"rx.process_us", "us"},          {"rx.sync_us", "us"},
    {"rx.detect_us", "us"},           {"rx.decode_us", "us"},
    {"rx.sync_ns_per_sample", "ns"},  {"rx.chunk_us_p50", "us"},
    {"rx.synced_frac", "ratio"},      {"rx.detected_frac", "ratio"},
    {"rx.decoded_per_detected", "ratio"}, {"rx.reports_per_window", "ratio"},
    {"rx.resident_kb", "kB"},         {"rx.ring_kb", "kB"},
    {"core.fresh_scratch_us", "us"},  {"core.other_us", "us"},
    {"core.system_build_us", "us"},
    {"net.roam_frac", "ratio"},       {"net.cell_round_ms_p50", "ms"},
    {"net.cell_round_ms_max", "ms"},  {"net.cell_imbalance", "ratio"},
    {"net.overhead_frac", "ratio"},   {"net.rebuilds_per_round", "count"},
    {"net.roamed_per_round", "count"}, {"net.served_frac", "ratio"},
    {"core.allocs_per_packet", "count"}, {"net.allocs_per_round", "count"},
    {"rx.allocs_per_chunk", "count"}, {"layer.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupSeconds (a cheap set-up gets more repeats), and the median reported.
constexpr std::size_t kSetupReps = 7;
constexpr double kSetupSeconds = 0.5;
/// Enough operations for ten blocks with a p90 that has ten samples beyond it.
constexpr std::size_t kMinOps = kBlocks * kMinBeyond;
constexpr std::size_t kMinTracedOps = 10;
/// A run stops here even if kMinOps has not been reached, so it always
/// finishes well inside the 180 s a run may take.
constexpr double kHardCapSeconds = 120.0;
/// Share of a traced run spent on the untraced baseline phase.
constexpr double kBaselineShare = 1.0 / 3.0;
/// Samples per StreamingReceiver::feed on the chunked path.
constexpr std::size_t kChunkSamples = 512;

class Stopwatch {
 public:
  double ns() const { return static_cast<double>(cbma::util::monotonic_ns() - t0_); }

 private:
  std::uint64_t t0_ = cbma::util::monotonic_ns();
};

/// Calls `step` until `seconds` have passed and it has run `min_ops` times.
template <class Step>
void run_for(double seconds, std::size_t min_ops, Step&& step) {
  const Stopwatch clock;
  for (std::size_t ops = 1;; ++ops) {
    step();
    const double elapsed = clock.ns() * 1e-9;
    if ((elapsed >= seconds && ops >= min_ops) || elapsed >= kHardCapSeconds) return;
  }
}

/// Wall times (s) of fresh constructions, repeated as kSetupReps and
/// kSetupSeconds ask; `build(rep)` leaves the last one in place for the run.
template <class Build>
std::vector<double> setup_times_s(Build&& build) {
  std::vector<double> times;
  const Stopwatch total;
  for (std::size_t rep = 0; rep < kSetupReps || total.ns() * 1e-9 < kSetupSeconds; ++rep) {
    const Stopwatch sw;
    build(rep);
    times.push_back(sw.ns() * 1e-9);
  }
  return times;
}

/// Per-operation record of a timed phase.
struct Ops {
  std::vector<double> latency_ns;  ///< latency samples of the operation
  std::vector<double> busy_ns;     ///< time charged to each operation
  std::vector<double> samples;     ///< IQ samples each operation moved
  std::uint64_t frames = 0;        ///< frames transmitted
  std::uint64_t frames_ok = 0;     ///< frames decoded with a valid CRC
  std::uint64_t false_accepts = 0; ///< of those, frames whose payload was wrong

  /// Operations per second of a median operation.
  double median_rate() const {
    const double m = median(busy_ns);
    return m > 0.0 ? 1e9 / m : 0.0;
  }
};

void check(Outcome& out, const std::string& why) {
  ++out.attempted;
  if (why.empty()) return;
  ++out.failed;
  if (out.failures.size() < 5) out.failures.push_back(why);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string sample_note(const BlockedPercentile& p) {
  return "n=" + std::to_string(p.n) + " beyond=" + std::to_string(p.beyond) +
         " blocks=" + std::to_string(kBlocks);
}

/// Metric values by name; a name the workload has no value for reads 0.
using Values = std::map<std::string, double>;

void report(Outcome& out, std::span<const MetricDef> defs, const Values& values,
            const std::map<std::string, std::string>& notes = {}) {
  out.metrics.clear();
  for (const auto& def : defs) {
    const auto v = values.find(def.name);
    const auto n = notes.find(def.name);
    out.metrics.push_back({def.name, v == values.end() ? 0.0 : v->second, def.unit,
                           n == notes.end() ? "" : n->second});
  }
}

void report_end_to_end(Outcome& out, const std::vector<double>& setup_s, const Ops& ops) {
  const std::vector<double> ones(ops.busy_ns.size(), 1.0);
  const auto p50 = blocked_percentile(ops.latency_ns, 0.5);
  const auto p90 = blocked_percentile(ops.latency_ns, 0.9);
  check(out, p90.reportable() ? std::string{}
                              : "p90 has fewer than " + std::to_string(kMinBeyond) +
                                    " samples beyond it");
  const Values values{
      {"setup_s", median(setup_s)},
      {"peak_rss_mb", peak_rss_mb()},
      {"decode_ratio", ops.frames ? static_cast<double>(ops.frames_ok) /
                                        static_cast<double>(ops.frames)
                                  : 0.0},
      {"msamples_per_s", blocked_rate(ops.samples, ops.busy_ns) * 1e3},
      {"ops_per_s", blocked_rate(ones, ops.busy_ns) * 1e9},
      {"op_ms_p50", p50.value * 1e-6},
      {"op_ms_p90", p90.value * 1e-6},
  };
  report(out, kEndToEnd, values,
         {{"setup_s", "median of " + std::to_string(setup_s.size())},
          {"decode_ratio",
           std::to_string(ops.frames_ok) + "/" + std::to_string(ops.frames) +
               " frames, CRC false accepts " + std::to_string(ops.false_accepts)},
          {"ops_per_s", "n=" + std::to_string(ops.busy_ns.size())},
          {"op_ms_p50", sample_note(p50)},
          {"op_ms_p90", sample_note(p90)}});
}

/// Per-packet layer times (ns) and receiver counts summed over the traced
/// packets; turned into per-packet means by into().
struct PacketSums {
  double packets = 0, transmit = 0, spread = 0, synth = 0, envelope = 0;
  /// The traced packets sent again, with the same draws, on a fresh and on a
  /// warm TransmitScratch.
  double fresh_transmit = 0, warm_transmit = 0;
  std::vector<double> chunk_ns;  ///< chunked-path feeds that completed no report
  double chunk_allocs = 0;       ///< allocations in those feeds
  std::vector<double> cell_ms;   ///< cell rounds (Cell::run_round or run_packets(1))
  double cell_round_allocs = 0;  ///< allocations in the run_packets(1) rounds
  double tag_samples = 0, awgn = 0, interferers = 0, process = 0, sync = 0;
  double detect = 0, decode = 0, stream_sync = 0, allocs = 0;
  double reports = 0, synced = 0, codes = 0, detected = 0, decoded = 0;
  double resident_kb = 0, ring_kb = 0;

  void note_report(const rx::RxReport& report) {
    reports += 1;
    synced += report.frame_start.has_value() ? 1 : 0;
    for (const auto& r : report.results) {
      codes += 1;
      detected += r.detected ? 1 : 0;
      decoded += r.crc_ok ? 1 : 0;
    }
  }

  /// `fresh_scratch_paid`: the workload's own transmit runs on a fresh
  /// scratch, so that cost is part of core.transmit_us.
  void into(Values& l, bool fresh_scratch_paid) const {
    const double n = std::max(packets, 1.0);
    l["core.transmit_us"] = transmit / n * 1e-3;
    l["phy.spread_us"] = spread / n * 1e-3;
    l["rfsim.synth_us"] = synth / n * 1e-3;
    l["rfsim.envelope_us"] = envelope / n * 1e-3;
    l["rfsim.interferers_us"] = interferers / n * 1e-3;
    l["rfsim.awgn_us"] = awgn / n * 1e-3;
    l["rfsim.tag_paths_us"] = (synth - envelope - awgn - interferers) / n * 1e-3;
    l["rfsim.awgn_ns_per_sample"] = tag_samples > 0 ? awgn / tag_samples : 0.0;
    l["rx.process_us"] = process / n * 1e-3;
    l["rx.sync_us"] = sync / n * 1e-3;
    l["rx.detect_us"] = detect / n * 1e-3;
    l["rx.decode_us"] = decode / n * 1e-3;
    l["rx.sync_ns_per_sample"] = tag_samples > 0 ? stream_sync / tag_samples : 0.0;
    l["rx.synced_frac"] = reports > 0 ? synced / reports : 0.0;
    l["rx.detected_frac"] = codes > 0 ? detected / codes : 0.0;
    l["rx.decoded_per_detected"] = detected > 0 ? decoded / detected : 0.0;
    l["rx.reports_per_window"] = reports / n;
    l["rx.resident_kb"] = resident_kb;
    l["rx.ring_kb"] = ring_kb;
    const double fresh_scratch = fresh_transmit - warm_transmit;
    l["core.fresh_scratch_us"] = fresh_scratch / n * 1e-3;
    l["core.other_us"] =
        (transmit - (fresh_scratch_paid ? fresh_scratch : 0.0) - spread - synth - process) /
        n * 1e-3;
    l["rx.chunk_us_p50"] = median(chunk_ns) * 1e-3;
    l["rx.allocs_per_chunk"] =
        chunk_ns.empty() ? 0.0 : chunk_allocs / static_cast<double>(chunk_ns.size());
    l["net.cell_round_ms_p50"] = median(cell_ms);
    l["core.allocs_per_packet"] = allocs / n;
  }
};

/// Replays the layers of one packet through their public entry points:
/// spreading on the system's group codes, channel synthesis on the tag
/// transmissions transmit() left in its scratch (with the envelope, noise
/// and interferer stages timed again on their own), and the receiver and
/// its stages on the window transmit() received, whole and in chunks.
class PacketTracer {
 public:
  PacketTracer(const core::CbmaSystem& system, const rx::Receiver& receiver)
      : system_(system),
        channel_(channel_config(system)),
        session_(receiver),
        chunk_session_(receiver, [this](const rx::RxReport&) { ++chunk_reports_; }),
        sync_(receiver.config().sync),
        detector_(receiver.config().detect, codes_of(receiver),
                  receiver.config().preamble_bits, receiver.config().samples_per_chip) {
    const auto& cfg = system.config();
    for (std::size_t k = 0; k < system.group_codes().size(); ++k) {
      phy::TagConfig tc;
      tc.id = static_cast<std::uint32_t>(k);
      tc.code = system.group_codes()[k];
      tc.preamble_bits = cfg.preamble_bits;
      tc.impedance_levels = system.impedance_level_count();
      tags_.emplace_back(tc);
    }
    for (std::size_t k = 0; k < receiver.group_size(); ++k) {
      decoders_.emplace_back(receiver.code(k), receiver.config().preamble_bits,
                             receiver.config().samples_per_chip,
                             receiver.config().phase_tracking_gain);
    }
  }

  // The chunk session's sink points at this tracer.
  PacketTracer(const PacketTracer&) = delete;
  PacketTracer& operator=(const PacketTracer&) = delete;

  void replay(const core::TransmitScratch& scratch, Rng& rng, PacketSums& sums) {
    const auto& cfg = system_.config();
    const double fs = channel_.sample_rate_hz();

    payload_.resize(cfg.payload_bytes);
    for (auto& b : payload_) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    chips_.resize(scratch.txs.size());
    {
      const Stopwatch sw;
      for (std::size_t k = 0; k < scratch.txs.size(); ++k) {
        tags_[k % tags_.size()].chip_sequence_into(payload_, bits_, chips_[k]);
      }
      sums.spread += sw.ns();
    }
    {
      const Stopwatch sw;
      channel_.receive_into(scratch.txs, tone_, scratch.interferers, rng, channel_scratch_,
                            iq_);
      sums.synth += sw.ns();
    }
    const std::size_t n = iq_.size();
    sums.tag_samples += static_cast<double>(n);
    envelope_.assign(n, 1.0);
    {
      const Stopwatch sw;
      tone_.envelope(envelope_, fs, rng);
      sums.envelope += sw.ns();
    }
    buffer_.assign(n, {0.0, 0.0});
    {
      const Stopwatch sw;
      for (const auto* itf : scratch.interferers) itf->add_to(buffer_, fs, rng);
      sums.interferers += sw.ns();
    }
    {
      const Stopwatch sw;
      rfsim::AwgnSource(system_.noise_power_w()).add_to(buffer_, rng);
      sums.awgn += sw.ns();
    }

    // Receiver stages on the window transmit() actually received.
    {
      const Stopwatch sw;
      const auto report = session_.process(scratch.iq, cfg.rx_chunk_samples);
      sums.process += sw.ns();
    }
    sums.resident_kb = static_cast<double>(session_.resident_bytes()) / 1024.0;
    sums.ring_kb = static_cast<double>(session_.ring_bytes()) / 1024.0;
    const std::size_t m = scratch.iq.size();
    magnitude_.resize(m);
    re_.resize(m);
    im_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      re_[i] = scratch.iq[i].real();
      im_[i] = scratch.iq[i].imag();
      magnitude_[i] = std::abs(scratch.iq[i]);
    }
    std::optional<std::size_t> trigger;
    {
      const Stopwatch sw;
      trigger = sync_.detect(magnitude_);
      sums.sync += sw.ns();
    }
    std::vector<rx::DetectedUser> detections;
    {
      const Stopwatch sw;
      detections = detector_.detect(rx::DetectionInput{re_, im_, trigger.value_or(0)},
                                    detect_scratch_);
      sums.detect += sw.ns();
    }
    {
      const Stopwatch sw;
      for (const auto& d : detections) {
        decoders_[d.tag_index].decode(re_, im_, d.offset_samples, d.phase);
      }
      sums.decode += sw.ns();
    }
    // The chunked path: the same window fed to a fresh session in
    // kChunkSamples feeds; the feeds that complete no report are the
    // receiver's idle-scan cost.
    chunk_session_.reset();
    const std::span<const std::complex<double>> window(scratch.iq);
    for (std::size_t off = 0; off < window.size(); off += kChunkSamples) {
      const std::uint64_t before = chunk_reports_;
      const alloc::Scope allocs;
      const Stopwatch sw;
      chunk_session_.feed(window.subspan(off, std::min(kChunkSamples, window.size() - off)));
      const double ns = sw.ns();
      if (chunk_reports_ == before) {
        sums.chunk_ns.push_back(ns);
        sums.chunk_allocs += static_cast<double>(allocs.count());
      }
    }
    chunk_session_.flush();
    {
      const Stopwatch sw;
      rx::FrameSynchronizer::Stream stream(sync_);
      for (const double v : magnitude_) stream.push(v);
      while (const auto t = stream.scan()) stream.rearm(*t + sync_.config().window);
      sums.stream_sync += sw.ns();
    }
  }

 private:
  static rfsim::ChannelConfig channel_config(const core::CbmaSystem& system) {
    const auto& cfg = system.config();
    rfsim::ChannelConfig ch;
    ch.samples_per_chip = cfg.samples_per_chip;
    ch.chip_rate_hz = system.chip_rate_hz();
    ch.noise_power_w = system.noise_power_w();
    ch.multipath = cfg.multipath;
    ch.impairments = cfg.impairments;
    return ch;
  }

  static std::vector<cbma::pn::PnCode> codes_of(const rx::Receiver& receiver) {
    std::vector<cbma::pn::PnCode> codes;
    for (std::size_t k = 0; k < receiver.group_size(); ++k) codes.push_back(receiver.code(k));
    return codes;
  }

  const core::CbmaSystem& system_;
  rfsim::Channel channel_;
  rfsim::ContinuousTone tone_;
  rx::StreamingReceiver session_;
  rx::StreamingReceiver chunk_session_;
  std::uint64_t chunk_reports_ = 0;
  rx::FrameSynchronizer sync_;
  rx::UserDetector detector_;
  std::vector<rx::Decoder> decoders_;
  std::vector<phy::Tag> tags_;

  std::vector<std::uint8_t> payload_, bits_;
  std::vector<std::vector<std::uint8_t>> chips_;
  rfsim::ChannelScratch channel_scratch_;
  std::vector<std::complex<double>> iq_, buffer_;
  std::vector<double> envelope_, magnitude_, re_, im_;
  rx::UserDetector::Scratch detect_scratch_;
};

/// Re-sends one packet (the draws of `seed`) on a fresh scratch and on
/// `warm`, and times one cell round of the system (CbmaSystem::run_packets
/// of one packet, which is what Cell::run_round runs for a cell).
void time_scratch_and_round(const core::CbmaSystem& system,
                            const core::TransmitOptions& options, std::uint64_t seed,
                            core::TransmitScratch& warm, PacketSums& sums) {
  {
    Rng rng(seed);
    core::TransmitScratch fresh;
    const Stopwatch sw;
    system.transmit(options, rng, fresh);
    sums.fresh_transmit += sw.ns();
  }
  {
    Rng rng(seed);
    const Stopwatch sw;
    system.transmit(options, rng, warm);
    sums.warm_transmit += sw.ns();
  }
  Rng rng(seed);
  const alloc::Scope allocs;
  const Stopwatch sw;
  system.run_packets(1, rng);
  sums.cell_ms.push_back(sw.ns() * 1e-6);
  sums.cell_round_allocs += static_cast<double>(allocs.count());
}

/// Network figures of a single-cell workload, whose "round" is the
/// run_packets(1) cell round time_scratch_and_round timed: that cell is also
/// the slowest, every tag is served, and nothing roams or is rebuilt.
void single_cell(Values& layers, const PacketSums& sums) {
  layers["net.cell_round_ms_max"] = layers["net.cell_round_ms_p50"];
  layers["net.cell_imbalance"] = 1.0;
  layers["net.served_frac"] = 1.0;
  layers["net.allocs_per_round"] =
      sums.cell_ms.empty() ? 0.0
                           : sums.cell_round_allocs / static_cast<double>(sums.cell_ms.size());
}

/// Median CbmaSystem construction time (µs) for this config and population.
double system_build_us(const core::SystemConfig& cfg, const rfsim::Deployment& population) {
  std::vector<double> times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Stopwatch sw;
    const core::CbmaSystem system(cfg, population);
    times.push_back(sw.ns() * 1e-3);
  }
  return median(times);
}

rfsim::Deployment paper_deployment(std::size_t tags) {
  auto dep = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < tags; ++k) {
    dep.add_tag({0.1 * static_cast<double>(k), 0.6});
  }
  return dep;
}

void random_payloads(std::vector<std::vector<std::uint8_t>>& payloads, Rng& rng) {
  for (auto& p : payloads) {
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
}

// --- cell_packets ------------------------------------------------------------

constexpr std::size_t kCellTags = 10;

core::SystemConfig cell_config() {
  core::SystemConfig cfg;  // 2NC, 32-chip codes, 4 samples/chip: 128 MS/s
  cfg.max_tags = kCellTags;
  return cfg;
}

Outcome run_cell_packets(const Options& opt) {
  Outcome out;
  std::unique_ptr<core::CbmaSystem> system;
  core::TransmitScratch scratch;
  const auto setup_s = setup_times_s([&](std::size_t rep) {
    scratch = core::TransmitScratch{};  // drop the session bound to the old system
    system = std::make_unique<core::CbmaSystem>(cell_config(), paper_deployment(kCellTags));
    Rng warm(point_seed(opt.seed, 1000 + rep));
    system->transmit({}, warm, scratch);
  });

  Rng rng(opt.seed);
  Rng payload_rng(point_seed(opt.seed, 1));
  std::vector<std::vector<std::uint8_t>> payloads(
      kCellTags, std::vector<std::uint8_t>(system->config().payload_bytes));
  core::TransmitOptions options;
  options.payloads = payloads;

  std::unique_ptr<PacketTracer> tracer;
  PacketSums sums;
  Rng replay_rng(point_seed(opt.seed, 2));
  auto phase = [&](double seconds, std::size_t min_ops, Ops& ops) {
    run_for(seconds, min_ops, [&] {
      random_payloads(payloads, payload_rng);
      rx::RxReport report;
      double ns = 0.0;
      std::uint64_t allocs = 0;
      {
        std::optional<alloc::Scope> counting;
        if (tracer) counting.emplace();
        const Stopwatch sw;
        report = system->transmit(options, rng, scratch);
        ns = sw.ns();
        if (counting) allocs = counting->count();
      }
      check(out, check_cell_report(report, kCellTags));
      ops.false_accepts += false_accepts(report, payloads);
      ops.latency_ns.push_back(ns);
      ops.busy_ns.push_back(ns);
      ops.samples.push_back(static_cast<double>(scratch.iq.size()));
      ops.frames += kCellTags;
      ops.frames_ok += report.decoded_count();
      if (tracer) {
        sums.packets += 1;
        sums.transmit += ns;
        sums.allocs += static_cast<double>(allocs);
        sums.note_report(report);
        tracer->replay(scratch, replay_rng, sums);
        time_scratch_and_round(*system, options, point_seed(opt.seed, 1000000 + ops.busy_ns.size()),
                               scratch, sums);
      }
    });
  };

  if (!opt.trace) {
    Ops ops;
    phase(opt.seconds, kMinOps, ops);
    report_end_to_end(out, setup_s, ops);
    return out;
  }

  Ops baseline, traced;
  phase(opt.seconds * kBaselineShare, kMinTracedOps, baseline);
  tracer = std::make_unique<PacketTracer>(*system, system->receiver());
  phase(opt.seconds * (1.0 - kBaselineShare), kMinTracedOps, traced);

  Values layers;
  sums.into(layers, false);
  single_cell(layers, sums);
  layers["core.system_build_us"] = system_build_us(cell_config(), paper_deployment(kCellTags));
  layers["layer.coverage"] = (sums.spread + sums.synth + sums.process) / sums.transmit;
  layers["trace.overhead"] = traced.median_rate() / baseline.median_rate();
  report(out, kPerLayer, layers);
  return out;
}

// --- floor_rounds ------------------------------------------------------------

constexpr std::size_t kFloorSide = 3;
constexpr std::size_t kFloorTags = 36;
constexpr double kBayWidthM = 6.0;
constexpr double kBayHeightM = 4.0;
constexpr double kWalkStepM = 0.3;
/// Each tag walks within this distance of its home position.
constexpr double kHomeRadiusM = 1.0;
/// A position this close to an ES or RX is never used (the same clearance
/// Network::place_random_tags keeps).
constexpr double kGatewayClearanceM = 0.1;
/// Seed of the floor plan: the tags' home positions are the same on every
/// run, so a run's seed varies the walk and the radio (payloads, phases,
/// noise), not which parts of the floor are covered. A plan drawn per seed
/// moved decode_ratio by ±20 % and the round time by ±10 % between seeds.
constexpr std::uint64_t kFloorPlanSeed = 0x5EED;
constexpr std::size_t kTwinRounds = 3;

net::NetworkConfig floor_config() {
  net::NetworkConfig cfg;
  cfg.cell.code_family = cbma::pn::CodeFamily::kGold;
  cfg.cell.max_tags = 4;
  cfg.cell.tx_power_dbm = 30.0;
  cfg.reuse.family_size = 64;
  cfg.packets_per_round = 1;
  cfg.tag_step_m = 0.0;  // mobility is this benchmark's own seeded walk
  return cfg;
}

bool clear_of_gateways(const net::Network& network, const rfsim::Point& p) {
  for (const auto& g : network.gateways()) {
    if (rfsim::distance(p, g.es) < kGatewayClearanceM ||
        rfsim::distance(p, g.rx) < kGatewayClearanceM) {
      return false;
    }
  }
  return true;
}

struct Floor {
  std::unique_ptr<net::Network> network;
  std::vector<rfsim::Point> homes;  ///< per tag
};

/// The 3 × 3 floor with kFloorTags / 9 tags homed at random points of each
/// bay (drawn from kFloorPlanSeed).
Floor make_floor() {
  const double side = static_cast<double>(kFloorSide);
  Floor floor;
  floor.network = std::make_unique<net::Network>(net::Network::grid(
      floor_config(), side * kBayWidthM, side * kBayHeightM, kFloorSide, kFloorSide));
  Rng plan(kFloorPlanSeed);
  const double x0 = -side * kBayWidthM / 2.0;
  const double y0 = -side * kBayHeightM / 2.0;
  for (std::size_t t = 0; t < kFloorTags; ++t) {
    const std::size_t bay = t % (kFloorSide * kFloorSide);
    const double bx = x0 + static_cast<double>(bay % kFloorSide) * kBayWidthM;
    const double by = y0 + static_cast<double>(bay / kFloorSide) * kBayHeightM;
    rfsim::Point p;
    do {
      p = {bx + plan.uniform(0.0, kBayWidthM), by + plan.uniform(0.0, kBayHeightM)};
    } while (!clear_of_gateways(*floor.network, p));
    floor.network->add_tag(p);
    floor.homes.push_back(p);
  }
  return floor;
}

/// Next position of every tag under the seeded walk: a kWalkStepM step in a
/// random direction, kept when it stays on the floor, within kHomeRadiusM of
/// the tag's home and clear of the gateways.
std::vector<rfsim::Point> walk(const Floor& floor, Rng& rng) {
  const net::Network& network = *floor.network;
  const double hw = network.floor().width / 2.0;
  const double hh = network.floor().height / 2.0;
  std::vector<rfsim::Point> next;
  for (std::size_t t = 0; t < network.tag_count(); ++t) {
    const auto p = network.tag(t);
    const double angle = rng.phase();
    const rfsim::Point q{p.x + kWalkStepM * std::cos(angle),
                         p.y + kWalkStepM * std::sin(angle)};
    const bool keep = std::abs(q.x) <= hw && std::abs(q.y) <= hh &&
                      rfsim::distance(q, floor.homes[t]) <= kHomeRadiusM &&
                      clear_of_gateways(network, q);
    next.push_back(keep ? q : p);
  }
  return next;
}

void move_tags(net::Network& network, const std::vector<rfsim::Point>& next) {
  for (std::size_t t = 0; t < next.size(); ++t) network.move_tag(t, next[t]);
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return point_seed(seed, 100 + round);
}

/// Traced-run extras of one floor round.
struct FloorTrace {
  std::vector<double> max_ms, imbalance, overhead_frac;
  double rounds = 0, round_ns = 0, roam_ns = 0, rebuilds = 0, roamed = 0;
  double served = 0, total = 0, allocs = 0;
};

Outcome run_floor_rounds(const Options& opt) {
  Outcome out;
  Floor floor;
  Rng walker(0);
  std::uint64_t round = 0;
  const auto setup_s = setup_times_s([&](std::size_t) {
    floor = make_floor();
    walker = Rng(point_seed(opt.seed, 2));
    round = 0;
    move_tags(*floor.network, walk(floor, walker));
    floor.network->run_round(round_seed(opt.seed, round++), 1);  // builds every cell
  });
  net::Network* network = floor.network.get();

  // Twin networks from one seed must agree at 1 and 2 workers.
  {
    const Floor one = make_floor();
    const Floor two = make_floor();
    Rng walk_one(point_seed(opt.seed, 2));
    Rng walk_two(point_seed(opt.seed, 2));
    for (std::uint64_t r = 0; r < kTwinRounds; ++r) {
      move_tags(*one.network, walk(one, walk_one));
      move_tags(*two.network, walk(two, walk_two));
      check(out, compare_rounds(one.network->run_round(round_seed(opt.seed, r), 1),
                                two.network->run_round(round_seed(opt.seed, r), 2)));
    }
  }

  const std::size_t cells = network->cell_count();
  std::size_t window = 0;  // samples per cell packet (all cells share the framing)
  for (std::size_t c = 0; c < cells && window == 0; ++c) {
    if (const auto* system = network->cell(c).system()) {
      core::TransmitScratch probe;
      Rng rng(point_seed(opt.seed, 3));
      system->transmit({}, rng, probe);
      window = probe.iq.size();
    }
  }

  FloorTrace ft;
  PacketSums sums;
  Rng replay_rng(point_seed(opt.seed, 4));

  bool tracing = false;
  auto phase = [&](double seconds, std::size_t min_ops, Ops& ops) {
    run_for(seconds, min_ops, [&] {
      const auto next = walk(floor, walker);
      const std::uint64_t seed = round_seed(opt.seed, round++);
      std::vector<std::vector<std::size_t>> before;
      if (tracing) {
        for (std::size_t c = 0; c < cells; ++c) before.push_back(network->cell(c).members());
      }
      net::NetworkRoundResult result;
      double ns = 0.0;
      std::uint64_t allocs = 0;
      {
        std::optional<alloc::Scope> counting;
        if (tracing) counting.emplace();
        const Stopwatch sw;
        move_tags(*network, next);
        result = network->run_round(seed, 1);
        ns = sw.ns();
        if (counting) allocs = counting->count();
      }
      check(out, check_floor_round(result, cells, kFloorTags,
                                   network->config().packets_per_round));
      std::size_t live_cells = 0;
      for (const auto& cell : result.cells) {
        live_cells += cell.tags_served > 0 ? 1 : 0;
        ops.frames += cell.stats.total_sent();
        ops.frames_ok += cell.stats.total_acked();
      }
      ops.latency_ns.push_back(ns);
      ops.busy_ns.push_back(ns);
      ops.samples.push_back(static_cast<double>(window * live_cells));
      if (!tracing) return;

      ft.rounds += 1;
      ft.round_ns += ns;
      ft.allocs += static_cast<double>(allocs);
      ft.roamed += static_cast<double>(result.roamed);
      ft.served += static_cast<double>(result.tags_served);
      ft.total += static_cast<double>(result.tags_total);
      for (std::size_t c = 0; c < cells; ++c) {
        const auto& members = network->cell(c).members();
        ft.rebuilds += (members != before[c] && !members.empty()) ? 1 : 0;
      }
      // The round's own pass already roamed every tag that qualified, so
      // this replay times the same evaluation and must move nobody.
      {
        const Stopwatch sw;
        const std::size_t moved = network->roam();
        ft.roam_ns += sw.ns();
        check(out, moved == 0 ? std::string{} : "roam replay moved tags");
      }
      std::vector<double> cell_ms;
      for (std::size_t c = 0; c < cells; ++c) {
        const net::Cell& cell = network->cell(c);
        const core::CbmaSystem* system = cell.system();
        if (system == nullptr || cell.served() == 0) continue;
        Rng rng(point_seed(seed, c));
        const Stopwatch sw;
        const auto replay = cell.run_round(network->config().scheme,
                                           network->config().packets_per_round,
                                           network->config().fsa, rng);
        cell_ms.push_back(sw.ns() * 1e-6);
        check(out, replay.stats.sent == result.cells[c].stats.sent &&
                           replay.stats.acked == result.cells[c].stats.acked
                       ? std::string{}
                       : "cell round replay disagrees with the network round");

        // The cell's packet on a fresh scratch, as run_packets gives it,
        // then the same packet again on that now-warm scratch: the
        // difference is what allocating and first touching the scratch
        // costs every cell round.
        core::TransmitScratch scratch;
        rx::RxReport report;
        {
          Rng packet_rng(point_seed(seed, c));
          const alloc::Scope counting;
          const Stopwatch psw;
          report = system->transmit({}, packet_rng, scratch);
          sums.transmit += psw.ns();
          sums.fresh_transmit += psw.ns();
          sums.allocs += static_cast<double>(counting.count());
        }
        {
          Rng packet_rng(point_seed(seed, c));
          const Stopwatch psw;
          system->transmit({}, packet_rng, scratch);
          sums.warm_transmit += psw.ns();
        }
        sums.packets += 1;
        sums.note_report(report);
        // The layers are timed on a tracer whose buffers one untimed replay
        // has sized; it is gone before the next round, which so starts from
        // the same heap as an untraced round.
        PacketTracer tracer(*system, system->receiver());
        PacketSums warm_up;
        tracer.replay(scratch, replay_rng, warm_up);
        tracer.replay(scratch, replay_rng, sums);
      }
      const double sum_ms = std::accumulate(cell_ms.begin(), cell_ms.end(), 0.0);
      const double max_ms = cell_ms.empty() ? 0.0 : *std::max_element(cell_ms.begin(), cell_ms.end());
      sums.cell_ms.insert(sums.cell_ms.end(), cell_ms.begin(), cell_ms.end());
      ft.max_ms.push_back(max_ms);
      ft.imbalance.push_back(cell_ms.empty() ? 1.0 : max_ms / mean(cell_ms));
      ft.overhead_frac.push_back((ns * 1e-6 - sum_ms) / (ns * 1e-6));
    });
  };

  if (!opt.trace) {
    Ops ops;
    phase(opt.seconds, kMinOps, ops);
    report_end_to_end(out, setup_s, ops);
    return out;
  }

  Ops baseline, traced;
  phase(opt.seconds * kBaselineShare, kMinTracedOps, baseline);
  tracing = true;
  phase(opt.seconds * (1.0 - kBaselineShare), kMinTracedOps, traced);

  Values layers;
  sums.into(layers, true);
  const double rounds = std::max(ft.rounds, 1.0);
  layers["net.roam_frac"] = ft.roam_ns / ft.round_ns;
  layers["net.cell_round_ms_max"] = median(ft.max_ms);
  layers["net.cell_imbalance"] = median(ft.imbalance);
  layers["net.overhead_frac"] = median(ft.overhead_frac);
  layers["net.rebuilds_per_round"] = ft.rebuilds / rounds;
  layers["net.roamed_per_round"] = ft.roamed / rounds;
  layers["net.served_frac"] = ft.total > 0 ? ft.served / ft.total : 0.0;
  layers["net.allocs_per_round"] = ft.allocs / rounds;
  for (std::size_t c = 0; c < cells; ++c) {
    if (const auto* system = network->cell(c).system()) {
      layers["core.system_build_us"] = system_build_us(system->config(), system->population());
      break;
    }
  }
  const double fresh_scratch = sums.fresh_transmit - sums.warm_transmit;
  layers["layer.coverage"] =
      (ft.roam_ns + fresh_scratch + sums.spread + sums.synth + sums.process) / ft.round_ns;
  layers["trace.overhead"] = traced.median_rate() / baseline.median_rate();
  report(out, kPerLayer, layers);
  return out;
}

// --- rx_stream ---------------------------------------------------------------

constexpr std::size_t kStreamTags = 4;
constexpr std::size_t kStreamWindows = 48;

/// The stream fed to the receiver, synthesized once at set-up: each 4-tag
/// collided window is followed by an equally long stretch of receiver noise.
struct StreamInput {
  std::unique_ptr<core::CbmaSystem> synth;
  std::unique_ptr<rx::Receiver> receiver;
  std::vector<std::complex<double>> iq;
  std::vector<std::size_t> starts;  ///< window starts, then iq.size()
  std::vector<std::vector<std::vector<std::uint8_t>>> sent;  ///< [window][code]
};

std::unique_ptr<StreamInput> make_stream_input(std::uint64_t seed) {
  auto in = std::make_unique<StreamInput>();
  core::SystemConfig cfg;
  cfg.max_tags = kStreamTags;
  in->synth = std::make_unique<core::CbmaSystem>(cfg, paper_deployment(kStreamTags));
  const auto& sc = in->synth->config();
  rx::ReceiverConfig rc;
  rc.sync = sc.sync;
  rc.detect = sc.detect;
  rc.samples_per_chip = sc.samples_per_chip;
  rc.preamble_bits = sc.preamble_bits;
  rc.phase_tracking_gain = sc.phase_tracking_gain;
  // The payload size is known, so the lookahead is bounded by it
  // (DESIGN.md §10); with the format limit a detection window outlasts
  // the gap and most windows go unreported.
  rc.max_payload_bytes = sc.payload_bytes;
  in->receiver = std::make_unique<rx::Receiver>(rc, in->synth->group_codes());

  Rng rng(point_seed(seed, 5));
  Rng payload_rng(point_seed(seed, 6));
  std::vector<std::vector<std::uint8_t>> payloads(
      kStreamTags, std::vector<std::uint8_t>(sc.payload_bytes));
  core::TransmitOptions options;
  options.payloads = payloads;
  core::TransmitScratch scratch;
  const rfsim::AwgnSource noise(in->synth->noise_power_w());
  std::vector<std::complex<double>> gap;
  for (std::size_t w = 0; w < kStreamWindows; ++w) {
    random_payloads(payloads, payload_rng);
    in->sent.push_back(payloads);
    in->starts.push_back(in->iq.size());
    in->synth->transmit(options, rng, scratch);
    // Windows differ in length by at most a chip of jitter; reserving once
    // keeps the vector's regrowth out of set-up time and peak RSS.
    if (w == 0) in->iq.reserve(2 * kStreamWindows * (scratch.iq.size() + 64));
    in->iq.insert(in->iq.end(), scratch.iq.begin(), scratch.iq.end());
    gap.assign(scratch.iq.size(), {0.0, 0.0});
    noise.add_to(gap, rng);
    in->iq.insert(in->iq.end(), gap.begin(), gap.end());
  }
  in->starts.push_back(in->iq.size());
  return in;
}

Outcome run_rx_stream(const Options& opt) {
  Outcome out;
  std::unique_ptr<StreamInput> input;
  const auto setup_s = setup_times_s([&](std::size_t) {
    input.reset();
    input = make_stream_input(opt.seed);
  });
  const StreamInput& in = *input;
  const std::uint64_t length = in.iq.size();

  std::vector<rx::RxReport> emitted;
  emitted.reserve(8);
  rx::StreamingReceiver session(*in.receiver,
                                [&](rx::RxReport r) { emitted.push_back(std::move(r)); });

  // Reports are matched to windows by their sync trigger, so a report that
  // completes during the next window's feeds still lands on its own window.
  struct Pending {
    std::size_t reports = 0;
    WindowDigest digest;
  };
  std::map<std::uint64_t, Pending> pending;  // global window index → reports
  std::vector<WindowDigest> first_pass(kStreamWindows);
  std::uint64_t fed = 0;  // windows fed so far, over every pass

  std::unique_ptr<PacketTracer> tracer;
  PacketSums sums;
  std::vector<double> chunk_ns;
  double chunk_allocs = 0;
  core::TransmitScratch replay_scratch;
  Rng replay_rng(point_seed(opt.seed, 7));

  auto settle = [&](std::uint64_t g, Ops& ops) {
    const auto it = pending.find(g);
    const Pending got = it == pending.end() ? Pending{} : it->second;
    if (it != pending.end()) pending.erase(it);
    const std::size_t w = g % kStreamWindows;
    const bool first = g < kStreamWindows;
    const std::string why =
        check_stream_window(got.reports, got.digest, first ? nullptr : &first_pass[w]);
    check(out, why.empty() ? why
                           : "window " + std::to_string(w) + " of pass " +
                                 std::to_string(g / kStreamWindows + 1) + ": " + why);
    if (first) first_pass[w] = got.digest;
    ops.false_accepts += false_accepts(got.digest, in.sent[w]);
    ops.frames += kStreamTags;
    for (const int o : got.digest.outcomes) {
      ops.frames_ok += o == static_cast<int>(rx::DecodeOutcome::kOk) ? 1 : 0;
    }
  };

  auto phase = [&](double seconds, std::size_t min_ops, Ops& ops) {
    run_for(seconds, min_ops, [&] {
      const std::size_t w = fed % kStreamWindows;
      const std::size_t begin = in.starts[w];
      const std::size_t end = in.starts[w + 1];
      double busy = 0.0;
      for (std::size_t off = begin; off < end; off += kChunkSamples) {
        const std::span<const std::complex<double>> chunk(
            in.iq.data() + off, std::min(kChunkSamples, end - off));
        const std::size_t before = emitted.size();
        double ns = 0.0;
        std::uint64_t allocs = 0;
        {
          std::optional<alloc::Scope> counting;
          if (tracer) counting.emplace();
          const Stopwatch sw;
          session.feed(chunk);
          ns = sw.ns();
          if (counting) allocs = counting->count();
        }
        busy += ns;
        if (emitted.size() > before) {
          ops.latency_ns.push_back(ns);
        } else if (tracer) {
          chunk_ns.push_back(ns);
          chunk_allocs += static_cast<double>(allocs);
        }
      }
      ops.busy_ns.push_back(busy);
      ops.samples.push_back(static_cast<double>(end - begin));

      for (const auto& report : emitted) {
        if (!report.frame_start) {
          check(out, "report without a sync trigger");
          continue;
        }
        const std::uint64_t pos = *report.frame_start;
        const std::uint64_t pass = pos / length;
        const auto rel = static_cast<std::size_t>(pos % length);
        const auto idx = static_cast<std::size_t>(
            std::upper_bound(in.starts.begin(), in.starts.end() - 1, rel) -
            in.starts.begin() - 1);
        const std::uint64_t g = pass * kStreamWindows + idx;
        if (g + 1 < fed) {  // its window was already settled
          check(out, "report arrived after its window was settled");
          continue;
        }
        auto& p = pending[g];
        ++p.reports;
        p.digest = digest(report, pass * length + in.starts[idx]);
        if (tracer) sums.note_report(report);
      }
      emitted.clear();
      if (fed > 0) settle(fed - 1, ops);
      ++fed;

      if (!tracer) return;
      // rfsim/phy/core cost of one window like the ones synthesized at
      // set-up, and the rx stages on it.
      Rng rng(point_seed(opt.seed, 1000 + fed));
      {
        const alloc::Scope counting;
        const Stopwatch sw;
        in.synth->transmit({}, rng, replay_scratch);
        sums.transmit += sw.ns();
        sums.allocs += static_cast<double>(counting.count());
      }
      sums.packets += 1;
      tracer->replay(replay_scratch, replay_rng, sums);
      time_scratch_and_round(*in.synth, {}, point_seed(opt.seed, 2000000 + fed), replay_scratch,
                             sums);
    });
  };

  if (!opt.trace) {
    Ops ops;
    phase(opt.seconds, kMinOps, ops);
    report_end_to_end(out, setup_s, ops);
    return out;
  }

  Ops baseline, traced;
  phase(opt.seconds * kBaselineShare, kMinTracedOps, baseline);
  tracer = std::make_unique<PacketTracer>(*in.synth, *in.receiver);
  phase(opt.seconds * (1.0 - kBaselineShare), kMinTracedOps, traced);

  Values layers;
  sums.into(layers, false);
  single_cell(layers, sums);
  layers["rx.chunk_us_p50"] = median(chunk_ns) * 1e-3;
  layers["rx.allocs_per_chunk"] =
      chunk_ns.empty() ? 0.0 : chunk_allocs / static_cast<double>(chunk_ns.size());
  layers["rx.resident_kb"] = static_cast<double>(session.resident_bytes()) / 1024.0;
  layers["rx.ring_kb"] = static_cast<double>(session.ring_bytes()) / 1024.0;
  layers["core.system_build_us"] =
      system_build_us(in.synth->config(), in.synth->population());
  // A feed pushes every sample through frame sync and runs detection and
  // decoding once per report.
  const double feed_ns = std::accumulate(traced.busy_ns.begin(), traced.busy_ns.end(), 0.0);
  const double fed_samples = std::accumulate(traced.samples.begin(), traced.samples.end(), 0.0);
  const double per_packet = std::max(sums.packets, 1.0);
  layers["layer.coverage"] =
      (fed_samples * layers["rx.sync_ns_per_sample"] +
       sums.reports * (sums.detect + sums.decode) / per_packet) /
      feed_ns;
  layers["trace.overhead"] = traced.median_rate() / baseline.median_rate();
  report(out, kPerLayer, layers);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"cell_packets", "floor_rounds", "rx_stream"};
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& d : kEndToEnd) v.emplace_back(d.name);
    return v;
  }();
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& d : kPerLayer) v.emplace_back(d.name);
    return v;
  }();
  return names;
}

Outcome run_workload(const Options& options) {
  if (options.workload == "cell_packets") return run_cell_packets(options);
  if (options.workload == "floor_rounds") return run_floor_rounds(options);
  if (options.workload == "rx_stream") return run_rx_stream(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfledger
