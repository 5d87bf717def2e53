// Micro-benchmarks (google-benchmark) of the hot kernels: spreading,
// sliding complex correlation, channel synthesis, frame decode, and the
// full end-to-end collided round on both the legacy (allocating) and the
// batched (scratch-reusing) transmit paths. These bound the simulator's
// packets/second and document where the cycles go.
//
// Besides the console table, the run writes BENCH_kernels.json (google
// benchmark's JSON schema) next to the working directory so tooling and CI
// can track the ns/packet counters without scraping stdout. Pass
// --benchmark_out=... to redirect it.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/system.h"
#include "net/network.h"
#include "phy/spreader.h"
#include "pn/correlation.h"
#include "rfsim/channel.h"
#include "rx/correlation_engine.h"
#include "rx/decoder.h"
#include "util/obs.h"
#include "util/timer.h"

namespace {

using namespace cbma;

/// Attach a "ns_per_packet" counter: wall nanoseconds per processed item,
/// the figure DESIGN.md §4.7 quotes (items = packets for the end-to-end
/// benches, chips/lags for the kernels).
void set_rate_counters(benchmark::State& state, std::int64_t items_per_iter) {
  state.counters["ns_per_packet"] = benchmark::Counter(
      static_cast<double>(items_per_iter) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

/// Shared epilogue for the rate-counted benches: items-processed bookkeeping
/// plus the ns_per_packet counter (previously copy-pasted per bench).
void finish_rate(benchmark::State& state, std::int64_t items_per_iter) {
  state.SetItemsProcessed(state.iterations() * items_per_iter);
  set_rate_counters(state, 1);
}

void BM_Spread(benchmark::State& state) {
  const auto code = pn::make_code_set(pn::CodeFamily::kTwoNC, 10, 20)[0];
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = i & 1;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    phy::spread_into(bits, code, out);
    benchmark::DoNotOptimize(out.data());
  }
  finish_rate(state, state.range(0));
}
BENCHMARK(BM_Spread)->Arg(112)->Arg(1024);

void BM_GoldFamilyConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(pn::make_code_set(pn::CodeFamily::kGold, 10, 31));
  }
}
BENCHMARK(BM_GoldFamilyConstruction);

void BM_SlidingComplexPeak(benchmark::State& state) {
  Rng rng(1);
  const auto code = pn::make_code_set(pn::CodeFamily::kTwoNC, 10, 20)[0];
  const auto tmpl = pn::mean_removed_template(code, 4);
  std::vector<std::complex<double>> signal(8192);
  for (auto& s : signal) s = {rng.gaussian(), rng.gaussian()};
  const auto lags = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pn::sliding_complex_peak(signal, tmpl, 0, lags));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlidingComplexPeak)->Arg(64)->Arg(256);

/// The split-kernel variant the receiver actually runs: the window is
/// deinterleaved once outside the timed region (as process_iq does per
/// packet), and the peak search streams the contiguous re/im arrays.
void BM_SlidingComplexPeakSplit(benchmark::State& state) {
  Rng rng(1);
  const auto code = pn::make_code_set(pn::CodeFamily::kTwoNC, 10, 20)[0];
  const auto tmpl = pn::mean_removed_template(code, 4);
  std::vector<std::complex<double>> signal(8192);
  for (auto& s : signal) s = {rng.gaussian(), rng.gaussian()};
  std::vector<double> re, im;
  pn::split_iq(signal, re, im);
  const auto lags = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pn::sliding_complex_peak(re, im, tmpl, 0, lags));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlidingComplexPeakSplit)->Arg(64)->Arg(256);

void BM_ChannelSynthesis(benchmark::State& state) {
  Rng rng(2);
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = 4;
  cc.chip_rate_hz = 32e6;
  cc.noise_power_w = 1e-9;
  const rfsim::Channel channel(cc);
  const std::vector<std::uint8_t> chips(3584, 1);  // a 112-bit frame at L=32
  std::vector<rfsim::TagTransmission> txs(static_cast<std::size_t>(state.range(0)));
  for (auto& tx : txs) {
    tx.chips = chips;
    tx.amplitude = 1e-6;
    tx.delay_chips = 8.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.receive(txs, rng));
  }
  finish_rate(state, static_cast<std::int64_t>(chips.size()) * state.range(0));
}
BENCHMARK(BM_ChannelSynthesis)->Arg(2)->Arg(10);

/// Channel synthesis into caller-owned buffers — the batched pipeline's
/// zero-allocation path (window, envelope and waveform capacity all reused).
void BM_ChannelSynthesisScratch(benchmark::State& state) {
  Rng rng(2);
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = 4;
  cc.chip_rate_hz = 32e6;
  cc.noise_power_w = 1e-9;
  const rfsim::Channel channel(cc);
  const std::vector<std::uint8_t> chips(3584, 1);
  std::vector<rfsim::TagTransmission> txs(static_cast<std::size_t>(state.range(0)));
  for (auto& tx : txs) {
    tx.chips = chips;
    tx.amplitude = 1e-6;
    tx.delay_chips = 8.0;
  }
  const rfsim::ContinuousTone tone;
  rfsim::ChannelScratch scratch;
  std::vector<std::complex<double>> iq;
  for (auto _ : state) {
    channel.receive_into(txs, tone, {}, rng, scratch, iq);
    benchmark::DoNotOptimize(iq.data());
  }
  finish_rate(state, static_cast<std::int64_t>(chips.size()) * state.range(0));
}
BENCHMARK(BM_ChannelSynthesisScratch)->Arg(2)->Arg(10);

void BM_DecodeFrame(benchmark::State& state) {
  Rng rng(3);
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, 10, 20);
  phy::TagConfig tc;
  tc.id = 0;
  tc.code = codes[0];
  const phy::Tag tag(tc);
  const std::vector<std::uint8_t> payload(8, 0x5A);
  const auto chips = tag.chip_sequence(payload);
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = 4;
  cc.chip_rate_hz = 32e6;
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.delay_chips = 8.0;
  const auto iq = rfsim::Channel(cc).receive(std::span(&tx, 1), rng);
  const rx::Decoder decoder(codes[0], 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(iq, 32, 0.0));
  }
}
BENCHMARK(BM_DecodeFrame);

/// Per-packet-allocating entry point: transmit(options, rng) builds a fresh
/// TransmitScratch each packet. Kept as the before/after reference for the
/// batched path — the allocation cost is the point here.
void BM_EndToEndRound(benchmark::State& state) {
  core::SystemConfig cfg;
  cfg.max_tags = static_cast<std::size_t>(state.range(0));
  auto dep = rfsim::Deployment::paper_frame();
  for (int k = 0; k < state.range(0); ++k) {
    dep.add_tag({0.1 * k, 0.6});
  }
  const core::CbmaSystem sys(cfg, dep);
  Rng rng(4);
  const core::TransmitOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.transmit(options, rng));
  }
  finish_rate(state, state.range(0));
}
BENCHMARK(BM_EndToEndRound)->Arg(2)->Arg(5)->Arg(10);

/// The batched pipeline: transmit(options, rng, scratch) with one scratch
/// reused across packets — what run_packets and the experiment sweeps run.
/// ns_per_packet here is the repo's headline per-packet figure.
void BM_EndToEndBatched(benchmark::State& state) {
  core::SystemConfig cfg;
  cfg.max_tags = static_cast<std::size_t>(state.range(0));
  auto dep = rfsim::Deployment::paper_frame();
  for (int k = 0; k < state.range(0); ++k) {
    dep.add_tag({0.1 * k, 0.6});
  }
  const core::CbmaSystem sys(cfg, dep);
  Rng rng(4);
  const core::TransmitOptions options;
  core::TransmitScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.transmit(options, rng, scratch));
  }
  finish_rate(state, state.range(0));
}
BENCHMARK(BM_EndToEndBatched)->Arg(2)->Arg(5)->Arg(10);

/// Same batched pipeline, but timed manually on util::monotonic_ns — the
/// single clock every span timer and bench shares (DESIGN.md §7). Each
/// iteration is also a bench/iteration telemetry span, so a CBMA_TELEMETRY=1
/// run can cross-check google-benchmark's wall time against the in-pipeline
/// span percentiles, and a CBMA_TRACE run shows the iterations on the
/// timeline. Disabled telemetry costs one relaxed atomic load per iteration.
void BM_EndToEndBatchedManualClock(benchmark::State& state) {
  core::SystemConfig cfg;
  cfg.max_tags = static_cast<std::size_t>(state.range(0));
  auto dep = rfsim::Deployment::paper_frame();
  for (int k = 0; k < state.range(0); ++k) {
    dep.add_tag({0.1 * k, 0.6});
  }
  const core::CbmaSystem sys(cfg, dep);
  Rng rng(4);
  const core::TransmitOptions options;
  core::TransmitScratch scratch;
  for (auto _ : state) {
    const std::uint64_t begin_ns = util::monotonic_ns();
    {
      const telemetry::ScopedSpan span(telemetry::Span::kBenchIteration);
      benchmark::DoNotOptimize(sys.transmit(options, rng, scratch));
    }
    state.SetIterationTime(
        static_cast<double>(util::monotonic_ns() - begin_ns) * 1e-9);
  }
  finish_rate(state, state.range(0));
}
BENCHMARK(BM_EndToEndBatchedManualClock)->Arg(5)->UseManualTime();

/// The chunked streaming receiver on a continuous stream of Arg(0) decodable
/// rounds (round + noise gap, fed in 4096-sample chunks through one warm
/// session). Two counters feed the CI gates: ns_per_sample is the
/// steady-state ingest cost, and rx_ring_bytes is the resident ring
/// footprint — which must be identical between the 1x and 10x stream
/// lengths, the O(window) memory claim of DESIGN.md §9
/// (check_perf_regression.py --ring-flat).
void BM_StreamingRx(benchmark::State& state) {
  rx::ReceiverConfig cfg;
  cfg.samples_per_chip = 4;
  cfg.preamble_bits = 8;
  cfg.max_payload_bytes = 4;  // tight lookahead: rounds finalize back to back
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, 2, 20);
  const rx::Receiver receiver(cfg, codes);

  Rng rng(5);
  phy::TagConfig tc;
  tc.id = 0;
  tc.code = codes[0];
  tc.preamble_bits = 8;
  const std::vector<std::uint8_t> payload{0x5A, 0xC3, 0x3C};
  const auto chips = phy::Tag(tc).chip_sequence(payload);
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = 4;
  cc.chip_rate_hz = 32e6;
  cc.noise_power_w = 1e-4;
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = rng.phase();
  tx.delay_chips = 64.0;
  auto unit = rfsim::Channel(cc).receive(std::span(&tx, 1), rng);
  std::vector<std::complex<double>> gap(3000, {0.0, 0.0});
  rfsim::AwgnSource(1e-4).add_to(gap, rng);
  unit.insert(unit.end(), gap.begin(), gap.end());

  std::vector<std::complex<double>> stream;
  for (std::int64_t k = 0; k < state.range(0); ++k) {
    stream.insert(stream.end(), unit.begin(), unit.end());
  }

  std::uint64_t decoded = 0;
  rx::StreamingReceiver session(
      receiver, [&](rx::RxReport r) { decoded += r.decoded_count(); });
  const std::span<const std::complex<double>> samples(stream);
  for (auto _ : state) {
    session.reset();
    for (std::size_t off = 0; off < samples.size(); off += 4096) {
      session.feed(samples.subspan(
          off, std::min<std::size_t>(4096, samples.size() - off)));
    }
    session.flush();
  }
  benchmark::DoNotOptimize(decoded);
  state.counters["rx_ring_bytes"] =
      static_cast<double>(session.ring_bytes());
  state.counters["ns_per_sample"] = benchmark::Counter(
      static_cast<double>(samples.size()) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_StreamingRx)->Arg(1)->Arg(10);

// --- detection correlation engines (DESIGN.md §8) --------------------------
//
// One batched peaks() call — every code of the family over one anchor
// window — per iteration, the unit UserDetector pays once per detection
// round. The three registrations share a (K codes, L chips/bit, W lags)
// grid so tools/check_perf_regression.py --crossover can reconstruct the
// naive-vs-FFT crossover curves and verify the auto engine's cost model
// picks the faster side wherever the gap is decisive. ns_per_packet here is
// ns per peaks() batch.

constexpr std::size_t kDetectSpc = 4;
constexpr std::size_t kDetectPreambleBits = 8;

void run_detect_peaks(benchmark::State& state, rx::DetectEngine kind) {
  const auto n_codes = static_cast<std::size_t>(state.range(0));
  const auto code_len = static_cast<std::size_t>(state.range(1));
  const auto lags = static_cast<std::size_t>(state.range(2));
  Rng rng(5);
  // Synthetic bipolar chip templates of the detector's shape (preamble bits
  // × code length); timing does not depend on the code family.
  std::vector<std::vector<double>> tmpls(n_codes);
  for (auto& t : tmpls) {
    t.resize(kDetectPreambleBits * code_len);
    for (auto& v : t) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
  }
  const std::size_t n = tmpls.front().size() * kDetectSpc;
  std::vector<double> re(n + lags), im(n + lags);
  for (std::size_t i = 0; i < re.size(); ++i) {
    rng.gaussian_pair(re[i], im[i]);
  }
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, kDetectSpc, fold_re);
  pn::fold_chip_sums(im, kDetectSpc, fold_im);
  const auto engine = rx::make_correlation_engine(kind, tmpls, kDetectSpc, lags);
  const auto scratch = engine->make_scratch();
  std::vector<std::size_t> code_idx(n_codes);
  for (std::size_t i = 0; i < n_codes; ++i) code_idx[i] = i;
  std::vector<pn::ComplexCorrelationPeak> peaks(n_codes);
  const rx::CorrelationWindow window{re, im, fold_re, fold_im, kDetectSpc};
  for (auto _ : state) {
    engine->peaks(window, code_idx, 0, lags, peaks, *scratch);
    benchmark::DoNotOptimize(peaks.data());
  }
  finish_rate(state, 1);
}

void BM_DetectPeaksNaive(benchmark::State& state) {
  run_detect_peaks(state, rx::DetectEngine::kNaive);
}
void BM_DetectPeaksFft(benchmark::State& state) {
  run_detect_peaks(state, rx::DetectEngine::kFft);
}
void BM_DetectPeaksAuto(benchmark::State& state) {
  run_detect_peaks(state, rx::DetectEngine::kAuto);
}

void detect_peaks_grid(benchmark::internal::Benchmark* b) {
  for (const std::int64_t k : {4, 16, 64}) {
    for (const std::int64_t l : {32, 128}) {
      for (const std::int64_t w : {64, 512}) {
        b->Args({k, l, w});
      }
    }
  }
}
BENCHMARK(BM_DetectPeaksNaive)->Apply(detect_peaks_grid);
BENCHMARK(BM_DetectPeaksFft)->Apply(detect_peaks_grid);
BENCHMARK(BM_DetectPeaksAuto)->Apply(detect_peaks_grid);

/// One multi-cell network round on an Arg(0) x Arg(0) gateway grid with 4
/// tags per cell: association/roaming, per-cell CBMA MAC (one packet per
/// cell round to isolate the network layer's overhead around the
/// per-packet pipeline), inter-cell leakage summation. Runs the cells on
/// one worker so the figure is a stable single-thread cost; ns_per_round
/// is per *cell* round — the entry tools/perf_baseline.json gates.
void BM_NetMulticellRound(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  net::NetworkConfig cfg;
  cfg.cell.code_family = pn::CodeFamily::kGold;
  cfg.cell.max_tags = 4;
  cfg.cell.tx_power_dbm = 30.0;
  cfg.reuse.family_size = 64;
  cfg.packets_per_round = 1;
  auto network = net::Network::grid(cfg, 6.0 * static_cast<double>(side),
                                    4.0 * static_cast<double>(side), side, side);
  Rng rng(6);
  network.place_random_tags(side * side * 4, rng);
  network.run_round(7, /*max_workers=*/1);  // warm-up: builds every cell
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.run_round(7, /*max_workers=*/1));
  }
  const auto cells = static_cast<std::int64_t>(side * side);
  state.counters["ns_per_round"] = benchmark::Counter(
      static_cast<double>(cells) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_NetMulticellRound)->Arg(2);

/// BM_NetMulticellRound with the metrics plane live: identical workload
/// plus per-round sampling into the in-memory windowed store (no
/// Prometheus file — the export path stays empty so the figure measures
/// sampling, not filesystem I/O). check_perf_regression.py
/// --metrics-overhead gates this against the metrics-off twin at +2%
/// ns_per_round. Metrics on also records spans and counters (the plane
/// samples them), so this measures that recording too.
void BM_NetMulticellRoundMetrics(benchmark::State& state) {
  const bool metrics_was_on = metrics::enabled();
  const std::string saved_path = obs::path(obs::kMetrics);
  obs::set_path(obs::kMetrics, "");
  obs::set(obs::kMetrics, true);
  obs::reset();

  const auto side = static_cast<std::size_t>(state.range(0));
  net::NetworkConfig cfg;
  cfg.cell.code_family = pn::CodeFamily::kGold;
  cfg.cell.max_tags = 4;
  cfg.cell.tx_power_dbm = 30.0;
  cfg.reuse.family_size = 64;
  cfg.packets_per_round = 1;
  auto network = net::Network::grid(cfg, 6.0 * static_cast<double>(side),
                                    4.0 * static_cast<double>(side), side, side);
  Rng rng(6);
  network.place_random_tags(side * side * 4, rng);
  network.run_round(7, /*max_workers=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.run_round(7, /*max_workers=*/1));
  }
  const auto cells = static_cast<std::int64_t>(side * side);
  state.counters["ns_per_round"] = benchmark::Counter(
      static_cast<double>(cells) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() * cells);

  obs::reset();
  obs::set_path(obs::kMetrics, saved_path);
  obs::set(obs::kMetrics, metrics_was_on);
}
BENCHMARK(BM_NetMulticellRoundMetrics)->Arg(2);

/// BM_NetMulticellRound with the hierarchical profiler live: identical
/// workload plus span-tree attribution and parallel_for busy/idle
/// measurement into the in-memory node pools (no collapsed-stack file —
/// the export path is untouched so the figure measures recording, not
/// filesystem I/O). check_perf_regression.py --profile-overhead gates
/// this against the profiler-off twin at +2% ns_per_round.
void BM_NetMulticellRoundProfile(benchmark::State& state) {
  const bool profiler_was_on = profiler::enabled();
  obs::set(obs::kProfile, true);
  obs::reset();

  const auto side = static_cast<std::size_t>(state.range(0));
  net::NetworkConfig cfg;
  cfg.cell.code_family = pn::CodeFamily::kGold;
  cfg.cell.max_tags = 4;
  cfg.cell.tx_power_dbm = 30.0;
  cfg.reuse.family_size = 64;
  cfg.packets_per_round = 1;
  auto network = net::Network::grid(cfg, 6.0 * static_cast<double>(side),
                                    4.0 * static_cast<double>(side), side, side);
  Rng rng(6);
  network.place_random_tags(side * side * 4, rng);
  network.run_round(7, /*max_workers=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.run_round(7, /*max_workers=*/1));
  }
  const auto cells = static_cast<std::int64_t>(side * side);
  state.counters["ns_per_round"] = benchmark::Counter(
      static_cast<double>(cells) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() * cells);

  obs::reset();
  obs::set(obs::kProfile, profiler_was_on);
}
BENCHMARK(BM_NetMulticellRoundProfile)->Arg(2);

}  // namespace

// Custom main: always emit machine-readable results alongside the console
// table by defaulting --benchmark_out to BENCH_kernels.json (an explicit
// --benchmark_out on the command line wins). Every other google-benchmark
// flag passes through untouched.
int main(int argc, char** argv) {
  bool has_out_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out_flag = true;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out_flag) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
