// Dual-path equivalence of the detector's peak search (DESIGN.md §8.3): the
// FFT path must reproduce the naive path's peaks — same winning offsets,
// bit-identical values/phases at those offsets (winners are re-scored with
// the exact folded dot) — across code length, family size, CFO and SNR, on
// random windows and on the detector's own anchor and group windows. Plus
// the size-based pick: wide batches take the FFT path, narrow ones the
// naive path, and the paper-default cell runs both.
#include "rx/correlation_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.h"
#include "phy/frame.h"
#include "phy/tag.h"
#include "pn/correlation.h"
#include "rfsim/channel.h"
#include "rx/user_detect.h"
#include "util/obs.h"
#include "util/rng.h"
#include "synthesize.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kPreambleBits = 8;

std::vector<std::vector<double>> random_chip_templates(std::size_t n_codes,
                                                       std::size_t chips,
                                                       Rng& rng) {
  std::vector<std::vector<double>> tmpls(n_codes);
  for (auto& t : tmpls) {
    t.resize(chips);
    for (auto& v : t) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
  }
  return tmpls;
}

/// The detector's chip-rate preamble template of one code: the per-period
/// mean-removed code, negated for '0' bits of the alternating preamble.
std::vector<double> chip_preamble(const pn::PnCode& code) {
  const auto bit_template = pn::mean_removed_template(code, 1);
  std::vector<double> tmpl;
  for (const auto bit : phy::alternating_preamble(kPreambleBits)) {
    for (const double v : bit_template) tmpl.push_back(bit ? v : -v);
  }
  return tmpl;
}

void expect_same_peaks(const pn::ComplexCorrelationPeak& naive,
                       const pn::ComplexCorrelationPeak& fft,
                       const std::string& context) {
  EXPECT_EQ(naive.offset, fft.offset) << context;
  // Winning offsets are re-scored with the exact folded dot, so agreement
  // on the offset implies bit-identical value and phase.
  EXPECT_EQ(naive.value, fft.value) << context;
  EXPECT_EQ(naive.phase, fft.phase) << context;
}

/// Current value of one telemetry counter (0 until first counted).
std::uint64_t counter(const std::string& name) {
  for (const auto& c : telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Both paths on random windows: every code, assorted search ranges
/// (aligned and unaligned to the chip grid, clamped, degenerate).
TEST(CorrelationEngine, FftMatchesNaiveOnRandomWindows) {
  Rng rng(11);
  for (const std::size_t spc : {1u, 4u}) {
    for (const std::size_t chips : {16u, 100u, 256u}) {
      for (const std::size_t n_codes : {1u, 3u, 8u}) {
        const PeakSearch search(random_chip_templates(n_codes, chips, rng),
                                spc, 128);
        const std::size_t n = chips * spc;
        std::vector<double> re(n + 300), im(n + 300);
        for (std::size_t i = 0; i < re.size(); ++i) {
          rng.gaussian_pair(re[i], im[i]);
        }
        std::vector<double> fold_re, fold_im;
        pn::fold_chip_sums(re, spc, fold_re);
        pn::fold_chip_sums(im, spc, fold_im);
        const CorrelationWindow window{re, im, fold_re, fold_im, spc};

        PeakSearch::Scratch scratch;
        std::vector<std::size_t> idx(n_codes);
        for (std::size_t i = 0; i < n_codes; ++i) idx[i] = i;
        std::vector<pn::ComplexCorrelationPeak> np(n_codes), fp(n_codes);

        const std::size_t max_off = re.size() - n + 1;
        const std::tuple<std::size_t, std::size_t, const char*> ranges[] = {
            {0, 301, "full window"},
            {7, 123, "unaligned begin"},
            {0, 1, "single lag"},
            {13, 14, "single unaligned lag"},
            {250, 100000, "end clamped"},
            {40, 40, "empty range"},
            {max_off + 50, max_off + 60, "begin past clamp"},
        };
        for (const auto& [begin, end, label] : ranges) {
          search.naive_peaks(window, idx, begin, end, np);
          search.fft_peaks(window, idx, begin, end, fp, scratch);
          for (std::size_t k = 0; k < n_codes; ++k) {
            expect_same_peaks(
                np[k], fp[k],
                std::string(label) + " spc=" + std::to_string(spc) +
                    " chips=" + std::to_string(chips) + " code=" +
                    std::to_string(k));
          }
        }
      }
    }
  }
}

TEST(CorrelationEngine, WindowShorterThanTemplateYieldsDefaults) {
  Rng rng(12);
  const std::size_t spc = 4;
  const PeakSearch search(random_chip_templates(2, 64, rng), spc, 64);
  std::vector<double> re(64 * spc - 1), im(re.size());  // one sample short
  for (std::size_t i = 0; i < re.size(); ++i) rng.gaussian_pair(re[i], im[i]);
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, spc, fold_re);
  pn::fold_chip_sums(im, spc, fold_im);
  const CorrelationWindow window{re, im, fold_re, fold_im, spc};
  PeakSearch::Scratch scratch;
  const std::vector<std::size_t> idx{0, 1};
  std::vector<pn::ComplexCorrelationPeak> naive(2), fft(2), picked(2);
  search.naive_peaks(window, idx, 0, 100, naive);
  search.fft_peaks(window, idx, 0, 100, fft, scratch);
  search.peaks(window, idx, 0, 100, picked, scratch);
  for (const auto* out : {&naive, &fft, &picked}) {
    for (const auto& p : *out) {
      EXPECT_EQ(p.offset, 0u);
      EXPECT_EQ(p.value, 0.0);
      EXPECT_EQ(p.phase, 0.0);
    }
  }
}

/// Detector-level sweep: code length × family size × CFO × SNR (24 cases).
/// On each case's anchor window (around the coarse trigger) and group
/// window (around the detected anchor) the two paths must agree on every
/// code of the family, and detect() — whichever path it picks per round —
/// must find both active codes at their known offsets.
TEST(CorrelationEngine, DetectorEquivalenceSweep) {
  struct Family {
    pn::CodeFamily family;
    std::size_t min_length;
  };
  const Family families[] = {
      {pn::CodeFamily::kTwoNC, 20},
      {pn::CodeFamily::kGold, 31},
      {pn::CodeFamily::kGold, 127},
  };
  const std::size_t spc = 4;
  const std::size_t coarse_start = 16 * spc;
  const UserDetectConfig cfg;
  Rng rng(21);
  for (const auto& fam : families) {
    for (const std::size_t n_codes : {2u, 8u}) {
      const auto codes = pn::make_code_set(fam.family, n_codes, fam.min_length);
      const UserDetector det(cfg, codes, kPreambleBits, spc);
      UserDetector::Scratch det_scratch;
      std::vector<std::vector<double>> chip_templates;
      for (const auto& code : codes) chip_templates.push_back(chip_preamble(code));
      const auto anchor_lags = static_cast<std::size_t>(
          (cfg.search_back_chips + cfg.search_ahead_chips) * spc) + 1;
      const PeakSearch search(chip_templates, spc, anchor_lags);
      PeakSearch::Scratch scratch;
      std::vector<std::size_t> all(n_codes);
      for (std::size_t i = 0; i < n_codes; ++i) all[i] = i;
      std::vector<pn::ComplexCorrelationPeak> np(n_codes), fp(n_codes);

      for (const double cfo_hz : {0.0, 4e3}) {
        for (const double noise_w : {0.0, 1e-3}) {
          // Two users collide with sub-chip offsets and random phases.
          rfsim::ChannelConfig cc;
          cc.samples_per_chip = spc;
          cc.chip_rate_hz = 32e6;
          cc.noise_power_w = noise_w;
          const rfsim::Channel channel(cc);
          const std::vector<std::uint8_t> payload{0x42};
          std::vector<std::vector<std::uint8_t>> chips;
          std::vector<rfsim::TagTransmission> txs;
          const std::size_t active = std::min<std::size_t>(2, codes.size());
          for (std::size_t k = 0; k < active; ++k) {
            phy::TagConfig tc;
            tc.id = static_cast<std::uint32_t>(k);
            tc.code = codes[k];
            tc.preamble_bits = kPreambleBits;
            chips.push_back(phy::Tag(tc).chip_sequence(payload));
          }
          for (std::size_t k = 0; k < active; ++k) {
            rfsim::TagTransmission tx;
            tx.chips = chips[k];
            tx.amplitude = 1.0 - 0.4 * static_cast<double>(k);
            tx.phase = rng.phase();
            tx.delay_chips = 16.0 + 0.6 * static_cast<double>(k);
            tx.freq_offset_hz = cfo_hz;
            txs.push_back(tx);
          }
          const auto iq = test::synthesize(channel, txs, rng);
          std::vector<double> re, im;
          pn::split_iq(iq, re, im);
          std::vector<double> fold_re, fold_im;
          pn::fold_chip_sums(re, spc, fold_re);
          pn::fold_chip_sums(im, spc, fold_im);
          const CorrelationWindow window{re, im, fold_re, fold_im, spc};
          const std::string context =
              "family=" + std::to_string(static_cast<int>(fam.family)) +
              " L=" + std::to_string(codes.front().length()) + " K=" +
              std::to_string(n_codes) + " cfo=" + std::to_string(cfo_hz) +
              " noise=" + std::to_string(noise_w);

          const auto hits = det.detect(DetectionInput{re, im, coarse_start},
                                       det_scratch);
          ASSERT_FALSE(hits.empty()) << context;
          for (std::size_t k = 0; k < active; ++k) {
            const auto known = static_cast<std::size_t>(
                std::lround(txs[k].delay_chips * static_cast<double>(spc)));
            bool found = false;
            for (const auto& h : hits) {
              found |= h.tag_index == k && h.offset_samples == known;
            }
            EXPECT_TRUE(found) << context << " active code " << k;
          }

          const std::size_t back =
              static_cast<std::size_t>(cfg.search_back_chips * spc);
          const std::size_t ahead =
              static_cast<std::size_t>(cfg.search_ahead_chips * spc);
          const std::size_t anchor = hits.front().offset_samples;
          const std::size_t group =
              static_cast<std::size_t>(cfg.group_window_chips * spc);
          const std::tuple<std::size_t, std::size_t, const char*> windows[] = {
              {coarse_start - back, coarse_start + ahead + 1, " anchor window"},
              {anchor - group, anchor + group + 1, " group window"},
          };
          for (const auto& [begin, end, label] : windows) {
            search.naive_peaks(window, all, begin, end, np);
            search.fft_peaks(window, all, begin, end, fp, scratch);
            for (std::size_t k = 0; k < n_codes; ++k) {
              const std::string where =
                  context + label + " code=" + std::to_string(k);
              EXPECT_EQ(np[k].offset, fp[k].offset) << where;
              EXPECT_NEAR(np[k].value, fp[k].value, 1e-12) << where;
              EXPECT_NEAR(np[k].phase, fp[k].phase, 1e-12) << where;
            }
          }
        }
      }
    }
  }
}

/// The size-based pick, observed through the telemetry batch counters: the
/// paper's 64-code anchor search sits far past the crossover, a one-code
/// rescan of a few lags is not worth a transform.
TEST(CorrelationEngine, AutoResolvesFftForWideBatchesNaiveForNarrow) {
  Rng rng(31);
  const std::size_t spc = 4;
  const std::size_t chips = 1024;
  const PeakSearch search(random_chip_templates(64, chips, rng), spc, 512);
  std::vector<double> re(chips * spc + 512), im(re.size());
  for (std::size_t i = 0; i < re.size(); ++i) rng.gaussian_pair(re[i], im[i]);
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, spc, fold_re);
  pn::fold_chip_sums(im, spc, fold_im);
  const CorrelationWindow window{re, im, fold_re, fold_im, spc};
  PeakSearch::Scratch scratch;
  std::vector<std::size_t> all(64);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<pn::ComplexCorrelationPeak> wide(64), narrow(1);
  const std::vector<std::size_t> one{5};

  obs::set(obs::kTelemetry, true);
  obs::reset();
  search.peaks(window, all, 0, 512, wide, scratch);
  EXPECT_EQ(counter("rx.detect.fft_batches"), 1u);
  EXPECT_EQ(counter("rx.detect.naive_batches"), 0u);
  search.peaks(window, one, 100, 104, narrow, scratch);
  EXPECT_EQ(counter("rx.detect.fft_batches"), 1u);
  EXPECT_EQ(counter("rx.detect.naive_batches"), 1u);
  obs::set(obs::kTelemetry, false);
  obs::reset();
}

/// The paper-default cell (2NC, 10 tags, 4 samples/chip) exercises both
/// paths in production: the all-codes anchor round is wide enough for the
/// FFT path, the group-window SIC rounds stay naive. A cost-model change
/// that silently drops either side fails here.
TEST(CorrelationEngine, PaperConfigRunsBothPaths) {
  const core::SystemConfig cfg;
  auto dep = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < cfg.max_tags; ++k) {
    dep.add_tag({0.1 * static_cast<double>(k), 0.6});
  }
  const core::CbmaSystem sys(cfg, dep);
  Rng rng(41);
  core::TransmitScratch scratch;
  obs::set(obs::kTelemetry, true);
  obs::reset();
  for (int p = 0; p < 4; ++p) {
    (void)sys.transmit(core::TransmitOptions{}, rng, scratch);
  }
  const auto fft_batches = counter("rx.detect.fft_batches");
  const auto naive_batches = counter("rx.detect.naive_batches");
  obs::set(obs::kTelemetry, false);
  obs::reset();
  EXPECT_GT(fft_batches, 0u);
  EXPECT_GT(naive_batches, 0u);
}

TEST(CorrelationEngine, ConstructorValidatesTemplates) {
  Rng rng(33);
  EXPECT_THROW(PeakSearch({}, 4, 73), std::invalid_argument);
  auto ragged = random_chip_templates(2, 32, rng);
  ragged[1].resize(16);
  EXPECT_THROW(PeakSearch(ragged, 4, 73), std::invalid_argument);
  EXPECT_THROW(PeakSearch(random_chip_templates(2, 32, rng), 0, 73),
               std::invalid_argument);
}

TEST(CorrelationEngine, ScratchReuseIsDeterministic) {
  Rng rng(34);
  const std::size_t spc = 4;
  const PeakSearch search(random_chip_templates(4, 128, rng), spc, 201);
  std::vector<double> re(128 * spc + 200), im(re.size());
  for (std::size_t i = 0; i < re.size(); ++i) rng.gaussian_pair(re[i], im[i]);
  std::vector<double> fold_re, fold_im;
  pn::fold_chip_sums(re, spc, fold_re);
  pn::fold_chip_sums(im, spc, fold_im);
  const CorrelationWindow window{re, im, fold_re, fold_im, spc};
  PeakSearch::Scratch scratch;
  const std::vector<std::size_t> idx{0, 1, 2, 3};
  std::vector<pn::ComplexCorrelationPeak> first(4), second(4);
  search.fft_peaks(window, idx, 0, 201, first, scratch);
  // Different shape in between (subset, narrow range) must not leak state.
  std::vector<pn::ComplexCorrelationPeak> tmp(1);
  const std::vector<std::size_t> one{2};
  search.fft_peaks(window, one, 50, 60, tmp, scratch);
  search.fft_peaks(window, idx, 0, 201, second, scratch);
  for (std::size_t k = 0; k < 4; ++k) {
    expect_same_peaks(first[k], second[k], "scratch reuse code " +
                                               std::to_string(k));
  }
}

}  // namespace
}  // namespace cbma::rx
