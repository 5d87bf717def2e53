// util/obs probe unit coverage: the strict-identity off path (no storage, no
// state), the bounded capture mechanics (per-tap caps, truncation, dropped
// counters), IQ interleaving, sweep-point labelling via ScopedPoint, and
// the tap name table the manifest format depends on.
//
// Each TEST runs in its own process (gtest_discover_tests), so enabling
// probing here cannot leak into other tests.
#include "util/obs.h"

#include <gtest/gtest.h>

#include <complex>
#include <set>
#include <string>
#include <vector>

namespace cbma::probe {
namespace {

TEST(UtilProbe, TapNamesAreCompleteAndUnique) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kTapCount; ++i) {
    const std::string n = tap_name(static_cast<Tap>(i));
    EXPECT_NE(n, "unknown") << "tap " << i << " is unnamed";
    EXPECT_FALSE(n.empty());
    EXPECT_TRUE(names.insert(n).second) << "duplicate tap name " << n;
  }
  // Out-of-range values still return a printable label, never null — the
  // manifest writer must not crash on a corrupted record.
  EXPECT_STREQ(tap_name(Tap::kCount), "unknown");
  EXPECT_STREQ(tap_name(static_cast<Tap>(200)), "unknown");
}

TEST(UtilProbe, DisabledRecordingIsANoOp) {
  obs::set(obs::kProbe, false);
  const std::vector<double> samples{1.0, 2.0, 3.0};
  const std::vector<std::complex<double>> iq{{1.0, -1.0}};
  record_tap(Tap::kSyncEnergy, 0, samples);
  record_tap_iq(Tap::kCompositeIq, 0, iq);
  record_link_quality(LinkQualitySample{});
  { const ScopedPoint point(7); }
  EXPECT_EQ(snapshot().taps.size(), 0u);
  EXPECT_EQ(current_point(), 0u);
  const auto capture = snapshot();
  EXPECT_TRUE(capture.taps.empty());
  EXPECT_TRUE(capture.link.empty());
  EXPECT_EQ(capture.dropped_taps, 0u);
  EXPECT_EQ(capture.dropped_link, 0u);
}

TEST(UtilProbe, RecordsCarrySequenceContextAndData) {
  obs::set(obs::kProbe, true);
  obs::reset();
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0};
  record_tap(Tap::kSyncEnergy, 0, a);
  record_tap(Tap::kSoftBits, 4, b);
  LinkQualitySample lq;
  lq.tag = 2;
  lq.snr_db = 12.5;
  record_link_quality(lq);
  const auto capture = snapshot();
  obs::set(obs::kProbe, false);

  ASSERT_EQ(capture.taps.size(), 2u);
  EXPECT_EQ(capture.taps[0].tap, Tap::kSyncEnergy);
  EXPECT_EQ(capture.taps[0].context, 0u);
  EXPECT_EQ(capture.taps[0].data, a);
  EXPECT_FALSE(capture.taps[0].complex_iq);
  EXPECT_EQ(capture.taps[1].tap, Tap::kSoftBits);
  EXPECT_EQ(capture.taps[1].context, 4u);
  // seq is a single global order across taps AND link rows.
  EXPECT_LT(capture.taps[0].seq, capture.taps[1].seq);
  ASSERT_EQ(capture.link.size(), 1u);
  EXPECT_EQ(capture.link[0].tag, 2u);
  EXPECT_DOUBLE_EQ(capture.link[0].snr_db, 12.5);
  EXPECT_LT(capture.taps[1].seq, capture.link[0].seq);
  obs::reset();
}

TEST(UtilProbe, ComplexRecordsInterleaveReIm) {
  obs::set(obs::kProbe, true);
  obs::reset();
  const std::vector<std::complex<double>> iq{{1.0, -2.0}, {3.0, 4.0}};
  record_tap_iq(Tap::kCompositeIq, 0, iq);
  const auto capture = snapshot();
  obs::set(obs::kProbe, false);

  ASSERT_EQ(capture.taps.size(), 1u);
  const auto& r = capture.taps[0];
  EXPECT_TRUE(r.complex_iq);
  ASSERT_EQ(r.data.size(), 4u);
  EXPECT_DOUBLE_EQ(r.data[0], 1.0);
  EXPECT_DOUBLE_EQ(r.data[1], -2.0);
  EXPECT_DOUBLE_EQ(r.data[2], 3.0);
  EXPECT_DOUBLE_EQ(r.data[3], 4.0);
  obs::reset();
}

TEST(UtilProbe, PerTapCapDropsOverflowAndCounts) {
  obs::set(obs::kProbe, true);
  obs::reset();
  const std::vector<double> sample{1.0};
  for (std::size_t i = 0; i < kMaxRecordsPerTap + 10; ++i) {
    record_tap(Tap::kSyncEnergy, 0, sample);
  }
  // A different tap still has its own budget.
  record_tap(Tap::kSoftBits, 0, sample);
  const auto capture = snapshot();
  obs::set(obs::kProbe, false);

  EXPECT_EQ(capture.taps.size(), kMaxRecordsPerTap + 1);
  EXPECT_EQ(capture.dropped_taps, 10u);
  obs::reset();
}

TEST(UtilProbe, OverlongRecordsAreTruncatedNotDropped) {
  obs::set(obs::kProbe, true);
  obs::reset();
  const std::vector<double> big(kMaxSamplesPerRecord + 100, 1.5);
  record_tap(Tap::kCorrelationProfile, 1, big);
  const auto capture = snapshot();
  obs::set(obs::kProbe, false);

  ASSERT_EQ(capture.taps.size(), 1u);
  EXPECT_EQ(capture.taps[0].data.size(), kMaxSamplesPerRecord);
  EXPECT_EQ(capture.dropped_taps, 0u);
  obs::reset();
}

TEST(UtilProbe, LinkQualityCapDropsOverflow) {
  obs::set(obs::kProbe, true);
  obs::reset();
  for (std::size_t i = 0; i < kMaxLinkQualitySamples + 5; ++i) {
    record_link_quality(LinkQualitySample{});
  }
  const auto capture = snapshot();
  obs::set(obs::kProbe, false);

  EXPECT_EQ(capture.link.size(), kMaxLinkQualitySamples);
  EXPECT_EQ(capture.dropped_link, 5u);
  obs::reset();
}

TEST(UtilProbe, ScopedPointLabelsRecordsAndRestores) {
  obs::set(obs::kProbe, true);
  obs::reset();
  const std::vector<double> sample{1.0};
  record_tap(Tap::kSyncEnergy, 0, sample);  // outside any sweep: point 0
  {
    const ScopedPoint outer(3);
    EXPECT_EQ(current_point(), 3u);
    record_tap(Tap::kSyncEnergy, 0, sample);
    {
      const ScopedPoint inner(9);
      record_tap(Tap::kSyncEnergy, 0, sample);
    }
    EXPECT_EQ(current_point(), 3u);  // inner scope restored the label
    record_tap(Tap::kSyncEnergy, 0, sample);
  }
  EXPECT_EQ(current_point(), 0u);
  const auto capture = snapshot();
  obs::set(obs::kProbe, false);

  ASSERT_EQ(capture.taps.size(), 4u);
  EXPECT_EQ(capture.taps[0].point, 0u);
  EXPECT_EQ(capture.taps[1].point, 3u);
  EXPECT_EQ(capture.taps[2].point, 9u);
  EXPECT_EQ(capture.taps[3].point, 3u);
  obs::reset();
}

TEST(UtilProbe, ResetClearsCaptureAndSequence) {
  obs::set(obs::kProbe, true);
  obs::reset();
  const std::vector<double> sample{1.0};
  record_tap(Tap::kSyncEnergy, 0, sample);
  record_link_quality(LinkQualitySample{});
  EXPECT_EQ(snapshot().taps.size(), 1u);
  obs::reset();
  EXPECT_EQ(snapshot().taps.size(), 0u);
  record_tap(Tap::kSyncEnergy, 0, sample);
  const auto capture = snapshot();
  obs::set(obs::kProbe, false);

  ASSERT_EQ(capture.taps.size(), 1u);
  EXPECT_EQ(capture.taps[0].seq, 0u);  // sequence counter restarted
  EXPECT_TRUE(capture.link.empty());
  obs::reset();
}

TEST(UtilProbe, DumpPathIsProgrammable) {
  obs::set_path(obs::kProbe, "probe_test_dump.bin");
  EXPECT_EQ(obs::path(obs::kProbe), "probe_test_dump.bin");
  obs::set_path(obs::kProbe, "");
  EXPECT_EQ(obs::path(obs::kProbe), "");
}

}  // namespace
}  // namespace cbma::probe
