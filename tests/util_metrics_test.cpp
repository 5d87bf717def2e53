// Metrics-layer unit coverage: the bounded time-series store of the
// observability plane (DESIGN.md §7). Pins the contracts the window cadence
// and the exporters build on — the disabled path stores nothing, rings
// overwrite oldest-first and count drops instead of growing, the series and
// event caps refuse work loudly, and the Prometheus text exposition is
// well-formed (sanitized names, scope labels, meta gauges, atomic rewrite).
//
// Each TEST runs in its own process (gtest_discover_tests), so flipping the
// switchboard here cannot leak into other tests.
#include "core/obs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace cbma::metrics {
namespace {

/// Count non-overlapping occurrences of `needle` in `text`.
std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(UtilMetrics, DisabledRecordingIsAStrictNoOp) {
  obs::set(obs::kMetrics, false);
  push("net.goodput_bps", {}, 1.0, "bps");
  push("net.cell.fer", "cell=3", 0.5);
  push_event(Severity::kWarning, "watchdog", {}, 2.0, "detail");
  EXPECT_EQ(advance_window(), 0u);
  // Nothing was stored, no window moved, no drop was even counted.
  EXPECT_EQ(snapshot().series.size(), 0u);
  const auto snap = snapshot();
  EXPECT_EQ(snap.windows, 0u);
  EXPECT_TRUE(snap.series.empty());
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped_points, 0u);
  EXPECT_EQ(snap.dropped_series, 0u);
  EXPECT_EQ(snap.dropped_events, 0u);
}

TEST(UtilMetrics, SamplesAreStampedWithTheOpenWindow) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  push("net.goodput_bps", {}, 10.0, "bps");
  EXPECT_EQ(current_window(), 0u);
  EXPECT_EQ(advance_window(), 1u);
  push("net.goodput_bps", {}, 20.0, "ignored-late-unit");
  const auto snap = snapshot();
  obs::set(obs::kMetrics, false);

  EXPECT_EQ(snap.windows, 1u);  // one closed window, window 1 still open
  ASSERT_EQ(snap.series.size(), 1u);
  const auto& s = snap.series[0];
  EXPECT_EQ(s.name, "net.goodput_bps");
  EXPECT_EQ(s.scope, "");
  // The unit is recorded on first touch and immutable afterwards.
  EXPECT_EQ(s.unit, "bps");
  ASSERT_EQ(s.points.size(), 2u);
  EXPECT_EQ(s.points[0].window, 0u);
  EXPECT_DOUBLE_EQ(s.points[0].value, 10.0);
  EXPECT_EQ(s.points[1].window, 1u);
  EXPECT_DOUBLE_EQ(s.points[1].value, 20.0);
  obs::reset();
}

TEST(UtilMetrics, SameNameDifferentScopeAreDistinctSeries) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  push("net.cell.fer", "cell=0", 0.1);
  push("net.cell.fer", "cell=1", 0.2);
  push("net.cell.fer", {}, 0.15);
  const auto snap = snapshot();
  obs::set(obs::kMetrics, false);

  ASSERT_EQ(snap.series.size(), 3u);
  // Snapshot order is (name, scope)-sorted: "" < "cell=0" < "cell=1".
  EXPECT_EQ(snap.series[0].scope, "");
  EXPECT_EQ(snap.series[1].scope, "cell=0");
  EXPECT_EQ(snap.series[2].scope, "cell=1");
  for (const auto& s : snap.series) {
    ASSERT_EQ(s.points.size(), 1u) << s.scope;
  }
  obs::reset();
}

TEST(UtilMetrics, RingOverwritesOldestAndCountsDrops) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  constexpr std::size_t kPushed = kWindowCapacity + 3;
  for (std::size_t k = 0; k < kPushed; ++k) {
    push("ring.test", {}, static_cast<double>(k));
    advance_window();
  }
  const auto snap = snapshot();
    obs::set(obs::kMetrics, false);

  ASSERT_EQ(snap.series.size(), 1u);
  const auto& pts = snap.series[0].points;
  // The first three samples were overwritten (and counted), the survivors
  // unroll oldest → newest.
  ASSERT_EQ(pts.size(), kWindowCapacity);
  for (std::size_t k = 0; k < kWindowCapacity; ++k) {
    EXPECT_EQ(pts[k].window, 3u + k);
    EXPECT_DOUBLE_EQ(pts[k].value, static_cast<double>(3 + k));
  }
  EXPECT_EQ(snap.dropped_points, 3u);
  EXPECT_EQ(snap.dropped_series, 0u);
  obs::reset();
}

TEST(UtilMetrics, SeriesCapRefusesNewSeriesAndCountsThem) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  for (std::size_t k = 0; k < kMaxSeries; ++k) {
    push("series." + std::to_string(k), {}, 1.0);
  }
  ASSERT_EQ(snapshot().series.size(), kMaxSeries);
  push("series.overflow", {}, 1.0);
  push("series.overflow2", {}, 1.0);
  // Existing series still accept samples at the cap.
  push("series.0", {}, 2.0);
  const auto snap = snapshot();
    obs::set(obs::kMetrics, false);

  EXPECT_EQ(snap.series.size(), kMaxSeries);
  EXPECT_EQ(snap.dropped_series, 2u);
  obs::reset();
}

TEST(UtilMetrics, EventLogIsBoundedWithStrictlyIncreasingSeq) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  for (std::size_t k = 0; k < kMaxEvents + 5; ++k) {
    push_event(Severity::kInfo, "roam", "cell=1",
               static_cast<double>(k), "d");
  }
  const auto snap = snapshot();
  obs::set(obs::kMetrics, false);

  ASSERT_EQ(snap.events.size(), kMaxEvents);
  EXPECT_EQ(snap.dropped_events, 5u);
  for (std::size_t k = 0; k < snap.events.size(); ++k) {
    EXPECT_EQ(snap.events[k].seq, k);  // drops never consume a seq
    EXPECT_EQ(snap.events[k].window, 0u);
    EXPECT_DOUBLE_EQ(snap.events[k].value, static_cast<double>(k));
  }
  obs::reset();
}

TEST(UtilMetrics, SeverityNamesMatchTheWireVocabulary) {
  // cbma_obs.py and the JSON "events" section speak exactly these.
  EXPECT_STREQ(severity_name(Severity::kInfo), "info");
  EXPECT_STREQ(severity_name(Severity::kWarning), "warning");
  EXPECT_STREQ(severity_name(Severity::kError), "error");
  EXPECT_STREQ(severity_name(Severity::kCount), "unknown");
}

TEST(UtilMetrics, ResetClearsDataButKeepsFlagAndPath) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  obs::set_path(obs::kMetrics, "somewhere.prom");
  push("a", {}, 1.0);
  push_event(Severity::kError, "watchdog", {}, 1.0, "d");
  advance_window();
  obs::reset();
  EXPECT_EQ(snapshot().series.size(), 0u);
  const auto snap = snapshot();
  EXPECT_EQ(snap.windows, 0u);
  EXPECT_TRUE(snap.events.empty());
  EXPECT_TRUE(enabled());
  EXPECT_EQ(obs::path(obs::kMetrics), "somewhere.prom");
  obs::set_path(obs::kMetrics, "");
  obs::set(obs::kMetrics, false);
}

TEST(UtilMetrics, PrometheusTextIsWellFormed) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  push("net.cell.goodput_bps", "cell=3", 1000.0, "bps");
  push("net.cell.goodput_bps", "cell=7", 2000.0, "bps");
  push("net.goodput_bps", {}, 3000.0, "bps");
  push("odd/name with spaces", {}, 1.0);
  push_event(Severity::kWarning, "code_slice_overflow", "cell=3", 1.0, "d");
  advance_window();
  const auto text = obs::prometheus_text(snapshot());
  obs::set(obs::kMetrics, false);

  // Latest value per series, scope rendered as a label.
  EXPECT_NE(text.find("cbma_net_cell_goodput_bps{cell=\"3\"} 1000"),
            std::string::npos);
  EXPECT_NE(text.find("cbma_net_cell_goodput_bps{cell=\"7\"} 2000"),
            std::string::npos);
  EXPECT_NE(text.find("cbma_net_goodput_bps 3000"), std::string::npos);
  // Names sanitized to the Prometheus charset.
  EXPECT_NE(text.find("cbma_odd_name_with_spaces 1"), std::string::npos);
  // One TYPE line per metric name even when it fans out across scopes.
  EXPECT_EQ(occurrences(text, "# TYPE cbma_net_cell_goodput_bps gauge"), 1u);
  // The four meta gauges cbma_obs.py prom-check requires.
  EXPECT_NE(text.find("cbma_metrics_windows_total 1"), std::string::npos);
  EXPECT_NE(text.find("cbma_metrics_series 4"), std::string::npos);
  EXPECT_NE(text.find("cbma_metrics_events_total 1"), std::string::npos);
  EXPECT_NE(text.find("cbma_metrics_dropped_total 0"), std::string::npos);
  // Per-severity event counts.
  EXPECT_NE(text.find("cbma_events{severity=\"warning\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cbma_events{severity=\"info\"} 0"), std::string::npos);
  obs::reset();
}

TEST(UtilMetrics, WritePrometheusLeavesNoTmpFileBehind) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  push("net.goodput_bps", {}, 42.0, "bps");
  const auto path = ::testing::TempDir() + "cbma_metrics_test.prom";
  std::remove(path.c_str());
  obs::set_path(obs::kMetrics, path);
  ASSERT_TRUE(obs::write_exports());
  obs::set_path(obs::kMetrics, "");
  const auto expected = obs::prometheus_text(snapshot());
  obs::set(obs::kMetrics, false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), expected);
  // The write went through "<path>.tmp" + rename; the tmp must be gone.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
  obs::reset();
}

TEST(UtilMetrics, WritePrometheusFailsLoudlyOnBadPath) {
  obs::set(obs::kMetrics, true);
  obs::reset();
  push("a", {}, 1.0);
  // A regular file where the parent directory should be: the writer
  // cannot create the directory, so the export must report failure.
  const auto blocker = ::testing::TempDir() + "cbma_metrics_blocker";
  { std::ofstream make(blocker); make << "in the way"; }
  obs::set_path(obs::kMetrics, blocker + "/metrics.prom");
  EXPECT_FALSE(obs::write_exports());
  obs::set_path(obs::kMetrics, "");
  std::filesystem::remove(blocker);
  obs::set(obs::kMetrics, false);
  obs::reset();
}

}  // namespace
}  // namespace cbma::metrics
