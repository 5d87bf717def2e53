// Probe exports + sweep watchdog coverage: the strict-identity
// contract (enabling the probe must not change any decode result or RNG
// draw), the CBPROBE1 dump + manifest round trip (parsed back with
// util::json_parse and cross-checked against the binary), the
// link-quality JSON section, and scan_sweep_anomalies' floor/neighbor
// rules on synthetic grids.
//
// Each TEST runs in its own process (gtest_discover_tests), so enabling
// probing here cannot leak into other tests.
#include "core/obs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/system.h"
#include "util/json.h"

namespace cbma::core {
namespace {

void enable_probe(const std::string& dump_path) {
  obs::set_path(obs::kProbe, dump_path);
  obs::set(obs::kProbe, true);
}

SystemConfig three_tag_config() {
  SystemConfig config;
  config.max_tags = 3;
  return config;
}

rfsim::Deployment three_tag_deployment() {
  auto deployment = rfsim::Deployment::paper_frame();
  deployment.add_tag({0.0, 0.4});
  deployment.add_tag({0.3, -0.7});
  deployment.add_tag({-0.2, 1.0});
  return deployment;
}

/// Everything a probe must never change: the decode results and the next
/// RNG draw after the transmission.
struct RunDigest {
  std::vector<bool> detected;
  std::vector<bool> crc_ok;
  std::vector<double> correlation;
  std::vector<double> margin;
  std::vector<std::vector<std::uint8_t>> payloads;
  double next_draw = 0.0;

  bool operator==(const RunDigest&) const = default;
};

RunDigest run_once() {
  CbmaSystem system(three_tag_config(), three_tag_deployment());
  Rng rng(23);
  const auto report = system.transmit(TransmitOptions{}, rng);
  RunDigest digest;
  for (const auto& r : report.results) {
    digest.detected.push_back(r.detected);
    digest.crc_ok.push_back(r.crc_ok);
    digest.correlation.push_back(r.correlation);
    digest.margin.push_back(r.correlation_margin);
    digest.payloads.push_back(r.payload);
  }
  digest.next_draw = rng.uniform();
  return digest;
}

TEST(CoreProbe, EnablingProbeChangesNoResultAndDrawsNoRng) {
  obs::set(obs::kProbe, false);
  obs::reset();
  const auto off = run_once();
  EXPECT_EQ(probe::snapshot().taps.size(), 0u);  // the off path stored nothing

  enable_probe("core_probe_identity.bin");
  const auto on = run_once();
  const auto captured = probe::snapshot().taps.size();
  obs::set(obs::kProbe, false);
  obs::reset();

  EXPECT_GT(captured, 0u);  // the probed run really recorded
  EXPECT_TRUE(off == on);   // ...without perturbing a single result or draw
}

TEST(CoreProbe, DumpAndManifestRoundTrip) {
  enable_probe("core_probe_roundtrip.bin");
  obs::reset();
  CbmaSystem system(three_tag_config(), three_tag_deployment());
  Rng rng(7);
  const auto report = system.transmit(TransmitOptions{}, rng);
  ASSERT_FALSE(report.link_quality.empty());
  const auto capture = probe::snapshot();
  ASSERT_TRUE(obs::write_exports());
  obs::set(obs::kProbe, false);
  obs::reset();

  // Binary: magic + at least one record.
  std::ifstream dump("core_probe_roundtrip.bin", std::ios::binary);
  ASSERT_TRUE(dump.good());
  char magic[8] = {};
  dump.read(magic, 8);
  EXPECT_EQ(std::string(magic, 8), "CBPROBE1");
  dump.seekg(0, std::ios::end);
  const auto dump_bytes = static_cast<std::uint64_t>(dump.tellg());

  // Manifest: parses, indexes every record, and its byte accounting
  // matches the file that was actually written.
  std::ifstream manifest_in("core_probe_roundtrip.bin.json");
  ASSERT_TRUE(manifest_in.good());
  std::string text((std::istreambuf_iterator<char>(manifest_in)),
                   std::istreambuf_iterator<char>());
  const auto manifest = util::json_parse(text);
  ASSERT_TRUE(manifest.is_object());
  EXPECT_EQ(manifest.at("magic").string, "CBPROBE1");
  EXPECT_EQ(manifest.at("schema_version").number, obs::kProbeDumpSchemaVersion);
  EXPECT_EQ(manifest.at("dump_bytes").number,
            static_cast<double>(dump_bytes));
  const auto& taps = manifest.at("taps");
  ASSERT_TRUE(taps.is_array());
  ASSERT_EQ(taps.array.size(), capture.taps.size());
  for (std::size_t i = 0; i < taps.array.size(); ++i) {
    const auto& entry = taps.array[i];
    EXPECT_EQ(entry.at("seq").number,
              static_cast<double>(capture.taps[i].seq));
    EXPECT_EQ(entry.at("tap").string, probe::tap_name(capture.taps[i].tap));
    EXPECT_EQ(entry.at("doubles").number,
              static_cast<double>(capture.taps[i].data.size()));
    // Records are back-to-back: payload offset = header end, and the
    // manifest's offsets must stay inside the file.
    EXPECT_EQ(entry.at("payload_offset").number,
              entry.at("offset").number + 32.0);
    EXPECT_LE(entry.at("payload_offset").number +
                  8.0 * entry.at("doubles").number,
              static_cast<double>(dump_bytes));
  }
  const auto& link = manifest.at("link_quality");
  ASSERT_TRUE(link.is_array());
  EXPECT_EQ(link.array.size(), capture.link.size());

  std::remove("core_probe_roundtrip.bin");
  std::remove("core_probe_roundtrip.bin.json");
}

TEST(CoreProbe, LinkQualityJsonSectionAggregatesPerTag) {
  enable_probe("core_probe_section.bin");
  obs::reset();
  probe::LinkQualitySample sample;
  sample.tag = 1;
  sample.detected = true;
  sample.decoded = true;
  sample.snr_db = 10.0;
  probe::record_link_quality(sample);
  sample.snr_db = 20.0;
  sample.decoded = false;
  probe::record_link_quality(sample);
  sample.tag = 0;
  sample.snr_db = 5.0;
  probe::record_link_quality(sample);

  util::JsonWriter w;
  w.begin_object();
  obs::write_json_sections(w);
  w.end_object();
  obs::set(obs::kProbe, false);
  obs::reset();

  const auto doc = util::json_parse(w.str());
  const auto& lq = doc.at("link_quality");
  EXPECT_EQ(lq.at("samples").number, 3.0);
  EXPECT_EQ(lq.at("dropped").number, 0.0);
  const auto& tags = lq.at("tags");
  ASSERT_EQ(tags.array.size(), 2u);  // ascending tag order
  EXPECT_EQ(tags.array[0].at("tag").number, 0.0);
  EXPECT_EQ(tags.array[0].at("frames").number, 1.0);
  EXPECT_EQ(tags.array[0].at("snr_db_mean").number, 5.0);
  EXPECT_EQ(tags.array[1].at("tag").number, 1.0);
  EXPECT_EQ(tags.array[1].at("frames").number, 2.0);
  EXPECT_EQ(tags.array[1].at("decoded").number, 1.0);
  EXPECT_EQ(tags.array[1].at("snr_db_mean").number, 15.0);
}

TEST(CoreProbe, WatchdogFloorRuleFiresOnBreach) {
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0, 2.0, 3.0})};
  const std::vector<double> prr{1.0, 0.9, 0.05, 0.8};
  const auto metric = [&](std::size_t flat, const std::string& name) {
    EXPECT_EQ(name, "prr");
    return prr[flat];
  };

  const auto warnings = scan_sweep_anomalies(
      spec, metric, {{.metric = "prr", .floor = 0.1}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].metric, "prr");
  EXPECT_EQ(warnings[0].flat, 2u);
  EXPECT_EQ(warnings[0].kind, "floor");
  EXPECT_DOUBLE_EQ(warnings[0].value, 0.05);
  EXPECT_DOUBLE_EQ(warnings[0].reference, 0.1);
  EXPECT_FALSE(warnings[0].detail.empty());
}

TEST(CoreProbe, WatchdogFloorRuleOrientsForLowerIsBetter) {
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0})};
  const std::vector<double> fer{0.02, 0.6};
  const auto metric = [&](std::size_t flat, const std::string&) {
    return fer[flat];
  };
  const auto warnings = scan_sweep_anomalies(
      spec, metric,
      {{.metric = "fer", .floor = 0.5, .higher_is_better = false}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].flat, 1u);
  EXPECT_DOUBLE_EQ(warnings[0].value, 0.6);
}

TEST(CoreProbe, WatchdogNeighborRuleFiresOnDipNotOnSmoothDecay) {
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0, 2.0, 3.0, 4.0})};
  // Smooth monotonic decay: every interior point sits exactly on its
  // neighbor mean — must stay silent.
  const std::vector<double> smooth{1.0, 0.8, 0.6, 0.4, 0.2};
  const auto smooth_metric = [&](std::size_t flat, const std::string&) {
    return smooth[flat];
  };
  EXPECT_TRUE(scan_sweep_anomalies(
                  spec, smooth_metric,
                  {{.metric = "prr", .neighbor_tolerance = 0.15}})
                  .empty());

  // One collapsed point in an otherwise flat curve: exactly one warning.
  const std::vector<double> dip{1.0, 1.0, 0.2, 1.0, 1.0};
  const auto dip_metric = [&](std::size_t flat, const std::string&) {
    return dip[flat];
  };
  const auto warnings = scan_sweep_anomalies(
      spec, dip_metric, {{.metric = "prr", .neighbor_tolerance = 0.5}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].flat, 2u);
  EXPECT_EQ(warnings[0].kind, "neighbor");
  EXPECT_DOUBLE_EQ(warnings[0].value, 0.2);
  EXPECT_DOUBLE_EQ(warnings[0].reference, 1.0);
}

TEST(CoreProbe, WatchdogNeighborRuleWalksEveryAxis) {
  // 2×3 grid, collapse at (row 1, col 1): the dip must be caught via its
  // column axis too, and edge points must only use existing neighbors.
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("row", {0.0, 1.0}),
               Axis::numeric("col", {0.0, 1.0, 2.0})};
  const std::vector<double> grid{1.0, 1.0, 1.0,
                                 1.0, 0.1, 1.0};
  const auto metric = [&](std::size_t flat, const std::string&) {
    return grid[flat];
  };
  const auto warnings = scan_sweep_anomalies(
      spec, metric, {{.metric = "prr", .neighbor_tolerance = 0.5}});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].flat, 4u);
  EXPECT_EQ(warnings[0].kind, "neighbor");
}

TEST(CoreProbe, WatchdogDefaultsAreSilent) {
  // A rule with neither a floor nor a neighbor tolerance never fires no
  // matter how wild the data.
  SweepSpec spec;
  spec.name = "wd";
  spec.axes = {Axis::numeric("x", {0.0, 1.0, 2.0})};
  const std::vector<double> wild{1e6, -1e6, 0.0};
  const auto metric = [&](std::size_t flat, const std::string&) {
    return wild[flat];
  };
  EXPECT_TRUE(scan_sweep_anomalies(spec, metric, {{.metric = "m"}}).empty());
  EXPECT_TRUE(scan_sweep_anomalies(spec, metric, {}).empty());
}

}  // namespace
}  // namespace cbma::core
