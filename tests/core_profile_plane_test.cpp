// The profiler's exports (DESIGN.md §7).
// Pins the contracts the tooling relies on: disabled is a strict identity
// (no "profile" section, no collapsed file, no sinks), the JSON section
// parses and satisfies the per-node identity incl == excl + child_ns, the
// top-exclusive table is sorted and bounded, and the collapsed-stack
// export's line values sum to the tree's total exclusive time.
//
// Each TEST runs in its own process (gtest_discover_tests), so flipping
// the profiler flag here cannot leak into other tests.
#include "core/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "core/config.h"
#include "core/recorder.h"
#include "util/json.h"
#include "util/parallel.h"

namespace cbma::core {
namespace {

using telemetry::ScopedSpan;
using telemetry::Span;

/// A small deterministic tree: net/round → {net/cell_round → rx/process,
/// net/associate} recorded twice, plus one parallel site.
void record_fixture() {
  for (int round = 0; round < 2; ++round) {
    const ScopedSpan net_round(Span::kNetRound);
    {
      const ScopedSpan assoc(Span::kNetAssociate);
    }
    util::ParallelStats stats;
    util::parallel_for(
        4,
        [](std::size_t) {
          const ScopedSpan cell(Span::kNetCellRound);
          const ScopedSpan rx(Span::kRxProcess);
        },
        2, &stats);
    if (stats.collected) profiler::record_parallel("net/round", stats);
  }
}

void enable_profiler() {
  obs::set(obs::kProfile, true);
  obs::reset();
}

void tear_down() {
  obs::reset();
  obs::set(obs::kProfile, false);
  obs::set_path(obs::kProfile, "");
}

TEST(ProfilePlane, DisabledIsAStrictIdentity) {
  ASSERT_FALSE(profiler::enabled()) << "profiler must default to off";
  // Spans with the profiler off must leave no trace anywhere.
  {
    const ScopedSpan s(Span::kRxProcess);
  }
  EXPECT_TRUE(profiler::merged_tree().roots.empty());
  EXPECT_TRUE(obs::top_exclusive(10).empty());
  EXPECT_TRUE(obs::collapsed().empty());
  EXPECT_TRUE(obs::write_exports());

  // And the BENCH document carries no "profile" section.
  SweepSpec spec;
  spec.name = "profile_plane_test";
  spec.title = "t";
  spec.axes.push_back(Axis::numeric("x", {1.0}));
  RunRecorder recorder(std::move(spec), SystemConfig{});
  const auto doc = util::json_parse(recorder.json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_FALSE(doc.has("profile"));
}

TEST(ProfilePlane, JsonSectionParsesAndBalances) {
  enable_profiler();
  record_fixture();

  util::JsonWriter w;
  w.begin_object();
  obs::write_json_sections(w);
  w.end_object();
  tear_down();

  const auto doc = util::json_parse(w.str());
  const auto& prof = doc.at("profile");
  ASSERT_TRUE(prof.is_object());
  EXPECT_GE(prof.at("threads").number, 1.0);
  EXPECT_EQ(prof.at("dropped").number, 0.0);

  // Walk the tree: every node satisfies incl == excl + child_ns exactly.
  std::size_t depth_seen = 0;
  std::function<void(const util::JsonValue&, std::size_t)> walk =
      [&](const util::JsonValue& node, std::size_t depth) {
        depth_seen = std::max(depth_seen, depth);
        EXPECT_FALSE(node.at("span").string.empty());
        EXPECT_DOUBLE_EQ(
            node.at("incl_ns").number,
            node.at("excl_ns").number + node.at("child_ns").number);
        for (const auto& c : node.at("children").array) walk(c, depth + 1);
      };
  const auto& tree = prof.at("tree");
  ASSERT_TRUE(tree.is_array());
  ASSERT_FALSE(tree.array.empty());
  for (const auto& root : tree.array) walk(root, 1);
  // net/round → net/cell_round → rx/process: a real multi-level tree.
  EXPECT_GE(depth_seen, 3u);

  // The parallel site: slot sums must match the aggregate totals.
  const auto& par = prof.at("parallel");
  ASSERT_TRUE(par.is_array());
  ASSERT_EQ(par.array.size(), 1u);
  const auto& site = par.array[0];
  EXPECT_EQ(site.at("site").string, "net/round");
  EXPECT_EQ(site.at("calls").number, 2.0);
  EXPECT_EQ(site.at("items").number, 8.0);
  EXPECT_GE(site.at("imbalance").number, 1.0);
  double slot_busy = 0.0;
  double slot_items = 0.0;
  for (const auto& worker : site.at("workers").array) {
    slot_busy += worker.at("busy_ns").number;
    slot_items += worker.at("items").number;
  }
  EXPECT_DOUBLE_EQ(slot_busy, site.at("busy_ns").number);
  EXPECT_DOUBLE_EQ(slot_items, 8.0);
}

TEST(ProfilePlane, TopExclusiveIsSortedAndBounded) {
  enable_profiler();
  record_fixture();
  const auto top2 = obs::top_exclusive(2);
  const auto all = obs::top_exclusive(100);
  tear_down();

  EXPECT_EQ(top2.size(), 2u);
  ASSERT_GE(all.size(), 4u);  // 4 distinct caller paths in the fixture
  for (std::size_t k = 1; k < all.size(); ++k) {
    EXPECT_GE(all[k - 1].excl_ns, all[k].excl_ns);
  }
  // The bounded prefix is exactly the head of the full ranking.
  EXPECT_EQ(top2[0].path, all[0].path);
  EXPECT_EQ(top2[1].path, all[1].path);
  // Paths are ";"-joined span names rooted at the outermost span.
  bool saw_nested = false;
  for (const auto& row : all) {
    if (row.path == "net/round;net/cell_round;rx/process") {
      saw_nested = true;
      EXPECT_EQ(row.count, 8u);
    }
  }
  EXPECT_TRUE(saw_nested);
}

TEST(ProfilePlane, CollapsedStackSumsToTreeExclusiveTime) {
  enable_profiler();
  record_fixture();
  const std::string text = obs::collapsed();
  std::uint64_t tree_excl = 0;
  std::function<void(const profiler::MergedNode&)> sum =
      [&](const profiler::MergedNode& n) {
        tree_excl += n.excl_ns();
        for (const auto& c : n.children) sum(c);
      };
  for (const auto& root : profiler::merged_tree().roots) sum(root);
  tear_down();

  ASSERT_FALSE(text.empty());
  std::uint64_t collapsed_sum = 0;
  std::istringstream lines(text);
  std::string line;
  std::string prev_path;
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string path = line.substr(0, space);
    ASSERT_FALSE(path.empty());
    // Sorted, unique paths; frames separated by ';'.
    EXPECT_GT(path, prev_path);
    prev_path = path;
    collapsed_sum += std::stoull(line.substr(space + 1));
  }
  // Zero-exclusive rows are omitted, so the remaining values account for
  // exactly the tree's exclusive total.
  EXPECT_EQ(collapsed_sum, tree_excl);
}

TEST(ProfilePlane, WriteCollapsedHonoursTheConfiguredPath) {
  enable_profiler();
  record_fixture();
  // No path configured: a successful no-op, no file appears.
  EXPECT_TRUE(obs::write_exports());

  const auto path = ::testing::TempDir() + "cbma_profile_test.collapsed";
  std::remove(path.c_str());
  obs::set_path(obs::kProfile, path);
  EXPECT_TRUE(obs::write_exports());
  const std::string expected = obs::collapsed();
  tear_down();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, expected);
  EXPECT_NE(text.find("net/round"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ProfilePlane, EnableWithPathSetsTheExportTarget) {
  ASSERT_FALSE(profiler::enabled());
  obs::set_path(obs::kProfile, "/tmp/cbma_flame.txt");
  obs::set(obs::kProfile, true);
  EXPECT_TRUE(profiler::enabled());
  EXPECT_EQ(obs::path(obs::kProfile), "/tmp/cbma_flame.txt");
  tear_down();
  EXPECT_FALSE(profiler::enabled());
}

}  // namespace
}  // namespace cbma::core
