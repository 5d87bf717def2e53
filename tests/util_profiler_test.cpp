// The profiler layer: the hierarchical span-attribution tree (DESIGN.md §7).
// Covers the contracts the export tooling leans on: the off path allocates
// nothing, caller paths build a tree with the exact per-node identity
// incl == excl + child_ns, the fixed node pool drops (never allocates) on
// exhaustion, parallel_for workers merge under the launching span via
// context replay, and tree shape + item counts are deterministic across
// worker counts even though the times are wall-clock.
#include "util/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace cbma::profiler {
namespace {

using telemetry::ScopedSpan;
using telemetry::Span;

/// Save/restore the profiler switch around a test and leave the trees
/// empty on both sides, so test order can't leak state.
class ProfilerGuard {
 public:
  explicit ProfilerGuard(bool on) : was_on_(enabled()) {
    obs::set(obs::kProfile, on);
    obs::reset();
  }
  ~ProfilerGuard() {
    obs::reset();
    obs::set(obs::kProfile, was_on_);
  }

 private:
  bool was_on_;
};

/// Find a direct child by span, nullptr when absent.
const MergedNode* child(const std::vector<MergedNode>& nodes, Span s) {
  for (const auto& n : nodes) {
    if (n.span == s) return &n;
  }
  return nullptr;
}

void check_identity(const MergedNode& node) {
  // excl = incl − child_ns must never underflow: child spans nest inside
  // the parent's clock on the same thread.
  EXPECT_GE(node.incl_ns, node.child_ns)
      << telemetry::span_name(node.span);
  for (const auto& c : node.children) check_identity(c);
}

TEST(Profiler, OffPathRegistersNoSinks) {
  ProfilerGuard guard(false);
  const std::size_t before = obs::sink_count();
  // A fresh thread is the clean probe: its thread_local sink pointer is
  // null, and with the profiler off ScopedSpan must never allocate one.
  std::thread([] {
    const ScopedSpan outer(Span::kRxProcess);
    const ScopedSpan inner(Span::kRxDetect);
  }).join();
  EXPECT_EQ(obs::sink_count(), before);
  EXPECT_TRUE(merged_tree().roots.empty());
}

TEST(Profiler, BuildsCallerPathTree) {
  ProfilerGuard guard(true);
  for (int i = 0; i < 3; ++i) {
    const ScopedSpan process(Span::kRxProcess);
    {
      const ScopedSpan detect(Span::kRxDetect);
    }
    const ScopedSpan decode(Span::kRxDecode);
  }
  // rx/detect alone is a *different caller path* than rx/process→rx/detect.
  {
    const ScopedSpan detect(Span::kRxDetect);
  }

  const TreeSnapshot snap = merged_tree();
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.threads, 1u);
  const MergedNode* process = child(snap.roots, Span::kRxProcess);
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(process->count, 3u);
  const MergedNode* nested_detect = child(process->children, Span::kRxDetect);
  const MergedNode* nested_decode = child(process->children, Span::kRxDecode);
  ASSERT_NE(nested_detect, nullptr);
  ASSERT_NE(nested_decode, nullptr);
  EXPECT_EQ(nested_detect->count, 3u);
  EXPECT_EQ(nested_decode->count, 3u);
  const MergedNode* root_detect = child(snap.roots, Span::kRxDetect);
  ASSERT_NE(root_detect, nullptr);
  EXPECT_EQ(root_detect->count, 1u);
  for (const auto& root : snap.roots) check_identity(root);
}

TEST(Profiler, ChildTimeFoldsIntoParentExclusive) {
  ProfilerGuard guard(true);
  {
    const ScopedSpan outer(Span::kRxProcess);
    const ScopedSpan inner(Span::kRxDetect);
  }
  const TreeSnapshot snap = merged_tree();
  const MergedNode* outer = child(snap.roots, Span::kRxProcess);
  ASSERT_NE(outer, nullptr);
  const MergedNode* inner = child(outer->children, Span::kRxDetect);
  ASSERT_NE(inner, nullptr);
  // The parent's child_ns is exactly the same-thread child's inclusive
  // time, so excl + child accounts for all of incl.
  EXPECT_EQ(outer->child_ns, inner->incl_ns);
  EXPECT_EQ(outer->incl_ns, outer->excl_ns() + outer->child_ns);
}

TEST(Profiler, SameSpanReentryAccumulatesOneNode) {
  ProfilerGuard guard(true);
  for (int i = 0; i < 5; ++i) {
    const ScopedSpan s(Span::kRxFrameSync);
  }
  const TreeSnapshot snap = merged_tree();
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].count, 5u);
  EXPECT_TRUE(snap.roots[0].children.empty());
}

TEST(Profiler, PoolExhaustionDropsNotCrashes) {
  ProfilerGuard guard(true);
  // Alternating spans at ever-deeper nesting create one node per level;
  // past kNodeCapacity every deeper span must be counted as dropped and
  // the tree must stay at capacity.
  std::function<void(std::size_t)> descend = [&](std::size_t depth) {
    if (depth == 2 * kNodeCapacity) return;
    const ScopedSpan s(depth % 2 == 0 ? Span::kRxProcess : Span::kRxDetect);
    descend(depth + 1);
  };
  descend(0);
  const TreeSnapshot snap = merged_tree();
  EXPECT_EQ(snap.dropped, kNodeCapacity);
  std::size_t nodes = 0;
  std::function<void(const MergedNode&)> count = [&](const MergedNode& n) {
    ++nodes;
    for (const auto& c : n.children) count(c);
  };
  for (const auto& root : snap.roots) count(root);
  EXPECT_EQ(nodes, kNodeCapacity);
  // obs::reset() reclaims the pool: recording works again afterwards.
  obs::reset();
  {
    const ScopedSpan s(Span::kRxDecode);
  }
  EXPECT_NE(child(merged_tree().roots, Span::kRxDecode), nullptr);
  EXPECT_EQ(merged_tree().dropped, 0u);
}

TEST(Profiler, WorkerSubtreesMergeUnderLaunchingSpan) {
  ProfilerGuard guard(true);
  {
    const ScopedSpan round(Span::kNetRound);
    util::ParallelStats stats;
    util::parallel_for(
        8,
        [](std::size_t) {
          const ScopedSpan cell(Span::kNetCellRound);
          const ScopedSpan rx(Span::kRxProcess);
        },
        4, &stats);
    EXPECT_TRUE(stats.collected);
  }
  const TreeSnapshot snap = merged_tree();
  // Workers replayed the caller's [net/round] path as context, so the
  // merged tree has one root and the worker spans hang beneath it.
  const MergedNode* round = child(snap.roots, Span::kNetRound);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->count, 1u);
  const MergedNode* cell = child(round->children, Span::kNetCellRound);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 8u);
  const MergedNode* rx = child(cell->children, Span::kRxProcess);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->count, 8u);
  // Context replicas contribute no time, so the root's exclusive time is
  // still exact (no negative-underflow from cross-thread folding).
  for (const auto& root : snap.roots) check_identity(root);
}

TEST(Profiler, TreeShapeAndCountsStableAcrossWorkerCounts) {
  // Utilization varies run to run; the attribution *structure* must not.
  struct Shape {
    std::vector<std::string> paths;  // "span count" per node, DFS order
  };
  const auto run = [](std::size_t workers) {
    ProfilerGuard guard(true);
    {
      const ScopedSpan round(Span::kNetRound);
      util::ParallelStats stats;
      util::parallel_for(
          12,
          [](std::size_t) {
            const ScopedSpan cell(Span::kNetCellRound);
          },
          workers, &stats);
      EXPECT_TRUE(stats.collected);
      EXPECT_EQ(stats.items, 12u);
      std::uint64_t items = 0;
      for (const std::uint64_t n : stats.worker_items) items += n;
      if (workers > 1) {
        EXPECT_EQ(items, 12u);  // every index executed exactly once
      }
    }
    Shape shape;
    std::function<void(const MergedNode&, const std::string&)> dfs =
        [&](const MergedNode& n, const std::string& prefix) {
          const std::string path =
              prefix + telemetry::span_name(n.span) + " x" +
              std::to_string(n.count);
          shape.paths.push_back(path);
          for (const auto& c : n.children) dfs(c, path + ";");
        };
    for (const auto& root : merged_tree().roots) dfs(root, "");
    return shape;
  };
  const Shape serial = run(1);
  const Shape two = run(2);
  const Shape eight = run(8);
  EXPECT_EQ(serial.paths, two.paths);
  EXPECT_EQ(serial.paths, eight.paths);
}

TEST(Profiler, RecordParallelAggregatesPerSite) {
  ProfilerGuard guard(true);
  util::ParallelStats stats;
  util::parallel_for(6, [](std::size_t) {}, 3, &stats);
  ASSERT_TRUE(stats.collected);
  record_parallel("test/site", stats);
  record_parallel("test/site", stats);

  const auto sites = parallel_stats();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].site, "test/site");
  EXPECT_EQ(sites[0].calls, 2u);
  EXPECT_EQ(sites[0].items, 12u);
  EXPECT_EQ(sites[0].worker_busy_ns.size(), 3u);
  std::uint64_t slot_busy = 0;
  for (const std::uint64_t b : sites[0].worker_busy_ns) slot_busy += b;
  EXPECT_EQ(slot_busy, sites[0].busy_ns);
  EXPECT_GE(sites[0].worst_imbalance, 1.0);
}

TEST(Profiler, RecordParallelIgnoresUncollectedStats) {
  ProfilerGuard guard(true);
  util::ParallelStats stats;  // collected == false
  stats.items = 99;
  record_parallel("test/ghost", stats);
  EXPECT_TRUE(parallel_stats().empty());
}

TEST(Profiler, ResetClearsTreeAndSites) {
  ProfilerGuard guard(true);
  {
    const ScopedSpan s(Span::kRxProcess);
  }
  util::ParallelStats stats;
  util::parallel_for(4, [](std::size_t) {}, 2, &stats);
  record_parallel("test/reset", stats);
  ASSERT_FALSE(merged_tree().roots.empty());
  ASSERT_FALSE(parallel_stats().empty());
  obs::reset();
  EXPECT_TRUE(merged_tree().roots.empty());
  EXPECT_TRUE(parallel_stats().empty());
  EXPECT_EQ(merged_tree().dropped, 0u);
}

}  // namespace
}  // namespace cbma::profiler
