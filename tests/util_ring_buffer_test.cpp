// util::RingBuffer — absolute-position indexing, lazy power-of-two growth,
// release/retention and wrap-aware copies: the storage contract the
// streaming receiver's O(window) guarantee rests on (DESIGN.md §9).
#include "util/ring_buffer.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace cbma::util {
namespace {

TEST(RingBuffer, AbsoluteIndexingSurvivesGrowth) {
  RingBuffer<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 100; ++i) ring.push(i);
  EXPECT_EQ(ring.begin(), 0u);
  EXPECT_EQ(ring.end(), 100u);
  EXPECT_GE(ring.capacity(), 100u);
  for (std::uint64_t pos = 0; pos < 100; ++pos) {
    EXPECT_EQ(ring[pos], static_cast<int>(pos));
  }
}

TEST(RingBuffer, ReleaseBoundsCapacityUnderSteadyState) {
  RingBuffer<double> ring(8);
  // Live span never exceeds 6 → capacity must settle at 8 forever.
  for (int i = 0; i < 10000; ++i) {
    ring.push(static_cast<double>(i));
    if (ring.size() > 6) ring.release(ring.end() - 6);
  }
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 6u);
  for (std::uint64_t pos = ring.begin(); pos < ring.end(); ++pos) {
    EXPECT_EQ(ring[pos], static_cast<double>(pos));
  }
}

TEST(RingBuffer, ReleaseIsMonotonicAndClamped) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.push(i);
  ring.release(6);
  EXPECT_EQ(ring.begin(), 6u);
  ring.release(3);  // backwards: no-op
  EXPECT_EQ(ring.begin(), 6u);
  ring.release(1000);  // past end: clamps to empty
  EXPECT_EQ(ring.begin(), 10u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(RingBuffer, CopyOutHandlesWrap) {
  RingBuffer<int> ring(8);
  for (int i = 0; i < 21; ++i) {
    ring.push(i);
    if (ring.size() > 7) ring.release(ring.end() - 7);
  }
  // Live span [14, 21) straddles the 8-slot wrap point.
  std::vector<int> out;
  ring.copy_out(15, 20, out);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(out[k], static_cast<int>(15 + k));
  }
  ring.copy_out(14, 14, out);
  EXPECT_TRUE(out.empty());
}

TEST(RingBuffer, CopyOutRejectsReleasedRange) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.push(i);
  ring.release(5);
  std::vector<int> out;
  EXPECT_THROW(ring.copy_out(4, 8, out), std::invalid_argument);
  EXPECT_THROW(ring.copy_out(8, 11, out), std::invalid_argument);
  EXPECT_NO_THROW(ring.copy_out(5, 10, out));
}

TEST(RingBuffer, ClearKeepsHighWaterCapacity) {
  RingBuffer<int> ring(2);
  for (int i = 0; i < 300; ++i) ring.push(i);
  const std::size_t grown = ring.capacity();
  EXPECT_GE(grown, 300u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.begin(), 0u);
  EXPECT_EQ(ring.capacity(), grown);
  ring.push(42);
  EXPECT_EQ(ring[0], 42);
}

TEST(RingBuffer, RandomizedAgainstDequeModel) {
  RingBuffer<int> ring(4);
  std::deque<std::pair<std::uint64_t, int>> model;  // (position, value)
  std::uint64_t next = 0;
  cbma::Rng rng(7);
  for (int step = 0; step < 5000; ++step) {
    const int op = rng.uniform_int(0, 9);
    if (op < 7) {
      const int v = rng.uniform_int(-1000, 1000);
      ring.push(v);
      model.emplace_back(next++, v);
    } else if (!model.empty()) {
      const auto keep = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(model.size())));
      const std::uint64_t floor = next - keep;
      ring.release(floor);
      while (!model.empty() && model.front().first < floor) model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      const auto probe = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(model.size()) - 1));
      ASSERT_EQ(ring[model[probe].first], model[probe].second);
    }
  }
}

}  // namespace
}  // namespace cbma::util
