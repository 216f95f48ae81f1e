#include "engine/frontier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>
#include <vector>

namespace hytgraph {
namespace {

TEST(FrontierTest, ActivateOnceSemantics) {
  Frontier f(100);
  EXPECT_TRUE(f.Empty());
  EXPECT_TRUE(f.Activate(5));
  EXPECT_FALSE(f.Activate(5));  // already active
  EXPECT_TRUE(f.IsActive(5));
  EXPECT_EQ(f.CountActive(), 1u);
}

TEST(FrontierTest, CollectIsSortedAscending) {
  Frontier f(200);
  for (VertexId v : {150u, 3u, 77u, 3u, 199u}) f.Activate(v);
  EXPECT_EQ(f.Collect(), (std::vector<VertexId>{3, 77, 150, 199}));
}

TEST(FrontierTest, CollectRangeIsHalfOpen) {
  Frontier f(100);
  for (VertexId v : {10u, 20u, 30u}) f.Activate(v);
  std::vector<VertexId> out;
  f.CollectRange(10, 30, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{10, 20}));
}

TEST(FrontierTest, DrainRangeRemovesAndReturns) {
  Frontier f(100);
  for (VertexId v : {10u, 20u, 30u, 50u}) f.Activate(v);
  const auto drained = f.DrainRange(0, 40);
  EXPECT_EQ(drained, (std::vector<VertexId>{10, 20, 30}));
  EXPECT_EQ(f.CountActive(), 1u);
  EXPECT_TRUE(f.IsActive(50));
  EXPECT_FALSE(f.IsActive(20));
}

TEST(FrontierTest, DeactivateAllowsReactivation) {
  Frontier f(10);
  f.Activate(3);
  f.Deactivate(3);
  EXPECT_FALSE(f.IsActive(3));
  EXPECT_TRUE(f.Activate(3));
}

TEST(FrontierTest, ClearEmptiesEverything) {
  Frontier f(64);
  for (VertexId v = 0; v < 64; v += 2) f.Activate(v);
  f.Clear();
  EXPECT_TRUE(f.Empty());
}

TEST(FrontierTest, CountIsMaintainedIncrementally) {
  Frontier f(256);
  EXPECT_EQ(f.CountActive(), 0u);
  f.Activate(1);
  f.Activate(1);  // duplicate: count unchanged
  f.Activate(200);
  EXPECT_EQ(f.CountActive(), 2u);
  f.Deactivate(1);
  f.Deactivate(1);  // double-deactivate: count unchanged
  EXPECT_EQ(f.CountActive(), 1u);
  f.DrainRange(0, 256);
  EXPECT_EQ(f.CountActive(), 0u);
  EXPECT_TRUE(f.Empty());
}

TEST(FrontierTest, CollectIntoReusesTheCallerBuffer) {
  Frontier f(128);
  for (VertexId v : {5u, 64u, 127u}) f.Activate(v);
  std::vector<VertexId> buffer = {999, 998};  // stale content is discarded
  buffer.reserve(128);
  const VertexId* data = buffer.data();
  f.CollectInto(&buffer);
  EXPECT_EQ(buffer, (std::vector<VertexId>{5, 64, 127}));
  EXPECT_EQ(buffer.data(), data);  // capacity reused, no reallocation
  f.Clear();
  f.Activate(7);
  f.CollectInto(&buffer);
  EXPECT_EQ(buffer, (std::vector<VertexId>{7}));
}

TEST(FrontierTest, WordsExposeTheBitmapDensely) {
  Frontier f(130);
  f.Activate(0);
  f.Activate(64);
  f.Activate(129);
  const auto words = f.Words();
  ASSERT_EQ(words.size(), 3u);  // ceil(130 / 64)
  EXPECT_EQ(words[0].load(), 1ull);
  EXPECT_EQ(words[1].load(), 1ull);
  EXPECT_EQ(words[2].load(), 1ull << (129 % Frontier::kBitsPerWord));
}

TEST(FrontierTest, ConcurrentActivationExactlyOneWinner) {
  Frontier f(1 << 12);
  std::atomic<uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (VertexId v = 0; v < f.num_vertices(); ++v) {
        if (f.Activate(v)) wins.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), f.num_vertices());
  EXPECT_EQ(f.CountActive(), f.num_vertices());
}

TEST(FrontierTest, MarkedBitsAreCountedOnlyThroughAddCounts) {
  Frontier f(256);
  EXPECT_TRUE(f.MarkActive(3));
  EXPECT_FALSE(f.MarkActive(3));
  EXPECT_TRUE(f.MarkActive(200));
  EXPECT_TRUE(f.IsActive(3));
  EXPECT_EQ(f.CountActive(), 0u);  // the producer has not published yet
  f.AddCounts(2, 7 + 5);
  EXPECT_EQ(f.CountActive(), 2u);
  EXPECT_TRUE(f.ScoutValid());
  EXPECT_EQ(f.ScoutCount(), 12u);
  EXPECT_TRUE(f.MarkInactive(3));
  EXPECT_FALSE(f.MarkInactive(3));
  f.AddCounts(-1, -7);  // a drain publishes negative totals
  EXPECT_EQ(f.CountActive(), 1u);
  EXPECT_EQ(f.ScoutCount(), 5u);
}

TEST(FrontierTest, ConcurrentProducersPublishExactTotals) {
  // Eight producers race on every bit; each tallies its own wins and
  // publishes once, so the totals count every vertex exactly once.
  Frontier f(1 << 12);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      int64_t active = 0;
      int64_t scout = 0;
      for (VertexId v = 0; v < f.num_vertices(); ++v) {
        if (f.MarkActive(v)) {
          ++active;
          scout += v % 5;  // a stand-in out-degree
        }
      }
      f.AddCounts(active, scout);
    });
  }
  for (auto& th : threads) th.join();
  uint64_t expected_scout = 0;
  for (VertexId v = 0; v < f.num_vertices(); ++v) expected_scout += v % 5;
  EXPECT_EQ(f.CountActive(), f.num_vertices());
  EXPECT_EQ(f.ScoutCount(), expected_scout);
}

TEST(FrontierTest, MarkWordReturnsOnlyTheBitsItSet) {
  Frontier f(200);  // words 0..3; word 3 holds vertices 192..199
  EXPECT_TRUE(f.MarkActive(65));
  // Vertices 64, 65 and 69: 65 was set already.
  const uint64_t bits = (1ULL << 0) | (1ULL << 1) | (1ULL << 5);
  EXPECT_EQ(f.MarkWord(1, bits), (1ULL << 0) | (1ULL << 5));
  EXPECT_EQ(f.MarkWord(1, bits), 0u);  // every bit set already
  EXPECT_EQ(f.MarkWord(3, 1ULL << 7), 1ULL << 7);
  EXPECT_EQ(f.Collect(), (std::vector<VertexId>{64, 65, 69, 199}));
  EXPECT_EQ(f.CountActive(), 0u);  // counted only through AddCounts
}

TEST(FrontierTest, ConcurrentMarkWordsSetEachBitOnce) {
  // Eight producers OR overlapping masks into every word; each bit is
  // reported as flipped by exactly one of them.
  Frontier f(1 << 12);
  const uint64_t words = f.num_vertices() / Frontier::kBitsPerWord;
  std::atomic<uint64_t> flipped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t mask = 0x0F0F0F0F0F0F0F0FULL << (t % 5);
      uint64_t local = 0;
      for (uint64_t w = 0; w < words; ++w) {
        local += std::popcount(f.MarkWord(w, mask));
        local += std::popcount(f.MarkWord(w, ~mask));
      }
      flipped.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(flipped.load(), f.num_vertices());
  EXPECT_EQ(f.Collect().size(), f.num_vertices());
}

}  // namespace
}  // namespace hytgraph
