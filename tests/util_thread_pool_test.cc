#include "util/thread_pool.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hytgraph {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  pool.ParallelFor(
      touched.size(),
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          touched[i].fetch_add(1);
        }
      },
      /*min_grain=*/1);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, SmallInputRunsSerially) {
  ThreadPool pool(8);
  int shard_seen = -1;
  pool.ParallelFor(
      10,
      [&](int shard, uint64_t begin, uint64_t end) {
        shard_seen = shard;
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
      },
      /*min_grain=*/1024);
  EXPECT_EQ(shard_seen, 0);
}

TEST(ThreadPoolTest, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](int, uint64_t, uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ShardsAreContiguousAndOrdered) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  pool.ParallelFor(
      100000,
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(begin, end);
      },
      /*min_grain=*/1);
  std::sort(ranges.begin(), ranges.end());
  uint64_t expected = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected);
    EXPECT_LT(begin, end);
    expected = end;
  }
  EXPECT_EQ(expected, 100000u);
}

TEST(ThreadPoolTest, DeterministicShardedReduction) {
  // Static chunking means per-shard partials combine identically run to run.
  ThreadPool pool(6);
  auto reduce = [&] {
    std::vector<double> partials(pool.num_threads(), 0.0);
    pool.ParallelFor(
        50000,
        [&](int shard, uint64_t begin, uint64_t end) {
          for (uint64_t i = begin; i < end; ++i) {
            partials[shard] += 1.0 / (1.0 + static_cast<double>(i));
          }
        },
        /*min_grain=*/1);
    return std::accumulate(partials.begin(), partials.end(), 0.0);
  };
  const double first = reduce();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(reduce(), first);  // bitwise equal, not just near
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(
        1000,
        [&](int, uint64_t begin, uint64_t end) {
          total.fetch_add(end - begin);
        },
        /*min_grain=*/1);
  }
  EXPECT_EQ(total.load(), 50000u);
}

TEST(ThreadPoolTest, DefaultPoolIsSingleton) {
  EXPECT_EQ(ThreadPool::Default(), ThreadPool::Default());
  EXPECT_GT(ThreadPool::Default()->num_threads(), 0);
}

#if defined(__linux__)
TEST(ThreadPoolTest, AutoSizeFollowsTheCallersCpuAffinity) {
  // A fresh thread pins itself to one CPU it already has (the process and
  // this test's own thread are untouched); an auto-sized pool built there
  // must then start no workers.
  bool pinned = false;
  int auto_threads = 0;
  std::thread probe([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &set)) ++cpu;
    if (cpu == CPU_SETSIZE) return;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) return;
    pinned = true;
    auto_threads = ThreadPool(0).num_threads();
  });
  probe.join();
  ASSERT_TRUE(pinned) << "could not restrict the probe thread's affinity";
  EXPECT_EQ(auto_threads, 1);
}
#endif

TEST(ThreadPoolTest, NestedParallelForDegradesToSerialInsteadOfDeadlocking) {
  // The Engine's batched queries run ParallelFor from inside pool workers
  // (kernel loops nested under the per-query fan-out). The nested call must
  // run serially on the calling worker and still cover every index.
  ThreadPool pool(4);
  std::atomic<uint64_t> inner_total{0};
  std::atomic<int> nested_parallel{0};
  pool.ParallelFor(
      8,
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        EXPECT_TRUE(ThreadPool::InWorkerThread());
        for (uint64_t i = begin; i < end; ++i) {
          pool.ParallelFor(
              1000,
              [&](int inner_shard, uint64_t ib, uint64_t ie) {
                if (inner_shard != 0) nested_parallel.fetch_add(1);
                inner_total.fetch_add(ie - ib);
              },
              /*min_grain=*/1);
        }
      },
      /*min_grain=*/1);
  EXPECT_EQ(inner_total.load(), 8000u);
  EXPECT_EQ(nested_parallel.load(), 0);  // nested calls stayed serial
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, CallerRunsShardZeroAndItsNestedCallStaysSerial) {
  // Shard 0 runs on the calling thread while it holds the submission lock:
  // a nested ParallelFor from it must run serially, not block on that lock.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> shard0_calls{0};
  uint64_t inner_begin = 1;
  uint64_t inner_end = 0;
  int inner_shard = -1;
  int inner_calls = 0;
  pool.ParallelFor(
      4000,
      [&](int shard, uint64_t /*begin*/, uint64_t /*end*/) {
        if (shard != 0) return;
        shard0_calls.fetch_add(1);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_TRUE(ThreadPool::InWorkerThread());
        pool.ParallelFor(
            100000,
            [&](int s, uint64_t b, uint64_t e) {
              ++inner_calls;
              inner_shard = s;
              inner_begin = b;
              inner_end = e;
            },
            /*min_grain=*/1);
      },
      /*min_grain=*/1);
  EXPECT_EQ(shard0_calls.load(), 1);
  EXPECT_EQ(inner_calls, 1);
  EXPECT_EQ(inner_shard, 0);
  EXPECT_EQ(inner_begin, 0u);
  EXPECT_EQ(inner_end, 100000u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelFor(
      100000,
      [&](int shard, uint64_t begin, uint64_t end) {
        ++calls;
        EXPECT_EQ(shard, 0);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 100000u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      /*min_grain=*/1);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, CallerWorkerMarkIsRestoredAfterTheBatch) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  ASSERT_FALSE(ThreadPool::InWorkerThread());
  pool.ParallelFor(
      10000,
      [&](int, uint64_t begin, uint64_t end) {
        EXPECT_TRUE(ThreadPool::InWorkerThread());
        total.fetch_add(end - begin);
      },
      /*min_grain=*/1);
  EXPECT_EQ(total.load(), 10000u);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, ShardExceptionsWaitForWorkersAndPropagate) {
  // The workers still reference the batch when the caller's shard throws:
  // ParallelFor must wait them out before unwinding, and the pool stays
  // usable afterwards.
  ThreadPool pool(4);
  std::atomic<int> worker_shards_done{0};
  EXPECT_THROW(pool.ParallelFor(
                   4000,
                   [&](int shard, uint64_t, uint64_t) {
                     if (shard == 0) throw std::runtime_error("shard 0");
                     worker_shards_done.fetch_add(1);
                   },
                   /*min_grain=*/1),
               std::runtime_error);
  EXPECT_EQ(worker_shards_done.load(), pool.num_threads() - 1);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  // A worker shard's exception reaches the caller too.
  EXPECT_THROW(pool.ParallelFor(
                   4000,
                   [&](int shard, uint64_t, uint64_t) {
                     if (shard == 1) throw std::runtime_error("shard 1");
                   },
                   /*min_grain=*/1),
               std::runtime_error);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(
      4000, [&](int, uint64_t b, uint64_t e) { total.fetch_add(e - b); },
      /*min_grain=*/1);
  EXPECT_EQ(total.load(), 4000u);
}

TEST(ThreadPoolTest, ConcurrentTopLevelCallersSerializeSafely) {
  // Two user threads driving the same pool must not clobber each other's
  // batches (Engine::Run may be called concurrently).
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  auto driver = [&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(
          5000,
          [&](int, uint64_t begin, uint64_t end) {
            total.fetch_add(end - begin);
          },
          /*min_grain=*/1);
    }
  };
  std::thread a(driver);
  std::thread b(driver);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2u * 20u * 5000u);
}

}  // namespace
}  // namespace hytgraph
