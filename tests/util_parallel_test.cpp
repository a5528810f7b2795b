#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace soda::util {
namespace {

// A number unique to the calling thread. Unlike std::thread::id it is never
// reused after a thread exits, so it tells a new thread from a recycled one.
std::uint64_t ThreadSerial() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t serial =
      next.fetch_add(1, std::memory_order_relaxed);
  return serial;
}

TEST(EffectiveThreads, ClampsToWorkAndHardware) {
  EXPECT_EQ(EffectiveThreads(4, 0), 1);
  EXPECT_EQ(EffectiveThreads(4, 1), 1);
  EXPECT_EQ(EffectiveThreads(4, 2), 2);
  EXPECT_EQ(EffectiveThreads(4, 100), 4);
  EXPECT_EQ(EffectiveThreads(1, 100), 1);
  // 0 / negative = hardware concurrency, still at least 1 and at most n.
  EXPECT_GE(EffectiveThreads(0, 100), 1);
  EXPECT_LE(EffectiveThreads(0, 100), 100);
  EXPECT_GE(EffectiveThreads(-3, 2), 1);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    const std::size_t n = 153;
    std::vector<std::atomic<int>> visits(n);
    ParallelFor(n, threads, [&](int worker, std::size_t i) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, threads);
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, ZeroItemsIsANoop) {
  bool called = false;
  ParallelFor(0, 8, [&](int, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SerialFallbackRunsOnCallingWorkerInOrder) {
  std::vector<std::size_t> order;
  ParallelFor(5, 1, [&](int worker, std::size_t i) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstExceptionAndStops) {
  for (const int threads : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      ParallelFor(1000, threads, [&](int, std::size_t i) {
        if (i == 3) throw std::runtime_error("boom");
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      FAIL() << "expected the worker exception to propagate";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom");
    }
    // The abort flag keeps the pool from draining all remaining work.
    EXPECT_LT(ran.load(), 1000);
  }
}

TEST(ParallelFor, PerWorkerStateIsExclusive) {
  const int threads = 4;
  const std::size_t n = 400;
  // One non-atomic counter per worker: TSan (and the sum check) verify the
  // worker id really partitions the state.
  std::vector<long> per_worker(static_cast<std::size_t>(threads), 0);
  ParallelFor(n, threads, [&](int worker, std::size_t) {
    per_worker[static_cast<std::size_t>(worker)]++;
  });
  long total = 0;
  for (const long count : per_worker) total += count;
  EXPECT_EQ(total, static_cast<long>(n));
}

// Workers persist across calls: 200 calls at 4 threads run on the caller
// plus the same 3 pool threads, not on 600 fresh ones. Each item sleeps so
// that a call lasts long enough for its helpers to take items; with empty
// items the caller can finish a call alone and no helper is ever seen.
TEST(ParallelFor, ReusesPersistentWorkers) {
  const std::uint64_t caller = ThreadSerial();
  std::mutex mu;
  std::set<std::uint64_t> helpers;
  for (int call = 0; call < 200; ++call) {
    ParallelFor(64, 4, [&](int, std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      const std::uint64_t self = ThreadSerial();
      if (self == caller) return;
      const std::lock_guard<std::mutex> lock(mu);
      helpers.insert(self);
    });
  }
  EXPECT_LE(helpers.size(), 3u);
}

// A ParallelFor inside a running callback, on the caller or on a pool
// worker, must neither deadlock nor lose or repeat an index.
TEST(ParallelFor, NestedCallsVisitEveryPairOnce) {
  constexpr std::size_t kOuter = 24;
  constexpr std::size_t kInner = 40;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  ParallelFor(kOuter, 4, [&](int, std::size_t outer) {
    ParallelFor(kInner, 4, [&](int worker, std::size_t inner) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 4);
      visits[outer * kInner + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "pair " << i / kInner << ", "
                                   << i % kInner;
  }
}

// Calls from several threads at once: whichever caller finds the pool busy
// runs inline, and per-worker state stays exclusive within every call.
TEST(ParallelFor, ConcurrentCallersGetExactSums) {
  constexpr int kCallers = 4;
  constexpr int kCalls = 100;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&wrong, t] {
      for (int call = 0; call < kCalls; ++call) {
        const std::size_t n = 50 + static_cast<std::size_t>(7 * t + call % 13);
        std::vector<std::size_t> per_worker(4, 0);
        ParallelFor(n, 4, [&](int worker, std::size_t i) {
          per_worker[static_cast<std::size_t>(worker)] += i + 1;
        });
        std::size_t total = 0;
        for (const std::size_t part : per_worker) total += part;
        if (total != n * (n + 1) / 2) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ParallelFor, PoolStaysUsableAfterAnException) {
  EXPECT_THROW(ParallelFor(100, 4,
                           [](int, std::size_t i) {
                             if (i == 10) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  std::atomic<std::size_t> sum{0};
  ParallelFor(100, 4, [&](int, std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace soda::util
