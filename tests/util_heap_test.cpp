#include "util/indexed_heap.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace soda::util {
namespace {

TEST(IndexedMinHeap, PopsHandlesInKeyOrder) {
  const std::vector<double> keys = {5.0, 1.0, 4.0, 2.0, 3.0};
  const auto key = [&](std::size_t i) { return keys[i]; };
  IndexedMinHeap<decltype(key)> heap(key, keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) heap.Push(i);
  std::vector<std::size_t> order;
  while (!heap.Empty()) order.push_back(heap.PopTop());
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 4, 2, 0}));
}

TEST(IndexedMinHeap, SurvivesUniformDecay) {
  // All members' keys shift by the same amount between heap operations —
  // the shared-link engine's usage pattern (every in-flight download loses
  // share * dt per event). The heap must keep serving the minimum.
  std::vector<double> keys = {0.9, 0.3, 0.7, 0.5};
  const auto key = [&](std::size_t i) { return keys[i]; };
  IndexedMinHeap<decltype(key)> heap(key, keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) heap.Push(i);

  for (double& k : keys) k -= 0.2999;
  EXPECT_EQ(heap.Top(), 1u);
  EXPECT_EQ(heap.PopTop(), 1u);

  // Reinsert with a fresh key (a new download), decay again, drain.
  keys[1] = 2.0;
  heap.Push(1);
  for (double& k : keys) k -= 0.1;
  EXPECT_EQ(heap.PopTop(), 3u);
  EXPECT_EQ(heap.PopTop(), 2u);
  EXPECT_EQ(heap.PopTop(), 0u);
  EXPECT_EQ(heap.PopTop(), 1u);
  EXPECT_TRUE(heap.Empty());
}

TEST(IndexedMinHeap, FuzzAgainstLinearScan) {
  Rng rng(0xD0DA);
  constexpr std::size_t kSlots = 48;
  std::vector<double> keys(kSlots, 0.0);
  std::vector<bool> in_heap(kSlots, false);
  const auto key = [&](std::size_t i) { return keys[i]; };
  IndexedMinHeap<decltype(key)> heap(key, kSlots);

  for (int step = 0; step < 5000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.45) {
      // Push a random free slot with a fresh key.
      std::size_t slot = rng.UniformInt(kSlots);
      for (std::size_t probe = 0; probe < kSlots && in_heap[slot]; ++probe) {
        slot = (slot + 1) % kSlots;
      }
      if (in_heap[slot]) continue;
      keys[slot] = rng.Uniform(0.0, 100.0);
      in_heap[slot] = true;
      heap.Push(slot);
    } else if (op < 0.7) {
      // Uniform decay of every member.
      const double decay = rng.Uniform(0.0, 5.0);
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (in_heap[i]) keys[i] -= decay;
      }
    } else if (op < 0.78) {
      // Reassign the top's key in place (the engine's completion →
      // next-download fusion) and re-sift.
      if (!heap.Empty()) {
        keys[heap.Top()] = rng.Uniform(0.0, 100.0);
        heap.ResiftTop();
      }
    } else if (!heap.Empty()) {
      // Pop and compare against a linear scan for the minimum key.
      double min_key = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (in_heap[i] && keys[i] < min_key) min_key = keys[i];
      }
      EXPECT_EQ(keys[heap.Top()], min_key);
      const std::size_t popped = heap.PopTop();
      EXPECT_TRUE(in_heap[popped]);
      EXPECT_EQ(keys[popped], min_key);
      in_heap[popped] = false;
    }
    EXPECT_EQ(heap.Size(),
              static_cast<std::size_t>(
                  std::count(in_heap.begin(), in_heap.end(), true)));
  }
}

// Differential fuzz of the batch operations (ProcessMatching /
// DrainMatching / Assign) and the linear-search mutators (Update /
// Remove) against a sorted-vector model. Keys are drawn from a tiny set
// so duplicates — the crown batch-pop's whole reason to exist — dominate
// every operation; uniform decay keeps fractional keys in play.
void FuzzBatchOpsOneSeed(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  constexpr std::size_t kSlots = 40;
  std::vector<double> keys(kSlots, 0.0);
  std::vector<bool> in_heap(kSlots, false);
  const auto key = [&](std::size_t i) { return keys[i]; };
  IndexedMinHeap<decltype(key)> heap(key, kSlots);
  std::vector<std::size_t> drained;

  // Adversarial key pool: heavy duplication, including exact ties at the
  // drain threshold.
  const auto fresh_key = [&] {
    return static_cast<double>(rng.UniformInt(4)) * 10.0;
  };
  const auto member_count = [&] {
    return static_cast<std::size_t>(
        std::count(in_heap.begin(), in_heap.end(), true));
  };
  const auto min_key = [&] {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < kSlots; ++i) {
      if (in_heap[i]) best = std::min(best, keys[i]);
    }
    return best;
  };

  for (int step = 0; step < 3000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.30) {
      std::size_t slot = rng.UniformInt(kSlots);
      for (std::size_t probe = 0; probe < kSlots && in_heap[slot]; ++probe) {
        slot = (slot + 1) % kSlots;
      }
      if (in_heap[slot]) continue;
      keys[slot] = fresh_key();
      in_heap[slot] = true;
      heap.Push(slot);
    } else if (op < 0.42) {
      const double decay = rng.Uniform(0.0, 3.0);
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (in_heap[i]) keys[i] -= decay;
      }
    } else if (op < 0.57) {
      // DrainMatching at a threshold chosen to hit equal-key batches. The
      // drained set must be exactly the model's matching set.
      const double bound = min_key() + (rng.Chance(0.5) ? 0.0 : 10.0);
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (in_heap[i] && keys[i] <= bound) expected.push_back(i);
      }
      drained.clear();
      const std::size_t removed = heap.DrainMatching(
          [&](double k) { return k <= bound; }, drained);
      EXPECT_EQ(removed, drained.size());
      std::sort(drained.begin(), drained.end());
      EXPECT_EQ(drained, expected);
      for (const std::size_t i : drained) in_heap[i] = false;
    } else if (op < 0.70) {
      // ProcessMatching with a mixed visitor: some members re-key in place
      // (completion rolling into the next download), some drop out.
      const double bound = min_key() + (rng.Chance(0.5) ? 0.0 : 10.0);
      std::size_t expected = 0;
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (in_heap[i] && keys[i] <= bound) ++expected;
      }
      const std::size_t visited = heap.ProcessMatching(
          [&](double k) { return k <= bound; },
          [&](std::size_t i) {
            if ((i % 3) == 0) {
              in_heap[i] = false;
              return false;
            }
            // Keys may only be reassigned to no-smaller values in place.
            keys[i] += 10.0 + static_cast<double>(rng.UniformInt(3)) * 10.0;
            return true;
          });
      EXPECT_EQ(visited, expected);
    } else if (op < 0.78) {
      // Update: arbitrary in-place re-key of a random member.
      const std::size_t slot = rng.UniformInt(kSlots);
      keys[slot] = fresh_key() - rng.Uniform(0.0, 5.0);
      EXPECT_EQ(heap.Update(slot), in_heap[slot]);
    } else if (op < 0.86) {
      // Remove: a random slot, member or not.
      const std::size_t slot = rng.UniformInt(kSlots);
      EXPECT_EQ(heap.Remove(slot), in_heap[slot]);
      in_heap[slot] = false;
    } else if (op < 0.92) {
      // Assign: rebuild from the model's member set (Floyd heapify).
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (in_heap[i]) members.push_back(i);
      }
      heap.Assign(members.begin(), members.end());
    } else if (!heap.Empty()) {
      const double expected_min = min_key();
      EXPECT_EQ(keys[heap.Top()], expected_min);
      const std::size_t popped = heap.PopTop();
      EXPECT_TRUE(in_heap[popped]);
      in_heap[popped] = false;
    }
    ASSERT_EQ(heap.Size(), member_count());
    if (!heap.Empty()) {
      EXPECT_EQ(keys[heap.Top()], min_key());
    }
  }

  // Final drain must come out in sorted key order and cover every member.
  double prev = -std::numeric_limits<double>::infinity();
  while (!heap.Empty()) {
    const std::size_t popped = heap.PopTop();
    EXPECT_TRUE(in_heap[popped]);
    in_heap[popped] = false;
    EXPECT_GE(keys[popped], prev);
    prev = keys[popped];
  }
  EXPECT_EQ(member_count(), 0u);
}

TEST(IndexedMinHeap, FuzzBatchOpsManySeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    FuzzBatchOpsOneSeed(0xBA7C0000u + seed);
  }
}

TEST(IndexedMinHeap, AssignHeapifiesArbitraryOrder) {
  const std::vector<double> keys = {7.0, 3.0, 3.0, 9.0, 1.0, 3.0};
  const auto key = [&](std::size_t i) { return keys[i]; };
  IndexedMinHeap<decltype(key)> heap(key);
  const std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
  heap.Assign(members.begin(), members.end());
  std::vector<double> popped;
  while (!heap.Empty()) popped.push_back(keys[heap.PopTop()]);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 3.0, 3.0, 3.0, 7.0, 9.0}));
}

TEST(IndexedMinHeap, DrainMatchingTakesWholeEqualKeyCrown) {
  std::vector<double> keys = {5.0, 5.0, 5.0, 5.0, 8.0, 9.0, 5.0};
  const auto key = [&](std::size_t i) { return keys[i]; };
  IndexedMinHeap<decltype(key)> heap(key);
  for (std::size_t i = 0; i < keys.size(); ++i) heap.Push(i);
  std::vector<std::size_t> out;
  EXPECT_EQ(heap.DrainMatching([](double k) { return k <= 5.0; }, out), 5u);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2, 3, 6}));
  EXPECT_EQ(heap.Size(), 2u);
  EXPECT_EQ(keys[heap.Top()], 8.0);
}

}  // namespace
}  // namespace soda::util
