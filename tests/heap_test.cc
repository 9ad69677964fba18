// Unit and property tests for the indexed min-heap and the magnitude top-K
// tracker — the data structures under every active-set / truncation method.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/indexed_heap.h"
#include "util/random.h"
#include "util/top_k_heap.h"

namespace wmsketch {
namespace {

// ---------------------------------------------------------- IndexedMinHeap

TEST(IndexedMinHeapTest, EmptyBasics) {
  IndexedMinHeap heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.Contains(1));
  EXPECT_EQ(heap.Find(1), nullptr);
}

TEST(IndexedMinHeapTest, InsertFindMin) {
  IndexedMinHeap heap;
  heap.Insert(10, 3.0, 1.0f);
  heap.Insert(20, 1.0, 2.0f);
  heap.Insert(30, 2.0, 3.0f);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.Min().key, 20u);
  ASSERT_NE(heap.Find(30), nullptr);
  EXPECT_EQ(heap.Find(30)->value, 3.0f);
}

TEST(IndexedMinHeapTest, UpdateMovesEntries) {
  IndexedMinHeap heap;
  heap.Insert(1, 1.0, 0.0f);
  heap.Insert(2, 2.0, 0.0f);
  heap.Insert(3, 3.0, 0.0f);
  heap.Update(1, 10.0, 0.0f);  // demote the old min
  EXPECT_EQ(heap.Min().key, 2u);
  heap.Update(3, 0.5, 0.0f);  // promote
  EXPECT_EQ(heap.Min().key, 3u);
}

TEST(IndexedMinHeapTest, RemoveArbitrary) {
  IndexedMinHeap heap;
  for (uint32_t k = 0; k < 10; ++k) heap.Insert(k, static_cast<double>(k), 0.0f);
  const IndexedMinHeap::Entry removed = heap.Remove(5);
  EXPECT_EQ(removed.key, 5u);
  EXPECT_FALSE(heap.Contains(5));
  EXPECT_EQ(heap.size(), 9u);
  EXPECT_EQ(heap.Min().key, 0u);
}

TEST(IndexedMinHeapTest, RemoveLastSlotEntry) {
  IndexedMinHeap heap;
  heap.Insert(1, 1.0, 0.0f);
  heap.Insert(2, 2.0, 0.0f);
  heap.Remove(2);  // tail position — exercises the no-swap path
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.Min().key, 1u);
}

TEST(IndexedMinHeapTest, PopMinDrainsInPriorityOrder) {
  IndexedMinHeap heap;
  Rng rng(99);
  for (uint32_t k = 0; k < 200; ++k) heap.Insert(k, rng.NextDouble(), 0.0f);
  double prev = -1.0;
  while (!heap.empty()) {
    const IndexedMinHeap::Entry e = heap.PopMin();
    EXPECT_GE(e.priority, prev);
    prev = e.priority;
  }
}

// Property: against a reference std::multimap model under a random operation
// mix, the heap min always matches.
TEST(IndexedMinHeapTest, RandomOpsAgainstReferenceModel) {
  IndexedMinHeap heap;
  std::map<uint32_t, double> model;  // key -> priority
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.Bounded(64));
    const double op = rng.NextDouble();
    if (op < 0.5) {
      const double pri = rng.NextDouble();
      if (model.count(key)) {
        heap.Update(key, pri, 0.0f);
      } else {
        heap.Insert(key, pri, 0.0f);
      }
      model[key] = pri;
    } else if (op < 0.7 && !model.empty() && model.count(key)) {
      heap.Remove(key);
      model.erase(key);
    } else if (!model.empty()) {
      auto min_it = std::min_element(
          model.begin(), model.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      EXPECT_EQ(heap.Min().priority, min_it->second);
    }
    ASSERT_EQ(heap.size(), model.size());
  }
}

// Property: Assign leaves the array a fresh heap gets from Insert() of each
// entry in order, and an index that agrees with it, whatever the heap held
// before: entries that stay in their slot, move, arrive, or leave; sizes
// that grow or shrink; and sequences that do or do not satisfy the heap
// property (the latter sift exactly as Insert would sift them).
TEST(IndexedMinHeapTest, AssignMatchesInsertInOrder) {
  Rng rng(11);
  IndexedMinHeap heap;
  std::vector<IndexedMinHeap::Entry> prev;
  for (int round = 0; round < 300; ++round) {
    // Next contents: a random mix of the previous keys (often in their old
    // slot order) and fresh ones, with random priorities.
    std::vector<IndexedMinHeap::Entry> next;
    const size_t n = static_cast<size_t>(rng.Bounded(40));
    std::vector<bool> used(200, false);
    for (size_t i = 0; i < n; ++i) {
      uint32_t key;
      if (i < prev.size() && rng.NextDouble() < 0.7 && !used[prev[i].key]) {
        key = prev[i].key;
      } else {
        do {
          key = static_cast<uint32_t>(rng.Bounded(200));
        } while (used[key]);
      }
      used[key] = true;
      next.push_back({key, static_cast<double>(rng.Bounded(8)), static_cast<float>(i)});
    }
    heap.Assign(next.size(), [&next](size_t i) { return next[i]; });

    IndexedMinHeap fresh;
    for (const IndexedMinHeap::Entry& e : next) fresh.Insert(e.key, e.priority, e.value);
    ASSERT_EQ(heap.size(), fresh.size()) << "round " << round;
    for (size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(heap.entries()[i].key, fresh.entries()[i].key) << "round " << round;
      ASSERT_EQ(heap.entries()[i].priority, fresh.entries()[i].priority);
      ASSERT_EQ(heap.entries()[i].value, fresh.entries()[i].value);
    }
    for (uint32_t key = 0; key < 200; ++key) {
      ASSERT_EQ(heap.Contains(key), fresh.Contains(key)) << "round " << round << " key " << key;
      if (const IndexedMinHeap::Entry* e = heap.Find(key)) {
        ASSERT_EQ(e->key, key);
      }
    }
    // The index must stay usable by the ordinary operations.
    if (!heap.empty()) {
      const IndexedMinHeap::Entry min = heap.PopMin();
      ASSERT_EQ(min.key, fresh.PopMin().key);
      heap.Insert(min.key, min.priority, min.value);
    }
    prev = heap.entries();
  }
}

// --------------------------------------------------------------- TopKHeap

TEST(TopKHeapTest, OfferBelowCapacityAlwaysAdmits) {
  TopKHeap heap(3);
  EXPECT_FALSE(heap.Offer(1, 0.1f).has_value());
  EXPECT_FALSE(heap.Offer(2, -0.2f).has_value());
  EXPECT_FALSE(heap.Offer(3, 0.05f).has_value());
  EXPECT_TRUE(heap.full());
}

TEST(TopKHeapTest, OfferEvictsSmallestMagnitude) {
  TopKHeap heap(2);
  heap.Offer(1, 1.0f);
  heap.Offer(2, -3.0f);
  auto evicted = heap.Offer(3, 2.0f);  // beats |1.0|
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->feature, 1u);
  EXPECT_EQ(evicted->weight, 1.0f);
  EXPECT_FALSE(heap.Contains(1));
  EXPECT_TRUE(heap.Contains(3));
}

TEST(TopKHeapTest, OfferRejectsSmallerMagnitude) {
  TopKHeap heap(2);
  heap.Offer(1, 1.0f);
  heap.Offer(2, -3.0f);
  EXPECT_FALSE(heap.Offer(3, 0.5f).has_value());
  EXPECT_FALSE(heap.Contains(3));
}

TEST(TopKHeapTest, OfferRefreshesTrackedFeature) {
  TopKHeap heap(2);
  heap.Offer(1, 1.0f);
  heap.Offer(1, -5.0f);  // same feature, new estimate
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.Get(1).value(), -5.0f);
}

TEST(TopKHeapTest, MagnitudeOrderingIsSignAgnostic) {
  TopKHeap heap(3);
  heap.Offer(1, -10.0f);
  heap.Offer(2, 5.0f);
  heap.Offer(3, -1.0f);
  EXPECT_EQ(heap.Min().feature, 3u);
  const auto top = heap.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].feature, 1u);
  EXPECT_EQ(top[1].feature, 2u);
}

TEST(TopKHeapTest, ScalePreservesOrderAndValues) {
  TopKHeap heap(4);
  heap.Offer(1, 4.0f);
  heap.Offer(2, -2.0f);
  heap.Offer(3, 1.0f);
  heap.Scale(0.5f);
  EXPECT_EQ(heap.Get(1).value(), 2.0f);
  EXPECT_EQ(heap.Get(2).value(), -1.0f);
  EXPECT_EQ(heap.Min().feature, 3u);
}

TEST(TopKHeapTest, AddShiftsWeight) {
  TopKHeap heap(2);
  heap.Set(7, 1.0f);
  heap.Add(7, -3.0f);
  EXPECT_EQ(heap.Get(7).value(), -2.0f);
}

TEST(TopKHeapTest, CapacityOne) {
  TopKHeap heap(1);
  heap.Offer(1, 1.0f);
  auto evicted = heap.Offer(2, 2.0f);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->feature, 1u);
  EXPECT_EQ(heap.TopK(5).size(), 1u);
}

TEST(TopKHeapTest, TopKSortedWithDeterministicTies) {
  TopKHeap heap(4);
  heap.Offer(9, 1.0f);
  heap.Offer(3, -1.0f);
  heap.Offer(5, 2.0f);
  const auto top = heap.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].feature, 5u);
  EXPECT_EQ(top[1].feature, 3u);  // tie |1.0| broken by ascending id
  EXPECT_EQ(top[2].feature, 9u);
}

// Property: offered a long random stream, the heap retains exactly the K
// largest-magnitude final values of distinct keys seen... since Offer keyed
// re-offers replace values, emulate with distinct keys only.
TEST(TopKHeapTest, RetainsLargestOfDistinctStream) {
  const size_t k = 16;
  TopKHeap heap(k);
  Rng rng(5);
  std::vector<FeatureWeight> all;
  for (uint32_t f = 0; f < 500; ++f) {
    const float w = static_cast<float>(rng.NextGaussian());
    all.push_back({f, w});
    heap.Offer(f, w);
  }
  SortByMagnitudeAndTruncate(all, k);
  const auto got = heap.TopK(k);
  ASSERT_EQ(got.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(got[i].feature, all[i].feature) << i;
    EXPECT_EQ(got[i].weight, all[i].weight) << i;
  }
}

}  // namespace
}  // namespace wmsketch
