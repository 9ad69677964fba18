// Unit and property tests for the indexed min-heap and the magnitude top-K
// tracker — the data structures under every active-set / truncation method.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "util/indexed_heap.h"
#include "util/random.h"
#include "util/status.h"
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

// Entries are 16 bytes. Every Entry in this file is built with designated
// initializers, so reordering the fields cannot swap value and priority
// unnoticed.
static_assert(sizeof(IndexedMinHeap::Entry) == 16);

// A reference for IndexedMinHeap: the same array, kept by the textbook
// swap-based sifts, with keys found by linear scan instead of through an
// index. The heap's hole-moving sifts must leave the same array.
class LinearScanHeap {
 public:
  using Entry = IndexedMinHeap::Entry;

  const std::vector<Entry>& entries() const { return heap_; }

  void Insert(uint32_t key, double priority, float value) {
    heap_.push_back(Entry{.key = key, .value = value, .priority = priority});
    SiftUp(heap_.size() - 1);
  }

  void Update(uint32_t key, double priority, float value) {
    const size_t i = IndexOf(key);
    heap_[i].priority = priority;
    heap_[i].value = value;
    if (!SiftUp(i)) SiftDown(i);
  }

  Entry Remove(uint32_t key) {
    const size_t i = IndexOf(key);
    const Entry removed = heap_[i];
    const size_t last = heap_.size() - 1;
    heap_[i] = heap_[last];
    heap_.pop_back();
    if (i != last && !SiftUp(i)) SiftDown(i);
    return removed;
  }

  Entry PopMin() { return Remove(heap_[0].key); }

 private:
  size_t IndexOf(uint32_t key) const {
    for (size_t i = 0; i < heap_.size(); ++i) {
      if (heap_[i].key == key) return i;
    }
    ADD_FAILURE() << "key " << key << " not in the reference heap";
    return 0;
  }

  bool SiftUp(size_t i) {
    bool moved = false;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (heap_[parent].priority <= heap_[i].priority) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
      moved = true;
    }
    return moved;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      const size_t l = 2 * i + 1;
      const size_t r = 2 * i + 2;
      size_t smallest = i;
      if (l < n && heap_[l].priority < heap_[smallest].priority) smallest = l;
      if (r < n && heap_[r].priority < heap_[smallest].priority) smallest = r;
      if (smallest == i) break;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Entry> heap_;
};

// Property: under a random operation mix over hard keys, the heap agrees
// with a key -> (priority, value) model on every key of the pool, its array
// equals the linear-scan reference's after every operation, and its index
// maps every stored key to the slot that holds it. Array order decides
// eviction ties, so the equality pins model evolution to the sift code,
// whatever the index does. Updates go by key (Update) and by slot (SlotOf,
// then UpdateAt) in turn. The pool holds:
//  * 0 and 0xFFFFFFFF (no key value may mark an empty index cell);
//  * a group whose hash puts all of them in the last cell of every index
//    size up to 4096 cells, so their probe runs wrap to cell 0 and
//    backward-shift deletion moves cells across the wrap;
//  * random keys, enough for the index to grow from its first array at
//    least three times before the heap is drained.
TEST(IndexedMinHeapTest, RandomOpsAgainstReferenceModel) {
  constexpr size_t kMaxCells = 4096;
  std::vector<uint32_t> pool = {0u, 0xffffffffu};
  std::vector<uint32_t> wrapping;
  for (uint32_t key = 1; wrapping.size() < 12; ++key) {
    if (KeySlotIndex::HomeCell(key, kMaxCells) == kMaxCells - 1) wrapping.push_back(key);
  }
  pool.insert(pool.end(), wrapping.begin(), wrapping.end());
  Rng rng(7);
  while (pool.size() < 300) {
    const uint32_t key = rng.NextU32();
    if (std::find(pool.begin(), pool.end(), key) == pool.end()) pool.push_back(key);
  }
  const auto pick = [&]() {
    // Favour the hard keys so they are often live together.
    if (rng.NextDouble() < 0.3) return pool[rng.Bounded(2 + wrapping.size())];
    return pool[rng.Bounded(pool.size())];
  };

  IndexedMinHeap heap;
  LinearScanHeap ref;
  std::map<uint32_t, std::pair<double, float>> model;  // key -> (priority, value)
  size_t peak = 0;
  const auto check = [&](int step) {
    ASSERT_EQ(heap.size(), model.size()) << "step " << step;
    ASSERT_EQ(heap.entries().size(), ref.entries().size()) << "step " << step;
    for (size_t i = 0; i < ref.entries().size(); ++i) {
      ASSERT_EQ(heap.entries()[i].key, ref.entries()[i].key) << "step " << step << " slot " << i;
      ASSERT_EQ(heap.entries()[i].priority, ref.entries()[i].priority);
      ASSERT_EQ(heap.entries()[i].value, ref.entries()[i].value);
      ASSERT_EQ(heap.SlotOf(heap.entries()[i].key), i) << "step " << step << " slot " << i;
      ASSERT_EQ(&heap.At(i), &heap.entries()[i]);
    }
    for (const uint32_t key : pool) {
      const auto it = model.find(key);
      ASSERT_EQ(heap.Contains(key), it != model.end()) << "step " << step << " key " << key;
      const IndexedMinHeap::Entry* e = heap.Find(key);
      if (it == model.end()) {
        ASSERT_EQ(e, nullptr) << "step " << step << " key " << key;
        ASSERT_EQ(heap.SlotOf(key), IndexedMinHeap::kNoSlot) << "step " << step << " key " << key;
        continue;
      }
      ASSERT_NE(e, nullptr) << "step " << step << " key " << key;
      ASSERT_EQ(e->key, key);
      ASSERT_EQ(e->priority, it->second.first);
      ASSERT_EQ(e->value, it->second.second);
    }
  };

  // Fill, churn, then drain to empty.
  const double insert_share[] = {0.8, 0.5, 0.1};
  int step = 0;
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 6000 || (phase == 2 && !model.empty()); ++i, ++step) {
      const double op = rng.NextDouble();
      if (op < insert_share[phase]) {
        const uint32_t key = pick();
        // Few distinct priorities, so ties are common.
        const double priority = static_cast<double>(rng.Bounded(16));
        const float value = static_cast<float>(step);
        if (model.count(key)) {
          if (step % 2 == 0) {
            heap.Update(key, priority, value);
          } else {
            heap.UpdateAt(heap.SlotOf(key), priority, value);
          }
          ref.Update(key, priority, value);
        } else {
          heap.Insert(key, priority, value);
          ref.Insert(key, priority, value);
        }
        model[key] = {priority, value};
      } else if (model.empty()) {
        continue;
      } else if (op < (1.0 + insert_share[phase]) / 2) {
        const IndexedMinHeap::Entry got = heap.PopMin();
        const IndexedMinHeap::Entry want = ref.PopMin();
        ASSERT_EQ(got.key, want.key) << "step " << step;
        model.erase(got.key);
      } else {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.Bounded(model.size())));
        const uint32_t key = it->first;
        ASSERT_EQ(heap.Remove(key).key, key);
        ref.Remove(key);
        model.erase(it);
      }
      peak = std::max(peak, heap.size());
      check(step);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_TRUE(heap.empty());
  // The index is at most half full, so holding more than 4 * kMinCells keys
  // took more than 8 * kMinCells cells: three or more doublings.
  EXPECT_GT(peak, 4 * KeySlotIndex::kMinCells);
}

// RestoreHeapOrder guards the snapshot loaders: a duplicate key or a parent
// above its child is rejected and leaves the heap as it was; a valid array
// is taken in its exact order with every key findable.
TEST(IndexedMinHeapTest, RestoreHeapOrderRejectsBadArraysAndKeepsTheHeap) {
  using Entry = IndexedMinHeap::Entry;
  IndexedMinHeap heap;
  for (const uint32_t key : {5u, 9u, 0u, 0xffffffffu, 12u}) {
    heap.Insert(key, static_cast<double>(key % 7), static_cast<float>(key));
  }
  const std::vector<Entry> before = heap.entries();
  const auto expect_unchanged = [&](const char* what) {
    ASSERT_EQ(heap.entries().size(), before.size()) << what;
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(heap.entries()[i].key, before[i].key) << what;
      EXPECT_EQ(heap.entries()[i].priority, before[i].priority) << what;
      EXPECT_EQ(heap.entries()[i].value, before[i].value) << what;
      const Entry* e = heap.Find(before[i].key);
      ASSERT_NE(e, nullptr) << what;
      EXPECT_EQ(e->key, before[i].key) << what;
    }
    EXPECT_FALSE(heap.Contains(1)) << what;
  };

  const Status dup = heap.RestoreHeapOrder({{.key = 1, .value = 0.f, .priority = 1.0},
                                            {.key = 2, .value = 0.f, .priority = 2.0},
                                            {.key = 1, .value = 0.f, .priority = 3.0}});
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  expect_unchanged("duplicate key");

  const Status order = heap.RestoreHeapOrder({{.key = 1, .value = 0.f, .priority = 1.0},
                                              {.key = 2, .value = 0.f, .priority = 3.0},
                                              {.key = 3, .value = 0.f, .priority = 0.5}});
  EXPECT_EQ(order.code(), StatusCode::kInvalidArgument);
  expect_unchanged("parent above child");

  const std::vector<Entry> valid = {{.key = 7, .value = 1.f, .priority = 1.0},
                                    {.key = 3, .value = 2.f, .priority = 1.0},
                                    {.key = 0xffffffffu, .value = 3.f, .priority = 2.0},
                                    {.key = 0, .value = 4.f, .priority = 1.5},
                                    {.key = 8, .value = 5.f, .priority = 1.0}};
  ASSERT_TRUE(heap.RestoreHeapOrder(valid).ok());
  ASSERT_EQ(heap.entries().size(), valid.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    EXPECT_EQ(heap.entries()[i].key, valid[i].key);
    EXPECT_EQ(heap.entries()[i].priority, valid[i].priority);
    EXPECT_EQ(heap.entries()[i].value, valid[i].value);
    const Entry* e = heap.Find(valid[i].key);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->key, valid[i].key);
    EXPECT_EQ(e->value, valid[i].value);
  }
  for (const uint32_t gone : {5u, 9u, 12u}) EXPECT_FALSE(heap.Contains(gone));
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
      next.push_back({.key = key,
                      .value = static_cast<float>(i),
                      .priority = static_cast<double>(rng.Bounded(8))});
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

// The slot API (SlotOf, ValueAt, AddAt, Insert of an absent feature) drives
// a tracker to the same array as the key API (Get, Add, Set) under a random
// mix of refreshes, inserts and evictions.
TEST(TopKHeapTest, SlotApiMatchesKeyApi) {
  TopKHeap by_key(24);
  TopKHeap by_slot(24);
  Rng rng(23);
  for (int step = 0; step < 20000; ++step) {
    const uint32_t feature = static_cast<uint32_t>(rng.Bounded(64));
    const float delta = static_cast<float>(rng.NextGaussian());
    const size_t slot = by_slot.SlotOf(feature);
    ASSERT_EQ(slot != TopKHeap::kNoSlot, by_key.Contains(feature)) << "step " << step;
    if (slot != TopKHeap::kNoSlot) {
      ASSERT_EQ(by_slot.ValueAt(slot), by_key.Get(feature).value());
      by_key.Add(feature, delta);
      by_slot.AddAt(slot, delta);
    } else if (!by_key.full()) {
      by_key.Set(feature, delta);
      by_slot.Insert(feature, delta);
    } else if (std::fabs(delta) > std::fabs(by_key.Min().weight)) {
      ASSERT_EQ(by_key.PopMin(), by_slot.PopMin());
      by_key.Set(feature, delta);
      by_slot.Insert(feature, delta);
    }
    const std::vector<FeatureWeight> want = by_key.Entries();
    ASSERT_EQ(by_slot.Entries(), want) << "step " << step;
  }
  EXPECT_TRUE(by_slot.full());
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
