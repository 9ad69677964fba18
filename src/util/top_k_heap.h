#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/indexed_heap.h"

namespace wmsketch {

/// A (feature, weight) pair; the unit of top-K weight retrieval across the
/// library.
struct FeatureWeight {
  uint32_t feature;
  float weight;

  bool operator==(const FeatureWeight& other) const = default;
};

/// Fixed-capacity tracker of the K largest-magnitude feature weights.
///
/// This is the "min-heap ordered by the absolute value of the estimated
/// weights" of Sec. 5.2: a bounded IndexedMinHeap keyed by |weight| whose
/// root is the smallest-magnitude retained feature. All memory-budgeted
/// classifiers use it either passively (WM-Sketch top-K tracking) or as
/// their primary store (truncation baselines, AWM active set).
class TopKHeap {
 public:
  /// Constructs a tracker retaining at most `capacity` features.
  /// Requires capacity >= 1.
  explicit TopKHeap(size_t capacity) : capacity_(capacity) {}

  /// SlotOf's answer for an untracked feature.
  static constexpr size_t kNoSlot = IndexedMinHeap::kNoSlot;

  size_t capacity() const { return capacity_; }
  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() >= capacity_; }
  bool Contains(uint32_t feature) const { return heap_.Contains(feature); }

  /// The slot of a tracked feature, or kNoSlot: one index probe. The slot
  /// addresses the feature (ValueAt, AddAt) until the next mutating call.
  size_t SlotOf(uint32_t feature) const { return heap_.SlotOf(feature); }

  /// The weight in `slot`. Requires slot < size().
  float ValueAt(size_t slot) const { return heap_.At(slot).value; }

  /// Returns the weight stored for `feature`, or nullopt if untracked.
  std::optional<float> Get(uint32_t feature) const {
    const IndexedMinHeap::Entry* e = heap_.Find(feature);
    if (e == nullptr) return std::nullopt;
    return e->value;
  }

  /// Sets (inserts or overwrites) the weight for a feature that is either
  /// already tracked or for which there is spare capacity; use Offer() for
  /// the evicting path. Requires Contains(feature) || !full().
  void Set(uint32_t feature, float weight) {
    const size_t slot = heap_.SlotOf(feature);
    if (slot != kNoSlot) {
      heap_.UpdateAt(slot, std::fabs(weight), weight);
    } else {
      heap_.Insert(feature, std::fabs(weight), weight);
    }
  }

  /// Tracks a feature known to be untracked, skipping the membership probe
  /// Set() makes. Requires !Contains(feature) && !full().
  void Insert(uint32_t feature, float weight) {
    heap_.Insert(feature, std::fabs(weight), weight);
  }

  /// Offers a (feature, weight) estimate. If the feature is tracked, its
  /// weight is refreshed. Otherwise it is admitted if there is capacity or
  /// if |weight| beats the current minimum magnitude, in which case the
  /// displaced minimum entry is returned so the caller can spill it (the
  /// AWM-Sketch folds it back into its sketch).
  std::optional<FeatureWeight> Offer(uint32_t feature, float weight) {
    const size_t slot = heap_.SlotOf(feature);
    if (slot != kNoSlot) {
      heap_.UpdateAt(slot, std::fabs(weight), weight);
      return std::nullopt;
    }
    if (!full()) {
      heap_.Insert(feature, std::fabs(weight), weight);
      return std::nullopt;
    }
    const IndexedMinHeap::Entry& min = heap_.Min();
    if (std::fabs(weight) <= min.priority) return std::nullopt;
    const IndexedMinHeap::Entry evicted = heap_.PopMin();
    heap_.Insert(feature, std::fabs(weight), weight);
    return FeatureWeight{evicted.key, evicted.value};
  }

  /// The minimum-magnitude tracked entry. Requires non-empty.
  FeatureWeight Min() const {
    const IndexedMinHeap::Entry& min = heap_.Min();
    return FeatureWeight{min.key, min.value};
  }

  /// Removes and returns the minimum-magnitude entry. Requires non-empty.
  FeatureWeight PopMin() {
    const IndexedMinHeap::Entry e = heap_.PopMin();
    return FeatureWeight{e.key, e.value};
  }

  /// Removes a tracked feature. Requires Contains(feature).
  FeatureWeight Remove(uint32_t feature) {
    const IndexedMinHeap::Entry e = heap_.Remove(feature);
    return FeatureWeight{e.key, e.value};
  }

  /// Multiplies every tracked weight by `factor` (> 0). Magnitude order is
  /// preserved, so this is a single O(size) pass with no re-sifting; it is
  /// the heap half of the lazy ℓ2-decay `S ← (1-λη)S` in Algorithm 2.
  void Scale(float factor) {
    heap_.MutateAllOrderPreserving([factor](IndexedMinHeap::Entry& e) {
      e.value *= factor;
      e.priority *= factor;
    });
  }

  /// Adds `delta` to the weight of a tracked feature. Requires
  /// Contains(feature).
  void Add(uint32_t feature, float delta) { AddAt(heap_.SlotOf(feature), delta); }

  /// Add() to the feature in `slot`. Requires slot < size().
  void AddAt(size_t slot, float delta) {
    const float w = heap_.At(slot).value + delta;
    heap_.UpdateAt(slot, std::fabs(w), w);
  }

  /// Replaces the tracked set with `entries`: the result is the tracker an
  /// empty one becomes by Set() of each entry in order (so entries in
  /// heap-array order reproduce that array exactly). Reuses the index; see
  /// IndexedMinHeap::Assign. Requires entries.size() <= capacity() and
  /// distinct features.
  void Assign(std::span<const FeatureWeight> entries) {
    heap_.Assign(entries.size(), [entries](size_t i) {
      const FeatureWeight& fw = entries[i];
      return IndexedMinHeap::Entry{
          .key = fw.feature, .value = fw.weight, .priority = std::fabs(fw.weight)};
    });
  }

  /// Visits every tracked entry as fn(feature, weight), in heap-array
  /// order (the order Entries() returns).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& e : heap_.entries()) fn(e.key, e.value);
  }

  /// All tracked entries in unspecified order.
  std::vector<FeatureWeight> Entries() const {
    std::vector<FeatureWeight> out;
    out.reserve(heap_.size());
    for (const auto& e : heap_.entries()) out.push_back(FeatureWeight{e.key, e.value});
    return out;
  }

  /// Bytes the tracker holds as stored: its entries at
  /// sizeof(IndexedMinHeap::Entry) each (a 4-byte id and weight plus an
  /// 8-byte priority, where the Sec. 7.1 cost model, HeapBytes, charges 8)
  /// plus the feature → slot index, which that model does not charge.
  size_t ResidentBytes() const {
    return heap_.size() * sizeof(IndexedMinHeap::Entry) + heap_.IndexBytes();
  }

  /// The k largest-magnitude entries, sorted by descending |weight|
  /// (ties broken by ascending feature id for determinism).
  std::vector<FeatureWeight> TopK(size_t k) const;

 private:
  size_t capacity_;
  IndexedMinHeap heap_;
};

/// Sorts (in place) by descending |weight|, ties by ascending feature id, and
/// truncates to at most `k` entries. Shared by every classifier's TopK().
void SortByMagnitudeAndTruncate(std::vector<FeatureWeight>& entries, size_t k);

}  // namespace wmsketch
