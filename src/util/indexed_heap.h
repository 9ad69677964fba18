#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wmsketch {

/// A binary min-heap over (key, priority, value) entries with O(1) key
/// lookup, supporting the decrease/increase-key operations that the
/// active-set classifiers need.
///
/// * `key`      — 32-bit feature identifier (unique within the heap).
/// * `priority` — the heap order; the minimum-priority entry is at the root.
/// * `value`    — an arbitrary payload scalar (e.g. the model weight).
///
/// Used by: the AWM-Sketch active set and the simple-truncation baseline
/// (priority = |weight|), the probabilistic-truncation baseline (priority =
/// reservoir key), the Count-Min frequent-features baseline (priority =
/// estimated count), and the Space-Saving stream summary (priority = count).
class IndexedMinHeap {
 public:
  struct Entry {
    uint32_t key;
    double priority;
    float value;
  };

  IndexedMinHeap() = default;

  /// Number of entries currently stored.
  size_t size() const { return heap_.size(); }
  /// True iff the heap is empty.
  bool empty() const { return heap_.empty(); }

  /// True iff `key` is present.
  bool Contains(uint32_t key) const { return pos_.find(key) != pos_.end(); }

  /// Returns a pointer to the entry for `key`, or nullptr if absent. The
  /// pointer is invalidated by any mutating call.
  const Entry* Find(uint32_t key) const {
    auto it = pos_.find(key);
    if (it == pos_.end()) return nullptr;
    return &heap_[it->second];
  }

  /// Inserts a new entry. Requires that `key` is not already present.
  void Insert(uint32_t key, double priority, float value) {
    assert(!Contains(key));
    heap_.push_back(Entry{key, priority, value});
    pos_[key] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }

  /// Updates the priority and value of an existing entry, restoring heap
  /// order. Requires that `key` is present.
  void Update(uint32_t key, double priority, float value) {
    auto it = pos_.find(key);
    assert(it != pos_.end());
    const size_t i = it->second;
    heap_[i].priority = priority;
    heap_[i].value = value;
    if (!SiftUp(i)) SiftDown(i);
  }

  /// Removes the entry for `key`. Requires that `key` is present.
  Entry Remove(uint32_t key) {
    auto it = pos_.find(key);
    assert(it != pos_.end());
    const size_t i = it->second;
    const Entry removed = heap_[i];
    const size_t last = heap_.size() - 1;
    if (i != last) {
      MoveInto(i, last);
      heap_.pop_back();
      pos_.erase(removed.key);
      if (!SiftUp(i)) SiftDown(i);
    } else {
      heap_.pop_back();
      pos_.erase(removed.key);
    }
    return removed;
  }

  /// The minimum-priority entry. Requires non-empty.
  const Entry& Min() const {
    assert(!heap_.empty());
    return heap_[0];
  }

  /// Removes and returns the minimum-priority entry. Requires non-empty.
  Entry PopMin() {
    assert(!heap_.empty());
    return Remove(heap_[0].key);
  }

  /// Applies `fn(Entry&)` to every entry. The caller must guarantee that the
  /// mutation preserves the relative priority order of all entries (e.g.
  /// multiplying every priority by the same positive constant); the heap is
  /// not re-sifted. Used for O(n) global ℓ2-regularization decay.
  template <typename Fn>
  void MutateAllOrderPreserving(Fn fn) {
    for (Entry& e : heap_) fn(e);
  }

  /// All entries in unspecified (heap) order.
  const std::vector<Entry>& entries() const { return heap_; }

  /// Replaces the heap's contents with `entries`, preserving their array
  /// order exactly (snapshot-restore support). Array order matters because
  /// eviction tie-breaking among equal priorities depends on it: restoring
  /// a sorted or re-sifted copy would make post-restore evictions diverge
  /// from the never-serialized run. Returns InvalidArgument for duplicate
  /// keys or a sequence violating the heap property.
  Status RestoreHeapOrder(std::vector<Entry> entries) {
    std::unordered_map<uint32_t, size_t> pos;
    pos.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!pos.emplace(entries[i].key, i).second) {
        return Status::InvalidArgument("duplicate heap key");
      }
      if (i > 0 && entries[(i - 1) / 2].priority > entries[i].priority) {
        return Status::InvalidArgument("entries violate the heap property");
      }
    }
    heap_ = std::move(entries);
    pos_ = std::move(pos);
    return Status::OK();
  }

  /// Replaces the contents with `n` entries taken in order from
  /// `entry_at(i)`. The array comes out exactly as after Clear() and an
  /// Insert() of each, but the work is proportional to what changed: the
  /// index keeps its buckets and the nodes of keys present before and
  /// after, and a key arriving in the slot it already held costs no index
  /// operation at all. Requires distinct keys.
  template <typename EntryAt>
  void Assign(size_t n, EntryAt entry_at) {
    // Slot i is overwritten in order, so when entry i arrives slots [0, i)
    // hold the new prefix (the only slots its SiftUp touches) and slot i
    // still holds its old entry. Keys are distinct, so if that old entry has
    // the same key, no earlier step remapped it and the index already says i.
    std::vector<uint32_t> displaced;  // old keys overwritten by another key
    const size_t old_size = heap_.size();
    for (size_t i = 0; i < n; ++i) {
      const Entry e = entry_at(i);
      if (i < old_size) {
        if (heap_[i].key != e.key) {
          displaced.push_back(heap_[i].key);
          pos_.insert_or_assign(e.key, i);
        }
        heap_[i] = e;
      } else {
        heap_.push_back(e);
        pos_.insert_or_assign(e.key, i);
      }
      SiftUp(i);
    }
    for (size_t i = n; i < old_size; ++i) displaced.push_back(heap_[i].key);
    heap_.resize(n);
    // A displaced key that did not come back still maps to its stale slot,
    // which now holds another key or lies past the end.
    for (const uint32_t key : displaced) {
      const auto it = pos_.find(key);
      if (it != pos_.end() && (it->second >= n || heap_[it->second].key != key)) {
        pos_.erase(it);
      }
    }
  }

  /// Removes all entries.
  void Clear() {
    heap_.clear();
    pos_.clear();
  }

 private:
  // Returns true if the entry moved.
  bool SiftUp(size_t i) {
    bool moved = false;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (heap_[parent].priority <= heap_[i].priority) break;
      Swap(i, parent);
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
      Swap(i, smallest);
      i = smallest;
    }
  }

  void Swap(size_t a, size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[heap_[a].key] = a;
    pos_[heap_[b].key] = b;
  }

  // Overwrites slot `dst` with the entry at slot `src` (used by Remove).
  void MoveInto(size_t dst, size_t src) {
    heap_[dst] = heap_[src];
    pos_[heap_[dst].key] = dst;
  }

  std::vector<Entry> heap_;
  std::unordered_map<uint32_t, size_t> pos_;
};

}  // namespace wmsketch
