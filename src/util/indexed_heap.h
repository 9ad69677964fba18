#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wmsketch {

/// An open-addressing map from u32 keys to slot numbers: the key → array-slot
/// index under IndexedMinHeap, and the duplicate-key check of the loaders
/// that validate heap sections.
///
/// One power-of-two array of packed cells `(slot + 1) << 32 | key`, kept at
/// most a quarter full: the first insertion allocates kMinCells cells, and
/// the array doubles whenever another key would fill more than a quarter of
/// it. A cell of 0 is empty, so every u32 (0 and 0xFFFFFFFF included) is a
/// valid key. A key's probe starts at its home cell (the top bits of a
/// multiplicative hash) and moves linearly. Erase shifts the rest of the
/// probe run back instead of leaving a tombstone: a full AWM active set
/// evicts a key every other update or so, so tombstones would pile up.
/// Memory is O(number of keys), independent of the key range.
class KeySlotIndex {
 public:
  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kMinCells = 16;

  /// The cell where the probe for `key` starts in an array of `capacity`
  /// cells (a power of two, at least 2).
  static size_t HomeCell(uint32_t key, size_t capacity) {
    return Home(key, 64 - std::countr_zero(capacity));
  }

  /// The slot stored for `key`, or kNotFound.
  size_t Find(uint32_t key) const {
    if (cells_.empty()) return kNotFound;
    for (size_t i = Home(key, shift_);; i = (i + 1) & mask_) {
      const uint64_t cell = cells_[i];
      if (cell == 0) return kNotFound;
      if (static_cast<uint32_t>(cell) == key) return static_cast<size_t>(cell >> 32) - 1;
    }
  }

  /// Maps `key` to `slot` if `key` is absent and returns true; returns false
  /// and changes nothing if it is present. Requires slot < 2^32 - 1.
  bool Insert(uint32_t key, size_t slot) {
    if (kCellsPerKey * (size_ + 1) > cells_.size()) {
      Rehash(std::max(kMinCells, 2 * cells_.size()));
    }
    const size_t i = Probe(key);
    if (cells_[i] != 0) return false;
    cells_[i] = Pack(key, slot);
    ++size_;
    return true;
  }

  /// Maps `key` to `slot`, inserting it if absent.
  void Set(uint32_t key, size_t slot) {
    if (!cells_.empty()) {
      const size_t i = Probe(key);
      if (cells_[i] != 0) {
        cells_[i] = Pack(key, slot);
        return;
      }
    }
    Insert(key, slot);
  }

  /// Removes `key`; returns false if it was absent.
  bool Erase(uint32_t key) {
    if (cells_.empty()) return false;
    size_t hole = Probe(key);
    if (cells_[hole] == 0) return false;
    // Knuth's Algorithm R: a later cell of the run moves into the hole
    // unless its home lies cyclically in (hole, j], where a probe for its
    // key would no longer pass the hole.
    for (size_t j = (hole + 1) & mask_; cells_[j] != 0; j = (j + 1) & mask_) {
      const size_t home = Home(static_cast<uint32_t>(cells_[j]), shift_);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = 0;
    --size_;
    return true;
  }

  /// Makes room for `n` keys without growing again.
  void Reserve(size_t n) {
    size_t cells = std::max(kMinCells, cells_.size());
    while (cells < kCellsPerKey * n) cells <<= 1;
    if (cells != cells_.size()) Rehash(cells);
  }

  /// Removes every key; the array keeps its capacity.
  void Clear() {
    std::fill(cells_.begin(), cells_.end(), uint64_t{0});
    size_ = 0;
  }

  /// Bytes of the cell array.
  size_t Bytes() const { return cells_.size() * sizeof(uint64_t); }

 private:
  // Cells per key at the fullest. At half full, where a power-of-two active
  // set sits whenever it is full, half of all misses probe past their home
  // cell and the branch ending the probe mispredicts; a quarter-full array
  // made the AWM update about a third faster at the 16 KB (|S| = 1024) shape.
  static constexpr size_t kCellsPerKey = 4;

  // Fibonacci hashing: the top 64 - shift bits of key · 2^64/φ.
  static size_t Home(uint32_t key, int shift) {
    return static_cast<size_t>((uint64_t{key} * 0x9e3779b97f4a7c15ULL) >> shift);
  }

  static uint64_t Pack(uint32_t key, size_t slot) {
    assert(slot < 0xffffffffu);
    return (static_cast<uint64_t>(slot) + 1) << 32 | key;
  }

  // The cell holding `key`, or the empty cell that ends its probe run.
  // Requires a nonempty array.
  size_t Probe(uint32_t key) const {
    size_t i = Home(key, shift_);
    while (cells_[i] != 0 && static_cast<uint32_t>(cells_[i]) != key) i = (i + 1) & mask_;
    return i;
  }

  void Rehash(size_t cells) {
    std::vector<uint64_t> old(cells, 0);
    old.swap(cells_);
    mask_ = cells - 1;
    shift_ = 64 - std::countr_zero(cells);
    for (const uint64_t cell : old) {
      if (cell == 0) continue;
      size_t i = Home(static_cast<uint32_t>(cell), shift_);
      while (cells_[i] != 0) i = (i + 1) & mask_;
      cells_[i] = cell;
    }
  }

  std::vector<uint64_t> cells_;
  size_t size_ = 0;
  size_t mask_ = 0;  // cells_.size() - 1
  int shift_ = 64;   // 64 - log2(cells_.size()); unused while empty
};

/// A binary min-heap over (key, priority, value) entries with O(1) key
/// lookup through a KeySlotIndex, supporting the decrease/increase-key
/// operations that the active-set classifiers need.
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
  bool Contains(uint32_t key) const { return pos_.Find(key) != KeySlotIndex::kNotFound; }

  /// Returns a pointer to the entry for `key`, or nullptr if absent. The
  /// pointer is invalidated by any mutating call.
  const Entry* Find(uint32_t key) const {
    const size_t i = pos_.Find(key);
    if (i == KeySlotIndex::kNotFound) return nullptr;
    return &heap_[i];
  }

  /// Inserts a new entry. Requires that `key` is not already present.
  void Insert(uint32_t key, double priority, float value) {
    assert(!Contains(key));
    heap_.push_back(Entry{key, priority, value});
    pos_.Insert(key, heap_.size() - 1);
    SiftUp(heap_.size() - 1);
  }

  /// Updates the priority and value of an existing entry, restoring heap
  /// order. Requires that `key` is present.
  void Update(uint32_t key, double priority, float value) {
    const size_t i = pos_.Find(key);
    assert(i != KeySlotIndex::kNotFound);
    heap_[i].priority = priority;
    heap_[i].value = value;
    if (!SiftUp(i)) SiftDown(i);
  }

  /// Removes the entry for `key`. Requires that `key` is present.
  Entry Remove(uint32_t key) {
    const size_t i = pos_.Find(key);
    assert(i != KeySlotIndex::kNotFound);
    const Entry removed = heap_[i];
    const size_t last = heap_.size() - 1;
    if (i != last) {
      MoveInto(i, last);
      heap_.pop_back();
      pos_.Erase(removed.key);
      if (!SiftUp(i)) SiftDown(i);
    } else {
      heap_.pop_back();
      pos_.Erase(removed.key);
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

  /// Bytes of the key → slot index (the entry array is not included).
  size_t IndexBytes() const { return pos_.Bytes(); }

  /// Replaces the heap's contents with `entries`, preserving their array
  /// order exactly (snapshot-restore support). Array order matters because
  /// eviction tie-breaking among equal priorities depends on it: restoring
  /// a sorted or re-sifted copy would make post-restore evictions diverge
  /// from the never-serialized run. Returns InvalidArgument for duplicate
  /// keys or a sequence violating the heap property, leaving the heap as it
  /// was.
  Status RestoreHeapOrder(std::vector<Entry> entries) {
    KeySlotIndex pos;
    pos.Reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!pos.Insert(entries[i].key, i)) {
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
  /// index keeps its array and the cells of keys present before and after,
  /// and a key arriving in the slot it already held costs no index operation
  /// at all. Requires distinct keys.
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
          pos_.Set(e.key, i);
        }
        heap_[i] = e;
      } else {
        heap_.push_back(e);
        pos_.Set(e.key, i);
      }
      SiftUp(i);
    }
    for (size_t i = n; i < old_size; ++i) displaced.push_back(heap_[i].key);
    heap_.resize(n);
    // A displaced key that did not come back still maps to its stale slot,
    // which now holds another key or lies past the end.
    for (const uint32_t key : displaced) {
      const size_t i = pos_.Find(key);
      if (i != KeySlotIndex::kNotFound && (i >= n || heap_[i].key != key)) pos_.Erase(key);
    }
  }

  /// Removes all entries.
  void Clear() {
    heap_.clear();
    pos_.Clear();
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
    pos_.Set(heap_[a].key, a);
    pos_.Set(heap_[b].key, b);
  }

  // Overwrites slot `dst` with the entry at slot `src` (used by Remove).
  void MoveInto(size_t dst, size_t src) {
    heap_[dst] = heap_[src];
    pos_.Set(heap_[dst].key, dst);
  }

  std::vector<Entry> heap_;
  KeySlotIndex pos_;
};

}  // namespace wmsketch
