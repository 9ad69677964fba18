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

/// A binary min-heap over (key, value, priority) entries with O(1) key
/// lookup through a KeySlotIndex, supporting the decrease/increase-key
/// operations that the active-set classifiers need.
///
/// * `key`      — 32-bit feature identifier (unique within the heap).
/// * `value`    — an arbitrary payload scalar (e.g. the model weight).
/// * `priority` — the heap order; the minimum-priority entry is at the root.
///
/// An entry lives in an array slot; SlotOf() finds a key's slot with one
/// index probe, and At()/UpdateAt() then address the entry without another.
/// A slot stays valid until the next mutating call. Sifts move a hole rather
/// than swapping: each level writes one shifted entry and its index cell,
/// and the sifted entry is written once where it lands.
///
/// Used by: the AWM-Sketch active set and the simple-truncation baseline
/// (priority = |weight|), the probabilistic-truncation baseline (priority =
/// reservoir key), the Count-Min frequent-features baseline (priority =
/// estimated count), and the Space-Saving stream summary (priority = count).
class IndexedMinHeap {
 public:
  /// Build entries with designated initializers (`{.key = k, .value = v,
  /// .priority = p}`), so a field reorder is a compile error rather than a
  /// silent swap of value and priority.
  struct Entry {
    uint32_t key;
    float value;
    double priority;
  };

  static constexpr size_t kNoSlot = KeySlotIndex::kNotFound;

  IndexedMinHeap() = default;

  /// Number of entries currently stored.
  size_t size() const { return heap_.size(); }
  /// True iff the heap is empty.
  bool empty() const { return heap_.empty(); }

  /// True iff `key` is present.
  bool Contains(uint32_t key) const { return pos_.Find(key) != kNoSlot; }

  /// The slot holding `key`, or kNoSlot.
  size_t SlotOf(uint32_t key) const { return pos_.Find(key); }

  /// The entry in `slot`. Requires slot < size().
  const Entry& At(size_t slot) const {
    assert(slot < heap_.size());
    return heap_[slot];
  }

  /// Returns a pointer to the entry for `key`, or nullptr if absent. The
  /// pointer is invalidated by any mutating call.
  const Entry* Find(uint32_t key) const {
    const size_t i = pos_.Find(key);
    if (i == kNoSlot) return nullptr;
    return &heap_[i];
  }

  /// Inserts a new entry. Requires that `key` is not already present.
  void Insert(uint32_t key, double priority, float value) {
    assert(!Contains(key));
    heap_.emplace_back();
    const size_t i = HoleUp(heap_.size() - 1, priority);
    heap_[i] = Entry{.key = key, .value = value, .priority = priority};
    pos_.Insert(key, i);
  }

  /// Updates the priority and value of an existing entry, restoring heap
  /// order. Requires that `key` is present.
  void Update(uint32_t key, double priority, float value) {
    const size_t i = pos_.Find(key);
    assert(i != kNoSlot);
    UpdateAt(i, priority, value);
  }

  /// Update() of the entry in `slot`. Requires slot < size().
  void UpdateAt(size_t slot, double priority, float value) {
    assert(slot < heap_.size());
    Entry e = heap_[slot];
    e.value = value;
    e.priority = priority;
    Settle(slot, e, /*indexed_here=*/true);
  }

  /// Removes the entry for `key`. Requires that `key` is present.
  Entry Remove(uint32_t key) {
    const size_t i = pos_.Find(key);
    assert(i != kNoSlot);
    return RemoveAt(i);
  }

  /// The minimum-priority entry. Requires non-empty.
  const Entry& Min() const {
    assert(!heap_.empty());
    return heap_[0];
  }

  /// Removes and returns the minimum-priority entry. Requires non-empty.
  Entry PopMin() {
    assert(!heap_.empty());
    return RemoveAt(0);
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

  /// Bytes of the key → slot index and of TryAssign's scratch (the entry
  /// array is not included).
  size_t IndexBytes() const {
    return pos_.Bytes() + (moved_slots_.size() + moved_keys_.size()) * sizeof(uint32_t);
  }

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

  /// Replaces the contents with the `n` entries entry_at(0), ...,
  /// entry_at(n - 1) and returns true, or returns false, changing nothing,
  /// when two of them share a key. The array comes out exactly as after
  /// Clear() and an Insert() of each, so a heap array sent whole is
  /// reproduced. When the entries are in heap order, as such an array is,
  /// the work is a pass over them to check their keys and one to write
  /// them, plus, for the m keys that moved to another slot or arrived, an
  /// index update each and a sort of the m. The two scratch arrays hold n
  /// slots and keys and are kept, so nothing is allocated unless n exceeds
  /// every earlier n.
  template <typename EntryAt>
  bool TryAssign(size_t n, EntryAt entry_at) {
    const size_t old_size = heap_.size();
    const size_t kept = std::min(n, old_size);
    if (moved_slots_.size() < n) {
      moved_slots_.resize(n);
      moved_keys_.resize(n);
    }
    uint32_t* const slots = moved_slots_.data();
    uint32_t* const keys = moved_keys_.data();
    size_t moves = 0;
    // Insert() leaves entry i in slot i exactly when its parent's priority
    // is <= its own (HoleUp's test), given that the entries before it did.
    // The scan has no data-dependent branch: which slots' keys changed is
    // as good as random, so each slot and key is written unconditionally
    // and kept by advancing past it.
    size_t out_of_order = 0;
    for (size_t i = 0; i < n; ++i) {
      const Entry e = entry_at(i);
      out_of_order += !(entry_at((i - (i != 0)) / 2).priority <= e.priority);
      const bool moved = i >= kept || heap_[i].key != e.key;
      slots[moves] = static_cast<uint32_t>(i);
      keys[moves] = e.key;
      moves += moved;
    }
    // A key its slot already holds is distinct from every other such key,
    // as the heap's own keys are. So a repeat needs a key that moved or
    // arrived: twice, or once besides the unchanged slot that still holds it.
    for (size_t m = 0; m < moves; ++m) {
      const size_t slot = pos_.Find(keys[m]);
      if (slot < kept && entry_at(slot).key == keys[m]) return false;
    }
    std::sort(keys, keys + moves);
    if (std::adjacent_find(keys, keys + moves) != keys + moves) return false;

    if (out_of_order != 0) {
      AssignBySifting(n, entry_at);
      return true;
    }
    // Every entry lands in its own slot, so the index changes only where a
    // key moved. An old key the index still maps to its slot has not
    // arrived yet: it leaves the index there and re-enters it if it arrives
    // later, so the index never holds more than max(old size, n) keys.
    for (size_t m = 0; m < moves; ++m) {
      const uint32_t i = slots[m];
      if (i < old_size && pos_.Find(heap_[i].key) == i) pos_.Erase(heap_[i].key);
      pos_.Set(entry_at(i).key, i);
    }
    EraseTail(n, old_size);
    heap_.resize(n);
    for (size_t i = 0; i < n; ++i) heap_[i] = entry_at(i);
    return true;
  }

  /// Removes all entries.
  void Clear() {
    heap_.clear();
    pos_.Clear();
  }

 private:
  // Moves the hole at slot i toward the root while its parent's priority
  // exceeds `priority`, shifting each such parent down into the hole, and
  // returns the slot where an entry of that priority belongs. The hole's
  // own contents are never read.
  size_t HoleUp(size_t i, double priority) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (heap_[parent].priority <= priority) break;
      Shift(parent, i);
      i = parent;
    }
    return i;
  }

  // The downward counterpart: while a child's priority is below `priority`
  // (the smaller child when both are, the left one on a tie), shifts that
  // child up into the hole. The comparisons are those of a swap-based sift
  // of an entry with this priority, so the array comes out the same.
  size_t HoleDown(size_t i, double priority) {
    const size_t n = heap_.size();
    for (;;) {
      const size_t l = 2 * i + 1;
      const size_t r = l + 1;
      size_t smallest = i;
      double best = priority;
      if (l < n && heap_[l].priority < best) {
        smallest = l;
        best = heap_[l].priority;
      }
      if (r < n && heap_[r].priority < best) smallest = r;
      if (smallest == i) return i;
      Shift(smallest, i);
      i = smallest;
    }
  }

  // Writes `e` at the slot the heap order gives it, sifting from the hole at
  // `slot` up or else down. `indexed_here` says the index already maps
  // e.key to `slot`, which spares the index write when `e` stays put.
  void Settle(size_t slot, const Entry& e, bool indexed_here) {
    size_t i = HoleUp(slot, e.priority);
    if (i == slot) i = HoleDown(slot, e.priority);
    heap_[i] = e;
    if (i != slot || !indexed_here) pos_.Set(e.key, i);
  }

  Entry RemoveAt(size_t slot) {
    const Entry removed = heap_[slot];
    pos_.Erase(removed.key);
    const Entry last = heap_.back();
    heap_.pop_back();
    if (slot < heap_.size()) Settle(slot, last, /*indexed_here=*/false);
    return removed;
  }

  // Moves the entry at `from` into the hole at `to`.
  void Shift(size_t from, size_t to) {
    heap_[to] = heap_[from];
    pos_.Set(heap_[to].key, to);
  }

  // TryAssign for entries out of heap order, after its repeat check: inserts
  // them in order, each sifting up through the new prefix. Slot i is
  // overwritten in order, so when entry i arrives slots [0, i) hold the new
  // prefix (the only slots its sift touches) and slot i still holds its old
  // entry, whose key leaves the index as in TryAssign's in-order path.
  template <typename EntryAt>
  void AssignBySifting(size_t n, EntryAt entry_at) {
    const size_t old_size = heap_.size();
    for (size_t i = 0; i < n; ++i) {
      const Entry e = entry_at(i);
      bool indexed_here = false;
      if (i < old_size) {
        const uint32_t old_key = heap_[i].key;
        indexed_here = old_key == e.key;
        if (!indexed_here && pos_.Find(old_key) == i) pos_.Erase(old_key);
      } else {
        heap_.emplace_back();
      }
      const size_t j = HoleUp(i, e.priority);
      heap_[j] = e;
      if (j != i || !indexed_here) pos_.Set(e.key, j);
    }
    EraseTail(n, old_size);
  }

  // Unindexes the old keys of slots [n, old_size) that did not arrive in
  // an assignment of n entries, and drops those slots.
  void EraseTail(size_t n, size_t old_size) {
    for (size_t i = n; i < old_size; ++i) {
      if (pos_.Find(heap_[i].key) == i) pos_.Erase(heap_[i].key);
    }
    if (old_size > n) heap_.resize(n);
  }

  std::vector<Entry> heap_;
  KeySlotIndex pos_;
  // TryAssign's scratch: the slots whose key moved or arrived, and those
  // keys.
  std::vector<uint32_t> moved_slots_;
  std::vector<uint32_t> moved_keys_;
};

static_assert(sizeof(IndexedMinHeap::Entry) == 16,
              "a heap entry is a u32 key, an f32 value and an f64 priority");

}  // namespace wmsketch
