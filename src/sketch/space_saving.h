#pragma once

#include <cstdint>
#include <vector>

#include "util/indexed_heap.h"
#include "util/memory_cost.h"
#include "util/status.h"

namespace wmsketch {

/// An item tracked by the Space-Saving summary: estimated count and the
/// maximum possible overestimate (the count the slot had when the item
/// claimed it).
struct SpaceSavingEntry {
  uint32_t item;
  uint64_t count;
  uint64_t error;
};

/// Space-Saving heavy-hitters summary (Metwally, Agrawal & El Abbadi 2005).
///
/// Maintains exactly `capacity` monitored (item, count, error) triples; an
/// unmonitored arrival evicts the minimum-count item and inherits its count
/// as both estimate floor and error bound. Guarantees: estimated count is in
/// [true, true + T/capacity], and every item with true count > T/capacity is
/// monitored. This is the frequent-feature filter used by the "SS" classifier
/// baseline (Sec. 7) and the MacroBase-style heavy-hitter explainer the paper
/// compares against in Sec. 8.1.
class SpaceSaving {
 public:
  /// Constructs a summary monitoring at most `capacity` items (>= 1).
  explicit SpaceSaving(size_t capacity) : capacity_(capacity) {}

  /// Observes one occurrence of `item`. Returns the item that was evicted to
  /// make room, or a sentinel (kNoEviction) if none was.
  static constexpr uint32_t kNoEviction = 0xffffffffu;
  uint32_t Update(uint32_t item, uint64_t increment = 1);

  /// True iff `item` currently occupies a monitored slot.
  bool Contains(uint32_t item) const { return heap_.Contains(item); }

  /// All monitored entries, sorted by descending estimated count.
  std::vector<SpaceSavingEntry> Entries() const;

  /// All monitored entries in internal heap-array order (snapshot-save
  /// support: RestoreEntries preserves this order exactly, because eviction
  /// tie-breaking among equal counts depends on it).
  std::vector<SpaceSavingEntry> RawEntries() const;

  /// Replaces the summary's state with serialized entries (snapshot-restore
  /// support): the (item, count, error) triples are installed in the given
  /// order as the internal heap array (pass a RawEntries() sequence), and
  /// the observed stream length is set. Returns InvalidArgument for more
  /// entries than capacity, duplicate items, or a non-heap-ordered
  /// sequence.
  Status RestoreEntries(const std::vector<SpaceSavingEntry>& entries, uint64_t total);

  size_t capacity() const { return capacity_; }
  size_t size() const { return heap_.size(); }
  /// Total stream length observed.
  uint64_t TotalCount() const { return total_; }
  /// Cost under the Sec. 7.1 model: id + count + error per slot.
  size_t MemoryCostBytes() const { return HeapBytes(capacity_, /*aux_per_entry=*/1); }

 private:
  size_t capacity_;
  uint64_t total_ = 0;
  // priority = estimated count; value = error (stored as float; exact for
  // the laptop-scale streams in this repo and irrelevant to the guarantees).
  IndexedMinHeap heap_;
};

}  // namespace wmsketch
