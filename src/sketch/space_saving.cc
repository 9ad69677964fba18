#include "sketch/space_saving.h"

#include <algorithm>
#include <utility>

namespace wmsketch {

uint32_t SpaceSaving::Update(uint32_t item, uint64_t increment) {
  total_ += increment;
  const IndexedMinHeap::Entry* existing = heap_.Find(item);
  if (existing != nullptr) {
    heap_.Update(item, existing->priority + static_cast<double>(increment), existing->value);
    return kNoEviction;
  }
  if (heap_.size() < capacity_) {
    heap_.Insert(item, static_cast<double>(increment), /*error=*/0.0f);
    return kNoEviction;
  }
  // Evict the minimum-count item; the newcomer inherits its count as error.
  const IndexedMinHeap::Entry min = heap_.PopMin();
  heap_.Insert(item, min.priority + static_cast<double>(increment),
               /*error=*/static_cast<float>(min.priority));
  return min.key;
}

std::vector<SpaceSavingEntry> SpaceSaving::Entries() const {
  std::vector<SpaceSavingEntry> out;
  out.reserve(heap_.size());
  for (const auto& e : heap_.entries()) {
    out.push_back(SpaceSavingEntry{e.key, static_cast<uint64_t>(e.priority),
                                   static_cast<uint64_t>(e.value)});
  }
  std::sort(out.begin(), out.end(), [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  });
  return out;
}

std::vector<SpaceSavingEntry> SpaceSaving::RawEntries() const {
  std::vector<SpaceSavingEntry> out;
  out.reserve(heap_.size());
  for (const auto& e : heap_.entries()) {
    out.push_back(SpaceSavingEntry{e.key, static_cast<uint64_t>(e.priority),
                                   static_cast<uint64_t>(e.value)});
  }
  return out;
}

Status SpaceSaving::RestoreEntries(const std::vector<SpaceSavingEntry>& entries,
                                   uint64_t total) {
  if (entries.size() > capacity_) {
    return Status::InvalidArgument("more Space-Saving entries than capacity");
  }
  std::vector<IndexedMinHeap::Entry> heap_entries;
  heap_entries.reserve(entries.size());
  for (const SpaceSavingEntry& e : entries) {
    heap_entries.push_back(IndexedMinHeap::Entry{.key = e.item,
                                                 .value = static_cast<float>(e.error),
                                                 .priority = static_cast<double>(e.count)});
  }
  WMS_RETURN_NOT_OK(heap_.RestoreHeapOrder(std::move(heap_entries)));
  total_ = total;
  return Status::OK();
}

}  // namespace wmsketch
