#include "sketch/count_min.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/math.h"
#include "util/random.h"

namespace wmsketch {

CountMinSketch::CountMinSketch(uint32_t width, uint32_t depth, uint64_t seed, bool conservative)
    : width_(width), depth_(depth), conservative_(conservative) {
  assert(IsPowerOfTwo(width));
  assert(depth >= 1 && depth <= kMaxDepth);
  SplitMix64 sm(seed);
  rows_.reserve(depth);
  for (uint32_t j = 0; j < depth; ++j) rows_.emplace_back(sm.Next(), width);
  table_ = BasicPagedTable<double>(static_cast<size_t>(width) * depth);
}

void CountMinSketch::Update(uint32_t key, double delta) { UpdateAndQuery(key, delta); }

double CountMinSketch::UpdateAndQuery(uint32_t key, double delta) {
  assert(delta >= 0.0);
  total_ += delta;
  // One bucket evaluation per row, shared by the estimate read and the
  // counter write (the conservative path previously hashed twice — once in
  // its internal Query, once for the raise — and callers following with
  // Query(key) paid a third round).
  uint32_t buckets[kMaxDepth];
  for (uint32_t j = 0; j < depth_; ++j) {
    buckets[j] = rows_[j].Bucket(key);
    table_.MarkDirtyOffset(static_cast<size_t>(j) * width_ + buckets[j]);
  }
  if (!conservative_) {
    double est = std::numeric_limits<double>::infinity();
    for (uint32_t j = 0; j < depth_; ++j) {
      double& cell = Row(j)[buckets[j]];
      cell += delta;
      est = std::min(est, cell);
    }
    return est;
  }
  // Conservative update: raise each bucket only as far as needed so the new
  // estimate is (old estimate + delta).
  double est = std::numeric_limits<double>::infinity();
  for (uint32_t j = 0; j < depth_; ++j) est = std::min(est, Row(j)[buckets[j]]);
  const double target = est + delta;
  for (uint32_t j = 0; j < depth_; ++j) {
    double& cell = Row(j)[buckets[j]];
    cell = std::max(cell, target);
  }
  return target;
}

double CountMinSketch::Query(uint32_t key) const {
  double est = std::numeric_limits<double>::infinity();
  for (uint32_t j = 0; j < depth_; ++j) {
    est = std::min(est, Row(j)[rows_[j].Bucket(key)]);
  }
  return est;
}

Status CountMinSketch::RestoreState(const std::vector<double>& table, double total) {
  if (table.size() != table_.size()) {
    return Status::InvalidArgument("counter array size does not match sketch shape");
  }
  table_.MarkAllDirty();
  std::copy(table.begin(), table.end(), table_.data());
  total_ = total;
  return Status::OK();
}

}  // namespace wmsketch
