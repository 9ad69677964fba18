#include "sketch/count_sketch.h"

#include <cassert>

#include "sketch/read_path.h"
#include "util/math.h"
#include "util/random.h"
#include "util/simd.h"

namespace wmsketch {

CountSketch::CountSketch(uint32_t width, uint32_t depth, uint64_t seed)
    : width_(width), depth_(depth), seed_(seed) {
  assert(IsPowerOfTwo(width));
  assert(depth >= 1 && depth <= kMaxDepth);
  SplitMix64 sm(seed);
  rows_.reserve(depth);
  for (uint32_t j = 0; j < depth; ++j) rows_.emplace_back(sm.Next(), width);
  table_ = PagedTable(static_cast<size_t>(width) * depth);
}

void CountSketch::Update(uint32_t key, float delta) {
  for (uint32_t j = 0; j < depth_; ++j) {
    uint32_t bucket;
    float sign;
    rows_[j].BucketAndSign(key, &bucket, &sign);
    table_.MarkDirtyOffset(static_cast<size_t>(j) * width_ + bucket);
    Row(j)[bucket] += sign * delta;
  }
}

float CountSketch::Query(uint32_t key) const {
  return readpath::FusedEstimate(table_.data(), rows_, key, 1.0);
}

float CountSketch::UpdateAndQuery(uint32_t key, float delta) {
  // The streaming maintain-and-read pattern (add, then estimate) with one
  // hash evaluation per row instead of Update's plus Query's.
  float est[kMaxDepth];
  for (uint32_t j = 0; j < depth_; ++j) {
    uint32_t bucket;
    float sign;
    rows_[j].BucketAndSign(key, &bucket, &sign);
    table_.MarkDirtyOffset(static_cast<size_t>(j) * width_ + bucket);
    float& cell = Row(j)[bucket];
    cell += sign * delta;
    est[j] = sign * cell;
  }
  return MedianInPlace(est, depth_);
}

Status CountSketch::Merge(const CountSketch& other) {
  WMS_RETURN_NOT_OK(CheckMergeCompatible("count-sketch",
                                         SketchShape{width_, depth_, seed_},
                                         SketchShape{other.width_, other.depth_, other.seed_}));
  table_.MarkAllDirty();
  simd::MergeScaledTable(table_.data(), other.table_.data(), table_.size(), 1.0);
  return Status::OK();
}

void CountSketch::Scale(float factor) {
  table_.MarkAllDirty();
  simd::ScaleTable(table_.data(), table_.size(), factor);
}

void CountSketch::Clear() { table_.Fill(0.0f); }

}  // namespace wmsketch
