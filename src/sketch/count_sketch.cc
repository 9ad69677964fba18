#include "sketch/count_sketch.h"

#include "sketch/read_path.h"

namespace wmsketch {

CountSketch::CountSketch(uint32_t width, uint32_t depth, uint64_t seed)
    : width_(width),
      depth_(depth),
      rows_(SignedRows(seed, width, depth)),
      table_(static_cast<size_t>(width) * depth) {}

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

}  // namespace wmsketch
