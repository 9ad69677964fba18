#pragma once

#include <cstdint>
#include <vector>

#include "hash/tabulation.h"
#include "util/paged_table.h"

namespace wmsketch {

/// Count-Sketch (Charikar, Chen & Farach-Colton 2002): a linear projection of
/// a d-dimensional vector into `depth` rows of `width` buckets that supports
/// unbiased point estimates of any coordinate via a median over rows.
///
/// With width Θ(1/ε²) and depth Θ(log(d/δ)), point estimates satisfy
/// |x̂ᵢ − xᵢ| ≤ ε‖x‖₂ with probability 1−δ (Lemma 1 in the paper). The
/// WM-Sketch (Algorithm 1) reuses exactly this bucket/sign structure but
/// pushes gradient updates instead of count increments through it. This
/// standalone Count-Sketch is the reference the tests compare the WM-Sketch
/// against; no method trains on it.
class CountSketch {
 public:
  /// Maximum supported depth (rows).
  static constexpr uint32_t kMaxDepth = 64;

  /// Constructs a sketch with `depth` independent rows of `width` buckets.
  /// Requires: width a power of two, 1 <= depth <= kMaxDepth. Row hash
  /// functions are derived deterministically from `seed`.
  CountSketch(uint32_t width, uint32_t depth, uint64_t seed);

  /// Adds `delta` to coordinate `key` of the sketched vector.
  void Update(uint32_t key, float delta);

  /// Median-of-rows point estimate of coordinate `key`.
  float Query(uint32_t key) const;

 private:
  float* Row(uint32_t j) { return table_.data() + static_cast<size_t>(j) * width_; }

  uint32_t width_;
  uint32_t depth_;
  std::vector<SignedBucketHash> rows_;
  PagedTable table_;  // depth_ * width_ counters, row-major live arena
};

}  // namespace wmsketch
