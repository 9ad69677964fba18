#pragma once

#include <cstdint>
#include <vector>

#include "hash/tabulation.h"
#include "sketch/merge_compat.h"
#include "util/memory_cost.h"
#include "util/paged_table.h"

namespace wmsketch {

/// Count-Sketch (Charikar, Chen & Farach-Colton 2002): a linear projection of
/// a d-dimensional vector into `depth` rows of `width` buckets that supports
/// unbiased point estimates of any coordinate via a median over rows.
///
/// With width Θ(1/ε²) and depth Θ(log(d/δ)), point estimates satisfy
/// |x̂ᵢ − xᵢ| ≤ ε‖x‖₂ with probability 1−δ (Lemma 1 in the paper). The
/// WM-Sketch (Algorithm 1) reuses exactly this bucket/sign structure but
/// pushes gradient updates instead of count increments through it; keeping a
/// standalone Count-Sketch lets the tests assert that equivalence and serves
/// the frequency-based baselines.
class CountSketch {
 public:
  /// Maximum supported depth (rows); queries use a fixed scratch buffer.
  static constexpr uint32_t kMaxDepth = 64;

  /// Constructs a sketch with `depth` independent rows of `width` buckets.
  /// Requires: width a power of two, 1 <= depth <= kMaxDepth. Row hash
  /// functions are derived deterministically from `seed`.
  CountSketch(uint32_t width, uint32_t depth, uint64_t seed);

  /// Adds `delta` to coordinate `key` of the sketched vector.
  void Update(uint32_t key, float delta);

  /// Median-of-rows point estimate of coordinate `key`.
  float Query(uint32_t key) const;

  /// Update followed by Query, hashing each row once instead of twice —
  /// the hot pattern of streaming estimate maintenance. Bit-identical to
  /// Update(key, delta); Query(key).
  float UpdateAndQuery(uint32_t key, float delta);

  /// Adds another sketch into this one. Count-Sketch is linear, so the
  /// merged sketch equals the sketch of the summed vectors. Returns
  /// InvalidArgument (and leaves this sketch unchanged) unless both were
  /// constructed with identical (width, depth, seed) — the condition for the
  /// projection matrices to be equal.
  Status Merge(const CountSketch& other);

  /// Multiplies every bucket by `factor` (linearity in the scalar).
  void Scale(float factor);

  /// Resets all buckets to zero.
  void Clear();

  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  /// Total number of counters.
  size_t cells() const { return table_.size(); }
  /// Cost under the Sec. 7.1 model: 4 bytes per counter.
  size_t MemoryCostBytes() const { return TableBytes(table_.size()); }

  /// Publishes the current table as an immutable shared page set (copying
  /// only pages dirtied since the last publication) — the O(dirty) snapshot
  /// primitive of the paged storage layer. Writer-thread only.
  PageSet<float> SharePages() const { return table_.SharePages(); }
  /// Cumulative publication counters of the paged storage.
  const TablePublishStats& publish_stats() const { return table_.publish_stats(); }

 private:
  float* Row(uint32_t j) { return table_.data() + static_cast<size_t>(j) * width_; }
  const float* Row(uint32_t j) const { return table_.data() + static_cast<size_t>(j) * width_; }

  uint32_t width_;
  uint32_t depth_;
  uint64_t seed_;
  std::vector<SignedBucketHash> rows_;
  PagedTable table_;  // depth_ * width_ counters, row-major live arena
};

}  // namespace wmsketch
