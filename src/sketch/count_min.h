#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/tabulation.h"
#include "util/memory_cost.h"
#include "util/paged_table.h"
#include "util/status.h"

namespace wmsketch {

/// Count-Min Sketch (Cormode & Muthukrishnan 2005): `depth` rows of `width`
/// non-negative counters; point estimates take the row minimum and
/// overestimate by at most ε‖v‖₁ with width Θ(1/ε), depth Θ(log(d/δ)).
///
/// Used here as (a) the paired ratio estimator baseline for relative-deltoid
/// detection (Fig. 10, following Cormode–Muthukrishnan 2005a) and (b) the
/// frequency filter in the Count-Min Frequent-Features classifier baseline.
class CountMinSketch {
 public:
  static constexpr uint32_t kMaxDepth = 64;

  /// Constructs the sketch. Requires width a power of two and
  /// 1 <= depth <= kMaxDepth. Set `conservative` to enable conservative
  /// update (Estan–Varghese), which only raises the buckets that bound the
  /// current estimate — strictly tighter for increment-only streams.
  CountMinSketch(uint32_t width, uint32_t depth, uint64_t seed, bool conservative = false);

  /// Adds `delta` (must be >= 0) to the count of `key`.
  void Update(uint32_t key, double delta = 1.0);

  /// Update followed by Query with one bucket evaluation per row instead of
  /// two (conservative) or three (caller-side Update-then-Query). Returns
  /// exactly what Query(key) would after Update(key, delta).
  double UpdateAndQuery(uint32_t key, double delta = 1.0);

  /// Point estimate (never underestimates for increment-only streams).
  double Query(uint32_t key) const;

  /// The raw counter array in row-major order (snapshot-save support).
  std::span<const double> table() const { return {table_.data(), table_.size()}; }

  /// Replaces the counter array and total mass (snapshot-restore support;
  /// hash rows stay as constructed from the seed). Returns InvalidArgument
  /// if `table` does not match this sketch's cell count.
  Status RestoreState(const std::vector<double>& table, double total);

  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }
  bool conservative() const { return conservative_; }
  size_t cells() const { return table_.size(); }
  /// Cost under the Sec. 7.1 model: 4 bytes per counter.
  size_t MemoryCostBytes() const { return TableBytes(table_.size()); }
  /// Total mass added (sum of deltas).
  double TotalMass() const { return total_; }

 private:
  double* Row(uint32_t j) { return table_.data() + static_cast<size_t>(j) * width_; }
  const double* Row(uint32_t j) const { return table_.data() + static_cast<size_t>(j) * width_; }

  uint32_t width_;
  uint32_t depth_;
  bool conservative_;
  double total_ = 0.0;
  std::vector<SignedBucketHash> rows_;  // signs unused; bucket mapping only
  BasicPagedTable<double> table_;  // row-major live arena, paged for snapshots
};

}  // namespace wmsketch
