#pragma once

// The one read path of the sketch-backed models. Every sketch read — the
// WM-Sketch's and feature hashing's margins and point estimates, the
// AWM-Sketch's tail estimates, Count-Sketch's Query — live or frozen, one
// call or a batch, runs FusedMargin or FusedEstimate below, so the "frozen
// answers == live answers" bit-identity cannot drift copy by copy.
//
// The kernels are templates over the cell source: the live model's flat
// arena (`const float*`) or a frozen snapshot's refcounted pages
// (`PagedView<float>`, util/paged_table.h, where table[off] becomes
// pages[off >> shift][off & mask]). Hash order, per-feature double
// accumulation and the median networks are one code for both.
//
// A read consumes its hashes once: unlike an update, a predict or a point
// query has no scatter or heap stage to share them with. So every read here
// is the fused loop — hash, read, accumulate or take the median per
// (feature, row) pair with nothing materialized — which hashes each pair
// exactly once by construction. Nothing here allocates.
//
// Both kernels are always inlined, so a caller with a constant row count
// (feature hashing's one row) compiles to a straight-line read. Left to its
// heuristics, GCC called them out of line, and feature hashing's single-key
// estimate ran 27% slower than its hand-written loop in a paired in-process
// A/B.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "hash/tabulation.h"
#include "linear/classifier.h"
#include "stream/sparse_vector.h"
#include "util/math.h"
#include "util/paged_table.h"
#include "util/top_k_heap.h"

namespace wmsketch::readpath {

/// Cell `off` of a live flat table or of a frozen page set.
inline float CellAt(const float* table, size_t off) { return table[off]; }
inline float CellAt(PagedView<float> table, size_t off) { return table.At(off); }

/// The fused one-pass margin factor·Σᵢ xᵢ·Σⱼ σⱼ(i)·table[hⱼ(i)] — hash,
/// read, and accumulate per feature with nothing materialized.
/// Bit-identical to simd::PlanMargin over the same pairs: the per-feature
/// sum starts at row 0's term rather than at 0.0, which saves an add and can
/// change only the sign of a zero sum, and `acc`, which starts at +0.0 and
/// so is never -0.0, adds either zero the same.
template <typename Cells>
[[gnu::always_inline]] inline double FusedMargin(Cells table,
                                                 std::span<const SignedBucketHash> rows,
                                                 const SparseVector& x, double factor) {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const auto term = [&](size_t j) {
      uint32_t bucket;
      float sign;
      rows[j].BucketAndSign(feature, &bucket, &sign);
      return static_cast<double>(sign) *
             static_cast<double>(CellAt(table, j * rows[j].width() + bucket));
    };
    double per_feature = term(0);
    for (size_t j = 1; j < rows.size(); ++j) per_feature += term(j);
    acc += per_feature * static_cast<double>(x.value(i));
  }
  return factor * acc;
}

/// The fused single-key point estimate float(factor · median_j(σ_j(key)·
/// table[h_j(key)])): the one definition of a sketch point query (sorting-
/// network medians through depth 7, simd::MedianLarge beyond).
template <typename Cells>
[[gnu::always_inline]] inline float FusedEstimate(Cells table,
                                                  std::span<const SignedBucketHash> rows,
                                                  uint32_t key, double factor) {
  float est[kMaxSketchDepth];  // rows.size() never exceeds it (Validate())
  for (size_t j = 0; j < rows.size(); ++j) {
    uint32_t bucket;
    float sign;
    rows[j].BucketAndSign(key, &bucket, &sign);
    est[j] = sign * CellAt(table, j * rows[j].width() + bucket);
  }
  return static_cast<float>(factor *
                            static_cast<double>(MedianInPlace(est, rows.size())));
}

/// Batched margins: out[e] = FusedMargin(batch[e].x).
template <typename Cells>
inline void MarginBatch(Cells table, std::span<const SignedBucketHash> rows,
                        std::span<const Example> batch, double factor, double* out) {
  for (size_t e = 0; e < batch.size(); ++e) {
    out[e] = FusedMargin(table, rows, batch[e].x, factor);
  }
}

/// Batched point estimates: out[i] = FusedEstimate(keys[i]).
template <typename Cells>
inline void EstimateBatch(Cells table, std::span<const SignedBucketHash> rows,
                          std::span<const uint32_t> keys, double factor, float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = FusedEstimate(table, rows, keys[i], factor);
  }
}

/// The AWM-Sketch's read (Algorithm 2): an active-set member answers its
/// exact weight, every other feature the tail sketch's estimate. The live
/// AwmSketch and its frozen read model both answer through this.
template <typename Cells>
struct ActiveSetRead {
  const TopKHeap& active;  // raw active-set weights
  double active_scale;     // true weight = active_scale · raw
  Cells tail;
  std::span<const SignedBucketHash> rows;
  double tail_factor;  // √s·α of the tail sketch

  float Estimate(uint32_t feature) const {
    const std::optional<float> exact = active.Get(feature);
    if (exact.has_value()) {
      return static_cast<float>(active_scale * static_cast<double>(*exact));
    }
    return FusedEstimate(tail, rows, feature, tail_factor);
  }

  /// τ = Σ_{i∈S} S[i]·xᵢ + Σ_{i∉S} ŵᵢ·xᵢ. A member's weight enters in
  /// double precision, not rounded to float as Estimate rounds it.
  double Margin(const SparseVector& x) const {
    double acc = 0.0;
    for (size_t i = 0; i < x.nnz(); ++i) {
      const uint32_t feature = x.index(i);
      const std::optional<float> exact = active.Get(feature);
      const double w =
          exact.has_value()
              ? active_scale * static_cast<double>(*exact)
              : static_cast<double>(FusedEstimate(tail, rows, feature, tail_factor));
      acc += w * static_cast<double>(x.value(i));
    }
    return acc;
  }

  void MarginBatch(std::span<const Example> batch, double* out) const {
    for (size_t e = 0; e < batch.size(); ++e) out[e] = Margin(batch[e].x);
  }

  void EstimateBatch(std::span<const uint32_t> features, float* out) const {
    for (size_t i = 0; i < features.size(); ++i) out[i] = Estimate(features[i]);
  }
};

/// The frozen read model of a plain sketch: copies of the hash rows, the
/// published pages of the raw table (shared with other snapshots; only
/// pages dirtied since the previous publication were copied) and the two
/// factors that scale raw sums and medians. Serves the WM-Sketch
/// (margin α/√s, estimate √s·α) and feature hashing as its one-row case
/// (both factors α; the median of one row is the row).
class SketchReadModel final : public ReadModel {
 public:
  SketchReadModel(std::vector<SignedBucketHash> rows, PageSet<float> pages,
                  double margin_factor, double estimate_factor)
      : rows_(std::move(rows)),
        pages_(std::move(pages)),
        margin_factor_(margin_factor),
        estimate_factor_(estimate_factor) {}

  double PredictMargin(const SparseVector& x) const override {
    return FusedMargin(pages_.view(), rows_, x, margin_factor_);
  }
  void PredictBatch(std::span<const Example> batch, double* out) const override {
    readpath::MarginBatch(pages_.view(), rows_, batch, margin_factor_, out);
  }
  float Estimate(uint32_t feature) const override {
    return FusedEstimate(pages_.view(), rows_, feature, estimate_factor_);
  }
  void EstimateBatch(std::span<const uint32_t> features, float* out) const override {
    readpath::EstimateBatch(pages_.view(), rows_, features, estimate_factor_, out);
  }
  size_t ResidentBytes() const override { return pages_.ResidentBytes(); }

 private:
  std::vector<SignedBucketHash> rows_;
  PageSet<float> pages_;
  double margin_factor_;
  double estimate_factor_;
};

}  // namespace wmsketch::readpath
