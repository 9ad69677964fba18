#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/linear_sketch.h"
#include "linear/classifier.h"
#include "util/simd.h"

namespace wmsketch {

/// Shape of a Weight-Median Sketch (the shared linear-sketch shape).
using WmSketchConfig = LinearSketchConfig;

/// The Weight-Median Sketch (Algorithm 1): online gradient descent performed
/// directly on a Count-Sketch projection z of the classifier weights.
///
/// * Prediction:  τ = zᵀRx with R = A/√s the scaled Count-Sketch matrix.
/// * Update:      z ← (1−λη_t)·z − η_t·y·ℓ'(y·τ)·Rx, implemented with the
///                lazy global-scale trick so each update costs
///                O(s·nnz(x)) instead of O(k + s·nnz(x)) (Sec. 5.1).
/// * Query(i):    median over rows j of √s·σ_j(i)·z[j, h_j(i)] — the
///                Count-Sketch estimator applied to √s·z.
///
/// Theorem 1/2 guarantee ‖w* − ŵ‖∞ ≤ ε‖w*‖₁ for width and depth
/// polylogarithmic in the dimension. A passive magnitude heap tracks the
/// identities of the heaviest features across updates (Sec. 5.2's baseline
/// scheme) so top-K retrieval needs no feature-universe scan.
class WmSketch final : public LinearSketch {
 public:
  /// Constructs the sketch; hash rows are derived from opts.seed.
  /// Requires config.width a power of two and 1 <= depth <= kMaxSketchDepth.
  WmSketch(const WmSketchConfig& config, const LearnerOptions& opts);

  /// Plan-driven: hashes each (feature, row) pair exactly once per call.
  double PredictMargin(const SparseVector& x) const override;
  /// Batched margins: the fused per-example loop, bit-identical to
  /// PredictMargin.
  void PredictBatch(std::span<const Example> batch, double* margins) const override;
  /// Batched point estimates: the fused per-key loop, bit-identical to a
  /// WeightEstimate loop.
  void EstimateBatch(std::span<const uint32_t> features, float* out) const override;
  /// Frozen read model over the published table pages.
  std::unique_ptr<const ReadModel> MakeReadModel() const override;
  /// One OGD step from a single per-example hash plan: the margin, the
  /// gradient scatter, and the heap offers all reuse the same nnz×depth
  /// (bucket, sign) pairs — one hash evaluation per pair per update.
  double Update(const SparseVector& x, int8_t y) override;
  /// Devirtualized batch ingest: hashes the whole batch up front into a
  /// plan arena and prefetches the next example's table cells while the
  /// current one updates. Bit-identical to updating example by example.
  void UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) override;
  float WeightEstimate(uint32_t feature) const override;
  /// z ← z_a + coeff·z_b (resolving the two lazy global scales first), then
  /// rebuilds the top-K heap from the merged estimates over the union of
  /// tracked candidates. Steps are not touched (see Merge for the
  /// disjoint-partition semantics that also sums them).
  Status MergeScaled(const BudgetedClassifier& other, double coeff) override;
  std::unique_ptr<BudgetedClassifier> Clone() const override;
  std::vector<FeatureWeight> TopK(size_t k) const override;

 private:
  // Median over rows of σ_j(i)·v[j, h_j(i)] on the *raw* table (no scale, no
  // √s); WeightEstimate applies √s·α.
  float RawMedian(uint32_t feature) const;
  /// RawMedian for feature slot `i` of a plan (no re-hash).
  float RawMedianFromPlan(const simd::PlanView& plan, size_t i) const;
  /// The margin τ from a prebuilt plan.
  double MarginFromPlan(const simd::PlanView& plan, const SparseVector& x) const;
  /// The Update body once the plan exists (shared by Update and UpdateBatch).
  double UpdateWithPlan(const SparseVector& x, int8_t y, const simd::PlanView& plan);
  /// Folds an underflowed α into the table and the heap, which holds raw
  /// medians in the table's units.
  void MaybeRescale() override;
};

}  // namespace wmsketch
