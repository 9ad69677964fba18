#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/linear_sketch.h"
#include "linear/classifier.h"

namespace wmsketch {

class HashPlan;
namespace readpath {
template <typename Cells>
struct ActiveSetRead;
}

/// Shape of an Active-Set Weight-Median Sketch (the shared linear-sketch
/// shape; heap_capacity is the active-set size |S| and must be >= 1). The
/// configuration that uniformly performed best in the paper (Sec. 7.3)
/// gives half the budget to the active set and the rest to a depth-1
/// sketch; that is the default the budget planner emits.
using AwmSketchConfig = LinearSketchConfig;

/// The Active-Set Weight-Median Sketch (Algorithm 2): a WM-Sketch whose
/// heaviest weights live *exactly* in a min-heap "active set" instead of in
/// the sketch.
///
/// Per update: features currently in the active set receive exact gradient
/// updates; every other feature's candidate weight
/// w̃ = Query(i) − η·y·x_i·ℓ'(y·τ) is compared against the smallest active
/// weight — on a win the minimum is folded back into the sketch (its slot's
/// estimate is corrected to its exact weight) and the winner takes the slot;
/// on a loss the gradient is applied inside the sketch. The sketch therefore
/// carries only the tail of the weight vector, which reduces collision error
/// for exactly the features that matter (Sec. 5.2 / Sec. 9: "a variant of
/// feature hashing where the highest-weighted features are not hashed").
///
/// Both the active set and the sketch use the lazy global-scale trick for
/// ℓ2 decay, so updates stay O(s·nnz(x)). Active-set-only update bursts
/// dirty no table pages at all, so a high-cadence AWM publish is nearly free.
class AwmSketch final : public LinearSketch {
 public:
  /// Constructs the sketch; hash rows are derived from opts.seed.
  AwmSketch(const AwmSketchConfig& config, const LearnerOptions& opts);

  /// Plan-driven: hashes each (feature, row) pair exactly once per call.
  double PredictMargin(const SparseVector& x) const override;
  /// Batched margins. As with UpdateBatch, the AWM cannot hash a batch up
  /// front (membership decides which features touch the sketch), so each
  /// example runs through one lazy per-thread plan — bit-identical to the
  /// PredictMargin loop.
  void PredictBatch(std::span<const Example> batch, double* margins) const override;
  /// Batched point estimates: active-set hits answer exactly, the rest from
  /// the tail sketch. Bit-identical to a WeightEstimate loop.
  void EstimateBatch(std::span<const uint32_t> features, float* out) const override;
  /// Frozen read model: the active set (raw weights + scale) plus a copy of
  /// the tail sketch, with the batched read paths.
  std::unique_ptr<const ReadModel> MakeReadModel() const override;
  /// One step from a single per-example hash plan: the margin's tail
  /// queries, the candidate queries, and the tail scatters reuse the same
  /// nnz×depth pairs (evictee fold-backs, which involve features outside x,
  /// still hash directly).
  double Update(const SparseVector& x, int8_t y) override;
  /// Devirtualized batch ingest, bit-identical to updating example by
  /// example. Unlike WM/feature hashing the AWM cannot hash a batch up
  /// front (which features touch the sketch depends on live active-set
  /// membership); it reuses one lazy per-thread plan across the batch, so
  /// the win is allocation amortization, not an arena/prefetch pipeline.
  void UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) override;
  float WeightEstimate(uint32_t feature) const override;
  /// w ← w + coeff·w_other: tail sketches combine linearly (scales resolved
  /// first) and the merged active set is rebuilt as the top-|S| of the union
  /// of both active sets under the combined estimates — union members that
  /// lose their slot are folded back into the tail sketch exactly as an
  /// eviction would (Algorithm 2's invariant is preserved). Steps are not
  /// touched (see Merge for the disjoint-partition semantics).
  Status MergeScaled(const BudgetedClassifier& other, double coeff) override;
  std::unique_ptr<BudgetedClassifier> Clone() const override;
  /// The top-k of the active set (exact weights); the active set *is* the
  /// AWM-Sketch's answer to top-K queries.
  std::vector<FeatureWeight> TopK(size_t k) const override;
  /// Current number of active-set entries (≤ heap_capacity).
  size_t active_set_size() const { return heap_.size(); }
  /// True iff `feature` currently holds an active-set slot (exact weight).
  bool InActiveSet(uint32_t feature) const { return heap_.Contains(feature); }

 private:
  /// The exact-or-tail reads over the live table.
  readpath::ActiveSetRead<const float*> LiveRead() const;
  /// Count-Sketch point estimate of a tail feature's weight (true scale).
  float SketchQuery(uint32_t feature) const;
  /// SketchQuery through feature slot `i` of a lazy plan: the slot is
  /// hashed on first touch and reused afterwards.
  float SketchQueryFromPlan(HashPlan& plan, size_t i, uint32_t feature) const;
  /// Adds `delta` (true scale) to the sketched weight of `feature`: every
  /// row's estimate — and hence the median — shifts by exactly delta.
  void SketchAdd(uint32_t feature, double delta);
  /// SketchAdd through feature slot `i` of a lazy plan (first touch hashes).
  void SketchAddFromPlan(HashPlan& plan, size_t i, uint32_t feature, double delta);
  /// PredictMargin filling/reading tail slots of a lazy plan.
  double PredictMarginWithPlan(const SparseVector& x, HashPlan& plan) const;
  /// The Update body once the plan exists (shared by Update and UpdateBatch).
  double UpdateWithPlan(const SparseVector& x, int8_t y, HashPlan& plan);
  /// Folds each underflowed scale into what it scales: the table's into the
  /// tail sketch, the active set's into the heap.
  void MaybeRescale() override;

  /// The active set's lazy scale (true weight = scale × stored raw weight).
  double& active_scale() { return scales_[1]; }
  double active_scale() const { return scales_[1]; }
};

}  // namespace wmsketch
