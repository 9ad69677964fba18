#pragma once

#include <cstdint>
#include <vector>

#include "linear/classifier.h"
#include "util/memory_cost.h"
#include "util/top_k_heap.h"

namespace wmsketch {

/// The memory-*unconstrained* online linear model: a dense weight array of
/// the full feature dimension plus a passive top-K min-heap (the paper's
/// reference configuration stores 32-bit weights for every feature and
/// tracks the heaviest K = 128 with a heap, Sec. 7.4).
///
/// This model plays two roles in the reproduction:
///  1. it is the "LR" line in Figs. 6, 7, 8, 9 and 10, and
///  2. its final weight vector is the w* against which the RelErr recovery
///     metric of Sec. 7.2 compares every budgeted method.
///
/// ℓ2 regularization uses the lazy global-scale trick (Sec. 5.1 /
/// Shalev-Shwartz et al.): the stored array v satisfies w = α·v, decay
/// multiplies α, and gradient writes divide by α, keeping updates
/// O(nnz(x)). The array is re-materialized when α underflows.
class DenseLinearModel final : public BudgetedClassifier {
 public:
  /// Constructs a model over feature ids [0, dimension) tracking the top
  /// `heap_capacity` weights. Requires dimension >= 1, heap_capacity >= 1.
  DenseLinearModel(uint32_t dimension, const LearnerOptions& opts, size_t heap_capacity = 128);

  double PredictMargin(const SparseVector& x) const override;
  double Update(const SparseVector& x, int8_t y) override;
  float WeightEstimate(uint32_t feature) const override;
  /// Frozen read model over a materialized copy of the full weight vector
  /// (0 for features outside [0, dimension)).
  std::unique_ptr<const ReadModel> MakeReadModel() const override;
  std::vector<FeatureWeight> TopK(size_t k) const override;
  size_t MemoryCostBytes() const override {
    return TableBytes(weights_.size()) + HeapBytes(heap_.capacity());
  }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return "lr"; }

  uint32_t dimension() const { return static_cast<uint32_t>(weights_.size()); }

  /// Materializes the full weight vector w = α·v (the RelErr reference w*).
  std::vector<float> Weights() const;

 private:
  void MaybeRescale();

  LearnerOptions opts_;
  std::vector<float> weights_;  // raw v; true weight = scale_ * v
  double scale_ = 1.0;          // α
  uint64_t t_ = 0;
  TopKHeap heap_;               // raw values, same scale as weights_
};

}  // namespace wmsketch
