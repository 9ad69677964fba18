#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "linear/classifier.h"
#include "util/indexed_heap.h"
#include "util/memory_cost.h"
#include "util/random.h"
#include "util/status.h"
#include "util/top_k_heap.h"

namespace wmsketch {

class SimpleTruncation;
class ProbabilisticTruncation;
namespace snapshot {
class SnapshotReader;
}
namespace detail {
Status SaveSimpleTruncationPayload(const SimpleTruncation&, std::ostream&);
Result<SimpleTruncation> LoadSimpleTruncationPayload(snapshot::SnapshotReader&,
                                                     const LearnerOptions&);
Status SaveProbabilisticTruncationPayload(const ProbabilisticTruncation&, std::ostream&);
Result<ProbabilisticTruncation> LoadProbabilisticTruncationPayload(
    snapshot::SnapshotReader&, const LearnerOptions&);
}  // namespace detail

/// Simple Truncation (Algorithm 3): after every gradient step, keep only the
/// K largest-magnitude weights; everything else is zeroed. Untracked
/// features contribute nothing to predictions and re-enter only through
/// fresh gradient mass. The weakest recovery baseline in Fig. 3 ("Trun").
///
/// Implemented online: tracked features get exact updates; an untracked
/// nonzero feature competes for a slot with its single-step weight
/// −η·y·x_i·ℓ'(y·τ), which is exactly what surviving the end-of-step
/// truncation requires. ℓ2 decay uses the lazy scale trick.
class SimpleTruncation final : public BudgetedClassifier {
 public:
  /// Constructs a truncated model keeping `budget_entries` weights (>= 1).
  SimpleTruncation(size_t budget_entries, const LearnerOptions& opts);

  double PredictMargin(const SparseVector& x) const override;
  double Update(const SparseVector& x, int8_t y) override;
  float WeightEstimate(uint32_t feature) const override;
  std::vector<FeatureWeight> TopK(size_t k) const override;
  /// (id, weight) per tracked entry.
  size_t MemoryCostBytes() const override { return HeapBytes(heap_.capacity()); }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return "trun"; }

  /// Number of tracked entries the budget allows.
  size_t capacity() const { return heap_.capacity(); }

 private:
  friend Status detail::SaveSimpleTruncationPayload(const SimpleTruncation&, std::ostream&);
  friend Result<SimpleTruncation> detail::LoadSimpleTruncationPayload(
      snapshot::SnapshotReader&, const LearnerOptions&);

  void MaybeRescale();

  LearnerOptions opts_;
  TopKHeap heap_;      // raw weights; true = scale_ * raw
  double scale_ = 1.0;
  uint64_t t_ = 0;
};

/// Probabilistic Truncation (Algorithm 4): truncation by *weighted reservoir
/// sampling* (Efraimidis–Spirakis A-ES keys r^{1/|w|}) instead of by
/// magnitude. Entries with large weights are exponentially more likely to
/// survive, but small-weight entries occasionally persist — which breaks the
/// deterministic churn that makes Simple Truncation brittle on heavy-tailed
/// streams ("PTrun" in Figs. 3–6; notably beats Space-Saving on URL-like
/// data).
class ProbabilisticTruncation final : public BudgetedClassifier {
 public:
  /// Constructs with `budget_entries` tracked features (>= 1).
  ProbabilisticTruncation(size_t budget_entries, const LearnerOptions& opts);

  double PredictMargin(const SparseVector& x) const override;
  double Update(const SparseVector& x, int8_t y) override;
  float WeightEstimate(uint32_t feature) const override;
  std::vector<FeatureWeight> TopK(size_t k) const override;
  /// (id, weight, reservoir key) per tracked entry.
  size_t MemoryCostBytes() const override { return HeapBytes(capacity_, /*aux_per_entry=*/1); }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return "ptrun"; }

  /// Number of tracked entries the budget allows.
  size_t capacity() const { return capacity_; }

 private:
  friend Status detail::SaveProbabilisticTruncationPayload(const ProbabilisticTruncation&,
                                                           std::ostream&);
  friend Result<ProbabilisticTruncation> detail::LoadProbabilisticTruncationPayload(
      snapshot::SnapshotReader&, const LearnerOptions&);

  void MaybeRescale();
  // Priority of an entry: -A/|raw w| with A = -log r ~ Exp(1). The reservoir
  // key r^{1/|w|} is monotone in this, the heap-min is the eviction victim,
  // and a global weight rescale shifts every priority by the same positive
  // factor — so decay never needs a re-sift.
  static double Priority(double a, float raw_weight);

  LearnerOptions opts_;
  size_t capacity_;
  Rng rng_;
  // key = feature; priority as above; value = raw weight. A is recovered
  // from priority and weight when needed: A = -priority * |raw w|.
  IndexedMinHeap heap_;
  double scale_ = 1.0;
  uint64_t t_ = 0;
};

}  // namespace wmsketch
