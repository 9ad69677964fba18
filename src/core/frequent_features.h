#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "linear/classifier.h"
#include "sketch/count_min.h"
#include "sketch/space_saving.h"
#include "util/indexed_heap.h"
#include "util/memory_cost.h"
#include "util/status.h"

namespace wmsketch {

class SpaceSavingFrequent;
class CountMinFrequent;
namespace snapshot {
class SnapshotReader;
}
namespace detail {
Status SaveSpaceSavingFrequentPayload(const SpaceSavingFrequent&, std::ostream&);
Result<SpaceSavingFrequent> LoadSpaceSavingFrequentPayload(snapshot::SnapshotReader&,
                                                           const LearnerOptions&);
Status SaveCountMinFrequentPayload(const CountMinFrequent&, std::ostream&);
Result<CountMinFrequent> LoadCountMinFrequentPayload(snapshot::SnapshotReader&,
                                                     const LearnerOptions&);
}  // namespace detail

/// Space-Saving Frequent-Features classifier ("SS" in Figs. 3–6): the
/// heavy-hitter heuristic the paper argues against. A Space-Saving summary
/// tracks the most *frequent* features, and classifier weights are learned
/// only for the currently-monitored set; when Space-Saving evicts a feature
/// its weight is discarded.
///
/// Works when frequent features happen to be discriminative (RCV1-like
/// streams) and fails when they are not (URL-like streams) — reproducing the
/// paper's central observation that frequency is the wrong notion of
/// importance for classifiers.
class SpaceSavingFrequent final : public BudgetedClassifier {
 public:
  /// Constructs with `budget_entries` monitored features (>= 1).
  SpaceSavingFrequent(size_t budget_entries, const LearnerOptions& opts);

  double PredictMargin(const SparseVector& x) const override;
  double Update(const SparseVector& x, int8_t y) override;
  float WeightEstimate(uint32_t feature) const override;
  std::vector<FeatureWeight> TopK(size_t k) const override;
  /// (id, count, weight) per monitored slot.
  size_t MemoryCostBytes() const override { return ss_.MemoryCostBytes(); }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return "ss"; }

  const SpaceSaving& summary() const { return ss_; }

 private:
  friend Status detail::SaveSpaceSavingFrequentPayload(const SpaceSavingFrequent&,
                                                       std::ostream&);
  friend Result<SpaceSavingFrequent> detail::LoadSpaceSavingFrequentPayload(
      snapshot::SnapshotReader&, const LearnerOptions&);

  void MaybeRescale();

  LearnerOptions opts_;
  SpaceSaving ss_;
  std::unordered_map<uint32_t, float> weights_;  // raw; true = scale_ * raw
  double scale_ = 1.0;
  uint64_t t_ = 0;
};

/// Count-Min Frequent-Features classifier ("CM-FF"): like SpaceSavingFrequent
/// but the frequency filter is a Count-Min sketch and the monitored set is a
/// count-ordered heap of the apparent heavy hitters. Included for
/// completeness — the paper omits it from plots because Space-Saving
/// dominated it, which our `bench_fig3_recovery` confirms.
class CountMinFrequent final : public BudgetedClassifier {
 public:
  /// Constructs with a CM sketch of `cm_width` x `cm_depth` counters and
  /// `budget_entries` monitored (feature, weight) slots.
  CountMinFrequent(uint32_t cm_width, uint32_t cm_depth, size_t budget_entries,
                   const LearnerOptions& opts);

  double PredictMargin(const SparseVector& x) const override;
  double Update(const SparseVector& x, int8_t y) override;
  float WeightEstimate(uint32_t feature) const override;
  std::vector<FeatureWeight> TopK(size_t k) const override;
  /// CM counters + (id, weight) per monitored slot.
  size_t MemoryCostBytes() const override {
    return cm_.MemoryCostBytes() + HeapBytes(capacity_);
  }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return "cmff"; }

  /// The frequency-filter sketch (shape introspection).
  const CountMinSketch& sketch() const { return cm_; }
  /// Number of monitored (feature, weight) slots.
  size_t capacity() const { return capacity_; }

 private:
  friend Status detail::SaveCountMinFrequentPayload(const CountMinFrequent&, std::ostream&);
  friend Result<CountMinFrequent> detail::LoadCountMinFrequentPayload(
      snapshot::SnapshotReader&, const LearnerOptions&);

  void MaybeRescale();

  LearnerOptions opts_;
  CountMinSketch cm_;
  size_t capacity_;
  // priority = estimated count (monotone increasing); value = raw weight.
  IndexedMinHeap heap_;
  double scale_ = 1.0;
  uint64_t t_ = 0;
};

}  // namespace wmsketch
