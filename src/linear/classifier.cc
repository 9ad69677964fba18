#include "linear/classifier.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

namespace wmsketch {

Status BudgetedClassifier::CanMerge(const BudgetedClassifier& other) const {
  (void)other;
  return Status::Unimplemented(Name() + " does not support merging");
}

Status BudgetedClassifier::MergeScaled(const BudgetedClassifier& other, double coeff) {
  (void)other;
  (void)coeff;
  return Status::Unimplemented(Name() + " does not support merging");
}

Status BudgetedClassifier::ScaleWeights(double factor) {
  (void)factor;
  return Status::Unimplemented(Name() + " does not support weight scaling");
}

Status BudgetedClassifier::SetSteps(uint64_t steps) {
  (void)steps;
  return Status::Unimplemented(Name() + " does not support step overrides");
}

std::unique_ptr<BudgetedClassifier> BudgetedClassifier::Clone() const { return nullptr; }

namespace {

/// The default frozen read model: a copy of every tracked weight, answering
/// 0 for the rest, with ReadModel's linear margin over those float weights.
/// Exact for every method whose live margin is that same functional of its
/// tracked weights (the Sec. 7 baselines apply one shared lazy scale per
/// margin where this applies it per copied term, so agreement is up to the
/// float rounding of the individual weights).
class TrackedWeightsReadModel final : public ReadModel {
 public:
  explicit TrackedWeightsReadModel(std::vector<FeatureWeight> tracked)
      : weights_(std::move(tracked)) {
    std::sort(weights_.begin(), weights_.end(), [](const FeatureWeight& a, const FeatureWeight& b) {
      return a.feature < b.feature;
    });
  }

  float Estimate(uint32_t feature) const override {
    const auto it = std::lower_bound(
        weights_.begin(), weights_.end(), feature,
        [](const FeatureWeight& fw, uint32_t f) { return fw.feature < f; });
    return it != weights_.end() && it->feature == feature ? it->weight : 0.0f;
  }

  size_t ResidentBytes() const override { return weights_.capacity() * sizeof(FeatureWeight); }

 private:
  std::vector<FeatureWeight> weights_;  // sorted by feature
};

}  // namespace

std::unique_ptr<const ReadModel> BudgetedClassifier::MakeReadModel() const {
  return std::make_unique<TrackedWeightsReadModel>(
      TopK(std::numeric_limits<size_t>::max()));
}

std::vector<FeatureWeight> ScanTopK(const ReadModel& model, size_t k, uint32_t dimension) {
  TopKHeap heap(k);
  for (uint32_t i = 0; i < dimension; ++i) {
    const float w = model.Estimate(i);
    if (w == 0.0f) continue;
    heap.Offer(i, w);
  }
  return heap.TopK(k);
}

}  // namespace wmsketch
