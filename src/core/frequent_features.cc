#include "core/frequent_features.h"

#include <cassert>

namespace wmsketch {

namespace {
constexpr double kMinScale = 1e-25;
}  // namespace

// ------------------------------------------------------------ SpaceSavingFrequent

SpaceSavingFrequent::SpaceSavingFrequent(size_t budget_entries, const LearnerOptions& opts)
    : opts_(opts), ss_(budget_entries) {
  assert(budget_entries >= 1);
  weights_.reserve(budget_entries);
}

double SpaceSavingFrequent::PredictMargin(const SparseVector& x) const {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    auto it = weights_.find(x.index(i));
    if (it != weights_.end()) {
      acc += static_cast<double>(it->second) * static_cast<double>(x.value(i));
    }
  }
  return scale_ * acc;
}

double SpaceSavingFrequent::Update(const SparseVector& x, int8_t y) {
  const double margin = PredictMargin(x);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);
  if (opts_.lambda > 0.0) scale_ *= (1.0 - eta * opts_.lambda);
  const double step = eta * static_cast<double>(y) * g / scale_;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    // Frequency tracking: one occurrence per nonzero appearance.
    const uint32_t evicted = ss_.Update(feature);
    if (evicted != SpaceSaving::kNoEviction) weights_.erase(evicted);
    if (ss_.Contains(feature)) {
      // Learn a weight only while the feature is monitored.
      weights_[feature] -= static_cast<float>(step * static_cast<double>(x.value(i)));
    }
  }
  MaybeRescale();
  return margin;
}

void SpaceSavingFrequent::MaybeRescale() {
  if (scale_ >= kMinScale) return;
  const float f = static_cast<float>(scale_);
  for (auto& [feature, w] : weights_) w *= f;
  scale_ = 1.0;
}

float SpaceSavingFrequent::WeightEstimate(uint32_t feature) const {
  auto it = weights_.find(feature);
  if (it == weights_.end()) return 0.0f;
  return static_cast<float>(scale_ * static_cast<double>(it->second));
}

std::vector<FeatureWeight> SpaceSavingFrequent::TopK(size_t k) const {
  std::vector<FeatureWeight> out;
  out.reserve(weights_.size());
  for (const auto& [feature, w] : weights_) {
    out.push_back(FeatureWeight{feature, static_cast<float>(scale_ * static_cast<double>(w))});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

// --------------------------------------------------------------- CountMinFrequent

CountMinFrequent::CountMinFrequent(uint32_t cm_width, uint32_t cm_depth, size_t budget_entries,
                                   const LearnerOptions& opts)
    : opts_(opts),
      cm_(cm_width, cm_depth, SplitMix64(opts.seed ^ 0xc3a5c85c97cb3127ULL).Next(),
          /*conservative=*/true),
      capacity_(budget_entries) {
  assert(budget_entries >= 1);
}

double CountMinFrequent::PredictMargin(const SparseVector& x) const {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const IndexedMinHeap::Entry* e = heap_.Find(x.index(i));
    if (e != nullptr) acc += static_cast<double>(e->value) * static_cast<double>(x.value(i));
  }
  return scale_ * acc;
}

double CountMinFrequent::Update(const SparseVector& x, int8_t y) {
  const double margin = PredictMargin(x);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);
  if (opts_.lambda > 0.0) scale_ *= (1.0 - eta * opts_.lambda);
  const double step = eta * static_cast<double>(y) * g / scale_;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    // Single-hash: the frequency bump and the refreshed estimate share one
    // bucket evaluation per row.
    const double count = cm_.UpdateAndQuery(feature, 1.0);
    const float delta = static_cast<float>(-step * static_cast<double>(x.value(i)));
    const IndexedMinHeap::Entry* e = heap_.Find(feature);
    if (e != nullptr) {
      heap_.Update(feature, count, e->value + delta);
      continue;
    }
    if (heap_.size() < capacity_) {
      heap_.Insert(feature, count, delta);
    } else if (count > heap_.Min().priority) {
      // The feature's apparent count overtook the least-frequent monitored
      // feature: swap them; the evictee's weight is discarded.
      heap_.PopMin();
      heap_.Insert(feature, count, delta);
    }
  }
  MaybeRescale();
  return margin;
}

void CountMinFrequent::MaybeRescale() {
  if (scale_ >= kMinScale) return;
  const float f = static_cast<float>(scale_);
  // Weights scale; count priorities are untouched, so order is preserved.
  heap_.MutateAllOrderPreserving([f](IndexedMinHeap::Entry& e) { e.value *= f; });
  scale_ = 1.0;
}

float CountMinFrequent::WeightEstimate(uint32_t feature) const {
  const IndexedMinHeap::Entry* e = heap_.Find(feature);
  if (e == nullptr) return 0.0f;
  return static_cast<float>(scale_ * static_cast<double>(e->value));
}

std::vector<FeatureWeight> CountMinFrequent::TopK(size_t k) const {
  std::vector<FeatureWeight> out;
  out.reserve(heap_.size());
  for (const auto& e : heap_.entries()) {
    out.push_back(FeatureWeight{e.key, static_cast<float>(scale_ * e.value)});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

}  // namespace wmsketch
