#include "linear/dense_linear_model.h"

#include <cassert>
#include <memory>
#include <utility>

namespace wmsketch {

namespace {
// Rescale threshold: keeps raw float values far from overflow even though
// the true weights stay O(1) as the scale shrinks.
constexpr double kMinScale = 1e-25;

/// The dense model frozen: a copy of w = α·v, with ReadModel's linear margin.
class DenseReadModel final : public ReadModel {
 public:
  explicit DenseReadModel(std::vector<float> weights) : weights_(std::move(weights)) {}

  float Estimate(uint32_t feature) const override {
    return feature < weights_.size() ? weights_[feature] : 0.0f;
  }

  size_t ResidentBytes() const override { return weights_.size() * sizeof(float); }

 private:
  std::vector<float> weights_;
};

}  // namespace

DenseLinearModel::DenseLinearModel(uint32_t dimension, const LearnerOptions& opts,
                                   size_t heap_capacity)
    : opts_(opts), weights_(dimension, 0.0f), heap_(heap_capacity) {
  assert(dimension >= 1);
}

double DenseLinearModel::PredictMargin(const SparseVector& x) const {
  return scale_ * x.Dot(weights_);
}

double DenseLinearModel::Update(const SparseVector& x, int8_t y) {
  const double margin = PredictMargin(x);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);

  // Lazy decay: w ← (1-ηλ)w via the global scale.
  if (opts_.lambda > 0.0) scale_ *= (1.0 - eta * opts_.lambda);

  // Gradient step: w_i ← w_i − η·y·g·x_i, written through the scale.
  const double step = eta * static_cast<double>(y) * g / scale_;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t idx = x.index(i);
    assert(idx < weights_.size());
    weights_[idx] -= static_cast<float>(step * static_cast<double>(x.value(i)));
    // Passive top-K maintenance on the raw values; the shared scale keeps
    // magnitude order identical to the true weights.
    heap_.Offer(idx, weights_[idx]);
  }
  MaybeRescale();
  return margin;
}

std::unique_ptr<const ReadModel> DenseLinearModel::MakeReadModel() const {
  return std::make_unique<DenseReadModel>(Weights());
}

void DenseLinearModel::MaybeRescale() {
  if (scale_ >= kMinScale) return;
  const float f = static_cast<float>(scale_);
  for (float& w : weights_) w *= f;
  heap_.Scale(f);
  scale_ = 1.0;
}

float DenseLinearModel::WeightEstimate(uint32_t feature) const {
  assert(feature < weights_.size());
  return static_cast<float>(scale_ * static_cast<double>(weights_[feature]));
}

std::vector<FeatureWeight> DenseLinearModel::TopK(size_t k) const {
  // Re-query current values for the tracked candidates; cheap and exact.
  std::vector<FeatureWeight> out;
  out.reserve(heap_.size());
  for (const FeatureWeight& fw : heap_.Entries()) {
    out.push_back(FeatureWeight{fw.feature, WeightEstimate(fw.feature)});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

std::vector<float> DenseLinearModel::Weights() const {
  std::vector<float> out(weights_.size());
  for (size_t i = 0; i < weights_.size(); ++i) {
    out[i] = static_cast<float>(scale_ * static_cast<double>(weights_[i]));
  }
  return out;
}

}  // namespace wmsketch
