#include "core/truncation.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace wmsketch {

namespace {
constexpr double kMinScale = 1e-25;
}  // namespace

// ---------------------------------------------------------------- SimpleTruncation

SimpleTruncation::SimpleTruncation(size_t budget_entries, const LearnerOptions& opts)
    : opts_(opts), heap_(budget_entries) {
  assert(budget_entries >= 1);
}

double SimpleTruncation::PredictMargin(const SparseVector& x) const {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const std::optional<float> w = heap_.Get(x.index(i));
    if (w.has_value()) acc += static_cast<double>(*w) * static_cast<double>(x.value(i));
  }
  return scale_ * acc;
}

double SimpleTruncation::Update(const SparseVector& x, int8_t y) {
  const double margin = PredictMargin(x);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);
  if (opts_.lambda > 0.0) scale_ *= (1.0 - eta * opts_.lambda);
  const double step = eta * static_cast<double>(y) * g / scale_;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const double delta = -step * static_cast<double>(x.value(i));
    const std::optional<float> current = heap_.Get(feature);
    if (current.has_value()) {
      heap_.Add(feature, static_cast<float>(delta));
    } else {
      // A previously-truncated feature restarts from zero; it survives this
      // step's truncation only if its fresh weight beats the current min.
      heap_.Offer(feature, static_cast<float>(delta));
    }
  }
  MaybeRescale();
  return margin;
}

void SimpleTruncation::MaybeRescale() {
  if (scale_ >= kMinScale) return;
  heap_.Scale(static_cast<float>(scale_));
  scale_ = 1.0;
}

float SimpleTruncation::WeightEstimate(uint32_t feature) const {
  const std::optional<float> w = heap_.Get(feature);
  if (!w.has_value()) return 0.0f;
  return static_cast<float>(scale_ * static_cast<double>(*w));
}

std::vector<FeatureWeight> SimpleTruncation::TopK(size_t k) const {
  std::vector<FeatureWeight> out;
  out.reserve(heap_.size());
  for (const FeatureWeight& fw : heap_.Entries()) {
    out.push_back(FeatureWeight{fw.feature, static_cast<float>(scale_ * fw.weight)});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

// --------------------------------------------------------- ProbabilisticTruncation

ProbabilisticTruncation::ProbabilisticTruncation(size_t budget_entries,
                                                 const LearnerOptions& opts)
    : opts_(opts), capacity_(budget_entries), rng_(opts.seed ^ 0x9e3779b97f4a7c15ULL) {
  assert(budget_entries >= 1);
}

double ProbabilisticTruncation::Priority(double a, float raw_weight) {
  const double mag = std::fabs(static_cast<double>(raw_weight));
  if (mag == 0.0) return -std::numeric_limits<double>::max();  // evict zeros first
  return -a / mag;
}

double ProbabilisticTruncation::PredictMargin(const SparseVector& x) const {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const IndexedMinHeap::Entry* e = heap_.Find(x.index(i));
    if (e != nullptr) acc += static_cast<double>(e->value) * static_cast<double>(x.value(i));
  }
  return scale_ * acc;
}

double ProbabilisticTruncation::Update(const SparseVector& x, int8_t y) {
  const double margin = PredictMargin(x);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);
  if (opts_.lambda > 0.0) scale_ *= (1.0 - eta * opts_.lambda);
  const double step = eta * static_cast<double>(y) * g / scale_;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const double delta = -step * static_cast<double>(x.value(i));
    const IndexedMinHeap::Entry* e = heap_.Find(feature);
    if (e != nullptr) {
      // W ← W^{|S_t/S_{t+1}|}: recompute the key with the entry's original
      // exponential variate A (recovered from the stored priority) and its
      // new weight.
      const double a = -e->priority * std::fabs(static_cast<double>(e->value));
      const float w = e->value + static_cast<float>(delta);
      heap_.Update(feature, Priority(a, w), w);
      continue;
    }
    // New candidate: fresh reservoir key with A ~ Exp(1).
    const double a = rng_.NextExponential();
    const float w = static_cast<float>(delta);
    const double priority = Priority(a, w);
    if (heap_.size() < capacity_) {
      heap_.Insert(feature, priority, w);
    } else if (priority > heap_.Min().priority) {
      heap_.PopMin();
      heap_.Insert(feature, priority, w);
    }
  }
  MaybeRescale();
  return margin;
}

void ProbabilisticTruncation::MaybeRescale() {
  if (scale_ >= kMinScale) return;
  const float f = static_cast<float>(scale_);
  // Weights shrink by f; priorities -A/|w| grow by 1/f — both are global
  // positive monotone maps, so heap order is untouched.
  heap_.MutateAllOrderPreserving([f](IndexedMinHeap::Entry& e) {
    e.value *= f;
    e.priority /= static_cast<double>(f);
  });
  scale_ = 1.0;
}

float ProbabilisticTruncation::WeightEstimate(uint32_t feature) const {
  const IndexedMinHeap::Entry* e = heap_.Find(feature);
  if (e == nullptr) return 0.0f;
  return static_cast<float>(scale_ * static_cast<double>(e->value));
}

std::vector<FeatureWeight> ProbabilisticTruncation::TopK(size_t k) const {
  std::vector<FeatureWeight> out;
  out.reserve(heap_.size());
  for (const auto& e : heap_.entries()) {
    out.push_back(FeatureWeight{e.key, static_cast<float>(scale_ * e.value)});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

}  // namespace wmsketch
