#include "linear/feature_hashing.h"

#include <memory>

#include "sketch/hash_plan.h"
#include "sketch/read_path.h"
#include "util/simd.h"

namespace wmsketch {

FeatureHashingClassifier::FeatureHashingClassifier(uint32_t buckets, const LearnerOptions& opts)
    : opts_(opts), hash_(SignedRows(opts.seed, buckets, /*depth=*/1).front()), table_(buckets) {}

double FeatureHashingClassifier::PredictMargin(const SparseVector& x) const {
  // Updates ride the depth-1 plan so their hashes feed both the margin and
  // the scatter; a standalone read has nothing to share them with.
  return readpath::FusedMargin(table_.data(), Rows(), x, scale_);
}

void FeatureHashingClassifier::PredictBatch(std::span<const Example> batch,
                                            double* margins) const {
  readpath::MarginBatch(table_.data(), Rows(), batch, scale_, margins);
}

void FeatureHashingClassifier::EstimateBatch(std::span<const uint32_t> features,
                                             float* out) const {
  readpath::EstimateBatch(table_.data(), Rows(), features, scale_, out);
}

std::unique_ptr<const ReadModel> FeatureHashingClassifier::MakeReadModel() const {
  return std::make_unique<readpath::SketchReadModel>(std::vector<SignedBucketHash>{hash_},
                                                     table_.SharePages(), scale_, scale_);
}

double FeatureHashingClassifier::Update(const SparseVector& x, int8_t y) {
  HashPlan& plan = TlsPlan();
  plan.Build(Rows(), x);
  return UpdateWithPlan(x, y, plan.View());
}

double FeatureHashingClassifier::UpdateWithPlan(const SparseVector& x, int8_t y,
                                                const simd::PlanView& plan) {
  const double margin = scale_ * simd::PlanMargin(table_.data(), plan, x.values().data());
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);
  if (opts_.lambda > 0.0) scale_ *= (1.0 - eta * opts_.lambda);
  const double step = eta * static_cast<double>(y) * g / scale_;
  table_.MarkPlanDirty(plan.offsets, plan.entries());
  simd::PlanScatter(table_.data(), plan, x.values().data(), step);
  MaybeRescale();
  return margin;
}

void FeatureHashingClassifier::UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) {
  // Whole-batch hashing into the arena + next-example prefetch, exactly as
  // in the sketches; bit-identical to the per-example loop.
  HashPlanArena& arena = TlsArena();
  arena.Build(Rows(), batch);
  for (size_t e = 0; e < batch.size(); ++e) {
    if (e + 1 < batch.size()) arena.PrefetchTable(table_.data(), e + 1);
    const double margin = UpdateWithPlan(batch[e].x, batch[e].y, arena.View(e));
    if (margins != nullptr) margins->push_back(margin);
  }
}

void FeatureHashingClassifier::MaybeRescale() {
  if (scale_ >= kMinLazyScale) return;
  table_.MarkAllDirty();
  simd::ScaleTable(table_.data(), table_.size(), static_cast<float>(scale_));
  scale_ = 1.0;
}

float FeatureHashingClassifier::WeightEstimate(uint32_t feature) const {
  return readpath::FusedEstimate(table_.data(), Rows(), feature, scale_);
}

std::vector<FeatureWeight> FeatureHashingClassifier::TopK(size_t) const { return {}; }

}  // namespace wmsketch
