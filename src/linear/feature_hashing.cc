#include "linear/feature_hashing.h"

#include <cassert>
#include <memory>

#include "sketch/hash_plan.h"
#include "sketch/read_path.h"
#include "util/math.h"
#include "util/simd.h"

namespace wmsketch {

namespace {

constexpr double kMinScale = 1e-25;

/// Frozen feature-hashing read model: the bucket hash, the published pages
/// of the raw table (shared across snapshots; dirtied pages copied), and
/// the resolved scale. A depth-1 "sketch" as far as the paged read paths
/// are concerned (the median of one row is the row itself).
class HashReadModel final : public ReadModel {
 public:
  HashReadModel(SignedBucketHash hash, PageSet<float> pages, double scale)
      : hash_(hash), pages_(std::move(pages)), scale_(scale) {}

  double PredictMargin(const SparseVector& x) const override {
    return readpath::FusedMarginPaged(pages_.view(),
                                      std::span<const SignedBucketHash>(&hash_, 1), x,
                                      scale_);
  }

  void PredictBatch(std::span<const Example> batch, double* out) const override {
    readpath::MarginBatchPaged(pages_.view(),
                               std::span<const SignedBucketHash>(&hash_, 1), batch,
                               scale_, out);
  }

  float Estimate(uint32_t feature) const override {
    return readpath::FusedEstimatePaged(pages_.view(),
                                        std::span<const SignedBucketHash>(&hash_, 1),
                                        feature, scale_);
  }

  void EstimateBatch(std::span<const uint32_t> features, float* out) const override {
    readpath::EstimateBatchPaged(pages_.view(),
                                 std::span<const SignedBucketHash>(&hash_, 1), features,
                                 scale_, out);
  }

  size_t ResidentBytes() const override { return pages_.ResidentBytes(); }

 private:
  SignedBucketHash hash_;
  PageSet<float> pages_;
  double scale_;
};

}  // namespace

FeatureHashingClassifier::FeatureHashingClassifier(uint32_t buckets, const LearnerOptions& opts)
    : opts_(opts), hash_(SplitMix64(opts.seed).Next(), buckets), table_(buckets) {
  assert(IsPowerOfTwo(buckets));
}

double FeatureHashingClassifier::PredictMargin(const SparseVector& x) const {
  // Standalone queries keep the fused loop (one hash per feature already);
  // updates ride the depth-1 plan so their hashes feed both the margin and
  // the scatter.
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    uint32_t bucket;
    float sign;
    hash_.BucketAndSign(x.index(i), &bucket, &sign);
    acc += static_cast<double>(sign) * static_cast<double>(table_.data()[bucket]) *
           static_cast<double>(x.value(i));
  }
  return scale_ * acc;
}

void FeatureHashingClassifier::PredictBatch(std::span<const Example> batch,
                                            double* margins) const {
  readpath::PlanMarginBatch(table_.data(), std::span<const SignedBucketHash>(&hash_, 1),
                            batch, scale_, margins);
}

void FeatureHashingClassifier::EstimateBatch(std::span<const uint32_t> features,
                                             float* out) const {
  readpath::GatherMedianBatch(table_.data(), std::span<const SignedBucketHash>(&hash_, 1),
                              features, scale_, out);
}

std::unique_ptr<const ReadModel> FeatureHashingClassifier::MakeReadModel() const {
  return std::make_unique<HashReadModel>(hash_, table_.SharePages(), scale_);
}

double FeatureHashingClassifier::Update(const SparseVector& x, int8_t y) {
  HashPlan& plan = TlsPlan();
  plan.Build(std::span<const SignedBucketHash>(&hash_, 1), x);
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
  arena.Build(std::span<const SignedBucketHash>(&hash_, 1), batch);
  for (size_t e = 0; e < batch.size(); ++e) {
    if (e + 1 < batch.size()) arena.PrefetchTable(table_.data(), e + 1);
    const double margin = UpdateWithPlan(batch[e].x, batch[e].y, arena.View(e));
    if (margins != nullptr) margins->push_back(margin);
  }
}

WeightEstimator FeatureHashingClassifier::EstimatorSnapshot() const {
  // Shares published pages (O(dirty) capture, not O(buckets)).
  struct State {
    SignedBucketHash hash;
    PageSet<float> pages;
    double scale;
  };
  auto st = std::make_shared<const State>(State{hash_, table_.SharePages(), scale_});
  return [st](uint32_t feature) {
    uint32_t bucket;
    float sign;
    st->hash.BucketAndSign(feature, &bucket, &sign);
    return static_cast<float>(st->scale * static_cast<double>(sign) *
                              static_cast<double>(st->pages.view().At(bucket)));
  };
}

void FeatureHashingClassifier::MaybeRescale() {
  if (scale_ >= kMinScale) return;
  table_.MarkAllDirty();
  simd::ScaleTable(table_.data(), table_.size(), static_cast<float>(scale_));
  scale_ = 1.0;
}

float FeatureHashingClassifier::WeightEstimate(uint32_t feature) const {
  uint32_t bucket;
  float sign;
  hash_.BucketAndSign(feature, &bucket, &sign);
  return static_cast<float>(scale_ * static_cast<double>(sign) *
                            static_cast<double>(table_.data()[bucket]));
}

std::vector<FeatureWeight> FeatureHashingClassifier::TopK(size_t) const { return {}; }

}  // namespace wmsketch
