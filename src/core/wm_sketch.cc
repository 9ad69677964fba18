#include "core/wm_sketch.h"

#include <memory>
#include <utility>

#include "sketch/hash_plan.h"
#include "sketch/read_path.h"
#include "util/math.h"
#include "util/simd.h"

namespace wmsketch {

WmSketch::WmSketch(const WmSketchConfig& config, const LearnerOptions& opts)
    : LinearSketch(Method::kWmSketch, config, opts, /*num_scales=*/1) {}

double WmSketch::PredictMargin(const SparseVector& x) const {
  // τ = zᵀRx = (α/√s)·Σ_i x_i Σ_j σ_j(i)·v[j, h_j(i)]. Updates compute this
  // same sum through their plan (MarginFromPlan) so the hashes are reused by
  // the scatter and heap stages; a standalone read has none to share.
  return readpath::FusedMargin(table_.data(), rows_, x, table_scale() / sqrt_depth_);
}

void WmSketch::PredictBatch(std::span<const Example> batch, double* margins) const {
  readpath::MarginBatch(table_.data(), rows_, batch, table_scale() / sqrt_depth_, margins);
}

void WmSketch::EstimateBatch(std::span<const uint32_t> features, float* out) const {
  readpath::EstimateBatch(table_.data(), rows_, features, sqrt_depth_ * table_scale(), out);
}

std::unique_ptr<const ReadModel> WmSketch::MakeReadModel() const {
  return std::make_unique<readpath::SketchReadModel>(
      rows_, table_.SharePages(), table_scale() / sqrt_depth_, sqrt_depth_ * table_scale());
}

double WmSketch::MarginFromPlan(const simd::PlanView& plan, const SparseVector& x) const {
  return table_scale() / sqrt_depth_ * simd::PlanMargin(table_.data(), plan, x.values().data());
}

double WmSketch::Update(const SparseVector& x, int8_t y) {
  // Hash once: all nnz×depth (bucket, sign) pairs of this example feed the
  // margin, the gradient scatter, and the heap offers below.
  HashPlan& plan = TlsPlan();
  plan.Build(rows_, x);
  return UpdateWithPlan(x, y, plan.View());
}

double WmSketch::UpdateWithPlan(const SparseVector& x, int8_t y,
                                const simd::PlanView& plan) {
  const double margin = MarginFromPlan(plan, x);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);

  // z ← (1−λη)z, folded into the global scale.
  if (opts_.lambda > 0.0) table_scale() *= (1.0 - eta * opts_.lambda);

  // z ← z − η·y·g·Rx: each nonzero feature touches one bucket per row with
  // its sign, scaled by 1/√s (from R = A/√s) and divided by the new α.
  // Every cell the scatter will touch is in the plan, so one batched mark
  // covers the whole write set (no-op until the first snapshot publication).
  table_.MarkPlanDirty(plan.offsets, plan.entries());
  const double step = eta * static_cast<double>(y) * g / (sqrt_depth_ * table_scale());
  if (config_.heap_capacity > 0) {
    // Passive top-K tracking on raw medians (Sec. 5.2 baseline scheme): raw
    // magnitude order equals true-estimate order because √s·α is a shared
    // positive factor. The heap offer for feature i must observe the
    // scatters of features 0..i only (two colliding features of one example
    // read different intermediate cells), so scatter and offer interleave
    // per feature exactly as the pre-plan loop did.
    const uint32_t d = plan.depth;
    float* tbl = table_.data();
    for (size_t i = 0; i < plan.nnz; ++i) {
      const double delta = step * static_cast<double>(x.value(i));
      const uint32_t* off = plan.offsets + i * d;
      const float* sg = plan.signs + i * d;
      for (uint32_t j = 0; j < d; ++j) {
        tbl[off[j]] -= static_cast<float>(delta * static_cast<double>(sg[j]));
      }
      heap_.Offer(x.index(i), RawMedianFromPlan(plan, i));
    }
  } else {
    simd::PlanScatter(table_.data(), plan, x.values().data(), step);
  }
  MaybeRescale();
  return margin;
}

void WmSketch::UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) {
  // Hash the whole batch up front into one arena (one allocation burst per
  // batch), then walk it, prefetching the table cells of example e+1 while
  // example e updates. State evolution is bit-identical to the per-example
  // loop: the plans are pure functions of the features.
  HashPlanArena& arena = TlsArena();
  arena.Build(rows_, batch);
  for (size_t e = 0; e < batch.size(); ++e) {
    if (e + 1 < batch.size()) arena.PrefetchTable(table_.data(), e + 1);
    const double margin = UpdateWithPlan(batch[e].x, batch[e].y, arena.View(e));
    if (margins != nullptr) margins->push_back(margin);
  }
}

Status WmSketch::MergeScaled(const BudgetedClassifier& other, double coeff) {
  WMS_RETURN_NOT_OK(CheckMerge(other, coeff));
  const WmSketch& o = static_cast<const WmSketch&>(other);
  MergeTable(o, coeff);

  // The merged table shifts every bucket, so neither heap's cached raw
  // medians are current. Rebuild over the union of tracked candidates,
  // offered in ascending feature order for determinism.
  if (config_.heap_capacity > 0) {
    TopKHeap rebuilt(config_.heap_capacity);
    for (const uint32_t feature : HeapUnion(o)) rebuilt.Offer(feature, RawMedian(feature));
    heap_ = std::move(rebuilt);
  }
  MaybeRescale();
  return Status::OK();
}

std::unique_ptr<BudgetedClassifier> WmSketch::Clone() const {
  return std::make_unique<WmSketch>(*this);
}

float WmSketch::RawMedian(uint32_t feature) const {
  return readpath::FusedEstimate(table_.data(), rows_, feature, 1.0);
}

float WmSketch::RawMedianFromPlan(const simd::PlanView& plan, size_t i) const {
  // RawMedian without re-hashing: the plan already knows feature i's cells.
  float est[kMaxSketchDepth];
  simd::GatherSigned(table_.data(), plan.offsets + i * plan.depth,
                     plan.signs + i * plan.depth, plan.depth, est);
  return MedianInPlace(est, plan.depth);
}

void WmSketch::MaybeRescale() {
  double& scale = table_scale();
  if (scale >= kMinLazyScale) return;
  table_.MarkAllDirty();
  simd::ScaleTable(table_.data(), table_.size(), static_cast<float>(scale));
  heap_.Scale(static_cast<float>(scale));
  scale = 1.0;
}

float WmSketch::WeightEstimate(uint32_t feature) const {
  // ŵ_i = median_j(√s·σ_j(i)·z[j,h_j(i)]) = √s·α·RawMedian(i).
  return readpath::FusedEstimate(table_.data(), rows_, feature, sqrt_depth_ * table_scale());
}

std::vector<FeatureWeight> WmSketch::TopK(size_t k) const {
  // The heap supplies candidate identities; estimates are re-queried from
  // the live sketch, since collisions may have shifted raw values since a
  // candidate was last touched.
  std::vector<FeatureWeight> out;
  out.reserve(heap_.size());
  for (const FeatureWeight& fw : heap_.Entries()) {
    out.push_back(FeatureWeight{fw.feature, WeightEstimate(fw.feature)});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

}  // namespace wmsketch
