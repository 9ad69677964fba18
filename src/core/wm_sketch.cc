#include "core/wm_sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "sketch/hash_plan.h"
#include "sketch/merge_compat.h"
#include "sketch/read_path.h"
#include "util/math.h"
#include "util/random.h"
#include "util/simd.h"

namespace wmsketch {

namespace {

constexpr double kMinScale = 1e-25;

/// The frozen WM read model: copies of the hash rows, the *published pages*
/// of the raw table (shared with other snapshots; only pages dirtied since
/// the previous publication were copied), and the two resolved scale
/// factors. Every answer runs the shared sketch/read_path.h paged kernels,
/// whose arithmetic is the flat kernels' verbatim — frozen answers stay
/// bit-identical to what the live model answered at capture time.
class WmReadModel final : public ReadModel {
 public:
  WmReadModel(std::vector<SignedBucketHash> rows, PageSet<float> pages,
              double margin_factor, double estimate_factor)
      : rows_(std::move(rows)),
        pages_(std::move(pages)),
        margin_factor_(margin_factor),
        estimate_factor_(estimate_factor) {}

  double PredictMargin(const SparseVector& x) const override {
    return readpath::FusedMarginPaged(pages_.view(), rows_, x, margin_factor_);
  }

  void PredictBatch(std::span<const Example> batch, double* out) const override {
    readpath::MarginBatchPaged(pages_.view(), rows_, batch, margin_factor_, out);
  }

  float Estimate(uint32_t feature) const override {
    return readpath::FusedEstimatePaged(pages_.view(), rows_, feature, estimate_factor_);
  }

  void EstimateBatch(std::span<const uint32_t> features, float* out) const override {
    readpath::EstimateBatchPaged(pages_.view(), rows_, features, estimate_factor_, out);
  }

  size_t ResidentBytes() const override { return pages_.ResidentBytes(); }

 private:
  std::vector<SignedBucketHash> rows_;
  PageSet<float> pages_;
  double margin_factor_;    // α/√s — applied to raw margin sums
  double estimate_factor_;  // √s·α — applied to raw medians
};

}  // namespace

WmSketch::WmSketch(const WmSketchConfig& config, const LearnerOptions& opts)
    : config_(config),
      opts_(opts),
      sqrt_depth_(std::sqrt(static_cast<double>(config.depth))),
      heap_(config.heap_capacity > 0 ? config.heap_capacity : 1) {
  assert(IsPowerOfTwo(config.width));
  assert(config.depth >= 1 && config.depth <= kMaxDepth);
  SplitMix64 sm(opts.seed);
  rows_.reserve(config.depth);
  for (uint32_t j = 0; j < config.depth; ++j) rows_.emplace_back(sm.Next(), config.width);
  table_ = PagedTable(static_cast<size_t>(config.width) * config.depth);
}

double WmSketch::PredictMargin(const SparseVector& x) const {
  // τ = zᵀRx = (α/√s)·Σ_i x_i Σ_j σ_j(i)·v[j, h_j(i)]. The standalone query
  // path keeps the fused hash-and-accumulate loop: it already hashes each
  // pair once, and materializing a plan here would only add buffer traffic.
  // Updates compute this same sum through their plan (MarginFromPlan) so the
  // hashes are reused by the scatter and heap stages.
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    double per_feature = 0.0;
    for (uint32_t j = 0; j < config_.depth; ++j) {
      uint32_t bucket;
      float sign;
      rows_[j].BucketAndSign(feature, &bucket, &sign);
      per_feature += static_cast<double>(sign) * static_cast<double>(Row(j)[bucket]);
    }
    acc += per_feature * static_cast<double>(x.value(i));
  }
  return scale_ / sqrt_depth_ * acc;
}

void WmSketch::PredictBatch(std::span<const Example> batch, double* margins) const {
  readpath::PlanMarginBatch(table_.data(), rows_, batch, scale_ / sqrt_depth_, margins);
}

void WmSketch::EstimateBatch(std::span<const uint32_t> features, float* out) const {
  readpath::GatherMedianBatch(table_.data(), rows_, features, sqrt_depth_ * scale_, out);
}

std::unique_ptr<const ReadModel> WmSketch::MakeReadModel() const {
  return std::make_unique<WmReadModel>(rows_, table_.SharePages(), scale_ / sqrt_depth_,
                                       sqrt_depth_ * scale_);
}

double WmSketch::MarginFromPlan(const simd::PlanView& plan, const SparseVector& x,
                                float* scratch) const {
  return scale_ / sqrt_depth_ *
         simd::PlanMargin(table_.data(), plan, x.values().data(), scratch);
}

double WmSketch::Update(const SparseVector& x, int8_t y) {
  // Hash once: all nnz×depth (bucket, sign) pairs of this example feed the
  // margin, the gradient scatter, and the heap offers below.
  HashPlan& plan = TlsPlan();
  plan.Build(rows_, x);
  return UpdateWithPlan(x, y, plan.View(), plan.scratch());
}

double WmSketch::UpdateWithPlan(const SparseVector& x, int8_t y,
                                const simd::PlanView& plan, float* scratch) {
  const double margin = MarginFromPlan(plan, x, scratch);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);

  // z ← (1−λη)z, folded into the global scale.
  if (opts_.lambda > 0.0) scale_ *= (1.0 - eta * opts_.lambda);

  // z ← z − η·y·g·Rx: each nonzero feature touches one bucket per row with
  // its sign, scaled by 1/√s (from R = A/√s) and divided by the new α.
  // Every cell the scatter will touch is in the plan, so one batched mark
  // covers the whole write set (no-op until the first snapshot publication).
  table_.MarkPlanDirty(plan.offsets, plan.entries());
  const double step = eta * static_cast<double>(y) * g / (sqrt_depth_ * scale_);
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
    simd::PlanScatter(table_.data(), plan, x.values().data(), step, scratch);
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
    const double margin =
        UpdateWithPlan(batch[e].x, batch[e].y, arena.View(e), arena.scratch());
    if (margins != nullptr) margins->push_back(margin);
  }
}

WeightEstimator WmSketch::EstimatorSnapshot() const {
  // Shares published pages with every other snapshot (O(dirty) capture, not
  // O(budget)); the closure is the paged fused estimate, bit-identical to
  // the live WeightEstimate at capture time.
  struct State {
    std::vector<SignedBucketHash> rows;
    PageSet<float> pages;
    double scale;  // √s·α, the factor WeightEstimate applies to raw medians
  };
  auto st = std::make_shared<const State>(
      State{rows_, table_.SharePages(), sqrt_depth_ * scale_});
  return [st](uint32_t feature) {
    return readpath::FusedEstimatePaged(st->pages.view(), st->rows, feature, st->scale);
  };
}

Status WmSketch::CanMerge(const BudgetedClassifier& other) const {
  const auto* o = dynamic_cast<const WmSketch*>(&other);
  if (o == nullptr) {
    return Status::InvalidArgument("wm merge: cannot merge a '" + other.Name() +
                                   "' model into a wm sketch");
  }
  WMS_RETURN_NOT_OK(CheckMergeCompatible(
      "wm", SketchShape{config_.width, config_.depth, opts_.seed},
      SketchShape{o->config_.width, o->config_.depth, o->opts_.seed}));
  return CheckCapacityCompatible("wm", "heap capacity", config_.heap_capacity,
                                 o->config_.heap_capacity);
}

Status WmSketch::MergeScaled(const BudgetedClassifier& other, double coeff) {
  WMS_RETURN_NOT_OK(CanMerge(other));
  if (!std::isfinite(coeff)) {
    return Status::InvalidArgument("wm merge: coefficient must be finite");
  }
  const WmSketch& o = static_cast<const WmSketch&>(other);

  // Resolve the two lazy global scales into this sketch's representation:
  // z = α_a·v_a + c·α_b·v_b = α_a·(v_a + (c·α_b/α_a)·v_b). A merge sweeps
  // every cell, so only the pages it writes — all of them — are COW'd.
  const double ratio = coeff * o.scale_ / scale_;
  table_.MarkAllDirty();
  simd::MergeScaledTable(table_.data(), o.table_.data(), table_.size(), ratio);

  // The merged table shifts every bucket, so neither heap's cached raw
  // medians are current. Rebuild over the union of tracked candidates,
  // offered in ascending feature order for determinism.
  if (config_.heap_capacity > 0) {
    std::vector<uint32_t> candidates;
    candidates.reserve(heap_.size() + o.heap_.size());
    for (const FeatureWeight& fw : heap_.Entries()) candidates.push_back(fw.feature);
    for (const FeatureWeight& fw : o.heap_.Entries()) candidates.push_back(fw.feature);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    TopKHeap rebuilt(config_.heap_capacity);
    for (const uint32_t feature : candidates) rebuilt.Offer(feature, RawMedian(feature));
    heap_ = std::move(rebuilt);
  }
  MaybeRescale();
  return Status::OK();
}

Status WmSketch::ScaleWeights(double factor) {
  if (!(factor > 0.0)) {
    return Status::InvalidArgument("wm scale: factor must be positive");
  }
  // The heap stores *raw* medians, which are untouched by a pure change of
  // the global scale, so this is O(1).
  scale_ *= factor;
  MaybeRescale();
  return Status::OK();
}

Status WmSketch::SetSteps(uint64_t steps) {
  t_ = steps;
  return Status::OK();
}

std::unique_ptr<BudgetedClassifier> WmSketch::Clone() const {
  return std::make_unique<WmSketch>(*this);
}

float WmSketch::RawMedian(uint32_t feature) const {
  float est[kMaxDepth];
  for (uint32_t j = 0; j < config_.depth; ++j) {
    uint32_t bucket;
    float sign;
    rows_[j].BucketAndSign(feature, &bucket, &sign);
    est[j] = sign * Row(j)[bucket];
  }
  return MedianInPlace(est, config_.depth);
}

float WmSketch::RawMedianFromPlan(const simd::PlanView& plan, size_t i) const {
  // RawMedian without re-hashing: the plan already knows feature i's cells.
  float est[kMaxDepth];
  simd::GatherSigned(table_.data(), plan.offsets + i * plan.depth,
                     plan.signs + i * plan.depth, plan.depth, est);
  return MedianInPlace(est, plan.depth);
}

void WmSketch::MaybeRescale() {
  if (scale_ >= kMinScale) return;
  table_.MarkAllDirty();
  simd::ScaleTable(table_.data(), table_.size(), static_cast<float>(scale_));
  heap_.Scale(static_cast<float>(scale_));
  scale_ = 1.0;
}

float WmSketch::WeightEstimate(uint32_t feature) const {
  // ŵ_i = median_j(√s·σ_j(i)·z[j,h_j(i)]) = √s·α·RawMedian(i).
  return static_cast<float>(sqrt_depth_ * scale_ * static_cast<double>(RawMedian(feature)));
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
