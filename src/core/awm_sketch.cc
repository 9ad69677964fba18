#include "core/awm_sketch.h"

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

/// The frozen AWM read model: a copy of the active set (*raw* weights) and
/// its scale, and the published pages of the tail sketch (shared across
/// snapshots; only dirtied pages were copied). It reads through the same
/// readpath::ActiveSetRead as the live model, so its answers are
/// bit-identical to what the live model answered at capture time.
class AwmReadModel final : public ReadModel {
 public:
  AwmReadModel(TopKHeap active, double active_scale, std::vector<SignedBucketHash> rows,
               PageSet<float> pages, double tail_factor)
      : active_(std::move(active)),
        active_scale_(active_scale),
        rows_(std::move(rows)),
        pages_(std::move(pages)),
        tail_factor_(tail_factor) {}

  double PredictMargin(const SparseVector& x) const override { return Read().Margin(x); }
  void PredictBatch(std::span<const Example> batch, double* out) const override {
    Read().MarginBatch(batch, out);
  }
  float Estimate(uint32_t feature) const override { return Read().Estimate(feature); }
  void EstimateBatch(std::span<const uint32_t> features, float* out) const override {
    Read().EstimateBatch(features, out);
  }
  size_t ResidentBytes() const override {
    return pages_.ResidentBytes() + active_.ResidentBytes();
  }

 private:
  readpath::ActiveSetRead<PagedView<float>> Read() const {
    return {active_, active_scale_, pages_.view(), rows_, tail_factor_};
  }

  TopKHeap active_;
  double active_scale_;
  std::vector<SignedBucketHash> rows_;
  PageSet<float> pages_;
  double tail_factor_;
};

}  // namespace

AwmSketch::AwmSketch(const AwmSketchConfig& config, const LearnerOptions& opts)
    : config_(config),
      opts_(opts),
      sqrt_depth_(std::sqrt(static_cast<double>(config.depth))),
      heap_(config.heap_capacity) {
  assert(IsPowerOfTwo(config.width));
  assert(config.depth >= 1 && config.depth <= kMaxDepth);
  assert(config.heap_capacity >= 1);
  SplitMix64 sm(opts.seed);
  rows_.reserve(config.depth);
  for (uint32_t j = 0; j < config.depth; ++j) rows_.emplace_back(sm.Next(), config.width);
  table_ = PagedTable(static_cast<size_t>(config.width) * config.depth);
}

double AwmSketch::PredictMargin(const SparseVector& x) const {
  // τ = Σ_{i∈S} S[i]·x_i + zᵀR·x_tail (Algorithm 2's prediction split).
  // Updates route through PredictMarginWithPlan so the tail hashes are
  // reused by the gradient stage.
  return LiveRead().Margin(x);
}

double AwmSketch::PredictMarginWithPlan(const SparseVector& x, HashPlan& plan) const {
  // As PredictMargin, but each tail feature's hashes land in its plan slot
  // (filled on first use) where the gradient stage below reuses them, and
  // each active-set member is marked in the plan so the gradient stage
  // probes the active set for members only.
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const size_t slot = heap_.SlotOf(feature);
    double w;
    if (slot != TopKHeap::kNoSlot) {
      plan.MarkActive(i);
      w = heap_scale_ * static_cast<double>(heap_.ValueAt(slot));
    } else {
      w = static_cast<double>(SketchQueryFromPlan(plan, i, feature));
    }
    acc += w * static_cast<double>(x.value(i));
  }
  return acc;
}

void AwmSketch::PredictBatch(std::span<const Example> batch, double* margins) const {
  LiveRead().MarginBatch(batch, margins);
}

void AwmSketch::EstimateBatch(std::span<const uint32_t> features, float* out) const {
  LiveRead().EstimateBatch(features, out);
}

std::unique_ptr<const ReadModel> AwmSketch::MakeReadModel() const {
  return std::make_unique<AwmReadModel>(heap_, heap_scale_, rows_, table_.SharePages(),
                                        sqrt_depth_ * sketch_scale_);
}

readpath::ActiveSetRead<const float*> AwmSketch::LiveRead() const {
  return {heap_, heap_scale_, table_.data(), rows_, sqrt_depth_ * sketch_scale_};
}

float AwmSketch::SketchQuery(uint32_t feature) const {
  return readpath::FusedEstimate(table_.data(), rows_, feature, sqrt_depth_ * sketch_scale_);
}

float AwmSketch::SketchQueryFromPlan(HashPlan& plan, size_t i, uint32_t feature) const {
  if (!plan.has(i)) plan.FillSlot(rows_, i, feature);  // first touch: hash once
  // A per-feature gather is `depth` cells, too few for a vector gather to
  // pay; this is GatherSigned's scalar expression, inline.
  const uint32_t* off = plan.offsets(i);
  const float* sg = plan.signs(i);
  const float* tbl = table_.data();
  float est[kMaxDepth];
  for (uint32_t j = 0; j < plan.depth(); ++j) est[j] = sg[j] * tbl[off[j]];
  const float raw = MedianInPlace(est, plan.depth());
  return static_cast<float>(sqrt_depth_ * sketch_scale_ * static_cast<double>(raw));
}

void AwmSketch::SketchAdd(uint32_t feature, double delta) {
  // Inverse of SketchQuery's scaling: the stored cell moves by
  // σ·delta/(√s·α) so the true estimate moves by delta in every row.
  const double raw_delta = delta / (sqrt_depth_ * sketch_scale_);
  for (uint32_t j = 0; j < config_.depth; ++j) {
    uint32_t bucket;
    float sign;
    rows_[j].BucketAndSign(feature, &bucket, &sign);
    const size_t off = static_cast<size_t>(j) * config_.width + bucket;
    table_.MarkDirtyOffset(off);
    table_.data()[off] += static_cast<float>(static_cast<double>(sign) * raw_delta);
  }
}

void AwmSketch::SketchAddFromPlan(HashPlan& plan, size_t i, uint32_t feature,
                                  double delta) {
  if (!plan.has(i)) plan.FillSlot(rows_, i, feature);  // first touch: hash once
  const double raw_delta = delta / (sqrt_depth_ * sketch_scale_);
  const uint32_t* off = plan.offsets(i);
  const float* sg = plan.signs(i);
  table_.MarkPlanDirty(off, plan.depth());
  float* tbl = table_.data();
  for (uint32_t j = 0; j < plan.depth(); ++j) {
    tbl[off[j]] += static_cast<float>(static_cast<double>(sg[j]) * raw_delta);
  }
}

double AwmSketch::Update(const SparseVector& x, int8_t y) {
  // One lazy hash plan per example: a slot is hashed the first time its
  // feature touches the sketch (margin query, candidate query, or tail
  // scatter) and reused from then on. Active-set members — whose weights
  // live in the heap and never touch the sketch — are never hashed. The
  // margin probes the active set once per feature and marks the members in
  // the plan, and the gradient stage probes again for those members only.
  HashPlan& plan = TlsPlan();
  plan.InitLazy(config_.depth, x.nnz());
  return UpdateWithPlan(x, y, plan);
}

double AwmSketch::UpdateWithPlan(const SparseVector& x, int8_t y, HashPlan& plan) {
  const double margin = PredictMarginWithPlan(x, plan);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);

  // ℓ2 decay on both structures: S ← (1−λη)S and z ← (1−λη)z, via scales.
  if (opts_.lambda > 0.0) {
    const double decay = 1.0 - eta * opts_.lambda;
    heap_scale_ *= decay;
    sketch_scale_ *= decay;
  }

  const double step = eta * static_cast<double>(y) * g;  // subtracted per unit x_i
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const double xi = static_cast<double>(x.value(i));
    if (plan.was_active(i)) {
      // A member when the margin was taken. It still holds its slot unless
      // an earlier feature of x evicted it; then it is a tail feature now.
      const size_t slot = heap_.SlotOf(feature);
      if (slot != TopKHeap::kNoSlot) {
        // Exact gradient on an active-set member, written through the scale.
        heap_.AddAt(slot, static_cast<float>(-step * xi / heap_scale_));
        continue;
      }
    }
    // Candidate weight for a tail feature. The update only ever inserts the
    // feature whose turn it is, and x's indices are distinct, so a feature
    // outside the active set at margin time is still outside it here.
    const double w_tilde =
        static_cast<double>(SketchQueryFromPlan(plan, i, feature)) - step * xi;
    if (!heap_.full()) {
      heap_.Insert(feature, static_cast<float>(w_tilde / heap_scale_));
      continue;
    }
    const FeatureWeight min = heap_.Min();
    const double min_true = heap_scale_ * static_cast<double>(min.weight);
    if (std::fabs(w_tilde) > std::fabs(min_true)) {
      // Fold the evictee back into the sketch so its estimate matches its
      // exact weight, then hand its slot to the newcomer. The newcomer's
      // prior sketch mass is left in place (lazy update, Sec. 5.2). The
      // evictee is generally not a feature of x, so it pays the direct
      // (hashing) query/add path.
      heap_.PopMin();
      SketchAdd(min.feature, min_true - static_cast<double>(SketchQuery(min.feature)));
      heap_.Insert(feature, static_cast<float>(w_tilde / heap_scale_));
    } else {
      // Tail update: apply the gradient inside the sketch via the plan.
      SketchAddFromPlan(plan, i, feature, -step * xi);
    }
  }
  MaybeRescale();
  return margin;
}

void AwmSketch::UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) {
  // Unlike WM/feature hashing, the AWM cannot hash a batch up front: which
  // features touch the sketch depends on live active-set membership, which
  // each update mutates. It reuses one lazy per-thread plan across the
  // batch instead (allocation amortizes via the TLS buffers); bit-identical
  // to the per-example loop.
  HashPlan& plan = TlsPlan();
  for (const Example& ex : batch) {
    plan.InitLazy(config_.depth, ex.x.nnz());
    const double margin = UpdateWithPlan(ex.x, ex.y, plan);
    if (margins != nullptr) margins->push_back(margin);
  }
}

Status AwmSketch::CanMerge(const BudgetedClassifier& other) const {
  const auto* o = dynamic_cast<const AwmSketch*>(&other);
  if (o == nullptr) {
    return Status::InvalidArgument("awm merge: cannot merge a '" + other.Name() +
                                   "' model into an awm sketch");
  }
  WMS_RETURN_NOT_OK(CheckMergeCompatible(
      "awm", SketchShape{config_.width, config_.depth, opts_.seed},
      SketchShape{o->config_.width, o->config_.depth, o->opts_.seed}));
  return CheckCapacityCompatible("awm", "active-set capacity", config_.heap_capacity,
                                 o->config_.heap_capacity);
}

Status AwmSketch::MergeScaled(const BudgetedClassifier& other, double coeff) {
  WMS_RETURN_NOT_OK(CanMerge(other));
  if (!std::isfinite(coeff)) {
    return Status::InvalidArgument("awm merge: coefficient must be finite");
  }
  const AwmSketch& o = static_cast<const AwmSketch&>(other);

  // 1. Combined weights of the union of the two active sets, computed
  //    *before* any table mutation. Each side contributes its model's
  //    estimate: the exact active weight when tracked, the tail-sketch
  //    estimate otherwise. (A member's stale sketch mass — left in place by
  //    the lazy eviction scheme — is ignored here exactly as each side's
  //    WeightEstimate ignores it.)
  std::vector<uint32_t> union_ids;
  union_ids.reserve(heap_.size() + o.heap_.size());
  for (const FeatureWeight& fw : heap_.Entries()) union_ids.push_back(fw.feature);
  for (const FeatureWeight& fw : o.heap_.Entries()) union_ids.push_back(fw.feature);
  std::sort(union_ids.begin(), union_ids.end());
  union_ids.erase(std::unique(union_ids.begin(), union_ids.end()), union_ids.end());
  std::vector<std::pair<uint32_t, double>> merged;
  merged.reserve(union_ids.size());
  for (const uint32_t feature : union_ids) {
    merged.emplace_back(feature, static_cast<double>(WeightEstimate(feature)) +
                                     coeff * static_cast<double>(o.WeightEstimate(feature)));
  }

  // 2. Combine the tail tables in this sketch's raw representation:
  //    z = α_a·v_a + c·α_b·v_b = α_a·(v_a + (c·α_b/α_a)·v_b). The sweep
  //    writes every cell, so the whole table COWs.
  const double ratio = coeff * o.sketch_scale_ / sketch_scale_;
  table_.MarkAllDirty();
  simd::MergeScaledTable(table_.data(), o.table_.data(), table_.size(), ratio);

  // 3. The |S| largest-magnitude union members (ties: ascending id, for
  //    determinism) take the exact active-set slots; every other member is
  //    folded into the merged tail sketch exactly as an eviction would be —
  //    its slot's estimate is corrected to its merged weight.
  std::stable_sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    const double ma = std::fabs(a.second), mb = std::fabs(b.second);
    if (ma != mb) return ma > mb;
    return a.first < b.first;
  });
  const size_t keep = std::min(config_.heap_capacity, merged.size());
  TopKHeap rebuilt(config_.heap_capacity);
  for (size_t i = 0; i < keep; ++i) {
    rebuilt.Set(merged[i].first, static_cast<float>(merged[i].second / heap_scale_));
  }
  heap_ = std::move(rebuilt);
  for (size_t i = keep; i < merged.size(); ++i) {
    SketchAdd(merged[i].first,
              merged[i].second - static_cast<double>(SketchQuery(merged[i].first)));
  }
  MaybeRescale();
  return Status::OK();
}

Status AwmSketch::ScaleWeights(double factor) {
  if (!(factor > 0.0)) {
    return Status::InvalidArgument("awm scale: factor must be positive");
  }
  // Both structures carry a lazy global scale, so this is O(1).
  heap_scale_ *= factor;
  sketch_scale_ *= factor;
  MaybeRescale();
  return Status::OK();
}

Status AwmSketch::SetSteps(uint64_t steps) {
  t_ = steps;
  return Status::OK();
}

std::unique_ptr<BudgetedClassifier> AwmSketch::Clone() const {
  return std::make_unique<AwmSketch>(*this);
}

void AwmSketch::MaybeRescale() {
  if (sketch_scale_ < kMinScale) {
    table_.MarkAllDirty();
    simd::ScaleTable(table_.data(), table_.size(), static_cast<float>(sketch_scale_));
    sketch_scale_ = 1.0;
  }
  if (heap_scale_ < kMinScale) {
    heap_.Scale(static_cast<float>(heap_scale_));
    heap_scale_ = 1.0;
  }
}

float AwmSketch::WeightEstimate(uint32_t feature) const {
  return LiveRead().Estimate(feature);
}

std::vector<FeatureWeight> AwmSketch::TopK(size_t k) const {
  std::vector<FeatureWeight> out;
  out.reserve(heap_.size());
  for (const FeatureWeight& fw : heap_.Entries()) {
    out.push_back(
        FeatureWeight{fw.feature, static_cast<float>(heap_scale_ * fw.weight)});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

}  // namespace wmsketch
