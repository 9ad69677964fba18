#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hash/tabulation.h"
#include "linear/classifier.h"
#include "util/memory_cost.h"
#include "util/paged_table.h"
#include "util/simd.h"
#include "util/top_k_heap.h"

namespace wmsketch {

class WmSketch;
struct DeltaStats;
namespace snapshot {
class SnapshotReader;
}
namespace detail {
Status SaveWmSketchPayload(const WmSketch&, std::ostream&);
Result<WmSketch> LoadWmSketchPayload(snapshot::SnapshotReader&, const LearnerOptions&);
void BeginWmDeltaWindow(WmSketch&);
Status SaveWmSketchDelta(const WmSketch&, std::string*, DeltaStats*);
Status ApplyWmSketchDelta(WmSketch&, snapshot::SnapshotReader&);
}  // namespace detail

/// Shape of a Weight-Median Sketch: a depth×width Count-Sketch-structured
/// table plus an optional top-K tracking heap. Total size k = width·depth
/// (the paper writes width as k/s and depth as s).
struct WmSketchConfig {
  /// Buckets per row; must be a power of two.
  uint32_t width = 256;
  /// Number of hash rows s; odd values give unambiguous medians.
  uint32_t depth = 2;
  /// Capacity of the passive top-K heap (0 disables tracking; weight
  /// estimates remain available via WeightEstimate/Query).
  size_t heap_capacity = 128;

  /// Memory under the Sec. 7.1 cost model: 4 bytes per sketch cell plus
  /// (id, weight) per heap slot.
  size_t MemoryCostBytes() const {
    return TableBytes(static_cast<size_t>(width) * depth) + HeapBytes(heap_capacity);
  }
};

/// The Weight-Median Sketch (Algorithm 1): online gradient descent performed
/// directly on a Count-Sketch projection z of the classifier weights.
///
/// * Prediction:  τ = zᵀRx with R = A/√s the scaled Count-Sketch matrix.
/// * Update:      z ← (1−λη_t)·z − η_t·y·ℓ'(y·τ)·Rx, implemented with the
///                lazy global-scale trick so each update costs
///                O(s·nnz(x)) instead of O(k + s·nnz(x)) (Sec. 5.1).
/// * Query(i):    median over rows j of √s·σ_j(i)·z[j, h_j(i)] — the
///                Count-Sketch estimator applied to √s·z.
///
/// Theorem 1/2 guarantee ‖w* − ŵ‖∞ ≤ ε‖w*‖₁ for width and depth
/// polylogarithmic in the dimension. A passive magnitude heap tracks the
/// identities of the heaviest features across updates (Sec. 5.2's baseline
/// scheme) so top-K retrieval needs no feature-universe scan.
class WmSketch final : public BudgetedClassifier {
 public:
  static constexpr uint32_t kMaxDepth = 64;

  /// Constructs the sketch; hash rows are derived from opts.seed.
  /// Requires config.width a power of two and 1 <= depth <= kMaxDepth.
  WmSketch(const WmSketchConfig& config, const LearnerOptions& opts);

  /// Plan-driven: hashes each (feature, row) pair exactly once per call.
  double PredictMargin(const SparseVector& x) const override;
  /// Batched margins: the fused per-example loop, bit-identical to
  /// PredictMargin.
  void PredictBatch(std::span<const Example> batch, double* margins) const override;
  /// Batched point estimates: the fused per-key loop, bit-identical to a
  /// WeightEstimate loop.
  void EstimateBatch(std::span<const uint32_t> features, float* out) const override;
  /// Frozen read model over the published table pages.
  std::unique_ptr<const ReadModel> MakeReadModel() const override;
  /// One OGD step from a single per-example hash plan: the margin, the
  /// gradient scatter, and the heap offers all reuse the same nnz×depth
  /// (bucket, sign) pairs — one hash evaluation per pair per update.
  double Update(const SparseVector& x, int8_t y) override;
  /// Devirtualized batch ingest: hashes the whole batch up front into a
  /// plan arena and prefetches the next example's table cells while the
  /// current one updates. Bit-identical to updating example by example.
  void UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) override;
  float WeightEstimate(uint32_t feature) const override;
  /// OK iff `other` is a WmSketch with identical (width, depth, heap
  /// capacity) and seed — equal projection matrices, so tables can be summed.
  Status CanMerge(const BudgetedClassifier& other) const override;
  /// z ← z_a + coeff·z_b (resolving the two lazy global scales first), then
  /// rebuilds the top-K heap from the merged estimates over the union of
  /// tracked candidates. Steps are not touched (see Merge for the
  /// disjoint-partition semantics that also sums them).
  Status MergeScaled(const BudgetedClassifier& other, double coeff) override;
  /// w ← factor·w in O(1) via the lazy global scale (factor > 0).
  Status ScaleWeights(double factor) override;
  Status SetSteps(uint64_t steps) override;
  std::unique_ptr<BudgetedClassifier> Clone() const override;
  /// Frozen estimator capturing copies of the hash rows, table, and scale.
  WeightEstimator EstimatorSnapshot() const override;
  std::vector<FeatureWeight> TopK(size_t k) const override;
  size_t MemoryCostBytes() const override { return config_.MemoryCostBytes(); }
  /// What the model really holds: the table's cells and page metadata, the
  /// delta window's cell record once one is open, and the heap as stored
  /// (16-byte entries and the key → slot index, where the Sec. 7.1 cost
  /// model charges 8 bytes per entry of capacity).
  size_t ResidentStorageBytes() const override {
    return TableBytes(static_cast<size_t>(config_.width) * config_.depth) +
           table_.MetadataBytes() + heap_.ResidentBytes();
  }
  TablePublishStats publish_stats() const override { return table_.publish_stats(); }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return "wm"; }

  const WmSketchConfig& config() const { return config_; }

 private:
  friend Status detail::SaveWmSketchPayload(const WmSketch&, std::ostream&);
  friend Result<WmSketch> detail::LoadWmSketchPayload(snapshot::SnapshotReader&,
                                                      const LearnerOptions&);
  friend void detail::BeginWmDeltaWindow(WmSketch&);
  friend Status detail::SaveWmSketchDelta(const WmSketch&, std::string*, DeltaStats*);
  friend Status detail::ApplyWmSketchDelta(WmSketch&, snapshot::SnapshotReader&);

  // Median over rows of σ_j(i)·v[j, h_j(i)] on the *raw* table (no scale, no
  // √s); WeightEstimate applies √s·α.
  float RawMedian(uint32_t feature) const;
  /// RawMedian for feature slot `i` of a plan (no re-hash).
  float RawMedianFromPlan(const simd::PlanView& plan, size_t i) const;
  /// The margin τ from a prebuilt plan; `scratch` holds plan.entries() floats.
  double MarginFromPlan(const simd::PlanView& plan, const SparseVector& x,
                        float* scratch) const;
  /// The Update body once the plan exists (shared by Update and UpdateBatch).
  double UpdateWithPlan(const SparseVector& x, int8_t y, const simd::PlanView& plan,
                        float* scratch);
  void MaybeRescale();

  float* Row(uint32_t j) { return table_.data() + static_cast<size_t>(j) * config_.width; }
  const float* Row(uint32_t j) const {
    return table_.data() + static_cast<size_t>(j) * config_.width;
  }

  WmSketchConfig config_;
  LearnerOptions opts_;
  std::vector<SignedBucketHash> rows_;
  // Raw v (z = scale_ * v) in copy-on-write paged storage: the live arena
  // stays contiguous (hot paths and Row() unchanged); MakeReadModel /
  // EstimatorSnapshot publish refcounted pages, copying only those dirtied
  // since the previous publication.
  PagedTable table_;
  double scale_ = 1.0;        // α
  double sqrt_depth_;         // √s, applied at predict/query time
  uint64_t t_ = 0;
  TopKHeap heap_;             // raw medians; rescaled alongside the table
};

}  // namespace wmsketch
