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

class HashPlan;

class AwmSketch;
struct DeltaStats;
namespace snapshot {
class SnapshotReader;
}
namespace detail {
Status SaveAwmSketchPayload(const AwmSketch&, std::ostream&);
Result<AwmSketch> LoadAwmSketchPayload(snapshot::SnapshotReader&, const LearnerOptions&);
void BeginAwmDeltaWindow(AwmSketch&);
Status SaveAwmSketchDelta(const AwmSketch&, std::string*, DeltaStats*);
Status ApplyAwmSketchDelta(AwmSketch&, snapshot::SnapshotReader&);
}  // namespace detail

/// Shape of an Active-Set Weight-Median Sketch. The configuration that
/// uniformly performed best in the paper (Sec. 7.3) gives half the budget to
/// the active set and the rest to a depth-1 sketch; that is the default the
/// budget planner emits.
struct AwmSketchConfig {
  /// Buckets per sketch row; must be a power of two.
  uint32_t width = 256;
  /// Sketch rows; the paper's best configs use depth 1.
  uint32_t depth = 1;
  /// Active-set capacity |S| (exact weights); must be >= 1.
  size_t heap_capacity = 128;

  /// Memory under the Sec. 7.1 cost model.
  size_t MemoryCostBytes() const {
    return TableBytes(static_cast<size_t>(width) * depth) + HeapBytes(heap_capacity);
  }
};

/// The Active-Set Weight-Median Sketch (Algorithm 2): a WM-Sketch whose
/// heaviest weights live *exactly* in a min-heap "active set" instead of in
/// the sketch.
///
/// Per update: features currently in the active set receive exact gradient
/// updates; every other feature's candidate weight
/// w̃ = Query(i) − η·y·x_i·ℓ'(y·τ) is compared against the smallest active
/// weight — on a win the minimum is folded back into the sketch (its slot's
/// estimate is corrected to its exact weight) and the winner takes the slot;
/// on a loss the gradient is applied inside the sketch. The sketch therefore
/// carries only the tail of the weight vector, which reduces collision error
/// for exactly the features that matter (Sec. 5.2 / Sec. 9: "a variant of
/// feature hashing where the highest-weighted features are not hashed").
///
/// Both the active set and the sketch use the lazy global-scale trick for
/// ℓ2 decay, so updates stay O(s·nnz(x)).
class AwmSketch final : public BudgetedClassifier {
 public:
  static constexpr uint32_t kMaxDepth = 64;

  /// Constructs the sketch; hash rows are derived from opts.seed.
  AwmSketch(const AwmSketchConfig& config, const LearnerOptions& opts);

  /// Plan-driven: hashes each (feature, row) pair exactly once per call.
  double PredictMargin(const SparseVector& x) const override;
  /// Batched margins. As with UpdateBatch, the AWM cannot hash a batch up
  /// front (membership decides which features touch the sketch), so each
  /// example runs through one lazy per-thread plan — bit-identical to the
  /// PredictMargin loop.
  void PredictBatch(std::span<const Example> batch, double* margins) const override;
  /// Batched point estimates: active-set hits answer exactly, the rest from
  /// the tail sketch. Bit-identical to a WeightEstimate loop.
  void EstimateBatch(std::span<const uint32_t> features, float* out) const override;
  /// Frozen read model: the active set (raw weights + scale) plus a copy of
  /// the tail sketch, with the batched read paths.
  std::unique_ptr<const ReadModel> MakeReadModel() const override;
  /// One step from a single per-example hash plan: the margin's tail
  /// queries, the candidate queries, and the tail scatters reuse the same
  /// nnz×depth pairs (evictee fold-backs, which involve features outside x,
  /// still hash directly).
  double Update(const SparseVector& x, int8_t y) override;
  /// Devirtualized batch ingest, bit-identical to updating example by
  /// example. Unlike WM/feature hashing the AWM cannot hash a batch up
  /// front (which features touch the sketch depends on live active-set
  /// membership); it reuses one lazy per-thread plan across the batch, so
  /// the win is allocation amortization, not an arena/prefetch pipeline.
  void UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) override;
  float WeightEstimate(uint32_t feature) const override;
  /// OK iff `other` is an AwmSketch with identical (width, depth, active-set
  /// capacity) and seed — equal projection matrices, so tables can be summed.
  Status CanMerge(const BudgetedClassifier& other) const override;
  /// w ← w + coeff·w_other: tail sketches combine linearly (scales resolved
  /// first) and the merged active set is rebuilt as the top-|S| of the union
  /// of both active sets under the combined estimates — union members that
  /// lose their slot are folded back into the tail sketch exactly as an
  /// eviction would (Algorithm 2's invariant is preserved). Steps are not
  /// touched (see Merge for the disjoint-partition semantics).
  Status MergeScaled(const BudgetedClassifier& other, double coeff) override;
  /// w ← factor·w in O(1) via the two lazy global scales (factor > 0).
  Status ScaleWeights(double factor) override;
  Status SetSteps(uint64_t steps) override;
  std::unique_ptr<BudgetedClassifier> Clone() const override;
  /// Frozen estimator capturing the active-set weights plus copies of the
  /// hash rows, tail table, and scales.
  WeightEstimator EstimatorSnapshot() const override;
  /// The top-k of the active set (exact weights); the active set *is* the
  /// AWM-Sketch's answer to top-K queries.
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
  std::string Name() const override { return "awm"; }

  const AwmSketchConfig& config() const { return config_; }
  /// Current number of active-set entries (≤ heap_capacity).
  size_t active_set_size() const { return heap_.size(); }
  /// True iff `feature` currently holds an active-set slot (exact weight).
  bool InActiveSet(uint32_t feature) const { return heap_.Contains(feature); }

 private:
  friend Status detail::SaveAwmSketchPayload(const AwmSketch&, std::ostream&);
  friend Result<AwmSketch> detail::LoadAwmSketchPayload(snapshot::SnapshotReader&,
                                                        const LearnerOptions&);
  friend void detail::BeginAwmDeltaWindow(AwmSketch&);
  friend Status detail::SaveAwmSketchDelta(const AwmSketch&, std::string*, DeltaStats*);
  friend Status detail::ApplyAwmSketchDelta(AwmSketch&, snapshot::SnapshotReader&);

  /// Count-Sketch point estimate of a tail feature's weight (true scale).
  float SketchQuery(uint32_t feature) const;
  /// SketchQuery through feature slot `i` of a lazy plan: the slot is
  /// hashed on first touch and reused afterwards.
  float SketchQueryFromPlan(HashPlan& plan, size_t i, uint32_t feature) const;
  /// Adds `delta` (true scale) to the sketched weight of `feature`: every
  /// row's estimate — and hence the median — shifts by exactly delta.
  void SketchAdd(uint32_t feature, double delta);
  /// SketchAdd through feature slot `i` of a lazy plan (first touch hashes).
  void SketchAddFromPlan(HashPlan& plan, size_t i, uint32_t feature, double delta);
  /// PredictMargin filling/reading tail slots of a lazy plan.
  double PredictMarginWithPlan(const SparseVector& x, HashPlan& plan) const;
  /// The Update body once the plan exists (shared by Update and UpdateBatch).
  double UpdateWithPlan(const SparseVector& x, int8_t y, HashPlan& plan);
  void MaybeRescale();

  float* Row(uint32_t j) { return table_.data() + static_cast<size_t>(j) * config_.width; }
  const float* Row(uint32_t j) const {
    return table_.data() + static_cast<size_t>(j) * config_.width;
  }

  AwmSketchConfig config_;
  LearnerOptions opts_;
  std::vector<SignedBucketHash> rows_;
  // Raw tail sketch (true cell value = sketch_scale_ * cell) in copy-on-
  // write paged storage: live arena contiguous, snapshots publish shared
  // pages and copy only what was dirtied. Active-set-only update bursts
  // dirty no pages at all, so a high-cadence AWM publish is nearly free.
  PagedTable table_;
  double sketch_scale_ = 1.0;  // α for the sketch
  double heap_scale_ = 1.0;    // α for the active set
  double sqrt_depth_;
  uint64_t t_ = 0;
  TopKHeap heap_;              // raw active-set weights; true = heap_scale_ * raw
};

}  // namespace wmsketch
