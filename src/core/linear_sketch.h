#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/budget.h"
#include "core/delta_io.h"
#include "hash/tabulation.h"
#include "linear/classifier.h"
#include "util/memory_cost.h"
#include "util/paged_table.h"
#include "util/top_k_heap.h"

namespace wmsketch {

class LinearSketch;
namespace detail {
Status SaveLinearSketchPayload(const LinearSketch&, std::ostream&);
Result<std::unique_ptr<BudgetedClassifier>> LoadLinearSketchPayload(snapshot::SnapshotReader&,
                                                                    Method,
                                                                    const LearnerOptions&);
}  // namespace detail

/// Shape of a WM- or AWM-Sketch: a depth×width Count-Sketch-structured table
/// plus a heap of `heap_capacity` slots (the WM's passive top-K tracker, the
/// AWM's active set). Total table size k = width·depth (the paper writes
/// width as k/s and depth as s).
struct LinearSketchConfig {
  /// Buckets per row; must be a power of two.
  uint32_t width = 256;
  /// Number of hash rows s, 1 <= s <= kMaxSketchDepth; odd values give
  /// unambiguous medians.
  uint32_t depth = 1;
  /// Heap slots. 0 is legal for the WM (it disables top-K tracking); the AWM
  /// needs at least one.
  size_t heap_capacity = 128;

  /// Memory under the Sec. 7.1 cost model: 4 bytes per sketch cell plus
  /// (id, weight) per heap slot.
  size_t MemoryCostBytes() const {
    return TableBytes(static_cast<size_t>(width) * depth) + HeapBytes(heap_capacity);
  }
};

/// OK iff two sketches of `method` can be summed: equal width, depth and
/// seed (hence equal hash rows, so equal projection matrices) and equal heap
/// capacity (the merged heap is rebuilt at it). Otherwise InvalidArgument
/// naming the first mismatching dimension. Every merge path — the in-process
/// merges and the distributed handshake — checks through this.
Status CheckSummable(Method method, const LinearSketchConfig& a, uint64_t seed_a,
                     const LinearSketchConfig& b, uint64_t seed_b);

/// What the WM-Sketch (Algorithm 1) and the AWM-Sketch (Algorithm 2) share:
/// a Count-Sketch table — a linear projection of the weight vector
/// (Kallaugher–Price, arXiv 1905.02358), which is why merges and the WMD2
/// delta sync compose exactly — kept in copy-on-write paged storage, the
/// hash rows derived from the seed, a top-K heap, the step count, √depth,
/// and the lazy global scales (true value = scale × stored). The snapshot
/// payload (core/serialization.cc) and the delta (core/delta_io.cc) are
/// written once, here, for both; the subclasses keep their update, read,
/// merge-rebuild and rescale rules.
class LinearSketch : public BudgetedClassifier {
 public:
  const LinearSketchConfig& config() const { return config_; }

  /// OK iff `other` is a sketch of the same method with an identical shape
  /// and seed (see CheckSummable).
  Status CanMerge(const BudgetedClassifier& other) const override;
  /// w ← factor·w in O(1): every lazy scale takes the factor (factor > 0).
  Status ScaleWeights(double factor) override;
  Status SetSteps(uint64_t steps) override;
  size_t MemoryCostBytes() const override { return config_.MemoryCostBytes(); }
  /// What the model really holds: the table's cells and page metadata, the
  /// delta window's cell record once one is open, and the heap as stored
  /// (16-byte entries and the key → slot index, where the Sec. 7.1 cost
  /// model charges 8 bytes per entry of capacity).
  size_t ResidentStorageBytes() const override;
  TablePublishStats publish_stats() const override { return table_.publish_stats(); }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return MethodName(method_); }

 protected:
  /// Derives the hash rows from opts.seed. `num_scales` is the length of
  /// the lazy-scale list (1 for the WM, 2 for the AWM).
  LinearSketch(Method method, const LinearSketchConfig& config, const LearnerOptions& opts,
               uint32_t num_scales);

  /// CanMerge, then a finite `coeff`: the checks that open every MergeScaled.
  Status CheckMerge(const BudgetedClassifier& other, double coeff) const;
  /// The features this heap or `other`'s tracks, ascending, each once: the
  /// candidates every merge rebuilds its heap from.
  std::vector<uint32_t> HeapUnion(const LinearSketch& other) const;
  /// Folds each lazy scale that fell below kMinLazyScale into what it scales.
  virtual void MaybeRescale() = 0;
  /// Sums `other`'s table into this one's raw representation, resolving the
  /// two table scales: z = α·v + c·α_o·v_o = α·(v + (c·α_o/α)·v_o). The
  /// sweep writes every cell, so the whole table copy-on-writes.
  void MergeTable(const LinearSketch& other, double coeff);

  /// The table's lazy scale α (z = α·v): the WM's only one, the AWM's tail
  /// sketch's.
  double& table_scale() { return scales_[0]; }
  double table_scale() const { return scales_[0]; }

  Method method_;
  LinearSketchConfig config_;
  LearnerOptions opts_;
  std::vector<SignedBucketHash> rows_;
  // Raw table v in copy-on-write paged storage: the live arena stays
  // contiguous for the hot paths; MakeReadModel publishes refcounted pages,
  // copying only those dirtied since the previous publication.
  PagedTable table_;
  // The lazy global scales in snapshot and delta order: the table's α,
  // then (AWM only) the active set's. Only the first num_scales_ are in use.
  std::array<double, 2> scales_ = {1.0, 1.0};
  uint32_t num_scales_;
  double sqrt_depth_;  // √s, applied at predict/query time
  uint64_t t_ = 0;
  // Capacity max(heap_capacity, 1): a WM without top-K tracking keeps a
  // one-slot heap that stays empty, and the codecs bound its sections by
  // the configured capacity, not by this one.
  TopKHeap heap_;

 private:
  friend Status detail::SaveLinearSketchPayload(const LinearSketch&, std::ostream&);
  friend Result<std::unique_ptr<BudgetedClassifier>> detail::LoadLinearSketchPayload(
      snapshot::SnapshotReader&, Method, const LearnerOptions&);
  friend Status BeginDeltaWindow(Method, BudgetedClassifier&);
  friend Status SaveDelta(Method, const BudgetedClassifier&, std::string*, DeltaStats*);
  friend Status ApplyDelta(Method, BudgetedClassifier&, std::string_view);

  std::span<double> lazy_scales() { return {scales_.data(), num_scales_}; }
  std::span<const double> lazy_scales() const { return {scales_.data(), num_scales_}; }
};

}  // namespace wmsketch
