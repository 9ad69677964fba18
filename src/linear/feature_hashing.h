#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "hash/tabulation.h"
#include "linear/classifier.h"
#include "util/memory_cost.h"
#include "util/paged_table.h"
#include "util/simd.h"
#include "util/status.h"

namespace wmsketch {

class FeatureHashingClassifier;
namespace snapshot {
class SnapshotReader;
}
namespace detail {
Status SaveFeatureHashingPayload(const FeatureHashingClassifier&, std::ostream&);
Result<FeatureHashingClassifier> LoadFeatureHashingPayload(snapshot::SnapshotReader&,
                                                           const LearnerOptions&);
}  // namespace detail

/// The feature-hashing ("hashing trick") classifier of Shi et al. 2009 /
/// Weinberger et al. 2009: every feature id is hashed into one of k buckets
/// with a ±1 sign, and a linear model is trained directly on the k-
/// dimensional hashed representation.
///
/// This is the strongest *classification* baseline in the paper (Fig. 6) but
/// supports no identifier recovery: colliding features are permanently
/// indistinguishable, which is why its RelErr in Fig. 3 is poor. It stores
/// no ids, so its entire budget goes to weights — exactly one float per
/// bucket. Equivalent to a depth-1 WM-Sketch with no heap.
class FeatureHashingClassifier final : public BudgetedClassifier {
 public:
  /// Constructs with `buckets` hashed weights (power of two).
  FeatureHashingClassifier(uint32_t buckets, const LearnerOptions& opts);

  /// The fused depth-1 read: one hash per feature per call.
  double PredictMargin(const SparseVector& x) const override;
  /// Batched margins: the fused per-example loop.
  void PredictBatch(std::span<const Example> batch, double* margins) const override;
  /// Batched point estimates: the fused per-key loop.
  void EstimateBatch(std::span<const uint32_t> features, float* out) const override;
  /// Frozen read model over the published table pages.
  std::unique_ptr<const ReadModel> MakeReadModel() const override;
  double Update(const SparseVector& x, int8_t y) override;
  /// Devirtualized batch ingest (bit-identical to a loop of Update): the
  /// whole batch is hashed up front into a plan arena with next-example
  /// table prefetch.
  void UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) override;
  float WeightEstimate(uint32_t feature) const override;
  /// Feature hashing stores no identifiers; native top-K is empty (use
  /// ScanTopK to rank an explicit universe).
  std::vector<FeatureWeight> TopK(size_t k) const override;
  size_t MemoryCostBytes() const override { return TableBytes(table_.size()); }
  size_t ResidentStorageBytes() const override {
    return TableBytes(table_.size()) + table_.MetadataBytes();
  }
  TablePublishStats publish_stats() const override { return table_.publish_stats(); }
  uint64_t steps() const override { return t_; }
  const LearnerOptions& options() const override { return opts_; }
  std::string Name() const override { return "hash"; }

  uint32_t buckets() const { return hash_.width(); }

 private:
  friend Status detail::SaveFeatureHashingPayload(const FeatureHashingClassifier&,
                                                  std::ostream&);
  friend Result<FeatureHashingClassifier> detail::LoadFeatureHashingPayload(
      snapshot::SnapshotReader&, const LearnerOptions&);

  /// The bucket hash as a one-row sketch, the shape the plan builders and
  /// the sketch read path take.
  std::span<const SignedBucketHash> Rows() const { return {&hash_, 1}; }
  /// The Update body once the plan exists (shared by Update and UpdateBatch).
  double UpdateWithPlan(const SparseVector& x, int8_t y, const simd::PlanView& plan);
  void MaybeRescale();

  LearnerOptions opts_;
  SignedBucketHash hash_;
  // Raw bucket weights (true hashed weight = scale_ * cell) in copy-on-write
  // paged storage: live arena contiguous, snapshots publish shared pages.
  PagedTable table_;
  double scale_ = 1.0;
  uint64_t t_ = 0;
};

}  // namespace wmsketch
