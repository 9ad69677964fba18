#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linear/learning_rate.h"
#include "linear/loss.h"
#include "stream/sparse_vector.h"
#include "util/paged_table.h"
#include "util/status.h"
#include "util/top_k_heap.h"

namespace wmsketch {

/// An immutable, self-contained *frozen read model*: everything needed to
/// answer margins and point estimates from one moment of a classifier's
/// life, decoupled from the live (mutating) model. It stays valid — and
/// keeps answering from the same frozen model — after the classifier that
/// produced it is further trained or destroyed. It is the one frozen form
/// of a model: LearnerSnapshot holds one, and the wait-free serving layer
/// (src/engine/serving.h) publishes one to readers.
///
/// Contract: every method is const, thread-safe, and allocation-free on the
/// steady state, so any number of
/// reader threads may query one ReadModel concurrently.
class ReadModel {
 public:
  virtual ~ReadModel() = default;

  /// The margin wᵀx under the frozen model. The default is the linear
  /// functional Σᵢ Estimate(i)·xᵢ of the frozen float weights, which is the
  /// margin of the models that freeze a copy of their weights; the sketches
  /// override it with their fused margin.
  virtual double PredictMargin(const SparseVector& x) const {
    double acc = 0.0;
    for (size_t i = 0; i < x.nnz(); ++i) {
      acc += static_cast<double>(Estimate(x.index(i))) * static_cast<double>(x.value(i));
    }
    return acc;
  }

  /// Batched margins: out[e] = PredictMargin(batch[e].x), bit-identical to
  /// the loop. The sketch-backed models override it with the shared
  /// sketch/read_path.h kernels; the default is the plain loop.
  virtual void PredictBatch(std::span<const Example> batch, double* out) const {
    for (size_t e = 0; e < batch.size(); ++e) out[e] = PredictMargin(batch[e].x);
  }

  /// Frozen point estimate ŵᵢ.
  virtual float Estimate(uint32_t feature) const = 0;

  /// Batched point estimates: out[i] = Estimate(features[i]), bit-identical
  /// to the loop; sketch-backed overrides use sketch/read_path.h.
  virtual void EstimateBatch(std::span<const uint32_t> features, float* out) const {
    for (size_t i = 0; i < features.size(); ++i) out[i] = Estimate(features[i]);
  }

  /// Bytes of model state this frozen view keeps alive: the table pages a
  /// sketch-backed model pins plus their metadata — pages shared with other
  /// snapshots count in full (see PageSet::ResidentBytes) — the AWM's copied
  /// active set, and the weights a copying model holds.
  virtual size_t ResidentBytes() const = 0;
};

/// Every learner keeps its weights as w = α·v under a lazy global scale α
/// (Sec. 5.1), which ℓ2 decay shrinks in O(1). Once α falls below this it is
/// folded into the stored values, which keeps them far from overflow while
/// the true weights stay O(1).
inline constexpr double kMinLazyScale = 1e-25;

/// Hyperparameters shared by every online linear learner in the library.
struct LearnerOptions {
  /// ℓ2-regularization strength λ (Eq. 1). The paper sweeps
  /// {1e-3, 1e-4, 1e-5, 1e-6}.
  double lambda = 1e-6;
  /// Learning-rate schedule; the paper uses η0 = 0.1.
  LearningRate rate = LearningRate::InverseSqrt(0.1);
  /// Loss ℓ; logistic regression by default, matching the experiments.
  const LossFunction* loss = &DefaultLogisticLoss();
  /// Seed for all hash functions / randomized internals of the learner.
  uint64_t seed = 42;
};

/// Interface implemented by the memory-budgeted streaming classifiers: the
/// WM-Sketch, the AWM-Sketch, the four baselines of Sec. 7, the feature-
/// hashing classifier, and the memory-unconstrained reference model.
///
/// The contract mirrors Fig. 1 of the paper: a classifier is *updated* with
/// labeled examples and *queried* for individual weight estimates or the
/// top-K heaviest features of the uncompressed model it approximates.
class BudgetedClassifier {
 public:
  virtual ~BudgetedClassifier() = default;

  /// The margin wᵀx under the current model (no state change).
  virtual double PredictMargin(const SparseVector& x) const = 0;

  /// The predicted label sign(wᵀx) ∈ {-1, +1} (ties map to +1).
  int8_t Classify(const SparseVector& x) const { return PredictMargin(x) >= 0.0 ? 1 : -1; }

  /// Performs one online-gradient-descent step on (x, y); y ∈ {-1, +1}.
  /// Returns the *pre-update* margin so callers can do progressive
  /// validation (predict-then-update, Sec. 7.3) with no extra pass.
  virtual double Update(const SparseVector& x, int8_t y) = 0;

  /// Ingests a batch of labeled examples, equivalent to calling Update() on
  /// each in order (implementations guarantee bit-identical state). When
  /// `margins` is non-null the pre-update margin of every example is
  /// appended to it (batched progressive validation). This default is that
  /// loop. The sketches and feature hashing override it with a
  /// devirtualized loop over their hash-plan update step; the Sec. 7
  /// baselines and the dense model keep the default.
  virtual void UpdateBatch(std::span<const Example> batch,
                           std::vector<double>* margins = nullptr) {
    for (const Example& ex : batch) {
      const double margin = Update(ex.x, ex.y);
      if (margins != nullptr) margins->push_back(margin);
    }
  }

  /// Batched read-only margins: out[e] = PredictMargin(batch[e].x), bit-
  /// identical to the loop. The sketches and feature hashing override it
  /// with the sketch/read_path.h batch loop (no virtual call per example).
  /// NOTE: reads the live model — it races with concurrent updates exactly
  /// like PredictMargin does. Concurrent serving goes through a published
  /// ReadModel (engine/serving.h) instead.
  virtual void PredictBatch(std::span<const Example> batch, double* margins) const {
    for (size_t e = 0; e < batch.size(); ++e) margins[e] = PredictMargin(batch[e].x);
  }

  /// Batched point estimates: out[i] = WeightEstimate(features[i]), bit-
  /// identical to the loop; sketch-backed methods override with the
  /// sketch/read_path.h batch loop.
  virtual void EstimateBatch(std::span<const uint32_t> features, float* out) const {
    for (size_t i = 0; i < features.size(); ++i) out[i] = WeightEstimate(features[i]);
  }

  /// Returns a frozen \ref ReadModel capturing this classifier's current
  /// queryable state. The default copies every tracked weight from TopK():
  /// the heap-backed baselines (truncation, Space-Saving, CM-FF) keep every
  /// nonzero weight behind a tracked identifier, so that copy *is* the
  /// model. Its margin is the linear functional Σᵢ Estimate(i)·xᵢ of the
  /// copied float weights — the live margin up to the per-term rounding of
  /// those floats. The sketches and feature hashing override it with
  /// table-backed models over the sketch/read_path.h kernels, and the dense
  /// model with a copy of its weight vector.
  virtual std::unique_ptr<const ReadModel> MakeReadModel() const;

  /// Point estimate ŵᵢ of the uncompressed model's weight for `feature`.
  virtual float WeightEstimate(uint32_t feature) const = 0;

  // --- Mergeability (the linearity dividend of sketched classifiers) ---
  //
  // A Count-Sketch is a linear projection, so two WM/AWM-Sketches with equal
  // projection matrices (same shape and seed) can be *summed* into the sketch
  // of the summed weight vectors — the property distributed and sharded
  // training builds on (Sec. 5.1's linearity; see also turnstile linear-
  // sketch theory). Non-linear baselines (truncation, Space-Saving, CM-FF)
  // cannot combine states losslessly and keep the Unimplemented defaults.

  /// Checks whether `other` can be merged into this classifier: same
  /// concrete method, same table shape, same seed (hence identical hash
  /// rows). OK means Merge(other) is well-defined; the default reports
  /// Unimplemented for methods with no merge semantics.
  virtual Status CanMerge(const BudgetedClassifier& other) const;

  /// The linear-combination primitive: w ← w + coeff·w_other, leaving the
  /// step counter untouched. `coeff` may be negative (base-corrected
  /// parameter mixing subtracts a shared starting point) but must be finite.
  /// On any error `this` is unchanged. Default: Unimplemented.
  virtual Status MergeScaled(const BudgetedClassifier& other, double coeff);

  /// Adds `other`'s model into this one: weight vectors sum (exactly, up to
  /// floating-point rounding of the underlying linear structures) and step
  /// counts add — the semantics of combining learners trained on *disjoint*
  /// stream partitions. Requires nothing beyond CanMerge(other).ok().
  /// Average instead of sum by following N-way merges with
  /// ScaleWeights(1.0/N) (parameter mixing).
  Status Merge(const BudgetedClassifier& other) {
    WMS_RETURN_NOT_OK(MergeScaled(other, 1.0));
    return SetSteps(steps() + other.steps());
  }

  /// Multiplies every model weight by `factor` (> 0); step count unchanged.
  /// O(1) for the lazily-scaled sketches. Unimplemented by default.
  virtual Status ScaleWeights(double factor);

  /// Overwrites the update counter — bookkeeping for merge orchestration
  /// (after N-way parameter mixing the true global step count is the
  /// orchestrator's example total, not the sum of mixed replicas).
  /// Unimplemented by default.
  virtual Status SetSteps(uint64_t steps);

  /// Deep copy with identical state (hash rows, tables, heaps, counters), or
  /// nullptr for methods that do not support cloning. Mergeable methods
  /// implement this; the sharded engine uses it to redistribute the averaged
  /// model to workers at a sync point.
  virtual std::unique_ptr<BudgetedClassifier> Clone() const;

  /// The top-k features by estimated |weight| among those the method tracks
  /// identifiers for; sorted by descending magnitude. Methods that store no
  /// identifiers (pure feature hashing) return an empty vector — see
  /// ScanTopK for the exhaustive alternative.
  virtual std::vector<FeatureWeight> TopK(size_t k) const = 0;

  /// Memory footprint under the Sec. 7.1 cost model (4 bytes per id /
  /// weight / auxiliary scalar). Deliberately excludes paged-storage
  /// bookkeeping: this is the *cost model* every method is compared under at
  /// equal budgets (and the planner sizes against), not resident memory —
  /// see ResidentStorageBytes for the latter.
  virtual size_t MemoryCostBytes() const = 0;

  /// Actual resident bytes of the model's own storage: the cost-model bytes
  /// plus paged-table metadata (per-page mirror pointers and epoch tags) for
  /// the table-backed methods. Snapshot-pinned page copies are accounted to
  /// the snapshots that pin them (ReadModel::ResidentBytes), not here.
  virtual size_t ResidentStorageBytes() const { return MemoryCostBytes(); }

  /// Cumulative paged-storage publication counters (zeroes for methods
  /// without paged tables). The serving bench differences these around a
  /// window to report bytes copied per publish.
  virtual TablePublishStats publish_stats() const { return {}; }

  /// Number of Update() calls so far.
  virtual uint64_t steps() const = 0;

  /// The hyperparameters the classifier was constructed with (for restored
  /// models: λ and seed from the snapshot, loss/rate from the caller).
  virtual const LearnerOptions& options() const = 0;

  /// Short stable name for reports ("awm", "hash", ...).
  virtual std::string Name() const = 0;
};

/// Exhaustive top-k: evaluates Estimate over the full feature universe
/// [0, dimension) and returns the k largest-magnitude results. This is the
/// only way to rank features for methods without identifier storage (feature
/// hashing). LearnerSnapshot::ScanTopK delegates here.
std::vector<FeatureWeight> ScanTopK(const ReadModel& model, size_t k, uint32_t dimension);

}  // namespace wmsketch
