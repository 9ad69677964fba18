#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/budget.h"
#include "linear/classifier.h"
#include "util/status.h"

namespace wmsketch {

class Checkpointer;
class Learner;
class ServingHandle;
class ServingState;
class ShardedLearner;

/// Where and how often a learner checkpoints itself (see
/// src/engine/checkpoint.h for the atomic write/recover machinery).
struct CheckpointSpec {
  /// Checkpoint directory (created if missing). Empty disables.
  std::string dir;
  /// Completed checkpoints retained (older ones are pruned).
  size_t keep_last = 3;
  /// Updates between automatic checkpoints (0: only explicit
  /// CheckpointNow / merge-barrier checkpoints).
  uint64_t every = 0;
};

/// An immutable, cheaply-copyable view of a learner's queryable state,
/// decoupled from the live model: the top-K heaviest features materialized
/// at snapshot time, the frozen \ref ReadModel from MakeReadModel(), and the
/// scalar bookkeeping (step count, memory footprint). Because nothing in a
/// snapshot aliases live learner state, read paths — report generation, the
/// PMI/deltoid/explanation applications, concurrent query serving — can hold
/// and share snapshots while ingestion continues, and two snapshots of the
/// same learner at different times answer from their respective moments.
///
/// Copies share one reference-counted state block, so passing snapshots by
/// value costs a pointer. The state itself is bounded by the learner's byte
/// budget (that is the point of a budgeted classifier), so taking a snapshot
/// is O(budget), not O(dimension).
class LearnerSnapshot {
 public:
  /// The method that produced this snapshot.
  Method method() const;
  /// The method's short stable name ("awm", "hash", ...).
  const std::string& name() const;
  /// Number of updates the learner had absorbed when the snapshot was taken.
  uint64_t steps() const;
  /// Learner footprint under the Sec. 7.1 cost model at snapshot time.
  size_t memory_cost_bytes() const;
  /// The configuration of the learner that produced this snapshot.
  const BudgetConfig& config() const;

  /// The features materialized at snapshot time, sorted by descending
  /// |weight| (at most the `top_k` requested from Learner::Snapshot; fewer
  /// if the learner tracked fewer identifiers — empty for pure feature
  /// hashing, which stores none).
  const std::vector<FeatureWeight>& top_k() const;

  /// The `k` heaviest materialized features (a prefix of top_k()).
  std::vector<FeatureWeight> TopK(size_t k) const;

  /// Frozen point estimate ŵᵢ for an arbitrary feature (works for features
  /// outside the materialized top-K: sketch-backed methods answer from the
  /// captured table pages, heap-backed methods return 0 for untracked ids).
  float Estimate(uint32_t feature) const;

  /// Exhaustive frozen top-k over an explicit universe [0, dimension)
  /// (ScanTopK over the frozen model) — the only ranking available for
  /// identifier-free methods (feature hashing).
  std::vector<FeatureWeight> ScanTopK(size_t k, uint32_t dimension) const;

 private:
  friend class Learner;

  struct State {
    Method method;
    std::string name;
    BudgetConfig config;
    uint64_t steps;
    size_t memory_cost_bytes;
    std::vector<FeatureWeight> top_k;
    std::unique_ptr<const ReadModel> model;
  };

  explicit LearnerSnapshot(std::shared_ptr<const State> state);

  std::shared_ptr<const State> state_;
};

/// The unified facade over every memory-budgeted streaming classifier in the
/// library (Fig. 1 of the paper): construct through \ref LearnerBuilder,
/// ingest labeled examples one at a time or in batches, query weights
/// through immutable \ref LearnerSnapshot views, and persist with
/// SaveLearner/LoadLearner. The concrete method (WM-Sketch, AWM-Sketch, or a
/// Sec. 7 baseline) is a constructor-time choice, not a type: code written
/// against Learner runs unchanged across all of them.
///
/// BudgetedClassifier remains the internal SPI that implementations
/// subclass; impl() exposes it for tooling that genuinely needs the raw
/// interface (e.g. merge orchestration).
class Learner {
 public:
  Learner(Learner&&) noexcept = default;
  Learner& operator=(Learner&&) noexcept = default;
  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;

  /// One online-gradient-descent step. Returns the *pre-update* margin for
  /// progressive validation (predict-then-update, Sec. 7.3).
  double Update(const Example& example);

  /// Batch ingest: equivalent to (and bit-identical with) updating example
  /// by example, but pays one virtual dispatch per batch and keeps the whole
  /// hot loop inside the concrete implementation. WM-Sketch and feature
  /// hashing additionally hash the entire batch up front into a per-thread
  /// plan arena and prefetch the next example's table cells while the
  /// current one updates; the AWM-Sketch, whose sketch accesses depend on
  /// live active-set membership, reuses a lazy per-thread plan per example
  /// instead. The fastest ingest path either way; prefer it over
  /// per-example Update wherever examples arrive in runs.
  void UpdateBatch(std::span<const Example> batch);

  /// Batch ingest that also reports the pre-update margin of every example
  /// (appended to `*margins`), for batched progressive validation.
  void UpdateBatch(std::span<const Example> batch, std::vector<double>* margins);

  /// The margin wᵀx under the current model (no state change).
  double PredictMargin(const SparseVector& x) const;
  /// The predicted label sign(wᵀx) ∈ {-1, +1}.
  int8_t Classify(const SparseVector& x) const;
  /// Live point estimate ŵᵢ (prefer Snapshot() for read paths that must not
  /// race with ingestion).
  float WeightEstimate(uint32_t feature) const;

  /// Batched margins under the current model (no state change): appends one
  /// margin per example to `*margins`, bit-identical to a PredictMargin
  /// loop. Like PredictMargin this reads the live model — for queries
  /// concurrent with training, use a \ref ServingHandle instead.
  void PredictBatch(std::span<const Example> batch, std::vector<double>* margins) const;

  /// Batched live point estimates: appends one estimate per feature id to
  /// `*out`, bit-identical to a WeightEstimate loop.
  void EstimateBatch(std::span<const uint32_t> features, std::vector<float>* out) const;

  /// OK iff `other`'s model can be merged into this one: same method, same
  /// shape, same seed. Only the linear sketch methods (WM/AWM) merge; the
  /// non-linear baselines report Unimplemented.
  Status CanMerge(const Learner& other) const;

  /// Merges `other`'s model into this one: weight vectors sum and step
  /// counts add — the combination rule for learners trained on *disjoint*
  /// stream partitions (the sketch is a linear projection, so the sum of
  /// sketches is the sketch of the summed weights). On error this learner is
  /// unchanged. To average N models instead (parameter mixing), merge N-1 of
  /// them in and scale via impl().ScaleWeights(1.0/N).
  Status Merge(const Learner& other);

  /// Takes an immutable snapshot materializing the `top_k` heaviest tracked
  /// features; see \ref LearnerSnapshot. Costs O(budget) at most — it
  /// captures the frozen read model (the sketches share their clean table
  /// pages). Read paths that only need the ranked list should use TopK()
  /// instead.
  LearnerSnapshot Snapshot(size_t top_k = kDefaultSnapshotTopK) const;
  static constexpr size_t kDefaultSnapshotTopK = 128;

  // --- Wait-free concurrent serving (src/engine/serving.h) ---

  /// Registers a reader with this learner's serving state and returns a
  /// \ref ServingHandle through which one reader thread queries published
  /// model snapshots wait-free while this thread keeps training. Publishes
  /// an initial snapshot if none exists yet, so a fresh handle is always
  /// servable. Publication then happens every ServeEvery(k) updates (or on
  /// explicit PublishServingSnapshot). Fails when the handle-slot table
  /// (ServingState::kMaxHandles readers) is exhausted. Defined in
  /// src/engine/serving.cc so the api layer stays engine-free.
  Result<ServingHandle> AcquireServingHandle();

  /// Publishes a fresh serving snapshot immediately (O(budget) capture +
  /// one atomic pointer swap). Useful with ServeEvery(0) for caller-paced
  /// publication; no-op until serving is initialized by the first
  /// AcquireServingHandle. Defined in src/engine/serving.cc.
  void PublishServingSnapshot();

  /// Updates between automatic snapshot publications (0 = only explicit
  /// PublishServingSnapshot calls publish).
  uint64_t serve_every() const { return serve_every_; }

  // --- Crash-safe checkpointing (src/engine/checkpoint.h) ---

  /// Enables atomic checkpointing to `spec.dir`: every checkpoint is a
  /// SaveLearner stream written temp-file + fsync + rename, so a crash at
  /// any instant leaves the directory recoverable via
  /// Checkpointer::RecoverLatest. With `spec.every > 0` the learner
  /// checkpoints itself automatically at those step boundaries (UpdateBatch
  /// splits batches so the cadence holds). Normally wired up by
  /// LearnerBuilder::CheckpointTo/CheckpointEvery; call directly to resume
  /// checkpointing on a learner restored by RecoverLatest. Defined in
  /// src/engine/checkpoint.cc so the api layer stays engine-free.
  Status EnableCheckpointing(const CheckpointSpec& spec);

  /// Writes a checkpoint immediately. Requires EnableCheckpointing.
  /// Defined in src/engine/checkpoint.cc.
  Status CheckpointNow();

  /// Outcome of the most recent (automatic or explicit) checkpoint write.
  /// Automatic checkpoints never abort training: a full disk surfaces here,
  /// not as a crash mid-ingest.
  const Status& last_checkpoint_status() const { return last_checkpoint_status_; }

  /// Updates between automatic checkpoints (0 = explicit only).
  uint64_t checkpoint_every() const { return checkpoint_every_; }

  /// The k heaviest tracked features, materialized into a detached vector
  /// (the same list a Snapshot would carry, without paying for the
  /// read-model capture). Empty for identifier-free methods.
  std::vector<FeatureWeight> TopK(size_t k) const;

  /// The method this learner runs.
  Method method() const { return config_.method; }
  /// The concrete sizing the builder resolved (explicit or budget-planned).
  const BudgetConfig& config() const { return config_; }
  /// The hyperparameters the learner was built with.
  const LearnerOptions& options() const { return opts_; }
  /// Footprint under the Sec. 7.1 cost model.
  size_t MemoryCostBytes() const;
  /// Number of updates absorbed so far.
  uint64_t steps() const;
  /// Short stable method name ("awm", "hash", ...).
  std::string Name() const;

  /// The underlying SPI object (internal escape hatch; prefer the facade).
  BudgetedClassifier& impl() { return *impl_; }
  const BudgetedClassifier& impl() const { return *impl_; }

 private:
  friend class LearnerBuilder;
  friend class ShardedLearner;  // Collapse() wraps the merged impl directly
  friend Result<Learner> LoadLearner(std::string_view bytes, const LearnerOptions& opts);

  Learner(BudgetConfig config, LearnerOptions opts,
          std::unique_ptr<BudgetedClassifier> impl);

  /// Publishes a snapshot when steps() has reached the next ServeEvery
  /// boundary (called after every update once serving is initialized).
  /// Defined in src/engine/serving.cc.
  void MaybePublishServing();

  /// Checkpoints when steps() has reached the next CheckpointEvery boundary
  /// (called after every update once checkpointing is enabled). Defined in
  /// src/engine/checkpoint.cc.
  void MaybeCheckpoint();

  BudgetConfig config_;
  LearnerOptions opts_;
  std::unique_ptr<BudgetedClassifier> impl_;
  // Serving: null until AcquireServingHandle initializes it. shared_ptr so
  // handles outlive the learner safely (they keep serving the last
  // published snapshot).
  std::shared_ptr<ServingState> serving_;
  uint64_t serve_every_ = 0;
  uint64_t next_publish_steps_ = 0;
  // Checkpointing: null until EnableCheckpointing. shared_ptr because
  // Checkpointer is declared but incomplete here (engine type).
  std::shared_ptr<Checkpointer> checkpointer_;
  uint64_t checkpoint_every_ = 0;
  uint64_t next_checkpoint_steps_ = 0;
  Status last_checkpoint_status_;
};

/// Fluent, validating constructor for \ref Learner — the single public entry
/// point for building classifiers. Replaces the per-class throwing/asserting
/// constructors: invalid shapes come back as typed errors (Status with a
/// \ref ConfigError detail code), never as aborts.
///
/// Sizing is specified one of three ways (checked, mutually exclusive):
///  * SetBudgetBytes(b): the paper's per-method budget planner picks the
///    shape (Table 2 / Sec. 7.3 defaults);
///  * SetWidth/SetDepth/SetHeapCapacity: an explicit shape for the chosen
///    method (only the knobs that method uses);
///  * SetConfig(cfg): a fully-specified BudgetConfig (e.g. one enumerated by
///    EnumerateConfigs for a grid search).
///
///   Result<Learner> r = LearnerBuilder()
///                           .SetMethod(Method::kAwmSketch)
///                           .SetBudgetBytes(KiB(8))
///                           .SetLambda(1e-6)
///                           .SetSeed(42)
///                           .Build();
class LearnerBuilder {
 public:
  LearnerBuilder() = default;

  /// Chooses the method (default: the AWM-Sketch, the paper's best).
  LearnerBuilder& SetMethod(Method method);
  /// Sizes the learner by byte budget via the per-method planner.
  LearnerBuilder& SetBudgetBytes(size_t budget_bytes);
  /// Explicit sketch/table width (power of two; WM/AWM/CM-FF/hash).
  LearnerBuilder& SetWidth(uint32_t width);
  /// Explicit sketch depth (WM/AWM/CM-FF).
  LearnerBuilder& SetDepth(uint32_t depth);
  /// Explicit heap / active-set / tracked-entry capacity.
  LearnerBuilder& SetHeapCapacity(size_t heap_capacity);
  /// A fully-specified configuration (method included).
  LearnerBuilder& SetConfig(const BudgetConfig& config);
  /// ℓ2-regularization strength λ (default 1e-6, the paper's default).
  LearnerBuilder& SetLambda(double lambda);
  /// Learning-rate schedule (default η_t = 0.1/√t).
  LearnerBuilder& SetLearningRate(LearningRate rate);
  /// Seed for all hashing/randomized internals (default 42).
  LearnerBuilder& SetSeed(uint64_t seed);

  /// Publishes a serving snapshot every `k` updates once serving is active
  /// (see Learner::AcquireServingHandle) — the staleness bound, in updates,
  /// of what concurrent readers observe. 0 (the default) publishes only on
  /// explicit PublishServingSnapshot calls. For BuildSharded engines a
  /// publication requires a merge barrier, so `k` there acts as a sync-and-
  /// publish interval (see ShardedLearner::AcquireServingHandle).
  LearnerBuilder& ServeEvery(uint64_t k);

  /// Enables crash-safe checkpointing into `dir` (created if missing),
  /// retaining the last `keep_last` completed checkpoints. Build() opens the
  /// directory and attaches a \ref Checkpointer; BuildSharded engines
  /// checkpoint the merged global model at merge barriers.
  LearnerBuilder& CheckpointTo(std::string dir, size_t keep_last = 3);
  /// Checkpoints every `k` updates once CheckpointTo is set (0, the
  /// default: only explicit CheckpointNow calls — or, for sharded engines,
  /// every merge barrier). For BuildSharded a checkpoint requires a merge
  /// barrier, so `k` there acts as a minimum update interval between
  /// barrier checkpoints.
  LearnerBuilder& CheckpointEvery(uint64_t k);

  /// Number of parallel ingestion shards for BuildSharded (default 1).
  /// Build() is unaffected: it always constructs the sequential learner.
  LearnerBuilder& Shards(uint32_t shards);
  /// Examples between the sharded engine's periodic merge-average
  /// synchronizations (0, the default, synchronizes only at Collapse).
  LearnerBuilder& SetSyncInterval(uint64_t interval);

  /// Validates the accumulated specification and constructs the learner.
  /// Error cases (each with its ConfigError detail code):
  ///  * no budget and no shape            -> kShapeUnderspecified
  ///  * budget combined with a shape, or
  ///    SetConfig combined with either    -> kShapeConflict
  ///  * budget below kMinBudgetBytes      -> kBudgetTooSmall
  ///  * width zero / not a power of two   -> kWidthNotPowerOfTwo
  ///  * depth 0 where a table is needed   -> kDepthZero
  ///  * depth above kMaxSketchDepth       -> kDepthTooLarge
  ///  * empty active set / tracked set    -> kActiveSetEmpty
  /// Build() is const: one builder can stamp out many learners (e.g. the
  /// per-tenant fleet in a multi-tenant server), varying a knob between
  /// builds.
  Result<Learner> Build() const;

  /// Builds the sharded parallel ingestion engine configured by Shards(n)
  /// and SetSyncInterval: n identically-seeded replicas trained on worker
  /// threads, merge-averaged into one ordinary Learner by
  /// ShardedLearner::Collapse(). Shards(n > 1) requires a mergeable method
  /// (WM/AWM) and returns Unimplemented otherwise. Defined in
  /// src/engine/sharded_learner.cc so the api layer stays engine-free.
  Result<ShardedLearner> BuildSharded() const;

 private:
  Method method_ = Method::kAwmSketch;
  std::optional<size_t> budget_bytes_;
  std::optional<uint32_t> width_;
  std::optional<uint32_t> depth_;
  std::optional<size_t> heap_capacity_;
  std::optional<BudgetConfig> config_;
  bool method_set_ = false;
  uint32_t shards_ = 1;
  uint64_t sync_interval_ = 0;
  uint64_t serve_every_ = 0;
  CheckpointSpec checkpoint_spec_;
  LearnerOptions opts_;
};

/// Writes a self-describing snapshot of any learner: one checksummed
/// envelope (core/snapshot_io.h) whose payload is a facade header with a
/// method tag followed by the method-specific payload (the
/// core/serialization.h format for that method). Works for every Method.
Status SaveLearner(const Learner& learner, std::ostream& out);

/// SaveLearner for a raw SPI classifier plus its method tag — the engine
/// checkpoint path, which serializes a merged model that is not wrapped in
/// a Learner. Byte-identical to SaveLearner of a Learner holding `impl`.
Status SaveClassifier(Method method, const BudgetedClassifier& impl, std::ostream& out);

/// Restores a learner from a SaveLearner stream, dispatching on the stored
/// method tag. As with the per-method loaders, `opts.loss` and `opts.rate`
/// are adopted from the caller while λ, seed, and all learned state come
/// from the snapshot. Returns Corruption for malformed input.
Result<Learner> LoadLearner(std::istream& in, const LearnerOptions& opts);

/// LoadLearner over snapshot bytes already in memory (a received frame): the
/// payload is parsed where it lies, with no copy into a stream. `bytes`
/// holds one enveloped snapshot; anything after it is not read.
Result<Learner> LoadLearner(std::string_view bytes, const LearnerOptions& opts);

/// The inverse of SaveClassifier: LoadLearner's raw SPI classifier and its
/// method tag (`*method`), with no Learner around it — the aggregator keeps
/// it as a worker's replica.
Result<std::unique_ptr<BudgetedClassifier>> LoadClassifier(std::string_view bytes,
                                                           const LearnerOptions& opts,
                                                           Method* method);

}  // namespace wmsketch
