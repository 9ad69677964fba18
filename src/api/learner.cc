#include "api/learner.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/serialization.h"
#include "core/snapshot_io.h"
#include "util/memory_cost.h"

namespace wmsketch {

// ------------------------------------------------------------- snapshot

LearnerSnapshot::LearnerSnapshot(std::shared_ptr<const State> state)
    : state_(std::move(state)) {}

Method LearnerSnapshot::method() const { return state_->method; }
const std::string& LearnerSnapshot::name() const { return state_->name; }
uint64_t LearnerSnapshot::steps() const { return state_->steps; }
size_t LearnerSnapshot::memory_cost_bytes() const { return state_->memory_cost_bytes; }
const BudgetConfig& LearnerSnapshot::config() const { return state_->config; }
const std::vector<FeatureWeight>& LearnerSnapshot::top_k() const { return state_->top_k; }

std::vector<FeatureWeight> LearnerSnapshot::TopK(size_t k) const {
  const std::vector<FeatureWeight>& all = state_->top_k;
  if (k >= all.size()) return all;
  return std::vector<FeatureWeight>(all.begin(), all.begin() + static_cast<ptrdiff_t>(k));
}

float LearnerSnapshot::Estimate(uint32_t feature) const {
  return state_->model->Estimate(feature);
}

std::vector<FeatureWeight> LearnerSnapshot::ScanTopK(size_t k, uint32_t dimension) const {
  return wmsketch::ScanTopK(*state_->model, k, dimension);
}

// -------------------------------------------------------------- learner

Learner::Learner(BudgetConfig config, LearnerOptions opts,
                 std::unique_ptr<BudgetedClassifier> impl)
    : config_(config), opts_(opts), impl_(std::move(impl)) {}

double Learner::Update(const Example& example) {
  const double margin = impl_->Update(example.x, example.y);
  if (serving_ != nullptr) MaybePublishServing();
  if (checkpointer_ != nullptr) MaybeCheckpoint();
  return margin;
}

void Learner::UpdateBatch(std::span<const Example> batch) { UpdateBatch(batch, nullptr); }

void Learner::UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) {
  if (margins != nullptr) margins->reserve(margins->size() + batch.size());
  const bool chunk_serving = serving_ != nullptr && serve_every_ > 0;
  const bool chunk_checkpoint = checkpointer_ != nullptr && checkpoint_every_ > 0;
  if (!chunk_serving && !chunk_checkpoint) {
    impl_->UpdateBatch(batch, margins);  // margins from the same devirtualized loop
    return;
  }
  // Serving with a staleness bound / checkpointing with a loss bound: split
  // the batch at ServeEvery and CheckpointEvery boundaries so snapshots are
  // published (and checkpoints written) at exactly the promised step counts
  // — readers never observe staleness above K updates, and a crash never
  // loses more than CheckpointEvery updates. Model evolution is
  // bit-identical to the unchunked call — plans are pure per-example.
  size_t at = 0;
  while (at < batch.size()) {
    // Catch up first: steps() can already sit at or past a boundary when
    // something other than an update advanced it (Merge sums step counts).
    // Without this the subtraction below would wrap and the whole batch
    // would run unchunked, silently voiding the staleness bound.
    if (chunk_serving && impl_->steps() >= next_publish_steps_) MaybePublishServing();
    if (chunk_checkpoint && impl_->steps() >= next_checkpoint_steps_) MaybeCheckpoint();
    uint64_t until_boundary = UINT64_MAX;
    if (chunk_serving) {
      until_boundary = std::min(until_boundary, next_publish_steps_ - impl_->steps());
    }
    if (chunk_checkpoint) {
      until_boundary = std::min(until_boundary, next_checkpoint_steps_ - impl_->steps());
    }
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(batch.size() - at, until_boundary));
    impl_->UpdateBatch(batch.subspan(at, n), margins);
    at += n;
    if (chunk_serving) MaybePublishServing();
    if (chunk_checkpoint) MaybeCheckpoint();
  }
}

double Learner::PredictMargin(const SparseVector& x) const { return impl_->PredictMargin(x); }

int8_t Learner::Classify(const SparseVector& x) const { return impl_->Classify(x); }

float Learner::WeightEstimate(uint32_t feature) const {
  return impl_->WeightEstimate(feature);
}

void Learner::PredictBatch(std::span<const Example> batch,
                           std::vector<double>* margins) const {
  const size_t base = margins->size();
  margins->resize(base + batch.size());
  impl_->PredictBatch(batch, margins->data() + base);
}

void Learner::EstimateBatch(std::span<const uint32_t> features,
                            std::vector<float>* out) const {
  const size_t base = out->size();
  out->resize(base + features.size());
  impl_->EstimateBatch(features, out->data() + base);
}

Status Learner::CanMerge(const Learner& other) const {
  return impl_->CanMerge(*other.impl_);
}

Status Learner::Merge(const Learner& other) { return impl_->Merge(*other.impl_); }

LearnerSnapshot Learner::Snapshot(size_t top_k) const {
  auto state = std::make_shared<LearnerSnapshot::State>();
  state->method = config_.method;
  state->name = impl_->Name();
  state->config = config_;
  state->steps = impl_->steps();
  state->memory_cost_bytes = impl_->MemoryCostBytes();
  state->top_k = impl_->TopK(top_k);
  state->model = impl_->MakeReadModel();
  return LearnerSnapshot(std::move(state));
}

std::vector<FeatureWeight> Learner::TopK(size_t k) const { return impl_->TopK(k); }

size_t Learner::MemoryCostBytes() const { return impl_->MemoryCostBytes(); }
uint64_t Learner::steps() const { return impl_->steps(); }
std::string Learner::Name() const { return impl_->Name(); }

// -------------------------------------------------------------- builder

LearnerBuilder& LearnerBuilder::SetMethod(Method method) {
  method_ = method;
  method_set_ = true;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetBudgetBytes(size_t budget_bytes) {
  budget_bytes_ = budget_bytes;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetWidth(uint32_t width) {
  width_ = width;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetDepth(uint32_t depth) {
  depth_ = depth;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetHeapCapacity(size_t heap_capacity) {
  heap_capacity_ = heap_capacity;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetConfig(const BudgetConfig& config) {
  config_ = config;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetLambda(double lambda) {
  opts_.lambda = lambda;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetLearningRate(LearningRate rate) {
  opts_.rate = rate;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetSeed(uint64_t seed) {
  opts_.seed = seed;
  return *this;
}

LearnerBuilder& LearnerBuilder::ServeEvery(uint64_t k) {
  serve_every_ = k;
  return *this;
}

LearnerBuilder& LearnerBuilder::CheckpointTo(std::string dir, size_t keep_last) {
  checkpoint_spec_.dir = std::move(dir);
  checkpoint_spec_.keep_last = keep_last;
  return *this;
}

LearnerBuilder& LearnerBuilder::CheckpointEvery(uint64_t k) {
  checkpoint_spec_.every = k;
  return *this;
}

LearnerBuilder& LearnerBuilder::Shards(uint32_t shards) {
  shards_ = shards;
  return *this;
}

LearnerBuilder& LearnerBuilder::SetSyncInterval(uint64_t interval) {
  sync_interval_ = interval;
  return *this;
}

Result<Learner> LearnerBuilder::Build() const {
  const bool has_shape =
      width_.has_value() || depth_.has_value() || heap_capacity_.has_value();

  BudgetConfig cfg;
  if (config_.has_value()) {
    if (budget_bytes_.has_value() || has_shape) {
      return Status::InvalidArgument(
          "SetConfig cannot be combined with a budget or explicit shape",
          ToDetail(ConfigError::kShapeConflict));
    }
    if (method_set_ && config_->method != method_) {
      return Status::InvalidArgument("SetMethod disagrees with SetConfig's method",
                                     ToDetail(ConfigError::kShapeConflict));
    }
    cfg = *config_;
  } else if (budget_bytes_.has_value()) {
    if (has_shape) {
      return Status::InvalidArgument(
          "a byte budget and an explicit shape are mutually exclusive",
          ToDetail(ConfigError::kShapeConflict));
    }
    WMS_ASSIGN_OR_RETURN(cfg, DefaultConfig(method_, *budget_bytes_));
  } else if (has_shape) {
    cfg.method = method_;
    switch (method_) {
      case Method::kSimpleTruncation:
      case Method::kProbabilisticTruncation:
      case Method::kSpaceSavingFrequent:
        if (width_.has_value() || depth_.has_value()) {
          return Status::InvalidArgument(
              MethodName(method_) + " has no sketch table; only SetHeapCapacity applies",
              ToDetail(ConfigError::kShapeConflict));
        }
        cfg.heap_capacity = heap_capacity_.value_or(0);
        break;
      case Method::kFeatureHashing:
        if (depth_.has_value() || heap_capacity_.has_value()) {
          return Status::InvalidArgument(
              "feature hashing has no depth or heap; only SetWidth applies",
              ToDetail(ConfigError::kShapeConflict));
        }
        cfg.width = width_.value_or(0);
        break;
      case Method::kCountMinFrequent:
      case Method::kWmSketch:
      case Method::kAwmSketch:
        cfg.width = width_.value_or(0);
        cfg.depth = depth_.value_or(0);
        cfg.heap_capacity = heap_capacity_.value_or(0);
        break;
    }
  } else {
    return Status::InvalidArgument(
        "specify a size: SetBudgetBytes, SetWidth/SetDepth/SetHeapCapacity, or SetConfig",
        ToDetail(ConfigError::kShapeUnderspecified));
  }

  WMS_RETURN_NOT_OK(cfg.Validate());
  Learner learner(cfg, opts_, MakeClassifier(cfg, opts_));
  learner.serve_every_ = serve_every_;
  if (!checkpoint_spec_.dir.empty()) {
    // Resolves to src/engine/checkpoint.cc at link time; the api layer sees
    // only the member declaration, staying engine-header-free.
    WMS_RETURN_NOT_OK(learner.EnableCheckpointing(checkpoint_spec_));
  }
  return learner;
}

// -------------------------------------------------------- serialization

namespace {

constexpr uint32_t kLearnerMagic = 0x31464c57;  // "WLF1"
constexpr uint32_t kLearnerVersion = 1;

// Rebuilds the planner-level view of a restored implementation's shape.
BudgetConfig ConfigOf(Method method, const BudgetedClassifier& impl) {
  BudgetConfig cfg;
  cfg.method = method;
  switch (method) {
    case Method::kSimpleTruncation:
      cfg.heap_capacity = static_cast<const SimpleTruncation&>(impl).capacity();
      break;
    case Method::kProbabilisticTruncation:
      cfg.heap_capacity = static_cast<const ProbabilisticTruncation&>(impl).capacity();
      break;
    case Method::kSpaceSavingFrequent:
      cfg.heap_capacity = static_cast<const SpaceSavingFrequent&>(impl).summary().capacity();
      break;
    case Method::kCountMinFrequent: {
      const auto& cmff = static_cast<const CountMinFrequent&>(impl);
      cfg.width = cmff.sketch().width();
      cfg.depth = cmff.sketch().depth();
      cfg.heap_capacity = cmff.capacity();
      break;
    }
    case Method::kFeatureHashing:
      cfg.width = static_cast<const FeatureHashingClassifier&>(impl).buckets();
      break;
    case Method::kWmSketch: {
      const WmSketchConfig& c = static_cast<const WmSketch&>(impl).config();
      cfg.width = c.width;
      cfg.depth = c.depth;
      cfg.heap_capacity = c.heap_capacity;
      break;
    }
    case Method::kAwmSketch: {
      const AwmSketchConfig& c = static_cast<const AwmSketch&>(impl).config();
      cfg.width = c.width;
      cfg.depth = c.depth;
      cfg.heap_capacity = c.heap_capacity;
      break;
    }
  }
  return cfg;
}

}  // namespace

Status SaveClassifier(Method method, const BudgetedClassifier& impl, std::ostream& out) {
  std::ostringstream payload(std::ios::binary);
  snapshot::WriteRaw(payload, kLearnerMagic);
  snapshot::WriteRaw(payload, kLearnerVersion);
  snapshot::WriteRaw(payload, static_cast<uint8_t>(method));
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(payload, "learner", "facade header"));
  Status body = Status::InvalidArgument("unknown method");
  switch (method) {
    case Method::kSimpleTruncation:
      body = detail::SaveSimpleTruncationPayload(static_cast<const SimpleTruncation&>(impl),
                                                 payload);
      break;
    case Method::kProbabilisticTruncation:
      body = detail::SaveProbabilisticTruncationPayload(
          static_cast<const ProbabilisticTruncation&>(impl), payload);
      break;
    case Method::kSpaceSavingFrequent:
      body = detail::SaveSpaceSavingFrequentPayload(
          static_cast<const SpaceSavingFrequent&>(impl), payload);
      break;
    case Method::kCountMinFrequent:
      body = detail::SaveCountMinFrequentPayload(static_cast<const CountMinFrequent&>(impl),
                                                 payload);
      break;
    case Method::kFeatureHashing:
      body = detail::SaveFeatureHashingPayload(
          static_cast<const FeatureHashingClassifier&>(impl), payload);
      break;
    case Method::kWmSketch:
      body = detail::SaveWmSketchPayload(static_cast<const WmSketch&>(impl), payload);
      break;
    case Method::kAwmSketch:
      body = detail::SaveAwmSketchPayload(static_cast<const AwmSketch&>(impl), payload);
      break;
  }
  WMS_RETURN_NOT_OK(body);
  return snapshot::WriteEnveloped(out, std::move(payload).str());
}

Status SaveLearner(const Learner& learner, std::ostream& out) {
  return SaveClassifier(learner.method(), learner.impl(), out);
}

Result<Learner> LoadLearner(std::istream& in, const LearnerOptions& opts) {
  std::string bytes;
  WMS_RETURN_NOT_OK(snapshot::ReadEnvelope(in, &bytes));
  return LoadLearner(std::string_view(bytes), opts);
}

Result<Learner> LoadLearner(std::string_view bytes, const LearnerOptions& opts) {
  Method method;
  WMS_ASSIGN_OR_RETURN(std::unique_ptr<BudgetedClassifier> impl,
                       LoadClassifier(bytes, opts, &method));
  const BudgetConfig cfg = ConfigOf(method, *impl);
  const LearnerOptions restored = impl->options();  // λ/seed from the snapshot
  return Learner(cfg, restored, std::move(impl));
}

Result<std::unique_ptr<BudgetedClassifier>> LoadClassifier(std::string_view bytes,
                                                           const LearnerOptions& opts,
                                                           Method* method) {
  WMS_ASSIGN_OR_RETURN(snapshot::SnapshotReader reader, snapshot::OpenSnapshot(bytes));
  uint32_t magic, version;
  uint8_t tag;
  if (!reader.ReadRaw(&magic)) return Status::Corruption("truncated facade header");
  if (magic != kLearnerMagic) return Status::Corruption("not a learner snapshot");
  if (!reader.ReadRaw(&version) || !reader.ReadRaw(&tag)) {
    return Status::Corruption("truncated facade header");
  }
  if (version != kLearnerVersion) return Status::Corruption("unsupported snapshot version");
  if (tag > static_cast<uint8_t>(Method::kAwmSketch)) {
    return Status::Corruption("unknown method tag");
  }
  *method = static_cast<Method>(tag);

  std::unique_ptr<BudgetedClassifier> impl;
  switch (*method) {
    case Method::kSimpleTruncation: {
      WMS_ASSIGN_OR_RETURN(SimpleTruncation model,
                           detail::LoadSimpleTruncationPayload(reader, opts));
      impl = std::make_unique<SimpleTruncation>(std::move(model));
      break;
    }
    case Method::kProbabilisticTruncation: {
      WMS_ASSIGN_OR_RETURN(ProbabilisticTruncation model,
                           detail::LoadProbabilisticTruncationPayload(reader, opts));
      impl = std::make_unique<ProbabilisticTruncation>(std::move(model));
      break;
    }
    case Method::kSpaceSavingFrequent: {
      WMS_ASSIGN_OR_RETURN(SpaceSavingFrequent model,
                           detail::LoadSpaceSavingFrequentPayload(reader, opts));
      impl = std::make_unique<SpaceSavingFrequent>(std::move(model));
      break;
    }
    case Method::kCountMinFrequent: {
      WMS_ASSIGN_OR_RETURN(CountMinFrequent model,
                           detail::LoadCountMinFrequentPayload(reader, opts));
      impl = std::make_unique<CountMinFrequent>(std::move(model));
      break;
    }
    case Method::kFeatureHashing: {
      WMS_ASSIGN_OR_RETURN(FeatureHashingClassifier model,
                           detail::LoadFeatureHashingPayload(reader, opts));
      impl = std::make_unique<FeatureHashingClassifier>(std::move(model));
      break;
    }
    case Method::kWmSketch: {
      WMS_ASSIGN_OR_RETURN(WmSketch model, detail::LoadWmSketchPayload(reader, opts));
      impl = std::make_unique<WmSketch>(std::move(model));
      break;
    }
    case Method::kAwmSketch: {
      WMS_ASSIGN_OR_RETURN(AwmSketch model, detail::LoadAwmSketchPayload(reader, opts));
      impl = std::make_unique<AwmSketch>(std::move(model));
      break;
    }
  }
  return impl;
}

}  // namespace wmsketch
