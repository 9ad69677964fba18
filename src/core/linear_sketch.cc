#include "core/linear_sketch.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/simd.h"

namespace wmsketch {

namespace {

Status Mismatch(const std::string& kind, const std::string& what, uint64_t a, uint64_t b,
                const std::string& consequence = "") {
  return Status::InvalidArgument(kind + " merge: " + what + " mismatch (" + std::to_string(a) +
                                 " vs " + std::to_string(b) + ")" + consequence);
}

}  // namespace

Status CheckSummable(Method method, const LinearSketchConfig& a, uint64_t seed_a,
                     const LinearSketchConfig& b, uint64_t seed_b) {
  const std::string kind = MethodName(method);
  if (a.width != b.width) return Mismatch(kind, "width", a.width, b.width);
  if (a.depth != b.depth) return Mismatch(kind, "depth", a.depth, b.depth);
  if (seed_a != seed_b) {
    return Mismatch(kind, "seed", seed_a, seed_b, "; hash rows differ, tables cannot be summed");
  }
  if (a.heap_capacity != b.heap_capacity) {
    return Mismatch(kind, method == Method::kAwmSketch ? "active-set capacity" : "heap capacity",
                    a.heap_capacity, b.heap_capacity);
  }
  return Status::OK();
}

LinearSketch::LinearSketch(Method method, const LinearSketchConfig& config,
                           const LearnerOptions& opts, uint32_t num_scales)
    : method_(method),
      config_(config),
      opts_(opts),
      rows_(SignedRows(opts.seed, config.width, config.depth)),
      table_(static_cast<size_t>(config.width) * config.depth),
      num_scales_(num_scales),
      sqrt_depth_(std::sqrt(static_cast<double>(config.depth))),
      heap_(std::max<size_t>(config.heap_capacity, 1)) {}

Status LinearSketch::CanMerge(const BudgetedClassifier& other) const {
  const auto* o = dynamic_cast<const LinearSketch*>(&other);
  if (o == nullptr || o->method_ != method_) {
    const std::string kind = Name();
    return Status::InvalidArgument(kind + " merge: cannot merge a '" + other.Name() +
                                   "' model into " + (kind == "awm" ? "an " : "a ") + kind +
                                   " sketch");
  }
  return CheckSummable(method_, config_, opts_.seed, o->config_, o->opts_.seed);
}

Status LinearSketch::CheckMerge(const BudgetedClassifier& other, double coeff) const {
  WMS_RETURN_NOT_OK(CanMerge(other));
  if (!std::isfinite(coeff)) {
    return Status::InvalidArgument(Name() + " merge: coefficient must be finite");
  }
  return Status::OK();
}

void LinearSketch::MergeTable(const LinearSketch& other, double coeff) {
  const double ratio = coeff * other.table_scale() / table_scale();
  table_.MarkAllDirty();
  simd::MergeScaledTable(table_.data(), other.table_.data(), table_.size(), ratio);
}

std::vector<uint32_t> LinearSketch::HeapUnion(const LinearSketch& other) const {
  std::vector<uint32_t> ids;
  ids.reserve(heap_.size() + other.heap_.size());
  const auto add = [&ids](uint32_t feature, float) { ids.push_back(feature); };
  heap_.ForEachEntry(add);
  other.heap_.ForEachEntry(add);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Status LinearSketch::ScaleWeights(double factor) {
  if (!(factor > 0.0)) {
    return Status::InvalidArgument(Name() + " scale: factor must be positive");
  }
  for (double& scale : lazy_scales()) scale *= factor;
  MaybeRescale();
  return Status::OK();
}

Status LinearSketch::SetSteps(uint64_t steps) {
  t_ = steps;
  return Status::OK();
}

size_t LinearSketch::ResidentStorageBytes() const {
  return TableBytes(table_.size()) + table_.MetadataBytes() + heap_.ResidentBytes();
}

}  // namespace wmsketch
