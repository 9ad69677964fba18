#include "core/serialization.h"

#include <ostream>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/indexed_heap.h"
#include "util/math.h"

namespace wmsketch {

namespace {

using snapshot::SnapshotReader;
using snapshot::WriteBytes;
using snapshot::WriteRaw;

// Per-method payload magics. The baselines without a paged table are at
// version 1; the paged-table methods are at version 2, whose table section
// carries the writer's page size (see WritePagedTable).
constexpr uint32_t kTrunMagic = 0x314e5254;  // "TRN1"
constexpr uint32_t kPtrnMagic = 0x31525450;  // "PTR1"
constexpr uint32_t kSsfMagic = 0x31465353;   // "SSF1"
constexpr uint32_t kCmfMagic = 0x31464d43;   // "CMF1"
constexpr uint32_t kWmMagic = 0x324d5357;    // "WSM2"
constexpr uint32_t kAwmMagic = 0x324d5741;   // "AWM2"
constexpr uint32_t kFhsMagic = 0x32534846;   // "FHS2"

// On-wire entry sizes, for bounding declared counts against the stream.
constexpr size_t kHeapEntryBytes = sizeof(uint32_t) + sizeof(float);
constexpr size_t kMinHeapEntryBytes = sizeof(uint32_t) + sizeof(double) + sizeof(float);
constexpr size_t kSpaceSavingEntryBytes = sizeof(uint32_t) + 2 * sizeof(uint64_t);

template <typename T>
void WriteArray(std::ostream& out, std::span<const T> values) {
  WriteRaw(out, static_cast<uint64_t>(values.size()));
  WriteBytes(out, values.data(), values.size() * sizeof(T));
}

// Reads an array whose element count must equal `expected`; the count is
// bounded against the remaining stream bytes before the resize.
template <typename T>
Status ReadArrayExact(SnapshotReader& in, std::vector<T>* values, size_t expected) {
  uint64_t n = 0;
  if (!in.ReadRaw(&n)) return Status::Corruption("truncated array header");
  if (n != expected) return Status::Corruption("array size mismatch");
  if (!in.CanRead(n, sizeof(T))) return Status::Corruption("array exceeds stream size");
  values->resize(expected);
  if (!in.ReadExactRaw(reinterpret_cast<char*>(values->data()), expected * sizeof(T))) {
    return Status::Corruption("truncated array");
  }
  return Status::OK();
}

// The table section: logical cell count, the saver's page size, then the
// cells in page order. Pages are contiguous slices of the live arena, so
// page-ordered iteration IS the flat arena order — one write emits every
// cell.
void WritePagedTable(std::ostream& out, const PagedTable& table) {
  WriteRaw(out, static_cast<uint64_t>(table.size()));
  WriteRaw(out, static_cast<uint32_t>(table.page_cells()));
  WriteBytes(out, table.data(), table.size() * sizeof(float));
}

// Restores a table section written by WritePagedTable. Restore is
// layout-independent: the saver's page size is validated but the cells land
// in whatever pages the live table uses.
Status ReadTableInto(SnapshotReader& in, PagedTable* table) {
  uint64_t cells = 0;
  if (!in.ReadRaw(&cells)) return Status::Corruption("truncated table header");
  if (cells != table->size()) return Status::Corruption("table size mismatch");
  uint32_t page_cells = 0;
  if (!in.ReadRaw(&page_cells)) return Status::Corruption("truncated page header");
  if (page_cells == 0 || (page_cells & (page_cells - 1)) != 0) {
    return Status::Corruption("invalid page size");
  }
  if (!in.CanRead(cells, sizeof(float))) {
    return Status::Corruption("table exceeds stream size");
  }
  if (!in.ReadExactRaw(reinterpret_cast<char*>(table->data()), cells * sizeof(float))) {
    return Status::Corruption("truncated table");
  }
  table->MarkAllDirty();
  return Status::OK();
}

// The one WSM2/AWM2 payload takes from its method only the magic and the
// names below; the lazy-scale list it carries (WM: α; AWM: α of the tail
// sketch, then α of the active set) comes from the sketch.
struct SketchFormat {
  uint32_t magic;
  const char* kind;         // SectionGuard's snapshot kind
  const char* wrong_magic;  // the Corruption message for any other payload
};
constexpr SketchFormat kWmFormat{kWmMagic, "wm-sketch", "not a WM-Sketch snapshot"};
constexpr SketchFormat kAwmFormat{kAwmMagic, "awm-sketch", "not an AWM-Sketch snapshot"};

const SketchFormat& FormatOf(Method method) {
  return method == Method::kAwmSketch ? kAwmFormat : kWmFormat;
}

// A declared heap/active-set/tracked capacity sizes an allocation that is
// not stream-backed (an empty heap of capacity k occupies no stream bytes),
// so it can't be bounded by remaining bytes; reject anything beyond the
// absolute sanity cap before the allocation happens.
bool CapacityPlausible(uint64_t capacity) {
  return capacity <= snapshot::kMaxDeclaredCapacity;
}

}  // namespace

namespace detail {

Status ReadHeapSection(SnapshotReader& in, size_t capacity, HeapSection* section) {
  static_assert(sizeof(FeatureWeight) == kHeapEntryBytes &&
                    std::is_trivially_copyable_v<FeatureWeight>,
                "a FeatureWeight is read as its (u32 feature, f32 weight) wire pair");
  uint64_t n = 0;
  if (!in.ReadRaw(&n)) return Status::Corruption("truncated heap header");
  if (n > capacity) return Status::Corruption("heap entries exceed capacity");
  if (!in.CanRead(n, kHeapEntryBytes) || !in.ReadView(n * kHeapEntryBytes, &section->entries)) {
    return Status::Corruption("heap entries exceed stream size");
  }
  return Status::OK();
}

Status AssignHeapSection(const HeapSection& section, TopKHeap& heap) {
  if (!heap.TryAssign(section.size(), section)) {
    return Status::Corruption("duplicate heap feature");
  }
  return Status::OK();
}

// ---------------------------------------------------- WM- and AWM-Sketch

Status SaveLinearSketchPayload(const LinearSketch& sketch, std::ostream& out) {
  const SketchFormat& format = FormatOf(sketch.method_);
  WriteRaw(out, format.magic);
  WriteRaw(out, sketch.config_.width);
  WriteRaw(out, sketch.config_.depth);
  WriteRaw(out, static_cast<uint64_t>(sketch.config_.heap_capacity));
  WriteRaw(out, sketch.opts_.lambda);
  WriteRaw(out, sketch.opts_.seed);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, format.kind, "config"));
  WriteRaw(out, sketch.t_);
  for (const double scale : sketch.lazy_scales()) WriteRaw(out, scale);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, format.kind, "state"));
  WritePagedTable(out, sketch.table_);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, format.kind, "table"));
  WriteHeapEntries(out, sketch.heap_);
  return snapshot::SectionGuard(out, format.kind, "heap");
}

Result<std::unique_ptr<BudgetedClassifier>> LoadLinearSketchPayload(SnapshotReader& in,
                                                                    Method method,
                                                                    const LearnerOptions& opts) {
  const SketchFormat& format = FormatOf(method);
  uint32_t magic;
  if (!in.ReadRaw(&magic)) return Status::Corruption("truncated header");
  if (magic != format.magic) return Status::Corruption(format.wrong_magic);
  BudgetConfig shape;
  shape.method = method;
  uint64_t heap_capacity;
  LearnerOptions restored = opts;
  if (!in.ReadRaw(&shape.width) || !in.ReadRaw(&shape.depth) || !in.ReadRaw(&heap_capacity) ||
      !in.ReadRaw(&restored.lambda) || !in.ReadRaw(&restored.seed)) {
    return Status::Corruption("truncated configuration");
  }
  shape.heap_capacity = heap_capacity;
  if (!shape.Validate().ok()) return Status::Corruption("invalid sketch shape");
  // Bound the declared shape before the constructor allocates it: the table
  // must fit in the bytes that actually follow, the capacity under the cap.
  if (!CapacityPlausible(heap_capacity) ||
      !in.CanRead(uint64_t{shape.width} * shape.depth, sizeof(float))) {
    return Status::Corruption("declared sketch shape exceeds stream size");
  }
  std::unique_ptr<BudgetedClassifier> model = MakeClassifier(shape, restored);
  LinearSketch& sketch = static_cast<LinearSketch&>(*model);
  if (!in.ReadRaw(&sketch.t_)) return Status::Corruption("truncated state");
  for (double& scale : sketch.lazy_scales()) {
    if (!in.ReadRaw(&scale)) return Status::Corruption("truncated state");
  }
  WMS_RETURN_NOT_OK(ReadTableInto(in, &sketch.table_));
  // The configured capacity bounds the heap section, as it bounds a delta's:
  // a WM without top-K tracking holds a one-slot placeholder heap that must
  // stay empty.
  HeapSection heap;
  WMS_RETURN_NOT_OK(ReadHeapSection(in, sketch.config_.heap_capacity, &heap));
  WMS_RETURN_NOT_OK(AssignHeapSection(heap, sketch.heap_));
  return model;
}

// ------------------------------------------------------------- baselines

Status SaveSimpleTruncationPayload(const SimpleTruncation& model, std::ostream& out) {
  WriteRaw(out, kTrunMagic);
  WriteRaw(out, static_cast<uint64_t>(model.heap_.capacity()));
  WriteRaw(out, model.opts_.lambda);
  WriteRaw(out, model.opts_.seed);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "truncation", "config"));
  WriteRaw(out, model.t_);
  WriteRaw(out, model.scale_);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "truncation", "state"));
  WriteHeapEntries(out, model.heap_);
  return snapshot::SectionGuard(out, "truncation", "heap");
}

Result<SimpleTruncation> LoadSimpleTruncationPayload(SnapshotReader& in,
                                                     const LearnerOptions& opts) {
  uint32_t magic;
  if (!in.ReadRaw(&magic)) return Status::Corruption("truncated header");
  if (magic != kTrunMagic) return Status::Corruption("not a truncation snapshot");
  uint64_t capacity;
  LearnerOptions restored = opts;
  if (!in.ReadRaw(&capacity) || !in.ReadRaw(&restored.lambda) ||
      !in.ReadRaw(&restored.seed)) {
    return Status::Corruption("truncated configuration");
  }
  if (capacity < 1) return Status::Corruption("empty truncation capacity");
  if (!CapacityPlausible(capacity)) {
    return Status::Corruption("truncation capacity exceeds sanity cap");
  }
  SimpleTruncation model(capacity, restored);
  if (!in.ReadRaw(&model.t_) || !in.ReadRaw(&model.scale_)) {
    return Status::Corruption("truncated state");
  }
  HeapSection heap;
  WMS_RETURN_NOT_OK(ReadHeapSection(in, model.heap_.capacity(), &heap));
  WMS_RETURN_NOT_OK(AssignHeapSection(heap, model.heap_));
  return model;
}

Status SaveProbabilisticTruncationPayload(const ProbabilisticTruncation& model,
                                          std::ostream& out) {
  WriteRaw(out, kPtrnMagic);
  WriteRaw(out, static_cast<uint64_t>(model.capacity_));
  WriteRaw(out, model.opts_.lambda);
  WriteRaw(out, model.opts_.seed);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "ptrun", "config"));
  WriteRaw(out, model.t_);
  WriteRaw(out, model.scale_);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "ptrun", "state"));
  WriteRaw(out, static_cast<uint64_t>(model.heap_.size()));
  for (const IndexedMinHeap::Entry& e : model.heap_.entries()) {
    WriteRaw(out, e.key);
    WriteRaw(out, e.priority);
    WriteRaw(out, e.value);
  }
  return snapshot::SectionGuard(out, "ptrun", "heap");
}

Result<ProbabilisticTruncation> LoadProbabilisticTruncationPayload(
    SnapshotReader& in, const LearnerOptions& opts) {
  uint32_t magic;
  if (!in.ReadRaw(&magic)) return Status::Corruption("truncated header");
  if (magic != kPtrnMagic) return Status::Corruption("not a ptrun snapshot");
  uint64_t capacity;
  LearnerOptions restored = opts;
  if (!in.ReadRaw(&capacity) || !in.ReadRaw(&restored.lambda) ||
      !in.ReadRaw(&restored.seed)) {
    return Status::Corruption("truncated configuration");
  }
  if (capacity < 1) return Status::Corruption("empty ptrun capacity");
  if (!CapacityPlausible(capacity)) {
    return Status::Corruption("ptrun capacity exceeds sanity cap");
  }
  ProbabilisticTruncation model(capacity, restored);
  uint64_t entries;
  if (!in.ReadRaw(&model.t_) || !in.ReadRaw(&model.scale_) || !in.ReadRaw(&entries)) {
    return Status::Corruption("truncated state");
  }
  if (entries > capacity) return Status::Corruption("ptrun entries exceed capacity");
  if (!in.CanRead(entries, kMinHeapEntryBytes)) {
    return Status::Corruption("ptrun entries exceed stream size");
  }
  std::vector<IndexedMinHeap::Entry> heap_entries(entries);
  for (IndexedMinHeap::Entry& e : heap_entries) {
    if (!in.ReadRaw(&e.key) || !in.ReadRaw(&e.priority) || !in.ReadRaw(&e.value)) {
      return Status::Corruption("truncated ptrun entry");
    }
  }
  {
    const Status st = model.heap_.RestoreHeapOrder(std::move(heap_entries));
    if (!st.ok()) return Status::Corruption(st.message());
  }
  return model;
}

Status SaveSpaceSavingFrequentPayload(const SpaceSavingFrequent& model, std::ostream& out) {
  WriteRaw(out, kSsfMagic);
  WriteRaw(out, static_cast<uint64_t>(model.ss_.capacity()));
  WriteRaw(out, model.opts_.lambda);
  WriteRaw(out, model.opts_.seed);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "space-saving", "config"));
  WriteRaw(out, model.t_);
  WriteRaw(out, model.scale_);
  WriteRaw(out, model.ss_.TotalCount());
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "space-saving", "state"));
  // Raw heap order: restore must reproduce eviction tie-breaking exactly.
  const std::vector<SpaceSavingEntry> entries = model.ss_.RawEntries();
  WriteRaw(out, static_cast<uint64_t>(entries.size()));
  for (const SpaceSavingEntry& e : entries) {
    WriteRaw(out, e.item);
    WriteRaw(out, e.count);
    WriteRaw(out, e.error);
  }
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "space-saving", "summary"));
  WriteRaw(out, static_cast<uint64_t>(model.weights_.size()));
  for (const auto& [feature, weight] : model.weights_) {
    WriteRaw(out, feature);
    WriteRaw(out, weight);
  }
  return snapshot::SectionGuard(out, "space-saving", "weights");
}

Result<SpaceSavingFrequent> LoadSpaceSavingFrequentPayload(SnapshotReader& in,
                                                           const LearnerOptions& opts) {
  uint32_t magic;
  if (!in.ReadRaw(&magic)) return Status::Corruption("truncated header");
  if (magic != kSsfMagic) return Status::Corruption("not a Space-Saving snapshot");
  uint64_t capacity;
  LearnerOptions restored = opts;
  if (!in.ReadRaw(&capacity) || !in.ReadRaw(&restored.lambda) ||
      !in.ReadRaw(&restored.seed)) {
    return Status::Corruption("truncated configuration");
  }
  if (capacity < 1) return Status::Corruption("empty Space-Saving capacity");
  if (!CapacityPlausible(capacity)) {
    return Status::Corruption("Space-Saving capacity exceeds sanity cap");
  }
  SpaceSavingFrequent model(capacity, restored);
  uint64_t total, entries;
  if (!in.ReadRaw(&model.t_) || !in.ReadRaw(&model.scale_) || !in.ReadRaw(&total) ||
      !in.ReadRaw(&entries)) {
    return Status::Corruption("truncated state");
  }
  if (entries > capacity) return Status::Corruption("summary entries exceed capacity");
  if (!in.CanRead(entries, kSpaceSavingEntryBytes)) {
    return Status::Corruption("summary entries exceed stream size");
  }
  std::vector<SpaceSavingEntry> summary(entries);
  for (SpaceSavingEntry& e : summary) {
    if (!in.ReadRaw(&e.item) || !in.ReadRaw(&e.count) || !in.ReadRaw(&e.error)) {
      return Status::Corruption("truncated summary entry");
    }
  }
  {
    const Status st = model.ss_.RestoreEntries(summary, total);
    if (!st.ok()) return Status::Corruption(st.message());
  }
  uint64_t weights;
  if (!in.ReadRaw(&weights)) return Status::Corruption("truncated weight header");
  if (weights > capacity) return Status::Corruption("weights exceed capacity");
  if (!in.CanRead(weights, kHeapEntryBytes)) {
    return Status::Corruption("weights exceed stream size");
  }
  for (uint64_t i = 0; i < weights; ++i) {
    uint32_t feature;
    float weight;
    if (!in.ReadRaw(&feature) || !in.ReadRaw(&weight)) {
      return Status::Corruption("truncated weight entry");
    }
    // A weight's feature must be monitored: an unmonitored feature can never
    // be evicted, so its weight would persist (and predict) forever.
    if (!model.ss_.Contains(feature)) {
      return Status::Corruption("weight for unmonitored feature");
    }
    model.weights_[feature] = weight;
  }
  return model;
}

Status SaveCountMinFrequentPayload(const CountMinFrequent& model, std::ostream& out) {
  WriteRaw(out, kCmfMagic);
  WriteRaw(out, model.cm_.width());
  WriteRaw(out, model.cm_.depth());
  WriteRaw(out, static_cast<uint64_t>(model.capacity_));
  WriteRaw(out, model.opts_.lambda);
  WriteRaw(out, model.opts_.seed);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "cm-ff", "config"));
  WriteRaw(out, model.t_);
  WriteRaw(out, model.scale_);
  WriteRaw(out, model.cm_.TotalMass());
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "cm-ff", "state"));
  WriteArray(out, model.cm_.table());
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "cm-ff", "table"));
  WriteRaw(out, static_cast<uint64_t>(model.heap_.size()));
  for (const IndexedMinHeap::Entry& e : model.heap_.entries()) {
    WriteRaw(out, e.key);
    WriteRaw(out, e.priority);
    WriteRaw(out, e.value);
  }
  return snapshot::SectionGuard(out, "cm-ff", "heap");
}

Result<CountMinFrequent> LoadCountMinFrequentPayload(SnapshotReader& in,
                                                     const LearnerOptions& opts) {
  uint32_t magic;
  if (!in.ReadRaw(&magic)) return Status::Corruption("truncated header");
  if (magic != kCmfMagic) return Status::Corruption("not a CM-FF snapshot");
  uint32_t width, depth;
  uint64_t capacity;
  LearnerOptions restored = opts;
  if (!in.ReadRaw(&width) || !in.ReadRaw(&depth) || !in.ReadRaw(&capacity) ||
      !in.ReadRaw(&restored.lambda) || !in.ReadRaw(&restored.seed)) {
    return Status::Corruption("truncated configuration");
  }
  if (!BudgetConfig{Method::kCountMinFrequent, capacity, width, depth}.Validate().ok()) {
    return Status::Corruption("invalid CM-FF shape");
  }
  if (!CapacityPlausible(capacity) ||
      !in.CanRead(uint64_t{width} * depth, sizeof(double))) {
    return Status::Corruption("declared CM-FF shape exceeds stream size");
  }
  CountMinFrequent model(width, depth, capacity, restored);
  double total;
  if (!in.ReadRaw(&model.t_) || !in.ReadRaw(&model.scale_) || !in.ReadRaw(&total)) {
    return Status::Corruption("truncated state");
  }
  std::vector<double> table;
  WMS_RETURN_NOT_OK(ReadArrayExact(in, &table, model.cm_.cells()));
  {
    const Status st = model.cm_.RestoreState(table, total);
    if (!st.ok()) return Status::Corruption(st.message());
  }
  uint64_t entries;
  if (!in.ReadRaw(&entries)) return Status::Corruption("truncated heap header");
  if (entries > capacity) return Status::Corruption("CM-FF entries exceed capacity");
  if (!in.CanRead(entries, kMinHeapEntryBytes)) {
    return Status::Corruption("CM-FF entries exceed stream size");
  }
  std::vector<IndexedMinHeap::Entry> heap_entries(entries);
  for (IndexedMinHeap::Entry& e : heap_entries) {
    if (!in.ReadRaw(&e.key) || !in.ReadRaw(&e.priority) || !in.ReadRaw(&e.value)) {
      return Status::Corruption("truncated CM-FF entry");
    }
  }
  {
    const Status st = model.heap_.RestoreHeapOrder(std::move(heap_entries));
    if (!st.ok()) return Status::Corruption(st.message());
  }
  return model;
}

Status SaveFeatureHashingPayload(const FeatureHashingClassifier& model, std::ostream& out) {
  WriteRaw(out, kFhsMagic);
  WriteRaw(out, model.buckets());
  WriteRaw(out, model.opts_.lambda);
  WriteRaw(out, model.opts_.seed);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "feature-hashing", "config"));
  WriteRaw(out, model.t_);
  WriteRaw(out, model.scale_);
  WMS_RETURN_NOT_OK(snapshot::SectionGuard(out, "feature-hashing", "state"));
  WritePagedTable(out, model.table_);
  return snapshot::SectionGuard(out, "feature-hashing", "table");
}

Result<FeatureHashingClassifier> LoadFeatureHashingPayload(SnapshotReader& in,
                                                           const LearnerOptions& opts) {
  uint32_t magic;
  if (!in.ReadRaw(&magic)) return Status::Corruption("truncated header");
  if (magic != kFhsMagic) return Status::Corruption("not a feature-hashing snapshot");
  uint32_t buckets;
  LearnerOptions restored = opts;
  if (!in.ReadRaw(&buckets) || !in.ReadRaw(&restored.lambda) ||
      !in.ReadRaw(&restored.seed)) {
    return Status::Corruption("truncated configuration");
  }
  if (!IsPowerOfTwo(buckets)) return Status::Corruption("invalid bucket count");
  if (!in.CanRead(buckets, sizeof(float))) {
    return Status::Corruption("declared bucket table exceeds stream size");
  }
  FeatureHashingClassifier model(buckets, restored);
  if (!in.ReadRaw(&model.t_) || !in.ReadRaw(&model.scale_)) {
    return Status::Corruption("truncated state");
  }
  WMS_RETURN_NOT_OK(ReadTableInto(in, &model.table_));
  return model;
}

}  // namespace detail

}  // namespace wmsketch
