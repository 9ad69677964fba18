#include "core/delta_io.h"

#include <cstring>
#include <string>
#include <vector>

#include "core/awm_sketch.h"
#include "core/serialization.h"
#include "core/snapshot_io.h"
#include "core/wm_sketch.h"
#include "sketch/merge_compat.h"

namespace wmsketch {

namespace {

using snapshot::SnapshotReader;
using snapshot::WriteBytes;
using snapshot::WriteRaw;

// Delta payload magic; the payload rides inside a v3 envelope like every
// other snapshot stream, so it is length- and CRC-validated before parsing.
constexpr uint32_t kDeltaMagic = 0x31444d57;  // "WMD1"

std::string TagName(uint8_t tag) {
  if (tag > static_cast<uint8_t>(Method::kAwmSketch)) {
    return "method#" + std::to_string(tag);
  }
  return MethodName(static_cast<Method>(tag));
}

// Table section: shape header, then the pages dirtied at-or-after `since` as
// (page index, raw cells) records in ascending page order. Raw bytes — no
// float arithmetic on either end — so applying onto a replica that matches
// the sender's unshipped pages reproduces the sender byte-for-byte.
void WriteDirtyPages(std::string* out, const PagedTable& table, uint64_t since,
                     DeltaStats* stats) {
  WriteRaw(*out, static_cast<uint64_t>(table.size()));
  WriteRaw(*out, static_cast<uint32_t>(table.page_cells()));
  WriteRaw(*out, static_cast<uint64_t>(table.num_pages()));
  const uint64_t shipped = table.CountDirtyPagesSince(since);
  WriteRaw(*out, shipped);
  table.ForEachDirtyPageSince(since, [&](size_t p, const float* cells, size_t pc) {
    WriteRaw(*out, static_cast<uint64_t>(p));
    WriteBytes(*out, cells, pc * sizeof(float));
  });
  if (stats != nullptr) {
    stats->pages_total = table.num_pages();
    stats->pages_shipped = shipped;
  }
}

// The page records of a validated table section, left in place in the
// payload: `count` records of (u64 page index, page cells), `record_bytes`
// each.
struct PageRecords {
  std::string_view bytes;
  uint64_t count = 0;
  size_t record_bytes = 0;

  uint64_t index(uint64_t i) const {
    uint64_t p = 0;
    std::memcpy(&p, bytes.data() + i * record_bytes, sizeof(p));
    return p;
  }
  const char* cells(uint64_t i) const {
    return bytes.data() + i * record_bytes + sizeof(uint64_t);
  }
};

// Validates a table section against the receiver's live table without
// touching it: the page geometry must match exactly, and the records must
// fit the payload with strictly increasing in-range indices.
Status ReadPageRecords(SnapshotReader& in, const PagedTable& table, PageRecords* pages) {
  uint64_t cells = 0, num_pages = 0, shipped = 0;
  uint32_t page_cells = 0;
  if (!in.ReadRaw(&cells) || !in.ReadRaw(&page_cells) || !in.ReadRaw(&num_pages)) {
    return Status::Corruption("truncated delta table header");
  }
  if (cells != table.size()) return Status::Corruption("delta table size mismatch");
  // Page indices address the receiver's arena, so the page geometry must
  // match exactly — equal shapes pick equal page sizes (PickPageCells is
  // deterministic), making a mismatch corruption rather than a version skew.
  if (page_cells != table.page_cells()) {
    return Status::Corruption("delta page size mismatch");
  }
  if (num_pages != table.num_pages()) return Status::Corruption("delta page count mismatch");
  if (!in.ReadRaw(&shipped)) return Status::Corruption("truncated delta page header");
  if (shipped > num_pages) return Status::Corruption("delta ships more pages than exist");
  pages->count = shipped;
  pages->record_bytes = sizeof(uint64_t) + static_cast<size_t>(page_cells) * sizeof(float);
  if (!in.CanRead(shipped, pages->record_bytes) ||
      !in.ReadView(shipped * pages->record_bytes, &pages->bytes)) {
    return Status::Corruption("delta pages exceed stream size");
  }
  for (uint64_t i = 0; i < shipped; ++i) {
    const uint64_t p = pages->index(i);
    if (p >= num_pages) return Status::Corruption("delta page index out of range");
    if (i > 0 && p <= pages->index(i - 1)) {
      return Status::Corruption("delta page indices not strictly increasing");
    }
  }
  return Status::OK();
}

// Copies validated records straight from the payload into the live arena.
// The arena is padded to a whole number of pages, so a full-page copy at any
// valid index is in bounds (pad cells are zero on both ends and stay zero).
void CommitPageRecords(const PageRecords& pages, PagedTable* table) {
  const size_t pc = table->page_cells();
  for (uint64_t i = 0; i < pages.count; ++i) {
    const size_t offset = static_cast<size_t>(pages.index(i)) * pc;
    std::memcpy(table->data() + offset, pages.cells(i), pc * sizeof(float));
    table->MarkDirtyOffset(offset);
  }
}

Status CheckDeltaHeader(SnapshotReader& in, Method expected) {
  uint32_t magic = 0;
  uint8_t tag = 0;
  if (!in.ReadRaw(&magic)) return Status::Corruption("truncated delta header");
  if (magic != kDeltaMagic) return Status::Corruption("not a delta payload");
  if (!in.ReadRaw(&tag)) return Status::Corruption("truncated delta header");
  if (tag != static_cast<uint8_t>(expected)) {
    return Status::Corruption("delta method tag mismatch (" + TagName(tag) + " vs " +
                              MethodName(expected) + ")");
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- identity

Result<MergeIdentity> MergeIdentityOf(Method method, const BudgetedClassifier& impl) {
  MergeIdentity id;
  id.method_tag = static_cast<uint8_t>(method);
  const LearnerOptions& opts = impl.options();
  id.seed = opts.seed;
  id.rate_kind = static_cast<uint8_t>(opts.rate.kind());
  id.eta0 = opts.rate.eta0();
  id.lambda = opts.lambda;
  switch (method) {
    case Method::kWmSketch: {
      const WmSketchConfig& c = static_cast<const WmSketch&>(impl).config();
      id.width = c.width;
      id.depth = c.depth;
      id.heap_capacity = c.heap_capacity;
      return id;
    }
    case Method::kAwmSketch: {
      const AwmSketchConfig& c = static_cast<const AwmSketch&>(impl).config();
      id.width = c.width;
      id.depth = c.depth;
      id.heap_capacity = c.heap_capacity;
      return id;
    }
    default:
      return Status::Unimplemented(MethodName(method) +
                                   " has no exact merge; distributed sync supports the "
                                   "linear sketches (wm, awm) only");
  }
}

Status CheckIdentityCompatible(const MergeIdentity& mine, const MergeIdentity& theirs) {
  if (mine.method_tag != theirs.method_tag) {
    return Status::InvalidArgument("distributed merge: method mismatch (" +
                                   TagName(mine.method_tag) + " vs " +
                                   TagName(theirs.method_tag) + ")");
  }
  const std::string kind = TagName(mine.method_tag);
  WMS_RETURN_NOT_OK(CheckMergeCompatible(kind, SketchShape{mine.width, mine.depth, mine.seed},
                                         SketchShape{theirs.width, theirs.depth, theirs.seed}));
  const bool awm = mine.method_tag == static_cast<uint8_t>(Method::kAwmSketch);
  WMS_RETURN_NOT_OK(CheckCapacityCompatible(kind,
                                            awm ? "active-set capacity" : "heap capacity",
                                            mine.heap_capacity, theirs.heap_capacity));
  if (mine.rate_kind != theirs.rate_kind || mine.eta0 != theirs.eta0) {
    return Status::InvalidArgument(
        kind + " merge: learning-rate schedule mismatch; workers must share the "
               "schedule (kind and eta0) for their updates to compose");
  }
  if (mine.lambda != theirs.lambda) {
    return Status::InvalidArgument(kind + " merge: lambda mismatch (" +
                                   std::to_string(mine.lambda) + " vs " +
                                   std::to_string(theirs.lambda) + ")");
  }
  return Status::OK();
}

void EncodeMergeIdentity(const MergeIdentity& id, std::string* out) {
  // Field by field — the struct has padding that must not leak to the wire.
  WriteRaw(*out, id.method_tag);
  WriteRaw(*out, id.width);
  WriteRaw(*out, id.depth);
  WriteRaw(*out, id.heap_capacity);
  WriteRaw(*out, id.seed);
  WriteRaw(*out, id.rate_kind);
  WriteRaw(*out, id.eta0);
  WriteRaw(*out, id.lambda);
}

Result<MergeIdentity> DecodeMergeIdentity(SnapshotReader& in) {
  MergeIdentity id;
  if (!in.ReadRaw(&id.method_tag) || !in.ReadRaw(&id.width) || !in.ReadRaw(&id.depth) ||
      !in.ReadRaw(&id.heap_capacity) || !in.ReadRaw(&id.seed) ||
      !in.ReadRaw(&id.rate_kind) || !in.ReadRaw(&id.eta0) || !in.ReadRaw(&id.lambda)) {
    return Status::Corruption("truncated merge identity");
  }
  if (id.method_tag != static_cast<uint8_t>(Method::kWmSketch) &&
      id.method_tag != static_cast<uint8_t>(Method::kAwmSketch)) {
    return Status::Corruption("merge identity has unknown method tag");
  }
  if (id.rate_kind > static_cast<uint8_t>(LearningRate::Kind::kInverse)) {
    return Status::Corruption("merge identity has unknown learning-rate kind");
  }
  return id;
}

// ------------------------------------------------------------- dispatch

Result<uint64_t> BeginDeltaWindow(Method method, BudgetedClassifier& impl) {
  switch (method) {
    case Method::kWmSketch:
      return detail::BeginWmDeltaWindow(static_cast<WmSketch&>(impl));
    case Method::kAwmSketch:
      return detail::BeginAwmDeltaWindow(static_cast<AwmSketch&>(impl));
    default:
      return Status::Unimplemented(MethodName(method) + " does not support delta sync");
  }
}

Status SaveDelta(Method method, const BudgetedClassifier& impl, uint64_t since,
                 std::string* out, DeltaStats* stats) {
  switch (method) {
    case Method::kWmSketch:
      detail::SaveWmSketchDelta(static_cast<const WmSketch&>(impl), since, out, stats);
      return Status::OK();
    case Method::kAwmSketch:
      detail::SaveAwmSketchDelta(static_cast<const AwmSketch&>(impl), since, out, stats);
      return Status::OK();
    default:
      return Status::Unimplemented(MethodName(method) + " does not support delta sync");
  }
}

Status ApplyDelta(Method method, BudgetedClassifier& impl, std::string_view payload) {
  SnapshotReader in(payload);
  switch (method) {
    case Method::kWmSketch:
      return detail::ApplyWmSketchDelta(static_cast<WmSketch&>(impl), in);
    case Method::kAwmSketch:
      return detail::ApplyAwmSketchDelta(static_cast<AwmSketch&>(impl), in);
    default:
      return Status::Unimplemented(MethodName(method) + " does not support delta sync");
  }
}

namespace detail {

// ------------------------------------------------------------ WM-Sketch

uint64_t BeginWmDeltaWindow(WmSketch& sketch) { return sketch.table_.BeginDeltaWindow(); }

void SaveWmSketchDelta(const WmSketch& sketch, uint64_t since, std::string* out,
                       DeltaStats* stats) {
  WriteRaw(*out, kDeltaMagic);
  WriteRaw(*out, static_cast<uint8_t>(Method::kWmSketch));
  WriteRaw(*out, sketch.t_);
  WriteRaw(*out, sketch.scale_);
  // The heap ships in full: it is small (KBs) and its entries move between
  // sketch and heap on every update, so page-level diffing would buy nothing.
  WriteHeapEntries(*out, sketch.heap_);
  WriteDirtyPages(out, sketch.table_, since, stats);
}

Status ApplyWmSketchDelta(WmSketch& sketch, SnapshotReader& in) {
  WMS_RETURN_NOT_OK(CheckDeltaHeader(in, Method::kWmSketch));
  uint64_t t = 0;
  double scale = 0.0;
  if (!in.ReadRaw(&t) || !in.ReadRaw(&scale)) {
    return Status::Corruption("truncated delta state");
  }
  // Validate everything before touching the sketch: a Corruption anywhere
  // below leaves it byte-identical to its pre-call state.
  std::vector<FeatureWeight> heap;
  WMS_RETURN_NOT_OK(ReadHeapEntries(in, sketch.config_.heap_capacity, &heap));
  PageRecords pages;
  WMS_RETURN_NOT_OK(ReadPageRecords(in, sketch.table_, &pages));
  sketch.t_ = t;
  sketch.scale_ = scale;
  sketch.heap_.Assign(heap);
  CommitPageRecords(pages, &sketch.table_);
  return Status::OK();
}

// ----------------------------------------------------------- AWM-Sketch

uint64_t BeginAwmDeltaWindow(AwmSketch& sketch) { return sketch.table_.BeginDeltaWindow(); }

void SaveAwmSketchDelta(const AwmSketch& sketch, uint64_t since, std::string* out,
                        DeltaStats* stats) {
  WriteRaw(*out, kDeltaMagic);
  WriteRaw(*out, static_cast<uint8_t>(Method::kAwmSketch));
  WriteRaw(*out, sketch.t_);
  WriteRaw(*out, sketch.sketch_scale_);
  WriteRaw(*out, sketch.heap_scale_);
  WriteHeapEntries(*out, sketch.heap_);
  WriteDirtyPages(out, sketch.table_, since, stats);
}

Status ApplyAwmSketchDelta(AwmSketch& sketch, SnapshotReader& in) {
  WMS_RETURN_NOT_OK(CheckDeltaHeader(in, Method::kAwmSketch));
  uint64_t t = 0;
  double sketch_scale = 0.0, heap_scale = 0.0;
  if (!in.ReadRaw(&t) || !in.ReadRaw(&sketch_scale) || !in.ReadRaw(&heap_scale)) {
    return Status::Corruption("truncated delta state");
  }
  std::vector<FeatureWeight> heap;
  WMS_RETURN_NOT_OK(ReadHeapEntries(in, sketch.config_.heap_capacity, &heap));
  PageRecords pages;
  WMS_RETURN_NOT_OK(ReadPageRecords(in, sketch.table_, &pages));
  sketch.t_ = t;
  sketch.sketch_scale_ = sketch_scale;
  sketch.heap_scale_ = heap_scale;
  sketch.heap_.Assign(heap);
  CommitPageRecords(pages, &sketch.table_);
  return Status::OK();
}

}  // namespace detail

}  // namespace wmsketch
