#include "core/delta_io.h"

#include <bit>
#include <cstring>
#include <string>

#include "core/awm_sketch.h"
#include "core/serialization.h"
#include "core/snapshot_io.h"
#include "core/wm_sketch.h"
#include "sketch/merge_compat.h"

namespace wmsketch {

namespace {

using snapshot::SnapshotReader;
using snapshot::WriteRaw;

// Delta payload magic; the payload rides inside a v3 envelope like every
// other snapshot stream, so it is length- and CRC-validated before parsing.
constexpr uint32_t kDeltaMagic = 0x32444d57;  // "WMD2"

// One table record: u32 absolute cell offset (HashPlan's offsets are u32
// too), then the cell's raw bits.
constexpr size_t kCellRecordBytes = sizeof(uint32_t) + sizeof(float);

std::string TagName(uint8_t tag) {
  if (tag > static_cast<uint8_t>(Method::kAwmSketch)) {
    return "method#" + std::to_string(tag);
  }
  return MethodName(static_cast<Method>(tag));
}

// Table section: u64 cell count, u64 record count, then one record per cell
// written since the table's delta window opened, in strictly increasing
// offset order. Raw bits — no float arithmetic on either end — so applying
// onto a replica that matches the sender as of the window reproduces the
// sender byte-for-byte. One walk over the written words writes the records,
// a chunk at a time; the count is patched in after it.
void WriteWrittenCells(std::string* out, const PagedTable& table, DeltaStats* stats) {
  WriteRaw(*out, static_cast<uint64_t>(table.size()));
  const size_t count_at = out->size();
  WriteRaw(*out, uint64_t{0});
  const float* cells = table.data();
  snapshot::PairWriter<std::string> records(*out);
  static_assert(snapshot::PairWriter<std::string>::kBurst >= 64, "a word holds 64 cells");
  table.ForEachWrittenWord([&](size_t w, uint64_t bits) {
    const uint32_t base = static_cast<uint32_t>(w * 64);
    for (; bits != 0; bits &= bits - 1) {
      const uint32_t off = base + static_cast<uint32_t>(std::countr_zero(bits));
      records.Put(off, cells[off]);
    }
    records.Drain();
  });
  records.Flush();
  const uint64_t count = (out->size() - count_at - sizeof(uint64_t)) / kCellRecordBytes;
  std::memcpy(out->data() + count_at, &count, sizeof(count));
  if (stats != nullptr) {
    stats->pages_total = table.num_pages();
    stats->pages_shipped = table.WrittenPages();
    stats->cells_shipped = count;
  }
}

// A delta is relative to the table's open window; without one there is no
// record of what was written, and an empty delta would silently desync the
// replica.
Status CheckWindowOpen(const PagedTable& table) {
  if (table.recording()) return Status::OK();
  return Status::FailedPrecondition("no delta window is open on this model");
}

// The cell records of a validated table section, left in place in the
// payload.
struct CellRecords {
  std::string_view bytes;
  uint64_t count = 0;

  // Record i as one little-endian word: the offset in the low half, the
  // cell's bits in the high half.
  uint64_t record(uint64_t i) const {
    uint64_t r = 0;
    std::memcpy(&r, bytes.data() + i * kCellRecordBytes, sizeof(r));
    return r;
  }
  uint32_t offset(uint64_t i) const { return static_cast<uint32_t>(record(i)); }
};

// Validates a table section against the receiver's live table without
// touching it: the cell count must match, and the records must fit the
// payload with strictly increasing in-range offsets.
Status ReadCellRecords(SnapshotReader& in, const PagedTable& table, CellRecords* cells) {
  uint64_t total = 0, count = 0;
  if (!in.ReadRaw(&total) || !in.ReadRaw(&count)) {
    return Status::Corruption("truncated delta table header");
  }
  if (total != table.size()) return Status::Corruption("delta table size mismatch");
  if (count > total) return Status::Corruption("delta ships more cells than exist");
  if (!in.CanRead(count, kCellRecordBytes) ||
      !in.ReadView(count * kCellRecordBytes, &cells->bytes)) {
    return Status::Corruption("delta cells exceed stream size");
  }
  cells->count = count;
  // Strictly increasing offsets are in range when the last one is, so one
  // branch-free pass checks the order and one comparison the range.
  uint64_t descents = 0;
  for (uint64_t i = 1; i < count; ++i) descents += cells->offset(i) <= cells->offset(i - 1);
  if (descents != 0) return Status::Corruption("delta cell offsets not strictly increasing");
  if (count > 0 && cells->offset(count - 1) >= total) {
    return Status::Corruption("delta cell offset out of range");
  }
  if (in.remaining() != 0) return Status::Corruption("trailing bytes after delta");
  return Status::OK();
}

// Copies validated records straight from the payload into the live arena.
void CommitCellRecords(const CellRecords& cells, PagedTable* table) {
  float* const data = table->data();
  for (uint64_t i = 0; i < cells.count; ++i) {
    const uint64_t record = cells.record(i);
    const uint32_t off = static_cast<uint32_t>(record);
    data[off] = std::bit_cast<float>(static_cast<uint32_t>(record >> 32));
    table->MarkDirtyOffset(off);
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

Status BeginDeltaWindow(Method method, BudgetedClassifier& impl) {
  switch (method) {
    case Method::kWmSketch:
      detail::BeginWmDeltaWindow(static_cast<WmSketch&>(impl));
      return Status::OK();
    case Method::kAwmSketch:
      detail::BeginAwmDeltaWindow(static_cast<AwmSketch&>(impl));
      return Status::OK();
    default:
      return Status::Unimplemented(MethodName(method) + " does not support delta sync");
  }
}

Status SaveDelta(Method method, const BudgetedClassifier& impl, std::string* out,
                 DeltaStats* stats) {
  switch (method) {
    case Method::kWmSketch:
      return detail::SaveWmSketchDelta(static_cast<const WmSketch&>(impl), out, stats);
    case Method::kAwmSketch:
      return detail::SaveAwmSketchDelta(static_cast<const AwmSketch&>(impl), out, stats);
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

void BeginWmDeltaWindow(WmSketch& sketch) { sketch.table_.BeginDeltaWindow(); }

Status SaveWmSketchDelta(const WmSketch& sketch, std::string* out, DeltaStats* stats) {
  WMS_RETURN_NOT_OK(CheckWindowOpen(sketch.table_));
  WriteRaw(*out, kDeltaMagic);
  WriteRaw(*out, static_cast<uint8_t>(Method::kWmSketch));
  WriteRaw(*out, sketch.t_);
  WriteRaw(*out, sketch.scale_);
  // The heap ships in full: it is small (KBs) and its entries move between
  // sketch and heap on every update, so diffing it would buy nothing.
  WriteHeapEntries(*out, sketch.heap_);
  WriteWrittenCells(out, sketch.table_, stats);
  return Status::OK();
}

Status ApplyWmSketchDelta(WmSketch& sketch, SnapshotReader& in) {
  WMS_RETURN_NOT_OK(CheckDeltaHeader(in, Method::kWmSketch));
  uint64_t t = 0;
  double scale = 0.0;
  if (!in.ReadRaw(&t) || !in.ReadRaw(&scale)) {
    return Status::Corruption("truncated delta state");
  }
  // Validate everything before touching the sketch: a Corruption anywhere
  // below leaves it byte-identical to its pre-call state. The heap section's
  // repeated-feature check is the last, made as it commits.
  HeapSection heap;
  WMS_RETURN_NOT_OK(ReadHeapSection(in, sketch.config_.heap_capacity, &heap));
  CellRecords cells;
  WMS_RETURN_NOT_OK(ReadCellRecords(in, sketch.table_, &cells));
  WMS_RETURN_NOT_OK(AssignHeapSection(heap, sketch.heap_));
  sketch.t_ = t;
  sketch.scale_ = scale;
  CommitCellRecords(cells, &sketch.table_);
  return Status::OK();
}

// ----------------------------------------------------------- AWM-Sketch

void BeginAwmDeltaWindow(AwmSketch& sketch) { sketch.table_.BeginDeltaWindow(); }

Status SaveAwmSketchDelta(const AwmSketch& sketch, std::string* out, DeltaStats* stats) {
  WMS_RETURN_NOT_OK(CheckWindowOpen(sketch.table_));
  WriteRaw(*out, kDeltaMagic);
  WriteRaw(*out, static_cast<uint8_t>(Method::kAwmSketch));
  WriteRaw(*out, sketch.t_);
  WriteRaw(*out, sketch.sketch_scale_);
  WriteRaw(*out, sketch.heap_scale_);
  WriteHeapEntries(*out, sketch.heap_);
  WriteWrittenCells(out, sketch.table_, stats);
  return Status::OK();
}

Status ApplyAwmSketchDelta(AwmSketch& sketch, SnapshotReader& in) {
  WMS_RETURN_NOT_OK(CheckDeltaHeader(in, Method::kAwmSketch));
  uint64_t t = 0;
  double sketch_scale = 0.0, heap_scale = 0.0;
  if (!in.ReadRaw(&t) || !in.ReadRaw(&sketch_scale) || !in.ReadRaw(&heap_scale)) {
    return Status::Corruption("truncated delta state");
  }
  HeapSection heap;
  WMS_RETURN_NOT_OK(ReadHeapSection(in, sketch.config_.heap_capacity, &heap));
  CellRecords cells;
  WMS_RETURN_NOT_OK(ReadCellRecords(in, sketch.table_, &cells));
  WMS_RETURN_NOT_OK(AssignHeapSection(heap, sketch.heap_));
  sketch.t_ = t;
  sketch.sketch_scale_ = sketch_scale;
  sketch.heap_scale_ = heap_scale;
  CommitCellRecords(cells, &sketch.table_);
  return Status::OK();
}

}  // namespace detail

}  // namespace wmsketch
