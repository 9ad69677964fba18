#include "core/delta_io.h"

#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <string>

#include "core/linear_sketch.h"
#include "core/serialization.h"
#include "core/snapshot_io.h"

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

// The methods whose models are LinearSketches, hence mergeable and synced by
// delta; every other method gets Unimplemented.
bool IsLinearSketch(Method method) {
  return method == Method::kWmSketch || method == Method::kAwmSketch;
}

Status NoDeltaSync(Method method) {
  return Status::Unimplemented(MethodName(method) + " does not support delta sync");
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
  if (!IsLinearSketch(method)) {
    return Status::Unimplemented(MethodName(method) +
                                 " has no exact merge; distributed sync supports the "
                                 "linear sketches (wm, awm) only");
  }
  const LinearSketchConfig& shape = static_cast<const LinearSketch&>(impl).config();
  id.width = shape.width;
  id.depth = shape.depth;
  id.heap_capacity = shape.heap_capacity;
  return id;
}

Status CheckIdentityCompatible(const MergeIdentity& mine, const MergeIdentity& theirs) {
  if (mine.method_tag != theirs.method_tag) {
    return Status::InvalidArgument("distributed merge: method mismatch (" +
                                   TagName(mine.method_tag) + " vs " +
                                   TagName(theirs.method_tag) + ")");
  }
  const std::string kind = TagName(mine.method_tag);
  const LinearSketchConfig a{mine.width, mine.depth, mine.heap_capacity};
  const LinearSketchConfig b{theirs.width, theirs.depth, theirs.heap_capacity};
  WMS_RETURN_NOT_OK(
      CheckSummable(static_cast<Method>(mine.method_tag), a, mine.seed, b, theirs.seed));
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

// ------------------------------------------------------------- the delta

// One WMD2 codec for both sketches: the method tag and the lazy-scale list
// (WM: α; AWM: α of the tail sketch, then α of the active set) are its only
// per-method inputs.

Status BeginDeltaWindow(Method method, BudgetedClassifier& impl) {
  if (!IsLinearSketch(method)) return NoDeltaSync(method);
  static_cast<LinearSketch&>(impl).table_.BeginDeltaWindow();
  return Status::OK();
}

Status SaveDelta(Method method, const BudgetedClassifier& impl, std::string* out,
                 DeltaStats* stats) {
  if (!IsLinearSketch(method)) return NoDeltaSync(method);
  const auto& sketch = static_cast<const LinearSketch&>(impl);
  WMS_RETURN_NOT_OK(CheckWindowOpen(sketch.table_));
  WriteRaw(*out, kDeltaMagic);
  WriteRaw(*out, static_cast<uint8_t>(method));
  WriteRaw(*out, sketch.t_);
  for (const double scale : sketch.lazy_scales()) WriteRaw(*out, scale);
  // The heap ships in full: it is small (KBs) and its entries move between
  // sketch and heap on every update, so diffing it would buy nothing.
  detail::WriteHeapEntries(*out, sketch.heap_);
  WriteWrittenCells(out, sketch.table_, stats);
  return Status::OK();
}

Status ApplyDelta(Method method, BudgetedClassifier& impl, std::string_view payload) {
  if (!IsLinearSketch(method)) return NoDeltaSync(method);
  auto& sketch = static_cast<LinearSketch&>(impl);
  SnapshotReader in(payload);
  WMS_RETURN_NOT_OK(CheckDeltaHeader(in, method));
  uint64_t t = 0;
  std::array<double, 2> scales = sketch.scales_;
  bool complete = in.ReadRaw(&t);
  for (double& scale : std::span(scales).first(sketch.num_scales_)) {
    complete = complete && in.ReadRaw(&scale);
  }
  if (!complete) return Status::Corruption("truncated delta state");
  // Validate everything before touching the sketch: a Corruption anywhere
  // below leaves it byte-identical to its pre-call state. The heap section's
  // repeated-feature check is the last, made as it commits.
  detail::HeapSection heap;
  WMS_RETURN_NOT_OK(detail::ReadHeapSection(in, sketch.config_.heap_capacity, &heap));
  CellRecords cells;
  WMS_RETURN_NOT_OK(ReadCellRecords(in, sketch.table_, &cells));
  WMS_RETURN_NOT_OK(detail::AssignHeapSection(heap, sketch.heap_));
  sketch.t_ = t;
  sketch.scales_ = scales;
  CommitCellRecords(cells, &sketch.table_);
  return Status::OK();
}

}  // namespace wmsketch
