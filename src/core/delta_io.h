#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/budget.h"
#include "linear/classifier.h"
#include "util/status.h"

namespace wmsketch {

class AwmSketch;
class WmSketch;
namespace snapshot {
class SnapshotReader;
}

/// Written-cell delta serialization and the merge-compatibility handshake for
/// the distributed training tier (src/dist/).
///
/// The sketches are linear projections, so a worker's state composes into an
/// aggregator's replica *exactly* — and because every raw-cell mutation
/// names its cell to the copy-on-write paged table (util/paged_table.h,
/// enforced by the cow-dirty lint rule), the table can record "what changed
/// since the last sync" per cell. A delta therefore ships the full scalar
/// state (step count, lazy scales, the heap/active set — all small) plus
/// only the table cells written since BeginDeltaWindow, as raw cell bits.
/// Applying a delta overwrites those cells and scalars on a replica that
/// matches the sender's state as of the window's opening, reproducing the
/// sender's model byte-for-byte — no arithmetic on floats, so byte-identity
/// with a sequential reference is a testable property, not an aspiration.
///
/// WMD2 payload layout (little-endian):
///   u32 magic "WMD2", u8 method tag, u64 step count, f64 scale (WM) or
///   f64 sketch scale + f64 active-set scale (AWM);
///   heap: u64 count, then (u32 feature, f32 weight) in heap-array order;
///   table: u64 cell count, u64 record count, then (u32 offset, u32 raw
///   cell bits) records in strictly increasing offset order.
///
/// Only the mergeable methods (WM/AWM) participate; the non-linear baselines
/// return Unimplemented from every entry point.

/// Counters from one delta serialization (for the sync bench and the
/// worker's shipped-bytes accounting).
struct DeltaStats {
  uint64_t pages_total = 0;
  /// Pages holding at least one shipped cell.
  uint64_t pages_shipped = 0;
  uint64_t cells_shipped = 0;
};

/// The structural identity a worker presents in its handshake: everything
/// that must match for its updates to compose exactly into the aggregator's
/// replica — method, table shape, seed (hash rows), tracked-set capacity,
/// learning-rate schedule (kind + η0, the schedule exponent identity), and λ.
struct MergeIdentity {
  uint8_t method_tag = 0;
  uint32_t width = 0;
  uint32_t depth = 0;
  uint64_t heap_capacity = 0;
  uint64_t seed = 0;
  uint8_t rate_kind = 0;  ///< LearningRate::Kind of the schedule
  double eta0 = 0.0;
  double lambda = 0.0;

  bool operator==(const MergeIdentity&) const = default;
};

/// The merge identity of a classifier. Unimplemented for methods without
/// merge semantics (everything but WM/AWM).
Result<MergeIdentity> MergeIdentityOf(Method method, const BudgetedClassifier& impl);

/// OK iff a learner with identity `theirs` can sync into an aggregator with
/// identity `mine`; otherwise InvalidArgument naming the first mismatching
/// dimension (reusing sketch/merge_compat.h for the shape checks).
Status CheckIdentityCompatible(const MergeIdentity& mine, const MergeIdentity& theirs);

/// Appends an identity to `*out` (fixed-size little-endian section).
void EncodeMergeIdentity(const MergeIdentity& id, std::string* out);
/// Parses an identity section; Corruption on truncation or an unknown tag.
Result<MergeIdentity> DecodeMergeIdentity(snapshot::SnapshotReader& in);

/// Opens a delta window on a mergeable classifier: clears its table's
/// written-cell record and starts recording (see
/// BasicPagedTable::BeginDeltaWindow). The sync client calls it after each
/// acknowledged sync, so the next delta carries exactly the cells written
/// since the aggregator's replica last matched the model.
Status BeginDeltaWindow(Method method, BudgetedClassifier& impl);

/// Appends the WMD2 delta payload of `impl` to `*out`: scalars + heap in
/// full, and the table cells written since the last BeginDeltaWindow as raw
/// bits. Appending lets the sync client write the payload once, straight
/// into the frame it sends; the walk visits only the record words the
/// window wrote, and nothing is allocated when `*out` has the capacity. `stats` (optional) receives the page and cell
/// counters. FailedPrecondition, with nothing appended, when no window was
/// ever opened on `impl`.
Status SaveDelta(Method method, const BudgetedClassifier& impl, std::string* out,
                 DeltaStats* stats);

/// Applies a delta payload to `impl` in place; `impl` must match the
/// sender's state as of the delta's window opening (the caller's sync
/// protocol guarantees this; see src/dist/). Validates the whole payload
/// before it writes anything: header and method tag, scalars, heap count,
/// the cell count against `impl`, the record count against the cell count
/// and the payload, strictly increasing in-range offsets, no trailing
/// bytes, and last no repeated heap feature. A malformed payload therefore
/// returns Corruption with `impl` untouched. Heap entries and cells are then
/// copied straight from `payload` into the live heap and table, touching
/// the heap's index only where a slot's feature changed. Once `impl`'s heap
/// has held as many entries as the delta's, nothing is allocated.
Status ApplyDelta(Method method, BudgetedClassifier& impl, std::string_view payload);

namespace detail {

// Per-method delta implementations (friends of the sketch classes, like the
// snapshot payload savers in core/serialization.h).

void BeginWmDeltaWindow(WmSketch& sketch);
Status SaveWmSketchDelta(const WmSketch& sketch, std::string* out, DeltaStats* stats);
Status ApplyWmSketchDelta(WmSketch& sketch, snapshot::SnapshotReader& in);

void BeginAwmDeltaWindow(AwmSketch& sketch);
Status SaveAwmSketchDelta(const AwmSketch& sketch, std::string* out, DeltaStats* stats);
Status ApplyAwmSketchDelta(AwmSketch& sketch, snapshot::SnapshotReader& in);

}  // namespace detail

}  // namespace wmsketch
