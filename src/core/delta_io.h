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

/// Dirty-page delta serialization and the merge-compatibility handshake for
/// the distributed training tier (src/dist/).
///
/// The sketches are linear projections, so a worker's state composes into an
/// aggregator's replica *exactly* — and because every raw-cell mutation is
/// tagged in the copy-on-write paged table (util/paged_table.h, enforced by
/// the cow-dirty lint rule), "what changed since the last sync" is knowable
/// per page. A delta therefore ships the full scalar state (step count, lazy
/// scales, the heap/active set — all small) plus only the table pages written
/// since a BeginDeltaWindow watermark, as raw cell bytes. Applying a delta
/// overwrites those pages and scalars on a replica that matches the sender's
/// state as of the watermark, reproducing the sender's model byte-for-byte —
/// no arithmetic on floats, so byte-identity with a sequential reference is a
/// testable property, not an aspiration.
///
/// Only the mergeable methods (WM/AWM) participate; the non-linear baselines
/// return Unimplemented from every entry point.

/// Counters from one delta serialization (for the sync bench and the
/// worker's shipped-bytes accounting).
struct DeltaStats {
  uint64_t pages_total = 0;
  uint64_t pages_shipped = 0;
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

/// Opens a dirty-page delta window on a mergeable classifier and returns its
/// watermark (see BasicPagedTable::BeginDeltaWindow). Call once right after
/// construction — every later write is then tagged, so the first sync can
/// already be a delta against the deterministic freshly-constructed state —
/// and again at each sync to bound the next window.
Result<uint64_t> BeginDeltaWindow(Method method, BudgetedClassifier& impl);

/// Appends the delta payload of `impl` relative to watermark `since` to
/// `*out`: scalars + heap in full, table pages dirtied at-or-after `since`
/// as raw bytes. Appending lets the sync client write the payload once,
/// straight into the frame it sends. `stats` (optional) receives the page
/// counters.
Status SaveDelta(Method method, const BudgetedClassifier& impl, uint64_t since,
                 std::string* out, DeltaStats* stats);

/// Applies a delta payload to `impl` in place; `impl`'s unshipped state
/// must match the sender's as of the delta's watermark (the caller's sync
/// protocol guarantees this; see src/dist/). Validates the whole payload
/// before it writes anything: header and method tag, scalars, heap count
/// and duplicates, page geometry against `impl`, strictly increasing
/// in-range page indices, and every length against the payload. A
/// malformed payload therefore returns Corruption with `impl` untouched.
/// Pages are then copied straight from `payload` into the live table.
Status ApplyDelta(Method method, BudgetedClassifier& impl, std::string_view payload);

namespace detail {

// Per-method delta implementations (friends of the sketch classes, like the
// snapshot payload savers in core/serialization.h).

uint64_t BeginWmDeltaWindow(WmSketch& sketch);
void SaveWmSketchDelta(const WmSketch& sketch, uint64_t since, std::string* out,
                       DeltaStats* stats);
Status ApplyWmSketchDelta(WmSketch& sketch, snapshot::SnapshotReader& in);

uint64_t BeginAwmDeltaWindow(AwmSketch& sketch);
void SaveAwmSketchDelta(const AwmSketch& sketch, uint64_t since, std::string* out,
                        DeltaStats* stats);
Status ApplyAwmSketchDelta(AwmSketch& sketch, snapshot::SnapshotReader& in);

}  // namespace detail

}  // namespace wmsketch
