#pragma once

#include <cstring>
#include <iosfwd>
#include <string_view>

#include "core/awm_sketch.h"
#include "core/frequent_features.h"
#include "core/snapshot_io.h"
#include "core/truncation.h"
#include "core/wm_sketch.h"
#include "linear/feature_hashing.h"
#include "util/status.h"

namespace wmsketch {

/// Binary snapshot payloads for every method.
///
/// A deployed sketch must survive process restarts and be shippable from an
/// edge device to an aggregation point. Hash functions are derived
/// deterministically from the stored seed, so a payload is just: method
/// magic, configuration, learner scalars (λ, seed, step count), the raw
/// table(s) with their lazy scales, and the active-set/heap entries.
///
/// The payloads have one public format: SaveLearner/SaveClassifier and
/// LoadLearner (src/api/learner.h) put a facade header with the method tag
/// in front of a payload and wrap both in the checksummed envelope of
/// core/snapshot_io.h (magic, version, payload length, CRC32C), so a
/// truncated or bit-flipped snapshot is detected before any state is
/// parsed. Every declared size is still validated against the remaining
/// payload bytes *before* the corresponding allocation.
///
/// The loss function is *not* serialized (it may be an arbitrary user type);
/// the caller supplies LearnerOptions whose loss/rate are used for the
/// restored model, while λ and seed are restored from the snapshot and
/// override the passed values. Snapshots are independent of host endianness
/// only across same-endian machines (little-endian assumed, as on all
/// supported targets). ProbabilisticTruncation's reservoir RNG is re-derived
/// from the restored seed rather than resumed mid-sequence, so post-restore
/// *evictions* draw a fresh random stream; all weights, keys, and
/// predictions round-trip exactly.

namespace detail {

/// Payload-level savers/loaders: the raw per-method stream (method magic
/// included) with no envelope. SaveClassifier composes these under a single
/// facade header + envelope so the checksum covers the whole stream exactly
/// once.

Status SaveWmSketchPayload(const WmSketch& sketch, std::ostream& out);
Result<WmSketch> LoadWmSketchPayload(snapshot::SnapshotReader& in,
                                     const LearnerOptions& opts);

Status SaveAwmSketchPayload(const AwmSketch& sketch, std::ostream& out);
Result<AwmSketch> LoadAwmSketchPayload(snapshot::SnapshotReader& in,
                                       const LearnerOptions& opts);

Status SaveSimpleTruncationPayload(const SimpleTruncation& model, std::ostream& out);
Result<SimpleTruncation> LoadSimpleTruncationPayload(snapshot::SnapshotReader& in,
                                                     const LearnerOptions& opts);

Status SaveProbabilisticTruncationPayload(const ProbabilisticTruncation& model,
                                          std::ostream& out);
Result<ProbabilisticTruncation> LoadProbabilisticTruncationPayload(
    snapshot::SnapshotReader& in, const LearnerOptions& opts);

Status SaveSpaceSavingFrequentPayload(const SpaceSavingFrequent& model, std::ostream& out);
Result<SpaceSavingFrequent> LoadSpaceSavingFrequentPayload(snapshot::SnapshotReader& in,
                                                           const LearnerOptions& opts);

Status SaveCountMinFrequentPayload(const CountMinFrequent& model, std::ostream& out);
Result<CountMinFrequent> LoadCountMinFrequentPayload(snapshot::SnapshotReader& in,
                                                     const LearnerOptions& opts);

Status SaveFeatureHashingPayload(const FeatureHashingClassifier& model, std::ostream& out);
Result<FeatureHashingClassifier> LoadFeatureHashingPayload(snapshot::SnapshotReader& in,
                                                           const LearnerOptions& opts);

/// The heap/active-set section that snapshots and deltas (core/delta_io.h)
/// share: a u64 count, then (u32 feature, f32 weight) pairs in heap-array
/// order. `Sink` is a std::ostream or a std::string (snapshot_io writers).
template <typename Sink>
void WriteHeapEntries(Sink& out, const TopKHeap& heap) {
  snapshot::WriteRaw(out, static_cast<uint64_t>(heap.size()));
  snapshot::PairWriter<Sink> pairs(out);
  heap.ForEachEntry([&pairs](uint32_t feature, float weight) {
    pairs.Put(feature, weight);
    pairs.Drain();
  });
  pairs.Flush();
}

/// A heap section whose count has been checked, its entries left in place
/// in the stream they were read from.
struct HeapSection {
  std::string_view entries;  ///< the (u32 feature, f32 weight) pairs

  size_t size() const { return entries.size() / sizeof(FeatureWeight); }
  FeatureWeight operator[](size_t i) const {
    FeatureWeight fw;
    std::memcpy(&fw, entries.data() + i * sizeof(FeatureWeight), sizeof(fw));
    return fw;
  }
};

/// Reads a heap section's count and points `*section` at its entries, with
/// no copy: Corruption when it is truncated or holds more than `capacity`
/// entries.
Status ReadHeapSection(snapshot::SnapshotReader& in, size_t capacity, HeapSection* section);

/// Commits a section read by ReadHeapSection to `heap` (whose capacity bound
/// the read), reproducing the writer's heap array. Corruption, with `heap`
/// untouched, when the section names a feature twice.
Status AssignHeapSection(const HeapSection& section, TopKHeap& heap);

}  // namespace detail

}  // namespace wmsketch
