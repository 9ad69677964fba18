#pragma once

#include <iosfwd>

#include "core/awm_sketch.h"
#include "core/frequent_features.h"
#include "core/snapshot_io.h"
#include "core/truncation.h"
#include "core/wm_sketch.h"
#include "linear/feature_hashing.h"
#include "util/status.h"

namespace wmsketch {

/// Binary snapshot serialization for the sketched classifiers.
///
/// A deployed sketch must survive process restarts and be shippable from an
/// edge device to an aggregation point, so both sketches support compact
/// binary snapshots. Hash functions are derived deterministically from the
/// stored seed, so a snapshot is just: header, configuration, learner
/// scalars (λ, schedule, seed, step count), the raw table(s) with their lazy
/// scales, and the active-set/heap entries.
///
/// Every Save* stream is wrapped in the checksummed envelope of
/// core/snapshot_io.h (magic, version, payload length, CRC32C), so a
/// truncated or bit-flipped snapshot is detected before any state is
/// parsed. Load* sniffs the leading magic and still accepts the v1/v2
/// unwrapped streams written before the envelope existed; either way every
/// declared size is validated against the remaining stream bytes *before*
/// the corresponding allocation.
///
/// The loss function is *not* serialized (it may be an arbitrary user type);
/// the caller supplies LearnerOptions whose loss/rate are used for the
/// restored model, while λ and seed are restored from the snapshot and
/// override the passed values. Snapshots are independent of host endianness
/// only across same-endian machines (little-endian assumed, as on all
/// supported targets).

/// Writes a snapshot of `sketch` to `out`. Returns IOError on stream failure.
Status SaveWmSketch(const WmSketch& sketch, std::ostream& out);

/// Restores a WM-Sketch from `in`. `opts.loss` and `opts.rate` are adopted;
/// λ, seed, and all state come from the snapshot. Returns Corruption for
/// malformed input.
Result<WmSketch> LoadWmSketch(std::istream& in, const LearnerOptions& opts);

/// Writes a snapshot of `sketch` to `out`.
Status SaveAwmSketch(const AwmSketch& sketch, std::ostream& out);

/// Restores an AWM-Sketch from `in` (conventions as LoadWmSketch).
Result<AwmSketch> LoadAwmSketch(std::istream& in, const LearnerOptions& opts);

/// Snapshots for the Sec. 7 baseline classifiers, with the same conventions
/// as the sketches: λ and seed are restored from the snapshot; loss and
/// learning-rate schedule come from the caller's options. These exist so the
/// facade-level SaveLearner/LoadLearner (src/api/learner.h) covers *every*
/// Method, not just the sketches.

Status SaveSimpleTruncation(const SimpleTruncation& model, std::ostream& out);
Result<SimpleTruncation> LoadSimpleTruncation(std::istream& in, const LearnerOptions& opts);

/// Note: the reservoir RNG is re-derived from the restored seed rather than
/// resumed mid-sequence, so post-restore *evictions* draw a fresh random
/// stream; all weights, keys, and predictions round-trip exactly.
Status SaveProbabilisticTruncation(const ProbabilisticTruncation& model, std::ostream& out);
Result<ProbabilisticTruncation> LoadProbabilisticTruncation(std::istream& in,
                                                            const LearnerOptions& opts);

Status SaveSpaceSavingFrequent(const SpaceSavingFrequent& model, std::ostream& out);
Result<SpaceSavingFrequent> LoadSpaceSavingFrequent(std::istream& in,
                                                    const LearnerOptions& opts);

Status SaveCountMinFrequent(const CountMinFrequent& model, std::ostream& out);
Result<CountMinFrequent> LoadCountMinFrequent(std::istream& in, const LearnerOptions& opts);

Status SaveFeatureHashing(const FeatureHashingClassifier& model, std::ostream& out);
Result<FeatureHashingClassifier> LoadFeatureHashing(std::istream& in,
                                                    const LearnerOptions& opts);

namespace detail {

/// Payload-level savers/loaders: the raw per-method stream (method magic
/// included) with no envelope. SaveLearner composes these under a single
/// facade header + envelope so the checksum covers the whole stream exactly
/// once; the public per-method Save*/Load* wrap/unwrap the same payloads.
/// Loaders accept both the v1 flat and v2 paged table layouts.

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
  heap.ForEachEntry([&out](uint32_t feature, float weight) {
    snapshot::WriteRaw(out, feature);
    snapshot::WriteRaw(out, weight);
  });
}

/// Reads a heap section into `*entries`, in stream order, and validates it
/// without touching any heap: Corruption when it is truncated, holds more
/// than `capacity` entries, or names a feature twice. TopKHeap::Assign then
/// commits it, reproducing the writer's heap array.
Status ReadHeapEntries(snapshot::SnapshotReader& in, size_t capacity,
                       std::vector<FeatureWeight>* entries);

}  // namespace detail

}  // namespace wmsketch
