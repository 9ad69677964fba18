#pragma once

// Wait-free concurrent serving: RCU-style snapshot publication over the
// frozen ReadModel layer (linear/classifier.h).
//
// The writer — a single-threaded Learner's training thread, or the
// ShardedLearner owner at its merge barriers — periodically captures an
// immutable, versioned snapshot of the model (frozen read model + heap
// top-K, O(budget)) and publishes it with one release store of an atomic
// pointer. Readers hold a ServingHandle each and pin the latest snapshot
// through a per-handle hazard slot:
//
//   reader pin:   load current → store slot (release) → seq_cst fence →
//                 re-load current; retry on mismatch
//   writer free:  store current (release) → seq_cst fence → scan slots
//                 (acquire); free retired snapshots pinned by no slot
//
// The two seq_cst fences close the classic hazard-pointer race: either the
// writer's scan observes the reader's slot (the snapshot survives), or the
// reader's re-load observes the new pointer (the reader retries and never
// touches the freed snapshot). Reader properties, by construction:
//   * no mutexes and no atomic read-modify-write operations — the pin is two
//     plain atomic loads and one plain atomic store (plus a fence);
//   * no allocation on the hot path;
//   * no waiting on other readers or on the writer: a pin retries only if a
//     publication lands inside its two-instruction validation window, which
//     the ServeEvery(k) cadence makes vanishingly rare — queries on a pinned
//     snapshot are wait-free outright.
// Memory is bounded: at most (#handles + live retired) snapshots exist, and
// an idle handle retains at most the one snapshot it last pinned.
//
// The writer side (publication + reclamation + handle registration) runs
// under a mutex — it was never meant to be concurrent with itself, and the
// training thread amortizes the O(budget) capture over K updates.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linear/classifier.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace wmsketch {

class BudgetedClassifier;

/// One published, immutable serving version: a frozen read model plus the
/// materialized top-K, stamped with the publication sequence number and the
/// writer's step count at capture time.
struct ServingSnapshot {
  /// Publication sequence number (1, 2, ...; assigned by Publish).
  uint64_t version = 0;
  /// Updates the model had absorbed when this snapshot was captured.
  uint64_t steps = 0;
  /// The frozen model answering margins and point estimates.
  std::unique_ptr<const ReadModel> model;
  /// The top-K heaviest tracked features at capture time (descending
  /// magnitude; empty for identifier-free methods).
  std::vector<FeatureWeight> top_k;
  /// Bytes the capture physically copied. For the paged-table methods this
  /// is the dirtied pages only (clean pages were re-shared by refcount), so
  /// it is O(what changed since the previous capture), not O(budget).
  uint64_t publish_bytes = 0;
  /// Bytes of model state this snapshot keeps alive (shared pages counted
  /// in full — see ReadModel::ResidentBytes — plus the materialized top-K).
  size_t resident_bytes = 0;
};

/// The shared publication state: the atomic current-snapshot pointer, the
/// hazard slots of registered handles, and the retired-snapshot list.
/// Owned jointly (shared_ptr) by the publishing learner and every handle,
/// so handles keep serving the last snapshot even after the learner dies.
class ServingState {
 public:
  /// Maximum concurrently registered handles (one per reader thread).
  static constexpr size_t kMaxHandles = 64;

  /// One reader's hazard slot, padded to its own cache line so reader pins
  /// never contend with each other.
  struct alignas(64) Slot {
    std::atomic<const ServingSnapshot*> pinned{nullptr};
    std::atomic<bool> in_use{false};
  };

  ServingState() = default;
  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;
  ~ServingState();

  /// Publishes `snap` as the current version (assigns the next sequence
  /// number), then frees every retired snapshot no reader still pins.
  /// Writer-side; serialized internally.
  void Publish(std::unique_ptr<ServingSnapshot> snap);

  /// Version of the currently published snapshot (0 = none published yet).
  uint64_t published_version() const;

  /// Registers a hazard slot for a new handle; nullptr when kMaxHandles
  /// handles are already registered.
  Slot* RegisterHandle();

  /// Releases a slot at handle destruction (its pinned snapshot becomes
  /// reclaimable at the next publish).
  void ReleaseHandle(Slot* slot);

  /// The reader pin protocol (see file comment). `cached` is the snapshot
  /// the calling handle already pins (its slot still holds it), or nullptr.
  /// Returns the latest published snapshot, pinned in `slot`; nullptr only
  /// if nothing was ever published.
  const ServingSnapshot* Pin(Slot* slot, const ServingSnapshot* cached) const;

 private:
  std::atomic<const ServingSnapshot*> current_{nullptr};
  std::array<Slot, kMaxHandles> slots_;

  /// Serializes the writer side: publication, reclamation, and handle
  /// registration. Readers never take it — Pin works on `current_` and the
  /// slots alone. clang -Wthread-safety enforces that the guarded members
  /// below are only touched with it held.
  Mutex writer_mu_;
  uint64_t next_version_ WMS_GUARDED_BY(writer_mu_) = 1;
  /// Every snapshot not yet freed (the published one included).
  std::vector<std::unique_ptr<const ServingSnapshot>> live_
      WMS_GUARDED_BY(writer_mu_);
};

/// A single reader's wait-free view of a served learner. Obtain via
/// Learner::AcquireServingHandle() / ShardedLearner::AcquireServingHandle();
/// one handle serves ONE reader thread (the hazard slot is single-owner).
/// Every query pins the latest published snapshot first (two atomic loads
/// when nothing new was published), so results are at most one publication
/// interval stale; within one call the snapshot is fixed, so a batch is
/// internally consistent. Handles may outlive the learner: they keep
/// answering from the last published snapshot.
class ServingHandle {
 public:
  ServingHandle(ServingHandle&& other) noexcept;
  ServingHandle& operator=(ServingHandle&& other) noexcept;
  ServingHandle(const ServingHandle&) = delete;
  ServingHandle& operator=(const ServingHandle&) = delete;
  ~ServingHandle();

  /// Pins the latest published snapshot; returns its version. The explicit
  /// form of the refresh every query performs implicitly.
  uint64_t Refresh();

  /// Version of the currently pinned snapshot (monotone across Refresh).
  uint64_t version() const { return pinned_ == nullptr ? 0 : pinned_->version; }
  /// Steps the pinned snapshot's model had absorbed — the reader-visible
  /// training progress; (writer steps − this) is the current staleness.
  uint64_t steps() const { return pinned_ == nullptr ? 0 : pinned_->steps; }
  /// Bytes of model state the pinned snapshot keeps alive (reporting path).
  size_t resident_bytes() const {
    return pinned_ == nullptr ? 0 : pinned_->resident_bytes;
  }
  /// The snapshot the last Refresh (or query) pinned, read without pinning
  /// again: a caller that answers several requests from one version pins
  /// once with Refresh() and reads them all from here. Requires a pin.
  const ServingSnapshot& pinned() const { return *pinned_; }

  /// The margin wᵀx under the latest published snapshot.
  double PredictMargin(const SparseVector& x);
  /// The predicted label sign(wᵀx) ∈ {-1, +1} (ties map to +1).
  int8_t Classify(const SparseVector& x) { return PredictMargin(x) >= 0.0 ? 1 : -1; }
  /// Batched margins (one snapshot pin for the whole batch): out[e] =
  /// margin of batch[e], through the frozen model's SIMD batch path.
  void PredictBatch(std::span<const Example> batch, double* out);
  /// Frozen point estimate ŵᵢ under the latest published snapshot.
  float Estimate(uint32_t feature);
  /// Batched point estimates (one pin for the whole batch).
  void EstimateBatch(std::span<const uint32_t> features, float* out);
  /// The `k` heaviest materialized features of the latest snapshot (a copy;
  /// allocates — reporting path, not the serving hot path).
  std::vector<FeatureWeight> TopK(size_t k);

 private:
  friend class Learner;
  friend class ShardedLearner;

  ServingHandle(std::shared_ptr<ServingState> state, ServingState::Slot* slot);

  const ServingSnapshot& Pin();

  std::shared_ptr<ServingState> state_;
  ServingState::Slot* slot_ = nullptr;
  const ServingSnapshot* pinned_ = nullptr;
};

/// Captures a publishable snapshot of `model` (frozen read model + top-K).
/// The version field is assigned by ServingState::Publish.
std::unique_ptr<ServingSnapshot> CaptureServingSnapshot(const BudgetedClassifier& model,
                                                        size_t top_k);

}  // namespace wmsketch
