#include "engine/serving.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "api/learner.h"

namespace wmsketch {

// ---------------------------------------------------------- ServingState

ServingState::~ServingState() {
  // Handles co-own the state, so destruction implies no registered readers
  // remain; `live_` uniquely owns every surviving snapshot.
}

void ServingState::Publish(std::unique_ptr<ServingSnapshot> snap) {
  MutexLock lk(writer_mu_);
  snap->version = next_version_++;
  const ServingSnapshot* fresh = snap.get();
  live_.push_back(std::move(snap));
  current_.store(fresh, std::memory_order_release);
  // Order the publication before the hazard scan (the writer half of the
  // pin/free protocol in the header comment).
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Reclaim: free every retired snapshot no reader pins. The acquire loads
  // synchronize with each reader's release store of its *next* pin, so a
  // reader's final reads of a snapshot happen-before its reclamation here.
  for (size_t i = 0; i < live_.size();) {
    const ServingSnapshot* candidate = live_[i].get();
    if (candidate == fresh) {
      ++i;
      continue;
    }
    bool pinned = false;
    for (const Slot& slot : slots_) {
      if (slot.in_use.load(std::memory_order_relaxed) &&
          slot.pinned.load(std::memory_order_acquire) == candidate) {
        pinned = true;
        break;
      }
    }
    if (pinned) {
      ++i;
    } else {
      live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
    }
  }
}

uint64_t ServingState::published_version() const {
  const ServingSnapshot* cur = current_.load(std::memory_order_acquire);
  return cur == nullptr ? 0 : cur->version;
}

ServingState::Slot* ServingState::RegisterHandle() {
  MutexLock lk(writer_mu_);
  for (Slot& slot : slots_) {
    if (!slot.in_use.load(std::memory_order_relaxed)) {
      slot.pinned.store(nullptr, std::memory_order_relaxed);
      slot.in_use.store(true, std::memory_order_release);
      return &slot;
    }
  }
  return nullptr;
}

void ServingState::ReleaseHandle(Slot* slot) {
  MutexLock lk(writer_mu_);
  slot->pinned.store(nullptr, std::memory_order_release);
  slot->in_use.store(false, std::memory_order_release);
}

const ServingSnapshot* ServingState::Pin(Slot* slot,
                                         const ServingSnapshot* cached) const {
  const ServingSnapshot* cur = current_.load(std::memory_order_acquire);
  if (cur == cached) return cached;  // nothing new; slot already pins it
  for (;;) {
    slot->pinned.store(cur, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const ServingSnapshot* check = current_.load(std::memory_order_acquire);
    if (check == cur) return cur;
    cur = check;  // a publication landed inside the window; pin the newer one
  }
}

// --------------------------------------------------------- ServingHandle

ServingHandle::ServingHandle(std::shared_ptr<ServingState> state,
                             ServingState::Slot* slot)
    : state_(std::move(state)), slot_(slot) {}

ServingHandle::ServingHandle(ServingHandle&& other) noexcept
    : state_(std::move(other.state_)),
      slot_(std::exchange(other.slot_, nullptr)),
      pinned_(std::exchange(other.pinned_, nullptr)) {}

ServingHandle& ServingHandle::operator=(ServingHandle&& other) noexcept {
  if (this != &other) {
    if (slot_ != nullptr) state_->ReleaseHandle(slot_);
    state_ = std::move(other.state_);
    slot_ = std::exchange(other.slot_, nullptr);
    pinned_ = std::exchange(other.pinned_, nullptr);
  }
  return *this;
}

ServingHandle::~ServingHandle() {
  if (slot_ != nullptr) state_->ReleaseHandle(slot_);
}

const ServingSnapshot& ServingHandle::Pin() {
  pinned_ = state_->Pin(slot_, pinned_);
  assert(pinned_ != nullptr);  // an initial snapshot is published at acquire
  return *pinned_;
}

uint64_t ServingHandle::Refresh() { return Pin().version; }

double ServingHandle::PredictMargin(const SparseVector& x) {
  return Pin().model->PredictMargin(x);
}

void ServingHandle::PredictBatch(std::span<const Example> batch, double* out) {
  Pin().model->PredictBatch(batch, out);
}

float ServingHandle::Estimate(uint32_t feature) {
  return Pin().model->Estimate(feature);
}

void ServingHandle::EstimateBatch(std::span<const uint32_t> features, float* out) {
  Pin().model->EstimateBatch(features, out);
}

std::vector<FeatureWeight> ServingHandle::TopK(size_t k) {
  const ServingSnapshot& snap = Pin();
  const std::vector<FeatureWeight>& all = snap.top_k;
  return std::vector<FeatureWeight>(
      all.begin(), all.begin() + static_cast<ptrdiff_t>(std::min(k, all.size())));
}

// --------------------------------------------------------------- capture

std::unique_ptr<ServingSnapshot> CaptureServingSnapshot(const BudgetedClassifier& model,
                                                        size_t top_k) {
  auto snap = std::make_unique<ServingSnapshot>();
  snap->steps = model.steps();
  // Difference the paged-storage counters around the capture: what this
  // snapshot cost is exactly the pages MakeReadModel copied out (zero for
  // the baselines without paged tables, whose stats stay zero).
  const uint64_t copied_before = model.publish_stats().copied_bytes;
  snap->model = model.MakeReadModel();
  snap->publish_bytes = model.publish_stats().copied_bytes - copied_before;
  snap->top_k = model.TopK(top_k);
  snap->resident_bytes =
      snap->model->ResidentBytes() + snap->top_k.size() * sizeof(FeatureWeight);
  return snap;
}

// -------------------------------------------------- Learner integration
//
// Defined here rather than in api/learner.cc so the api layer carries no
// dependency on the serving machinery (mirroring BuildSharded in
// sharded_learner.cc); api/learner.h only forward-declares the types.

Result<ServingHandle> Learner::AcquireServingHandle() {
  if (serving_ == nullptr) {
    serving_ = std::make_shared<ServingState>();
  }
  if (serving_->published_version() == 0) {
    // First acquisition: publish the current model so the handle is
    // immediately servable, and start the ServeEvery cadence from here.
    serving_->Publish(CaptureServingSnapshot(*impl_, kDefaultSnapshotTopK));
    next_publish_steps_ = impl_->steps() + serve_every_;
  }
  ServingState::Slot* slot = serving_->RegisterHandle();
  if (slot == nullptr) {
    return Status::FailedPrecondition(
        "serving: all " + std::to_string(ServingState::kMaxHandles) +
        " reader handle slots are registered");
  }
  return ServingHandle(serving_, slot);
}

void Learner::PublishServingSnapshot() {
  if (serving_ == nullptr) return;
  serving_->Publish(CaptureServingSnapshot(*impl_, kDefaultSnapshotTopK));
  next_publish_steps_ = impl_->steps() + serve_every_;
}

void Learner::MaybePublishServing() {
  if (serve_every_ == 0) return;
  if (impl_->steps() < next_publish_steps_) return;
  serving_->Publish(CaptureServingSnapshot(*impl_, kDefaultSnapshotTopK));
  next_publish_steps_ = impl_->steps() + serve_every_;
}

}  // namespace wmsketch
