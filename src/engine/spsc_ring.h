#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wmsketch {

/// A bounded lock-free single-producer/single-consumer ring of reusable
/// slots — the hand-off queue between the sharding thread and one training
/// worker.
///
/// Items are written and read in place. The producer fills the slot
/// WriteSlot() returns and publishes it with CommitPush(); the consumer
/// reads a run of published slots through ReadSpan() and releases them with
/// CommitPop(). Slots are constructed once and never destroyed or moved out
/// between laps, so each keeps what its last item owned: an item
/// copy-assigned over an older one reuses that one's buffers.
///
/// Exactly one thread may produce and exactly one may consume; under that
/// contract the only shared state is the two monotonic cursors, synchronized
/// release/acquire. Each side keeps a local cache of the other side's cursor
/// so the common case touches one shared atomic, not two (the
/// folly/rigtorp ProducerConsumerQueue layout). Capacity is rounded up to a
/// power of two so the cursor-to-slot mapping is a mask.
template <typename T>
class SpscRing {
 public:
  /// Constructs a ring of `capacity` slots (rounded up to a power of two;
  /// minimum 2), each a default-constructed T.
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side: the slot the next push fills, or nullptr while the ring
  /// is full. The slot still holds the item that last occupied it; assign
  /// over it, then CommitPush().
  T* WriteSlot() {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return nullptr;
    }
    return &slots_[tail & mask_];
  }

  /// Producer side: publishes the slot WriteSlot() returned.
  void CommitPush() {
    tail_.store(tail_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  /// Consumer side: up to `max` published slots in push order, in place.
  /// A span never crosses the wrap: a run that does comes back in two
  /// calls. Empty while the ring is empty. The slots stay the consumer's
  /// until CommitPop() releases them.
  std::span<T> ReadSpan(size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_cache_ - head < max) tail_cache_ = tail_.load(std::memory_order_acquire);
    const size_t begin = static_cast<size_t>(head & mask_);
    const size_t n = std::min({max, static_cast<size_t>(tail_cache_ - head), capacity_ - begin});
    return std::span<T>(slots_.data() + begin, n);
  }

  /// Consumer side: hands the first `n` slots of the last ReadSpan() back to
  /// the producer. Requires n <= that span's size.
  void CommitPop(size_t n) {
    head_.store(head_.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }

  /// True iff no items are in flight (callable from either side; the answer
  /// is exact only once the other side has quiesced).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_ = 0;
  uint64_t mask_ = 0;
  std::vector<T> slots_;
  // Consumer cursor + the producer's cached copy of it, on separate cache
  // lines from the producer cursor to avoid false sharing on the hot path.
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) uint64_t head_cache_ = 0;  // producer-owned
  alignas(64) uint64_t tail_cache_ = 0;  // consumer-owned
};

}  // namespace wmsketch
