// Counts heap allocations on the distributed sync path. This binary replaces
// the global operator new (every allocating form) with one that counts per
// thread, then checks that, once one warm-up window has brought every kept
// buffer to size, a sync allocates nothing: SaveDelta into a reused buffer,
// ApplyDelta onto a warmed replica, and the aggregator's PollOnce rounds
// serving a delta from a SyncClient on another thread (counted on the
// aggregator's thread only). The warm-up window is larger than the measured
// ones, so the buffers it sizes hold what the measured windows need. On the
// aggregator the full sync that precedes every delta leaves a buffer with
// room for a delta, so the first delta after it allocates nothing either.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/delta_io.h"
#include "datagen/classification_gen.h"
#include "dist/aggregator.h"
#include "dist/worker.h"

namespace {

thread_local uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = CountedAlignedAlloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = CountedAlignedAlloc(n, a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace wmsketch {
namespace {

constexpr size_t kWarmExamples = 2000;
constexpr size_t kWarmUpWindow = 64;
constexpr size_t kWindow = 16;
constexpr int kMeasuredWindows = 8;

// The perfbench `sync` shape: AWM, 65,536 cells, |S| = 512.
LearnerBuilder SyncBuilder() {
  return LearnerBuilder()
      .SetMethod(Method::kAwmSketch)
      .SetWidth(65536)
      .SetDepth(1)
      .SetHeapCapacity(512)
      .SetLambda(1e-6)
      .SetLearningRate(LearningRate::InverseSqrt(0.1))
      .SetSeed(42);
}

std::vector<Example> Stream(size_t n) {
  SyntheticClassificationGen gen(ClassificationProfile::Rcv1Like(), 31);
  std::vector<Example> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

// Allocations the calling thread makes in fn().
template <typename Fn>
uint64_t AllocationsIn(Fn&& fn) {
  const uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

TEST(SyncAllocTest, CounterSeesThisThreadsAllocations) {
  // The counter must not read zero vacuously. The vector escapes through a
  // volatile pointer, so the compiler may not elide its two allocations.
  std::vector<int>* volatile escaped = nullptr;
  EXPECT_EQ(AllocationsIn([&] { escaped = new std::vector<int>(100); }), 2u);
  delete escaped;
}

TEST(SyncAllocTest, SaveAndApplyAllocateNothingAfterOneWindow) {
  const std::vector<Example> stream =
      Stream(kWarmExamples + kWarmUpWindow + kMeasuredWindows * kWindow);
  Result<Learner> built = SyncBuilder().Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  const Method method = learner.method();
  size_t at = 0;
  auto train = [&](size_t n) {
    learner.UpdateBatch(std::span<const Example>(stream.data() + at, n));
    at += n;
  };
  train(kWarmExamples);
  const std::unique_ptr<BudgetedClassifier> replica = learner.impl().Clone();
  ASSERT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());

  std::string payload;
  train(kWarmUpWindow);
  ASSERT_TRUE(SaveDelta(method, learner.impl(), &payload, nullptr).ok());
  ASSERT_TRUE(ApplyDelta(method, *replica, payload).ok());
  ASSERT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());

  for (int w = 0; w < kMeasuredWindows; ++w) {
    train(kWindow);
    payload.clear();
    Status saved, applied;
    EXPECT_EQ(AllocationsIn([&] { saved = SaveDelta(method, learner.impl(), &payload, nullptr); }),
              0u)
        << "SaveDelta, window " << w;
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    EXPECT_EQ(AllocationsIn([&] { applied = ApplyDelta(method, *replica, payload); }), 0u)
        << "ApplyDelta, window " << w;
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    ASSERT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());
  }
}

// Allocations the aggregator's thread makes serving one 16-example delta
// from a SyncClient on another thread, counted over every PollOnce from
// before the delta is sent until its ack has arrived. Before it, the worker
// handshakes, syncs in full and, when `warm_up_window` > 0, syncs one delta
// of that many examples.
uint64_t ServedDeltaAllocations(size_t warm_up_window) {
  const std::vector<Example> stream = Stream(kWarmExamples + warm_up_window + kWindow);
  Result<Learner> built = SyncBuilder().Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return 0;
  Learner learner = std::move(built).value();

  dist::AggregatorOptions options;
  options.config = learner.config();
  options.opts = learner.options();
  Result<dist::Aggregator> created = dist::Aggregator::Create(options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return 0;
  dist::Aggregator agg = std::move(created).value();
  const std::string path = "/tmp/wms_alloc_" + std::to_string(::getpid());
  EXPECT_TRUE(agg.Bind(path).ok());

  // The worker: the syncs before the measured one; then, once the
  // aggregator is ready to count, the measured delta. It stays connected
  // until counting has stopped, so its disconnect is not counted.
  const uint64_t warm_deltas = warm_up_window > 0 ? 1 : 0;
  std::atomic<bool> warm{false}, go{false}, done{false}, release{false};
  Status worker_status;
  std::thread worker([&] {
    dist::SyncClientOptions copts;
    copts.worker_id = 1;
    copts.socket_path = path;
    dist::SyncClient client(learner.method(), copts);
    size_t at = 0;
    auto train_and_sync = [&](size_t n) {
      learner.UpdateBatch(std::span<const Example>(stream.data() + at, n));
      at += n;
      return client.Sync(learner.impl());
    };
    worker_status = client.Connect(learner.impl());
    if (worker_status.ok()) worker_status = train_and_sync(kWarmExamples);
    if (worker_status.ok() && warm_up_window > 0) worker_status = train_and_sync(warm_up_window);
    warm = true;
    while (!go) std::this_thread::yield();
    if (worker_status.ok()) worker_status = train_and_sync(kWindow);
    if (worker_status.ok() && client.stats().delta_syncs != warm_deltas + 1) {
      worker_status = Status::Corruption("expected the measured sync to be a delta");
    }
    done = true;
    while (!release) std::this_thread::yield();
  });

  Status polled;
  while (!warm && polled.ok()) polled = agg.PollOnce(5);
  go = true;
  uint64_t allocations = 0;
  if (polled.ok()) {
    allocations = AllocationsIn([&] {
      while (!done && polled.ok()) polled = agg.PollOnce(5);
    });
  }
  release = true;
  worker.join();
  EXPECT_TRUE(worker_status.ok()) << worker_status.ToString();
  EXPECT_TRUE(polled.ok()) << polled.ToString();
  EXPECT_EQ(agg.replica_count(), 1u);
  return allocations;
}

TEST(SyncAllocTest, AggregatorServesADeltaWithoutAllocating) {
  EXPECT_EQ(ServedDeltaAllocations(kWarmUpWindow), 0u);
}

TEST(SyncAllocTest, FirstDeltaAfterAFullSyncAllocatesNothingOnTheAggregator) {
  // The full snapshot is loaded in place from the connection's receive
  // buffer, and the buffer the connection keeps after it takes the delta.
  EXPECT_EQ(ServedDeltaAllocations(0), 0u);
}

}  // namespace
}  // namespace wmsketch
