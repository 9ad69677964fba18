// Mixed read/write serving benchmark: R reader threads serve batched
// predictions and point estimates from published snapshots (wait-free
// ServingHandles) while one writer thread trains the same learner,
// publishing every ServeEvery updates.
//
//   ./bench_serving [--json BENCH_serving.json] [--readers N]
//                   [--libsvm data.txt[.gz]] [--profile profile.json]
//
// One row per (config, reader count), reader counts {0, N}: the 0-reader
// row is the writer's no-contention ingest rate (the baseline for the
// "readers must not stall the writer" criterion on multi-core machines),
// the N-reader row reports aggregate reader throughput plus the observed
// snapshot staleness in updates (bounded by ServeEvery on a dedicated
// writer core; scheduling can stretch the observed mean on oversubscribed
// machines).
//
// A second, single-threaded "publish cost" section measures what the
// copy-on-write paged storage buys a high-cadence serving tier: for large
// tables at small ServeEvery(k) it times explicit snapshot publications and
// reports bytes physically copied per publish (dirtied pages only) against
// the full-table bytes the pre-paged implementation copied every time,
// plus per-snapshot resident bytes. Rows carry kernel tag "publish";
// publish_gain (= full_table_bytes / publish_bytes) is the machine-
// independent gate metric, publish_us the latency one.
//
// A third "frozen reads" section times single-threaded batched predicts and
// point estimates against a published snapshot with the kernel paths toggled
// — the direct measurement of the paged serving gather kernels. These rows
// repeat for every stream ResolveBenchStreams yields (--libsvm replaces the
// synthetic stream; --profile adds a deterministic sparsity-profile replay).
//
// Stream lengths scale with WMS_BENCH_SCALE like every other bench.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "bench/bench_common.h"
#include "engine/serving.h"
#include "util/simd.h"

namespace wmsketch::bench {
namespace {

constexpr uint64_t kServeEvery = 4096;
constexpr size_t kWriteChunk = 512;
constexpr size_t kReadChunk = 256;

struct ServingConfig {
  const char* label;
  Method method;
  uint32_t width;
  uint32_t depth;
  size_t heap;
};

constexpr ServingConfig kConfigs[] = {
    {"wm_w256_d3", Method::kWmSketch, 256, 3, 128},
    {"awm_w256_s256", Method::kAwmSketch, 256, 1, 256},
    {"hash_w4096", Method::kFeatureHashing, 4096, 0, 0},
};

// Cache-line aligned: adjacent readers' counters must not false-share — on
// multi-core machines the ping-pong would depress exactly the aggregate
// reader throughput this bench exists to measure.
struct alignas(64) ReaderStats {
  uint64_t predicts = 0;
  uint64_t estimates = 0;
  double staleness_sum = 0.0;
  uint64_t staleness_max = 0;
  uint64_t staleness_samples = 0;
  bool versions_monotone = true;
  double checksum = 0.0;
  /// Per-op latencies in microseconds (batched-call time / ops in the call),
  /// one sample per batched call — aggregate throughput alone hides the tail
  /// the network bench compares against.
  std::vector<double> predict_us;
  std::vector<double> estimate_us;
};

struct RunResult {
  double updates_per_sec = 0.0;
  double predicts_per_sec = 0.0;
  double estimates_per_sec = 0.0;
  double staleness_mean = 0.0;
  double staleness_max = 0.0;
  bool monotone = true;
  double checksum = 0.0;
  double publish_bytes_mean = 0.0;   // bytes copied per publication (dirty pages)
  double snapshot_resident_bytes = 0.0;
  double predict_p50_us = 0.0;   // per-op latency percentiles across readers
  double predict_p99_us = 0.0;
  double estimate_p50_us = 0.0;
  double estimate_p99_us = 0.0;
};

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void ReaderLoop(ServingHandle& handle, std::span<const Example> queries,
                uint32_t dimension, uint64_t seed, const std::atomic<bool>& start,
                const std::atomic<bool>& done, const std::atomic<uint64_t>& writer_steps,
                ReaderStats& out) {
  // Tiny WMS_BENCH_SCALE streams can be shorter than the preferred chunk;
  // clamp the window (and keep the rotation modulus >= 1) instead of
  // reading past the query span.
  const size_t chunk = std::min(kReadChunk, queries.size());
  const size_t rotate = std::max<size_t>(1, queries.size() - chunk + 1);
  std::vector<double> margins(chunk);
  std::vector<uint32_t> keys(chunk);
  std::vector<float> estimates(chunk);
  SplitMix64 ids(seed);
  uint64_t last_version = 0;
  size_t at = 0;
  const double per_op = 1.0 / static_cast<double>(chunk);
  // Pre-size the sample buffers so the measured loop almost never pays a
  // reallocation inside a timed window.
  out.predict_us.reserve(1 << 16);
  out.estimate_us.reserve(1 << 16);
  while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!done.load(std::memory_order_acquire)) {
    // One batched predict chunk from a rotating window of the query stream.
    const auto p0 = std::chrono::steady_clock::now();
    handle.PredictBatch(std::span<const Example>(queries.data() + at, chunk),
                        margins.data());
    const auto p1 = std::chrono::steady_clock::now();
    out.predict_us.push_back(Seconds(p0, p1) * 1e6 * per_op);
    at = (at + chunk) % rotate;
    out.predicts += chunk;
    out.checksum += margins[0];

    const uint64_t version = handle.version();
    if (version < last_version) out.versions_monotone = false;
    last_version = version;
    const uint64_t writer_now = writer_steps.load(std::memory_order_relaxed);
    const uint64_t seen = handle.steps();
    const uint64_t lag = writer_now > seen ? writer_now - seen : 0;
    out.staleness_sum += static_cast<double>(lag);
    out.staleness_max = std::max(out.staleness_max, lag);
    ++out.staleness_samples;

    // One batched point-estimate chunk over random feature ids.
    for (size_t i = 0; i < chunk; ++i) {
      keys[i] = static_cast<uint32_t>(ids.Next() % dimension);
    }
    const auto e0 = std::chrono::steady_clock::now();
    handle.EstimateBatch(keys, estimates.data());
    const auto e1 = std::chrono::steady_clock::now();
    out.estimate_us.push_back(Seconds(e0, e1) * 1e6 * per_op);
    out.estimates += chunk;
    out.checksum += static_cast<double>(estimates[0]);
  }
}

RunResult RunMixed(const ServingConfig& c, int readers,
                   const std::vector<Example>& stream, uint32_t dimension) {
  LearnerBuilder b =
      PaperBuilder(1e-6, 77).SetMethod(c.method).SetWidth(c.width).ServeEvery(kServeEvery);
  if (c.depth > 0) b.SetDepth(c.depth);
  if (c.heap > 0) b.SetHeapCapacity(c.heap);
  Learner model = BuildOrDie(b.Build());

  // Warm-up before the measured window (and before the initial publish, so
  // readers never serve an all-zero model).
  const size_t warm = std::min<size_t>(2 * kWriteChunk, stream.size() / 4);
  model.UpdateBatch(std::span<const Example>(stream.data(), warm));

  // One handle is always acquired — idle in the 0-reader run — so serving
  // (and its every-K snapshot capture) is active in both rows: the r0 row
  // is the *publishing* writer's baseline, and the reader rows then isolate
  // reader contention rather than conflating it with publication cost.
  std::vector<ServingHandle> handles;
  for (int r = 0; r < std::max(readers, 1); ++r) {
    Result<ServingHandle> h = model.AcquireServingHandle();
    if (!h.ok()) {
      std::fprintf(stderr, "serving handle: %s\n", h.status().ToString().c_str());
      std::exit(1);
    }
    handles.push_back(std::move(h).value());
  }

  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> writer_steps{model.steps()};
  const std::span<const Example> queries(stream.data(),
                                         std::min<size_t>(stream.size(), 20000));
  std::vector<ReaderStats> stats(static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      ReaderLoop(handles[static_cast<size_t>(r)], queries, dimension,
                 1000u + static_cast<uint64_t>(r), start, done, writer_steps,
                 stats[static_cast<size_t>(r)]);
    });
  }

  const TablePublishStats pub0 = model.impl().publish_stats();
  start.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t at = warm; at < stream.size(); at += kWriteChunk) {
    const size_t n = std::min(kWriteChunk, stream.size() - at);
    model.UpdateBatch(std::span<const Example>(stream.data() + at, n));
    writer_steps.store(model.steps(), std::memory_order_relaxed);
  }
  const auto t1 = std::chrono::steady_clock::now();
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const TablePublishStats pub1 = model.impl().publish_stats();

  const double elapsed = Seconds(t0, t1);
  RunResult out;
  out.updates_per_sec = static_cast<double>(stream.size() - warm) / elapsed;
  uint64_t predicts = 0, estimates = 0, samples = 0, stale_max = 0;
  double stale_sum = 0.0;
  std::vector<double> predict_us, estimate_us;
  for (const ReaderStats& s : stats) {
    predicts += s.predicts;
    estimates += s.estimates;
    samples += s.staleness_samples;
    stale_sum += s.staleness_sum;
    stale_max = std::max(stale_max, s.staleness_max);
    out.monotone = out.monotone && s.versions_monotone;
    out.checksum += s.checksum;
    predict_us.insert(predict_us.end(), s.predict_us.begin(), s.predict_us.end());
    estimate_us.insert(estimate_us.end(), s.estimate_us.begin(), s.estimate_us.end());
  }
  out.predict_p50_us = Percentile(predict_us, 50.0);
  out.predict_p99_us = Percentile(predict_us, 99.0);
  out.estimate_p50_us = Percentile(estimate_us, 50.0);
  out.estimate_p99_us = Percentile(estimate_us, 99.0);
  out.predicts_per_sec = static_cast<double>(predicts) / elapsed;
  out.estimates_per_sec = static_cast<double>(estimates) / elapsed;
  out.staleness_mean =
      samples == 0 ? 0.0 : stale_sum / static_cast<double>(samples);
  out.staleness_max = static_cast<double>(stale_max);
  const uint64_t publishes = pub1.publishes - pub0.publishes;
  out.publish_bytes_mean =
      publishes == 0 ? 0.0
                     : static_cast<double>(pub1.copied_bytes - pub0.copied_bytes) /
                           static_cast<double>(publishes);
  const auto snap = CaptureServingSnapshot(model.impl(), Learner::kDefaultSnapshotTopK);
  out.snapshot_resident_bytes = static_cast<double>(snap->resident_bytes);
  return out;
}

// ------------------------------------------------------------ publish cost

struct PublishCostConfig {
  const char* label;
  Method method;
  uint32_t width;
  uint32_t depth;  // 0 = method without a depth knob
  size_t heap;
  uint64_t serve_every;  // the k the row models (updates between publishes)
};

// Large tables + small k: the high-cadence regime the paged storage exists
// for. The k64 row shows the gain eroding as more pages dirty per interval.
constexpr PublishCostConfig kPublishConfigs[] = {
    {"wm_w65536_d3_k2", Method::kWmSketch, 65536, 3, 128, 2},
    {"wm_w65536_d3_k64", Method::kWmSketch, 65536, 3, 128, 64},
    {"hash_w262144_k8", Method::kFeatureHashing, 262144, 0, 0, 8},
};

struct PublishCostResult {
  double publish_bytes = 0.0;          // mean bytes copied per publish
  double publish_us = 0.0;             // mean publish latency
  double full_table_bytes = 0.0;       // what the pre-paged capture copied
  double publish_gain = 0.0;           // full_table_bytes / publish_bytes
  double snapshot_resident_bytes = 0.0;
  uint64_t publishes = 0;
};

PublishCostResult RunPublishCost(const PublishCostConfig& c,
                                 const std::vector<Example>& stream) {
  LearnerBuilder b = PaperBuilder(1e-6, 77).SetMethod(c.method).SetWidth(c.width);
  if (c.depth > 0) b.SetDepth(c.depth);
  if (c.heap > 0) b.SetHeapCapacity(c.heap);
  // ServeEvery(0): the loop paces updates and publishes explicitly so each
  // publication can be timed on its own.
  Learner model = BuildOrDie(b.Build());

  const size_t warm = std::min<size_t>(4096, stream.size() / 4);
  model.UpdateBatch(std::span<const Example>(stream.data(), warm));

  // The first acquisition publishes the initial snapshot — the O(budget)
  // full copy every snapshot used to pay. Not part of the measured window.
  Result<ServingHandle> handle = model.AcquireServingHandle();
  if (!handle.ok()) {
    std::fprintf(stderr, "serving handle: %s\n", handle.status().ToString().c_str());
    std::exit(1);
  }

  const uint64_t publishes = static_cast<uint64_t>(ScaledCount(200));
  const TablePublishStats pub0 = model.impl().publish_stats();
  double publish_seconds = 0.0;
  size_t at = warm;
  for (uint64_t p = 0; p < publishes; ++p) {
    for (uint64_t u = 0; u < c.serve_every; ++u) {
      model.Update(stream[at]);
      at = (at + 1) % stream.size();
    }
    const auto t0 = std::chrono::steady_clock::now();
    model.PublishServingSnapshot();
    const auto t1 = std::chrono::steady_clock::now();
    publish_seconds += Seconds(t0, t1);
  }
  const TablePublishStats pub1 = model.impl().publish_stats();

  PublishCostResult out;
  out.publishes = pub1.publishes - pub0.publishes;
  const size_t cells =
      static_cast<size_t>(c.width) * (c.depth > 0 ? c.depth : 1);
  out.full_table_bytes = static_cast<double>(cells * sizeof(float));
  out.publish_bytes = static_cast<double>(pub1.copied_bytes - pub0.copied_bytes) /
                      static_cast<double>(out.publishes);
  out.publish_us = publish_seconds / static_cast<double>(out.publishes) * 1e6;
  out.publish_gain =
      out.publish_bytes > 0.0 ? out.full_table_bytes / out.publish_bytes : 0.0;
  const auto snap = CaptureServingSnapshot(model.impl(), Learner::kDefaultSnapshotTopK);
  out.snapshot_resident_bytes = static_cast<double>(snap->resident_bytes);
  return out;
}

// ------------------------------------------------------------ frozen reads
//
// Single-threaded batched reads against a *published* snapshot: the paged
// frozen read models behind every ServingHandle, measured without writer or
// reader contention so the row isolates the paged read loops themselves
// (readpath::MarginBatch / EstimateBatch over a PagedView, which resolve
// each cell through the page-pointer array). Kernel paths toggle like bench_hot_path;
// on the read side only MedianLarge (depth >= 8) has a vector variant. The
// checksum is deterministic and must match across paths (bit-identity
// contract).

struct FrozenReadResult {
  double batch_predicts_per_sec = 0.0;
  double batch_estimates_per_sec = 0.0;
  double checksum = 0.0;
};

// Keeps the timed frozen-read loops observable without touching the
// deterministic checksum.
volatile double g_frozen_sink = 0.0;

constexpr double kMinWindowSeconds = 0.12;

FrozenReadResult RunFrozenReads(const ServingConfig& c, const std::vector<Example>& stream,
                                uint32_t dimension) {
  LearnerBuilder b = PaperBuilder(1e-6, 77).SetMethod(c.method).SetWidth(c.width);
  if (c.depth > 0) b.SetDepth(c.depth);
  if (c.heap > 0) b.SetHeapCapacity(c.heap);
  Learner model = BuildOrDie(b.Build());
  model.UpdateBatch(stream);
  Result<ServingHandle> handle = model.AcquireServingHandle();
  if (!handle.ok()) {
    std::fprintf(stderr, "serving handle: %s\n", handle.status().ToString().c_str());
    std::exit(1);
  }
  ServingHandle& h = handle.value();

  const size_t chunk = std::min(kReadChunk, stream.size());
  const std::span<const Example> queries(stream.data(),
                                         std::min<size_t>(stream.size(), 20000));
  std::vector<double> margins(chunk);
  std::vector<uint32_t> keys(chunk);
  std::vector<float> estimates(chunk);

  auto rate = [](size_t ops_per_pass, auto&& workload) {
    size_t passes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    auto t1 = t0;
    do {
      workload();
      ++passes;
      t1 = std::chrono::steady_clock::now();
    } while (Seconds(t0, t1) < kMinWindowSeconds);
    return static_cast<double>(ops_per_pass) * static_cast<double>(passes) /
           Seconds(t0, t1);
  };

  FrozenReadResult out;
  double sink = 0.0;
  out.batch_predicts_per_sec = rate(queries.size(), [&] {
    for (size_t at = 0; at < queries.size(); at += chunk) {
      const size_t n = std::min(chunk, queries.size() - at);
      h.PredictBatch(std::span<const Example>(queries.data() + at, n), margins.data());
      sink += margins[0];
    }
  });
  const size_t estimates_per_pass = 200000;
  out.batch_estimates_per_sec = rate(estimates_per_pass, [&] {
    SplitMix64 ids(99);
    for (size_t at = 0; at < estimates_per_pass; at += chunk) {
      const size_t n = std::min(chunk, estimates_per_pass - at);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<uint32_t>(ids.Next() % dimension);
      }
      h.EstimateBatch(std::span<const uint32_t>(keys.data(), n), estimates.data());
      sink += static_cast<double>(estimates[0]);
    }
  });
  g_frozen_sink = g_frozen_sink + sink;

  // Deterministic checksum: one fixed pass, identical across kernel paths.
  double checksum = 0.0;
  const size_t check = std::min<size_t>(queries.size(), 2000);
  margins.resize(std::max(chunk, check));
  h.PredictBatch(std::span<const Example>(queries.data(), check), margins.data());
  for (size_t i = 0; i < check; ++i) checksum += margins[i];
  SplitMix64 check_ids(99);
  for (size_t i = 0; i < chunk; ++i) {
    keys[i] = static_cast<uint32_t>(check_ids.Next() % dimension);
  }
  h.EstimateBatch(std::span<const uint32_t>(keys.data(), chunk), estimates.data());
  for (size_t i = 0; i < chunk; ++i) checksum += static_cast<double>(estimates[i]);
  out.checksum = checksum;
  return out;
}

}  // namespace
}  // namespace wmsketch::bench

int main(int argc, char** argv) {
  using namespace wmsketch;
  using namespace wmsketch::bench;

  const ClassificationProfile profile = ClassificationProfile::Rcv1Like();
  const int examples = ScaledCount(120000);
  const int readers = IntFlagArg(argc, argv, "--readers", 4);
  const std::vector<BenchStreamSpec> streams =
      ResolveBenchStreams(argc, argv, profile, examples, 88);
  const std::vector<Example>& stream = streams.front().examples;
  const uint32_t dimension = streams.front().dimension;

  Banner("Serving — " + std::to_string(readers) + " readers × 1 writer, publish every " +
         std::to_string(kServeEvery) + " updates (" + std::to_string(stream.size()) +
         " examples, " + std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads)");
  PrintRow({"config", "readers", "updates/s", "predicts/s", "estimates/s",
            "pred-p50us", "pred-p99us", "stale-mean", "stale-max"});

  BenchJson json("serving");
  for (const ServingConfig& c : kConfigs) {
    for (const int r : {0, readers}) {
      const RunResult res = RunMixed(c, r, stream, dimension);
      if (!res.monotone) {
        std::fprintf(stderr, "%s: observed a non-monotone snapshot version!\n",
                     c.label);
        return 1;
      }
      PrintRow({c.label, std::to_string(r), Fmt(res.updates_per_sec, 0),
                Fmt(res.predicts_per_sec, 0), Fmt(res.estimates_per_sec, 0),
                Fmt(res.predict_p50_us, 2), Fmt(res.predict_p99_us, 2),
                Fmt(res.staleness_mean, 0), Fmt(res.staleness_max, 0)});
      json.Row()
          .Str("config", std::string(c.label) + "_r" + std::to_string(r))
          .Str("base_config", c.label)
          .Num("publish_bytes", res.publish_bytes_mean)
          .Num("snapshot_resident_bytes", res.snapshot_resident_bytes)
          // The bench measures the production path (runtime kernel dispatch,
          // whatever this machine has). The "kernel" tag instead encodes the
          // workload group: writer-only rows and mixed-reader rows scale
          // completely differently with core count, so check_perf must
          // normalize each group separately (--kernel writer-only / mixed)
          // or a multi-core runner fails the 1-core baseline's r0 rows.
          .Str("kernel", r == 0 ? "writer-only" : "mixed")
          .Num("readers", r)
          .Num("serve_every", static_cast<double>(kServeEvery))
          .Num("updates_per_sec", res.updates_per_sec)
          .Num("predicts_per_sec", res.predicts_per_sec)
          .Num("estimates_per_sec", res.estimates_per_sec)
          .Num("predict_p50_us", res.predict_p50_us)
          .Num("predict_p99_us", res.predict_p99_us)
          .Num("estimate_p50_us", res.estimate_p50_us)
          .Num("estimate_p99_us", res.estimate_p99_us)
          .Num("staleness_mean_updates", res.staleness_mean)
          .Num("staleness_max_updates", res.staleness_max)
          .Num("checksum", res.checksum);
    }
  }

  Banner("Publish cost — copy-on-write paged snapshots at high cadence "
         "(bytes copied per publish vs the full-table copy)");
  PrintRow({"config", "k", "publish_B", "full_B", "gain", "publish_us",
            "resident_B"});
  for (const PublishCostConfig& c : kPublishConfigs) {
    const PublishCostResult res = RunPublishCost(c, stream);
    PrintRow({c.label, std::to_string(c.serve_every), Fmt(res.publish_bytes, 0),
              Fmt(res.full_table_bytes, 0), Fmt(res.publish_gain, 1),
              Fmt(res.publish_us, 1), Fmt(res.snapshot_resident_bytes, 0)});
    json.Row()
        .Str("config", c.label)
        .Str("base_config", c.label)
        .Str("kernel", "publish")
        .Num("serve_every", static_cast<double>(c.serve_every))
        .Num("publishes", static_cast<double>(res.publishes))
        .Num("publish_bytes", res.publish_bytes)
        .Num("full_table_bytes", res.full_table_bytes)
        .Num("publish_gain", res.publish_gain)
        .Num("publish_us", res.publish_us)
        .Num("snapshot_resident_bytes", res.snapshot_resident_bytes);
  }
  Banner("Frozen reads — single-threaded wide reads on a published snapshot "
         "(the paged serving kernels, scalar vs avx2)");
  PrintRow({"config", "kernel", "batchpred/s", "batchest/s"});
  const bool kernel_paths[] = {false, true};
  const size_t paths = simd::Available() ? 2 : 1;
  for (const BenchStreamSpec& spec : streams) {
    for (const ServingConfig& c : kConfigs) {
      for (size_t k = 0; k < paths; ++k) {
        simd::SetEnabled(kernel_paths[k]);
        const FrozenReadResult res = RunFrozenReads(c, spec.examples, spec.dimension);
        const std::string label = c.label + spec.suffix + "_frozen";
        PrintRow({label, simd::ActiveKernel(), Fmt(res.batch_predicts_per_sec, 0),
                  Fmt(res.batch_estimates_per_sec, 0)});
        json.Row()
            .Str("config", label)
            .Str("base_config", c.label)
            .Str("kernel", simd::ActiveKernel())
            .Num("batch_predicts_per_sec", res.batch_predicts_per_sec)
            .Num("batch_estimates_per_sec", res.batch_estimates_per_sec)
            .Num("checksum", res.checksum);
      }
    }
  }
  simd::SetEnabled(true);  // restore the default for anything after us

  json.WriteIfRequested(argc, argv);
  return 0;
}
