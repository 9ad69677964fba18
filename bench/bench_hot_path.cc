// Hot-path microbenchmark: single-threaded updates/sec and queries/sec for
// the WM-Sketch, AWM-Sketch, and feature hashing at the Table 2 best-config
// shapes, with the AVX2 kernel toggled on and off at runtime so one run
// reports the scalar-vs-SIMD speedup on this machine.
//
//   ./bench_hot_path [--json BENCH_hot_path.json] [--reps N]
//                    [--libsvm data.txt[.gz]] [--profile profile.json]
//                    [--dump-profile out.json]
//
// By default the stream is the synthetic RCV1-like generator. --libsvm
// measures a real dataset instead (rows suffixed with the file stem);
// --profile additionally replays a committed sparsity profile (rows suffixed
// with the profile name) — see bench/profiles/ and ResolveBenchStreams.
//
// Rows (one per config × kernel path):
//   updates_per_sec          batched ingest through Learner::UpdateBatch
//   predicts_per_sec         per-call PredictMargin on a trained model
//   batch_predicts_per_sec   chunked Learner::PredictBatch (the serving path)
//   estimates_per_sec        per-call WeightEstimate point queries
//   batch_estimates_per_sec  chunked Learner::EstimateBatch (wide gathers)
//   hashes_per_update        only under -DWMS_HASH_STATS=ON (the field is
//                            omitted otherwise; the single-hash invariant
//                            makes it exactly mean(nnz)·depth)
//
// Each (config, kernel) cell is measured --reps times (default 2) and the
// best rate per metric is kept — the standard microbenchmark noise guard,
// which matters doubly here because scalar and AVX2 share most code and
// should never differ by more than real kernel effects.
//
// Stream lengths scale with WMS_BENCH_SCALE like every other bench.

#include <chrono>
#include <cstdint>

#include "bench/bench_common.h"
#include "hash/tabulation.h"
#include "util/simd.h"

namespace wmsketch::bench {
namespace {

struct HotConfig {
  const char* label;
  Method method;
  uint32_t width;
  uint32_t depth;
  size_t heap;
};

// The Table 2 shape families: WM keeps width at 128–256 and grows depth;
// AWM pairs a depth-1 sketch with an active set of half the budget; feature
// hashing spends the whole budget on one row of weights. wm_w128_d14 is the
// budget planner's 8 KB WM shape and the only row whose avx2 and scalar
// paths run different code: its heap offers take the depth >= 8 median,
// the one kernel with a vector variant.
constexpr HotConfig kConfigs[] = {
    {"wm_w256_d3", Method::kWmSketch, 256, 3, 128},
    {"wm_w256_d5", Method::kWmSketch, 256, 5, 128},
    {"wm_w128_d7", Method::kWmSketch, 128, 7, 128},
    {"wm_w128_d14", Method::kWmSketch, 128, 14, 128},
    {"awm_w256_s256", Method::kAwmSketch, 256, 1, 256},
    {"awm_w512_s512", Method::kAwmSketch, 512, 1, 512},
    {"hash_w4096", Method::kFeatureHashing, 4096, 0, 0},
};

Learner BuildConfig(const HotConfig& c) {
  LearnerBuilder b = PaperBuilder(1e-6, 77).SetMethod(c.method).SetWidth(c.width);
  if (c.depth > 0) b.SetDepth(c.depth);
  if (c.heap > 0) b.SetHeapCapacity(c.heap);
  return BuildOrDie(b.Build());
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Throughput {
  double updates_per_sec = 0.0;
  double predicts_per_sec = 0.0;
  double batch_predicts_per_sec = 0.0;
  double estimates_per_sec = 0.0;
  double batch_estimates_per_sec = 0.0;
  double hashes_per_update = -1.0;
  double margin_checksum = 0.0;  // defeats dead-code elimination; printed

  void MergeBest(const Throughput& other) {
    updates_per_sec = std::max(updates_per_sec, other.updates_per_sec);
    predicts_per_sec = std::max(predicts_per_sec, other.predicts_per_sec);
    batch_predicts_per_sec =
        std::max(batch_predicts_per_sec, other.batch_predicts_per_sec);
    estimates_per_sec = std::max(estimates_per_sec, other.estimates_per_sec);
    batch_estimates_per_sec =
        std::max(batch_estimates_per_sec, other.batch_estimates_per_sec);
    hashes_per_update = std::max(hashes_per_update, other.hashes_per_update);
    margin_checksum = other.margin_checksum;  // identical across reps
  }
};

// Every phase repeats its workload until the measured window reaches this
// floor: a rate read off a few milliseconds is one scheduler hiccup away
// from nonsense, and the CI gate runs on small WMS_BENCH_SCALE streams
// where fixed counts would give exactly such windows.
constexpr double kMinWindowSeconds = 0.12;

template <typename Workload>
double RatePerSec(size_t ops_per_pass, Workload&& workload) {
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
}

// Keeps the timed read loops observable without polluting the emitted
// checksum (which must stay deterministic — see Measure).
volatile double g_timing_sink = 0.0;

Throughput Measure(const HotConfig& c, const std::vector<Example>& stream,
                   uint32_t dimension) {
  constexpr size_t kChunk = 512;
  Throughput out;

  // Timed ingest on a throwaway instance: RatePerSec repeats the sweep a
  // scheduler-dependent number of passes, so the resulting state must not
  // feed the (deterministic) checksum below.
  {
    Learner timing_model = BuildConfig(c);
    // Warm-up: a few chunks so tables/heaps leave their all-zero cold state.
    const size_t warm = std::min<size_t>(2 * kChunk, stream.size() / 4);
    timing_model.UpdateBatch(std::span<const Example>(stream.data(), warm));
    const size_t updates = stream.size() - warm;
#ifdef WMS_HASH_STATS
    g_hash_evaluations = 0;
    uint64_t hash_passes = 0;
#endif
    out.updates_per_sec = RatePerSec(updates, [&] {
      for (size_t at = warm; at < stream.size(); at += kChunk) {
        const size_t n = std::min(kChunk, stream.size() - at);
        timing_model.UpdateBatch(std::span<const Example>(stream.data() + at, n));
      }
#ifdef WMS_HASH_STATS
      ++hash_passes;
#endif
    });
#ifdef WMS_HASH_STATS
    out.hashes_per_update = static_cast<double>(g_hash_evaluations) /
                            static_cast<double>(updates * hash_passes);
#endif
  }

  // Deterministic model state for every read measurement and the checksum:
  // exactly one pass over the stream, independent of timing pass counts.
  Learner model = BuildConfig(c);
  model.UpdateBatch(stream);

  double sink = 0.0;

  // Per-call predicts (reads don't mutate, so timing on `model` is fine).
  const size_t predicts = std::min<size_t>(stream.size(), 20000);
  out.predicts_per_sec = RatePerSec(predicts, [&] {
    for (size_t i = 0; i < predicts; ++i) sink += model.PredictMargin(stream[i].x);
  });

  // Batched predicts (the serving read path): chunked like ingest.
  std::vector<double> margins;
  out.batch_predicts_per_sec = RatePerSec(predicts, [&] {
    for (size_t at = 0; at < predicts; at += kChunk) {
      const size_t n = std::min(kChunk, predicts - at);
      margins.clear();
      model.PredictBatch(std::span<const Example>(stream.data() + at, n), &margins);
    }
    sink += margins.empty() ? 0.0 : margins.back();
  });

  // Per-call point estimates.
  const size_t estimates = 200000;
  out.estimates_per_sec = RatePerSec(estimates, [&] {
    SplitMix64 ids(99);
    for (size_t i = 0; i < estimates; ++i) {
      sink += model.WeightEstimate(static_cast<uint32_t>(ids.Next() % dimension));
    }
  });

  // Batched point estimates (hash-once + one wide gather per chunk).
  std::vector<uint32_t> keys(kChunk);
  std::vector<float> est;
  out.batch_estimates_per_sec = RatePerSec(estimates, [&] {
    SplitMix64 bids(99);
    for (size_t at = 0; at < estimates; at += kChunk) {
      const size_t n = std::min(kChunk, estimates - at);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<uint32_t>(bids.Next() % dimension);
      }
      est.clear();
      model.EstimateBatch(std::span<const uint32_t>(keys.data(), n), &est);
    }
    sink += est.empty() ? 0.0 : static_cast<double>(est.back());
  });
  g_timing_sink = g_timing_sink + sink;

  // The deterministic checksum: one fixed pass over per-call and batched
  // reads of the one-pass model. Identical across reps by construction, and
  // identical across kernel paths whenever the read kernels honor their
  // bit-identity contract — a scalar-vs-avx2 checksum mismatch in the JSON
  // is a kernel bug, not noise.
  double checksum = 0.0;
  const size_t check_predicts = std::min<size_t>(predicts, 2000);
  for (size_t i = 0; i < check_predicts; ++i) {
    checksum += model.PredictMargin(stream[i].x);
  }
  margins.clear();
  model.PredictBatch(std::span<const Example>(stream.data(), check_predicts), &margins);
  for (const double m : margins) checksum += m;
  SplitMix64 check_ids(99);
  std::vector<uint32_t> check_keys(20000);
  for (uint32_t& k : check_keys) {
    k = static_cast<uint32_t>(check_ids.Next() % dimension);
  }
  for (const uint32_t k : check_keys) checksum += model.WeightEstimate(k);
  est.clear();
  model.EstimateBatch(check_keys, &est);
  for (const float e : est) checksum += static_cast<double>(e);
  out.margin_checksum = checksum;
  return out;
}

}  // namespace
}  // namespace wmsketch::bench

int main(int argc, char** argv) {
  using namespace wmsketch;
  using namespace wmsketch::bench;

  const ClassificationProfile profile = ClassificationProfile::Rcv1Like();
  const int examples = ScaledCount(120000);
  const int reps = IntFlagArg(argc, argv, "--reps", 2);
  const std::vector<BenchStreamSpec> streams =
      ResolveBenchStreams(argc, argv, profile, examples, 88);

  Banner("Hot path — single-threaded throughput (Table 2 configs, " +
         std::to_string(streams.front().examples.size()) + " examples, best of " +
         std::to_string(reps) + ")");
  std::printf("simd available: %s (compiled %s)\n", simd::Available() ? "yes" : "no",
#ifdef WMS_SIMD
              "in"
#else
              "out"
#endif
  );
  PrintRow({"config", "kernel", "updates/s", "predicts/s", "batchpred/s",
            "estimates/s", "batchest/s", "hashes/upd"});

  BenchJson json("hot_path");
  for (const BenchStreamSpec& spec : streams) {
    // Kernel paths alternate within each rep (pairwise per config) AND the
    // within-pair order flips every rep, so frequency/steal/thermal drift hits
    // both paths alike — the committed baseline compares them row-against-row,
    // and a kernel that only "wins" because it ran in the systematically
    // quieter slot of each pair would poison the dispatch conclusions.
    const bool kernel_paths[] = {false, true};
    const size_t paths = simd::Available() ? 2 : 1;
    std::vector<Throughput> best(std::size(kConfigs) * paths);
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t ci = 0; ci < std::size(kConfigs); ++ci) {
        for (size_t slot = 0; slot < paths; ++slot) {
          const size_t k = (rep % 2 == 0) ? slot : paths - 1 - slot;
          simd::SetEnabled(kernel_paths[k]);
          best[ci * paths + k].MergeBest(Measure(kConfigs[ci], spec.examples, spec.dimension));
        }
      }
    }
    for (size_t k = 0; k < paths; ++k) {
      simd::SetEnabled(kernel_paths[k]);
      for (size_t ci = 0; ci < std::size(kConfigs); ++ci) {
        const HotConfig& c = kConfigs[ci];
        const Throughput& t = best[ci * paths + k];
        const std::string label = c.label + spec.suffix;
        PrintRow({label, simd::ActiveKernel(), Fmt(t.updates_per_sec, 0),
                  Fmt(t.predicts_per_sec, 0), Fmt(t.batch_predicts_per_sec, 0),
                  Fmt(t.estimates_per_sec, 0), Fmt(t.batch_estimates_per_sec, 0),
                  t.hashes_per_update < 0 ? "n/a" : Fmt(t.hashes_per_update, 1)});
        json.Row()
            .Str("config", label)
            .Str("method", MethodName(c.method))
            .Num("width", c.width)
            .Num("depth", c.depth)
            .Num("heap", static_cast<double>(c.heap))
            .Str("kernel", simd::ActiveKernel())
            .Num("updates_per_sec", t.updates_per_sec)
            .Num("predicts_per_sec", t.predicts_per_sec)
            .Num("batch_predicts_per_sec", t.batch_predicts_per_sec)
            .Num("estimates_per_sec", t.estimates_per_sec)
            .Num("batch_estimates_per_sec", t.batch_estimates_per_sec)
            .Num("checksum", t.margin_checksum);
#ifdef WMS_HASH_STATS
        // Only emitted when the counter is actually compiled in — a -1
        // placeholder in the committed baseline reads like a measurement.
        json.Num("hashes_per_update", t.hashes_per_update);
#endif
      }
    }
  }
  simd::SetEnabled(true);  // restore the default for anything after us
  json.WriteIfRequested(argc, argv);
  return 0;
}
