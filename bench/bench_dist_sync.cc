// Distributed sync payload sizes: per-sync bytes of a written-cell (WMD2)
// delta as a function of how many examples the window ingested, against the
// full-snapshot fallback cost. The claim under test: delta bytes scale with
// the cells a window writes, so a lightly-updated worker ships a small
// fraction of its table, while the fallback pays the full model every time.
//
//   $ ./bench_dist_sync [--json BENCH_dist_sync.json]
//
// Columns: examples ingested inside one delta window, cells shipped, pages
// holding a shipped cell / total, delta payload bytes, full snapshot bytes,
// their ratio, and the two ends' CPU cost of the delta: encode_us, the median
// of kTimingReps SaveDelta calls into a reused buffer, and apply_us, the
// median of kTimingReps ApplyDelta calls, each onto a fresh copy of the
// replica as it was when the window opened (the copy is made outside the
// timer). Every byte count is a deterministic function of the stream seed
// and WMS_BENCH_SCALE, so CI gates delta_bytes raw against the committed
// BENCH_dist_sync.json (rows join on config and kernel); the timings are
// printed and written, not gated.
//
// A second table times the whole round trip: a SyncClient syncing 16-example
// windows into an in-process Aggregator over a Unix socket, the aggregator
// polled on its own thread as perfbench `sync` polls it. Columns: syncs
// timed, SyncClient::Sync latency p50/p99 (encode, send, the aggregator's
// apply, the ack), and acks_in_spin, the share of syncs whose ack was
// readable within dist::kSyncSpinBudget — the property the busy-poll on
// both ends depends on. The row (awm64k_roundtrip_win16) has no committed
// baseline, so CI prints it and gates nothing on it.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/delta_io.h"
#include "dist/aggregator.h"
#include "dist/worker.h"

namespace wmsketch::bench {
namespace {

constexpr int kTimingReps = 101;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<Learner> Build() {
  return LearnerBuilder()
      .SetMethod(Method::kAwmSketch)
      .SetWidth(65536)
      .SetDepth(1)
      .SetHeapCapacity(512)
      .SetLambda(1e-6)
      .SetLearningRate(LearningRate::InverseSqrt(0.1))
      .SetSeed(42)
      .Build();
}

// The round-trip table (see the header comment); 0 on success.
int RunRoundTrip(BenchJson& json) {
  constexpr int kWindow = 16;
  Result<Learner> built = Build();
  if (!built.ok()) return 1;
  Learner learner = std::move(built).value();
  dist::AggregatorOptions options;
  options.config = learner.config();
  options.opts = learner.options();
  Result<dist::Aggregator> created = dist::Aggregator::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "aggregator failed: %s\n", created.status().ToString().c_str());
    return 1;
  }
  dist::Aggregator agg = std::move(created).value();
  const std::string path = "/tmp/wms_bench_sync_" + std::to_string(::getpid());
  if (const Status st = agg.Bind(path); !st.ok()) {
    std::fprintf(stderr, "bind failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) (void)agg.PollOnce(2);
  });

  dist::SyncClientOptions copts;
  copts.worker_id = 1;
  copts.socket_path = path;
  dist::SyncClient client(learner.method(), copts);
  SyntheticClassificationGen gen(ClassificationProfile::Rcv1Like(), 7);
  std::vector<Example> stream;
  for (int i = 0; i < ScaledCount(20000); ++i) stream.push_back(gen.Next());
  learner.UpdateBatch(stream);
  Status st = client.Connect(learner.impl());
  if (st.ok()) st = client.Sync(learner.impl());  // the full snapshot

  const int syncs = std::max(100, ScaledCount(4000));
  const uint64_t in_spin_before = client.stats().acks_within_spin;
  std::vector<double> sync_us;
  for (int i = 0; i < syncs && st.ok(); ++i) {
    stream.clear();
    for (int j = 0; j < kWindow; ++j) stream.push_back(gen.Next());
    learner.UpdateBatch(stream);
    const double t0 = NowUs();
    st = client.Sync(learner.impl());
    sync_us.push_back(NowUs() - t0);
  }
  stop = true;
  poller.join();
  if (!st.ok()) {
    std::fprintf(stderr, "sync failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double in_spin = static_cast<double>(client.stats().acks_within_spin - in_spin_before) /
                         static_cast<double>(syncs);
  const double p50 = Percentile(sync_us, 50);
  const double p99 = Percentile(sync_us, 99);

  Banner("dist sync: round trip, SyncClient to in-process Aggregator (Unix socket)");
  PrintRow({"window_examples", "syncs", "sync_us_p50", "sync_us_p99", "acks_in_spin"});
  PrintRow({std::to_string(kWindow), std::to_string(syncs), Fmt(p50, 2), Fmt(p99, 2),
            Fmt(in_spin, 3)});
  json.Row()
      .Str("config", "awm64k_roundtrip_win" + std::to_string(kWindow))
      .Str("kernel", "wmd2")
      .Num("window_examples", kWindow)
      .Num("syncs", syncs)
      .Num("sync_us_p50", p50)
      .Num("sync_us_p99", p99)
      .Num("acks_in_spin", in_spin);
  return 0;
}

int Run(int argc, char** argv) {
  Banner("dist sync: delta bytes vs written cells (AWM, 64K-cell table)");
  PrintRow({"window_examples", "cells", "pages", "delta_B", "full_B", "delta/full",
            "encode_us", "apply_us"});

  BenchJson json("dist_sync");
  const int kWindows[] = {0, 1, 10, 100, 1000, 10000, 40000};

  for (const int window_examples : kWindows) {
    Result<Learner> built = Build();
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    Learner learner = std::move(built).value();

    // Warm the model outside the window so the delta measures only what the
    // window itself dirtied — the steady-state sync cost, not cold start.
    SyntheticClassificationGen gen(ClassificationProfile::Rcv1Like(), 7);
    std::vector<Example> stream;
    const int warm = ScaledCount(20000);
    stream.reserve(static_cast<size_t>(warm));
    for (int i = 0; i < warm; ++i) stream.push_back(gen.Next());
    learner.UpdateBatch(stream);

    // The aggregator's replica as the window opens, which the delta applies
    // to. Copied before the window, since a replica records no window.
    const std::unique_ptr<BudgetedClassifier> replica = learner.impl().Clone();
    if (const Status st = BeginDeltaWindow(learner.method(), learner.impl()); !st.ok()) {
      std::fprintf(stderr, "window failed: %s\n", st.ToString().c_str());
      return 1;
    }
    stream.clear();
    for (int i = 0; i < window_examples; ++i) stream.push_back(gen.Next());
    if (!stream.empty()) learner.UpdateBatch(stream);

    std::string delta;
    DeltaStats stats;
    const Status st = SaveDelta(learner.method(), learner.impl(), &delta, &stats);
    if (!st.ok()) {
      std::fprintf(stderr, "delta failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::ostringstream full(std::ios::binary);
    if (!SaveClassifier(learner.method(), learner.impl(), full).ok()) return 1;

    std::vector<double> encode_us, apply_us;
    std::string reused;
    for (int rep = 0; rep < kTimingReps; ++rep) {
      reused.clear();
      const double t0 = NowUs();
      const Status saved = SaveDelta(learner.method(), learner.impl(), &reused, nullptr);
      encode_us.push_back(NowUs() - t0);
      const std::unique_ptr<BudgetedClassifier> copy = replica->Clone();
      const double t1 = NowUs();
      const Status applied = ApplyDelta(learner.method(), *copy, delta);
      apply_us.push_back(NowUs() - t1);
      if (!saved.ok() || !applied.ok() || reused != delta) {
        std::fprintf(stderr, "timed delta failed: %s / %s\n", saved.ToString().c_str(),
                     applied.ToString().c_str());
        return 1;
      }
    }
    const double encode = Percentile(encode_us, 50);
    const double apply = Percentile(apply_us, 50);

    const double delta_bytes = static_cast<double>(delta.size());
    const double full_bytes = static_cast<double>(full.str().size());
    const std::string pages = std::to_string(stats.pages_shipped) + "/" +
                              std::to_string(stats.pages_total);
    PrintRow({std::to_string(window_examples), std::to_string(stats.cells_shipped), pages,
              Fmt(delta_bytes, 0), Fmt(full_bytes, 0), Fmt(delta_bytes / full_bytes, 3),
              Fmt(encode, 2), Fmt(apply, 2)});
    json.Row()
        .Str("config", "awm64k_win" + std::to_string(window_examples))
        .Str("kernel", "wmd2")
        .Num("window_examples", window_examples)
        .Num("cells_shipped", static_cast<double>(stats.cells_shipped))
        .Num("pages_shipped", static_cast<double>(stats.pages_shipped))
        .Num("pages_total", static_cast<double>(stats.pages_total))
        .Num("delta_bytes", delta_bytes)
        .Num("full_bytes", full_bytes)
        .Num("delta_to_full_ratio", delta_bytes / full_bytes)
        .Num("encode_us", encode)
        .Num("apply_us", apply);
  }

  if (RunRoundTrip(json) != 0) return 1;
  json.WriteIfRequested(argc, argv);
  return 0;
}

}  // namespace
}  // namespace wmsketch::bench

int main(int argc, char** argv) { return wmsketch::bench::Run(argc, argv); }
