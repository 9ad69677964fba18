// Distributed sync payload sizes: per-sync bytes of a dirty-page delta as a
// function of how much of the table the window dirtied, against the
// full-snapshot fallback cost. The claim under test: delta bytes scale with
// dirty pages, so a lightly-updated worker ships a small fraction of its
// table, while the fallback pays the full model every time.
//
//   $ ./bench_dist_sync [--json BENCH_dist_sync.json]
//
// Columns: fraction of the stream ingested inside one delta window, pages
// shipped / total, delta payload bytes, full snapshot bytes, and the ratio.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/delta_io.h"

namespace wmsketch::bench {
namespace {

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

int Run(int argc, char** argv) {
  Banner("dist sync: delta bytes vs dirty pages (AWM, 64K-cell table)");
  PrintRow({"window_examples", "pages", "delta_B", "full_B", "delta/full"});

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

    Result<uint64_t> window = BeginDeltaWindow(learner.method(), learner.impl());
    if (!window.ok()) {
      std::fprintf(stderr, "window failed: %s\n", window.status().ToString().c_str());
      return 1;
    }
    stream.clear();
    for (int i = 0; i < window_examples; ++i) stream.push_back(gen.Next());
    if (!stream.empty()) learner.UpdateBatch(stream);

    std::string delta;
    DeltaStats stats;
    const Status st =
        SaveDelta(learner.method(), learner.impl(), window.value(), &delta, &stats);
    if (!st.ok()) {
      std::fprintf(stderr, "delta failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::ostringstream full(std::ios::binary);
    if (!SaveClassifier(learner.method(), learner.impl(), full).ok()) return 1;

    const double delta_bytes = static_cast<double>(delta.size());
    const double full_bytes = static_cast<double>(full.str().size());
    const std::string pages = std::to_string(stats.pages_shipped) + "/" +
                              std::to_string(stats.pages_total);
    PrintRow({std::to_string(window_examples), pages, Fmt(delta_bytes, 0),
              Fmt(full_bytes, 0), Fmt(delta_bytes / full_bytes, 3)});
    json.Row()
        .Num("window_examples", window_examples)
        .Num("pages_shipped", static_cast<double>(stats.pages_shipped))
        .Num("pages_total", static_cast<double>(stats.pages_total))
        .Num("delta_bytes", delta_bytes)
        .Num("full_bytes", full_bytes)
        .Num("delta_to_full_ratio", delta_bytes / full_bytes);
  }

  json.WriteIfRequested(argc, argv);
  return 0;
}

}  // namespace
}  // namespace wmsketch::bench

int main(int argc, char** argv) { return wmsketch::bench::Run(argc, argv); }
