// Merge aggregator daemon for distributed training: listens on a Unix-domain
// socket, verifies each worker's merge identity in the handshake, keeps one
// replica per worker current via written-cell deltas (full-snapshot fallback),
// and serves the exact merge of all replicas to any client that asks.
//
//   $ ./dist_aggregator --socket=/tmp/wms.sock [--method=awm] [--budget-kb=8]
//         [--seed=42] [--checkpoint-dir=DIR] [--keep-last=3]
//
// With --checkpoint-dir the newest valid checkpoint is recovered at startup
// and served as the merged baseline until workers resync; corrupt or torn
// checkpoints are skipped with a warning naming each file. Stop it with
// dist_worker --shutdown (or any client sending a shutdown frame).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/learner.h"
#include "dist/aggregator.h"
#include "util/memory_cost.h"

using namespace wmsketch;

namespace {

// Only the linear sketches have exact merge semantics, so only they can be
// aggregated (MergeIdentityOf rejects everything else at Create()).
Result<Method> ParseMergeableMethod(const std::string& name) {
  if (name == "wm") return Method::kWmSketch;
  if (name == "awm") return Method::kAwmSketch;
  return Status::InvalidArgument("method '" + name +
                                 "' has no exact merge; use wm or awm");
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string method_name = "awm";
  std::string checkpoint_dir;
  size_t budget_kb = 8;
  size_t keep_last = 3;
  uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      socket_path = arg + 9;
    } else if (std::strncmp(arg, "--method=", 9) == 0) {
      method_name = arg + 9;
    } else if (std::strncmp(arg, "--budget-kb=", 12) == 0) {
      budget_kb = std::strtoull(arg + 12, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
      checkpoint_dir = arg + 17;
    } else if (std::strncmp(arg, "--keep-last=", 12) == 0) {
      keep_last = std::strtoull(arg + 12, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage: dist_aggregator --socket=PATH [options]\n");
    return 2;
  }

  Result<Method> method = ParseMergeableMethod(method_name);
  if (!method.ok()) {
    std::fprintf(stderr, "error: %s\n", method.status().ToString().c_str());
    return 1;
  }
  Result<BudgetConfig> config = DefaultConfig(method.value(), KiB(budget_kb));
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 1;
  }

  dist::AggregatorOptions options;
  options.config = config.value();
  options.opts.seed = seed;
  options.checkpoint_dir = checkpoint_dir;
  options.keep_last = keep_last;

  Result<dist::Aggregator> created = dist::Aggregator::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "error: %s\n", created.status().ToString().c_str());
    return 1;
  }
  dist::Aggregator agg = std::move(created).value();
  for (const std::string& s : agg.recovery_skipped()) {
    std::fprintf(stderr, "warning: recovery skipped %s\n", s.c_str());
  }
  if (agg.has_baseline()) {
    std::printf("recovered checkpoint baseline from %s\n", checkpoint_dir.c_str());
  }

  if (const Status st = agg.Bind(socket_path); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("aggregator serving %s on %s (session %016llx)\n",
              config.value().ToString().c_str(), socket_path.c_str(),
              static_cast<unsigned long long>(agg.session_token()));

  const Status st = agg.ServeUntilShutdown();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("shutdown requested: %zu worker(s), %zu replica(s)\n", agg.worker_count(),
              agg.replica_count());
  if (!checkpoint_dir.empty() && agg.replica_count() > 0) {
    if (const Status ckpt = agg.CheckpointMerged(); !ckpt.ok()) {
      std::fprintf(stderr, "warning: final checkpoint failed: %s\n",
                   ckpt.ToString().c_str());
    } else {
      std::printf("merged model checkpointed to %s\n", checkpoint_dir.c_str());
    }
  }
  return 0;
}
