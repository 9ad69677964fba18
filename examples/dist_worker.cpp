// Distributed training worker: trains a sketch on a synthetic stream shard
// and ships its state to a running dist_aggregator — a full snapshot first,
// written-cell deltas afterwards — surviving aggregator restarts and transient
// I/O failures through the client's bounded retry/backoff budget.
//
//   $ ./dist_aggregator --socket=/tmp/wms.sock &
//   $ ./dist_worker --socket=/tmp/wms.sock --worker-id=1 --shard-seed=7
//   $ ./dist_worker --socket=/tmp/wms.sock --worker-id=2 --shard-seed=13
//   $ ./dist_worker --socket=/tmp/wms.sock --fetch      # print merged stats
//   $ ./dist_worker --socket=/tmp/wms.sock --shutdown
//
// The worker's shape options must match the aggregator's exactly — method,
// budget, seed, rate, lambda — or the handshake rejects it before any state
// is shipped. Chaos-test the pair with WMS_FAILPOINTS, e.g.
// WMS_FAILPOINTS="dist:send=short:1" makes this worker tear its first frame.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "dist/worker.h"
#include "util/memory_cost.h"

using namespace wmsketch;

int main(int argc, char** argv) {
  std::string socket_path;
  std::string method_name = "awm";
  size_t budget_kb = 8;
  uint64_t seed = 42;
  uint64_t worker_id = 1;
  uint64_t shard_seed = 7;
  int rounds = 4;
  int examples_per_round = 5000;
  bool fetch_only = false;
  bool shutdown_only = false;

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
    } else if (std::strncmp(arg, "--worker-id=", 12) == 0) {
      worker_id = std::strtoull(arg + 12, nullptr, 10);
    } else if (std::strncmp(arg, "--shard-seed=", 13) == 0) {
      shard_seed = std::strtoull(arg + 13, nullptr, 10);
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      rounds = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--examples=", 11) == 0) {
      examples_per_round = std::atoi(arg + 11);
    } else if (std::strcmp(arg, "--fetch") == 0) {
      fetch_only = true;
    } else if (std::strcmp(arg, "--shutdown") == 0) {
      shutdown_only = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage: dist_worker --socket=PATH [options]\n");
    return 2;
  }

  const Method method = method_name == "wm" ? Method::kWmSketch : Method::kAwmSketch;
  dist::SyncClientOptions copts;
  copts.worker_id = worker_id;
  copts.socket_path = socket_path;
  dist::SyncClient client(method, copts);

  if (shutdown_only) {
    const Status st = client.SendShutdown();
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("aggregator asked to shut down\n");
    return 0;
  }
  if (fetch_only) {
    Result<std::string> merged = client.FetchMergedBytes();
    if (!merged.ok()) {
      std::fprintf(stderr, "error: %s\n", merged.status().ToString().c_str());
      return 1;
    }
    std::istringstream in(merged.value(), std::ios::binary);
    LearnerOptions opts;
    opts.seed = seed;
    Result<Learner> loaded = LoadLearner(in, opts);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("merged model: %s, %llu steps, %zu bytes on the wire\n",
                loaded.value().config().ToString().c_str(),
                static_cast<unsigned long long>(loaded.value().steps()), merged.value().size());
    return 0;
  }

  Result<Learner> built = LearnerBuilder()
                              .SetMethod(method)
                              .SetBudgetBytes(KiB(budget_kb))
                              .SetSeed(seed)
                              .Build();
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  Learner learner = std::move(built).value();

  if (const Status st = client.Connect(learner.impl()); !st.ok()) {
    std::fprintf(stderr, "error: handshake failed: %s\n", st.ToString().c_str());
    return 1;
  }

  SyntheticClassificationGen gen(ClassificationProfile::Rcv1Like(), shard_seed);
  for (int round = 1; round <= rounds; ++round) {
    std::vector<Example> stream;
    stream.reserve(static_cast<size_t>(examples_per_round));
    for (int i = 0; i < examples_per_round; ++i) stream.push_back(gen.Next());
    learner.UpdateBatch(stream);
    if (const Status st = client.Sync(learner.impl()); !st.ok()) {
      std::fprintf(stderr, "error: sync %d failed: %s\n", round, st.ToString().c_str());
      return 1;
    }
    const dist::SyncStats& s = client.stats();
    std::printf("round %d: synced step %llu (%llu full, %llu delta; last delta %llu cells "
                "on %llu/%llu pages; %llu bytes shipped; %llu retries, %llu reconnects)\n",
                round, static_cast<unsigned long long>(learner.steps()),
                static_cast<unsigned long long>(s.full_syncs),
                static_cast<unsigned long long>(s.delta_syncs),
                static_cast<unsigned long long>(s.last_cells_shipped),
                static_cast<unsigned long long>(s.last_pages_shipped),
                static_cast<unsigned long long>(s.last_pages_total),
                static_cast<unsigned long long>(s.bytes_shipped),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.reconnects));
  }
  return 0;
}
