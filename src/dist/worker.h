#pragma once

#include <cstdint>
#include <random>
#include <string>

#include "core/budget.h"
#include "core/delta_io.h"
#include "dist/frame.h"
#include "dist/protocol.h"

namespace wmsketch::dist {

/// Configuration of a worker-side sync client.
struct SyncClientOptions {
  uint64_t worker_id = 1;
  std::string socket_path;
  /// Retries per operation beyond the first attempt. Each retry backs off
  /// exponentially (base_backoff_ms · 2^k, capped) with uniform jitter, and
  /// reconnects + re-handshakes if the connection died.
  int max_retries = 5;
  int base_backoff_ms = 10;
  int max_backoff_ms = 1000;
  int io_timeout_ms = 2000;
  /// 0: derive from worker_id (deterministic per worker, decorrelated
  /// across workers — retry storms must not synchronize).
  uint64_t jitter_seed = 0;
};

/// Cumulative counters (tests and the bench read these).
struct SyncStats {
  uint64_t syncs = 0;
  /// Syncs whose ack was readable before kSyncSpinBudget ran out, so the
  /// worker never slept waiting for it.
  uint64_t acks_within_spin = 0;
  uint64_t delta_syncs = 0;
  uint64_t full_syncs = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t bytes_shipped = 0;
  /// From the most recent delta sync: pages holding a shipped cell, the
  /// table's page count, and the cells shipped.
  uint64_t last_pages_shipped = 0;
  uint64_t last_pages_total = 0;
  uint64_t last_cells_shipped = 0;
};

/// Worker-side client of the merge aggregator: handshakes the model's merge
/// identity, then ships state — written-cell deltas when the aggregator holds
/// a matching acked baseline, full snapshots otherwise — surviving
/// aggregator restarts (reconnect, re-handshake, full resync) and transient
/// I/O failures within a bounded retry budget. The model itself is owned by
/// the caller; the client only serializes it.
class SyncClient {
 public:
  SyncClient(Method method, SyncClientOptions options);
  ~SyncClient();
  SyncClient(const SyncClient&) = delete;
  SyncClient& operator=(const SyncClient&) = delete;

  /// Dials the aggregator and performs the merge-compatibility handshake
  /// for `model` (with retries). An identity rejection is returned as the
  /// aggregator's InvalidArgument — not retried, it can never succeed.
  Status Connect(const BudgetedClassifier& model);

  /// Ships `model`'s state: a delta of the cells written since the last
  /// acked sync when the aggregator can accept one, a full snapshot
  /// otherwise. Each acked sync opens the model's next delta window, so a
  /// failed attempt keeps its record and the retry re-ships it. Retries
  /// with backoff; reconnects and falls back to a full snapshot on session
  /// loss. On failure the next Sync starts with a full snapshot —
  /// correctness never depends on a delta the aggregator may not have
  /// applied.
  Status Sync(BudgetedClassifier& model);

  /// Fetches the merged model as enveloped learner bytes (LoadLearner
  /// parses them). Requires a prior successful Connect.
  Result<std::string> FetchMergedBytes();

  /// Asks the aggregator to stop serving.
  Status SendShutdown();

  /// Drops the connection (next operation reconnects).
  void Close();

  bool connected() const { return fd_ >= 0 && handshaken_; }
  const SyncStats& stats() const { return stats_; }
  uint64_t session_token() const { return session_token_; }

 private:
  Status Dial();
  Status Handshake(const BudgetedClassifier& model);
  Status EnsureConnected(const BudgetedClassifier& model);
  Status TrySyncOnce(BudgetedClassifier& model);
  void Backoff(int attempt);

  Method method_;
  SyncClientOptions options_;
  int fd_ = -1;
  bool handshaken_ = false;
  uint64_t session_token_ = 0;
  uint64_t acked_seq_ = 0;
  bool needs_full_ = true;
  SyncStats stats_;
  std::mt19937_64 rng_;
  /// The outgoing sync frame, kept across syncs so its capacity is reused:
  /// each sync writes the frame header, sync header and body into it once.
  std::string frame_;
};

}  // namespace wmsketch::dist
