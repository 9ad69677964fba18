#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/budget.h"
#include "core/delta_io.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "engine/checkpoint.h"

namespace wmsketch::dist {

/// Configuration of a merge aggregator.
struct AggregatorOptions {
  /// Shape every worker must match (the aggregator's merge identity is
  /// derived from it); config.method must be a linear sketch (wm/awm).
  BudgetConfig config;
  LearnerOptions opts;
  /// Non-empty: checkpoint the merged model here (CheckpointMerged), and at
  /// Create() recover the newest valid checkpoint as the merged baseline —
  /// the answer served until workers resync after a restart.
  std::string checkpoint_dir;
  size_t keep_last = 3;
  /// The frame deadline: a connection whose unfinished frame is older than
  /// this is dropped, so a worker that dies mid-frame costs one connection,
  /// never a stall of the loop. Also SO_SNDTIMEO on accepted connections.
  /// <= 0: no deadline.
  int io_timeout_ms = 2000;
};

/// The merge aggregator daemon: accepts workers over a Unix-domain socket,
/// verifies each one's merge identity in the handshake, maintains one
/// replica of every worker's model (kept current by written-cell deltas, with
/// full-snapshot fallback), and serves/checkpoints the exact merge of all
/// replicas. Single-threaded poll loop that never blocks on one peer: each
/// readable connection drains what has arrived into its own buffer, and
/// only complete frames are served. Every mutation of aggregator state
/// happens between two fully-validated frames, so a worker crash at any
/// protocol point leaves the replicas either at the previous sync or at the
/// new one — never in between.
///
/// Failure model:
///  * A bad frame (torn, CRC-failing, undecodable) drops that connection;
///    the worker's replica keeps its last synced state and keeps
///    contributing to the merged model ("dead worker degrades").
///  * An incompatible handshake or mismatched session/sequence is answered
///    with kError and zero state mutation.
///  * A delta is validated in full, then committed in place: ApplyDelta
///    checks every header, count, offset and length of the CRC-checked
///    payload before it writes a byte, and copies the cells straight from
///    the received frame into the live replica. A malformed delta, or an
///    injected failure ("dist:merge_apply", which fires before the apply),
///    leaves the replica at its previous sync, byte for byte.
class Aggregator {
 public:
  static Result<Aggregator> Create(const AggregatorOptions& options);

  Aggregator(Aggregator&& other) noexcept;
  Aggregator& operator=(Aggregator&& other) noexcept;
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;
  ~Aggregator();

  /// Binds and listens on `socket_path` (unlinking any stale socket file).
  Status Bind(const std::string& socket_path);

  /// One poll round: accepts pending connections, serves every complete
  /// frame that has arrived and drops connections past their frame
  /// deadline. Waits at most `timeout_ms` for an event (< 0: until one
  /// arrives or a frame deadline passes). Within kSyncSpinBudget of the
  /// last served frame it polls with a zero timeout first, so a stream of
  /// syncs pays no wake-up; once nothing has been served for that long it
  /// blocks at once.
  Status PollOnce(int timeout_ms);

  /// Serves until a kShutdown frame arrives.
  Status ServeUntilShutdown();

  /// The exact merge of all worker replicas (ascending worker id), as
  /// enveloped learner bytes; the recovered checkpoint baseline when no
  /// worker has synced yet; NotFound when neither exists.
  Result<std::string> MergedModelBytes() const;

  /// Writes the merged model as the next checkpoint. Requires a
  /// checkpoint_dir.
  Status CheckpointMerged();

  bool shutdown_requested() const { return shutdown_; }
  /// Workers that have completed at least one sync.
  size_t replica_count() const;
  /// Workers known from a handshake (synced or not).
  size_t worker_count() const { return workers_.size(); }
  uint64_t session_token() const { return session_token_; }
  /// Corrupt checkpoints skipped during Create() recovery ("file: status").
  const std::vector<std::string>& recovery_skipped() const { return recovery_skipped_; }
  /// True when a checkpoint baseline was recovered at Create().
  bool has_baseline() const { return baseline_ != nullptr; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    int fd = -1;
    bool has_worker = false;
    uint64_t worker_id = 0;
    /// Bytes received and not yet served; frames are served in place, then
    /// cut off the front.
    std::string in;
    /// Peer closed its write side; what is buffered is served, then the
    /// connection closes.
    bool eof = false;
    /// When the unfinished frame at the front of `in` began to arrive.
    Clock::time_point partial_since;
  };
  struct WorkerState {
    // Null until the first accepted sync: a handshake alone must not add a
    // zero model to the merge.
    std::unique_ptr<BudgetedClassifier> replica;
    uint64_t acked_seq = 0;
    // The next sync must be a full snapshot (fresh registration, lost
    // session, or a rejected sync); deltas are refused until then so a
    // delta can never land on a baseline it wasn't built against.
    bool needs_full = true;
  };

  Aggregator() = default;

  void CloseAll();
  Status AcceptPending();
  // Waits for an event on pollfds_ (see PollOnce); poll(2)'s result.
  int Wait(int timeout_ms);
  // Reads what has arrived on `conn` and serves every complete frame; sets
  // *close_conn when the connection must drop (bad frame, rejected
  // handshake, EOF).
  Status ServeConnection(Connection& conn, bool* close_conn);
  // Serves one frame of `conn`'s; `payload` views its bytes in conn.in.
  Status ServeFrame(Connection& conn, FrameType type, std::string_view payload,
                    bool* close_conn);
  Status HandleHello(Connection& conn, std::string_view payload, bool* close_conn);
  Status HandleSync(Connection& conn, FrameType type, std::string_view payload,
                    bool* close_conn);
  Result<std::unique_ptr<BudgetedClassifier>> MergedImpl() const;
  Status SendError(int fd, const Status& status);
  Status SendAck(int fd, uint64_t sync_seq);

  AggregatorOptions options_;
  MergeIdentity identity_;
  uint64_t session_token_ = 0;
  int listen_fd_ = -1;
  std::string socket_path_;
  bool shutdown_ = false;
  std::vector<Connection> conns_;
  // Kept across rounds so a served sync allocates nothing: the poll set,
  // rebuilt in place each round, and the ack frame.
  std::vector<pollfd> pollfds_;
  std::string ack_frame_;
  Clock::time_point last_served_;
  std::map<uint64_t, WorkerState> workers_;
  std::unique_ptr<BudgetedClassifier> baseline_;
  std::optional<Checkpointer> checkpointer_;
  std::vector<std::string> recovery_skipped_;
};

}  // namespace wmsketch::dist
