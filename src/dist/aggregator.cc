#include "dist/aggregator.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <random>
#include <sstream>
#include <utility>

#include "util/failpoint.h"

namespace wmsketch::dist {

namespace {

// What a connection's receive buffer keeps after a full snapshot. The
// snapshot is a one-off per connection (its first sync, or a resync) and the
// deltas that follow are a small fraction of it (about 9 kB against 266 kB
// at the perfbench `sync` shape), so its buffer goes back to the allocator
// rather than stay with the connection; what is kept still takes such a
// delta without allocating.
constexpr size_t kKeptBufferBytes = size_t{64} << 10;

uint64_t MintSessionToken() {
  // Uniqueness across restarts is what matters (a worker must never mistake
  // a restarted aggregator for its old session); cryptographic strength is
  // not required.
  std::random_device rd;
  uint64_t token = (uint64_t{rd()} << 32) ^ rd();
  token ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  token ^= static_cast<uint64_t>(::getpid()) << 17;
  return token == 0 ? 1 : token;
}

}  // namespace

Result<Aggregator> Aggregator::Create(const AggregatorOptions& options) {
  WMS_RETURN_NOT_OK(options.config.Validate());
  Aggregator agg;
  agg.options_ = options;
  agg.session_token_ = MintSessionToken();
  {
    // Derive the merge identity from a throwaway instance of the configured
    // shape — the same identity every compatible worker will present.
    const std::unique_ptr<BudgetedClassifier> ref =
        MakeClassifier(options.config, options.opts);
    WMS_ASSIGN_OR_RETURN(agg.identity_, MergeIdentityOf(options.config.method, *ref));
  }
  if (!options.checkpoint_dir.empty()) {
    WMS_ASSIGN_OR_RETURN(Checkpointer ckpt,
                         Checkpointer::Open(options.checkpoint_dir, options.keep_last));
    agg.checkpointer_ = std::move(ckpt);
    Result<Learner> recovered =
        agg.checkpointer_->RecoverLatest(options.opts, &agg.recovery_skipped_);
    if (recovered.ok()) {
      WMS_ASSIGN_OR_RETURN(const MergeIdentity recovered_id,
                           MergeIdentityOf(recovered.value().method(),
                                           recovered.value().impl()));
      WMS_RETURN_NOT_OK(CheckIdentityCompatible(agg.identity_, recovered_id));
      agg.baseline_ = recovered.value().impl().Clone();
    } else if (recovered.status().code() != StatusCode::kNotFound) {
      return recovered.status();
    }
  }
  return agg;
}

Status Aggregator::Bind(const std::string& socket_path) {
  if (listener_.fd() >= 0) return Status::FailedPrecondition("aggregator already bound");
  WMS_ASSIGN_OR_RETURN(listener_, net::Listener::Unix(socket_path, 16));
  return Status::OK();
}

int Aggregator::Wait(int timeout_ms) {
  const Clock::time_point now = Clock::now();
  Clock::time_point until = Clock::time_point::max();
  if (timeout_ms >= 0) until = now + std::chrono::milliseconds(timeout_ms);
  const Clock::time_point spin_until = std::min(until, last_served_ + kSyncSpinBudget);
  if (spin_until > now) {
    const int ready = net::SpinPoll(pollfds_.data(), pollfds_.size(), spin_until);
    if (ready != 0) return ready;
  }
  // The blocking wait also ends at the earliest frame deadline, so a peer
  // stalled mid-frame is dropped on time even when nothing else happens.
  if (options_.io_timeout_ms > 0) {
    for (const Connection& conn : conns_) {
      if (!conn.inbox.empty()) {
        until = std::min(until,
                         conn.partial_since + std::chrono::milliseconds(options_.io_timeout_ms));
      }
    }
  }
  if (until == Clock::time_point::max()) {
    return ::ppoll(pollfds_.data(), pollfds_.size(), nullptr, nullptr);
  }
  const std::chrono::nanoseconds left = std::max(Clock::duration::zero(), until - Clock::now());
  const timespec ts{static_cast<time_t>(left.count() / 1000000000),
                    static_cast<long>(left.count() % 1000000000)};
  return ::ppoll(pollfds_.data(), pollfds_.size(), &ts, nullptr);
}

Status Aggregator::PollOnce(int timeout_ms) {
  if (listener_.fd() < 0) return Status::FailedPrecondition("aggregator not bound");
  std::vector<pollfd>& fds = pollfds_;
  fds.clear();
  fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
  for (const Connection& conn : conns_) fds.push_back(pollfd{conn.fd.get(), POLLIN, 0});
  const int ready = Wait(timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::IOError(std::string("poll failed: ") + std::strerror(errno));
  }
  // Only the connections polled this round may be served: the accept
  // appends past this prefix, and a newcomer has no pollfd entry yet. One
  // accept per poll round keeps the loop fair.
  const size_t polled = conns_.size();
  if ((fds[0].revents & POLLIN) != 0) {
    const int fd = listener_.Accept(options_.io_timeout_ms);
    if (fd >= 0) conns_.emplace_back().fd.reset(fd);
  }
  // Serve back-to-front so erasing a dropped connection stays O(1) and does
  // not shift the pollfd/conn correspondence of entries not yet visited. A
  // connection whose unfinished frame has outlived io_timeout_ms drops too.
  const Clock::time_point now = Clock::now();
  for (size_t i = polled; i-- > 0;) {
    Connection& conn = conns_[i];
    bool close_conn = false;
    Status st;
    if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      st = ServeConnection(conn, &close_conn);
    }
    if (options_.io_timeout_ms > 0 && !conn.inbox.empty() &&
        now - conn.partial_since >= std::chrono::milliseconds(options_.io_timeout_ms)) {
      close_conn = true;
    }
    if (close_conn || !st.ok()) conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
    // Per-connection failures are absorbed: a misbehaving worker drops its
    // connection, it does not stop the daemon.
  }
  return Status::OK();
}

Status Aggregator::ServeUntilShutdown() {
  while (!shutdown_) WMS_RETURN_NOT_OK(PollOnce(-1));
  return Status::OK();
}

Status Aggregator::SendError(int fd, const Status& status) {
  return SendFrame(fd, FrameType::kError, net::EncodeError(status));
}

Status Aggregator::ServeConnection(Connection& conn, bool* close_conn) {
  const bool had_partial = !conn.inbox.empty();
  bool served = false;
  bool served_full = false;
  if (!conn.inbox.Fill(conn.fd.get())) {
    // A read error or an injected fault: the connection is unusable. The
    // worker's replica is untouched — it keeps its last fully-validated
    // sync.
    *close_conn = true;
    return Status::OK();
  }
  while (!*close_conn) {
    net::FrameView frame;
    bool cut = false;
    if (!conn.inbox.Next(&frame, &cut).ok()) {
      // Bad type byte, envelope or checksum: the framing is lost.
      *close_conn = true;
      return Status::OK();
    }
    if (!cut) break;
    const auto type = static_cast<FrameType>(frame.type);
    served = true;
    served_full = served_full || type == FrameType::kFullState;
    const Status st = ServeFrame(conn, type, frame.payload, close_conn);
    last_served_ = Clock::now();
    WMS_RETURN_NOT_OK(st);
  }
  if (served_full) conn.inbox.ShrinkTo(kKeptBufferBytes);
  // EOF between frames is a clean close, inside one a torn frame: either
  // way the connection is done once its complete frames are served.
  if (conn.inbox.eof()) *close_conn = true;
  // A frame that began to arrive in this read starts its deadline now.
  if (!conn.inbox.empty() && (served || !had_partial)) conn.partial_since = Clock::now();
  return Status::OK();
}

Status Aggregator::ServeFrame(Connection& conn, FrameType type, std::string_view payload,
                              bool* close_conn) {
  switch (type) {
    case FrameType::kHello:
      return HandleHello(conn, payload, close_conn);
    case FrameType::kFullState:
    case FrameType::kDelta:
      return HandleSync(conn, type, payload, close_conn);
    case FrameType::kFetchMerged: {
      Result<std::string> merged = MergedModelBytes();
      if (!merged.ok()) return SendError(conn.fd.get(), merged.status());
      return SendFrame(conn.fd.get(), FrameType::kMergedState, merged.value());
    }
    case FrameType::kShutdown:
      shutdown_ = true;
      *close_conn = true;
      return SendAck(conn.fd.get(), 0);
    default:
      *close_conn = true;
      return SendError(conn.fd.get(),
                       Status::InvalidArgument(std::string("unexpected frame type ") +
                                               FrameTypeName(type)));
  }
}

Status Aggregator::HandleHello(Connection& conn, std::string_view payload, bool* close_conn) {
  Result<HelloPayload> decoded = DecodeHello(payload);
  if (!decoded.ok()) {
    *close_conn = true;
    return SendError(conn.fd.get(), decoded.status());
  }
  const HelloPayload& hello = decoded.value();
  // The merge-compatibility gate: a worker whose method, shape, seed, or
  // schedule differs is rejected here, before any of its state frames would
  // even be looked at.
  if (const Status st = CheckIdentityCompatible(identity_, hello.identity); !st.ok()) {
    *close_conn = true;
    return SendError(conn.fd.get(), st);
  }
  conn.has_worker = true;
  conn.worker_id = hello.worker_id;
  WorkerState& ws = workers_[hello.worker_id];  // creates on first contact
  const bool resume_ok = hello.session_token == session_token_ && ws.replica != nullptr &&
                         ws.acked_seq == hello.acked_sync_seq && !ws.needs_full;
  if (!resume_ok) ws.needs_full = true;
  HelloAckPayload ack;
  ack.session_token = session_token_;
  ack.resume_ok = resume_ok ? 1 : 0;
  ack.next_sync_seq = ws.acked_seq + 1;
  return SendFrame(conn.fd.get(), FrameType::kHelloAck, EncodeHelloAck(ack));
}

Status Aggregator::HandleSync(Connection& conn, FrameType type, std::string_view payload,
                              bool* close_conn) {
  if (!conn.has_worker) {
    *close_conn = true;
    return SendError(conn.fd.get(), Status::FailedPrecondition("sync before handshake"));
  }
  std::string_view body;
  Result<SyncHeader> decoded = DecodeSyncHeader(payload, &body);
  if (!decoded.ok()) {
    *close_conn = true;
    return SendError(conn.fd.get(), decoded.status());
  }
  const SyncHeader& header = decoded.value();
  if (header.worker_id != conn.worker_id) {
    *close_conn = true;
    return SendError(conn.fd.get(), Status::InvalidArgument("sync worker id does not match hello"));
  }
  if (header.session_token != session_token_) {
    // A frame from a previous aggregator incarnation: the baseline it was
    // built against no longer exists. The worker must re-handshake and full-
    // resync; its replica here (if any) is untouched.
    return SendError(conn.fd.get(),
                     Status::FailedPrecondition("stale session token; re-handshake"));
  }
  WorkerState& ws = workers_[conn.worker_id];
  // Accept a duplicate of the last acked sequence (a lost ack makes the
  // worker resend; applying again is an idempotent overwrite) or the next.
  if (header.sync_seq != ws.acked_seq && header.sync_seq != ws.acked_seq + 1) {
    ws.needs_full = true;
    return SendError(conn.fd.get(),
                     Status::FailedPrecondition(
                         "sync sequence mismatch (got " + std::to_string(header.sync_seq) +
                         ", expected " + std::to_string(ws.acked_seq + 1) + ")"));
  }

  const failpoint::Action act = WMS_FAILPOINT("dist:merge_apply");
  if (act != failpoint::Action::kOff) {
    ws.needs_full = true;
    return SendError(conn.fd.get(), Status::IOError("injected merge-apply failure"));
  }

  if (type == FrameType::kDelta) {
    if (ws.needs_full || ws.replica == nullptr) {
      return SendError(conn.fd.get(),
                       Status::FailedPrecondition(
                           "full snapshot required before deltas can be applied"));
    }
    // In place, straight from the frame: ApplyDelta validates the whole
    // payload before it writes, so a corrupt delta leaves the replica at its
    // previous sync, byte for byte.
    if (const Status st = ApplyDelta(options_.config.method, *ws.replica, body); !st.ok()) {
      ws.needs_full = true;
      return SendError(conn.fd.get(), st);
    }
  } else {  // kFullState
    // Loaded where it lies in the connection's buffer, which keeps its size
    // for the deltas that follow; the loaded model becomes the replica.
    Method method;
    Result<std::unique_ptr<BudgetedClassifier>> loaded =
        LoadClassifier(body, options_.opts, &method);
    if (!loaded.ok()) return SendError(conn.fd.get(), loaded.status());
    Result<MergeIdentity> loaded_id = MergeIdentityOf(method, *loaded.value());
    if (!loaded_id.ok()) return SendError(conn.fd.get(), loaded_id.status());
    if (const Status st = CheckIdentityCompatible(identity_, loaded_id.value()); !st.ok()) {
      return SendError(conn.fd.get(), st);
    }
    ws.replica = std::move(loaded).value();
    ws.needs_full = false;
  }
  ws.acked_seq = header.sync_seq;
  return SendAck(conn.fd.get(), header.sync_seq);
}

Status Aggregator::SendAck(int fd, uint64_t sync_seq) {
  net::BeginFrame(&ack_frame_, static_cast<uint8_t>(FrameType::kAck));
  EncodeAck(AckPayload{sync_seq}, &ack_frame_);
  net::SealFrame(&ack_frame_);
  return SendEncodedFrame(fd, ack_frame_);
}

Result<std::unique_ptr<BudgetedClassifier>> Aggregator::MergedImpl() const {
  std::unique_ptr<BudgetedClassifier> merged;
  for (const auto& [worker_id, ws] : workers_) {
    if (ws.replica == nullptr) continue;
    if (merged == nullptr) {
      merged = ws.replica->Clone();
    } else {
      WMS_RETURN_NOT_OK(merged->Merge(*ws.replica));
    }
  }
  if (merged != nullptr) return merged;
  if (baseline_ != nullptr) return baseline_->Clone();
  return Status::NotFound("no worker has synced and no checkpoint baseline exists");
}

Result<std::string> Aggregator::MergedModelBytes() const {
  WMS_ASSIGN_OR_RETURN(const std::unique_ptr<BudgetedClassifier> merged, MergedImpl());
  std::ostringstream out(std::ios::binary);
  WMS_RETURN_NOT_OK(SaveClassifier(options_.config.method, *merged, out));
  return std::move(out).str();
}

Status Aggregator::CheckpointMerged() {
  if (!checkpointer_.has_value()) {
    return Status::FailedPrecondition("no checkpoint directory configured");
  }
  WMS_ASSIGN_OR_RETURN(const std::unique_ptr<BudgetedClassifier> merged, MergedImpl());
  return checkpointer_->WriteClassifier(options_.config.method, *merged);
}

size_t Aggregator::replica_count() const {
  size_t n = 0;
  for (const auto& [worker_id, ws] : workers_) n += ws.replica != nullptr ? 1 : 0;
  return n;
}

}  // namespace wmsketch::dist
