#include "dist/worker.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "api/learner.h"
#include "net/wire.h"

namespace wmsketch::dist {

using net::SetIoTimeouts;

namespace {

// An identity rejection can never succeed on retry; everything else
// (timeouts, torn frames, stale sessions, injected faults) is worth another
// attempt.
bool Retryable(const Status& status) {
  return status.code() != StatusCode::kInvalidArgument &&
         status.code() != StatusCode::kUnimplemented;
}

}  // namespace

SyncClient::SyncClient(Method method, SyncClientOptions options)
    : method_(method),
      options_(std::move(options)),
      rng_(options_.jitter_seed != 0
               ? options_.jitter_seed
               : options_.worker_id * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL) {}

SyncClient::~SyncClient() { Close(); }

void SyncClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  handshaken_ = false;
}

void SyncClient::Backoff(int attempt) {
  const int shift = std::min(attempt, 20);
  int64_t delay = static_cast<int64_t>(options_.base_backoff_ms) << shift;
  delay = std::min<int64_t>(delay, options_.max_backoff_ms);
  if (delay <= 0) return;
  // Uniform jitter over [delay/2, delay]: keeps the exponential envelope
  // while decorrelating workers that failed at the same instant.
  std::uniform_int_distribution<int64_t> dist(delay / 2, delay);
  std::this_thread::sleep_for(std::chrono::milliseconds(dist(rng_)));
}

Status SyncClient::Dial() {
  Close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(), options_.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(std::string("socket failed: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Status::IOError("connect failed for '" + options_.socket_path +
                                      "': " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (const Status st = SetIoTimeouts(fd, options_.io_timeout_ms); !st.ok()) {
    ::close(fd);
    return st;
  }
  fd_ = fd;
  return Status::OK();
}

Status SyncClient::Handshake(const BudgetedClassifier& model) {
  HelloPayload hello;
  hello.worker_id = options_.worker_id;
  hello.session_token = session_token_;
  hello.acked_sync_seq = acked_seq_;
  WMS_ASSIGN_OR_RETURN(hello.identity, MergeIdentityOf(method_, model));
  WMS_RETURN_NOT_OK(SendFrame(fd_, FrameType::kHello, EncodeHello(hello)));
  WMS_ASSIGN_OR_RETURN(const Frame reply, RecvFrame(fd_));
  if (reply.type == FrameType::kError) return DecodeErrorStatus(reply.payload);
  if (reply.type != FrameType::kHelloAck) {
    return Status::Corruption(std::string("expected hello-ack, got ") +
                              FrameTypeName(reply.type));
  }
  WMS_ASSIGN_OR_RETURN(const HelloAckPayload ack, DecodeHelloAck(reply.payload));
  session_token_ = ack.session_token;
  if (ack.resume_ok == 0) {
    // The aggregator has no baseline matching our acked state (restart, lost
    // replica, first contact): everything before its next_sync_seq is void.
    needs_full_ = true;
    acked_seq_ = ack.next_sync_seq - 1;
  }
  handshaken_ = true;
  return Status::OK();
}

Status SyncClient::EnsureConnected(const BudgetedClassifier& model) {
  if (connected()) return Status::OK();
  if (fd_ < 0) {
    WMS_RETURN_NOT_OK(Dial());
    ++stats_.reconnects;
  }
  return Handshake(model);
}

Status SyncClient::Connect(const BudgetedClassifier& model) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      Backoff(attempt - 1);
    }
    Close();
    last = EnsureConnected(model);
    if (last.ok()) return last;
    if (!Retryable(last)) return last;
  }
  return last;
}

Status SyncClient::TrySyncOnce(BudgetedClassifier& model) {
  WMS_RETURN_NOT_OK(EnsureConnected(model));
  SyncHeader header;
  header.worker_id = options_.worker_id;
  header.session_token = session_token_;
  header.sync_seq = acked_seq_ + 1;
  const bool full = needs_full_;
  DeltaStats delta_stats;
  net::BeginFrame(&frame_,
                  static_cast<uint8_t>(full ? FrameType::kFullState : FrameType::kDelta));
  EncodeSyncHeader(header, &frame_);
  const size_t body_at = frame_.size();
  if (full) {
    // SaveClassifier writes to a stream, so the frame's prefix moves into
    // one, the snapshot is appended, and the buffer moves back: no copy.
    std::ostringstream os(std::move(frame_), std::ios::binary | std::ios::ate);
    WMS_RETURN_NOT_OK(SaveClassifier(method_, model, os));
    frame_ = std::move(os).str();
  } else {
    WMS_RETURN_NOT_OK(SaveDelta(method_, model, &frame_, &delta_stats));
  }
  const size_t body_bytes = frame_.size() - body_at;
  net::SealFrame(&frame_);
  WMS_RETURN_NOT_OK(SendEncodedFrame(fd_, frame_));
  // The ack usually follows within microseconds: poll for it before the
  // blocking read, so the thread is not put to sleep and woken again.
  pollfd reply_ready{fd_, POLLIN, 0};
  const bool ack_within_spin =
      net::SpinPoll(&reply_ready, 1, std::chrono::steady_clock::now() + kSyncSpinBudget) > 0;
  WMS_ASSIGN_OR_RETURN(const Frame reply, RecvFrame(fd_));
  if (reply.type == FrameType::kError) return DecodeErrorStatus(reply.payload);
  if (reply.type != FrameType::kAck) {
    return Status::Corruption(std::string("expected ack, got ") + FrameTypeName(reply.type));
  }
  WMS_ASSIGN_OR_RETURN(const AckPayload ack, DecodeAck(reply.payload));
  if (ack.sync_seq != header.sync_seq) {
    return Status::Corruption("ack for wrong sync sequence");
  }
  // The aggregator's replica now matches the model: the next delta carries
  // the cells written from here on. The first sync is always full, so
  // recording starts at its ack.
  WMS_RETURN_NOT_OK(BeginDeltaWindow(method_, model));
  acked_seq_ = header.sync_seq;
  needs_full_ = false;
  ++stats_.syncs;
  stats_.acks_within_spin += ack_within_spin ? 1 : 0;
  stats_.bytes_shipped += body_bytes;
  if (full) {
    ++stats_.full_syncs;
  } else {
    ++stats_.delta_syncs;
    stats_.last_pages_shipped = delta_stats.pages_shipped;
    stats_.last_pages_total = delta_stats.pages_total;
    stats_.last_cells_shipped = delta_stats.cells_shipped;
  }
  return Status::OK();
}

Status SyncClient::Sync(BudgetedClassifier& model) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      Backoff(attempt - 1);
    }
    last = TrySyncOnce(model);
    if (last.ok()) return last;
    if (!Retryable(last)) break;
    // Unknown whether the frame landed: drop the connection, re-handshake,
    // and resend. A duplicate of an applied sync is idempotent on the
    // aggregator; a stale-session rejection downgraded us to a full
    // snapshot via the error handler below.
    if (last.code() == StatusCode::kFailedPrecondition ||
        last.code() == StatusCode::kCorruption) {
      needs_full_ = true;
    }
    Close();
  }
  needs_full_ = true;
  return last;
}

Result<std::string> SyncClient::FetchMergedBytes() {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      Backoff(attempt - 1);
    }
    if (fd_ < 0) {
      // kFetchMerged needs no handshake, so a bare redial suffices here.
      last = Dial();
      if (!last.ok()) continue;
      ++stats_.reconnects;
    }
    last = SendFrame(fd_, FrameType::kFetchMerged, "");
    if (last.ok()) {
      Result<Frame> reply = RecvFrame(fd_);
      if (reply.ok()) {
        if (reply.value().type == FrameType::kError) {
          return DecodeErrorStatus(reply.value().payload);
        }
        if (reply.value().type != FrameType::kMergedState) {
          return Status::Corruption(std::string("expected merged-state, got ") +
                                    FrameTypeName(reply.value().type));
        }
        return std::move(reply.value().payload);
      }
      last = reply.status();
    }
    Close();
  }
  return last;
}

Status SyncClient::SendShutdown() {
  if (fd_ < 0) WMS_RETURN_NOT_OK(Dial());
  WMS_RETURN_NOT_OK(SendFrame(fd_, FrameType::kShutdown, ""));
  Result<Frame> reply = RecvFrame(fd_);  // best-effort ack
  Close();
  if (!reply.ok() && reply.status().code() != StatusCode::kNotFound) {
    return reply.status();
  }
  return Status::OK();
}

}  // namespace wmsketch::dist
