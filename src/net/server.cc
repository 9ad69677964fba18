#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "net/wire.h"

namespace wmsketch::net {

namespace {

/// One accepted connection, owned by exactly one reader thread.
struct Conn {
  int fd = -1;
  /// Raw bytes received and not yet decoded; frames are cut off the front
  /// via TryDecodeFrame. `pos` defers the erase so a drain pass over many
  /// frames is O(bytes), not O(bytes · frames).
  std::string in;
  size_t pos = 0;
  /// Peer closed its write side; serve what is buffered, then close.
  bool eof = false;
};

/// One request decoded in a dispatch round, in per-connection arrival
/// order. Predict/estimate requests carry their slice of the round's
/// combined batch; the response is assembled after the batched dispatch.
struct RoundRequest {
  int fd = -1;
  MsgType type{};
  /// [offset, offset+count) into the round's combined example/feature
  /// arrays (predict and estimate requests).
  size_t offset = 0;
  size_t count = 0;
  /// TopK: requested k. Decode failures: the error to answer with.
  uint32_t k = 0;
  Status error;
};

}  // namespace

/// Per-reader state. Everything except `mu`/`mailbox` and the stats
/// counters is touched only by the owning reader thread.
struct ServingServer::Reader {
  explicit Reader(ServingHandle h) : handle(std::move(h)) {}

  ServingHandle handle;
  std::thread thread;
  int epoll_fd = -1;
  /// eventfd: the acceptor signals new mailbox connections; Stop() signals
  /// termination. Wakes the blocking epoll_wait.
  int wake_fd = -1;

  Mutex mu;
  std::vector<int> mailbox WMS_GUARDED_BY(mu);

  std::unordered_map<int, Conn> conns;

  /// Version-keyed top-K response cache: encoded response bytes per k,
  /// valid for exactly one snapshot version. A publish invalidates the
  /// whole map the first time the reader observes the new version — no
  /// cross-thread protocol, the check rides the pin every query performs.
  uint64_t topk_cache_version = 0;
  std::unordered_map<uint32_t, std::string> topk_cache;

  /// Stats: written by the reader thread, read by stats() cross-thread.
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> corrupt{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batched_requests{0};
  std::atomic<uint64_t> max_coalesced{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> cache_invalidations{0};
};

Result<std::unique_ptr<ServingServer>> ServingServer::Start(
    ServerOptions options, const HandleFactory& factory) {
  if (options.readers < 1 ||
      static_cast<size_t>(options.readers) > ServingState::kMaxHandles) {
    return Status::InvalidArgument("readers must be in [1, " +
                                   std::to_string(ServingState::kMaxHandles) + "]");
  }
  if (options.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument("no listener configured (unix_path or tcp_port)");
  }
  std::unique_ptr<ServingServer> server(new ServingServer());
  server->options_ = options;
  WMS_RETURN_NOT_OK(server->Bind(options));

  for (int i = 0; i < options.readers; ++i) {
    WMS_ASSIGN_OR_RETURN(ServingHandle handle, factory());
    auto reader = std::make_unique<Reader>(std::move(handle));
    reader->epoll_fd = ::epoll_create1(0);
    if (reader->epoll_fd < 0) {
      return Status::IOError(std::string("epoll_create1 failed: ") + std::strerror(errno));
    }
    reader->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (reader->wake_fd < 0) {
      return Status::IOError(std::string("eventfd failed: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = reader->wake_fd;
    if (::epoll_ctl(reader->epoll_fd, EPOLL_CTL_ADD, reader->wake_fd, &ev) != 0) {
      return Status::IOError(std::string("epoll_ctl failed: ") + std::strerror(errno));
    }
    server->readers_.push_back(std::move(reader));
  }
  for (auto& reader : server->readers_) {
    Reader* r = reader.get();
    r->thread = std::thread([server = server.get(), r] { server->ReaderLoop(*r); });
  }
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Status ServingServer::Bind(const ServerOptions& options) {
  accept_wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (accept_wake_fd_ < 0) {
    return Status::IOError(std::string("eventfd failed: ") + std::strerror(errno));
  }
  if (!options.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + options.unix_path);
    }
    std::memcpy(addr.sun_path, options.unix_path.c_str(), options.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError(std::string("socket failed: ") + std::strerror(errno));
    ::unlink(options.unix_path.c_str());  // a stale path from a dead daemon
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const Status st =
          Status::IOError("bind/listen " + options.unix_path + " failed: " + std::strerror(errno));
      ::close(fd);
      return st;
    }
    unix_listen_fd_ = fd;
  }
  if (options.tcp_port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options.tcp_port));
    addr.sin_addr.s_addr = htonl(options.tcp_any ? INADDR_ANY : INADDR_LOOPBACK);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError(std::string("socket failed: ") + std::strerror(errno));
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const Status st = Status::IOError(std::string("bind/listen tcp failed: ") +
                                        std::strerror(errno));
      ::close(fd);
      return st;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      return Status::IOError(std::string("getsockname failed: ") + std::strerror(errno));
    }
    tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    tcp_listen_fd_ = fd;
  }
  return Status::OK();
}

ServingServer::~ServingServer() { Stop(); }

void ServingServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second caller: the first already joined (or is joining) — just make
    // sure we don't return before the threads are gone.
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& r : readers_) {
      if (r->thread.joinable()) r->thread.join();
    }
    return;
  }
  const uint64_t one = 1;
  if (accept_wake_fd_ >= 0) {
    (void)!::write(accept_wake_fd_, &one, sizeof(one));
  }
  for (auto& r : readers_) {
    if (r->wake_fd >= 0) (void)!::write(r->wake_fd, &one, sizeof(one));
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& r : readers_) {
    if (r->thread.joinable()) r->thread.join();
  }
  for (auto& r : readers_) {
    for (auto& [fd, conn] : r->conns) ::close(fd);
    r->conns.clear();
    {
      MutexLock lock(r->mu);
      for (const int fd : r->mailbox) ::close(fd);
      r->mailbox.clear();
    }
    if (r->wake_fd >= 0) ::close(std::exchange(r->wake_fd, -1));
    if (r->epoll_fd >= 0) ::close(std::exchange(r->epoll_fd, -1));
  }
  if (unix_listen_fd_ >= 0) {
    ::close(std::exchange(unix_listen_fd_, -1));
    ::unlink(options_.unix_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) ::close(std::exchange(tcp_listen_fd_, -1));
  if (accept_wake_fd_ >= 0) ::close(std::exchange(accept_wake_fd_, -1));
  {
    MutexLock lock(shutdown_mu_);
    shutdown_requested_.store(true, std::memory_order_release);
  }
  shutdown_cv_.NotifyAll();
}

void ServingServer::WaitForShutdown() {
  MutexLock lock(shutdown_mu_);
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    shutdown_cv_.Wait(shutdown_mu_, lock);
  }
}

ServerStats ServingServer::stats() const {
  ServerStats out;
  for (const auto& r : readers_) {
    out.connections_accepted += r->accepted.load(std::memory_order_relaxed);
    out.connections_dropped += r->dropped.load(std::memory_order_relaxed);
    out.frames_corrupt += r->corrupt.load(std::memory_order_relaxed);
    out.requests_rejected += r->rejected.load(std::memory_order_relaxed);
    out.batches_dispatched += r->batches.load(std::memory_order_relaxed);
    out.requests_batched += r->batched_requests.load(std::memory_order_relaxed);
    out.max_coalesced =
        std::max(out.max_coalesced, r->max_coalesced.load(std::memory_order_relaxed));
    out.topk_cache_hits += r->cache_hits.load(std::memory_order_relaxed);
    out.topk_cache_misses += r->cache_misses.load(std::memory_order_relaxed);
    out.topk_cache_invalidations +=
        r->cache_invalidations.load(std::memory_order_relaxed);
  }
  return out;
}

// ------------------------------------------------------------- acceptor

void ServingServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = pollfd{accept_wake_fd_, POLLIN, 0};
    if (unix_listen_fd_ >= 0) fds[n++] = pollfd{unix_listen_fd_, POLLIN, 0};
    if (tcp_listen_fd_ >= 0) fds[n++] = pollfd{tcp_listen_fd_, POLLIN, 0};
    const int ready = ::poll(fds, n, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // acceptor down; existing connections keep serving
    }
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) != 0) (void)AcceptOne(fds[i].fd);
    }
  }
}

Status ServingServer::AcceptOne(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Status::OK();
    return Status::IOError(std::string("accept failed: ") + std::strerror(errno));
  }
  if (const Status st = SetIoTimeouts(fd, options_.io_timeout_ms); !st.ok()) {
    ::close(fd);
    return st;
  }
  // Round-robin deal to a reader; the reader adopts the fd into its epoll
  // set at the next wake.
  Reader& r = *readers_[next_reader_];
  next_reader_ = (next_reader_ + 1) % readers_.size();
  {
    MutexLock lock(r.mu);
    r.mailbox.push_back(fd);
  }
  r.accepted.fetch_add(1, std::memory_order_relaxed);
  const uint64_t one = 1;
  (void)!::write(r.wake_fd, &one, sizeof(one));
  return Status::OK();
}

// -------------------------------------------------------------- readers

namespace {

void MaxRelaxed(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void ServingServer::ReaderLoop(Reader& r) {
  std::vector<epoll_event> events(64);

  auto drop_conn = [&r](int fd, bool clean) {
    (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    r.conns.erase(fd);
    if (!clean) r.dropped.fetch_add(1, std::memory_order_relaxed);
  };

  auto adopt_mailbox = [this, &r] {
    std::vector<int> incoming;
    {
      MutexLock lock(r.mu);
      incoming.swap(r.mailbox);
    }
    for (const int fd : incoming) {
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        continue;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        r.dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Conn conn;
      conn.fd = fd;
      r.conns.emplace(fd, std::move(conn));
    }
  };

  // Serves one kTopKRequest from the version-keyed cache; a miss encodes a
  // fresh response and caches it for the snapshot version it was served at.
  auto serve_topk = [&r](uint32_t k) -> const std::string& {
    uint64_t version = r.handle.Refresh();
    if (version != r.topk_cache_version) {
      if (r.topk_cache_version != 0) {
        r.cache_invalidations.fetch_add(1, std::memory_order_relaxed);
      }
      r.topk_cache.clear();
      r.topk_cache_version = version;
    }
    const auto it = r.topk_cache.find(k);
    if (it != r.topk_cache.end()) {
      r.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    r.cache_misses.fetch_add(1, std::memory_order_relaxed);
    TopKResponse resp;
    resp.entries = r.handle.TopK(k);
    resp.version = r.handle.version();
    if (resp.version != version) {
      // A publish landed between the refresh and the copy (vanishingly
      // rare): key the entry under the version actually served.
      r.topk_cache.clear();
      r.topk_cache_version = resp.version;
    }
    return r.topk_cache.emplace(k, EncodeTopKResponse(resp)).first->second;
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(r.epoll_fd, events.data(), static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }

    // Deadline-or-size batch accumulation: after the blocking wait returns,
    // keep taking zero-timeout passes while connections are still becoming
    // readable — the burst is over (and the batch is cut) the moment a pass
    // comes back empty, so idle traffic never waits on a timer. The size
    // cut is enforced by the drain below; the passes here just bound how
    // much buffered input a round can see.
    std::vector<int> dropped_fds;
    for (int pass = 0; pass < 16; ++pass) {
      bool any_conn = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == r.wake_fd) {
          uint64_t drain = 0;
          (void)!::read(r.wake_fd, &drain, sizeof(drain));
          adopt_mailbox();
          continue;
        }
        const auto it = r.conns.find(fd);
        if (it == r.conns.end()) continue;
        any_conn = true;
        Conn& conn = it->second;
        if (!ReadAvailable(fd, &conn.in, &conn.eof, "net:recv")) dropped_fds.push_back(fd);
      }
      if (stopping_.load(std::memory_order_acquire)) break;
      if (!any_conn && pass > 0) break;
      n = ::epoll_wait(r.epoll_fd, events.data(), static_cast<int>(events.size()), 0);
      if (n <= 0) break;
    }
    for (const int fd : dropped_fds) {
      if (r.conns.count(fd) != 0) drop_conn(fd, /*clean=*/false);
    }
    if (stopping_.load(std::memory_order_acquire)) break;

    // Dispatch rounds until every buffered complete frame is answered. Each
    // round coalesces at most max_batch examples (the size cut); the loop
    // re-runs for whatever stayed buffered.
    bool more = true;
    while (more && !stopping_.load(std::memory_order_acquire)) {
      more = false;
      std::vector<RoundRequest> round;
      std::vector<Example> examples;
      std::vector<uint32_t> features;
      std::vector<int> to_drop;
      std::vector<int> to_drop_clean;

      for (auto& [fd, conn] : r.conns) {
        bool conn_dead = false;
        while (examples.size() < options_.max_batch &&
               features.size() < options_.max_batch) {
          TypedFrame frame;
          size_t consumed = 0;
          const std::string_view buffered(conn.in.data() + conn.pos,
                                          conn.in.size() - conn.pos);
          const Status st =
              TryDecodeFrame(buffered, kMinMsgType, kMaxMsgType, &frame, &consumed);
          if (!st.ok()) {
            // Framing is lost: answer (best-effort) and drop the connection.
            r.corrupt.fetch_add(1, std::memory_order_relaxed);
            (void)SendFrame(fd, static_cast<uint8_t>(MsgType::kErrorResponse),
                            EncodeError(st), "net:send");
            to_drop.push_back(fd);
            conn_dead = true;
            break;
          }
          if (consumed == 0) break;  // incomplete frame: wait for more bytes
          conn.pos += consumed;

          RoundRequest req;
          req.fd = fd;
          req.type = static_cast<MsgType>(frame.type);
          switch (req.type) {
            case MsgType::kPredictRequest: {
              Result<PredictRequest> decoded = DecodePredictRequest(frame.payload);
              if (!decoded.ok()) {
                req.error = decoded.status();
              } else {
                PredictRequest request = std::move(decoded).value();
                req.offset = examples.size();
                req.count = request.examples.size();
                for (Example& example : request.examples) {
                  examples.push_back(std::move(example));
                }
              }
              break;
            }
            case MsgType::kEstimateRequest: {
              Result<EstimateRequest> decoded = DecodeEstimateRequest(frame.payload);
              if (!decoded.ok()) {
                req.error = decoded.status();
              } else {
                const EstimateRequest& request = decoded.value();
                req.offset = features.size();
                req.count = request.features.size();
                features.insert(features.end(), request.features.begin(),
                                request.features.end());
              }
              break;
            }
            case MsgType::kTopKRequest: {
              Result<TopKRequest> decoded = DecodeTopKRequest(frame.payload);
              if (!decoded.ok()) {
                req.error = decoded.status();
              } else {
                req.k = decoded.value().k;
              }
              break;
            }
            case MsgType::kModelInfoRequest:
            case MsgType::kShutdownRequest:
              break;
            default:
              req.error = Status::InvalidArgument(
                  std::string("unexpected frame on a serving connection: ") +
                  MsgTypeName(req.type));
              break;
          }
          round.push_back(std::move(req));
        }
        if (conn_dead) continue;
        // Compact the consumed prefix once per round, not once per frame.
        if (conn.pos > 0) {
          conn.in.erase(0, conn.pos);
          conn.pos = 0;
        }
        if (conn.in.size() > 0 &&
            (examples.size() >= options_.max_batch ||
             features.size() >= options_.max_batch)) {
          more = true;  // size cut hit with frames still buffered
        }
        if (conn.eof) {
          if (conn.in.empty()) {
            to_drop_clean.push_back(fd);  // clean close between frames
          } else {
            // EOF inside a frame: the peer died mid-send (torn frame).
            r.corrupt.fetch_add(1, std::memory_order_relaxed);
            to_drop.push_back(fd);
          }
        }
      }

      // The micro-batch dispatch: one snapshot pin + one SIMD batch kernel
      // call for every example (and every feature key) the round gathered,
      // regardless of how many connections they arrived on.
      std::vector<double> margins(examples.size());
      uint64_t predict_version = 0;
      if (!examples.empty()) {
        r.handle.PredictBatch(examples, margins.data());
        predict_version = r.handle.version();
        r.batches.fetch_add(1, std::memory_order_relaxed);
      }
      std::vector<float> estimates(features.size());
      uint64_t estimate_version = 0;
      if (!features.empty()) {
        r.handle.EstimateBatch(features, estimates.data());
        estimate_version = r.handle.version();
        r.batches.fetch_add(1, std::memory_order_relaxed);
      }

      uint64_t coalesced = 0;
      for (const RoundRequest& req : round) {
        if (req.type == MsgType::kPredictRequest ||
            req.type == MsgType::kEstimateRequest) {
          ++coalesced;
        }
      }
      if (coalesced > 0) {
        r.batched_requests.fetch_add(coalesced, std::memory_order_relaxed);
        MaxRelaxed(r.max_coalesced, coalesced);
      }

      // Answer in arrival order (the round was drained connection by
      // connection, in frame order within each).
      for (const RoundRequest& req : round) {
        if (r.conns.count(req.fd) == 0) continue;  // dropped earlier this round
        uint8_t type = 0;
        std::string payload;
        if (!req.error.ok()) {
          r.rejected.fetch_add(1, std::memory_order_relaxed);
          type = static_cast<uint8_t>(MsgType::kErrorResponse);
          payload = EncodeError(req.error);
        } else {
          switch (req.type) {
            case MsgType::kPredictRequest: {
              PredictResponse resp;
              resp.version = predict_version;
              resp.margins.assign(margins.begin() + static_cast<ptrdiff_t>(req.offset),
                                  margins.begin() +
                                      static_cast<ptrdiff_t>(req.offset + req.count));
              type = static_cast<uint8_t>(MsgType::kPredictResponse);
              payload = EncodePredictResponse(resp);
              break;
            }
            case MsgType::kEstimateRequest: {
              EstimateResponse resp;
              resp.version = estimate_version;
              resp.estimates.assign(
                  estimates.begin() + static_cast<ptrdiff_t>(req.offset),
                  estimates.begin() + static_cast<ptrdiff_t>(req.offset + req.count));
              type = static_cast<uint8_t>(MsgType::kEstimateResponse);
              payload = EncodeEstimateResponse(resp);
              break;
            }
            case MsgType::kTopKRequest:
              type = static_cast<uint8_t>(MsgType::kTopKResponse);
              payload = serve_topk(req.k);
              break;
            case MsgType::kModelInfoRequest: {
              ModelInfoResponse info;
              info.snapshot_version = r.handle.Refresh();
              info.steps = r.handle.steps();
              info.resident_bytes = r.handle.resident_bytes();
              info.top_k_capacity = static_cast<uint32_t>(r.handle.top_k_size());
              type = static_cast<uint8_t>(MsgType::kModelInfoResponse);
              payload = EncodeModelInfoResponse(info);
              break;
            }
            case MsgType::kShutdownRequest:
              type = static_cast<uint8_t>(MsgType::kShutdownAck);
              break;
            default:
              continue;  // unreachable: bad types got req.error above
          }
        }
        const Status sent = SendFrame(req.fd, type, payload, "net:send");
        if (!sent.ok()) {
          drop_conn(req.fd, /*clean=*/false);
          continue;
        }
        if (req.error.ok() && req.type == MsgType::kShutdownRequest) {
          {
            MutexLock lock(shutdown_mu_);
            shutdown_requested_.store(true, std::memory_order_release);
          }
          shutdown_cv_.NotifyAll();
        }
      }

      for (const int fd : to_drop) {
        if (r.conns.count(fd) != 0) drop_conn(fd, /*clean=*/false);
      }
      for (const int fd : to_drop_clean) {
        if (r.conns.count(fd) != 0) drop_conn(fd, /*clean=*/true);
      }
    }
  }
}

}  // namespace wmsketch::net
