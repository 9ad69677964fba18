#include "net/server.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "net/wire.h"

namespace wmsketch::net {

namespace {

/// What a serving connection accepts, and its receive site.
constexpr FrameRules kRequestRules{kMinMsgType, kMaxMsgType,
                                   static_cast<uint8_t>(MsgType::kErrorResponse), "net:recv"};

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

  /// The accepted connections, by fd, each with its inbox.
  std::unordered_map<int, Inbox> conns;

  /// Version-keyed top-K response cache: encoded response bytes per k,
  /// valid for exactly one snapshot version. A publish invalidates the
  /// whole map the first time the reader observes the new version — no
  /// cross-thread protocol, the check rides the round's one pin.
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
    WMS_ASSIGN_OR_RETURN(unix_listener_, Listener::Unix(options.unix_path, 64));
  }
  if (options.tcp_port >= 0) {
    WMS_ASSIGN_OR_RETURN(tcp_listener_, Listener::Tcp(options.tcp_port, options.tcp_any, 64));
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
  unix_listener_ = Listener();
  tcp_listener_ = Listener();
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
  Listener* const listeners[] = {&unix_listener_, &tcp_listener_};
  while (!stopping_.load(std::memory_order_acquire)) {
    // poll(2) skips the entry of a listener that is not open (fd -1).
    pollfd fds[] = {{accept_wake_fd_, POLLIN, 0},
                    {unix_listener_.fd(), POLLIN, 0},
                    {tcp_listener_.fd(), POLLIN, 0}};
    if (::poll(fds, 3, -1) < 0) {
      if (errno == EINTR) continue;
      return;  // acceptor down; existing connections keep serving
    }
    for (int i = 0; i < 2; ++i) {
      if ((fds[i + 1].revents & POLLIN) == 0) continue;
      const int fd = listeners[i]->Accept(options_.io_timeout_ms);
      if (fd < 0) continue;
      // Round-robin deal to a reader; the reader adopts the fd into its
      // epoll set at the next wake.
      Reader& r = *readers_[next_reader_];
      next_reader_ = (next_reader_ + 1) % readers_.size();
      {
        MutexLock lock(r.mu);
        r.mailbox.push_back(fd);
      }
      r.accepted.fetch_add(1, std::memory_order_relaxed);
      const uint64_t one = 1;
      (void)!::write(r.wake_fd, &one, sizeof(one));
    }
  }
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
      r.conns.emplace(fd, Inbox(kRequestRules));
    }
  };

  // Serves one kTopKRequest from the version-keyed cache; a miss encodes
  // `snap`'s top-K and caches it under the snapshot's version.
  auto serve_topk = [&r](const ServingSnapshot& snap, uint32_t k) -> const std::string& {
    if (snap.version != r.topk_cache_version) {
      if (r.topk_cache_version != 0) {
        r.cache_invalidations.fetch_add(1, std::memory_order_relaxed);
      }
      r.topk_cache.clear();
      r.topk_cache_version = snap.version;
    }
    const auto it = r.topk_cache.find(k);
    if (it != r.topk_cache.end()) {
      r.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    r.cache_misses.fetch_add(1, std::memory_order_relaxed);
    TopKResponse resp;
    resp.version = snap.version;
    resp.entries.assign(snap.top_k.begin(),
                        snap.top_k.begin() + std::min<size_t>(k, snap.top_k.size()));
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
        if (!it->second.Fill(fd)) dropped_fds.push_back(fd);
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
      // One pin per round: every reply of the round answers from this one
      // snapshot and carries its version, so replies that go out in arrival
      // order never step back a version on a pipelined connection.
      r.handle.Refresh();
      const ServingSnapshot& snap = r.handle.pinned();
      std::vector<RoundRequest> round;
      std::vector<Example> examples;
      std::vector<uint32_t> features;
      std::vector<int> to_drop;
      std::vector<int> to_drop_clean;

      for (auto& [fd, inbox] : r.conns) {
        bool conn_dead = false;
        while (examples.size() < options_.max_batch &&
               features.size() < options_.max_batch) {
          FrameView frame;
          bool got = false;
          const Status st = inbox.Next(&frame, &got);
          if (!st.ok()) {
            // Framing is lost: answer (best-effort) and drop the connection.
            r.corrupt.fetch_add(1, std::memory_order_relaxed);
            (void)SendFrame(fd, static_cast<uint8_t>(MsgType::kErrorResponse),
                            EncodeError(st), "net:send");
            to_drop.push_back(fd);
            conn_dead = true;
            break;
          }
          if (!got) break;  // incomplete frame: wait for more bytes

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
        // The size cut can leave complete frames buffered; they are served
        // in the next round, and only then does an EOF say how it ended.
        const bool cut = !inbox.empty() && (examples.size() >= options_.max_batch ||
                                            features.size() >= options_.max_batch);
        more = more || cut;
        if (inbox.eof() && !cut) {
          if (inbox.empty()) {
            to_drop_clean.push_back(fd);  // clean close between frames
          } else {
            // EOF inside a frame: the peer died mid-send (torn frame).
            r.corrupt.fetch_add(1, std::memory_order_relaxed);
            to_drop.push_back(fd);
          }
        }
      }

      // The micro-batch dispatch: one batch kernel call on the pinned model
      // for every example (and every feature key) the round gathered,
      // regardless of how many connections they arrived on.
      std::vector<double> margins(examples.size());
      if (!examples.empty()) {
        snap.model->PredictBatch(examples, margins.data());
        r.batches.fetch_add(1, std::memory_order_relaxed);
      }
      std::vector<float> estimates(features.size());
      if (!features.empty()) {
        snap.model->EstimateBatch(features, estimates.data());
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
              resp.version = snap.version;
              resp.margins.assign(margins.begin() + static_cast<ptrdiff_t>(req.offset),
                                  margins.begin() +
                                      static_cast<ptrdiff_t>(req.offset + req.count));
              type = static_cast<uint8_t>(MsgType::kPredictResponse);
              payload = EncodePredictResponse(resp);
              break;
            }
            case MsgType::kEstimateRequest: {
              EstimateResponse resp;
              resp.version = snap.version;
              resp.estimates.assign(
                  estimates.begin() + static_cast<ptrdiff_t>(req.offset),
                  estimates.begin() + static_cast<ptrdiff_t>(req.offset + req.count));
              type = static_cast<uint8_t>(MsgType::kEstimateResponse);
              payload = EncodeEstimateResponse(resp);
              break;
            }
            case MsgType::kTopKRequest:
              type = static_cast<uint8_t>(MsgType::kTopKResponse);
              payload = serve_topk(snap, req.k);
              break;
            case MsgType::kModelInfoRequest: {
              ModelInfoResponse info;
              info.snapshot_version = snap.version;
              info.steps = snap.steps;
              info.resident_bytes = snap.resident_bytes;
              info.top_k_capacity = static_cast<uint32_t>(snap.top_k.size());
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
