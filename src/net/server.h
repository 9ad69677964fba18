#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/serving.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace wmsketch::net {

/// The serving daemon core: an epoll front-end over ServingHandle.
///
/// Layout: one acceptor thread owns the listening sockets (Unix-domain
/// and/or TCP) and deals accepted connections round-robin to N reader
/// threads. Each reader owns an epoll instance, its connections, and ONE
/// ServingHandle (the hazard-slot contract: one handle, one thread) — so
/// readers never share mutable state on the serving path and scale like the
/// in-process bench_serving readers.
///
/// The performance core is micro-batching: a reader drains every complete
/// frame its ready connections have buffered *before* touching the model,
/// then routes all pending predict examples through ONE PredictBatch call
/// and all pending estimate features through ONE EstimateBatch call on the
/// pinned frozen model — one batch dispatch amortized across every request
/// that arrived concurrently. Each dispatch round pins the snapshot ONCE:
/// predict, estimate, top-K and model-info replies all answer from that
/// snapshot and carry its version, so the replies a pipelined connection
/// receives (in arrival order) never step back a version. The batch cut is
/// deadline-or-size: a dispatch fires as soon as either `max_batch`
/// examples are pending (size cut) or a zero-timeout epoll pass finds no
/// more ready connections (the "deadline" is the instant the arrival burst
/// is exhausted — idle traffic is dispatched immediately and never waits on
/// a timer).
///
/// Top-K requests are answered from a reader-local cache keyed on
/// (snapshot version, k): the encoded response bytes are reused until a
/// publish advances the version, which invalidates the whole cache in O(1)
/// observation — no cross-thread invalidation protocol, the version check
/// rides the round's one pin.
///
/// Fault containment: frame-level corruption (bad magic, bad CRC, lying
/// length, unknown type) loses framing, so that connection — and only that
/// connection — is dropped. Payload-level failures on a CRC-valid frame
/// (malformed request content) are answered with an error frame and the
/// connection keeps serving. Failpoint sites "net:recv" / "net:send"
/// inject per-connection faults for the chaos tests.
struct ServerOptions {
  /// Unix-domain socket path ("" = no unix listener). Paths are capped at
  /// 107 bytes, the Unix-domain address limit.
  std::string unix_path;
  /// TCP listen port (-1 = no TCP listener, 0 = kernel-assigned; read the
  /// bound port back via ServingServer::tcp_port()). Binds 127.0.0.1 unless
  /// `tcp_any` — serving sockets default loopback-only.
  int tcp_port = -1;
  bool tcp_any = false;
  /// Reader threads; each owns one epoll loop and one ServingHandle.
  int readers = 1;
  /// Size cut for micro-batches: a dispatch fires once this many examples
  /// (or estimate keys) are pending on a reader.
  size_t max_batch = 256;
  /// SO_RCVTIMEO/SO_SNDTIMEO on accepted connections (<= 0: none). The
  /// readers never block on a read (they drain with MSG_DONTWAIT), so this
  /// bounds only the blocking send of a reply to a client that stopped
  /// reading.
  int io_timeout_ms = 5000;
};

/// Monotonic counters exposed for tests and ops. Snapshot via
/// ServingServer::stats(); values are sums over all reader threads.
struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Connections dropped for any reason other than clean client close
  /// (frame corruption, IO errors, injected faults).
  uint64_t connections_dropped = 0;
  /// Frames rejected as Corruption (each also drops its connection).
  uint64_t frames_corrupt = 0;
  /// CRC-valid requests answered with an error frame (connection kept).
  uint64_t requests_rejected = 0;
  /// Batched-dispatch calls into PredictBatch/EstimateBatch.
  uint64_t batches_dispatched = 0;
  /// Requests that rode a batched dispatch (predict + estimate).
  uint64_t requests_batched = 0;
  /// Largest number of requests coalesced into one dispatch.
  uint64_t max_coalesced = 0;
  uint64_t topk_cache_hits = 0;
  uint64_t topk_cache_misses = 0;
  /// Times a reader observed a version advance and flushed its top-K cache.
  uint64_t topk_cache_invalidations = 0;
};

class ServingServer {
 public:
  /// Acquires one ServingHandle per reader (e.g. from
  /// Learner::AcquireServingHandle). Called options.readers times on the
  /// starting thread; handles migrate onto their reader threads before any
  /// serving happens.
  using HandleFactory = std::function<Result<ServingHandle>()>;

  /// Binds the listeners, spawns the reader + acceptor threads, and starts
  /// serving. InvalidArgument for a configuration with no listener or no
  /// readers; IOError when a bind fails.
  static Result<std::unique_ptr<ServingServer>> Start(ServerOptions options,
                                                      const HandleFactory& factory);

  ~ServingServer();
  ServingServer(const ServingServer&) = delete;
  ServingServer& operator=(const ServingServer&) = delete;

  /// Stops accepting, closes all connections, and joins every thread.
  /// Idempotent; also invoked by the destructor.
  void Stop();

  /// Blocks until a client's kShutdownRequest lands (or Stop() is called).
  /// The daemon main loop: WaitForShutdown() then Stop().
  void WaitForShutdown();

  /// Bound TCP port (meaningful when options.tcp_port >= 0).
  int tcp_port() const { return tcp_listener_.port(); }

  /// Aggregated counters across all readers (weakly consistent — each
  /// counter is internally exact, reads between them are unordered).
  ServerStats stats() const;

 private:
  struct Reader;

  ServingServer() = default;

  Status Bind(const ServerOptions& options);
  void AcceptLoop();
  void ReaderLoop(Reader& reader);

  ServerOptions options_;
  Listener unix_listener_;
  Listener tcp_listener_;
  /// Wakes the acceptor poll on Stop().
  int accept_wake_fd_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};

  mutable Mutex shutdown_mu_;
  CondVar shutdown_cv_;

  std::vector<std::unique_ptr<Reader>> readers_;
  std::thread accept_thread_;
  size_t next_reader_ = 0;
};

}  // namespace wmsketch::net
