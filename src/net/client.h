#pragma once

#include <span>
#include <string>

#include "net/protocol.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace wmsketch::net {

/// Blocking client for the serving RPC protocol (net/protocol.h): one
/// request, one response, over a Unix-domain or TCP connection. Used by the
/// daemon's tests, the load-generator bench, and as the reference
/// implementation for external clients. Single-threaded per instance
/// (requests are serialized on one socket); open one client per thread.
/// Move-only; destroying it closes the connection.
///
/// Failpoint sites "net:client_send" / "net:client_recv" tear the client
/// side of the protocol — distinct from the server's "net:send"/"net:recv"
/// so chaos tests can kill exactly one side in-process.
class ServingClient {
 public:
  static Result<ServingClient> ConnectUnix(const std::string& path,
                                           int io_timeout_ms = 5000);
  static Result<ServingClient> ConnectTcp(const std::string& host, int port,
                                          int io_timeout_ms = 5000);

  /// Batched margins under one snapshot: margins[e] = wᵀ·batch[e].
  Result<PredictResponse> Predict(std::span<const Example> batch);
  /// Batched point estimates under one snapshot.
  Result<EstimateResponse> Estimate(std::span<const uint32_t> features);
  /// The k heaviest materialized features of the latest snapshot.
  Result<TopKResponse> TopK(uint32_t k);
  Result<ModelInfoResponse> ModelInfo();
  /// Asks the daemon to stop serving (acked before the daemon stops).
  Status Shutdown();

  /// The connected socket (tests only — e.g. writing hand-assembled bytes).
  int fd() const { return fd_.get(); }

 private:
  explicit ServingClient(UniqueFd fd);

  /// One request/response exchange through the inbox's reply check: the
  /// payload of a reply of type `expected_response`, viewed in the inbox;
  /// a kErrorResponse comes back as its carried Status.
  Result<std::string_view> Call(MsgType request, std::string_view payload,
                                MsgType expected_response);

  UniqueFd fd_;
  Inbox inbox_;
};

}  // namespace wmsketch::net
