#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stream/sparse_vector.h"
#include "util/status.h"
#include "util/top_k_heap.h"

namespace wmsketch::net {

/// Payload codecs for the serving RPC protocol (framing: net/wire.h — the
/// same CRC32C envelope the dist sync protocol and the snapshot files use).
/// All payloads are little-endian fixed-field sections encoded with the
/// snapshot WriteRaw/SnapshotReader primitives, so truncation is detected
/// field-by-field and a malformed payload is Corruption, never a partial
/// parse.
///
/// Request/response flow (one request, one response, pipelining allowed —
/// the server answers a connection's requests in arrival order):
///
///   client                                 daemon
///     | -- kPredictRequest {examples} ------->  (micro-batched SIMD margins)
///     | <-- kPredictResponse {version, m[]} --
///     | -- kEstimateRequest {features} ------>  (micro-batched estimates)
///     | <-- kEstimateResponse {version, w[]} -
///     | -- kTopKRequest {k} ----------------->  (version-keyed cache)
///     | <-- kTopKResponse {version, pairs} ---
///     | -- kModelInfoRequest ---------------->
///     | <-- kModelInfoResponse {...} ---------
///     | -- kShutdownRequest ----------------->  (daemon stops serving)
///     | <-- kShutdownAck ---------------------
///
/// A request the daemon cannot serve comes back as kErrorResponse carrying
/// a Status encoded by EncodeError (net/wire.h). Frame-level
/// corruption (bad magic/CRC/oversized length) is different: framing is
/// lost, so the daemon drops that connection — and only that connection.

inline constexpr uint32_t kServingProtocolVersion = 1;

/// Frame types on a serving connection. Values share the u8 type byte
/// namespace with dist::FrameType but live on different sockets; the range
/// starts above dist's so a cross-wired client fails loudly as Corruption.
enum class MsgType : uint8_t {
  kPredictRequest = 32,
  kPredictResponse = 33,
  kEstimateRequest = 34,
  kEstimateResponse = 35,
  kTopKRequest = 36,
  kTopKResponse = 37,
  kModelInfoRequest = 38,
  kModelInfoResponse = 39,
  kErrorResponse = 40,
  kShutdownRequest = 41,
  kShutdownAck = 42,
};

inline constexpr uint8_t kMinMsgType = static_cast<uint8_t>(MsgType::kPredictRequest);
inline constexpr uint8_t kMaxMsgType = static_cast<uint8_t>(MsgType::kShutdownAck);

/// Stable name for logging ("predict", "top-k", ...).
const char* MsgTypeName(MsgType type);

/// kPredictRequest payload: a batch of sparse vectors to score. Decoded
/// straight into Examples (label fixed at +1 — predict never reads it) so
/// the server can hand the batch to ServingHandle::PredictBatch untouched.
struct PredictRequest {
  std::vector<Example> examples;
};

/// kPredictResponse payload: margins[e] = wᵀx under one snapshot — the
/// whole batch is answered by a single pinned version.
struct PredictResponse {
  uint64_t version = 0;
  std::vector<double> margins;
};

/// kEstimateRequest payload: feature ids to point-estimate.
struct EstimateRequest {
  std::vector<uint32_t> features;
};

/// kEstimateResponse payload: estimates[i] = ŵ(features[i]) under one
/// snapshot version.
struct EstimateResponse {
  uint64_t version = 0;
  std::vector<float> estimates;
};

/// kTopKRequest payload.
struct TopKRequest {
  uint32_t k = 0;
};

/// kTopKResponse payload: the min(k, materialized) heaviest features in
/// descending magnitude, as of `version`.
struct TopKResponse {
  uint64_t version = 0;
  std::vector<FeatureWeight> entries;
};

/// kModelInfoResponse payload (the request carries no payload).
struct ModelInfoResponse {
  uint32_t protocol_version = kServingProtocolVersion;
  uint64_t snapshot_version = 0;
  uint64_t steps = 0;
  uint64_t resident_bytes = 0;
  /// Entries materialized in the snapshot's top-K (upper bound on any k).
  uint32_t top_k_capacity = 0;
};

std::string EncodePredictRequest(const PredictRequest& req);
/// Corruption on truncation; InvalidArgument when a decoded vector violates
/// the SparseVector invariants (unsorted/duplicate indices, non-finite
/// values) — the frame was CRC-valid, so this is a client bug, answered
/// with kErrorResponse on a live connection.
Result<PredictRequest> DecodePredictRequest(std::string_view payload);

std::string EncodePredictResponse(const PredictResponse& resp);
Result<PredictResponse> DecodePredictResponse(std::string_view payload);

std::string EncodeEstimateRequest(const EstimateRequest& req);
Result<EstimateRequest> DecodeEstimateRequest(std::string_view payload);

std::string EncodeEstimateResponse(const EstimateResponse& resp);
Result<EstimateResponse> DecodeEstimateResponse(std::string_view payload);

std::string EncodeTopKRequest(const TopKRequest& req);
Result<TopKRequest> DecodeTopKRequest(std::string_view payload);

std::string EncodeTopKResponse(const TopKResponse& resp);
Result<TopKResponse> DecodeTopKResponse(std::string_view payload);

std::string EncodeModelInfoResponse(const ModelInfoResponse& info);
Result<ModelInfoResponse> DecodeModelInfoResponse(std::string_view payload);

}  // namespace wmsketch::net
