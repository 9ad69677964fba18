#include "net/protocol.h"

#include <sstream>
#include <utility>

#include "core/snapshot_io.h"

namespace wmsketch::net {

namespace {

using snapshot::SnapshotReader;
using snapshot::WriteRaw;

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPredictRequest: return "predict";
    case MsgType::kPredictResponse: return "predict-response";
    case MsgType::kEstimateRequest: return "estimate";
    case MsgType::kEstimateResponse: return "estimate-response";
    case MsgType::kTopKRequest: return "top-k";
    case MsgType::kTopKResponse: return "top-k-response";
    case MsgType::kModelInfoRequest: return "model-info";
    case MsgType::kModelInfoResponse: return "model-info-response";
    case MsgType::kErrorResponse: return "error";
    case MsgType::kShutdownRequest: return "shutdown";
    case MsgType::kShutdownAck: return "shutdown-ack";
  }
  return "unknown";
}

std::string EncodePredictRequest(const PredictRequest& req) {
  std::ostringstream os(std::ios::binary);
  WriteRaw(os, static_cast<uint32_t>(req.examples.size()));
  for (const Example& example : req.examples) {
    const SparseVector& x = example.x;
    WriteRaw(os, static_cast<uint32_t>(x.nnz()));
    snapshot::WriteBytes(os, x.indices().data(), x.nnz() * sizeof(uint32_t));
    snapshot::WriteBytes(os, x.values().data(), x.nnz() * sizeof(float));
  }
  return std::move(os).str();
}

Result<PredictRequest> DecodePredictRequest(std::string_view payload) {
  SnapshotReader in(payload);
  uint32_t count = 0;
  if (!in.ReadRaw(&count)) return Status::Corruption("truncated predict request");
  // Every example costs at least its nnz field, so `count` is bounded by the
  // (already CRC-verified, length-capped) payload before any allocation.
  if (!in.CanRead(count, sizeof(uint32_t))) {
    return Status::Corruption("predict request example count exceeds payload");
  }
  PredictRequest req;
  req.examples.reserve(count);
  for (uint32_t e = 0; e < count; ++e) {
    uint32_t nnz = 0;
    if (!in.ReadRaw(&nnz)) return Status::Corruption("truncated predict request");
    if (!in.CanRead(nnz, sizeof(uint32_t) + sizeof(float))) {
      return Status::Corruption("predict request nnz exceeds payload");
    }
    std::vector<uint32_t> indices(nnz);
    std::vector<float> values(nnz);
    if (!in.ReadExactRaw(reinterpret_cast<char*>(indices.data()),
                         nnz * sizeof(uint32_t)) ||
        !in.ReadExactRaw(reinterpret_cast<char*>(values.data()), nnz * sizeof(float))) {
      return Status::Corruption("truncated predict request");
    }
    Example example;
    example.x = SparseVector(std::move(indices), std::move(values));
    // CRC-valid frame, invalid content: a client bug (unsorted indices,
    // NaNs), answered with an error frame — the connection stays up.
    WMS_RETURN_NOT_OK(example.x.Validate());
    req.examples.push_back(std::move(example));
  }
  return req;
}

std::string EncodePredictResponse(const PredictResponse& resp) {
  std::ostringstream os(std::ios::binary);
  WriteRaw(os, resp.version);
  WriteRaw(os, static_cast<uint32_t>(resp.margins.size()));
  snapshot::WriteBytes(os, resp.margins.data(), resp.margins.size() * sizeof(double));
  return std::move(os).str();
}

Result<PredictResponse> DecodePredictResponse(std::string_view payload) {
  SnapshotReader in(payload);
  PredictResponse resp;
  uint32_t count = 0;
  if (!in.ReadRaw(&resp.version) || !in.ReadRaw(&count)) {
    return Status::Corruption("truncated predict response");
  }
  if (!in.CanRead(count, sizeof(double))) {
    return Status::Corruption("predict response count exceeds payload");
  }
  resp.margins.resize(count);
  if (!in.ReadExactRaw(reinterpret_cast<char*>(resp.margins.data()),
                       count * sizeof(double))) {
    return Status::Corruption("truncated predict response");
  }
  return resp;
}

std::string EncodeEstimateRequest(const EstimateRequest& req) {
  std::ostringstream os(std::ios::binary);
  WriteRaw(os, static_cast<uint32_t>(req.features.size()));
  snapshot::WriteBytes(os, req.features.data(), req.features.size() * sizeof(uint32_t));
  return std::move(os).str();
}

Result<EstimateRequest> DecodeEstimateRequest(std::string_view payload) {
  SnapshotReader in(payload);
  uint32_t count = 0;
  if (!in.ReadRaw(&count)) return Status::Corruption("truncated estimate request");
  if (!in.CanRead(count, sizeof(uint32_t))) {
    return Status::Corruption("estimate request count exceeds payload");
  }
  EstimateRequest req;
  req.features.resize(count);
  if (!in.ReadExactRaw(reinterpret_cast<char*>(req.features.data()),
                       count * sizeof(uint32_t))) {
    return Status::Corruption("truncated estimate request");
  }
  return req;
}

std::string EncodeEstimateResponse(const EstimateResponse& resp) {
  std::ostringstream os(std::ios::binary);
  WriteRaw(os, resp.version);
  WriteRaw(os, static_cast<uint32_t>(resp.estimates.size()));
  snapshot::WriteBytes(os, resp.estimates.data(), resp.estimates.size() * sizeof(float));
  return std::move(os).str();
}

Result<EstimateResponse> DecodeEstimateResponse(std::string_view payload) {
  SnapshotReader in(payload);
  EstimateResponse resp;
  uint32_t count = 0;
  if (!in.ReadRaw(&resp.version) || !in.ReadRaw(&count)) {
    return Status::Corruption("truncated estimate response");
  }
  if (!in.CanRead(count, sizeof(float))) {
    return Status::Corruption("estimate response count exceeds payload");
  }
  resp.estimates.resize(count);
  if (!in.ReadExactRaw(reinterpret_cast<char*>(resp.estimates.data()),
                       count * sizeof(float))) {
    return Status::Corruption("truncated estimate response");
  }
  return resp;
}

std::string EncodeTopKRequest(const TopKRequest& req) {
  std::ostringstream os(std::ios::binary);
  WriteRaw(os, req.k);
  return std::move(os).str();
}

Result<TopKRequest> DecodeTopKRequest(std::string_view payload) {
  SnapshotReader in(payload);
  TopKRequest req;
  if (!in.ReadRaw(&req.k)) return Status::Corruption("truncated top-k request");
  return req;
}

std::string EncodeTopKResponse(const TopKResponse& resp) {
  std::ostringstream os(std::ios::binary);
  WriteRaw(os, resp.version);
  WriteRaw(os, static_cast<uint32_t>(resp.entries.size()));
  for (const FeatureWeight& fw : resp.entries) {
    WriteRaw(os, fw.feature);
    WriteRaw(os, fw.weight);
  }
  return std::move(os).str();
}

Result<TopKResponse> DecodeTopKResponse(std::string_view payload) {
  SnapshotReader in(payload);
  TopKResponse resp;
  uint32_t count = 0;
  if (!in.ReadRaw(&resp.version) || !in.ReadRaw(&count)) {
    return Status::Corruption("truncated top-k response");
  }
  if (!in.CanRead(count, sizeof(uint32_t) + sizeof(float))) {
    return Status::Corruption("top-k response count exceeds payload");
  }
  resp.entries.resize(count);
  for (FeatureWeight& fw : resp.entries) {
    if (!in.ReadRaw(&fw.feature) || !in.ReadRaw(&fw.weight)) {
      return Status::Corruption("truncated top-k response");
    }
  }
  return resp;
}

std::string EncodeModelInfoResponse(const ModelInfoResponse& info) {
  std::ostringstream os(std::ios::binary);
  WriteRaw(os, info.protocol_version);
  WriteRaw(os, info.snapshot_version);
  WriteRaw(os, info.steps);
  WriteRaw(os, info.resident_bytes);
  WriteRaw(os, info.top_k_capacity);
  return std::move(os).str();
}

Result<ModelInfoResponse> DecodeModelInfoResponse(std::string_view payload) {
  SnapshotReader in(payload);
  ModelInfoResponse info;
  if (!in.ReadRaw(&info.protocol_version) || !in.ReadRaw(&info.snapshot_version) ||
      !in.ReadRaw(&info.steps) || !in.ReadRaw(&info.resident_bytes) ||
      !in.ReadRaw(&info.top_k_capacity)) {
    return Status::Corruption("truncated model-info response");
  }
  if (info.protocol_version != kServingProtocolVersion) {
    return Status::InvalidArgument("unsupported serving protocol version " +
                                   std::to_string(info.protocol_version));
  }
  return info;
}

}  // namespace wmsketch::net
